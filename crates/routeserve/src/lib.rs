//! # routeserve
//!
//! The serving path: answer routing *queries* at sustained throughput
//! instead of sweeping experiments.
//!
//! `trafficlab` asks "what does this scheme cost over a whole traffic
//! pattern" and pays for BFS ground truth, stretch folds and congestion
//! counters.  A routing *server* answers a different question: given a built
//! scheme, how many `src → dst` queries per second can it resolve, and at
//! what latency?  This crate is that front door:
//!
//! * [`serve`] drives a compiled [`WorkloadPlan`] (an explicit query stream
//!   or a synthetic `WorkloadSpec` load) through a scheme's routing function
//!   and reports [`ServeStats`]: sustained msgs/s, delivery-outcome buckets
//!   and chunk wall-time percentiles.  No BFS, no stretch — the serving path
//!   measures the *scheme*, not the graph.  Every query runs through
//!   [`routemodel::walk`], the model's one routing loop, without a trace.
//! * [`parse_queries`] reads the `src dst` line format accepted on
//!   stdin/file by the `routeserve` binary.
//!
//! The plan is cut into chunks of at most `batch` consecutive queries (a
//! chunk may span sources), the work items of
//! [`graphkit::par::map_fold_ordered`]; each worker owns one reused
//! [`routemodel::Header`], so a warmed-up worker routes with zero
//! allocations per message.  The primitive folds the chunks in plan order:
//! outcome counts are sums, so they are independent of chunk size and
//! thread count, and a routing-model error is the earliest chunk's.
//! Wall-clock numbers (`secs`, percentiles) are measurements and vary run
//! to run.

#![forbid(unsafe_code)]

use graphkit::{par, GraphView};
use routemodel::{walk, Header, RoutingError, RoutingFunction};
use std::time::Instant;
use trafficlab::{OutcomeCounts, SourceDests, WorkloadPlan};

/// Why a serving run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The plan was compiled for a graph with a different vertex count.
    PlanMismatch {
        /// Vertex count the plan was compiled for.
        plan_nodes: usize,
        /// Vertex count of the graph being served.
        graph_nodes: usize,
    },
    /// A routing-model violation (`RoutingError::PortOutOfRange`).
    Routing(RoutingError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::PlanMismatch {
                plan_nodes,
                graph_nodes,
            } => write!(
                f,
                "plan compiled for {plan_nodes} nodes, graph has {graph_nodes}"
            ),
            ServeError::Routing(e) => write!(f, "routing-model violation: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RoutingError> for ServeError {
    fn from(e: RoutingError) -> Self {
        ServeError::Routing(e)
    }
}

/// Knobs of one serving run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum queries per chunk, the unit of work sharing and of the
    /// wall-time samples; a chunk is a contiguous run of the plan and may
    /// span sources.  `0` uses 4096.
    pub batch: usize,
    /// Worker count; `0` uses [`graphkit::par::default_threads`].
    pub threads: usize,
    /// Hop budget per message; `0` uses `routemodel::default_hop_limit(n)`.
    pub hop_limit: usize,
}

impl ServeConfig {
    /// The default configuration: every knob at `0`, meaning its default.
    pub fn batched() -> Self {
        ServeConfig {
            batch: 0,
            threads: 0,
            hop_limit: 0,
        }
    }

    fn effective_batch(&self) -> usize {
        if self.batch == 0 {
            4096
        } else {
            self.batch
        }
    }

    fn effective_threads(&self, n: usize, chunks: usize) -> usize {
        let t = if self.threads == 0 {
            par::default_threads(n)
        } else {
            self.threads
        };
        t.clamp(1, chunks.max(1))
    }

    fn effective_hop_limit(&self, n: usize) -> usize {
        if self.hop_limit == 0 {
            routemodel::default_hop_limit(n)
        } else {
            self.hop_limit
        }
    }
}

/// What one serving run measured.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Effective chunk size.
    pub batch: usize,
    /// Effective worker count.
    pub threads: usize,
    /// Effective hop budget.
    pub hop_limit: usize,
    /// Per-message fates, merged across workers (thread-count invariant).
    pub outcomes: OutcomeCounts,
    /// Wall-clock seconds of the routing phase.
    pub secs: f64,
    /// Chunk wall-time percentiles in microseconds: the wall time of a whole
    /// chunk of up to `batch` queries, weighted by the queries it carried.
    /// This is not the latency of one query.
    pub chunk_p50_us: f64,
    /// 90th percentile, same definition.
    pub chunk_p90_us: f64,
    /// 99th percentile, same definition.
    pub chunk_p99_us: f64,
}

impl ServeStats {
    /// Sustained throughput over attempted messages.
    pub fn messages_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.outcomes.attempted() as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Fraction of attempted messages delivered.
    pub fn delivery_rate(&self) -> f64 {
        self.outcomes.delivery_rate()
    }
}

/// What one chunk hands to the ordered fold.
#[derive(Default)]
struct ChunkOut {
    outcomes: OutcomeCounts,
    /// Wall time of the chunk in microseconds.
    elapsed_us: f64,
    /// The routing-model violation that ended the chunk early, if any.
    error: Option<RoutingError>,
}

/// Serves every query of `plan` through `r` over `g` and reports what was
/// measured.  Outcome counts are identical for any chunk size and thread
/// count.  Errors: a plan compiled for another vertex count
/// ([`ServeError::PlanMismatch`], checked before any work), or a
/// routing-model violation (`RoutingError::PortOutOfRange`) — the one the
/// earliest query in plan order hit, at any chunk size and thread count.
pub fn serve(
    g: GraphView<'_>,
    r: &(dyn RoutingFunction + Send + Sync),
    plan: &WorkloadPlan,
    cfg: &ServeConfig,
) -> Result<ServeStats, ServeError> {
    let n = g.num_nodes();
    if plan.num_nodes() != n {
        return Err(ServeError::PlanMismatch {
            plan_nodes: plan.num_nodes(),
            graph_nodes: n,
        });
    }
    let batch = cfg.effective_batch();
    let hop_limit = cfg.effective_hop_limit(n);
    let dests_of = |s: usize| match plan.dests(s) {
        SourceDests::AllOthers => n - 1,
        SourceDests::List(list) => list.len(),
    };

    // Cut the plan into chunks of `batch` consecutive queries (the last may
    // be shorter); a chunk starts at query `start` of source `source`.
    let mut chunk_starts: Vec<(u32, u32)> = Vec::new();
    let mut messages = 0usize;
    let mut room = 0usize;
    for s in 0..n {
        let mut start = 0usize;
        let total = dests_of(s);
        messages += total;
        while start < total {
            if room == 0 {
                chunk_starts.push((s as u32, start as u32));
                room = batch;
            }
            let take = room.min(total - start);
            start += take;
            room -= take;
        }
    }
    let threads = cfg.effective_threads(n, chunk_starts.len());

    let mut outcomes = OutcomeCounts::default();
    // (chunk wall-time µs, messages in chunk) samples.
    let mut samples: Vec<(f64, u64)> = Vec::with_capacity(chunk_starts.len());
    let mut failure = None;
    let t0 = Instant::now();
    par::map_fold_ordered(
        chunk_starts.len(),
        threads,
        || Header::to_dest(0),
        |header, i, out: &mut ChunkOut| {
            let clock = Instant::now();
            out.outcomes = OutcomeCounts::default();
            let mut route_one = |s: usize, t: usize| -> Result<(), RoutingError> {
                let (outcome, _) = walk(g, r, s, t, hop_limit, header, None)?;
                out.outcomes.record(outcome);
                Ok(())
            };
            let (mut s, mut start) = (chunk_starts[i].0 as usize, chunk_starts[i].1 as usize);
            let mut left = batch.min(messages - i * batch);
            let mut result = Ok(());
            while left > 0 && result.is_ok() {
                let count = left.min(dests_of(s) - start);
                result = match plan.dests(s) {
                    SourceDests::List(list) => list[start..start + count]
                        .iter()
                        .filter(|&&t| t as usize != s)
                        .try_for_each(|&t| route_one(s, t as usize)),
                    // Destinations of `s` are 0..n with `s` skipped.
                    SourceDests::AllOthers => (start..start + count)
                        .try_for_each(|t| route_one(s, if t < s { t } else { t + 1 })),
                };
                left -= count;
                s += 1;
                start = 0;
            }
            out.error = result.err();
            out.elapsed_us = clock.elapsed().as_secs_f64() * 1e6;
        },
        |i, out| {
            outcomes.merge(&out.outcomes);
            samples.push((out.elapsed_us, batch.min(messages - i * batch) as u64));
            if failure.is_none() {
                failure = out.error.take();
            }
        },
    );
    let secs = t0.elapsed().as_secs_f64();

    if let Some(e) = failure {
        return Err(e.into());
    }
    Ok(ServeStats {
        batch,
        threads,
        hop_limit,
        outcomes,
        secs,
        chunk_p50_us: weighted_percentile(&mut samples, 0.50),
        chunk_p90_us: weighted_percentile(&mut samples, 0.90),
        chunk_p99_us: weighted_percentile(&mut samples, 0.99),
    })
}

/// Weighted percentile over `(value, weight)` samples: the smallest value
/// whose cumulative weight reaches `q` of the total.  `0.0` on no samples.
fn weighted_percentile(samples: &mut [(f64, u64)], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = samples.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return samples[samples.len() - 1].0;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for &(v, w) in samples.iter() {
        cum += w;
        if cum >= target {
            return v;
        }
    }
    samples[samples.len() - 1].0
}

/// Parses a query stream: one `src dst` pair per line, whitespace separated.
/// Blank lines and `#` comments are skipped; both endpoints must be in
/// `0..n`.  Self-pairs are kept here and dropped by
/// [`WorkloadPlan::from_pairs`], matching every generated workload.
pub fn parse_queries(text: &str, n: usize) -> Result<Vec<(usize, usize)>, String> {
    let mut pairs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!(
                "line {}: expected 'src dst', got '{line}'",
                lineno + 1
            ));
        };
        let parse = |tok: &str| -> Result<usize, String> {
            let v: usize = tok
                .parse()
                .map_err(|_| format!("line {}: '{tok}' is not a vertex id", lineno + 1))?;
            if v >= n {
                return Err(format!(
                    "line {}: vertex {v} out of range for n={n}",
                    lineno + 1
                ));
            }
            Ok(v)
        };
        pairs.push((parse(a)?, parse(b)?));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::{generators, FailureSet};
    use routemodel::function::dest_address_routing;
    use routemodel::Action;
    use routeschemes::spec::SchemeSpec;
    use routeschemes::{GraphHints, SchemeKind};
    use std::sync::mpsc::channel;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;
    use trafficlab::WorkloadSpec;

    fn plan_uniform(n: usize, messages: u64, seed: u64) -> WorkloadPlan {
        WorkloadSpec::Uniform { messages, seed }.compile(n)
    }

    /// Every chunk size and thread count must bucket every query
    /// identically, on full and failure-masked views.
    #[test]
    fn outcome_counts_are_chunk_and_thread_invariant() {
        let g = generators::random_connected(192, 6.0 / 192.0, 0xBEEF);
        let plan = plan_uniform(192, 4000, 7);
        let failures = FailureSet::sample(&g, 0.1, 0xF411);
        for spec in [
            SchemeSpec::default_for(SchemeKind::SpanningTree),
            SchemeSpec::default_for(SchemeKind::Landmark),
            SchemeSpec::default_for(SchemeKind::Table),
        ] {
            let inst = spec.build(&g, &GraphHints::none()).unwrap();
            for view in [GraphView::full(&g), GraphView::masked(&g, &failures)] {
                let mut counts = Vec::new();
                for batch in [0usize, 1, 7, 64, 4096] {
                    for threads in [1usize, 2, 4] {
                        let cfg = ServeConfig {
                            batch,
                            threads,
                            hop_limit: 0,
                        };
                        let stats = serve(view, &*inst.routing, &plan, &cfg).unwrap();
                        assert_eq!(stats.outcomes.attempted(), plan.messages());
                        counts.push(((batch, threads), stats.outcomes));
                    }
                }
                for (cfg, c) in &counts[1..] {
                    assert_eq!(
                        c,
                        &counts[0].1,
                        "{}: outcome counts at (batch, threads) = {cfg:?} diverged",
                        spec.spec_string()
                    );
                }
            }
        }
    }

    /// A plan compiled for another graph is a typed error, not a panic.
    #[test]
    fn mismatched_plan_is_a_typed_error() {
        let g = generators::cycle(8);
        let inst = SchemeSpec::default_for(SchemeKind::SpanningTree)
            .build(&g, &GraphHints::none())
            .unwrap();
        let plan = plan_uniform(9, 10, 1);
        let err = serve(
            GraphView::full(&g),
            &*inst.routing,
            &plan,
            &ServeConfig::batched(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ServeError::PlanMismatch {
                plan_nodes: 9,
                graph_nodes: 8
            }
        );
        assert_eq!(err.to_string(), "plan compiled for 9 nodes, graph has 8");
    }

    /// A routing-model violation is reported for the earliest query in plan
    /// order, whatever the chunk size and thread count.  Every vertex but 0
    /// requests an out-of-range port that names itself and the destination,
    /// so each failing query fails with its own error.  The earliest one,
    /// 0 → 2 (0 forwards to 1, which fails), waits until some later query
    /// has failed — or 100 ms, when no other worker can run one — so later
    /// chunks finish failing first.
    #[test]
    fn errors_report_the_earliest_query() {
        let g = generators::cycle(12);
        let to_1 = g.port_to(0, 1).unwrap();
        let (failed_tx, failed_rx) = channel();
        let failed_rx = Arc::new(Mutex::new(failed_rx));
        let waiting = Arc::clone(&failed_rx);
        let failed_tx = Mutex::new(failed_tx);
        let r = dest_address_routing("failing", move |node, h: &Header| {
            if node == h.dest {
                Action::Deliver
            } else if node == 0 {
                Action::Forward(to_1)
            } else {
                if (node, h.dest) == (1, 2) {
                    // Released by a later failure or by the timeout alike.
                    let _ = waiting
                        .lock()
                        .unwrap()
                        .recv_timeout(Duration::from_millis(100));
                } else {
                    failed_tx.lock().unwrap().send(()).unwrap();
                }
                Action::Forward(1000 * node + h.dest)
            }
        });
        let plan = WorkloadSpec::AllPairs.compile(12);
        let earliest = ServeError::Routing(RoutingError::PortOutOfRange {
            node: 1,
            port: 1002,
            degree: 2,
        });
        for threads in [1usize, 2, 3] {
            for batch in [1usize, 7, 4096] {
                while failed_rx.lock().unwrap().try_recv().is_ok() {}
                let cfg = ServeConfig {
                    batch,
                    threads,
                    hop_limit: 0,
                };
                assert_eq!(
                    serve(GraphView::full(&g), &r, &plan, &cfg).unwrap_err(),
                    earliest,
                    "threads={threads} batch={batch}"
                );
            }
        }
    }

    /// The all-pairs plan exercises the `AllOthers` destination
    /// materialization; every query must be delivered on a live view.
    #[test]
    fn all_pairs_plan_serves_every_pair() {
        let g = generators::hypercube(6);
        let inst = SchemeSpec::default_for(SchemeKind::Ecube)
            .build(&g, &GraphHints::hypercube(6))
            .unwrap();
        let plan = WorkloadSpec::AllPairs.compile(64);
        let cfg = ServeConfig {
            batch: 17, // ragged chunks straddle the source-skip boundary
            ..ServeConfig::batched()
        };
        let stats = serve(GraphView::full(&g), &*inst.routing, &plan, &cfg).unwrap();
        assert_eq!(stats.outcomes.delivered, 64 * 63);
        assert_eq!(stats.delivery_rate(), 1.0);
        assert!(stats.messages_per_sec() > 0.0);
        assert!(
            stats.chunk_p50_us <= stats.chunk_p90_us && stats.chunk_p90_us <= stats.chunk_p99_us
        );
    }

    #[test]
    fn empty_plan_is_not_an_outage() {
        let g = generators::cycle(8);
        let inst = SchemeSpec::default_for(SchemeKind::SpanningTree)
            .build(&g, &GraphHints::none())
            .unwrap();
        let plan = WorkloadPlan::from_pairs(8, vec![(3, 3)]); // self-pair only
        let stats = serve(
            GraphView::full(&g),
            &*inst.routing,
            &plan,
            &ServeConfig::batched(),
        )
        .unwrap();
        assert_eq!(stats.outcomes.attempted(), 0);
        assert_eq!(stats.delivery_rate(), 1.0);
        assert_eq!(stats.messages_per_sec(), 0.0);
        assert_eq!(stats.chunk_p99_us, 0.0);
    }

    #[test]
    fn query_streams_parse_and_reject() {
        let text = "0 5\n# comment\n\n3 3   # self pair kept here\n 7 1 \n";
        assert_eq!(
            parse_queries(text, 8).unwrap(),
            vec![(0, 5), (3, 3), (7, 1)]
        );
        assert!(parse_queries("0 8", 8)
            .unwrap_err()
            .contains("out of range"));
        assert!(parse_queries("0", 8).unwrap_err().contains("expected"));
        assert!(parse_queries("0 1 2", 8).unwrap_err().contains("expected"));
        assert!(parse_queries("a 1", 8).unwrap_err().contains("vertex id"));
        // Self-pairs are dropped at plan compile, like generated workloads.
        let plan = WorkloadPlan::from_pairs(8, parse_queries(text, 8).unwrap());
        assert_eq!(plan.messages(), 2);
    }

    #[test]
    fn percentiles_weight_by_message_count() {
        let mut samples = vec![(100.0, 99), (1000.0, 1)];
        assert_eq!(weighted_percentile(&mut samples, 0.50), 100.0);
        assert_eq!(weighted_percentile(&mut samples, 0.99), 100.0);
        assert_eq!(weighted_percentile(&mut samples, 1.0), 1000.0);
        assert_eq!(weighted_percentile(&mut [], 0.5), 0.0);
    }
}
