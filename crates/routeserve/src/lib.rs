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
//! Work is sharded across `std::thread::scope` workers in chunks of at most
//! `batch` same-source queries; each worker owns one reused
//! [`routemodel::Header`], so a warmed-up worker routes with zero
//! allocations per message.  Outcome counters merge by integer addition, so
//! the counts are independent of chunk size, thread count and chunk
//! scheduling; wall-clock numbers (`secs`, percentiles) are measurements
//! and vary run to run.

#![forbid(unsafe_code)]

use graphkit::GraphView;
use routemodel::{walk, Header, RoutingError, RoutingFunction};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
    /// Maximum same-source queries per chunk (the unit of work sharing and
    /// of the wall-time samples); `0` uses 4096.
    pub batch: usize,
    /// Worker count; `0` uses `std::thread::available_parallelism`.
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

    fn effective_threads(&self, chunks: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|x| x.get())
                .unwrap_or(1)
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

/// A unit of sharded work: `count` destinations of `source`, starting at
/// offset `start` of the source's destination sequence.
#[derive(Clone, Copy)]
struct Chunk {
    source: u32,
    start: u32,
    count: u32,
}

/// What each worker folds into the shared accumulator: outcome counts,
/// `(chunk wall-time µs, messages)` samples, and the first routing error
/// (if any).
type WorkerMerge = (OutcomeCounts, Vec<(f64, u64)>, Option<RoutingError>);

/// Serves every query of `plan` through `r` over `g` and reports what was
/// measured.  Outcome counts are identical for any chunk size and thread
/// count.  Errors: a plan compiled for another vertex count
/// ([`ServeError::PlanMismatch`], checked before any work), or a
/// routing-model violation (`RoutingError::PortOutOfRange`), reported from
/// whichever chunk hit it.
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

    // Chunk the plan up front: same-source runs of at most `batch` queries.
    let mut chunks: Vec<Chunk> = Vec::new();
    for s in 0..n {
        let total = match plan.dests(s) {
            SourceDests::AllOthers => n - 1,
            SourceDests::List(list) => list.len(),
        };
        let mut start = 0usize;
        while start < total {
            let count = batch.min(total - start);
            chunks.push(Chunk {
                source: s as u32,
                start: start as u32,
                count: count as u32,
            });
            start += count;
        }
    }
    let threads = cfg.effective_threads(chunks.len());

    let cursor = AtomicUsize::new(0);
    let merged: Mutex<WorkerMerge> = Mutex::new((OutcomeCounts::default(), Vec::new(), None));

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut outcomes = OutcomeCounts::default();
                // (chunk wall-time µs, messages in chunk) samples.
                let mut samples: Vec<(f64, u64)> = Vec::new();
                let mut header = Header::to_dest(0);
                let mut failure: Option<RoutingError> = None;

                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(chunk) = chunks.get(i) else { break };
                    let s = chunk.source as usize;
                    let (start, count) = (chunk.start as usize, chunk.count as usize);
                    let mut route_one = |t: usize| -> Result<(), RoutingError> {
                        let (outcome, _) = walk(g, r, s, t, hop_limit, &mut header, None)?;
                        outcomes.record(outcome);
                        Ok(())
                    };

                    let t = Instant::now();
                    let result = match plan.dests(s) {
                        SourceDests::List(list) => list[start..start + count]
                            .iter()
                            .filter(|&&t| t as usize != s)
                            .try_for_each(|&t| route_one(t as usize)),
                        // Destinations of `s` are 0..n with `s` skipped.
                        SourceDests::AllOthers => (start..start + count)
                            .map(|i| if i < s { i } else { i + 1 })
                            .try_for_each(route_one),
                    };
                    let elapsed_us = t.elapsed().as_secs_f64() * 1e6;
                    samples.push((elapsed_us, count as u64));
                    if let Err(e) = result {
                        failure = Some(e);
                        break;
                    }
                }

                let mut m = merged.lock().unwrap();
                m.0.merge(&outcomes);
                m.1.append(&mut samples);
                if m.2.is_none() {
                    m.2 = failure;
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();

    let (outcomes, mut samples, failure) = merged.into_inner().unwrap();
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
    use routeschemes::spec::SchemeSpec;
    use routeschemes::{GraphHints, SchemeKind};
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
