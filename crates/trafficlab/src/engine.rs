//! The sharded, parallel workload executor.
//!
//! [`run_workload`] drives one routing function over one compiled
//! [`WorkloadPlan`]:
//!
//! 1. the sources that actually send messages are grouped into **blocks** of
//!    consecutive vertex ids (at most [`EngineConfig::block_rows`] per
//!    block);
//! 2. blocks are the work items of [`graphkit::par::map_fold_ordered`],
//!    drawn by workers from one shared cursor; every worker owns one
//!    [`BfsScratch`], one reusable [`DistanceBlock`] of block-local BFS rows
//!    and its own counters, and routes each block's messages through
//!    [`routemodel::walk`] with one [`Header`] and (only when congestion is
//!    tracked) one [`RouteTrace`] per block — the inner loop performs **zero
//!    allocations per message**, and peak memory is
//!    `O(workers · block_rows · n)` instead of the dense matrix's `n²`;
//! 3. an **all-pairs** plan goes destination-major instead.  Per block of
//!    destinations one [`DistanceBlock`] gives `d(s, t) = d(t, s)` (the
//!    graph is undirected), and per destination `routecheck`'s memoized
//!    chain walk ([`Checker::walk_dest`]) resolves every source: with a
//!    canonical header the routes toward one destination form a functional
//!    graph, so each vertex's class and hop count (`len(v) = 1 +
//!    len(next(v))`) cost one `port` call instead of one per hop.  A proven
//!    chain has at most `n − 1` hops, below the hop limit, so it is a
//!    delivery of exactly that length; a cycle is a hop-limit outcome; a
//!    dead arc is a link-down drop.  Arc loads come from one pass over the
//!    chains' in-forest in decreasing hop count ([`Checker::arc_loads`]).
//!    A pair whose header is not canonical is routed by the per-message
//!    loop; if any chain asks for a port out of range, the whole run is
//!    redone by the per-message loop, which reports the earliest source's
//!    [`RoutingError`] exactly.  [`WorkloadReport::memoized`] says which path
//!    ran;
//! 4. stretch, congestion counters, route-length histograms and outcome
//!    counts stay in the worker and are merged once the primitive hands the
//!    workers back — integer addition and the order-free
//!    [`StretchAccumulator`] merge, so the whole [`WorkloadReport`] is
//!    deterministic for every worker count and block size, whichever path
//!    ran.  For the all-pairs workload the [`StretchReport`] is
//!    **bit-identical** to `routemodel::stretch_factor`, the sequential
//!    reference over a dense [`DistanceMatrix`], by construction (the
//!    property and differential tests pin this).  This engine is the one
//!    parallel and sampled stretch measurement of the workspace.
//!
//! [`DistanceMatrix`]: graphkit::DistanceMatrix

use crate::metrics::{CongestionCounters, CongestionReport, LengthHistogram};
use crate::workload::{SourceDests, WorkloadPlan};
use graphkit::{par, BfsScratch, Dist, DistanceBlock, GraphView, NodeId, INFINITY};
use routecheck::{Checker, SourceClass};
use routemodel::{
    default_hop_limit, walk, DeliveryOutcome, Header, RouteTrace, RoutingError, RoutingFunction,
    StretchAccumulator, StretchReport,
};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Tuning knobs of the executor.  The defaults are right for tests and
/// moderate graphs; large sweeps mostly tune `block_rows` (smaller blocks for
/// sparse-source workloads, so no BFS row is computed for a silent source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker count; `0` uses [`graphkit::par::default_threads`].
    pub threads: usize,
    /// Maximum source rows per distance block; `0` picks 64.
    pub block_rows: usize,
    /// Whether to count per-arc congestion (costs `2m` `u64`s per worker).
    pub track_congestion: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            block_rows: 0,
            track_congestion: true,
        }
    }
}

impl EngineConfig {
    fn effective_threads(&self, n: usize) -> usize {
        if self.threads == 0 {
            par::default_threads(n)
        } else {
            self.threads
        }
    }

    fn effective_block_rows(&self) -> usize {
        if self.block_rows == 0 {
            64
        } else {
            self.block_rows
        }
    }
}

/// Per-message fate counters over one workload run.
///
/// On a healthy graph every attempted message is delivered and the three
/// failure buckets stay zero; on a degraded [`GraphView`] the split between
/// [`DeliveryOutcome::LinkDown`] drops and [`DeliveryOutcome::HopLimit`]
/// loops is the headline number of the churn reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Messages that reached their destination.
    pub delivered: u64,
    /// Messages dropped on a dead link.
    pub link_down: u64,
    /// Messages that exhausted the hop budget (forwarding loop).
    pub hop_limit: u64,
    /// Messages delivered at the wrong vertex.
    pub wrong_delivery: u64,
}

impl OutcomeCounts {
    /// Buckets one message's fate.
    pub fn record(&mut self, outcome: DeliveryOutcome) {
        match outcome {
            DeliveryOutcome::Delivered => self.delivered += 1,
            DeliveryOutcome::LinkDown { .. } => self.link_down += 1,
            DeliveryOutcome::HopLimit { .. } => self.hop_limit += 1,
            DeliveryOutcome::WrongDelivery { .. } => self.wrong_delivery += 1,
        }
    }

    /// Integer-adds another worker's counters (order-insensitive).
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.delivered += other.delivered;
        self.link_down += other.link_down;
        self.hop_limit += other.hop_limit;
        self.wrong_delivery += other.wrong_delivery;
    }

    /// The bucket named by a [`DeliveryOutcome`] machine code (see
    /// [`DeliveryOutcome::ALL_CODES`]); `None` for an unknown code.  JSON
    /// renderers iterate the codes through this accessor so their keys
    /// cannot drift from the model's vocabulary.
    pub fn by_code(&self, code: &str) -> Option<u64> {
        match code {
            "delivered" => Some(self.delivered),
            "link_down" => Some(self.link_down),
            "hop_limit" => Some(self.hop_limit),
            "wrong_delivery" => Some(self.wrong_delivery),
            _ => None,
        }
    }

    /// Messages attempted (delivered or not; unreachable skips excluded).
    pub fn attempted(&self) -> u64 {
        self.delivered + self.link_down + self.hop_limit + self.wrong_delivery
    }

    /// Fraction of attempted messages that arrived; `1.0` on an empty run so
    /// an idle source never reads as an outage.
    pub fn delivery_rate(&self) -> f64 {
        let attempted = self.attempted();
        if attempted == 0 {
            1.0
        } else {
            self.delivered as f64 / attempted as f64
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Stretch over the delivered messages (for the all-pairs workload:
    /// bit-identical to the sequential `stretch_factor` reference, whichever
    /// path ran).
    pub stretch: StretchReport,
    /// Messages actually routed and delivered.
    pub routed_messages: u64,
    /// Per-message fate split (partial-delivery reporting on degraded views).
    pub outcomes: OutcomeCounts,
    /// Planned messages dropped because the destination was unreachable.
    pub skipped_unreachable: u64,
    /// Per-arc congestion summary (when tracking was enabled).
    pub congestion: Option<CongestionReport>,
    /// Route-length histogram over delivered messages.
    pub lengths: LengthHistogram,
    /// Number of source blocks processed.
    pub blocks: usize,
    /// Blocks whose BFS rows fit the narrow `u8` representation.
    pub narrow_blocks: usize,
    /// Peak-memory proxy: bytes of the workload plan plus, per worker, the
    /// largest block's distance rows, BFS buffers
    /// ([`BfsScratch::block_bytes`]: masks and vertex lists), routing header
    /// and trace buffers, the memoized path's chain memo
    /// ([`Checker::walk_bytes`]), and the metric counters.  Any worker may draw
    /// the largest block, so each is charged for it; the figure depends on
    /// the worker count but not on which worker drew which block.  This is
    /// what replaces the dense matrix's `4 n²` bytes.
    pub peak_tracked_bytes: u64,
    /// Whether the run took the memoized all-pairs sweep (destination-major
    /// chain walks) rather than routing message by message.  Observability
    /// only: both paths measure the same report.
    pub memoized: bool,
    /// Wall-clock seconds the engine spent on this run (block BFS plus
    /// routing), measured inside [`run_workload`] so every report row
    /// carries its own throughput.
    pub run_secs: f64,
}

impl WorkloadReport {
    /// Delivered messages per second of engine run time (`0.0` when the run
    /// was too fast for the clock to resolve).
    pub fn messages_per_sec(&self) -> f64 {
        if self.run_secs > 0.0 {
            self.routed_messages as f64 / self.run_secs
        } else {
            0.0
        }
    }
}

/// Equality is over what was *measured*: `run_secs` is wall-clock noise, so
/// the determinism tests can compare whole reports across thread and block
/// choices without tripping on timing.
impl PartialEq for WorkloadReport {
    fn eq(&self, other: &Self) -> bool {
        self.stretch == other.stretch
            && self.routed_messages == other.routed_messages
            && self.outcomes == other.outcomes
            && self.skipped_unreachable == other.skipped_unreachable
            && self.congestion == other.congestion
            && self.lengths == other.lengths
            && self.blocks == other.blocks
            && self.narrow_blocks == other.narrow_blocks
            && self.peak_tracked_bytes == other.peak_tracked_bytes
            && self.memoized == other.memoized
    }
}

/// One contiguous run of message-sending sources.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Range of indices into the active-source list.
    rank_lo: usize,
    rank_hi: usize,
    /// Range of vertex ids covered by the distance block.
    src_lo: usize,
    rows: usize,
}

/// One worker's scratch and its order-insensitive counters.
struct Worker {
    bfs: BfsScratch,
    rows: DistanceBlock,
    /// Memoized chain walks (all-pairs path only; empty otherwise).
    checker: Checker,
    counters: Counters,
    narrow_blocks: usize,
}

/// What a worker measured over the messages it resolved.
struct Counters {
    stretch: StretchAccumulator,
    congestion: Option<CongestionCounters>,
    lengths: LengthHistogram,
    outcomes: OutcomeCounts,
    skipped: u64,
}

impl Worker {
    fn new(view: GraphView<'_>, cfg: &EngineConfig) -> Self {
        Worker {
            bfs: BfsScratch::with_capacity(view.num_nodes()),
            rows: DistanceBlock::new(),
            checker: Checker::new(),
            counters: Counters {
                stretch: StretchAccumulator::new(),
                congestion: cfg
                    .track_congestion
                    .then(|| CongestionCounters::for_graph(view.graph())),
                lengths: LengthHistogram::new(),
                outcomes: OutcomeCounts::default(),
                skipped: 0,
            },
            narrow_blocks: 0,
        }
    }

    /// Fills the worker's distance block with the BFS rows of vertices
    /// `lo .. lo + rows`.
    fn distances(&mut self, view: GraphView<'_>, lo: usize, rows: usize) {
        self.rows.recompute(view, lo, rows, &mut self.bfs);
        if self.rows.is_narrow() {
            self.narrow_blocks += 1;
        }
    }

    /// Bytes a fresh worker needs for a block of `rows` BFS rows: its
    /// distance rows (the narrow rows, plus the wide copy once the block
    /// widened), BFS buffers, routing header and trace.
    fn block_bytes(&self, n: usize, rows: usize, header: &Header, trace: &RouteTrace) -> u64 {
        let cells = (rows * n) as u64;
        let row_bytes = if self.rows.is_narrow() {
            cells
        } else {
            cells * (1 + std::mem::size_of::<Dist>() as u64)
        };
        row_bytes + BfsScratch::block_bytes(n, rows) + header.bytes() + trace.bytes()
    }
}

impl Counters {
    /// Routes one message with the routing loop and counts its fate;
    /// metrics cover delivered messages only.
    #[allow(clippy::too_many_arguments)]
    fn route<R: RoutingFunction + ?Sized>(
        &mut self,
        view: GraphView<'_>,
        r: &R,
        s: NodeId,
        t: NodeId,
        dist: Dist,
        hop_limit: usize,
        header: &mut Header,
        trace: &mut RouteTrace,
    ) -> Result<(), RoutingError> {
        let tracked = self.congestion.is_some().then_some(&mut *trace);
        let (outcome, hops) = walk(view, r, s, t, hop_limit, header, tracked)?;
        self.outcomes.record(outcome);
        // A dropped message has no meaningful length or stretch, and its
        // partial trace would skew the congestion picture.
        if outcome.is_delivered() {
            self.stretch.record(s, t, hops as u32, dist);
            self.lengths.record(hops);
            if let Some(c) = &mut self.congestion {
                for (&u, &p) in trace.path.iter().zip(&trace.ports) {
                    c.add_load(u, p, 1);
                }
            }
        }
        Ok(())
    }
}

/// What one block hands to the ordered fold.
#[derive(Default)]
struct BlockOut {
    /// The routing-model violation that ended the block early, if any
    /// (per-message path).
    error: Option<RoutingError>,
    /// Bytes a fresh worker needs for this block.
    bytes: u64,
}

/// Runs `plan` against routing function `r` on `g` — a plain
/// [`Graph`](graphkit::Graph) or a degraded [`GraphView`] with dead links
/// masked out.
///
/// The only hard failure is a routing-*model* violation
/// ([`RoutingError::PortOutOfRange`]), reported for the earliest source that
/// hit one; messages that loop, drop on a dead link or surface at the wrong
/// vertex are bucketed per outcome in [`WorkloadReport::outcomes`], and
/// stretch/length/congestion metrics cover the delivered messages only.
/// Unreachable destinations (under the view's distances) are skipped and
/// counted, matching the paper's restriction to connected graphs.
pub fn run_workload<'a, R: RoutingFunction + Sync + ?Sized>(
    g: impl Into<GraphView<'a>>,
    r: &R,
    plan: &WorkloadPlan,
    cfg: &EngineConfig,
) -> Result<WorkloadReport, RoutingError> {
    let view = g.into();
    let n = view.num_nodes();
    assert_eq!(plan.num_nodes(), n, "plan compiled for a different graph");
    let t0 = Instant::now();
    let run = if plan.is_all_pairs() {
        match sweep_memoized(view, r, cfg) {
            Some(run) => run,
            None => route_messages(view, r, plan, cfg)?,
        }
    } else {
        route_messages(view, r, plan, cfg)?
    };
    Ok(run.into_report(view, plan, cfg, t0))
}

/// The workers and block tally of one finished run.
struct Run {
    workers: Vec<Worker>,
    blocks: usize,
    /// Largest [`BlockOut::bytes`] of the run.
    block_bytes: u64,
    memoized: bool,
}

impl Run {
    /// Merges the workers' counters (integer addition and the order-free
    /// stretch merge, so the report does not depend on which worker drew
    /// which block).
    fn into_report(
        self,
        view: GraphView<'_>,
        plan: &WorkloadPlan,
        cfg: &EngineConfig,
        t0: Instant,
    ) -> WorkloadReport {
        let mut stretch = StretchAccumulator::new();
        let mut congestion = cfg
            .track_congestion
            .then(|| CongestionCounters::for_graph(view.graph()));
        let mut lengths = LengthHistogram::new();
        let mut outcomes = OutcomeCounts::default();
        let mut skipped = 0u64;
        let mut narrow_blocks = 0usize;
        for w in &self.workers {
            let c = &w.counters;
            stretch.merge(&c.stretch);
            if let (Some(total_c), Some(worker_c)) = (&mut congestion, &c.congestion) {
                total_c.merge(worker_c);
            }
            lengths.merge(&c.lengths);
            outcomes.merge(&c.outcomes);
            skipped += c.skipped;
            narrow_blocks += w.narrow_blocks;
        }
        let per_worker = self.block_bytes
            + congestion.as_ref().map_or(0, |c| c.bytes())
            + 8 * lengths.counts().len() as u64;
        WorkloadReport {
            stretch: stretch.into_report(),
            routed_messages: outcomes.delivered,
            outcomes,
            skipped_unreachable: skipped,
            congestion: congestion.map(|c| c.summarize()),
            lengths,
            blocks: self.blocks,
            narrow_blocks,
            peak_tracked_bytes: plan.bytes() + self.workers.len() as u64 * per_worker,
            memoized: self.memoized,
            run_secs: t0.elapsed().as_secs_f64(),
        }
    }
}

/// The per-message path: every planned message routed through
/// [`routemodel::walk`], source block by source block.
fn route_messages<R: RoutingFunction + Sync + ?Sized>(
    view: GraphView<'_>,
    r: &R,
    plan: &WorkloadPlan,
    cfg: &EngineConfig,
) -> Result<Run, RoutingError> {
    let n = view.num_nodes();
    let hop_limit = default_hop_limit(n);

    // Sources that send at least one message, ascending.
    let active: Vec<u32> = (0..n as u32)
        .filter(|&s| match plan.dests(s as usize) {
            SourceDests::AllOthers => true,
            SourceDests::List(l) => !l.is_empty(),
        })
        .collect();

    // Group runs of consecutive active sources into blocks, so sparse
    // workloads never BFS a silent source and dense ones share full blocks.
    let block_rows = cfg.effective_block_rows();
    let mut blocks: Vec<Block> = Vec::new();
    for (rank, &s) in active.iter().enumerate() {
        let extend = blocks
            .last()
            .is_some_and(|b| b.src_lo + b.rows == s as usize && b.rank_hi - b.rank_lo < block_rows);
        if extend {
            let b = blocks.last_mut().unwrap();
            b.rank_hi += 1;
            b.rows += 1;
        } else {
            blocks.push(Block {
                rank_lo: rank,
                rank_hi: rank + 1,
                src_lo: s as usize,
                rows: 1,
            });
        }
    }

    // Blocks fold in source order, so the first error is the earliest
    // source's.
    let mut first_error = None;
    let mut block_bytes = 0u64;
    let workers = par::map_fold_ordered(
        blocks.len(),
        cfg.effective_threads(n),
        || Worker::new(view, cfg),
        |w, i, out| route_block(view, r, plan, &active, blocks[i], hop_limit, w, out),
        |_, out: &mut BlockOut| {
            block_bytes = block_bytes.max(out.bytes);
            if first_error.is_none() {
                first_error = out.error.take();
            }
        },
    );
    if let Some(e) = first_error {
        return Err(e);
    }
    Ok(Run {
        workers,
        blocks: blocks.len(),
        block_bytes,
        memoized: false,
    })
}

/// Routes one block of sources on worker `w`: BFS rows into the worker's
/// block buffer, each message through the routing loop (stopping at the
/// first routing-model violation), counters into the worker.
#[allow(clippy::too_many_arguments)]
fn route_block<R: RoutingFunction + Sync + ?Sized>(
    view: GraphView<'_>,
    r: &R,
    plan: &WorkloadPlan,
    active: &[u32],
    b: Block,
    hop_limit: usize,
    w: &mut Worker,
    out: &mut BlockOut,
) {
    let n = view.num_nodes();
    w.distances(view, b.src_lo, b.rows);
    // Fresh per block, so their capacities depend on this block alone.
    let mut header = Header::to_dest(0);
    let mut trace = RouteTrace::new();
    out.error = None;
    for rank in b.rank_lo..b.rank_hi {
        let s = active[rank] as usize;
        let row = w.rows.row(s);
        let counters = &mut w.counters;
        let mut route_one = |t: usize| -> Result<(), RoutingError> {
            if t == s {
                return Ok(());
            }
            let dist = row.dist(t);
            if dist == INFINITY {
                counters.skipped += 1;
                return Ok(());
            }
            counters.route(view, r, s, t, dist, hop_limit, &mut header, &mut trace)
        };
        let result = match plan.dests(s) {
            SourceDests::AllOthers => (0..n).try_for_each(&mut route_one),
            SourceDests::List(list) => list.iter().try_for_each(|&t| route_one(t as usize)),
        };
        if let Err(e) = result {
            out.error = Some(e);
            break;
        }
    }
    out.bytes = w.block_bytes(n, b.rows, &header, &trace);
}

/// The memoized all-pairs path: destination-major, one [`DistanceBlock`]
/// per block of destinations (`d(s, t) = d(t, s)` on an undirected graph)
/// and one memoized chain walk ([`Checker::walk_dest`]) per destination.
/// `None` when some chain asked for a port out of range: the caller then
/// redoes the run message by message, which reports the earliest source's
/// error exactly.
fn sweep_memoized<R: RoutingFunction + Sync + ?Sized>(
    view: GraphView<'_>,
    r: &R,
    cfg: &EngineConfig,
) -> Option<Run> {
    let n = view.num_nodes();
    let hop_limit = default_hop_limit(n);
    let block_rows = cfg.effective_block_rows();
    let blocks = n.div_ceil(block_rows);
    // Set by the first block that meets a port out of range; later blocks
    // skip their work, since the run is redone message by message.
    let bad_port = AtomicBool::new(false);
    let mut block_bytes = 0u64;
    let workers = par::map_fold_ordered(
        blocks,
        cfg.effective_threads(n),
        || Worker::new(view, cfg),
        |w, i, out| {
            if !bad_port.load(Ordering::Relaxed) {
                let lo = i * block_rows;
                let dests = lo..n.min(lo + block_rows);
                sweep_block(view, r, dests, hop_limit, w, out, &bad_port);
            }
        },
        |_, out: &mut BlockOut| block_bytes = block_bytes.max(out.bytes),
    );
    (!bad_port.into_inner()).then_some(Run {
        workers,
        blocks,
        block_bytes,
        memoized: true,
    })
}

/// Resolves every source toward each destination of `dests` on worker
/// `w`: canonical chains from the memo (class and hop count), any other
/// pair through the routing loop, arc loads from the chains' in-forest.
/// Stops at, and flags in `bad_port`, a port out of range.
fn sweep_block<R: RoutingFunction + Sync + ?Sized>(
    view: GraphView<'_>,
    r: &R,
    dests: Range<usize>,
    hop_limit: usize,
    w: &mut Worker,
    out: &mut BlockOut,
    bad_port: &AtomicBool,
) {
    let n = view.num_nodes();
    w.distances(view, dests.start, dests.len());
    let mut header = Header::to_dest(0);
    let mut trace = RouteTrace::new();
    for t in dests.clone() {
        let checker = &mut w.checker;
        checker.walk_dest(view, r, t);
        if checker.port_out_of_range() {
            bad_port.store(true, Ordering::Relaxed);
            return;
        }
        let row = w.rows.row(t);
        let c = &mut w.counters;
        for s in 0..n {
            if s == t {
                continue;
            }
            let dist = row.dist(s);
            if dist == INFINITY {
                c.skipped += 1;
                continue;
            }
            match checker.chain(s) {
                Some((SourceClass::Proven, hops)) => {
                    c.outcomes.delivered += 1;
                    c.stretch.record(s, t, hops, dist);
                    c.lengths.record(hops as usize);
                }
                Some((SourceClass::Livelock, _)) => c.outcomes.hop_limit += 1,
                Some((SourceClass::DeadPort, _)) => c.outcomes.link_down += 1,
                Some((SourceClass::WrongDelivery, _)) => c.outcomes.wrong_delivery += 1,
                Some((class, _)) => unreachable!("a canonical chain never ends {class:?}"),
                None => {
                    let routed = c.route(view, r, s, t, dist, hop_limit, &mut header, &mut trace);
                    if routed.is_err() {
                        bad_port.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }
        if let Some(cong) = &mut c.congestion {
            checker.arc_loads(view, r, t, |v, p, load| cong.add_load(v, p, load));
        }
    }
    out.bytes = w.block_bytes(n, dests.len(), &header, &trace)
        + Checker::walk_bytes(n, w.counters.congestion.is_some());
}

/// Convenience wrapper: the exact stretch factor over **all pairs**, computed
/// block-by-block without ever materializing the dense distance matrix.
///
/// Runs the memoized all-pairs sweep.  Bit-identical to
/// `routemodel::stretch_factor` for every `threads` and `block_rows` value;
/// peak memory `O(threads · block_rows · n)`.
pub fn stretch_factor_blocked<'a, R: RoutingFunction + Sync + ?Sized>(
    g: impl Into<GraphView<'a>>,
    r: &R,
    threads: usize,
    block_rows: usize,
) -> Result<StretchReport, RoutingError> {
    let g = g.into();
    let plan = crate::workload::WorkloadSpec::AllPairs.compile(g.num_nodes());
    let cfg = EngineConfig {
        threads,
        block_rows,
        track_congestion: false,
    };
    run_workload(g, r, &plan, &cfg).map(|rep| rep.stretch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use graphkit::{generators, DistanceMatrix, FailureSet, Graph};
    use routemodel::{stretch_factor, Action, Header, TableRouting, TieBreak};

    fn table_routing(g: &Graph) -> TableRouting {
        let dm = DistanceMatrix::all_pairs_sequential(g);
        TableRouting::from_distances(g, &dm, TieBreak::LowestPort)
    }

    #[test]
    fn outcome_codes_cover_every_bucket() {
        // Anti-drift: every machine code of the model resolves to exactly
        // one counter bucket, and together they partition `attempted()`.
        let counts = OutcomeCounts {
            delivered: 1,
            link_down: 2,
            hop_limit: 4,
            wrong_delivery: 8,
        };
        let mut sum = 0;
        for code in DeliveryOutcome::ALL_CODES {
            sum += counts
                .by_code(code)
                .unwrap_or_else(|| panic!("code '{code}' has no bucket"));
        }
        assert_eq!(sum, counts.attempted());
        assert_eq!(counts.by_code("proven"), None);
    }

    fn assert_reports_bit_identical(a: &StretchReport, b: &StretchReport) {
        assert_eq!(a.max_stretch.to_bits(), b.max_stretch.to_bits());
        assert_eq!(a.avg_stretch.to_bits(), b.avg_stretch.to_bits());
        assert_eq!(a.max_pair, b.max_pair);
        assert_eq!(a.max_route_len, b.max_route_len);
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn all_pairs_block_stretch_is_bit_identical_to_dense() {
        let g = generators::random_connected(72, 0.07, 33);
        let r = table_routing(&g);
        let dm = DistanceMatrix::all_pairs_sequential(&g);
        let dense = stretch_factor(&g, &dm, &r).unwrap();
        let plan = WorkloadSpec::AllPairs.compile(72);
        let mut base: Option<WorkloadReport> = None;
        for threads in [1usize, 2, 3, 7] {
            for block_rows in [1usize, 5, 16, 64, 100] {
                let blocked = stretch_factor_blocked(&g, &r, threads, block_rows).unwrap();
                assert_reports_bit_identical(&blocked, &dense);
                // The memoized path with congestion: the same whole report at
                // every worker count and block size (bytes and block counts
                // aside, which follow the configuration).
                let cfg = EngineConfig {
                    threads,
                    block_rows,
                    track_congestion: true,
                };
                let rep = run_workload(&g, &r, &plan, &cfg).unwrap();
                assert!(rep.memoized);
                let base = base.get_or_insert_with(|| rep.clone());
                assert_reports_bit_identical(&rep.stretch, &base.stretch);
                assert_eq!(rep.congestion, base.congestion);
                assert_eq!(rep.lengths, base.lengths);
                assert_eq!(rep.outcomes, base.outcomes);
            }
        }
    }

    #[test]
    fn congestion_totals_equal_route_length_sum() {
        // Flow conservation: every hop of every delivered message is counted
        // on exactly one arc.
        let n = 48usize;
        let g = generators::cycle(n);
        let g2 = g.clone();
        let r = routemodel::function::dest_address_routing("cw", move |node, h: &Header| {
            if node == h.dest {
                Action::Deliver
            } else {
                Action::Forward(g2.port_to(node, (node + 1) % n).unwrap())
            }
        });
        let plan = WorkloadSpec::Uniform {
            messages: 5_000,
            seed: 5,
        }
        .compile(n);
        let rep = run_workload(&g, &r, &plan, &EngineConfig::default()).unwrap();
        let cong = rep.congestion.as_ref().unwrap();
        assert_eq!(cong.total_load, rep.lengths.total_hops());
        assert_eq!(rep.lengths.total(), rep.routed_messages);
        assert_eq!(rep.routed_messages, 5_000);
        assert_eq!(rep.skipped_unreachable, 0);
    }

    #[test]
    fn whole_report_is_identical_across_thread_and_block_choices() {
        let g = generators::random_connected(60, 0.08, 8);
        let r = table_routing(&g);
        let plan = WorkloadSpec::Zipf {
            messages: 3_000,
            exponent: 1.0,
            seed: 2,
        }
        .compile(60);
        let base = run_workload(
            &g,
            &r,
            &plan,
            &EngineConfig {
                threads: 1,
                block_rows: 4,
                track_congestion: true,
            },
        )
        .unwrap();
        for (threads, block_rows) in [(2usize, 4usize), (3, 1), (5, 17), (2, 64)] {
            let rep = run_workload(
                &g,
                &r,
                &plan,
                &EngineConfig {
                    threads,
                    block_rows,
                    track_congestion: true,
                },
            )
            .unwrap();
            assert_reports_bit_identical(&rep.stretch, &base.stretch);
            assert_eq!(rep.congestion, base.congestion);
            assert_eq!(rep.lengths, base.lengths);
            assert_eq!(rep.routed_messages, base.routed_messages);
        }
    }

    /// Workers draw blocks from a shared cursor, so which worker gets which
    /// block changes from run to run.  Two blocks at opposite ends of this
    /// plan carry routes of ~300 hops and wide (`u32`) distance rows, every
    /// other block one-hop routes over narrow rows: they land on one worker
    /// in some runs and on two in others, so any report field built from
    /// per-worker state (buffer capacities, per-worker maxima) would differ
    /// between runs.
    #[test]
    fn whole_report_is_reproducible_at_a_fixed_thread_count() {
        let n = 300usize;
        let g = generators::path(n);
        let r = table_routing(&g);
        let pairs = (0..n)
            .map(|s| match s {
                s if s < 4 => (s, n - 1),
                s if s >= n - 4 => (s, 0),
                s => (s, s + 1),
            })
            .collect();
        let plan = WorkloadPlan::from_pairs(n, pairs);
        let cfg = EngineConfig {
            threads: 3,
            block_rows: 4,
            track_congestion: true,
        };
        let first = run_workload(&g, &r, &plan, &cfg).unwrap();
        assert!(
            first.narrow_blocks < first.blocks,
            "the end blocks must widen"
        );
        for _ in 0..8 {
            assert_eq!(run_workload(&g, &r, &plan, &cfg).unwrap(), first);
        }
    }

    #[test]
    fn sparse_sources_process_few_blocks() {
        let g = generators::random_connected(400, 0.02, 4);
        let r = table_routing(&g);
        let plan = WorkloadSpec::SampledSources {
            sources: 5,
            dests_per_source: 8,
            seed: 13,
        }
        .compile(400);
        let rep = run_workload(
            &g,
            &r,
            &plan,
            &EngineConfig {
                threads: 2,
                block_rows: 8,
                track_congestion: false,
            },
        )
        .unwrap();
        // 5 scattered sources can need at most 5 blocks — not 400/8 = 50.
        assert!(rep.blocks <= 5, "{} blocks for 5 sources", rep.blocks);
        assert_eq!(rep.routed_messages, 40);
        assert!(rep.congestion.is_none());
        assert!(rep.peak_tracked_bytes > 0);
    }

    #[test]
    fn unreachable_destinations_are_skipped_and_counted() {
        let h = generators::path(4).disjoint_union(&generators::path(4));
        let r = table_routing(&h);
        let plan = WorkloadSpec::AllPairs.compile(8);
        let rep = run_workload(&h, &r, &plan, &EngineConfig::default()).unwrap();
        // 8·7 ordered pairs, half of them cross the component boundary.
        assert_eq!(rep.routed_messages + rep.skipped_unreachable, 56);
        assert_eq!(rep.skipped_unreachable, 32);
        assert_eq!(rep.stretch.pairs, 24);
    }

    #[test]
    fn errors_report_the_earliest_source() {
        let g = generators::cycle(12);
        let r = routemodel::function::dest_address_routing("half-loopy", |node, h: &Header| {
            if node == h.dest {
                Action::Deliver
            } else if node == 0 {
                Action::Forward(0)
            } else {
                Action::Forward(usize::MAX)
            }
        });
        let dm = DistanceMatrix::all_pairs_sequential(&g);
        let dense = stretch_factor(&g, &dm, &r).unwrap_err();
        for threads in [1usize, 4] {
            let blocked = stretch_factor_blocked(&g, &r, threads, 3).unwrap_err();
            assert_eq!(blocked, dense, "threads={threads}");
        }
    }

    #[test]
    fn degraded_view_buckets_outcomes_instead_of_failing() {
        // A cycle routed clockwise with one clockwise arc dead: messages
        // whose route crosses the cut drop as LinkDown, everything else
        // still arrives, and the engine reports both instead of erroring.
        let n = 16usize;
        let g = generators::cycle(n);
        let g2 = g.clone();
        let r = routemodel::function::dest_address_routing("cw", move |node, h: &Header| {
            if node == h.dest {
                Action::Deliver
            } else {
                Action::Forward(g2.port_to(node, (node + 1) % n).unwrap())
            }
        });
        let failures = FailureSet::from_edges(&g, &[(3, 4)]);
        let view = GraphView::masked(&g, &failures);
        let plan = WorkloadSpec::AllPairs.compile(n);
        let rep = run_workload(view, &r, &plan, &EngineConfig::default()).unwrap();
        // The view stays connected (it is a path), so no pair is skipped.
        assert_eq!(rep.skipped_unreachable, 0);
        // s -> t drops iff the clockwise walk s..t uses the arc 3 -> 4;
        // summing over sources gives 15 + 14 + ... + 0 = 120 ordered pairs.
        assert_eq!(rep.outcomes.link_down, 120);
        assert_eq!(rep.outcomes.delivered, (n * (n - 1)) as u64 - 120);
        assert_eq!(rep.outcomes.hop_limit, 0);
        assert_eq!(rep.outcomes.wrong_delivery, 0);
        assert_eq!(rep.routed_messages, rep.outcomes.delivered);
        assert_eq!(rep.lengths.total(), rep.outcomes.delivered);
        assert!(rep.outcomes.delivery_rate() < 1.0);
        // Congestion only counts hops of delivered messages.
        assert_eq!(rep.congestion.unwrap().total_load, rep.lengths.total_hops());
    }

    #[test]
    fn outcome_counts_are_thread_invariant() {
        let g = generators::random_connected(50, 0.09, 11);
        let failures = FailureSet::sample(&g, 0.08, 7);
        let view = GraphView::masked(&g, &failures);
        let r = table_routing(&g); // stale: built for the full graph
        let plan = WorkloadSpec::AllPairs.compile(50);
        let base = run_workload(
            view,
            &r,
            &plan,
            &EngineConfig {
                threads: 1,
                block_rows: 4,
                track_congestion: true,
            },
        )
        .unwrap();
        assert!(base.outcomes.link_down > 0, "stale routes should hit cuts");
        for (threads, block_rows) in [(2usize, 4usize), (3, 1), (5, 17)] {
            let rep = run_workload(
                view,
                &r,
                &plan,
                &EngineConfig {
                    threads,
                    block_rows,
                    track_congestion: true,
                },
            )
            .unwrap();
            assert_eq!(rep.outcomes, base.outcomes);
            assert_eq!(rep.lengths, base.lengths);
            assert_eq!(rep.congestion, base.congestion);
            assert_reports_bit_identical(&rep.stretch, &base.stretch);
        }
    }

    #[test]
    fn healthy_runs_report_full_delivery() {
        let g = generators::random_connected(40, 0.1, 3);
        let r = table_routing(&g);
        let plan = WorkloadSpec::AllPairs.compile(40);
        let rep = run_workload(&g, &r, &plan, &EngineConfig::default()).unwrap();
        assert_eq!(rep.outcomes.delivered, rep.routed_messages);
        assert_eq!(rep.outcomes.attempted(), rep.routed_messages);
        assert_eq!(rep.outcomes.delivery_rate(), 1.0);
    }

    #[test]
    fn broadcast_congestion_concentrates_at_the_root() {
        let g = generators::star(16);
        let r = table_routing(&g);
        let plan = WorkloadSpec::Broadcast { roots: vec![0] }.compile(17);
        let rep = run_workload(&g, &r, &plan, &EngineConfig::default()).unwrap();
        let cong = rep.congestion.unwrap();
        // The root sends one message down each of its 16 arcs.
        assert_eq!(rep.routed_messages, 16);
        assert_eq!(cong.max_arc_load, 1);
        assert_eq!(cong.loaded_arcs, 16);
        assert_eq!(rep.stretch.max_stretch, 1.0);
    }
}
