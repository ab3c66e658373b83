//! Landmark (cluster) routing: trading stretch for memory.
//!
//! Table 1 of the paper shows that once the stretch factor is allowed to grow
//! beyond 2, the local memory requirement can drop well below `n` bits
//! (`Õ(√(s) n^(1+1/…)})`-style bounds from Awerbuch–Peleg and Peleg–Upfal).
//! This module implements a concrete universal scheme in that regime — a
//! landmark/cluster scheme in the spirit of those hierarchical schemes (and of
//! Thorup–Zwick stretch-3 routing) — so the reproduction can *measure* the
//! memory/stretch trade-off rather than only quote it:
//!
//! * a set `L` of landmarks is sampled — by default `⌈3√n⌉` under the
//!   inclusive cluster rule and `⌈√n⌉` under the strict one, the counts
//!   that minimize resident bytes (see [`LandmarkCount::Auto`]), or any
//!   count or rate through [`LandmarkConfig`] (the knob the
//!   `landmark-sweep` scenario walks to trace the bits-vs-stretch curve);
//! * every vertex `v` has a *home landmark* `ℓ(v)` (a nearest landmark) and
//!   the enhanced address `(v, ℓ(v))` — addresses of `O(log n)` bits, carried
//!   in headers, which the model does not charge to router memory;
//! * every router `w` stores a port towards every landmark, plus a direct
//!   next-hop for every vertex of its *cluster* (see [`ClusterRule`]);
//! * a message for `v` is forwarded directly while the current router has `v`
//!   in its cluster, and towards `ℓ(v)` otherwise.
//!
//! The resulting stretch is `< 3` under the inclusive rule and `≤ 3` under
//! the strict rule (the boundary pairs `d(w, v) = d(v, L)` it evicts can
//! realize the bound exactly), and the measured per-router memory on random
//! graphs is `Õ(√n)`, reproducing the "large stretch ⇒ strong compression"
//! row of Table 1.
//!
//! # Cluster rules
//!
//! [`ClusterRule::Inclusive`] stores `S(w) = { v ≠ w : d(w, v) ≤ d(v, L) }`.
//! Once a message reaches a router whose cluster contains `v` — at latest
//! `ℓ(v)` itself, whose cluster contains its whole home set — every
//! subsequent router is strictly closer to `v`, hence also stores `v`.
//!
//! [`ClusterRule::Strict`] stores `S(w) = { v ≠ w : d(w, v) < d(v, L) }`
//! (the Thorup–Zwick-style strict inequality), **plus an explicit handoff at
//! the home landmark**: `ℓ` additionally stores a first shortest-path port
//! for every vertex of its home set `{ v : ℓ(v) = ℓ }`.  The handoff is what
//! keeps delivery exact — under the strict rule `v` is *not* in the cluster
//! of `ℓ(v)` (their distance equals `d(v, L)`) — and after one handoff hop
//! every router is strictly within `d(v, L)`, hence a strict-cluster member.
//! Correctness of the stretch bound is unchanged: when `w` lacks a direct
//! entry, `d(w, v) ≥ d(v, L)` and the detour over `ℓ(v)` costs at most
//! `d(w, v) + 2·d(v, L) ≤ 3·d(w, v)`.
//!
//! Why a second rule: on tiny-diameter worst-case instances (the Theorem 1
//! graphs) the `≤`-rule boundary `d(w, v) = d(v, L)` is met by *many* pairs
//! at once, fattening the inclusive clusters far beyond `√n` (measured
//! avg ≈ 2700 at n = 16384 with `⌈√n⌉` landmarks).  The strict rule keeps
//! only the interior, whose expected size stays `Õ(√n)` there too, at the
//! price of `≈ n/k` handoff entries concentrated on the landmarks.
//!
//! # Construction cost
//!
//! [`LandmarkRouting::build_with`] is **sparse**: it never materializes an
//! `n × n` distance matrix.  One multi-source BFS assigns home landmarks and
//! the distances `d(v, L)`; the toward-landmark ports and distances take one
//! bit-parallel BFS ([`graphkit::traversal::bfs_block_into`]) and one
//! lane-wise port scan per block of 32 landmarks (`O(m·k)` total, shared
//! across the block on small-diameter graphs); and one *pruned* BFS per
//! vertex — truncated at the
//! per-vertex radius of the cluster rule via [`graphkit::bfs_bounded_into`] —
//! enumerates exactly the cluster, in `O(Σ_w vol(S(w)))` expected.  The
//! strict rule's handoff tables cost one more pruned BFS per *landmark* (the
//! inclusive-bound traversal reports exactly the home set with the dense
//! first shortest-path ports).  The result is **bit-identical** to the dense
//! reference builder [`LandmarkRouting::build_dense_with`] (kept for
//! equivalence tests and the `landmark_build` bench): the multi-source BFS
//! claims each vertex for the smallest-id nearest landmark, and the
//! port-order BFS reports the first shortest-path port, exactly as the dense
//! scans do.  This is what lets the scheme join the `n ≥ 10^5` trafficlab
//! scenarios at stretch `< 3`.
//!
//! The connectivity check and the multi-source BFS run on the calling
//! thread; the three heavy phases run on [`graphkit::par::default_threads`]
//! workers through [`graphkit::par::map_fold_ordered`]:
//!
//! * one item per block of 32 landmarks runs one bit-parallel BFS into
//!   vertex-major level lines, scans them for every vertex's ports towards
//!   the whole block (the port rows of the row-major `toward_landmark`
//!   behind one lock), and transposes the lines into the block's own range
//!   of the column-major `toward_dist` (split off up front, so that lock is
//!   never contended).  The items hand no result to the fold, so no output
//!   buffer is in flight;
//! * under the strict rule, one item per landmark harvests its handoff list;
//!   the fold appends it to one flat list;
//! * one item per block of 64 consecutive routers runs their pruned BFS and
//!   sorts each cluster; the fold appends the block to the cluster CSR.
//!
//! Every item is a pure function of the view, the config and the tables of
//! earlier phases; the toward items write disjoint cells, and the other
//! folds consume items in index order — the order the serial loops used —
//! so the instance is **bit-identical at every thread count** (pinned by a
//! test at 1, 2 and 3 threads).
//!
//! [`LandmarkRouting::repair`] runs its heavy passes the same way, after a
//! serial connectivity check and multi-source BFS:
//!
//! * one item per landmark patches that landmark's contiguous column of the
//!   column-major `toward_dist` in place (each item locks its own column,
//!   split off up front, so no lock is ever contended) and re-derives the
//!   ports whose inputs moved; the fold writes them into the row-major
//!   `toward_landmark` and counts the landmarks that changed;
//! * one item per vertex whose bound `d(v, L)` grew collects the sources
//!   that gain it; one item per dead edge collects the suspect sources; the
//!   folds append both lists, which are then sorted;
//! * phase A — one item per block of 64 routers patches the block's
//!   contiguous range of `direct_dists`/`direct_ports` in place, again
//!   behind a lock of its own; the fold gathers the new slice lengths,
//!   gained first hops and fresh clusters in router order.
//!
//! Phase B, the relocation of the patched slices, stays on the calling
//! thread.  The repaired instance and its `RepairOutcome` are the same at
//! every thread count (pinned at 1, 2 and 3 threads).
//!
//! # Table widths
//!
//! The paper charges a router `⌈log₂ deg⌉` bits per port
//! ([`LandmarkRouting::memory`]).  The resident tables come close: the four
//! wide tables — toward-landmark ports and distances, cluster ports and
//! distances — store `u8`, `u16` or `u32` cells ([`routemodel::cell`],
//! shared with the routing tables), the narrowest type whose
//! maximum exceeds both the maximum degree and `2·ecc(ℓ₀)` (every stored
//! distance is at most that, by the triangle inequality through the first
//! landmark `ℓ₀`).  The maximum itself is the sentinel.  The build reads
//! `ecc(ℓ₀)` off its connectivity BFS, so the rule costs nothing, and the
//! dense reference builder ends in the same rule.  Repair applies it to the
//! failed view after its multi-source BFS and re-encodes the tables once if
//! the width grew; deletions only grow distances, so a repaired instance
//! has the width of a rebuild.  Build, repair and audit are generic over
//! the cell type and dispatch on the width once per call; a routing hop
//! dispatches once per table lookup.  [`LandmarkRouting::heap_bytes`]
//! reports the resident bytes table by table.

use crate::scheme::{
    BuildError, CompactScheme, GraphHints, RepairOutcome, SchemeInstance, SchemeRouting,
};
use graphkit::traversal::{bfs_block_into, bfs_distances_into};
use graphkit::{
    bfs_ball_into, bfs_bounded_into, bfs_from_sources_into, par, Adjacency, BfsScratch,
    BoundedBfsScratch, Dist, DistanceMatrix, FailureSet, Graph, GraphView, NodeId, Port,
    Xoshiro256, INFINITY,
};
use routemodel::cell::{clamped_port, Cell, Width};
use routemodel::coding::bits_for_values;
use routemodel::function::{encode_action, port_columns_pointwise, DELIVER_CODE};
use routemodel::{Action, Header, MemoryReport, RoutingFunction};
use std::collections::VecDeque;
use std::sync::Mutex;

/// [`Cell`] glue to the width enum [`Cells`] of this module's four wide
/// tables (`toward_landmark`, `toward_dist`, `direct_ports`,
/// `direct_dists`).
trait TableCell: Cell {
    /// The [`Cells`] variant of this width.
    fn wrap(t: Tables<Self>) -> Cells;
    /// The tables inside `c` when they are of this width.
    fn unwrap_mut(c: &mut Cells) -> Option<&mut Tables<Self>>;
}

macro_rules! impl_table_cell {
    ($t:ty, $variant:ident) => {
        impl TableCell for $t {
            fn wrap(t: Tables<Self>) -> Cells {
                Cells::$variant(t)
            }
            fn unwrap_mut(c: &mut Cells) -> Option<&mut Tables<Self>> {
                match c {
                    Cells::$variant(t) => Some(t),
                    _ => None,
                }
            }
        }
    };
}
impl_table_cell!(u8, U8);
impl_table_cell!(u16, U16);
impl_table_cell!(u32, U32);

/// The width the graph `view` needs, given the distances from the first
/// landmark (the connectivity BFS every build and repair runs): by the
/// triangle inequality through the first landmark, no stored distance
/// exceeds `2·ecc(ℓ₀)`.
fn width_for_view(view: GraphView<'_>, dist_from_first: &[Dist]) -> Width {
    let ecc = dist_from_first.iter().copied().max().unwrap_or(0);
    Width::for_bounds(view.graph().max_degree(), 2 * u64::from(ecc))
}

/// The four wide tables at one cell width.
#[derive(Debug, Clone, PartialEq, Default)]
struct Tables<C> {
    /// Flat `n × k` row-major table: `toward_landmark[w * k + i]` is the port
    /// of `w` on a shortest path to landmark `i` (the sentinel when `w` is
    /// that landmark).
    toward_landmark: Vec<C>,
    /// Flat `n × k` **column-major** distances: `toward_dist[i * n + w]` is
    /// `d(w, landmark_i)`.  Column-major so each build/repair BFS works on
    /// one contiguous column.
    toward_dist: Vec<C>,
    /// `direct_ports[e]`: next-hop port towards `direct_targets[e]`.
    direct_ports: Vec<C>,
    /// `direct_dists[e]`: `d(w, direct_targets[e])` for the slice owner `w`.
    direct_dists: Vec<C>,
}

impl<C: Cell> Tables<C> {
    /// The same tables at cell type `D`, sentinel mapped to sentinel.
    fn recode<D: Cell>(self) -> Tables<D> {
        let recode = |v: Vec<C>| -> Vec<D> {
            v.into_iter()
                .map(|x| {
                    if x == C::NONE {
                        D::NONE
                    } else {
                        D::cell(x.get())
                    }
                })
                .collect()
        };
        Tables {
            toward_landmark: recode(self.toward_landmark),
            toward_dist: recode(self.toward_dist),
            direct_ports: recode(self.direct_ports),
            direct_dists: recode(self.direct_dists),
        }
    }

    /// The toward-landmark port at flat index `at`; `None` at the sentinel.
    #[inline]
    fn toward_port(&self, at: usize) -> Option<Port> {
        let p = self.toward_landmark[at];
        (p != C::NONE).then(|| p.get() as Port)
    }
}

/// The wide tables at whichever width the graph needs.  One enum, so that
/// [`LandmarkRouting`] stays a concrete type; build, repair and audit match
/// on it once per call, a routing hop once per lookup.
#[derive(Debug, Clone, PartialEq)]
enum Cells {
    U8(Tables<u8>),
    U16(Tables<u16>),
    U32(Tables<u32>),
}

/// Runs `$body` with `$t` bound to the tables inside `$cells`, at their
/// width.
macro_rules! with_tables {
    ($cells:expr, $t:ident => $body:expr) => {
        match $cells {
            Cells::U8($t) => $body,
            Cells::U16($t) => $body,
            Cells::U32($t) => $body,
        }
    };
}

impl Cells {
    fn width(&self) -> Width {
        match self {
            Cells::U8(_) => Width::U8,
            Cells::U16(_) => Width::U16,
            Cells::U32(_) => Width::U32,
        }
    }

    /// Re-encodes the tables at `width` unless they are already there.
    fn into_width(self, width: Width) -> Cells {
        if self.width() == width {
            return self;
        }
        with_tables!(self, t => match width {
            Width::U8 => Cells::U8(t.recode()),
            Width::U16 => Cells::U16(t.recode()),
            Width::U32 => Cells::U32(t.recode()),
        })
    }
}

/// Resident heap bytes of a [`LandmarkRouting`], table by table, counted by
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LandmarkHeapBytes {
    /// Bytes per cell of the four wide tables: 1, 2 or 4.
    pub cell_bytes: usize,
    /// `toward_landmark`: `n × k` ports.
    pub toward_ports: usize,
    /// `toward_dist`: `n × k` distances.
    pub toward_dists: usize,
    /// `direct_targets`: one `u32` vertex id per cluster entry.
    pub cluster_targets: usize,
    /// `direct_ports`: one port per cluster entry.
    pub cluster_ports: usize,
    /// `direct_dists`: one distance per cluster entry.
    pub cluster_dists: usize,
    /// `direct_offsets`: `n + 1` CSR offsets.
    pub offsets: usize,
    /// `home`, `dist_to_set` and the landmark list.
    pub labels: usize,
}

impl LandmarkHeapBytes {
    /// All tables together.
    pub fn total(&self) -> usize {
        self.toward_ports
            + self.toward_dists
            + self.cluster_targets
            + self.cluster_ports
            + self.cluster_dists
            + self.offsets
            + self.labels
    }
}

/// Heap bytes of `v`, by capacity.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Routers per cluster-phase work item of the parallel build.  Small, so
/// the few result buffers in flight stay small: they are allocated on the
/// worker threads, whose allocator arenas keep the memory after the build.
const CLUSTER_BLOCK: usize = 64;

/// Routers, strided over the id range, whose clusters size the one
/// up-front reservation of the cluster arrays.
const RESERVE_SAMPLE: usize = 4 * CLUSTER_BLOCK;

/// Landmarks per work item of the build's toward phase: one bit-parallel
/// BFS and one port scan serve them all.  32 rather than the kernel's 64
/// because each worker's level lines hold `TOWARD_LANES` cells per vertex:
/// on the churn benchmark (n = 32768) 64 lanes added 5.5% to the peak
/// resident memory and 32 lanes 3%, at the same end-to-end setup time.
const TOWARD_LANES: usize = 32;

/// The toward-landmark tables of one block of landmarks, `block =
/// landmarks[first..first + block.len()]`, written straight into the
/// instance: `columns` is the block's range of the column-major
/// `toward_dist`, and the scan writes `block.len()` contiguous cells of
/// each row of the row-major `toward_landmark`.
///
/// One [`bfs_block_into`] over the block fills `lines`, a vertex-major
/// buffer of `TOWARD_LANES` cells per vertex: lane `i` of vertex `v`'s line
/// is `d(v, block[i])` (the view is connected, so every lane in use is
/// written and nothing needs clearing between blocks).  Then a branch-free
/// scan gives every vertex `w` its port towards each landmark at once.  It
/// walks the live ports of `w` from the last to the first and, lane by
/// lane, takes the port whenever the neighbour's line is lower, so the
/// smallest tight port wins: the rule of [`min_tight_port`], since the
/// distances of neighbours differ by at most one.  A landmark's own lane
/// finds no lower neighbour and keeps the sentinel the table starts with.
fn toward_block<C: Cell>(
    view: GraphView<'_>,
    block: &[NodeId],
    first: usize,
    bfs: &mut BfsScratch,
    lines: &mut Vec<C>,
    columns: &mut [C],
    toward_landmark: &Mutex<&mut [C]>,
) {
    let n = view.num_nodes();
    let rows = block.len();
    lines.resize(n * TOWARD_LANES, C::default());
    bfs_block_into(view, block.iter().copied(), bfs, |level, v, mut bits| {
        let level = C::cell(level);
        let line = &mut lines[v * TOWARD_LANES..(v + 1) * TOWARD_LANES];
        while bits != 0 {
            line[bits.trailing_zeros() as usize] = level;
            bits &= bits - 1;
        }
    });
    let line = |v: NodeId| &lines[v * TOWARD_LANES..v * TOWARD_LANES + rows];
    {
        let mut table = toward_landmark
            .lock()
            .expect("a panicking scan aborts the build");
        let k = table.len() / n;
        for w in 0..n {
            let here = line(w);
            let ports = &mut table[w * k + first..w * k + first + rows];
            for p in (0..view.degree(w)).rev() {
                if let Some(x) = view.live_target(w, p) {
                    let (there, port) = (line(x), C::cell(p as u32));
                    for ((slot, &t), &h) in ports.iter_mut().zip(there).zip(here) {
                        *slot = if t < h { port } else { *slot };
                    }
                }
            }
        }
    }
    for (i, column) in columns.chunks_mut(n).enumerate() {
        for (cell, w) in column.iter_mut().zip(0..n) {
            *cell = line(w)[i];
        }
    }
}

/// The clusters of one block of `CLUSTER_BLOCK` consecutive routers, laid
/// out like the final CSR: `sizes[j]` members for the block's `j`-th router,
/// concatenated in router order, each router's slice sorted by target.
#[derive(Default)]
struct ClusterBlock<C> {
    sizes: Vec<u32>,
    targets: Vec<u32>,
    dists: Vec<C>,
    ports: Vec<C>,
}

impl<C: Cell> ClusterBlock<C> {
    fn clear(&mut self) {
        self.sizes.clear();
        self.targets.clear();
        self.dists.clear();
        self.ports.clear();
    }

    /// Appends the next router's (sorted) cluster.
    fn push(&mut self, members: &[(u32, Dist, u32)]) {
        self.sizes.push(members.len() as u32);
        self.targets.extend(members.iter().map(|&(v, _, _)| v));
        self.dists
            .extend(members.iter().map(|&(_, d, _)| C::cell(d)));
        self.ports
            .extend(members.iter().map(|&(_, _, p)| C::cell(p)));
    }
}

/// The cluster entries of all routers, extrapolated from the clusters of
/// `RESERVE_SAMPLE` routers strided over the whole id range: each sampled
/// router's pruned BFS at `bound`, plus the `extra(w)` entries it stores
/// besides.  Strided, not a prefix of the ids: on preferential-attachment
/// graphs the low ids are the hubs, and a prefix sample over-reserved `ba`
/// and `powerlaw` instances eightfold.
fn estimate_cluster_entries(
    view: GraphView<'_>,
    bound: &[Dist],
    threads: usize,
    extra: impl Fn(usize) -> usize + Sync,
) -> usize {
    let n = view.num_nodes();
    let sample = RESERVE_SAMPLE.min(n);
    let mut sampled = 0usize;
    par::map_fold_ordered(
        sample,
        threads,
        || BoundedBfsScratch::with_capacity(n),
        |bounded, i, size: &mut usize| {
            let w = (2 * i + 1) * n / (2 * sample);
            *size = extra(w);
            bfs_bounded_into(view, w, bound, bounded, |_, _, _| *size += 1);
        },
        |_, size| sampled += *size,
    );
    sampled * n / sample
}

/// One landmark column of the repair: whether a distance moved, and the
/// re-derived port of every vertex whose port inputs moved, as
/// `(vertex, port)` pairs.
#[derive(Default)]
struct ColumnPatch {
    moved: bool,
    ports: Vec<(u32, u32)>,
}

/// A worker's workspace for phase A of [`LandmarkRouting::repair`].
#[derive(Default)]
struct PatchScratch {
    bounded: BoundedBfsScratch,
    queue: VecDeque<u32>,
    buckets: Vec<Vec<u32>>,
    inqv: Vec<bool>,
    fhd: Vec<bool>,
    dirty: Vec<u32>,
}

/// Phase A's facts for one block of `CLUSTER_BLOCK` consecutive routers, in
/// router order: each router's new slice length, the first hops of the
/// block's gained members, and the fresh clusters of its dead-edge
/// endpoints.
#[derive(Default)]
struct PatchedBlock {
    lens: Vec<u32>,
    gports: Vec<u32>,
    fresh: Vec<(u32, Dist, u32)>,
    /// `(router, start in fresh)` per dead-edge endpoint of the block.
    fresh_at: Vec<(u32, u32)>,
    touched: usize,
}

impl PatchedBlock {
    fn clear(&mut self) {
        self.lens.clear();
        self.gports.clear();
        self.fresh.clear();
        self.fresh_at.clear();
        self.touched = 0;
    }
}

/// The seed the registry's default landmark spec builds with (kept from the
/// pre-spec registry so existing scenario reports stay bit-identical).
pub const DEFAULT_SEED: u64 = 0x7AFF1C;

/// How many landmarks to sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LandmarkCount {
    /// The byte-optimal default for the cluster rule: `⌈3√n⌉` under
    /// [`ClusterRule::Inclusive`], `⌈√n⌉` under [`ClusterRule::Strict`].
    ///
    /// A router holds `a·k + b·|S(w)|` bytes: `a` per landmark (a toward
    /// port and distance, 2 B at one-byte cells) and `b` per cluster entry
    /// (a `u32` id, a port and a distance, 6 B).  Inclusive clusters
    /// average `≈ c·n/k` with `c ≈ 3` on random and regular graphs, which
    /// puts the minimum of `a·k + b·c·n/k` at `k = √(b·c·n/a) ≈ 3√n`.
    /// Strict clusters average only `≈ 0.4·n/k`, so their minimum is
    /// already near `√n`.
    Auto,
    /// An explicit count (clamped to `1..=n` at build time).
    Count(usize),
    /// A fraction of the vertices: `⌈rate · n⌉` landmarks, `0 < rate ≤ 1`.
    Rate(f64),
}

/// Which vertices a router stores a direct next-hop for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterRule {
    /// `S(w) = { v ≠ w : d(w, v) ≤ d(v, L) }` — the historical default.
    Inclusive,
    /// `S(w) = { v ≠ w : d(w, v) < d(v, L) }` plus the home-set handoff at
    /// each landmark (see the module docs).  Keeps clusters `Õ(√n)` on
    /// small-diameter worst-case instances.
    Strict,
}

/// Typed construction parameters of the landmark scheme — the coordinates
/// the `landmark-sweep` harness walks.
#[derive(Debug, Clone, PartialEq)]
pub struct LandmarkConfig {
    /// Landmark sampling policy.
    pub landmarks: LandmarkCount,
    /// Cluster membership rule.
    pub cluster_rule: ClusterRule,
    /// Seed of the landmark sample.
    pub seed: u64,
}

impl Default for LandmarkConfig {
    fn default() -> Self {
        LandmarkConfig {
            landmarks: LandmarkCount::Auto,
            cluster_rule: ClusterRule::Inclusive,
            seed: DEFAULT_SEED,
        }
    }
}

impl LandmarkConfig {
    /// The number of landmarks this config samples on an `n`-vertex graph.
    pub fn landmark_count(&self, n: usize) -> usize {
        let k = match self.landmarks {
            // ⌈3√n⌉ = ⌈√(9n)⌉, with one rounding instead of two.
            LandmarkCount::Auto => match self.cluster_rule {
                ClusterRule::Inclusive => ((9 * n) as f64).sqrt().ceil() as usize,
                ClusterRule::Strict => (n as f64).sqrt().ceil() as usize,
            },
            LandmarkCount::Count(k) => k,
            LandmarkCount::Rate(r) => (r * n as f64).ceil() as usize,
        };
        k.clamp(1, n.max(1))
    }

    /// Validates the config values themselves (graph-independent).
    pub fn validate(&self) -> Result<(), String> {
        match self.landmarks {
            LandmarkCount::Count(0) => Err("landmark count must be >= 1".into()),
            LandmarkCount::Rate(r) if !(r > 0.0 && r <= 1.0) => {
                Err(format!("landmark rate must be in (0, 1], got {r}"))
            }
            _ => Ok(()),
        }
    }
}

/// The landmark routing function produced by [`LandmarkScheme`].
///
/// Tables are stored flat/CSR so the `n ≥ 10^5` instances stay compact:
/// `toward_landmark` is an `n × k` matrix of ports, and the clusters live in
/// one CSR triple (`direct_offsets`/`direct_targets`/`direct_ports`) with
/// members sorted by vertex id.  Ports and distances are stored in the
/// narrowest of `u8`, `u16` and `u32` that holds every degree and every
/// distance of the graph (see [`LandmarkRouting::cell_bytes`]); vertex ids
/// and offsets stay `u32`.  On the benchmark families that is one byte, so a
/// cluster entry costs 6 B (id, port, distance) and a toward entry 2 B.
///
/// A hop looks its destination up in the router's slice with one
/// interpolation-guided search: a guess from the slice's first and last ids,
/// a gallop outward from the guess, and a binary search inside the window
/// the gallop brackets.  Cluster members of a router are spread over the id
/// range, so the guess usually lands within a few entries and the lookup
/// touches one or two cache lines where a plain binary search over a slice
/// of `~√n` ids misses the cache on most of its `log₂ √n` probes.  When ids cluster unevenly the gallop bounds the cost:
/// at worst about twice the probes of a plain binary search.  Under the
/// strict rule the handoff entries of a landmark are merged into its CSR
/// slice, so the routing function is rule-agnostic.
#[derive(Debug, Clone)]
pub struct LandmarkRouting {
    /// The sampled landmark set, ascending.
    landmarks: Vec<NodeId>,
    /// Home landmark of every vertex (smallest-id nearest landmark).
    home: Vec<NodeId>,
    /// CSR offsets into `direct_targets` and the cluster tables of `cells`,
    /// one slice per router.
    direct_offsets: Vec<u32>,
    /// Cluster members of every router, ascending within each router.
    direct_targets: Vec<u32>,
    /// The four wide tables — toward-landmark ports and distances, cluster
    /// ports and distances — at the graph's cell width.
    ///
    /// The distance tables (and `dist_to_set`) are *repair state*: the
    /// decremental patching of [`LandmarkRouting::repair`] needs the
    /// distances behind every stored port to localize damage exactly.  They
    /// are deliberately **not** charged to [`LandmarkRouting::memory`]: the
    /// paper's memory requirement measures the encoding the routing function
    /// needs to *forward* (labels and ports); repairability is an operational
    /// add-on, reported separately by the resilience harness and by
    /// [`LandmarkRouting::heap_bytes`].
    cells: Cells,
    /// The config the instance was built with; [`LandmarkRouting::repair`]
    /// re-runs it when it must fall back to a full rebuild (the sample is
    /// vertex-based, so the landmark set survives any link failure).
    config: LandmarkConfig,
    /// `d(v, L)` per vertex — the inclusive cluster bound.  Repair state,
    /// also the yardstick for detecting bound growth after failures.
    dist_to_set: Vec<Dist>,
    name: String,
}

/// Equality is over the routing function and its repair state — every
/// table, its cell width, every label and distance array — but **not** the
/// provenance `config`: `landmark?k=⌈3√n⌉` and the `Auto` default build the
/// same scheme, and the bit-identity pins (spec-vs-default,
/// repair-vs-rebuild) compare what the instance *does*, not how it was asked
/// for.
impl PartialEq for LandmarkRouting {
    fn eq(&self, other: &Self) -> bool {
        self.landmarks == other.landmarks
            && self.home == other.home
            && self.direct_offsets == other.direct_offsets
            && self.direct_targets == other.direct_targets
            && self.cells == other.cells
            && self.dist_to_set == other.dist_to_set
            && self.name == other.name
    }
}

impl LandmarkRouting {
    /// Builds the scheme under an explicit [`LandmarkConfig`].
    ///
    /// Sparse construction: no `n × n` matrix, `Õ(m·(k + n/k))` work (see
    /// the module docs).  Connectivity is checked by one cheap BFS — no
    /// dense-matrix scan.  Panics on disconnected graphs and nonsensical
    /// configs; [`LandmarkScheme::try_build`] surfaces both as typed
    /// [`BuildError`]s instead.
    pub fn build_with(g: &Graph, cfg: &LandmarkConfig) -> Self {
        Self::build_on_view(GraphView::full(g), cfg)
    }

    /// Builds the scheme on a (possibly failure-masked) [`GraphView`].
    ///
    /// This is the same sparse construction as [`LandmarkRouting::build_with`]
    /// — on a full view the two are identical call for call — and also the
    /// from-scratch baseline the incremental [`LandmarkRouting::repair`] is
    /// pinned against: repair of an instance to a failure set must be
    /// bit-identical to `build_on_view` of the masked view.  Panics when the
    /// view is disconnected.
    pub fn build_on_view(view: GraphView<'_>, cfg: &LandmarkConfig) -> Self {
        Self::build_on_view_threads(view, cfg, par::default_threads(view.num_nodes()))
    }

    /// [`LandmarkRouting::build_on_view`] on an explicit worker count; the
    /// result does not depend on `threads` (see the module docs).
    fn build_on_view_threads(view: GraphView<'_>, cfg: &LandmarkConfig, threads: usize) -> Self {
        let n = view.num_nodes();
        assert!(n >= 1);
        if let Err(e) = cfg.validate() {
            panic!("landmark config: {e}");
        }
        let k = cfg.landmark_count(n);
        let landmarks = Self::sample_landmarks(n, k, cfg.seed);
        let mut scratch = BfsScratch::with_capacity(n);
        let mut dist_l = vec![0 as Dist; n];

        // One cheap single-source BFS is the whole connectivity check (the
        // dense builder scanned its n × n matrix for this).  Note the
        // multi-source sweep below cannot stand in for it: with landmarks
        // sampled in two components every vertex still reaches *some*
        // landmark.
        bfs_distances_into(view, landmarks[0], &mut scratch, &mut dist_l);
        assert!(
            dist_l.iter().all(|&d| d != INFINITY),
            "landmark routing requires a connected graph"
        );

        match width_for_view(view, &dist_l) {
            Width::U8 => Self::build_cells::<u8>(view, cfg, threads, landmarks, scratch),
            Width::U16 => Self::build_cells::<u16>(view, cfg, threads, landmarks, scratch),
            Width::U32 => Self::build_cells::<u32>(view, cfg, threads, landmarks, scratch),
        }
    }

    /// The rest of [`LandmarkRouting::build_on_view`] after the
    /// connectivity check, storing cells of type `C`.
    fn build_cells<C: TableCell>(
        view: GraphView<'_>,
        cfg: &LandmarkConfig,
        threads: usize,
        landmarks: Vec<NodeId>,
        mut scratch: BfsScratch,
    ) -> Self {
        let n = view.num_nodes();
        let k = landmarks.len();

        // Home landmark and distance to the landmark set, in one BFS.
        let mut dist_to_set = vec![INFINITY; n];
        let mut origin = vec![0u32; n];
        bfs_from_sources_into(
            view,
            &landmarks,
            &mut scratch,
            &mut dist_to_set,
            &mut origin,
        );
        let home: Vec<NodeId> = origin.iter().map(|&o| o as usize).collect();

        // Distance and port towards every landmark (see `toward_block`).
        let mut toward_dist = vec![C::default(); n * k];
        let mut toward_landmark = vec![C::NONE; n * k];
        {
            let columns: Vec<Mutex<&mut [C]>> = toward_dist
                .chunks_mut(TOWARD_LANES * n)
                .map(Mutex::new)
                .collect();
            let toward_landmark = Mutex::new(&mut toward_landmark[..]);
            par::map_fold_ordered(
                columns.len(),
                threads,
                || (BfsScratch::with_capacity(n), Vec::new()),
                |(bfs, lines), b, _: &mut ()| {
                    let first = b * TOWARD_LANES;
                    let block = &landmarks[first..(first + TOWARD_LANES).min(k)];
                    let mut columns = columns[b]
                        .lock()
                        .expect("one item per block: the lock is never contended");
                    toward_block(
                        view,
                        block,
                        first,
                        bfs,
                        lines,
                        &mut columns,
                        &toward_landmark,
                    );
                },
                |_, _| {},
            );
        }

        // Strict rule only: the handoff table of each landmark, harvested by
        // one pruned BFS per landmark with the *inclusive* bound — its visit
        // set `{ v : d(ℓ, v) <= d(v, L) }` contains the whole home set of
        // `ℓ` (members have d(ℓ, v) = d(v, L) exactly), and the reported
        // first-hop ports are provably the dense "first shortest-path port"
        // scan.  Stored flat: landmark `i`'s list is
        // `handoff[handoff_offsets[i]..handoff_offsets[i + 1]]`.
        let mut handoff: Vec<(u32, Dist, u32)> = Vec::new();
        let mut handoff_offsets = vec![0usize];
        if cfg.cluster_rule == ClusterRule::Strict {
            par::map_fold_ordered(
                k,
                threads,
                || BoundedBfsScratch::with_capacity(n),
                |bounded, i, list: &mut Vec<(u32, Dist, u32)>| {
                    let l = landmarks[i];
                    list.clear();
                    bfs_bounded_into(view, l, &dist_to_set, bounded, |v, d, p| {
                        if home[v] == l {
                            list.push((v as u32, d, p as u32));
                        }
                    });
                },
                |_, list| {
                    handoff.extend_from_slice(list);
                    handoff_offsets.push(handoff.len());
                },
            );
        }

        // Clusters by pruned BFS.  Inclusive: S(w) = { v != w : d(w, v) <=
        // d(v, L) }, bounded by d(·, L) itself.  Strict: d(w, v) < d(v, L),
        // i.e. bounded by d(·, L) - 1 — still downward-closed (d(·, L) is
        // 1-Lipschitz along edges, so any vertex on a shortest path to a
        // strict member is itself strict), so the traversal still only walks
        // the cluster and its boundary.
        let bound: Vec<Dist> = match cfg.cluster_rule {
            ClusterRule::Inclusive => dist_to_set.clone(),
            ClusterRule::Strict => dist_to_set.iter().map(|&d| d.saturating_sub(1)).collect(),
        };
        // What router `w` stores besides its pruned-BFS cluster: its handoff
        // list if it is a landmark under the strict rule, else nothing.  The
        // handoff set { v : home[v] = w } is disjoint from the strict cluster
        // (its members sit exactly at d(w, v) = d(v, L)), so merging it in is
        // a merge, not a dedup.
        let handoff_of = |w: usize| -> &[(u32, Dist, u32)] {
            match landmarks.binary_search(&w) {
                Ok(i) if cfg.cluster_rule == ClusterRule::Strict => {
                    &handoff[handoff_offsets[i]..handoff_offsets[i + 1]]
                }
                _ => &[],
            }
        };

        // Reserve the cluster arrays once rather than letting the fold grow
        // them by doubling: each growth step copies the whole prefix, and
        // with worker threads alive those copies raised the peak resident
        // memory of back-to-back builds by a fifth.
        let estimate = estimate_cluster_entries(view, &bound, threads, |w| handoff_of(w).len());
        let reserve = estimate + estimate / 4;

        let blocks = n.div_ceil(CLUSTER_BLOCK);
        let mut direct_offsets = vec![0u32; n + 1];
        let mut direct_targets: Vec<u32> = Vec::with_capacity(reserve);
        let mut direct_dists: Vec<C> = Vec::with_capacity(reserve);
        let mut direct_ports: Vec<C> = Vec::with_capacity(reserve);
        par::map_fold_ordered(
            blocks,
            threads,
            || (BoundedBfsScratch::with_capacity(n), Vec::new()),
            |(bounded, members), b, block: &mut ClusterBlock<C>| {
                block.clear();
                for w in b * CLUSTER_BLOCK..((b + 1) * CLUSTER_BLOCK).min(n) {
                    members.clear();
                    bfs_bounded_into(view, w, &bound, bounded, |v, d, p| {
                        members.push((v as u32, d, p as u32));
                    });
                    members.extend_from_slice(handoff_of(w));
                    members.sort_unstable_by_key(|&(v, _, _)| v);
                    block.push(members);
                }
            },
            |b, block| {
                let w0 = b * CLUSTER_BLOCK;
                for (j, &size) in block.sizes.iter().enumerate() {
                    direct_offsets[w0 + j + 1] = direct_offsets[w0 + j] + size;
                }
                direct_targets.extend_from_slice(&block.targets);
                direct_dists.extend_from_slice(&block.dists);
                direct_ports.extend_from_slice(&block.ports);
            },
        );
        // An estimate that overshot leaves more than the slack, and one that
        // undershot lets the fold double the arrays; trim either back to the
        // slack, which repair's gains grow into.
        let slack = direct_targets.len() + direct_targets.len() / 4;
        if direct_targets.capacity() > slack {
            direct_targets.shrink_to(slack);
            direct_dists.shrink_to(slack);
            direct_ports.shrink_to(slack);
        }

        LandmarkRouting {
            landmarks,
            home,
            direct_offsets,
            direct_targets,
            cells: C::wrap(Tables {
                toward_landmark,
                toward_dist,
                direct_ports,
                direct_dists,
            }),
            config: cfg.clone(),
            dist_to_set,
            name: "landmark-routing".to_string(),
        }
    }

    /// Dense reference builder: identical output to
    /// [`LandmarkRouting::build_with`] bit for bit, computed the quadratic
    /// way (full [`DistanceMatrix`] plus `O(n²)` scans).  Kept for the
    /// seed-for-seed equivalence tests and the dense-vs-sparse
    /// `landmark_build` benchmark; unusable at `n ≳ 10^4`.
    pub fn build_dense_with(g: &Graph, cfg: &LandmarkConfig) -> Self {
        let n = g.num_nodes();
        assert!(n >= 1);
        if let Err(e) = cfg.validate() {
            panic!("landmark config: {e}");
        }
        let dm = DistanceMatrix::all_pairs(g);
        assert!(
            dm.is_connected(),
            "landmark routing requires a connected graph"
        );
        let k = cfg.landmark_count(n);
        let landmarks = Self::sample_landmarks(n, k, cfg.seed);

        // Home landmark and distance to the landmark set.
        let mut home = vec![0usize; n];
        let mut dist_to_set = vec![INFINITY; n];
        for v in 0..n {
            for &l in &landmarks {
                let d = dm.dist(v, l);
                if d < dist_to_set[v] {
                    dist_to_set[v] = d;
                    home[v] = l;
                }
            }
        }

        // Distance and port towards every landmark (first shortest-path
        // port).
        let first_port_towards = |w: NodeId, target: NodeId| -> u32 {
            let dwt = dm.dist(w, target);
            g.neighbors(w)
                .iter()
                .position(|&x| dm.dist(x as usize, target) + 1 == dwt)
                .expect("connected graph: some neighbour is closer to the target")
                as u32
        };
        let mut toward_dist = vec![0 as Dist; n * k];
        let mut toward_landmark = vec![u32::NONE; n * k];
        for w in 0..n {
            for (i, &l) in landmarks.iter().enumerate() {
                toward_dist[i * n + w] = dm.dist(w, l);
                if l != w {
                    toward_landmark[w * k + i] = first_port_towards(w, l);
                }
            }
        }

        // Clusters, ascending by v.  Strict additionally stores the home-set
        // handoff at each landmark; the two sets are disjoint (home members
        // sit exactly on the d(w, v) = d(v, L) boundary), so one ascending
        // scan emits the merged slice already sorted.
        let mut direct_offsets = vec![0u32; n + 1];
        let mut direct_targets: Vec<u32> = Vec::new();
        let mut direct_dists: Vec<Dist> = Vec::new();
        let mut direct_ports: Vec<u32> = Vec::new();
        for w in 0..n {
            for v in 0..n {
                if v == w {
                    continue;
                }
                let keep = match cfg.cluster_rule {
                    ClusterRule::Inclusive => dm.dist(w, v) <= dist_to_set[v],
                    ClusterRule::Strict => dm.dist(w, v) < dist_to_set[v] || home[v] == w,
                };
                if keep {
                    direct_targets.push(v as u32);
                    direct_dists.push(dm.dist(w, v));
                    direct_ports.push(first_port_towards(w, v));
                }
            }
            direct_offsets[w + 1] = direct_targets.len() as u32;
        }

        // The cell width, by the same rule as the sparse build.
        let ecc = (0..n).map(|v| dm.dist(landmarks[0], v)).max().unwrap_or(0);
        let width = Width::for_bounds(g.max_degree(), 2 * u64::from(ecc));
        LandmarkRouting {
            landmarks,
            home,
            direct_offsets,
            direct_targets,
            cells: Cells::U32(Tables {
                toward_landmark,
                toward_dist,
                direct_ports,
                direct_dists,
            })
            .into_width(width),
            config: cfg.clone(),
            dist_to_set,
            name: "landmark-routing".to_string(),
        }
    }

    /// Samples `k` landmarks, ascending.
    fn sample_landmarks(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = Xoshiro256::new(seed);
        let mut landmarks = rng.sample_indices(n, k.min(n));
        landmarks.sort_unstable();
        landmarks
    }

    /// [`LandmarkRouting::repair`] on an explicit worker count; neither the
    /// repaired instance nor the outcome depends on `threads`.
    fn repair_threads(
        &mut self,
        g: &Graph,
        adapted_to: &FailureSet,
        failures: &FailureSet,
        threads: usize,
    ) -> Result<RepairOutcome, BuildError> {
        let n = g.num_nodes();
        let k = self.landmarks.len();
        let view = GraphView::masked(g, failures);

        // Fallbacks: the strict rule's handoff/boundary structure resists
        // local patching, and a non-nested failure set means links came back
        // (distances may shrink — the decremental machinery does not apply).
        let nested = failures.is_superset_of(adapted_to);
        if self.config.cluster_rule == ClusterRule::Strict || !nested {
            if !graphkit::traversal::is_connected(view) {
                return Err(BuildError::Disconnected {
                    scheme: "landmark-routing",
                });
            }
            let cfg = self.config.clone();
            *self = Self::build_on_view_threads(view, &cfg, threads);
            return Ok(RepairOutcome {
                vertices_touched: n,
                landmarks_rebuilt: k,
                full_rebuild: true,
            });
        }

        let delta = edge_delta(failures.dead_edges(), adapted_to.dead_edges());
        if delta.is_empty() {
            return Ok(RepairOutcome {
                vertices_touched: 0,
                landmarks_rebuilt: 0,
                full_rebuild: false,
            });
        }
        let old_view = GraphView::masked(g, adapted_to);

        // Connectivity of the new view, checked before any mutation.
        let mut scratch = BfsScratch::with_capacity(n);
        let mut tmp = vec![0 as Dist; n];
        bfs_distances_into(view, self.landmarks[0], &mut scratch, &mut tmp);
        if tmp.contains(&INFINITY) {
            return Err(BuildError::Disconnected {
                scheme: "landmark-routing",
            });
        }

        // New homes and d(·, L).
        let mut new_dts = vec![INFINITY; n];
        let mut origin = vec![0u32; n];
        bfs_from_sources_into(
            view,
            &self.landmarks,
            &mut scratch,
            &mut new_dts,
            &mut origin,
        );

        // The cell width the new view needs.  Deletions only grow
        // distances, so this widens, never narrows; the tables are
        // re-encoded once, before any pass reads them.
        let width = width_for_view(view, &tmp);
        if width > self.cells.width() {
            let cells = std::mem::replace(&mut self.cells, Cells::U8(Tables::default()));
            self.cells = cells.into_width(width);
        }
        self.home = origin.iter().map(|&o| o as usize).collect();
        let old_dts = std::mem::replace(&mut self.dist_to_set, new_dts);
        let (vertices_touched, landmarks_rebuilt) = match self.cells.width() {
            Width::U8 => self.patch::<u8>(view, old_view, &delta, &old_dts, threads),
            Width::U16 => self.patch::<u16>(view, old_view, &delta, &old_dts, threads),
            Width::U32 => self.patch::<u32>(view, old_view, &delta, &old_dts, threads),
        };
        Ok(RepairOutcome {
            vertices_touched,
            landmarks_rebuilt,
            full_rebuild: false,
        })
    }

    /// The passes of [`LandmarkRouting::repair`] after the multi-source BFS,
    /// on tables of cell type `C`: `dist_to_set` and `home` already hold the
    /// new view's values, `old_dts` the old `d(·, L)`.  Returns the touched
    /// vertices and the landmarks whose column changed.
    fn patch<C: TableCell>(
        &mut self,
        view: GraphView<'_>,
        old_view: GraphView<'_>,
        delta: &[(u32, u32)],
        old_dts: &[Dist],
        threads: usize,
    ) -> (usize, usize) {
        let n = view.num_nodes();
        let k = self.landmarks.len();
        let new_dts: &[Dist] = &self.dist_to_set;
        let t = C::unwrap_mut(&mut self.cells).expect("dispatched on the stored width");

        // Toward-landmark columns, one item per landmark: a decremental
        // worklist seeded at the far endpoints of dead *tight* arcs (an arc
        // supports no shortest path otherwise) patches the landmark's own
        // column of `toward_dist` in place, then the ports are re-derived
        // over the vertices whose formula inputs moved: the changed
        // vertices, their live neighbours, and the dead-edge endpoints (they
        // lost an arc).  The fold writes those ports into the row-major
        // `toward_landmark`.
        let mut landmarks_rebuilt = 0usize;
        {
            let columns: Vec<Mutex<&mut [C]>> =
                t.toward_dist.chunks_mut(n).map(Mutex::new).collect();
            let landmarks = &self.landmarks;
            let toward_landmark = &mut t.toward_landmark;
            par::map_fold_ordered(
                k,
                threads,
                || {
                    (
                        VecDeque::new(),
                        vec![false; n],
                        vec![u32::MAX; n],
                        Vec::new(),
                    )
                },
                |(queue, inq, dirty, rescan), i, patch: &mut ColumnPatch| {
                    let mut col = columns[i]
                        .lock()
                        .expect("one item per column: the lock is never contended");
                    let col: &mut [C] = &mut col;
                    let l = landmarks[i];
                    let epoch = i as u32;
                    patch.moved = false;
                    rescan.clear();
                    for &(u, v) in delta {
                        let (uu, vv) = (u as usize, v as usize);
                        let (du, dv) = (col[uu].get(), col[vv].get());
                        let far = if dv == du + 1 {
                            Some(vv)
                        } else if du == dv + 1 {
                            Some(uu)
                        } else {
                            None
                        };
                        if let Some(f) = far {
                            if !inq[f] {
                                inq[f] = true;
                                queue.push_back(f as u32);
                            }
                        }
                        for e in [uu, vv] {
                            if dirty[e] != epoch {
                                dirty[e] = epoch;
                                rescan.push(e as u32);
                            }
                        }
                    }
                    while let Some(x) = queue.pop_front() {
                        let xu = x as usize;
                        inq[xu] = false;
                        if xu == l {
                            continue;
                        }
                        let mut best = INFINITY;
                        view.for_each_live(xu, |_, z| best = best.min(col[z].get()));
                        let nd = best.saturating_add(1);
                        if nd == col[xu].get() {
                            continue;
                        }
                        debug_assert!(nd > col[xu].get(), "deletion-only distances cannot shrink");
                        col[xu] = C::cell(nd);
                        patch.moved = true;
                        if dirty[xu] != epoch {
                            dirty[xu] = epoch;
                            rescan.push(x);
                        }
                        view.for_each_live(xu, |_, z| {
                            if dirty[z] != epoch {
                                dirty[z] = epoch;
                                rescan.push(z as u32);
                            }
                            if !inq[z] {
                                inq[z] = true;
                                queue.push_back(z as u32);
                            }
                        });
                    }
                    patch.ports.clear();
                    for &w in rescan.iter() {
                        let wu = w as usize;
                        if wu != l {
                            let port = min_tight_port(view, col, wu, col[wu].get()).expect(
                                "connected graph: some neighbour is closer to the landmark",
                            );
                            patch.ports.push((w, port));
                        }
                    }
                },
                |i, patch| {
                    let mut changed = patch.moved;
                    for &(w, port) in &patch.ports {
                        let slot = &mut toward_landmark[w as usize * k + i];
                        if slot.get() != port {
                            *slot = C::cell(port);
                            changed = true;
                        }
                    }
                    landmarks_rebuilt += usize::from(changed);
                },
            );
        }

        // Clusters.  Fresh pruned BFS only for the dead-edge endpoints (their
        // own port structure changed).  Everything else is patched in place —
        // including *member gains*: when a bound d(v, L) grows, the sources
        // that newly satisfy d(w, v) ≤ d(v, L) are exactly the new-view
        // annulus `old_dts[v] < d(w, v) ≤ new_dts[v]` around `v`, and the
        // ball BFS that finds them already yields the exact new member
        // distance — so the member is spliced into the stored slice and only
        // its first hop needs the recurrence.  (A vertex whose bound did not
        // grow cannot be gained by anyone: non-membership means
        // `d_old(w, v) > dts[v]`, and deletions only push distances up.)
        // One item per grown vertex: a few dozen of them carry all the work,
        // so coarser items would leave a worker idle.
        let mut full_mark = vec![false; n];
        for &(u, v) in delta {
            full_mark[u as usize] = true;
            full_mark[v as usize] = true;
        }
        let (offsets, targets) = (&self.direct_offsets, &self.direct_targets);
        let grown: Vec<usize> = (0..n).filter(|&v| new_dts[v] != old_dts[v]).collect();
        let mut gains: Vec<(u32, u32, Dist)> = Vec::new();
        par::map_fold_ordered(
            grown.len(),
            threads,
            BoundedBfsScratch::default,
            |bounded, j, found: &mut Vec<(u32, u32, Dist)>| {
                found.clear();
                let v = grown[j];
                debug_assert!(new_dts[v] > old_dts[v]);
                let (old_bound, vv) = (old_dts[v], v as u32);
                bfs_ball_into(view, v, new_dts[v], bounded, |w, d| {
                    if d <= old_bound || full_mark[w] {
                        return;
                    }
                    let stored = &targets[offsets[w] as usize..offsets[w + 1] as usize];
                    // Already stored: the distance moved but membership
                    // did not — that is the suspect patch's business.
                    if find_sorted(stored, vv).is_none() {
                        found.push((w as u32, vv, d));
                    }
                });
            },
            |_, found| gains.extend_from_slice(found),
        );
        gains.sort_unstable();

        // Damage detection, inverted per dead edge (see the doc comment):
        // suspect sources hold both endpoints in their old cluster at
        // consecutive distances.  One item per dead edge.
        let mut suspects: Vec<(u32, u32)> = Vec::new();
        par::map_fold_ordered(
            delta.len(),
            threads,
            || {
                (
                    BoundedBfsScratch::default(),
                    vec![u32::MAX; n],
                    vec![0 as Dist; n],
                )
            },
            |(bounded, mark, dx), e, found: &mut Vec<(u32, u32)>| {
                found.clear();
                let (x, y) = (delta[e].0 as usize, delta[e].1 as usize);
                let epoch = e as u32;
                bfs_ball_into(old_view, x, old_dts[x], bounded, |w, d| {
                    mark[w] = epoch;
                    dx[w] = d;
                });
                bfs_ball_into(old_view, y, old_dts[y], bounded, |w, d| {
                    if mark[w] == epoch && dx[w].abs_diff(d) == 1 && !full_mark[w] {
                        found.push((w as u32, epoch));
                    }
                });
            },
            |_, found| suspects.extend_from_slice(found),
        );
        suspects.sort_unstable();
        let gain_at = router_offsets(n, gains.iter().map(|&(w, _, _)| w));
        let suspect_at = router_offsets(n, suspects.iter().map(|&(w, _)| w));

        // Phase A — patch in place.  Cluster membership changes only at
        // gained members (spliced during relocation) and dead members (their
        // distance outgrew the bound); every other edit is a distance or
        // first-hop rewrite *inside* an existing slice.  So the patch mutates
        // `direct_dists`/`direct_ports` where the slices already sit — the
        // decremental distance worklist, then the first-hop recurrence level
        // by level, both over the virtual index space "stored members ++
        // gains of this source" — records per-source structural facts (new
        // lengths, gained first hops, fresh slices for the dead-edge
        // endpoints), and leaves every byte move to one relocation pass
        // (Phase B).  A dead member is marked by forcing its stored distance
        // to the cell sentinel, which every support scan skips.
        //
        // One item per block of `CLUSTER_BLOCK` routers; block `b` owns the
        // contiguous range of `direct_dists`/`direct_ports` its routers'
        // slices span, split off the arrays up front and locked by that item
        // alone.  The fold collects the block's facts in router order.
        let blocks = n.div_ceil(CLUSTER_BLOCK);
        let block_at = |b: usize| (b * CLUSTER_BLOCK).min(n);
        let slots: Vec<Mutex<(&mut [C], &mut [C])>> = {
            let (mut dists, mut ports) = (&mut t.direct_dists[..], &mut t.direct_ports[..]);
            (0..blocks)
                .map(|b| {
                    let len = (offsets[block_at(b + 1)] - offsets[block_at(b)]) as usize;
                    let (d, rest) = std::mem::take(&mut dists).split_at_mut(len);
                    dists = rest;
                    let (p, rest) = std::mem::take(&mut ports).split_at_mut(len);
                    ports = rest;
                    Mutex::new((d, p))
                })
                .collect()
        };
        let mut vertices_touched = 0usize;
        let mut new_offsets = vec![0u32; n + 1];
        let mut gports: Vec<u32> = Vec::with_capacity(gains.len());
        let mut fm_start = vec![u32::MAX; n];
        let mut fm_data: Vec<(u32, Dist, u32)> = Vec::new();
        par::map_fold_ordered(
            blocks,
            threads,
            PatchScratch::default,
            |s, b, out: &mut PatchedBlock| {
                let mut slot = slots[b]
                    .lock()
                    .expect("one item per block: the lock is never contended");
                let (dists, ports) = &mut *slot;
                let PatchScratch {
                    bounded,
                    queue,
                    buckets,
                    inqv,
                    fhd,
                    dirty,
                } = s;
                out.clear();
                let base = offsets[block_at(b)] as usize;
                let gbase = gain_at[block_at(b)] as usize;
                out.gports
                    .resize(gain_at[block_at(b + 1)] as usize - gbase, u32::MAX);
                for w in block_at(b)..block_at(b + 1) {
                    let edges = &suspects[suspect_at[w] as usize..suspect_at[w + 1] as usize];
                    let (g0, g1) = (gain_at[w] as usize, gain_at[w + 1] as usize);
                    let (lo, hi) = (offsets[w] as usize, offsets[w + 1] as usize);
                    let len = hi - lo;
                    if full_mark[w] {
                        // A dead-edge endpoint: its own port structure
                        // changed, so its cluster is recomputed from scratch
                        // into a side buffer (there are at most two per dead
                        // link).
                        out.touched += 1;
                        let at = out.fresh.len();
                        bfs_bounded_into(view, w, new_dts, bounded, |v, d, p| {
                            out.fresh.push((v as u32, d, p as u32));
                        });
                        out.fresh[at..].sort_unstable();
                        out.fresh_at.push((w as u32, at as u32));
                        out.lens.push((out.fresh.len() - at) as u32);
                        continue;
                    }
                    let gk = g1 - g0;
                    let tg = &targets[lo..hi];
                    let dd = &mut dists[lo - base..hi - base];
                    let pp = &mut ports[lo - base..hi - base];
                    // Dry run over the suspect arcs: detection only knows
                    // both endpoints sat in the old cluster at consecutive
                    // distances, which makes the arc *tight*, not
                    // load-bearing.  If the far endpoint of every suspect arc
                    // keeps an alternative tight support (distance intact)
                    // and the same minimal first hop, nothing in this
                    // source's stored output can move — damage would have to
                    // originate at some far endpoint — and the expensive
                    // patch is skipped.
                    let mut damaged = false;
                    for &(_, e) in edges {
                        let (x, y) = delta[e as usize];
                        let (Ok(ix), Ok(iy)) = (tg.binary_search(&x), tg.binary_search(&y)) else {
                            debug_assert!(false, "suspect edge endpoints must be stored members");
                            damaged = true;
                            break;
                        };
                        let (dx, dy) = (dd[ix].get(), dd[iy].get());
                        let f = if dy == dx + 1 {
                            iy
                        } else if dx == dy + 1 {
                            ix
                        } else {
                            continue;
                        };
                        let (fv, df) = (tg[f] as usize, dd[f].get());
                        let mut best = INFINITY;
                        view.for_each_live(fv, |_, z| {
                            if z == w {
                                best = 0;
                            } else if let Ok(iz) = tg.binary_search(&(z as u32)) {
                                best = best.min(dd[iz].get());
                            }
                        });
                        if best.saturating_add(1) != df {
                            damaged = true;
                            break;
                        }
                        let mut bp = u32::MAX;
                        if df == 1 {
                            for p in 0..view.degree(w) {
                                if view.live_target(w, p) == Some(fv) {
                                    bp = p as u32;
                                    break;
                                }
                            }
                        } else {
                            view.for_each_live(fv, |_, z| {
                                if z != w {
                                    if let Ok(iz) = tg.binary_search(&(z as u32)) {
                                        if dd[iz].get() + 1 == df {
                                            bp = bp.min(pp[iz].get());
                                        }
                                    }
                                }
                            });
                        }
                        if bp != pp[f].get() {
                            damaged = true;
                            break;
                        }
                    }
                    if !damaged && gk == 0 {
                        out.lens.push(len as u32);
                        continue;
                    }
                    out.touched += 1;
                    let gw = &gains[g0..g1];
                    let gp = &mut out.gports[g0 - gbase..g1 - gbase];
                    let total = len + gk;
                    inqv.clear();
                    inqv.resize(total, false);
                    fhd.clear();
                    fhd.resize(total, false);
                    dirty.clear();
                    for t in 0..gk {
                        fhd[len + t] = true;
                        dirty.push((len + t) as u32);
                    }
                    // Seeds: far endpoints of each suspect arc (distance
                    // support lost) — which by detection are both stored
                    // members.
                    for &(_, e) in edges {
                        let (x, y) = delta[e as usize];
                        let (Ok(ix), Ok(iy)) = (tg.binary_search(&x), tg.binary_search(&y)) else {
                            debug_assert!(false, "suspect edge endpoints must be stored members");
                            continue;
                        };
                        let (dx, dy) = (dd[ix].get(), dd[iy].get());
                        let far = if dy == dx + 1 {
                            iy
                        } else if dx == dy + 1 {
                            ix
                        } else {
                            continue;
                        };
                        if !fhd[far] {
                            fhd[far] = true;
                            dirty.push(far as u32);
                        }
                        if !inqv[far] {
                            inqv[far] = true;
                            queue.push_back(far as u32);
                        }
                    }
                    let mut deaths = 0u32;
                    while let Some(i0) = queue.pop_front() {
                        // Only stored members enqueue: a gained member enters
                        // at its exact new-view distance and never moves
                        // again.
                        let idx = i0 as usize;
                        inqv[idx] = false;
                        if dd[idx] == C::NONE {
                            continue;
                        }
                        let v = tg[idx] as usize;
                        let mut best = INFINITY;
                        view.for_each_live(v, |_, z| {
                            if z == w {
                                best = 0;
                            } else if let Some(iz) = cluster_find(z as u32, tg, gw) {
                                let dz = if iz < len {
                                    dd[iz]
                                } else {
                                    C::cell(gw[iz - len].2)
                                };
                                if dz != C::NONE {
                                    best = best.min(dz.get());
                                }
                            }
                        });
                        let nd = best.saturating_add(1);
                        if nd <= dd[idx].get() {
                            // Equal: nothing moved.  Smaller: the support
                            // scan saw a not-yet-raised stale neighbour next
                            // to a gained member (already at its final
                            // distance) — deletions only push distances up,
                            // so the recompute is a no-op, not a decrease.
                            continue;
                        }
                        if nd > new_dts[v] {
                            // Exceeds the bound (or the support left the
                            // stored cluster, which implies the same): no
                            // longer a member.
                            dd[idx] = C::NONE;
                            deaths += 1;
                        } else {
                            dd[idx] = C::cell(nd);
                            if !fhd[idx] {
                                fhd[idx] = true;
                                dirty.push(idx as u32);
                            }
                        }
                        view.for_each_live(v, |_, z| {
                            if z != w {
                                if let Some(iz) = cluster_find(z as u32, tg, gw) {
                                    if iz < len && dd[iz] != C::NONE {
                                        if !fhd[iz] {
                                            fhd[iz] = true;
                                            dirty.push(iz as u32);
                                        }
                                        if !inqv[iz] {
                                            inqv[iz] = true;
                                            queue.push_back(iz as u32);
                                        }
                                    }
                                }
                            }
                        });
                    }
                    // First hops, ascending by (final) distance: fh(v) is the
                    // port of the arc w→v at distance 1, else the minimum fh
                    // over tight in-neighbours — whose own hops are final
                    // once their level has been processed.  Only the dirty
                    // members (gains, raised distances, neighbours of either)
                    // enter the buckets; the cascade extends them on demand.
                    // Gains start at port `u32::MAX`, so their first
                    // derivation always propagates.
                    for bucket in buckets.iter_mut() {
                        bucket.clear();
                    }
                    for &di in dirty.iter() {
                        let idx = di as usize;
                        if idx < len && dd[idx] == C::NONE {
                            continue;
                        }
                        let dvi = if idx < len {
                            dd[idx].get()
                        } else {
                            gw[idx - len].2
                        };
                        let du = dvi as usize;
                        if buckets.len() <= du {
                            buckets.resize(du + 1, Vec::new());
                        }
                        buckets[du].push(di);
                    }
                    let mut d = 1usize;
                    while d < buckets.len() {
                        let mut qi = 0usize;
                        while qi < buckets[d].len() {
                            let idx = buckets[d][qi] as usize;
                            qi += 1;
                            let (v, dv) = if idx < len {
                                (tg[idx] as usize, dd[idx].get())
                            } else {
                                (gw[idx - len].1 as usize, gw[idx - len].2)
                            };
                            debug_assert_eq!(dv as usize, d);
                            let mut best = u32::MAX;
                            if dv == 1 {
                                for p in 0..view.degree(w) {
                                    if view.live_target(w, p) == Some(v) {
                                        best = p as u32;
                                        break;
                                    }
                                }
                            } else {
                                view.for_each_live(v, |_, z| {
                                    if z != w {
                                        if let Some(iz) = cluster_find(z as u32, tg, gw) {
                                            let (dz, pz) = if iz < len {
                                                (dd[iz], pp[iz].get())
                                            } else {
                                                (C::cell(gw[iz - len].2), gp[iz - len])
                                            };
                                            if dz != C::NONE && dz.get() + 1 == dv {
                                                best = best.min(pz);
                                            }
                                        }
                                    }
                                });
                            }
                            debug_assert_ne!(
                                best,
                                u32::MAX,
                                "a live member must have a tight in-neighbour"
                            );
                            let cur = if idx < len {
                                pp[idx].get()
                            } else {
                                gp[idx - len]
                            };
                            if cur != best {
                                if idx < len {
                                    pp[idx] = C::cell(best);
                                } else {
                                    gp[idx - len] = best;
                                }
                                view.for_each_live(v, |_, z| {
                                    if z != w {
                                        if let Some(iz) = cluster_find(z as u32, tg, gw) {
                                            let dz = if iz < len {
                                                dd[iz]
                                            } else {
                                                C::cell(gw[iz - len].2)
                                            };
                                            if dz != C::NONE && dz.get() == dv + 1 && !fhd[iz] {
                                                fhd[iz] = true;
                                                let du = (dv + 1) as usize;
                                                if buckets.len() <= du {
                                                    buckets.resize(du + 1, Vec::new());
                                                }
                                                buckets[du].push(iz as u32);
                                            }
                                        }
                                    }
                                });
                            }
                        }
                        d += 1;
                    }
                    out.lens.push((len + gk) as u32 - deaths);
                }
            },
            |b, out| {
                let w0 = block_at(b);
                new_offsets[w0 + 1..=w0 + out.lens.len()].copy_from_slice(&out.lens);
                gports.extend_from_slice(&out.gports);
                for &(w, at) in &out.fresh_at {
                    fm_start[w as usize] = fm_data.len() as u32 + at;
                }
                fm_data.extend_from_slice(&out.fresh);
                vertices_touched += out.touched;
            },
        );
        drop(slots);

        // Phase B — one relocation pass.  Prefix-summing the new lengths
        // gives every slice's final position.  A slice that moves right is
        // written in a descending sweep, one that moves left (or stays) in a
        // following ascending sweep: a right-mover's write never reaches
        // past the next source's final position, so it can only cover bytes
        // the descending order has already relocated — and symmetrically for
        // left-movers.  Unchanged slices at unchanged positions cost
        // nothing; a moved-but-unedited slice is a bare `copy_within`; an
        // edited slice bounces through a cache-sized scratch, from which the
        // surviving members move back in runs — one `copy_from_slice` per
        // stretch between gain insertion points and dead members — with the
        // gains written in between.
        for w in 0..n {
            new_offsets[w + 1] += new_offsets[w];
        }
        let new_total = new_offsets[n] as usize;
        let old_total = self.direct_targets.len();
        if new_total > old_total {
            self.direct_targets.resize(new_total, 0);
            t.direct_dists.resize(new_total, C::default());
            t.direct_ports.resize(new_total, C::default());
        }
        {
            let direct_offsets = &self.direct_offsets;
            let direct_targets = &mut self.direct_targets;
            let direct_dists = &mut t.direct_dists;
            let direct_ports = &mut t.direct_ports;
            let (mut st, mut sd, mut sp): (Vec<u32>, Vec<C>, Vec<C>) = Default::default();
            let mut relocate = |w: usize| {
                let nlo = new_offsets[w] as usize;
                let nhi = new_offsets[w + 1] as usize;
                if fm_start[w] != u32::MAX {
                    let at = fm_start[w] as usize;
                    for (j, &(v, d, p)) in fm_data[at..at + (nhi - nlo)].iter().enumerate() {
                        direct_targets[nlo + j] = v;
                        direct_dists[nlo + j] = C::cell(d);
                        direct_ports[nlo + j] = C::cell(p);
                    }
                    return;
                }
                let (olo, ohi) = (direct_offsets[w] as usize, direct_offsets[w + 1] as usize);
                let (g0, g1) = (gain_at[w] as usize, gain_at[w + 1] as usize);
                if g0 == g1 && nhi - nlo == ohi - olo {
                    if nlo != olo {
                        direct_targets.copy_within(olo..ohi, nlo);
                        direct_dists.copy_within(olo..ohi, nlo);
                        direct_ports.copy_within(olo..ohi, nlo);
                    }
                    return;
                }
                st.clear();
                st.extend_from_slice(&direct_targets[olo..ohi]);
                sd.clear();
                sd.extend_from_slice(&direct_dists[olo..ohi]);
                sp.clear();
                sp.extend_from_slice(&direct_ports[olo..ohi]);
                let (gw, gp) = (&gains[g0..g1], &gports[g0..g1]);
                let (mut wi, mut j, mut t) = (nlo, 0usize, 0usize);
                while j < st.len() || t < gw.len() {
                    // The run of stored members up to the next gain's
                    // insertion point or the next dead member.
                    let stop = match gw.get(t) {
                        Some(&(_, v, _)) => j + st[j..].partition_point(|&x| x < v),
                        None => st.len(),
                    };
                    let end = sd[j..stop]
                        .iter()
                        .position(|&d| d == C::NONE)
                        .map_or(stop, |r| j + r);
                    let run = end - j;
                    direct_targets[wi..wi + run].copy_from_slice(&st[j..end]);
                    direct_dists[wi..wi + run].copy_from_slice(&sd[j..end]);
                    direct_ports[wi..wi + run].copy_from_slice(&sp[j..end]);
                    wi += run;
                    j = end;
                    if end < stop {
                        j += 1;
                    } else if t < gw.len() {
                        direct_targets[wi] = gw[t].1;
                        direct_dists[wi] = C::cell(gw[t].2);
                        direct_ports[wi] = C::cell(gp[t]);
                        wi += 1;
                        t += 1;
                    }
                }
                debug_assert_eq!(wi, nhi, "relocated slice must fill its range");
            };
            for w in (0..n).rev() {
                if new_offsets[w] > direct_offsets[w] {
                    relocate(w);
                }
            }
            for w in 0..n {
                if new_offsets[w] <= direct_offsets[w] {
                    relocate(w);
                }
            }
        }
        if new_total < old_total {
            self.direct_targets.truncate(new_total);
            t.direct_dists.truncate(new_total);
            t.direct_ports.truncate(new_total);
        }
        self.direct_offsets = new_offsets;
        (vertices_touched, landmarks_rebuilt)
    }

    /// [`RoutingFunction::port_columns`] for the destinations `lo ..
    /// lo + headers.len()` (at most [`COLUMN_BLOCK`]), router by router,
    /// with [`RoutingFunction::port`]'s precedence: deliver at the
    /// destination, then the cluster entry, then the toward port of the
    /// header's landmark (deliver when the header carries none, or one that
    /// is not a landmark, or at the landmark itself).
    fn block_columns<C: Cell>(
        &self,
        t: &Tables<C>,
        lo: usize,
        headers: &[Header],
        out: &mut [u32],
    ) {
        let n = self.home.len();
        let k = self.landmarks.len();
        let hi = lo + headers.len();
        let mut toward = [usize::MAX; COLUMN_BLOCK];
        for (slot, h) in toward.iter_mut().zip(headers) {
            if let Some(&home) = h.data.first() {
                if let Ok(i) = self.landmarks.binary_search(&(home as usize)) {
                    *slot = i;
                }
            }
        }
        let toward = &toward[..headers.len()];
        for w in 0..n {
            let row = &t.toward_landmark[w * k..(w + 1) * k];
            for (j, &i) in toward.iter().enumerate() {
                out[j * n + w] = match row.get(i) {
                    Some(&p) if p != C::NONE => encode_action(Action::Forward(p.get() as Port)),
                    _ => DELIVER_CODE,
                };
            }
            let (s, e) = (
                self.direct_offsets[w] as usize,
                self.direct_offsets[w + 1] as usize,
            );
            let slice = &self.direct_targets[s..e];
            let first = slice.partition_point(|&x| (x as usize) < lo);
            for (off, &x) in slice[first..].iter().enumerate() {
                let x = x as usize;
                if x >= hi {
                    break;
                }
                let p = t.direct_ports[s + first + off].get() as Port;
                out[(x - lo) * n + w] = encode_action(Action::Forward(p));
            }
            if (lo..hi).contains(&w) {
                out[(w - lo) * n + w] = DELIVER_CODE;
            }
        }
    }

    /// The landmark set used by the scheme.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// The home landmark of a vertex (part of its enhanced address).
    pub fn home_of(&self, v: NodeId) -> NodeId {
        self.home[v]
    }

    /// The next-hop port stored at `w` for a cluster member `v`, or `None`
    /// when `v ∉ S(w)`.
    pub fn direct_port(&self, w: NodeId, v: NodeId) -> Option<Port> {
        let lo = self.direct_offsets[w] as usize;
        let hi = self.direct_offsets[w + 1] as usize;
        let e = lo + find_sorted(&self.direct_targets[lo..hi], v as u32)?;
        Some(with_tables!(&self.cells, t => t.direct_ports[e].get() as Port))
    }

    /// Size of the cluster stored at `w` (including, under the strict rule,
    /// a landmark's handoff entries).
    pub fn cluster_size(&self, w: NodeId) -> usize {
        (self.direct_offsets[w + 1] - self.direct_offsets[w]) as usize
    }

    /// Average cluster size over all routers.
    pub fn average_cluster_size(&self) -> f64 {
        let n = self.home.len();
        self.direct_targets.len() as f64 / n.max(1) as f64
    }

    /// Bytes per stored port and distance: 1, 2 or 4.  The build picks the
    /// narrowest width whose maximum exceeds both the graph's maximum degree
    /// and `2·ecc(ℓ₀)`, which bounds every stored distance; the maximum is
    /// reserved as the sentinel.  Repair widens the tables when the failed
    /// view needs more, so the width always equals a rebuild's.
    pub fn cell_bytes(&self) -> usize {
        self.cells.width().bytes()
    }

    /// Resident heap bytes, table by table, counted by capacity.  Compare
    /// with [`LandmarkRouting::memory`], the paper's bits: that charges
    /// `⌈log₂ deg⌉` bits per port and nothing for the distances, which are
    /// repair state.
    pub fn heap_bytes(&self) -> LandmarkHeapBytes {
        let (toward_ports, toward_dists, cluster_ports, cluster_dists) = with_tables!(&self.cells, t => (
            vec_bytes(&t.toward_landmark),
            vec_bytes(&t.toward_dist),
            vec_bytes(&t.direct_ports),
            vec_bytes(&t.direct_dists),
        ));
        LandmarkHeapBytes {
            cell_bytes: self.cell_bytes(),
            toward_ports,
            toward_dists,
            cluster_targets: vec_bytes(&self.direct_targets),
            cluster_ports,
            cluster_dists,
            offsets: vec_bytes(&self.direct_offsets),
            labels: vec_bytes(&self.home)
                + vec_bytes(&self.dist_to_set)
                + vec_bytes(&self.landmarks),
        }
    }

    /// The table part of [`SchemeRouting::audit`], at cell type `C`.
    fn audit_tables<C: Cell>(&self, g: &Graph, t: &Tables<C>, f: &mut Vec<String>) {
        let n = g.num_nodes();
        let k = self.landmarks.len();
        if t.toward_landmark.len() != n * k {
            f.push(format!(
                "toward-landmark table has {} entries for n*k = {}",
                t.toward_landmark.len(),
                n * k
            ));
            return;
        }
        for w in 0..n {
            let deg = g.degree(w);
            let row = &t.toward_landmark[w * k..(w + 1) * k];
            let clean = match self.landmarks.binary_search(&w) {
                Ok(i) => {
                    ports_below(&row[..i], deg)
                        && row[i] == C::NONE
                        && ports_below(&row[i + 1..], deg)
                }
                Err(_) => ports_below(row, deg),
            };
            if clean {
                continue;
            }
            for (&l, &p) in self.landmarks.iter().zip(row) {
                if p == C::NONE {
                    if w != l {
                        f.push(format!(
                            "router {w} has no toward-landmark port for landmark {l}"
                        ));
                    }
                } else if p.get() as usize >= deg {
                    f.push(format!(
                        "toward-landmark port {} at router {w} exceeds degree {deg}",
                        p.get()
                    ));
                }
            }
        }
        let shape_ok = self.direct_offsets.len() == n + 1
            && self.direct_targets.len() == t.direct_ports.len()
            && self.direct_offsets.last().map(|&e| e as usize) == Some(self.direct_targets.len())
            && self.direct_offsets.windows(2).all(|w| w[0] <= w[1]);
        if !shape_ok {
            f.push("cluster CSR shape inconsistent".to_string());
            return;
        }
        for w in 0..n {
            let deg = g.degree(w);
            let lo = self.direct_offsets[w] as usize;
            let hi = self.direct_offsets[w + 1] as usize;
            let members = &self.direct_targets[lo..hi];
            let ports = &t.direct_ports[lo..hi];
            let sorted = members.windows(2).all(|m| m[0] < m[1]);
            if !sorted {
                f.push(format!("cluster members of router {w} not sorted/deduped"));
            }
            // Sorted members are all in range when the last one is.
            if sorted && members.last().is_none_or(|&v| (v as usize) < n) && ports_below(ports, deg)
            {
                continue;
            }
            for (&v, &p) in members.iter().zip(ports) {
                if v as usize >= n {
                    f.push(format!("cluster member {v} of router {w} out of range"));
                }
                if p.get() as usize >= deg {
                    f.push(format!(
                        "cluster port {} at router {w} towards {v} exceeds degree {deg}",
                        p.get()
                    ));
                }
            }
        }
    }
}

/// The smallest live port `p` of `w` with `dist[target(w, p)] + 1 == dw` —
/// the first-hop port every BFS in this module provably reports (neighbours
/// are scanned in port order), re-derived directly from a distance column.
fn min_tight_port<C: Cell>(view: GraphView<'_>, dist: &[C], w: NodeId, dw: Dist) -> Option<u32> {
    (0..view.degree(w)).find_map(|p| match view.live_target(w, p) {
        Some(x) if dist[x].get() + 1 == dw => Some(p as u32),
        _ => None,
    })
}

/// Whether every port in `ports` is below `degree`: one branch-free maximum
/// over the slice, which vectorises.  The sentinel never passes.
fn ports_below<C: Cell>(ports: &[C], degree: usize) -> bool {
    let degree = C::cell(u32::try_from(degree).unwrap_or(u32::MAX).min(C::SENTINEL));
    ports.is_empty() || ports.iter().fold(C::default(), |m, &p| m.max(p)) < degree
}

/// Position of `x` in the strictly ascending `ids` — exactly
/// `ids.binary_search(&x).ok()`, in fewer cache misses.
///
/// The first probe is an interpolation guess: where `x` would sit if the
/// ids were spread evenly between the slice's first and last.  From there
/// the search gallops towards `x` with doubling steps until a probe passes
/// it, then binary-searches the window between the last two probes.  On
/// evenly spread ids (a cluster's members on any graph whose ids do not
/// track geometry) the guess lands within a few entries, so the lookup stays
/// on one or two cache lines; when the spread is skewed the gallop costs at
/// most about `2·log₂ d` probes for a guess `d` entries off, so the worst
/// case is about twice a plain binary search.
///
/// Only the one-lookup-per-visit paths use it: the routing hop, the fault
/// injection that mirrors it, and repair's membership probe for a gained
/// member, which visits each source's slice once.  The repair patch makes
/// many lookups into the slice it is patching, which is then
/// cache-resident, and there the branch-free `binary_search` is faster than
/// the guess's division and the gallop's unpredictable exits.
#[inline]
fn find_sorted(ids: &[u32], x: u32) -> Option<usize> {
    let (&first, &last) = (ids.first()?, ids.last()?);
    if x < first || x > last {
        return None;
    }
    let top = ids.len() - 1;
    let span = u64::from(last - first).max(1);
    let guess = (u64::from(x - first) * top as u64 / span) as usize;
    // The window `lo..hi` that must hold `x` if it is present.  `ids[top]
    // >= x` and `ids[0] <= x` keep each gallop inside the slice.
    let (lo, hi) = match ids[guess].cmp(&x) {
        std::cmp::Ordering::Equal => return Some(guess),
        std::cmp::Ordering::Less => {
            let (mut lo, mut step) = (guess + 1, 1);
            loop {
                let probe = guess + step;
                if probe >= top {
                    break (lo, top + 1);
                }
                if ids[probe] >= x {
                    break (lo, probe + 1);
                }
                lo = probe + 1;
                step *= 2;
            }
        }
        std::cmp::Ordering::Greater => {
            let (mut hi, mut step) = (guess, 1);
            loop {
                if step >= guess {
                    break (0, hi);
                }
                let probe = guess - step;
                if ids[probe] <= x {
                    break (probe, hi);
                }
                hi = probe;
                step *= 2;
            }
        }
    };
    ids[lo..hi].binary_search(&x).ok().map(|i| lo + i)
}

/// Membership lookup over the virtual index space "stored members ++ gains"
/// the repair patch works in: a binary search over the stored (sorted) slice,
/// falling back to a linear scan of this source's few gained members, whose
/// virtual indices start at `tg.len()`.
#[inline]
fn cluster_find(z: u32, tg: &[u32], gw: &[(u32, u32, Dist)]) -> Option<usize> {
    match tg.binary_search(&z) {
        Ok(i) => Some(i),
        Err(_) => gw
            .iter()
            .position(|&(_, v, _)| v == z)
            .map(|t| tg.len() + t),
    }
}

/// Destinations per pass of [`LandmarkRouting::port_columns`]' router
/// sweep: the landmark index of each is kept on the stack.
const COLUMN_BLOCK: usize = 16;

/// CSR offsets of a list sorted by router, given its routers in order: the
/// entries of router `w` sit at `at[w]..at[w + 1]`.
fn router_offsets(n: usize, routers: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut at = vec![0u32; n + 1];
    for w in routers {
        at[w as usize + 1] += 1;
    }
    for w in 0..n {
        at[w + 1] += at[w];
    }
    at
}

/// Sorted-list difference `new \ old` over canonical dead-edge lists.
fn edge_delta(new: &[(u32, u32)], old: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut j = 0usize;
    for &e in new {
        while j < old.len() && old[j] < e {
            j += 1;
        }
        if j < old.len() && old[j] == e {
            j += 1;
        } else {
            out.push(e);
        }
    }
    out
}

impl RoutingFunction for LandmarkRouting {
    fn init(&self, _source: NodeId, dest: NodeId) -> Header {
        // Enhanced address of the destination: (dest, home landmark).
        Header::with_data(dest, vec![self.home[dest] as u64])
    }

    fn port(&self, node: NodeId, header: &Header) -> Action {
        let dest = header.dest;
        if node == dest {
            return Action::Deliver;
        }
        if let Some(p) = self.direct_port(node, dest) {
            return Action::Forward(p);
        }
        // Fall back to the home landmark carried in the header.  Headers are
        // produced by `init`, but a stale or corrupted one must surface as a
        // routing error (the simulator flags a non-destination `Deliver` as
        // `WrongDelivery`), not as a table-lookup panic: validate the carried
        // landmark before indexing.
        let Some(&home) = header.data.first() else {
            return Action::Deliver;
        };
        let Ok(idx) = self.landmarks.binary_search(&(home as usize)) else {
            return Action::Deliver;
        };
        let at = node * self.landmarks.len() + idx;
        match with_tables!(&self.cells, t => t.toward_port(at)) {
            Some(p) => Action::Forward(p),
            // `node` is the claimed home landmark yet `dest` is not in its
            // cluster: the header lies about the destination's home.
            None => Action::Deliver,
        }
    }

    fn init_into(&self, _source: NodeId, dest: NodeId, header: &mut Header) {
        header.dest = dest;
        header.data.clear();
        header.data.push(self.home[dest] as u64);
    }

    /// Columns of consecutive destinations by the router: one pass over
    /// each router's sorted cluster slice fills every entry whose target is
    /// in the block, and the rest read the router's toward row, the
    /// landmark index looked up once per destination.  Headers whose
    /// destinations are not consecutive take the per-vertex loop.
    fn port_columns(&self, headers: &[Header], n: usize, out: &mut [u32]) {
        let lo = headers.first().map_or(0, |h| h.dest);
        let consecutive = headers.iter().enumerate().all(|(j, h)| h.dest == lo + j);
        if !consecutive || n != self.home.len() {
            return port_columns_pointwise(self, headers, n, out);
        }
        for (c, block) in headers.chunks(COLUMN_BLOCK).enumerate() {
            let at = c * COLUMN_BLOCK;
            let out = &mut out[at * n..(at + block.len()) * n];
            with_tables!(&self.cells, t => self.block_columns(t, lo + at, block, out));
        }
    }

    // The home landmark rides unchanged for the whole route.
    fn next_header_into(&self, _node: NodeId, _header: &mut Header) {}

    fn name(&self) -> &str {
        &self.name
    }
}

impl SchemeRouting for LandmarkRouting {
    /// Incrementally repairs the instance after link failures: the result is
    /// **bit-identical** to [`LandmarkRouting::build_on_view`] of the masked
    /// view (the pinned repair tests assert exactly that), at a cost
    /// proportional to the damage rather than to the graph.
    ///
    /// `adapted_to` is the failure set the tables currently account for
    /// (empty at build time) and `failures` the complete new one.  The
    /// incremental path requires `adapted_to ⊆ failures` (churn only kills
    /// links) and the inclusive cluster rule; otherwise the repair is a
    /// from-scratch rebuild on the view, reported as such.
    ///
    /// The incremental path leans on three facts:
    ///
    /// * **Ports are a function of distances.**  Every BFS in this module
    ///   scans neighbours in port order, so each stored port is provably the
    ///   *smallest live* port `p` with `d(target(p), v) = d(w, v) − 1`.
    ///   Equivalently, along the cluster BFS the first hop of `v` satisfies
    ///   `fh(v) = min { fh(z) : z a tight in-neighbour of v }` — a local
    ///   recurrence over stored state, so ports can be re-derived exactly
    ///   where distances moved, without re-running the BFS.
    /// * **Clusters are metrically closed.**  Any vertex `x` on an old
    ///   shortest path from `w` to a member `v ∈ S(w)` is itself in `S(w)`
    ///   (`d(w, x) ≤ d(v, L) − d(x, v) ≤ d(x, L)` since `d(·, L)` is
    ///   1-Lipschitz).  Hence a source's output can only change if some dead
    ///   edge has *both* endpoints inside its stored cluster, at consecutive
    ///   distances — and `{ w : x ∈ S_old(w) }` is just the old ball around
    ///   `x` of radius `d_old(x, L)`, so the affected sources are found by
    ///   two bounded BFS per dead edge.
    /// * **Deletions are monotone.**  Distances and `d(·, L)` only grow, so
    ///   each affected source is patched by a decremental worklist over its
    ///   stored member distances; a member whose support would leave the
    ///   stored cluster is evicted outright (its distance provably exceeds
    ///   its bound), and membership can only *grow* around vertices whose
    ///   `d(v, L)` grew — the gaining sources are exactly the new-view
    ///   annulus `old bound < d(w, v) ≤ new bound`, whose discovery BFS
    ///   already carries the new member's exact distance, so the member is
    ///   spliced in and only first hops are re-derived.  Fresh pruned BFS is
    ///   reserved for the dead-edge endpoints themselves.
    ///
    /// The tables are patched **in place**: distance and first-hop edits land
    /// directly in the stored CSR (phase A), and one relocation sweep then
    /// splices gains in and compacts evictions out, moving each surviving
    /// entry at most once (phase B) — the repair never reallocates the
    /// gigabyte-scale cluster arrays a large instance carries.
    ///
    /// Phase A and the passes before it run on
    /// [`graphkit::par::default_threads`] workers (see the module docs): a
    /// source's patch reads and writes only that source's slice, so each
    /// block of 64 routers patches its own contiguous range of
    /// `direct_dists`/`direct_ports`, handed to it by `split_at_mut`.  Phase
    /// B runs on the calling thread and moves surviving members in runs —
    /// one `copy_from_slice` per stretch between gain insertion points and
    /// evictions.
    fn repair(
        &mut self,
        g: &Graph,
        adapted_to: &FailureSet,
        failures: &FailureSet,
    ) -> Result<RepairOutcome, BuildError> {
        let threads = par::default_threads(g.num_nodes());
        self.repair_threads(g, adapted_to, failures, threads)
    }

    /// Structural audit of the stored tables against `g`: landmark set
    /// ascending/unique, homes pointing at landmarks, the toward-landmark
    /// matrix shaped `n × k` with `NO_PORT` exactly on the diagonal
    /// landmarks, cluster CSR offsets monotone with members sorted and
    /// deduped, every stored port below the router's degree.  Returns
    /// human-readable findings; empty means clean.
    ///
    /// Each toward-landmark row and each cluster slice is first checked by
    /// slice-wide tests that vectorise; only a row or slice that fails them
    /// is walked entry by entry to word its findings.
    fn audit(&self, g: &Graph) -> Vec<String> {
        let n = g.num_nodes();
        let mut f = Vec::new();
        if !self.landmarks.windows(2).all(|w| w[0] < w[1]) {
            f.push("landmark set is not strictly ascending".to_string());
        }
        for &l in &self.landmarks {
            if l >= n {
                f.push(format!("landmark {l} out of range for {n} vertices"));
            }
        }
        for (v, &h) in self.home.iter().enumerate() {
            if self.landmarks.binary_search(&h).is_err() {
                f.push(format!("home of {v} ({h}) is not a landmark"));
            }
        }
        with_tables!(&self.cells, t => self.audit_tables(g, t, &mut f));
        f
    }

    /// Overwrites the cluster entry when `dest ∈ S(v)`, the toward-landmark
    /// entry for `dest`'s home otherwise (the same priority
    /// [`RoutingFunction::port`] uses).  A `port` at or above the
    /// cell width's sentinel is stored as `sentinel − 1`, which the width
    /// rule keeps at or above every degree: still out of range, never "no
    /// port".
    fn corrupt_entry(&mut self, v: NodeId, dest: NodeId, port: Port) -> Option<String> {
        let lo = self.direct_offsets[v] as usize;
        let hi = self.direct_offsets[v + 1] as usize;
        if let Some(e) = find_sorted(&self.direct_targets[lo..hi], dest as u32) {
            with_tables!(&mut self.cells, t => t.direct_ports[lo + e] = clamped_port(port));
            return Some(format!(
                "cluster entry of router {v} for destination {dest}"
            ));
        }
        let idx = self
            .landmarks
            .binary_search(&self.home[dest])
            .expect("every home is a landmark");
        let at = v * self.landmarks.len() + idx;
        with_tables!(&mut self.cells, t => t.toward_landmark[at] = clamped_port(port));
        Some(format!(
            "toward-landmark entry of router {v} for landmark {}",
            self.home[dest]
        ))
    }

    /// Memory report: landmark table + cluster table + own address.
    fn memory(&self, g: &Graph) -> Option<MemoryReport> {
        let n = g.num_nodes();
        let label_bits = u64::from(bits_for_values(n as u64));
        Some(MemoryReport::from_fn(n, |w| {
            // A port names one of `degree` values; an isolated router (the
            // single-vertex graph is the one connected case) has no ports at
            // all, so its port fields cost 0 bits and the whole report stays
            // well-defined instead of charging phantom entries.
            let degree = g.degree(w) as u64;
            let port_bits = if degree == 0 {
                0
            } else {
                u64::from(bits_for_values(degree))
            };
            let landmark_entries = self.landmarks.len() as u64 * (label_bits + port_bits);
            let cluster_entries = self.cluster_size(w) as u64 * (label_bits + port_bits);
            label_bits + landmark_entries + cluster_entries
        }))
    }
}

/// The landmark routing scheme (universal, stretch `≤ 3`; strictly below 3
/// under the inclusive cluster rule).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LandmarkScheme {
    pub config: LandmarkConfig,
}

impl LandmarkScheme {
    /// The default config with an explicit seed.
    pub fn new(seed: u64) -> Self {
        LandmarkScheme {
            config: LandmarkConfig {
                seed,
                ..LandmarkConfig::default()
            },
        }
    }

    /// A fully parameterized scheme.
    pub fn with_config(config: LandmarkConfig) -> Self {
        LandmarkScheme { config }
    }
}

impl CompactScheme for LandmarkScheme {
    fn name(&self) -> &str {
        "landmark-routing"
    }

    fn applies_to(&self, g: &Graph, _hints: &GraphHints) -> bool {
        g.num_nodes() >= 1 && graphkit::traversal::is_connected(g)
    }

    fn try_build(&self, g: &Graph, _hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        if let Err(reason) = self.config.validate() {
            return Err(BuildError::InvalidConfig {
                scheme: "landmark-routing",
                reason,
            });
        }
        if g.num_nodes() == 0 {
            return Err(BuildError::NotApplicable {
                scheme: "landmark-routing",
                reason: "empty graph".into(),
            });
        }
        if !graphkit::traversal::is_connected(g) {
            return Err(BuildError::Disconnected {
                scheme: "landmark-routing",
            });
        }
        let routing = LandmarkRouting::build_with(g, &self.config);
        let memory = routing
            .memory(g)
            .expect("landmark tables recount their memory");
        Ok(SchemeInstance::new(Box::new(routing), memory, Some(3.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::generators;
    use routemodel::{route, stretch_factor, RoutingError};

    fn inclusive(seed: u64) -> LandmarkConfig {
        LandmarkConfig {
            seed,
            ..LandmarkConfig::default()
        }
    }

    fn strict(seed: u64) -> LandmarkConfig {
        LandmarkConfig {
            cluster_rule: ClusterRule::Strict,
            seed,
            ..LandmarkConfig::default()
        }
    }

    #[test]
    fn landmark_routing_delivers_everywhere() {
        for g in [
            generators::random_connected(70, 0.06, 3),
            generators::cycle(30),
            generators::grid(6, 7),
            generators::petersen(),
            // Two-byte cells: by degree, and by 2·ecc(ℓ₀) = 300.
            generators::star(300),
            generators::cycle(300),
        ] {
            for cfg in [
                LandmarkConfig {
                    seed: 17,
                    ..LandmarkConfig::default()
                },
                strict(17),
            ] {
                let r = LandmarkRouting::build_with(&g, &cfg);
                for s in 0..g.num_nodes() {
                    for t in 0..g.num_nodes() {
                        let trace = route(&g, &r, s, t).unwrap();
                        assert_eq!(*trace.path.last().unwrap(), t);
                    }
                }
            }
        }
    }

    #[test]
    fn stretch_is_below_three() {
        for (g, seed) in [
            (generators::random_connected(80, 0.05, 5), 1u64),
            (generators::grid(8, 8), 2),
            (generators::hypercube(6), 3),
            (generators::random_tree(60, 8), 4),
            (generators::star(300), 5),
            (generators::cycle(300), 6),
        ] {
            let dm = DistanceMatrix::all_pairs(&g);
            for rule in [ClusterRule::Inclusive, ClusterRule::Strict] {
                let r = LandmarkRouting::build_with(
                    &g,
                    &LandmarkConfig {
                        cluster_rule: rule,
                        seed,
                        ..LandmarkConfig::default()
                    },
                );
                let rep = stretch_factor(&g, &dm, &r).unwrap();
                assert!(
                    rep.max_stretch < 3.0 + 1e-9,
                    "{rule:?}: stretch {} exceeds the guarantee",
                    rep.max_stretch
                );
            }
        }
    }

    #[test]
    fn sparse_build_matches_dense_reference() {
        for (g, seed) in [
            (generators::cycle(33), 7u64),
            (generators::cycle(34), 8),
            (generators::grid(7, 9), 9),
            (generators::random_connected(90, 0.06, 11), 10),
            (generators::petersen(), 11),
            (generators::path(1), 12),
            (generators::star(300), 13),
            (generators::cycle(300), 14),
        ] {
            let sparse = LandmarkRouting::build_with(&g, &inclusive(seed));
            let dense = LandmarkRouting::build_dense_with(&g, &inclusive(seed));
            assert_eq!(sparse, dense, "n = {}", g.num_nodes());
        }
    }

    #[test]
    fn sparse_build_matches_dense_reference_under_every_config() {
        let counts = [
            LandmarkCount::Auto,
            LandmarkCount::Count(3),
            LandmarkCount::Count(25),
            LandmarkCount::Rate(0.2),
        ];
        for (g, seed) in [
            (generators::cycle(33), 7u64),
            (generators::grid(7, 9), 9),
            (generators::random_connected(90, 0.06, 11), 10),
            (generators::petersen(), 11),
            (generators::star(300), 12),
            (generators::cycle(300), 13),
        ] {
            for &landmarks in &counts {
                for rule in [ClusterRule::Inclusive, ClusterRule::Strict] {
                    let cfg = LandmarkConfig {
                        landmarks,
                        cluster_rule: rule,
                        seed,
                    };
                    let sparse = LandmarkRouting::build_with(&g, &cfg);
                    let dense = LandmarkRouting::build_dense_with(&g, &cfg);
                    assert_eq!(sparse, dense, "n = {}, {cfg:?}", g.num_nodes());
                }
            }
        }
    }

    /// The toward tables the per-landmark way, the build's test oracle: one
    /// BFS per landmark for its `toward_dist` column, then [`min_tight_port`]
    /// for every vertex's port towards it.  Checks every cell of `r`.
    fn assert_toward_tables_match_oracle(view: GraphView<'_>, r: &LandmarkRouting, label: &str) {
        with_tables!(&r.cells, t => check_toward(view, &r.landmarks, t, label));
    }

    fn check_toward<C: Cell>(
        view: GraphView<'_>,
        landmarks: &[NodeId],
        t: &Tables<C>,
        label: &str,
    ) {
        let (n, k) = (view.num_nodes(), landmarks.len());
        let mut scratch = BfsScratch::new();
        let mut dist = vec![0 as Dist; n];
        for (i, &l) in landmarks.iter().enumerate() {
            bfs_distances_into(view, l, &mut scratch, &mut dist);
            let column: Vec<C> = dist.iter().map(|&d| C::cell(d)).collect();
            assert!(
                t.toward_dist[i * n..(i + 1) * n] == column[..],
                "{label}: toward_dist column of landmark {l}"
            );
            for w in 0..n {
                let want = match min_tight_port(view, &column, w, dist[w]) {
                    _ if w == l => C::NONE,
                    Some(p) => C::cell(p),
                    None => panic!("{label}: {w} has no port towards {l}"),
                };
                assert_eq!(
                    t.toward_landmark[w * k + i],
                    want,
                    "{label}: port of {w} towards landmark {l}"
                );
            }
        }
    }

    /// The toward phase runs one work item per block of `TOWARD_LANES`
    /// landmarks, so the identity with the dense reference must hold across
    /// block boundaries: one landmark (the kernel's one-source path), a
    /// block one short of, at and one past 64, and several blocks, on
    /// random, grid and cycle graphs under both rules.  `cycle(600)` has
    /// two-byte cells (`2·ecc(ℓ₀) = 600`).
    #[test]
    fn sparse_build_matches_dense_reference_across_landmark_blocks() {
        for (g, seed) in [
            (generators::random_connected(200, 0.03, 41), 3u64),
            (generators::grid(12, 15), 4),
            (generators::cycle(600), 5),
        ] {
            for count in [1, 63, 64, 65, 130] {
                for rule in [ClusterRule::Inclusive, ClusterRule::Strict] {
                    let cfg = LandmarkConfig {
                        landmarks: LandmarkCount::Count(count),
                        cluster_rule: rule,
                        seed,
                    };
                    let sparse = LandmarkRouting::build_with(&g, &cfg);
                    let dense = LandmarkRouting::build_dense_with(&g, &cfg);
                    assert_eq!(sparse, dense, "n = {}, {cfg:?}", g.num_nodes());
                }
            }
        }
    }

    /// On a failure-masked view, which the dense reference cannot build on,
    /// the toward tables still equal the per-landmark oracle: dead links
    /// are no ports, across several landmark blocks.
    #[test]
    fn toward_tables_match_the_per_landmark_oracle_on_failed_views() {
        let g = generators::random_connected(500, 0.02, 8);
        let failures = (1..)
            .map(|seed| FailureSet::sample(&g, 0.05, seed))
            .find(|f| graphkit::traversal::is_connected(GraphView::masked(&g, f)))
            .unwrap();
        for view in [GraphView::full(&g), GraphView::masked(&g, &failures)] {
            for cfg in [inclusive(2), strict(2)] {
                let cfg = LandmarkConfig {
                    landmarks: LandmarkCount::Count(97),
                    ..cfg
                };
                let r = LandmarkRouting::build_on_view(view, &cfg);
                assert_toward_tables_match_oracle(view, &r, &format!("{cfg:?}"));
            }
        }
    }

    /// The parallel build folds landmarks and cluster blocks in index order,
    /// so the instance must not depend on the worker count.  Pinned for both
    /// rules on the full view and on a 10%-failed view, with `n` past the
    /// reservation sample and not a multiple of the cluster block.
    #[test]
    fn build_is_identical_at_every_thread_count() {
        let g = generators::random_connected(600, 0.015, 31);
        let failures = (1..)
            .map(|seed| FailureSet::sample(&g, 0.1, seed))
            .find(|f| graphkit::traversal::is_connected(GraphView::masked(&g, f)))
            .unwrap();
        for view in [GraphView::full(&g), GraphView::masked(&g, &failures)] {
            for cfg in [
                LandmarkConfig {
                    seed: 5,
                    ..LandmarkConfig::default()
                },
                strict(5),
            ] {
                let serial = LandmarkRouting::build_on_view_threads(view, &cfg, 1);
                for threads in [2, 3] {
                    let par = LandmarkRouting::build_on_view_threads(view, &cfg, threads);
                    assert!(par == serial, "{cfg:?}, threads={threads}");
                }
            }
        }
    }

    /// The cluster arrays are reserved from routers strided over the id
    /// range, so the reservation holds on graphs whose low ids are the hubs:
    /// the estimate alone lands within the 25% slack, and every array's
    /// capacity stays within `1.25 · len` under both rules.
    #[test]
    fn cluster_reservation_is_independent_of_id_order() {
        for (name, g) in [
            ("ba", generators::barabasi_albert(4096, 4, 1)),
            ("regular", generators::random_regular_like(4096, 8, 0xB16)),
        ] {
            for cfg in [inclusive(DEFAULT_SEED), strict(DEFAULT_SEED)] {
                let r = LandmarkRouting::build_with(&g, &cfg);
                let len = r.direct_targets.len();
                let h = r.heap_bytes();
                let slack = len + len / 4;
                let cells = h.cell_bytes;
                assert!(h.cluster_targets / 4 <= slack, "{name} {cfg:?}: {h:?}");
                assert!(h.cluster_ports / cells <= slack, "{name} {cfg:?}: {h:?}");
                assert!(h.cluster_dists / cells <= slack, "{name} {cfg:?}: {h:?}");
                if cfg.cluster_rule == ClusterRule::Inclusive {
                    let estimate =
                        estimate_cluster_entries(GraphView::full(&g), &r.dist_to_set, 1, |_| 0);
                    assert!(
                        4 * len <= 5 * estimate && estimate <= slack,
                        "{name}: estimate {estimate} for {len} entries"
                    );
                }
            }
        }
    }

    /// The width rule at its boundaries: a width serves while both the
    /// maximum degree and the distance bound stay below its maximum, which
    /// is the sentinel.
    #[test]
    fn width_rule_boundaries() {
        for (bound, below, at) in [
            (255u64, Width::U8, Width::U16),
            (65535, Width::U16, Width::U32),
        ] {
            assert_eq!(Width::for_bounds(bound as usize - 1, 0), below);
            assert_eq!(Width::for_bounds(bound as usize, 0), at);
            assert_eq!(Width::for_bounds(0, bound - 1), below);
            assert_eq!(Width::for_bounds(0, bound), at);
            assert_eq!(Width::for_bounds(bound as usize - 1, bound - 1), below);
        }
        assert_eq!(Width::for_bounds(0, 0), Width::U8);
        assert_eq!(Width::for_bounds(1 << 20, 1 << 20), Width::U32);
    }

    /// The width the builds pick on real families: one byte on the random,
    /// regular and Theorem 1 families of the benchmarks, two bytes once a
    /// degree or `2·ecc(ℓ₀)` reaches 255.
    #[test]
    fn width_follows_the_graph() {
        let theorem1 = constraints::theorem1::build_worst_case_instance(512, 0.5, 3)
            .0
            .graph;
        let grid = generators::grid(140, 20);
        for (name, g, bytes) in [
            ("random", generators::random_connected(500, 0.02, 3), 1),
            ("regular", generators::random_regular_like(1024, 8, 3), 1),
            ("theorem1", theorem1, 1),
            ("star(254)", generators::star(254), 1),
            ("star(255)", generators::star(255), 2),
            ("star(300)", generators::star(300), 2),
            ("grid 140x20", grid, 2),
        ] {
            let r = LandmarkRouting::build_with(&g, &inclusive(DEFAULT_SEED));
            assert_eq!(r.cell_bytes(), bytes, "{name}");
            assert_eq!(r.heap_bytes().cell_bytes, bytes, "{name}");
        }
        // The grid is two bytes wide by distance alone.
        let g = generators::grid(140, 20);
        let r = LandmarkRouting::build_with(&g, &inclusive(DEFAULT_SEED));
        let mut dist = vec![0; g.num_nodes()];
        let mut scratch = BfsScratch::with_capacity(g.num_nodes());
        bfs_distances_into(GraphView::full(&g), r.landmarks[0], &mut scratch, &mut dist);
        let ecc = dist.iter().max().unwrap();
        assert!(g.max_degree() < 255 && 2 * ecc >= 255, "ecc {ecc}");
    }

    /// Repair widens the cells when the failed view needs it.  `cycle(200)`
    /// is one byte wide (`2·ecc(ℓ₀)` = 200); killing a link at `ℓ₀` leaves a
    /// path with `ℓ₀` at one end (`2·ecc(ℓ₀)` = 398).  The repair stays
    /// incremental, equals the rebuild at 1, 2 and 3 threads, and delivers.
    #[test]
    fn repair_widens_the_cells_when_distances_outgrow_them() {
        let g = generators::cycle(200);
        let cfg = LandmarkConfig {
            seed: 4,
            ..LandmarkConfig::default()
        };
        let base = LandmarkRouting::build_with(&g, &cfg);
        assert_eq!(base.cell_bytes(), 1);
        let l0 = base.landmarks[0];
        let next = (l0 + 1) % 200;
        let failures = FailureSet::from_edges(&g, &[(l0.min(next) as u32, l0.max(next) as u32)]);
        let view = GraphView::masked(&g, &failures);
        let rebuilt = LandmarkRouting::build_on_view(view, &cfg);
        assert_eq!(rebuilt.cell_bytes(), 2);
        for threads in [1, 2, 3] {
            let mut r = base.clone();
            let out = r
                .repair_threads(&g, &FailureSet::empty(&g), &failures, threads)
                .unwrap();
            assert!(!out.full_rebuild, "threads={threads}");
            assert!(r == rebuilt, "threads={threads}");
            assert_eq!(r.cell_bytes(), 2);
            for s in 0..200 {
                for t in 0..200 {
                    let trace = route(view, &r, s, t).unwrap();
                    assert_eq!(*trace.path.last().unwrap(), t);
                }
            }
        }
    }

    /// `heap_bytes` counts every table by capacity, at the stored width; the
    /// same tables re-encoded at four bytes count four times the cells and
    /// are a different instance under `==`.
    #[test]
    fn heap_bytes_counts_each_table_at_its_width() {
        let g = generators::random_connected(300, 0.03, 7);
        let r = LandmarkRouting::build_with(&g, &inclusive(3));
        let (n, k, entries) = (300, r.landmarks.len(), r.direct_targets.len());
        let h = r.heap_bytes();
        assert_eq!(h.cell_bytes, 1);
        assert_eq!((h.toward_ports, h.toward_dists), (n * k, n * k));
        assert!(h.cluster_targets >= 4 * entries && h.cluster_ports >= entries);
        assert_eq!(h.offsets, 4 * (n + 1));
        let r32 = LandmarkRouting {
            cells: r.cells.clone().into_width(Width::U32),
            ..r.clone()
        };
        assert!(r32 != r, "equality compares the cell width");
        let h32 = r32.heap_bytes();
        assert_eq!((h32.cell_bytes, h32.toward_ports), (4, 4 * n * k));
        assert_eq!(
            (h32.cluster_ports, h32.cluster_dists),
            (4 * entries, 4 * entries)
        );
    }

    /// `find_sorted` is a drop-in for `binary_search(..).ok()` on strictly
    /// ascending slices of every shape a cluster can take: empty and
    /// singleton slices, evenly spread, uniformly random, clustered (one
    /// half shifted by 10^6), dense runs of consecutive ids, and quadratic
    /// spacing that defeats the interpolation guess — probed at every
    /// member, its neighbours, below and above the range, and at random.
    #[test]
    fn find_sorted_matches_binary_search() {
        let mut rng = Xoshiro256::new(0x5EA7C4);
        let mut slices: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![7],
            vec![u32::MAX],
            vec![0, u32::MAX],
            vec![u32::MAX - 1, u32::MAX],
        ];
        for _ in 0..60 {
            let len = 1 + rng.gen_range(700);
            let stride = 1 + rng.gen_range(50) as u32;
            let base = rng.next_u32() / 2;
            slices.push((0..len as u32).map(|i| base + i * stride).collect());
            let mut random: Vec<u32> = rng
                .sample_indices(8 * len, len)
                .into_iter()
                .map(|v| v as u32)
                .collect();
            random.sort_unstable();
            let mut clustered = random.clone();
            for v in &mut clustered[len / 2..] {
                *v += 1_000_000;
            }
            slices.push(random);
            slices.push(clustered);
            let mut runs = Vec::with_capacity(len);
            let mut next = rng.gen_range(1000) as u32;
            while runs.len() < len {
                for _ in 0..1 + rng.gen_range(20) {
                    runs.push(next);
                    next += 1;
                }
                next += 1 + rng.gen_range(1000) as u32;
            }
            slices.push(runs);
            slices.push((0..len as u32).map(|i| i * i).collect());
        }
        for ids in &slices {
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            let mut probes = vec![0, 1, u32::MAX - 1, u32::MAX];
            for &v in ids {
                probes.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
            }
            if let (Some(&first), Some(&last)) = (ids.first(), ids.last()) {
                let span = u64::from(last - first) + 21;
                for _ in 0..200 {
                    let off = (rng.next_u64() % span) as i64 - 10;
                    probes.push((i64::from(first) + off).clamp(0, i64::from(u32::MAX)) as u32);
                }
            }
            for x in probes {
                assert_eq!(
                    find_sorted(ids, x),
                    ids.binary_search(&x).ok(),
                    "x = {x}, len = {}",
                    ids.len()
                );
            }
        }
    }

    /// Every `(w, v)` lookup of the routing hot path agrees with a plain
    /// binary search over the stored slice, on id-structured families
    /// (preferential attachment, grid, the Theorem 1 instance) and a random
    /// regular graph, under both rules, as built and after an in-place
    /// repair under 10% link failures.
    #[test]
    fn direct_port_matches_reference_search_everywhere() {
        fn check(r: &LandmarkRouting, label: &str) {
            let n = r.home.len();
            for w in 0..n {
                let lo = r.direct_offsets[w] as usize;
                let hi = r.direct_offsets[w + 1] as usize;
                let members = &r.direct_targets[lo..hi];
                for v in 0..n {
                    let expect = members
                        .binary_search(&(v as u32))
                        .ok()
                        .map(|e| with_tables!(&r.cells, t => t.direct_ports[lo + e].get() as Port));
                    assert_eq!(r.direct_port(w, v), expect, "{label}: w={w}, v={v}");
                }
            }
        }
        let families = [
            ("ba", generators::barabasi_albert(300, 4, 3)),
            ("grid", generators::grid(17, 18)),
            (
                "theorem1",
                constraints::theorem1::build_worst_case_instance(300, 0.5, 3)
                    .0
                    .graph,
            ),
            ("regular", generators::random_regular_like(300, 8, 3)),
        ];
        for (name, g) in &families {
            let empty = FailureSet::empty(g);
            let failures = (1..200)
                .map(|seed| FailureSet::sample(g, 0.1, seed))
                .find(|f| graphkit::traversal::is_connected(GraphView::masked(g, f)))
                .expect("some 10% failure set keeps the graph connected");
            for cfg in [
                LandmarkConfig {
                    seed: 3,
                    ..LandmarkConfig::default()
                },
                strict(3),
            ] {
                let mut r = LandmarkRouting::build_with(g, &cfg);
                check(&r, &format!("{name} {:?} as built", cfg.cluster_rule));
                r.repair(g, &empty, &failures).unwrap();
                check(&r, &format!("{name} {:?} repaired", cfg.cluster_rule));
            }
        }
    }

    /// A row or slice that fails the audit's slice-wide tests is worded
    /// entry by entry, in table order; one that only looks odd to them (a
    /// landmark's own row holding a real port) yields no finding.
    #[test]
    fn audit_words_each_bad_entry_in_table_order() {
        let g = generators::random_connected(80, 0.06, 5);
        let mut r = LandmarkRouting::build_with(&g, &inclusive(3));
        assert!(r.audit(&g).is_empty());
        let k = r.landmarks.len();
        let l0 = r.landmarks[0];
        u8::unwrap_mut(&mut r.cells).unwrap().toward_landmark[l0 * k] = 0;
        assert!(r.audit(&g).is_empty());
        let w = (0..g.num_nodes())
            .find(|&w| r.landmarks.binary_search(&w).is_err() && r.cluster_size(w) > 0)
            .unwrap();
        let deg = g.degree(w) as u8;
        let lo = r.direct_offsets[w] as usize;
        let t = u8::unwrap_mut(&mut r.cells).expect("a small random graph stores one-byte cells");
        t.toward_landmark[w * k + 1] = u8::NONE;
        t.toward_landmark[w * k + 2] = deg;
        t.direct_ports[lo] = deg + 5;
        let (l1, v) = (r.landmarks[1], r.direct_targets[lo]);
        assert_eq!(
            r.audit(&g),
            vec![
                format!("router {w} has no toward-landmark port for landmark {l1}"),
                format!("toward-landmark port {deg} at router {w} exceeds degree {deg}"),
                format!(
                    "cluster port {} at router {w} towards {v} exceeds degree {deg}",
                    deg + 5
                ),
            ]
        );
    }

    #[test]
    fn landmark_count_honours_count_and_rate() {
        let g = generators::random_connected(100, 0.07, 21);
        for (count, rule, expect) in [
            (LandmarkCount::Auto, ClusterRule::Inclusive, 30),
            (LandmarkCount::Auto, ClusterRule::Strict, 10),
            (LandmarkCount::Count(17), ClusterRule::Inclusive, 17),
            (LandmarkCount::Count(17), ClusterRule::Strict, 17),
            (LandmarkCount::Count(5000), ClusterRule::Inclusive, 100), // clamped to n
            (LandmarkCount::Rate(0.25), ClusterRule::Inclusive, 25),
            (LandmarkCount::Rate(1.0), ClusterRule::Strict, 100),
        ] {
            let cfg = LandmarkConfig {
                landmarks: count,
                cluster_rule: rule,
                ..LandmarkConfig::default()
            };
            assert_eq!(cfg.landmark_count(100), expect, "{count:?} {rule:?}");
            let r = LandmarkRouting::build_with(&g, &cfg);
            assert_eq!(r.landmarks().len(), expect, "{count:?} {rule:?}");
        }
    }

    /// `Auto` is `⌈3√n⌉` under the inclusive rule and `⌈√n⌉` under the
    /// strict one, clamped to `1..=n`.
    #[test]
    fn auto_landmark_count_follows_the_cluster_rule() {
        for (n, inclusive_k, strict_k) in [
            (0, 1, 1),
            (1, 1, 1),
            (2, 2, 2),
            (5, 5, 3),
            (9, 9, 3),
            (10, 10, 4),
            (4096, 192, 64),
            (32768, 544, 182),
            (131072, 1087, 363),
            (1_000_000, 3000, 1000),
        ] {
            assert_eq!(inclusive(0).landmark_count(n), inclusive_k, "n = {n}");
            assert_eq!(strict(0).landmark_count(n), strict_k, "n = {n}");
        }
    }

    /// The max stretch of `r` from every 64th source to every destination,
    /// against one BFS per source; panics on an undelivered pair.
    fn max_stretch_from_strided_sources(g: &Graph, r: &LandmarkRouting) -> f64 {
        let n = g.num_nodes();
        let mut scratch = BfsScratch::with_capacity(n);
        let mut dist = vec![0; n];
        let mut max = 1.0f64;
        for s in (0..n).step_by(64) {
            bfs_distances_into(GraphView::full(g), s, &mut scratch, &mut dist);
            for t in (0..n).filter(|&t| t != s) {
                let trace = route(g, r, s, t).unwrap();
                assert_eq!(*trace.path.last().unwrap(), t, "{s} -> {t}");
                max = max.max(trace.ports.len() as f64 / f64::from(dist[t]));
            }
        }
        max
    }

    /// The point of the inclusive default: on an 8-regular graph `⌈3√n⌉`
    /// landmarks hold the instance to at most 0.7 of the `⌈√n⌉` build's
    /// bytes, with no worse max stretch, and deliver every sampled pair.
    #[test]
    fn auto_inclusive_count_saves_bytes_without_losing_stretch() {
        let g = generators::random_regular_like(4096, 8, 0xB16);
        let auto = LandmarkRouting::build_with(&g, &inclusive(DEFAULT_SEED));
        let sqrt_n = LandmarkRouting::build_with(
            &g,
            &LandmarkConfig {
                landmarks: LandmarkCount::Count(64),
                ..inclusive(DEFAULT_SEED)
            },
        );
        assert_eq!(auto.landmarks().len(), 192);
        let (a, s) = (auto.heap_bytes().total(), sqrt_n.heap_bytes().total());
        assert!(10 * a <= 7 * s, "auto {a} B vs sqrt(n) {s} B");
        let (max_auto, max_sqrt) = (
            max_stretch_from_strided_sources(&g, &auto),
            max_stretch_from_strided_sources(&g, &sqrt_n),
        );
        assert!(
            max_auto <= max_sqrt,
            "auto max stretch {max_auto} vs sqrt(n) {max_sqrt}"
        );
    }

    #[test]
    fn config_validation_catches_nonsense() {
        assert!(LandmarkConfig {
            landmarks: LandmarkCount::Count(0),
            ..LandmarkConfig::default()
        }
        .validate()
        .is_err());
        for r in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(
                LandmarkConfig {
                    landmarks: LandmarkCount::Rate(r),
                    ..LandmarkConfig::default()
                }
                .validate()
                .is_err(),
                "rate {r} must be rejected"
            );
        }
        let g = generators::cycle(12);
        let err = LandmarkScheme::with_config(LandmarkConfig {
            landmarks: LandmarkCount::Count(0),
            ..LandmarkConfig::default()
        })
        .try_build(&g, &GraphHints::none())
        .unwrap_err();
        assert!(matches!(err, BuildError::InvalidConfig { .. }));
    }

    #[test]
    fn disconnected_graph_rejected_even_with_landmarks_in_both_components() {
        // Landmarks sampled in two components would satisfy "every vertex
        // reaches some landmark", so the connectivity check must be a real
        // single-source BFS, not the multi-source sweep.
        for seed in 0..8u64 {
            let g = generators::path(5).disjoint_union(&generators::cycle(4));
            let err =
                std::panic::catch_unwind(|| LandmarkRouting::build_with(&g, &inclusive(seed)))
                    .unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("connected"),
                "seed {seed}: wrong panic: {msg:?}"
            );
            // ... and the scheme-level build reports it as a typed error.
            let err = LandmarkScheme::new(seed)
                .try_build(&g, &GraphHints::none())
                .unwrap_err();
            assert!(matches!(err, BuildError::Disconnected { .. }));
        }
    }

    #[test]
    fn landmarks_have_their_whole_home_set_in_cluster() {
        let g = generators::random_connected(60, 0.08, 9);
        for cfg in [
            LandmarkConfig {
                seed: 33,
                ..LandmarkConfig::default()
            },
            strict(33),
        ] {
            let r = LandmarkRouting::build_with(&g, &cfg);
            for v in 0..g.num_nodes() {
                let home = r.home_of(v);
                if v != home {
                    assert!(
                        r.direct_port(home, v).is_some(),
                        "{:?}: home landmark {home} must know a direct route to {v}",
                        cfg.cluster_rule
                    );
                }
            }
        }
    }

    #[test]
    fn strict_rule_shrinks_clusters_on_small_diameter_graphs() {
        // Dense random graphs have diameter ~2, the regime where the
        // inclusive boundary d(w, v) = d(v, L) is hit by many pairs at once
        // (the Theorem 1 failure mode).  The strict rule must keep only the
        // interior.
        let g = generators::random_connected(200, 0.2, 7);
        let incl = LandmarkRouting::build_with(&g, &inclusive(7));
        let strict = LandmarkRouting::build_with(&g, &strict(7));
        let (ai, as_) = (incl.average_cluster_size(), strict.average_cluster_size());
        assert!(
            as_ * 2.0 < ai,
            "strict avg {as_:.1} must be well below inclusive avg {ai:.1}"
        );
        // ... and the strict variant still routes with stretch < 3.
        let dm = DistanceMatrix::all_pairs(&g);
        let rep = stretch_factor(&g, &dm, &strict).unwrap();
        assert!(rep.max_stretch < 3.0 + 1e-9);
    }

    #[test]
    fn strict_cluster_members_are_strictly_inside() {
        let g = generators::grid(9, 9);
        let r = LandmarkRouting::build_with(&g, &strict(5));
        let dm = DistanceMatrix::all_pairs(&g);
        // Recompute d(v, L) from the landmark set.
        let dist_to_set = |v: usize| r.landmarks().iter().map(|&l| dm.dist(v, l)).min().unwrap();
        for w in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                if v == w {
                    continue;
                }
                let stored = r.direct_port(w, v).is_some();
                let expected = dm.dist(w, v) < dist_to_set(v) || r.home_of(v) == w;
                assert_eq!(stored, expected, "w={w}, v={v}");
            }
        }
    }

    #[test]
    fn stale_home_landmark_surfaces_as_routing_error_not_panic() {
        let g = generators::random_connected(60, 0.07, 13);
        let r = LandmarkRouting::build_with(&g, &inclusive(3));
        // Pick a destination and a router that must fall back to the
        // landmark table (dest outside the router's cluster).
        let (w, dest) = (0..g.num_nodes())
            .flat_map(|w| (0..g.num_nodes()).map(move |t| (w, t)))
            .find(|&(w, t)| w != t && r.direct_port(w, t).is_none())
            .expect("some pair must need the landmark fallback");
        // A header whose home landmark is not a landmark at all.
        let not_a_landmark = (0..g.num_nodes())
            .find(|v| !r.landmarks().contains(v))
            .unwrap();
        let stale = Header::with_data(dest, vec![not_a_landmark as u64]);
        assert_eq!(r.port(w, &stale), Action::Deliver);
        // An empty-data header degrades the same way.
        assert_eq!(r.port(w, &Header::to_dest(dest)), Action::Deliver);
        // End to end: a wrapper that injects the stale header yields a
        // WrongDelivery error from the simulator instead of a panic.
        let inner = r.clone();
        let stale_routing = routemodel::function::FnRouting::new(
            "stale-landmark",
            |_s, d| Header::with_data(d, vec![u64::MAX]),
            move |node, h: &Header| inner.port(node, h),
            |_n, h: &Header| h.clone(),
        );
        match route(&g, &stale_routing, w, dest) {
            Err(RoutingError::WrongDelivery { .. }) => {}
            other => panic!("expected WrongDelivery, got {other:?}"),
        }
    }

    #[test]
    fn memory_grows_sublinearly_on_random_graphs() {
        // Compare the landmark scheme against full tables at two sizes: the
        // ratio (tables / landmark) must grow with n, showing the sub-linear
        // per-router memory of the landmark scheme.
        let small = generators::random_connected(64, 0.15, 1);
        let large = generators::random_connected(256, 0.05, 1);
        let ratio = |g: &Graph| {
            let lm = LandmarkScheme::default().build(g);
            let tables = crate::table_scheme::TableScheme::default().build(g);
            tables.memory.average() / lm.memory.average()
        };
        let r_small = ratio(&small);
        let r_large = ratio(&large);
        assert!(
            r_large > r_small,
            "landmark advantage must grow with n (small {r_small:.2}, large {r_large:.2})"
        );
    }

    #[test]
    fn cluster_sizes_are_reported() {
        let g = generators::random_connected(100, 0.07, 21);
        let r = LandmarkRouting::build_with(&g, &inclusive(5));
        let avg = r.average_cluster_size();
        assert!(avg > 0.0);
        let max = (0..g.num_nodes()).map(|w| r.cluster_size(w)).max().unwrap();
        assert!(max >= avg as usize);
        assert_eq!(r.landmarks().len(), 30);
    }

    #[test]
    fn single_vertex_graph() {
        let g = generators::path(1);
        for cfg in [
            LandmarkConfig {
                seed: 3,
                ..LandmarkConfig::default()
            },
            strict(3),
        ] {
            let r = LandmarkRouting::build_with(&g, &cfg);
            let trace = route(&g, &r, 0, 0).unwrap();
            assert!(trace.is_empty());
            // Degenerate memory report: one router of degree 0 stores 0-bit
            // labels and 0-bit ports — well-defined, not a phantom charge.
            let mem = r.memory(&g).unwrap();
            assert_eq!(mem.local(), 0);
            assert_eq!(mem.global(), 0);
            assert!(mem.average().is_finite());
        }
    }

    #[test]
    fn scheme_trait_plumbs_through() {
        let g = generators::grid(5, 5);
        let inst = LandmarkScheme::new(9).build(&g);
        assert_eq!(inst.guaranteed_stretch, Some(3.0));
        assert!(inst.memory.local() > 0);
    }

    #[test]
    fn more_landmarks_mean_smaller_clusters() {
        let g = generators::random_connected(256, 8.0 / 256.0, 2);
        let cluster_avg = |k: usize| {
            LandmarkRouting::build_with(
                &g,
                &LandmarkConfig {
                    landmarks: LandmarkCount::Count(k),
                    ..LandmarkConfig::default()
                },
            )
            .average_cluster_size()
        };
        assert!(cluster_avg(64) < cluster_avg(16));
        assert!(cluster_avg(16) < cluster_avg(4));
    }

    /// The pinned repair guarantee: after `repair`, the instance equals —
    /// field for field, via `PartialEq` over every table — a from-scratch
    /// build on the masked view.  Swept over a grid of (graph seed, kill
    /// rate), with a second cumulative round on top of the first.
    #[test]
    fn repair_is_bit_identical_to_rebuild_on_failed_graph() {
        let mut exercised = 0usize;
        for graph_seed in [3u64, 19, 40] {
            let g = generators::random_connected(150, 0.045, graph_seed);
            let cfg = LandmarkConfig {
                seed: 7,
                ..LandmarkConfig::default()
            };
            for kill in [0.01f64, 0.04, 0.10] {
                let empty = FailureSet::empty(&g);
                let round1 = FailureSet::sample(&g, kill, 42);
                let round2 = FailureSet::sample(&g, 2.0 * kill, 42);
                assert!(round2.is_superset_of(&round1), "samples must nest");
                if !graphkit::traversal::is_connected(GraphView::masked(&g, &round2)) {
                    continue;
                }
                exercised += 1;
                let mut r = LandmarkRouting::build_with(&g, &cfg);
                let out = r.repair(&g, &empty, &round1).unwrap();
                assert!(!out.full_rebuild, "nested inclusive repair is incremental");
                assert_eq!(
                    r,
                    LandmarkRouting::build_on_view(GraphView::masked(&g, &round1), &cfg),
                    "graph_seed={graph_seed}, kill={kill}, round 1"
                );
                // Cumulative second round on top of the already-repaired state.
                let out = r.repair(&g, &round1, &round2).unwrap();
                assert!(!out.full_rebuild);
                assert_eq!(
                    r,
                    LandmarkRouting::build_on_view(GraphView::masked(&g, &round2), &cfg),
                    "graph_seed={graph_seed}, kill={kill}, round 2"
                );
            }
        }
        assert!(exercised >= 5, "the grid must actually exercise repair");
    }

    /// The parallel repair folds every pass in index order, so neither the
    /// instance nor the outcome may depend on the worker count.  Nested
    /// three-round repairs at 1, 2 and 3 threads, on graphs large enough
    /// that every pass has several items (landmarks, grown vertices, dead
    /// edges and router blocks, the last one partial).
    #[test]
    fn repair_is_identical_at_every_thread_count() {
        let mut bounds_grew = 0usize;
        for (n, p, graph_seed) in [(300usize, 0.03f64, 5u64), (600, 0.015, 31)] {
            let g = generators::random_connected(n, p, graph_seed);
            let cfg = LandmarkConfig {
                seed: 9,
                ..LandmarkConfig::default()
            };
            let rounds: Vec<FailureSet> = [0.01f64, 0.02, 0.04]
                .iter()
                .map(|&kill| FailureSet::sample(&g, kill, 77))
                .collect();
            let last = GraphView::masked(&g, &rounds[2]);
            assert!(graphkit::traversal::is_connected(last), "n={n}");
            let base = LandmarkRouting::build_with(&g, &cfg);
            let mut serial_outcomes = Vec::new();
            for threads in [1usize, 2, 3] {
                let mut r = base.clone();
                let mut adapted = FailureSet::empty(&g);
                let mut outcomes = Vec::new();
                for failures in &rounds {
                    let before = r.dist_to_set.clone();
                    let out = r.repair_threads(&g, &adapted, failures, threads).unwrap();
                    assert!(!out.full_rebuild);
                    assert!(out.vertices_touched > 0 && out.landmarks_rebuilt > 0);
                    if threads == 1 && r.dist_to_set != before {
                        bounds_grew += 1;
                    }
                    let view = GraphView::masked(&g, failures);
                    assert!(
                        r == LandmarkRouting::build_on_view(view, &cfg),
                        "n={n}, threads={threads}, {} dead links",
                        failures.len()
                    );
                    outcomes.push(out);
                    adapted = failures.clone();
                }
                if threads == 1 {
                    serial_outcomes = outcomes;
                } else {
                    assert_eq!(outcomes, serial_outcomes, "n={n}, threads={threads}");
                }
            }
        }
        assert!(bounds_grew >= 2, "the gains pass must have items");
    }

    /// Repair == rebuild along random failure sequences: each step kills a
    /// few random links (any that keep the view connected — not prefixes of
    /// one `FailureSet::sample`) and repairs in place.  One step revives
    /// links, so that repair falls back to a full rebuild, and incremental
    /// steps continue from the rebuilt instance.  Every step is pinned
    /// against `build_on_view`, and the whole sequence is identical at 1, 2
    /// and 3 threads.
    #[test]
    fn repair_follows_random_growing_failure_sequences() {
        let g = generators::random_connected(320, 0.025, 13);
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u as u32, v as u32)).collect();
        let cfg = LandmarkConfig {
            seed: 21,
            ..LandmarkConfig::default()
        };
        let mut rng = Xoshiro256::new(0xC4A05);
        let mut steps: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut dead: Vec<(u32, u32)> = Vec::new();
        for step in 0..8 {
            if step == 4 {
                // Links come back: keep every other dead link.
                dead = dead.iter().copied().step_by(2).collect();
            }
            let target = dead.len() + 1 + rng.gen_range(5);
            while dead.len() < target {
                let e = *rng.choose(&edges);
                if dead.contains(&e) {
                    continue;
                }
                dead.push(e);
                let f = FailureSet::from_edges(&g, &dead);
                if !graphkit::traversal::is_connected(GraphView::masked(&g, &f)) {
                    dead.pop();
                }
            }
            steps.push(dead.clone());
        }
        let mut serial_outcomes = Vec::new();
        for threads in [1usize, 2, 3] {
            let mut r = LandmarkRouting::build_with(&g, &cfg);
            let mut adapted = FailureSet::empty(&g);
            let mut outcomes = Vec::new();
            for (step, dead) in steps.iter().enumerate() {
                let failures = FailureSet::from_edges(&g, dead);
                let out = r.repair_threads(&g, &adapted, &failures, threads).unwrap();
                assert_eq!(
                    out.full_rebuild,
                    !failures.is_superset_of(&adapted),
                    "step {step}: only the step that revives links rebuilds"
                );
                assert!(
                    r == LandmarkRouting::build_on_view(GraphView::masked(&g, &failures), &cfg),
                    "threads={threads}, step {step}, {} dead links",
                    failures.len()
                );
                outcomes.push(out);
                adapted = failures;
            }
            let rebuilds = outcomes.iter().filter(|o| o.full_rebuild).count();
            assert_eq!(rebuilds, 1, "exactly one non-nested step");
            if threads == 1 {
                serial_outcomes = outcomes;
            } else {
                assert_eq!(outcomes, serial_outcomes, "threads={threads}");
            }
        }
    }

    /// Repair == rebuild at the scale of the churn benchmark: the 8-regular
    /// family at n = 32768 over three nested rounds of 0.1% dead links.  Too
    /// slow for a debug build; run it with
    /// `cargo test --release -p routeschemes -- --ignored repair_matches_rebuild_at_benchmark_scale`.
    #[test]
    #[ignore = "n = 32768: run in release with --ignored"]
    fn repair_matches_rebuild_at_benchmark_scale() {
        let g = generators::random_regular_like(32_768, 8, 0xB16);
        let cfg = LandmarkConfig::default();
        let mut r = LandmarkRouting::build_with(&g, &cfg);
        let mut adapted = FailureSet::empty(&g);
        for round in 1..=3 {
            let failures = FailureSet::sample(&g, 0.001 * f64::from(round), 0xDEAD);
            assert!(failures.is_superset_of(&adapted), "samples must nest");
            let out = r.repair(&g, &adapted, &failures).unwrap();
            assert!(!out.full_rebuild, "round {round}");
            assert!(
                r == LandmarkRouting::build_on_view(GraphView::masked(&g, &failures), &cfg),
                "round {round}"
            );
            adapted = failures;
        }
    }

    /// The toward tables at the scale of the churn benchmark, against the
    /// per-landmark oracle: the 8-regular family at n = 32768, under both
    /// rules, on the full view and on a connected 1%-failed view.  Too slow
    /// for a debug build; run it with
    /// `cargo test --release -p routeschemes -- --ignored toward_tables_match_the_oracle_at_benchmark_scale`.
    #[test]
    #[ignore = "n = 32768: run in release with --ignored"]
    fn toward_tables_match_the_oracle_at_benchmark_scale() {
        let g = generators::random_regular_like(32_768, 8, 0xB16);
        let failures = (1..)
            .map(|seed| FailureSet::sample(&g, 0.01, seed))
            .find(|f| graphkit::traversal::is_connected(GraphView::masked(&g, f)))
            .unwrap();
        for view in [GraphView::full(&g), GraphView::masked(&g, &failures)] {
            for cfg in [inclusive(DEFAULT_SEED), strict(DEFAULT_SEED)] {
                let r = LandmarkRouting::build_on_view(view, &cfg);
                assert_toward_tables_match_oracle(view, &r, &format!("{cfg:?}"));
            }
        }
    }

    #[test]
    fn repair_touches_few_vertices_on_local_damage() {
        // One dead edge in a large sparse graph: the patch must stay local —
        // that locality is the whole point of the incremental path.
        let g = generators::random_connected(600, 0.008, 23);
        let cfg = LandmarkConfig {
            seed: 5,
            ..LandmarkConfig::default()
        };
        let mut r = LandmarkRouting::build_with(&g, &cfg);
        let empty = FailureSet::empty(&g);
        let failures = FailureSet::sample(&g, 0.0008, 9);
        assert_eq!(failures.len(), 1);
        if !graphkit::traversal::is_connected(GraphView::masked(&g, &failures)) {
            return;
        }
        let out = r.repair(&g, &empty, &failures).unwrap();
        assert!(!out.full_rebuild);
        assert!(
            out.vertices_touched < g.num_nodes() / 4,
            "one dead edge touched {}/{} routers",
            out.vertices_touched,
            g.num_nodes()
        );
        assert_eq!(
            r,
            LandmarkRouting::build_on_view(GraphView::masked(&g, &failures), &cfg)
        );
    }

    #[test]
    fn repair_falls_back_to_full_rebuild_when_it_must() {
        let g = generators::random_connected(100, 0.06, 31);
        let empty = FailureSet::empty(&g);
        let failures = FailureSet::sample(&g, 0.03, 8);
        assert!(!failures.is_empty());
        assert!(graphkit::traversal::is_connected(GraphView::masked(
            &g, &failures
        )));

        // Strict rule: handoff structure resists patching — always rebuilds.
        let cfg = strict(7);
        let mut r = LandmarkRouting::build_with(&g, &cfg);
        let out = r.repair(&g, &empty, &failures).unwrap();
        assert!(out.full_rebuild);
        assert_eq!(
            r,
            LandmarkRouting::build_on_view(GraphView::masked(&g, &failures), &cfg)
        );

        // Non-nested failure sets (links came back): rebuild on the new view.
        let cfg = LandmarkConfig {
            seed: 7,
            ..LandmarkConfig::default()
        };
        let mut r = LandmarkRouting::build_on_view(GraphView::masked(&g, &failures), &cfg);
        let out = r.repair(&g, &failures, &empty).unwrap();
        assert!(out.full_rebuild, "shrinking failure set forces a rebuild");
        assert_eq!(r, LandmarkRouting::build_with(&g, &cfg));

        // A repair with nothing new to adapt to is free.
        let out = r.repair(&g, &empty, &empty).unwrap();
        assert_eq!(out.vertices_touched, 0);
        assert!(!out.full_rebuild);
    }

    #[test]
    fn repair_rejects_disconnecting_failures_without_mutating() {
        let g = generators::path(12);
        let cfg = LandmarkConfig {
            seed: 3,
            ..LandmarkConfig::default()
        };
        let mut r = LandmarkRouting::build_with(&g, &cfg);
        let before = r.clone();
        let cut = FailureSet::from_edges(&g, &[(5, 6)]);
        let empty = FailureSet::empty(&g);
        assert!(matches!(
            r.repair(&g, &empty, &cut),
            Err(BuildError::Disconnected { .. })
        ));
        assert_eq!(r, before, "a failed repair must leave the tables intact");
    }

    #[test]
    fn routing_still_delivers_after_repair() {
        let g = generators::random_connected(90, 0.06, 17);
        let cfg = LandmarkConfig {
            seed: 11,
            ..LandmarkConfig::default()
        };
        let mut r = LandmarkRouting::build_with(&g, &cfg);
        let empty = FailureSet::empty(&g);
        let failures = FailureSet::sample(&g, 0.05, 13);
        let view = GraphView::masked(&g, &failures);
        if !graphkit::traversal::is_connected(view) {
            return;
        }
        r.repair(&g, &empty, &failures).unwrap();
        for s in 0..g.num_nodes() {
            for t in 0..g.num_nodes() {
                let trace = route(view, &r, s, t).unwrap();
                assert_eq!(*trace.path.last().unwrap(), t);
            }
        }
    }
}
