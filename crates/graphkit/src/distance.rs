//! All-pairs shortest-path distances: dense and block-streamed.
//!
//! Everything in the paper is expressed relative to the distance function
//! `d_G`: the stretch factor divides routing-path lengths by distances, and
//! the constraint verification checks `d(a_i, b_j) = 2`.  Two representations
//! are provided:
//!
//! * [`DistanceMatrix`] — the dense `n × n` buffer, fanning blocks of 64
//!   sources out over the available CPU cores with
//!   [`crate::par::map_fold_ordered`].  Convenient up to a few thousand
//!   vertices; at `n ≳ 50_000` the `n²` buffer alone is tens of gigabytes.
//! * [`DistanceBlock`] — a contiguous **block of source rows**
//!   `[start, start + rows)`, the unit of the sharded evaluation pipeline
//!   (`trafficlab` and the block-streamed stretch sweeps): consumers walk the
//!   source space block by block, so peak memory is `O(rows · n)` per worker
//!   and the dense matrix is never materialized.  Blocks store rows in a
//!   **narrow `u8` representation** whenever every distance fits below 255
//!   (eccentricities on all current workloads do), quartering the memory
//!   traffic of the sweep, and fall back to wide `u32` rows otherwise —
//!   behind the same [`DistanceBlock::dist`] / [`DistanceRow`] accessors.
//!
//! Both fill their rows from one kernel, the bit-parallel
//! [`bfs_block_into`]: one traversal per 64 consecutive sources, each level
//! written straight into the rows.  Its work is the sum over levels of the
//! frontier's arcs — at most 64 single BFSs, and about `diameter · 2m` on
//! small-diameter graphs, where a block of 64 rows costs a few single BFSs.
//! Each worker owns one [`BfsScratch`] and recycled row buffers, so both
//! sweeps perform a constant number of allocations regardless of `n`
//! (and [`DistanceBlock::recompute`] recycles block buffers across blocks).

use crate::failure::Adjacency;
use crate::graph::{Graph, NodeId};
use crate::traversal::{bfs_block_into, BfsScratch, BLOCK_SOURCES, NARROW_INFINITY};
use crate::{Dist, INFINITY};

/// Writes `value` into column `v` of every row `i` whose bit is set in
/// `bits` (rows of length `n`, row-major).
#[inline]
fn scatter<T: Copy>(cells: &mut [T], n: usize, v: NodeId, mut bits: u64, value: T) {
    while bits != 0 {
        cells[bits.trailing_zeros() as usize * n + v] = value;
        bits &= bits - 1;
    }
}

/// Widens one narrow (`u8`) distance cell to the canonical [`Dist`] value.
#[inline]
fn widen(b: u8) -> Dist {
    if b == NARROW_INFINITY {
        INFINITY
    } else {
        Dist::from(b)
    }
}

/// A borrowed view of one BFS distance row, narrow (`u8`) or wide (`u32`).
///
/// [`DistanceRow::dist`] hides the representation: narrow cells widen to the
/// exact same [`Dist`] values a wide row would hold, so every consumer —
/// stretch accumulation in particular — is bit-identical across the two.
#[derive(Debug, Clone, Copy)]
pub enum DistanceRow<'a> {
    /// One byte per vertex; [`NARROW_INFINITY`] encodes "unreachable".
    Narrow(&'a [u8]),
    /// Four bytes per vertex; [`INFINITY`] encodes "unreachable".
    Wide(&'a [Dist]),
}

impl DistanceRow<'_> {
    /// Distance to `v` ([`INFINITY`] if unreachable).
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        match self {
            DistanceRow::Narrow(r) => widen(r[v]),
            DistanceRow::Wide(r) => r[v],
        }
    }

    /// Number of vertices covered by the row.
    pub fn len(&self) -> usize {
        match self {
            DistanceRow::Narrow(r) => r.len(),
            DistanceRow::Wide(r) => r.len(),
        }
    }

    /// Whether the row covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the row into a freshly allocated wide vector.
    pub fn to_vec(&self) -> Vec<Dist> {
        match self {
            DistanceRow::Narrow(r) => r.iter().map(|&b| widen(b)).collect(),
            DistanceRow::Wide(r) => r.to_vec(),
        }
    }
}

/// One shard of the all-pairs distance computation: the BFS rows of the
/// contiguous source range `[start, start + rows)`.
///
/// This is the unit the sharded stretch/congestion pipeline streams over
/// (ROADMAP "distance-matrix sharding"): a worker computes a block, consumes
/// its rows, then [`DistanceBlock::recompute`]s the same buffers for the next
/// block — the dense `n²` matrix never exists.  Rows are stored narrow (`u8`)
/// when every distance of the block fits below 255 and wide (`u32`)
/// otherwise; the fallback is per block and automatic.  Both buffers persist
/// inside the block, so a sweep that alternates representations still
/// reaches an allocation-free steady state.
#[derive(Debug, Clone)]
pub struct DistanceBlock {
    start: usize,
    rows: usize,
    n: usize,
    /// `rows * n` bytes, row-major, valid when `narrow_active`.
    narrow: Vec<u8>,
    /// `rows * n` words, row-major, valid when `!narrow_active`.
    wide: Vec<Dist>,
    narrow_active: bool,
}

impl DistanceBlock {
    /// An empty block (recompute it before use).
    pub fn new() -> Self {
        DistanceBlock {
            start: 0,
            rows: 0,
            n: 0,
            narrow: Vec::new(),
            wide: Vec::new(),
            narrow_active: true,
        }
    }

    /// Computes the rows of sources `[start, start + rows)` of `g` (a
    /// pristine graph or a masked [`crate::GraphView`]).
    pub fn compute<A: Adjacency>(g: A, start: usize, rows: usize) -> Self {
        let mut block = DistanceBlock::new();
        let mut scratch = BfsScratch::with_capacity(g.num_nodes());
        block.recompute(g, start, rows, &mut scratch);
        block
    }

    /// Recomputes this block in place for a (possibly different) source
    /// range, reusing the existing buffers.
    ///
    /// One [`bfs_block_into`] traversal covers up to 64 sources (a block of
    /// more rows takes one per 64) and writes each level straight into the
    /// rows.  The narrow representation is attempted first on every call;
    /// the first level of 255 widens the finished narrow cells into the wide
    /// rows in place and the same traversal goes on writing wide cells, so
    /// no source is traversed twice.
    pub fn recompute<A: Adjacency>(
        &mut self,
        g: A,
        start: usize,
        rows: usize,
        scratch: &mut BfsScratch,
    ) {
        let n = g.num_nodes();
        assert!(
            start + rows <= n,
            "source block [{start}, {}) out of range for n = {n}",
            start + rows
        );
        self.start = start;
        self.rows = rows;
        self.n = n;
        // The narrow representation is attempted first on every call — the
        // choice is per block, independent of what previous blocks needed,
        // so counts of narrow blocks are deterministic for every worker
        // count.  Both buffers are recycled across calls.
        self.narrow.clear();
        self.narrow.resize(rows * n, NARROW_INFINITY);
        self.narrow_active = true;
        let DistanceBlock {
            narrow,
            wide,
            narrow_active,
            ..
        } = self;
        for first in (0..rows).step_by(BLOCK_SOURCES) {
            let count = BLOCK_SOURCES.min(rows - first);
            let at = first * n;
            bfs_block_into(g, start + first, count, scratch, |level, v, bits| {
                if *narrow_active {
                    if level < Dist::from(NARROW_INFINITY) {
                        scatter(&mut narrow[at..], n, v, bits, level as u8);
                        return;
                    }
                    // Widen: unreached narrow cells become INFINITY.
                    wide.clear();
                    wide.extend(narrow.iter().map(|&b| widen(b)));
                    *narrow_active = false;
                }
                scatter(&mut wide[at..], n, v, bits, level);
            });
        }
    }

    /// First source covered by the block.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of source rows in the block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of vertices per row.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Whether source `u` has a row in this block.
    pub fn contains(&self, u: NodeId) -> bool {
        (self.start..self.start + self.rows).contains(&u)
    }

    /// The distance row of source `u` (absolute vertex id; panics unless
    /// [`DistanceBlock::contains`]).
    pub fn row(&self, u: NodeId) -> DistanceRow<'_> {
        assert!(self.contains(u), "source {u} outside block");
        let i = u - self.start;
        if self.narrow_active {
            DistanceRow::Narrow(&self.narrow[i * self.n..(i + 1) * self.n])
        } else {
            DistanceRow::Wide(&self.wide[i * self.n..(i + 1) * self.n])
        }
    }

    /// Distance from `u` (a source of this block) to `v`.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> Dist {
        self.row(u).dist(v)
    }

    /// Whether the block is currently stored in the narrow representation.
    pub fn is_narrow(&self) -> bool {
        self.narrow_active
    }

    /// Bytes held by the row storage (both recycled buffers) — the
    /// per-worker memory footprint the sharded pipeline reports instead of
    /// the dense matrix's `4 n²`.
    pub fn bytes(&self) -> usize {
        self.narrow.capacity() + self.wide.capacity() * std::mem::size_of::<Dist>()
    }
}

impl Default for DistanceBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// A dense `n × n` matrix of hop distances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major distances; `data[u * n + v] = d(u, v)`.
    data: Vec<Dist>,
}

impl DistanceMatrix {
    /// Computes all-pairs distances sequentially (one bit-parallel BFS per
    /// 64 sources, a constant number of allocations).
    pub fn all_pairs_sequential(g: &Graph) -> Self {
        Self::all_pairs_with_threads(g, 1)
    }

    /// Computes all-pairs distances, parallelising over source vertices on
    /// [`crate::par::default_threads`] workers (one thread below 256
    /// vertices, where thread startup would dominate).
    pub fn all_pairs(g: &Graph) -> Self {
        Self::all_pairs_with_threads(g, crate::par::default_threads(g.num_nodes()))
    }

    /// Computes all-pairs distances with an explicit worker count
    /// (`threads <= 1` runs on the calling thread).  One work item per
    /// 64 sources: a worker fills their wide rows in a recycled buffer with
    /// one [`bfs_block_into`] traversal, and the in-order fold of
    /// [`crate::par::map_fold_ordered`] appends the rows in source order.
    /// The result does not depend on `threads`; tests use this to exercise
    /// the parallel path on any machine.
    pub fn all_pairs_with_threads(g: &Graph, threads: usize) -> Self {
        let n = g.num_nodes();
        let mut data = Vec::with_capacity(n * n);
        crate::par::map_fold_ordered(
            n.div_ceil(BLOCK_SOURCES),
            threads,
            BfsScratch::new,
            |scratch, item, rows: &mut Vec<Dist>| {
                let start = item * BLOCK_SOURCES;
                let count = BLOCK_SOURCES.min(n - start);
                rows.clear();
                rows.resize(count * n, INFINITY);
                bfs_block_into(g, start, count, scratch, |level, v, bits| {
                    scatter(rows, n, v, bits, level);
                });
            },
            |_, rows| data.extend_from_slice(rows),
        );
        DistanceMatrix { n, data }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Distance between `u` and `v` ([`INFINITY`] if unreachable).
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> Dist {
        self.data[u * self.n + v]
    }

    /// Whether `v` is reachable from `u`.
    #[inline]
    pub fn reachable(&self, u: NodeId, v: NodeId) -> bool {
        self.dist(u, v) != INFINITY
    }

    /// The row of distances from `u`.
    pub fn row(&self, u: NodeId) -> &[Dist] {
        &self.data[u * self.n..(u + 1) * self.n]
    }

    /// Eccentricity of `u`, or `None` if some vertex is unreachable.
    pub fn eccentricity(&self, u: NodeId) -> Option<Dist> {
        let mut ecc = 0;
        for &d in self.row(u) {
            if d == INFINITY {
                return None;
            }
            ecc = ecc.max(d);
        }
        Some(ecc)
    }

    /// Diameter, or `None` on empty/disconnected graphs.
    pub fn diameter(&self) -> Option<Dist> {
        if self.n == 0 {
            return None;
        }
        let mut best = 0;
        for u in 0..self.n {
            best = best.max(self.eccentricity(u)?);
        }
        Some(best)
    }

    /// Whether the distance matrix corresponds to a connected graph.
    pub fn is_connected(&self) -> bool {
        self.n == 0 || self.data.iter().all(|&d| d != INFINITY)
    }

    /// Average distance over ordered pairs of *distinct* vertices, ignoring
    /// unreachable pairs.  Returns `None` if there are no such pairs.
    pub fn average_distance(&self) -> Option<f64> {
        let mut sum = 0u64;
        let mut count = 0u64;
        for u in 0..self.n {
            for v in 0..self.n {
                if u != v {
                    let d = self.dist(u, v);
                    if d != INFINITY {
                        sum += u64::from(d);
                        count += 1;
                    }
                }
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum as f64 / count as f64)
        }
    }

    /// Checks metric consistency against the graph: `d(u,u) = 0`, symmetry,
    /// `d(u,v) = 1` exactly on edges, and the triangle inequality over edges
    /// (`|d(u,w) - d(v,w)| <= 1` for every edge `{u,v}`).  Used by tests.
    pub fn validate_against(&self, g: &Graph) -> Result<(), String> {
        let n = self.n;
        if n != g.num_nodes() {
            return Err("size mismatch".into());
        }
        for u in 0..n {
            if self.dist(u, u) != 0 {
                return Err(format!("d({u},{u}) != 0"));
            }
        }
        for u in 0..n {
            for v in 0..n {
                if self.dist(u, v) != self.dist(v, u) {
                    return Err(format!("asymmetric distance between {u} and {v}"));
                }
            }
        }
        for (u, v) in g.edges() {
            if self.dist(u, v) != 1 {
                return Err(format!("edge ({u},{v}) but d = {}", self.dist(u, v)));
            }
            for w in 0..n {
                let du = self.dist(u, w);
                let dv = self.dist(v, w);
                if du != INFINITY && dv != INFINITY {
                    let diff = du.abs_diff(dv);
                    if diff > 1 {
                        return Err(format!(
                            "edge ({u},{v}) but |d({u},{w}) - d({v},{w})| = {diff}"
                        ));
                    }
                } else if du != dv {
                    return Err(format!("edge ({u},{v}) with mixed reachability to {w}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::traversal::{bfs_distances, bfs_distances_into};
    use crate::{FailureSet, GraphView};

    /// Checks every row of blocks of 1, 2, 63 and 64 sources of `g` against
    /// per-source `bfs_distances_into`, at start offsets from 0 to the one
    /// whose block ends at the last vertex, and the narrow/wide choice
    /// against the rule "narrow iff every finite distance is below 255".
    fn assert_blocks_match_per_source_bfs<A: Adjacency>(g: A, what: &str) {
        let n = g.num_nodes();
        let mut scratch = BfsScratch::new();
        let mut expected = vec![INFINITY; n];
        let mut block = DistanceBlock::new();
        for rows in [1usize, 2, 63, 64] {
            let rows = rows.min(n);
            for start in [0, 1, n / 2 - rows / 2, n - rows] {
                block.recompute(g, start, rows, &mut scratch);
                let mut fits = true;
                for u in start..start + rows {
                    bfs_distances_into(g, u, &mut scratch, &mut expected);
                    fits &= expected.iter().all(|&d| d == INFINITY || d < 255);
                    assert_eq!(block.row(u).to_vec(), expected, "{what}: source {u}");
                }
                assert_eq!(block.is_narrow(), fits, "{what}: block {start}+{rows}");
            }
        }
    }

    #[test]
    fn block_rows_match_per_source_bfs_on_random_regular_and_grid_graphs() {
        let random = generators::random_connected(200, 0.03, 5);
        let regular = generators::random_regular_like(256, 4, 17);
        let grid = generators::grid(12, 17);
        assert_blocks_match_per_source_bfs(&random, "random");
        assert_blocks_match_per_source_bfs(&regular, "regular");
        assert_blocks_match_per_source_bfs(&grid, "grid");
    }

    #[test]
    fn block_rows_match_per_source_bfs_when_the_overflow_comes_mid_traversal() {
        // On P_300 a block's sources overflow at level 255 after many levels
        // were already written narrow; some blocks fit, some widen.
        let g = generators::path(300);
        assert_blocks_match_per_source_bfs(&g, "path");
        let b = DistanceBlock::compute(&g, 40, 64);
        assert!(!b.is_narrow(), "source 40 reaches vertex 299 at 259");
        let b = DistanceBlock::compute(&g, 45, 64);
        assert!(
            b.is_narrow(),
            "sources 45..109 all have eccentricity <= 254"
        );
    }

    #[test]
    fn block_rows_match_per_source_bfs_on_masked_views() {
        let g = generators::random_regular_like(300, 3, 8);
        for (rate, seed) in [(0.05, 1u64), (0.3, 2), (0.6, 3)] {
            let failures = FailureSet::sample(&g, rate, seed);
            let view = GraphView::masked(&g, &failures);
            assert_blocks_match_per_source_bfs(view, &format!("kill={rate}"));
        }
        let failures = FailureSet::sample(&g, 0.6, 3);
        let view = GraphView::masked(&g, &failures);
        assert!(
            !crate::traversal::is_connected(view),
            "the heaviest failure rate must disconnect the view"
        );
    }

    #[test]
    fn sequential_matches_bfs_rows() {
        let g = generators::random_connected(60, 0.08, 42);
        let m = DistanceMatrix::all_pairs_sequential(&g);
        for u in 0..g.num_nodes() {
            assert_eq!(m.row(u), &bfs_distances(&g, u)[..]);
        }
        assert!(m.validate_against(&g).is_ok());
    }

    #[test]
    fn parallel_matches_sequential_on_large_graph() {
        let g = generators::random_connected(400, 0.02, 7);
        let seq = DistanceMatrix::all_pairs_sequential(&g);
        let par = DistanceMatrix::all_pairs(&g);
        assert_eq!(seq, par);
    }

    #[test]
    fn explicit_thread_counts_all_agree() {
        // Forces the multi-threaded code path regardless of the machine's
        // core count, including more threads than sources.
        let g = generators::random_connected(97, 0.05, 13);
        let seq = DistanceMatrix::all_pairs_with_threads(&g, 1);
        for threads in [2, 3, 8, 200] {
            let par = DistanceMatrix::all_pairs_with_threads(&g, threads);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn hypercube_distances_are_hamming() {
        let k = 5;
        let g = generators::hypercube(k);
        let m = DistanceMatrix::all_pairs(&g);
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                assert_eq!(m.dist(u, v), (u ^ v).count_ones());
            }
        }
        assert_eq!(m.diameter(), Some(k as Dist));
    }

    #[test]
    fn complete_graph_distances() {
        let g = generators::complete(12);
        let m = DistanceMatrix::all_pairs(&g);
        assert_eq!(m.diameter(), Some(1));
        assert!((m.average_distance().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_graph_reported() {
        let h = generators::path(4).disjoint_union(&generators::cycle(3));
        let m = DistanceMatrix::all_pairs(&h);
        assert!(!m.is_connected());
        assert_eq!(m.diameter(), None);
        assert!(!m.reachable(0, 5));
        assert!(m.reachable(0, 3));
    }

    #[test]
    fn cycle_average_distance() {
        // On C_6 the distances from any vertex are 0,1,1,2,2,3: average over
        // ordered distinct pairs is (1+1+2+2+3)/5 = 9/5.
        let m = DistanceMatrix::all_pairs(&generators::cycle(6));
        assert!((m.average_distance().unwrap() - 9.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let m = DistanceMatrix::all_pairs(&Graph::new(0));
        assert_eq!(m.diameter(), None);
        assert!(m.is_connected());
        assert_eq!(m.average_distance(), None);
    }

    #[test]
    fn blocks_match_dense_matrix_for_every_block_size() {
        let g = generators::random_connected(90, 0.05, 19);
        let n = g.num_nodes();
        let m = DistanceMatrix::all_pairs_sequential(&g);
        for block_rows in [1usize, 3, 7, 32, 90, 200] {
            let mut start = 0;
            while start < n {
                let rows = block_rows.min(n - start);
                let b = DistanceBlock::compute(&g, start, rows);
                assert!(b.is_narrow(), "small graph must use narrow rows");
                for u in start..start + rows {
                    assert!(b.contains(u));
                    assert_eq!(b.row(u).to_vec(), m.row(u), "source {u}");
                }
                start += rows;
            }
        }
    }

    #[test]
    fn block_recompute_reuses_buffers_across_blocks() {
        let g = generators::grid(9, 11);
        let m = DistanceMatrix::all_pairs_sequential(&g);
        let mut scratch = BfsScratch::new();
        let mut b = DistanceBlock::new();
        for start in (0..g.num_nodes()).step_by(16) {
            let rows = 16.min(g.num_nodes() - start);
            b.recompute(&g, start, rows, &mut scratch);
            for u in start..start + rows {
                for v in 0..g.num_nodes() {
                    assert_eq!(b.dist(u, v), m.dist(u, v));
                }
            }
        }
    }

    #[test]
    fn block_falls_back_to_wide_rows_on_long_paths() {
        // Distances from vertex 0 of P_300 reach 299 > 254: the block must
        // silently widen and still agree with the dense matrix.
        let g = generators::path(300);
        let m = DistanceMatrix::all_pairs_sequential(&g);
        let b = DistanceBlock::compute(&g, 0, 4);
        assert!(!b.is_narrow());
        for u in 0..4 {
            assert_eq!(b.row(u).to_vec(), m.row(u));
        }
        // A middle block fits narrow on the very same graph.
        let mid = DistanceBlock::compute(&g, 148, 4);
        assert!(mid.is_narrow());
        for u in 148..152 {
            assert_eq!(mid.row(u).to_vec(), m.row(u));
        }
    }

    #[test]
    fn block_widening_mid_block_keeps_earlier_rows() {
        // On P_400 the row of source u fits narrow iff max(u, 399 − u) ≤ 254,
        // i.e. u ∈ [145, 254].  A block over 250..260 therefore computes five
        // narrow rows before row 255 overflows (distance 255 back to vertex
        // 0), exercising the widen-and-copy path.
        let g = generators::path(400);
        let m = DistanceMatrix::all_pairs_sequential(&g);
        let b = DistanceBlock::compute(&g, 250, 10);
        assert!(!b.is_narrow());
        for u in 250..260 {
            assert_eq!(b.row(u).to_vec(), m.row(u), "source {u}");
        }
    }

    #[test]
    fn recompute_alternating_representations_reuses_buffers() {
        // P_400: blocks at the ends go wide, blocks in the middle stay
        // narrow (see `block_widening_mid_block_keeps_earlier_rows`).  One
        // DistanceBlock cycled through wide -> narrow -> wide must stay
        // correct, and after the first round of each representation the
        // buffer capacities must stop growing (steady state).
        let g = generators::path(400);
        let m = DistanceMatrix::all_pairs_sequential(&g);
        let mut scratch = BfsScratch::new();
        let mut b = DistanceBlock::new();
        let schedule = [(0usize, false), (190, true), (390, false), (200, true)];
        let mut steady_bytes = 0usize;
        for (round, &(start, narrow)) in schedule.iter().enumerate() {
            b.recompute(&g, start, 10, &mut scratch);
            assert_eq!(b.is_narrow(), narrow, "start {start}");
            for u in start..start + 10 {
                assert_eq!(b.row(u).to_vec(), m.row(u), "source {u}");
            }
            if round == 2 {
                steady_bytes = b.bytes();
            } else if round == 3 {
                assert_eq!(b.bytes(), steady_bytes, "buffers must be recycled");
            }
        }
    }

    #[test]
    fn narrow_and_wide_rows_expose_identical_values() {
        let g = generators::cycle(12);
        let b = DistanceBlock::compute(&g, 0, 12);
        let m = DistanceMatrix::all_pairs_sequential(&g);
        for u in 0..12 {
            let row = b.row(u);
            assert_eq!(row.len(), 12);
            assert!(!row.is_empty());
            for v in 0..12 {
                assert_eq!(row.dist(v), m.dist(u, v));
            }
        }
        assert!(b.bytes() >= 12 * 12);
    }

    #[test]
    fn disconnected_blocks_report_infinity() {
        let h = generators::path(4).disjoint_union(&generators::cycle(3));
        let b = DistanceBlock::compute(&h, 0, h.num_nodes());
        assert_eq!(b.dist(0, 5), INFINITY);
        assert_eq!(b.dist(0, 3), 3);
        assert_eq!(b.dist(5, 6), 1);
    }

    #[test]
    fn validate_catches_tampering() {
        let g = generators::cycle(5);
        let mut m = DistanceMatrix::all_pairs(&g);
        m.data[1] = 3; // corrupt d(0,1)
        assert!(m.validate_against(&g).is_err());
    }
}
