//! Full routing tables: the canonical universal routing scheme.
//!
//! A routing table stores, at every router and for every destination label,
//! the output port of a shortest path (or, more generally, of a path within
//! the requested stretch).  This is the `O(n log n)`-bits-per-router upper
//! bound against which the paper's Theorem 1 lower bound is tight.
//!
//! [`TableRouting`] is also the workhorse used to *realize* routing functions
//! on the graphs of constraints: the tables are built from shortest-path
//! (BFS) trees, with a pluggable [`TieBreak`] rule so the adversarial
//! experiments can explore different — but all shortest-path — routing
//! functions on the same graph.
//!
//! # Layout
//!
//! The `n²` entries live in one flat vector of [`Cell`]s, **destination
//! major**: entry `d·n + u` is the port of router `u` towards destination
//! `d`.  The cell type is the narrowest [`Width`] whose maximum exceeds the
//! graph's maximum degree (`u8` below degree 255, which covers every
//! benchmark family); the maximum itself means "no port".  A router's row of
//! the paper, `(n − 1)·⌈log₂ deg⌉` bits, is thus resident as `n` cells of
//! `⌈log₂ deg⌉` rounded up to a byte width.
//!
//! Destination major because every bulk pass over the table is per
//! destination: the streamed build computes one BFS per destination and
//! fills that destination's contiguous column, and the static verifier
//! sweeps every source towards one destination at a time, reading one
//! column.  [`TableRouting::port_map`], a router's row, is a strided gather;
//! only the memory accounting reads it.

use crate::cell::{clamped_port, Cell, Width};
use crate::function::{Action, RoutingFunction};
use crate::header::Header;
use crate::memory::{MemoryReport, PortMap};
use graphkit::{BfsScratch, Dist, DistanceBlock, DistanceMatrix, Graph, NodeId, Port, INFINITY};

/// How to choose among several shortest-path next hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Choose the neighbour reachable through the smallest port number.
    LowestPort,
    /// Choose the neighbour with the smallest vertex label.
    LowestNeighbor,
    /// Choose the neighbour with the largest vertex label.
    HighestNeighbor,
    /// Choose pseudo-randomly (but deterministically) based on the pair
    /// `(node, dest)` and the given seed — used to generate many distinct
    /// shortest-path routing functions on the same graph.
    Seeded(u64),
}

/// A complete next-port table for every (router, destination) pair, stored
/// as one flat destination-major vector of narrow cells (see the module
/// docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRouting {
    /// `ports[d·n + u]` = port used at `u` towards destination `d`; the cell
    /// maximum on the diagonal and for unreachable pairs.
    ports: Ports,
    /// Number of vertices.
    n: usize,
    name: String,
}

/// The flat table at the width the graph needs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ports {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// Runs `$body` with `$t` bound to the cell vector inside `$ports`.
macro_rules! with_ports {
    ($ports:expr, $t:ident => $body:expr) => {
        match $ports {
            Ports::U8($t) => $body,
            Ports::U16($t) => $body,
            Ports::U32($t) => $body,
        }
    };
}

/// Evaluates `$body`, a `Vec<$c>`, with the type `$c` bound to the cell type
/// of `$width`, and wraps the result as [`Ports`].
macro_rules! ports_at {
    ($width:expr, $c:ident => $body:expr) => {
        match $width {
            Width::U8 => Ports::U8({
                type $c = u8;
                $body
            }),
            Width::U16 => Ports::U16({
                type $c = u16;
                $body
            }),
            Width::U32 => Ports::U32({
                type $c = u32;
                $body
            }),
        }
    };
}

/// The port stored in `cell`, if any.
#[inline]
fn port_of<C: Cell>(cell: C) -> Option<Port> {
    (cell != C::NONE).then(|| cell.get() as Port)
}

/// A port the width rule guarantees to fit, as a cell.
#[inline]
fn cell_of<C: Cell>(p: Port) -> C {
    C::cell(p as u32)
}

const NO_PORT: Port = usize::MAX;

impl TableRouting {
    /// Builds shortest-path routing tables for `g` using the given tie-break
    /// rule.
    ///
    /// Construction streams [`DistanceBlock`]s instead of materializing a
    /// dense [`DistanceMatrix`]: BFS rows are computed for one block of 64
    /// destinations at a time (distances from `v` equal distances *to* `v`
    /// by symmetry) and turned into the block's ports towards those
    /// destinations for every router — one contiguous range of the
    /// destination-major table.  The blocks are independent, so they are
    /// computed on [`graphkit::par::default_threads`] workers, each emitting
    /// narrow cells, and copied into the table by
    /// [`graphkit::par::map_fold_ordered`]'s in-order fold, one
    /// `copy_from_slice` per block; each entry depends only on the graph,
    /// its destination's BFS row and the tie rule, so the table is identical
    /// at every thread count.  Peak transient memory is `O(block_rows · n)`
    /// per worker on top of the table itself; the result is bit-identical to
    /// [`TableRouting::from_distances`] over the dense matrix (pinned by a
    /// test).
    pub fn shortest_paths(g: &Graph, tie: TieBreak) -> Self {
        Self::shortest_paths_with_threads(g, tie, graphkit::par::default_threads(g.num_nodes()))
    }

    fn shortest_paths_with_threads(g: &Graph, tie: TieBreak, threads: usize) -> Self {
        TableRouting {
            ports: ports_at!(Self::width_for(g), C => Self::stream::<C>(g, tie, threads)),
            n: g.num_nodes(),
            name: format!("routing-tables({tie:?})"),
        }
    }

    /// The cell width of a table on `g`: the narrowest whose maximum exceeds
    /// the maximum degree, so every port fits and the maximum is free as "no
    /// port".
    fn width_for(g: &Graph) -> Width {
        Width::for_bounds(g.max_degree(), 0)
    }

    /// The streamed build of [`TableRouting::shortest_paths`] at cell type
    /// `C`.
    fn stream<C: Cell>(g: &Graph, tie: TieBreak, threads: usize) -> Vec<C> {
        const BLOCK_ROWS: usize = 64;
        let n = g.num_nodes();
        let mut ports = vec![C::NONE; n * n];
        graphkit::par::map_fold_ordered(
            n.div_ceil(BLOCK_ROWS),
            threads,
            || (BfsScratch::with_capacity(n), DistanceBlock::new()),
            |(scratch, block), b, out: &mut Vec<C>| {
                let v0 = b * BLOCK_ROWS;
                let rows = BLOCK_ROWS.min(n - v0);
                block.recompute(g, v0, rows, scratch);
                // The block's columns, `n` ports per destination: exactly
                // the table's range `v0·n .. (v0 + rows)·n`.
                out.clear();
                out.resize(n * rows, C::NONE);
                for (j, col) in out.chunks_exact_mut(n).enumerate() {
                    let v = v0 + j;
                    let row = block.row(v);
                    for (u, slot) in col.iter_mut().enumerate() {
                        let duv = row.dist(u);
                        if u == v || duv == INFINITY {
                            continue;
                        }
                        let p = Self::pick_port_with(g, |x| row.dist(x), u, v, duv, tie);
                        *slot = cell_of(p);
                    }
                }
            },
            |b, out| {
                let at = b * BLOCK_ROWS * n;
                ports[at..at + out.len()].copy_from_slice(out);
            },
        );
        ports
    }

    /// Builds shortest-path routing tables from a precomputed distance matrix.
    ///
    /// Distances towards a destination `v` are read from `v`'s own row, one
    /// contiguous slice: `g` is undirected, so `d(x, v) = d(v, x)`.
    pub fn from_distances(g: &Graph, dm: &DistanceMatrix, tie: TieBreak) -> Self {
        let n = g.num_nodes();
        let ports = ports_at!(Self::width_for(g), C => {
            let mut ports = vec![C::NONE; n * n];
            for (v, col) in ports.chunks_exact_mut(n.max(1)).enumerate() {
                let row = dm.row(v);
                for (u, slot) in col.iter_mut().enumerate() {
                    if u == v || row[u] == INFINITY {
                        continue;
                    }
                    let p = Self::pick_port_with(g, |x| row[x], u, v, row[u], tie);
                    *slot = cell_of(p);
                }
            }
            ports
        });
        TableRouting {
            ports,
            n,
            name: format!("routing-tables({tie:?})"),
        }
    }

    /// Picks the tie-broken shortest-path port of `u` towards `v`, given any
    /// oracle for distances **to `v`** (a dense-matrix column or a streamed
    /// BFS row — both produce the same [`Dist`] values, so the choice is
    /// representation-independent).
    fn pick_port_with(
        g: &Graph,
        dist_to_dest: impl Fn(NodeId) -> Dist,
        u: NodeId,
        v: NodeId,
        duv: Dist,
        tie: TieBreak,
    ) -> Port {
        // Iterate the CSR slice directly instead of collecting a candidate
        // vector: this runs for all n² (router, destination) pairs, so it
        // must not allocate.
        let candidates = || {
            g.neighbors(u)
                .iter()
                .enumerate()
                .filter(|(_, &w)| dist_to_dest(w as usize) + 1 == duv)
                .map(|(p, &w)| (p, w as usize))
        };
        debug_assert!(
            candidates().next().is_some(),
            "no shortest-path neighbour found"
        );
        match tie {
            // candidates arrive in increasing port order, so the first one
            // carries the lowest port.
            TieBreak::LowestPort => candidates().next().unwrap().0,
            TieBreak::LowestNeighbor => candidates().min_by_key(|&(_, w)| w).unwrap().0,
            TieBreak::HighestNeighbor => candidates().max_by_key(|&(_, w)| w).unwrap().0,
            TieBreak::Seeded(seed) => {
                // A small hash of (u, v, seed) selects the candidate.
                let mut h = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .wrapping_add(v as u64);
                h ^= h >> 31;
                h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 29;
                let count = candidates().count() as u64;
                candidates().nth((h % count) as usize).unwrap().0
            }
        }
    }

    /// Builds a table routing from an explicit router-major next-port matrix
    /// (`next_port[u][v]`, `usize::MAX` for "no port").  Entries on the
    /// diagonal are ignored; every other entry must be a valid port.
    pub fn from_next_ports(g: &Graph, next_port: Vec<Vec<Port>>, name: impl Into<String>) -> Self {
        let n = g.num_nodes();
        assert_eq!(next_port.len(), n);
        for (u, row) in next_port.iter().enumerate() {
            assert_eq!(row.len(), n);
            for (v, &p) in row.iter().enumerate() {
                if u != v && p != NO_PORT {
                    assert!(p < g.degree(u), "invalid port {p} at node {u} towards {v}");
                }
            }
        }
        let ports = ports_at!(Self::width_for(g), C => {
            let mut ports = vec![C::NONE; n * n];
            for (u, row) in next_port.iter().enumerate() {
                for (v, &p) in row.iter().enumerate() {
                    if u != v && p != NO_PORT {
                        ports[v * n + u] = cell_of(p);
                    }
                }
            }
            ports
        });
        TableRouting {
            ports,
            n,
            name: name.into(),
        }
    }

    /// The port stored for `(u, v)`, if any.
    #[inline]
    pub fn next_port(&self, u: NodeId, v: NodeId) -> Option<Port> {
        let at = v * self.n + u;
        with_ports!(&self.ports, t => port_of(t[at]))
    }

    /// Overrides a single table entry (used by the adversarial experiments to
    /// produce *near*-shortest-path functions, and by the mutation harness to
    /// break a table).  A port that does not fit the cell width is stored as
    /// the largest value that does, `maximum − 1`: the width rule keeps that
    /// at or above every degree, so it stays an out-of-range port, never "no
    /// port".
    pub fn set_next_port(&mut self, u: NodeId, v: NodeId, p: Port) {
        let at = v * self.n + u;
        with_ports!(&mut self.ports, t => t[at] = clamped_port(p));
    }

    /// The local behaviour of router `u` as a [`PortMap`]: a strided gather
    /// of row `u` across the destination-major columns.
    pub fn port_map(&self, g: &Graph, u: NodeId) -> PortMap {
        let ports = (0..self.n).map(|v| self.next_port(u, v)).collect();
        PortMap::new(u, g.degree(u), ports)
    }

    /// Bytes per stored port: 1, 2 or 4, the narrowest width whose maximum
    /// exceeds the graph's maximum degree.
    pub fn cell_bytes(&self) -> usize {
        fn size<C>(_: &[C]) -> usize {
            std::mem::size_of::<C>()
        }
        with_ports!(&self.ports, t => size(t))
    }

    /// Resident heap bytes of the table, counted by capacity: `n²` cells
    /// plus the name.  Compare with [`TableRouting::memory_raw`], the paper's
    /// `(n − 1)·⌈log₂ deg⌉` bits per router.
    pub fn heap_bytes(&self) -> usize {
        with_ports!(&self.ports, t => t.capacity()) * self.cell_bytes() + self.name.capacity()
    }

    /// Structural audit of the stored table against `g`: shape and port
    /// validity.  Returns human-readable findings; empty means clean.  The
    /// diagonal and "no port" entries are exempt — both mean "deliver here".
    pub fn audit(&self, g: &Graph) -> Vec<String> {
        let n = g.num_nodes();
        let cells = with_ports!(&self.ports, t => t.len());
        if self.n != n || cells != n * n {
            return vec![format!(
                "table has {cells} entries over {} vertices for a graph of {n} vertices",
                self.n
            )];
        }
        let mut findings = Vec::new();
        with_ports!(&self.ports, t => {
            for (v, col) in t.chunks_exact(n.max(1)).enumerate() {
                for (u, &c) in col.iter().enumerate() {
                    match port_of(c) {
                        Some(p) if u != v && p >= g.degree(u) => findings.push(format!(
                            "port {p} stored at node {u} towards {v} exceeds degree {}",
                            g.degree(u)
                        )),
                        _ => {}
                    }
                }
            }
        });
        findings
    }

    /// Memory report under the raw routing-table encoding
    /// (`(n−1)⌈log₂ deg⌉` bits per router).
    pub fn memory_raw(&self, g: &Graph) -> MemoryReport {
        MemoryReport::from_fn(g.num_nodes(), |u| self.port_map(g, u).raw_table_bits())
    }

    /// Memory report under the interval (run-length) encoding.
    pub fn memory_interval(&self, g: &Graph) -> MemoryReport {
        MemoryReport::from_fn(g.num_nodes(), |u| self.port_map(g, u).interval_bits())
    }
}

impl RoutingFunction for TableRouting {
    fn init(&self, _source: NodeId, dest: NodeId) -> Header {
        Header::to_dest(dest)
    }

    fn port(&self, node: NodeId, header: &Header) -> Action {
        if node == header.dest {
            return Action::Deliver;
        }
        match self.next_port(node, header.dest) {
            Some(p) => Action::Forward(p),
            // No entry: deliver locally (will be flagged as WrongDelivery by
            // the simulator, which is the honest thing to do for unreachable
            // destinations).
            None => Action::Deliver,
        }
    }

    fn init_into(&self, _source: NodeId, dest: NodeId, header: &mut Header) {
        header.dest = dest;
        header.data.clear();
    }

    // Identity header: a hop rewrites nothing.
    fn next_header_into(&self, _node: NodeId, _header: &mut Header) {}

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::route;
    use graphkit::generators;

    #[test]
    fn tables_route_along_shortest_paths_on_petersen() {
        let g = generators::petersen();
        let dm = DistanceMatrix::all_pairs(&g);
        for tie in [
            TieBreak::LowestPort,
            TieBreak::LowestNeighbor,
            TieBreak::HighestNeighbor,
            TieBreak::Seeded(3),
        ] {
            let r = TableRouting::from_distances(&g, &dm, tie);
            for u in 0..g.num_nodes() {
                for v in 0..g.num_nodes() {
                    if u != v {
                        let len = route(&g, &r, u, v).unwrap().len();
                        assert_eq!(len, dm.dist(u, v) as usize, "pair ({u},{v}) under {tie:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn tables_route_along_shortest_paths_on_random_graph() {
        let g = generators::random_connected(80, 0.06, 5);
        let dm = DistanceMatrix::all_pairs(&g);
        let r = TableRouting::from_distances(&g, &dm, TieBreak::LowestPort);
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                if u != v {
                    assert_eq!(route(&g, &r, u, v).unwrap().len(), dm.dist(u, v) as usize);
                }
            }
        }
    }

    #[test]
    fn different_tie_breaks_may_differ_but_stay_shortest() {
        let g = generators::cycle(4); // antipodal pairs have two shortest paths
        let dm = DistanceMatrix::all_pairs(&g);
        let a = TableRouting::from_distances(&g, &dm, TieBreak::LowestNeighbor);
        let b = TableRouting::from_distances(&g, &dm, TieBreak::HighestNeighbor);
        // they must disagree somewhere on the antipodal pair (0,2)
        assert_ne!(
            a.next_port(0, 2),
            b.next_port(0, 2),
            "tie-break rules should pick different shortest-path ports on C4"
        );
    }

    #[test]
    fn seeded_tiebreak_is_deterministic() {
        let g = generators::grid(5, 5);
        let dm = DistanceMatrix::all_pairs(&g);
        let a = TableRouting::from_distances(&g, &dm, TieBreak::Seeded(11));
        let b = TableRouting::from_distances(&g, &dm, TieBreak::Seeded(11));
        assert_eq!(a, b);
    }

    #[test]
    fn streamed_build_matches_dense_build_for_every_tiebreak() {
        // `shortest_paths` streams DistanceBlocks; it must agree bit for bit
        // with `from_distances` over the dense matrix — including on a
        // disconnected graph, where the unreachable entries stay empty.
        for g in [
            generators::petersen(),
            generators::cycle(4),
            generators::random_connected(97, 0.06, 9),
            generators::path(70), // spans two 64-row blocks
            generators::path(5).disjoint_union(&generators::cycle(4)),
        ] {
            let dm = DistanceMatrix::all_pairs(&g);
            for tie in [
                TieBreak::LowestPort,
                TieBreak::LowestNeighbor,
                TieBreak::HighestNeighbor,
                TieBreak::Seeded(21),
            ] {
                let streamed = TableRouting::shortest_paths(&g, tie);
                let dense = TableRouting::from_distances(&g, &dm, tie);
                assert_eq!(streamed, dense, "n = {}, {tie:?}", g.num_nodes());
            }
        }
    }

    /// The parallel build folds blocks in destination order, so the table
    /// must not depend on the worker count — pinned for every tie rule, on
    /// graphs whose size is not a multiple of the 64-row block, one of them
    /// disconnected (unreachable entries stay unset).
    #[test]
    fn shortest_paths_are_identical_at_every_thread_count() {
        for g in [
            generators::random_connected(300, 0.03, 5),
            generators::path(130).disjoint_union(&generators::cycle(40)),
        ] {
            for tie in [
                TieBreak::LowestPort,
                TieBreak::LowestNeighbor,
                TieBreak::HighestNeighbor,
                TieBreak::Seeded(21),
            ] {
                let serial = TableRouting::shortest_paths_with_threads(&g, tie, 1);
                for threads in [2, 3] {
                    let par = TableRouting::shortest_paths_with_threads(&g, tie, threads);
                    assert_eq!(
                        par,
                        serial,
                        "n = {}, {tie:?}, threads={threads}",
                        g.num_nodes()
                    );
                }
            }
        }
    }

    #[test]
    fn next_port_none_on_diagonal() {
        let g = generators::path(4);
        let r = TableRouting::shortest_paths(&g, TieBreak::LowestPort);
        assert_eq!(r.next_port(2, 2), None);
        assert!(r.next_port(0, 3).is_some());
    }

    #[test]
    fn port_map_and_memory_reports() {
        let g = generators::star(6); // centre 0 with 6 leaves
        let r = TableRouting::shortest_paths(&g, TieBreak::LowestPort);
        let centre = r.port_map(&g, 0);
        assert_eq!(centre.degree, 6);
        assert_eq!(centre.ports.iter().flatten().count(), 6);
        let mem = r.memory_raw(&g);
        // centre: 6 entries * ceil(log2 6)=3 bits = 18; leaves: 6 entries * 0 bits
        assert_eq!(mem.per_node[0], 18);
        assert_eq!(mem.local(), 18);
        assert_eq!(mem.global(), 18);
        let mem_int = r.memory_interval(&g);
        assert!(mem_int.local() > 0);
    }

    #[test]
    fn from_next_ports_round_trips() {
        let g = generators::path(3);
        let r = TableRouting::shortest_paths(&g, TieBreak::LowestPort);
        let mut next = vec![vec![NO_PORT; 3]; 3];
        for u in 0..3usize {
            for v in 0..3usize {
                if let Some(p) = r.next_port(u, v) {
                    next[u][v] = p;
                }
            }
        }
        let r2 = TableRouting::from_next_ports(&g, next, "copy");
        for u in 0..3usize {
            for v in 0..3usize {
                assert_eq!(r.next_port(u, v), r2.next_port(u, v));
            }
        }
        assert_eq!(r2.name(), "copy");
    }

    #[test]
    fn set_next_port_changes_route() {
        // On C4 both directions around the cycle reach the antipode in two
        // hops; overriding the first port steers the route the other way.
        let g = generators::cycle(4);
        let mut r = TableRouting::shortest_paths(&g, TieBreak::LowestNeighbor);
        let before = route(&g, &r, 0, 2).unwrap();
        assert_eq!(before.path, vec![0, 1, 2]);
        let p_back = g.port_to(0, 3).unwrap();
        r.set_next_port(0, 2, p_back);
        let after = route(&g, &r, 0, 2).unwrap();
        assert_eq!(after.path, vec![0, 3, 2]);
        assert_eq!(after.len(), 2);
    }

    /// The width rule at its boundary: a star whose centre has degree 254
    /// stores one-byte ports, degree 255 needs two bytes (255 is the
    /// one-byte "no port").  The table is `n²` cells either way.
    #[test]
    fn cell_width_follows_the_maximum_degree() {
        for (leaves, bytes) in [(254, 1), (255, 2)] {
            let g = generators::star(leaves);
            let r = TableRouting::shortest_paths(&g, TieBreak::LowestPort);
            let n = g.num_nodes();
            assert_eq!(r.cell_bytes(), bytes, "star({leaves})");
            // The cells plus the name's buffer.
            let cells = n * n * bytes;
            assert!(
                (cells..cells + 64).contains(&r.heap_bytes()),
                "star({leaves})"
            );
            let p = g.port_to(0, leaves).unwrap();
            assert_eq!(r.next_port(0, leaves), Some(p));
            assert!(r.audit(&g).is_empty());
        }
    }

    /// A port too large for the cells is stored as `maximum − 1`: at or
    /// above every degree, so still out of range, and the audit names it.
    #[test]
    fn set_next_port_clamps_an_oversized_port_below_the_sentinel() {
        for (leaves, stored) in [(10, 254), (300, 65534)] {
            let g = generators::star(leaves);
            let mut r = TableRouting::shortest_paths(&g, TieBreak::LowestPort);
            r.set_next_port(0, 1, usize::MAX);
            assert_eq!(r.next_port(0, 1), Some(stored), "star({leaves})");
            assert_eq!(
                r.audit(&g),
                vec![format!(
                    "port {stored} stored at node 0 towards 1 exceeds degree {leaves}"
                )]
            );
        }
    }

    #[test]
    fn audit_flags_a_table_of_another_graph() {
        let r = TableRouting::shortest_paths(&generators::path(4), TieBreak::LowestPort);
        let findings = r.audit(&generators::path(5));
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    #[should_panic]
    fn from_next_ports_rejects_invalid_port() {
        let g = generators::path(3);
        let next = vec![vec![7usize; 3]; 3];
        let _ = TableRouting::from_next_ports(&g, next, "bad");
    }
}
