//! The universal shortest-path `k`-interval routing scheme.
//!
//! For an arbitrary connected graph the scheme (i) relabels the vertices by a
//! DFS preorder of a spanning tree — a classical heuristic that keeps subtree
//! destinations contiguous — and (ii) stores, for every arc, the destinations
//! routed through it grouped into maximal cyclic intervals.  The routing
//! function is a shortest-path one (stretch 1); what varies from graph to
//! graph is `k`, the maximum number of intervals on an arc, and therefore the
//! memory.  The paper cites this as the universal scheme whose interval count
//! "may be large but exists" — its measured memory on the worst-case families
//! is exactly what Theorem 1 says cannot be avoided.
//!
//! Construction rides on the block-streamed [`TableRouting::shortest_paths`]
//! (no dense `DistanceMatrix` is ever materialized); the table itself is the
//! scheme's own `n²` payload, which is what keeps this scheme out of the
//! `n ≥ 10^5` scenarios even though its transient memory is small.

use crate::interval::group_into_cyclic_intervals;
use crate::scheme::{BuildError, CompactScheme, GraphHints, SchemeInstance, SchemeRouting};
use graphkit::{Graph, NodeId, Port};
use routemodel::coding::bits_for_values;
use routemodel::{Action, Header, MemoryReport, RoutingFunction, TableRouting, TieBreak};

/// A shortest-path `k`-interval routing function.
#[derive(Debug, Clone)]
pub struct KIntervalRouting {
    /// Underlying shortest-path next-port table (the semantics).
    table: TableRouting,
    /// Scheme vertex labels (DFS preorder of a spanning tree).
    label: Vec<usize>,
    /// `intervals[u][p]` = number of cyclic intervals of destination labels
    /// routed from `u` through port `p`.
    intervals: Vec<Vec<usize>>,
    name: String,
}

impl KIntervalRouting {
    /// Builds the scheme on a connected graph.
    pub fn build(g: &Graph, tie: TieBreak) -> Self {
        let n = g.num_nodes();
        let table = TableRouting::shortest_paths(g, tie);
        // DFS preorder labels from vertex 0.
        let mut label = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut stack = vec![0usize];
        let mut visited = vec![false; n];
        if n > 0 {
            visited[0] = true;
        }
        while let Some(u) = stack.pop() {
            label[u] = next;
            next += 1;
            for p in (0..g.degree(u)).rev() {
                let v = g.port_target(u, p);
                if !visited[v] {
                    visited[v] = true;
                    stack.push(v);
                }
            }
        }
        assert_eq!(next, n, "graph must be connected");
        // Count intervals per arc.
        let mut intervals = vec![Vec::new(); n];
        for u in 0..n {
            let mut per_port: Vec<Vec<usize>> = vec![Vec::new(); g.degree(u)];
            for v in 0..n {
                if u == v {
                    continue;
                }
                if let Some(p) = table.next_port(u, v) {
                    per_port[p].push(label[v]);
                }
            }
            intervals[u] = per_port
                .into_iter()
                .map(|mut labels| {
                    labels.sort_unstable();
                    group_into_cyclic_intervals(&labels, n).len()
                })
                .collect();
        }
        KIntervalRouting {
            table,
            label,
            intervals,
            name: "k-interval-routing".to_string(),
        }
    }

    /// The scheme label of a vertex.
    pub fn label_of(&self, v: NodeId) -> usize {
        self.label[v]
    }

    /// The number of intervals on arc `(u, p)`.
    pub fn intervals_on_arc(&self, u: NodeId, p: Port) -> usize {
        self.intervals[u][p]
    }

    /// The maximum number of intervals over all arcs — the `k` of `k`-IRS.
    pub fn max_intervals_per_arc(&self) -> usize {
        self.intervals
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Total number of intervals stored in the network.
    pub fn total_intervals(&self) -> usize {
        self.intervals.iter().flat_map(|r| r.iter()).sum()
    }

    /// Resident heap bytes, counted by capacity: the next-port table
    /// ([`TableRouting::heap_bytes`]) plus the labels and the interval
    /// counts.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.table.heap_bytes()
            + bytes(&self.label)
            + bytes(&self.intervals)
            + self.intervals.iter().map(bytes).sum::<usize>()
            + self.name.capacity()
    }
}

impl RoutingFunction for KIntervalRouting {
    fn init(&self, source: NodeId, dest: NodeId) -> Header {
        self.table.init(source, dest)
    }

    fn port(&self, node: NodeId, header: &Header) -> Action {
        self.table.port(node, header)
    }

    fn init_into(&self, source: NodeId, dest: NodeId, header: &mut Header) {
        self.table.init_into(source, dest, header);
    }

    fn next_header_into(&self, node: NodeId, header: &mut Header) {
        self.table.next_header_into(node, header);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl SchemeRouting for KIntervalRouting {
    /// Structural audit against `g`: labels a permutation, the interval-count
    /// matrix shaped like the port space, and the underlying next-port table
    /// clean under [`TableRouting::audit`].  Returns human-readable findings;
    /// empty means clean.
    fn audit(&self, g: &Graph) -> Vec<String> {
        let n = g.num_nodes();
        let mut f = self.table.audit(g);
        let mut seen = vec![false; n];
        for (v, &l) in self.label.iter().enumerate() {
            if l >= n {
                f.push(format!("label {l} of vertex {v} out of range"));
            } else if seen[l] {
                f.push(format!("label {l} assigned to two vertices"));
            } else {
                seen[l] = true;
            }
        }
        for (u, row) in self.intervals.iter().enumerate() {
            if row.len() != g.degree(u) {
                f.push(format!(
                    "interval counts at router {u} cover {} arcs of {}",
                    row.len(),
                    g.degree(u)
                ));
            }
        }
        f
    }

    /// Overwrites the next-port entry `(v, dest)` of the underlying table
    /// (one too large for the table's cells is stored as the largest that
    /// fits, still out of range; see [`TableRouting::set_next_port`]).
    fn corrupt_entry(&mut self, v: NodeId, dest: NodeId, port: Port) -> Option<String> {
        self.table.set_next_port(v, dest, port);
        Some(format!(
            "next-port entry ({v}, {dest}) behind the interval sets"
        ))
    }

    /// Memory report: every interval costs two labels, every arc additionally
    /// names its port, and the router stores its own label.
    fn memory(&self, g: &Graph) -> Option<MemoryReport> {
        let n = g.num_nodes();
        let label_bits = u64::from(bits_for_values(n as u64));
        Some(MemoryReport::from_fn(n, |u| {
            let port_bits = u64::from(bits_for_values(g.degree(u) as u64));
            let iv: u64 = self.intervals[u].iter().map(|&c| c as u64).sum();
            label_bits + iv * 2 * label_bits + g.degree(u) as u64 * port_bits
        }))
    }
}

/// Typed construction parameters of the `k`-interval scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KIntervalConfig {
    /// Optional cap on the measured `k` (max intervals per arc): when the
    /// built scheme needs more intervals on some arc, construction fails
    /// with [`BuildError::CapExceeded`] instead of silently paying the
    /// memory.  `None` accepts whatever `k` the graph demands (the paper's
    /// "may be large but exists" universal scheme).
    pub k: Option<usize>,
    /// How to break ties among shortest-path next hops.
    pub tie: TieBreak,
}

impl Default for KIntervalConfig {
    fn default() -> Self {
        KIntervalConfig {
            k: None,
            tie: TieBreak::LowestNeighbor,
        }
    }
}

/// The universal `k`-interval routing scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct KIntervalScheme {
    pub config: KIntervalConfig,
}

impl KIntervalScheme {
    /// A fully parameterized scheme.
    pub fn with_config(config: KIntervalConfig) -> Self {
        KIntervalScheme { config }
    }

    /// The historical constructor: no `k` cap, explicit tie-break.
    pub fn new(tie: TieBreak) -> Self {
        KIntervalScheme {
            config: KIntervalConfig { k: None, tie },
        }
    }
}

impl CompactScheme for KIntervalScheme {
    fn name(&self) -> &str {
        "k-interval-routing"
    }

    fn applies_to(&self, g: &Graph, _hints: &GraphHints) -> bool {
        g.num_nodes() == 0 || graphkit::traversal::is_connected(g)
    }

    fn try_build(&self, g: &Graph, _hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        if g.num_nodes() > 0 && !graphkit::traversal::is_connected(g) {
            return Err(BuildError::Disconnected {
                scheme: "k-interval-routing",
            });
        }
        let routing = KIntervalRouting::build(g, self.config.tie);
        if let Some(cap) = self.config.k {
            let measured = routing.max_intervals_per_arc();
            if measured > cap {
                return Err(BuildError::CapExceeded {
                    scheme: "k-interval-routing",
                    cap: "k",
                    limit: cap as u64,
                    measured: measured as u64,
                });
            }
        }
        let memory = routing
            .memory(g)
            .expect("interval sets recount their memory");
        Ok(SchemeInstance::new(Box::new(routing), memory, Some(1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::{generators, DistanceMatrix};
    use routemodel::stretch_factor;

    #[test]
    fn k_interval_routing_is_shortest_path() {
        for g in [
            generators::petersen(),
            generators::hypercube(4),
            generators::random_connected(50, 0.08, 2),
            generators::maximal_outerplanar(30, 1),
        ] {
            let r = KIntervalRouting::build(&g, TieBreak::LowestNeighbor);
            let dm = DistanceMatrix::all_pairs(&g);
            let rep = stretch_factor(&g, &dm, &r).unwrap();
            assert!((rep.max_stretch - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tree_needs_one_interval_per_arc() {
        let g = generators::random_tree(60, 5);
        let r = KIntervalRouting::build(&g, TieBreak::LowestNeighbor);
        assert_eq!(
            r.max_intervals_per_arc(),
            1,
            "DFS labels give a 1-IRS on trees"
        );
    }

    #[test]
    fn path_and_cycle_are_one_interval() {
        let r = KIntervalRouting::build(&generators::path(20), TieBreak::LowestNeighbor);
        assert_eq!(r.max_intervals_per_arc(), 1);
        let r = KIntervalRouting::build(&generators::cycle(9), TieBreak::LowestNeighbor);
        assert!(
            r.max_intervals_per_arc() <= 2,
            "cycles are 1-IRS up to rounding of even antipodes"
        );
    }

    #[test]
    fn outerplanar_graphs_need_few_intervals() {
        let g = generators::maximal_outerplanar(40, 7);
        let r = KIntervalRouting::build(&g, TieBreak::LowestNeighbor);
        // The theory promises 1 interval with an optimal labeling; the DFS
        // heuristic stays small (this is a shape check, not an exact bound).
        assert!(r.max_intervals_per_arc() <= 6);
    }

    #[test]
    fn interval_memory_not_larger_than_tables_on_structured_graphs() {
        for g in [generators::path(64), generators::balanced_tree(2, 5)] {
            let kirs = KIntervalScheme::default().build(&g);
            let tables = crate::table_scheme::TableScheme::default().build(&g);
            assert!(kirs.memory.global() <= tables.memory.global());
        }
    }

    #[test]
    fn labels_form_a_permutation_and_arc_counts_exposed() {
        let g = generators::grid(4, 4);
        let r = KIntervalRouting::build(&g, TieBreak::LowestNeighbor);
        let mut labels: Vec<usize> = (0..16).map(|v| r.label_of(v)).collect();
        labels.sort_unstable();
        assert_eq!(labels, (0..16).collect::<Vec<_>>());
        let total: usize = (0..16)
            .map(|u| {
                (0..g.degree(u))
                    .map(|p| r.intervals_on_arc(u, p))
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(total, r.total_intervals());
        assert!(r.max_intervals_per_arc() >= 1);
    }

    #[test]
    fn scheme_reports_stretch_one() {
        let inst = KIntervalScheme::default().build(&generators::petersen());
        assert_eq!(inst.guaranteed_stretch, Some(1.0));
    }

    #[test]
    fn k_cap_accepts_trees_and_rejects_interval_hungry_graphs() {
        use crate::scheme::{BuildError, GraphHints};
        let hints = GraphHints::none();
        // Trees are 1-IRS under DFS labels: the tightest cap succeeds.
        let tree = generators::random_tree(40, 3);
        let capped = KIntervalScheme::with_config(KIntervalConfig {
            k: Some(1),
            ..KIntervalConfig::default()
        });
        assert!(capped.try_build(&tree, &hints).is_ok());
        // A graph whose measured k exceeds the cap fails with the typed
        // error carrying both numbers.
        let g = generators::random_connected(60, 0.08, 2);
        let measured =
            KIntervalRouting::build(&g, TieBreak::LowestNeighbor).max_intervals_per_arc();
        assert!(measured > 1, "test graph must need >1 interval somewhere");
        let err = capped.try_build(&g, &hints).unwrap_err();
        match err {
            BuildError::CapExceeded {
                cap: "k",
                limit: 1,
                measured: m,
                ..
            } => assert_eq!(m, measured as u64),
            other => panic!("expected CapExceeded, got {other:?}"),
        }
        // An exactly-fitting cap succeeds.
        let fitting = KIntervalScheme::with_config(KIntervalConfig {
            k: Some(measured),
            ..KIntervalConfig::default()
        });
        assert!(fitting.try_build(&g, &hints).is_ok());
    }

    #[test]
    fn disconnected_graph_is_a_typed_error() {
        use crate::scheme::{BuildError, GraphHints};
        let g = generators::path(4).disjoint_union(&generators::cycle(3));
        let err = KIntervalScheme::default()
            .try_build(&g, &GraphHints::none())
            .unwrap_err();
        assert!(matches!(err, BuildError::Disconnected { .. }));
    }
}
