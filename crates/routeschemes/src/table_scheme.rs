//! The universal routing-table scheme.
//!
//! Every router stores, for every destination label, the outgoing port of a
//! shortest path: `(n − 1)·⌈log₂ deg⌉ = O(n log n)` bits per router, stretch
//! factor 1.  The paper's Theorem 1 shows that, up to constant factors, this
//! is optimal for every stretch factor `s < 2`: routing tables cannot be
//! locally compressed in the worst case.

use crate::scheme::{BuildError, CompactScheme, GraphHints, SchemeInstance, SchemeRouting};
use graphkit::{Graph, NodeId, Port};
use routemodel::{TableRouting, TieBreak};

/// Shortest-path routing tables with a configurable tie-break rule.
#[derive(Debug, Clone, Copy)]
pub struct TableScheme {
    /// How to break ties among shortest-path next hops.
    pub tie: TieBreak,
}

impl Default for TableScheme {
    fn default() -> Self {
        TableScheme {
            tie: TieBreak::LowestPort,
        }
    }
}

impl TableScheme {
    /// A table scheme with the given tie-break.
    pub fn new(tie: TieBreak) -> Self {
        TableScheme { tie }
    }
}

impl CompactScheme for TableScheme {
    fn name(&self) -> &str {
        "routing-tables"
    }

    fn try_build(&self, g: &Graph, _hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        let table = TableRouting::shortest_paths(g, self.tie);
        let memory = table.memory_raw(g);
        Ok(SchemeInstance::new(Box::new(table), memory, Some(1.0)))
    }
}

/// No memory recount: a table is charged raw here and run-length by
/// [`crate::complete::AdversarialCompleteScheme`], so its report is not a
/// function of the table alone.
impl SchemeRouting for TableRouting {
    fn audit(&self, g: &Graph) -> Vec<String> {
        TableRouting::audit(self, g)
    }

    fn corrupt_entry(&mut self, v: NodeId, dest: NodeId, port: Port) -> Option<String> {
        self.set_next_port(v, dest, port);
        Some(format!("next-port entry ({v}, {dest})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::{generators, DistanceMatrix};
    use routemodel::stretch_factor;

    #[test]
    fn tables_are_universal_and_shortest_path() {
        let scheme = TableScheme::default();
        for g in [
            generators::petersen(),
            generators::random_connected(40, 0.1, 1),
            generators::balanced_tree(3, 3),
            generators::complete(15),
        ] {
            assert!(scheme.applies_to(&g, &GraphHints::none()));
            let inst = scheme.build(&g);
            let dm = DistanceMatrix::all_pairs(&g);
            let rep = stretch_factor(&g, &dm, inst.routing.as_ref()).unwrap();
            assert!((rep.max_stretch - 1.0).abs() < 1e-12);
            assert_eq!(inst.guaranteed_stretch, Some(1.0));
        }
    }

    #[test]
    fn table_memory_matches_formula() {
        let g = generators::complete(16);
        let inst = TableScheme::default().build(&g);
        // every router: 15 destinations, degree 15 -> 4 bits each
        assert_eq!(inst.memory.local(), 15 * 4);
        assert_eq!(inst.memory.global(), 16 * 15 * 4);
    }

    #[test]
    fn table_memory_on_bounded_degree_graph_is_n_log_d() {
        let g = generators::cycle(64);
        let inst = TableScheme::default().build(&g);
        // 63 destinations, degree 2 -> 1 bit per destination
        assert_eq!(inst.memory.local(), 63);
    }

    #[test]
    fn tie_break_variants_have_equal_memory_under_raw_encoding() {
        let g = generators::grid(6, 6);
        let a = TableScheme::new(TieBreak::LowestPort).build(&g);
        let b = TableScheme::new(TieBreak::HighestNeighbor).build(&g);
        assert_eq!(a.memory.global(), b.memory.global());
    }
}
