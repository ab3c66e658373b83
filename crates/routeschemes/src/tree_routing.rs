//! Routing along a single spanning tree.
//!
//! The cheapest conceivable universal scheme: pick one spanning tree, run the
//! 1-interval tree scheme on it, and ignore every non-tree edge.  Memory is
//! `O(d log n)` per router — but the stretch factor is unbounded (up to twice
//! the tree depth), which is exactly the trade-off the paper's lower bounds
//! delimit: *some* compression is possible only by giving up on stretch
//! below 2.

use crate::interval::tree::TreeIntervalRouting;
use crate::scheme::{BuildError, CompactScheme, GraphHints, SchemeInstance, SchemeRouting};
use graphkit::Graph;

/// The single-spanning-tree scheme (universal, no stretch guarantee).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanningTreeScheme {
    /// Root of the spanning tree (vertex 0 by default).
    pub root: usize,
}

impl SpanningTreeScheme {
    pub fn new(root: usize) -> Self {
        SpanningTreeScheme { root }
    }
}

impl CompactScheme for SpanningTreeScheme {
    fn name(&self) -> &str {
        "spanning-tree-routing"
    }

    fn applies_to(&self, g: &Graph, _hints: &GraphHints) -> bool {
        self.root < g.num_nodes() && graphkit::traversal::is_connected(g)
    }

    fn try_build(&self, g: &Graph, _hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        if self.root >= g.num_nodes() {
            return Err(BuildError::InvalidConfig {
                scheme: "spanning-tree-routing",
                reason: format!("root {} out of range (n = {})", self.root, g.num_nodes()),
            });
        }
        if !graphkit::traversal::is_connected(g) {
            return Err(BuildError::Disconnected {
                scheme: "spanning-tree-routing",
            });
        }
        let routing = TreeIntervalRouting::build(g, self.root);
        let memory = routing
            .memory(g)
            .expect("tree intervals recount their memory");
        Ok(SchemeInstance::new(Box::new(routing), memory, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::{generators, DistanceMatrix};
    use routemodel::stretch_factor;

    #[test]
    fn spanning_tree_routing_delivers_but_stretches() {
        let g = generators::cycle(16);
        let inst = SpanningTreeScheme::default().build(&g);
        let dm = DistanceMatrix::all_pairs(&g);
        let rep = stretch_factor(&g, &dm, inst.routing.as_ref()).unwrap();
        // Routing between the two neighbours of the root that sit on opposite
        // ends of the DFS path costs ~n-1 hops instead of 2.
        assert!(rep.max_stretch > 2.0);
        assert!(inst.guaranteed_stretch.is_none());
    }

    #[test]
    fn memory_cheaper_than_tables_on_dense_graphs() {
        let g = generators::complete(32);
        let tree = SpanningTreeScheme::default().build(&g);
        let tables = crate::table_scheme::TableScheme::default().build(&g);
        assert!(tree.memory.global() < tables.memory.global());
    }

    #[test]
    fn on_a_tree_it_is_exactly_the_tree_scheme() {
        let g = generators::random_tree(40, 2);
        let inst = SpanningTreeScheme::default().build(&g);
        let dm = DistanceMatrix::all_pairs(&g);
        let rep = stretch_factor(&g, &dm, inst.routing.as_ref()).unwrap();
        assert!((rep.max_stretch - 1.0).abs() < 1e-12);
    }
}
