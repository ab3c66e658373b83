//! The classical 1-interval routing scheme on trees.
//!
//! Vertices are relabeled by a DFS preorder of the tree; the subtree rooted at
//! `v` then occupies the contiguous label range `[label(v), label(v) + |T_v| − 1]`.
//! At a router, each child arc is annotated with its subtree's interval and
//! every other label is sent to the parent — one interval per arc, hence
//! `O(d log n)` bits on a router of degree `d`, with stretch 1 on the tree.
//! This is the Table 1 entry for acyclic graphs.

use crate::mutate::{Corruption, MutationKind};
use crate::scheme::{
    BuildError, CompactScheme, GraphHints, RepairOutcome, SchemeInstance, SchemeRouting,
};
use graphkit::{Adjacency, FailureSet, Graph, GraphView, NodeId, Port};
use routemodel::coding::bits_for_values;
use routemodel::{Action, Header, MemoryReport, RoutingFunction};
use std::collections::VecDeque;

/// The 1-interval routing function on a tree (or on a spanning tree of a
/// general graph, in which case routes follow tree paths).
#[derive(Debug, Clone)]
pub struct TreeIntervalRouting {
    /// DFS preorder label of every vertex.
    label: Vec<usize>,
    /// `children[u]` = `(port, interval_lo, interval_hi)` for every tree child.
    children: Vec<Vec<(Port, usize, usize)>>,
    /// Port of `u` leading to its tree parent (`None` at the root).
    parent_port: Vec<Option<Port>>,
    root: NodeId,
    name: String,
}

impl TreeIntervalRouting {
    /// Builds the scheme over the tree edges of `g` reachable from `root`,
    /// following a DFS.  `g` itself need not be a tree: non-tree edges are
    /// simply never used (see [`crate::tree_routing`]).
    pub fn build(g: &Graph, root: NodeId) -> Self {
        let n = g.num_nodes();
        assert!(root < n);
        // Iterative DFS: a vertex's parent is the first vertex to reach it;
        // neighbours are pushed in reverse port order so that low ports are
        // explored first (deterministic labeling).
        let mut parent = vec![None; n];
        let mut reached = 1;
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            for p in (0..g.degree(u)).rev() {
                let v = g.port_target(u, p);
                if v != root && parent[v].is_none() {
                    parent[v] = Some(u);
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        assert!(
            reached == n,
            "graph must be connected to build a tree interval scheme"
        );
        let mut routing = TreeIntervalRouting {
            label: Vec::new(),
            children: Vec::new(),
            parent_port: Vec::new(),
            root,
            name: "tree-interval-routing".to_string(),
        };
        routing.relabel(g, &parent);
        routing
    }

    /// Recomputes the DFS preorder labels, the child intervals and the
    /// parent ports over the tree `parent` rooted at `self.root`, visiting
    /// the children of a vertex in ascending port order — the order in
    /// which [`TreeIntervalRouting::build`]'s DFS first reaches them.
    fn relabel(&mut self, g: &Graph, parent: &[Option<NodeId>]) {
        let n = g.num_nodes();
        let mut kids: Vec<Vec<(Port, NodeId)>> = vec![Vec::new(); n];
        for v in 0..n {
            if let Some(p) = parent[v] {
                kids[p].push((g.port_to(p, v).expect("tree edge must exist"), v));
            }
        }
        let mut label = vec![usize::MAX; n];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut stack = vec![self.root];
        while let Some(u) = stack.pop() {
            label[u] = order.len();
            order.push(u);
            kids[u].sort_unstable();
            stack.extend(kids[u].iter().rev().map(|&(_, v)| v));
        }
        debug_assert_eq!(order.len(), n, "the tree must span the graph");
        let mut subtree = vec![1usize; n];
        for &u in order.iter().rev() {
            if let Some(p) = parent[u] {
                subtree[p] += subtree[u];
            }
        }
        self.children = kids
            .iter()
            .map(|k| {
                k.iter()
                    .map(|&(port, v)| (port, label[v], label[v] + subtree[v] - 1))
                    .collect()
            })
            .collect();
        self.parent_port = (0..n)
            .map(|v| parent[v].and_then(|p| g.port_to(v, p)))
            .collect();
        self.label = label;
    }

    /// The DFS label of a vertex.
    pub fn label_of(&self, v: NodeId) -> usize {
        self.label[v]
    }
}

impl RoutingFunction for TreeIntervalRouting {
    fn init(&self, _source: NodeId, dest: NodeId) -> Header {
        // The header carries the destination's DFS label; vertex labels are
        // part of the scheme, exactly as in interval routing.
        Header::with_data(dest, vec![self.label[dest] as u64])
    }

    fn port(&self, node: NodeId, header: &Header) -> Action {
        if node == header.dest {
            return Action::Deliver;
        }
        let target = header.data[0] as usize;
        for &(port, lo, hi) in &self.children[node] {
            if lo <= target && target <= hi {
                return Action::Forward(port);
            }
        }
        match self.parent_port[node] {
            Some(p) => Action::Forward(p),
            // The root with no matching child: the destination does not exist
            // in the tree; deliver (flagged as WrongDelivery by the simulator).
            None => Action::Deliver,
        }
    }

    fn init_into(&self, _source: NodeId, dest: NodeId, header: &mut Header) {
        header.dest = dest;
        header.data.clear();
        header.data.push(self.label[dest] as u64);
    }

    // The DFS label rides unchanged for the whole route.
    fn next_header_into(&self, _node: NodeId, _header: &mut Header) {}

    fn name(&self) -> &str {
        &self.name
    }
}

impl SchemeRouting for TreeIntervalRouting {
    /// Repairs the tree after link failures: every subtree hanging off a dead
    /// parent arc is re-hung onto the surviving tree through live links, and
    /// the DFS labels/intervals are recomputed over the new parent structure
    /// (same root).
    ///
    /// Unlike the landmark repair this is *not* bit-identical to a fresh
    /// build on the masked view — the surviving parent structure is
    /// deliberately preserved so the re-hang only moves the orphaned
    /// subtrees — but routing on the repaired tree delivers along tree paths
    /// of the view exactly as a fresh build would.  `adapted_to` is not
    /// consulted: arcs that were already dead are never tree arcs, so
    /// cumulative calls with the *complete* failure set compose.
    fn repair(
        &mut self,
        g: &Graph,
        _adapted_to: &FailureSet,
        failures: &FailureSet,
    ) -> Result<RepairOutcome, BuildError> {
        let n = g.num_nodes();
        let view = GraphView::masked(g, failures);
        let parent: Vec<Option<NodeId>> = (0..n)
            .map(|v| self.parent_port[v].map(|p| g.port_target(v, p)))
            .collect();
        // A vertex is orphaned iff its own parent arc died or an ancestor's
        // did; resolved by walking up to the first vertex already classified
        // and unwinding the chain.
        let mut detached = vec![false; n];
        let mut known = vec![false; n];
        known[self.root] = true;
        let mut chain: Vec<NodeId> = Vec::new();
        for v in 0..n {
            let mut x = v;
            chain.clear();
            while !known[x] {
                chain.push(x);
                x = parent[x].expect("non-root vertex has a parent");
            }
            let mut orphaned = detached[x];
            for &c in chain.iter().rev() {
                orphaned = orphaned
                    || failures.is_dead(c, self.parent_port[c].expect("chain holds non-roots"));
                detached[c] = orphaned;
                known[c] = true;
            }
        }
        let orphans = detached.iter().filter(|&&d| d).count();
        if orphans == 0 {
            return Ok(RepairOutcome {
                vertices_touched: 0,
                landmarks_rebuilt: 0,
                full_rebuild: false,
            });
        }

        // Re-hang by multi-source BFS over live links from the surviving
        // tree (sources in ascending id, neighbours in port order — the
        // deterministic adoption rule): the first surviving-or-adopted
        // vertex to reach an orphan becomes its parent.
        let mut new_parent = parent;
        let mut adopted = vec![false; n];
        let mut queue: VecDeque<NodeId> = (0..n).filter(|&v| !detached[v]).collect();
        let mut remaining = orphans;
        while let Some(u) = queue.pop_front() {
            view.for_each_live(u, |_, z| {
                if detached[z] && !adopted[z] {
                    adopted[z] = true;
                    new_parent[z] = Some(u);
                    remaining -= 1;
                    queue.push_back(z);
                }
            });
        }
        if remaining > 0 {
            return Err(BuildError::Disconnected {
                scheme: "tree-interval-routing",
            });
        }

        self.relabel(g, &new_parent);
        Ok(RepairOutcome {
            vertices_touched: orphans,
            landmarks_rebuilt: 0,
            full_rebuild: false,
        })
    }

    /// Structural audit of the stored tree against `g`: labels a permutation,
    /// parent/child ports in range, the root parentless, every child interval
    /// well-formed (`lo ≤ hi`, in label range) and disjoint from its
    /// siblings.  Returns human-readable findings; empty means clean.
    fn audit(&self, g: &Graph) -> Vec<String> {
        let n = g.num_nodes();
        let mut f = Vec::new();
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
        if self.root >= n {
            f.push(format!("root {} out of range", self.root));
        } else if self.parent_port[self.root].is_some() {
            f.push("root has a parent port".to_string());
        }
        for u in 0..n {
            if let Some(p) = self.parent_port[u] {
                if p >= g.degree(u) {
                    f.push(format!(
                        "parent port {p} at router {u} exceeds degree {}",
                        g.degree(u)
                    ));
                }
            }
            let mut spans: Vec<(usize, usize)> = Vec::new();
            for &(port, lo, hi) in &self.children[u] {
                if port >= g.degree(u) {
                    f.push(format!(
                        "child port {port} at router {u} exceeds degree {}",
                        g.degree(u)
                    ));
                }
                if lo > hi || hi >= n {
                    f.push(format!(
                        "malformed child interval [{lo}, {hi}] at router {u}"
                    ));
                } else {
                    spans.push((lo, hi));
                }
            }
            spans.sort_unstable();
            for w in spans.windows(2) {
                if w[1].0 <= w[0].1 {
                    f.push(format!(
                        "overlapping child intervals [{}, {}] and [{}, {}] at router {u}",
                        w[0].0, w[0].1, w[1].0, w[1].1
                    ));
                }
            }
        }
        f
    }

    /// Memory report: every router stores its own label, one interval
    /// (two labels) per child arc and the parent port.
    fn memory(&self, g: &Graph) -> Option<MemoryReport> {
        let n = g.num_nodes();
        let label_bits = u64::from(bits_for_values(n as u64));
        Some(MemoryReport::from_fn(n, |u| {
            let port_bits = u64::from(bits_for_values(g.degree(u) as u64));
            let child_bits = self.children[u].len() as u64 * (2 * label_bits + port_bits);
            let parent_bits = if self.parent_port[u].is_some() {
                port_bits
            } else {
                0
            };
            label_bits + child_bits + parent_bits
        }))
    }

    /// Breaks the routing of the top vertex of one child interval at a
    /// seeded non-root router `v` with children: the interval shrinks by one
    /// from the top (the vertex falls through to the parent arc at `v`,
    /// whose parent routes it straight back down), or the child's port is
    /// sent out of range.  Every route from the root to that vertex passes
    /// its ancestor `v`.  `None` when every non-root vertex is a leaf.
    fn corrupt(&mut self, g: &Graph, seed: u64, kind: MutationKind) -> Option<Corruption> {
        let n = g.num_nodes();
        let v = (0..n)
            .map(|i| (seed as usize + i) % n)
            .find(|&v| v != self.root && !self.children[v].is_empty())?;
        let child = seed as usize % self.children[v].len();
        let (_, _, hi) = self.children[v][child];
        let description = match kind {
            MutationKind::Misroute => {
                // Child intervals never contain the root label 0.
                self.children[v][child].2 = hi - 1;
                format!("child interval {child} of router {v} shrunk by one")
            }
            MutationKind::OutOfRange => {
                self.children[v][child].0 = g.degree(v) + 7;
                format!("child port {child} of router {v} sent out of range")
            }
        };
        let dest = self
            .label
            .iter()
            .position(|&l| l == hi)
            .expect("labels form a permutation");
        Some(Corruption {
            description,
            source: self.root,
            dest,
        })
    }
}

/// The 1-interval routing *scheme* for trees: applies to trees only (use
/// [`crate::tree_routing::SpanningTreeScheme`] on general graphs).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeIntervalScheme;

impl CompactScheme for TreeIntervalScheme {
    fn name(&self) -> &str {
        "tree-1-interval-routing"
    }

    fn applies_to(&self, g: &Graph, _hints: &GraphHints) -> bool {
        graphkit::properties::is_tree(g)
    }

    fn try_build(&self, g: &Graph, _hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        if !graphkit::properties::is_tree(g) {
            return Err(BuildError::NotApplicable {
                scheme: "tree-1-interval-routing",
                reason: "only applies to trees".into(),
            });
        }
        let routing = TreeIntervalRouting::build(g, 0);
        let memory = routing
            .memory(g)
            .expect("tree intervals recount their memory");
        Ok(SchemeInstance::new(Box::new(routing), memory, Some(1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::{generators, DistanceMatrix};
    use routemodel::{route, stretch_factor};

    #[test]
    fn labels_are_a_permutation() {
        let g = generators::balanced_tree(2, 4);
        let r = TreeIntervalRouting::build(&g, 0);
        let mut labels: Vec<usize> = (0..g.num_nodes()).map(|v| r.label_of(v)).collect();
        labels.sort_unstable();
        assert_eq!(labels, (0..g.num_nodes()).collect::<Vec<_>>());
        assert_eq!(r.label_of(r.root), 0);
    }

    #[test]
    fn routes_are_shortest_on_trees() {
        for g in [
            generators::balanced_tree(3, 3),
            generators::random_tree(80, 11),
            generators::caterpillar(10, 3),
            generators::spider(5, 6),
            generators::path(40),
        ] {
            let r = TreeIntervalRouting::build(&g, 0);
            let dm = DistanceMatrix::all_pairs(&g);
            let rep = stretch_factor(&g, &dm, &r).unwrap();
            assert!(
                (rep.max_stretch - 1.0).abs() < 1e-12,
                "tree routing must be shortest-path"
            );
        }
    }

    #[test]
    fn each_arc_carries_at_most_one_interval() {
        let g = generators::random_tree(60, 3);
        let r = TreeIntervalRouting::build(&g, 0);
        for u in 0..g.num_nodes() {
            // #children intervals + (parent arc has no explicit interval)
            assert!(r.children[u].len() <= g.degree(u));
        }
    }

    #[test]
    fn memory_is_o_of_degree_log_n() {
        let g = generators::star(63); // centre of degree 63, n = 64
        let scheme = TreeIntervalScheme;
        let inst = scheme.build(&g);
        let n = g.num_nodes() as u64;
        let log_n = 64 - u64::from((n - 1).leading_zeros());
        // centre: 63 child intervals * (2*6 + 6) bits + own label
        assert_eq!(inst.memory.per_node[0], log_n + 63 * (2 * log_n + 6));
        // a leaf stores only its label and the parent port (degree 1 -> 0 bits)
        assert_eq!(inst.memory.per_node[1], log_n);
        // On bounded-degree trees the interval scheme crushes raw tables:
        // O(log n) per router versus Θ(n) on the path.
        let p = generators::path(64);
        let tree_inst = TreeIntervalScheme.build(&p);
        let table_inst = crate::table_scheme::TableScheme::default().build(&p);
        assert!(tree_inst.memory.local() * 3 < table_inst.memory.local());
    }

    #[test]
    fn scheme_rejects_non_trees() {
        let scheme = TreeIntervalScheme;
        let hints = GraphHints::none();
        assert!(!scheme.applies_to(&generators::cycle(5), &hints));
        assert!(matches!(
            scheme.try_build(&generators::cycle(5), &hints),
            Err(BuildError::NotApplicable { .. })
        ));
        assert!(scheme
            .try_build(&generators::random_tree(20, 1), &hints)
            .is_ok());
    }

    #[test]
    fn routing_on_spanning_tree_of_general_graph_stays_in_tree() {
        let g = generators::petersen();
        let r = TreeIntervalRouting::build(&g, 0);
        // All routes must terminate correctly even though g has non-tree edges.
        for s in 0..g.num_nodes() {
            for t in 0..g.num_nodes() {
                let trace = route(&g, &r, s, t).unwrap();
                assert_eq!(*trace.path.last().unwrap(), t);
            }
        }
    }

    #[test]
    fn path_tree_interval_routing_goes_straight() {
        let g = generators::path(10);
        let r = TreeIntervalRouting::build(&g, 0);
        let trace = route(&g, &r, 2, 9).unwrap();
        assert_eq!(trace.len(), 7);
        let trace = route(&g, &r, 9, 0).unwrap();
        assert_eq!(trace.len(), 9);
    }

    #[test]
    fn repair_rehangs_orphans_and_delivers_on_the_view() {
        let mut exercised = 0usize;
        for seed in [5u64, 9, 21] {
            let g = generators::random_connected(70, 0.08, seed);
            let failures = FailureSet::sample(&g, 0.06, seed + 1);
            let view = GraphView::masked(&g, &failures);
            if !graphkit::traversal::is_connected(view) {
                continue;
            }
            let mut r = TreeIntervalRouting::build(&g, 0);
            let out = r.repair(&g, &FailureSet::empty(&g), &failures).unwrap();
            assert!(!out.full_rebuild);
            // The repaired tree must only use live arcs...
            for v in 0..g.num_nodes() {
                if let Some(p) = r.parent_port[v] {
                    assert!(!failures.is_dead(v, p), "tree arc of {v} is dead");
                }
            }
            // ...keep a valid preorder labeling...
            let mut labels: Vec<usize> = (0..g.num_nodes()).map(|v| r.label_of(v)).collect();
            labels.sort_unstable();
            assert_eq!(labels, (0..g.num_nodes()).collect::<Vec<_>>());
            // ...and deliver every pair routing over the masked view.
            for s in 0..g.num_nodes() {
                for t in 0..g.num_nodes() {
                    let trace = route(view, &r, s, t).unwrap();
                    assert_eq!(*trace.path.last().unwrap(), t);
                }
            }
            if out.vertices_touched > 0 {
                exercised += 1;
            }
        }
        assert!(exercised >= 1, "at least one run must re-hang something");
    }

    #[test]
    fn repair_without_tree_damage_is_free() {
        // Kill a non-tree edge: the spanning tree of the Petersen graph from
        // root 0 never uses all 15 edges, so some failure leaves it whole.
        let g = generators::petersen();
        let mut r = TreeIntervalRouting::build(&g, 0);
        let non_tree = (0..g.num_nodes())
            .flat_map(|u| (0..g.degree(u)).map(move |p| (u, p)))
            .find_map(|(u, p)| {
                let v = g.port_target(u, p);
                let tree_arc = r.parent_port[u] == Some(p)
                    || r.parent_port[v].is_some_and(|q| g.port_target(v, q) == u);
                (!tree_arc && u < v).then_some((u as u32, v as u32))
            })
            .expect("petersen has non-tree edges");
        let before = (r.label.clone(), r.parent_port.clone());
        let failures = FailureSet::from_edges(&g, &[non_tree]);
        let out = r.repair(&g, &FailureSet::empty(&g), &failures).unwrap();
        assert_eq!(out.vertices_touched, 0);
        assert_eq!((r.label, r.parent_port), before);
    }

    #[test]
    fn repair_rejects_disconnecting_failures() {
        let g = generators::path(8);
        let mut r = TreeIntervalRouting::build(&g, 0);
        let failures = FailureSet::from_edges(&g, &[(3, 4)]);
        assert!(matches!(
            r.repair(&g, &FailureSet::empty(&g), &failures),
            Err(BuildError::Disconnected { .. })
        ));
    }
}
