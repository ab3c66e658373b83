//! Verification that a matrix of constraints really constrains every
//! near-shortest-path routing function.
//!
//! Two layers of checking are provided:
//!
//! * [`verify_forcing_structure`] checks the *graph-theoretic* facts behind
//!   Lemma 2 on a [`ConstraintGraph`]: `d(a_i, b_j) = 2`, the shortest path
//!   is unique and goes through `c_{i, m_ij}`, and every alternative first
//!   hop is at distance `≥ 3` from `b_j` (so every alternative path has
//!   length `≥ 4 = 2 · d(a_i, b_j)`, which no routing function of stretch
//!   `< 2` may use);
//! * [`verify_routing_respects_constraints`] runs an actual routing function
//!   and checks that `P(a_i, I(a_i, b_j))` is the forced port, i.e. that the
//!   constrained routers *behave* as the matrix predicts — this is the bridge
//!   the reconstruction argument of Theorem 1 stands on;
//! * [`constraint_matrix_of_shortest_paths`] goes the other way: given any
//!   graph and candidate sets `A`, `B`, it extracts the shortest-path
//!   constraint matrix when every pair is forced (used for the Petersen
//!   example of Figure 1).

use crate::graph_of_constraints::ConstraintGraph;
use crate::matrix::ConstraintMatrix;
use graphkit::traversal::{all_shortest_paths, BLOCK_SOURCES};
use graphkit::{BfsScratch, DistanceBlock, DistanceRow, Graph, NodeId};
use routemodel::simulate::first_port;
use routemodel::RoutingFunction;
use std::convert::Infallible;

/// Calls `visit(j, row)` for every target `b_j` in order `j = 0, 1, …`, with
/// `row` the BFS distances from `b_j`.  The rows come from
/// [`DistanceBlock`]s of up to 64 targets, one per maximal run of
/// consecutive target ids ([`ConstraintGraph::build`] lays all targets out as
/// `p..p + q`, so that is one traversal per 64 targets).  Stops at the first
/// error `visit` returns.
fn for_each_target_row<E>(
    cg: &ConstraintGraph,
    mut visit: impl FnMut(usize, DistanceRow<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let g = &cg.graph;
    let targets = &cg.targets;
    let mut scratch = BfsScratch::new();
    let mut block = DistanceBlock::new();
    let mut j = 0;
    while j < targets.len() {
        let first = targets[j];
        let mut rows = 1;
        while rows < BLOCK_SOURCES && j + rows < targets.len() && targets[j + rows] == first + rows
        {
            rows += 1;
        }
        block.recompute(g, first, rows, &mut scratch);
        for k in 0..rows {
            visit(j + k, block.row(first + k))?;
        }
        j += rows;
    }
    Ok(())
}

/// Checks the structural forcing property of a graph of constraints
/// (the content of Lemma 2).  Returns a description of the first violation.
pub fn verify_forcing_structure(cg: &ConstraintGraph) -> Result<(), String> {
    cg.check_port_labels()?;
    let g = &cg.graph;
    for_each_target_row(cg, |j, dist_from_b| {
        for i in 0..cg.p() {
            let a = cg.constrained[i];
            if dist_from_b.dist(a) != 2 {
                return Err(format!(
                    "d(a_{i}, b_{j}) = {} instead of 2",
                    dist_from_b.dist(a)
                ));
            }
            let forced_middle = g.port_target(a, cg.forced_port(i, j));
            if dist_from_b.dist(forced_middle) != 1 {
                return Err(format!(
                    "forced middle vertex of (a_{i}, b_{j}) is not adjacent to b_{j}"
                ));
            }
            for &x in g.neighbors(a) {
                let x = x as usize;
                if x != forced_middle && dist_from_b.dist(x) < 3 {
                    return Err(format!(
                        "alternative neighbour {x} of a_{i} is at distance {} < 3 from b_{j}: \
                         a stretch-<2 routing could avoid the forced arc",
                        dist_from_b.dist(x)
                    ));
                }
            }
        }
        Ok(())
    })
}

/// The largest stretch bound under which the matrix is forcing on its graph
/// of constraints: any routing function of stretch **strictly below**
/// `forcing_stretch_bound` must use the forced ports.  For the Lemma 2
/// construction this is `4 / 2 = 2`.
pub fn forcing_stretch_bound(cg: &ConstraintGraph) -> f64 {
    // shortest alternative route length / distance, minimised over pairs
    let g = &cg.graph;
    let mut bound = f64::INFINITY;
    let Ok(()) = for_each_target_row::<Infallible>(cg, |j, dist_from_b| {
        for i in 0..cg.p() {
            let a = cg.constrained[i];
            let forced_middle = g.port_target(a, cg.forced_port(i, j));
            let d = f64::from(dist_from_b.dist(a));
            for &x in g.neighbors(a) {
                let x = x as usize;
                if x != forced_middle {
                    let alt = 1.0 + f64::from(dist_from_b.dist(x));
                    bound = bound.min(alt / d);
                }
            }
        }
        Ok(())
    });
    bound
}

/// Checks that a routing function uses the forced port of every
/// `(a_i, b_j)` pair.  (The caller is responsible for the stretch premise —
/// see [`verify_routing_respects_constraints_with_stretch`].)
pub fn verify_routing_respects_constraints<R: RoutingFunction + ?Sized>(
    cg: &ConstraintGraph,
    r: &R,
) -> Result<(), String> {
    for i in 0..cg.p() {
        for j in 0..cg.q() {
            let a = cg.constrained[i];
            let b = cg.targets[j];
            let used = first_port(r, a, b)
                .ok_or_else(|| format!("routing function delivers {b} at {a} without moving"))?;
            let forced = cg.forced_port(i, j);
            if used != forced {
                return Err(format!(
                    "pair (a_{i}, b_{j}): routing uses port {} but the matrix forces port {} \
                     (paper labels {} vs {})",
                    used,
                    forced,
                    used + 1,
                    forced + 1
                ));
            }
        }
    }
    Ok(())
}

/// Full Lemma 2 statement for one concrete routing function: verifies that
/// `r` has stretch `< 2` on the constrained pairs, and that it then uses the
/// forced ports.
pub fn verify_routing_respects_constraints_with_stretch<R: RoutingFunction + ?Sized>(
    cg: &ConstraintGraph,
    r: &R,
) -> Result<(), String> {
    let g = &cg.graph;
    for i in 0..cg.p() {
        for j in 0..cg.q() {
            let a = cg.constrained[i];
            let b = cg.targets[j];
            let trace = routemodel::route(g, r, a, b).map_err(|e| e.to_string())?;
            let d = f64::from(graphkit::traversal::bfs_distances(g, a)[b]);
            if (trace.len() as f64) >= 2.0 * d {
                return Err(format!(
                    "routing function has stretch >= 2 on the pair (a_{i}, b_{j}); \
                     the forcing premise does not apply"
                ));
            }
        }
    }
    verify_routing_respects_constraints(cg, r)
}

/// Extracts the shortest-path constraint matrix of the vertex sets `A`, `B`
/// on an arbitrary graph: entry `(i, j)` is the (1-based) port that **every**
/// shortest path from `A[i]` to `B[j]` must take first.  Returns `None` if
/// some pair admits shortest paths through two different first arcs (no
/// forcing) or if some pair coincides or is unreachable.
pub fn constraint_matrix_of_shortest_paths(
    g: &Graph,
    a: &[NodeId],
    b: &[NodeId],
) -> Option<ConstraintMatrix> {
    let mut rows = Vec::with_capacity(a.len());
    for &ai in a {
        let mut row = Vec::with_capacity(b.len());
        for &bj in b {
            if ai == bj {
                return None;
            }
            let paths = all_shortest_paths(g, ai, bj);
            if paths.is_empty() {
                return None;
            }
            let first_hop = paths[0][1];
            if !paths.iter().all(|p| p[1] == first_hop) {
                return None;
            }
            let port = g.port_to(ai, first_hop)?;
            row.push(port as u32 + 1);
        }
        rows.push(row);
    }
    Some(ConstraintMatrix::from_rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::generators;
    use routemodel::{TableRouting, TieBreak};

    fn example() -> ConstraintGraph {
        let m = ConstraintMatrix::from_rows(vec![
            vec![1, 2, 1, 3, 2],
            vec![1, 1, 2, 2, 1],
            vec![2, 1, 3, 1, 4],
        ]);
        ConstraintGraph::build(&m)
    }

    #[test]
    fn forcing_structure_holds_for_lemma2_graphs() {
        let cg = example();
        assert!(verify_forcing_structure(&cg).is_ok());
        assert!((forcing_stretch_bound(&cg) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn forcing_structure_holds_for_random_matrices_and_padding() {
        for seed in 0..8u64 {
            let m = ConstraintMatrix::random(5, 7, 4, seed);
            let mut cg = ConstraintGraph::build(&m);
            assert!(verify_forcing_structure(&cg).is_ok(), "seed {seed}");
            cg.pad_to_order(cg.graph.num_nodes() + 11);
            assert!(verify_forcing_structure(&cg).is_ok(), "padded, seed {seed}");
        }
    }

    /// The forcing check as one allocating BFS per target, in `(j, i)`
    /// order: the reference the block-streamed check must agree with.
    fn per_target_forcing(cg: &ConstraintGraph) -> Result<(), String> {
        cg.check_port_labels()?;
        let g = &cg.graph;
        for j in 0..cg.q() {
            let dist_from_b = graphkit::traversal::bfs_distances(g, cg.targets[j]);
            for i in 0..cg.p() {
                let a = cg.constrained[i];
                if dist_from_b[a] != 2 {
                    return Err(format!("d(a_{i}, b_{j}) = {} instead of 2", dist_from_b[a]));
                }
                let forced_middle = g.port_target(a, cg.forced_port(i, j));
                if dist_from_b[forced_middle] != 1 {
                    return Err(format!(
                        "forced middle vertex of (a_{i}, b_{j}) is not adjacent to b_{j}"
                    ));
                }
                for &x in g.neighbors(a) {
                    let x = x as usize;
                    if x != forced_middle && dist_from_b[x] < 3 {
                        return Err(format!(
                            "alternative neighbour {x} of a_{i} is at distance {} < 3 from b_{j}: \
                             a stretch-<2 routing could avoid the forced arc",
                            dist_from_b[x]
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn block_streamed_check_reports_the_first_violation_of_the_per_target_check() {
        // 150 targets: three blocks of consecutive ids, the last one partial.
        let m = ConstraintMatrix::random(5, 150, 4, 7);
        let pristine = ConstraintGraph::build(&m);
        assert!(verify_forcing_structure(&pristine).is_ok());
        let mut cases = Vec::new();
        // Shortcuts in the second and third blocks, added out of order.
        for pairs in [
            vec![(3, 140), (1, 70)],
            vec![(0, 64), (4, 64)],
            vec![(2, 149)],
        ] {
            let mut cg = pristine.clone();
            for (i, j) in pairs {
                cg.graph.add_edge(cg.constrained[i], cg.targets[j]);
            }
            cases.push(cg);
        }
        // Targets out of id order split the runs into shorter blocks.
        let mut shuffled = pristine.clone();
        shuffled.targets.swap(10, 100);
        shuffled.targets.swap(63, 64);
        cases.push(shuffled);
        for cg in &cases {
            let expected = per_target_forcing(cg);
            assert!(expected.is_err());
            assert_eq!(verify_forcing_structure(cg), expected);
        }
    }

    #[test]
    fn every_shortest_path_tie_break_respects_the_constraints() {
        let cg = example();
        for tie in [
            TieBreak::LowestPort,
            TieBreak::LowestNeighbor,
            TieBreak::HighestNeighbor,
            TieBreak::Seeded(1),
            TieBreak::Seeded(2),
            TieBreak::Seeded(99),
        ] {
            let r = TableRouting::shortest_paths(&cg.graph, tie);
            assert!(
                verify_routing_respects_constraints(&cg, &r).is_ok(),
                "tie-break {tie:?} violated the forced ports"
            );
            assert!(verify_routing_respects_constraints_with_stretch(&cg, &r).is_ok());
        }
    }

    #[test]
    fn a_routing_that_avoids_the_forced_arc_is_detected_and_cannot_keep_stretch_below_two() {
        // Force a_0 to route towards b_0 through a *different* middle vertex.
        // The constraint check must flag the pair, and the full check (which
        // also verifies the stretch premise) must reject the routing function
        // as well: avoiding the forced arc makes a sub-2-stretch route to b_0
        // impossible, since every alternative a_0-b_0 path has length >= 4.
        let cg = example();
        let g = &cg.graph;
        let mut r = TableRouting::shortest_paths(g, TieBreak::LowestPort);
        let a0 = cg.constrained[0];
        let b0 = cg.targets[0];
        let forced = cg.forced_port(0, 0);
        // pick any other port of a_0
        let other = (0..g.degree(a0)).find(|&p| p != forced).unwrap();
        r.set_next_port(a0, b0, other);
        assert!(verify_routing_respects_constraints(&cg, &r).is_err());
        assert!(verify_routing_respects_constraints_with_stretch(&cg, &r).is_err());
    }

    #[test]
    fn tampered_graph_fails_structure_check() {
        // Add a shortcut edge a_0 - b_0: the distance drops to 1 and the
        // structure check must notice.
        let mut cg = example();
        cg.graph.add_edge(cg.constrained[0], cg.targets[0]);
        assert!(verify_forcing_structure(&cg).is_err());
    }

    #[test]
    fn shortcut_between_middle_vertices_breaks_forcing() {
        // Connect two middle vertices of the same row: a path
        // a_i - c - c' - b_j of length 3 < 4 appears, so the structure check
        // must reject the graph (it is no longer a matrix of constraints for
        // stretch < 2 ... unless the alternative is still >= 3; choose c'
        // adjacent to a target to make it 3).
        let m = ConstraintMatrix::from_rows(vec![vec![1, 2]]);
        let mut cg = ConstraintGraph::build(&m);
        let c1 = cg.middle_vertex(0, 1).unwrap();
        let c2 = cg.middle_vertex(0, 2).unwrap();
        cg.graph.add_edge(c1, c2);
        assert!(verify_forcing_structure(&cg).is_err());
    }

    #[test]
    fn petersen_pairs_are_all_forced() {
        // Girth 5 and diameter 2: every ordered pair of distinct vertices has
        // a unique shortest path, so any choice of A and B yields a
        // shortest-path constraint matrix.
        let g = generators::petersen();
        let a: Vec<usize> = (0..5).collect();
        let b: Vec<usize> = (5..10).collect();
        let m = constraint_matrix_of_shortest_paths(&g, &a, &b).unwrap();
        assert_eq!(m.num_rows(), 5);
        assert_eq!(m.num_cols(), 5);
        assert!(m.max_entry() <= 3, "Petersen vertices have degree 3");
    }

    #[test]
    fn unforced_pairs_are_rejected() {
        // On C4, antipodal pairs have two shortest paths with different first
        // arcs: no constraint matrix exists for A = {0}, B = {2}.
        let g = generators::cycle(4);
        assert!(constraint_matrix_of_shortest_paths(&g, &[0], &[2]).is_none());
        // Overlapping sets are rejected too.
        assert!(constraint_matrix_of_shortest_paths(&g, &[1], &[1]).is_none());
        // Adjacent pairs are forced (the single edge).
        assert!(constraint_matrix_of_shortest_paths(&g, &[0], &[1]).is_some());
    }

    #[test]
    fn disconnected_pairs_are_rejected() {
        let g = generators::path(2).disjoint_union(&generators::path(2));
        assert!(constraint_matrix_of_shortest_paths(&g, &[0], &[3]).is_none());
    }
}
