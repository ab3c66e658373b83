//! Stretch factors.
//!
//! The stretch factor of a routing function `R` on `G` is
//! `s(R, G) = max_{x ≠ y} d_R(x, y) / d_G(x, y)` where `d_R` is the length of
//! the routing path produced by `R`.  The paper's Theorem 1 concerns routing
//! functions of stretch `< 2` ("each routing path is of length at most twice
//! the distance" — strictly below twice in the forcing argument, since the
//! alternative paths in the graphs of constraints have length `4 = 2·2`).
//!
//! # One reference, one engine
//!
//! [`stretch_factor`] is the plain, sequential oracle: it routes all
//! `n (n − 1)` ordered pairs through [`crate::simulate::walk`] with one
//! reused [`Header`], reading distances from a dense [`DistanceMatrix`], and
//! fails on the first routing-model violation.  Every parallel or sampled
//! stretch number comes from the `trafficlab` engine instead, which streams
//! block-local BFS rows through a [`StretchAccumulator`] per source and
//! folds them in source order — so its all-pairs report is bit-for-bit the
//! one [`stretch_factor`] returns, for every worker count and block size.

use crate::error::RoutingError;
use crate::function::RoutingFunction;
use crate::header::Header;
use crate::simulate::{default_hop_limit, walk};
use graphkit::{DistanceMatrix, Graph, NodeId};

/// Summary of the stretch behaviour of a routing function.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchReport {
    /// The stretch factor `s(R, G)`.
    pub max_stretch: f64,
    /// A pair attaining the maximum stretch.
    pub max_pair: (NodeId, NodeId),
    /// Average stretch over ordered pairs of distinct, reachable vertices.
    pub avg_stretch: f64,
    /// The longest routing path observed.
    pub max_route_len: u32,
    /// Number of ordered pairs examined.
    pub pairs: usize,
}

/// Partial stretch accumulation over a deterministic slice of the pair space
/// (one source's destinations).  Folding the partials in slice order
/// reproduces the sequential result exactly — bit-for-bit, including the
/// `f64` sum behind the average.
///
/// This type is public so external sweep engines (the `trafficlab` sharded
/// executor in particular) can accumulate stretch against block-local BFS
/// rows and still produce the exact report [`stretch_factor`] would over the
/// same pairs: record the same pairs in the same order within each slice,
/// then [`StretchAccumulator::merge_after`] the slices in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct StretchAccumulator {
    sum: f64,
    count: usize,
    max: f64,
    max_pair: (NodeId, NodeId),
    max_len: u32,
    any: bool,
}

impl StretchAccumulator {
    /// An empty accumulator (yields the neutral report: stretch 1.0, zero
    /// pairs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one routed pair; the first strictly greater stretch wins, so
    /// iteration order decides the reported argmax pair.  `dist` must be the
    /// true distance `d_G(s, t)` (finite and positive).
    pub fn record(&mut self, s: NodeId, t: NodeId, len: u32, dist: u32) {
        let stretch = f64::from(len) / f64::from(dist);
        self.sum += stretch;
        self.count += 1;
        self.max_len = self.max_len.max(len);
        if !self.any || stretch > self.max {
            self.max = stretch;
            self.max_pair = (s, t);
            self.any = true;
        }
    }

    /// Appends a later slice's partial (order matters: `self` must cover the
    /// earlier part of the pair space).
    pub fn merge_after(&mut self, later: &StretchAccumulator) {
        self.sum += later.sum;
        self.count += later.count;
        self.max_len = self.max_len.max(later.max_len);
        if later.any && (!self.any || later.max > self.max) {
            self.max = later.max;
            self.max_pair = later.max_pair;
            self.any = true;
        }
    }

    /// Number of pairs recorded so far.
    pub fn pairs(&self) -> usize {
        self.count
    }

    /// Finalizes the accumulated pairs into a [`StretchReport`].
    pub fn into_report(self) -> StretchReport {
        StretchReport {
            max_stretch: if self.any { self.max } else { 1.0 },
            max_pair: self.max_pair,
            avg_stretch: if self.count == 0 {
                1.0
            } else {
                self.sum / self.count as f64
            },
            max_route_len: self.max_len,
            pairs: self.count,
        }
    }
}

/// Computes the exact stretch factor by routing every ordered pair, one
/// source after the other on the calling thread.
///
/// Each source's pairs are summed into their own [`StretchAccumulator`] and
/// merged in source order, so the report is bit-for-bit the one the
/// `trafficlab` engine folds from its blocks.  Fails with the first model
/// violation encountered (loop, wrong delivery, out-of-range port), in
/// source-then-destination order.  Unreachable pairs are skipped, matching
/// the paper's restriction to connected graphs.
pub fn stretch_factor<R: RoutingFunction + Sync + ?Sized>(
    g: &Graph,
    dm: &DistanceMatrix,
    r: &R,
) -> Result<StretchReport, RoutingError> {
    let n = g.num_nodes();
    let hop_limit = default_hop_limit(n);
    let mut header = Header::to_dest(0);
    let mut total = StretchAccumulator::default();
    for s in 0..n {
        let mut acc = StretchAccumulator::default();
        for t in 0..n {
            if s == t || !dm.reachable(s, t) {
                continue;
            }
            let (outcome, hops) = walk(g, r, s, t, hop_limit, &mut header, None)?;
            // Strict mode: a pristine-graph sweep treats any non-delivery as
            // the matching routing error.
            if let Some(e) = outcome.into_error(s, t) {
                return Err(e);
            }
            acc.record(s, t, hops as u32, dm.dist(s, t));
        }
        total.merge_after(&acc);
    }
    Ok(total.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{dest_address_routing, Action};
    use crate::header::Header;
    use crate::simulate::route;
    use crate::table::{TableRouting, TieBreak};
    use graphkit::generators;

    #[test]
    fn shortest_path_tables_have_stretch_one() {
        for g in [
            generators::petersen(),
            generators::hypercube(4),
            generators::random_connected(50, 0.1, 3),
            generators::balanced_tree(2, 4),
        ] {
            let dm = DistanceMatrix::all_pairs(&g);
            let r = TableRouting::from_distances(&g, &dm, TieBreak::LowestPort);
            let rep = stretch_factor(&g, &dm, &r).unwrap();
            assert!((rep.max_stretch - 1.0).abs() < 1e-12);
            assert!((rep.avg_stretch - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clockwise_cycle_routing_has_known_stretch() {
        let n = 8usize;
        let g = generators::cycle(n);
        let g2 = g.clone();
        let r = dest_address_routing("cw", move |node, h: &Header| {
            if node == h.dest {
                Action::Deliver
            } else {
                Action::Forward(g2.port_to(node, (node + 1) % n).unwrap())
            }
        });
        let dm = DistanceMatrix::all_pairs(&g);
        let rep = stretch_factor(&g, &dm, &r).unwrap();
        // worst pair: neighbour reached the wrong way round: length n-1 vs 1
        assert!((rep.max_stretch - (n as f64 - 1.0)).abs() < 1e-12);
        assert_eq!(rep.max_route_len, (n - 1) as u32);
        // The first pair to reach the maximum, in source-then-destination
        // order, is the one reported.
        assert_eq!(rep.max_pair, (0, n - 1));
    }

    #[test]
    fn reports_the_first_failing_pair_error() {
        // Every route through an intermediate vertex != 0 dies with a port
        // error; the sweep must stop at the first failing pair in
        // source-then-destination order and report its error.
        let g = generators::cycle(12);
        let r = dest_address_routing("half-loopy", |node, h: &Header| {
            if node == h.dest {
                Action::Deliver
            } else if node == 0 {
                Action::Forward(0)
            } else {
                Action::Forward(usize::MAX) // out of range, flagged at once
            }
        });
        let dm = DistanceMatrix::all_pairs(&g);
        let first = (0..12)
            .flat_map(|s| (0..12).map(move |t| (s, t)))
            .filter(|&(s, t)| s != t)
            .find_map(|(s, t)| route(&g, &r, s, t).err())
            .expect("some pair fails");
        assert_eq!(stretch_factor(&g, &dm, &r).unwrap_err(), first);
    }

    #[test]
    fn stretch_on_two_vertex_graph() {
        let g = generators::path(2);
        let dm = DistanceMatrix::all_pairs(&g);
        let r = TableRouting::from_distances(&g, &dm, TieBreak::LowestPort);
        let rep = stretch_factor(&g, &dm, &r).unwrap();
        assert_eq!(rep.pairs, 2);
        assert!((rep.max_stretch - 1.0).abs() < 1e-12);
    }
}
