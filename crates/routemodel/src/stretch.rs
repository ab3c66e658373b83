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
//! stretch number comes from the `trafficlab` engine instead, which walks
//! pairs source-major (per message) or destination-major (memoized chains)
//! and records them into per-worker [`StretchAccumulator`]s.
//!
//! The accumulator is **order-free**: it keeps integer route-length sums per
//! distance and compares stretches exactly, so any set of pairs, recorded in
//! any order and split across any partials merged in any order, yields the
//! same report bit for bit.  The reference, the per-message loop and the
//! memoized sweep agree by construction, not by matching iteration order.

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
    /// The smallest `(s, t)` attaining the maximum stretch.
    pub max_pair: (NodeId, NodeId),
    /// Average stretch over ordered pairs of distinct, reachable vertices.
    pub avg_stretch: f64,
    /// The longest routing path observed.
    pub max_route_len: u32,
    /// Number of ordered pairs examined.
    pub pairs: usize,
}

/// Order-free stretch accumulation over any set of routed pairs.
///
/// Per distance `δ` it keeps the integer sum `L_δ` of the route lengths
/// and the pair count; the average is `Σ_δ (L_δ / δ) / pairs`, summed in `δ`
/// order, so it does not depend on the order pairs were recorded in.  The
/// maximum stretch is compared exactly (`len · δ' > len' · δ`), ties going
/// to the smallest `(s, t)`.  Recording pairs shuffled, or splitting them
/// across partials [`StretchAccumulator::merge`]d in any order, gives a
/// bit-identical [`StretchReport`].
///
/// This type is public so external sweep engines (the `trafficlab`
/// executor in particular) can accumulate stretch against block-local BFS
/// rows, one accumulator per worker, and still produce the exact report
/// [`stretch_factor`] would over the same pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StretchAccumulator {
    /// `by_dist[δ] = (L_δ, pairs at distance δ)`.
    by_dist: Vec<(u64, u64)>,
    count: usize,
    max_len: u32,
    /// `(len, dist, s, t)` of the maximum-stretch pair so far.
    max: Option<(u32, u32, NodeId, NodeId)>,
}

impl StretchAccumulator {
    /// An empty accumulator (yields the neutral report: stretch 1.0, zero
    /// pairs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one routed pair.  `dist` must be the true distance
    /// `d_G(s, t)` (finite and positive).
    #[inline]
    pub fn record(&mut self, s: NodeId, t: NodeId, len: u32, dist: u32) {
        let d = dist as usize;
        if d >= self.by_dist.len() {
            self.by_dist.resize(d + 1, (0, 0));
        }
        let slot = &mut self.by_dist[d];
        slot.0 += u64::from(len);
        slot.1 += 1;
        self.count += 1;
        self.max_len = self.max_len.max(len);
        self.offer_max((len, dist, s, t));
    }

    /// Keeps `cand` if its stretch is greater, or equal at a smaller pair.
    #[inline]
    fn offer_max(&mut self, cand: (u32, u32, NodeId, NodeId)) {
        let better = match self.max {
            None => true,
            Some((len, dist, s, t)) => {
                let (lhs, rhs) = (
                    u64::from(cand.0) * u64::from(dist),
                    u64::from(len) * u64::from(cand.1),
                );
                lhs > rhs || (lhs == rhs && (cand.2, cand.3) < (s, t))
            }
        };
        if better {
            self.max = Some(cand);
        }
    }

    /// Adds another partial's pairs (order-free: merging partials in any
    /// order gives the same report).
    pub fn merge(&mut self, other: &StretchAccumulator) {
        if other.by_dist.len() > self.by_dist.len() {
            self.by_dist.resize(other.by_dist.len(), (0, 0));
        }
        for (a, b) in self.by_dist.iter_mut().zip(&other.by_dist) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.count += other.count;
        self.max_len = self.max_len.max(other.max_len);
        if let Some(m) = other.max {
            self.offer_max(m);
        }
    }

    /// Number of pairs recorded so far.
    pub fn pairs(&self) -> usize {
        self.count
    }

    /// Finalizes the accumulated pairs into a [`StretchReport`].
    pub fn into_report(self) -> StretchReport {
        let (max_stretch, max_pair) = match self.max {
            Some((len, dist, s, t)) => (f64::from(len) / f64::from(dist), (s, t)),
            None => (1.0, (0, 0)),
        };
        let avg_stretch = if self.count == 0 {
            1.0
        } else {
            let sum: f64 = self
                .by_dist
                .iter()
                .enumerate()
                .filter(|&(_, &(_, pairs))| pairs > 0)
                .map(|(d, &(lengths, _))| lengths as f64 / d as f64)
                .sum();
            sum / self.count as f64
        };
        StretchReport {
            max_stretch,
            max_pair,
            avg_stretch,
            max_route_len: self.max_len,
            pairs: self.count,
        }
    }
}

/// Computes the exact stretch factor by routing every ordered pair, one
/// source after the other on the calling thread, into one
/// [`StretchAccumulator`].
///
/// Fails with the first model violation encountered (loop, wrong delivery,
/// out-of-range port), in source-then-destination order.  Unreachable pairs
/// are skipped, matching the paper's restriction to connected graphs.
pub fn stretch_factor<R: RoutingFunction + Sync + ?Sized>(
    g: &Graph,
    dm: &DistanceMatrix,
    r: &R,
) -> Result<StretchReport, RoutingError> {
    let n = g.num_nodes();
    let hop_limit = default_hop_limit(n);
    let mut header = Header::to_dest(0);
    let mut acc = StretchAccumulator::new();
    for s in 0..n {
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
    }
    Ok(acc.into_report())
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
        // Of the pairs at the maximum, the smallest `(s, t)` is reported.
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

    /// Pairs with awkward length/distance ratios, some tied at the maximum
    /// (`6/2 == 9/3 == 3`), recorded from a fixed pair list.
    fn sample_pairs() -> Vec<(NodeId, NodeId, u32, u32)> {
        let mut rng = graphkit::Xoshiro256::new(5);
        let mut pairs: Vec<_> = (0..400)
            .map(|i| {
                let dist = 1 + rng.gen_range(7) as u32;
                let len = dist + rng.gen_range(2 * dist as usize) as u32;
                (i % 37, 100 + i, len, dist)
            })
            .collect();
        pairs.extend([(30, 7, 6, 2), (9, 90, 9, 3), (9, 40, 3, 1), (12, 1, 30, 10)]);
        pairs
    }

    fn bits(rep: &StretchReport) -> (u64, u64, (NodeId, NodeId), u32, usize) {
        (
            rep.max_stretch.to_bits(),
            rep.avg_stretch.to_bits(),
            rep.max_pair,
            rep.max_route_len,
            rep.pairs,
        )
    }

    fn fold(pairs: &[(NodeId, NodeId, u32, u32)]) -> StretchAccumulator {
        let mut acc = StretchAccumulator::new();
        for &(s, t, len, dist) in pairs {
            acc.record(s, t, len, dist);
        }
        acc
    }

    #[test]
    fn accumulator_is_order_free() {
        let pairs = sample_pairs();
        let reference = bits(&fold(&pairs).into_report());
        let mut rng = graphkit::Xoshiro256::new(11);
        for round in 0..20 {
            let mut shuffled = pairs.clone();
            rng.shuffle(&mut shuffled);
            assert_eq!(
                bits(&fold(&shuffled).into_report()),
                reference,
                "shuffle {round}"
            );
            // Split into partials at random cuts and merge them in a random
            // order.
            let mut cuts: Vec<usize> = (0..1 + rng.gen_range(6))
                .map(|_| rng.gen_range(shuffled.len() + 1))
                .collect();
            cuts.extend([0, shuffled.len()]);
            cuts.sort_unstable();
            let mut partials: Vec<StretchAccumulator> = cuts
                .windows(2)
                .map(|w| fold(&shuffled[w[0]..w[1]]))
                .collect();
            rng.shuffle(&mut partials);
            let mut merged = StretchAccumulator::new();
            for p in &partials {
                merged.merge(p);
            }
            assert_eq!(bits(&merged.into_report()), reference, "partials {round}");
        }
    }

    #[test]
    fn accumulator_ties_go_to_the_smallest_pair() {
        let pairs = sample_pairs();
        let rep = fold(&pairs).into_report();
        // Four recorded pairs reach stretch 3; (9, 40) is the smallest.
        assert_eq!(rep.max_stretch, 3.0);
        assert_eq!(rep.max_pair, (9, 40));
        let mut reversed = pairs;
        reversed.reverse();
        assert_eq!(fold(&reversed).into_report().max_pair, (9, 40));
        // Exact comparison: 1/3 of a hop apart is not a tie.
        let mut acc = StretchAccumulator::new();
        acc.record(0, 1, 7, 3);
        acc.record(0, 2, 9, 4);
        assert_eq!(acc.into_report().max_pair, (0, 1));
    }

    #[test]
    fn stretch_one_averages_to_exactly_one() {
        // L_δ = δ · pairs_δ, so every term is an integer and the mean is
        // exactly 1.0, whatever the mix of distances.
        let mut acc = StretchAccumulator::new();
        for d in 1..50u32 {
            for s in 0..d as usize {
                acc.record(s, 1000, d, d);
            }
        }
        let rep = acc.into_report();
        assert_eq!(rep.avg_stretch, 1.0);
        assert_eq!(rep.max_stretch, 1.0);
        assert_eq!(rep.max_pair, (0, 1000));
        assert_eq!(StretchAccumulator::new().into_report().avg_stretch, 1.0);
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
