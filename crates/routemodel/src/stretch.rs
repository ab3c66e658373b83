//! Stretch factors.
//!
//! The stretch factor of a routing function `R` on `G` is
//! `s(R, G) = max_{x ≠ y} d_R(x, y) / d_G(x, y)` where `d_R` is the length of
//! the routing path produced by `R`.  The paper's Theorem 1 concerns routing
//! functions of stretch `< 2` ("each routing path is of length at most twice
//! the distance" — strictly below twice in the forcing argument, since the
//! alternative paths in the graphs of constraints have length `4 = 2·2`).
//!
//! # Parallel sweep
//!
//! [`stretch_factor`] routes all `n (n − 1)` ordered pairs in work items of
//! consecutive source vertices (about 4096 pairs each), run on
//! [`graphkit::par::map_fold_ordered`] (the workspace's one parallel
//! primitive).  Every worker routes through [`crate::simulate::walk`] with
//! one reused [`Header`], so the sweep allocates nothing per pair.  Each item
//! keeps one partial per source, and the primitive folds them **in source
//! order**, so the report — `max`, the argmax pair, the running `f64`
//! average, the first error, everything — is bit-identical regardless of the
//! worker count; [`stretch_factor_with_threads`] pins the count explicitly
//! (1 = run on the calling thread), which tests use to compare the parallel
//! and sequential paths exactly.
//!
//! For large `n`, routing every pair is quadratic; [`stretch_sampled`]
//! estimates the same report over a deterministic pair sample.  The sweeps in
//! this module read distances from a dense [`DistanceMatrix`]; graphs too big
//! for the `n²` buffer are handled by the `trafficlab` engine, which streams
//! block-local BFS rows through a [`StretchAccumulator`] and reproduces the
//! all-pairs report of [`stretch_factor`] bit-for-bit.

use crate::error::RoutingError;
use crate::function::RoutingFunction;
use crate::header::Header;
use crate::simulate::{default_hop_limit, strict_hops};
use graphkit::{par, DistanceMatrix, Graph, NodeId};

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
/// (one source, or one block of sampled pairs).  Folding the partials in
/// slice order reproduces the sequential result exactly — bit-for-bit,
/// including the `f64` sum behind the average.
///
/// This type is public so external sweep engines (the `trafficlab` sharded
/// executor in particular) can accumulate stretch against block-local BFS
/// rows and still produce the exact report a dense [`stretch_factor`] sweep
/// over the same pairs would: record the same pairs in the same order within
/// each slice, then [`StretchAccumulator::merge_after`] the slices in order.
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

/// Routes every target of one source into the accumulator.
fn accumulate_source<R: RoutingFunction + ?Sized>(
    g: &Graph,
    dm: &DistanceMatrix,
    r: &R,
    s: NodeId,
    hop_limit: usize,
    header: &mut Header,
) -> Result<StretchAccumulator, RoutingError> {
    let mut acc = StretchAccumulator::default();
    for t in 0..g.num_nodes() {
        if s == t || !dm.reachable(s, t) {
            continue;
        }
        // Strict mode: a pristine-graph sweep treats any non-delivery as the
        // matching routing error.
        let len = strict_hops(g, r, s, t, hop_limit, header)?;
        acc.record(s, t, len, dm.dist(s, t));
    }
    Ok(acc)
}

/// Routed pairs per work item of the parallel sweeps: enough routing work to
/// amortize the item's handoff to the fold (see [`graphkit::par`]).
const ITEM_PAIRS: usize = 4096;

/// Computes `partial(i, header)` for every slice `i in 0..slices` on
/// `threads` workers (one reused [`Header`] each), `per_item` consecutive
/// slices per work item, and folds the partials in slice order through
/// [`par::map_fold_ordered`]; on errors, the one for the earliest slice wins
/// (matching what a sequential sweep would hit first).
fn fold_slices<F>(
    slices: usize,
    per_item: usize,
    threads: usize,
    partial: F,
) -> Result<StretchReport, RoutingError>
where
    F: Fn(usize, &mut Header) -> Result<StretchAccumulator, RoutingError> + Sync,
{
    let mut total = StretchAccumulator::default();
    let mut first_error = None;
    par::map_fold_ordered(
        slices.div_ceil(per_item),
        threads,
        || Header::to_dest(0),
        |header, item, (accs, error): &mut (Vec<StretchAccumulator>, Option<RoutingError>)| {
            accs.clear();
            *error = None;
            for i in item * per_item..((item + 1) * per_item).min(slices) {
                match partial(i, header) {
                    Ok(acc) => accs.push(acc),
                    Err(e) => {
                        *error = Some(e);
                        break;
                    }
                }
            }
        },
        |_, (accs, error)| {
            if first_error.is_none() {
                for acc in accs.iter() {
                    total.merge_after(acc);
                }
                first_error = error.take();
            }
        },
    );
    match first_error {
        Some(e) => Err(e),
        None => Ok(total.into_report()),
    }
}

/// Computes the exact stretch factor by routing every ordered pair,
/// parallelising over source vertices on [`par::default_threads`] workers.
///
/// Fails with the first model violation encountered (loop, wrong delivery,
/// out-of-range port).  Unreachable pairs are skipped, matching the paper's
/// restriction to connected graphs.
pub fn stretch_factor<R: RoutingFunction + Sync + ?Sized>(
    g: &Graph,
    dm: &DistanceMatrix,
    r: &R,
) -> Result<StretchReport, RoutingError> {
    stretch_factor_with_threads(g, dm, r, par::default_threads(g.num_nodes()))
}

/// [`stretch_factor`] with an explicit worker count (`threads <= 1` runs on
/// the calling thread).  The report is bit-identical for every `threads`
/// value — the per-source partials are folded in source order either way.
pub fn stretch_factor_with_threads<R: RoutingFunction + Sync + ?Sized>(
    g: &Graph,
    dm: &DistanceMatrix,
    r: &R,
    threads: usize,
) -> Result<StretchReport, RoutingError> {
    let n = g.num_nodes();
    let hop_limit = default_hop_limit(n);
    fold_slices(n, ITEM_PAIRS.div_ceil(n.max(1)), threads, |s, header| {
        accumulate_source(g, dm, r, s, hop_limit, header)
    })
}

/// Fixed accumulation-block size of the sampled sweep.  Per-pair stretches
/// are summed within blocks of this many pairs and the block partials are
/// folded in sample order, so the `f64` fold tree — hence every report
/// field, including the average — is independent of the worker count and of
/// the machine's core count.
const SAMPLE_BLOCK: usize = 1024;

/// Estimates the stretch report over `k` deterministically sampled ordered
/// pairs (see [`sampled_pairs`]), routing the sample in parallel on
/// [`par::default_threads`] workers.
///
/// The max/argmax/average are those *of the sample*: `max_stretch` is a
/// lower bound on the true stretch factor, and the report is bit-identical
/// for every worker count and machine (fixed-size blocks folded in sample
/// order).  Intended for graphs too large for the quadratic exact sweep.
pub fn stretch_sampled<R: RoutingFunction + Sync + ?Sized>(
    g: &Graph,
    dm: &DistanceMatrix,
    r: &R,
    k: usize,
    seed: u64,
) -> Result<StretchReport, RoutingError> {
    let threads = par::default_threads(g.num_nodes());
    stretch_sampled_with_threads(g, dm, r, k, seed, threads)
}

/// [`stretch_sampled`] with an explicit worker count (`threads <= 1` runs on
/// the calling thread); the report is bit-identical for every value.
pub fn stretch_sampled_with_threads<R: RoutingFunction + Sync + ?Sized>(
    g: &Graph,
    dm: &DistanceMatrix,
    r: &R,
    k: usize,
    seed: u64,
    threads: usize,
) -> Result<StretchReport, RoutingError> {
    let n = g.num_nodes();
    let pairs = sampled_pairs(n, k, seed);
    let hop_limit = default_hop_limit(n);
    // One partial per fixed-size block, regardless of the worker count.
    let blocks: Vec<&[(NodeId, NodeId)]> = pairs.chunks(SAMPLE_BLOCK).collect();
    fold_slices(
        blocks.len(),
        ITEM_PAIRS / SAMPLE_BLOCK,
        threads,
        |b, header| {
            let mut acc = StretchAccumulator::default();
            for &(s, t) in blocks[b] {
                if s == t || !dm.reachable(s, t) {
                    continue;
                }
                let len = strict_hops(g, r, s, t, hop_limit, header)?;
                acc.record(s, t, len, dm.dist(s, t));
            }
            Ok(acc)
        },
    )
}

/// Computes the stretch over an explicit list of ordered pairs
/// (sequentially, in list order).
pub fn stretch_over_pairs<R: RoutingFunction + ?Sized>(
    g: &Graph,
    dm: &DistanceMatrix,
    r: &R,
    pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
) -> Result<StretchReport, RoutingError> {
    let hop_limit = default_hop_limit(g.num_nodes());
    let mut header = Header::to_dest(0);
    let mut acc = StretchAccumulator::default();
    for (s, t) in pairs {
        if s == t || !dm.reachable(s, t) {
            continue;
        }
        let len = strict_hops(g, r, s, t, hop_limit, &mut header)?;
        acc.record(s, t, len, dm.dist(s, t));
    }
    Ok(acc.into_report())
}

/// Verifies that the stretch factor of `r` is at most `bound`; returns the
/// first violating pair as an error.
pub fn verify_stretch<R: RoutingFunction + ?Sized>(
    g: &Graph,
    dm: &DistanceMatrix,
    r: &R,
    bound: f64,
) -> Result<(), RoutingError> {
    let hop_limit = default_hop_limit(g.num_nodes());
    let mut header = Header::to_dest(0);
    for s in 0..g.num_nodes() {
        for t in 0..g.num_nodes() {
            if s == t || !dm.reachable(s, t) {
                continue;
            }
            let len = strict_hops(g, r, s, t, hop_limit, &mut header)?;
            let d = dm.dist(s, t);
            if f64::from(len) > bound * f64::from(d) + 1e-9 {
                return Err(RoutingError::StretchExceeded {
                    source: s,
                    dest: t,
                    route_len: len,
                    distance: d,
                    bound,
                });
            }
        }
    }
    Ok(())
}

/// A deterministic sample of `k` ordered pairs of distinct vertices,
/// used for cheap stretch estimation on large graphs.
pub fn sampled_pairs(n: usize, k: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2, "need at least two vertices to form a pair");
    let mut rng = graphkit::Xoshiro256::new(seed);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let s = rng.gen_range(n);
        let t = rng.gen_range(n);
        if s != t {
            out.push((s, t));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{dest_address_routing, Action};
    use crate::header::Header;
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
            assert!(verify_stretch(&g, &dm, &r, 1.0).is_ok());
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
        assert!(verify_stretch(&g, &dm, &r, n as f64 - 1.0).is_ok());
        assert!(verify_stretch(&g, &dm, &r, 2.0).is_err());
    }

    #[test]
    fn parallel_report_is_bit_identical_to_sequential() {
        // A non-trivial stretch profile (spanning-tree-ish routing on a
        // cycle plus chords) exercises max/argmax/average merging.
        let n = 96usize;
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
        let seq = stretch_factor_with_threads(&g, &dm, &r, 1).unwrap();
        for threads in [2, 3, 7, 64] {
            let par = stretch_factor_with_threads(&g, &dm, &r, threads).unwrap();
            assert_eq!(par.max_stretch.to_bits(), seq.max_stretch.to_bits());
            assert_eq!(par.avg_stretch.to_bits(), seq.avg_stretch.to_bits());
            assert_eq!(par.max_pair, seq.max_pair);
            assert_eq!(par.max_route_len, seq.max_route_len);
            assert_eq!(par.pairs, seq.pairs);
        }
    }

    #[test]
    fn parallel_reports_first_source_error() {
        // Every route through an intermediate vertex != 0 dies with a port
        // error; both paths must report the error of the lexicographically
        // first failing pair.
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
        let seq = stretch_factor_with_threads(&g, &dm, &r, 1).unwrap_err();
        let par = stretch_factor_with_threads(&g, &dm, &r, 4).unwrap_err();
        assert_eq!(seq, par);
    }

    #[test]
    fn verify_stretch_reports_the_offending_pair() {
        let n = 6usize;
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
        match verify_stretch(&g, &dm, &r, 1.5) {
            Err(RoutingError::StretchExceeded {
                route_len,
                distance,
                ..
            }) => {
                assert!(f64::from(route_len) > 1.5 * f64::from(distance));
            }
            other => panic!("expected stretch violation, got {other:?}"),
        }
    }

    #[test]
    fn stretch_over_sampled_pairs_close_to_exact_for_tables() {
        let g = generators::random_connected(60, 0.08, 9);
        let dm = DistanceMatrix::all_pairs(&g);
        let r = TableRouting::from_distances(&g, &dm, TieBreak::LowestNeighbor);
        let pairs = sampled_pairs(g.num_nodes(), 200, 4);
        let rep = stretch_over_pairs(&g, &dm, &r, pairs.iter().copied()).unwrap();
        assert!((rep.max_stretch - 1.0).abs() < 1e-12);
        assert_eq!(rep.pairs, 200);
    }

    #[test]
    fn stretch_sampled_matches_stretch_over_pairs() {
        let g = generators::random_connected(80, 0.06, 21);
        let dm = DistanceMatrix::all_pairs(&g);
        let r = TableRouting::from_distances(&g, &dm, TieBreak::LowestPort);
        let k = 500;
        let seed = 11;
        let direct = stretch_over_pairs(&g, &dm, &r, sampled_pairs(80, k, seed)).unwrap();
        let sampled = stretch_sampled(&g, &dm, &r, k, seed).unwrap();
        assert_eq!(sampled.pairs, direct.pairs);
        assert_eq!(sampled.max_stretch.to_bits(), direct.max_stretch.to_bits());
        assert_eq!(sampled.max_route_len, direct.max_route_len);
    }

    #[test]
    fn sampled_report_bit_identical_across_thread_counts() {
        // Enough pairs for several SAMPLE_BLOCK blocks, a routing function
        // with non-trivial per-pair stretches, and explicit worker counts:
        // the fixed-block fold must make every field (including the f64
        // average) independent of the parallelism.
        let n = 64usize;
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
        let k = 3 * super::SAMPLE_BLOCK + 123;
        let seq = stretch_sampled_with_threads(&g, &dm, &r, k, 5, 1).unwrap();
        for threads in [2, 3, 8, 100] {
            let par = stretch_sampled_with_threads(&g, &dm, &r, k, 5, threads).unwrap();
            assert_eq!(par.avg_stretch.to_bits(), seq.avg_stretch.to_bits());
            assert_eq!(par.max_stretch.to_bits(), seq.max_stretch.to_bits());
            assert_eq!(par.max_pair, seq.max_pair);
            assert_eq!(par.max_route_len, seq.max_route_len);
            assert_eq!(par.pairs, seq.pairs);
        }
        assert_eq!(seq.pairs, k);
    }

    #[test]
    fn sampled_pairs_are_valid() {
        let pairs = sampled_pairs(10, 50, 7);
        assert_eq!(pairs.len(), 50);
        assert!(pairs.iter().all(|&(s, t)| s != t && s < 10 && t < 10));
        assert_eq!(sampled_pairs(10, 50, 7), pairs, "deterministic per seed");
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
