//! Differential test of the engine's memoized all-pairs sweep.
//!
//! `trafficlab::run_workload` resolves an all-pairs plan destination-major:
//! one memoized chain walk per destination (`routecheck::Checker`) gives
//! every source's class and route length, and the chains' in-forest gives
//! the arc loads.  The oracle is the per-message routing loop over the same
//! pairs, handed to the engine as an explicit `WorkloadPlan::from_pairs`
//! list, which never takes the memoized path.  Over seeded small graphs ×
//! all seven registry schemes × failed views × `routeschemes::mutate`
//! corruptions, plus a hand-built exotic-header function, the two must
//! agree on outcome counts, length histograms, congestion,
//! `skipped_unreachable`, stretch bits and errors.
//!
//! Pair by pair, the static class of each pair must match the routing
//! loop's outcome: proven ↔ Delivered, livelock ↔ HopLimit, dead_port ↔
//! LinkDown or PortOutOfRange, wrong_delivery ↔ WrongDelivery.  A proven
//! canonical chain must have at most `n − 1` hops — below
//! `default_hop_limit(n)`, which is why the memo may call it delivered.

use graphkit::traversal::bfs_distances_into;
use graphkit::{generators, BfsScratch, FailureSet, Graph, GraphView, NodeId, INFINITY};
use routecheck::{Checker, SourceClass};
use routemodel::labeling::modular_complete_labeling;
use routemodel::{
    default_hop_limit, walk, Action, DeliveryOutcome, Header, RoutingError, RoutingFunction,
    TableRouting, TieBreak,
};
use routeschemes::mutate::{corrupt_instance, MutationKind};
use routeschemes::{GraphHints, SchemeKind, SchemeSpec};
use trafficlab::{run_workload, EngineConfig, WorkloadPlan, WorkloadReport, WorkloadSpec};

/// Every registry scheme on a graph it applies to; the schemes without a
/// home family run on each of the seeded random graphs.
fn cases() -> Vec<(SchemeKind, Graph, GraphHints)> {
    let mut out = Vec::new();
    for kind in SchemeKind::ALL {
        match kind {
            SchemeKind::Ecube => {
                out.push((kind, generators::hypercube(5), GraphHints::hypercube(5)));
            }
            SchemeKind::DimensionOrder => {
                out.push((kind, generators::grid(6, 7), GraphHints::grid(6, 7)));
            }
            SchemeKind::ModularComplete => {
                out.push((kind, modular_complete_labeling(17), GraphHints::none()));
            }
            _ => {
                for (n, seed) in [(36usize, 3u64), (53, 8)] {
                    let g = generators::random_connected(n, 4.0 / n as f64, seed);
                    out.push((kind, g, GraphHints::none()));
                }
            }
        }
    }
    out
}

/// The same pairs as the all-pairs plan, as an explicit list: the
/// per-message oracle.
fn list_plan(n: usize) -> WorkloadPlan {
    let pairs = (0..n)
        .flat_map(|s| (0..n).map(move |t| (s, t)))
        .filter(|&(s, t)| s != t)
        .collect();
    WorkloadPlan::from_pairs(n, pairs)
}

fn assert_same_measurements(memo: &WorkloadReport, oracle: &WorkloadReport, ctx: &str) {
    assert_eq!(memo.outcomes, oracle.outcomes, "{ctx}: outcomes");
    assert_eq!(
        memo.routed_messages, oracle.routed_messages,
        "{ctx}: routed"
    );
    assert_eq!(
        memo.skipped_unreachable, oracle.skipped_unreachable,
        "{ctx}: skipped"
    );
    assert_eq!(memo.lengths, oracle.lengths, "{ctx}: lengths");
    assert_eq!(memo.congestion, oracle.congestion, "{ctx}: congestion");
    let (a, b) = (&memo.stretch, &oracle.stretch);
    assert_eq!(
        a.max_stretch.to_bits(),
        b.max_stretch.to_bits(),
        "{ctx}: max stretch"
    );
    assert_eq!(
        a.avg_stretch.to_bits(),
        b.avg_stretch.to_bits(),
        "{ctx}: avg stretch"
    );
    assert_eq!(a.max_pair, b.max_pair, "{ctx}: max pair");
    assert_eq!(a.max_route_len, b.max_route_len, "{ctx}: max route len");
    assert_eq!(a.pairs, b.pairs, "{ctx}: pairs");
    assert_eq!(memo.blocks, oracle.blocks, "{ctx}: blocks");
    assert_eq!(
        memo.narrow_blocks, oracle.narrow_blocks,
        "{ctx}: narrow blocks"
    );
}

/// What the cases exercised: both fallbacks and every outcome.
#[derive(Default)]
struct Seen {
    /// Reachable pairs resolved from the memo.
    memo_pairs: u64,
    /// Reachable pairs whose chain left the canonical header (walked on
    /// their own).
    exotic_pairs: u64,
    /// Runs redone message by message after a port out of range.
    whole_run_fallbacks: u64,
    /// Pairs per routing-loop outcome, in `DeliveryOutcome::ALL_CODES`
    /// order, plus out-of-range errors last.
    outcomes: [u64; 5],
}

/// The engine's memoized sweep against the list-plan oracle, then every
/// pair's static class and memoized length against the routing loop.
fn differential<R: RoutingFunction + Sync + ?Sized>(
    view: GraphView<'_>,
    r: &R,
    ctx: &str,
    seen: &mut Seen,
) {
    let n = view.num_nodes();
    let all_pairs = WorkloadSpec::AllPairs.compile(n);
    let oracle_plan = list_plan(n);
    let mut checker = Checker::new();
    let bad_port = (0..n).any(|t| {
        checker.walk_dest(view, r, t);
        checker.port_out_of_range()
    });
    for (threads, block_rows, track_congestion) in [(2usize, 5usize, true), (3, 64, false)] {
        let cfg = EngineConfig {
            threads,
            block_rows,
            track_congestion,
        };
        let ctx = format!("{ctx} threads={threads} rows={block_rows}");
        let memo = run_workload(view, r, &all_pairs, &cfg);
        let oracle = run_workload(view, r, &oracle_plan, &cfg);
        match (memo, oracle) {
            (Ok(memo), Ok(oracle)) => {
                assert_same_measurements(&memo, &oracle, &ctx);
                assert!(!oracle.memoized, "{ctx}: a list plan routes per message");
                assert_eq!(memo.memoized, !bad_port, "{ctx}: memoized");
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{ctx}: errors");
                assert!(bad_port, "{ctx}: only a port out of range errs");
            }
            (a, b) => panic!("{ctx}: memoized {a:?} against per-message {b:?}"),
        }
    }
    seen.whole_run_fallbacks += u64::from(bad_port);

    let limit = default_hop_limit(n);
    let (mut bfs, mut dist) = (BfsScratch::new(), vec![0; n]);
    let mut header = Header::to_dest(0);
    for t in 0..n {
        bfs_distances_into(view, t, &mut bfs, &mut dist);
        // Memoized chains: a proven one is the delivered route, hop for hop.
        checker.walk_dest(view, r, t);
        let mut chains = Vec::with_capacity(n);
        for s in (0..n).filter(|&s| s != t) {
            chains.push((s, checker.chain(s)));
        }
        checker.check_dest(view, r, t);
        for (s, chain) in chains {
            let class = checker.class_of(s);
            let routed = walk(view, r, s, t, limit, &mut header, None);
            let pair = format!("{ctx}: {s} -> {t}");
            if dist[s] == INFINITY {
                assert_eq!(class, SourceClass::Unreachable, "{pair}");
                continue;
            }
            match routed {
                Ok((DeliveryOutcome::Delivered, hops)) => {
                    assert_eq!(class, SourceClass::Proven, "{pair}");
                    seen.outcomes[0] += 1;
                    if let Some((c, len)) = chain {
                        assert_eq!((c, len as usize), (SourceClass::Proven, hops), "{pair}");
                        assert!(hops < n && n - 1 < limit, "{pair}: {hops} hops");
                    }
                }
                Ok((DeliveryOutcome::LinkDown { .. }, _)) => {
                    assert_eq!(class, SourceClass::DeadPort, "{pair}");
                    seen.outcomes[1] += 1;
                }
                Ok((DeliveryOutcome::HopLimit { .. }, _)) => {
                    assert_eq!(class, SourceClass::Livelock, "{pair}");
                    seen.outcomes[2] += 1;
                }
                Ok((DeliveryOutcome::WrongDelivery { .. }, _)) => {
                    assert_eq!(class, SourceClass::WrongDelivery, "{pair}");
                    seen.outcomes[3] += 1;
                }
                Err(RoutingError::PortOutOfRange { .. }) => {
                    assert_eq!(class, SourceClass::DeadPort, "{pair}");
                    seen.outcomes[4] += 1;
                }
                Err(e) => panic!("{pair}: the routing loop only errs on a bad port, got {e}"),
            }
            match chain {
                Some((c, _)) => {
                    assert_eq!(c, class, "{pair}: memoized class");
                    seen.memo_pairs += 1;
                }
                None => seen.exotic_pairs += 1,
            }
        }
    }
}

#[test]
fn memoized_sweep_matches_the_per_message_loop_on_every_registry_scheme() {
    let mut seen = Seen::default();
    for (kind, g, hints) in cases() {
        let n = g.num_nodes();
        for mutation in [
            None,
            Some(MutationKind::Misroute),
            Some(MutationKind::OutOfRange),
        ] {
            let spec = SchemeSpec::default_for(kind);
            let mut inst = spec.build(&g, &hints).expect("registry scheme builds");
            if let Some(m) = mutation {
                corrupt_instance(&mut inst, &g, n as u64, m).expect("graph hosts a corruption");
            }
            for kill in [0.0, 0.12] {
                let failures = FailureSet::sample(&g, kill, 7 + n as u64);
                let view = GraphView::masked(&g, &failures);
                let ctx = format!("{} n={n} {mutation:?} kill={kill}", spec.spec_string());
                differential(view, &*inst.routing, &ctx, &mut seen);
            }
        }
    }
    let [delivered, link_down, hop_limit, wrong, out_of_range] = seen.outcomes;
    assert!(
        delivered > 0 && link_down > 0 && hop_limit > 0 && wrong > 0 && out_of_range > 0,
        "every outcome must occur: {:?}",
        seen.outcomes
    );
    assert!(
        seen.whole_run_fallbacks > 0,
        "an out-of-range corruption must force a rerun"
    );
}

/// Shortest-path table routing whose sources `s ≡ 1 (mod 3)` start with a
/// tagged header, and whose vertices `v ≡ 2 (mod 5)` tag the header they
/// pass on; every other hop clears the tag.  Chains therefore leave and
/// re-enter the canonical header, so both the per-pair fallback and pure
/// canonical chains occur toward one destination.
struct Tagged {
    inner: TableRouting,
}

impl RoutingFunction for Tagged {
    fn init(&self, source: NodeId, dest: NodeId) -> Header {
        let mut h = self.inner.init(source, dest);
        if source % 3 == 1 {
            h.data.push(1);
        }
        h
    }
    fn port(&self, node: NodeId, header: &Header) -> Action {
        self.inner.port(node, &Header::to_dest(header.dest))
    }
    fn next_header_into(&self, node: NodeId, header: &mut Header) {
        header.data.clear();
        if node % 5 == 2 {
            header.data.push(node as u64);
        }
    }
    fn next_header(&self, node: NodeId, header: &Header) -> Header {
        let mut h = header.clone();
        self.next_header_into(node, &mut h);
        h
    }
    fn name(&self) -> &str {
        "tagged-table"
    }
}

#[test]
fn exotic_headers_fall_back_per_pair() {
    let mut seen = Seen::default();
    for (n, seed) in [(30usize, 1u64), (47, 4)] {
        let g = generators::random_connected(n, 4.0 / n as f64, seed);
        let r = Tagged {
            inner: TableRouting::shortest_paths(&g, TieBreak::LowestPort),
        };
        for kill in [0.0, 0.15] {
            let failures = FailureSet::sample(&g, kill, seed);
            let view = GraphView::masked(&g, &failures);
            differential(view, &r, &format!("tagged n={n} kill={kill}"), &mut seen);
        }
        // The canonical part still resolves from the memo.
        let rep = run_workload(
            &g,
            &r,
            &WorkloadSpec::AllPairs.compile(n),
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(rep.memoized);
        assert_eq!(rep.outcomes.delivered, (n * (n - 1)) as u64);
    }
    assert!(
        seen.exotic_pairs > 0,
        "tagged chains must fall back per pair"
    );
    assert!(
        seen.memo_pairs > 0,
        "canonical chains resolve from the memo"
    );
}
