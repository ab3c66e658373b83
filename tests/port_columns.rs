//! Pin of `RoutingFunction::port_columns`, the bulk port function the
//! static checker and the engine's all-pairs sweep walk from.
//!
//! For every registry scheme, on the families `tests/sweep_differential.rs`
//! uses, pristine and after each `routeschemes::mutate` corruption, on the
//! as-built instance and (for the schemes that repair) the instance
//! repaired to a `FailureSet::sample` view, the columns of every block of
//! canonical headers must equal the per-vertex `port` encoding: `u32::MAX`
//! for deliver, the port otherwise, clamped to `u32::MAX − 1`.  The
//! landmark scheme overrides the method with a router-by-router pass over
//! its cluster lists; the headers it must still answer exactly — an empty
//! payload, a home that is no landmark, the wrong landmark, destinations
//! that are not consecutive, the strict cluster rule's handoff entries —
//! are pinned one by one.  `Checker::walk_dests`, which loads the columns
//! chunk by chunk, must classify every pair as one-destination walks do.

use graphkit::{generators, FailureSet, Graph, GraphView, NodeId};
use routecheck::{Checker, SourceClass};
use routemodel::function::{decode_action, dest_address_routing, encode_action};
use routemodel::labeling::modular_complete_labeling;
use routemodel::{Action, Header, RoutingFunction};
use routeschemes::landmark::LandmarkRouting;
use routeschemes::mutate::{corrupt_instance, MutationKind};
use routeschemes::{ClusterRule, GraphHints, LandmarkConfig, SchemeKind, SchemeSpec};
use std::ops::ControlFlow;

/// Every registry scheme on a graph it applies to (the families of the
/// sweep differential test).
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

/// `port_columns` over `headers` against one `port` call per entry.
fn assert_columns<R: RoutingFunction + ?Sized>(r: &R, headers: &[Header], n: usize, ctx: &str) {
    let mut got = vec![7u32; headers.len() * n];
    r.port_columns(headers, n, &mut got);
    for (j, h) in headers.iter().enumerate() {
        for v in 0..n {
            assert_eq!(
                got[j * n + v],
                encode_action(r.port(v, h)),
                "{ctx}: P({v}, {h:?})"
            );
        }
    }
}

/// The canonical header of destination `d`: the init of the lowest
/// non-destination source, as the checker keys its memo.
fn canonical<R: RoutingFunction + ?Sized>(r: &R, n: usize, d: NodeId) -> Header {
    r.init(usize::from(d == 0 && n > 1), d)
}

/// Every block of `width` consecutive canonical headers, plus one block of
/// all of them.
fn assert_canonical_blocks<R: RoutingFunction + ?Sized>(r: &R, n: usize, ctx: &str) {
    let heads: Vec<Header> = (0..n).map(|d| canonical(r, n, d)).collect();
    for width in [1usize, 5, 16] {
        for block in heads.chunks(width) {
            assert_columns(r, block, n, &format!("{ctx} width={width}"));
        }
    }
    assert_columns(r, &heads, n, &format!("{ctx} all"));
}

#[test]
fn columns_equal_the_per_vertex_port_on_every_registry_scheme() {
    let mut repaired = Vec::new();
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
            let ctx = format!("{} n={n} {mutation:?}", spec.spec_string());
            assert_canonical_blocks(&*inst.routing, n, &ctx);
            // The first sampled failure set the scheme repairs to (a
            // disconnected view, or a scheme without repair, refuses).
            let repairs = (0..8u64).find(|&seed| {
                mutation.is_none()
                    && inst
                        .repair(&g, &FailureSet::sample(&g, 0.06, seed + n as u64))
                        .is_ok()
            });
            if repairs.is_some() {
                assert_canonical_blocks(&*inst.routing, n, &format!("{ctx} repaired"));
                repaired.push(kind);
            }
        }
    }
    for kind in [SchemeKind::Landmark, SchemeKind::SpanningTree] {
        assert!(
            repaired.iter().filter(|&&k| k == kind).count() == 2,
            "{kind:?} must repair on both random graphs, repaired {repaired:?}"
        );
    }
}

#[test]
fn landmark_columns_answer_every_header_as_port_does() {
    for (n, seed) in [(60usize, 2u64), (97, 5)] {
        let g = generators::random_connected(n, 4.0 / n as f64, seed);
        for rule in [ClusterRule::Inclusive, ClusterRule::Strict] {
            let cfg = LandmarkConfig {
                cluster_rule: rule,
                ..LandmarkConfig::default()
            };
            let r = LandmarkRouting::build_with(&g, &cfg);
            let ctx = format!("landmark n={n} {rule:?}");
            assert_canonical_blocks(&r, n, &ctx);
            let landmarks = r.landmarks().to_vec();
            let not_landmark = (0..n).find(|v| !landmarks.contains(v)).unwrap();
            let lo = 7;
            let block =
                |f: &dyn Fn(NodeId) -> Header| -> Vec<Header> { (lo..lo + 16).map(f).collect() };
            let wrong = |d: NodeId| {
                let home = r.home_of(d);
                *landmarks.iter().find(|&&l| l != home).unwrap() as u64
            };
            let cases: [(&str, Vec<Header>); 6] = [
                ("empty payload", block(&|d| Header::to_dest(d))),
                (
                    "non-landmark home",
                    block(&|d| Header::with_data(d, vec![not_landmark as u64])),
                ),
                (
                    "wrong landmark",
                    block(&|d| Header::with_data(d, vec![wrong(d)])),
                ),
                (
                    "extra payload words",
                    block(&|d| Header::with_data(d, vec![r.home_of(d) as u64, 3])),
                ),
                (
                    "non-consecutive destinations",
                    [9usize, 3, 40, 3, n - 1]
                        .iter()
                        .map(|&d| r.init(0, d))
                        .collect(),
                ),
                (
                    "mixed payloads",
                    block(&|d| match d % 3 {
                        0 => Header::to_dest(d),
                        1 => Header::with_data(d, vec![wrong(d)]),
                        _ => r.init(0, d),
                    }),
                ),
            ];
            for (what, headers) in cases {
                assert_columns(&r, &headers, n, &format!("{ctx} {what}"));
            }
            // A block that is every landmark's own home set, so the strict
            // rule's handoff entries and each `d == w` delivery are hit.
            for &l in &landmarks {
                let heads: Vec<Header> = (l..n.min(l + 16)).map(|d| r.init(0, d)).collect();
                assert_columns(&r, &heads, n, &format!("{ctx} block at landmark {l}"));
            }
        }
    }
}

#[test]
fn ports_beyond_u32_clamp_below_the_deliver_code() {
    let g = generators::cycle(6);
    let r = dest_address_routing("wild", |node, h: &Header| match node {
        _ if node == h.dest => Action::Deliver,
        0 => Action::Forward(usize::MAX),
        1 => Action::Forward(u32::MAX as usize),
        2 => Action::Forward(u32::MAX as usize - 1),
        _ => Action::Forward(0),
    });
    let heads: Vec<Header> = (0..6).map(Header::to_dest).collect();
    let mut cols = vec![0u32; 6 * 6];
    r.port_columns(&heads, 6, &mut cols);
    let col = &cols[5 * 6..];
    assert_eq!(
        col[0..3],
        [u32::MAX - 1; 3],
        "huge ports clamp to u32::MAX − 1"
    );
    assert_eq!(col[3], 0);
    assert_eq!(col[5], u32::MAX, "deliver at the destination");
    assert_eq!(
        decode_action(col[0]),
        Action::Forward(u32::MAX as usize - 1)
    );
    assert_columns(&r, &heads, 6, "wild");
    // The clamped port is still out of range: the checker calls it a dead
    // port, never a delivery.
    let mut checker = Checker::new();
    let rep = checker.check_dest(GraphView::full(&g), &r, 5);
    assert_eq!(checker.class_of(0), SourceClass::DeadPort);
    assert_eq!(checker.class_of(1), SourceClass::DeadPort);
    assert!(checker.port_out_of_range());
    assert_eq!(rep.counts.wrong_delivery, 0);
}

#[test]
fn walking_a_block_equals_walking_each_destination() {
    let g = generators::random_connected(70, 4.0 / 70.0, 11);
    let n = g.num_nodes();
    for kind in [
        SchemeKind::Landmark,
        SchemeKind::Table,
        SchemeKind::SpanningTree,
    ] {
        let mut inst = SchemeSpec::default_for(kind)
            .build(&g, &GraphHints::none())
            .unwrap();
        corrupt_instance(&mut inst, &g, 3, MutationKind::Misroute).unwrap();
        let r = &*inst.routing;
        let failures = FailureSet::sample(&g, 0.1, 4);
        let view = GraphView::masked(&g, &failures);
        let mut one = Checker::new();
        let mut expected = Vec::new();
        for d in 0..n {
            one.walk_dest(view, r, d);
            expected.push(
                (0..n)
                    .map(|s| (one.class_of(s), one.chain(s)))
                    .collect::<Vec<_>>(),
            );
        }
        let mut block = Checker::new();
        let mut seen = Vec::new();
        block.walk_dests(view, r, 0..n, |c, d| {
            assert_eq!(d, seen.len(), "destinations in order");
            seen.push(
                (0..n)
                    .map(|s| (c.class_of(s), c.chain(s)))
                    .collect::<Vec<_>>(),
            );
            ControlFlow::Continue(())
        });
        assert_eq!(seen, expected, "{kind:?}");
        // A break ends the sweep at the visitor that asked for it.
        let mut visited = 0;
        block.walk_dests(view, r, 5..n, |_, d| {
            visited += 1;
            if d == 22 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(visited, 18, "{kind:?}");
    }
}
