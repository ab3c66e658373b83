//! Checker tests: all-pairs proofs on home families, deterministic
//! partitions under failures, the mutation harness, and exotic-header /
//! wrong-hint edge cases.

use graphkit::{generators, FailureSet, Graph, GraphView, NodeId};
use routemodel::labeling::modular_complete_labeling;
use routemodel::{Action, Header, RoutingFunction};
use routeschemes::{corrupt_instance, GraphHints, MutationKind, SchemeInstance, SchemeKind};

use crate::check::{check_routing, Checker, SourceClass};
use crate::report::{verify_instance, Verdict};

/// Home-family graph + hints for each registry scheme at roughly size `n`
/// (density-heavy families are built smaller to keep debug runs quick).
fn home_family(kind: SchemeKind, n: usize) -> (Graph, GraphHints) {
    match kind {
        SchemeKind::Table | SchemeKind::KInterval | SchemeKind::Landmark => {
            let p = (6.0 / n as f64).min(0.5);
            (generators::random_connected(n, p, 11), GraphHints::none())
        }
        SchemeKind::SpanningTree => (generators::random_tree(n, 4), GraphHints::none()),
        SchemeKind::Ecube => {
            let dim = n.next_power_of_two().trailing_zeros().max(1);
            (
                generators::hypercube(dim as usize),
                GraphHints::hypercube(dim),
            )
        }
        SchemeKind::DimensionOrder => {
            let side = (n as f64).sqrt().round() as usize;
            (generators::grid(side, side), GraphHints::grid(side, side))
        }
        SchemeKind::ModularComplete => (modular_complete_labeling(n.min(257)), GraphHints::none()),
    }
}

fn build(kind: SchemeKind, g: &Graph, hints: &GraphHints) -> SchemeInstance {
    kind.default_spec()
        .build(g, hints)
        .unwrap_or_else(|e| panic!("{} must build on its home family: {e}", kind.key()))
}

#[test]
fn registry_schemes_prove_all_pairs_on_home_families() {
    for kind in SchemeKind::ALL {
        let (g, hints) = home_family(kind, 1024);
        let n = g.num_nodes();
        let inst = build(kind, &g, &hints);
        let report = verify_instance(&g, None, &inst, kind.key(), 4);
        assert_eq!(
            report.verdict,
            Verdict::Sound,
            "{}: {:?} / audit {:?}",
            kind.key(),
            report.counterexample,
            report.audit_findings
        );
        assert_eq!(
            report.counts.proven,
            (n * (n - 1)) as u64,
            "{}: every pair of a connected home graph must be proven",
            kind.key()
        );
        assert_eq!(
            report.counts.total(),
            (n * (n - 1)) as u64,
            "{}",
            kind.key()
        );
    }
}

#[test]
fn failed_view_partition_is_bit_identical_across_thread_counts() {
    let g = generators::random_connected(512, 0.012, 7);
    let n = g.num_nodes();
    let failures = FailureSet::sample(&g, 0.10, 5);
    let inst = build(SchemeKind::Table, &g, &GraphHints::none());
    let view = GraphView::masked(&g, &failures);
    let baseline = check_routing(view, &*inst.routing, 1);
    assert_eq!(baseline.counts.total(), (n * (n - 1)) as u64);
    // Tables were built for the pristine graph: with 10% of the edges dead,
    // some routes must cross a dead arc toward a still-reachable destination.
    assert!(baseline.counts.proven > 0, "{:?}", baseline.counts);
    assert!(baseline.counts.dead_port > 0, "{:?}", baseline.counts);
    for threads in [2, 3, 4, 8] {
        let report = check_routing(view, &*inst.routing, threads);
        assert_eq!(report, baseline, "sweep must not depend on sharding");
    }
}

#[test]
fn every_seeded_mutation_is_flagged_with_its_counterexample() {
    for kind in SchemeKind::ALL {
        let (g, hints) = home_family(kind, 48);
        for mutation_kind in [MutationKind::Misroute, MutationKind::OutOfRange] {
            let mut inst = build(kind, &g, &hints);
            assert_eq!(
                verify_instance(&g, None, &inst, kind.key(), 2).verdict,
                Verdict::Sound,
                "{} must verify before corruption",
                kind.key()
            );
            let mutation = corrupt_instance(&mut inst, &g, 3, mutation_kind)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.key()));
            let report = verify_instance(&g, None, &inst, kind.key(), 2);
            assert_eq!(
                report.verdict,
                Verdict::Unsound,
                "{}: undetected {:?} ({})",
                kind.key(),
                mutation_kind,
                mutation.description
            );
            assert!(
                report.counterexample.is_some() || !report.audit_findings.is_empty(),
                "{}: unsound verdict must carry a witness",
                kind.key()
            );
            // The harness promises a concrete broken pair; pin that the
            // checker classifies exactly that pair as broken.
            let mut checker = Checker::new();
            checker.check_dest(GraphView::full(&g), &*inst.routing, mutation.dest);
            assert!(
                checker.class_of(mutation.source).is_broken(),
                "{}: promised pair {} -> {} not broken ({})",
                kind.key(),
                mutation.source,
                mutation.dest,
                mutation.description
            );
        }
    }
}

/// An out-of-range corruption on a landmark instance with one-byte cells,
/// at a router of degree 251: the raw port `251 + 7` does not fit a byte,
/// so it is stored as 254 — still out of range, never the "no port"
/// sentinel — and both the audit and the checker flag it.
#[test]
fn out_of_range_mutation_is_flagged_at_one_byte_cells() {
    let g = generators::star(251);
    let mut inst = build(SchemeKind::Landmark, &g, &GraphHints::none());
    let any: &dyn std::any::Any = &*inst.routing;
    let lm = any
        .downcast_ref::<routeschemes::landmark::LandmarkRouting>()
        .expect("a landmark instance");
    assert_eq!(lm.cell_bytes(), 1);
    let mutation = corrupt_instance(&mut inst, &g, 3, MutationKind::OutOfRange).unwrap();
    assert!(
        mutation.description.contains("router 0 "),
        "the star's centre routes every two-hop pair: {}",
        mutation.description
    );
    let report = verify_instance(&g, None, &inst, "landmark", 2);
    assert_eq!(report.verdict, Verdict::Unsound);
    assert!(report.counterexample.is_some());
    assert!(
        report
            .audit_findings
            .iter()
            .any(|f| f.contains("port 254 at router 0") && f.contains("exceeds degree 251")),
        "{:?}",
        report.audit_findings
    );
    let mut checker = Checker::new();
    checker.check_dest(GraphView::full(&g), &*inst.routing, mutation.dest);
    assert!(checker.class_of(mutation.source).is_broken());
}

#[test]
fn isolated_destination_is_unreachable_not_livelock() {
    let g = generators::random_connected(32, 0.15, 2);
    let n = g.num_nodes();
    let d: NodeId = 5;
    let cut: Vec<(u32, u32)> = g.neighbors(d).iter().map(|&v| (d as u32, v)).collect();
    let failures = FailureSet::from_edges(&g, &cut);
    let inst = build(SchemeKind::Table, &g, &GraphHints::none());
    let mut checker = Checker::new();
    let report = checker.check_dest(GraphView::masked(&g, &failures), &*inst.routing, d);
    // No live path to d exists: every pair is excluded, none is blamed on
    // the scheme — in particular none may read as a livelock or dead port.
    assert_eq!(
        report.counts.unreachable,
        (n - 1) as u64,
        "{:?}",
        report.counts
    );
    assert_eq!(report.counts.broken(), 0, "{:?}", report.counts);
    assert!(report.first_broken.is_none());
}

/// Forwards on port 0 forever, never delivering; canonical (identity)
/// headers, so the livelock must be caught by the vertex memo.
struct RoundAndRound;

impl RoutingFunction for RoundAndRound {
    fn init(&self, _source: NodeId, dest: NodeId) -> Header {
        Header::to_dest(dest)
    }
    fn port(&self, _node: NodeId, _header: &Header) -> Action {
        Action::Forward(0)
    }
    fn init_into(&self, _source: NodeId, dest: NodeId, header: &mut Header) {
        header.dest = dest;
        header.data.clear();
    }
    fn next_header_into(&self, _node: NodeId, _header: &mut Header) {}
    fn name(&self) -> &str {
        "round-and-round"
    }
}

#[test]
fn canonical_header_cycle_is_livelock() {
    let g = generators::cycle(8);
    let report = check_routing(GraphView::full(&g), &RoundAndRound, 2);
    assert_eq!(
        report.counts.livelock,
        (8 * 7) as u64,
        "{:?}",
        report.counts
    );
    assert!(!report.sound());
    let cex = report.counterexample.expect("livelock needs a witness");
    assert_eq!((cex.dest, cex.source), (0, 1), "first pair in (d, s) order");
    assert_eq!(cex.class, SourceClass::Livelock);
}

/// Source-dependent init plus a header bit that flips every hop: walks are
/// never canonical, so the explicit `(vertex, header)` state log must catch
/// the period-4 self-loop.
struct FlipFlop;

impl RoutingFunction for FlipFlop {
    fn init(&self, source: NodeId, dest: NodeId) -> Header {
        Header::with_data(dest, vec![source as u64])
    }
    fn port(&self, _node: NodeId, _header: &Header) -> Action {
        Action::Forward(0)
    }
    fn init_into(&self, source: NodeId, dest: NodeId, header: &mut Header) {
        header.dest = dest;
        header.data.clear();
        header.data.push(source as u64);
    }
    fn next_header_into(&self, _node: NodeId, header: &mut Header) {
        header.data[0] ^= 1;
    }
    fn name(&self) -> &str {
        "flip-flop"
    }
}

#[test]
fn exotic_header_self_loop_is_livelock() {
    let g = generators::path(2);
    let mut checker = Checker::new();
    let report = checker.check_dest(GraphView::full(&g), &FlipFlop, 1);
    assert_eq!(checker.class_of(0), SourceClass::Livelock);
    assert_eq!(report.counts.livelock, 1);
}

/// Appends a word to the header on every hop — the payload grows without
/// bound and must trip the declared-header-words overflow check rather than
/// hang the sweep.
struct Hoarder;

impl RoutingFunction for Hoarder {
    fn init(&self, source: NodeId, dest: NodeId) -> Header {
        Header::with_data(dest, vec![source as u64])
    }
    fn port(&self, _node: NodeId, _header: &Header) -> Action {
        Action::Forward(0)
    }
    fn init_into(&self, source: NodeId, dest: NodeId, header: &mut Header) {
        header.dest = dest;
        header.data.clear();
        header.data.push(source as u64);
    }
    fn next_header_into(&self, node: NodeId, header: &mut Header) {
        header.data.push(node as u64);
    }
    fn name(&self) -> &str {
        "hoarder"
    }
}

#[test]
fn unbounded_header_growth_is_overflow() {
    let g = generators::path(2);
    let mut checker = Checker::new();
    let report = checker.check_dest(GraphView::full(&g), &Hoarder, 1);
    assert_eq!(checker.class_of(0), SourceClass::HeaderOverflow);
    assert_eq!(report.counts.header_overflow, 1);
}

#[test]
fn wrong_structural_hints_are_caught() {
    // A 4×6 grid force-built with transposed dimensions: the vertex count
    // matches, so the build succeeds, but the coordinate arithmetic is wrong
    // and routes end at the wrong routers.
    let g = generators::grid(4, 6);
    let inst = SchemeKind::DimensionOrder
        .default_spec()
        .build(&g, &GraphHints::grid(6, 4))
        .expect("vertex count matches, so the build cannot refuse");
    let report = verify_instance(&g, None, &inst, "grid-transposed", 2);
    assert_eq!(report.verdict, Verdict::Unsound);
    let cex = report.counterexample.expect("misrouting needs a witness");
    assert!(cex.class.is_broken());

    // A cycle on 8 vertices pinned as a 3-cube: e-cube happily computes bit
    // flips, but the ports do not exist on a degree-2 ring.
    let ring = generators::cycle(8);
    let inst = SchemeKind::Ecube
        .default_spec()
        .build(&ring, &GraphHints::hypercube(3))
        .expect("the pin bypasses the structural scan");
    let report = verify_instance(&ring, None, &inst, "fake-cube", 2);
    assert_eq!(report.verdict, Verdict::Unsound);
    assert!(report.counts.dead_port > 0, "{:?}", report.counts);
}

#[test]
fn codes_are_stable_and_shared_between_table_and_json() {
    let expected = [
        "proven",
        "livelock",
        "dead_port",
        "header_overflow",
        "wrong_delivery",
        "unreachable",
    ];
    let actual: Vec<&str> = SourceClass::ALL.iter().map(|c| c.code()).collect();
    assert_eq!(actual, expected, "class codes are a public contract");

    let g = generators::random_connected(24, 0.2, 1);
    let mut broken = build(SchemeKind::Table, &g, &GraphHints::none());
    corrupt_instance(&mut broken, &g, 1, MutationKind::Misroute).unwrap();
    let sound = crate::report::Soundness {
        graph: "random_connected(24)".to_string(),
        n: g.num_nodes(),
        edges: g.num_edges(),
        failures: None,
        schemes: vec![
            verify_instance(
                &g,
                None,
                &build(SchemeKind::Table, &g, &GraphHints::none()),
                "table",
                2,
            ),
            verify_instance(&g, None, &broken, "table-corrupted", 2),
        ],
    };
    assert!(!sound.all_sound());
    let json = sound.to_json();
    let table = sound.to_table().to_plain();
    for code in expected {
        assert!(
            json.contains(&format!("\"{code}\"")),
            "{code} missing from JSON"
        );
        assert!(table.contains(code), "{code} missing from the table header");
    }
    for verdict in [Verdict::Sound, Verdict::Unsound] {
        assert!(json.contains(verdict.code()));
        assert!(table.contains(verdict.code()));
    }
}
