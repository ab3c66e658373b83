//! Every scheme a built-in scenario would measure is statically sound.
//!
//! This is the debug-profile twin of the CI release gate: for each
//! `[[case]]` of every built-in scenario small enough for a debug-mode
//! all-pairs sweep, build the case's schemes exactly as `run_scenario`
//! would and demand `routecheck` proves them sound — no livelocks, dead
//! ports, header overflows, or wrong deliveries anywhere in the state
//! space.  A scheme that ships in a scenario but cannot be proven sound
//! is a bug in the scheme, the builder, or the checker; all three are
//! worth failing the suite over.

use std::collections::HashSet;

use trafficlab::{named_scenarios, GraphSpec};

/// Vertex count of a spec without building it (exact for every variant).
fn spec_n(spec: &GraphSpec) -> usize {
    match *spec {
        GraphSpec::RandomConnected { n, .. }
        | GraphSpec::RandomRegular { n, .. }
        | GraphSpec::CompleteModular { n }
        | GraphSpec::RandomTree { n, .. }
        | GraphSpec::Theorem1 { n, .. }
        | GraphSpec::Ba { n, .. }
        | GraphSpec::PowerLaw { n, .. } => n,
        GraphSpec::Grid { rows, cols } => rows * cols,
        GraphSpec::Hypercube { dim } => 1 << dim,
    }
}

#[test]
fn builtin_scenario_schemes_are_statically_sound() {
    // Debug-mode budget: the release CLI gate in CI covers n = 1024 and
    // up; here we sweep every case that stays comfortably under that.
    const MAX_N: usize = 1100;

    let mut seen: HashSet<(String, String)> = HashSet::new();
    let mut checked = 0usize;
    for scenario in named_scenarios() {
        for case in &scenario.cases {
            if spec_n(&case.graph) > MAX_N {
                continue;
            }
            let graph_label = case.graph.spec_string();
            let mut built = None;
            for scheme in &case.schemes {
                let scheme_label = scheme.spec_string();
                if !seen.insert((graph_label.clone(), scheme_label.clone())) {
                    continue;
                }
                let built = built.get_or_insert_with(|| case.graph.build());
                let inst = match scheme.build(&built.graph, &built.hints) {
                    Ok(inst) => inst,
                    // Schemes a scenario lists but the family rejects
                    // (e.g. e-cube on a non-hypercube) are skipped by
                    // run_scenario too.
                    Err(_) => continue,
                };
                let threads = graphkit::par::default_threads(built.graph.num_nodes());
                let report =
                    routecheck::verify_instance(&built.graph, None, &inst, &scheme_label, threads);
                assert_eq!(
                    report.verdict,
                    routecheck::Verdict::Sound,
                    "scenario '{}': scheme '{scheme_label}' on {graph_label} \
                     is unsound: {}",
                    scenario.name,
                    report.failure_note().unwrap_or_default()
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 4,
        "the gate must actually exercise schemes (checked {checked})"
    );
}
