//! The sparse landmark pipeline, end to end: seed-for-seed equivalence with
//! the dense reference builder across graph families, and the trafficlab
//! cross-check that the scheme now builds and routes at `n = 131072` with
//! measured stretch `< 3` — the Table 1 row the dense builder could never
//! reach (its matrix alone would be 64 GiB).

use graphkit::generators;
use routeschemes::landmark::{LandmarkConfig, LandmarkRouting, LandmarkScheme};
use routeschemes::{CompactScheme, GraphHints, SchemeKind};
use trafficlab::{run_workload, EngineConfig, WorkloadSpec};

/// Seed-for-seed, the sparse builder must reproduce the dense builder's
/// `landmarks`/`home`/`toward_landmark`/`direct` tables bit for bit: same
/// home-landmark tie-breaks, same first shortest-path ports, same cluster
/// sets.  Cycles (antipodal ties), grids (many equal-length paths) and
/// random graphs all exercise different tie-break paths.
#[test]
fn sparse_and_dense_builders_agree_on_every_family_and_seed() {
    let families: Vec<(&str, graphkit::Graph)> = vec![
        ("odd cycle", generators::cycle(41)),
        ("even cycle", generators::cycle(64)),
        ("grid", generators::grid(9, 13)),
        ("tall grid", generators::grid(3, 40)),
        ("sparse random", generators::random_connected(150, 0.025, 2)),
        ("dense random", generators::random_connected(120, 0.2, 3)),
        ("tree", generators::random_tree(100, 5)),
    ];
    for (label, g) in &families {
        for seed in [0u64, 1, 0xC0FFEE, 0x7AFF1C] {
            let cfg = LandmarkConfig {
                seed,
                ..LandmarkConfig::default()
            };
            let sparse = LandmarkRouting::build_with(g, &cfg);
            let dense = LandmarkRouting::build_dense_with(g, &cfg);
            assert_eq!(sparse, dense, "{label}, seed {seed}");
        }
    }
}

/// The scheme built by the sparse pipeline keeps its `< 3` stretch promise
/// under the block-streamed engine at a size where the dense matrix still
/// fits, so the whole all-pairs space can be checked exactly.
#[test]
fn sparse_landmark_scheme_keeps_stretch_under_three_all_pairs() {
    let g = generators::random_connected(512, 8.0 / 512.0, 0xC5A);
    let inst = LandmarkScheme::default().build(&g);
    let plan = WorkloadSpec::AllPairs.compile(g.num_nodes());
    let rep = run_workload(
        &g,
        inst.routing.as_ref(),
        &plan,
        &EngineConfig {
            threads: 2,
            block_rows: 32,
            track_congestion: false,
        },
    )
    .expect("landmark routing must deliver every pair");
    assert!(
        rep.stretch.max_stretch < 3.0 + 1e-9,
        "measured stretch {} breaks the guarantee",
        rep.stretch.max_stretch
    );
    assert_eq!(
        rep.routed_messages,
        (g.num_nodes() * (g.num_nodes() - 1)) as u64
    );
}

/// The registry now classifies the landmark scheme as large-graph capable,
/// so the `n ≥ 10^5` scenarios stop skipping it.
#[test]
fn registry_classifies_landmark_as_large_graph_capable() {
    assert!(SchemeKind::Landmark.scales_to_large_graphs());
    // And it still builds through the registry on an ordinary graph.
    let g = generators::random_connected(256, 0.05, 1);
    assert!(SchemeKind::Landmark
        .default_spec()
        .build(&g, &GraphHints::none())
        .is_ok());
}

/// The acceptance point: the landmark scheme builds at `n = 131072` — no
/// dense matrix anywhere — and its measured stretch over a sampled workload
/// stays below 3.  The build alone takes ~1 minute on one core, so the test
/// is ignored by default; CI covers the same point through the
/// `landmark-130k` trafficlab scenario step (which also gates on the stretch
/// guarantee and exits non-zero when it breaks).
#[test]
#[ignore = "~2 min on one core; run with --ignored or via `trafficlab run landmark-130k` (CI does)"]
fn landmark_scheme_builds_and_routes_at_131072() {
    let n = 131_072;
    let g = generators::random_regular_like(n, 8, 0xB16);
    let inst = LandmarkScheme::default().build(&g);
    let plan = WorkloadSpec::SampledSources {
        sources: 64,
        dests_per_source: 256,
        seed: 11,
    }
    .compile(n);
    let rep = run_workload(
        &g,
        inst.routing.as_ref(),
        &plan,
        &EngineConfig {
            threads: 0,
            block_rows: 1,
            track_congestion: false,
        },
    )
    .expect("landmark routing must deliver");
    assert!(
        rep.stretch.max_stretch < 3.0 + 1e-9,
        "measured stretch {} breaks the guarantee at n = {n}",
        rep.stretch.max_stretch
    );
    // Õ(√n) memory in practice: orders of magnitude below the n·log n bits
    // full tables would need (≈ 2.2 Mbit per router at this n).
    let table_bits = (n as u64 - 1) * 17;
    assert!(
        inst.memory.local() * 10 < table_bits,
        "landmark local memory {} is not clearly below table memory {table_bits}",
        inst.memory.local()
    );
}
