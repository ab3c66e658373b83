//! The spec-era construction API, end to end through the facade crate:
//! bit-identity of the default landmark count with its explicit count,
//! codec round-trips under seeded fuzzing, and the strict cluster rule on
//! the Theorem 1 worst-case instances it was built for.

use universal_routing::prelude::*;

use constraints::theorem1::build_worst_case_instance;
use routeschemes::landmark::LandmarkRouting;

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("odd cycle", generators::cycle(41)),
        ("even cycle", generators::cycle(64)),
        ("grid", generators::grid(9, 13)),
        ("sparse random", generators::random_connected(150, 0.025, 2)),
        ("dense random", generators::random_connected(120, 0.2, 3)),
        ("tree", generators::random_tree(100, 5)),
    ]
}

/// The default landmark count is an explicit count in disguise, per cluster
/// rule: `landmark` must rebuild `landmark?k=⌈3√n⌉` and
/// `landmark?clusters=strict` must rebuild `landmark?clusters=strict&k=⌈√n⌉`
/// **bit for bit**, seed for seed, family for family, through the typed
/// builder and the registry alike.
#[test]
fn auto_count_spec_is_bit_identical_to_its_explicit_count_per_rule() {
    for (label, g) in &families() {
        let n = g.num_nodes() as f64;
        let inclusive_k = (3.0 * n.sqrt()).ceil() as usize;
        let strict_k = n.sqrt().ceil() as usize;
        for seed in [0u64, 1, 0xC0FFEE, 0x7AFF1C] {
            for (auto, explicit) in [
                (
                    format!("landmark?seed={seed}"),
                    format!("landmark?k={inclusive_k}&clusters=inclusive&seed={seed}"),
                ),
                (
                    format!("landmark?clusters=strict&seed={seed}"),
                    format!("landmark?k={strict_k}&clusters=strict&seed={seed}"),
                ),
            ] {
                let (auto_spec, explicit_spec) = (
                    SchemeSpec::parse(&auto).unwrap(),
                    SchemeSpec::parse(&explicit).unwrap(),
                );
                let (SchemeSpec::Landmark(auto_cfg), SchemeSpec::Landmark(explicit_cfg)) =
                    (&auto_spec, &explicit_spec)
                else {
                    panic!("{auto} and {explicit} must parse to landmark specs");
                };
                assert_eq!(
                    LandmarkRouting::build_with(g, auto_cfg),
                    LandmarkRouting::build_with(g, explicit_cfg),
                    "{label}: {auto} vs {explicit}"
                );

                // And the registry path produces the same memory report.
                let hints = GraphHints::none();
                let (a, e) = (
                    auto_spec.build(g, &hints).unwrap(),
                    explicit_spec.build(g, &hints).unwrap(),
                );
                assert_eq!(
                    a.memory.per_node, e.memory.per_node,
                    "{label}: {auto} vs {explicit}: memory reports diverged"
                );
                assert_eq!(a.guaranteed_stretch, e.guaranteed_stretch);
            }
        }
    }
}

/// Seeded fuzzing of the codec: any spec the generator can produce must
/// survive `spec_string ∘ parse` unchanged (`parse ∘ spec_string = id`).
#[test]
fn random_specs_round_trip_through_the_codec() {
    let mut rng = graphkit::Xoshiro256::new(0x5EEDC0DEC);
    for _ in 0..500 {
        let spec = match rng.gen_range(7) {
            0 => SchemeSpec::Table {
                tie: match rng.gen_range(4) {
                    0 => TieBreak::LowestPort,
                    1 => TieBreak::LowestNeighbor,
                    2 => TieBreak::HighestNeighbor,
                    _ => TieBreak::Seeded(rng.gen_range(1 << 20) as u64),
                },
            },
            1 => SchemeSpec::SpanningTree {
                root: rng.gen_range(2048),
            },
            2 => SchemeSpec::KInterval(KIntervalConfig {
                k: match rng.gen_range(3) {
                    0 => None,
                    _ => Some(1 + rng.gen_range(64)),
                },
                tie: if rng.gen_range(2) == 0 {
                    TieBreak::LowestNeighbor
                } else {
                    TieBreak::LowestPort
                },
            }),
            3 | 4 => SchemeSpec::Landmark(LandmarkConfig {
                landmarks: match rng.gen_range(3) {
                    0 => LandmarkCount::Auto,
                    1 => LandmarkCount::Count(1 + rng.gen_range(4096)),
                    _ => LandmarkCount::Rate((1 + rng.gen_range(1000)) as f64 / 1000.0),
                },
                cluster_rule: if rng.gen_range(2) == 0 {
                    ClusterRule::Inclusive
                } else {
                    ClusterRule::Strict
                },
                seed: rng.gen_range(1 << 30) as u64,
            }),
            5 => SchemeSpec::Ecube,
            _ => SchemeSpec::DimensionOrder,
        };
        let rendered = spec.spec_string();
        let reparsed = SchemeSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("'{rendered}' failed to reparse: {e}"));
        assert_eq!(reparsed, spec, "round trip of '{rendered}'");
    }
}

/// Bad params surface as typed [`SpecError`]s through the facade too.
#[test]
fn codec_rejections_are_typed() {
    assert!(matches!(
        SchemeSpec::parse("warp-drive"),
        Err(SpecError::UnknownKey { .. })
    ));
    assert!(matches!(
        SchemeSpec::parse("landmark?k=64&rate=0.5"),
        Err(SpecError::ConflictingParams { .. })
    ));
    assert!(matches!(
        SchemeSpec::parse("interval?k=-3"),
        Err(SpecError::InvalidValue { .. })
    ));
}

/// The inclusive rule at the strict default's landmark count, `⌈√n⌉`.
fn inclusive_at_sqrt_n(g: &Graph) -> LandmarkConfig {
    LandmarkConfig {
        landmarks: LandmarkCount::Count((g.num_nodes() as f64).sqrt().ceil() as usize),
        ..LandmarkConfig::default()
    }
}

/// The strict cluster rule on the graphs it exists for: Theorem 1 worst-case
/// instances have tiny diameter, so the inclusive boundary
/// `d(w, v) = d(v, L)` fattens clusters far beyond `√n`; the strict rule
/// keeps only the interior plus the `≈ n/k` home-set handoff entries at the
/// landmarks, and must stay stretch-`< 3` exact.  Both rules sample the
/// strict default's `⌈√n⌉` landmarks, so only the rule differs.
#[test]
fn strict_rule_deflates_theorem1_clusters_and_keeps_stretch() {
    let (cg, _params) = build_worst_case_instance(1024, 0.5, 17);
    let g = &cg.graph;
    let inclusive = LandmarkRouting::build_with(g, &inclusive_at_sqrt_n(g));
    let strict_cfg = LandmarkConfig {
        cluster_rule: ClusterRule::Strict,
        ..LandmarkConfig::default()
    };
    let strict = LandmarkRouting::build_with(g, &strict_cfg);
    let (ai, as_) = (
        inclusive.average_cluster_size(),
        strict.average_cluster_size(),
    );
    assert!(
        as_ * 2.0 < ai,
        "strict avg {as_:.1} must be well below inclusive avg {ai:.1}"
    );
    let dm = DistanceMatrix::all_pairs(g);
    let rep = stretch_factor(&g.clone(), &dm, &strict).unwrap();
    assert!(
        rep.max_stretch < 3.0 + 1e-9,
        "strict rule broke the stretch guarantee: {}",
        rep.max_stretch
    );
}

/// The acceptance point of the strict rule at scale: on the n = 16384
/// Theorem 1 instance the inclusive clusters average ≈ 2700 at `⌈√n⌉`
/// landmarks (≈ 475 at the inclusive default `⌈3√n⌉`); the strict rule
/// must pull the average back to `Õ(√n)` territory.  Construction at this
/// size takes tens of seconds per rule on one core, so the test is ignored
/// by default; CI covers the same instance through the `theorem1` scenario
/// step (which runs both rules and gates on the stretch guarantee).
#[test]
#[ignore = "~1 min on one core; run with --ignored (CI covers it via `trafficlab run theorem1`)"]
fn strict_rule_keeps_theorem1_16384_clusters_near_sqrt_n() {
    let (cg, _params) = build_worst_case_instance(16384, 0.5, 17);
    let g = &cg.graph;
    let inclusive = LandmarkRouting::build_with(g, &inclusive_at_sqrt_n(g));
    let ai = inclusive.average_cluster_size();
    assert!(ai > 2000.0, "inclusive fattening regressed? avg {ai:.0}");
    let strict = LandmarkRouting::build_with(
        g,
        &LandmarkConfig {
            cluster_rule: ClusterRule::Strict,
            ..LandmarkConfig::default()
        },
    );
    let as_ = strict.average_cluster_size();
    // Õ(√16384) = Õ(128): well below the inclusive average, absolute bound
    // generous enough for seed wiggle.
    assert!(
        as_ < ai / 3.0 && as_ < 900.0,
        "strict avg {as_:.0} vs inclusive {ai:.0}"
    );
}
