//! The spec language end to end: seeded-fuzz round trips for all three
//! codecs (`parse ∘ spec_string = id` for graphs and workloads,
//! `parse_toml ∘ to_toml = id` for scenarios), and the book pin — the
//! built-in scenarios, loaded from their TOML files, must be *exactly* the
//! golden list of spec strings, so every report they produce stays
//! identical.

use graphkit::Xoshiro256;
use trafficlab::{
    find_scenario, landmark_strict, landmark_with_k, named_scenarios, run_scenario, CaseSpec,
    ChurnSpec, GraphSpec, ScenarioSpec, StretchMode, WorkloadSpec, LANDMARK_SWEEP_KS,
    SAMPLED_STRETCH_PAIRS,
};

use routeschemes::{SchemeKind, SchemeSpec};

fn fuzz_graph_spec(rng: &mut Xoshiro256) -> GraphSpec {
    let n = 2 + rng.gen_range(1 << 20);
    let seed = rng.gen_range(1 << 30) as u64;
    match rng.gen_range(9) {
        0 => GraphSpec::RandomConnected {
            n,
            // Quarter-integer degrees exercise float formatting without
            // hitting numbers whose shortest form is long.
            avg_deg: (1 + rng.gen_range(64)) as f64 / 4.0,
            seed,
        },
        1 => GraphSpec::RandomRegular {
            n,
            degree: 1 + rng.gen_range(32),
            seed,
        },
        2 => GraphSpec::Grid {
            rows: 1 + rng.gen_range(512),
            cols: 1 + rng.gen_range(512),
        },
        3 => GraphSpec::Hypercube {
            dim: 1 + rng.gen_range(30),
        },
        4 => GraphSpec::CompleteModular { n },
        5 => GraphSpec::RandomTree { n, seed },
        6 => GraphSpec::Ba {
            n,
            m: 1 + rng.gen_range((n - 1).min(8)),
            seed,
        },
        7 => GraphSpec::PowerLaw {
            n,
            exponent: (201 + rng.gen_range(100)) as f64 / 100.0,
            seed,
        },
        _ => GraphSpec::Theorem1 {
            n,
            theta: (1 + rng.gen_range(100)) as f64 / 100.0,
            seed,
        },
    }
}

fn fuzz_workload_spec(rng: &mut Xoshiro256) -> WorkloadSpec {
    let messages = 1 + rng.gen_range(1 << 24) as u64;
    let seed = rng.gen_range(1 << 30) as u64;
    match rng.gen_range(9) {
        0 => WorkloadSpec::AllPairs,
        1 => WorkloadSpec::Uniform { messages, seed },
        2 => WorkloadSpec::Zipf {
            messages,
            exponent: (1 + rng.gen_range(300)) as f64 / 100.0,
            seed,
        },
        3 => WorkloadSpec::Permutations {
            rounds: 1 + rng.gen_range(512) as u32,
            seed,
        },
        4 => {
            let roots: Vec<usize> = (0..1 + rng.gen_range(6))
                .map(|_| rng.gen_range(1 << 16))
                .collect();
            WorkloadSpec::Broadcast { roots }
        }
        5 => WorkloadSpec::SampledSources {
            sources: 1 + rng.gen_range(4096),
            dests_per_source: 1 + rng.gen_range(4096),
            seed,
        },
        6 => WorkloadSpec::Bisection { messages, seed },
        7 => WorkloadSpec::WorstPerm {
            rounds: 1 + rng.gen_range(512) as u32,
            seed,
        },
        _ => WorkloadSpec::ConstrainedProbes,
    }
}

fn fuzz_scheme_spec(rng: &mut Xoshiro256) -> SchemeSpec {
    match rng.gen_range(4) {
        0 => SchemeSpec::default_for(SchemeKind::ALL[rng.gen_range(7)]),
        1 => landmark_with_k(1 + rng.gen_range(4096)),
        2 => landmark_strict(),
        _ => SchemeSpec::SpanningTree {
            root: rng.gen_range(1 << 16),
        },
    }
}

fn fuzz_churn_spec(rng: &mut Xoshiro256) -> ChurnSpec {
    ChurnSpec {
        // Percent-grid kills exercise float formatting while staying inside
        // the codec's open (0, 1) validity interval.
        kill: (1 + rng.gen_range(99)) as f64 / 100.0,
        rounds: 1 + rng.gen_range(8),
        seed: rng.gen_range(1 << 30) as u64,
    }
}

fn fuzz_stretch_mode(rng: &mut Xoshiro256) -> StretchMode {
    match rng.gen_range(4) {
        0 => StretchMode::Exact,
        1 => StretchMode::Sampled {
            // The default pair count rides along sometimes, so the fuzz
            // covers the canonical form that omits it.
            pairs: [SAMPLED_STRETCH_PAIRS, 1, 1024, 1 << 20][rng.gen_range(4)],
            seed: rng.gen_range(1 << 30) as u64,
        },
        _ => StretchMode::Auto,
    }
}

/// `parse ∘ spec_string = id` under seeded fuzzing, for the graph,
/// workload and churn codecs (the scheme codec has its own fuzz in
/// `tests/scheme_spec.rs`).
#[test]
fn random_graph_and_workload_specs_round_trip() {
    let mut rng = Xoshiro256::new(0x5CEC_1A16);
    for _ in 0..1000 {
        let g = fuzz_graph_spec(&mut rng);
        let rendered = g.spec_string();
        let reparsed = GraphSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("'{rendered}' failed to reparse: {e}"));
        assert_eq!(reparsed, g, "graph round trip of '{rendered}'");

        let w = fuzz_workload_spec(&mut rng);
        let rendered = w.spec_string();
        let reparsed = WorkloadSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("'{rendered}' failed to reparse: {e}"));
        assert_eq!(reparsed, w, "workload round trip of '{rendered}'");

        let c = fuzz_churn_spec(&mut rng);
        let rendered = c.spec_string();
        let reparsed = ChurnSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("'{rendered}' failed to reparse: {e}"));
        assert_eq!(reparsed, c, "churn round trip of '{rendered}'");
    }
}

/// `parse_toml ∘ to_toml = id` for whole scenarios, including names and
/// descriptions that need string escaping.
#[test]
fn random_scenario_specs_round_trip_through_toml() {
    let mut rng = Xoshiro256::new(0x70_4D11);
    let gnarly = [
        "plain",
        "with \"quotes\" inside",
        "back\\slash",
        "tabs\tand\nnewlines",
        "",
    ];
    for iter in 0..200 {
        let cases: Vec<CaseSpec> = (0..1 + rng.gen_range(4))
            .map(|_| {
                let mut graph = fuzz_graph_spec(&mut rng);
                if graph.num_nodes() < 2 {
                    // A 1x1 grid is a valid graph spec but no workload can
                    // run on it, and scenario loading rejects the pair.
                    graph = GraphSpec::Grid { rows: 2, cols: 2 };
                }
                let mut workload = fuzz_workload_spec(&mut rng);
                // Scenario loading validates cross-field consistency
                // (broadcast roots must fit the graph), so the fuzz must
                // produce consistent cases — only per-codec round trips may
                // range freely.
                if let WorkloadSpec::Broadcast { roots } = &mut workload {
                    let n = graph.num_nodes();
                    for r in roots.iter_mut() {
                        *r %= n;
                    }
                }
                CaseSpec {
                    graph,
                    workload,
                    schemes: (0..1 + rng.gen_range(4))
                        .map(|_| fuzz_scheme_spec(&mut rng))
                        .collect(),
                    block_rows: [0, 0, 1, 8, 64][rng.gen_range(5)],
                    churn: match rng.gen_range(3) {
                        0 => Some(fuzz_churn_spec(&mut rng)),
                        _ => None,
                    },
                    stretch: fuzz_stretch_mode(&mut rng),
                    verify: rng.gen_range(2) == 1,
                }
            })
            .collect();
        let spec = ScenarioSpec {
            name: format!("fuzz-{iter}"),
            description: gnarly[rng.gen_range(gnarly.len())].to_string(),
            cases,
        };
        let rendered = spec.to_toml();
        let reparsed = ScenarioSpec::parse_toml(&rendered)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{rendered}"));
        assert_eq!(reparsed, spec, "scenario round trip of\n{rendered}");
    }
}

/// Every built-in scenario, one line per case: the spec strings of its
/// graph, workload and schemes, then its engine knobs (see [`case_line`]).
/// Every report is a deterministic function of these values and every spec
/// string parses back to the value it renders, so this list pins every
/// built-in report.  The entries up to `theorem1` are the book that was
/// compiled into `named_scenarios()` before the scenarios moved to TOML
/// files; smoke's `verify=true` gates (but never changes) the measurement.
const BOOK: &[(&str, &str, &[&str])] = &[
    (
        "smoke",
        "every registry scheme exercised once at n = 1024",
        &[
            "random?n=1024&seed=3162 | uniform?messages=20000&seed=1 | table,tree,interval,landmark | block_rows=0 churn=- stretch=auto verify=true",
            "hypercube?dim=10 | uniform?messages=20000&seed=2 | hypercube,tree | block_rows=0 churn=- stretch=auto verify=true",
            "grid?rows=32&cols=32 | uniform?messages=20000&seed=3 | grid,tree | block_rows=0 churn=- stretch=auto verify=true",
            "complete?n=256 | uniform?messages=20000&seed=4 | complete,table | block_rows=0 churn=- stretch=auto verify=true",
        ],
    ),
    (
        "uniform-1m",
        "one million uniform messages on an n = 4096 random graph",
        &[
            "random?n=4096&seed=3162 | uniform?messages=1000000&seed=7 | tree | block_rows=0 churn=- stretch=auto verify=false",
        ],
    ),
    (
        "sharded-130k",
        "block-streamed sweep at n = 131072 — no dense matrix can exist",
        &[
            "regular?n=131072&seed=2838 | sampled-sources?sources=64&per=256&seed=11 | tree | block_rows=1 churn=- stretch=auto verify=false",
        ],
    ),
    (
        "landmark-130k",
        "landmark routing (stretch < 3) built sparsely at n = 131072",
        &[
            "regular?n=131072&seed=2838 | sampled-sources?sources=64&per=256&seed=11 | landmark,landmark?clusters=strict,tree | block_rows=1 churn=- stretch=auto verify=false",
        ],
    ),
    (
        "landmark-sweep",
        "bits-vs-stretch curve: landmark k swept over a decade at n = 4096",
        &[
            "random?n=4096&seed=3162 | sampled-sources?sources=128&per=128&seed=21 | landmark?k=128,landmark?k=256,landmark?k=512,landmark?k=1024,landmark?k=1280 | block_rows=0 churn=- stretch=auto verify=false",
        ],
    ),
    (
        "zipf-hotspot",
        "Zipf-skewed destinations vs uniform on the same graph",
        &[
            "random?n=2048&seed=3162 | zipf?messages=200000&s=1.1&seed=5 | table,tree,interval,landmark | block_rows=0 churn=- stretch=auto verify=false",
            "random?n=2048&seed=3162 | uniform?messages=200000&seed=5 | table,tree,interval,landmark | block_rows=0 churn=- stretch=auto verify=false",
        ],
    ),
    (
        "broadcast",
        "one-to-all broadcasts; congestion concentrates near the roots",
        &[
            "tree?n=4096&seed=9 | broadcast?roots=0:1:2:3 | tree | block_rows=1 churn=- stretch=auto verify=false",
        ],
    ),
    (
        "permutation-cube",
        "random permutation rounds on the 10-cube",
        &[
            "hypercube?dim=10 | permutations?rounds=64&seed=13 | hypercube,table | block_rows=0 churn=- stretch=auto verify=false",
        ],
    ),
    (
        "theorem1",
        "constrained-vertex probes on Theorem 1 worst-case instances",
        &[
            "theorem1?n=1024&seed=17 | constrained-probes | table,tree,landmark,landmark?clusters=strict | block_rows=0 churn=- stretch=auto verify=false",
            "theorem1?n=16384&seed=17 | constrained-probes | landmark,landmark?clusters=strict,tree | block_rows=8 churn=- stretch=auto verify=false",
        ],
    ),
    (
        "adversarial",
        "bisection-saturating and worst-permutation traffic; congestion-vs-stretch focus",
        &[
            "grid?rows=32&cols=32 | bisection?messages=200000&seed=5 | grid,table,tree,landmark | block_rows=0 churn=- stretch=auto verify=false",
            "hypercube?dim=10 | bisection?messages=200000&seed=5 | hypercube,table,tree,landmark | block_rows=0 churn=- stretch=auto verify=false",
            "grid?rows=32&cols=32 | worstperm?rounds=64&seed=13 | grid,table,landmark | block_rows=0 churn=- stretch=auto verify=false",
            "hypercube?dim=10 | worstperm?rounds=64&seed=13 | hypercube,table,landmark | block_rows=0 churn=- stretch=auto verify=false",
        ],
    ),
    (
        "churn",
        "link failures and incremental repair: fail, measure degraded, repair in place, measure recovered",
        &[
            "random?n=1024&seed=3162 | sampled-sources?sources=64&per=128&seed=1 | landmark,tree | block_rows=0 churn=churn?kill=0.01&seed=7 stretch=auto verify=false",
        ],
    ),
];

/// One case as a line of spec strings.
fn case_line(c: &CaseSpec) -> String {
    let schemes: Vec<String> = c.schemes.iter().map(|s| s.spec_string()).collect();
    let churn = c
        .churn
        .as_ref()
        .map_or("-".to_string(), |c| c.spec_string());
    format!(
        "{} | {} | {} | block_rows={} churn={churn} stretch={} verify={}",
        c.graph.spec_string(),
        c.workload.spec_string(),
        schemes.join(","),
        c.block_rows,
        c.stretch,
        c.verify
    )
}

/// The built-in scenarios, loaded from their TOML files, are exactly the
/// golden book: same names and descriptions, in order, and case by case the
/// same graphs, workloads, scheme lists (in order) and engine knobs.
#[test]
fn toml_builtins_match_the_golden_book() {
    let got: Vec<(String, String, Vec<String>)> = named_scenarios()
        .iter()
        .map(|s| {
            let cases = s.cases.iter().map(case_line).collect();
            (s.name.clone(), s.description.clone(), cases)
        })
        .collect();
    let want: Vec<(String, String, Vec<String>)> = BOOK
        .iter()
        .map(|&(name, description, cases)| {
            let cases = cases.iter().map(|c| c.to_string()).collect();
            (name.to_string(), description.to_string(), cases)
        })
        .collect();
    assert_eq!(got, want);
    for &(name, _, _) in BOOK {
        assert!(find_scenario(name).is_some(), "built-in '{name}' vanished");
    }
}

/// A scenario run from TOML text measures exactly what the same scenario
/// built in code measures: identical stretch (bit-for-bit), congestion,
/// histograms, memory reports, skip notes — everything except wall-clock.
#[test]
fn toml_loaded_scenario_reports_match_in_code_definitions() {
    let in_code = ScenarioSpec {
        name: "mini".into(),
        description: "toml-vs-code pin".into(),
        cases: vec![
            CaseSpec {
                graph: GraphSpec::RandomConnected {
                    n: 48,
                    avg_deg: 6.0,
                    seed: 4,
                },
                workload: WorkloadSpec::Uniform {
                    messages: 400,
                    seed: 6,
                },
                schemes: vec![
                    SchemeSpec::default_for(SchemeKind::Table),
                    SchemeSpec::default_for(SchemeKind::SpanningTree),
                ],
                block_rows: 8,
                churn: None,
                stretch: StretchMode::Auto,
                verify: false,
            },
            CaseSpec {
                graph: GraphSpec::Grid { rows: 4, cols: 6 },
                workload: WorkloadSpec::Bisection {
                    messages: 300,
                    seed: 2,
                },
                schemes: vec![
                    SchemeSpec::default_for(SchemeKind::DimensionOrder),
                    SchemeSpec::default_for(SchemeKind::SpanningTree),
                ],
                block_rows: 4,
                churn: None,
                stretch: StretchMode::Auto,
                verify: false,
            },
        ],
    };
    let toml = "\
name = \"mini\"
description = \"toml-vs-code pin\"

[[case]]
graph = \"random?n=48&deg=6&seed=4\"
workload = \"uniform?messages=400&seed=6\"
schemes = [\"table\", \"tree\"]
block_rows = 8

[[case]]
graph = \"grid?rows=4&cols=6\"
workload = \"bisection?messages=300&seed=2\"
schemes = [\"grid\", \"tree\"]
block_rows = 4
";
    let loaded = ScenarioSpec::parse_toml(toml).unwrap();
    assert_eq!(loaded, in_code);
    let rep_a = run_scenario(&in_code, 2);
    let rep_b = run_scenario(&loaded, 2);
    assert_eq!(rep_a.errors, rep_b.errors);
    assert_eq!(rep_a.skipped, rep_b.skipped);
    assert_eq!(rep_a.results.len(), rep_b.results.len());
    assert!(!rep_a.results.is_empty());
    for (a, b) in rep_a.results.iter().zip(&rep_b.results) {
        assert_eq!(a.graph_label, b.graph_label);
        assert_eq!(a.workload_spec, b.workload_spec);
        assert_eq!(a.scheme_spec, b.scheme_spec);
        assert_eq!(a.local_bits, b.local_bits);
        assert_eq!(a.global_bits, b.global_bits);
        assert_eq!(a.within_guarantee, b.within_guarantee);
        // WorkloadReport equality covers stretch (bit-identical f64 fold),
        // congestion counters, length histograms and block accounting.
        assert_eq!(a.report, b.report);
    }
}

/// The landmark-sweep TOML still walks exactly the published decade.
#[test]
fn toml_landmark_sweep_matches_the_published_ks() {
    let sweep = find_scenario("landmark-sweep").unwrap();
    let specs: Vec<String> = sweep.cases[0]
        .schemes
        .iter()
        .map(|s| s.spec_string())
        .collect();
    let expected: Vec<String> = LANDMARK_SWEEP_KS
        .iter()
        .map(|k| format!("landmark?k={k}"))
        .collect();
    assert_eq!(specs, expected);
}
