//! The landmark bits-vs-stretch sweep: the measured counterpart of Table 1's
//! trade-off rows, swept through the parameterized spec API.
//!
//! For every `k` of the `landmark-sweep` scenario decade at n = 4096 — plus
//! one large-n point at n = 131072 that only the sparse builder can reach —
//! the snapshot records the per-router bits (max and mean) and the max
//! stretch measured under a sampled workload.  Written to
//! `BENCH_landmark_sweep.json` in the workspace root; the companion scenario
//! (`trafficlab run landmark-sweep`) gates the same curve in CI.

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use analysis::report::Json;
use criterion::{criterion_group, criterion_main, Criterion};
use graphkit::{generators, Graph};
use routeschemes::{GraphHints, LandmarkConfig, LandmarkCount, SchemeSpec};
use routing_bench::{quick_criterion, write_snapshot};
use std::time::Instant;
use trafficlab::{run_workload, EngineConfig, WorkloadSpec, LANDMARK_SWEEP_KS};

/// Measures one point and returns its snapshot entry, echoed to the
/// console, with its (max, mean) bits per router.
fn run_point(
    g: &Graph,
    k: usize,
    workload: &WorkloadSpec,
    block_rows: usize,
) -> (Json, (u64, f64)) {
    let spec = SchemeSpec::Landmark(LandmarkConfig {
        landmarks: LandmarkCount::Count(k),
        ..LandmarkConfig::default()
    });
    let t0 = Instant::now();
    let inst = spec
        .build(g, &GraphHints::none())
        .expect("landmark applies to every connected graph");
    let build_secs = t0.elapsed().as_secs_f64();
    let plan = workload.compile(g.num_nodes());
    let rep = run_workload(
        g,
        inst.routing.as_ref(),
        &plan,
        &EngineConfig {
            threads: 0,
            block_rows,
            track_congestion: false,
        },
    )
    .expect("landmark routing delivers");
    let spec = spec.spec_string();
    let (max_stretch, avg_stretch) = (rep.stretch.max_stretch, rep.stretch.avg_stretch);
    assert!(
        max_stretch <= 3.0 + 1e-9,
        "{spec}: measured stretch {max_stretch} breaks the guarantee"
    );
    let (n, local_bits, avg_bits) = (g.num_nodes(), inst.memory.local(), inst.memory.average());
    println!(
        "snapshot: {spec:<22} n={n:<7} {build_secs:>7.2}s  local {local_bits:<6} avg {avg_bits:>8.1}  stretch max {max_stretch:.3} avg {avg_stretch:.3}"
    );
    let entry = Json::obj([
        ("spec", spec.into()),
        ("n", n.into()),
        ("build_secs", build_secs.into()),
        ("local_bits", local_bits.into()),
        ("avg_bits", avg_bits.into()),
        ("max_stretch", max_stretch.into()),
        ("avg_stretch", avg_stretch.into()),
    ]);
    (entry, (local_bits, avg_bits))
}

/// Hand-timed snapshot written to `BENCH_landmark_sweep.json`.
fn bench_snapshot(_c: &mut Criterion) {
    let mut points = Vec::new();

    // The scenario decade at n = 4096 (same graph and workload as
    // `trafficlab run landmark-sweep`).
    {
        let g = generators::random_connected(4096, 8.0 / 4096.0, 0xC5A);
        let workload = WorkloadSpec::SampledSources {
            sources: 128,
            dests_per_source: 128,
            seed: 21,
        };
        for &k in &LANDMARK_SWEEP_KS {
            points.push(run_point(&g, k, &workload, 0));
        }
    }

    // One large-n trade-off point: k = 1024 at n = 131072, just below the
    // `⌈3√n⌉ = 1087` default of `BENCH_landmark.json`, with still no dense
    // matrix anywhere.
    {
        let g = generators::random_regular_like(131_072, 8, 0xB16);
        let workload = WorkloadSpec::SampledSources {
            sources: 32,
            dests_per_source: 128,
            seed: 11,
        };
        points.push(run_point(&g, 1024, &workload, 1));
    }

    // The decade must trace a monotone curve: more landmarks, more bits
    // (the zip with the decade's own windows leaves out the large-n point).
    let (entries, bits): (Vec<Json>, Vec<(u64, f64)>) = points.into_iter().unzip();
    for (w, k) in bits.windows(2).zip(LANDMARK_SWEEP_KS.windows(2)) {
        assert!(
            w[0].0 < w[1].0 && w[0].1 < w[1].1,
            "bits must increase along the sweep: k = {} vs k = {}",
            k[0],
            k[1]
        );
    }

    let out = write_snapshot(
        "BENCH_landmark_sweep.json",
        &Json::obj([
            ("bench", "landmark_sweep".into()),
            ("entries", entries.into()),
        ]),
    );
    println!("snapshot written to {}", out.display());
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_snapshot
}
criterion_main!(benches);
