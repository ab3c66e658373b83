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

use criterion::{criterion_group, criterion_main, Criterion};
use graphkit::{generators, Graph};
use routeschemes::{GraphHints, LandmarkConfig, LandmarkCount, SchemeSpec};
use routing_bench::quick_criterion;
use std::time::Instant;
use trafficlab::{run_workload, EngineConfig, WorkloadSpec, LANDMARK_SWEEP_KS};

/// One snapshot entry.
struct Entry {
    n: usize,
    spec: String,
    build_secs: f64,
    local_bits: u64,
    avg_bits: f64,
    max_stretch: f64,
    avg_stretch: f64,
}

fn run_point(g: &Graph, k: usize, workload: &WorkloadSpec, block_rows: usize) -> Entry {
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
    assert!(
        rep.stretch.max_stretch <= 3.0 + 1e-9,
        "{}: measured stretch {} breaks the guarantee",
        spec.spec_string(),
        rep.stretch.max_stretch
    );
    Entry {
        n: g.num_nodes(),
        spec: spec.spec_string(),
        build_secs,
        local_bits: inst.memory.local(),
        avg_bits: inst.memory.average(),
        max_stretch: rep.stretch.max_stretch,
        avg_stretch: rep.stretch.avg_stretch,
    }
}

/// Hand-timed snapshot written to `BENCH_landmark_sweep.json`.
fn bench_snapshot(_c: &mut Criterion) {
    let mut entries = Vec::new();

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
            entries.push(run_point(&g, k, &workload, 0));
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
        entries.push(run_point(&g, 1024, &workload, 1));
    }

    // The decade must trace a monotone curve: more landmarks, more bits.
    for w in entries[..LANDMARK_SWEEP_KS.len()].windows(2) {
        assert!(
            w[0].local_bits < w[1].local_bits && w[0].avg_bits < w[1].avg_bits,
            "bits must increase along the sweep: {} vs {}",
            w[0].spec,
            w[1].spec
        );
    }

    let mut json = String::from("{\n  \"bench\": \"landmark_sweep\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"spec\": \"{}\", \"n\": {}, \"build_secs\": {:.3}, ",
                "\"local_bits\": {}, \"avg_bits\": {:.1}, ",
                "\"max_stretch\": {:.4}, \"avg_stretch\": {:.4}}}{}\n"
            ),
            e.spec,
            e.n,
            e.build_secs,
            e.local_bits,
            e.avg_bits,
            e.max_stretch,
            e.avg_stretch,
            if i + 1 == entries.len() { "" } else { "," }
        ));
        println!(
            "snapshot: {:<22} n={:<7} {:>7.2}s  local {:<6} avg {:>8.1}  stretch max {:.3} avg {:.3}",
            e.spec, e.n, e.build_secs, e.local_bits, e.avg_bits, e.max_stretch, e.avg_stretch
        );
    }
    json.push_str("  ]\n}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let out = root.join("BENCH_landmark_sweep.json");
    std::fs::write(&out, json).expect("write BENCH_landmark_sweep.json");
    println!("snapshot written to {}", out.display());
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_snapshot
}
criterion_main!(benches);
