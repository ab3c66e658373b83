//! CSR pipeline bench: all-pairs BFS distances and the exact all-pairs
//! stretch sweep, the two hot paths every table/figure/bench in this
//! repository rests on.  Both run on `graphkit::par::map_fold_ordered` at
//! `graphkit::par::default_threads` workers: flat CSR slices, one reusable
//! BFS scratch and routing header per worker, results folded in source
//! order.  The stretch sweep is the `trafficlab` engine's
//! `stretch_factor_blocked`, which computes its own block-local BFS rows.
//!
//! Besides the criterion-style console output, running this bench writes a
//! machine-readable snapshot to `BENCH_csr.json` in the workspace root
//! (best-of-N wall time per stage), so the two layers can be compared
//! before and after a change on one machine.

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::{generators, DistanceMatrix, Graph};
use routemodel::{TableRouting, TieBreak};
use routing_bench::quick_criterion;
use std::time::Instant;
use trafficlab::stretch_factor_blocked;

fn workload(n: usize) -> Graph {
    generators::random_connected(n, 8.0 / n as f64, 0xC5A)
}

fn bench_all_pairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr-pipeline/all-pairs-distances");
    for &n in &[256usize, 1024, 4096] {
        let g = workload(n);
        group.bench_with_input(BenchmarkId::new("csr", n), &g, |b, g| {
            b.iter(|| DistanceMatrix::all_pairs(g).dist(0, 1));
        });
    }
    group.finish();
}

fn bench_exact_stretch(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr-pipeline/exact-stretch");
    for &n in &[256usize, 1024] {
        let g = workload(n);
        let table = TableRouting::shortest_paths(&g, TieBreak::LowestPort);
        group.bench_with_input(BenchmarkId::new("csr", n), &(), |b, ()| {
            b.iter(|| {
                stretch_factor_blocked(&g, &table, 0, 0)
                    .unwrap()
                    .max_stretch
            });
        });
    }
    group.finish();
}

/// One snapshot entry: best-of-N wall time of one pipeline stage.
struct Entry {
    name: &'static str,
    n: usize,
    csr_ms: f64,
}

fn time_best_of<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Hand-timed snapshot written to `BENCH_csr.json`: all-pairs distances at
/// n = 256, 1024, 4096 and the combined "tables + all-pairs distances and
/// exact stretch" pipeline at n = 256, 1024 (the blocked stretch sweep
/// computes the distance rows it reads).
fn bench_snapshot(_c: &mut Criterion) {
    let mut entries = Vec::new();
    for &(n, runs) in &[(256usize, 5usize), (1024, 3), (4096, 2)] {
        let g = workload(n);
        let csr_ms = time_best_of(runs, || {
            std::hint::black_box(DistanceMatrix::all_pairs(&g));
        });
        entries.push(Entry {
            name: "all-pairs-distances",
            n,
            csr_ms,
        });
    }
    for &(n, runs) in &[(256usize, 5usize), (1024, 3)] {
        let g = workload(n);
        let csr_ms = time_best_of(runs, || {
            let table = TableRouting::shortest_paths(&g, TieBreak::LowestPort);
            std::hint::black_box(stretch_factor_blocked(&g, &table, 0, 0).unwrap());
        });
        entries.push(Entry {
            name: "apsp-plus-exact-stretch",
            n,
            csr_ms,
        });
    }

    let mut json = String::from("{\n  \"bench\": \"csr_pipeline\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"csr_ms\": {:.3}}}{}\n",
            e.name,
            e.n,
            e.csr_ms,
            if i + 1 == entries.len() { "" } else { "," }
        ));
        println!(
            "snapshot: {:<28} n={:<5} csr {:>10.2} ms",
            e.name, e.n, e.csr_ms
        );
    }
    json.push_str("  ]\n}\n");

    // workspace root = two levels above this crate's manifest dir
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let out = root.join("BENCH_csr.json");
    std::fs::write(&out, json).expect("write BENCH_csr.json");
    println!("snapshot written to {}", out.display());
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_all_pairs, bench_exact_stretch, bench_snapshot
}
criterion_main!(benches);
