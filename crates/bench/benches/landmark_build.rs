//! Landmark-scheme construction bench: dense `n²` builder vs. the sparse
//! BFS pipeline.
//!
//! Criterion timings compare the two builders head to head at a size where
//! the dense one still fits, and a hand-timed snapshot written to
//! `BENCH_landmark.json` in the workspace root records the dense-vs-sparse
//! build at `n = 4096` plus the sparse-only point at `n = 131072` — the
//! graph on which the dense builder cannot run at all (its distance matrix
//! alone is 64 GiB).  Both builders run on
//! `graphkit::par::default_threads(n)` workers (the dense one in its
//! all-pairs BFS, the sparse one in its landmark and cluster phases); each
//! entry records that count as `threads`.
//!
//! Each entry also records the instance's cell width (`width`, bytes per
//! stored port and distance), its resident bytes table by table
//! (`LandmarkRouting::heap_bytes`), and `heap_bytes_u32`: the total the same
//! tables would take with 32-bit ports and distances.

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::{generators, Graph};
use routeschemes::landmark::{LandmarkConfig, LandmarkHeapBytes, LandmarkRouting};
use routing_bench::quick_criterion;
use std::time::Instant;

fn workload_graph(n: usize) -> Graph {
    if n >= 16_384 {
        generators::random_regular_like(n, 8, 0xB16)
    } else {
        generators::random_connected(n, 8.0 / n as f64, 0xC5A)
    }
}

fn bench_dense_vs_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("landmark/build-1024");
    let g = workload_graph(1024);
    group.bench_with_input(BenchmarkId::new("dense", 1024), &(), |b, ()| {
        b.iter(|| {
            LandmarkRouting::build_dense_with(&g, &LandmarkConfig::default())
                .landmarks()
                .len()
        });
    });
    group.bench_with_input(BenchmarkId::new("sparse", 1024), &(), |b, ()| {
        b.iter(|| {
            LandmarkRouting::build_with(&g, &LandmarkConfig::default())
                .landmarks()
                .len()
        });
    });
    group.finish();
}

/// One snapshot entry.
struct Entry {
    name: &'static str,
    n: usize,
    edges: usize,
    secs: f64,
    avg_cluster: f64,
    landmarks: usize,
    threads: usize,
    heap: LandmarkHeapBytes,
}

/// The total of `h` with every port and distance widened to `u32`.
fn u32_layout_bytes(h: &LandmarkHeapBytes) -> usize {
    let cells = h.toward_ports + h.toward_dists + h.cluster_ports + h.cluster_dists;
    h.total() + cells / h.cell_bytes * (4 - h.cell_bytes)
}

fn run_entry(name: &'static str, g: &Graph, build: impl Fn(&Graph) -> LandmarkRouting) -> Entry {
    let t0 = Instant::now();
    let r = build(g);
    let secs = t0.elapsed().as_secs_f64();
    Entry {
        name,
        n: g.num_nodes(),
        edges: g.num_edges(),
        secs,
        avg_cluster: r.average_cluster_size(),
        landmarks: r.landmarks().len(),
        threads: graphkit::par::default_threads(g.num_nodes()),
        heap: r.heap_bytes(),
    }
}

/// Hand-timed snapshot written to `BENCH_landmark.json`.
fn bench_snapshot(_c: &mut Criterion) {
    let mut entries = Vec::new();

    // Head-to-head at a size the dense builder can still afford.
    {
        let g = workload_graph(4096);
        entries.push(run_entry("dense-4096", &g, |g| {
            LandmarkRouting::build_dense_with(g, &LandmarkConfig::default())
        }));
        entries.push(run_entry("sparse-4096", &g, |g| {
            LandmarkRouting::build_with(g, &LandmarkConfig::default())
        }));
    }

    // The sparse-only point: n >= 10^5, impossible for the dense builder.
    {
        let g = workload_graph(131_072);
        entries.push(run_entry("sparse-131072", &g, |g| {
            LandmarkRouting::build_with(g, &LandmarkConfig::default())
        }));
    }

    let speedup_4096 = entries[0].secs / entries[1].secs.max(1e-9);
    let mut json = String::from("{\n  \"bench\": \"landmark_build\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let h = &e.heap;
        json.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"n\": {}, \"edges\": {}, \"threads\": {}, ",
                "\"secs\": {:.3}, \"landmarks\": {}, \"avg_cluster\": {:.1}, \"width\": {}, ",
                "\"heap_bytes\": {}, \"heap_bytes_u32\": {}, \"heap\": {{\"toward_ports\": {}, ",
                "\"toward_dists\": {}, \"cluster_targets\": {}, \"cluster_ports\": {}, ",
                "\"cluster_dists\": {}, \"offsets\": {}, \"labels\": {}}}}}{}\n"
            ),
            e.name,
            e.n,
            e.edges,
            e.threads,
            e.secs,
            e.landmarks,
            e.avg_cluster,
            h.cell_bytes,
            h.total(),
            u32_layout_bytes(h),
            h.toward_ports,
            h.toward_dists,
            h.cluster_targets,
            h.cluster_ports,
            h.cluster_dists,
            h.offsets,
            h.labels,
            if i + 1 == entries.len() { "" } else { "," }
        ));
        println!(
            "snapshot: {:<14} n={:<7} edges={:<8} threads={} {:>8.3}s  landmarks {:<4} avg cluster {:.1}  width {}  heap {:.1} MB (u32 layout {:.1} MB)",
            e.name,
            e.n,
            e.edges,
            e.threads,
            e.secs,
            e.landmarks,
            e.avg_cluster,
            h.cell_bytes,
            h.total() as f64 / 1e6,
            u32_layout_bytes(h) as f64 / 1e6
        );
    }
    json.push_str(&format!(
        "  ],\n  \"dense_over_sparse_speedup_4096\": {speedup_4096:.2}\n}}\n"
    ));

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let out = root.join("BENCH_landmark.json");
    std::fs::write(&out, json).expect("write BENCH_landmark.json");
    println!(
        "snapshot written to {} (dense/sparse at n=4096: {speedup_4096:.2}x)",
        out.display()
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_dense_vs_sparse, bench_snapshot
}
criterion_main!(benches);
