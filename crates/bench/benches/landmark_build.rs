//! Landmark-scheme construction bench: dense `n²` builder vs. the sparse
//! BFS pipeline.
//!
//! Criterion timings compare the two builders head to head at a size where
//! the dense one still fits, and a hand-timed snapshot written to
//! `BENCH_landmark.json` in the workspace root records the dense-vs-sparse
//! build at `n = 4096` (each arm the median of 5 alternating runs, so
//! `dense_over_sparse_speedup_4096` is a ratio of medians) plus the
//! sparse-only point at `n = 131072` — the graph on which the dense builder
//! cannot run at all (its distance matrix alone is 64 GiB).  Both builders
//! run on `graphkit::par::default_threads(n)` workers (the dense one in its
//! all-pairs BFS, the sparse one in its landmark and cluster phases); each
//! entry records that count as `threads`.
//!
//! Each entry also records the instance's cell width (`width`, bytes per
//! stored port and distance), its resident bytes table by table
//! (`LandmarkRouting::heap_bytes`), and `heap_bytes_u32`: the total the same
//! tables would take with 32-bit ports and distances.

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use analysis::report::Json;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::{generators, Graph};
use routeschemes::landmark::{LandmarkConfig, LandmarkHeapBytes, LandmarkRouting};
use routing_bench::{quick_criterion, write_snapshot};
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

/// The total of `h` with every port and distance widened to `u32`.
fn u32_layout_bytes(h: &LandmarkHeapBytes) -> usize {
    let cells = h.toward_ports + h.toward_dists + h.cluster_ports + h.cluster_dists;
    h.total() + cells / h.cell_bytes * (4 - h.cell_bytes)
}

/// One snapshot entry, echoed to the console: instance `r` built on `g` in
/// `secs`.
fn entry(name: &str, g: &Graph, secs: f64, r: &LandmarkRouting) -> Json {
    let (n, edges) = (g.num_nodes(), g.num_edges());
    let threads = graphkit::par::default_threads(n);
    let (landmarks, avg_cluster) = (r.landmarks().len(), r.average_cluster_size());
    let h = r.heap_bytes();
    println!(
        "snapshot: {name:<14} n={n:<7} edges={edges:<8} threads={threads} {secs:>8.3}s  landmarks {landmarks:<4} avg cluster {avg_cluster:.1}  width {}  heap {:.1} MB (u32 layout {:.1} MB)",
        h.cell_bytes,
        h.total() as f64 / 1e6,
        u32_layout_bytes(&h) as f64 / 1e6
    );
    Json::obj([
        ("name", name.into()),
        ("n", n.into()),
        ("edges", edges.into()),
        ("threads", threads.into()),
        ("secs", secs.into()),
        ("landmarks", landmarks.into()),
        ("avg_cluster", avg_cluster.into()),
        ("width", h.cell_bytes.into()),
        ("heap_bytes", h.total().into()),
        ("heap_bytes_u32", u32_layout_bytes(&h).into()),
        (
            "heap",
            Json::obj([
                ("toward_ports", h.toward_ports.into()),
                ("toward_dists", h.toward_dists.into()),
                ("cluster_targets", h.cluster_targets.into()),
                ("cluster_ports", h.cluster_ports.into()),
                ("cluster_dists", h.cluster_dists.into()),
                ("offsets", h.offsets.into()),
                ("labels", h.labels.into()),
            ]),
        ),
    ])
}

/// A snapshot entry's name and the builder it times.
type Builder = (&'static str, fn(&Graph) -> LandmarkRouting);

/// Builds `g` with each of `builders` in turn, for `runs` rounds, and
/// returns each builder's entry and median seconds, the entry describing
/// the instance its last round built.  Alternating the builders spreads
/// host drift over both arms, so the ratio of two medians tracks the
/// builders, not the host.
fn run_alternating(g: &Graph, runs: usize, builders: &[Builder]) -> Vec<(Json, f64)> {
    let mut secs = vec![Vec::new(); builders.len()];
    let mut built = Vec::new();
    for _ in 0..runs {
        built.clear();
        for (i, (_, build)) in builders.iter().enumerate() {
            let t0 = Instant::now();
            built.push(build(g));
            secs[i].push(t0.elapsed().as_secs_f64());
        }
    }
    builders
        .iter()
        .zip(secs)
        .zip(built)
        .map(|((&(name, _), mut secs), r)| {
            secs.sort_by(f64::total_cmp);
            let median = secs[secs.len() / 2];
            (entry(name, g, median, &r), median)
        })
        .collect()
}

/// Hand-timed snapshot written to `BENCH_landmark.json`.
fn bench_snapshot(_c: &mut Criterion) {
    let dense = |g: &Graph| LandmarkRouting::build_dense_with(g, &LandmarkConfig::default());
    let sparse = |g: &Graph| LandmarkRouting::build_with(g, &LandmarkConfig::default());
    // Head to head at a size the dense builder can still afford: the
    // median of 5 alternating runs per builder.
    let mut entries = run_alternating(
        &workload_graph(4096),
        5,
        &[("dense-4096", dense), ("sparse-4096", sparse)],
    );
    let speedup_4096 = entries[0].1 / entries[1].1.max(1e-9);
    // The sparse-only point: n >= 10^5, impossible for the dense builder.
    entries.extend(run_alternating(
        &workload_graph(131_072),
        1,
        &[("sparse-131072", sparse)],
    ));
    let out = write_snapshot(
        "BENCH_landmark.json",
        &Json::obj([
            ("bench", "landmark_build".into()),
            ("entries", entries.into_iter().map(|(e, _)| e).collect()),
            ("dense_over_sparse_speedup_4096", speedup_4096.into()),
        ]),
    );
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
