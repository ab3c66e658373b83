//! Trafficlab engine bench: throughput and memory of the sharded
//! workload pipeline.
//!
//! Criterion-style timings for the engine on moderate graphs, plus a
//! hand-timed snapshot written to `BENCH_trafficlab.json` in the workspace
//! root: messages per second and the engine's peak-memory proxy per
//! scenario, next to the bytes a dense `n²` distance matrix would have
//! needed.  The snapshot includes one `n = 131072` sharded point — a graph
//! on which the dense pipeline cannot run at all (the matrix alone is
//! 64 GiB).

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::{generators, DistanceMatrix, Graph};
use routemodel::{stretch_factor, TableRouting, TieBreak};
use routeschemes::{CompactScheme, EcubeScheme, SchemeInstance, SpanningTreeScheme};
use routing_bench::quick_criterion;
use std::time::Instant;
use trafficlab::{run_workload, stretch_factor_blocked, EngineConfig, WorkloadSpec};

fn workload_graph(n: usize) -> Graph {
    generators::random_connected(n, 8.0 / n as f64, 0xC5A)
}

fn tree_instance(g: &Graph) -> SchemeInstance {
    SpanningTreeScheme::default().build(g)
}

fn bench_uniform_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("trafficlab/uniform-20k");
    for &n in &[256usize, 1024] {
        let g = workload_graph(n);
        let inst = tree_instance(&g);
        let plan = WorkloadSpec::Uniform {
            messages: 20_000,
            seed: 1,
        }
        .compile(n);
        group.bench_with_input(BenchmarkId::new("tree", n), &(), |b, ()| {
            b.iter(|| {
                run_workload(&g, inst.routing.as_ref(), &plan, &EngineConfig::default())
                    .unwrap()
                    .routed_messages
            });
        });
    }
    group.finish();
}

fn bench_blocked_vs_dense_stretch(c: &mut Criterion) {
    // The sharded all-pairs sweep against the dense-matrix sweep it
    // replaces, same result bit-for-bit.
    let n = 1024usize;
    let g = workload_graph(n);
    let dm = DistanceMatrix::all_pairs(&g);
    let table = TableRouting::from_distances(&g, &dm, TieBreak::LowestPort);
    let mut group = c.benchmark_group("trafficlab/all-pairs-stretch-1024");
    group.bench_with_input(BenchmarkId::new("dense", n), &(), |b, ()| {
        b.iter(|| {
            let dm = DistanceMatrix::all_pairs(&g);
            stretch_factor(&g, &dm, &table).unwrap().max_stretch
        });
    });
    group.bench_with_input(BenchmarkId::new("blocked", n), &(), |b, ()| {
        b.iter(|| {
            stretch_factor_blocked(&g, &table, 0, 64)
                .unwrap()
                .max_stretch
        });
    });
    group.finish();
}

/// One snapshot entry.
struct Entry {
    name: &'static str,
    n: usize,
    messages: u64,
    secs: f64,
    msgs_per_sec: f64,
    peak_tracked_bytes: u64,
    dense_matrix_bytes: u64,
    narrow_blocks: usize,
    blocks: usize,
}

fn run_entry(
    name: &'static str,
    g: &Graph,
    inst: &SchemeInstance,
    workload: &WorkloadSpec,
    cfg: &EngineConfig,
) -> Entry {
    let plan = workload.compile(g.num_nodes());
    let t0 = Instant::now();
    let rep = run_workload(g, inst.routing.as_ref(), &plan, cfg).expect("workload runs");
    let secs = t0.elapsed().as_secs_f64();
    let n = g.num_nodes() as u64;
    Entry {
        name,
        n: g.num_nodes(),
        messages: rep.routed_messages,
        secs,
        msgs_per_sec: rep.routed_messages as f64 / secs.max(1e-9),
        peak_tracked_bytes: rep.peak_tracked_bytes,
        dense_matrix_bytes: 4 * n * n,
        narrow_blocks: rep.narrow_blocks,
        blocks: rep.blocks,
    }
}

/// Hand-timed snapshot written to `BENCH_trafficlab.json`.
fn bench_snapshot(_c: &mut Criterion) {
    let mut entries = Vec::new();

    // Moderate graph, dense-style workload.
    {
        let g = workload_graph(1024);
        let inst = tree_instance(&g);
        entries.push(run_entry(
            "uniform-20k-tree",
            &g,
            &inst,
            &WorkloadSpec::Uniform {
                messages: 20_000,
                seed: 1,
            },
            &EngineConfig::default(),
        ));
    }

    // The acceptance point: >= 10^6 messages on an n = 4096 graph.
    {
        let g = workload_graph(4096);
        let inst = tree_instance(&g);
        entries.push(run_entry(
            "uniform-1m-tree",
            &g,
            &inst,
            &WorkloadSpec::Uniform {
                messages: 1_000_000,
                seed: 7,
            },
            &EngineConfig::default(),
        ));
    }

    // The adversarial patterns of the spec-language refactor, on the
    // 10-cube under e-cube routing: `bisection` pushes every message across
    // the top-dimension cut, `worstperm` sends derangement rotations.
    {
        let g = generators::hypercube(10);
        let inst = EcubeScheme.build(&g);
        entries.push(run_entry(
            "bisection-200k-ecube",
            &g,
            &inst,
            &WorkloadSpec::Bisection {
                messages: 200_000,
                seed: 5,
            },
            &EngineConfig::default(),
        ));
        entries.push(run_entry(
            "worstperm-64r-ecube",
            &g,
            &inst,
            &WorkloadSpec::WorstPerm {
                rounds: 64,
                seed: 13,
            },
            &EngineConfig::default(),
        ));
    }

    // The sharded point: n >= 10^5, impossible for the dense pipeline.
    {
        let g = generators::random_regular_like(131_072, 8, 0xB16);
        let inst = tree_instance(&g);
        entries.push(run_entry(
            "sharded-130k-sampled",
            &g,
            &inst,
            &WorkloadSpec::SampledSources {
                sources: 64,
                dests_per_source: 64,
                seed: 11,
            },
            &EngineConfig {
                threads: 0,
                block_rows: 1,
                track_congestion: false,
            },
        ));
    }

    let mut json = String::from("{\n  \"bench\": \"trafficlab_engine\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"n\": {}, \"messages\": {}, \"secs\": {:.3}, ",
                "\"msgs_per_sec\": {:.0}, \"peak_tracked_bytes\": {}, ",
                "\"dense_matrix_bytes\": {}, \"narrow_blocks\": {}, \"blocks\": {}}}{}\n"
            ),
            e.name,
            e.n,
            e.messages,
            e.secs,
            e.msgs_per_sec,
            e.peak_tracked_bytes,
            e.dense_matrix_bytes,
            e.narrow_blocks,
            e.blocks,
            if i + 1 == entries.len() { "" } else { "," }
        ));
        println!(
            "snapshot: {:<22} n={:<7} msgs={:<8} {:>9.0} msgs/s  peak {:>12} B  (dense matrix would be {} B)",
            e.name, e.n, e.messages, e.msgs_per_sec, e.peak_tracked_bytes, e.dense_matrix_bytes
        );
    }
    json.push_str("  ]\n}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let out = root.join("BENCH_trafficlab.json");
    std::fs::write(&out, json).expect("write BENCH_trafficlab.json");
    println!("snapshot written to {}", out.display());
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_uniform_throughput, bench_blocked_vs_dense_stretch, bench_snapshot
}
criterion_main!(benches);
