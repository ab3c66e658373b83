//! Trafficlab engine bench: throughput and memory of the sharded
//! workload pipeline.
//!
//! Criterion-style timings for the engine on moderate graphs, plus a
//! hand-timed snapshot written to `BENCH_trafficlab.json` in the workspace
//! root: messages per second and the engine's peak-memory proxy per
//! scenario, next to the bytes a dense `n²` distance matrix would have
//! needed.  The snapshot includes one `n = 131072` sharded point — a graph
//! on which the dense pipeline cannot run at all (the matrix alone is
//! 64 GiB) — and the exact all-pairs sweep of the Theorem 1 instance at
//! `n = 2048` under shortest-path tables and landmark routing.  Every entry
//! records whether the engine took the memoized all-pairs path
//! (`memoized`): the all-pairs entries must, the sampled and list-plan
//! entries must not.

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use analysis::report::Json;
use constraints::theorem1::build_worst_case_instance;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::{generators, Graph};
use routemodel::{RoutingFunction, TableRouting, TieBreak};
use routeschemes::{
    CompactScheme, EcubeScheme, GraphHints, SchemeInstance, SchemeKind, SpanningTreeScheme,
};
use routing_bench::{quick_criterion, write_snapshot};
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

fn bench_blocked_stretch(c: &mut Criterion) {
    // The sharded all-pairs sweep: BFS rows and routing, block by block.
    let n = 1024usize;
    let g = workload_graph(n);
    let table = TableRouting::shortest_paths(&g, TieBreak::LowestPort);
    let mut group = c.benchmark_group("trafficlab/all-pairs-stretch-1024");
    group.bench_with_input(BenchmarkId::new("blocked", n), &(), |b, ()| {
        b.iter(|| {
            stretch_factor_blocked(&g, &table, 0, 64)
                .unwrap()
                .max_stretch
        });
    });
    group.finish();
}

/// Runs `workload` through the engine and returns its snapshot entry,
/// echoed to the console.
fn run_entry<R: RoutingFunction + Sync + ?Sized>(
    name: &str,
    g: &Graph,
    r: &R,
    workload: &WorkloadSpec,
    cfg: &EngineConfig,
) -> Json {
    let plan = workload.compile(g.num_nodes());
    let t0 = Instant::now();
    let rep = run_workload(g, r, &plan, cfg).expect("workload runs");
    let secs = t0.elapsed().as_secs_f64();
    let n = g.num_nodes();
    let msgs_per_sec = rep.routed_messages as f64 / secs.max(1e-9);
    let dense_matrix_bytes = 4 * (n as u64).pow(2);
    println!(
        "snapshot: {name:<34} n={n:<7} msgs={:<8} {msgs_per_sec:>9.0} msgs/s  peak {:>12} B  memoized {}  (dense matrix would be {dense_matrix_bytes} B)",
        rep.routed_messages, rep.peak_tracked_bytes, rep.memoized
    );
    Json::obj([
        ("name", name.into()),
        ("n", n.into()),
        ("messages", rep.routed_messages.into()),
        ("secs", secs.into()),
        ("msgs_per_sec", msgs_per_sec.into()),
        ("peak_tracked_bytes", rep.peak_tracked_bytes.into()),
        ("dense_matrix_bytes", dense_matrix_bytes.into()),
        ("narrow_blocks", rep.narrow_blocks.into()),
        ("blocks", rep.blocks.into()),
        ("memoized", rep.memoized.into()),
    ])
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
            inst.routing.as_ref(),
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
            inst.routing.as_ref(),
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
            inst.routing.as_ref(),
            &WorkloadSpec::Bisection {
                messages: 200_000,
                seed: 5,
            },
            &EngineConfig::default(),
        ));
        entries.push(run_entry(
            "worstperm-64r-ecube",
            &g,
            inst.routing.as_ref(),
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
            inst.routing.as_ref(),
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

    // The exact all-pairs sweep of an audit: the Theorem 1 worst-case
    // instance under shortest-path tables and under landmark routing, both
    // resolved by the memoized destination-major path.
    {
        let (cg, _) = build_worst_case_instance(2048, 0.5, 1);
        let g = &cg.graph;
        let cfg = EngineConfig {
            threads: 0,
            block_rows: 0,
            track_congestion: false,
        };
        let table = TableRouting::shortest_paths(g, TieBreak::Seeded(1));
        entries.push(run_entry(
            "all-pairs-theorem1-2048-table",
            g,
            &table,
            &WorkloadSpec::AllPairs,
            &cfg,
        ));
        let landmark = SchemeKind::Landmark
            .default_spec()
            .build(g, &GraphHints::none())
            .expect("landmark builds on the connected Theorem 1 instance");
        entries.push(run_entry(
            "all-pairs-theorem1-2048-landmark",
            g,
            landmark.routing.as_ref(),
            &WorkloadSpec::AllPairs,
            &cfg,
        ));
    }

    let out = write_snapshot(
        "BENCH_trafficlab.json",
        &Json::obj([
            ("bench", "trafficlab_engine".into()),
            ("entries", entries.into()),
        ]),
    );
    println!("snapshot written to {}", out.display());
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_uniform_throughput, bench_blocked_stretch, bench_snapshot
}
criterion_main!(benches);
