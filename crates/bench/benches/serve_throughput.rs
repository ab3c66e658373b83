//! Serving-path bench: the `routeserve` front door's msgs/s per scheme.
//!
//! Criterion-style timings on a moderate graph, plus a hand-timed snapshot
//! written to `BENCH_serve.json` in the workspace root: for every scheme
//! that scales to large graphs (tree, landmark, e-cube, dimension-order),
//! msgs/s over a uniform query stream at `n = 4096`, and one landmark point
//! at `n = 131072` where table-per-node schemes cannot even build.  A second list sweeps
//! the landmark scheme over graph families at one thread (see
//! [`landmark_family_sweep`]).

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::{generators, Graph, GraphView};
use routeschemes::spec::SchemeSpec;
use routeschemes::{GraphHints, SchemeKind};
use routeserve::{serve, ServeConfig, ServeStats};
use routing_bench::quick_criterion;
use trafficlab::{GraphSpec, Workload, WorkloadPlan};

fn serve_graph(n: usize) -> Graph {
    generators::random_connected(n, 8.0 / n as f64, 0xC5A)
}

fn uniform_plan(n: usize, messages: u64) -> WorkloadPlan {
    Workload::Uniform { messages, seed: 1 }.compile(n)
}

fn bench_serve(c: &mut Criterion) {
    let n = 1024usize;
    let g = serve_graph(n);
    let inst = SchemeSpec::default_for(SchemeKind::SpanningTree)
        .build(&g, &GraphHints::none())
        .unwrap();
    let plan = uniform_plan(n, 50_000);
    let cfg = ServeConfig::batched();
    let mut group = c.benchmark_group("routeserve/uniform-50k-tree");
    group.bench_with_input(BenchmarkId::new("serve", n), &(), |b, ()| {
        b.iter(|| {
            serve(GraphView::full(&g), &*inst.routing, &plan, &cfg)
                .unwrap()
                .outcomes
                .delivered
        });
    });
    group.finish();
}

/// One snapshot entry: one scheme served over one uniform stream.
struct Entry {
    name: String,
    n: usize,
    stats: ServeStats,
}

fn run_entry(
    name: String,
    g: &Graph,
    spec: &SchemeSpec,
    hints: &GraphHints,
    messages: u64,
) -> Entry {
    let inst = spec.build(g, hints).expect("scheme builds");
    let n = g.num_nodes();
    let plan = uniform_plan(n, messages);
    let stats = serve(
        GraphView::full(g),
        &*inst.routing,
        &plan,
        &ServeConfig::batched(),
    )
    .unwrap();
    Entry { name, n, stats }
}

/// Graph families of the landmark sweep, as `GraphSpec` strings.
const SWEEP_GRAPHS: [&str; 5] = [
    "regular?n=32768&d=8",
    "ba?n=32768&m=4",
    "powerlaw?n=32768",
    "grid?rows=181&cols=181",
    "theorem1?n=4096",
];

/// Queries per sweep point.
const SWEEP_MESSAGES: u64 = 200_000;

/// Landmark serving on one thread across graph families.  A hop's
/// cluster lookup starts from an interpolation guess, which assumes a
/// cluster's member ids spread evenly over their range.  Preferential
/// attachment (id = arrival order, so low ids are the hubs), power-law
/// degrees, the grid (id = row-major position) and the Theorem 1 instance
/// (ids grouped by level) all give ids structure; the random regular graph
/// is the control.  One thread, so each number is the routing kernel's.
/// Each point is reproduced by `routeserve --graph <spec> --scheme landmark
/// --workload 'uniform?messages=200000&seed=1' --threads 1`.
fn landmark_family_sweep() -> Vec<(&'static str, usize, ServeStats)> {
    let scheme = SchemeSpec::default_for(SchemeKind::Landmark);
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::batched()
    };
    SWEEP_GRAPHS
        .iter()
        .map(|&spec| {
            let built = GraphSpec::parse(spec).expect("valid graph spec").build();
            let inst = scheme
                .build(&built.graph, &built.hints)
                .expect("landmark builds");
            let n = built.graph.num_nodes();
            let plan = uniform_plan(n, SWEEP_MESSAGES);
            let stats = serve(GraphView::full(&built.graph), &*inst.routing, &plan, &cfg).unwrap();
            (spec, n, stats)
        })
        .collect()
}

/// Hand-timed snapshot written to `BENCH_serve.json`.
fn bench_snapshot(_c: &mut Criterion) {
    let mut entries = Vec::new();

    // Every scheme the registry marks as scaling to large graphs, at the
    // n = 4096 acceptance point (>= 10^6 msgs/s), each on the graph
    // family it is defined for.  Tree-interval routing serves from a
    // balanced tree: on a random graph its DFS spanning tree is hundreds of
    // levels deep, and hop count — not kernel cost — caps msgs/s there.
    {
        let g = generators::balanced_tree(2, 11); // n = 4095
        entries.push(run_entry(
            "uniform-1m-tree".to_string(),
            &g,
            &SchemeSpec::default_for(SchemeKind::SpanningTree),
            &GraphHints::none(),
            1_000_000,
        ));
    }
    {
        let g = serve_graph(4096);
        entries.push(run_entry(
            "uniform-1m-landmark".to_string(),
            &g,
            &SchemeSpec::default_for(SchemeKind::Landmark),
            &GraphHints::none(),
            1_000_000,
        ));
    }
    {
        let g = generators::hypercube(12); // n = 4096
        entries.push(run_entry(
            "uniform-1m-hypercube".to_string(),
            &g,
            &SchemeSpec::default_for(SchemeKind::Ecube),
            &GraphHints::hypercube(12),
            1_000_000,
        ));
    }
    {
        let g = generators::grid(64, 64); // n = 4096
        entries.push(run_entry(
            "uniform-1m-grid".to_string(),
            &g,
            &SchemeSpec::default_for(SchemeKind::DimensionOrder),
            &GraphHints::grid(64, 64),
            1_000_000,
        ));
    }

    // The landmark point no dense pipeline reaches: n = 131072.
    {
        let g = generators::random_regular_like(131_072, 8, 0xB16);
        entries.push(run_entry(
            "uniform-200k-landmark-130k".to_string(),
            &g,
            &SchemeSpec::default_for(SchemeKind::Landmark),
            &GraphHints::none(),
            200_000,
        ));
    }

    let mut json = String::from("{\n  \"bench\": \"serve_throughput\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"n\": {}, \"messages\": {}, ",
                "\"msgs_per_sec\": {:.0}, \"delivery_rate\": {:.6}, ",
                "\"chunk_p50_us\": {:.2}, \"chunk_p99_us\": {:.2}}}{}\n"
            ),
            e.name,
            e.n,
            e.stats.outcomes.attempted(),
            e.stats.messages_per_sec(),
            e.stats.delivery_rate(),
            e.stats.chunk_p50_us,
            e.stats.chunk_p99_us,
            if i + 1 == entries.len() { "" } else { "," }
        ));
        println!(
            "snapshot: {:<28} n={:<7} {:>10.0} msgs/s  delivery {:.4}",
            e.name,
            e.n,
            e.stats.messages_per_sec(),
            e.stats.delivery_rate()
        );
    }
    json.push_str("  ],\n  \"landmark_families\": [\n");
    let sweep = landmark_family_sweep();
    for (i, (graph, n, stats)) in sweep.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"graph\": \"{}\", \"scheme\": \"landmark\", \"n\": {}, ",
                "\"messages\": {}, \"threads\": {}, \"msgs_per_sec\": {:.0}, ",
                "\"delivery_rate\": {:.6}}}{}\n"
            ),
            graph,
            n,
            stats.outcomes.attempted(),
            stats.threads,
            stats.messages_per_sec(),
            stats.delivery_rate(),
            if i + 1 == sweep.len() { "" } else { "," }
        ));
        println!(
            "landmark sweep: {:<24} n={:<6} {:>10.0} msgs/s  delivery {:.4}",
            graph,
            n,
            stats.messages_per_sec(),
            stats.delivery_rate()
        );
    }
    json.push_str("  ]\n}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let out = root.join("BENCH_serve.json");
    std::fs::write(&out, json).expect("write BENCH_serve.json");
    println!("snapshot written to {}", out.display());
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_serve, bench_snapshot
}
criterion_main!(benches);
