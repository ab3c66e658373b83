//! Serving-path bench: the `routeserve` front door's msgs/s per scheme.
//!
//! Criterion-style timings on a moderate graph, plus a hand-timed snapshot
//! written to `BENCH_serve.json` in the workspace root: for every scheme
//! that scales to large graphs (tree, landmark, e-cube, dimension-order),
//! msgs/s over a uniform query stream at `n = 4096`, and one landmark point
//! at `n = 131072` where table-per-node schemes cannot even build.  A second list sweeps
//! the landmark scheme over graph families at one thread, with its landmark
//! count, resident bytes and sampled stretch next to those at `⌈√n⌉`
//! landmarks (see [`landmark_family_sweep`]).

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use analysis::report::Json;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::{generators, Graph, GraphView};
use routeschemes::landmark::{LandmarkConfig, LandmarkCount, LandmarkRouting};
use routeschemes::spec::SchemeSpec;
use routeschemes::{GraphHints, SchemeKind};
use routeserve::{serve, ServeConfig};
use routing_bench::{quick_criterion, write_snapshot};
use trafficlab::{run_workload, EngineConfig, GraphSpec, WorkloadPlan, WorkloadSpec};

fn serve_graph(n: usize) -> Graph {
    generators::random_connected(n, 8.0 / n as f64, 0xC5A)
}

fn uniform_plan(n: usize, messages: u64) -> WorkloadPlan {
    WorkloadSpec::Uniform { messages, seed: 1 }.compile(n)
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

/// Serves one uniform stream with one scheme and returns its snapshot
/// entry, echoed to the console.
fn run_entry(name: &str, g: &Graph, spec: &SchemeSpec, hints: &GraphHints, messages: u64) -> Json {
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
    println!(
        "snapshot: {name:<28} n={n:<7} {:>10.0} msgs/s  delivery {:.4}",
        stats.messages_per_sec(),
        stats.delivery_rate()
    );
    Json::obj([
        ("name", name.into()),
        ("n", n.into()),
        ("messages", stats.outcomes.attempted().into()),
        ("msgs_per_sec", stats.messages_per_sec().into()),
        ("delivery_rate", stats.delivery_rate().into()),
        ("chunk_p50_us", stats.chunk_p50_us.into()),
        ("chunk_p99_us", stats.chunk_p99_us.into()),
    ])
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

/// The sampled stretch workload of a sweep point: 48 BFS sources, 800
/// destinations each.
const SWEEP_STRETCH: WorkloadSpec = WorkloadSpec::SampledSources {
    sources: 48,
    dests_per_source: 800,
    seed: 21,
};

/// One landmark instance's size and route quality: its landmark count,
/// resident bytes, and the stretch of [`SWEEP_STRETCH`], measured against one
/// BFS per source (no distance matrix).
struct Quality {
    k: usize,
    heap_bytes: usize,
    avg_stretch: f64,
    max_stretch: f64,
}

impl Quality {
    fn json_pairs(&self) -> [(&'static str, Json); 4] {
        [
            ("k", self.k.into()),
            ("heap_bytes", self.heap_bytes.into()),
            ("avg_stretch", self.avg_stretch.into()),
            ("max_stretch", self.max_stretch.into()),
        ]
    }
}

fn quality(g: &Graph, r: &LandmarkRouting) -> Quality {
    let plan = SWEEP_STRETCH.compile(g.num_nodes());
    let rep = run_workload(
        g,
        r,
        &plan,
        &EngineConfig {
            threads: 0,
            block_rows: 0,
            track_congestion: false,
        },
    )
    .expect("landmark routing delivers every sampled pair");
    assert_eq!(rep.outcomes.delivered, rep.outcomes.attempted());
    Quality {
        k: r.landmarks().len(),
        heap_bytes: r.heap_bytes().total(),
        avg_stretch: rep.stretch.avg_stretch,
        max_stretch: rep.stretch.max_stretch,
    }
}

/// Landmark serving on one thread across graph families.  A hop's
/// cluster lookup starts from an interpolation guess, which assumes a
/// cluster's member ids spread evenly over their range.  Preferential
/// attachment (id = arrival order, so low ids are the hubs), power-law
/// degrees, the grid (id = row-major position) and the Theorem 1 instance
/// (ids grouped by level) all give ids structure; the random regular graph
/// is the control.  One thread, so each number is the routing kernel's.
/// Each point is reproduced by `routeserve --graph <spec> --scheme landmark
/// --workload 'uniform?messages=200000&seed=1' --threads 1`.
///
/// Each point also records the default's bytes and stretch next to those
/// at `⌈√n⌉` landmarks, and asserts what the default promises: every pair
/// delivered, max stretch below 3 and no worse than at `⌈√n⌉`.  Returns
/// one snapshot entry per family, echoed to the console.
fn landmark_family_sweep() -> Vec<Json> {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::batched()
    };
    SWEEP_GRAPHS
        .iter()
        .map(|&graph| {
            let built = GraphSpec::parse(graph).expect("valid graph spec").build();
            let g = &built.graph;
            let n = g.num_nodes();
            let r = LandmarkRouting::build_with(g, &LandmarkConfig::default());
            let plan = uniform_plan(n, SWEEP_MESSAGES);
            let stats = serve(GraphView::full(g), &r, &plan, &cfg).unwrap();
            assert_eq!(stats.delivery_rate(), 1.0, "{graph}");
            let auto = quality(g, &r);
            drop(r);
            let sqrt_n = quality(
                g,
                &LandmarkRouting::build_with(
                    g,
                    &LandmarkConfig {
                        landmarks: LandmarkCount::Count((n as f64).sqrt().ceil() as usize),
                        ..LandmarkConfig::default()
                    },
                ),
            );
            assert!(
                auto.max_stretch < 3.0 && auto.max_stretch <= sqrt_n.max_stretch,
                "{graph}: max stretch {} at k = {}, {} at k = {}",
                auto.max_stretch,
                auto.k,
                sqrt_n.max_stretch,
                sqrt_n.k
            );
            let (a, q) = (&auto, &sqrt_n);
            println!(
                "landmark sweep: {graph:<24} n={n:<6} {:>10.0} msgs/s  delivery {:.4}  k {:<4} {:>6.1} MB  stretch avg {:.3} max {:.3}  (k {:<4} {:>6.1} MB  avg {:.3} max {:.3})",
                stats.messages_per_sec(),
                stats.delivery_rate(),
                a.k,
                a.heap_bytes as f64 / 1e6,
                a.avg_stretch,
                a.max_stretch,
                q.k,
                q.heap_bytes as f64 / 1e6,
                q.avg_stretch,
                q.max_stretch
            );
            let head = [
                ("graph", graph.into()),
                ("scheme", "landmark".into()),
                ("n", n.into()),
                ("messages", stats.outcomes.attempted().into()),
                ("threads", stats.threads.into()),
                ("msgs_per_sec", stats.messages_per_sec().into()),
                ("delivery_rate", stats.delivery_rate().into()),
            ];
            Json::obj(
                head.into_iter()
                    .chain(auto.json_pairs())
                    .chain([("sqrt_n", Json::obj(sqrt_n.json_pairs()))]),
            )
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
            "uniform-1m-tree",
            &g,
            &SchemeSpec::default_for(SchemeKind::SpanningTree),
            &GraphHints::none(),
            1_000_000,
        ));
    }
    {
        let g = serve_graph(4096);
        entries.push(run_entry(
            "uniform-1m-landmark",
            &g,
            &SchemeSpec::default_for(SchemeKind::Landmark),
            &GraphHints::none(),
            1_000_000,
        ));
    }
    {
        let g = generators::hypercube(12); // n = 4096
        entries.push(run_entry(
            "uniform-1m-hypercube",
            &g,
            &SchemeSpec::default_for(SchemeKind::Ecube),
            &GraphHints::hypercube(12),
            1_000_000,
        ));
    }
    {
        let g = generators::grid(64, 64); // n = 4096
        entries.push(run_entry(
            "uniform-1m-grid",
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
            "uniform-200k-landmark-130k",
            &g,
            &SchemeSpec::default_for(SchemeKind::Landmark),
            &GraphHints::none(),
            200_000,
        ));
    }

    let out = write_snapshot(
        "BENCH_serve.json",
        &Json::obj([
            ("bench", "serve_throughput".into()),
            ("entries", entries.into()),
            ("landmark_families", landmark_family_sweep().into()),
        ]),
    );
    println!("snapshot written to {}", out.display());
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_serve, bench_snapshot
}
criterion_main!(benches);
