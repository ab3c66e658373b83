//! Incremental repair vs. full rebuild after link churn.
//!
//! A churn event kills 0.1% of the links; the scheme must adapt.  The
//! baseline re-runs the sparse landmark construction on the masked view;
//! the incremental path patches only the vertices whose stored distances
//! the dead edges actually moved, and is pinned bit-identical to the
//! rebuild by the `routeschemes` repair tests.  The hand-timed snapshot in
//! `BENCH_churn.json` records both at `n = 4096` and `n = 131072` — the
//! speedup grows with `n` because damage from a fixed kill *rate* stays
//! local while the rebuild cost does not.
//!
//! Both arms are **parallel**: the rebuild's landmark and cluster phases
//! and the repair's column, gains, suspects and patch passes run on
//! `graphkit::par::default_threads(n)` workers, recorded per entry as
//! `rebuild_threads` and `repair_threads`.  The ratio is therefore the
//! fastest repair against the fastest rebuild this machine offers.
//! Snapshots taken before the build went parallel compared against a
//! one-thread rebuild and overstate the speedup accordingly.
//!
//! The criterion half times the two paths head to head at `n = 4096`; the
//! repair routine clones the pre-churn instance each iteration (repair
//! mutates in place), so its criterion number slightly overstates the
//! repair cost — the snapshot times the repair call alone.

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use analysis::report::Json;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::{generators, FailureSet, Graph, GraphView};
use routeschemes::landmark::{LandmarkConfig, LandmarkRouting};
use routeschemes::SchemeRouting;
use routing_bench::{quick_criterion, write_snapshot};
use std::time::Instant;

const SEED: u64 = 0x7AFF1C;
/// Link fraction killed by one churn event.
const KILL: f64 = 0.001;
const FAILURE_SEED: u64 = 0xDEAD;

fn workload_graph(n: usize) -> Graph {
    if n >= 16_384 {
        generators::random_regular_like(n, 8, 0xB16)
    } else {
        generators::random_connected(n, 8.0 / n as f64, 0xC5A)
    }
}

fn bench_repair_vs_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn/repair-4096");
    let g = workload_graph(4096);
    let cfg = LandmarkConfig {
        seed: SEED,
        ..LandmarkConfig::default()
    };
    let base = LandmarkRouting::build_with(&g, &cfg);
    let none = FailureSet::empty(&g);
    let failures = FailureSet::sample(&g, KILL, FAILURE_SEED);
    group.bench_with_input(BenchmarkId::new("rebuild", 4096), &(), |b, ()| {
        b.iter(|| {
            LandmarkRouting::build_on_view(GraphView::masked(&g, &failures), &cfg)
                .landmarks()
                .len()
        });
    });
    group.bench_with_input(BenchmarkId::new("repair", 4096), &(), |b, ()| {
        b.iter(|| {
            let mut r = base.clone();
            r.repair(&g, &none, &failures).unwrap().vertices_touched
        });
    });
    group.finish();
}

/// One snapshot entry, echoed to the console: repair and rebuild timed on
/// the same churn event, both on `default_threads(n)` workers.  Returns
/// the entry and its repair speedup.
fn run_entry(n: usize) -> (Json, f64) {
    let g = workload_graph(n);
    let cfg = LandmarkConfig {
        seed: SEED,
        ..LandmarkConfig::default()
    };
    let base = LandmarkRouting::build_with(&g, &cfg);
    let none = FailureSet::empty(&g);
    let failures = FailureSet::sample(&g, KILL, FAILURE_SEED);

    let t0 = Instant::now();
    let rebuilt = LandmarkRouting::build_on_view(GraphView::masked(&g, &failures), &cfg);
    let rebuild_secs = t0.elapsed().as_secs_f64();

    let mut repaired = base.clone();
    let t0 = Instant::now();
    let out = repaired.repair(&g, &none, &failures).unwrap();
    let repair_secs = t0.elapsed().as_secs_f64();

    assert!(!out.full_rebuild, "nested churn must repair incrementally");
    assert_eq!(repaired, rebuilt, "repair must be bit-identical to rebuild");

    let (edges, dead) = (g.num_edges(), failures.dead_edges().len());
    let threads = graphkit::par::default_threads(n);
    let speedup = rebuild_secs / repair_secs.max(1e-9);
    println!(
        "snapshot: n={n:<7} edges={edges:<8} dead={dead:<4} touched={:<7} repair {repair_secs:>8.4}s  rebuild {rebuild_secs:>8.4}s  ({speedup:.2}x)",
        out.vertices_touched
    );
    let entry = Json::obj([
        ("n", n.into()),
        ("edges", edges.into()),
        ("dead_links", dead.into()),
        ("vertices_touched", out.vertices_touched.into()),
        ("repair_secs", repair_secs.into()),
        ("rebuild_secs", rebuild_secs.into()),
        ("rebuild_threads", threads.into()),
        ("repair_threads", threads.into()),
        ("repair_speedup", speedup.into()),
    ]);
    (entry, speedup)
}

/// Hand-timed snapshot written to `BENCH_churn.json`.
fn bench_snapshot(_c: &mut Criterion) {
    let (small, _) = run_entry(4096);
    let (large, final_speedup) = run_entry(131_072);
    let out = write_snapshot(
        "BENCH_churn.json",
        &Json::obj([
            ("bench", "churn_repair".into()),
            ("kill_rate", KILL.into()),
            ("entries", vec![small, large].into()),
            ("repair_speedup_131072", final_speedup.into()),
        ]),
    );
    println!(
        "snapshot written to {} (repair vs rebuild at n=131072: {final_speedup:.2}x)",
        out.display()
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_repair_vs_rebuild, bench_snapshot
}
criterion_main!(benches);
