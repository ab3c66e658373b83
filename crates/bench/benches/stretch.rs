//! Bench for the stretch-factor machinery: routing every pair and comparing
//! against BFS distances (the measurement every table entry rests on), on
//! the `trafficlab` engine that measures every parallel stretch.

// Bench targets report to the console by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::generators;
use routemodel::{TableRouting, TieBreak};
use routeschemes::CompactScheme;
use routeschemes::LandmarkScheme;
use routing_bench::{quick_criterion, FAMILY_SIZES};
use trafficlab::stretch_factor_blocked;

fn bench_exact_stretch(c: &mut Criterion) {
    let mut group = c.benchmark_group("stretch/exact-all-pairs");
    for &n in &FAMILY_SIZES {
        let g = generators::random_connected(n, 8.0 / n as f64, 31);
        let tables = TableRouting::shortest_paths(&g, TieBreak::LowestPort);
        group.bench_with_input(BenchmarkId::new("tables", n), &(), |b, _| {
            b.iter(|| {
                stretch_factor_blocked(&g, &tables, 0, 0)
                    .unwrap()
                    .max_stretch
            });
        });
        let lm = LandmarkScheme::new(5).build(&g);
        group.bench_with_input(BenchmarkId::new("landmark", n), &(), |b, _| {
            b.iter(|| {
                stretch_factor_blocked(&g, lm.routing.as_ref(), 0, 0)
                    .unwrap()
                    .max_stretch
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_exact_stretch
}
criterion_main!(benches);
