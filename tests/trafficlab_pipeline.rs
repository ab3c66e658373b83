//! Integration properties of the sharded workload pipeline, across crates:
//!
//! * block-streamed all-pairs stretch is **bit-identical** to the sequential
//!   reference `stretch_factor` over a dense `DistanceMatrix`, across graph
//!   families, worker counts and block sizes (including blocks that fall
//!   back to wide rows);
//! * per-arc congestion totals equal the sum of route lengths (flow
//!   conservation);
//! * every scheme of the registry measures within its promised stretch
//!   bound under traffic;
//! * `DistanceBlock` rows agree cell-for-cell with `DistanceMatrix`.

use graphkit::{generators, DistanceBlock, DistanceMatrix, Graph, Xoshiro256};
use routemodel::{stretch_factor, StretchReport, TableRouting, TieBreak};
use routeschemes::registry::{applicable_schemes, GraphHints};
use routeschemes::CompactScheme;
use trafficlab::{run_workload, stretch_factor_blocked, EngineConfig, WorkloadSpec};

fn graph_families() -> Vec<(&'static str, Graph, GraphHints)> {
    vec![
        (
            "random",
            generators::random_connected(96, 0.06, 41),
            GraphHints::none(),
        ),
        ("cycle", generators::cycle(80), GraphHints::none()),
        ("grid", generators::grid(8, 9), GraphHints::grid(8, 9)),
        ("hypercube", generators::hypercube(6), GraphHints::none()),
        ("tree", generators::random_tree(70, 11), GraphHints::none()),
        // Long path: BFS layers exceed 255, forcing the wide-row fallback.
        ("long-path", generators::path(300), GraphHints::none()),
    ]
}

fn assert_bit_identical(a: &StretchReport, b: &StretchReport, ctx: &str) {
    assert_eq!(a.max_stretch.to_bits(), b.max_stretch.to_bits(), "{ctx}");
    assert_eq!(a.avg_stretch.to_bits(), b.avg_stretch.to_bits(), "{ctx}");
    assert_eq!(a.max_pair, b.max_pair, "{ctx}");
    assert_eq!(a.max_route_len, b.max_route_len, "{ctx}");
    assert_eq!(a.pairs, b.pairs, "{ctx}");
}

#[test]
fn blocked_stretch_bit_identical_to_dense_across_families() {
    for (name, g, _) in graph_families() {
        let dm = DistanceMatrix::all_pairs_sequential(&g);
        let table = TableRouting::from_distances(&g, &dm, TieBreak::LowestPort);
        let dense = stretch_factor(&g, &dm, &table).unwrap();
        for (threads, block_rows) in [(1usize, 1usize), (1, 64), (2, 7), (4, 16), (3, 1000)] {
            let blocked = stretch_factor_blocked(&g, &table, threads, block_rows).unwrap();
            assert_bit_identical(
                &blocked,
                &dense,
                &format!("{name} threads={threads} block_rows={block_rows}"),
            );
        }
    }
}

#[test]
fn blocked_stretch_bit_identical_for_spanning_tree_routing() {
    // Non-trivial stretch profile (the table scheme is all-ones): the
    // spanning-tree routing stresses max/argmax/average merging for real.
    for (name, g, _) in graph_families() {
        let dm = DistanceMatrix::all_pairs_sequential(&g);
        let inst = routeschemes::SpanningTreeScheme::default().build(&g);
        let r = inst.routing.as_ref();
        let dense = stretch_factor(&g, &dm, r).unwrap();
        for (threads, block_rows) in [(2usize, 13usize), (5, 32)] {
            let blocked = stretch_factor_blocked(&g, r, threads, block_rows).unwrap();
            assert_bit_identical(&blocked, &dense, name);
        }
    }
}

#[test]
fn congestion_is_flow_conserving_across_workloads_and_shard_shapes() {
    let g = generators::random_connected(120, 0.05, 23);
    let dm = DistanceMatrix::all_pairs_sequential(&g);
    let table = TableRouting::from_distances(&g, &dm, TieBreak::LowestNeighbor);
    let workloads = [
        WorkloadSpec::AllPairs,
        WorkloadSpec::Uniform {
            messages: 4_000,
            seed: 2,
        },
        WorkloadSpec::Zipf {
            messages: 4_000,
            exponent: 1.2,
            seed: 3,
        },
        WorkloadSpec::Permutations {
            rounds: 10,
            seed: 4,
        },
        WorkloadSpec::Broadcast {
            roots: vec![0, 60, 119],
        },
        WorkloadSpec::SampledSources {
            sources: 9,
            dests_per_source: 40,
            seed: 5,
        },
    ];
    for w in workloads {
        let plan = w.compile(g.num_nodes());
        let mut baseline: Option<trafficlab::WorkloadReport> = None;
        for (threads, block_rows) in [(1usize, 16usize), (3, 5), (6, 64)] {
            let rep = run_workload(
                &g,
                &table,
                &plan,
                &EngineConfig {
                    threads,
                    block_rows,
                    track_congestion: true,
                },
            )
            .unwrap();
            let cong = rep.congestion.as_ref().expect("congestion tracked");
            // Flow conservation: every hop lands on exactly one arc.
            assert_eq!(cong.total_load, rep.lengths.total_hops(), "{}", w.key());
            assert_eq!(rep.lengths.total(), rep.routed_messages, "{}", w.key());
            assert_eq!(rep.routed_messages, plan.messages(), "{}", w.key());
            // And the whole report is independent of the shard shape.
            if let Some(base) = &baseline {
                assert_bit_identical(&rep.stretch, &base.stretch, w.key());
                assert_eq!(rep.congestion, base.congestion, "{}", w.key());
                assert_eq!(rep.lengths, base.lengths, "{}", w.key());
            } else {
                baseline = Some(rep);
            }
        }
    }
}

#[test]
fn congestion_equals_brute_force_arc_counts() {
    // Recount every arc traversal by replaying each message individually.
    let g = generators::random_connected(40, 0.1, 31);
    let dm = DistanceMatrix::all_pairs_sequential(&g);
    let table = TableRouting::from_distances(&g, &dm, TieBreak::LowestPort);
    let w = WorkloadSpec::Uniform {
        messages: 1_500,
        seed: 8,
    };
    let plan = w.compile(g.num_nodes());
    let rep = run_workload(&g, &table, &plan, &EngineConfig::default()).unwrap();
    let mut total_len = 0u64;
    for s in 0..g.num_nodes() {
        if let trafficlab::SourceDests::List(list) = plan.dests(s) {
            for &t in list {
                let trace = routemodel::route(&g, &table, s, t as usize).unwrap();
                total_len += trace.len() as u64;
            }
        }
    }
    assert_eq!(rep.congestion.unwrap().total_load, total_len);
}

#[test]
fn registry_schemes_measure_within_their_guarantees() {
    let specs: Vec<(Graph, GraphHints)> = vec![
        (
            generators::random_connected(64, 0.08, 77),
            GraphHints::none(),
        ),
        (generators::hypercube(5), GraphHints::none()),
        (generators::grid(6, 7), GraphHints::grid(6, 7)),
        (
            routemodel::labeling::modular_complete_labeling(24),
            GraphHints::none(),
        ),
    ];
    let mut guaranteed_cells = 0;
    for (g, hints) in &specs {
        let plan = WorkloadSpec::Uniform {
            messages: 2_000,
            seed: 6,
        }
        .compile(g.num_nodes());
        for (kind, inst) in applicable_schemes(g, hints) {
            let rep = run_workload(g, inst.routing.as_ref(), &plan, &EngineConfig::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", kind.key()));
            if let Some(bound) = inst.guaranteed_stretch {
                guaranteed_cells += 1;
                assert!(
                    rep.stretch.max_stretch <= bound + 1e-9,
                    "{} measured {} above its bound {bound}",
                    kind.key(),
                    rep.stretch.max_stretch
                );
            }
        }
    }
    assert!(guaranteed_cells >= 8, "too few guaranteed cells exercised");
}

#[test]
fn distance_blocks_agree_with_dense_matrix_on_random_shards() {
    let mut rng = Xoshiro256::new(0xB10C);
    for (name, g, _) in graph_families() {
        let n = g.num_nodes();
        let dm = DistanceMatrix::all_pairs_sequential(&g);
        for _ in 0..12 {
            let start = rng.gen_range(n);
            let rows = 1 + rng.gen_range((n - start).min(40));
            let block = DistanceBlock::compute(&g, start, rows);
            for u in start..start + rows {
                for v in 0..n {
                    assert_eq!(block.dist(u, v), dm.dist(u, v), "{name} d({u},{v})");
                }
            }
        }
    }
}

#[test]
fn engine_never_needs_the_dense_matrix_memory() {
    // At n = 8192 the dense matrix would be 4·n² = 256 MiB; the block
    // pipeline's tracked peak must stay orders of magnitude below it.
    let g = generators::random_regular_like(8192, 6, 99);
    let inst = routeschemes::SpanningTreeScheme::default().build(&g);
    let plan = WorkloadSpec::SampledSources {
        sources: 16,
        dests_per_source: 64,
        seed: 12,
    }
    .compile(g.num_nodes());
    let rep = run_workload(
        &g,
        inst.routing.as_ref(),
        &plan,
        &EngineConfig {
            threads: 2,
            block_rows: 1,
            track_congestion: false,
        },
    )
    .unwrap();
    assert_eq!(rep.routed_messages, 16 * 64);
    let dense_bytes = 4u64 * 8192 * 8192;
    assert!(
        rep.peak_tracked_bytes < dense_bytes / 100,
        "peak {} vs dense {}",
        rep.peak_tracked_bytes,
        dense_bytes
    );
}
