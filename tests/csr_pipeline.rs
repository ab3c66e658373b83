//! Property tests for the CSR graph core and the engine's stretch sweeps.
//!
//! Two contracts are pinned down here:
//!
//! * the CSR [`Graph`] is **observationally identical** to the insertion-order
//!   semantics of the incremental builder path (`Graph::new` + `add_edge`):
//!   `neighbors`, `degree` and the port labels round-trip through
//!   [`graphkit::GraphBuilder`] and [`Graph::from_edges`] alike;
//! * the `trafficlab` engine's parallel all-pairs sweep and its
//!   sampled-sources probe agree bit-for-bit with sequential sweeps — the
//!   `stretch_factor` reference, and a walk over the same sampled pairs —
//!   at every worker count, on the Petersen graph, hypercubes and random
//!   connected graphs.
//!
//! Cases are driven by the repository's deterministic RNG; failure messages
//! carry the parameters needed to replay a case.

use graphkit::{GraphBuilder, Xoshiro256};
use routemodel::{route, RoutingFunction, StretchAccumulator, StretchReport};
use trafficlab::{run_workload, stretch_factor_blocked, EngineConfig, SourceDests, WorkloadSpec};
use universal_routing::prelude::*;

/// Draws a random edge sequence (orientation and order preserved, no
/// duplicates) on `n` vertices.
fn random_edge_sequence(
    n: usize,
    target_edges: usize,
    rng: &mut Xoshiro256,
) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    let mut attempts = 0;
    while edges.len() < target_edges && attempts < 20 * target_edges {
        attempts += 1;
        let u = rng.gen_range(n);
        let v = rng.gen_range(n);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            // random orientation is part of the contract being tested
            edges.push((u, v));
        }
    }
    edges
}

/// CSR construction is observationally identical to replaying `add_edge`
/// calls one at a time: same neighbors slices, degrees, and port labels.
#[test]
fn prop_csr_matches_incremental_insertion_order() {
    let mut rng = Xoshiro256::new(0xC5A1);
    for case in 0..32 {
        let n = rng.gen_range_inclusive(2, 40);
        let m = rng.gen_range_inclusive(1, n * (n - 1) / 2);
        let edges = random_edge_sequence(n, m, &mut rng);

        let batch = Graph::from_edges(n, &edges);
        let mut incremental = Graph::new(n);
        for &(u, v) in &edges {
            incremental.add_edge(u, v);
        }
        let mut builder = GraphBuilder::new(n);
        builder.edges(edges.iter().copied());
        let built = builder.build();

        assert_eq!(batch, incremental, "case {case}: n={n} edges={edges:?}");
        assert_eq!(batch, built, "case {case}: n={n} edges={edges:?}");
        assert!(batch.validate().is_ok(), "case {case}");
        for u in 0..n {
            assert_eq!(batch.degree(u), incremental.degree(u), "case {case} u={u}");
            assert_eq!(
                batch.neighbors(u),
                incremental.neighbors(u),
                "case {case} u={u}"
            );
        }
        // Port labels round-trip: port_to inverts port_target everywhere.
        for u in 0..n {
            for p in 0..batch.degree(u) {
                let v = batch.port_target(u, p);
                assert_eq!(batch.port_to(u, v), Some(p), "case {case} u={u} p={p}");
            }
        }
    }
}

/// `add_edges` (batch append) is observationally identical to appending the
/// same edges one `add_edge` call at a time on top of an existing graph.
#[test]
fn prop_batch_append_matches_incremental_append() {
    let mut rng = Xoshiro256::new(0xAB5E);
    for case in 0..16 {
        let n = rng.gen_range_inclusive(4, 30);
        let all = random_edge_sequence(n, n, &mut rng);
        let split = rng.gen_range(all.len().max(1));
        let (first, rest) = all.split_at(split);

        let mut batch = Graph::from_edges(n, first);
        batch.add_edges(rest);
        let mut incremental = Graph::from_edges(n, first);
        for &(u, v) in rest {
            incremental.add_edge(u, v);
        }
        assert_eq!(batch, incremental, "case {case}: split={split} all={all:?}");
    }
}

/// The three graph families the stretch agreement is asserted on.
fn stretch_families(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("petersen", generators::petersen()),
        ("hypercube", generators::hypercube(6)),
        (
            "random-connected",
            generators::random_connected(90, 0.05, seed),
        ),
    ]
}

fn assert_bit_identical(a: &StretchReport, b: &StretchReport, ctx: &str) {
    assert_eq!(a.max_stretch.to_bits(), b.max_stretch.to_bits(), "{ctx}");
    assert_eq!(a.avg_stretch.to_bits(), b.avg_stretch.to_bits(), "{ctx}");
    assert_eq!(a.max_pair, b.max_pair, "{ctx}");
    assert_eq!(a.max_route_len, b.max_route_len, "{ctx}");
    assert_eq!(a.pairs, b.pairs, "{ctx}");
}

/// The engine's parallel all-pairs sweep must be bit-identical to the
/// sequential reference, for seeded shortest-path tables and for a
/// deliberately stretchy routing function (spanning-tree routing), across
/// all three families, at every worker count from 1 to 5 and at 7.
#[test]
fn prop_parallel_stretch_bit_identical_across_families() {
    for seed in [3u64, 17, 92] {
        for (family, g) in stretch_families(seed) {
            let dm = DistanceMatrix::all_pairs(&g);
            let table = TableRouting::from_distances(&g, &dm, TieBreak::Seeded(seed));
            let tree = routeschemes::tree_routing::SpanningTreeScheme::default().build(&g);
            let functions: [&(dyn RoutingFunction + Sync); 2] = [&table, tree.routing.as_ref()];
            for r in functions {
                let reference = stretch_factor(&g, &dm, r).unwrap();
                for (threads, block_rows) in
                    [(1usize, 64usize), (2, 1), (3, 9), (4, 16), (5, 3), (7, 64)]
                {
                    let par = stretch_factor_blocked(&g, r, threads, block_rows).unwrap();
                    let ctx = format!(
                        "{family} seed={seed} threads={threads} block_rows={block_rows} ({})",
                        r.name()
                    );
                    assert_bit_identical(&par, &reference, &ctx);
                }
            }
        }
    }
}

/// The sampled-sources probe (what a scenario's `sampled` stretch mode runs)
/// must agree bit-for-bit with a sequential walk over the same pairs — one
/// order-free accumulator over them all — at every worker count
/// and block size, and must report exact stretch 1 for shortest-path tables
/// on all three families (where every sampled pair has stretch 1).
#[test]
fn prop_sampled_stretch_agrees_with_sequential() {
    for seed in [7u64, 41] {
        for (family, g) in stretch_families(seed) {
            let n = g.num_nodes();
            let dm = DistanceMatrix::all_pairs(&g);
            let r = TableRouting::from_distances(&g, &dm, TieBreak::LowestNeighbor);
            let plan = WorkloadSpec::SampledSources {
                sources: 18,
                dests_per_source: 17,
                seed,
            }
            .compile(n);
            let mut direct = StretchAccumulator::new();
            for s in 0..n {
                let SourceDests::List(dests) = plan.dests(s) else {
                    panic!("a sampled plan lists its destinations");
                };
                for t in dests.iter().map(|&t| t as usize).filter(|&t| t != s) {
                    let len = route(&g, &r, s, t).unwrap().len() as u32;
                    direct.record(s, t, len, dm.dist(s, t));
                }
            }
            let direct = direct.into_report();
            for (threads, block_rows) in [(1usize, 64usize), (2, 1), (3, 5), (4, 16)] {
                let cfg = EngineConfig {
                    threads,
                    block_rows,
                    track_congestion: false,
                };
                let sampled = run_workload(&g, &r, &plan, &cfg).unwrap().stretch;
                let ctx = format!("{family} seed={seed} threads={threads} block_rows={block_rows}");
                assert_bit_identical(&sampled, &direct, &ctx);
            }
            assert_eq!(direct.pairs as u64, plan.messages(), "{family} seed={seed}");
            assert!(
                (direct.max_stretch - 1.0).abs() < 1e-12,
                "{family} seed={seed}: tables are shortest-path"
            );
        }
    }
}
