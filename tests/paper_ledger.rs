//! Resident bytes next to the paper's bits on the Theorem 1 instance.
//!
//! Theorem 1 charges some router `Θ(n log n)` bits, and the table scheme
//! meets the bound with `(n − 1)·⌈log₂ deg⌉` bits per router
//! (`TableRouting::memory_raw`).  The resident table must stay within a
//! byte-rounding of that: `n` one-byte cells per router, no more than 15%
//! above the paper's count at the router that needs the most.

use routemodel::{TableRouting, TieBreak};

#[test]
fn table_bytes_per_router_stay_within_the_paper_bits_on_theorem1() {
    let (cg, _) = constraints::theorem1::build_worst_case_instance(2048, 0.5, 1);
    let g = &cg.graph;
    let n = g.num_nodes();
    let table = TableRouting::shortest_paths(g, TieBreak::LowestNeighbor);
    assert_eq!(table.cell_bytes(), 1, "max degree {}", g.max_degree());
    // The name's few bytes vanish in the integer division.
    let per_router = table.heap_bytes() / n;
    assert_eq!(per_router, n * table.cell_bytes());
    let paper_bytes = table.memory_raw(g).local() as f64 / 8.0;
    assert!(
        per_router as f64 <= 1.15 * paper_bytes,
        "{per_router} resident bytes per router against the paper's {paper_bytes:.0}"
    );
}
