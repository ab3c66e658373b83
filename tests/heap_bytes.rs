//! `LandmarkRouting::heap_bytes`, `TableRouting::heap_bytes` and
//! `KIntervalRouting::heap_bytes` against the allocator's own count.
//!
//! A counting global allocator tracks live heap bytes; the bytes still live
//! after a build (the instance, and nothing else) must match the instance's
//! report within 5%.  A single `#[test]` in a binary of
//! its own, because the counter is global and concurrently running tests
//! would bleed their allocations into the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use graphkit::generators;
use routemodel::{TableRouting, TieBreak};
use routeschemes::interval::general::KIntervalRouting;
use routeschemes::landmark::{LandmarkConfig, LandmarkRouting};

/// Pass-through to the system allocator that counts live bytes.  `unsafe`
/// only because `GlobalAlloc` is an unsafe trait; every crate's library
/// code stays `#![forbid(unsafe_code)]`.
struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn heap_bytes_matches_the_allocator_within_five_percent() {
    // One-byte cells (8-regular) and two-byte cells (a vertex of degree
    // 300), each past the cluster phase's reservation sample.
    let graphs = [
        generators::random_regular_like(2048, 8, 5),
        generators::star(300),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let before = live();
        let cfg = LandmarkConfig {
            seed: 11,
            ..LandmarkConfig::default()
        };
        let r = LandmarkRouting::build_with(g, &cfg);
        let counted = (live() - before) as f64;
        let h = r.heap_bytes();
        let reported = h.total() as f64;
        assert!(
            (counted - reported).abs() <= 0.05 * counted,
            "graph {i}: allocator counts {counted} live bytes, heap_bytes reports {reported} ({h:?})"
        );
        assert_eq!(h.cell_bytes, [1, 2][i], "graph {i}");
        drop(r);
    }

    // Routing tables on the Theorem 1 instance: n² one-byte cells.  The
    // k-interval scheme holds the same table plus labels and interval
    // counts.
    let (cg, _) = constraints::theorem1::build_worst_case_instance(512, 0.5, 3);
    let g = &cg.graph;
    let within = |what: &str, counted: isize, reported: usize| {
        let (counted, reported) = (counted as f64, reported as f64);
        assert!(
            (counted - reported).abs() <= 0.05 * counted,
            "{what}: allocator counts {counted} live bytes, heap_bytes reports {reported}"
        );
    };
    let before = live();
    let table = TableRouting::shortest_paths(g, TieBreak::LowestPort);
    within("table", live() - before, table.heap_bytes());
    assert_eq!(table.cell_bytes(), 1);
    drop(table);
    let before = live();
    let kir = KIntervalRouting::build(g, TieBreak::LowestPort);
    within("k-interval", live() - before, kir.heap_bytes());
}
