//! `LandmarkRouting::heap_bytes` against the allocator's own count.
//!
//! A counting global allocator tracks live heap bytes; the bytes still live
//! after a landmark build (the instance, and nothing else) must match the
//! instance's per-table report within 5%.  A single `#[test]` in a binary of
//! its own, because the counter is global and concurrently running tests
//! would bleed their allocations into the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use graphkit::generators;
use routeschemes::landmark::LandmarkRouting;

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
        let r = LandmarkRouting::build(g, 11);
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
}
