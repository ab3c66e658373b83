//! Allocation discipline, pinned by a counting global allocator.
//!
//! The routing kernel and the static checker both promise *warm* hot loops
//! that never touch the heap: `routemodel::walk` rewrites one reused header
//! in place (and, when a trace is asked for, one reused `RouteTrace`), and
//! `Checker::check_dest` reuses its epoch-stamped arrays across
//! destinations, and `DistanceBlock::recompute` reuses its row buffers and
//! the bit-parallel BFS masks of its `BfsScratch` across blocks, as does
//! `bfs_block_into` over explicit source lists.  Those promises are load-bearing — the throughput
//! and sweep numbers in CI assume them — so this test counts every
//! `alloc`/`realloc` crossing the global allocator and fails if a warm
//! iteration performs even one.
//!
//! Everything runs in a single `#[test]` because the counter is global:
//! Rust runs integration tests in threads, and a second concurrently
//! running test would bleed its allocations into our deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use graphkit::traversal::bfs_block_into;
use graphkit::{generators, BfsScratch, DistanceBlock, GraphView};
use routecheck::Checker;
use routemodel::{default_hop_limit, walk, Header, RouteTrace};
use routeschemes::{GraphHints, SchemeKind};

/// Pass-through to the system allocator that counts every allocation.
/// The single `unsafe` block in this repository: every crate's library
/// code is `#![forbid(unsafe_code)]`, but `GlobalAlloc` is an unsafe
/// trait and a counting shim is the only way to observe the heap.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_hot_loops_do_not_allocate() {
    let n = 256;
    let g = generators::random_connected(n, 0.03, 17);
    let hints = GraphHints::none();
    let view = GraphView::from(&g);

    let inst = SchemeKind::Table
        .default_spec()
        .build(&g, &hints)
        .expect("table scheme builds on any connected graph");
    let r = &*inst.routing;

    // --- walk: zero allocations per message once warm, with and without
    // a trace (the engine's congestion path and the serving path) ----------
    let hop_limit = default_hop_limit(n);
    let mut header = Header::to_dest(0);
    let mut trace = RouteTrace::new();
    let mut sink = 0u64;
    let mut run_source = |source: usize, traced: bool, sink: &mut u64| {
        for t in (0..n).filter(|&t| t != source) {
            let tr = traced.then_some(&mut trace);
            let (outcome, hops) = walk(view, r, source, t, hop_limit, &mut header, tr)
                .expect("routing cannot fail on a live view");
            assert!(outcome.is_delivered(), "table routing must deliver");
            *sink += hops as u64;
        }
    };

    for traced in [true, false] {
        // Warm-up: the header payload and the trace grow to steady state.
        for s in 0..8 {
            run_source(s, traced, &mut sink);
        }
        let before = allocations();
        let mut messages = 0u64;
        for s in 8..40 {
            run_source(s, traced, &mut sink);
            messages += (n - 1) as u64;
        }
        let walk_allocs = allocations() - before;
        assert!(messages > 8_000, "the measured window must be non-trivial");
        assert_eq!(
            walk_allocs, 0,
            "warm walk (trace: {traced}) allocated {walk_allocs} times across \
             {messages} messages; the steady state must be allocation-free"
        );
    }

    // --- Checker::check_dest: zero allocations per destination once warm
    let mut checker = Checker::new();
    for d in 0..8 {
        let report = checker.check_dest(view, r, d);
        assert_eq!(report.counts.total(), (n - 1) as u64);
    }

    let before = allocations();
    let mut proven = 0u64;
    for d in 8..n {
        let report = checker.check_dest(view, r, d);
        proven += report.counts.get(routecheck::SourceClass::Proven);
    }
    let sweep_allocs = allocations() - before;
    assert_eq!(
        proven,
        (n as u64 - 8) * (n as u64 - 1),
        "the warm sweep must still prove every pair"
    );
    assert_eq!(
        sweep_allocs,
        0,
        "warm check_dest allocated {sweep_allocs} times across {} \
         destinations; the sweep must be allocation-free per destination",
        n - 8
    );

    // --- DistanceBlock::recompute: zero allocations per block once warm,
    // at every block size, and across narrow and wide blocks -------------
    let path = generators::path(300);
    let mut scratch = BfsScratch::new();
    let mut block = DistanceBlock::new();
    let blocks = |block: &mut DistanceBlock, scratch: &mut BfsScratch, sink: &mut u64| {
        for rows in [64usize, 1, 2, 63] {
            for start in (0..=n - rows).step_by(rows.max(16)) {
                block.recompute(view, start, rows, scratch);
                *sink += u64::from(block.dist(start, n - 1));
            }
        }
        // P_300: the block from 0 widens mid-traversal, the one from 118
        // stays narrow.
        for start in [0, 118] {
            block.recompute(&path, start, 64, scratch);
            *sink += u64::from(block.is_narrow());
        }
    };
    blocks(&mut block, &mut scratch, &mut sink);
    let before = allocations();
    blocks(&mut block, &mut scratch, &mut sink);
    let block_allocs = allocations() - before;
    assert_eq!(
        block_allocs, 0,
        "warm DistanceBlock::recompute allocated {block_allocs} times; \
         the block sweep must be allocation-free per block"
    );

    // --- bfs_block_into over explicit sources (the landmark toward phase's
    // blocks): zero allocations per block once warm ----------------------
    let sources: Vec<usize> = (0..n).rev().step_by(3).collect();
    let explicit = |scratch: &mut BfsScratch, sink: &mut u64| {
        for rows in [64usize, 1, 2, 63] {
            for block in sources.chunks(rows) {
                bfs_block_into(view, block.iter().copied(), scratch, |level, _, bits| {
                    *sink += u64::from(level) * u64::from(bits.count_ones());
                });
            }
        }
    };
    explicit(&mut scratch, &mut sink);
    let before = allocations();
    explicit(&mut scratch, &mut sink);
    let explicit_allocs = allocations() - before;
    assert_eq!(
        explicit_allocs, 0,
        "warm bfs_block_into over explicit sources allocated {explicit_allocs} \
         times; the block loop must be allocation-free per block"
    );

    // Keep the routed work observable so nothing above is optimised away.
    assert!(sink > 0);
}
