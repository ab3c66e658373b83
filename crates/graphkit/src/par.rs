//! One deterministic parallel primitive: map items on worker threads, fold
//! the results on the calling thread in strict index order.
//!
//! [`map_fold_ordered`] is the workspace's only way to run work in parallel
//! (a `clippy.toml` `disallowed-methods` gate rejects `std::thread::scope`
//! and `std::thread::spawn` everywhere else).  Its callers, with their work
//! items:
//!
//! * the landmark scheme's build — one item per landmark (landmark and
//!   handoff phases), one per block of routers (cluster phase);
//! * the landmark scheme's repair — one item per landmark column, one per
//!   vertex whose cluster bound grew (gains), one per dead edge (suspects),
//!   and one per block of 64 routers (the in-place patch);
//! * `TableRouting::shortest_paths` — one item per block of 64 destinations;
//! * [`crate::DistanceMatrix::all_pairs`] — one item per 64 source rows (one
//!   bit-parallel BFS block);
//! * `constraints`' enumeration of canonical matrices — one item per range
//!   of matrix indices;
//! * the `trafficlab` engine, which measures every parallel and sampled
//!   stretch — one item per block of BFS source rows;
//! * `routeserve::serve` — one item per chunk of up to `batch` consecutive
//!   queries;
//! * `routecheck::check_routing` — one item per 16 destinations.
//!
//! Workers claim item indices from one atomic cursor, so a slow item never
//! stalls the others; each result travels over a bounded channel to the
//! caller, whose reorder buffer releases them to `fold` as `0, 1, 2, …` —
//! the exact sequence a plain loop would produce.  Whatever `fold` builds is
//! therefore **bit-identical at every thread count**, by construction rather
//! than by a per-call-site argument.
//!
//! **Item size.** Every item costs one channel handoff and one wake-up of the
//! caller, a few microseconds, so an item must carry well over that much
//! work, and its size must not depend on the thread count.  Serving one item
//! per same-source chunk (16 queries, ~5 µs) cut `routeserve` throughput on
//! the serve-4k benchmark workload by 56%; items of up to 4096 consecutive
//! queries cost nothing measurable.  Likewise one BFS row per item made the
//! all-pairs matrix of a 256-vertex graph 1.7–2× slower than 16 rows.
//!
//! Too coarse an item costs as much as too fine a one when the work sits in
//! few places.  A landmark repair's gains pass runs one ball BFS per vertex
//! whose cluster bound grew — about 30 per repair on the 32768-vertex
//! churn graph, and they carry all of its work.  Items of 256 such vertices
//! leave one item and no speed-up on 2 threads (18–20 ms against 17–21 ms
//! on one); one item per grown vertex takes 12–15 ms.
//!
//! Result buffers are recycled: after `fold` consumes a result, its buffer
//! goes back to a pool the workers draw from, and a worker may only claim an
//! item while holding a buffer.  At most `IN_FLIGHT_PER_THREAD × threads`
//! (3 × threads) buffers ever exist, which bounds both the transient memory
//! and how far the workers can run ahead of the fold; once every buffer has
//! been created the primitive allocates nothing per item.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Result buffers per worker: one being mapped, plus two queued in the
/// channel or waiting in the reorder buffer for an earlier item.
const IN_FLIGHT_PER_THREAD: usize = 3;

/// Channel depth per worker.
const CHANNEL_PER_THREAD: usize = 2;

/// Below this size a sweep runs on the calling thread: thread start-up would
/// dominate the work.
const SMALL_N: usize = 256;

/// Worker count for a parallel sweep of size `n` (the vertices of a graph,
/// or the matrices of an enumeration): [`std::thread::available_parallelism`],
/// or 1 when `n` is small (or the parallelism cannot be queried).  Every
/// `threads = 0` default of the workspace resolves here.
pub fn default_threads(n: usize) -> usize {
    if n < SMALL_N {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

/// Runs `map(scratch, i, result)` for every `i in 0..count` on up to
/// `threads` workers and `fold(i, result)` on the calling thread, in strict
/// index order.
///
/// * `scratch` creates one private workspace per worker (for example a BFS
///   scratch); `map` may use it freely between items.
/// * `map` receives a recycled result buffer holding whatever an earlier item
///   left in it, and must overwrite (or clear) what it reads back.
/// * `fold` sees item `i` only after items `0..i` have been folded.
///
/// With `threads <= 1` (or fewer than two items) this is a plain loop on the
/// calling thread and spawns nothing.  A panic in `map` or `fold` reaches the
/// caller with its original payload once every worker has stopped.
///
/// Returns every worker's scratch once all items are folded (none when
/// `count == 0`).  Which items a worker mapped depends on scheduling, so only
/// order-insensitive state — integer counters summed by the caller — may be
/// read back from it; everything else belongs in `R` and the fold.
pub fn map_fold_ordered<S, R, MakeScratch, Map, Fold>(
    count: usize,
    threads: usize,
    scratch: MakeScratch,
    map: Map,
    mut fold: Fold,
) -> Vec<S>
where
    S: Send,
    R: Default + Send,
    MakeScratch: Fn() -> S + Sync,
    Map: Fn(&mut S, usize, &mut R) + Sync,
    Fold: FnMut(usize, &mut R),
{
    if count == 0 {
        return Vec::new();
    }
    let threads = threads.min(count);
    if threads <= 1 {
        let mut s = scratch();
        let mut r = R::default();
        for i in 0..count {
            map(&mut s, i, &mut r);
            fold(i, &mut r);
        }
        return vec![s];
    }

    let cap = IN_FLIGHT_PER_THREAD * threads;
    let pool = Pool::new(cap);
    let cursor = AtomicUsize::new(0);
    let mut scratches = Vec::with_capacity(threads);
    #[allow(
        clippy::disallowed_methods,
        reason = "the workspace's one thread spawn: every parallel sweep runs through this primitive"
    )]
    std::thread::scope(|scope| {
        // The channel lives inside the scope so that, should `fold` panic,
        // the receiver is dropped before the scope joins: a worker blocked
        // in `send` then wakes with an error instead of hanging the join.
        let (tx, rx) = sync_channel::<(usize, R)>(CHANNEL_PER_THREAD * threads);
        let _stop = StopOnPanic(&pool);
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let (pool, cursor, scratch, map) = (&pool, &cursor, &scratch, &map);
                scope.spawn(move || {
                    let _stop = StopOnPanic(pool);
                    let mut s = scratch();
                    while let Some(mut r) = pool.take() {
                        // Relaxed: the cursor publishes only the index; the
                        // result reaches the caller through the channel.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            pool.put(r);
                            break;
                        }
                        map(&mut s, i, &mut r);
                        if tx.send((i, r)).is_err() {
                            break;
                        }
                    }
                    s
                })
            })
            .collect();
        drop(tx);

        // Reorder buffer: slot `j` holds item `next + j` once it arrives.
        // Every result occupies a pool buffer, so it never outgrows `cap`.
        let mut pending: VecDeque<Option<R>> = VecDeque::with_capacity(cap);
        let mut next = 0usize;
        while next < count {
            // All senders gone before the last item: a worker panicked.
            let Ok((i, r)) = rx.recv() else { break };
            let slot = i - next;
            if pending.len() <= slot {
                pending.resize_with(slot + 1, || None);
            }
            pending[slot] = Some(r);
            while let Some(Some(_)) = pending.front() {
                let mut r = pending.pop_front().flatten().expect("front slot is filled");
                fold(next, &mut r);
                pool.put(r);
                next += 1;
            }
        }
        for worker in workers {
            match worker.join() {
                Ok(s) => scratches.push(s),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    scratches
}

/// The recycling pool of result buffers, which also throttles the workers.
struct Pool<R> {
    state: Mutex<PoolState<R>>,
    returned: Condvar,
}

struct PoolState<R> {
    free: Vec<R>,
    /// Buffers created so far; never exceeds `cap`.
    created: usize,
    cap: usize,
    stopped: bool,
}

impl<R: Default> Pool<R> {
    fn new(cap: usize) -> Self {
        Pool {
            state: Mutex::new(PoolState {
                free: Vec::with_capacity(cap),
                created: 0,
                cap,
                stopped: false,
            }),
            returned: Condvar::new(),
        }
    }

    /// A recycled buffer, a new one while fewer than `cap` exist, or `None`
    /// once the pool is stopped.  Blocks while all `cap` buffers are out.
    fn take(&self) -> Option<R> {
        let mut state = self.lock();
        loop {
            if state.stopped {
                return None;
            }
            if let Some(r) = state.free.pop() {
                return Some(r);
            }
            if state.created < state.cap {
                state.created += 1;
                drop(state);
                return Some(R::default());
            }
            state = self
                .returned
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn put(&self, r: R) {
        self.lock().free.push(r);
        self.returned.notify_one();
    }
}

impl<R> Pool<R> {
    /// Wakes every waiting worker and makes further `take`s return `None`.
    fn stop(&self) {
        self.lock().stopped = true;
        self.returned.notify_all();
    }

    /// No code path panics while holding the lock, and every update leaves
    /// the state valid, so a poisoned lock is still safe to use — and `stop`
    /// runs during unwinding, where a second panic would abort.
    fn lock(&self) -> MutexGuard<'_, PoolState<R>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Stops the pool while its holder unwinds.  In a worker (a panic in `map`)
/// the other workers exit, so the caller's `recv` sees the channel close; in
/// the caller (a panic in `fold`) no worker waits for a buffer that will
/// never come back.
struct StopOnPanic<'a, R>(&'a Pool<R>);

impl<R> Drop for StopOnPanic<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// Serial reference: what the fold sees from a plain loop.
    fn squares_in_order(count: usize, threads: usize) -> Vec<(usize, u64)> {
        let mut seen = Vec::new();
        map_fold_ordered(
            count,
            threads,
            || 0u64,
            |calls: &mut u64, i, r: &mut u64| {
                *calls += 1;
                *r = (i as u64) * (i as u64);
            },
            |i, r| seen.push((i, *r)),
        );
        seen
    }

    #[test]
    fn fold_sees_every_item_in_index_order_at_any_thread_count() {
        let serial = squares_in_order(1000, 1);
        assert_eq!(serial.len(), 1000);
        for threads in [2, 3, 8] {
            assert_eq!(squares_in_order(1000, threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn zero_items_and_fewer_items_than_threads() {
        assert!(squares_in_order(0, 1).is_empty());
        assert!(squares_in_order(0, 4).is_empty());
        for count in 1..4 {
            assert_eq!(
                squares_in_order(count, 4),
                squares_in_order(count, 1),
                "count={count}"
            );
        }
    }

    #[test]
    fn fold_order_is_exact_when_later_items_finish_first() {
        for threads in [2usize, 3] {
            // Item 0 is held back until the last item that can be in flight
            // alongside it has been mapped, so items 1..=last all finish
            // before item 0 and sit in the reorder buffer.
            let last = IN_FLIGHT_PER_THREAD * threads - 1;
            let (release_tx, release_rx) = channel::<()>();
            let release_tx = Mutex::new(release_tx);
            let release_rx = Mutex::new(release_rx);
            let finished = Mutex::new(Vec::new());
            let mut folded = Vec::new();
            map_fold_ordered(
                40,
                threads,
                || (),
                |_: &mut (), i, r: &mut usize| {
                    if i == 0 {
                        release_rx.lock().unwrap().recv().unwrap();
                    }
                    *r = i;
                    finished.lock().unwrap().push(i);
                    if i == last {
                        release_tx.lock().unwrap().send(()).unwrap();
                    }
                },
                |i, r| {
                    assert_eq!(*r, i, "fold got another item's result");
                    folded.push(i);
                },
            );
            let finished = finished.into_inner().unwrap();
            let pos = |x| finished.iter().position(|&i| i == x).unwrap();
            assert!(pos(last) < pos(0), "item {last} must finish before item 0");
            assert_eq!(folded, (0..40).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn a_panic_in_map_reaches_the_caller() {
        for threads in [1usize, 2, 3] {
            let outcome = std::panic::catch_unwind(|| {
                map_fold_ordered(
                    500,
                    threads,
                    || (),
                    |_: &mut (), i, r: &mut usize| {
                        assert!(i != 77, "map failed on item 77");
                        *r = i;
                    },
                    |_, _| {},
                );
            });
            let payload = outcome.expect_err("the panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert_eq!(msg, "map failed on item 77", "threads={threads}");
        }
    }

    #[test]
    fn a_panic_in_fold_reaches_the_caller() {
        let outcome = std::panic::catch_unwind(|| {
            map_fold_ordered(
                500,
                2,
                || (),
                |_: &mut (), i, r: &mut usize| *r = i,
                |i, _| assert!(i != 3, "fold failed"),
            );
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn in_flight_buffers_stay_bounded_by_the_pool() {
        for threads in [2usize, 3, 4] {
            // A fresh buffer is `false`; map marks it, so every unmarked
            // buffer map sees is one the pool had to create.
            let created = AtomicUsize::new(0);
            let mut folded = 0usize;
            map_fold_ordered(
                2000,
                threads,
                || (),
                |_: &mut (), _, seen: &mut bool| {
                    if !*seen {
                        created.fetch_add(1, Ordering::Relaxed);
                        *seen = true;
                    }
                },
                |_, _| {
                    // A fold slower than the workers keeps every buffer busy.
                    std::hint::black_box((0..2000u64).sum::<u64>());
                    folded += 1;
                },
            );
            assert_eq!(folded, 2000);
            let created = created.load(Ordering::Relaxed);
            assert!(
                created <= IN_FLIGHT_PER_THREAD * threads,
                "{created} buffers for {threads} threads"
            );
        }
    }
}
