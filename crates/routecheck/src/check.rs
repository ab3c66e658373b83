//! The per-destination soundness sweep.
//!
//! For a fixed destination `d`, a deterministic routing function induces a
//! *functional digraph* on `(vertex, header)` states: every state has exactly
//! one successor (forward through one port with one rewritten header) or is
//! terminal (deliver).  Totality of delivery is therefore statically
//! decidable: walk every source's state chain and see where it ends.  Two
//! regimes keep this near-linear:
//!
//! * **Canonical headers.**  Every registry scheme attaches a header that
//!   depends only on the destination and never rewrites it, so the state is
//!   just the current vertex.  The sweep memoizes, per vertex, the class of
//!   its chain and its hop count `len(v) = 1 + len(next(v))`, with
//!   epoch-stamped arrays — each vertex is walked at most once per
//!   destination, zero allocations once the scratch is warm.  The walks
//!   read each vertex's next hop from a port column: one
//!   [`RoutingFunction::port_columns`] call per chunk of up to 16
//!   consecutive destinations fills `P(v, h_d)` for every vertex `v`, so a
//!   scheme whose tables answer a block of destinations at once (the
//!   landmark scheme's cluster lists) does so, and every other scheme pays
//!   one statically dispatched `port` call per vertex.  A chain that ends
//!   in a delivery at `d` visits each vertex at most once, so it has at
//!   most `n − 1` hops.  The reachability BFS (`O(n + m)`) that tells an
//!   [`SourceClass::Unreachable`] pair from a broken one runs only for a
//!   destination where some source fails to prove; on a sound scheme no
//!   BFS runs at all.
//! * **Exotic headers.**  A walk whose header deviates from the canonical one
//!   (source-dependent init or a rewriting `H`) falls back to explicit
//!   `(vertex, header)` states with repeat detection, bounded by the hop
//!   budget and the scheme's
//!   [`RoutingFunction::declared_header_words`] bound; exceeding either is a
//!   [`SourceClass::HeaderOverflow`].  Such a chain keeps its class but no
//!   hop count.
//!
//! The memo walk has two consumers, both through [`Checker::walk_dests`],
//! which loads the columns of a range of destinations chunk by chunk,
//! walks each destination and hands it to a visitor.  [`check_routing`]
//! turns each destination's classes into soundness counts.  The
//! `trafficlab` engine's all-pairs sweep reads each source's class and hop
//! count back through [`Checker::chain`] — one column entry per vertex
//! instead of one `port` call per hop — and the arc loads of the chains
//! through [`Checker::arc_loads`].  Columns live only inside the call that
//! loads them; [`Checker::check_dest`] and [`Checker::walk_dest`] walk one
//! destination the same way.

use graphkit::traversal::bfs_distances_into;
use graphkit::{par, BfsScratch, Dist, GraphView, NodeId, Port, INFINITY};
use routemodel::function::decode_action;
use routemodel::{default_hop_limit, Action, Header, RoutingFunction};
use std::ops::{ControlFlow, Range};

/// The statically determined fate of one `(source, dest)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SourceClass {
    /// The state chain ends with a delivery at the destination.
    Proven = 0,
    /// The chain enters a cycle that does not contain the destination.
    Livelock = 1,
    /// The chain requests a port out of range, or crosses a dead arc of a
    /// failure-masked view, while the destination is reachable.
    DeadPort = 2,
    /// The header payload outgrew the scheme's declared bound (or the state
    /// budget) before the chain resolved.
    HeaderOverflow = 3,
    /// The chain ends with a delivery at a vertex that is not the
    /// destination.
    WrongDelivery = 4,
    /// No live path to the destination exists, so no routing function could
    /// deliver; the pair is excluded from the soundness verdict.
    Unreachable = 5,
}

/// Marker in the per-vertex memo while a walk is on the stack.
const IN_PROGRESS: u8 = u8::MAX;

/// Hop count memoized for a chain that leaves the canonical header: its
/// class is exact, its length is not kept.
const NO_HOPS: u32 = u32::MAX;

/// Flag on a source's result when its own header is not the canonical one.
const EXOTIC_SOURCE: u8 = 0x80;

/// Destinations whose port columns [`Checker::walk_dests`] loads in one
/// [`RoutingFunction::port_columns`] call.
const COLUMN_CHUNK: usize = 16;

impl SourceClass {
    /// All classes, in declaration order — the order every report and JSON
    /// object uses.
    pub const ALL: [SourceClass; 6] = [
        SourceClass::Proven,
        SourceClass::Livelock,
        SourceClass::DeadPort,
        SourceClass::HeaderOverflow,
        SourceClass::WrongDelivery,
        SourceClass::Unreachable,
    ];

    /// Stable snake_case machine code, shared between table and JSON output.
    pub fn code(&self) -> &'static str {
        match self {
            SourceClass::Proven => "proven",
            SourceClass::Livelock => "livelock",
            SourceClass::DeadPort => "dead_port",
            SourceClass::HeaderOverflow => "header_overflow",
            SourceClass::WrongDelivery => "wrong_delivery",
            SourceClass::Unreachable => "unreachable",
        }
    }

    /// Whether the class breaks soundness (a reachable pair that does not
    /// arrive).
    pub fn is_broken(&self) -> bool {
        !matches!(self, SourceClass::Proven | SourceClass::Unreachable)
    }

    fn from_u8(c: u8) -> SourceClass {
        match c {
            0 => SourceClass::Proven,
            1 => SourceClass::Livelock,
            2 => SourceClass::DeadPort,
            3 => SourceClass::HeaderOverflow,
            4 => SourceClass::WrongDelivery,
            5 => SourceClass::Unreachable,
            _ => unreachable!("IN_PROGRESS never escapes a walk"),
        }
    }
}

/// Per-class pair counts of a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    pub proven: u64,
    pub livelock: u64,
    pub dead_port: u64,
    pub header_overflow: u64,
    pub wrong_delivery: u64,
    pub unreachable: u64,
}

impl ClassCounts {
    /// Count of one class.
    pub fn get(&self, c: SourceClass) -> u64 {
        match c {
            SourceClass::Proven => self.proven,
            SourceClass::Livelock => self.livelock,
            SourceClass::DeadPort => self.dead_port,
            SourceClass::HeaderOverflow => self.header_overflow,
            SourceClass::WrongDelivery => self.wrong_delivery,
            SourceClass::Unreachable => self.unreachable,
        }
    }

    /// Total pairs classified.
    pub fn total(&self) -> u64 {
        SourceClass::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Pairs that break soundness (everything but proven and unreachable).
    pub fn broken(&self) -> u64 {
        self.livelock + self.dead_port + self.header_overflow + self.wrong_delivery
    }

    fn add(&mut self, c: SourceClass) {
        match c {
            SourceClass::Proven => self.proven += 1,
            SourceClass::Livelock => self.livelock += 1,
            SourceClass::DeadPort => self.dead_port += 1,
            SourceClass::HeaderOverflow => self.header_overflow += 1,
            SourceClass::WrongDelivery => self.wrong_delivery += 1,
            SourceClass::Unreachable => self.unreachable += 1,
        }
    }

    /// Merge another count set into this one.
    pub fn merge(&mut self, o: &ClassCounts) {
        self.proven += o.proven;
        self.livelock += o.livelock;
        self.dead_port += o.dead_port;
        self.header_overflow += o.header_overflow;
        self.wrong_delivery += o.wrong_delivery;
        self.unreachable += o.unreachable;
    }
}

/// The first broken pair of a sweep, in destination-then-source order — the
/// deterministic witness the reports print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counterexample {
    pub source: NodeId,
    pub dest: NodeId,
    pub class: SourceClass,
}

/// One destination's summary.
#[derive(Debug, Clone, Copy)]
pub struct DestReport {
    /// Per-class counts over the `n − 1` sources.
    pub counts: ClassCounts,
    /// Lowest broken source and its class, if any.
    pub first_broken: Option<(NodeId, SourceClass)>,
}

/// Reusable per-worker scratch of the sweep: epoch-stamped memo arrays, the
/// walk stack, the reachability BFS state, the port columns of one chunk of
/// destinations and their canonical headers.  After the first destination
/// on a given graph size every buffer is warm and [`Checker::walk_dests`]
/// performs zero allocations for canonical-header schemes (enforced by the
/// workspace allocation-discipline test).
pub struct Checker {
    /// Epoch stamp per vertex; `stamp[v] == epoch` gates `class[v]`.
    stamp: Vec<u32>,
    /// Memoized class per vertex under the canonical header.
    class: Vec<u8>,
    /// Memoized hops from each vertex's canonical state to the end of its
    /// chain ([`NO_HOPS`] when the chain leaves the canonical header).
    hops: Vec<u32>,
    /// Class per source of the current destination, flagged
    /// [`EXOTIC_SOURCE`] when the source's own header is not canonical.
    result: Vec<u8>,
    /// Canonical-state vertices of the walk in progress.
    path: Vec<u32>,
    /// `d(s, dest)` reachability ground truth, filled once per destination
    /// on its first non-proven source.
    dist: Vec<Dist>,
    bfs: BfsScratch,
    /// Canonical headers of the loaded chunk of destinations.
    heads: Vec<Header>,
    /// Port columns of the loaded chunk, [`COLUMN_CHUNK`]` · n` entries:
    /// `cols[j·n + v]` encodes `P(v, heads[j])`.
    cols: Vec<u32>,
    /// Index of the current destination in the chunk.
    cur: usize,
    /// Whether `cols` holds the current destination's column — only inside
    /// [`Checker::walk_dests`]'s visitor.
    loaded: bool,
    /// The walking header.
    hbuf: Header,
    /// Explicit states of an exotic (non-canonical-header) walk.
    exotic: Vec<(u32, Header)>,
    epoch: u32,
    /// Whether a walk of the current destination asked for a port
    /// `>= degree`.
    port_out_of_range: bool,
    /// [`Checker::arc_loads`] scratch: sources whose chain crosses each
    /// vertex, and the proven vertices bucketed by hop count.
    load: Vec<u32>,
    order: Vec<u32>,
    bucket: Vec<u32>,
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

impl Checker {
    /// A fresh checker; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Checker {
            stamp: Vec::new(),
            class: Vec::new(),
            hops: Vec::new(),
            result: Vec::new(),
            path: Vec::new(),
            dist: Vec::new(),
            bfs: BfsScratch::new(),
            heads: Vec::new(),
            cols: Vec::new(),
            cur: 0,
            loaded: false,
            hbuf: Header::to_dest(0),
            exotic: Vec::new(),
            epoch: 0,
            port_out_of_range: false,
            load: Vec::new(),
            order: Vec::new(),
            bucket: Vec::new(),
        }
    }

    /// Heap bytes a warm checker holds for memoized walks on `n` vertices:
    /// the per-vertex memo (stamp, class, hops, result), a walk stack of at
    /// most `n` canonical states and the port columns
    /// ([`Checker::column_bytes`]), plus the [`Checker::arc_loads`] scratch
    /// when `loads` is set.  A function of `n` alone, so it does not depend
    /// on which destinations a worker drew.
    pub fn walk_bytes(n: usize, loads: bool) -> u64 {
        let per_vertex = 4 + 1 + 4 + 1 + 4 + if loads { 4 + 4 + 4 } else { 0 };
        (per_vertex * n) as u64 + Self::column_bytes(n)
    }

    /// Heap bytes of the port columns of one chunk of 16 destinations on
    /// `n` vertices, `16·n·4`: the buffer [`Checker::walk_dests`] loads.
    pub fn column_bytes(n: usize) -> u64 {
        (COLUMN_CHUNK * n * 4) as u64
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.class.resize(n, 0);
            self.hops.resize(n, 0);
            self.result.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Walks every source's chain toward each destination of `dests`, in
    /// destination then source order, and calls `visit(self, d)` once
    /// destination `d` is walked; [`Checker::chain`], [`Checker::class_of`],
    /// [`Checker::port_out_of_range`] and [`Checker::arc_loads`] read its
    /// results back there.  A `Break` from the visitor ends the sweep.
    ///
    /// The walks read every canonical state's next hop from a port column:
    /// the columns of up to 16 destinations are loaded by one
    /// [`RoutingFunction::port_columns`] call and dropped when the call
    /// returns.  A state whose header is not canonical asks
    /// [`RoutingFunction::port`].  A source with no live path keeps the
    /// class its chain ends in; [`Checker::check_dest`] adds the
    /// reachability pass.
    pub fn walk_dests<R: RoutingFunction + ?Sized>(
        &mut self,
        view: GraphView<'_>,
        r: &R,
        dests: Range<NodeId>,
        mut visit: impl FnMut(&mut Self, NodeId) -> ControlFlow<()>,
    ) {
        let n = view.num_nodes();
        if self.cols.len() < COLUMN_CHUNK * n {
            self.cols.resize(COLUMN_CHUNK * n, 0);
        }
        if self.heads.len() < COLUMN_CHUNK {
            self.heads.resize_with(COLUMN_CHUNK, || Header::to_dest(0));
        }
        for lo in dests.clone().step_by(COLUMN_CHUNK) {
            let chunk = lo..dests.end.min(lo + COLUMN_CHUNK);
            for (h, d) in self.heads.iter_mut().zip(chunk.clone()) {
                // Canonical header: the init of the lowest non-destination
                // source.  Purely a memoization key — correctness never
                // depends on how many walks share it.
                let s0 = if d == 0 { usize::from(n > 1) } else { 0 };
                r.init_into(s0, d, h);
            }
            r.port_columns(
                &self.heads[..chunk.len()],
                n,
                &mut self.cols[..chunk.len() * n],
            );
            self.loaded = true;
            let stopped = chunk.enumerate().any(|(j, d)| {
                self.cur = j;
                self.ensure_capacity(n);
                self.port_out_of_range = false;
                for s in (0..n).filter(|&s| s != d) {
                    self.resolve(view, r, d, s);
                }
                visit(self, d).is_break()
            });
            self.loaded = false;
            if stopped {
                return;
            }
        }
    }

    /// Classifies every source for one destination.  After the call,
    /// [`Checker::class_of`] reads back per-source classes (tests and
    /// counterexample reporting).
    pub fn check_dest<R: RoutingFunction + ?Sized>(
        &mut self,
        view: GraphView<'_>,
        r: &R,
        d: NodeId,
    ) -> DestReport {
        let mut report = None;
        self.walk_dests(view, r, d..d + 1, |c, d| {
            report = Some(c.dest_report(view, d));
            ControlFlow::Continue(())
        });
        report.expect("one destination walked")
    }

    /// Walks every source's chain toward `d` — [`Checker::walk_dests`] for
    /// one destination.  Read the results back with [`Checker::chain`] and
    /// [`Checker::class_of`].
    pub fn walk_dest<R: RoutingFunction + ?Sized>(
        &mut self,
        view: GraphView<'_>,
        r: &R,
        d: NodeId,
    ) {
        self.walk_dests(view, r, d..d + 1, |_, _| ControlFlow::Continue(()));
    }

    /// The reachability pass and per-class counts over the walked
    /// destination `d`: a source that fails to prove and has no live path
    /// becomes [`SourceClass::Unreachable`].
    fn dest_report(&mut self, view: GraphView<'_>, d: NodeId) -> DestReport {
        let n = view.num_nodes();
        let mut dist_known = false;
        let mut counts = ClassCounts::default();
        let mut first_broken = None;
        for s in 0..n {
            if s == d {
                continue;
            }
            // A pair with no live path is nobody's fault: no routing function
            // can deliver it.  A proven pair needs no BFS: walks only cross
            // live arcs, so it has a live path.
            if self.class_of(s) != SourceClass::Proven {
                if !dist_known {
                    if self.dist.len() < n {
                        self.dist.resize(n, 0);
                    }
                    bfs_distances_into(view, d, &mut self.bfs, &mut self.dist[..n]);
                    dist_known = true;
                }
                if self.dist[s] == INFINITY {
                    self.result[s] =
                        (self.result[s] & EXOTIC_SOURCE) | SourceClass::Unreachable as u8;
                }
            }
            let c = self.class_of(s);
            counts.add(c);
            if first_broken.is_none() && c.is_broken() {
                first_broken = Some((s, c));
            }
        }
        DestReport {
            counts,
            first_broken,
        }
    }

    /// Source `s`'s class toward `d`, from the memo or a walk, recorded in
    /// its result slot with the flag of a non-canonical own header.
    #[inline]
    fn resolve<R: RoutingFunction + ?Sized>(
        &mut self,
        view: GraphView<'_>,
        r: &R,
        d: NodeId,
        s: NodeId,
    ) -> SourceClass {
        r.init_into(s, d, &mut self.hbuf);
        let canonical = self.hbuf == self.heads[self.cur];
        let c = if canonical && self.stamp[s] == self.epoch && self.class[s] != IN_PROGRESS {
            SourceClass::from_u8(self.class[s])
        } else {
            self.walk(view, r, d, s, canonical)
        };
        self.result[s] = if canonical {
            c as u8
        } else {
            c as u8 | EXOTIC_SOURCE
        };
        c
    }

    /// The class of source `s` for the last walked destination.
    pub fn class_of(&self, s: NodeId) -> SourceClass {
        SourceClass::from_u8(self.result[s] & !EXOTIC_SOURCE)
    }

    /// Source `s`'s chain toward the last walked destination, when every
    /// state on it carries the canonical header: its class (one of
    /// [`SourceClass::Proven`], [`SourceClass::Livelock`],
    /// [`SourceClass::DeadPort`] or [`SourceClass::WrongDelivery`], before
    /// any reachability remap) and its hop count, which is the route length
    /// of a proven chain.  `None` when the source's header or a later state
    /// is not canonical; such a pair must be walked on its own.
    #[inline]
    pub fn chain(&self, s: NodeId) -> Option<(SourceClass, u32)> {
        let hops = self.hops[s];
        (self.result[s] & EXOTIC_SOURCE == 0 && hops != NO_HOPS)
            .then(|| (SourceClass::from_u8(self.class[s]), hops))
    }

    /// Whether some walk of the last walked destination asked for a port
    /// `>= degree` — a routing-model violation, which the routing loop
    /// reports as an error rather than a dropped message.
    pub fn port_out_of_range(&self) -> bool {
        self.port_out_of_range
    }

    /// Arc loads of the destination `d` being visited by
    /// [`Checker::walk_dests`] (call it from the visitor, while `d`'s port
    /// column is loaded): calls `add(v, port, load)` once per arc `(v,
    /// next(v))` crossed by a proven chain [`Checker::chain`] returns,
    /// `load` being the number of such sources whose route crosses it.  The
    /// proven chains form an in-forest rooted at `d`; one pass over its
    /// vertices in decreasing hop count hands each vertex's load on to its
    /// successor, reading each vertex's port from the column.
    pub fn arc_loads(
        &mut self,
        view: GraphView<'_>,
        d: NodeId,
        mut add: impl FnMut(NodeId, Port, u64),
    ) {
        assert!(
            self.loaded && self.heads[self.cur].dest == d,
            "arc_loads reads the column of the destination walk_dests is visiting"
        );
        let n = view.num_nodes();
        self.load.clear();
        self.load.resize(n, 0);
        // Counting sort of the proven canonical states by hop count (at most
        // `n − 1`): `bucket[h + 1]` counts, then starts, hop count `h`.
        self.bucket.clear();
        self.bucket.resize(n + 1, 0);
        for v in 0..n {
            if self.in_forest(v) {
                self.bucket[self.hops[v] as usize + 1] += 1;
                // Every vertex but `d` is a source; one whose own header is
                // not canonical routes itself outside this forest.
                self.load[v] = u32::from(v != d && self.result[v] & EXOTIC_SOURCE == 0);
            }
        }
        for h in 1..self.bucket.len() {
            self.bucket[h] += self.bucket[h - 1];
        }
        self.order.clear();
        self.order.resize(self.bucket[n] as usize, 0);
        for v in 0..n {
            if self.in_forest(v) {
                let slot = &mut self.bucket[self.hops[v] as usize];
                self.order[*slot as usize] = v as u32;
                *slot += 1;
            }
        }
        // Decreasing hop count: every vertex's load is final before it is
        // passed on; the hop-0 vertex is `d` itself.
        for &v in self.order.iter().rev() {
            let v = v as usize;
            if self.hops[v] == 0 {
                break;
            }
            let load = self.load[v];
            let Action::Forward(p) = decode_action(self.cols[self.cur * n + v]) else {
                unreachable!("a proven chain forwards until it reaches d");
            };
            let next = view
                .live_target(v, p)
                .expect("a proven chain crosses live arcs only");
            add(v, p, u64::from(load));
            self.load[next] += load;
        }
    }

    /// Whether `v`'s canonical state is memoized as a proven chain with a
    /// hop count for the current destination.
    #[inline]
    fn in_forest(&self, v: NodeId) -> bool {
        self.stamp[v] == self.epoch
            && self.class[v] == SourceClass::Proven as u8
            && self.hops[v] != NO_HOPS
    }

    /// Walks one source's state chain to resolution and memoizes every
    /// canonical state on the walk: its class and, when every state of the
    /// walk was canonical, its hop count.  The walking header must hold
    /// `I(s, d)` already, and `canonical` say whether it equals the
    /// canonical one.
    fn walk<R: RoutingFunction + ?Sized>(
        &mut self,
        view: GraphView<'_>,
        r: &R,
        d: NodeId,
        s: NodeId,
        mut canonical: bool,
    ) -> SourceClass {
        self.path.clear();
        self.exotic.clear();
        let mut v = s;
        // Whether every state so far was canonical, and the hops from the
        // last pushed state to the end of the chain.
        let mut pure = canonical;
        let mut tail = 0u32;
        let budget = default_hop_limit(view.num_nodes());
        let class = loop {
            if canonical {
                if self.stamp[v] == self.epoch {
                    break match self.class[v] {
                        IN_PROGRESS => SourceClass::Livelock,
                        c => {
                            tail = self.hops[v].saturating_add(1);
                            SourceClass::from_u8(c)
                        }
                    };
                }
                self.stamp[v] = self.epoch;
                self.class[v] = IN_PROGRESS;
                self.path.push(v as u32);
            } else {
                pure = false;
                if self.hbuf.data.len() > r.declared_header_words() {
                    break SourceClass::HeaderOverflow;
                }
                if self
                    .exotic
                    .iter()
                    .any(|(x, h)| *x as usize == v && *h == self.hbuf)
                {
                    break SourceClass::Livelock;
                }
                if self.exotic.len() >= budget {
                    break SourceClass::HeaderOverflow;
                }
                self.exotic.push((v as u32, self.hbuf.clone()));
            }
            let action = if canonical {
                decode_action(self.cols[self.cur * view.num_nodes() + v])
            } else {
                r.port(v, &self.hbuf)
            };
            match action {
                Action::Deliver => {
                    break if v == d {
                        SourceClass::Proven
                    } else {
                        SourceClass::WrongDelivery
                    };
                }
                Action::Forward(p) => {
                    if p >= view.degree(v) {
                        self.port_out_of_range = true;
                        break SourceClass::DeadPort;
                    }
                    let Some(next) = view.live_target(v, p) else {
                        break SourceClass::DeadPort;
                    };
                    r.next_header_into(v, &mut self.hbuf);
                    v = next;
                    canonical = self.hbuf == self.heads[self.cur];
                }
            }
        };
        // Back-propagate: every canonical state on the walk shares the fate
        // (the chain from each of them is a suffix of this one), and on a
        // pure walk `len(path[i]) = tail + (k − 1 − i)`.
        let k = self.path.len();
        let pure = pure && tail != NO_HOPS;
        for (i, &x) in self.path.iter().enumerate() {
            self.class[x as usize] = class as u8;
            self.hops[x as usize] = if pure {
                tail + (k - 1 - i) as u32
            } else {
                NO_HOPS
            };
        }
        class
    }
}

/// A full sweep's result: deterministic fold of every destination's summary
/// in destination order, bit-identical across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Per-class counts over all `n·(n − 1)` pairs.
    pub counts: ClassCounts,
    /// First broken pair in destination-then-source order.
    pub counterexample: Option<Counterexample>,
    /// Destinations swept (= n).
    pub destinations: usize,
}

impl CheckReport {
    /// Whether every reachable pair is proven to deliver.
    pub fn sound(&self) -> bool {
        self.counts.broken() == 0
    }
}

/// Destinations per work item of [`check_routing`]: enough sweep work to
/// amortize the item's handoff to the fold, even on small graphs.
const DESTS_PER_ITEM: usize = 16;

/// Sweeps every destination of the view on `threads` workers with
/// per-worker [`Checker`] scratch, in [`graphkit::par::map_fold_ordered`]
/// items of 16 consecutive destinations, each one [`Checker::walk_dests`]
/// call.  The fold is in
/// destination order — per-destination summaries do not depend on the
/// scheduling — so the report is bit-identical for every thread count.
pub fn check_routing<R: RoutingFunction + Sync + ?Sized>(
    view: GraphView<'_>,
    r: &R,
    threads: usize,
) -> CheckReport {
    let n = view.num_nodes();
    let mut counts = ClassCounts::default();
    let mut counterexample = None;
    par::map_fold_ordered(
        n.div_ceil(DESTS_PER_ITEM),
        threads,
        Checker::new,
        |checker, item, (item_counts, item_cex): &mut (ClassCounts, Option<Counterexample>)| {
            *item_counts = ClassCounts::default();
            *item_cex = None;
            let dests = item * DESTS_PER_ITEM..((item + 1) * DESTS_PER_ITEM).min(n);
            checker.walk_dests(view, r, dests, |checker, dest| {
                let rep = checker.dest_report(view, dest);
                item_counts.merge(&rep.counts);
                if item_cex.is_none() {
                    *item_cex = rep.first_broken.map(|(source, class)| Counterexample {
                        source,
                        dest,
                        class,
                    });
                }
                ControlFlow::Continue(())
            });
        },
        |_, (item_counts, item_cex)| {
            counts.merge(item_counts);
            if counterexample.is_none() {
                counterexample = *item_cex;
            }
        },
    );
    CheckReport {
        counts,
        counterexample,
        destinations: n,
    }
}
