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
//!   just the current vertex.  The sweep memoizes classifications per vertex
//!   with epoch-stamped arrays — each vertex is walked at most once per
//!   destination, `O(n + m)` per destination including the reachability BFS,
//!   zero allocations once the scratch is warm.
//! * **Exotic headers.**  A walk whose header deviates from the canonical one
//!   (source-dependent init or a rewriting `H`) falls back to explicit
//!   `(vertex, header)` states with repeat detection, bounded by the hop
//!   budget and the scheme's
//!   [`RoutingFunction::declared_header_words`] bound; exceeding either is a
//!   [`SourceClass::HeaderOverflow`].

use graphkit::traversal::bfs_distances_into;
use graphkit::{par, BfsScratch, Dist, GraphView, NodeId, INFINITY};
use routemodel::{default_hop_limit, Action, Header, RoutingFunction};

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
/// walk stack, the reachability BFS state and two header slots.  After the
/// first destination on a given graph size every buffer is warm and
/// [`Checker::check_dest`] performs zero allocations for canonical-header
/// schemes (enforced by the workspace allocation-discipline test).
pub struct Checker {
    /// Epoch stamp per vertex; `stamp[v] == epoch` gates `class[v]`.
    stamp: Vec<u32>,
    /// Memoized class per vertex under the canonical header.
    class: Vec<u8>,
    /// Final class per source of the current destination.
    result: Vec<u8>,
    /// Canonical-state vertices of the walk in progress.
    path: Vec<u32>,
    /// `d(s, dest)` reachability ground truth.
    dist: Vec<Dist>,
    bfs: BfsScratch,
    /// Canonical header of the current destination.
    h0: Header,
    /// The walking header.
    hbuf: Header,
    /// Explicit states of an exotic (non-canonical-header) walk.
    exotic: Vec<(u32, Header)>,
    epoch: u32,
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
            result: Vec::new(),
            path: Vec::new(),
            dist: Vec::new(),
            bfs: BfsScratch::new(),
            h0: Header::to_dest(0),
            hbuf: Header::to_dest(0),
            exotic: Vec::new(),
            epoch: 0,
        }
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.class.resize(n, 0);
            self.result.resize(n, 0);
            self.dist.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
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
        let n = view.num_nodes();
        self.ensure_capacity(n);
        bfs_distances_into(view, d, &mut self.bfs, &mut self.dist[..n]);
        // Canonical header: the init of the lowest non-destination source.
        // Purely a memoization key — correctness never depends on how many
        // walks share it.
        let s0 = if d == 0 { usize::from(n > 1) } else { 0 };
        r.init_into(s0, d, &mut self.h0);
        let mut counts = ClassCounts::default();
        let mut first_broken = None;
        for s in 0..n {
            if s == d {
                continue;
            }
            r.init_into(s, d, &mut self.hbuf);
            let memoized =
                self.hbuf == self.h0 && self.stamp[s] == self.epoch && self.class[s] != IN_PROGRESS;
            let c = if memoized {
                SourceClass::from_u8(self.class[s])
            } else {
                self.walk(view, r, d, s)
            };
            // A pair with no live path is nobody's fault: no routing function
            // can deliver it.  (The converse cannot happen — walks only cross
            // live arcs, so a proven pair has a live path.)
            let c = if self.dist[s] == INFINITY && c != SourceClass::Proven {
                SourceClass::Unreachable
            } else {
                debug_assert!(!(self.dist[s] == INFINITY && c == SourceClass::Proven));
                c
            };
            self.result[s] = c as u8;
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

    /// The class of source `s` for the destination of the last
    /// [`Checker::check_dest`] call.
    pub fn class_of(&self, s: NodeId) -> SourceClass {
        SourceClass::from_u8(self.result[s])
    }

    /// Walks one source's state chain to resolution and memoizes every
    /// canonical state on the walk.
    fn walk<R: RoutingFunction + ?Sized>(
        &mut self,
        view: GraphView<'_>,
        r: &R,
        d: NodeId,
        s: NodeId,
    ) -> SourceClass {
        self.path.clear();
        self.exotic.clear();
        r.init_into(s, d, &mut self.hbuf);
        let mut v = s;
        let mut canonical = self.hbuf == self.h0;
        let budget = default_hop_limit(view.num_nodes());
        let class = loop {
            if canonical {
                if self.stamp[v] == self.epoch {
                    break match self.class[v] {
                        IN_PROGRESS => SourceClass::Livelock,
                        c => SourceClass::from_u8(c),
                    };
                }
                self.stamp[v] = self.epoch;
                self.class[v] = IN_PROGRESS;
                self.path.push(v as u32);
            } else {
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
            match r.port(v, &self.hbuf) {
                Action::Deliver => {
                    break if v == d {
                        SourceClass::Proven
                    } else {
                        SourceClass::WrongDelivery
                    };
                }
                Action::Forward(p) => {
                    if p >= view.degree(v) {
                        break SourceClass::DeadPort;
                    }
                    let Some(next) = view.live_target(v, p) else {
                        break SourceClass::DeadPort;
                    };
                    r.next_header_into(v, &mut self.hbuf);
                    v = next;
                    canonical = self.hbuf == self.h0;
                }
            }
        };
        // Back-propagate: every canonical state on the walk shares the fate
        // (the chain from each of them is a suffix of this one).
        for &x in &self.path {
            self.class[x as usize] = class as u8;
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
/// items of 16 consecutive destinations.  The fold is in
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
            for dest in item * DESTS_PER_ITEM..((item + 1) * DESTS_PER_ITEM).min(n) {
                let rep = checker.check_dest(view, r, dest);
                item_counts.merge(&rep.counts);
                if item_cex.is_none() {
                    *item_cex = rep.first_broken.map(|(source, class)| Counterexample {
                        source,
                        dest,
                        class,
                    });
                }
            }
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
