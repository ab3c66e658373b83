//! Seeded fault injection for the static checker's mutation harness.
//!
//! A verifier that passes everything is worthless, so this module produces
//! *provably delivery-breaking* single-entry corruptions of built scheme
//! instances and the `routecheck` test-suite pins that the checker flags
//! every one of them.  Two corruption kinds are offered:
//!
//! * [`MutationKind::Misroute`] — redirect the one table entry that governs
//!   routing of some destination `d` at an intermediate router `v` back
//!   toward the previous hop `u`, closing a guaranteed `u ↔ v` forwarding
//!   cycle for the pair `(u, d)` (a livelock no dynamic sample is guaranteed
//!   to hit, but a static sweep must).
//! * [`MutationKind::OutOfRange`] — overwrite the same entry with a port
//!   beyond the router's degree (caught both by the structural audits and by
//!   the sweep's `DeadPort` class).
//!
//! Each scheme corrupts its own stored state through
//! [`SchemeRouting::corrupt`]: table-backed schemes (routing tables,
//! k-interval, landmark, the grid's direction table) overwrite one entry
//! through [`SchemeRouting::corrupt_entry`]; the tree-interval scheme makes a
//! structural corruption (one child interval bound shrunk, so a subtree
//! destination falls through to the parent arc and bounces).  Schemes with
//! no stored tables at all (e-cube, the modular complete labeling — pure
//! address arithmetic) are corrupted *pointwise*: the boxed routing function
//! is wrapped so exactly one `(router, destination)` decision is flipped,
//! which is the closest analogue of a single-entry corruption a closed-form
//! scheme admits.  Every scheme falls back to the pointwise corruption when
//! its own hook finds nothing to hit, as on a complete graph, where every
//! route is one hop long and no router relays a message.

use crate::scheme::{SchemeInstance, SchemeRouting};
use graphkit::{Graph, NodeId, Port};
use routemodel::{Action, Header, MemoryReport, RoutingFunction};

/// Which corruption to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Redirect one entry so a forwarding cycle (or a premature delivery)
    /// appears.
    Misroute,
    /// Overwrite one entry with a port beyond the router's degree.
    OutOfRange,
}

/// What [`corrupt_instance`] did: the entry it hit and a source/destination
/// pair whose delivery the corruption provably breaks.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The corruption kind applied.
    pub kind: MutationKind,
    /// Name of the corrupted routing function.
    pub scheme: String,
    /// Which table entry (or pointwise decision) was overwritten.
    pub description: String,
    /// A source whose message to [`Mutation::dest`] no longer arrives.
    pub source: NodeId,
    /// The destination whose routing state was corrupted.
    pub dest: NodeId,
}

impl MutationKind {
    /// The port this corruption writes into router `v`'s decision, where
    /// `v` was reached from `back`: the arc back to `back` (a guaranteed
    /// `back ↔ v` cycle while `back` still forwards to `v`), or one past
    /// the port space.
    pub(crate) fn port(self, g: &Graph, v: NodeId, back: NodeId) -> Port {
        match self {
            MutationKind::Misroute => g
                .port_to(v, back)
                .expect("back reached v over an edge, the reverse arc exists"),
            MutationKind::OutOfRange => g.degree(v) + 7,
        }
    }
}

/// What a scheme's [`SchemeRouting::corrupt`] hook did: the entry it hit and
/// a `(source, dest)` pair whose delivery the corruption provably breaks.
#[derive(Debug, Clone)]
pub struct Corruption {
    /// Which table entry was overwritten.
    pub description: String,
    /// A source whose message to [`Corruption::dest`] no longer arrives.
    pub source: NodeId,
    /// The destination whose routing state was corrupted.
    pub dest: NodeId,
}

/// The routing function kept in the instance while the original box is being
/// wrapped (never invoked).
struct Placeholder;

impl RoutingFunction for Placeholder {
    fn init(&self, _source: NodeId, dest: NodeId) -> Header {
        Header::to_dest(dest)
    }
    fn port(&self, _node: NodeId, _header: &Header) -> Action {
        Action::Deliver
    }
}

impl SchemeRouting for Placeholder {}

/// Pointwise corruption wrapper for schemes whose own hook found nothing to
/// hit: delegates every decision to the wrapped function except the one
/// `(node, dest)` pair.
struct CorruptAt {
    inner: Box<dyn SchemeRouting>,
    node: NodeId,
    dest: NodeId,
    action: Action,
    name: String,
}

impl RoutingFunction for CorruptAt {
    fn init(&self, source: NodeId, dest: NodeId) -> Header {
        self.inner.init(source, dest)
    }
    fn port(&self, node: NodeId, header: &Header) -> Action {
        if node == self.node && header.dest == self.dest {
            self.action
        } else {
            self.inner.port(node, header)
        }
    }
    fn next_header(&self, node: NodeId, header: &Header) -> Header {
        self.inner.next_header(node, header)
    }
    fn init_into(&self, source: NodeId, dest: NodeId, header: &mut Header) {
        self.inner.init_into(source, dest, header);
    }
    fn next_header_into(&self, node: NodeId, header: &mut Header) {
        self.inner.next_header_into(node, header);
    }
    fn declared_header_words(&self) -> usize {
        self.inner.declared_header_words()
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// The wrapped tables are intact: they audit and recount as before.
impl SchemeRouting for CorruptAt {
    fn audit(&self, g: &Graph) -> Vec<String> {
        self.inner.audit(g)
    }
    fn memory(&self, g: &Graph) -> Option<MemoryReport> {
        self.inner.memory(g)
    }
}

/// A seeded `(source, first_hop, dest)` triple whose route has length ≥ 2
/// (the first hop, through a valid port, is neither endpoint), or `None`
/// when the instance routes every pair in one hop (complete graphs).
pub(crate) fn pick_two_hop_pair<R: RoutingFunction + ?Sized>(
    r: &R,
    g: &Graph,
    seed: u64,
) -> Option<(NodeId, NodeId, NodeId)> {
    let n = g.num_nodes();
    let mut h = Header::to_dest(0);
    for i in 0..n {
        let d = (seed as usize + i) % n;
        for j in 0..n {
            let u = ((seed >> 16) as usize + j) % n;
            if u == d {
                continue;
            }
            r.init_into(u, d, &mut h);
            if let Action::Forward(p) = r.port(u, &h) {
                let v = if p < g.degree(u) {
                    g.port_target(u, p)
                } else {
                    u
                };
                if v != d && v != u {
                    return Some((u, v, d));
                }
            }
        }
    }
    None
}

/// Applies one seeded single-entry corruption of `kind` to the instance:
/// the scheme's own [`SchemeRouting::corrupt`] hook when it has one that
/// applies, the pointwise wrapper otherwise.
///
/// On success the returned [`Mutation`] names the corrupted entry and a
/// `(source, dest)` pair whose delivery is now provably broken — the pair the
/// checker-catches-mutant tests feed to `routecheck`.  Errors only on graphs
/// too small to host a corruption.
pub fn corrupt_instance(
    inst: &mut SchemeInstance,
    g: &Graph,
    seed: u64,
    kind: MutationKind,
) -> Result<Mutation, String> {
    let n = g.num_nodes();
    if n < 2 {
        return Err("graph too small to corrupt".to_string());
    }
    let scheme = inst.routing.name().to_string();
    let Corruption {
        description,
        source,
        dest,
    } = match inst.routing.corrupt(g, seed, kind) {
        Some(hit) => hit,
        None => corrupt_pointwise(inst, g, seed, kind, &scheme),
    };
    Ok(Mutation {
        kind,
        scheme,
        description,
        source,
        dest,
    })
}

/// Flips exactly one `(router, destination)` decision by wrapping the boxed
/// function: at the first hop of a seeded two-hop route, or — in a one-hop
/// world such as a complete graph — at the source itself.
fn corrupt_pointwise(
    inst: &mut SchemeInstance,
    g: &Graph,
    seed: u64,
    kind: MutationKind,
    scheme: &str,
) -> Corruption {
    let (node, source, dest) = match pick_two_hop_pair(&*inst.routing, g, seed) {
        Some((u, v, d)) => (v, u, d),
        None => {
            let s = seed as usize % g.num_nodes();
            (s, s, (s + 1) % g.num_nodes())
        }
    };
    let (action, what) = match kind {
        // At the source, the only single-decision misroute is a premature
        // delivery.
        MutationKind::Misroute if node == source => (Action::Deliver, "delivered prematurely"),
        MutationKind::Misroute => (
            Action::Forward(kind.port(g, node, source)),
            "redirected back",
        ),
        MutationKind::OutOfRange => (
            Action::Forward(kind.port(g, node, source)),
            "sent out of range",
        ),
    };
    let inner = std::mem::replace(&mut inst.routing, Box::new(Placeholder));
    inst.routing = Box::new(CorruptAt {
        inner,
        node,
        dest,
        action,
        name: format!("corrupted({scheme})"),
    });
    Corruption {
        description: format!("decision of router {node} for destination {dest} {what}"),
        source,
        dest,
    }
}
