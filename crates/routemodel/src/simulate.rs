//! Executing a routing function on a graph.
//!
//! [`walk`] is the one routing loop: it replays the paper's definition for
//! one message — start with the header `I(u, v)`, repeatedly apply the port
//! function `P` and the header function `H` — rewriting a caller-owned
//! [`Header`] in place, and records the path into a [`RouteTrace`] only when
//! the caller asks for one.  A hop budget (default `4 n + 16`, scaled by the
//! caller when needed) guards against non-terminating routing functions.
//! [`route`] is its strict, trace-recording form for one pair; the stretch
//! sweeps, the `trafficlab` engine and the `routeserve` server call [`walk`]
//! directly with warm buffers, so routing `n²` pairs costs zero allocations
//! per pair.
//!
//! Every entry point accepts anything convertible to a [`GraphView`]: a
//! pristine `&Graph` (every link live) or a masked view with a
//! [`graphkit::FailureSet`].  Per-message fates are reported as a typed
//! [`DeliveryOutcome`] — a hop onto a dead link is [`DeliveryOutcome::LinkDown`],
//! data, not an abort — while genuine *model violations* (a port number that
//! does not exist) remain [`RoutingError`]s.

use crate::error::RoutingError;
use crate::function::{Action, RoutingFunction};
use crate::header::Header;
use graphkit::{GraphView, NodeId, Port};

/// The fate of one routed message.
///
/// Everything here is an *observation* about a run, not a defect of the
/// routing function: on a degraded network a perfectly correct scheme drops
/// messages onto dead links.  The churn executor counts these per outcome;
/// strict sweeps convert non-delivery to a [`RoutingError`] via
/// [`DeliveryOutcome::into_error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The message reached its destination.
    Delivered,
    /// The message was forwarded onto a dead link and dropped there.
    LinkDown {
        /// Vertex holding the dead port.
        at: NodeId,
        /// The dead port.
        port: Port,
    },
    /// The hop budget ran out (a forwarding loop, or a budget too small).
    HopLimit {
        /// Hops walked when the budget ran out.
        hops: usize,
    },
    /// `P` returned `Deliver` at a node that is not the destination.
    WrongDelivery {
        /// Where the message actually surfaced.
        delivered_at: NodeId,
    },
}

impl DeliveryOutcome {
    /// Every machine code a [`DeliveryOutcome`] can render to, in declaration
    /// order.  Table renderers, JSON emitters and their anti-drift tests all
    /// iterate this list instead of hand-writing the strings.
    pub const ALL_CODES: [&'static str; 4] =
        ["delivered", "link_down", "hop_limit", "wrong_delivery"];

    /// Stable snake_case machine code of the outcome, shared between table
    /// and JSON output (satellite of the `routecheck` soundness verdicts).
    pub fn code(&self) -> &'static str {
        match self {
            DeliveryOutcome::Delivered => "delivered",
            DeliveryOutcome::LinkDown { .. } => "link_down",
            DeliveryOutcome::HopLimit { .. } => "hop_limit",
            DeliveryOutcome::WrongDelivery { .. } => "wrong_delivery",
        }
    }

    /// Whether the message arrived.
    #[inline]
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryOutcome::Delivered)
    }

    /// The strict-mode translation: `None` for a delivery, the matching
    /// [`RoutingError`] otherwise.  `source`/`dest` identify the message for
    /// the error report.
    pub fn into_error(self, source: NodeId, dest: NodeId) -> Option<RoutingError> {
        match self {
            DeliveryOutcome::Delivered => None,
            DeliveryOutcome::LinkDown { at, port } => Some(RoutingError::LinkDown {
                source,
                dest,
                at,
                port,
            }),
            DeliveryOutcome::HopLimit { hops } => Some(RoutingError::Loop { source, dest, hops }),
            DeliveryOutcome::WrongDelivery { delivered_at } => Some(RoutingError::WrongDelivery {
                source,
                dest,
                delivered_at,
            }),
        }
    }
}

/// The trace of one routed message: the visited vertices and the ports taken.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTrace {
    /// Visited vertices, starting at the source and ending at the destination.
    pub path: Vec<NodeId>,
    /// Port taken at each non-final vertex (`ports.len() == path.len() - 1`).
    pub ports: Vec<Port>,
}

impl RouteTrace {
    /// An empty trace buffer, ready to be passed to [`walk`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently held (for peak-memory accounting).
    pub fn bytes(&self) -> u64 {
        ((self.path.capacity() + self.ports.capacity()) * std::mem::size_of::<usize>()) as u64
    }

    /// Number of edges traversed.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the route has length zero (source equals destination).
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// First port taken, i.e. `P(source, I(source, dest))` — the quantity the
    /// matrices of constraints pin down.
    pub fn first_port(&self) -> Option<Port> {
        self.ports.first().copied()
    }
}

/// Default hop budget for a graph on `n` vertices: `4 n + 16` — generous
/// enough for any reasonable stretch, small enough to detect loops quickly.
pub fn default_hop_limit(n: usize) -> usize {
    4 * n + 16
}

/// Routes one message from `source` to `dest` under `r`: the crate's one
/// routing loop, behind every sweep, engine and server.
///
/// The header `I(source, dest)` is encoded once into the caller-owned
/// `header` with [`RoutingFunction::init_into`], then `P` decides each hop
/// and `H` rewrites the header in place with
/// [`RoutingFunction::next_header_into`], so a warm caller allocates nothing
/// per message.  When `trace` is given it is cleared and receives the
/// visited vertices and ports taken; on a non-delivered outcome it holds the
/// partial walk.  `source == dest` is delivered over zero hops without
/// consulting the routing function.
///
/// Returns the message's fate and the hops walked.  The only `Err` is a
/// model violation ([`RoutingError::PortOutOfRange`]): loops, wrong
/// deliveries and dead links are outcomes, so degraded-network sweeps keep
/// going.
pub fn walk<'a, R: RoutingFunction + ?Sized>(
    g: impl Into<GraphView<'a>>,
    r: &R,
    source: NodeId,
    dest: NodeId,
    hop_limit: usize,
    header: &mut Header,
    mut trace: Option<&mut RouteTrace>,
) -> Result<(DeliveryOutcome, usize), RoutingError> {
    let g = g.into();
    if let Some(t) = trace.as_deref_mut() {
        t.path.clear();
        t.ports.clear();
        t.path.push(source);
    }
    if source == dest {
        return Ok((DeliveryOutcome::Delivered, 0));
    }
    r.init_into(source, dest, header);
    let mut node = source;
    let mut hops = 0usize;
    loop {
        match r.port(node, header) {
            Action::Deliver => {
                let outcome = if node == dest {
                    DeliveryOutcome::Delivered
                } else {
                    DeliveryOutcome::WrongDelivery { delivered_at: node }
                };
                return Ok((outcome, hops));
            }
            Action::Forward(p) => {
                let deg = g.degree(node);
                if p >= deg {
                    return Err(RoutingError::PortOutOfRange {
                        node,
                        port: p,
                        degree: deg,
                    });
                }
                let Some(next) = g.live_target(node, p) else {
                    return Ok((DeliveryOutcome::LinkDown { at: node, port: p }, hops));
                };
                r.next_header_into(node, header);
                if let Some(t) = trace.as_deref_mut() {
                    t.path.push(next);
                    t.ports.push(p);
                }
                node = next;
                hops += 1;
                if hops > hop_limit {
                    return Ok((DeliveryOutcome::HopLimit { hops }, hops));
                }
            }
        }
    }
}

/// Simulates routing one message from `source` to `dest` under `r`, in
/// strict mode: the trace of a delivered message, or the [`RoutingError`]
/// matching any non-delivery.  `source == dest` yields an empty trace without
/// consulting the routing function.
pub fn route<'a, R: RoutingFunction + ?Sized>(
    g: impl Into<GraphView<'a>>,
    r: &R,
    source: NodeId,
    dest: NodeId,
) -> Result<RouteTrace, RoutingError> {
    let g = g.into();
    let mut trace = RouteTrace::new();
    let mut header = Header::to_dest(dest);
    let limit = default_hop_limit(g.num_nodes());
    let (outcome, _) = walk(g, r, source, dest, limit, &mut header, Some(&mut trace))?;
    match outcome.into_error(source, dest) {
        None => Ok(trace),
        Some(e) => Err(e),
    }
}

/// The first port used when routing from `source` to `dest`, i.e.
/// `P(source, I(source, dest))`.  This is the observable that the generalized
/// matrices of constraints control.  Returns `None` when `source == dest`.
pub fn first_port<R: RoutingFunction + ?Sized>(
    r: &R,
    source: NodeId,
    dest: NodeId,
) -> Option<Port> {
    if source == dest {
        return None;
    }
    match r.port(source, &r.init(source, dest)) {
        Action::Deliver => None,
        Action::Forward(p) => Some(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::dest_address_routing;
    use graphkit::generators;

    /// Greedy clockwise routing on a cycle: always take port toward the
    /// successor (port to node (u+1)%n is discoverable from the generator's
    /// construction order).
    fn clockwise_on_cycle(n: usize) -> (graphkit::Graph, impl RoutingFunction) {
        let g = generators::cycle(n);
        let g2 = g.clone();
        let r = dest_address_routing("clockwise", move |node, h: &Header| {
            if node == h.dest {
                Action::Deliver
            } else {
                let next = (node + 1) % n;
                Action::Forward(g2.port_to(node, next).unwrap())
            }
        });
        (g, r)
    }

    #[test]
    fn trivial_route_source_equals_dest() {
        let (g, r) = clockwise_on_cycle(5);
        let t = route(&g, &r, 3, 3).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.path, vec![3]);
        assert_eq!(t.first_port(), None);
    }

    #[test]
    fn clockwise_routing_lengths() {
        let (g, r) = clockwise_on_cycle(6);
        let t = route(&g, &r, 0, 3).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.path, vec![0, 1, 2, 3]);
        let t = route(&g, &r, 4, 1).unwrap();
        assert_eq!(t.len(), 3); // 4 -> 5 -> 0 -> 1
    }

    #[test]
    fn ports_in_trace_are_consistent_with_graph() {
        let (g, r) = clockwise_on_cycle(7);
        let t = route(&g, &r, 2, 0).unwrap();
        for (i, &p) in t.ports.iter().enumerate() {
            assert_eq!(g.port_target(t.path[i], p), t.path[i + 1]);
        }
    }

    #[test]
    fn reused_trace_buffer_matches_fresh_routes() {
        let (g, r) = clockwise_on_cycle(9);
        let limit = default_hop_limit(9);
        let mut header = Header::to_dest(0);
        let mut buf = RouteTrace::new();
        for s in 0..9usize {
            for t in 0..9usize {
                let (outcome, hops) =
                    walk(&g, &r, s, t, limit, &mut header, Some(&mut buf)).unwrap();
                assert!(outcome.is_delivered());
                let fresh = route(&g, &r, s, t).unwrap();
                assert_eq!(buf, fresh, "pair ({s},{t})");
                assert_eq!(hops, fresh.len(), "pair ({s},{t})");
                // Without a trace the walk reports the same fate and length.
                let traceless = walk(&g, &r, s, t, limit, &mut header, None).unwrap();
                assert_eq!(traceless, (outcome, hops), "pair ({s},{t})");
            }
        }
    }

    #[test]
    fn looping_function_detected() {
        let g = generators::cycle(4);
        // Never deliver: always forward through port 0.
        let r = dest_address_routing("loopy", |_node, _h: &Header| Action::Forward(0));
        match route(&g, &r, 0, 2) {
            Err(RoutingError::Loop {
                source: 0, dest: 2, ..
            }) => {}
            other => panic!("expected a loop error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_delivery_detected() {
        let g = generators::path(4);
        let r = dest_address_routing("lazy", |_node, _h: &Header| Action::Deliver);
        match route(&g, &r, 0, 3) {
            Err(RoutingError::WrongDelivery {
                delivered_at: 0, ..
            }) => {}
            other => panic!("expected wrong delivery, got {other:?}"),
        }
    }

    #[test]
    fn port_out_of_range_detected() {
        let g = generators::path(3);
        let r = dest_address_routing("bad-port", |node, h: &Header| {
            if node == h.dest {
                Action::Deliver
            } else {
                Action::Forward(5)
            }
        });
        match route(&g, &r, 0, 2) {
            Err(RoutingError::PortOutOfRange {
                node: 0,
                port: 5,
                degree: 1,
            }) => {}
            other => panic!("expected port error, got {other:?}"),
        }
        // A port that does not exist is a defect of the routing function,
        // not a property of the run: the kernel errors, trace or no trace.
        let mut header = Header::to_dest(0);
        let err = walk(&g, &r, 0, 2, default_hop_limit(3), &mut header, None).unwrap_err();
        assert!(matches!(err, RoutingError::PortOutOfRange { port: 5, .. }));
    }

    #[test]
    fn hop_limit_is_an_outcome_not_an_abort() {
        // A looping function exhausts the budget on the hop that exceeds it,
        // with or without a trace, and the strict API turns that into a loop
        // error.
        let g = generators::cycle(6);
        let r = dest_address_routing("loopy", |_node, _h: &Header| Action::Forward(0));
        let mut header = Header::to_dest(0);
        let mut buf = RouteTrace::new();
        for limit in [1usize, 2, 7, 24] {
            let traced = walk(&g, &r, 0, 2, limit, &mut header, Some(&mut buf)).unwrap();
            assert_eq!(
                traced,
                (DeliveryOutcome::HopLimit { hops: limit + 1 }, limit + 1)
            );
            assert_eq!(buf.len(), limit + 1, "partial trace up to the budget");
            let traceless = walk(&g, &r, 0, 2, limit, &mut header, None).unwrap();
            assert_eq!(traceless, traced, "limit {limit}");
        }
    }

    #[test]
    fn dead_link_is_an_outcome_not_an_abort() {
        use graphkit::FailureSet;
        // Clockwise routing on C_6 with the link {2, 3} dead: 0 -> 3 walks
        // 0, 1, 2 and drops at 2, while 5 -> 2 never crosses the dead link
        // and still delivers.
        let (g, r) = clockwise_on_cycle(6);
        let f = FailureSet::from_edges(&g, &[(2, 3)]);
        let view = GraphView::masked(&g, &f);
        let mut header = Header::to_dest(0);
        let mut buf = RouteTrace::new();
        let limit = default_hop_limit(6);
        let (outcome, hops) = walk(view, &r, 0, 3, limit, &mut header, Some(&mut buf)).unwrap();
        let p = g.port_to(2, 3).unwrap();
        assert_eq!(outcome, DeliveryOutcome::LinkDown { at: 2, port: p });
        assert_eq!(hops, 2);
        assert_eq!(buf.path, vec![0, 1, 2], "partial trace up to the drop");
        // Strict mode translates the same run into a typed error.
        match route(view, &r, 0, 3) {
            Err(RoutingError::LinkDown {
                source: 0,
                dest: 3,
                at: 2,
                ..
            }) => {}
            other => panic!("expected link-down error, got {other:?}"),
        }
        // Routes that avoid the dead link are untouched.
        let t = route(view, &r, 5, 2).unwrap();
        assert_eq!(t.path, vec![5, 0, 1, 2]);
    }

    #[test]
    fn route_lengths_on_cycle() {
        let (g, r) = clockwise_on_cycle(5);
        for s in 0..5usize {
            for t in (0..5usize).filter(|&t| t != s) {
                let expected = ((t + 5) - s) % 5;
                assert_eq!(
                    route(&g, &r, s, t).unwrap().len(),
                    expected,
                    "pair ({s},{t})"
                );
            }
        }
    }

    #[test]
    fn first_port_matches_route() {
        let (g, r) = clockwise_on_cycle(6);
        for s in 0..6usize {
            for t in 0..6usize {
                if s == t {
                    assert_eq!(first_port(&r, s, t), None);
                } else {
                    let trace = route(&g, &r, s, t).unwrap();
                    assert_eq!(first_port(&r, s, t), trace.first_port());
                }
            }
        }
    }

    #[test]
    fn custom_hop_limit_respected() {
        let (g, r) = clockwise_on_cycle(10);
        // 0 -> 9 clockwise needs 9 hops; a limit of 3 must end the walk as
        // a hop-limit outcome, which strict mode reports as a loop.
        let mut header = Header::to_dest(0);
        let (outcome, _) = walk(&g, &r, 0, 9, 3, &mut header, None).unwrap();
        match outcome.into_error(0, 9) {
            Some(RoutingError::Loop { hops, .. }) => assert!(hops > 3),
            other => panic!("expected loop error, got {other:?}"),
        }
    }
}
