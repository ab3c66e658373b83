//! The routing-function trait `R = (I, H, P)`.

use crate::header::Header;
use graphkit::{NodeId, Port};

/// The decision of the port function `P` at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `P(u, h) = ⊥`: the message has reached its destination.
    Deliver,
    /// `P(u, h) = (u, v)` where `v` is reached through the given local port.
    Forward(Port),
}

/// A routing function `R = (I, H, P)` on a fixed graph.
///
/// * `I` — [`RoutingFunction::init`]: the header attached at the source.
/// * `H` — [`RoutingFunction::next_header`]: the header rewriting applied at
///   every intermediate node (defaults to the identity, which is what all the
///   destination-address-based schemes use).
/// * `P` — [`RoutingFunction::port`]: the forwarding decision.
///
/// Implementations must be deterministic: the paper's memory lower bounds are
/// statements about what any fixed local decision procedure must store.
/// What a built scheme can do beyond `R` — repair after link failures, table
/// audits, fault injection — lives on `routeschemes::scheme::SchemeRouting`,
/// which extends this trait.
pub trait RoutingFunction {
    /// The initialization function `I(u, v)`: the header the source `u`
    /// attaches to a message for destination `v`.
    fn init(&self, source: NodeId, dest: NodeId) -> Header;

    /// The port function `P(x, h)`: deliver or forward through a local port.
    fn port(&self, node: NodeId, header: &Header) -> Action;

    /// The header function `H(x, h)`: the header used at the *next* node when
    /// the message is forwarded from `x` with header `h`.  Defaults to the
    /// identity (schemes based purely on destination addresses never rewrite).
    fn next_header(&self, _node: NodeId, header: &Header) -> Header {
        header.clone()
    }

    /// In-place variant of [`RoutingFunction::init`]: writes `I(u, v)` into a
    /// caller-owned header whose payload capacity is reused across messages.
    /// The default delegates to `init`; schemes override it to make header
    /// encoding allocation-free in the routing loop
    /// ([`crate::simulate::walk`]).  Overrides must produce a header equal to
    /// `init(source, dest)`.
    fn init_into(&self, source: NodeId, dest: NodeId, header: &mut Header) {
        *header = self.init(source, dest);
    }

    /// In-place variant of [`RoutingFunction::next_header`]: rewrites the
    /// header the message carries instead of returning a fresh one.  The
    /// default delegates to `next_header` (one clone); identity-header
    /// schemes override it with a no-op so a hop costs zero allocations.
    /// Overrides must leave the header equal to `next_header(node, &h)`.
    fn next_header_into(&self, node: NodeId, header: &mut Header) {
        let next = self.next_header(node, header);
        *header = next;
    }

    /// Human-readable name of the scheme, used in reports.
    fn name(&self) -> &str {
        "unnamed routing function"
    }

    /// The scheme's declared bound on header payload size, in 64-bit words.
    ///
    /// The model allows unbounded headers, but every concrete scheme commits
    /// to a finite encoding (all the registry schemes carry at most one
    /// payload word).  Static verifiers treat a walk whose header payload
    /// grows past this bound as a `HeaderOverflow` instead of chasing an
    /// unbounded state space.  The default is generous; schemes with larger
    /// legitimate payloads must override it.
    fn declared_header_words(&self) -> usize {
        8
    }
}

/// A routing function defined by closures; convenient in tests and in the
/// adversarial constructions where one wants to perturb an existing function.
pub struct FnRouting<FI, FP, FH>
where
    FI: Fn(NodeId, NodeId) -> Header,
    FP: Fn(NodeId, &Header) -> Action,
    FH: Fn(NodeId, &Header) -> Header,
{
    init_fn: FI,
    port_fn: FP,
    header_fn: FH,
    name: String,
}

impl<FI, FP, FH> FnRouting<FI, FP, FH>
where
    FI: Fn(NodeId, NodeId) -> Header,
    FP: Fn(NodeId, &Header) -> Action,
    FH: Fn(NodeId, &Header) -> Header,
{
    /// Builds a routing function from the three closures.
    pub fn new(name: impl Into<String>, init_fn: FI, port_fn: FP, header_fn: FH) -> Self {
        FnRouting {
            init_fn,
            port_fn,
            header_fn,
            name: name.into(),
        }
    }
}

/// Convenience constructor for destination-address routing functions: the
/// header is just the destination and is never rewritten.
pub fn dest_address_routing<FP>(
    name: impl Into<String>,
    port_fn: FP,
) -> FnRouting<impl Fn(NodeId, NodeId) -> Header, FP, impl Fn(NodeId, &Header) -> Header>
where
    FP: Fn(NodeId, &Header) -> Action,
{
    FnRouting::new(
        name,
        |_source, dest| Header::to_dest(dest),
        port_fn,
        |_node, h: &Header| h.clone(),
    )
}

impl<FI, FP, FH> RoutingFunction for FnRouting<FI, FP, FH>
where
    FI: Fn(NodeId, NodeId) -> Header,
    FP: Fn(NodeId, &Header) -> Action,
    FH: Fn(NodeId, &Header) -> Header,
{
    fn init(&self, source: NodeId, dest: NodeId) -> Header {
        (self.init_fn)(source, dest)
    }

    fn port(&self, node: NodeId, header: &Header) -> Action {
        (self.port_fn)(node, header)
    }

    fn next_header(&self, node: NodeId, header: &Header) -> Header {
        (self.header_fn)(node, header)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_routing_delegates_to_closures() {
        let r = FnRouting::new(
            "test",
            |_s, d| Header::with_data(d, vec![9]),
            |node, h: &Header| {
                if node == h.dest {
                    Action::Deliver
                } else {
                    Action::Forward(0)
                }
            },
            |_n, h: &Header| Header::to_dest(h.dest),
        );
        assert_eq!(r.name(), "test");
        let h = r.init(0, 5);
        assert_eq!(h.data, vec![9]);
        assert_eq!(r.port(5, &h), Action::Deliver);
        assert_eq!(r.port(2, &h), Action::Forward(0));
        assert_eq!(r.next_header(2, &h), Header::to_dest(5));
    }

    #[test]
    fn dest_address_routing_identity_header() {
        let r = dest_address_routing("plain", |node, h: &Header| {
            if node == h.dest {
                Action::Deliver
            } else {
                Action::Forward(1)
            }
        });
        let h = r.init(3, 8);
        assert_eq!(h, Header::to_dest(8));
        assert_eq!(r.next_header(0, &h), h);
        assert_eq!(r.port(8, &h), Action::Deliver);
    }

    #[test]
    fn default_next_header_is_identity() {
        struct Dummy;
        impl RoutingFunction for Dummy {
            fn init(&self, _s: NodeId, d: NodeId) -> Header {
                Header::to_dest(d)
            }
            fn port(&self, _n: NodeId, _h: &Header) -> Action {
                Action::Deliver
            }
        }
        let d = Dummy;
        let h = Header::with_data(2, vec![4]);
        assert_eq!(d.next_header(0, &h), h);
        assert_eq!(d.name(), "unnamed routing function");
    }

    #[test]
    fn in_place_header_defaults_agree_with_the_allocating_pair() {
        struct Rewriter;
        impl RoutingFunction for Rewriter {
            fn init(&self, source: NodeId, dest: NodeId) -> Header {
                Header::with_data(dest, vec![source as u64])
            }
            fn port(&self, node: NodeId, h: &Header) -> Action {
                if node == h.dest {
                    Action::Deliver
                } else {
                    Action::Forward(0)
                }
            }
            fn next_header(&self, node: NodeId, h: &Header) -> Header {
                let mut data = h.data.clone();
                data.push(node as u64);
                Header::with_data(h.dest, data)
            }
        }
        let r = Rewriter;
        let mut h = Header::to_dest(99);
        r.init_into(3, 7, &mut h);
        assert_eq!(h, r.init(3, 7));
        let expected = r.next_header(4, &h);
        r.next_header_into(4, &mut h);
        assert_eq!(h, expected);
    }
}
