//! Errors raised while simulating a routing function.

use graphkit::{NodeId, Port};
use std::fmt;

/// A violation of the routing model detected while simulating `R`.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutingError {
    /// The message exceeded the hop budget; the routing function loops.
    Loop {
        source: NodeId,
        dest: NodeId,
        hops: usize,
    },
    /// `P` returned `Deliver` at a node that is not the destination.
    WrongDelivery {
        source: NodeId,
        dest: NodeId,
        delivered_at: NodeId,
    },
    /// `P` returned a port number that does not exist at the node.
    PortOutOfRange {
        node: NodeId,
        port: Port,
        degree: usize,
    },
    /// The message was forwarded onto a dead link (strict-mode view of the
    /// [`crate::DeliveryOutcome::LinkDown`] outcome).
    LinkDown {
        source: NodeId,
        dest: NodeId,
        at: NodeId,
        port: Port,
    },
}

impl RoutingError {
    /// Stable snake_case machine code of the error variant, for JSON output
    /// and skip notes that need a grep-able key next to the human message.
    pub fn code(&self) -> &'static str {
        match self {
            RoutingError::Loop { .. } => "loop",
            RoutingError::WrongDelivery { .. } => "wrong_delivery",
            RoutingError::PortOutOfRange { .. } => "port_out_of_range",
            RoutingError::LinkDown { .. } => "link_down",
        }
    }
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::Loop { source, dest, hops } => write!(
                f,
                "routing from {source} to {dest} did not terminate within {hops} hops"
            ),
            RoutingError::WrongDelivery {
                source,
                dest,
                delivered_at,
            } => write!(
                f,
                "message from {source} to {dest} was delivered at {delivered_at}"
            ),
            RoutingError::PortOutOfRange { node, port, degree } => {
                write!(f, "port {port} requested at node {node} of degree {degree}")
            }
            RoutingError::LinkDown {
                source,
                dest,
                at,
                port,
            } => write!(
                f,
                "message from {source} to {dest} hit the dead link at port {port} of {at}"
            ),
        }
    }
}

impl std::error::Error for RoutingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_the_vertices() {
        let e = RoutingError::Loop {
            source: 1,
            dest: 2,
            hops: 40,
        };
        let s = e.to_string();
        assert!(s.contains('1') && s.contains('2') && s.contains("40"));

        let e = RoutingError::WrongDelivery {
            source: 0,
            dest: 9,
            delivered_at: 4,
        };
        assert!(e.to_string().contains("delivered at 4"));

        let e = RoutingError::PortOutOfRange {
            node: 3,
            port: 7,
            degree: 3,
        };
        assert!(e.to_string().contains("port 7"));

        let e = RoutingError::LinkDown {
            source: 2,
            dest: 8,
            at: 5,
            port: 1,
        };
        assert!(e.to_string().contains("dead link"));
        assert!(e.to_string().contains("port 1"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = RoutingError::WrongDelivery {
            source: 1,
            dest: 2,
            delivered_at: 3,
        };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
