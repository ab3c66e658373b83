//! E-cube (dimension-order) routing on the hypercube.
//!
//! The paper's first example of a graph with tiny local memory requirement:
//! `MEM_local(H_n, 1) = O(log n)` — a router only needs its own address and
//! the dimension, because under the dimension-port labeling the outgoing port
//! towards destination `v` is simply the index of the lowest bit in which the
//! router's address and `v` differ.

use crate::scheme::{BuildError, CompactScheme, GraphHints, SchemeInstance, SchemeRouting};
use graphkit::{Graph, NodeId};
use routemodel::coding::bits_for_values;
use routemodel::{Action, Header, MemoryReport, RoutingFunction};

/// E-cube routing on a `k`-dimensional hypercube with the dimension-port
/// labeling produced by [`graphkit::generators::hypercube`].
#[derive(Debug, Clone)]
pub struct EcubeRouting {
    k: usize,
    name: String,
}

impl EcubeRouting {
    /// Creates the routing function for the `k`-dimensional hypercube.
    pub fn new(k: usize) -> Self {
        EcubeRouting {
            k,
            name: "e-cube".to_string(),
        }
    }

    /// Dimension of the hypercube.
    pub fn dimension(&self) -> usize {
        self.k
    }
}

impl RoutingFunction for EcubeRouting {
    fn init(&self, _source: NodeId, dest: NodeId) -> Header {
        Header::to_dest(dest)
    }

    fn port(&self, node: NodeId, header: &Header) -> Action {
        if node == header.dest {
            return Action::Deliver;
        }
        let diff = node ^ header.dest;
        Action::Forward(diff.trailing_zeros() as usize)
    }

    fn init_into(&self, _source: NodeId, dest: NodeId, header: &mut Header) {
        header.dest = dest;
        header.data.clear();
    }

    // Identity header: a hop rewrites nothing.
    fn next_header_into(&self, _node: NodeId, _header: &mut Header) {}

    fn name(&self) -> &str {
        &self.name
    }
}

/// Pure address arithmetic: nothing stored, so nothing to repair or audit.
impl SchemeRouting for EcubeRouting {}

/// Checks whether `g` is a hypercube with the dimension-port labeling (port
/// `i` flips bit `i`); returns its dimension.
pub fn hypercube_dimension(g: &Graph) -> Option<usize> {
    let n = g.num_nodes();
    if n == 0 || !n.is_power_of_two() {
        return None;
    }
    let k = n.trailing_zeros() as usize;
    if k == 0 {
        return None;
    }
    for u in 0..n {
        if g.degree(u) != k {
            return None;
        }
        for i in 0..k {
            if g.port_target(u, i) != u ^ (1 << i) {
                return None;
            }
        }
    }
    Some(k)
}

/// The e-cube routing *scheme*: applies only to dimension-port-labeled
/// hypercubes, where it stores `O(log n)` bits per router.
///
/// Detection prefers the [`GraphHints::hypercube_dim`] pin — generators that
/// set it vouch for the labeling, so the `O(n log n)` structural scan of
/// [`hypercube_dimension`] is skipped (only the vertex count is
/// sanity-checked against the pinned dimension).
#[derive(Debug, Clone, Copy, Default)]
pub struct EcubeScheme;

impl EcubeScheme {
    /// The dimension to route with: the pinned hint when present and
    /// consistent with the vertex count, otherwise the full structural scan.
    fn dimension(&self, g: &Graph, hints: &GraphHints) -> Option<usize> {
        if let Some(dim) = hints.hypercube_dim {
            // A pin is untrusted input from a hints struct anyone can fill:
            // `checked_shl` keeps an absurd dimension a typed refusal
            // instead of a shift overflow.
            if dim >= 1 && 1usize.checked_shl(dim) == Some(g.num_nodes()) {
                return Some(dim as usize);
            }
            return None;
        }
        hypercube_dimension(g)
    }
}

impl CompactScheme for EcubeScheme {
    fn name(&self) -> &str {
        "e-cube"
    }

    fn applies_to(&self, g: &Graph, hints: &GraphHints) -> bool {
        self.dimension(g, hints).is_some()
    }

    fn try_build(&self, g: &Graph, hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        let Some(k) = self.dimension(g, hints) else {
            return Err(BuildError::NotApplicable {
                scheme: "e-cube",
                reason: if hints.hypercube_dim.is_some() {
                    format!(
                        "pinned dimension {:?} inconsistent with n = {}",
                        hints.hypercube_dim,
                        g.num_nodes()
                    )
                } else {
                    "not a dimension-port-labeled hypercube".to_string()
                },
            });
        };
        let routing = EcubeRouting::new(k);
        // Each router stores its own k-bit address plus the value of k.
        let n = g.num_nodes();
        let bits = k as u64 + u64::from(bits_for_values(k as u64 + 1));
        let memory = MemoryReport::from_fn(n, |_| bits);
        Ok(SchemeInstance::new(Box::new(routing), memory, Some(1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::{generators, DistanceMatrix};
    use routemodel::{route, stretch_factor};

    #[test]
    fn ecube_routes_are_shortest_paths() {
        for k in 1..=6usize {
            let g = generators::hypercube(k);
            let dm = DistanceMatrix::all_pairs(&g);
            let r = EcubeRouting::new(k);
            let rep = stretch_factor(&g, &dm, &r).unwrap();
            assert!((rep.max_stretch - 1.0).abs() < 1e-12, "dimension {k}");
        }
    }

    #[test]
    fn ecube_corrects_lowest_dimension_first() {
        let g = generators::hypercube(4);
        let r = EcubeRouting::new(4);
        let trace = route(&g, &r, 0b0000, 0b1011).unwrap();
        assert_eq!(trace.path, vec![0b0000, 0b0001, 0b0011, 0b1011]);
    }

    #[test]
    fn hypercube_detection() {
        assert_eq!(hypercube_dimension(&generators::hypercube(5)), Some(5));
        assert_eq!(hypercube_dimension(&generators::cycle(8)), None);
        assert_eq!(hypercube_dimension(&generators::complete(4)), None);
        assert_eq!(hypercube_dimension(&generators::path(1)), None);
        // cycle on 4 vertices is isomorphic to H_2 but the port labeling of the
        // generator is not the dimension labeling, so the partial scheme
        // correctly refuses it.
        assert_eq!(hypercube_dimension(&generators::cycle(4)), None);
    }

    #[test]
    fn ecube_memory_is_logarithmic() {
        let k = 8;
        let g = generators::hypercube(k);
        let inst = EcubeScheme.build(&g);
        assert_eq!(inst.memory.local(), k as u64 + 4);
        // contrast with routing tables: (n-1) * log deg bits
        let tables = crate::table_scheme::TableScheme::default().build(&g);
        assert!(inst.memory.local() * 10 < tables.memory.local());
    }

    #[test]
    fn scheme_refuses_non_hypercubes() {
        let hints = GraphHints::none();
        assert!(EcubeScheme
            .try_build(&generators::petersen(), &hints)
            .is_err());
        assert!(EcubeScheme
            .try_build(&generators::hypercube(3), &hints)
            .is_ok());
    }

    #[test]
    fn pinned_dimension_hint_skips_the_structural_scan() {
        let g = generators::hypercube(5);
        // Pin consistent with n: accepted, routes shortest paths.
        let inst = EcubeScheme
            .try_build(&g, &GraphHints::hypercube(5))
            .unwrap();
        let dm = DistanceMatrix::all_pairs(&g);
        let rep = stretch_factor(&g, &dm, inst.routing.as_ref()).unwrap();
        assert!((rep.max_stretch - 1.0).abs() < 1e-12);
        // Pin inconsistent with n: typed refusal, even though the graph IS a
        // hypercube (the pin is authoritative, not a fallback).
        let err = EcubeScheme
            .try_build(&g, &GraphHints::hypercube(6))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::scheme::BuildError::NotApplicable { .. }
        ));
        // applies_to consults the pin the same way.
        assert!(EcubeScheme.applies_to(&g, &GraphHints::hypercube(5)));
        assert!(!EcubeScheme.applies_to(&g, &GraphHints::hypercube(6)));
    }

    #[test]
    fn absurd_pinned_dimensions_are_refused_not_overflowed() {
        // dim >= usize::BITS would overflow a bare shift (panic in debug,
        // wrap to 1 in release — wrongly accepting a 1-vertex "hypercube").
        let one = generators::path(1);
        for dim in [64u32, 65, u32::MAX] {
            assert!(
                !EcubeScheme.applies_to(&one, &GraphHints::hypercube(dim)),
                "dim {dim} must be refused"
            );
            assert!(EcubeScheme
                .try_build(&one, &GraphHints::hypercube(dim))
                .is_err());
        }
    }
}
