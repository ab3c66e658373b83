//! Routing on the complete graph `K_n`: the paper's motivating example for
//! the role of port labelings (Section 1).
//!
//! * Under the **modular labeling** (port `p` of vertex `u` leads to
//!   `(u + p + 1) mod n`), the local routing function is the closed form
//!   `port = (v − u − 1) mod n` and needs only `O(log n)` bits.
//! * Under an **adversarial labeling** (an arbitrary permutation of the port
//!   labels at every vertex), reaching a given neighbour requires knowing the
//!   permutation: `⌈log₂ (n−1)!⌉ ≈ n log n` bits in the worst case, and the
//!   raw routing table is essentially optimal.
//!
//! The two schemes below realize the two sides; the analysis harness measures
//! their memory to reproduce the `MEM_local(K_n, 1) = O(log n)` vs
//! `Θ(n log n)`-for-bad-labelings contrast.

use crate::scheme::{BuildError, CompactScheme, GraphHints, SchemeInstance, SchemeRouting};
use graphkit::Graph;
use routemodel::coding::{bits_for_values, log2_factorial};
use routemodel::labeling::is_modular_complete_labeling;
use routemodel::{Action, Header, MemoryReport, RoutingFunction, TableRouting, TieBreak};

/// Closed-form routing on the modularly labeled complete graph.
#[derive(Debug, Clone)]
pub struct ModularCompleteRouting {
    n: usize,
    name: String,
}

impl ModularCompleteRouting {
    pub fn new(n: usize) -> Self {
        ModularCompleteRouting {
            n,
            name: "complete-modular".to_string(),
        }
    }
}

impl RoutingFunction for ModularCompleteRouting {
    fn init(&self, _source: usize, dest: usize) -> Header {
        Header::to_dest(dest)
    }

    fn port(&self, node: usize, header: &Header) -> Action {
        if node == header.dest {
            return Action::Deliver;
        }
        let p = (header.dest + self.n - node - 1) % self.n;
        Action::Forward(p)
    }

    fn init_into(&self, _source: usize, dest: usize, header: &mut Header) {
        header.dest = dest;
        header.data.clear();
    }

    // Identity header: a hop rewrites nothing.
    fn next_header_into(&self, _node: usize, _header: &mut Header) {}

    fn name(&self) -> &str {
        &self.name
    }
}

/// Pure address arithmetic: nothing stored, so nothing to repair or audit.
impl SchemeRouting for ModularCompleteRouting {}

/// The `O(log n)`-bit complete-graph scheme (modular labeling required).
#[derive(Debug, Clone, Copy, Default)]
pub struct ModularCompleteScheme;

impl CompactScheme for ModularCompleteScheme {
    fn name(&self) -> &str {
        "complete-modular"
    }

    fn applies_to(&self, g: &Graph, _hints: &GraphHints) -> bool {
        is_modular_complete_labeling(g)
    }

    fn try_build(&self, g: &Graph, _hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        if !is_modular_complete_labeling(g) {
            return Err(BuildError::NotApplicable {
                scheme: "complete-modular",
                reason: "requires a complete graph with the modular port labeling".into(),
            });
        }
        let n = g.num_nodes();
        let routing = ModularCompleteRouting::new(n);
        // Each router stores its own label and n.
        let bits = 2 * u64::from(bits_for_values(n as u64));
        let memory = MemoryReport::from_fn(n, |_| bits);
        Ok(SchemeInstance::new(Box::new(routing), memory, Some(1.0)))
    }
}

/// Routing tables on an adversarially port-labeled complete graph.  The
/// memory report is the raw table; [`adversarial_lower_bound_bits`] gives the
/// information-theoretic floor `log₂((n−1)!)` for the worst labeling.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdversarialCompleteScheme;

/// `log₂((n−1)!)`: the number of bits needed at a single router of `K_n` to
/// know an arbitrary permutation of its port labels, which an adversarial
/// labeling forces (paper, Section 1).
pub fn adversarial_lower_bound_bits(n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        log2_factorial(n as u64 - 1)
    }
}

impl CompactScheme for AdversarialCompleteScheme {
    fn name(&self) -> &str {
        "complete-adversarial-tables"
    }

    fn applies_to(&self, g: &Graph, _hints: &GraphHints) -> bool {
        let n = g.num_nodes();
        n >= 2 && g.num_edges() == n * (n - 1) / 2
    }

    fn try_build(&self, g: &Graph, hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        if !self.applies_to(g, hints) {
            return Err(BuildError::NotApplicable {
                scheme: "complete-adversarial-tables",
                reason: "requires a complete graph on >= 2 vertices".into(),
            });
        }
        let table = TableRouting::shortest_paths(g, TieBreak::LowestPort);
        let memory = table.memory_raw(g);
        Ok(SchemeInstance::new(Box::new(table), memory, Some(1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::{generators, DistanceMatrix};
    use routemodel::labeling::{adversarial_port_labeling, modular_complete_labeling};
    use routemodel::stretch_factor;

    #[test]
    fn modular_routing_delivers_in_one_hop() {
        for n in [2usize, 3, 8, 17] {
            let g = modular_complete_labeling(n);
            let inst = ModularCompleteScheme.build(&g);
            let dm = DistanceMatrix::all_pairs(&g);
            let rep = stretch_factor(&g, &dm, inst.routing.as_ref()).unwrap();
            assert!((rep.max_stretch - 1.0).abs() < 1e-12);
            assert_eq!(rep.max_route_len, 1);
        }
    }

    #[test]
    fn modular_scheme_requires_modular_labeling() {
        let hints = GraphHints::none();
        let natural = generators::complete(8);
        assert!(ModularCompleteScheme.try_build(&natural, &hints).is_err());
        let shuffled = adversarial_port_labeling(&modular_complete_labeling(8), 1);
        assert!(ModularCompleteScheme.try_build(&shuffled, &hints).is_err());
        let good = modular_complete_labeling(8);
        assert!(ModularCompleteScheme.try_build(&good, &hints).is_ok());
    }

    #[test]
    fn modular_memory_is_logarithmic_adversarial_is_linear() {
        let n = 64usize;
        let good = modular_complete_labeling(n);
        let modular = ModularCompleteScheme.build(&good);
        assert_eq!(modular.memory.local(), 12); // 2 * log2(64)

        let bad = adversarial_port_labeling(&generators::complete(n), 7);
        let adversarial = AdversarialCompleteScheme.build(&bad);
        // raw tables: (n-1) * ceil(log2(n-1)) = 63 * 6
        assert_eq!(adversarial.memory.local(), 63 * 6);
        assert!(adversarial.memory.local() > 20 * modular.memory.local());
    }

    #[test]
    fn adversarial_routing_still_delivers_in_one_hop() {
        let bad = adversarial_port_labeling(&generators::complete(20), 3);
        let inst = AdversarialCompleteScheme.build(&bad);
        let dm = DistanceMatrix::all_pairs(&bad);
        let rep = stretch_factor(&bad, &dm, inst.routing.as_ref()).unwrap();
        assert_eq!(rep.max_route_len, 1);
    }

    #[test]
    fn information_theoretic_floor_close_to_table_size() {
        // log2((n-1)!) is Θ(n log n): between a quarter of and one times the
        // raw table size for moderate n.
        let n = 128usize;
        let floor = adversarial_lower_bound_bits(n);
        let table_bits = ((n - 1) * 7) as f64; // (n-1) * ceil(log2 127)
        assert!(floor > 0.5 * table_bits);
        assert!(floor < 1.1 * table_bits);
    }

    #[test]
    fn adversarial_scheme_rejects_non_complete_graphs() {
        assert!(matches!(
            AdversarialCompleteScheme.try_build(&generators::cycle(6), &GraphHints::none()),
            Err(BuildError::NotApplicable { .. })
        ));
    }

    #[test]
    fn lower_bound_edge_cases() {
        assert_eq!(adversarial_lower_bound_bits(0), 0.0);
        assert_eq!(adversarial_lower_bound_bits(1), 0.0);
        assert_eq!(adversarial_lower_bound_bits(2), 0.0); // 1! = 1
        assert!(adversarial_lower_bound_bits(5) > 4.0); // log2(24) ≈ 4.58
    }
}
