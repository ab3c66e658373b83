//! Bit-identity of the routing kernel against the paper's definition.
//!
//! `routemodel::walk` encodes each header once into a reused buffer and
//! rewrites it in place (`init_into` / `next_header_into`), and records the
//! path only when a trace is asked for.  Everything an engine folds from it
//! — outcome counts, route lengths and the stretch summed from them, per-arc
//! congestion counters — must be indistinguishable from a replay of the
//! definition with the allocating `init` / `next_header` pair: a fresh
//! header `I(u, v)`, then `h' = H(x, h)` materialized at every hop.  This
//! matrix pins that for **every registry scheme**, on full views and on
//! failed `GraphView`s (stale tables bouncing off dead links must produce
//! the same `LinkDown`/`HopLimit` outcomes either way), with and without a
//! trace.  Thread and block invariance of the engine built on the kernel is
//! pinned separately in `tests/trafficlab_pipeline.rs`.

use graphkit::{generators, FailureSet, Graph, GraphView, Xoshiro256};
use routemodel::labeling::modular_complete_labeling;
use routemodel::{
    default_hop_limit, walk, Action, DeliveryOutcome, Header, RouteTrace, RoutingError,
    RoutingFunction, StretchAccumulator,
};
use routeschemes::{GraphHints, SchemeInstance, SchemeKind, SchemeSpec};

/// Every registry family on a graph it applies to.
fn registry_instances() -> Vec<(String, Graph, SchemeInstance)> {
    let mut out = Vec::new();
    let random = generators::random_connected(96, 0.08, 11);
    for kind in SchemeKind::ALL {
        let (g, hints) = match kind {
            SchemeKind::Ecube => (generators::hypercube(6), GraphHints::hypercube(6)),
            SchemeKind::DimensionOrder => (generators::grid(8, 8), GraphHints::grid(8, 8)),
            SchemeKind::ModularComplete => (modular_complete_labeling(24), GraphHints::none()),
            _ => (random.clone(), GraphHints::none()),
        };
        let spec = SchemeSpec::default_for(kind);
        let inst = spec
            .build(&g, &hints)
            .unwrap_or_else(|e| panic!("{} must build: {e}", spec.spec_string()));
        out.push((spec.spec_string(), g, inst));
    }
    out
}

/// The full observable record of routing one source's messages: the ordered
/// `(dest, hops, outcome)` events (whose lengths determine every stretch
/// report bit-for-bit), a stretch fold over them, and the sorted hop
/// multiset of the delivered messages (which determines every congestion
/// counter).
#[derive(Debug, PartialEq)]
struct Observed {
    events: Vec<(usize, usize, DeliveryOutcome)>,
    stretch_bits: u64,
    hops: Vec<(usize, usize)>,
}

impl Observed {
    fn new() -> Self {
        Observed {
            events: Vec::new(),
            stretch_bits: 0,
            hops: Vec::new(),
        }
    }

    fn finish(mut self, source: usize) -> Self {
        let mut acc = StretchAccumulator::new();
        for &(t, hops, outcome) in &self.events {
            if outcome.is_delivered() {
                acc.record(source, t, hops as u32, 1);
            }
        }
        self.stretch_bits = acc.into_report().avg_stretch.to_bits();
        self.hops.sort_unstable();
        self
    }
}

/// The paper's definition, replayed with the allocating header pair: the
/// reference the kernel must match.  Returns the fate and the `(node, port)`
/// hops walked.
fn reference_walk(
    g: GraphView,
    r: &dyn RoutingFunction,
    source: usize,
    dest: usize,
    hop_limit: usize,
) -> Result<(DeliveryOutcome, Vec<(usize, usize)>), RoutingError> {
    let mut node = source;
    let mut header = r.init(source, dest);
    let mut hops = Vec::new();
    loop {
        match r.port(node, &header) {
            Action::Deliver if node == dest => return Ok((DeliveryOutcome::Delivered, hops)),
            Action::Deliver => {
                return Ok((DeliveryOutcome::WrongDelivery { delivered_at: node }, hops));
            }
            Action::Forward(p) => {
                let degree = g.degree(node);
                if p >= degree {
                    return Err(RoutingError::PortOutOfRange {
                        node,
                        port: p,
                        degree,
                    });
                }
                let Some(next) = g.live_target(node, p) else {
                    return Ok((DeliveryOutcome::LinkDown { at: node, port: p }, hops));
                };
                header = r.next_header(node, &header);
                hops.push((node, p));
                node = next;
                if hops.len() > hop_limit {
                    return Ok((DeliveryOutcome::HopLimit { hops: hops.len() }, hops));
                }
            }
        }
    }
}

fn observe_reference(
    g: GraphView,
    inst: &SchemeInstance,
    source: usize,
    dests: &[u32],
) -> Observed {
    let limit = default_hop_limit(g.num_nodes());
    let mut obs = Observed::new();
    for t in dests.iter().map(|&t| t as usize).filter(|&t| t != source) {
        let (outcome, hops) = reference_walk(g, inst.routing.as_ref(), source, t, limit).unwrap();
        obs.events.push((t, hops.len(), outcome));
        if outcome.is_delivered() {
            obs.hops.extend(hops);
        }
    }
    obs.finish(source)
}

/// The kernel as the engine drives it: one reused header, a reused trace
/// when hops are wanted (congestion), none otherwise (serving, sweeps).
fn observe_kernel(
    g: GraphView,
    inst: &SchemeInstance,
    source: usize,
    dests: &[u32],
    header: &mut Header,
    trace: Option<&mut RouteTrace>,
) -> Observed {
    let limit = default_hop_limit(g.num_nodes());
    let r = inst.routing.as_ref();
    let mut obs = Observed::new();
    match trace {
        Some(trace) => {
            for t in dests.iter().map(|&t| t as usize).filter(|&t| t != source) {
                let (outcome, hops) = walk(g, r, source, t, limit, header, Some(trace)).unwrap();
                assert_eq!(hops, trace.len(), "trace length must equal the hop count");
                obs.events.push((t, hops, outcome));
                if outcome.is_delivered() {
                    obs.hops
                        .extend(trace.path.iter().copied().zip(trace.ports.iter().copied()));
                }
            }
        }
        None => {
            for t in dests.iter().map(|&t| t as usize).filter(|&t| t != source) {
                let (outcome, hops) = walk(g, r, source, t, limit, header, None).unwrap();
                obs.events.push((t, hops, outcome));
            }
        }
    }
    obs.finish(source)
}

/// `count` destinations sampled with repetition (self-destinations included
/// on purpose: both sides must skip them identically).
fn sampled_dests(n: usize, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = Xoshiro256::new(seed);
    (0..count).map(|_| rng.gen_range(n) as u32).collect()
}

fn assert_identical(
    view: GraphView,
    label: &str,
    inst: &SchemeInstance,
    header: &mut Header,
    trace: &mut RouteTrace,
) {
    let n = view.num_nodes();
    // A few sources cross the interesting source/landmark/corner cases.
    for (si, source) in [0usize, n / 2, n - 1].into_iter().enumerate() {
        let dests = sampled_dests(n, 512, 0xBA7C + si as u64);
        let reference = observe_reference(view, inst, source, &dests);
        let traced = observe_kernel(view, inst, source, &dests, header, Some(trace));
        assert_eq!(
            traced.events, reference.events,
            "{label}, source {source}: route events diverge"
        );
        assert_eq!(
            traced.stretch_bits, reference.stretch_bits,
            "{label}, source {source}: stretch fold diverges"
        );
        assert_eq!(
            traced.hops, reference.hops,
            "{label}, source {source}: hop multiset diverges"
        );
        let traceless = observe_kernel(view, inst, source, &dests, header, None);
        assert_eq!(
            traceless.events, reference.events,
            "{label}, source {source}: traceless route events diverge"
        );
        assert_eq!(
            traceless.stretch_bits, reference.stretch_bits,
            "{label}, source {source}: traceless stretch fold diverges"
        );
    }
}

#[test]
fn kernel_is_bit_identical_on_every_registry_scheme() {
    // One header and one trace across every scheme: buffer reuse across
    // payload shapes must not leak state from one message to the next.
    let mut header = Header::to_dest(0);
    let mut trace = RouteTrace::new();
    for (spec, g, inst) in registry_instances() {
        assert_identical(GraphView::full(&g), &spec, &inst, &mut header, &mut trace);
    }
}

#[test]
fn kernel_is_bit_identical_on_failed_views() {
    // Stale schemes routing over dead links: the reference replay turns
    // these into LinkDown / HopLimit outcomes; the kernel must agree
    // event-for-event.  Kill 10% of links, scheme tables stay pristine.
    let mut header = Header::to_dest(0);
    let mut trace = RouteTrace::new();
    for (spec, g, inst) in registry_instances() {
        let f = FailureSet::sample(&g, 0.1, 0xDEAD ^ g.num_nodes() as u64);
        assert!(!f.is_empty(), "{spec}: failure sample must kill something");
        let view = GraphView::masked(&g, &f);
        let label = format!("{spec} (failed view)");
        assert_identical(view, &label, &inst, &mut header, &mut trace);
    }
}
