//! Traffic-scenario generators: who sends how many messages to whom.
//!
//! A [`WorkloadSpec`] describes a traffic pattern symbolically; compiling it
//! against a vertex count yields a [`WorkloadPlan`] — the per-source
//! destination lists the sharded engine streams over.  Compilation is
//! deterministic per seed: the same workload on the same graph produces the
//! same messages on every machine and for every worker count, which is what
//! makes the engine's reports reproducible.
//!
//! Like scheme specs, workloads carry a stable string codec on the shared
//! `speclang` grammar — `zipf?messages=1e6&s=1.2&seed=3`,
//! `bisection?messages=200000` — with [`WorkloadSpec::param_docs`] as the
//! single source for both the parser's rejections and the CLI vocabulary,
//! and `parse ∘ spec_string = id` pinned by round-trip tests.  Scenario
//! files and report rows carry these strings, so a report row always names
//! the *full* pattern, not a lossy family label.
//!
//! All patterns except [`WorkloadSpec::AllPairs`] compile to an explicit
//! CSR-shaped plan (`offsets` + flat destination array, grouped by source in
//! source order).  `AllPairs` stays implicit — materializing `n (n − 1)`
//! pairs would defeat the point of block streaming.

use graphkit::{NodeId, Xoshiro256};
pub use speclang::SpecError;
use speclang::{
    push_nonzero_seed, render_spec, render_vocabulary, split_spec, ParamDoc, ParsedParams, SpecCtx,
};

/// A traffic pattern, described symbolically.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Every ordered pair of distinct vertices exactly once — the paper's
    /// "universal" regime, and the pattern whose block-streamed stretch
    /// report is bit-identical to `routemodel::stretch_factor`.
    AllPairs,
    /// `messages` source/destination pairs drawn uniformly (sources spread
    /// evenly, destinations uniform per message).
    Uniform { messages: u64, seed: u64 },
    /// Uniform sources, Zipf-popular destinations: destination popularity
    /// follows `rank^(-exponent)` over a seeded random ranking of the
    /// vertices — the classic hotspot skew of datacenter/web traffic.
    Zipf {
        messages: u64,
        exponent: f64,
        seed: u64,
    },
    /// `rounds` random permutations: in each round every vertex sends one
    /// message to its image (fixed points skipped) — the all-to-all pattern
    /// of parallel-machine traffic studies.
    Permutations { rounds: u32, seed: u64 },
    /// Every root broadcasts one message to every other vertex (one-to-all
    /// tree traffic; congestion concentrates near the roots).
    Broadcast { roots: Vec<NodeId> },
    /// `sources` distinct random sources, each sending to `dests_per_source`
    /// uniform destinations (duplicates allowed).  The pattern for graphs too
    /// large to touch every source: BFS cost scales with `sources`, not `n`.
    SampledSources {
        sources: usize,
        dests_per_source: usize,
        seed: u64,
    },
    /// Adversarial: every message crosses the id-space bisection (sources in
    /// `[0, n/2)` send to uniform destinations in `[n/2, n)` and vice versa).
    /// On row-major grids that is the row bisection; on hypercubes the
    /// top-dimension cut — the pattern that saturates the network's weakest
    /// cut instead of spreading load like `uniform` does.
    Bisection { messages: u64, seed: u64 },
    /// Adversarial: derangement rounds by id rotation.  Round 0 rotates by
    /// `n/2` (every vertex targets its id-space antipode, crossing the
    /// bisection); later rounds rotate by seeded random offsets in
    /// `[1, n-1]`.  Every round makes each router both a source and a unique
    /// destination, so per-pair landmark detours that popularity-skewed
    /// patterns average away all land at once, with zero fixed points.
    WorstPerm { rounds: u32, seed: u64 },
    /// The Theorem 1 probe set: every constrained vertex sends to every
    /// target vertex — the pairs whose first ports the planted matrix
    /// forces.  Compiles against a built Theorem 1 instance, not a bare
    /// vertex count (see `scenario::run_scenario`).
    ConstrainedProbes,
}

impl WorkloadSpec {
    /// Every workload family key, in vocabulary order.
    pub const ALL_KEYS: [&'static str; 9] = [
        "all-pairs",
        "uniform",
        "zipf",
        "permutations",
        "broadcast",
        "sampled-sources",
        "bisection",
        "worstperm",
        "constrained-probes",
    ];

    /// Short family key for reports (`uniform`, `zipf`, ...).
    pub fn key(&self) -> &'static str {
        match self {
            WorkloadSpec::AllPairs => "all-pairs",
            WorkloadSpec::Uniform { .. } => "uniform",
            WorkloadSpec::Zipf { .. } => "zipf",
            WorkloadSpec::Permutations { .. } => "permutations",
            WorkloadSpec::Broadcast { .. } => "broadcast",
            WorkloadSpec::SampledSources { .. } => "sampled-sources",
            WorkloadSpec::Bisection { .. } => "bisection",
            WorkloadSpec::WorstPerm { .. } => "worstperm",
            WorkloadSpec::ConstrainedProbes => "constrained-probes",
        }
    }

    /// Checks the pattern against the vertex count it will run on.
    ///
    /// [`WorkloadSpec::compile`] asserts these conditions (they are
    /// programmer errors on the direct API), but scenario files make them
    /// user-reachable — loaders and runners call this first so a typo'd
    /// root or a one-vertex graph surfaces as a typed message, not a panic.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if n < 2 {
            return Err(format!(
                "traffic needs at least two vertices (the graph has {n})"
            ));
        }
        if let WorkloadSpec::Broadcast { roots } = self {
            if let Some(&r) = roots.iter().find(|&&r| r >= n) {
                return Err(format!(
                    "broadcast root {r} is out of range for a graph on {n} vertices"
                ));
            }
        }
        Ok(())
    }

    /// Compiles the pattern against a graph on `n` vertices.
    ///
    /// Panics on [`WorkloadSpec::ConstrainedProbes`], which needs the built
    /// instance's constrained/target vertex sets — the scenario runner
    /// compiles it via `WorkloadPlan::from_pairs`.
    pub fn compile(&self, n: usize) -> WorkloadPlan {
        assert!(n >= 2, "traffic needs at least two vertices");
        match self {
            WorkloadSpec::AllPairs => WorkloadPlan {
                n,
                messages: (n as u64) * (n as u64 - 1),
                kind: PlanKind::AllPairs,
            },
            WorkloadSpec::Uniform { messages, seed } => {
                compile_per_source_rng(n, *messages, *seed, |rng, s| {
                    // uniform destination != source
                    loop {
                        let t = rng.gen_range(n);
                        if t != s {
                            return t as u32;
                        }
                    }
                })
            }
            WorkloadSpec::Zipf {
                messages,
                exponent,
                seed,
            } => {
                // Popularity rank -> vertex via a seeded permutation, then a
                // CDF over rank^(-exponent); one binary search per message.
                let mut rng = Xoshiro256::new(seed ^ 0x0021_D7AC_AC0F_u64);
                let by_rank = rng.permutation(n);
                let mut cdf = Vec::with_capacity(n);
                let mut acc = 0.0f64;
                for rank in 0..n {
                    acc += ((rank + 1) as f64).powf(-exponent);
                    cdf.push(acc);
                }
                let total = acc;
                compile_per_source_rng(n, *messages, *seed, move |rng, s| loop {
                    let x = rng.next_f64() * total;
                    let rank = cdf.partition_point(|&c| c < x).min(n - 1);
                    let t = by_rank[rank];
                    if t != s {
                        return t as u32;
                    }
                })
            }
            WorkloadSpec::Permutations { rounds, seed } => {
                let mut rng = Xoshiro256::new(*seed);
                let mut pairs = Vec::with_capacity(*rounds as usize * n);
                for _ in 0..*rounds {
                    let perm = rng.permutation(n);
                    for (u, &t) in perm.iter().enumerate() {
                        if u != t {
                            pairs.push((u, t));
                        }
                    }
                }
                WorkloadPlan::from_pairs(n, pairs)
            }
            WorkloadSpec::Broadcast { roots } => {
                let mut pairs = Vec::with_capacity(roots.len() * (n - 1));
                for &root in roots {
                    assert!(root < n, "broadcast root {root} out of range");
                    for v in 0..n {
                        if v != root {
                            pairs.push((root, v));
                        }
                    }
                }
                WorkloadPlan::from_pairs(n, pairs)
            }
            WorkloadSpec::SampledSources {
                sources,
                dests_per_source,
                seed,
            } => {
                let mut rng = Xoshiro256::new(*seed);
                let mut srcs = rng.sample_indices(n, (*sources).min(n));
                srcs.sort_unstable();
                let mut pairs = Vec::with_capacity(srcs.len() * dests_per_source);
                for &s in &srcs {
                    let mut local = per_source_rng(*seed, s);
                    for _ in 0..*dests_per_source {
                        loop {
                            let t = local.gen_range(n);
                            if t != s {
                                pairs.push((s, t));
                                break;
                            }
                        }
                    }
                }
                WorkloadPlan::from_pairs(n, pairs)
            }
            WorkloadSpec::Bisection { messages, seed } => {
                // Halves by vertex id: `[0, half)` vs `[half, n)`.  Sources
                // are spread evenly like `uniform`; every destination lands
                // in the *other* half, so every message crosses the cut.
                let half = n / 2;
                compile_per_source_rng(n, *messages, *seed, move |rng, s| {
                    if s < half {
                        (half + rng.gen_range(n - half)) as u32
                    } else {
                        rng.gen_range(half) as u32
                    }
                })
            }
            WorkloadSpec::WorstPerm { rounds, seed } => {
                let mut rng = Xoshiro256::new(*seed);
                let mut pairs = Vec::with_capacity(*rounds as usize * n);
                for round in 0..*rounds {
                    // Rotations by d ∈ [1, n-1] are derangements; the first
                    // round pins the antipodal rotation n/2.
                    let d = if round == 0 {
                        (n / 2).max(1)
                    } else {
                        1 + rng.gen_range(n - 1)
                    };
                    for s in 0..n {
                        pairs.push((s, (s + d) % n));
                    }
                }
                WorkloadPlan::from_pairs(n, pairs)
            }
            WorkloadSpec::ConstrainedProbes => panic!(
                "constrained-probes compiles against a built Theorem 1 instance, \
                 not a bare vertex count"
            ),
        }
    }
}

impl WorkloadSpec {
    /// The parameters each workload family accepts — the single source of
    /// truth shared by the parser, the canonical formatter and
    /// [`WorkloadSpec::vocabulary`].
    pub fn param_docs(key: &str) -> &'static [ParamDoc] {
        const MESSAGES: ParamDoc = ParamDoc {
            name: "messages",
            values: "message count >= 1 (scientific notation ok: 1e6)",
        };
        const SEED: ParamDoc = ParamDoc {
            name: "seed",
            values: "u64 seed of the pattern (default 0; 0x hex ok)",
        };
        const ROUNDS: ParamDoc = ParamDoc {
            name: "rounds",
            values: "permutation rounds >= 1",
        };
        match key {
            "uniform" | "bisection" => &[MESSAGES, SEED],
            "zipf" => &[
                MESSAGES,
                ParamDoc {
                    name: "s",
                    values: "Zipf exponent > 0 (default 1)",
                },
                SEED,
            ],
            "permutations" | "worstperm" => &[ROUNDS, SEED],
            "broadcast" => &[ParamDoc {
                name: "roots",
                values: "':'-separated root vertex ids, e.g. roots=0:1:2:3",
            }],
            "sampled-sources" => &[
                ParamDoc {
                    name: "sources",
                    values: "distinct source count >= 1",
                },
                ParamDoc {
                    name: "per",
                    values: "destinations per source >= 1",
                },
                SEED,
            ],
            _ => &[],
        }
    }

    /// The full valid-spec vocabulary, one block per workload key.
    pub fn vocabulary() -> String {
        let entries: Vec<(&str, &[ParamDoc])> = Self::ALL_KEYS
            .into_iter()
            .map(|key| (key, Self::param_docs(key)))
            .collect();
        render_vocabulary(
            "valid workload specs (omitted params = defaults; counts are required):",
            &entries,
        )
    }

    /// Parses a spec string (`key` or `key?name=value&...`).
    pub fn parse(spec: &str) -> Result<WorkloadSpec, SpecError> {
        let (key, query) = split_spec(spec);
        let key = Self::ALL_KEYS
            .into_iter()
            .find(|k| *k == key)
            .ok_or_else(|| SpecError::UnknownKey {
                domain: "workload",
                key: key.to_string(),
            })?;
        let ctx = SpecCtx::new("workload", key);
        let p = ParsedParams::new(ctx, spec, query, Self::param_docs(key))?;
        match key {
            "all-pairs" => Ok(WorkloadSpec::AllPairs),
            "constrained-probes" => Ok(WorkloadSpec::ConstrainedProbes),
            "uniform" => Ok(WorkloadSpec::Uniform {
                messages: p.count("messages")?,
                seed: p.seed()?,
            }),
            "bisection" => Ok(WorkloadSpec::Bisection {
                messages: p.count("messages")?,
                seed: p.seed()?,
            }),
            "zipf" => {
                let exponent = match p.get("s") {
                    Some(value) => {
                        let s = ctx.parse_f64("s", value, "a float > 0")?;
                        // NaN must fail too, hence the negated form.
                        #[allow(clippy::neg_cmp_op_on_partial_ord)]
                        if !(s > 0.0) {
                            return Err(ctx.invalid("s", value, "a float > 0"));
                        }
                        s
                    }
                    None => 1.0,
                };
                Ok(WorkloadSpec::Zipf {
                    messages: p.count("messages")?,
                    exponent,
                    seed: p.seed()?,
                })
            }
            "permutations" | "worstperm" => {
                let rounds = p.count("rounds")?;
                let rounds = u32::try_from(rounds)
                    .map_err(|_| ctx.invalid("rounds", &rounds.to_string(), "a u32"))?;
                let seed = p.seed()?;
                Ok(if key == "permutations" {
                    WorkloadSpec::Permutations { rounds, seed }
                } else {
                    WorkloadSpec::WorstPerm { rounds, seed }
                })
            }
            "broadcast" => {
                let value = p.get("roots").ok_or_else(|| ctx.missing("roots"))?;
                let mut roots = Vec::new();
                for part in value.split(':') {
                    let root: usize = part.parse().map_err(|_| {
                        ctx.invalid("roots", value, "':'-separated vertex ids, e.g. 0:1:2")
                    })?;
                    roots.push(root);
                }
                Ok(WorkloadSpec::Broadcast { roots })
            }
            "sampled-sources" => Ok(WorkloadSpec::SampledSources {
                sources: p.count("sources")? as usize,
                dests_per_source: p.count("per")? as usize,
                seed: p.seed()?,
            }),
            _ => unreachable!("key validated against ALL_KEYS"),
        }
    }

    /// The canonical string form: the bare key for parameterless patterns,
    /// `key?name=value&...` otherwise, omitting default-valued parameters.
    /// `parse` of the result reproduces `self` exactly.
    pub fn spec_string(&self) -> String {
        let mut params: Vec<String> = Vec::new();
        match self {
            WorkloadSpec::AllPairs | WorkloadSpec::ConstrainedProbes => {}
            WorkloadSpec::Uniform { messages, seed }
            | WorkloadSpec::Bisection { messages, seed } => {
                params.push(format!("messages={messages}"));
                push_nonzero_seed(&mut params, *seed);
            }
            WorkloadSpec::Zipf {
                messages,
                exponent,
                seed,
            } => {
                params.push(format!("messages={messages}"));
                if *exponent != 1.0 {
                    params.push(format!("s={exponent}"));
                }
                push_nonzero_seed(&mut params, *seed);
            }
            WorkloadSpec::Permutations { rounds, seed }
            | WorkloadSpec::WorstPerm { rounds, seed } => {
                params.push(format!("rounds={rounds}"));
                push_nonzero_seed(&mut params, *seed);
            }
            WorkloadSpec::Broadcast { roots } => {
                let rendered: Vec<String> = roots.iter().map(|r| r.to_string()).collect();
                params.push(format!("roots={}", rendered.join(":")));
            }
            WorkloadSpec::SampledSources {
                sources,
                dests_per_source,
                seed,
            } => {
                params.push(format!("sources={sources}"));
                params.push(format!("per={dests_per_source}"));
                push_nonzero_seed(&mut params, *seed);
            }
        }
        render_spec(self.key(), &params)
    }
}

impl std::fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec_string())
    }
}

/// A deterministic per-source random stream: mixing the source id into the
/// seed keeps the plan independent of how sources are sharded over workers.
fn per_source_rng(seed: u64, s: usize) -> Xoshiro256 {
    Xoshiro256::new(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Spreads `messages` over the sources (source `s` gets `⌊m/n⌋ + 1` messages
/// when `s < m mod n`) and draws each destination from the source's own
/// stream.
fn compile_per_source_rng(
    n: usize,
    messages: u64,
    seed: u64,
    mut draw: impl FnMut(&mut Xoshiro256, usize) -> u32,
) -> WorkloadPlan {
    let base = messages / n as u64;
    let extra = (messages % n as u64) as usize;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut dests = Vec::with_capacity(messages as usize);
    offsets.push(0u64);
    for s in 0..n {
        let count = base + u64::from(s < extra);
        let mut rng = per_source_rng(seed, s);
        for _ in 0..count {
            dests.push(draw(&mut rng, s));
        }
        offsets.push(dests.len() as u64);
    }
    WorkloadPlan {
        n,
        messages,
        kind: PlanKind::Explicit { offsets, dests },
    }
}

/// Backing of a compiled plan.
#[derive(Debug, Clone, PartialEq)]
enum PlanKind {
    AllPairs,
    /// CSR over sources: destinations of `s` are
    /// `dests[offsets[s]..offsets[s + 1]]`.
    Explicit {
        offsets: Vec<u64>,
        dests: Vec<u32>,
    },
}

/// The destinations of one source, as the engine consumes them.
#[derive(Debug, Clone, Copy)]
pub enum SourceDests<'a> {
    /// Every vertex except the source itself.
    AllOthers,
    /// An explicit list (may contain the source; the engine skips it).
    List(&'a [u32]),
}

/// A compiled traffic pattern: per-source destination lists over `n`
/// vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPlan {
    n: usize,
    messages: u64,
    kind: PlanKind,
}

impl WorkloadPlan {
    /// Groups an explicit pair list by source (stable within each source) —
    /// a counting sort, `O(n + messages)`.
    ///
    /// Self-pairs `(s, s)` are dropped here, like every generated pattern
    /// drops them, so [`WorkloadPlan::messages`] counts exactly the messages
    /// the engine will attempt (`routed + skipped_unreachable == messages`).
    pub fn from_pairs(n: usize, pairs: Vec<(NodeId, NodeId)>) -> Self {
        let mut counts = vec![0u64; n + 1];
        let mut kept = 0usize;
        for &(s, t) in &pairs {
            assert!(s < n && t < n, "pair ({s},{t}) out of range for n={n}");
            if s != t {
                counts[s + 1] += 1;
                kept += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut dests = vec![0u32; kept];
        for &(s, t) in &pairs {
            if s != t {
                dests[cursor[s] as usize] = t as u32;
                cursor[s] += 1;
            }
        }
        WorkloadPlan {
            n,
            messages: kept as u64,
            kind: PlanKind::Explicit { offsets, dests },
        }
    }

    /// Number of vertices the plan was compiled for.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Total planned messages.  Self-pairs are excluded at compile time for
    /// every plan, and unreachable destinations are only discovered — and
    /// counted — by the engine, so a run always satisfies
    /// `routed_messages + skipped_unreachable == messages`.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// The destinations of source `s`.
    pub fn dests(&self, s: NodeId) -> SourceDests<'_> {
        match &self.kind {
            PlanKind::AllPairs => SourceDests::AllOthers,
            PlanKind::Explicit { offsets, dests } => {
                SourceDests::List(&dests[offsets[s] as usize..offsets[s + 1] as usize])
            }
        }
    }

    /// Whether the plan is the implicit all-pairs sweep.
    pub fn is_all_pairs(&self) -> bool {
        matches!(self.kind, PlanKind::AllPairs)
    }

    /// Heap bytes held by the plan (the engine reports this as part of its
    /// peak-memory proxy).
    pub fn bytes(&self) -> u64 {
        match &self.kind {
            PlanKind::AllPairs => 0,
            PlanKind::Explicit { offsets, dests } => {
                (offsets.capacity() * 8 + dests.capacity() * 4) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explicit_pairs(plan: &WorkloadPlan) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for s in 0..plan.num_nodes() {
            match plan.dests(s) {
                SourceDests::AllOthers => panic!("expected explicit plan"),
                SourceDests::List(list) => out.extend(list.iter().map(|&t| (s, t as usize))),
            }
        }
        out
    }

    #[test]
    fn all_pairs_plan_counts_every_ordered_pair() {
        let plan = WorkloadSpec::AllPairs.compile(10);
        assert!(plan.is_all_pairs());
        assert_eq!(plan.messages(), 90);
        assert!(matches!(plan.dests(3), SourceDests::AllOthers));
    }

    #[test]
    fn uniform_plan_spreads_sources_and_avoids_self_loops() {
        let plan = WorkloadSpec::Uniform {
            messages: 103,
            seed: 7,
        }
        .compile(10);
        let pairs = explicit_pairs(&plan);
        assert_eq!(pairs.len(), 103);
        assert_eq!(plan.messages(), 103);
        for &(s, t) in &pairs {
            assert_ne!(s, t);
            assert!(t < 10);
        }
        // 103 = 10*10 + 3: sources 0..3 get 11 messages, the rest 10.
        for s in 0..10usize {
            let count = pairs.iter().filter(|&&(a, _)| a == s).count();
            assert_eq!(count, if s < 3 { 11 } else { 10 });
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        for w in [
            WorkloadSpec::Uniform {
                messages: 500,
                seed: 3,
            },
            WorkloadSpec::Zipf {
                messages: 500,
                exponent: 1.1,
                seed: 3,
            },
            WorkloadSpec::Permutations { rounds: 4, seed: 3 },
            WorkloadSpec::SampledSources {
                sources: 12,
                dests_per_source: 9,
                seed: 3,
            },
        ] {
            assert_eq!(w.compile(40), w.compile(40), "{}", w.key());
        }
        let a = WorkloadSpec::Uniform {
            messages: 500,
            seed: 3,
        }
        .compile(40);
        let b = WorkloadSpec::Uniform {
            messages: 500,
            seed: 4,
        }
        .compile(40);
        assert_ne!(a, b);
    }

    #[test]
    fn zipf_concentrates_on_popular_destinations() {
        let n = 64;
        let plan = WorkloadSpec::Zipf {
            messages: 20_000,
            exponent: 1.2,
            seed: 11,
        }
        .compile(n);
        let mut hits = vec![0u64; n];
        for (_, t) in explicit_pairs(&plan) {
            hits[t] += 1;
        }
        let mut sorted = hits.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top4: u64 = sorted[..4].iter().sum();
        let total: u64 = sorted.iter().sum();
        assert_eq!(total, 20_000);
        assert!(
            top4 as f64 > 0.3 * total as f64,
            "top-4 destinations got only {top4}/{total}"
        );
    }

    #[test]
    fn permutation_rounds_send_at_most_one_message_per_source() {
        let n = 30;
        let rounds = 5;
        let plan = WorkloadSpec::Permutations { rounds, seed: 9 }.compile(n);
        let pairs = explicit_pairs(&plan);
        // Each round is a permutation minus its fixed points.
        assert!(pairs.len() <= rounds as usize * n);
        assert!(
            pairs.len() >= rounds as usize * (n - 5),
            "too many fixed points"
        );
        for s in 0..n {
            let sent = pairs.iter().filter(|&&(a, _)| a == s).count();
            assert!(sent <= rounds as usize);
        }
    }

    #[test]
    fn broadcast_reaches_everyone_once_per_root() {
        let plan = WorkloadSpec::Broadcast { roots: vec![2, 5] }.compile(8);
        let pairs = explicit_pairs(&plan);
        assert_eq!(pairs.len(), 14);
        for root in [2usize, 5] {
            let mut dests: Vec<usize> = pairs
                .iter()
                .filter(|&&(s, _)| s == root)
                .map(|&(_, t)| t)
                .collect();
            dests.sort_unstable();
            let expected: Vec<usize> = (0..8).filter(|&v| v != root).collect();
            assert_eq!(dests, expected);
        }
    }

    #[test]
    fn sampled_sources_touch_few_sources() {
        let plan = WorkloadSpec::SampledSources {
            sources: 6,
            dests_per_source: 11,
            seed: 21,
        }
        .compile(200);
        let pairs = explicit_pairs(&plan);
        assert_eq!(pairs.len(), 66);
        let mut srcs: Vec<usize> = pairs.iter().map(|&(s, _)| s).collect();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(srcs.len(), 6);
    }

    #[test]
    fn bisection_messages_all_cross_the_id_cut() {
        for n in [2usize, 3, 16, 65] {
            let plan = WorkloadSpec::Bisection {
                messages: 400,
                seed: 5,
            }
            .compile(n);
            let pairs = explicit_pairs(&plan);
            assert_eq!(pairs.len(), 400);
            let half = n / 2;
            for &(s, t) in &pairs {
                assert_ne!(s, t);
                assert_ne!(s < half, t < half, "({s},{t}) stays inside a half (n={n})");
            }
        }
    }

    #[test]
    fn worstperm_rounds_are_derangements_and_start_antipodal() {
        let n = 30;
        let rounds = 4u32;
        let plan = WorkloadSpec::WorstPerm { rounds, seed: 7 }.compile(n);
        let pairs = explicit_pairs(&plan);
        // Rotations have no fixed points: every vertex sends every round.
        assert_eq!(pairs.len(), rounds as usize * n);
        for &(s, t) in &pairs {
            assert_ne!(s, t);
        }
        for s in 0..n {
            let sent: Vec<usize> = pairs
                .iter()
                .filter(|&&(a, _)| a == s)
                .map(|&(_, t)| t)
                .collect();
            assert_eq!(sent.len(), rounds as usize);
            // Round 0 is the pinned antipodal rotation.
            assert_eq!(sent[0], (s + n / 2) % n);
        }
        // Each round is a permutation of the destinations.
        for round in 0..rounds as usize {
            let mut dests: Vec<usize> = (0..n)
                .map(|s| {
                    pairs
                        .iter()
                        .filter(|&&(a, _)| a == s)
                        .map(|&(_, t)| t)
                        .nth(round)
                        .unwrap()
                })
                .collect();
            dests.sort_unstable();
            assert_eq!(dests, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workload_specs_round_trip_through_the_codec() {
        let specs = [
            "all-pairs",
            "constrained-probes",
            "uniform?messages=20000&seed=1",
            "uniform?messages=5",
            "zipf?messages=200000&s=1.1&seed=5",
            "zipf?messages=100",
            "permutations?rounds=64&seed=13",
            "broadcast?roots=0:1:2:3",
            "sampled-sources?sources=64&per=256&seed=11",
            "bisection?messages=1024&seed=2",
            "worstperm?rounds=8&seed=3",
        ];
        for s in specs {
            let spec = WorkloadSpec::parse(s).unwrap();
            assert_eq!(spec.spec_string(), s, "canonical form of '{s}'");
            assert_eq!(WorkloadSpec::parse(&spec.spec_string()).unwrap(), spec);
            assert_eq!(format!("{spec}"), s);
        }
        // Non-canonical inputs normalize: default values drop out, counts in
        // scientific notation parse to the same plan.
        let spec = WorkloadSpec::parse("zipf?messages=1e6&s=1.0&seed=0").unwrap();
        assert_eq!(spec.spec_string(), "zipf?messages=1000000");
        assert_eq!(
            WorkloadSpec::parse("uniform?messages=2.5e3").unwrap(),
            WorkloadSpec::Uniform {
                messages: 2500,
                seed: 0
            }
        );
    }

    #[test]
    fn workload_codec_rejections_are_typed() {
        assert!(matches!(
            WorkloadSpec::parse("teleport"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("uniform?bogus=1"),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("all-pairs?seed=1"),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("uniform"),
            Err(SpecError::MissingParam { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("uniform?messages=0"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("uniform?messages=1.5"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("zipf?messages=10&s=-1"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("broadcast"),
            Err(SpecError::MissingParam { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("broadcast?roots=0:x"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("worstperm?rounds"),
            Err(SpecError::Malformed { .. })
        ));
    }

    #[test]
    fn every_documented_workload_param_is_accepted() {
        // Anti-drift: a name the docs list must never be rejected as
        // unknown, and a name they do not list must be.
        let probe_value = |name: &str| match name {
            "roots" => "0:1",
            _ => "3",
        };
        for key in WorkloadSpec::ALL_KEYS {
            let docs = WorkloadSpec::param_docs(key);
            for p in docs {
                // Probe with every required param present so only the
                // probed one can fail.
                let all: Vec<String> = docs
                    .iter()
                    .map(|d| format!("{}={}", d.name, probe_value(d.name)))
                    .collect();
                let spec = format!("{}?{}", key, all.join("&"));
                match WorkloadSpec::parse(&spec) {
                    Ok(_) => {}
                    Err(SpecError::UnknownParam { .. }) => {
                        panic!("documented param '{}' rejected: {spec}", p.name)
                    }
                    Err(other) => panic!("documented param {spec} failed oddly: {other}"),
                }
            }
            let bogus = format!("{key}?definitely-not-a-param=1");
            assert!(
                matches!(
                    WorkloadSpec::parse(&bogus),
                    Err(SpecError::UnknownParam { .. })
                ),
                "{bogus} must be rejected as unknown"
            );
        }
    }

    #[test]
    fn workload_vocabulary_covers_every_key_and_param() {
        let vocab = WorkloadSpec::vocabulary();
        for key in WorkloadSpec::ALL_KEYS {
            assert!(vocab.contains(key), "missing key {key}");
            for p in WorkloadSpec::param_docs(key) {
                assert!(vocab.contains(p.name), "missing param {} of {key}", p.name);
            }
        }
    }

    #[test]
    fn from_pairs_drops_self_pairs_from_the_message_count() {
        let plan = WorkloadPlan::from_pairs(4, vec![(2, 2), (0, 1), (3, 3)]);
        assert_eq!(plan.messages(), 1);
        match plan.dests(2) {
            SourceDests::List(l) => assert!(l.is_empty()),
            _ => panic!(),
        }
        match plan.dests(0) {
            SourceDests::List(l) => assert_eq!(l, &[1]),
            _ => panic!(),
        }
    }

    #[test]
    fn from_pairs_groups_by_source_keeping_order() {
        let plan = WorkloadPlan::from_pairs(5, vec![(3, 1), (0, 4), (3, 2), (0, 1), (3, 1)]);
        match plan.dests(3) {
            SourceDests::List(l) => assert_eq!(l, &[1, 2, 1]),
            _ => panic!(),
        }
        match plan.dests(0) {
            SourceDests::List(l) => assert_eq!(l, &[4, 1]),
            _ => panic!(),
        }
        match plan.dests(1) {
            SourceDests::List(l) => assert!(l.is_empty()),
            _ => panic!(),
        }
        assert_eq!(plan.messages(), 5);
        assert!(plan.bytes() > 0);
    }
}
