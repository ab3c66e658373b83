//! The three workloads and the output checks they run.
//!
//! Every workload is one routing deployment's life cycle: set-up (graphs,
//! tables, query plans; repeated and reported as a median), a warm-up pass,
//! then a measured phase in which audits of the tables, serve rounds and
//! failure rounds (fail a nested link sample, serve on the stale tables,
//! repair, serve again) take turns.  The workloads differ in size and in
//! which kind of work fills the run:
//!
//! * `serve-4k` — four scaling schemes on their home graphs at n ≈ 4096,
//!   uniform queries; serve rounds fill the run.
//! * `churn-32k` — landmark on a 32768-vertex 8-regular graph, Zipf queries;
//!   failure rounds fill the run and every serve call counts.
//! * `audit-4k` — shortest-path tables and landmark on the Theorem 1
//!   worst-case instance; audits (paper checks, exact stretch, static proof)
//!   fill the run.
//!
//! One driver thread makes one call at a time (a closed loop); each call
//! uses [`adapter::THREADS`] workers.

use crate::adapter::{self, FailureSet, Family, Network, Router, Served, WorkloadPlan};
use crate::trace;
use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Serve4k,
    Churn32k,
    Audit4k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Serve4k, Workload::Churn32k, Workload::Audit4k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve4k => "serve-4k",
            Workload::Churn32k => "churn-32k",
            Workload::Audit4k => "audit-4k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of every workload; [`Scale::full`] is the benchmark, [`Scale::toy`]
/// the same code paths at test size.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Links failed per round, as a fraction of all links (cumulative).
    pub kill: f64,
    /// Failure rounds of `serve-4k` and `audit-4k`.
    pub side_rounds: usize,
    /// Failure rounds of `churn-32k` per second of `--seconds`.
    pub churn_rounds_per_s: f64,
    /// Serve rounds of `audit-4k`.
    pub side_serve_rounds: usize,
    /// Sources of the plan whose hop counts the traced run measures.
    pub hop_sources: usize,
    pub tree_depth: usize,
    pub random_n: usize,
    pub grid_side: usize,
    pub cube_dim: usize,
    pub serve_queries: u64,
    pub churn_n: usize,
    pub churn_queries: u64,
    pub audit_n: usize,
    pub audit_queries: u64,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            setup_reps: 3,
            kill: 0.001,
            side_rounds: 24,
            churn_rounds_per_s: 2.0,
            side_serve_rounds: 20,
            hop_sources: 256,
            tree_depth: 11,
            random_n: 4096,
            grid_side: 64,
            cube_dim: 12,
            serve_queries: 1 << 16,
            churn_n: 32768,
            churn_queries: 1 << 15,
            audit_n: 2048,
            audit_queries: 1 << 17,
        }
    }

    pub fn toy() -> Scale {
        Scale {
            setup_reps: 2,
            kill: 0.01,
            side_rounds: 2,
            churn_rounds_per_s: 4.0,
            side_serve_rounds: 2,
            hop_sources: 16,
            tree_depth: 5,
            random_n: 128,
            grid_side: 8,
            cube_dim: 6,
            serve_queries: 2000,
            churn_n: 256,
            churn_queries: 2000,
            audit_n: 128,
            audit_queries: 2000,
        }
    }
}

/// Knobs of one run beyond its size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Measure hops per query on a prefix of each served plan (traced run).
    pub hops: bool,
    /// Corrupt one landmark table entry after set-up, so the output checks
    /// must fail (the benchmark's own test).
    pub corrupt: bool,
}

/// The end-to-end metrics a run measures (peak memory is read by the
/// caller from the OS).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub serve_msgs_per_s: f64,
    pub recover_s: f64,
    pub audit_s: f64,
}

impl EndToEnd {
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("setup_s", self.setup_s, "s"),
            ("serve_msgs_per_s", self.serve_msgs_per_s, "msgs/s"),
            ("recover_s", self.recover_s, "s"),
            ("audit_s", self.audit_s, "s"),
        ]
    }
}

/// Operations attempted and failed, with a note per failure kind.
///
/// An operation is one query, repair call, proven pair or paper check.
/// Queries served on stale tables count as attempted, never as failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, count: u64, note: String) {
        if count > 0 {
            self.failed += count;
            self.notes.push(note);
        }
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        self.fail(u64::from(!ok), format!("check failed: {what}"));
    }

    fn served(&mut self, label: &str, s: Served) {
        self.attempted += s.queries;
        self.fail(
            s.queries - s.delivered,
            format!(
                "{label}: {} of {} queries not delivered",
                s.queries - s.delivered,
                s.queries
            ),
        );
    }

    fn result<T>(&mut self, r: Result<T, String>, what: &str) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.attempted += 1;
                self.fail(1, format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Derives an independent seed for one purpose from the run's seed.
fn derive(seed: u64, purpose: &str) -> u64 {
    let mut x = purpose.bytes().fold(seed ^ 0x9E37_79B9_7F4A_7C15, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `build` `reps` times and keeps the last result; the time is the
/// median of the repetitions.
fn setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Free the previous set-up first, so peak memory holds one copy.
        drop(last.take());
        let (built, secs) = timed(&mut build);
        last = Some(built);
        times.push(secs);
    }
    (last.expect("at least one set-up"), median(times))
}

/// The first failure seed whose `rounds`-th cumulative sample leaves `net`
/// connected.  Samples of one seed are nested, so every earlier round is
/// connected too; this keeps the input free of operations that must fail.
fn connected_failure_seed(net: &Network, kill: f64, rounds: usize, seed: u64) -> u64 {
    let rate = (kill * rounds as f64).min(1.0);
    (0..64)
        .map(|i| derive(seed, &format!("failures{i}")))
        .find(|&s| adapter::connected(net, &adapter::fail(net, rate, s)))
        .unwrap_or(seed)
}

/// One served deployment: a router on its network with its query plan.
struct Deployment {
    net: Rc<Network>,
    router: Router,
    plan: WorkloadPlan,
}

/// A second landmark build serving `served`'s plan on its network.  The
/// failure rounds repair this copy, so the served tables stay as built.
fn spare_landmark(served: &Deployment, spec: &str) -> Deployment {
    Deployment {
        net: Rc::clone(&served.net),
        router: build(&served.net, spec, "landmark"),
        plan: served.plan.clone(),
    }
}

/// Builds a scheme every workload builds on its home graph, where a build
/// error is a bug in the program, not an input the benchmark can skip.
fn build(net: &Network, spec: &str, label: &'static str) -> Router {
    match adapter::build(net, spec, label) {
        Ok(r) => r,
        Err(e) => panic!("{label} does not build on its home graph: {e}"),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Share of the run's measuring time used so far, at most 1.
fn share(start: Instant, seconds: f64) -> f64 {
    (start.elapsed().as_secs_f64() / seconds).min(1.0)
}

/// Serves every deployment once, untimed: fills caches and lazy state
/// before any timing, and checks live delivery.
fn warm_up(deps: &[Deployment], tally: &mut Tally) {
    for d in deps {
        let served = adapter::serve(&d.net, None, &d.router, &d.plan);
        if let Some(s) = tally.result(served, d.router.label) {
            tally.served(d.router.label, s);
        }
    }
}

/// Serves every deployment once; the round's msgs/s.
fn serve_round(deps: &[Deployment], tally: &mut Tally) -> Option<f64> {
    let (mut queries, mut secs) = (0u64, 0.0);
    for d in deps {
        let s = tally.result(
            adapter::serve(&d.net, None, &d.router, &d.plan),
            d.router.label,
        )?;
        tally.served(d.router.label, s);
        queries += s.queries;
        secs += s.secs;
    }
    Some(queries as f64 / secs.max(1e-9))
}

/// One structural audit of every deployment's tables; its wall time.
fn audit_pass(deps: &[Deployment], tally: &mut Tally) -> f64 {
    let (findings, secs) = timed(|| {
        deps.iter()
            .map(|d| (d.router.label, adapter::audit_tables(&d.router, &d.net)))
            .collect::<Vec<_>>()
    });
    for (label, findings) in findings {
        tally.check(
            findings.is_empty(),
            &format!("{label} tables audit clean: {findings:?}"),
        );
    }
    secs
}

/// Failure rounds on one deployment.  Round `r` fails the nested sample of
/// `r · kill` of the links, checks connectivity, serves on the stale tables,
/// repairs, and serves on the repaired tables.
struct Churn {
    kill: f64,
    seed: u64,
    rounds: usize,
    done: usize,
    stopped: bool,
    /// Connectivity check plus repair, per round.
    recover: Vec<f64>,
    queries: u64,
    serve_secs: f64,
}

impl Churn {
    fn new(kill: f64, rounds: usize, seed: u64) -> Churn {
        Churn {
            kill,
            seed,
            rounds,
            done: 0,
            stopped: false,
            recover: Vec::new(),
            queries: 0,
            serve_secs: 0.0,
        }
    }

    /// Runs rounds until `share` of them are done, so the rounds spread
    /// over the run instead of landing in one stretch of it.
    fn catch_up(&mut self, d: &mut Deployment, share: f64, tally: &mut Tally) {
        let due = ((self.rounds as f64 * share).ceil() as usize).min(self.rounds);
        while self.done < due && !self.stopped {
            self.done += 1;
            self.stopped = self.round(d, tally).is_none();
        }
    }

    fn round(&mut self, d: &mut Deployment, tally: &mut Tally) -> Option<()> {
        let round = self.done;
        let failures: FailureSet = adapter::fail(&d.net, self.kill * round as f64, self.seed);
        let (connected, check_s) = timed(|| adapter::connected(&d.net, &failures));
        tally.check(connected, &format!("round {round} view stays connected"));
        if !connected {
            return None;
        }
        let stale = adapter::serve(&d.net, Some(&failures), &d.router, &d.plan);
        let stale = tally.result(stale, "stale serve")?;
        tally.attempted += stale.queries;
        trace::add("routeserve.degraded_queries", stale.queries as f64);
        trace::add("routeserve.degraded_delivered", stale.delivered as f64);
        trace::add("routeserve.degraded_secs", stale.secs);

        let (repaired, repair_s) = timed(|| adapter::repair(&mut d.router, &d.net, &failures));
        let repaired = tally.result(repaired, "repair")?;
        tally.check(
            !repaired.full_rebuild,
            &format!("round {round} repair is incremental"),
        );
        self.recover.push(check_s + repair_s);

        let recovered = adapter::serve(&d.net, Some(&failures), &d.router, &d.plan);
        let recovered = tally.result(recovered, "recovered serve")?;
        tally.served("repaired tables", recovered);
        trace::add("routeserve.recovered_queries", recovered.queries as f64);
        trace::add("routeserve.recovered_secs", recovered.secs);

        self.queries += stale.queries + recovered.queries;
        self.serve_secs += stale.secs + recovered.secs;
        Some(())
    }
}

/// Traced run only: exact hop counts of `d`'s plan on its first
/// `sources` sources, and the stretch check on them.
fn measure_hops(d: &Deployment, sources: usize, tally: &mut Tally) {
    let plan = adapter::head(&d.plan, sources);
    let label = d.router.label;
    if let Some(w) = tally.result(adapter::walk(&d.net, &d.router, &plan), label) {
        record_walk(label, w, d.router.guarantee(), tally);
        trace::add(&format!("routemodel.hops.{label}"), w.total_hops as f64);
        trace::add(&format!("routemodel.walked.{label}"), w.delivered as f64);
    }
}

fn record_walk(label: &str, w: adapter::Walked, guarantee: Option<f64>, tally: &mut Tally) {
    tally.attempted += w.attempted;
    tally.fail(
        w.attempted - w.delivered,
        format!(
            "{label}: {} walked pairs not delivered",
            w.attempted - w.delivered
        ),
    );
    if let Some(bound) = guarantee {
        tally.check(
            w.max_stretch <= bound + 1e-9,
            &format!("{label} stretch {} within {bound}", w.max_stretch),
        );
    }
}

fn record_proof(label: &str, p: adapter::Proof, n: usize, tally: &mut Tally) {
    let pairs = (n * (n - 1)) as u64;
    tally.attempted += pairs;
    tally.fail(
        pairs - p.proven.min(pairs),
        format!(
            "{label}: {} of {pairs} pairs not proven ({} broken)",
            pairs - p.proven.min(pairs),
            p.broken
        ),
    );
}

/// Runs `workload` for `seconds` of measurement.
pub fn run(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    opts: Options,
) -> (EndToEnd, Tally) {
    let mut tally = Tally::default();
    let e2e = match workload {
        Workload::Serve4k => serve_4k(scale, seed, seconds, opts, &mut tally),
        Workload::Churn32k => churn_32k(scale, seed, seconds, opts, &mut tally),
        Workload::Audit4k => audit_4k(scale, seed, seconds, opts, &mut tally),
    };
    (e2e, tally)
}

fn landmark_spec(seed: u64) -> String {
    format!("landmark?seed={}", derive(seed, "landmark"))
}

fn corrupt_landmark(d: &mut Deployment, seed: u64, tally: &mut Tally) {
    let r = adapter::corrupt(&mut d.router, &d.net, derive(seed, "mutation"));
    tally.result(r, "mutation");
}

// Every workload spreads its side measurements (audits, failure rounds,
// extra serve rounds) across its main phase: on a shared host CPU speed
// drifts over seconds, and a metric sampled in one stretch of the run would
// carry that drift whole.

fn serve_4k(scale: &Scale, seed: u64, seconds: f64, opts: Options, tally: &mut Tally) -> EndToEnd {
    let s = scale;
    let landmark = landmark_spec(seed);
    let homes: [(Family, &str, &'static str); 4] = [
        (
            Family::BinaryTree {
                depth: s.tree_depth,
            },
            "tree",
            "tree",
        ),
        (
            Family::Random {
                n: s.random_n,
                deg: 8.0,
                seed: derive(seed, "graph"),
            },
            &landmark,
            "landmark",
        ),
        (Family::Grid { side: s.grid_side }, "grid", "grid"),
        (Family::Hypercube { dim: s.cube_dim }, "hypercube", "ecube"),
    ];
    let ((deps, spare, failure_seed), setup_s) = setup(s.setup_reps, || {
        let mut deps = Vec::new();
        for &(family, spec, label) in &homes {
            let net = Rc::new(adapter::generate(family));
            let router = build(&net, spec, label);
            let plan = adapter::uniform(net.n(), s.serve_queries, derive(seed, label));
            deps.push(Deployment { net, router, plan });
        }
        let spare = spare_landmark(&deps[1], &landmark);
        let fs = connected_failure_seed(&deps[1].net, s.kill, s.side_rounds, seed);
        (deps, spare, fs)
    });
    let (mut deps, mut spare) = (deps, spare);
    if opts.corrupt {
        corrupt_landmark(&mut deps[1], seed, tally);
    }
    warm_up(&deps, tally);
    warm_up(std::slice::from_ref(&spare), tally);

    // Serve rounds fill the run.  After each, one structural audit of the
    // served tables (the static all-pairs proof is `audit-4k`'s, so
    // verifier changes show there and not here) and the failure rounds due.
    let mut churn = Churn::new(s.kill, s.side_rounds, failure_seed);
    let (mut rates, mut audits) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let Some(rate) = serve_round(&deps, tally) else {
            break;
        };
        rates.push(rate);
        // The first pass reloads the tables serving evicted from cache; the
        // warm passes after it measure the audit of cache-resident tables.
        audit_pass(&deps, tally);
        for _ in 0..3 {
            audits.push(audit_pass(&deps, tally));
        }
        churn.catch_up(&mut spare, share(start, seconds), tally);
    }
    churn.catch_up(&mut spare, 1.0, tally);
    if opts.hops {
        for d in &deps {
            measure_hops(d, s.hop_sources, tally);
        }
    }
    EndToEnd {
        setup_s,
        serve_msgs_per_s: median(rates),
        recover_s: median(churn.recover),
        audit_s: median(audits),
    }
}

fn churn_32k(scale: &Scale, seed: u64, seconds: f64, opts: Options, tally: &mut Tally) -> EndToEnd {
    let s = scale;
    let rounds = ((seconds * s.churn_rounds_per_s).round() as usize).max(2);
    let landmark = landmark_spec(seed);
    let ((d, failure_seed), setup_s) = setup(s.setup_reps, || {
        let net = Rc::new(adapter::generate(Family::Regular {
            n: s.churn_n,
            d: 8,
            seed: derive(seed, "graph"),
        }));
        let router = build(&net, &landmark, "landmark");
        let plan = adapter::zipf(net.n(), s.churn_queries, derive(seed, "queries"));
        let fs = connected_failure_seed(&net, s.kill, rounds, seed);
        (Deployment { net, router, plan }, fs)
    });
    let mut d = d;
    if opts.corrupt {
        corrupt_landmark(&mut d, seed, tally);
    }
    warm_up(std::slice::from_ref(&d), tally);
    if opts.hops {
        measure_hops(&d, s.hop_sources, tally);
    }

    // Failure rounds fill the run, each followed by a structural audit of
    // the repaired tables (a static all-pairs proof at this size takes
    // minutes, so it is left to `audit-4k`).
    let mut churn = Churn::new(s.kill, rounds, failure_seed);
    let mut audits = Vec::new();
    while churn.done < rounds && !churn.stopped {
        churn.catch_up(&mut d, (churn.done + 1) as f64 / rounds as f64, tally);
        audits.push(audit_pass(std::slice::from_ref(&d), tally));
    }
    EndToEnd {
        setup_s,
        serve_msgs_per_s: churn.queries as f64 / churn.serve_secs.max(1e-9),
        recover_s: median(churn.recover),
        audit_s: median(audits),
    }
}

fn audit_4k(scale: &Scale, seed: u64, seconds: f64, opts: Options, tally: &mut Tally) -> EndToEnd {
    let s = scale;
    let landmark = landmark_spec(seed);
    let ((wc, deps, spare, all_pairs, failure_seed), setup_s) = setup(s.setup_reps, || {
        let (net, wc) = adapter::worst_case(s.audit_n, 0.5, derive(seed, "graph"));
        let table = adapter::shortest_paths(&net, derive(seed, "ties"));
        let lm = build(&net, &landmark, "landmark");
        let plan = adapter::uniform(net.n(), s.audit_queries, derive(seed, "queries"));
        let all_pairs = adapter::all_pairs(net.n());
        let fs = connected_failure_seed(&net, s.kill, s.side_rounds, seed);
        let net = Rc::new(net);
        let deps = vec![
            Deployment {
                net: Rc::clone(&net),
                router: table,
                plan: plan.clone(),
            },
            Deployment {
                net,
                router: lm,
                plan,
            },
        ];
        let spare = spare_landmark(&deps[1], &landmark);
        (wc, deps, spare, all_pairs, fs)
    });
    let (mut deps, mut spare) = (deps, spare);
    if opts.corrupt {
        corrupt_landmark(&mut deps[1], seed, tally);
    }
    warm_up(&deps, tally);
    warm_up(std::slice::from_ref(&spare), tally);

    // Audits fill the run.  Between their calls run the serve rounds and
    // failure rounds due by then; `audit_s` counts the audit calls only.
    let mut churn = Churn::new(s.kill, s.side_rounds, failure_seed);
    let mut rates = Vec::new();
    let start = Instant::now();
    let mut side = |tally: &mut Tally| {
        let share = share(start, seconds);
        let due = (s.side_serve_rounds as f64 * share).ceil() as usize;
        while rates.len() < due {
            match serve_round(&deps, tally) {
                Some(rate) => rates.push(rate),
                None => break,
            }
        }
        churn.catch_up(&mut spare, share, tally);
    };
    let mut audits = Vec::new();
    while audits.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let table = &deps[0].router;
        let (forcing, t1) = timed(|| adapter::forcing_holds(&wc));
        tally.check(forcing, "Lemma 2 forcing structure");
        let (respects, t2) = timed(|| adapter::routing_respects(&wc, table));
        tally.check(respects, "shortest-path routing uses every forced port");
        let (rebuilt, t3) = timed(|| adapter::reconstructs(&wc, table));
        tally.check(
            rebuilt,
            "probing the constrained routers rebuilds the matrix",
        );
        let mut secs = t1 + t2 + t3;
        side(tally);
        for d in &deps {
            let (walked, t) = timed(|| adapter::walk(&d.net, &d.router, &all_pairs));
            secs += t;
            if let Some(w) = tally.result(walked, d.router.label) {
                record_walk(d.router.label, w, d.router.guarantee(), tally);
            }
            side(tally);
            let (proof, t) = timed(|| adapter::prove(&d.net, &d.router));
            secs += t;
            record_proof(d.router.label, proof, d.net.n(), tally);
            side(tally);
        }
        audits.push(secs);
    }
    side(tally);
    if opts.hops {
        for d in &deps {
            measure_hops(d, s.hop_sources, tally);
        }
    }
    EndToEnd {
        setup_s,
        serve_msgs_per_s: median(rates),
        recover_s: median(churn.recover),
        audit_s: median(audits),
    }
}
