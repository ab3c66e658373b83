//! Soundness reports: per-scheme verdicts with structural-audit findings,
//! class counts, the first counterexample pair, and table/JSON rendering.

use analysis::report::{Json, Table};
use graphkit::{FailureSet, Graph, GraphView};
use routeschemes::SchemeInstance;

use crate::check::{check_routing, ClassCounts, Counterexample, SourceClass};

/// Per-scheme soundness verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable pair proven to deliver and every structural audit
    /// clean.
    Sound,
    /// At least one broken pair or audit finding.
    Unsound,
}

impl Verdict {
    /// Stable snake_case machine code, shared between table and JSON output.
    pub fn code(&self) -> &'static str {
        match self {
            Verdict::Sound => "sound",
            Verdict::Unsound => "unsound",
        }
    }
}

/// One scheme's verification result.
#[derive(Debug, Clone)]
pub struct SchemeSoundness {
    /// Display label (usually the scheme spec string).
    pub scheme: String,
    pub verdict: Verdict,
    /// Pair counts over all `n·(n − 1)` source/destination pairs.
    pub counts: ClassCounts,
    /// First broken pair in destination-then-source order, if any.
    pub counterexample: Option<Counterexample>,
    /// Structural table-audit findings (empty when clean).
    pub audit_findings: Vec<String>,
    /// Wall-clock seconds of the sweep.
    pub check_secs: f64,
}

impl SchemeSoundness {
    /// A one-line human-readable reason when unsound, `None` when sound.
    pub fn failure_note(&self) -> Option<String> {
        if self.verdict == Verdict::Sound {
            return None;
        }
        if let Some(cex) = self.counterexample {
            Some(format!(
                "{} from source {} to destination {}",
                cex.class.code(),
                cex.source,
                cex.dest
            ))
        } else {
            self.audit_findings.first().map(|f| format!("audit: {f}"))
        }
    }
}

/// A verification run over one graph (optionally failure-masked) and a list
/// of schemes.
#[derive(Debug, Clone)]
pub struct Soundness {
    /// Graph label (spec string or family name).
    pub graph: String,
    pub n: usize,
    pub edges: usize,
    /// Failure-set description when the sweep ran on a masked view.
    pub failures: Option<String>,
    pub schemes: Vec<SchemeSoundness>,
}

impl Soundness {
    /// Whether every scheme passed.
    pub fn all_sound(&self) -> bool {
        self.schemes.iter().all(|s| s.verdict == Verdict::Sound)
    }

    /// Render as a markdown-ish table (one row per scheme).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "scheme",
            "verdict",
            "proven",
            "livelock",
            "dead_port",
            "header_overflow",
            "wrong_delivery",
            "unreachable",
            "audit",
            "witness",
        ]);
        for s in &self.schemes {
            t.push_row(&[
                s.scheme.clone(),
                s.verdict.code().to_string(),
                s.counts.proven.to_string(),
                s.counts.livelock.to_string(),
                s.counts.dead_port.to_string(),
                s.counts.header_overflow.to_string(),
                s.counts.wrong_delivery.to_string(),
                s.counts.unreachable.to_string(),
                if s.audit_findings.is_empty() {
                    "clean".to_string()
                } else {
                    format!("{} finding(s)", s.audit_findings.len())
                },
                s.failure_note().unwrap_or_else(|| "-".to_string()),
            ]);
        }
        t
    }

    /// Render as a JSON object with stable machine codes for verdicts and
    /// source classes.
    pub fn to_json(&self) -> Json {
        let scheme = |s: &SchemeSoundness| {
            let classes = SourceClass::ALL.map(|c| (c.code(), s.counts.get(c).into()));
            let counterexample = s.counterexample.map(|cex| {
                Json::obj([
                    ("source", cex.source.into()),
                    ("dest", cex.dest.into()),
                    ("class", cex.class.code().into()),
                ])
            });
            Json::obj([
                ("scheme", s.scheme.as_str().into()),
                ("verdict", s.verdict.code().into()),
                ("classes", Json::obj(classes)),
                ("counterexample", counterexample.into()),
                (
                    "audit_findings",
                    s.audit_findings.iter().map(String::as_str).collect(),
                ),
                ("check_secs", s.check_secs.into()),
            ])
        };
        Json::obj([
            ("graph", self.graph.as_str().into()),
            ("n", self.n.into()),
            ("edges", self.edges.into()),
            ("failures", self.failures.as_deref().into()),
            ("all_sound", self.all_sound().into()),
            ("schemes", self.schemes.iter().map(scheme).collect()),
        ])
    }
}

/// Verifies one built scheme instance: structural table audit on the
/// pristine graph, then the all-pairs sweep on the (optionally
/// failure-masked) view.
pub fn verify_instance(
    g: &Graph,
    failures: Option<&FailureSet>,
    inst: &SchemeInstance,
    label: &str,
    threads: usize,
) -> SchemeSoundness {
    let audit_findings = inst.audit(g);
    let view = match failures {
        Some(f) => GraphView::masked(g, f),
        None => GraphView::full(g),
    };
    let start = std::time::Instant::now();
    let report = check_routing(view, &*inst.routing, threads);
    let check_secs = start.elapsed().as_secs_f64();
    let verdict = if report.sound() && audit_findings.is_empty() {
        Verdict::Sound
    } else {
        Verdict::Unsound
    };
    SchemeSoundness {
        scheme: label.to_string(),
        verdict,
        counts: report.counts,
        counterexample: report.counterexample,
        audit_findings,
        check_secs,
    }
}
