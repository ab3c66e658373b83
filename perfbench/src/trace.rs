//! In-memory span and counter recorder for the traced run.
//!
//! The benchmark drives the program from one thread, so the recorder is a
//! thread-local: [`span`] pushes a span (name, start, end, parent, run id)
//! around a call and [`add`] accumulates a named counter.  While no recorder
//! is installed both are pass-throughs that read no clock, which is what the
//! untraced run measures with.  [`finish`] hands the recorded spans back
//! once the run ends; nothing is written while it is running.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<call>[.<label>]`; the crate prefix groups self time.
    pub name: String,
    /// Seconds since the recorder was installed.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, `None` for the run's root.
    pub parent: Option<usize>,
    /// Which traced run recorded the span.
    pub run: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Everything one traced run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<String, f64>,
}

struct Recorder {
    origin: Instant,
    run: u32,
    open: Vec<usize>,
    trace: Trace,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on this thread.
pub fn start(run: u32) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            run,
            open: Vec::new(),
            trace: Trace::default(),
        });
    });
}

/// Removes the recorder and returns what it recorded (empty when none was
/// installed).
pub fn finish() -> Trace {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.trace)
        .unwrap_or_default()
}

/// Runs `f` inside a span named `name` when a recorder is installed.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let index = rec.trace.spans.len();
        rec.trace.spans.push(Span {
            name: name.to_string(),
            start: rec.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: rec.open.last().copied(),
            run: rec.run,
        });
        rec.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = opened {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.trace.spans[index].end = rec.origin.elapsed().as_secs_f64();
                rec.open.pop();
            }
        });
    }
    out
}

/// Adds `value` to the counter `name` when a recorder is installed.
pub fn add(name: &str, value: f64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.trace.counters.entry(name.to_string()).or_insert(0.0) += value;
        }
    });
}

/// Raises the counter `name` to `value` if that is larger.
pub fn peak(name: &str, value: f64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let slot = rec.trace.counters.entry(name.to_string()).or_insert(0.0);
            *slot = slot.max(value);
        }
    });
}

impl Trace {
    /// Total duration of the spans named exactly `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// A counter's value, `0.0` when it was never touched.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Self time summed per span name, in name order.
    pub fn self_by_name(&self) -> BTreeMap<&str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name.as_str()).or_insert(0.0) += own;
        }
        out
    }

    /// Self time summed per crate (the span name up to its first `.`).
    pub fn self_by_crate(&self) -> BTreeMap<&str, f64> {
        let mut out = BTreeMap::new();
        for (name, own) in self.self_by_name() {
            let krate = name.split('.').next().unwrap_or(name);
            *out.entry(krate).or_insert(0.0) += own;
        }
        out
    }

    /// Share of the root spans' wall time that no child span covers.
    pub fn uncovered_frac(&self) -> f64 {
        let own = self.self_times();
        let (mut wall, mut bare) = (0.0, 0.0);
        for (s, own) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                wall += s.secs();
                bare += own;
            }
        }
        if wall > 0.0 {
            bare / wall
        } else {
            0.0
        }
    }

    /// The spans as a JSON array, one object per line.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}, \"run\": {}}}{}\n",
                s.name,
                s.start,
                s.end,
                s.run,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        start(7);
        span("root", || {
            span("a.child", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            add("a.count", 2.0);
            add("a.count", 3.0);
        });
        let t = finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.run == 7));
        assert_eq!(t.counter("a.count"), 5.0);
        let own = t.self_times();
        assert!(own[1] >= 0.019);
        assert!(own[0] < t.spans[0].secs() - 0.019);
        assert!(t.uncovered_frac() < 0.5);
        assert!(t.self_by_crate().contains_key("a"));
    }

    #[test]
    fn without_a_recorder_spans_are_pass_throughs() {
        assert_eq!(span("x", || 3), 3);
        add("x", 1.0);
        assert!(finish().spans.is_empty());
    }
}
