//! The benchmark's own test: every workload at toy size through the
//! binary, checked against the metric lists of `BENCHMARK.json`, plus a
//! corrupted instance that the output checks must catch.

use perfbench::workloads::{run, Options, Scale, Workload};
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no section {section}"));
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in `text`.
fn field(text: &str, key: &str) -> String {
    let at = text.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &text[at..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_string()
}

/// `(name, unit, value)` of every metric on the result line.
fn printed(line: &str) -> Vec<(String, String, f64)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("}, ")
        .map(|entry| {
            let name_at = entry.rfind("\": {\"value\"").expect("metric entry");
            let name = entry[..name_at].rsplit('"').next().unwrap().to_string();
            let value_at = entry.find("\"value\": ").unwrap() + 9;
            let value_end = value_at + entry[value_at..].find(',').unwrap();
            let value: f64 = entry[value_at..value_end].parse().expect("numeric value");
            (name, field(entry, "unit"), value)
        })
        .collect()
}

fn run_binary(workload: &str, trace: u8) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--scale", "toy"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    // `peak_rss_mb` is read from the OS by run.py, not by the binary.
    let end_to_end: Vec<_> = declared("end_to_end")
        .into_iter()
        .filter(|(name, _)| name != "peak_rss_mb")
        .collect();
    let per_layer = declared("per_layer");
    assert!(per_layer.len() > 40, "per-layer list parsed: {per_layer:?}");
    for w in Workload::ALL {
        for (trace, want) in [(0u8, &end_to_end), (1, &per_layer)] {
            let (ok, line) = run_binary(w.name(), trace);
            assert!(ok, "{} --trace {trace} failed: {line}", w.name());
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{line}");
            let got = printed(&line);
            let names: Vec<(String, String)> =
                got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
            assert_eq!(&names, want, "{} --trace {trace}", w.name());
            if trace == 0 {
                for (name, _, value) in &got {
                    assert!(*value > 0.0, "{} {name} = {value}", w.name());
                }
            }
        }
    }
}

#[test]
fn a_corrupted_instance_fails_the_output_checks() {
    let opts = Options {
        corrupt: true,
        ..Options::default()
    };
    let (_, tally) = run(Workload::Audit4k, &Scale::toy(), 5, 0.1, opts);
    assert!(tally.failed_frac() > 0.0, "{tally:?}");
    assert!(
        tally.notes.iter().any(|n| n.contains("not proven")),
        "{:?}",
        tally.notes
    );
}

#[test]
fn the_same_seed_gives_the_same_operations() {
    let go = || {
        run(
            Workload::Churn32k,
            &Scale::toy(),
            9,
            0.5,
            Options::default(),
        )
        .1
    };
    let (a, b) = (go(), go());
    assert_eq!(a.failed, 0, "{:?}", a.notes);
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
}

#[test]
fn bad_arguments_exit_with_an_error_and_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
