//! The `trafficlab` scenario runner.
//!
//! ```text
//! trafficlab list                       # show the scenario book
//! trafficlab run <name> [options]       # run one built-in scenario
//! trafficlab --file <path> [options]    # run a scenario TOML file
//! trafficlab smoke [options]            # alias for `run smoke`
//! trafficlab specs                      # print the spec vocabularies
//!                                       # (schemes, graphs, workloads)
//!
//! options:
//!   --threads <t>    worker count (default: all cores)
//!   --json <path>    also write the report as JSON ('-' = stdout; the
//!                    table then moves to stderr so stdout stays parseable)
//!   --schemes <s>    comma-separated scheme specs overriding every case's
//!                    scheme list, e.g. landmark?k=64&clusters=strict,tree
//!   --report <view>  extra report view (repeatable): 'congestion' appends
//!                    the congestion-vs-stretch trade-off table;
//!                    'resilience' appends the per-round churn table
//!                    (degraded delivery → repair cost → recovered delivery)
//! ```
//!
//! Scheme, graph and workload specs all follow the shared `speclang` codec;
//! a spec that fails to parse aborts with the typed error *and* the valid
//! vocabulary (keys + recognized parameters), rendered from the same
//! `param_docs` tables the parsers validate against so the help can never
//! drift from what is accepted.  Scenario names are matched
//! case-insensitively, and a typo'd name gets near-miss suggestions instead
//! of a bare list.
//!
//! Exit status is non-zero when any scheme violates its guaranteed stretch,
//! when any (case, scheme) cell fails with a routing error, or when nothing
//! ran at all — so CI can gate on the smoke scenario (built-in or via
//! `--file examples/scenarios/smoke.toml`).

// Binaries are the console front door; printing is their contract.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use routeschemes::spec::{vocabulary, SchemeSpec};
use std::process::ExitCode;
use trafficlab::{
    find_scenario, named_scenarios, run_scenario, suggest_scenarios, ChurnSpec, GraphSpec,
    ScenarioSpec, StretchMode, WorkloadSpec,
};

fn usage() {
    eprintln!(
        "usage: trafficlab <list | run <scenario> | smoke | specs> \
         [--file path.toml] [--threads t] [--json path] [--schemes spec,spec] \
         [--report congestion|resilience]"
    );
    eprintln!("scenarios:");
    for s in named_scenarios() {
        eprintln!("  {:<18} {}", s.name, s.description);
    }
}

/// Which extra report views to print after the main table.
#[derive(Default, Clone, Copy)]
struct ReportViews {
    congestion: bool,
    resilience: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 0usize;
    let mut json_path: Option<String> = None;
    let mut schemes_arg: Option<String> = None;
    let mut file_path: Option<String> = None;
    let mut views = ReportViews::default();
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("--threads needs an integer argument");
                    return ExitCode::FAILURE;
                };
                threads = v;
            }
            "--json" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--json needs a path argument ('-' for stdout)");
                    return ExitCode::FAILURE;
                };
                json_path = Some(v.clone());
            }
            "--file" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--file needs a path to a scenario TOML file");
                    return ExitCode::FAILURE;
                };
                file_path = Some(v.clone());
            }
            "--report" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("congestion") => views.congestion = true,
                    Some("resilience") => views.resilience = true,
                    other => {
                        eprintln!(
                            "--report needs a view name (valid: congestion, resilience), got {:?}",
                            other.unwrap_or("")
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--schemes" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--schemes needs a comma-separated list of scheme specs");
                    eprintln!("{}", vocabulary());
                    return ExitCode::FAILURE;
                };
                schemes_arg = Some(v.clone());
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown option '{flag}'");
                usage();
                return ExitCode::FAILURE;
            }
            other => positional.push(other),
        }
        i += 1;
    }

    // Parse the scheme override up front so a typo fails fast, with the
    // typed error and the whole vocabulary.
    let schemes_override: Option<Vec<SchemeSpec>> = match schemes_arg {
        None => None,
        Some(list) => {
            let mut specs = Vec::new();
            for raw in list.split(',').filter(|s| !s.is_empty()) {
                match SchemeSpec::parse(raw) {
                    Ok(spec) => specs.push(spec),
                    Err(e) => {
                        eprintln!("--schemes: {e}");
                        eprintln!("{}", vocabulary());
                        return ExitCode::FAILURE;
                    }
                }
            }
            if specs.is_empty() {
                eprintln!("--schemes: the list is empty");
                eprintln!("{}", vocabulary());
                return ExitCode::FAILURE;
            }
            Some(specs)
        }
    };

    if let Some(path) = &file_path {
        if !positional.is_empty() {
            eprintln!(
                "--file runs the given scenario file; drop '{}'",
                positional.join(" ")
            );
            return ExitCode::FAILURE;
        }
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let scenario = match ScenarioSpec::parse_toml(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                eprintln!("spec vocabularies: see `trafficlab specs`");
                return ExitCode::FAILURE;
            }
        };
        return run_one(scenario, threads, json_path, schemes_override, views);
    }

    match positional.as_slice() {
        ["list"] => {
            for s in named_scenarios() {
                println!(
                    "{:<18} {} ({} case(s))",
                    s.name,
                    s.description,
                    s.cases.len()
                );
            }
            ExitCode::SUCCESS
        }
        ["specs"] => {
            println!("{}", vocabulary());
            println!("{}", GraphSpec::vocabulary());
            println!("{}", WorkloadSpec::vocabulary());
            println!("{}", ChurnSpec::vocabulary());
            println!("{}", StretchMode::vocabulary());
            println!("{}", trafficlab::files::case_key_vocabulary());
            ExitCode::SUCCESS
        }
        ["run", name] => run_named(name, threads, json_path, schemes_override, views),
        ["smoke"] => run_named("smoke", threads, json_path, schemes_override, views),
        other => {
            if !other.is_empty() {
                eprintln!("unrecognized arguments: {}", other.join(" "));
            }
            usage();
            ExitCode::FAILURE
        }
    }
}

fn run_named(
    name: &str,
    threads: usize,
    json_path: Option<String>,
    schemes_override: Option<Vec<SchemeSpec>>,
    views: ReportViews,
) -> ExitCode {
    let Some(scenario) = find_scenario(name) else {
        let suggestions = suggest_scenarios(name);
        if suggestions.is_empty() {
            eprintln!("unknown scenario '{name}' (try `trafficlab list`)");
        } else {
            eprintln!(
                "unknown scenario '{name}' — did you mean {}? (try `trafficlab list`)",
                suggestions
                    .iter()
                    .map(|s| format!("'{s}'"))
                    .collect::<Vec<_>>()
                    .join(" or ")
            );
        }
        return ExitCode::FAILURE;
    };
    run_one(scenario, threads, json_path, schemes_override, views)
}

fn run_one(
    mut scenario: ScenarioSpec,
    threads: usize,
    json_path: Option<String>,
    schemes_override: Option<Vec<SchemeSpec>>,
    views: ReportViews,
) -> ExitCode {
    if let Some(specs) = schemes_override {
        let rendered: Vec<String> = specs.iter().map(|s| s.spec_string()).collect();
        eprintln!("scheme override: {}", rendered.join(", "));
        for case in &mut scenario.cases {
            case.schemes = specs.clone();
        }
    }
    eprintln!("scenario {}: {}", scenario.name, scenario.description);
    let report = run_scenario(&scenario, threads);
    let json_to_stdout = json_path.as_deref() == Some("-");
    let mut table = report.to_table().to_plain();
    if views.congestion {
        table.push_str("\ncongestion vs stretch:\n");
        table.push_str(&report.to_congestion_table().to_plain());
    }
    if views.resilience {
        table.push_str("\nresilience under churn:\n");
        table.push_str(&report.to_resilience_table().to_plain());
        for r in &report.resilience {
            if let Some(h) = &r.halted {
                table.push_str(&format!("\n{} / {}: {h}", r.graph_label, r.scheme_spec));
            }
        }
    }
    if json_to_stdout {
        // Keep stdout pure JSON for piping; the table is status output.
        eprintln!("{table}");
    } else {
        println!("{table}");
    }
    for s in &report.skipped {
        eprintln!("note: {s}");
    }
    for e in &report.errors {
        eprintln!("ERROR: {e}");
    }
    if let Some(path) = json_path {
        let json = report.to_json();
        if json_to_stdout {
            println!("{json}");
        } else if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        } else {
            eprintln!("report written to {path}");
        }
    }
    // Routing-model failures and broken stretch promises are regressions the
    // exit status must surface (CI gates on this).
    if !report.errors.is_empty() {
        eprintln!(
            "FAILURE: {} (case, scheme) cell(s) failed (routing errors or invalid workloads)",
            report.errors.len()
        );
        return ExitCode::FAILURE;
    }
    let violated = report
        .results
        .iter()
        .any(|r| r.within_guarantee == Some(false));
    if violated {
        eprintln!("FAILURE: some scheme exceeded its guaranteed stretch");
        return ExitCode::FAILURE;
    }
    if report.results.is_empty() {
        eprintln!("FAILURE: no (case, scheme) cell produced a result");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
