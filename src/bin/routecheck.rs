//! The `routecheck` front door: static verification of routing schemes.
//!
//! ```text
//! routecheck --graph <spec> [--scheme <spec>]...
//!            [--failures kill=F&seed=S] [--repair]
//!            [--mutate <seed>] [--threads T] [--json path|-]
//! ```
//!
//! Builds each scheme from its `SchemeSpec` string on the graph of the
//! `GraphSpec` string (every applicable registry default when no `--scheme`
//! is given) and statically verifies it: structural table audits plus the
//! all-pairs `(source, dest)` sweep classifying every pair as proven /
//! livelock / dead-port / header-overflow / wrong-delivery / unreachable.
//! No traffic is simulated — the sweep walks the routing function's state
//! chains directly.
//!
//! `--failures kill=0.1&seed=7` verifies against the failure-masked view
//! (schemes are still built on the pristine graph); `--repair` additionally
//! runs each scheme's incremental repair against the failure set first, so
//! CI can prove repaired-after-churn instances sound.  `--mutate <seed>`
//! flips the gate around: each instance is corrupted by the mutation
//! harness and the run fails unless the checker flags every mutant.
//!
//! Exit status is non-zero when any scheme is unsound (or, under
//! `--mutate`, when any corruption goes undetected), so CI gates directly
//! on this binary.

// Binaries are the console front door; printing is their contract.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use graphkit::FailureSet;
use routeschemes::spec::{vocabulary, SchemeSpec};
use routeschemes::{applicable_schemes, corrupt_instance, MutationKind};
use std::process::ExitCode;
use trafficlab::GraphSpec;

fn usage() {
    eprintln!(
        "usage: routecheck --graph <spec> [--scheme <spec>]... \
         [--failures kill=F&seed=S] [--repair] \
         [--mutate <seed>] [--threads T] [--json path|-]"
    );
    eprintln!("spec vocabularies:");
    eprintln!("{}", vocabulary());
    eprintln!("{}", GraphSpec::vocabulary());
}

struct Args {
    graph: String,
    schemes: Vec<String>,
    failures: Option<String>,
    repair: bool,
    mutate: Option<u64>,
    threads: usize,
    json: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        graph: String::new(),
        schemes: Vec::new(),
        failures: None,
        repair: false,
        mutate: None,
        threads: 0,
        json: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs an argument"))
        };
        match flag {
            "--graph" => args.graph = value()?,
            "--scheme" => args.schemes.push(value()?),
            "--failures" => args.failures = Some(value()?),
            "--json" => args.json = Some(value()?),
            "--repair" => args.repair = true,
            "--mutate" => {
                args.mutate = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--mutate needs an integer seed".to_string())?,
                );
            }
            "--threads" => {
                args.threads = value()?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    if args.graph.is_empty() {
        return Err("--graph is required".to_string());
    }
    if args.repair && args.failures.is_none() {
        return Err("--repair needs --failures to repair against".to_string());
    }
    if args.mutate.is_some() && (args.repair || args.failures.is_some()) {
        return Err("--mutate verifies pristine instances; drop --failures/--repair".to_string());
    }
    Ok(args)
}

/// Parses the `kill=F&seed=S` failure spec (seed defaults to 0).
fn parse_failures(spec: &str) -> Result<(f64, u64), String> {
    let mut kill: Option<f64> = None;
    let mut seed: u64 = 0;
    for part in spec.split('&') {
        let Some((key, value)) = part.split_once('=') else {
            return Err(format!("'{part}' is not a key=value pair"));
        };
        match key {
            "kill" => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("bad value '{value}' for 'kill'"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("'kill' must be in [0, 1], got {v}"));
                }
                kill = Some(v);
            }
            "seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("bad value '{value}' for 'seed'"))?;
            }
            other => return Err(format!("unknown failure key '{other}' (valid: kill, seed)")),
        }
    }
    let kill = kill.ok_or_else(|| "missing required key 'kill'".to_string())?;
    Ok((kill, seed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let graph_spec = match GraphSpec::parse(&args.graph) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--graph: {e}");
            eprintln!("{}", GraphSpec::vocabulary());
            return ExitCode::FAILURE;
        }
    };
    let built = graph_spec.build();
    let g = &built.graph;
    let threads = if args.threads == 0 {
        graphkit::par::default_threads(g.num_nodes())
    } else {
        args.threads
    };

    // The scheme list: explicit specs, or every applicable registry default.
    let mut instances = Vec::new();
    if args.schemes.is_empty() {
        for (spec, inst) in applicable_schemes(g, &built.hints) {
            instances.push((spec.spec_string(), inst));
        }
        if instances.is_empty() {
            eprintln!("no registry scheme applies to {}", args.graph);
            return ExitCode::FAILURE;
        }
    } else {
        for raw in &args.schemes {
            let spec = match SchemeSpec::parse(raw) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("--scheme: {e}");
                    eprintln!("{}", vocabulary());
                    return ExitCode::FAILURE;
                }
            };
            match spec.build(g, &built.hints) {
                Ok(inst) => instances.push((spec.spec_string(), inst)),
                Err(e) => {
                    eprintln!("cannot build {} on {}: {e}", spec.spec_string(), args.graph);
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let failures = match &args.failures {
        None => None,
        Some(spec) => match parse_failures(spec) {
            Ok((kill, seed)) => Some(FailureSet::sample(g, kill, seed)),
            Err(e) => {
                eprintln!("--failures: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Mutation mode: corrupt each instance, then demand the checker notices.
    if let Some(seed) = args.mutate {
        let mut undetected = 0usize;
        for (label, inst) in instances.iter_mut() {
            for kind in [MutationKind::Misroute, MutationKind::OutOfRange] {
                let mut victim = std::mem::replace(
                    inst,
                    match SchemeSpec::parse(label).unwrap().build(g, &built.hints) {
                        Ok(fresh) => fresh,
                        Err(e) => {
                            eprintln!("rebuild of {label} failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    },
                );
                let mutation = match corrupt_instance(&mut victim, g, seed, kind) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("{label}: cannot corrupt: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let report = routecheck::verify_instance(g, None, &victim, label, threads);
                let caught = report.verdict == routecheck::Verdict::Unsound;
                println!(
                    "{label}: {:?} corruption of the {} -> {}{}",
                    kind,
                    mutation.description,
                    if caught { "CAUGHT" } else { "MISSED" },
                    report
                        .failure_note()
                        .map(|w| format!(" ({w})"))
                        .unwrap_or_default()
                );
                if !caught {
                    undetected += 1;
                }
            }
        }
        if undetected > 0 {
            eprintln!("FAILURE: {undetected} seeded corruption(s) went undetected");
            return ExitCode::FAILURE;
        }
        println!("every seeded corruption was flagged");
        return ExitCode::SUCCESS;
    }

    // Optional incremental repair before checking: prove the *repaired*
    // instance sound against the failed view, like the churn pipeline does.
    if args.repair {
        let failure_set = failures.as_ref().expect("checked in parse_args");
        for (label, inst) in instances.iter_mut() {
            match inst.repair(g, failure_set) {
                Ok(stats) => eprintln!(
                    "{label}: repaired ({} routers touched, {:.3}s)",
                    stats.vertices_touched, stats.seconds
                ),
                Err(e) => {
                    eprintln!("{label}: repair unavailable ({e}); checking as-built");
                }
            }
        }
    }

    let soundness = routecheck::Soundness {
        graph: args.graph.clone(),
        n: g.num_nodes(),
        edges: g.num_edges(),
        failures: args.failures.clone(),
        schemes: instances
            .iter()
            .map(|(label, inst)| {
                routecheck::verify_instance(g, failures.as_ref(), inst, label, threads)
            })
            .collect(),
    };

    let table = soundness.to_table().to_plain();
    let json_to_stdout = args.json.as_deref() == Some("-");
    if json_to_stdout {
        eprintln!("{table}");
    } else {
        println!("{table}");
    }
    if let Some(path) = &args.json {
        let json = soundness.to_json();
        if json_to_stdout {
            println!("{json}");
        } else if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        } else {
            eprintln!("report written to {path}");
        }
    }

    if soundness.all_sound() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILURE: unsound scheme(s) detected");
        ExitCode::FAILURE
    }
}
