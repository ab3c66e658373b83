//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <file>]`
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones (peak memory is
//! added by `run.py`, which reads it from the OS); with `--trace 1` the run
//! is measured twice, untraced and then traced, for half the seconds each,
//! and the metrics are the per-layer ones, including the tracing overhead.
//! Exits 1 when an output check failed, 2 on bad arguments.

use perfbench::report::{per_layer, Metric};
use perfbench::workloads::{run, Options, Scale, Workload};
use perfbench::{adapter, trace};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: Option<String>,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut spans = None;
    let mut scale = Scale::full();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload '{value}' (one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            "--spans" => spans = Some(value),
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::full(),
                    "toy" => Scale::toy(),
                    _ => return Err(format!("--scale takes full or toy, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        spans,
        scale,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = &args.scale;
    let name = args.workload.name();
    eprintln!(
        "perfbench: workload {name}, seed {}, {} s, trace {}, {} worker threads per call, closed loop of one driver thread",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        adapter::THREADS
    );

    let (metrics, tally) = if args.traced {
        let half = args.seconds / 2.0;
        let (untraced, first) = run(args.workload, scale, args.seed, half, Options::default());
        trace::start(1);
        let (traced, mut tally) = trace::span("perfbench.workload", || {
            let opts = Options {
                hops: true,
                ..Options::default()
            };
            run(args.workload, scale, args.seed, half, opts)
        });
        tally.attempted += first.attempted;
        tally.failed += first.failed;
        tally.notes.extend(first.notes);
        let t = trace::finish();
        eprintln!("perfbench: self time by span");
        for (span, secs) in t.self_by_name() {
            eprintln!("  {span:<36} {secs:>10.4} s");
        }
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, t.spans_json()) {
                eprintln!("perfbench: cannot write spans to {path}: {e}");
                return ExitCode::from(2);
            }
        }
        (per_layer(&t, &untraced, &traced), tally)
    } else {
        let (e2e, tally) = run(
            args.workload,
            scale,
            args.seed,
            args.seconds,
            Options::default(),
        );
        let metrics = e2e
            .metrics()
            .into_iter()
            .map(|(name, value, unit)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect();
        (metrics, tally)
    };

    for note in &tally.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `+ 0.0` turns the -0.0 of an empty sum into 0.
            let value = if m.value.is_finite() {
                m.value + 0.0
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
