//! The `routeserve` front door.
//!
//! ```text
//! routeserve --graph <spec> --scheme <spec>
//!            [--workload <spec> | --queries <path|->]
//!            [--batch B] [--threads T] [--hop-limit H] [--json path|-]
//! ```
//!
//! Builds the scheme from its `SchemeSpec` string on the graph of the
//! `GraphSpec` string, then serves the query stream: either a synthetic
//! `WorkloadSpec` load (`--workload uniform?messages=1e6`) or explicit
//! `src dst` lines from a file or stdin (`--queries -`).  Reports sustained
//! msgs/s, delivery buckets and chunk wall-time percentiles as a table, and
//! as JSON with `--json` (`'-'` moves the table to stderr so stdout stays
//! parseable).  Exit status is non-zero on spec/build/IO errors and on a
//! routing-model violation.

// Binaries are the console front door; printing is their contract.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use graphkit::GraphView;
use routemodel::DeliveryOutcome;
use routeschemes::spec::{vocabulary, SchemeSpec};
use routeserve::{parse_queries, serve, ServeConfig, ServeStats};
use std::io::Read;
use std::process::ExitCode;
use trafficlab::{json_escape, GraphSpec, WorkloadPlan, WorkloadSpec};

fn usage() {
    eprintln!(
        "usage: routeserve --graph <spec> --scheme <spec> \
         [--workload <spec> | --queries <path|->] \
         [--batch B] [--threads T] [--hop-limit H] [--json path|-]"
    );
    eprintln!("spec vocabularies:");
    eprintln!("{}", vocabulary());
    eprintln!("{}", GraphSpec::vocabulary());
    eprintln!("{}", WorkloadSpec::vocabulary());
}

struct Args {
    graph: String,
    scheme: String,
    workload: Option<String>,
    queries: Option<String>,
    batch: usize,
    threads: usize,
    hop_limit: usize,
    json: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        graph: String::new(),
        scheme: String::new(),
        workload: None,
        queries: None,
        batch: 0,
        threads: 0,
        hop_limit: 0,
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
            "--scheme" => args.scheme = value()?,
            "--workload" => args.workload = Some(value()?),
            "--queries" => args.queries = Some(value()?),
            "--json" => args.json = Some(value()?),
            "--batch" => {
                args.batch = value()?
                    .parse()
                    .map_err(|_| "--batch needs an integer".to_string())?;
            }
            "--threads" => {
                args.threads = value()?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?;
            }
            "--hop-limit" => {
                args.hop_limit = value()?
                    .parse()
                    .map_err(|_| "--hop-limit needs an integer".to_string())?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    if args.graph.is_empty() || args.scheme.is_empty() {
        return Err("--graph and --scheme are required".to_string());
    }
    if args.workload.is_some() && args.queries.is_some() {
        return Err("--workload and --queries are mutually exclusive".to_string());
    }
    Ok(args)
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
    let scheme_spec = match SchemeSpec::parse(&args.scheme) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--scheme: {e}");
            eprintln!("{}", vocabulary());
            return ExitCode::FAILURE;
        }
    };

    let built = graph_spec.build();
    let n = built.graph.num_nodes();

    // The query stream: explicit pairs, or a synthetic workload
    // (default: one million uniform queries).
    let (plan, stream_label) = if let Some(src) = &args.queries {
        let text = if src == "-" {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            buf
        } else {
            match std::fs::read_to_string(src) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {src}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        match parse_queries(&text, n) {
            Ok(pairs) => (WorkloadPlan::from_pairs(n, pairs), format!("queries:{src}")),
            Err(e) => {
                eprintln!("--queries: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let raw = args
            .workload
            .clone()
            .unwrap_or_else(|| "uniform?messages=1000000".to_string());
        let spec = match WorkloadSpec::parse(&raw) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("--workload: {e}");
                eprintln!("{}", WorkloadSpec::vocabulary());
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = spec.validate(n) {
            eprintln!("--workload: {e}");
            return ExitCode::FAILURE;
        }
        (spec.compile(n), spec.spec_string())
    };

    let t0 = std::time::Instant::now();
    let instance = match scheme_spec.build(&built.graph, &built.hints) {
        Ok(i) => i,
        Err(e) => {
            eprintln!(
                "cannot build {} on {}: {e}",
                scheme_spec.spec_string(),
                args.graph
            );
            return ExitCode::FAILURE;
        }
    };
    let build_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "serving {} on {} (n={n}, {} queries, built in {:.2}s)",
        scheme_spec.spec_string(),
        args.graph,
        plan.messages(),
        build_secs
    );

    let cfg = ServeConfig {
        batch: args.batch,
        threads: args.threads,
        hop_limit: args.hop_limit,
    };
    let stats = match serve(
        GraphView::full(&built.graph),
        &*instance.routing,
        &plan,
        &cfg,
    ) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("cannot serve: {e}");
            return ExitCode::FAILURE;
        }
    };

    let table = render_table(&stats);
    let json_to_stdout = args.json.as_deref() == Some("-");
    if json_to_stdout {
        eprintln!("{table}");
    } else {
        println!("{table}");
    }

    if let Some(path) = &args.json {
        let json = render_json(&args, &stream_label, n, build_secs, &stats);
        if json_to_stdout {
            println!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        } else {
            eprintln!("report written to {path}");
        }
    }

    ExitCode::SUCCESS
}

fn render_table(r: &ServeStats) -> String {
    format!(
        "{:>7} {:>3} {:>10} {:>12} {:>9} {:>12} {:>12} {:>12}\n\
         {:>7} {:>3} {:>10} {:>12.0} {:>9.4} {:>12.1} {:>12.1} {:>12.1}",
        "batch",
        "thr",
        "messages",
        "msgs/s",
        "delivery",
        "chunk_p50_us",
        "chunk_p90_us",
        "chunk_p99_us",
        r.batch,
        r.threads,
        r.outcomes.attempted(),
        r.messages_per_sec(),
        r.delivery_rate(),
        r.chunk_p50_us,
        r.chunk_p90_us,
        r.chunk_p99_us,
    )
}

fn render_json(
    args: &Args,
    stream_label: &str,
    n: usize,
    build_secs: f64,
    r: &ServeStats,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"graph\": \"{}\",\n", json_escape(&args.graph)));
    out.push_str(&format!(
        "  \"scheme\": \"{}\",\n",
        json_escape(&args.scheme)
    ));
    out.push_str(&format!(
        "  \"stream\": \"{}\",\n",
        json_escape(stream_label)
    ));
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str(&format!("  \"build_secs\": {build_secs:.6},\n"));
    out.push_str("  \"run\": {\n");
    out.push_str(&format!("    \"batch\": {},\n", r.batch));
    out.push_str(&format!("    \"threads\": {},\n", r.threads));
    out.push_str(&format!("    \"hop_limit\": {},\n", r.hop_limit));
    out.push_str(&format!("    \"messages\": {},\n", r.outcomes.attempted()));
    // Outcome keys come from the model's code vocabulary, not string
    // literals, so they cannot drift from `DeliveryOutcome::code()`.
    out.push_str("    \"outcomes\": {");
    for (j, code) in DeliveryOutcome::ALL_CODES.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        let count = r
            .outcomes
            .by_code(code)
            .expect("every model code has a bucket");
        out.push_str(&format!("\"{code}\": {count}"));
    }
    out.push_str("},\n");
    out.push_str(&format!(
        "    \"delivery_rate\": {:.6},\n",
        r.delivery_rate()
    ));
    out.push_str(&format!("    \"secs\": {:.6},\n", r.secs));
    out.push_str(&format!(
        "    \"msgs_per_sec\": {:.1},\n",
        r.messages_per_sec()
    ));
    out.push_str(&format!("    \"chunk_p50_us\": {:.2},\n", r.chunk_p50_us));
    out.push_str(&format!("    \"chunk_p90_us\": {:.2},\n", r.chunk_p90_us));
    out.push_str(&format!("    \"chunk_p99_us\": {:.2}\n", r.chunk_p99_us));
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal JSON grammar check: one value, then only whitespace.
    fn is_valid_json(text: &str) -> bool {
        fn ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && matches!(b[i], b' ' | b'\n' | b'\r' | b'\t') {
                i += 1;
            }
            i
        }
        fn string(b: &[u8], mut i: usize) -> Option<usize> {
            i += 1;
            while i < b.len() {
                match b[i] {
                    b'"' => return Some(i + 1),
                    b'\\' => match b.get(i + 1)? {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => i += 2,
                        b'u' if b.get(i + 2..i + 6)?.iter().all(u8::is_ascii_hexdigit) => i += 6,
                        _ => return None,
                    },
                    c if c < 0x20 => return None,
                    _ => i += 1,
                }
            }
            None
        }
        fn value(b: &[u8], i: usize) -> Option<usize> {
            let i = ws(b, i);
            match *b.get(i)? {
                b'"' => string(b, i),
                open @ (b'{' | b'[') => {
                    let close = if open == b'{' { b'}' } else { b']' };
                    let mut i = ws(b, i + 1);
                    if b.get(i) == Some(&close) {
                        return Some(i + 1);
                    }
                    loop {
                        if open == b'{' {
                            i = ws(b, i);
                            if b.get(i) != Some(&b'"') {
                                return None;
                            }
                            i = ws(b, string(b, i)?);
                            if b.get(i) != Some(&b':') {
                                return None;
                            }
                            i += 1;
                        }
                        i = ws(b, value(b, i)?);
                        match b.get(i)? {
                            b',' => i += 1,
                            &c if c == close => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                _ => {
                    let end = (i..b.len())
                        .find(|&j| !(b[j].is_ascii_alphanumeric() || b"+-.".contains(&b[j])))
                        .unwrap_or(b.len());
                    let word = std::str::from_utf8(&b[i..end]).ok()?;
                    (matches!(word, "true" | "false" | "null") || word.parse::<f64>().is_ok())
                        .then_some(end)
                }
            }
        }
        let b = text.as_bytes();
        value(b, 0).is_some_and(|end| ws(b, end) == b.len())
    }

    #[test]
    fn validator_rejects_raw_control_characters() {
        assert!(is_valid_json("{\"a\": [1, 2.5e3, \"x\\ty\", null]}"));
        assert!(!is_valid_json("{\"a\": \"x\ty\"}"));
        assert!(!is_valid_json("{\"a\": \"x\ny\"}"));
        assert!(!is_valid_json("{\"a\" 1}"));
    }

    /// Tabs and newlines in the echoed graph, scheme and stream strings
    /// must come out escaped, so `--json` stays parseable.
    #[test]
    fn json_report_escapes_control_characters() {
        let graph = "random?n=64&deg=4\t";
        let built = GraphSpec::parse("random?n=64&deg=4").unwrap().build();
        let instance = SchemeSpec::parse("landmark")
            .unwrap()
            .build(&built.graph, &built.hints)
            .unwrap();
        let plan = WorkloadSpec::parse("uniform?messages=500")
            .unwrap()
            .compile(64);
        let stats = serve(
            GraphView::full(&built.graph),
            &*instance.routing,
            &plan,
            &ServeConfig::batched(),
        )
        .unwrap();
        let args = Args {
            graph: graph.to_string(),
            scheme: "landmark\n".to_string(),
            workload: None,
            queries: None,
            batch: 0,
            threads: 0,
            hop_limit: 0,
            json: Some("-".to_string()),
        };
        let json = render_json(&args, "queries:a\tb\nc", 64, 0.0, &stats);
        assert!(is_valid_json(&json), "{json}");
        assert!(json.contains("\"random?n=64&deg=4\\t\""), "{json}");
        assert!(json.contains("\"landmark\\n\""), "{json}");
    }
}
