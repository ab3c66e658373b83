//! The per-layer metrics of a traced run, read off its spans and counters.

use crate::trace::Trace;
use crate::workloads::EndToEnd;

/// Scheme labels, as used in span and metric names.
pub const SCHEMES: [&str; 5] = ["tree", "landmark", "grid", "ecube", "table"];

/// Crates whose self time the traced run reports (`perfbench` is the
/// benchmark's own glue inside the root span).
pub const CRATES: [&str; 8] = [
    "graphkit",
    "routemodel",
    "routeschemes",
    "routeserve",
    "trafficlab",
    "routecheck",
    "constraints",
    "perfbench",
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.  A layer the workload
/// does not exercise reads 0.
pub fn per_layer(t: &Trace, untraced: &EndToEnd, traced: &EndToEnd) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str| {
        out.push(Metric { name, value, unit });
    };
    let c = |name: &str| t.counter(name);

    push(
        "graphkit.generate_s".into(),
        t.total("graphkit.generate"),
        "s",
    );
    push(
        "graphkit.connectivity_s".into(),
        t.total("graphkit.connectivity"),
        "s",
    );

    for label in ["tree", "landmark", "grid", "ecube"] {
        push(
            format!("routeschemes.build_s.{label}"),
            t.total(&format!("routeschemes.build.{label}")),
            "s",
        );
    }
    let repairs = c("routeschemes.repairs");
    push(
        "routeschemes.repair_s".into(),
        t.total("routeschemes.repair"),
        "s",
    );
    push(
        "routeschemes.repair_touched".into(),
        ratio(c("routeschemes.repair_touched"), repairs),
        "count",
    );
    push(
        "routeschemes.repair_landmarks".into(),
        ratio(c("routeschemes.repair_landmarks"), repairs),
        "count",
    );
    push(
        "routeschemes.incremental_frac".into(),
        ratio(c("routeschemes.repairs_incremental"), repairs),
        "ratio",
    );

    push(
        "routemodel.table_build_s".into(),
        t.total("routemodel.table_build"),
        "s",
    );
    for label in SCHEMES {
        let hops = ratio(
            c(&format!("routemodel.hops.{label}")),
            c(&format!("routemodel.walked.{label}")),
        );
        push(format!("routemodel.hops_per_query.{label}"), hops, "hops");
        let secs_per_query = ratio(
            c(&format!("routeserve.secs.{label}")),
            c(&format!("routeserve.queries.{label}")),
        );
        push(
            format!("routemodel.ns_per_hop.{label}"),
            ratio(secs_per_query * 1e9, hops),
            "ns",
        );
    }

    for label in SCHEMES {
        push(
            format!("routeserve.msgs_per_s.{label}"),
            ratio(
                c(&format!("routeserve.queries.{label}")),
                c(&format!("routeserve.secs.{label}")),
            ),
            "msgs/s",
        );
    }
    push(
        "routeserve.degraded_msgs_per_s".into(),
        ratio(
            c("routeserve.degraded_queries"),
            c("routeserve.degraded_secs"),
        ),
        "msgs/s",
    );
    push(
        "routeserve.recovered_msgs_per_s".into(),
        ratio(
            c("routeserve.recovered_queries"),
            c("routeserve.recovered_secs"),
        ),
        "msgs/s",
    );
    push(
        "routeserve.degraded_delivery".into(),
        ratio(
            c("routeserve.degraded_delivered"),
            c("routeserve.degraded_queries"),
        ),
        "ratio",
    );

    push(
        "trafficlab.stretch_s".into(),
        t.total("trafficlab.run_workload"),
        "s",
    );
    push("trafficlab.blocks".into(), c("trafficlab.blocks"), "count");
    push(
        "trafficlab.narrow_blocks".into(),
        c("trafficlab.narrow_blocks"),
        "count",
    );
    push(
        "trafficlab.peak_tracked_bytes".into(),
        c("trafficlab.peak_tracked_bytes"),
        "bytes",
    );

    let mut check_s = 0.0;
    for label in SCHEMES {
        let s = t.total(&format!("routecheck.check.{label}"));
        check_s += s;
        push(format!("routecheck.check_s.{label}"), s, "s");
    }
    push(
        "routecheck.pairs_per_s".into(),
        ratio(c("routecheck.pairs"), check_s),
        "pairs/s",
    );
    push("routecheck.proven".into(), c("routecheck.proven"), "count");

    push(
        "constraints.instance_s".into(),
        t.total("constraints.instance"),
        "s",
    );
    push(
        "constraints.verify_s".into(),
        t.total("constraints.verify"),
        "s",
    );
    push(
        "constraints.reconstruct_s".into(),
        t.total("constraints.reconstruct"),
        "s",
    );

    let by_crate = t.self_by_crate();
    for krate in CRATES {
        push(
            format!("{krate}.self_s"),
            by_crate.get(krate).copied().unwrap_or(0.0),
            "s",
        );
    }
    push("trace.uncovered_frac".into(), t.uncovered_frac(), "ratio");
    for ((name, traced, unit), (_, untraced, _)) in
        traced.metrics().into_iter().zip(untraced.metrics())
    {
        push(format!("trace.overhead.{name}"), traced - untraced, unit);
    }
    out
}
