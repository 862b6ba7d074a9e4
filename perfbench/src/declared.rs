//! The contract between this program and `BENCHMARK.json`: which metrics
//! exist, their units, directions and regression bounds, and the check
//! that what a run emits is exactly what the file declares.

use crate::plan::WORKLOADS;
use crate::probes::PROBES;
use crate::run::{Metric, ALL_CLASSES, ROUTES};
use serde_json::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports all of them; `primary` and `secondary` name the workload's
/// two headline request classes (README, "Roles").
///
/// The four timings carry the contract's ceiling. The 2-vCPU sandbox this
/// was built on moves between speed levels that last from seconds to
/// minutes (the same `slice` request reads 1.65 ms in one quarter of an
/// hour and 2.3 ms in the next), so ten runs of identical code spread by
/// 0.04–0.09 while it holds one level and by 0.17–0.21 when it does not
/// (README, "Repeatability"); a tighter bound would reject the machine,
/// not a change. Peak memory repeats within 0.04. Tails did not repeat
/// within any bound and are per-layer: `client.primary_p80_ms`.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("rss_mb", "MB", "lower", 0.15),
    ("primary_p50_ms", "ms", "lower", 0.25),
    ("secondary_p50_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
];

/// Why each workload exists (one line each, as `BENCHMARK.json` wants).
pub const WHY: [&str; 4] = [
    "closed loop, 2 clients, 50k-cell cube: cell scan + sketch merge + maxent solve do the work; cascade, JSON parse, WAL and timeline do none",
    "closed loop, 2 clients, same cube: group-by and the moment-bound cascade decide 9 groups in 10 and the solver the rest; a cascade or group-by change moves it, a merge change does not",
    "closed loop, 2 clients posting 5000-row bodies, WAL fsync always, refresh every 250 ms: JSON parse, shard writers, delta refresh, WAL; no solver, no cascade",
    "open loop, 20 ingest/s + 30 slice/s + 5 range/s beside 250 ms refresh and timeline maintenance: reads contend with writes, epochs rotate so per-epoch caches are bypassed",
];

/// Names a metric may have.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every per-layer metric a traced run emits, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PROBES
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for class in ALL_CLASSES {
        out.push((format!("client.{class}_p50_ms"), "ms"));
    }
    for (name, unit) in [
        ("client.primary_p80_ms", "ms"),
        ("client.sched_lag_max_ms", "ms"),
        ("client.repeat_frac", "ratio"),
        ("client.trace_overhead_frac", "ratio"),
        ("client.eps_avg", "rank"),
    ] {
        out.push((name.to_string(), unit));
    }
    for class in ALL_CLASSES {
        out.push((format!("server.handler_us.{class}"), "us"));
        out.push((format!("server.socket_us.{class}"), "us"));
    }
    for stage in [
        "decode_json",
        "shard_write",
        "timeline_insert",
        "merge_cells",
        "estimate",
    ] {
        out.push((format!("server.{stage}_us"), "us"));
    }
    for route in ROUTES {
        out.push((format!("server.unattributed_frac.{route}"), "ratio"));
    }
    for name in [
        "server.degraded_served",
        "server.refresh_errors",
        "engine.epoch_lag_max",
        "engine.rows_lost",
        "engine.worker_restarts",
        "timeline.late_dropped",
        "tiny_http.shed_429",
    ] {
        out.push((name.to_string(), "count"));
    }
    for class in MODELLED {
        out.push((format!("client.model_gap_frac.{class}"), "ratio"));
    }
    out
}

/// Classes whose latency the layer probes model.
pub const MODELLED: [&str; 9] = [
    "slice",
    "cell",
    "rollup",
    "groupby",
    "threshold",
    "search",
    "ingest",
    "refresh",
    "range",
];

/// The text of `BENCHMARK.json`, generated so that it cannot drift from
/// the tables above by hand-editing one side.
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("{s:?}");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                quote(name),
                quote(unit),
                quote(better)
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit)| {
            // More repeats is more sharing; everything else is a cost, a
            // gap or an error count.
            let better = if name == "client.repeat_frac" {
                "higher"
            } else {
                "lower"
            };
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(name),
                quote(unit),
                quote(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"perfbench/run.sh\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n")
    )
}

/// Check a run's metrics against the declaration in `text`: nothing
/// emitted that is not declared, nothing declared that is not emitted,
/// units equal, names well-formed.
pub fn check(text: &str, section: &str, emitted: &[Metric]) -> Result<(), String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = doc
        .get(section)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {section:?} list"))?;
    let mut problems = Vec::new();
    let mut names = Vec::new();
    for d in declared {
        let name = d.get("name").and_then(Value::as_str).unwrap_or("");
        let unit = d.get("unit").and_then(Value::as_str).unwrap_or("");
        names.push(name);
        match emitted.iter().find(|m| m.name == name) {
            None => problems.push(format!("{name} is declared but not emitted")),
            Some(m) if m.unit != unit => problems.push(format!(
                "{name} is emitted in {} but declared in {unit}",
                m.unit
            )),
            Some(_) => {}
        }
    }
    for m in emitted {
        if !valid_name(&m.name) {
            problems.push(format!("{:?} is not a valid metric name", m.name));
        }
        if !names.contains(&m.name.as_str()) {
            problems.push(format!("{} is emitted but not declared", m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed file is what this program generates.
    #[test]
    fn committed_benchmark_json_matches_the_program() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: bash perfbench/run.sh declare > BENCHMARK.json"
        );
    }

    #[test]
    fn declaration_is_inside_the_contracts_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, ..)| *n));
        names.extend(WORKLOADS);
        assert!(names.iter().all(|n| valid_name(n)), "a name is malformed");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|(.., bound)| *bound > 0.0 && *bound <= 0.25));
        assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn check_reports_both_directions_and_units() {
        let text = benchmark_json();
        let metric = |name: &str, unit| Metric::new(name, 1.0, unit, 1);
        let mut emitted: Vec<Metric> = END_TO_END.iter().map(|(n, u, ..)| metric(n, u)).collect();
        assert_eq!(check(&text, "end_to_end", &emitted), Ok(()));
        emitted.push(metric("surprise_ms", "ms"));
        assert!(check(&text, "end_to_end", &emitted)
            .unwrap_err()
            .contains("emitted but not declared"));
        emitted.truncate(END_TO_END.len() - 1);
        assert!(check(&text, "end_to_end", &emitted)
            .unwrap_err()
            .contains("declared but not emitted"));
        emitted.push(metric("throughput_per_s", "ms"));
        assert!(check(&text, "end_to_end", &emitted)
            .unwrap_err()
            .contains("declared in 1/s"));
        assert!(!valid_name("has space") && !valid_name("-lead") && valid_name("a.b-c_9"));
    }
}
