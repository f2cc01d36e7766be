//! Metric names, units, and the two output lines.
//!
//! Names are fixed: later changes compare against them. Every traced
//! run prints every per-layer name; a layer a workload does not run
//! reads 0 over 0 samples.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (calls, iterations, set-ups; 1 for a
    /// single exact reading, 0 when the layer does not run here).
    pub samples: usize,
}

/// End-to-end metrics, from untraced runs.
pub const END_TO_END: [(&str, &str); 6] = [
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("sim_time", "model_units"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_ratio", "1"),
];

/// `failed_ratio` is 0 on every correct run, so the result line carries
/// it as `failed` over `attempted` instead of as a metric.
pub fn in_result_line(name: &str) -> bool {
    name != "failed_ratio"
}

/// Per-layer metrics, from traced runs: `<crate>.<module>.<quantity>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.kernels.floor_ms", "ms"),
    ("core.exec.pack_misses", "count"),
    ("core.exec.packed_bytes", "bytes"),
    ("core.exec.pack_hit_ratio", "1"),
    ("core.fault.transient_faults", "count"),
    ("core.fault.retries", "count"),
    ("core.fault.backoff_time", "model_units"),
    ("core.fault.recovery_ms", "ms"),
    ("sched.graph.record_ms", "ms"),
    ("sched.scheduler.plan_ms", "ms"),
    ("sched.scheduler.coalesced_away", "count"),
    ("sched.compile.compile_ms", "ms"),
    ("sched.compile.staged_reads", "count"),
    ("sched.compile.hazard_edges", "count"),
    ("sched.dataflow.makespan", "model_units"),
    ("sched.dataflow.steals", "count"),
    ("sched.dataflow.efficiency", "1"),
    ("sched.run.parallel_ms", "ms"),
    ("sched.run.serial_ms", "ms"),
    ("sched.run.speedup_vs_serial", "1"),
    ("sched.run.overhead_ms", "ms"),
    ("algos.strassen.ms", "ms"),
    ("algos.dense.ms", "ms"),
    ("algos.gauss.ms", "ms"),
    ("algos.closure.ms", "ms"),
    ("algos.strassen.speedup_vs_eager", "1"),
    ("algos.dense.speedup_vs_eager", "1"),
    ("algos.gauss.speedup_vs_eager", "1"),
    ("algos.closure.speedup_vs_eager", "1"),
    ("algos.strassen.tensor_calls", "count"),
    ("algos.dense.tensor_calls", "count"),
    ("algos.gauss.tensor_calls", "count"),
    ("algos.closure.tensor_calls", "count"),
    ("algos.plan_memo.hits", "count"),
    ("algos.plan_memo.misses", "count"),
    ("algos.plan_memo.plan_ms", "ms"),
    ("algos.plan_memo.cold_hits", "count"),
    ("algos.plan_memo.cold_misses", "count"),
    ("algos.plan_memo.cold_plan_ms", "ms"),
    ("bench.call.wall_ms", "ms"),
    ("bench.call.residual_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
];

/// Look up a metric's unit in `table`.
pub fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
}

/// Expand `(name, value, samples)` readings into one metric per row of
/// `table`, in table order; rows without a reading are 0 over 0 samples.
pub fn complete(
    table: &[(&'static str, &'static str)],
    readings: &[(&'static str, f64, usize)],
) -> Vec<Metric> {
    for (name, ..) in readings {
        unit_of(table, name);
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = readings
                .iter()
                .find(|r| r.0 == name)
                .map_or((0.0, 0), |r| (r.1, r.2));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect()
}

/// A JSON number; non-finite values (a ratio over nothing) print as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The report line: configuration plus every metric with its unit and
/// sample count.
pub fn report_line(head: &[(String, String)], metrics: &[Metric]) -> String {
    let fields: Vec<String> = head
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit),
                m.samples
            )
        })
        .collect();
    format!(
        "{{\"report\": {{{}, \"metrics\": [{}]}}}}",
        fields.join(", "),
        rows.join(", ")
    )
}

/// The result line, the last line a run prints.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        rows.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_fills_every_row_in_table_order() {
        let m = complete(PER_LAYER, &[("core.fault.retries", 5.0, 3)]);
        assert_eq!(m.len(), PER_LAYER.len());
        let r = m.iter().find(|m| m.name == "core.fault.retries").unwrap();
        assert_eq!((r.value, r.unit, r.samples), (5.0, "count", 3));
        assert!(m
            .iter()
            .filter(|m| m.name != "core.fault.retries")
            .all(|m| m.value == 0.0 && m.samples == 0));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn complete_rejects_unknown_names() {
        let _ = complete(PER_LAYER, &[("core.fault.bogus", 1.0, 1)]);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .chain(END_TO_END.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn lines_are_json_shaped() {
        let m = vec![Metric {
            name: "call_ms_p50",
            value: 1.25,
            unit: "ms",
            samples: 9,
        }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"call_ms_p50": {"value": 1.25, "unit": "ms"}}}"#
        );
        let r = report_line(&[("seed".to_string(), "7".to_string())], &m);
        assert!(r.starts_with(r#"{"report": {"seed": 7, "metrics": [{"name": "call_ms_p50""#));
        assert!(r.contains(r#""samples": 9"#));
        assert_eq!(string("a\"b\\"), r#""a\"b\\""#);
        assert_eq!(num(f64::INFINITY), "0");
    }
}
