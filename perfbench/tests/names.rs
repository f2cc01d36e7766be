//! Name contract: a short full-size run of each workload emits every
//! end-to-end and per-layer name with its unit, in both modes, and
//! `BENCHMARK.json` lists the same names with the same units.
//!
//! The names are spelled out here rather than imported from the
//! benchmark, so renaming a metric in one place fails this test.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["dense-par", "chain-faults-par", "paper-serial"];

const END_TO_END: [(&str, &str); 6] = [
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("sim_time", "model_units"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_ratio", "1"),
];

const PER_LAYER: [(&str, &str); 42] = [
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

/// The report line and the result line of one run.
fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .env_remove("TCU_TRACE_OUT")
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{workload} --trace {trace} failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected two lines, got {stdout}"
    );
    let n = lines.len();
    (lines[n - 2].to_string(), lines[n - 1].to_string())
}

/// The text of the JSON object that starts at `key` in `line`.
fn object_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(key)?;
    let rest = &line[at..];
    Some(&rest[..=rest.find('}')?])
}

fn assert_reported(report: &str, name: &str, unit: &str) {
    let obj = object_after(report, &format!("{{\"name\": \"{name}\", \"value\": "))
        .unwrap_or_else(|| panic!("{name} missing from {report}"));
    assert!(
        obj.contains(&format!("\"unit\": \"{unit}\"")) && obj.contains("\"samples\": "),
        "{name}: {obj}"
    );
}

fn assert_in_result(result: &str, name: &str, unit: &str) {
    let obj = object_after(result, &format!("\"{name}\": {{\"value\": "))
        .unwrap_or_else(|| panic!("{name} missing from {result}"));
    assert!(
        obj.contains(&format!("\"unit\": \"{unit}\"")),
        "{name}: {obj}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs full-size workloads; use --release")]
fn every_name_is_emitted_with_its_unit_in_both_modes() {
    for w in WORKLOADS {
        let (report, result) = run(w, 0);
        assert!(result.starts_with("{\"correct\": true, "), "{result}");
        for (name, unit) in END_TO_END {
            assert_reported(&report, name, unit);
            if name != "failed_ratio" {
                assert_in_result(&result, name, unit);
            }
        }
        for key in [
            "nproc",
            "dataflow_inline",
            "host_threads",
            "target_cpu",
            "calls_timed",
        ] {
            assert!(report.contains(&format!("\"{key}\": ")), "{key} missing");
        }

        let (report, result) = run(w, 1);
        assert!(result.starts_with("{\"correct\": true, "), "{result}");
        for (name, unit) in PER_LAYER {
            assert_reported(&report, name, unit);
            assert_in_result(&result, name, unit);
        }
        assert!(report.contains("\"unpartitioned_spans\": 0"), "{report}");
    }
}

#[test]
fn benchmark_json_lists_the_same_names_and_units() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer_at = text.find("\"per_layer\"").expect("per_layer section");
    let (e2e, layers) = (&text[e2e_at..layer_at], &text[layer_at..]);
    let entry = |name: &str, unit: &str| format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
    for (name, unit) in END_TO_END.iter().filter(|(n, _)| *n != "failed_ratio") {
        assert!(e2e.contains(&entry(name, unit)), "{name} not listed");
    }
    for (name, unit) in PER_LAYER {
        assert!(layers.contains(&entry(name, unit)), "{name} not listed");
    }
    assert_eq!(e2e.matches("\"name\": ").count(), END_TO_END.len() - 1);
    assert_eq!(layers.matches("\"name\": ").count(), PER_LAYER.len());
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
}
