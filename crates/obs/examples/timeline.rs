//! End-to-end telemetry demo: run the blocked accumulation workload
//! (`d/√m` column-block chains of `d/√m` products each) on a 4-unit
//! parallel machine with an [`tcu_obs::ObsSink`] attached, print the
//! plain-text run report, and write a Chrome-trace / Perfetto JSON
//! timeline with one lane per unit plus a scheduler lane.
//!
//! ```sh
//! cargo run --release -p tcu-obs --example timeline
//! TCU_TRACE_OUT=trace.json cargo run --release -p tcu-obs --example timeline
//! ```
//!
//! Open the written file at <https://ui.perfetto.dev> (or
//! `chrome://tracing`) to see the per-unit timelines.

use std::sync::Arc;
use tcu_core::{HostExecutor, ModelTensorUnit, ParallelTcuMachine, TensorOp};
use tcu_linalg::Matrix;
use tcu_obs::{ObsSink, RunMeta};
use tcu_sched::{ExecEnv, OpGraph, OperandRef, Scheduler};

const D: usize = 512;
const SQRT_M: usize = 16;
const UNITS: usize = 4;

fn workload(r: usize, c: usize, seed: u64) -> Matrix<f64> {
    Matrix::from_fn(r, c, |i, j| {
        let x = (i as u64)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add((j as u64).wrapping_mul(1_442_695_040_888_963_407))
            .wrapping_add(seed);
        (x % 1_000) as f64 / 997.0 - 0.5
    })
}

fn main() -> std::io::Result<()> {
    let (d, s, units) = (D, SQRT_M, UNITS);
    let q = d / s;
    let a = workload(d, d, 5);
    let b = workload(d, d, 6);

    // The accumulation graph: q independent column-block chains of q
    // products each, all accumulating into C.
    let mut g = OpGraph::new();
    let ab = g.buffer("A", d, d);
    let bb = g.buffer("B", d, d);
    let cb = g.buffer("C", d, d);
    for j in 0..q {
        for k in 0..q {
            g.record(
                TensorOp::mul_acc(d, s),
                OperandRef::new(ab, 0, k * s, d, s),
                OperandRef::new(bb, k * s, j * s, s, s),
                OperandRef::new(cb, 0, j * s, d, s),
            );
        }
    }

    let unit = ModelTensorUnit::new(s * s, 0);
    let plan = Scheduler::new().with_units(units).plan(&g, &unit);

    // Attach the sink through the execution environment; the driver
    // attaches it to the machine, so driver spans (stage/merge, ready
    // dispatches, steals) and per-unit op spans land in the same sink.
    // When `TCU_TRACE_OUT` is set, reuse the process-wide sink machines
    // pick up at construction, so the written trace is this run.
    let sink = tcu_obs::env_recorder().unwrap_or_else(|| Arc::new(ObsSink::new()));
    let mut mach = ParallelTcuMachine::new(unit, units);
    let mut c = Matrix::<f64>::zeros(d, d);
    let mut env = ExecEnv::new(&g);
    env.enable_recorder(sink.clone());
    env.bind_input(ab, a.view());
    env.bind_input(bb, b.view());
    env.bind_output(cb, c.view_mut());
    plan.run_parallel(&mut mach, &mut env);
    drop(env);

    let meta = RunMeta {
        units: Some(units as u64),
        host_threads: Some(HostExecutor::new().threads() as u64),
        ci_cores: std::env::var("CI_CORES").ok().and_then(|v| v.parse().ok()),
        pack_cache_capacity: None,
        memo_hits: None,
        extra: vec![
            ("example".to_string(), "timeline".to_string()),
            ("d".to_string(), d.to_string()),
        ],
    };

    let report = sink.report(&meta);
    print!("{report}");
    println!(
        "plan: {} ops in {} waves, makespan {}, critical path {}, efficiency {:.3}",
        plan.ops(),
        plan.waves(),
        plan.makespan(),
        plan.critical_path(),
        plan.sched_efficiency(),
    );
    println!(
        "dataflow: makespan {}, efficiency {:.3}, steals {}",
        plan.dataflow_makespan(),
        plan.dataflow_efficiency(),
        plan.dataflow_steals(),
    );

    // The report invariant the docs promise: every unit's busy + idle
    // spans exactly the execution window.
    let (window, rows) = sink.unit_utilization();
    assert_eq!(rows.len(), units, "one utilization row per unit");
    for (u, busy, idle, ops) in rows {
        assert_eq!(busy + idle, window, "unit {u} busy+idle == window");
        assert!(ops > 0, "unit {u} executed ops");
    }

    // The driver's dispatch telemetry (ready-deque depth, steal
    // counter) surfaces in the report.
    assert!(
        report.contains("ready_depth_peak"),
        "report surfaces the ready-deque depth"
    );
    assert!(
        report.contains("steals"),
        "report surfaces the steal counter"
    );

    let path = tcu_obs::env_trace_path().unwrap_or("tcu_timeline_trace.json");
    sink.write_chrome_trace(path, &meta)?;
    println!("wrote {path} — open it at https://ui.perfetto.dev");
    Ok(())
}
