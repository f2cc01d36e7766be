//! Tour of the fault-tolerance layer: a multi-unit pipeline run under
//! deterministic fault injection, recovering without changing a byte of
//! its observable output.
//!
//! ```sh
//! cargo run --release -p tcu-sched --example chaos
//! ```
//!
//! Three demonstrations on one two-stage pipeline (M = A·B, C = M·B)
//! across 4 units:
//!
//! 1. **Recovery is unobservable.** A seeded [`FaultPlan`] injects
//!    transient drops and one permanently dead unit; the default
//!    parallel driver retries, quarantines, and re-runs the dead unit's
//!    work in a recovery pass on the survivors — and the elements,
//!    `Stats`, and trace digest come out byte-identical to the
//!    fault-free run. Only `time()` (backoff + recovery-pass makespan)
//!    and [`FaultStats`] show that anything happened.
//! 2. **Replayability.** The same seed replays the same faults: the
//!    clock, the recovery counters, and the ordered fault trace are
//!    reproduced exactly.
//! 3. **Unrecoverable plans fail typed.** Killing every unit yields
//!    [`TcuError::AllUnitsQuarantined`] — an `Err`, not a panic.

use tcu_core::{
    assign_unit_ids, silence_injected_fault_panics, FaultKind, FaultPlan, FaultyExecutor,
    HostExecutor, ModelTensorUnit, ParallelTcuMachine, TensorOp,
};
use tcu_linalg::Matrix;
use tcu_sched::{ExecEnv, OpGraph, OperandRef, Scheduler};

fn workload(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

/// The two-stage pipeline of the coalesce example: M = A·B then
/// C = M·B, recorded into one graph (the RAW hazard orders the stages).
fn pipeline(d: usize, s: usize) -> (OpGraph, [tcu_sched::BufferId; 4]) {
    let mut g = OpGraph::new();
    let ab = g.buffer("A", d, d);
    let bb = g.buffer("B", d, d);
    let mb = g.buffer("M", d, d);
    let cb = g.buffer("C", d, d);
    let q = d / s;
    for (src, dst) in [(ab, mb), (mb, cb)] {
        for j in 0..q {
            for k in 0..q {
                g.record(
                    TensorOp::mul_acc(d, s),
                    OperandRef::new(src, 0, k * s, d, s),
                    OperandRef::new(bb, k * s, j * s, s, s),
                    OperandRef::new(dst, 0, j * s, d, s),
                );
            }
        }
    }
    (g, [ab, bb, mb, cb])
}

/// One parallel run with fault injection from `fplan`; returns the
/// written C, the machine's observables, and the run result.
#[allow(clippy::type_complexity)]
fn run_with_faults(
    g: &OpGraph,
    bufs: &[tcu_sched::BufferId; 4],
    plan: &tcu_sched::Schedule,
    units: usize,
    s: usize,
    fplan: FaultPlan,
) -> (
    Result<(), tcu_core::TcuError>,
    Matrix<i64>,
    tcu_core::Stats,
    u64,
    u64,
    tcu_core::FaultStats,
    Vec<tcu_core::TraceEvent>,
) {
    let d = 128usize;
    let [ab, bb, mb, cb] = *bufs;
    let unit = ModelTensorUnit::new(s * s, 10_000);
    let mut mach = ParallelTcuMachine::with_executor(
        unit,
        units,
        FaultyExecutor::new(HostExecutor::new(), fplan),
    );
    assign_unit_ids(&mut mach);
    for u in 0..units {
        mach.unit_executor_mut(u).inner_mut().enable_pack_cache(16);
    }
    mach.enable_trace();
    let a = workload(d, d, 1);
    let b = workload(d, d, 2);
    let (mut m, mut c) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
    let mut env = ExecEnv::new(g);
    env.bind_input(ab, a.view());
    env.bind_input(bb, b.view());
    env.bind_output(mb, m.view_mut());
    env.bind_output(cb, c.view_mut());
    let r = plan.try_run_parallel(&mut mach, &mut env);
    drop(env);
    let trace = mach.take_trace();
    (
        r,
        c,
        mach.stats().clone(),
        mach.time(),
        trace.digest(),
        *mach.fault_stats(),
        trace.fault_events(),
    )
}

fn main() {
    silence_injected_fault_panics();
    let (d, s, units) = (128usize, 16usize, 4usize);
    let (g, bufs) = pipeline(d, s);
    let unit = ModelTensorUnit::new(s * s, 10_000);
    let plan = Scheduler::new().with_units(units).plan(&g, &unit);
    println!(
        "pipeline: {} ops in {} waves on {units} units, planned makespan {}\n",
        plan.ops(),
        plan.waves(),
        plan.dataflow_makespan()
    );

    // Fault-free baseline: the empty plan is a pure pass-through.
    let (ok, c_free, stats_free, t_free, digest_free, fs_free, _) =
        run_with_faults(&g, &bufs, &plan, units, s, FaultPlan::none());
    assert!(ok.is_ok());
    assert_eq!(fs_free, tcu_core::FaultStats::default());
    println!("fault-free run:  time {t_free}, digest {digest_free:#018x}");

    // 1. Seeded chaos: transient drops everywhere, unit 2 dies.
    let fplan = FaultPlan::seeded(0xDECAF, units, 24, 60, 1);
    println!(
        "injecting {} planned faults (seed 0xDECAF: ≤6% transient per execution, 1 permanent victim)",
        fplan.len()
    );
    let (r, c, stats, t, digest, fs, fault_trace) =
        run_with_faults(&g, &bufs, &plan, units, s, fplan.clone());
    assert!(r.is_ok(), "seeded plans are recoverable by construction");
    println!(
        "chaos run:       time {t}, digest {digest:#018x}\n  {} transient faults retried ({} retries, backoff {}), {} unit(s) quarantined, {} ops re-run in recovery passes (makespan {})",
        fs.transient_faults, fs.retries, fs.backoff_time, fs.quarantined_units, fs.requeued_ops, fs.recovery_makespan
    );
    assert_eq!(c, c_free, "elements must be byte-identical");
    assert_eq!(stats, stats_free, "Stats must be byte-identical");
    assert_eq!(digest, digest_free, "digest must be byte-identical");
    assert_eq!(t, t_free + fs.backoff_time + fs.recovery_makespan);
    println!("  elements, Stats, digest: byte-identical to the fault-free run");
    println!(
        "  recovery visible only in time (+{}) and FaultStats\n",
        t - t_free
    );

    // 2. Same seed, same faults, same recovery — replayable by design.
    let (r2, _, _, t2, _, fs2, fault_trace2) = run_with_faults(&g, &bufs, &plan, units, s, fplan);
    assert!(r2.is_ok());
    assert_eq!((t2, fs2), (t, fs));
    assert_eq!(fault_trace2, fault_trace);
    println!(
        "replay:          identical fault trace ({} events), identical counters\n",
        fault_trace.len()
    );

    // 3. Kill every unit at its first execution: typed failure.
    let mut all_dead = FaultPlan::none();
    for u in 0..units {
        all_dead = all_dead.fail(u, 0, FaultKind::Permanent);
    }
    let (r3, ..) = run_with_faults(&g, &bufs, &plan, units, s, all_dead);
    match r3 {
        Err(e) => println!("all units dead:  Err({e})"),
        Ok(()) => unreachable!("losing every unit cannot succeed"),
    }
}
