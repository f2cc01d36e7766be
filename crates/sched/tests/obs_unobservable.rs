//! Recorder unobservability: attaching a `tcu-obs` telemetry recorder
//! must be **byte-unobservable** in everything the simulation defines —
//! output elements, `Stats`, the trace digest, and the simulated clock
//! — because recorders only observe wall time and already-charged
//! quantities, never feed anything back.
//!
//! For random RAW-pipeline graphs (the chaos suite's generator) at
//! every unit count in {1, 2, 4, 8}, both fault-free and under a seeded
//! recoverable [`FaultPlan`], the recorder-on run must be byte-identical
//! to the recorder-off run — while the sink itself must visibly have
//! recorded the execution (per-op spans, ready-deque dispatches), so a
//! silently-disabled recorder can never fake the invariant.

mod graphs;

use graphs::{random_graph, Bufs, DIM, SQRT_M};
use proptest::prelude::*;
use std::sync::Arc;
use tcu_core::{
    assign_unit_ids, silence_injected_fault_panics, FaultPlan, FaultyExecutor, HostExecutor,
    ModelTensorUnit, ParallelTcuMachine, TcuMachine,
};
use tcu_linalg::Matrix;
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const UNIT_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

/// Everything the simulation defines about one run — what a recorder
/// must never perturb.
struct Observed {
    c: Matrix<i64>,
    d: Matrix<i64>,
    stats: tcu_core::Stats,
    digest: u64,
    time: u64,
}

/// One parallel run, optionally with a recorder attached through the
/// [`ExecEnv`] opt-in path (which the driver attaches to the machine).
fn run_once(
    g: &OpGraph,
    bufs: &Bufs,
    plan: &Schedule,
    units: usize,
    seed: u64,
    fplan: FaultPlan,
    recorder: Option<Arc<tcu_obs::ObsSink>>,
) -> Observed {
    silence_injected_fault_panics();
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
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
    let a = pseudo(DIM, DIM, seed as i64);
    let b = pseudo(DIM, DIM, seed as i64 + 1);
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    if let Some(rec) = recorder {
        mach.enable_recorder(rec);
    }
    let mut env = ExecEnv::new(g);
    env.try_bind_input(bufs.a, a.view()).unwrap();
    env.try_bind_input(bufs.b, b.view()).unwrap();
    env.try_bind_output(bufs.c, c.view_mut()).unwrap();
    env.try_bind_output(bufs.d, d.view_mut()).unwrap();
    plan.try_run_parallel(&mut mach, &mut env)
        .expect("seeded plans are recoverable");
    drop(env);
    Observed {
        c,
        d,
        stats: mach.stats().clone(),
        digest: mach.take_trace().digest(),
        time: mach.time(),
    }
}

/// Recorder on vs off at every unit count, fault-free and under a
/// seeded recoverable fault plan: the observed simulation must be
/// byte-identical, and the sink must prove it actually recorded.
fn check_recorder_unobservable(seed: u64) {
    let (g, bufs) = random_graph(seed);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);

    for units in UNIT_COUNTS {
        let plan = Scheduler::new().with_units(units).plan(&g, &unit);
        for faulty in [false, true] {
            let fplan = if faulty {
                // Recoverable by construction: no consecutive
                // transients, at most units − 1 permanent victims.
                let horizon = plan.ops().div_ceil(units) as u64;
                FaultPlan::seeded(seed ^ 0xC44F, units, horizon, 150, units / 2)
            } else {
                FaultPlan::none()
            };
            let off = run_once(&g, &bufs, &plan, units, seed, fplan.clone(), None);
            let sink = Arc::new(tcu_obs::ObsSink::new());
            let on = run_once(
                &g,
                &bufs,
                &plan,
                units,
                seed,
                fplan,
                Some(Arc::clone(&sink)),
            );

            let label = (units, faulty);
            prop_assert_eq!(&on.c, &off.c, "elements (C) at {:?}", label);
            prop_assert_eq!(&on.d, &off.d, "elements (D) at {:?}", label);
            prop_assert_eq!(&on.stats, &off.stats, "Stats at {:?}", label);
            prop_assert_eq!(on.digest, off.digest, "trace digest at {:?}", label);
            prop_assert_eq!(on.time, off.time, "simulated clock at {:?}", label);
            // Fault-free, the clock is exactly the placement's planned
            // wall (plus zero scalar work in these graphs).
            if !faulty {
                prop_assert_eq!(on.time, plan.makespan(), "planned wall at {:?}", label);
            }

            // The sink must have observed the run — otherwise a
            // recorder that silently drops out passes trivially.
            let m = sink.metrics();
            prop_assert!(
                m.get(tcu_obs::Metric::OpsExecuted) >= plan.ops() as u64,
                "per-op spans recorded at {:?}",
                label
            );
            prop_assert!(
                m.get(tcu_obs::Metric::ReadyDepthPeak) >= 1,
                "ready spans recorded at {:?}",
                label
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random RAW pipelines × 1/2/4/8 units × {fault-free, seeded
    // recoverable faults}: recording must be byte-unobservable in
    // elements, Stats, trace digest, and the simulated clock.
    #[test]
    fn recording_is_byte_unobservable(seed in 0u64..10_000) {
        check_recorder_unobservable(seed);
    }
}

/// A recorder attached to a machine replaces the one it already holds
/// — the way a caller's sink replaces the `TCU_TRACE_OUT` sink attached
/// at construction: the later sink must see every op of the serial and
/// the parallel run, the earlier sink none.
#[test]
fn later_machine_recorder_replaces_the_first() {
    let (g, bufs) = random_graph(3);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let a = pseudo(DIM, DIM, 3);
    let b = pseudo(DIM, DIM, 4);
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let first = Arc::new(tcu_obs::ObsSink::new());
    let later = Arc::new(tcu_obs::ObsSink::new());
    let mut env = ExecEnv::new(&g);
    env.try_bind_input(bufs.a, a.view()).unwrap();
    env.try_bind_input(bufs.b, b.view()).unwrap();
    env.try_bind_output(bufs.c, c.view_mut()).unwrap();
    env.try_bind_output(bufs.d, d.view_mut()).unwrap();

    let serial = Scheduler::new().plan(&g, &unit);
    let mut ser = TcuMachine::new(unit);
    ser.enable_recorder(first.clone());
    ser.enable_recorder(later.clone());
    serial.try_run(&mut ser, &mut env).unwrap();

    let plan = Scheduler::new().with_units(2).plan(&g, &unit);
    let mut par = ParallelTcuMachine::new(unit, 2);
    par.enable_recorder(first.clone());
    par.enable_recorder(later.clone());
    plan.try_run_parallel(&mut par, &mut env).unwrap();

    let ops = |sink: &tcu_obs::ObsSink| sink.metrics().get(tcu_obs::Metric::OpsExecuted);
    assert_eq!(ops(&later), (serial.ops() + plan.ops()) as u64);
    assert_eq!(ops(&first), 0);
}
