//! Determinism contract of the barrier-free parallel driver.
//!
//! For random RAW-pipeline graphs (the chaos / thread-count-invariance
//! generator) at every unit count in {1, 2, 4, 8}, the threaded
//! executor must be byte-identical to the serial scheduled run in
//! *elements*, *Stats*, and *trace digest*, fault-free, under seeded
//! transient fault plans, and under seeded permanent (quarantine) fault
//! plans. The simulated clock must land exactly on
//! [`Schedule::makespan`] plus the charged backoff/recovery, and the
//! makespan must never beat the model's lower bound (the placement's
//! upper bounds are the `tcu_sched::dataflow` unit tests' proptest).
//! Every run's executors sleep a salted pseudo-random 0–50 µs before
//! each execution, so replays of one plan under different salts
//! interleave the worker threads differently; they must agree on the
//! clock, the fault counters, the ordered fault trace, and every unit's
//! pack-cache counters. Besides that generator's graphs, a chain-heavy
//! generator records interleaved runs of same-rectangle accumulates,
//! some reading strips other runs write, so accumulation chains — run
//! whole on one unit, and re-run whole when a unit dies under them — are
//! common rather than incidental. A foreign executor panic is pinned by
//! `foreign_panics_recover_on_the_threaded_executor` and
//! `foreign_panic_inside_a_chain_reruns_the_whole_chain`; a serial run
//! fails typed on it, and on injected faults
//! (`serial_executor_panic_fails_typed`).

mod graphs;

use graphs::{chain_graph, random_graph, Bufs, DIM, SQRT_M};
use proptest::prelude::*;
use tcu_core::{
    assign_unit_ids, silence_injected_fault_panics, Executor, FaultKind, FaultPlan, FaultStats,
    FaultyExecutor, HostExecutor, ModelTensorUnit, OperandId, PackCacheStats, ParallelTcuMachine,
    TcuError, TcuMachine, TensorOp, TraceEvent,
};
use tcu_linalg::Matrix;
use tcu_linalg::{MatrixView, MatrixViewMut, Scalar};
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const UNIT_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Jitter salts: each replay of a plan runs under its own.
const SALTS: [u64; 3] = [1, 2, 3];

/// A host executor that sleeps a pseudo-random 0–50 µs drawn from its
/// salted state before each execution, so runs under different salts
/// interleave the units' workers differently. It sits inside
/// [`FaultyExecutor`], which counts an execution before delegating, so
/// the sleeps move no fault index.
#[derive(Clone, Debug, Default)]
struct Jittered {
    host: HostExecutor,
    state: u64,
}

impl Jittered {
    fn sleep(&mut self) {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.state ^ (self.state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        std::thread::sleep(std::time::Duration::from_micros((z >> 33) % 51));
    }
}

impl Executor for Jittered {
    fn name(&self) -> &'static str {
        "jittered-host"
    }

    fn execute<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        self.sleep();
        self.host.execute(op, a, b, out)
    }

    fn execute_tagged<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        a_id: Option<OperandId>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        self.sleep();
        self.host.execute_tagged(op, a, a_id, b, out)
    }
}

/// Execution indices seeded fault plans draw from: a unit's share of
/// the plan's ops, so planned faults land inside its executions.
fn horizon(plan: &Schedule) -> u64 {
    plan.ops().div_ceil(plan.units()) as u64
}

fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

/// Everything one dataflow run observes.
struct DfRun {
    result: Result<(), TcuError>,
    c: Matrix<i64>,
    d: Matrix<i64>,
    stats: tcu_core::Stats,
    digest: u64,
    fault_events: Vec<TraceEvent>,
    time: u64,
    fault_stats: FaultStats,
    caches: Vec<PackCacheStats>,
}

/// One `try_run_parallel` execution on a fresh machine whose every unit
/// executor injects from `fplan` (`FaultPlan::none()` for a clean run)
/// around a jittered host executor; unit `u`'s sleeps are drawn from
/// `salt` and `u`.
fn df_run(
    g: &OpGraph,
    bufs: &Bufs,
    plan: &Schedule,
    seed: u64,
    fplan: FaultPlan,
    salt: u64,
) -> DfRun {
    silence_injected_fault_panics();
    let units = plan.units();
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let exec = FaultyExecutor::new(Jittered::default(), fplan);
    let mut mach = ParallelTcuMachine::with_executor(unit, units, exec);
    assign_unit_ids(&mut mach);
    for u in 0..units {
        let jittered = mach.unit_executor_mut(u).inner_mut();
        jittered.host.enable_pack_cache(16);
        jittered.state = salt.wrapping_mul(0xA076_1D64_78BD_642F) ^ u as u64;
    }
    mach.enable_trace();
    let a = pseudo(DIM, DIM, seed as i64);
    let b = pseudo(DIM, DIM, seed as i64 + 1);
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let mut env = ExecEnv::new(g);
    env.try_bind_input(bufs.a, a.view()).unwrap();
    env.try_bind_input(bufs.b, b.view()).unwrap();
    env.try_bind_output(bufs.c, c.view_mut()).unwrap();
    env.try_bind_output(bufs.d, d.view_mut()).unwrap();
    let result = plan.try_run_parallel(&mut mach, &mut env);
    drop(env);
    let caches = (0..units)
        .map(|u| {
            let host = &mach.unit_executor(u).inner().host;
            host.pack_cache_stats().expect("cache on")
        })
        .collect();
    let trace = mach.take_trace();
    DfRun {
        result,
        c,
        d,
        stats: mach.stats().clone(),
        digest: trace.digest(),
        fault_events: trace.fault_events(),
        time: mach.time(),
        fault_stats: *mach.fault_stats(),
        caches,
    }
}

/// The fault-free serial scheduled reference: elements, Stats, digest.
fn serial_reference(
    g: &OpGraph,
    bufs: &Bufs,
    seed: u64,
) -> (Matrix<i64>, Matrix<i64>, tcu_core::Stats, u64) {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let plan = Scheduler::new().plan(g, &unit);
    let mut ser = TcuMachine::new(unit);
    ser.executor_mut().enable_pack_cache(16);
    ser.enable_trace();
    let a = pseudo(DIM, DIM, seed as i64);
    let b = pseudo(DIM, DIM, seed as i64 + 1);
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let mut env = ExecEnv::new(g);
    env.try_bind_input(bufs.a, a.view()).unwrap();
    env.try_bind_input(bufs.b, b.view()).unwrap();
    env.try_bind_output(bufs.c, c.view_mut()).unwrap();
    env.try_bind_output(bufs.d, d.view_mut()).unwrap();
    plan.try_run(&mut ser, &mut env).unwrap();
    drop(env);
    (c, d, ser.stats().clone(), ser.take_trace().digest())
}

/// Assert one run is byte-identical to the serial reference and that
/// its clock is exactly the placement makespan plus what the fault
/// counters say recovery charged.
fn assert_unobservable(
    run: &DfRun,
    refr: &(Matrix<i64>, Matrix<i64>, tcu_core::Stats, u64),
    plan: &Schedule,
    label: &str,
) {
    prop_assert!(run.result.is_ok(), "{} failed: {:?}", label, run.result);
    prop_assert_eq!(&run.c, &refr.0, "elements (C): {}", label);
    prop_assert_eq!(&run.d, &refr.1, "elements (D): {}", label);
    prop_assert_eq!(&run.stats, &refr.2, "Stats: {}", label);
    prop_assert_eq!(run.digest, refr.3, "trace digest: {}", label);
    let charged = run.fault_stats.backoff_time + run.fault_stats.recovery_makespan;
    prop_assert_eq!(
        run.time,
        plan.makespan() + charged,
        "clock identity: {}",
        label
    );
}

/// The full contract on one generated graph (inputs from `seed`).
fn check_dataflow_contract((g, bufs): (OpGraph, Bufs), seed: u64) {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let refr = serial_reference(&g, &bufs, seed);

    for units in UNIT_COUNTS {
        let plan = Scheduler::new().with_units(units).plan(&g, &unit);

        // The placement never beats the model's lower bound.
        let bound = plan
            .critical_path()
            .max(plan.tensor_time().div_ceil(units as u64));
        prop_assert!(
            plan.makespan() >= bound,
            "makespan under lower bound at {units} units"
        );

        // Fault-free.
        let label = format!("fault-free u={units}");
        check_replays(&g, &bufs, &plan, seed, FaultPlan::none(), &refr, &label);

        // Transient-only faults: per-unit sequences are fixed, so the
        // same plan entries fire on the same ops under every salt.
        let tplan = FaultPlan::seeded(seed ^ 0x7A11, units, horizon(&plan), 200, 0);
        let label = format!("transient u={units}");
        check_replays(&g, &bufs, &plan, seed, tplan, &refr, &label);

        // Recoverable permanent faults (chaos-style: at most
        // `units − 1` victims): recovery must stay byte-unobservable and
        // replay its fault record exactly.
        let pplan = FaultPlan::seeded(seed ^ 0xC44F, units, horizon(&plan), 150, units / 2);
        let label = format!("permanent u={units}");
        check_replays(&g, &bufs, &plan, seed, pplan, &refr, &label);
    }
}

/// Runs of one plan under every jitter salt: each succeeds
/// byte-identical to the serial reference (so all agree on the result,
/// the elements, `Stats`, and digest) with its clock on the placement
/// makespan plus what recovery charged, and all agree on the clock, the
/// fault counters, the ordered fault trace, and every unit's pack-cache
/// counters.
#[allow(clippy::too_many_arguments)]
fn check_replays(
    g: &OpGraph,
    bufs: &Bufs,
    plan: &Schedule,
    seed: u64,
    fplan: FaultPlan,
    refr: &(Matrix<i64>, Matrix<i64>, tcu_core::Stats, u64),
    label: &str,
) {
    let runs = SALTS.map(|salt| df_run(g, bufs, plan, seed, fplan.clone(), salt));
    for (run, salt) in runs.iter().zip(SALTS) {
        let what = format!("{label} salt={salt}");
        assert_unobservable(run, refr, plan, &what);
        let first = &runs[0];
        prop_assert_eq!(run.time, first.time, "time(): {}", what);
        prop_assert_eq!(
            &run.fault_stats,
            &first.fault_stats,
            "fault_stats(): {}",
            what
        );
        prop_assert_eq!(
            &run.fault_events,
            &first.fault_events,
            "ordered fault trace: {}",
            what
        );
        prop_assert_eq!(&run.caches, &first.caches, "pack-cache counters: {}", what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random RAW pipelines × 1/2/4/8 units × {fault-free, transient,
    // permanent} × jitter salts: the threaded executor must
    // be byte-unobservable against the serial scheduled run, with replay
    // determinism exactly as documented.
    #[test]
    fn dataflow_execution_is_byte_identical_to_serial(seed in 0u64..10_000) {
        check_dataflow_contract(random_graph(seed), seed);
    }

    // The same contract on chain-heavy graphs: accumulation chains
    // across units, cut by recovery removals under permanent faults.
    #[test]
    fn chain_heavy_dataflow_is_byte_identical_to_serial(seed in 0u64..10_000) {
        check_dataflow_contract(chain_graph(seed), seed);
    }
}

/// A host executor that, on the unit it is armed for, scribbles over
/// its destination and then panics with a plain payload (not an
/// `InjectedFault`) on its `panic_at`-th execution — a stand-in for a
/// real executor bug.
#[derive(Clone, Debug, Default)]
struct BuggyExecutor {
    inner: HostExecutor,
    executed: u64,
    panic_at: Option<u64>,
}

impl Executor for BuggyExecutor {
    fn name(&self) -> &'static str {
        "buggy-host"
    }

    fn execute<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        let k = self.executed;
        self.executed += 1;
        if self.panic_at == Some(k) {
            for i in 0..out.rows() {
                out.row_mut(i).fill(T::ONE);
            }
            panic!("executor bug on execution {k}");
        }
        self.inner.execute(op, a, b, out)
    }

    fn execute_tagged<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        a_id: Option<OperandId>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        let _ = a_id;
        self.execute(op, a, b, out)
    }
}

/// A foreign panic on unit 0's first execution: the threaded executor
/// computes into an accumulator, so it discards the torn one,
/// quarantines the unit, and re-runs the chain in a recovery pass —
/// byte-identical to the serial run.
#[test]
fn foreign_panics_recover_on_the_threaded_executor() {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    for seed in 0..4u64 {
        let (g, bufs) = random_graph(seed);
        let refr = serial_reference(&g, &bufs, seed);
        for units in [2usize, 4] {
            let plan = Scheduler::new().with_units(units).plan(&g, &unit);
            let mut mach = ParallelTcuMachine::with_executor(unit, units, BuggyExecutor::default());
            mach.unit_executor_mut(0).panic_at = Some(0);
            mach.enable_trace();
            let a = pseudo(DIM, DIM, seed as i64);
            let b = pseudo(DIM, DIM, seed as i64 + 1);
            let (mut c, mut d) = (
                Matrix::<i64>::zeros(DIM, DIM),
                Matrix::<i64>::zeros(DIM, DIM),
            );
            let mut env = ExecEnv::new(&g);
            env.try_bind_input(bufs.a, a.view()).unwrap();
            env.try_bind_input(bufs.b, b.view()).unwrap();
            env.try_bind_output(bufs.c, c.view_mut()).unwrap();
            env.try_bind_output(bufs.d, d.view_mut()).unwrap();
            let result = plan.try_run_parallel(&mut mach, &mut env);
            drop(env);
            let what = format!("seed {seed}, {units} units");
            assert!(result.is_ok(), "{what}: {result:?}");
            assert_eq!(mach.fault_stats().quarantined_units, 1, "{what}");
            assert_eq!((&c, &d), (&refr.0, &refr.1), "elements: {what}");
            assert_eq!(mach.stats(), &refr.2, "Stats: {what}");
            assert_eq!(mach.take_trace().digest(), refr.3, "digest: {what}");
        }
    }
}

/// A foreign panic on a chain link after some of its chain completed:
/// two 4-op accumulation chains, one per unit, and unit 0's executor
/// panics on its `k`-th execution (`k > 0`). The stopped unit discards
/// its accumulator with the completed links unmerged, so the whole
/// chain re-runs on the survivor — 4 ops whatever `k` — and the run is
/// still byte-identical to serial. What re-runs follows from the plan,
/// so a replay reproduces the clock and the fault counters.
#[test]
fn foreign_panic_inside_a_chain_reruns_the_whole_chain() {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let mut g = OpGraph::new();
    let bufs = Bufs {
        a: g.buffer("A", DIM, DIM),
        b: g.buffer("B", DIM, DIM),
        c: g.buffer("C", DIM, DIM),
        d: g.buffer("D", DIM, DIM),
    };
    for c0 in [0, SQRT_M] {
        for k in 0..4 {
            g.record(
                TensorOp::mul_acc(16, SQRT_M),
                OperandRef::new(bufs.a, 0, k * SQRT_M, 16, SQRT_M),
                OperandRef::new(bufs.b, k * SQRT_M, c0, SQRT_M, SQRT_M),
                OperandRef::new(bufs.c, 0, c0, 16, SQRT_M),
            );
        }
    }
    let plan = Scheduler::new().with_units(2).plan(&g, &unit);
    let refr = serial_reference(&g, &bufs, 9);
    for k in 1..4u64 {
        let run = || {
            let mut mach = ParallelTcuMachine::with_executor(unit, 2, BuggyExecutor::default());
            mach.unit_executor_mut(0).panic_at = Some(k);
            mach.enable_trace();
            let (a, b) = (pseudo(DIM, DIM, 9), pseudo(DIM, DIM, 10));
            let (mut c, mut d) = (
                Matrix::<i64>::zeros(DIM, DIM),
                Matrix::<i64>::zeros(DIM, DIM),
            );
            let mut env = ExecEnv::new(&g);
            env.try_bind_input(bufs.a, a.view()).unwrap();
            env.try_bind_input(bufs.b, b.view()).unwrap();
            env.try_bind_output(bufs.c, c.view_mut()).unwrap();
            env.try_bind_output(bufs.d, d.view_mut()).unwrap();
            let result = plan.try_run_parallel(&mut mach, &mut env);
            drop(env);
            assert!(result.is_ok(), "k={k}: {result:?}");
            assert_eq!((&c, &d), (&refr.0, &refr.1), "elements, k={k}");
            assert_eq!(mach.stats(), &refr.2, "Stats, k={k}");
            assert_eq!(mach.take_trace().digest(), refr.3, "digest, k={k}");
            (mach.time(), *mach.fault_stats())
        };
        let (time, faults) = run();
        assert_eq!(faults.quarantined_units, 1, "k={k}");
        assert_eq!(
            faults.requeued_ops, 4,
            "k={k}: the whole torn chain re-runs"
        );
        assert_eq!(run(), (time, faults), "replay, k={k}");
    }
}

/// A serial run makes one attempt per op and quarantines nothing, so an
/// executor panic comes back as a typed error instead of unwinding
/// through `try_run`, on unit 0 in the failing op's wave: a foreign
/// panic or an injected permanent fault as `UnitFault`, an injected
/// transient as `RetriesExhausted` after its one attempt. Charges
/// precede execution, so each failed run holds the whole stream's
/// charge (named deviation 1): the fault-free run's `Stats` and digest,
/// with the fault only in one digest-exempt annotation.
#[test]
fn serial_executor_panic_fails_typed() {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let (g, bufs) = random_graph(3);
    let plan = Scheduler::new().plan(&g, &unit);
    // `try_run` on fresh outputs, any panic it lets through caught.
    fn run<E: Executor>(
        g: &OpGraph,
        bufs: &Bufs,
        plan: &Schedule,
        ser: &mut TcuMachine<ModelTensorUnit, E>,
    ) -> std::thread::Result<Result<(), TcuError>> {
        let (a, b) = (pseudo(DIM, DIM, 3), pseudo(DIM, DIM, 4));
        let (mut c, mut d) = (
            Matrix::<i64>::zeros(DIM, DIM),
            Matrix::<i64>::zeros(DIM, DIM),
        );
        let mut env = ExecEnv::new(g);
        env.try_bind_input(bufs.a, a.view()).unwrap();
        env.try_bind_input(bufs.b, b.view()).unwrap();
        env.try_bind_output(bufs.c, c.view_mut()).unwrap();
        env.try_bind_output(bufs.d, d.view_mut()).unwrap();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.try_run(ser, &mut env)))
    }

    let mut ser = TcuMachine::with_executor(unit, BuggyExecutor::default());
    ser.executor_mut().panic_at = Some(0);
    let result = run(&g, &bufs, &plan, &mut ser);
    assert!(
        matches!(result, Ok(Err(TcuError::UnitFault { unit: 0, wave: 0 }))),
        "expected a typed UnitFault, got {result:?}"
    );
    assert_eq!(ser.stats().tensor_calls, plan.invocations());

    silence_injected_fault_panics();
    let (.., stats_ref, digest_ref) = serial_reference(&g, &bufs, 3);
    for kind in [FaultKind::Transient, FaultKind::Permanent] {
        let exec = FaultyExecutor::new(HostExecutor::new(), FaultPlan::none().fail(0, 0, kind));
        let mut ser = TcuMachine::with_executor(unit, exec);
        ser.enable_trace();
        let result = run(&g, &bufs, &plan, &mut ser);
        let transient = kind == FaultKind::Transient;
        if transient {
            assert!(
                matches!(
                    result,
                    Ok(Err(TcuError::RetriesExhausted {
                        unit: 0,
                        attempts: 1,
                        ..
                    }))
                ),
                "expected RetriesExhausted after one attempt, got {result:?}"
            );
        } else {
            assert!(
                matches!(result, Ok(Err(TcuError::UnitFault { unit: 0, .. }))),
                "expected a typed UnitFault, got {result:?}"
            );
        }
        assert_eq!(ser.stats(), &stats_ref, "{kind:?}: the full charge");
        let trace = ser.take_trace();
        assert_eq!(
            trace.digest(),
            digest_ref,
            "{kind:?}: the fault-free digest"
        );
        assert_eq!(
            trace.fault_events(),
            vec![TraceEvent::Fault { unit: 0, transient }],
            "{kind:?}: one fault annotation"
        );
    }
}
