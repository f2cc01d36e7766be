//! Chaos suite: the recovery contract of the parallel driver under
//! deterministic fault injection.
//!
//! For random RAW-pipeline graphs (the same generator as the
//! thread-count-invariance suite) and every unit count in {1, 2, 4, 8},
//! a seeded *recoverable* [`FaultPlan`] — transient faults never
//! consecutive on a unit, permanent faults on at most `units − 1` units
//! — must leave the run's *elements*, *Stats*, and *trace digest*
//! byte-identical to the fault-free run. Recovery is observable only in
//! `time()` (retry backoff, recovery-pass makespans), in
//! [`FaultStats`], and in the digest-exempt fault/retry/quarantine trace
//! annotations — and those must replay. Every run's executors sleep a
//! salted pseudo-random 0–50 µs before each execution, so replays of
//! one plan under different salts interleave the worker threads
//! differently, and they must agree on the clock, the counters, the
//! *ordered* fault trace, and every unit's pack-cache counters. Seeded
//! plans draw their fault indices from a horizon derived from the
//! plan's per-unit op count, so permanent faults land inside a unit's
//! executions and quarantine actually happens.
//!
//! Unrecoverable plans must come back as typed [`TcuError`]s — never a
//! panic, never an abort — under every salt.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tcu_core::{
    assign_unit_ids, silence_injected_fault_panics, Executor, FaultKind, FaultPlan, FaultStats,
    FaultyExecutor, HostExecutor, ModelTensorUnit, OperandId, PackCacheStats, PadPolicy,
    ParallelTcuMachine, RecoveryPolicy, TcuError, TcuMachine, TensorOp, TraceLog,
};
use tcu_linalg::{Matrix, MatrixView, MatrixViewMut, Scalar};
use tcu_obs::{EventKind, Lane, ObsSink};
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const DIM: usize = 32;
const SQRT_M: usize = 8;
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

type JitteredMachine = ParallelTcuMachine<ModelTensorUnit, FaultyExecutor<Jittered>>;

/// A traced `units`-unit machine whose every unit injects from `fplan`
/// around a jittered host executor with a 16-strip pack cache; unit
/// `u`'s sleeps are drawn from `salt` and `u`.
fn jittered_machine(
    unit: ModelTensorUnit,
    units: usize,
    fplan: FaultPlan,
    salt: u64,
) -> JitteredMachine {
    let exec = FaultyExecutor::new(Jittered::default(), fplan);
    let mut mach = ParallelTcuMachine::with_executor(unit, units, exec);
    assign_unit_ids(&mut mach);
    for u in 0..units {
        let jittered = mach.unit_executor_mut(u).inner_mut();
        jittered.host.enable_pack_cache(16);
        jittered.state = salt.wrapping_mul(0xA076_1D64_78BD_642F) ^ u as u64;
    }
    mach.enable_trace();
    mach
}

/// Execution indices seeded plans draw faults from: a unit's share of
/// the plan's ops, so a planned permanent fault usually lands before the
/// unit runs out of work.
fn horizon(plan: &Schedule) -> u64 {
    plan.ops().div_ceil(plan.units()) as u64
}

/// Buffer handles of the shared 4-buffer layout (A, B inputs; C, D
/// read-write) the generator records over.
struct Bufs {
    a: BufferId,
    b: BufferId,
    c: BufferId,
    d: BufferId,
}

/// The RAW-pipeline generator of the thread-count-invariance suite —
/// chaos injection must hold on the same population of graphs.
fn random_graph(seed: u64) -> (OpGraph, Bufs) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut g = OpGraph::new();
    let bufs = Bufs {
        a: g.buffer("A", DIM, DIM),
        b: g.buffer("B", DIM, DIM),
        c: g.buffer("C", DIM, DIM),
        d: g.buffer("D", DIM, DIM),
    };
    let n = rng.gen_range(4..24usize);
    for _ in 0..n {
        let rows = 16usize;
        let inner = *[4usize, 8].get(rng.gen_range(0..2usize)).unwrap();
        let width = *[4usize, 8].get(rng.gen_range(0..2usize)).unwrap();
        let a_r0 = 16 * rng.gen_range(0..=1usize);
        let a_c0 = 4 * rng.gen_range(0..=(DIM - inner) / 4);
        let b_r0 = 4 * rng.gen_range(0..=(DIM - inner) / 4);
        let b_c0 = 4 * rng.gen_range(0..=(DIM - width) / 4);
        let (a_buf, out_buf) = if rng.gen_range(0..3u32) == 0 {
            if rng.gen_range(0..2u32) == 0 {
                (bufs.c, bufs.d)
            } else {
                (bufs.d, bufs.c)
            }
        } else {
            let out = if rng.gen_range(0..2u32) == 0 {
                bufs.c
            } else {
                bufs.d
            };
            (bufs.a, out)
        };
        let out_r0 = 16 * rng.gen_range(0..=1usize);
        let out_c0 = 4 * rng.gen_range(0..=(DIM - width) / 4);
        g.record(
            TensorOp {
                rows,
                inner,
                width,
                accumulate: rng.gen_range(0..4u32) != 0,
                pad: PadPolicy::ZeroPad,
            },
            OperandRef::new(a_buf, a_r0, a_c0, rows, inner),
            OperandRef::new(bufs.b, b_r0, b_c0, inner, width),
            OperandRef::new(out_buf, out_r0, out_c0, rows, width),
        );
    }
    (g, bufs)
}

fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

/// Everything one faulty parallel run observes.
struct ChaosRun {
    result: Result<(), TcuError>,
    c: Matrix<i64>,
    d: Matrix<i64>,
    stats: tcu_core::Stats,
    trace: TraceLog,
    time: u64,
    fault_stats: FaultStats,
    caches: Vec<PackCacheStats>,
}

impl ChaosRun {
    /// What `mach` observed after a run that returned `result` and left
    /// `c` and `d` in the two written buffers.
    fn observe(
        result: Result<(), TcuError>,
        c: Matrix<i64>,
        d: Matrix<i64>,
        mach: &mut JitteredMachine,
    ) -> Self {
        Self {
            result,
            c,
            d,
            stats: mach.stats().clone(),
            time: mach.time(),
            fault_stats: *mach.fault_stats(),
            trace: mach.take_trace(),
            caches: (0..mach.units())
                .map(|u| {
                    let host = &mach.unit_executor(u).inner().host;
                    host.pack_cache_stats().expect("cache on")
                })
                .collect(),
        }
    }
}

/// One `try_run_parallel_with` execution (steal seed 0) on a fresh
/// jittered machine of the plan's unit count whose every unit executor
/// injects from `fplan`.
fn run_faulty(
    g: &OpGraph,
    bufs: &Bufs,
    plan: &Schedule,
    seed: u64,
    fplan: FaultPlan,
    policy: RecoveryPolicy,
    salt: u64,
) -> ChaosRun {
    silence_injected_fault_panics();
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let mut mach = jittered_machine(unit, plan.units(), fplan, salt);
    let a = pseudo(DIM, DIM, seed as i64);
    let b = pseudo(DIM, DIM, seed as i64 + 1);
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let mut env = ExecEnv::new(g);
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    env.bind_output(bufs.d, d.view_mut());
    let result = plan.try_run_parallel_with(&mut mach, &mut env, policy, Default::default());
    drop(env);
    ChaosRun::observe(result, c, d, &mut mach)
}

/// The fault-free serial scheduled reference: elements, Stats, trace.
fn serial_reference(
    g: &OpGraph,
    bufs: &Bufs,
    seed: u64,
) -> (Matrix<i64>, Matrix<i64>, tcu_core::Stats, TraceLog) {
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
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    env.bind_output(bufs.d, d.view_mut());
    plan.run(&mut ser, &mut env);
    drop(env);
    (c, d, ser.stats().clone(), ser.take_trace())
}

/// Two runs observed the same recovery: identical elements, `Stats`,
/// digest, clock, fault counters, *ordered* fault trace, and per-unit
/// pack-cache counters.
fn assert_same_recovery(x: &ChaosRun, y: &ChaosRun, what: &str) {
    prop_assert_eq!(&x.result, &y.result, "result: {}", what);
    prop_assert_eq!((&x.c, &x.d), (&y.c, &y.d), "elements: {}", what);
    prop_assert_eq!(&x.stats, &y.stats, "Stats: {}", what);
    prop_assert_eq!(x.trace.digest(), y.trace.digest(), "digest: {}", what);
    prop_assert_eq!(x.time, y.time, "time(): {}", what);
    prop_assert_eq!(x.fault_stats, y.fault_stats, "fault_stats(): {}", what);
    prop_assert_eq!(
        x.trace.fault_events(),
        y.trace.fault_events(),
        "ordered fault trace: {}",
        what
    );
    prop_assert_eq!(&x.caches, &y.caches, "pack-cache counters: {}", what);
}

/// The recovery contract at every unit count under one seeded plan.
fn check_recovery_unobservable(seed: u64) {
    let (g, bufs) = random_graph(seed);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let (c_ref, d_ref, stats_ref, trace_ref) = serial_reference(&g, &bufs, seed);

    for units in UNIT_COUNTS {
        let plan = Scheduler::new().with_units(units).plan(&g, &unit);
        // Recoverable by construction: no consecutive transients, at
        // most units − 1 permanent victims (and none at 1 unit).
        let fplan = FaultPlan::seeded(seed ^ 0xC44F, units, horizon(&plan), 150, units / 2);
        let policy = RecoveryPolicy::default();
        let runs =
            SALTS.map(|salt| run_faulty(&g, &bufs, &plan, seed, fplan.clone(), policy, salt));
        for (run, salt) in runs.iter().zip(SALTS) {
            let what = format!("{units} units, salt {salt}");
            prop_assert!(
                run.result.is_ok(),
                "recoverable plan failed ({}): {:?}",
                what,
                run.result
            );

            // The contract: elements, Stats, digest byte-identical to the
            // fault-free run; the scheduled events (faults stripped) are
            // the fault-free trace exactly.
            prop_assert_eq!(&run.c, &c_ref, "elements (C): {}", what);
            prop_assert_eq!(&run.d, &d_ref, "elements (D): {}", what);
            prop_assert_eq!(&run.stats, &stats_ref, "Stats: {}", what);
            prop_assert_eq!(run.trace.digest(), trace_ref.digest());
            prop_assert_eq!(
                run.trace.without_faults().events(),
                trace_ref.events(),
                "scheduled events: {}",
                what
            );

            // Recovery cost is visible where it should be: the clock is
            // the placement makespan plus exactly what the fault
            // counters say recovery charged.
            let charged = run.fault_stats.backoff_time + run.fault_stats.recovery_makespan;
            prop_assert_eq!(run.time, plan.dataflow_makespan_seeded(0) + charged);
            let saw_faults =
                run.fault_stats.transient_faults + run.fault_stats.permanent_faults > 0;
            prop_assert_eq!(
                !run.trace.fault_events().is_empty(),
                saw_faults,
                "fault annotations iff faults fired: {}",
                what
            );

            // Replay: the same plan under another interleaving gives the
            // same recovery, clock and ordered fault trace included.
            assert_same_recovery(run, &runs[0], &format!("replay, {what}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random RAW pipelines × seeded recoverable fault plans at
    // 1/2/4/8 units × jitter salts: recovery must be unobservable in
    // elements, Stats, and digest, and the clock, counters, ordered
    // fault trace, and cache counters must replay exactly under every
    // interleaving.
    #[test]
    fn recoverable_faults_are_unobservable_and_replayable(seed in 0u64..10_000) {
        check_recovery_unobservable(seed);
    }
}

/// The plan-derived horizon is what makes the suite exercise recovery:
/// across seeds, most multi-unit runs must quarantine a unit, and some
/// must lose two or more.
#[test]
fn seeded_plans_quarantine_most_multi_unit_runs() {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let (mut runs, mut quarantined, mut multiple) = (0u32, 0u32, 0u32);
    for seed in 0..40u64 {
        let (g, bufs) = random_graph(seed);
        for units in [2usize, 4, 8] {
            let plan = Scheduler::new().with_units(units).plan(&g, &unit);
            let fplan = FaultPlan::seeded(seed ^ 0xC44F, units, horizon(&plan), 150, units / 2);
            let policy = RecoveryPolicy::default();
            let run = run_faulty(&g, &bufs, &plan, seed, fplan, policy, SALTS[0]);
            assert!(run.result.is_ok(), "{:?}", run.result);
            runs += 1;
            quarantined += u32::from(run.fault_stats.quarantined_units > 0);
            multiple += u32::from(run.fault_stats.quarantined_units > 1);
        }
    }
    assert!(
        2 * quarantined > runs,
        "only {quarantined} of {runs} multi-unit runs quarantined a unit"
    );
    assert!(multiple > 0, "no run quarantined two units");
}

/// A fixed graph of two independent ops (disjoint outputs), enough to
/// occupy two units or quarantine down to one.
fn two_op_graph() -> (OpGraph, Bufs) {
    let mut g = OpGraph::new();
    let bufs = Bufs {
        a: g.buffer("A", DIM, DIM),
        b: g.buffer("B", DIM, DIM),
        c: g.buffer("C", DIM, DIM),
        d: g.buffer("D", DIM, DIM),
    };
    for (r0, c0) in [(0usize, 0usize), (16, 16)] {
        g.record(
            TensorOp::mul(16, 8),
            OperandRef::new(bufs.a, r0, 0, 16, 8),
            OperandRef::new(bufs.b, 0, c0, 8, 8),
            OperandRef::new(bufs.c, r0, c0, 16, 8),
        );
    }
    (g, bufs)
}

fn plan_at(g: &OpGraph, units: usize) -> Schedule {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    Scheduler::new().with_units(units).plan(g, &unit)
}

#[test]
fn exhausted_retries_fail_typed_not_panicking() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 1);
    // Transient on three consecutive executions of unit 0: attempts
    // 1, 2, 3 of the first op all fault — max_attempts = 3 exhausted.
    let fplan = FaultPlan::none()
        .fail(0, 0, FaultKind::Transient)
        .fail(0, 1, FaultKind::Transient)
        .fail(0, 2, FaultKind::Transient);
    for salt in SALTS {
        let policy = RecoveryPolicy::default();
        let run = run_faulty(&g, &bufs, &plan, 3, fplan.clone(), policy, salt);
        match run.result {
            Err(TcuError::RetriesExhausted { unit, attempts, .. }) => {
                assert_eq!(unit, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // Nothing committed: the failed op's destination is untouched.
        assert_eq!(run.c, Matrix::<i64>::zeros(DIM, DIM));
    }
}

#[test]
fn raising_max_attempts_recovers_the_same_plan() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 1);
    let fplan = FaultPlan::none()
        .fail(0, 0, FaultKind::Transient)
        .fail(0, 1, FaultKind::Transient)
        .fail(0, 2, FaultKind::Transient);
    let policy = RecoveryPolicy {
        max_attempts: 4,
        quarantine: true,
    };
    let (c_ref, ..) = serial_reference(&g, &bufs, 3);
    for salt in SALTS {
        let run = run_faulty(&g, &bufs, &plan, 3, fplan.clone(), policy, salt);
        assert!(run.result.is_ok(), "{:?}", run.result);
        assert_eq!(run.fault_stats.transient_faults, 3);
        assert_eq!(run.fault_stats.retries, 3);
        assert_eq!(run.c, c_ref);
    }
}

#[test]
fn all_units_quarantined_fails_typed_not_hanging() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 2);
    // Every unit dies on its first execution: quarantine empties the
    // survivor set with work still pending.
    let fplan = FaultPlan::none()
        .fail(0, 0, FaultKind::Permanent)
        .fail(1, 0, FaultKind::Permanent);
    let (_, _, stats_ref, _) = serial_reference(&g, &bufs, 5);
    for salt in SALTS {
        let policy = RecoveryPolicy::default();
        let run = run_faulty(&g, &bufs, &plan, 5, fplan.clone(), policy, salt);
        match run.result {
            Err(TcuError::AllUnitsQuarantined { pending, .. }) => assert_eq!(pending, 2),
            other => panic!("expected AllUnitsQuarantined, got {other:?}"),
        }
        // Named deviation: charges are recorded up front, so the failed
        // run still carries the whole schedule's Stats.
        assert_eq!(run.stats, stats_ref);
    }
}

#[test]
fn quarantine_off_makes_permanent_faults_fatal() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 2);
    let fplan = FaultPlan::none().fail(0, 0, FaultKind::Permanent);
    let policy = RecoveryPolicy {
        max_attempts: 3,
        quarantine: false,
    };
    for salt in SALTS {
        let run = run_faulty(&g, &bufs, &plan, 5, fplan.clone(), policy, salt);
        match run.result {
            Err(TcuError::UnitFault { unit, .. }) => assert_eq!(unit, 0),
            other => panic!("expected UnitFault, got {other:?}"),
        }
    }
}

#[test]
fn single_dead_unit_is_quarantined_and_survivors_finish() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 2);
    let fplan = FaultPlan::none().fail(0, 0, FaultKind::Permanent);
    let (c_ref, _, stats_ref, trace_ref) = serial_reference(&g, &bufs, 5);
    for salt in SALTS {
        let policy = RecoveryPolicy::default();
        let run = run_faulty(&g, &bufs, &plan, 5, fplan.clone(), policy, salt);
        assert!(run.result.is_ok(), "{:?}", run.result);
        assert_eq!(run.fault_stats.quarantined_units, 1);
        assert_eq!(run.fault_stats.permanent_faults, 1);
        assert_eq!(run.fault_stats.requeued_ops, 1);
        assert_eq!(run.c, c_ref, "survivor-executed elements must match");
        assert_eq!(run.stats, stats_ref);
        assert_eq!(run.trace.digest(), trace_ref.digest());
        // The recovery pass re-runs the dead unit's op on the survivor:
        // its cost is charged on top of the placement makespan.
        assert_eq!(run.fault_stats.recovery_makespan, 16 * SQRT_M as u64 + 13);
        assert_eq!(
            run.time,
            plan.dataflow_makespan_seeded(0) + 16 * SQRT_M as u64 + 13
        );
    }
}

#[test]
fn bind_errors_are_typed() {
    let (g, bufs) = two_op_graph();
    let wrong = Matrix::<i64>::zeros(DIM, DIM - 1);
    let mut env = ExecEnv::<i64>::new(&g);
    match env.try_bind_input(bufs.b, wrong.view()) {
        Err(TcuError::BindShape { expected, got, .. }) => {
            assert_eq!(expected, (DIM, DIM));
            assert_eq!(got, (DIM, DIM - 1));
        }
        other => panic!("expected BindShape, got {other:?}"),
    }
    // C is written by the graph: binding it read-only is typed too.
    let a = Matrix::<i64>::zeros(DIM, DIM);
    match env.try_bind_input(bufs.c, a.view()) {
        Err(TcuError::BindWrittenAsInput { buffer }) => assert_eq!(buffer, bufs.c.index()),
        other => panic!("expected BindWrittenAsInput, got {other:?}"),
    }
}

#[test]
fn unbound_buffers_fail_typed_in_try_run() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 1);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let mut ser = TcuMachine::new(unit);
    let a = pseudo(DIM, DIM, 0);
    let mut env = ExecEnv::new(&g);
    env.bind_input(bufs.a, a.view());
    // B never bound, C (the output) never bound: first touch reports.
    match plan.try_run(&mut ser, &mut env) {
        Err(TcuError::Unbound { .. }) => {}
        other => panic!("expected Unbound, got {other:?}"),
    }
}

/// A serial run validates every binding before it charges or writes:
/// `C = A·B`, then (a later wave) `C += D·B` with `D` left unbound.
/// The run fails typed on `D`, the first op never runs, and nothing is
/// charged.
#[test]
fn try_run_rejects_a_later_unbound_read_before_running_anything() {
    let mut g = OpGraph::new();
    let bufs = Bufs {
        a: g.buffer("A", DIM, DIM),
        b: g.buffer("B", DIM, DIM),
        c: g.buffer("C", DIM, DIM),
        d: g.buffer("D", DIM, DIM),
    };
    let strip = |buf| OperandRef::new(buf, 0, 0, DIM, SQRT_M);
    let weights = OperandRef::new(bufs.b, 0, 0, SQRT_M, SQRT_M);
    g.record(
        TensorOp::mul(DIM, SQRT_M),
        strip(bufs.a),
        weights,
        strip(bufs.c),
    );
    g.record(
        TensorOp::mul_acc(DIM, SQRT_M),
        strip(bufs.d),
        weights,
        strip(bufs.c),
    );
    let plan = plan_at(&g, 1);
    assert_eq!(plan.waves(), 2, "the unbound read sits in a later wave");
    let mut ser = TcuMachine::new(ModelTensorUnit::new(SQRT_M * SQRT_M, 13));
    let (a, b) = (pseudo(DIM, DIM, 1), pseudo(DIM, DIM, 2));
    let mut c = Matrix::from_fn(DIM, DIM, |_, _| 7i64);
    let mut env = ExecEnv::new(&g);
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    let result = plan.try_run(&mut ser, &mut env);
    drop(env);
    assert_eq!(
        result,
        Err(TcuError::Unbound {
            buffer: bufs.d.index(),
            written: false
        })
    );
    assert_eq!(c, Matrix::from_fn(DIM, DIM, |_, _| 7i64), "C untouched");
    assert_eq!(ser.stats(), &tcu_core::Stats::default(), "nothing charged");
}

/// The chaos example's two-stage pipeline, `M = A·B` then `C = M·B`:
/// every stage-1 strip of `M` is an accumulation chain that stage-2
/// strips read.
fn pipeline_graph(d: usize, s: usize) -> (OpGraph, Bufs) {
    let mut g = OpGraph::new();
    let bufs = Bufs {
        a: g.buffer("A", d, d),
        b: g.buffer("B", d, d),
        c: g.buffer("M", d, d),
        d: g.buffer("C", d, d),
    };
    let q = d / s;
    for (src, dst) in [(bufs.a, bufs.c), (bufs.c, bufs.d)] {
        for j in 0..q {
            for k in 0..q {
                g.record(
                    TensorOp::mul_acc(d, s),
                    OperandRef::new(src, 0, k * s, d, s),
                    OperandRef::new(bufs.b, k * s, j * s, s, s),
                    OperandRef::new(dst, 0, j * s, d, s),
                );
            }
        }
    }
    (g, bufs)
}

/// The chaos example's pipeline: d = 128, √m = 16, ℓ = 10000, 4 units.
struct ExamplePipeline {
    g: OpGraph,
    bufs: Bufs,
    unit: ModelTensorUnit,
    plan: Schedule,
}

impl ExamplePipeline {
    const D: usize = 128;
    const UNITS: usize = 4;

    fn new() -> Self {
        let s = 16;
        let (g, bufs) = pipeline_graph(Self::D, s);
        let unit = ModelTensorUnit::new(s * s, 10_000);
        let plan = Scheduler::new().with_units(Self::UNITS).plan(&g, &unit);
        Self {
            g,
            bufs,
            unit,
            plan,
        }
    }

    /// The example's seeded fault plan: one permanent victim.
    fn faults() -> FaultPlan {
        FaultPlan::seeded(0xDECAF, Self::UNITS, 24, 60, 1)
    }

    /// One `try_run_parallel` on a fresh jittered machine injecting from
    /// `fplan`, observed through `sink` when one is given.
    fn run(&self, fplan: FaultPlan, salt: u64, sink: Option<Arc<ObsSink>>) -> ChaosRun {
        let d = Self::D;
        let mut mach = jittered_machine(self.unit, Self::UNITS, fplan, salt);
        let (a, b) = (pseudo(d, d, 1), pseudo(d, d, 2));
        let (mut m, mut c) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&self.g);
        if let Some(sink) = sink {
            env.enable_recorder(sink);
        }
        env.bind_input(self.bufs.a, a.view());
        env.bind_input(self.bufs.b, b.view());
        env.bind_output(self.bufs.c, m.view_mut());
        env.bind_output(self.bufs.d, c.view_mut());
        let result = self.plan.try_run_parallel(&mut mach, &mut env);
        drop(env);
        ChaosRun::observe(result, m, c, &mut mach)
    }
}

/// The chaos example's pipeline under its seeded plan. The dead unit's
/// removed suffix cuts chains whose units survive, so the threaded
/// executor finishes the pass only by flushing their completed
/// prefixes. Every salt's run must recover byte-identically to the
/// fault-free run, and all must agree.
#[test]
fn cut_chains_flush_and_recover_like_the_fault_free_run() {
    silence_injected_fault_panics();
    let pipeline = ExamplePipeline::new();
    let run = |fplan: FaultPlan, salt: u64| pipeline.run(fplan, salt, None);
    let clean = run(FaultPlan::none(), SALTS[0]);
    assert!(clean.result.is_ok(), "{:?}", clean.result);
    let fplan = ExamplePipeline::faults();
    let runs = SALTS.map(|salt| run(fplan.clone(), salt));
    for (x, salt) in runs.iter().zip(SALTS) {
        let what = format!("salt {salt}");
        assert!(x.result.is_ok(), "{what}: {:?}", x.result);
        assert_eq!(x.fault_stats.quarantined_units, 1, "{what}");
        assert_eq!((&x.c, &x.d), (&clean.c, &clean.d), "elements: {what}");
        assert_eq!(x.stats, clean.stats, "Stats: {what}");
        assert_eq!(x.trace.digest(), clean.trace.digest(), "digest: {what}");
        assert_eq!(
            x.time,
            clean.time + x.fault_stats.backoff_time + x.fault_stats.recovery_makespan,
            "{what}"
        );
        assert_same_recovery(x, &runs[0], &format!("replay, {what}"));
    }
}

/// The same recovery with a warm buffer pool: a second run on the
/// thread of the first takes its accumulators and snapshots from the
/// buffers the first left, and must recover exactly as the cold run
/// did — the flushed prefixes of cut chains included.
#[test]
fn a_warm_pool_recovers_like_a_cold_one() {
    silence_injected_fault_panics();
    let pipeline = ExamplePipeline::new();
    let (cold, warm, first_reused) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let cold = pipeline.run(ExamplePipeline::faults(), SALTS[0], None);
                let sink = Arc::new(ObsSink::new());
                let warm = pipeline.run(ExamplePipeline::faults(), SALTS[0], Some(sink.clone()));
                let first_reused =
                    sink.lane_events(Lane::Scheduler)
                        .iter()
                        .find_map(|e| match e.kind {
                            EventKind::ScratchAcquire { reused, .. } => Some(reused),
                            _ => None,
                        });
                (cold, warm, first_reused)
            })
            .join()
            .expect("both runs return")
    });
    assert!(cold.result.is_ok(), "{:?}", cold.result);
    assert_eq!(cold.fault_stats.quarantined_units, 1);
    assert_eq!(
        first_reused,
        Some(true),
        "the warm run starts from the pool"
    );
    assert_same_recovery(&warm, &cold, "warm pool vs cold");
}
