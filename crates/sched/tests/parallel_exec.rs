//! Thread-count invariance of the multi-unit parallel driver.
//!
//! `Schedule::try_run_parallel` executes its per-unit queues on real
//! threads, one per unit, so these properties pin the
//! determinism contract the driver claims: for random RAW-pipeline graphs and every unit count
//! in {1, 2, 4, 8}, the parallel run's *elements*, *Stats*, *trace*
//! (events and digest), and aggregate pack-cache counters must be
//! byte-identical to the serial scheduled run — and re-running at the
//! same unit count must reproduce the per-unit pack-cache counters
//! exactly (cache behaviour may depend on placement, never on thread
//! timing).

mod graphs;

use graphs::{random_graph, Bufs, DIM, SQRT_M};
use proptest::prelude::*;
use tcu_core::{
    ModelTensorUnit, PackCacheStats, ParallelTcuMachine, TcuMachine, TensorOp, WeakTensorUnit,
};
use tcu_linalg::Matrix;
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Scheduler};

const UNIT_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

/// One `try_run_parallel` execution on fresh machine + environment:
/// returns the written buffers, Stats, trace, wall-clock, and the
/// per-unit pack-cache counters.
#[allow(clippy::type_complexity)]
fn run_at(
    g: &OpGraph,
    bufs: &Bufs,
    plan: &tcu_sched::Schedule,
    units: usize,
    seed: u64,
) -> (
    Matrix<i64>,
    Matrix<i64>,
    tcu_core::Stats,
    tcu_core::TraceLog,
    u64,
    Vec<PackCacheStats>,
) {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let mut mach = ParallelTcuMachine::new(unit, units);
    mach.enable_pack_caches(16);
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
    plan.try_run_parallel(&mut mach, &mut env).unwrap();
    let time = mach.time();
    let caches = (0..units)
        .map(|u| mach.unit_executor(u).pack_cache_stats().expect("cache on"))
        .collect();
    (c, d, mach.stats().clone(), mach.take_trace(), time, caches)
}

fn check_thread_count_invariance(seed: u64) {
    let (g, bufs) = random_graph(seed);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);

    // Serial scheduled reference: same data, one TcuMachine.
    let plan1 = Scheduler::new().plan(&g, &unit);
    let mut ser = TcuMachine::new(unit);
    ser.executor_mut().enable_pack_cache(16);
    ser.enable_trace();
    let a = pseudo(DIM, DIM, seed as i64);
    let b = pseudo(DIM, DIM, seed as i64 + 1);
    let (mut c_ref, mut d_ref) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let mut env = ExecEnv::new(&g);
    env.try_bind_input(bufs.a, a.view()).unwrap();
    env.try_bind_input(bufs.b, b.view()).unwrap();
    env.try_bind_output(bufs.c, c_ref.view_mut()).unwrap();
    env.try_bind_output(bufs.d, d_ref.view_mut()).unwrap();
    plan1.try_run(&mut ser, &mut env).unwrap();
    let trace_ref = ser.take_trace();

    for units in UNIT_COUNTS {
        let plan = Scheduler::new().with_units(units).plan(&g, &unit);
        let (c, d, stats, trace, time, caches) = run_at(&g, &bufs, &plan, units, seed);

        // Elements, Stats, trace events (strictly stronger than the
        // digest) and the digest itself all match the serial run.
        prop_assert_eq!(&c, &c_ref, "elements (C) at {} units", units);
        prop_assert_eq!(&d, &d_ref, "elements (D) at {} units", units);
        prop_assert_eq!(&stats, ser.stats(), "Stats at {} units", units);
        prop_assert_eq!(
            trace.events(),
            trace_ref.events(),
            "trace at {} units",
            units
        );
        prop_assert_eq!(trace.digest(), trace_ref.digest());
        // Wall-clock is the placement's planned multi-unit wall, and
        // every invocation consulted exactly one unit's cache.
        prop_assert_eq!(time, plan.makespan());
        let lookups: u64 = caches.iter().map(|s| s.lookups).sum();
        prop_assert_eq!(lookups, plan.invocations());

        // Determinism across repeats: a second run at the same unit
        // count reproduces every unit's cache counters exactly (fresh
        // epochs change the tags, never the hit/miss pattern).
        let (c2, d2, stats2, trace2, _, caches2) = run_at(&g, &bufs, &plan, units, seed);
        prop_assert_eq!((c2, d2), (c, d));
        prop_assert_eq!(stats2, stats);
        prop_assert_eq!(trace2.events(), trace.events());
        prop_assert_eq!(
            caches2,
            caches,
            "per-unit cache counters at {} units",
            units
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The parallel driver's full determinism contract over random RAW
    // pipelines at 1/2/4/8 units.
    #[test]
    fn parallel_waves_are_byte_identical_across_unit_counts(seed in 0u64..10_000) {
        check_thread_count_invariance(seed);
    }
}

/// The planned-makespan monotonicity the bench gate relies on: more
/// units can only shrink the planned wall-clock, while tensor work is
/// invariant (a fixed check complementing the proptest's per-seed
/// equalities).
#[test]
fn more_units_never_slow_the_plan() {
    let (g, _) = random_graph(7);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let mut prev = u64::MAX;
    for units in UNIT_COUNTS {
        let plan = Scheduler::new().with_units(units).plan(&g, &unit);
        assert!(
            plan.makespan() <= prev,
            "{units} units regressed the makespan"
        );
        prev = plan.makespan();
    }
}

/// One 64-row `mul` on a weak unit is one chain of four square
/// invocations, and the queue that runs it is one unit's: `time()` is
/// that queue's 4 · (16·16 + 5) = 1044. A per-invocation wave partition
/// spread the invocations over both units and charged 522 while one
/// unit ran all of them.
#[test]
fn a_tall_op_on_a_weak_unit_is_charged_the_queue_that_runs_it() {
    let mut g = OpGraph::new();
    let ab = g.buffer("A", 64, 16);
    let bb = g.buffer("B", 16, 16);
    let cb = g.buffer("C", 64, 16);
    g.record(
        TensorOp::mul(64, 16),
        OperandRef::new(ab, 0, 0, 64, 16),
        OperandRef::new(bb, 0, 0, 16, 16),
        OperandRef::new(cb, 0, 0, 64, 16),
    );
    let unit = WeakTensorUnit::new(256, 5);
    let plan = Scheduler::new().with_units(2).plan(&g, &unit);
    assert_eq!(plan.invocations(), 4);
    assert_eq!(plan.makespan(), 1044);

    let a = Matrix::from_fn(64, 16, |i, j| (i * 16 + j) as i64 % 7 - 3);
    let b = Matrix::from_fn(16, 16, |i, j| (i + 2 * j) as i64 % 5 - 2);
    let mut c = Matrix::<i64>::zeros(64, 16);
    let mut par = ParallelTcuMachine::new(unit, 2);
    let mut env = ExecEnv::new(&g);
    env.try_bind_input(ab, a.view()).unwrap();
    env.try_bind_input(bb, b.view()).unwrap();
    env.try_bind_output(cb, c.view_mut()).unwrap();
    plan.try_run_parallel(&mut par, &mut env).unwrap();
    drop(env);
    assert_eq!(par.time(), 1044);
    assert_eq!(par.time(), plan.makespan());
    assert_eq!(c, tcu_linalg::ops::matmul_naive(&a, &b));
}
