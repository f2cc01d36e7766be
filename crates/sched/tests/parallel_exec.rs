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

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcu_core::{
    ModelTensorUnit, PackCacheStats, PadPolicy, ParallelTcuMachine, TcuMachine, TensorOp,
};
use tcu_linalg::Matrix;
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Scheduler};

const DIM: usize = 32;
const SQRT_M: usize = 8;
const UNIT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Buffer handles of the shared 4-buffer layout (A, B inputs; C, D
/// read-write, all `DIM × DIM`) — the same layout the scheduler
/// determinism suite generates over.
struct Bufs {
    a: BufferId,
    b: BufferId,
    c: BufferId,
    d: BufferId,
}

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
        // A third of the ops stream one read-write buffer and update
        // the other, turning the batch into a RAW/WAR pipeline.
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
        prop_assert_eq!(time, plan.dataflow_makespan());
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
