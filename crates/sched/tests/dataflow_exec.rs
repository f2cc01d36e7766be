//! Determinism contract of the barrier-free parallel driver.
//!
//! For random RAW-pipeline graphs (the chaos / thread-count-invariance
//! generator) at every unit count in {1, 2, 4, 8}, both executors —
//! inline and threaded — must be byte-identical to the serial scheduled
//! run in *elements*, *Stats*, and *trace digest*, under every steal
//! seed, under seeded transient fault plans, and under seeded permanent
//! (quarantine) fault plans. The simulated clock must land exactly on
//! [`Schedule::dataflow_makespan_seeded`] plus the charged
//! backoff/recovery, the placement's makespan must never exceed the
//! wave makespan, and the two executors must agree on the clock and the
//! fault counters under every plan. Besides that generator's graphs, a
//! chain-heavy generator records interleaved runs of same-rectangle
//! accumulates, some reading strips other runs write, so the threaded
//! executor's accumulation chains — and their recovery — are common
//! rather than incidental. The one executor-dependent outcome, a
//! foreign executor panic, is pinned by
//! `foreign_panics_recover_threaded_and_fail_inline` and
//! `foreign_panic_inside_a_chain_reruns_the_whole_chain`; a serial run,
//! the inline walk's one-queue case, fails typed on it too
//! (`serial_executor_panic_fails_typed`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcu_core::{
    assign_unit_ids, silence_injected_fault_panics, Executor, FaultPlan, FaultStats,
    FaultyExecutor, HostExecutor, ModelTensorUnit, OperandId, PackCacheStats, PadPolicy,
    ParallelTcuMachine, RecoveryPolicy, TcuError, TcuMachine, TensorOp,
};
use tcu_linalg::Matrix;
use tcu_linalg::{MatrixView, MatrixViewMut, Scalar};
use tcu_sched::{BufferId, DataflowTuning, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const DIM: usize = 32;
const SQRT_M: usize = 8;
const UNIT_COUNTS: [usize; 4] = [1, 2, 4, 8];
const STEAL_SEEDS: [u64; 3] = [0, 1, 0xDEAD];

/// Execution indices seeded fault plans draw from: a unit's share of
/// the plan's ops, so planned faults land inside its executions.
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

/// The RAW-pipeline generator shared with the chaos and thread-count
/// invariance suites — the dataflow contract must hold on the same
/// population of graphs.
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

/// The chain-heavy generator: interleaved runs of `mul_acc` into one
/// 16×8 strip of C or D each (an occasional overwrite among them), whose
/// left operands read A or — one time in three — another strip of C or
/// D, often one another run accumulates into.
fn chain_graph(seed: u64) -> (OpGraph, Bufs) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut g = OpGraph::new();
    let bufs = Bufs {
        a: g.buffer("A", DIM, DIM),
        b: g.buffer("B", DIM, DIM),
        c: g.buffer("C", DIM, DIM),
        d: g.buffer("D", DIM, DIM),
    };
    let (rows, s) = (16usize, SQRT_M);
    let strip = |rng: &mut StdRng| {
        let buf = if rng.gen_range(0..2u32) == 0 {
            bufs.c
        } else {
            bufs.d
        };
        OperandRef::new(
            buf,
            rows * rng.gen_range(0..2usize),
            s * rng.gen_range(0..DIM / s),
            rows,
            s,
        )
    };
    let mut runs: Vec<(OperandRef, usize)> = (0..rng.gen_range(2..6usize))
        .map(|_| (strip(&mut rng), rng.gen_range(2..7usize)))
        .collect();
    while !runs.is_empty() {
        let r = rng.gen_range(0..runs.len());
        let out = runs[r].0;
        let written = strip(&mut rng);
        let a = if rng.gen_range(0..3u32) == 0 && !written.overlaps(&out) {
            written
        } else {
            OperandRef::new(
                bufs.a,
                rows * rng.gen_range(0..2usize),
                s * rng.gen_range(0..DIM / s),
                rows,
                s,
            )
        };
        let b = OperandRef::new(
            bufs.b,
            s * rng.gen_range(0..DIM / s),
            s * rng.gen_range(0..DIM / s),
            s,
            s,
        );
        let op = if rng.gen_range(0..6u32) == 0 {
            TensorOp::mul(rows, s)
        } else {
            TensorOp::mul_acc(rows, s)
        };
        g.record(op, a, b, out);
        runs[r].1 -= 1;
        if runs[r].1 == 0 {
            runs.swap_remove(r);
        }
    }
    (g, bufs)
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
    time: u64,
    fault_stats: FaultStats,
    caches: Vec<PackCacheStats>,
}

/// One `try_run_parallel_with` execution on a fresh machine whose every
/// unit executor injects from `fplan` (`FaultPlan::none()` for a clean
/// run), under an explicit inline/threaded choice and steal seed.
#[allow(clippy::too_many_arguments)]
fn df_run(
    g: &OpGraph,
    bufs: &Bufs,
    plan: &Schedule,
    units: usize,
    seed: u64,
    fplan: FaultPlan,
    steal_seed: u64,
    inline: bool,
) -> DfRun {
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
    let mut env = ExecEnv::new(g);
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    env.bind_output(bufs.d, d.view_mut());
    let tuning = DataflowTuning {
        steal_seed,
        inline: Some(inline),
    };
    let result = plan.try_run_parallel_with(&mut mach, &mut env, RecoveryPolicy::default(), tuning);
    drop(env);
    let caches = (0..units)
        .map(|u| {
            mach.unit_executor(u)
                .inner()
                .pack_cache_stats()
                .expect("cache on")
        })
        .collect();
    DfRun {
        result,
        c,
        d,
        stats: mach.stats().clone(),
        digest: mach.take_trace().digest(),
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
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    env.bind_output(bufs.d, d.view_mut());
    plan.run(&mut ser, &mut env);
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
    steal_seed: u64,
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
        plan.dataflow_makespan_seeded(steal_seed) + charged,
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

        // The placement never loses to the wave schedule, and never
        // beats the model's lower bound.
        let bound = plan
            .critical_path()
            .max(plan.tensor_time().div_ceil(units as u64));
        for ss in STEAL_SEEDS {
            let df = plan.dataflow_makespan_seeded(ss);
            prop_assert!(df <= plan.makespan(), "df beats wave at {units} units");
            prop_assert!(df >= bound, "df under lower bound at {units} units");
        }

        // Fault-free: inline and threaded, every steal seed — byte
        // identical to serial, clock on the placement makespan, and
        // inline vs threaded indistinguishable even in per-unit cache
        // counters (their per-unit op sequences are the same).
        for ss in STEAL_SEEDS {
            let inline = df_run(&g, &bufs, &plan, units, seed, FaultPlan::none(), ss, true);
            let threaded = df_run(&g, &bufs, &plan, units, seed, FaultPlan::none(), ss, false);
            assert_unobservable(
                &inline,
                &refr,
                &plan,
                ss,
                &format!("inline u={units} ss={ss}"),
            );
            assert_unobservable(
                &threaded,
                &refr,
                &plan,
                ss,
                &format!("threaded u={units} ss={ss}"),
            );
            prop_assert_eq!(
                &inline.caches,
                &threaded.caches,
                "cache counters u={}",
                units
            );
            prop_assert_eq!(inline.time, threaded.time);
        }

        // Transient-only faults: fully repeat-deterministic in both
        // executors (per-unit sequences are fixed, so the same plan
        // entries fire on the same ops), and still byte-unobservable.
        let tplan = FaultPlan::seeded(seed ^ 0x7A11, units, horizon(&plan), 200, 0);
        let ti = df_run(&g, &bufs, &plan, units, seed, tplan.clone(), 0, true);
        let tt = df_run(&g, &bufs, &plan, units, seed, tplan.clone(), 0, false);
        assert_unobservable(&ti, &refr, &plan, 0, &format!("transient inline u={units}"));
        assert_unobservable(
            &tt,
            &refr,
            &plan,
            0,
            &format!("transient threaded u={units}"),
        );
        prop_assert_eq!(
            &ti.fault_stats,
            &tt.fault_stats,
            "transient stats u={}",
            units
        );
        prop_assert_eq!(ti.time, tt.time, "transient clock u={}", units);
        let ti2 = df_run(&g, &bufs, &plan, units, seed, tplan.clone(), 0, true);
        let tt2 = df_run(&g, &bufs, &plan, units, seed, tplan, 0, false);
        prop_assert_eq!(&ti2.fault_stats, &ti.fault_stats);
        prop_assert_eq!((&ti2.caches, ti2.time), (&ti.caches, ti.time));
        prop_assert_eq!(&tt2.fault_stats, &tt.fault_stats);
        prop_assert_eq!((&tt2.caches, tt2.time), (&tt.caches, tt.time));

        // Recoverable permanent faults (chaos-style: at most
        // `units − 1` victims): recovery must stay byte-unobservable
        // in both executors, the two must agree on the clock and the
        // fault counters, and both must replay their fault record
        // exactly.
        let pplan = FaultPlan::seeded(seed ^ 0xC44F, units, horizon(&plan), 150, units / 2);
        let pi = df_run(&g, &bufs, &plan, units, seed, pplan.clone(), 0, true);
        let pt = df_run(&g, &bufs, &plan, units, seed, pplan.clone(), 0, false);
        assert_unobservable(&pi, &refr, &plan, 0, &format!("permanent inline u={units}"));
        assert_unobservable(
            &pt,
            &refr,
            &plan,
            0,
            &format!("permanent threaded u={units}"),
        );
        prop_assert_eq!(
            &pi.fault_stats,
            &pt.fault_stats,
            "permanent stats u={}",
            units
        );
        prop_assert_eq!(pi.time, pt.time, "permanent clock u={}", units);
        prop_assert_eq!(
            &pi.caches,
            &pt.caches,
            "permanent cache counters u={}",
            units
        );
        let pi2 = df_run(&g, &bufs, &plan, units, seed, pplan.clone(), 0, true);
        let pt2 = df_run(&g, &bufs, &plan, units, seed, pplan, 0, false);
        prop_assert_eq!(
            &pi2.fault_stats,
            &pi.fault_stats,
            "inline replay u={}",
            units
        );
        prop_assert_eq!(pi2.time, pi.time, "inline replay clock u={}", units);
        prop_assert_eq!(
            &pt2.fault_stats,
            &pt.fault_stats,
            "threaded replay u={}",
            units
        );
        prop_assert_eq!(pt2.time, pt.time, "threaded replay clock u={}", units);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random RAW pipelines × 1/2/4/8 units × {fault-free, transient,
    // permanent} × {inline, threaded} × steal seeds: the dataflow
    // driver must be byte-unobservable against the serial scheduled
    // run, with replay determinism exactly as documented.
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

/// The named deviation of the `tcu_sched::run` docs: a foreign panic on
/// unit 0's first execution. The threaded executor computes into
/// scratch, so it discards the torn scratch, quarantines the unit, and
/// rebuilds the op in a recovery pass — byte-identical to the serial
/// run. The inline executor wrote the bound destination in place and
/// has nothing to rebuild from, so it fails the run with `UnitFault`.
#[test]
fn foreign_panics_recover_threaded_and_fail_inline() {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    for seed in 0..4u64 {
        let (g, bufs) = random_graph(seed);
        let refr = serial_reference(&g, &bufs, seed);
        for units in [2usize, 4] {
            let plan = Scheduler::new().with_units(units).plan(&g, &unit);
            for inline in [false, true] {
                let mut mach =
                    ParallelTcuMachine::with_executor(unit, units, BuggyExecutor::default());
                mach.unit_executor_mut(0).panic_at = Some(0);
                mach.enable_trace();
                let a = pseudo(DIM, DIM, seed as i64);
                let b = pseudo(DIM, DIM, seed as i64 + 1);
                let (mut c, mut d) = (
                    Matrix::<i64>::zeros(DIM, DIM),
                    Matrix::<i64>::zeros(DIM, DIM),
                );
                let mut env = ExecEnv::new(&g);
                env.bind_input(bufs.a, a.view());
                env.bind_input(bufs.b, b.view());
                env.bind_output(bufs.c, c.view_mut());
                env.bind_output(bufs.d, d.view_mut());
                let tuning = DataflowTuning {
                    steal_seed: 0,
                    inline: Some(inline),
                };
                let result = plan.try_run_parallel_with(
                    &mut mach,
                    &mut env,
                    RecoveryPolicy::default(),
                    tuning,
                );
                drop(env);
                let what = format!("seed {seed}, {units} units, inline={inline}");
                if inline {
                    assert!(
                        matches!(result, Err(TcuError::UnitFault { unit: 0, .. })),
                        "{what}: {result:?}"
                    );
                } else {
                    assert!(result.is_ok(), "{what}: {result:?}");
                    assert_eq!(mach.fault_stats().quarantined_units, 1, "{what}");
                    assert_eq!((&c, &d), (&refr.0, &refr.1), "elements: {what}");
                    assert_eq!(mach.stats(), &refr.2, "Stats: {what}");
                    assert_eq!(mach.take_trace().digest(), refr.3, "digest: {what}");
                }
            }
        }
    }
}

/// A foreign panic on a chain op after some of its chain completed:
/// two 4-op accumulation chains, one per unit, and unit 0's executor
/// panics on its `k`-th execution (`k > 0`). The torn accumulator held
/// the chain's completed ops unmerged, so the whole chain re-runs on
/// the survivor — 4 ops whatever `k` — and the run is still
/// byte-identical to serial. Which ops rejoin follows from the plan, so
/// a replay reproduces the clock and the fault counters.
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
            env.bind_input(bufs.a, a.view());
            env.bind_input(bufs.b, b.view());
            env.bind_output(bufs.c, c.view_mut());
            env.bind_output(bufs.d, d.view_mut());
            let tuning = DataflowTuning {
                steal_seed: 0,
                inline: Some(false),
            };
            let result =
                plan.try_run_parallel_with(&mut mach, &mut env, RecoveryPolicy::default(), tuning);
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

/// A serial run is the one-queue case of the single-thread walk, so an
/// executor panic comes back as a typed error instead of unwinding
/// through `try_run`: unit 0, in the failing op's wave. Charges precede
/// execution, so the failed run holds the whole stream's charge (named
/// deviation 1).
#[test]
fn serial_executor_panic_fails_typed() {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let (g, bufs) = random_graph(3);
    let plan = Scheduler::new().plan(&g, &unit);
    let mut ser = TcuMachine::with_executor(unit, BuggyExecutor::default());
    ser.executor_mut().panic_at = Some(0);
    let (a, b) = (pseudo(DIM, DIM, 3), pseudo(DIM, DIM, 4));
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let mut env = ExecEnv::new(&g);
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    env.bind_output(bufs.d, d.view_mut());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        plan.try_run(&mut ser, &mut env)
    }));
    assert!(
        matches!(result, Ok(Err(TcuError::UnitFault { unit: 0, wave: 0 }))),
        "expected a typed UnitFault, got {result:?}"
    );
    assert_eq!(ser.stats().tensor_calls, plan.invocations());
}
