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

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tcu_core::{
    assign_unit_ids, silence_injected_fault_panics, FaultPlan, FaultyExecutor, HostExecutor,
    ModelTensorUnit, PadPolicy, ParallelTcuMachine, TcuMachine, TensorOp,
};
use tcu_linalg::Matrix;
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const DIM: usize = 32;
const SQRT_M: usize = 8;
const UNIT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Buffer handles of the shared 4-buffer layout (A, B inputs; C, D
/// read-write) the generator records over.
struct Bufs {
    a: BufferId,
    b: BufferId,
    c: BufferId,
    d: BufferId,
}

/// The RAW-pipeline generator of the chaos / thread-count-invariance
/// suites — recorder unobservability must hold on the same population.
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
    let mut env = ExecEnv::new(g);
    if let Some(rec) = recorder {
        env.enable_recorder(rec);
    }
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    env.bind_output(bufs.d, d.view_mut());
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
                prop_assert_eq!(
                    on.time,
                    plan.dataflow_makespan(),
                    "planned wall at {:?}",
                    label
                );
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

/// An explicit [`ExecEnv::enable_recorder`] wins over a recorder the
/// machine already holds — the way the `TCU_TRACE_OUT` sink is attached
/// at construction: the environment's sink must see every op of the
/// serial and the parallel run, the machine's earlier sink none.
#[test]
fn explicit_env_recorder_wins_over_the_machines() {
    let (g, bufs) = random_graph(3);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let a = pseudo(DIM, DIM, 3);
    let b = pseudo(DIM, DIM, 4);
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let machine_sink = Arc::new(tcu_obs::ObsSink::new());
    let env_sink = Arc::new(tcu_obs::ObsSink::new());
    let mut env = ExecEnv::new(&g);
    env.enable_recorder(env_sink.clone());
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    env.bind_output(bufs.d, d.view_mut());

    let serial = Scheduler::new().plan(&g, &unit);
    let mut ser = TcuMachine::new(unit);
    ser.enable_recorder(machine_sink.clone());
    serial.run(&mut ser, &mut env);

    let plan = Scheduler::new().with_units(2).plan(&g, &unit);
    let mut par = ParallelTcuMachine::new(unit, 2);
    par.enable_recorder(machine_sink.clone());
    plan.run_parallel(&mut par, &mut env);

    let ops = |sink: &tcu_obs::ObsSink| sink.metrics().get(tcu_obs::Metric::OpsExecuted);
    assert_eq!(ops(&env_sink), (serial.ops() + plan.ops()) as u64);
    assert_eq!(ops(&machine_sink), 0);
}
