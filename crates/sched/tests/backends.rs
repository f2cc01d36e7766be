//! The scheduler is executor-agnostic: the same plan runs unchanged on
//! the tiled host kernels (with or without the pack cache) and on the
//! cycle-level systolic array, producing identical elements, Stats, and
//! traces — scheduling decides *which* ops run in *what* order, the
//! executor only computes them.

use tcu_core::{TcuMachine, TensorOp, WeakTensorUnit};
use tcu_linalg::ops::matmul_naive;
use tcu_linalg::Matrix;
use tcu_sched::{ExecEnv, OpGraph, OperandRef, Scheduler};
use tcu_systolic::SystolicExecutor;

fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 31 + j as i64 * 17 + seed).wrapping_mul(48271) >> 7) % 23 - 11
    })
}

#[test]
fn host_and_systolic_agree_on_a_scheduled_blocked_flow() {
    let (d, s) = (16usize, 4usize);
    let a = pseudo(d, d, 1);
    let b = pseudo(d, d, 2);

    let mut g = OpGraph::new();
    let ab = g.buffer("A", d, d);
    let bb = g.buffer("B", d, d);
    let cb = g.buffer("C", d, d);
    let q = d / s;
    for j in 0..q {
        for k in 0..q {
            g.record(
                TensorOp {
                    accumulate: true,
                    ..TensorOp::padded(d, s, s)
                },
                OperandRef::new(ab, 0, k * s, d, s),
                OperandRef::new(bb, k * s, j * s, s, s),
                OperandRef::new(cb, 0, j * s, d, s),
            );
        }
    }

    // Weak unit: the scheduler's invocation accounting must also agree
    // across backends when tall ops split into square tiles.
    let unit = WeakTensorUnit::new(s * s, 9);
    let plan = Scheduler::new().plan(&g, &unit);

    let mut host = TcuMachine::new(unit);
    host.executor_mut().enable_pack_cache(q);
    host.enable_trace();
    let mut c_host = Matrix::<i64>::zeros(d, d);
    let mut env = ExecEnv::new(&g);
    env.try_bind_input(ab, a.view()).unwrap();
    env.try_bind_input(bb, b.view()).unwrap();
    env.try_bind_output(cb, c_host.view_mut()).unwrap();
    plan.try_run(&mut host, &mut env).unwrap();

    let mut sys = TcuMachine::with_executor(unit, SystolicExecutor::new());
    sys.enable_trace();
    let mut c_sys = Matrix::<i64>::zeros(d, d);
    let mut env = ExecEnv::new(&g);
    env.try_bind_input(ab, a.view()).unwrap();
    env.try_bind_input(bb, b.view()).unwrap();
    env.try_bind_output(cb, c_sys.view_mut()).unwrap();
    plan.try_run(&mut sys, &mut env).unwrap();

    let want = matmul_naive(&a, &b);
    assert_eq!(c_host, want);
    assert_eq!(c_sys, want);
    assert_eq!(host.stats(), sys.stats());
    assert_eq!(host.take_trace(), sys.take_trace());
    assert_eq!(host.stats().tensor_calls, plan.invocations());
}

/// A single graph holding a two-stage RAW pipeline (M = A·B, C = M·B)
/// must plan once and execute identically on the serial host machine,
/// the cycle-level systolic array, and the multi-unit parallel machine —
/// with identical Stats wherever accounting is comparable.
#[test]
fn raw_pipeline_runs_on_serial_parallel_and_systolic_backends() {
    use tcu_core::{ModelTensorUnit, ParallelTcuMachine};

    let (d, s, p) = (16usize, 4usize, 2usize);
    let a = pseudo(d, d, 5);
    let b = pseudo(d, d, 6);
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
                    TensorOp {
                        accumulate: true,
                        ..TensorOp::padded(d, s, s)
                    },
                    OperandRef::new(src, 0, k * s, d, s),
                    OperandRef::new(bb, k * s, j * s, s, s),
                    OperandRef::new(dst, 0, j * s, d, s),
                );
            }
        }
    }
    let unit = ModelTensorUnit::new(s * s, 3);
    let want_m = matmul_naive(&a, &b);
    let want_c = matmul_naive(&want_m, &b);

    #[allow(clippy::too_many_arguments)]
    fn run_serial<E: tcu_core::Executor>(
        mut mach: TcuMachine<ModelTensorUnit, E>,
        g: &OpGraph,
        unit: &ModelTensorUnit,
        bufs: [tcu_sched::BufferId; 4],
        a: &Matrix<i64>,
        b: &Matrix<i64>,
        d: usize,
    ) -> (Matrix<i64>, Matrix<i64>, tcu_core::Stats) {
        let [ab, bb, mb, cb] = bufs;
        let plan = Scheduler::new().plan(g, unit);
        let (mut m, mut c) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(g);
        env.try_bind_input(ab, a.view()).unwrap();
        env.try_bind_input(bb, b.view()).unwrap();
        env.try_bind_output(mb, m.view_mut()).unwrap();
        env.try_bind_output(cb, c.view_mut()).unwrap();
        plan.try_run(&mut mach, &mut env).unwrap();
        let stats = mach.stats().clone();
        (m, c, stats)
    }
    let bufs = [ab, bb, mb, cb];
    let (m_host, c_host, stats_host) =
        run_serial(TcuMachine::new(unit), &g, &unit, bufs, &a, &b, d);
    let (m_sys, c_sys, stats_sys) = run_serial(
        TcuMachine::with_executor(unit, SystolicExecutor::new()),
        &g,
        &unit,
        bufs,
        &a,
        &b,
        d,
    );
    assert_eq!((&m_host, &c_host), (&m_sys, &c_sys), "backends agree");
    assert_eq!((&m_host, &c_host), (&want_m, &want_c), "oracle agrees");
    assert_eq!(stats_host, stats_sys);

    // Multi-unit execution of the same pipeline, on both backends.
    for systolic in [false, true] {
        let plan = Scheduler::new().with_units(p).plan(&g, &unit);
        let (mut m, mut c) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&g);
        env.try_bind_input(ab, a.view()).unwrap();
        env.try_bind_input(bb, b.view()).unwrap();
        env.try_bind_output(mb, m.view_mut()).unwrap();
        env.try_bind_output(cb, c.view_mut()).unwrap();
        let stats = if systolic {
            let mut par = ParallelTcuMachine::with_executor(unit, p, SystolicExecutor::new());
            plan.try_run_parallel(&mut par, &mut env).unwrap();
            assert_eq!(par.time(), plan.makespan());
            par.stats().clone()
        } else {
            let mut par = ParallelTcuMachine::new(unit, p);
            par.enable_pack_caches(2 * q);
            plan.try_run_parallel(&mut par, &mut env).unwrap();
            assert_eq!(par.time(), plan.makespan());
            par.stats().clone()
        };
        assert_eq!((&m, &c), (&want_m, &want_c), "systolic={systolic}");
        assert_eq!(stats, stats_host, "per-op charges match serial");
    }
}
