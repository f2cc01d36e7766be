//! The serial run's fused accumulation chains.
//!
//! `Schedule::try_run` walks an order computed once per compiled plan —
//! emission order with each chain continuation moved up behind its
//! predecessor once every other hazard predecessor has run — and issues
//! one `Executor::execute_chain` per run of consecutive chain links. The
//! host executor fuses a run into one kernel call; an executor that
//! implements only `execute` runs it link by link. These tests pin that
//! both give the emission-order result, that a serial fault plan's
//! execution index counts links in run order, and that telemetry still
//! sees one op span per op.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcu_core::{
    silence_injected_fault_panics, Executor, FaultKind, FaultPlan, FaultyExecutor, HostExecutor,
    ModelTensorUnit, PadPolicy, Stats, TcuError, TcuMachine, TensorOp, TraceEvent,
};
use tcu_linalg::ops::matmul_naive;
use tcu_linalg::{Matrix, MatrixView, MatrixViewMut, Scalar};
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const DIM: usize = 32;
const SQRT_M: usize = 8;

/// The host kernels behind `execute` alone: the trait's defaults run
/// every tagged op and every chain link through it, one call per link.
#[derive(Clone, Debug, Default)]
struct OnlyExecute(HostExecutor);

impl Executor for OnlyExecute {
    fn name(&self) -> &'static str {
        "execute-only"
    }

    fn execute<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        self.0.execute(op, a, b, out)
    }
}

fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

/// The RAW-pipeline generator of the dataflow, chaos and
/// thread-count-invariance suites, over buffers A, B (inputs) and C, D
/// (read and written).
fn random_graph(seed: u64) -> (OpGraph, [BufferId; 4]) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut g = OpGraph::new();
    let bufs = ["A", "B", "C", "D"].map(|name| g.buffer(name, DIM, DIM));
    let [ab, bb, cb, db] = bufs;
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
                (cb, db)
            } else {
                (db, cb)
            }
        } else {
            let out = if rng.gen_range(0..2u32) == 0 { cb } else { db };
            (ab, out)
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
            OperandRef::new(bb, b_r0, b_c0, inner, width),
            OperandRef::new(out_buf, out_r0, out_c0, rows, width),
        );
    }
    (g, bufs)
}

/// The shape of `chain-faults-par`'s two-stage graph at `d` (here on
/// `√m = 8`, with `B` as both stages' weights): stage 1 accumulates
/// `A·B` into `C` strip by strip, stage 2 streams `C`'s strips against
/// `B` into `D`, so every stage-2 chain reads what stage-1 chains wrote.
fn two_stage(d: usize) -> (OpGraph, [BufferId; 4]) {
    let mut g = OpGraph::new();
    let bufs = ["A", "B", "C", "D"].map(|name| g.buffer(name, d, d));
    let [ab, bb, cb, db] = bufs;
    for (left, out) in [(ab, cb), (cb, db)] {
        for j in 0..d / SQRT_M {
            for k in 0..d / SQRT_M {
                g.record(
                    TensorOp::mul_acc(d, SQRT_M),
                    OperandRef::new(left, 0, k * SQRT_M, d, SQRT_M),
                    OperandRef::new(bb, k * SQRT_M, j * SQRT_M, SQRT_M, SQRT_M),
                    OperandRef::new(out, 0, j * SQRT_M, d, SQRT_M),
                );
            }
        }
    }
    (g, bufs)
}

/// The bound inputs A and B of a `d × d` graph.
fn inputs(d: usize) -> [Matrix<i64>; 2] {
    [pseudo(d, d, 3), pseudo(d, d, 4)]
}

/// What one serial run leaves: the written buffers, `Stats`, the trace.
struct Run {
    result: Result<(), TcuError>,
    outs: [Matrix<i64>; 2],
    stats: Stats,
    digest: u64,
    faults: Vec<TraceEvent>,
}

/// `try_run` of `plan` on a fresh machine over `exec`, with A and B
/// bound to `ins` and C, D starting at zero.
fn serial_run<E: Executor>(
    g: &OpGraph,
    bufs: &[BufferId; 4],
    plan: &Schedule,
    exec: E,
    ins: &[Matrix<i64>; 2],
) -> Run {
    let d = g.buffer_shape(bufs[0]).0;
    let mut mach = TcuMachine::with_executor(ModelTensorUnit::new(SQRT_M * SQRT_M, 13), exec);
    mach.enable_trace();
    let [a, b] = ins;
    let mut outs = [Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d)];
    let mut env = ExecEnv::new(g);
    env.try_bind_input(bufs[0], a.view()).unwrap();
    env.try_bind_input(bufs[1], b.view()).unwrap();
    let [c, dm] = &mut outs;
    env.try_bind_output(bufs[2], c.view_mut()).unwrap();
    env.try_bind_output(bufs[3], dm.view_mut()).unwrap();
    let result = plan.try_run(&mut mach, &mut env);
    drop(env);
    let trace = mach.take_trace();
    Run {
        result,
        outs,
        stats: mach.stats().clone(),
        digest: trace.digest(),
        faults: trace.fault_events(),
    }
}

/// The schedule's emitted ops applied one by one in emission order with
/// the naive product, from inputs `ins`: the result every serial order
/// must reproduce.
fn emission_oracle(
    g: &OpGraph,
    bufs: &[BufferId; 4],
    plan: &Schedule,
    ins: &[Matrix<i64>; 2],
) -> [Matrix<i64>; 2] {
    let d = g.buffer_shape(bufs[0]).0;
    let [a, b] = ins.clone();
    let mut mats = [a, b, Matrix::zeros(d, d), Matrix::zeros(d, d)];
    let index = |id: BufferId| bufs.iter().position(|&b| b == id).unwrap();
    let region = |m: &Matrix<i64>, r: &OperandRef| m.block(r.r0, r.c0, r.rows, r.cols);
    for sn in plan.nodes() {
        let n = &sn.node;
        let prod = matmul_naive(
            &region(&mats[index(n.a.buf)], &n.a),
            &region(&mats[index(n.b.buf)], &n.b),
        );
        let out = &mut mats[index(n.out.buf)];
        let mut dst = out.subview_mut(n.out.r0, n.out.c0, n.out.rows, n.out.cols);
        if n.op.accumulate {
            dst.add_assign(prod.view());
        } else {
            dst.copy_from(prod.view());
        }
    }
    let [_, _, c, dm] = mats;
    [c, dm]
}

#[test]
fn fused_runs_equal_per_op_runs_and_the_emission_order_result() {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let graphs = (0..48).map(random_graph).chain([two_stage(64)]);
    let mut chained = 0;
    for (i, (g, bufs)) in graphs.enumerate() {
        let plan = Scheduler::new().plan(&g, &unit);
        let mut host = HostExecutor::new();
        host.enable_pack_cache(16);
        let ins = inputs(g.buffer_shape(bufs[0]).0);
        let fused = serial_run(&g, &bufs, &plan, host, &ins);
        let per_op = serial_run(&g, &bufs, &plan, OnlyExecute::default(), &ins);
        fused.result.as_ref().expect("fault-free run");
        assert_eq!(fused.outs, per_op.outs, "graph {i}: elements");
        assert_eq!(fused.stats, per_op.stats, "graph {i}: Stats");
        assert_eq!(fused.digest, per_op.digest, "graph {i}: digest");
        assert_eq!(
            fused.outs,
            emission_oracle(&g, &bufs, &plan, &ins),
            "graph {i}"
        );
        chained += usize::from(plan.nodes().iter().any(|sn| sn.node.op.accumulate));
    }
    assert!(chained > 24, "the population accumulates");
}

#[test]
fn a_transient_inside_the_first_chain_stops_after_five_links() {
    silence_injected_fault_panics();
    // One stage of the two-stage graph: 8 chains of 8 links into C's
    // strips, the first running links 0–7 of the serial order.
    let d = 64usize;
    let (g, bufs) = two_stage(d);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let plan = Scheduler::new().plan(&g, &unit);
    let ins = inputs(d);
    let clean = serial_run(&g, &bufs, &plan, HostExecutor::new(), &ins);
    let exec = FaultyExecutor::new(
        HostExecutor::new(),
        FaultPlan::none().fail(0, 5, FaultKind::Transient),
    );
    let run = serial_run(&g, &bufs, &plan, exec, &ins);
    assert!(
        matches!(
            run.result,
            Err(TcuError::RetriesExhausted {
                unit: 0,
                attempts: 1,
                ..
            })
        ),
        "expected RetriesExhausted after one attempt, got {:?}",
        run.result
    );
    assert_eq!(run.stats, clean.stats, "the full charge (deviation 1)");
    assert_eq!(run.digest, clean.digest);
    assert_eq!(
        run.faults,
        vec![TraceEvent::Fault {
            unit: 0,
            transient: true
        }]
    );
    // The first chain's first 5 links landed in C's first strip; nothing
    // else ran.
    let [a, b] = &ins;
    let mut want = Matrix::<i64>::zeros(d, d);
    for k in 0..5 {
        let prod = matmul_naive(
            &a.block(0, k * SQRT_M, d, SQRT_M),
            &b.block(k * SQRT_M, 0, SQRT_M, SQRT_M),
        );
        want.subview_mut(0, 0, d, SQRT_M).add_assign(prod.view());
    }
    assert_eq!(run.outs, [want, Matrix::zeros(d, d)]);
}

#[test]
fn a_recorded_serial_dense_run_emits_one_op_span_per_op() {
    let (g, bufs) = two_stage(64);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let plan = Scheduler::new().plan(&g, &unit);
    let sink = std::sync::Arc::new(tcu_obs::ObsSink::new());
    let mut mach = TcuMachine::new(unit);
    mach.enable_recorder(sink.clone());
    let [a, b] = inputs(64);
    let (mut c, mut d) = (Matrix::<i64>::zeros(64, 64), Matrix::<i64>::zeros(64, 64));
    let mut env = ExecEnv::new(&g);
    env.try_bind_input(bufs[0], a.view()).unwrap();
    env.try_bind_input(bufs[1], b.view()).unwrap();
    env.try_bind_output(bufs[2], c.view_mut()).unwrap();
    env.try_bind_output(bufs[3], d.view_mut()).unwrap();
    plan.try_run(&mut mach, &mut env).unwrap();
    drop(env);
    assert_eq!(c, matmul_naive(&a, &b));
    let spans: Vec<_> = sink
        .lane_events(tcu_obs::Lane::Unit(0))
        .into_iter()
        .filter_map(|e| match e.kind {
            tcu_obs::EventKind::OpExec { rows, .. } => Some((rows, e.t_ns, e.dur_ns)),
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), plan.ops());
    assert_eq!(
        sink.metrics().get(tcu_obs::Metric::OpsExecuted),
        plan.ops() as u64
    );
    // The spans tile each run's wall: every one starts where the one
    // before it in its run ended, and each charges its op's rows.
    assert!(spans.iter().all(|&(rows, ..)| rows == 64));
    for w in spans.windows(2) {
        assert!(w[1].1 >= w[0].1 + w[0].2, "spans overlap: {w:?}");
    }
}

#[test]
fn recorded_narrow_verdicts_follow_each_read_version() {
    // The serial run records each read version's narrow verdict once and
    // hands it to every chain that streams it. A's second strip holds one
    // element past 32 bits, and C's first strip is rewritten from narrow
    // to wide between two streams of it, so a verdict trusted past the
    // version it was taken on truncates a product.
    let d = 64usize;
    let s = SQRT_M;
    let mut g = OpGraph::new();
    let bufs = ["A", "B", "C", "D"].map(|name| g.buffer(name, d, d));
    let [ab, bb, cb, db] = bufs;
    let strip = |buf, k: usize| OperandRef::new(buf, 0, k * s, d, s);
    let block = |k: usize, j: usize| OperandRef::new(bb, k * s, j * s, s, s);
    // C's first strip from A's first (narrow), streamed into every D
    // strip; then from A's second (wide), streamed again, next to A's
    // second strip itself.
    for k in 0..2 {
        g.record(TensorOp::mul(d, s), strip(ab, k), block(k, 0), strip(cb, 0));
        for j in 0..d / s {
            g.record(
                TensorOp::mul_acc(d, s),
                strip(cb, 0),
                block(0, j),
                strip(db, j),
            );
            if k == 1 {
                g.record(
                    TensorOp::mul_acc(d, s),
                    strip(ab, 1),
                    block(1, j),
                    strip(db, j),
                );
            }
        }
    }
    let unit = ModelTensorUnit::new(s * s, 13);
    let plan = Scheduler::new().plan(&g, &unit);
    let mut ins = inputs(d);
    ins[0][(d - 3, s + 5)] = 1 << 40;
    let want = emission_oracle(&g, &bufs, &plan, &ins);
    assert!(want[1].as_slice().iter().any(|&x| x != x as i32 as i64));
    for cache in [false, true] {
        let mut host = HostExecutor::new();
        if cache {
            host.enable_pack_cache(16);
        }
        let run = serial_run(&g, &bufs, &plan, host, &ins);
        run.result.expect("fault-free run");
        assert_eq!(run.outs, want, "cache {cache}");
    }
}
