//! Scheduler determinism and equivalence properties.
//!
//! The contract the whole subsystem rests on: a schedule is a function
//! of the *dependency structure and contents* of the op graph, never of
//! the order independent ops happened to be recorded in. Any
//! dependency-respecting shuffle of the recording must produce the same
//! emitted node list, the same `Stats`, the same trace digest, and the
//! same multi-unit makespan. And however aggressively ops were
//! coalesced, the numeric outputs must equal the eager per-op reference
//! exactly (over `i64`, where fused inner chains are associative).
//!
//! Both properties run over two graph families: independent random
//! streams (the PR-4 shape) and *RAW pipelines*, where later ops read
//! regions earlier ops wrote — the versioned-graph capability. For
//! pipelines the reference executes in recording order reading the
//! evolving buffer state, exactly the semantics the generation-staged
//! runtime must reproduce under any hazard-respecting reordering.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcu_core::{ModelTensorUnit, PadPolicy, ReplayExecutor, TcuMachine, TensorOp};
use tcu_linalg::ops::matmul_naive;
use tcu_linalg::Matrix;
use tcu_sched::{ExecEnv, Node, OpGraph, OperandRef, Scheduler};

const DIM: usize = 32;
const SQRT_M: usize = 8;

/// Buffer handles of the shared 4-buffer layout (A, B inputs; C, D
/// read-write, all `DIM × DIM`).
struct Bufs {
    a: tcu_sched::BufferId,
    b: tcu_sched::BufferId,
    c: tcu_sched::BufferId,
    d: tcu_sched::BufferId,
}

fn fresh_graph() -> (OpGraph, Bufs) {
    let mut g = OpGraph::new();
    let bufs = Bufs {
        a: g.buffer("A", DIM, DIM),
        b: g.buffer("B", DIM, DIM),
        c: g.buffer("C", DIM, DIM),
        d: g.buffer("D", DIM, DIM),
    };
    (g, bufs)
}

/// A random valid zero-padded op over the shared layout: dimensions are
/// 4-aligned so adjacency (and hence merging) happens often. With
/// `pipeline`, the left operand sometimes streams a region of `C`/`D` —
/// buffers other random ops write — turning the batch into a RAW/WAR
/// pipeline; such reads write the *other* read-write buffer so no op
/// writes a rectangle overlapping its own reads.
fn random_node(
    rng: &mut StdRng,
    bufs: &Bufs,
    pipeline: bool,
) -> (TensorOp, OperandRef, OperandRef, OperandRef) {
    let rows = 16usize;
    let inner = *[4usize, 8].get(rng.gen_range(0..2usize)).unwrap();
    let width = *[4usize, 8].get(rng.gen_range(0..2usize)).unwrap();
    let a_c0 = 4 * rng.gen_range(0..=(DIM - inner) / 4);
    let a_r0 = 16 * rng.gen_range(0..=1usize);
    let b_r0 = 4 * rng.gen_range(0..=(DIM - inner) / 4);
    let b_c0 = 4 * rng.gen_range(0..=(DIM - width) / 4);
    let from_written = pipeline && rng.gen_range(0..3u32) == 0;
    let (a_buf, out_buf) = if from_written {
        // Stream one read-write buffer, update the other.
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
    let op = TensorOp {
        rows,
        inner,
        width,
        accumulate: rng.gen_range(0..4u32) != 0,
        pad: PadPolicy::ZeroPad,
    };
    (
        op,
        OperandRef::new(a_buf, a_r0, a_c0, rows, inner),
        OperandRef::new(bufs.b, b_r0, b_c0, inner, width),
        OperandRef::new(out_buf, out_r0, out_c0, rows, width),
    )
}

fn random_graph(seed: u64, pipeline: bool) -> (OpGraph, Bufs) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (mut g, bufs) = fresh_graph();
    let n = rng.gen_range(3..28usize);
    for _ in 0..n {
        let (op, a, b, out) = random_node(&mut rng, &bufs, pipeline);
        g.record(op, a, b, out);
    }
    (g, bufs)
}

/// Rebuild `g` with its nodes recorded in a random order that respects
/// every hazard pair (conflicting ops keep their relative order).
fn shuffled(g: &OpGraph, seed: u64) -> OpGraph {
    let nodes = g.nodes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF_CAFE_F00D);
    let mut emitted = vec![false; nodes.len()];
    let mut order = Vec::with_capacity(nodes.len());
    while order.len() < nodes.len() {
        let ready: Vec<usize> = (0..nodes.len())
            .filter(|&j| {
                !emitted[j] && (0..j).all(|i| emitted[i] || !nodes[i].conflicts(&nodes[j]))
            })
            .collect();
        let pick = ready[rng.gen_range(0..ready.len())];
        emitted[pick] = true;
        order.push(pick);
    }
    // Same buffer layout (registration order is fixed), so the recorded
    // refs transfer verbatim — and because generations count only
    // *overlapping* (hence order-pinned) writes, the re-recorded nodes
    // carry identical versions.
    let (mut g2, _) = fresh_graph();
    for &i in &order {
        let Node { op, a, b, out, .. } = nodes[i];
        let slot = g2.record(op, a, b, out);
        assert_eq!(
            (g2.nodes()[slot].a_gen, g2.nodes()[slot].out_gen),
            (nodes[i].a_gen, nodes[i].out_gen),
            "generations must survive dependency-respecting shuffles"
        );
    }
    g2
}

fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

/// Eager per-op reference: execute the recorded nodes in recording
/// order with plain CPU products, reading the *evolving* buffer state
/// (pipeline reads see every prior write, exactly like the runtime).
fn eager_reference(g: &OpGraph, a: &Matrix<i64>, b: &Matrix<i64>) -> (Matrix<i64>, Matrix<i64>) {
    let mut c = Matrix::<i64>::zeros(DIM, DIM);
    let mut d = Matrix::<i64>::zeros(DIM, DIM);
    for node in g.nodes() {
        let read = |bufs: (&Matrix<i64>, &Matrix<i64>), r: &OperandRef| {
            let src = match r.buf.index() {
                0 => a,
                1 => b,
                2 => bufs.0,
                _ => bufs.1,
            };
            src.block(r.r0, r.c0, r.rows, r.cols)
        };
        let av = read((&c, &d), &node.a);
        let bv = read((&c, &d), &node.b);
        let prod = matmul_naive(&av, &bv);
        let dst = if node.out.buf.index() == 2 {
            &mut c
        } else {
            &mut d
        };
        let mut region = dst.subview_mut(node.out.r0, node.out.c0, node.out.rows, node.out.cols);
        if node.op.accumulate {
            region.add_assign(prod.view());
        } else {
            region.copy_from(prod.view());
        }
    }
    (c, d)
}

/// Plan + run on an accounting-only machine; returns (stats, digest,
/// emitted nodes, makespans for 1 and 3 units).
fn plan_and_replay(
    g: &OpGraph,
    bufs: &Bufs,
) -> (
    tcu_core::Stats,
    u64,
    Vec<tcu_sched::ScheduledNode>,
    u64,
    u64,
) {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let plan = Scheduler::new().plan(g, &unit);
    let plan3 = Scheduler::new().with_units(3).plan(g, &unit);
    let mut mach = TcuMachine::with_executor(unit, ReplayExecutor::default());
    mach.enable_trace();
    let zero = Matrix::<i64>::zeros(DIM, DIM);
    let (mut c, mut d) = (zero.clone(), zero.clone());
    let mut env = ExecEnv::new(g);
    env.try_bind_input(bufs.a, zero.view()).unwrap();
    env.try_bind_input(bufs.b, zero.view()).unwrap();
    env.try_bind_output(bufs.c, c.view_mut()).unwrap();
    env.try_bind_output(bufs.d, d.view_mut()).unwrap();
    plan.try_run(&mut mach, &mut env).unwrap();
    let digest = mach.take_trace().digest();
    (
        mach.stats().clone(),
        digest,
        plan.nodes().to_vec(),
        plan.makespan(),
        plan3.makespan(),
    )
}

/// Run the plan numerically (pack cache on) and compare buffers C and D
/// against the recording-order reference.
fn check_numerics(g: &OpGraph, bufs: &Bufs, seed: u64) {
    let a = pseudo(DIM, DIM, seed as i64);
    let b = pseudo(DIM, DIM, seed as i64 + 1);
    let (want_c, want_d) = eager_reference(g, &a, &b);

    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let plan = Scheduler::new().plan(g, &unit);
    let mut mach = TcuMachine::model(SQRT_M * SQRT_M, 13);
    mach.executor_mut().enable_pack_cache(16);
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let mut env = ExecEnv::new(g);
    env.try_bind_input(bufs.a, a.view()).unwrap();
    env.try_bind_input(bufs.b, b.view()).unwrap();
    env.try_bind_output(bufs.c, c.view_mut()).unwrap();
    env.try_bind_output(bufs.d, d.view_mut()).unwrap();
    plan.try_run(&mut mach, &mut env).unwrap();
    prop_assert_eq!(c, want_c);
    prop_assert_eq!(d, want_d);
    prop_assert!(plan.ops() <= g.len());
    let plan3 = Scheduler::new().with_units(3).plan(g, &unit);
    prop_assert_eq!(plan3.tensor_time(), plan.tensor_time());
    prop_assert!(plan3.makespan() <= plan.makespan());
    prop_assert_eq!(mach.stats().tensor_time, plan.tensor_time());
}

fn check_shuffle_invariance(g1: &OpGraph, bufs: &Bufs, seed: u64) {
    let g2 = shuffled(g1, seed);
    let (s1, d1, n1, m1, m1p) = plan_and_replay(g1, bufs);
    let (s2, d2, n2, m2, m2p) = plan_and_replay(&g2, bufs);
    prop_assert_eq!(n1, n2);
    prop_assert_eq!(s1, s2);
    prop_assert_eq!(d1, d2);
    prop_assert_eq!(m1, m2);
    prop_assert_eq!(m1p, m2p);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Any dependency-respecting shuffle of the recording yields the
    // same schedule, the same Stats, and the same trace digest.
    #[test]
    fn schedule_is_invariant_under_dependency_respecting_shuffles(seed in 0u64..10_000) {
        let (g1, bufs) = random_graph(seed, false);
        check_shuffle_invariance(&g1, &bufs, seed);
    }

    // The same invariance for RAW pipelines: reads of written regions
    // (and the generations they resolve to) pin exactly the conflicting
    // pairs, so shuffling the rest changes nothing — schedule, Stats,
    // digest, or the 1- and 3-unit makespans.
    #[test]
    fn raw_pipeline_schedule_is_shuffle_invariant(seed in 0u64..10_000) {
        let (g1, bufs) = random_graph(seed, true);
        check_shuffle_invariance(&g1, &bufs, seed);
    }

    // Coalesced, reordered execution computes exactly what the eager
    // per-op recording order computes, and multi-unit planning never
    // changes per-op accounting — only the makespan (≤ serial).
    #[test]
    fn scheduled_numerics_match_the_eager_reference(seed in 0u64..10_000) {
        let (g, bufs) = random_graph(seed, false);
        check_numerics(&g, &bufs, seed);
    }

    // Pipelines too: generation-staged reads reproduce the recording-
    // order semantics element-for-element under any legal reordering.
    #[test]
    fn raw_pipeline_numerics_match_the_eager_reference(seed in 0u64..10_000) {
        let (g, bufs) = random_graph(seed, true);
        check_numerics(&g, &bufs, seed);
    }

    // A Schedule compiles once (first run) and the compiled plan re-runs
    // against rebound same-shape buffers: element- and Stats-identical
    // to a freshly planned run on the new data, and deterministic when
    // re-run on the original data.
    #[test]
    fn compiled_plan_rerun_on_rebound_buffers_is_identical(seed in 0u64..10_000) {
        let (g, bufs) = random_graph(seed, true);
        let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
        let plan = Scheduler::new().plan(&g, &unit);

        let run = |plan: &tcu_sched::Schedule, data_seed: i64| {
            let a = pseudo(DIM, DIM, data_seed);
            let b = pseudo(DIM, DIM, data_seed + 1);
            let mut mach = TcuMachine::model(SQRT_M * SQRT_M, 13);
            mach.executor_mut().enable_pack_cache(16);
            let (mut c, mut d) = (
                Matrix::<i64>::zeros(DIM, DIM),
                Matrix::<i64>::zeros(DIM, DIM),
            );
            let mut env = ExecEnv::new(&g);
            env.try_bind_input(bufs.a, a.view()).unwrap();
            env.try_bind_input(bufs.b, b.view()).unwrap();
            env.try_bind_output(bufs.c, c.view_mut()).unwrap();
            env.try_bind_output(bufs.d, d.view_mut()).unwrap();
            plan.try_run(&mut mach, &mut env).unwrap();
            drop(env);
            (c, d, mach.stats().clone())
        };

        let first = run(&plan, seed as i64);
        // Rebind to different same-shape data: the cached compiled form
        // must compute exactly what a fresh plan computes.
        let rerun = run(&plan, seed as i64 + 4096);
        let fresh_plan = Scheduler::new().plan(&g, &unit);
        let fresh = run(&fresh_plan, seed as i64 + 4096);
        prop_assert_eq!(&rerun.0, &fresh.0);
        prop_assert_eq!(&rerun.1, &fresh.1);
        prop_assert_eq!(&rerun.2, &fresh.2);
        // And re-running on the original data reproduces the first run.
        let again = run(&plan, seed as i64);
        prop_assert_eq!(&again.0, &first.0);
        prop_assert_eq!(&again.1, &first.1);
        prop_assert_eq!(&again.2, &first.2);
    }
}
