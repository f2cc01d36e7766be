//! Structural plan-sharing properties of `tcu_algos::plan_memo`.
//!
//! The memo's contract (ISSUE 8): two builders that record the *same
//! structure* — differing only in buffer names and/or any
//! dependency-respecting recording order — produce equal shape-hashes
//! and converge on **one** memo entry (same `Rc`), while a dimension or
//! region change must miss and plan its own schedule. The positive
//! cases here use fully independent op streams (disjoint output
//! rectangles, reads from unwritten inputs), for which *every*
//! permutation of the recording is dependency-respecting.
//!
//! The translated-graph cases use the transitive closure's `D` chunk:
//! recorded against weights read in place from the adjacency matrix,
//! each (stage, chunk) position is its own structure; recorded against
//! a gathered weight panel, every position is one structure, and the
//! one shared plan computes the right products at every position.
#![cfg(feature = "sched")]

use std::rc::Rc;

use proptest::prelude::*;
use tcu_algos::plan_memo::{plan_cache_stats, plan_cached};
use tcu_core::{ModelTensorUnit, TcuMachine, TensorOp};
use tcu_linalg::{ops::matmul_naive, Matrix};
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef};

const DIM: usize = 32;
const S: usize = 8;
const Q: usize = DIM / S;

/// Record the `Q × Q` independent block products `C[j,k] = A[j,k] ·
/// B[k,j]` with the given buffer `names`, starting at position `rot` of
/// the (j, k) enumeration and wrapping — a cyclic recording-order
/// shuffle that is always dependency-respecting because every output
/// rectangle is distinct and reads touch only unwritten inputs.
fn build(names: [&'static str; 3], rot: usize, shrink: usize) -> (OpGraph, Vec<BufferId>) {
    let mut g = OpGraph::new();
    let a = g.buffer(names[0], DIM, DIM);
    let b = g.buffer(names[1], DIM, DIM);
    let c = g.buffer(names[2], DIM, DIM - shrink);
    let total = Q * Q;
    for i in 0..total {
        let idx = (i + rot) % total;
        let (j, k) = (idx / Q, idx % Q);
        g.record(
            TensorOp::padded(S, S, S),
            OperandRef::new(a, j * S, k * S, S, S),
            OperandRef::new(b, k * S, j * S, S, S),
            OperandRef::new(c, j * S, (k * S).min(DIM - shrink - S), S, S),
        );
    }
    (g, vec![a, b, c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Name- and order-differing recordings of one structure: equal
    // shape-hashes, one shared memo entry, zero extra planning.
    #[test]
    fn renamed_reordered_builders_share_one_memo_entry(seed in 0u64..10_000) {
        let rot = (seed as usize % (Q * Q - 1)) + 1;
        let (g1, _) = build(["A", "B", "C"], 0, 0);
        let (g2, _) = build(["Left", "Right", "Out"], rot, 0);
        prop_assert_eq!(g1.shape_hash(), g2.shape_hash());
        prop_assert!(g1.shape_eq(&g2));

        // Distinct parameter keys (the latency differs per seed) force
        // the parameter level to miss, so sharing must come from the
        // structural level.
        let unit = ModelTensorUnit::new(S * S, seed);
        let before = plan_cache_stats();
        let first = plan_cached("share-prop-a", [DIM, S, 0, 0], &unit, 1, || {
            build(["A", "B", "C"], 0, 0)
        });
        let second = plan_cached("share-prop-b", [DIM, S, rot, 0], &unit, 1, || {
            build(["Left", "Right", "Out"], rot, 0)
        });
        let after = plan_cache_stats();
        prop_assert!(
            Rc::ptr_eq(&first, &second),
            "shape-equal builders must share one entry"
        );
        prop_assert!(
            after.misses - before.misses <= 1,
            "at most the first builder's plan is computed"
        );

        // Negative: a buffer-dimension change misses the structural
        // level and plans its own schedule.
        let shrunk = plan_cached("share-prop-c", [DIM, S, rot, 1], &unit, 1, || {
            build(["Left", "Right", "Out"], rot, S)
        });
        prop_assert!(!Rc::ptr_eq(&first, &shrunk), "dim change must miss");

        // Negative: a region change (every op funneled into the last
        // admissible column) misses too.
        let (g_moved, _) = build(["A", "B", "C"], 0, S);
        prop_assert_ne!(g1.shape_hash(), g_moved.shape_hash());
        prop_assert!(!g1.shape_eq(&g_moved));
    }
}

/// Closure shape for the translated-graph cases: `n = 64` on `√m = 8`,
/// so `q = 8` stages with 7 weight blocks each, in chunks of 4 and 3.
const N: usize = 64;
const CS: usize = 8;
const CQ: usize = N / CS;
const CHUNK: usize = 4;
const ROWS: usize = (CQ - 1) * CS;

/// A closure `D` chunk with its weights read in place from `X` at block
/// row `kk`, block columns `js`: every position is its own structure.
fn chunk_in_place(kk: usize, js: &[usize]) -> (OpGraph, Vec<BufferId>) {
    let mut g = OpGraph::new();
    let t = g.buffer("T", ROWS, CS);
    let x = g.buffer("X", N, N);
    let p = g.buffer("P", ROWS * js.len(), CS);
    for (bj, &j) in js.iter().enumerate() {
        g.record(
            TensorOp::mul(ROWS, CS),
            OperandRef::new(t, 0, 0, ROWS, CS),
            OperandRef::new(x, kk * CS, j * CS, CS, CS),
            OperandRef::new(p, bj * ROWS, 0, ROWS, CS),
        );
    }
    (g, vec![t, x, p])
}

/// The same chunk against a gathered `CS × len·CS` weight panel `W`:
/// nothing in it depends on the chunk's position.
fn chunk_gathered(len: usize) -> (OpGraph, Vec<BufferId>) {
    let mut g = OpGraph::new();
    let t = g.buffer("T", ROWS, CS);
    let w = g.buffer("W", CS, len * CS);
    let p = g.buffer("P", ROWS * len, CS);
    for bj in 0..len {
        g.record(
            TensorOp::mul(ROWS, CS),
            OperandRef::new(t, 0, 0, ROWS, CS),
            OperandRef::new(w, 0, bj * CS, CS, CS),
            OperandRef::new(p, bj * ROWS, 0, ROWS, CS),
        );
    }
    (g, vec![t, w, p])
}

#[test]
fn translated_in_place_chunks_neither_match_nor_share() {
    let (g1, _) = chunk_in_place(0, &[1, 2, 3, 4]);
    let (g2, _) = chunk_in_place(2, &[3, 4, 5, 6]);
    assert_ne!(g1.shape_hash(), g2.shape_hash());
    assert!(!g1.shape_eq(&g2));

    let unit = ModelTensorUnit::new(CS * CS, 7_001);
    let before = plan_cache_stats();
    let a = plan_cached("translated-in-place", [0, 0, 0, 0], &unit, 1, || {
        chunk_in_place(0, &[1, 2, 3, 4])
    });
    let b = plan_cached("translated-in-place", [2, 1, 0, 0], &unit, 1, || {
        chunk_in_place(2, &[3, 4, 5, 6])
    });
    let after = plan_cache_stats();
    assert!(!Rc::ptr_eq(&a, &b), "translated graphs must not share");
    assert_eq!(after.misses - before.misses, 2, "each position plans");
    assert_eq!(after.shared, before.shared);
}

#[test]
fn gathered_chunks_share_one_plan_per_length() {
    // One parameter key per (stage, chunk) position, so only the
    // structural level can share: it must fold all full chunks into one
    // plan and the tails into a second.
    let unit = ModelTensorUnit::new(CS * CS, 7_002);
    let before = plan_cache_stats();
    let mut served = Vec::new();
    for kk in 0..CQ {
        for (ci, len) in [CHUNK, CQ - 1 - CHUNK].into_iter().enumerate() {
            let plan = plan_cached("translated-gathered", [kk, ci, 0, 0], &unit, 1, || {
                chunk_gathered(len)
            });
            served.push((len, plan));
        }
    }
    let after = plan_cache_stats();
    assert_eq!(after.misses - before.misses, 2, "one plan per length");
    assert_eq!(after.shared - before.shared, 2 * CQ as u64 - 2);
    let (full, tail) = (&served[0].1, &served[1].1);
    assert!(!Rc::ptr_eq(full, tail), "each length has its own plan");
    for (len, plan) in &served {
        let want = if *len == CHUNK { full } else { tail };
        assert!(Rc::ptr_eq(plan, want), "len {len} must share one Rc");
    }
}

#[test]
fn every_served_gathered_plan_computes_the_eager_products() {
    let x = Matrix::from_fn(N, N, |i, j| ((i * 7 + j * 13 + i * j) % 11) as i64 - 5);
    let unit = ModelTensorUnit::new(CS * CS, 7_003);
    for kk in 0..CQ {
        let others: Vec<usize> = (0..CQ).filter(|&o| o != kk).collect();
        let mut tall = Matrix::<i64>::zeros(ROWS, CS);
        let mut wts = Matrix::<i64>::zeros(CS, ROWS);
        for (b, &o) in others.iter().enumerate() {
            tall.set_block_view(b * CS, 0, x.subview(o * CS, kk * CS, CS, CS));
            wts.set_block_view(0, b * CS, x.subview(kk * CS, o * CS, CS, CS));
        }
        for (ci, chunk) in others.chunks(CHUNK).enumerate() {
            let len = chunk.len();
            let planned = plan_cached("translated-run", [kk, ci, 0, 0], &unit, 1, || {
                chunk_gathered(len)
            });
            let (t, w, p) = (planned.bufs[0], planned.bufs[1], planned.bufs[2]);
            let mut prods = Matrix::<i64>::zeros(ROWS * len, CS);
            let mut env = ExecEnv::new(&planned.graph);
            env.bind_input(t, tall.view());
            env.bind_input(w, wts.subview(0, ci * CHUNK * CS, CS, len * CS));
            env.bind_output(p, prods.view_mut());
            planned.plan.run(&mut TcuMachine::new(unit), &mut env);
            for (bj, &j) in chunk.iter().enumerate() {
                let want = matmul_naive(&tall, &x.block(kk * CS, j * CS, CS, CS));
                assert_eq!(
                    prods.block(bj * ROWS, 0, ROWS, CS),
                    want,
                    "stage {kk}, chunk {ci}, block column {j}"
                );
            }
        }
    }
}
