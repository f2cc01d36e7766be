//! Plan sharing across positions in `tcu_algos::plan_memo`.
//!
//! The transitive closure's `D` chunks are recorded against a weight
//! panel gathered once per stage, so nothing in a chunk's graph depends
//! on the chunk's position: keyed by chunk length, as `closure.rs` keys
//! them, every full chunk of every stage runs one plan and every tail
//! chunk a second, and each served plan computes the right products at
//! every position.

use tcu_algos::plan_memo::{plan_cache_stats, plan_cached};
use tcu_core::{ModelTensorUnit, TcuMachine, TensorOp};
use tcu_linalg::{ops::matmul_naive, Matrix};
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef};

/// Closure shape: `n = 64` on `√m = 8`, so `q = 8` stages with 7 weight
/// blocks each, in chunks of 4 and 3.
const N: usize = 64;
const CS: usize = 8;
const CQ: usize = N / CS;
const CHUNK: usize = 4;
const ROWS: usize = (CQ - 1) * CS;

/// A closure `D` chunk against a gathered `CS × len·CS` weight panel
/// `W`: nothing in it depends on the chunk's position.
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
fn every_served_gathered_plan_computes_the_eager_products() {
    let x = Matrix::from_fn(N, N, |i, j| ((i * 7 + j * 13 + i * j) % 11) as i64 - 5);
    let unit = ModelTensorUnit::new(CS * CS, 7_003);
    let before = plan_cache_stats();
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
            let planned = plan_cached("gathered-chunk", [N, CS, len, 0], &unit, 1, || {
                chunk_gathered(len)
            });
            let (t, w, p) = (planned.bufs[0], planned.bufs[1], planned.bufs[2]);
            let mut prods = Matrix::<i64>::zeros(ROWS * len, CS);
            let mut env = ExecEnv::new(&planned.graph);
            env.try_bind_input(t, tall.view()).unwrap();
            env.try_bind_input(w, wts.subview(0, ci * CHUNK * CS, CS, len * CS))
                .unwrap();
            env.try_bind_output(p, prods.view_mut()).unwrap();
            planned
                .plan
                .try_run(&mut TcuMachine::new(unit), &mut env)
                .unwrap();
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
    let after = plan_cache_stats();
    assert_eq!(after.misses - before.misses, 2, "one plan per chunk length");
    assert_eq!(after.hits - before.hits, 2 * CQ as u64 - 2);
}
