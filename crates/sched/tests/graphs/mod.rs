//! Random op-graph generators shared by the parallel-run suites
//! (`dataflow_exec.rs`, `chaos.rs`, `parallel_exec.rs`,
//! `obs_unobservable.rs`) and the placement's own proptest
//! (`tcu_sched::dataflow`'s unit tests). The includer brings
//! `BufferId`, `OpGraph` and `OperandRef` into scope: the suites from
//! `tcu_sched`, the unit tests from the crate itself.

#![allow(dead_code)]

use super::{BufferId, OpGraph, OperandRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcu_core::{PadPolicy, TensorOp};

/// Every buffer is `DIM × DIM`.
pub const DIM: usize = 32;
/// The generated ops' unit: `√m = 8`.
pub const SQRT_M: usize = 8;

/// Buffer handles of the shared 4-buffer layout (A, B inputs; C, D
/// read-write) the generator records over.
pub struct Bufs {
    pub a: BufferId,
    pub b: BufferId,
    pub c: BufferId,
    pub d: BufferId,
}

/// The RAW-pipeline generator: a third of the ops stream one
/// read-write buffer and update the other, turning the batch into a
/// RAW/WAR pipeline.
pub fn random_graph(seed: u64) -> (OpGraph, Bufs) {
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
pub fn chain_graph(seed: u64) -> (OpGraph, Bufs) {
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
