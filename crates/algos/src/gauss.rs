//! Blocked Gaussian elimination without pivoting on the TCU — §4.2,
//! Theorem 4 (paper Figure 4).
//!
//! The `√n × √n` augmented matrix is split into `√m × √m` blocks
//! `X_{i,j}`. Iteration `k` of the outer loop factorizes the diagonal
//! block (`A`), eliminates the block row (`B`, which also emits the scaled
//! block `X'_j = −X_{k,j}/diag`), prepares the block column (`C`), and
//! applies the Schur-complement update `X_{i,j} += X_{i,k}·X'_j` (`D`).
//! Only `D` runs on the tensor unit: `X'_j` is loaded as the resident
//! weights and all blocks `X_{i,k}` (`i > k`) are streamed through as one
//! tall left operand — `(√n/√m − k)√m` rows per invocation, which is where
//! the `n·ℓ/m` (instead of `(n/m)^{3/2}·ℓ`) latency term comes from.
//!
//! Theorem 4: time `Θ(n^{3/2}/√m + (n/m)·ℓ + n·√m)`; the trailing `n√m`
//! term is the CPU work in kernels `A`, `B`, `C`, and it is dominated by
//! the first term exactly when `√n ≥ m`.
//!
//! In exact arithmetic the blocked elimination produces the *same matrix*
//! as the unblocked Figure 2 loop ([`tcu_linalg::decomp::ge_forward_host`]);
//! the tests check full-matrix agreement over both `f64` (tolerance) and
//! the prime field `F_p` (equality).

use tcu_core::{Executor, TcuMachine, TensorUnit};
use tcu_linalg::{Field, Matrix};

/// Forward phase of blocked Gaussian elimination (paper Figure 4),
/// in place on the `√n × √n` augmented matrix.
///
/// # Panics
/// Panics unless `x` is square with `√m | √n`, or if a pivot used by the
/// no-pivoting scheme is zero.
pub fn ge_forward<T: Field, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    x: &mut Matrix<T>,
) {
    let d = x.rows();
    assert!(x.is_square(), "augmented matrix must be square");
    let s = mach.sqrt_m();
    assert!(d.is_multiple_of(s), "√m = {s} must divide √n = {d}");
    let q = d / s;

    for kk in 0..q {
        let xprime = pivot_kernels(mach, x, kk, s);

        // D( X_ij, X_ik, X'_j ) on the tensor unit: per block column j,
        // load X'_j as weights and stream every X_ik at once. The block
        // column is a contiguous row range of X but the blocks are not
        // adjacent in memory, so the tall operand is the one gather this
        // algorithm still materializes; products and accumulation flow
        // through zero-copy views.
        let rows = (q - kk - 1) * s;
        if rows == 0 {
            continue;
        }
        let mut tall = Matrix::<T>::zeros(rows, s);
        for (bi, i) in (kk + 1..q).enumerate() {
            tall.set_block_view(bi * s, 0, x.subview(i * s, kk * s, s, s));
        }
        for (bj, j) in (kk + 1..q).enumerate() {
            let prod = mach.tensor_mul_view(tall.view(), xprime[bj].view());
            for (bi, i) in (kk + 1..q).enumerate() {
                // Accumulate P into X_ij in place: one CPU add per element.
                mach.charge((s * s) as u64);
                x.subview_mut(i * s, j * s, s, s)
                    .add_assign(prod.subview(bi * s, 0, s, s));
            }
        }
    }
}

/// Deferred fast path: [`ge_forward`] with every stage's
/// Schur-complement update (`D` kernels) recorded into a `tcu-sched` op
/// graph and run as a planned, tagged stream.
///
/// This is the versioned pipeline capability at work: the graph reads
/// the pivot *panel* of `X` — the column of blocks below the diagonal —
/// while accumulating into `X`'s trailing block columns, so one buffer
/// is both streamed and updated (the pre-versioned planner rejected
/// exactly this). The panel is the stream's only left operand, which is
/// the pack cache's best case: packed once per stage, re-used for every
/// remaining block column. Model accounting is identical to the eager
/// path — same tall invocations, same CPU charges (the fused
/// accumulates absorb the per-block adds on the host, but Theorem 2's
/// final summation is still billed) — and results are bit-identical for
/// every `Field` scalar, floats included (the fused accumulate performs
/// the same per-element sum as product-then-add).
///
/// # Errors
/// Execution faults come back as the [`tcu_core::TcuError`] of
/// [`tcu_sched::Schedule::try_run`].
///
/// # Panics
/// Panics unless `x` is square with `√m | √n`, or if a pivot used by
/// the no-pivoting scheme is zero — caller bugs, not runtime faults.
pub fn try_eliminate_scheduled<T: Field, U: TensorUnit + 'static, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    x: &mut Matrix<T>,
) -> Result<(), tcu_core::TcuError> {
    use crate::plan_memo::plan_cached;
    use tcu_core::TensorOp;
    use tcu_sched::{ExecEnv, OpGraph, OperandRef};

    let d = x.rows();
    assert!(x.is_square(), "augmented matrix must be square");
    let s = mach.sqrt_m();
    assert!(d.is_multiple_of(s), "√m = {s} must divide √n = {d}");
    let q = d / s;

    for kk in 0..q {
        let xprime = pivot_kernels(mach, x, kk, s);

        let rem = q - kk - 1;
        if rem == 0 {
            continue;
        }
        // The scaled pivot-row blocks, side by side, are the weights.
        let mut w = Matrix::<T>::zeros(s, rem * s);
        for (bj, xp) in xprime.iter().enumerate() {
            w.set_block(0, bj * s, xp);
        }
        // D as a recorded stream: per trailing block column j, stream
        // X's own pivot panel (contiguous below the diagonal — no
        // gather) against W_j, accumulating straight into X's column.
        // The stage graph is a pure function of (d, s, kk), so its plan
        // is memoized across calls (repeated eliminations at the same
        // shape skip planning entirely).
        let rows = rem * s;
        let planned = plan_cached("gauss-d", [d, s, kk, 0], mach.unit(), 1, || {
            let mut g = OpGraph::new();
            let xb = g.buffer("X", d, d);
            let wb = g.buffer("W", s, rem * s);
            let panel = OperandRef::new(xb, (kk + 1) * s, kk * s, rows, s);
            for (bj, j) in (kk + 1..q).enumerate() {
                g.record(
                    TensorOp::mul_acc(rows, s),
                    panel,
                    OperandRef::new(wb, 0, bj * s, s, s),
                    OperandRef::new(xb, (kk + 1) * s, j * s, rows, s),
                );
            }
            (g, vec![xb, wb])
        });
        let (xb, wb) = (planned.bufs[0], planned.bufs[1]);
        let mut env = ExecEnv::new(&planned.graph);
        env.try_bind_input(wb, w.view())?;
        env.try_bind_output(xb, x.view_mut())?;
        planned.plan.try_run(mach, &mut env)?;
        // The fused accumulates absorbed the eager path's per-block host
        // adds; the model still bills them as CPU work, so Stats match
        // the eager run exactly.
        mach.charge((rem * rem * s * s) as u64);
    }
    Ok(())
}

/// Kernels `A`, `B` and `C` of stage `kk` on the CPU, in place:
/// factorize the diagonal block, eliminate the block row (returning the
/// scaled blocks `X'_j`, `j > kk`) and prepare the block column.
fn pivot_kernels<T: Field, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    x: &mut Matrix<T>,
    kk: usize,
    s: usize,
) -> Vec<Matrix<T>> {
    let q = x.rows() / s;
    // A( X_kk ): in-block elimination.
    let mut xkk = x.block(kk * s, kk * s, s, s);
    kernel_a(mach, &mut xkk);
    x.set_block(kk * s, kk * s, &xkk);

    // B( X_kj, X_kk, X'_j ): eliminate the block row, emit scaled blocks.
    let mut xprime: Vec<Matrix<T>> = Vec::with_capacity(q - kk - 1);
    for j in kk + 1..q {
        let mut xkj = x.block(kk * s, j * s, s, s);
        xprime.push(kernel_b(mach, &mut xkj, &xkk));
        x.set_block(kk * s, j * s, &xkj);
    }

    // C( X_ik, X_kk ): prepare the block column.
    for i in kk + 1..q {
        let mut xik = x.block(i * s, kk * s, s, s);
        kernel_c(mach, &mut xik, &xkk);
        x.set_block(i * s, kk * s, &xik);
    }
    xprime
}

/// Split a square block's rows around pivot row `k`: row `k` itself and
/// the rows below it, each `s` wide.
fn pivot_and_below<T: Field>(x: &mut Matrix<T>, k: usize) -> (&[T], &mut [T]) {
    let s = x.cols();
    let (upper, below) = x.as_mut_slice().split_at_mut((k + 1) * s);
    (&upper[k * s..], below)
}

/// Kernel `A` (Figure 4): unblocked no-pivot elimination inside one
/// `√m × √m` block; 3 scalar ops per inner iteration. Step `k` writes
/// only rows and columns past `k`, so the pivot row and `X[i,k]` are
/// read once per step and row.
fn kernel_a<T: Field, U: TensorUnit, E: Executor>(mach: &mut TcuMachine<U, E>, x: &mut Matrix<T>) {
    let s = x.rows();
    let mut ops = 0u64;
    for k in 0..s.saturating_sub(1) {
        let (prow, below) = pivot_and_below(x, k);
        let pivot = prow[k];
        for row in below.chunks_exact_mut(s) {
            let xik = row[k];
            for (v, &r) in row[k + 1..].iter_mut().zip(&prow[k + 1..]) {
                *v = v.sub(xik.mul(r).div(pivot));
            }
        }
        ops += 3 * ((s - k - 1) * (s - k - 1)) as u64;
    }
    mach.charge(ops);
}

/// Kernel `B` (Figure 4): eliminate a block `X` in the pivot block row
/// using the diagonal block `Y`, then return `X'` with
/// `X'[i,j] = −X[i,j]/Y[i,i]`. Step `k` writes only rows past `k`.
fn kernel_b<T: Field, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    x: &mut Matrix<T>,
    y: &Matrix<T>,
) -> Matrix<T> {
    let s = x.rows();
    let mut ops = 0u64;
    for k in 0..s.saturating_sub(1) {
        let pivot = y[(k, k)];
        let (prow, below) = pivot_and_below(x, k);
        for (row, i) in below.chunks_exact_mut(s).zip(k + 1..) {
            let factor = y[(i, k)].div(pivot);
            for (v, &r) in row.iter_mut().zip(prow) {
                *v = v.sub(factor.mul(r));
            }
        }
        ops += 3 * ((s - k - 1) * s) as u64;
    }
    let xp = Matrix::from_fn(s, s, |i, j| x[(i, j)].div(y[(i, i)]).neg());
    ops += 2 * (s * s) as u64;
    mach.charge(ops);
    xp
}

/// Kernel `C` (Figure 4): prepare a block in the pivot block column —
/// each column `j` receives the elimination updates of the in-block
/// pivots preceding it. Step `k` writes only columns past `k`.
fn kernel_c<T: Field, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    x: &mut Matrix<T>,
    y: &Matrix<T>,
) {
    let s = x.rows();
    let mut ops = 0u64;
    for k in 0..s {
        let pivot = y[(k, k)];
        let yk = &y.row(k)[k + 1..];
        for row in x.as_mut_slice().chunks_exact_mut(s) {
            let factor = row[k].div(pivot);
            for (v, &r) in row[k + 1..].iter_mut().zip(yk) {
                *v = v.sub(factor.mul(r));
            }
        }
        ops += 3 * (s * (s - k - 1)) as u64;
    }
    mach.charge(ops);
}

/// Exact simulated time of [`ge_forward`] on a model machine for a
/// `d × d` system with `√m = s | d` and latency `l` (mirrors the charges
/// kernel by kernel).
#[must_use]
pub fn ge_forward_time(d: u64, s: u64, l: u64) -> u64 {
    let q = d / s;
    // Per-call kernel op counts.
    let a_ops: u64 = (0..s.saturating_sub(1))
        .map(|k| 3 * (s - 1 - k) * (s - 1 - k))
        .sum();
    let b_ops: u64 = (0..s.saturating_sub(1))
        .map(|k| 3 * (s - 1 - k) * s)
        .sum::<u64>()
        + 2 * s * s;
    let c_ops: u64 = (0..s).map(|k| 3 * s * (s - 1 - k)).sum();
    let mut t = 0u64;
    for kk in 0..q {
        let rem = q - kk - 1;
        t += a_ops + rem * b_ops + rem * c_ops;
        if rem > 0 {
            // One tall tensor call per block column, plus the accumulation.
            t += rem * (rem * s * s + l);
            t += rem * rem * s * s;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcu_core::TcuMachine;
    use tcu_linalg::decomp::{
        augmented_from, back_substitute, diag_dominant, ge_forward_host, residual,
    };
    use tcu_linalg::ops::approx_eq_rel;
    use tcu_linalg::{Fp61, Scalar};

    /// Build the paper's augmented representation for a random
    /// diagonally-dominant system of dimension `d − 1`.
    fn augmented(d: usize, seed: u64) -> (Matrix<f64>, Vec<f64>, Matrix<f64>) {
        let a = diag_dominant(d - 1, seed);
        let b: Vec<f64> = (0..d - 1).map(|i| ((i * i) % 7) as f64 - 2.5).collect();
        let c = augmented_from(&a, &b);
        (a, b, c)
    }

    #[test]
    fn blocked_equals_unblocked_f64() {
        for (d, m) in [(8usize, 4usize), (16, 16), (32, 16), (24, 16)] {
            if d % ((m as f64).sqrt() as usize) != 0 {
                continue;
            }
            let (_, _, c0) = augmented(d, 99 + d as u64);
            let mut host = c0.clone();
            ge_forward_host(&mut host);
            let mut mach = TcuMachine::model(m, 5);
            let mut dev = c0.clone();
            ge_forward(&mut mach, &mut dev);
            assert!(
                approx_eq_rel(&host, &dev, 1e-9),
                "blocked != unblocked for d={d} m={m}"
            );
        }
    }

    #[test]
    fn solves_linear_system_end_to_end() {
        let d = 32;
        let (a, b, c0) = augmented(d, 4242);
        let mut mach = TcuMachine::model(16, 100);
        let mut c = c0;
        ge_forward(&mut mach, &mut c);
        let x = back_substitute(&c);
        assert!(residual(&a, &x, &b) < 1e-8);
        assert!(
            mach.stats().tensor_calls > 0,
            "the update must use the tensor unit"
        );
    }

    #[test]
    fn exact_over_prime_field() {
        // A small well-conditioned F_p system where no used pivot is zero:
        // diag = 7, off-diag small.
        let d = 8usize;
        let c0 = Matrix::from_fn(d, d, |i, j| {
            if i == d - 1 {
                Fp61::ZERO
            } else if i == j {
                Fp61::new(7)
            } else {
                Fp61::new(((3 * i + 5 * j) % 3) as u64)
            }
        });
        let mut host = c0.clone();
        ge_forward_host(&mut host);
        let mut mach = TcuMachine::model(4, 0);
        let mut dev = c0;
        ge_forward(&mut mach, &mut dev);
        assert_eq!(host, dev, "exact arithmetic: blocked must equal unblocked");
    }

    #[test]
    fn cost_matches_closed_form() {
        for (d, m, l) in [(16u64, 16usize, 0u64), (32, 16, 1000), (32, 4, 77)] {
            let (_, _, c0) = augmented(d as usize, 7);
            let mut mach = TcuMachine::model(m, l);
            let mut c = c0;
            ge_forward(&mut mach, &mut c);
            let s = (m as f64).sqrt() as u64;
            assert_eq!(mach.time(), ge_forward_time(d, s, l), "d={d} m={m} l={l}");
        }
    }

    #[test]
    fn tensor_calls_and_latency_follow_theorem_4() {
        // Tensor calls: Σ_{kk} (q − kk − 1) = q(q−1)/2; latency term
        // q(q−1)/2 · ℓ, i.e. Θ(n/m)·ℓ rather than Θ((n/m)^{3/2})·ℓ.
        let (d, m, l) = (32usize, 16usize, 10_000u64);
        let (_, _, c0) = augmented(d, 11);
        let mut mach = TcuMachine::model(m, l);
        let mut c = c0;
        ge_forward(&mut mach, &mut c);
        let q = (d / 4) as u64;
        assert_eq!(mach.stats().tensor_calls, q * (q - 1) / 2);
        assert_eq!(mach.stats().tensor_latency_time, q * (q - 1) / 2 * l);
    }

    #[test]
    fn single_block_system_never_calls_tensor() {
        let (_, _, c0) = augmented(4, 13);
        let mut mach = TcuMachine::model(16, 5);
        let mut c = c0;
        ge_forward(&mut mach, &mut c);
        assert_eq!(mach.stats().tensor_calls, 0);
        let mut host_c = augmented(4, 13).2;
        ge_forward_host(&mut host_c);
        assert!(approx_eq_rel(&host_c, &c, 1e-12));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_dimension() {
        let mut mach = TcuMachine::model(16, 0);
        let mut c = Matrix::<f64>::identity(10);
        ge_forward(&mut mach, &mut c);
    }

    #[test]
    fn scheduled_elimination_is_bit_identical_with_identical_stats() {
        for (d, m) in [(16usize, 16usize), (32, 16), (24, 16), (32, 4)] {
            let (_, _, c0) = augmented(d, 77 + d as u64);
            let mut eager = TcuMachine::model(m, 1000);
            let mut want = c0.clone();
            ge_forward(&mut eager, &mut want);
            let mut sched = TcuMachine::model(m, 1000);
            sched.executor_mut().enable_pack_cache(4);
            let mut got = c0;
            try_eliminate_scheduled(&mut sched, &mut got).unwrap();
            // Fused accumulates perform the same per-element sums, so
            // even f64 agrees under IEEE equality.
            assert_eq!(got, want, "d={d} m={m}");
            assert_eq!(sched.stats(), eager.stats(), "d={d} m={m}");
        }
    }

    #[test]
    fn scheduled_elimination_exact_over_prime_field() {
        let d = 16usize;
        let c0 = Matrix::from_fn(d, d, |i, j| {
            if i == d - 1 {
                Fp61::ZERO
            } else if i == j {
                Fp61::new(7)
            } else {
                Fp61::new(((3 * i + 5 * j) % 3) as u64)
            }
        });
        let mut eager = TcuMachine::model(16, 3);
        let mut want = c0.clone();
        ge_forward(&mut eager, &mut want);
        let mut sched = TcuMachine::model(16, 3);
        let mut got = c0;
        try_eliminate_scheduled(&mut sched, &mut got).unwrap();
        assert_eq!(got, want);
        assert_eq!(sched.stats(), eager.stats());
    }

    #[test]
    fn scheduled_elimination_packs_each_pivot_panel_once() {
        let (d, m) = (32usize, 16usize);
        let q = d / 4;
        let (_, _, c0) = augmented(d, 5);
        let mut mach = TcuMachine::model(m, 10);
        mach.executor_mut().enable_pack_cache(2);
        let mut x = c0;
        try_eliminate_scheduled(&mut mach, &mut x).unwrap();
        let cache = mach.executor().pack_cache_stats().expect("cache on");
        // Per stage with rem > 0: the panel is the only left operand —
        // one pack, rem − 1 re-uses.
        assert_eq!(cache.lookups, (q * (q - 1) / 2) as u64);
        assert_eq!(cache.misses, (q - 1) as u64);
        assert_eq!(cache.hits, cache.lookups - cache.misses);
    }
}
