//! Dense matrix multiplication on the TCU — §4.1, Theorem 2 and
//! Corollary 1.
//!
//! The Theorem 2 algorithm splits the right operand `B` into `√m × √m`
//! blocks and the left operand `A` into *vertical strips* of width `√m`.
//! For each block `B_{k,j}`, the unit loads it as the resident weights and
//! streams the entire strip `A_k` (all `√n` rows) through — one tensor
//! invocation per block, `n/m` invocations in total — then the strip
//! products are accumulated on the CPU. Total simulated time
//!
//! ```text
//!   Θ( n^{3/2}/√m  +  (n/m)·ℓ )        (n = d², d = matrix dimension)
//! ```
//!
//! which Theorem 2 proves optimal for semiring algorithms. The same
//! routine run on a *weak* machine (square calls only) pays latency per
//! square tile instead — `(n/m)^{3/2}·ℓ` — quantifying the value of the
//! model's asymmetric tall-operand feature (experiment E2's ablation).
//!
//! [`multiply_naive_order`] is the other ablation: the classic
//! `i,j,k`-blocked order that reloads the weights for every `√m × √m`
//! product and therefore pays `Θ((n/m)^{3/2})` invocations even on the
//! strong machine.

use tcu_core::{Executor, TcuMachine, TensorUnit};
use tcu_linalg::{Matrix, MatrixView, Scalar};

/// Blocked square multiplication (Theorem 2): `C = A·B` for `d × d`
/// operands.
///
/// # Panics
/// Panics unless `A` and `B` are square of equal dimension `d` with
/// `√m | d`. Use [`multiply_rect`] for general shapes.
#[must_use]
pub fn multiply<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    multiply_view(mach, a.view(), b.view())
}

/// [`multiply`] on borrowed operand views (zero-copy: strips and weight
/// blocks are subviews, never materialized).
///
/// # Panics
/// Panics unless the views are square of equal dimension `d` with
/// `√m | d`.
#[must_use]
pub fn multiply_view<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
) -> Matrix<T> {
    let d = a.rows();
    assert!(
        a.cols() == d && b.rows() == d && b.cols() == d,
        "operands must be d×d"
    );
    let s = mach.sqrt_m();
    assert!(
        d.is_multiple_of(s),
        "√m = {s} must divide d = {d} (pad or use multiply_rect)"
    );
    multiply_rect_view(mach, a, b)
}

/// Rectangular multiplication (Corollary 1 and the general workhorse):
/// `C = A·B` for `A : p × r`, `B : r × q`, any shapes.
///
/// Ragged dimensions are zero-padded to the unit's footprint; the charge
/// is that of the padded calls (hardware runs full tiles regardless).
///
/// # Panics
/// Panics if inner dimensions disagree.
#[must_use]
pub fn multiply_rect<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    multiply_rect_view(mach, a.view(), b.view())
}

/// [`multiply_rect`] on borrowed operand views: every strip of `A` and
/// block of `B` is carved as a subview and streamed straight into the
/// tensor unit — the seed's per-invocation `block`/`col_strip` copies
/// are gone, and the simulated charges are unchanged.
///
/// # Panics
/// Panics if inner dimensions disagree.
#[must_use]
pub fn multiply_rect_view<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (p, r, q) = (a.rows(), a.cols(), b.cols());
    let s = mach.sqrt_m();
    let kb = r.div_ceil(s).max(1);
    let jb = q.div_ceil(s).max(1);

    let mut c = Matrix::<T>::zeros(p, q);
    for j in 0..jb {
        let jw = s.min(q - j * s);
        for k in 0..kb {
            let kw = s.min(r - k * s);
            // Strip of A: all p rows, columns [k·s, k·s + kw).
            let strip = a.subview(0, k * s, p, kw);
            let blk = b.subview(k * s, j * s, kw, jw);
            if kw == s && jw == s && p >= s {
                // Hot path: stream the strip with the product fused into
                // C's column block — no intermediate product matrix.
                let mut out = c.subview_mut(0, j * s, p, jw);
                mach.tensor_mul_acc_view(strip, blk, &mut out);
            } else {
                let prod = mach.tensor_mul_padded_view(strip, blk);
                c.subview_mut(0, j * s, p, jw).add_assign(prod.view());
            }
            if k > 0 {
                // CPU accumulation of strip products (Theorem 2's
                // "final summation"): one add per output element. The
                // host fuses the add into the kernel, the simulated
                // charge is unchanged.
                mach.charge((p * jw) as u64);
            }
        }
    }
    c
}

/// Deferred fast path (feature `sched`): record the Theorem 2 blocked
/// flow into a `tcu-sched` op graph and run the coalesced schedule.
///
/// With the natural block size `√m` the recorded stream is identical to
/// [`multiply`]'s op-for-op (nothing can merge) and the simulated
/// `Stats` totals match the eager path exactly — what the pack cache
/// then removes is host-side strip re-packing, not model charges. With
/// a *smaller* block size (see [`multiply_scheduled_blocked`]) the
/// scheduler's width/inner merging rebuilds full-footprint invocations
/// out of the narrow recording, recovering the model-optimal charge
/// from suboptimally-blocked code.
///
/// The recorded graph and its schedule are memoized per `(d, blk)` and
/// unit in [`crate::plan_memo`], so a repeated call at one shape records,
/// plans and compiles nothing: it binds the operands and runs.
///
/// # Panics
/// Panics unless operands are square of equal dimension `d` with `√m | d`.
#[cfg(feature = "sched")]
#[must_use]
pub fn multiply_scheduled<T: Scalar, U: TensorUnit + 'static, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    let s = mach.sqrt_m();
    multiply_scheduled_blocked(mach, a, b, s)
}

/// [`multiply_scheduled`] with an explicit recording block size
/// `blk ≤ √m` (the coalescing ablation: a block-`blk` recording on a
/// `√m`-unit machine merges `(√m/blk)²` narrow ops into each emitted
/// invocation). For non-`√m` blocks the merged inner chains reassociate
/// per-element sums, so use ring scalars (integers, `F_p`) when exact
/// equality with the eager path matters; at `blk = √m` results are
/// bit-identical for every scalar type.
///
/// # Panics
/// Panics unless operands are square of equal dimension `d`, with
/// `blk | d`, `blk | √m`, and `d ≥ √m`.
#[cfg(feature = "sched")]
#[must_use]
pub fn multiply_scheduled_blocked<T: Scalar, U: TensorUnit + 'static, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    blk: usize,
) -> Matrix<T> {
    try_multiply_scheduled_blocked(mach, a, b, blk).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`multiply_scheduled_blocked`]: execution faults
/// (binding, validation, unit failures) surface as
/// [`tcu_core::TcuError`] instead of panicking. Shape preconditions on
/// the operands still panic — they are caller bugs, not runtime faults.
///
/// # Errors
/// Propagates any [`tcu_core::TcuError`] from [`tcu_sched::Schedule::try_run`].
#[cfg(feature = "sched")]
pub fn try_multiply_scheduled_blocked<T: Scalar, U: TensorUnit + 'static, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    blk: usize,
) -> Result<Matrix<T>, tcu_core::TcuError> {
    use crate::plan_memo::plan_cached;
    use tcu_core::{PadPolicy, TensorOp};
    use tcu_sched::{ExecEnv, OpGraph, OperandRef};

    let d = a.rows();
    assert!(
        a.cols() == d && b.rows() == d && b.cols() == d,
        "operands must be d×d"
    );
    let s = mach.sqrt_m();
    assert!(
        blk >= 1 && d.is_multiple_of(blk) && s.is_multiple_of(blk) && d >= s,
        "need blk | d, blk | √m = {s}, d ≥ √m (got blk = {blk}, d = {d})"
    );

    // The recording is a pure function of d, blk and √m, and √m is part
    // of every memo key, so (d, blk) names it.
    let planned = plan_cached("dense", [d, blk, 0, 0], mach.unit(), 1, || {
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, d);
        let bb = g.buffer("B", d, d);
        let cb = g.buffer("C", d, d);
        let q = d / blk;
        let pad = if blk == s {
            PadPolicy::Strict
        } else {
            PadPolicy::ZeroPad
        };
        for j in 0..q {
            for k in 0..q {
                g.record(
                    TensorOp {
                        rows: d,
                        inner: blk,
                        width: blk,
                        accumulate: true,
                        pad,
                    },
                    OperandRef::new(ab, 0, k * blk, d, blk),
                    OperandRef::new(bb, k * blk, j * blk, blk, blk),
                    OperandRef::new(cb, 0, j * blk, d, blk),
                );
            }
        }
        (g, vec![ab, bb, cb])
    });
    let (ab, bb, cb) = (planned.bufs[0], planned.bufs[1], planned.bufs[2]);
    let plan = &planned.plan;
    let mut c = Matrix::<T>::zeros(d, d);
    let mut env = ExecEnv::new(&planned.graph);
    env.try_bind_input(ab, a.view())?;
    env.try_bind_input(bb, b.view())?;
    env.try_bind_output(cb, c.view_mut())?;
    plan.try_run(mach, &mut env)?;

    // Theorem 2's final summation, billed per *emitted* op: every
    // column of C pays one add per accumulate pass beyond the first.
    // Coalescing reduces this too — a merged k-chain sums inside the
    // invocation instead of on the CPU.
    let mut passes = vec![0u64; d];
    for sn in plan.nodes() {
        for p in &mut passes[sn.node.out.c0..sn.node.out.c0 + sn.node.out.cols] {
            *p += 1;
        }
    }
    let adds: u64 = passes.iter().map(|&p| (p - 1) * d as u64).sum();
    mach.charge(adds);
    Ok(c)
}

/// Ablation: the classic three-loop blocked order, issuing one *square*
/// tensor invocation per `(i, k, j)` block triple. Correct, but reloads
/// the weights constantly: `(d/√m)³` invocations instead of `(d/√m)²`,
/// so the latency term grows from `(n/m)·ℓ` to `(n/m)^{3/2}·ℓ`.
///
/// # Panics
/// Panics unless operands are square of equal dimension `d` with `√m | d`.
#[must_use]
pub fn multiply_naive_order<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    let d = a.rows();
    assert!(
        a.is_square() && b.is_square() && b.rows() == d,
        "operands must be d×d"
    );
    let s = mach.sqrt_m();
    assert!(d.is_multiple_of(s), "√m = {s} must divide d = {d}");
    let qb = d / s;
    let mut c = Matrix::<T>::zeros(d, d);
    for i in 0..qb {
        for j in 0..qb {
            for k in 0..qb {
                let mut out = c.subview_mut(i * s, j * s, s, s);
                mach.tensor_mul_acc_view(
                    a.subview(i * s, k * s, s, s),
                    b.subview(k * s, j * s, s, s),
                    &mut out,
                );
                mach.charge((s * s) as u64);
            }
        }
    }
    c
}

/// Exact simulated time of [`multiply`] on a *model* machine for `d × d`
/// operands with `√m = s` dividing `d` and latency `l`:
/// `(d/s)²` invocations of `d` rows plus `(d/s)·(d/s − 1)` strip adds of
/// `d·s` elements.
#[must_use]
pub fn multiply_time(d: u64, s: u64, l: u64) -> u64 {
    let q = d / s;
    q * q * (d * s + l) + q * (q - 1) * d * s
}

/// Exact simulated time of [`multiply_naive_order`] on a model machine.
#[must_use]
pub fn multiply_naive_order_time(d: u64, s: u64, l: u64) -> u64 {
    let q = d / s;
    q * q * q * (s * s + l) + q * q * q * s * s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcu_core::TcuMachine;
    use tcu_linalg::ops::matmul_naive;

    fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
        Matrix::from_fn(r, c, |i, j| {
            ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
        })
    }

    #[test]
    fn blocked_matches_naive_square() {
        let mut mach = TcuMachine::model(16, 11);
        for d in [4usize, 8, 16, 32] {
            let a = pseudo(d, d, 1);
            let b = pseudo(d, d, 2);
            assert_eq!(multiply(&mut mach, &a, &b), matmul_naive(&a, &b), "d = {d}");
        }
    }

    #[test]
    fn rect_matches_naive_with_ragged_shapes() {
        let mut mach = TcuMachine::model(16, 3);
        for (p, r, q) in [
            (5usize, 3usize, 7usize),
            (4, 4, 4),
            (9, 17, 2),
            (1, 1, 1),
            (12, 8, 20),
        ] {
            let a = pseudo(p, r, 3);
            let b = pseudo(r, q, 4);
            assert_eq!(
                multiply_rect(&mut mach, &a, &b),
                matmul_naive(&a, &b),
                "{p}x{r}x{q}"
            );
        }
    }

    #[test]
    fn naive_order_matches_naive() {
        let mut mach = TcuMachine::model(16, 7);
        let a = pseudo(16, 16, 5);
        let b = pseudo(16, 16, 6);
        assert_eq!(
            multiply_naive_order(&mut mach, &a, &b),
            matmul_naive(&a, &b)
        );
    }

    #[test]
    fn cost_is_exactly_theorem_2() {
        let (m, l) = (16u64, 1000u64);
        let s = 4u64;
        for d in [8u64, 16, 32] {
            let mut mach = TcuMachine::model(m as usize, l);
            let a = pseudo(d as usize, d as usize, 7);
            let b = pseudo(d as usize, d as usize, 8);
            let _ = multiply(&mut mach, &a, &b);
            assert_eq!(mach.time(), multiply_time(d, s, l), "d = {d}");
            // Tensor-call count is (d/s)², each streaming d rows.
            assert_eq!(mach.stats().tensor_calls, (d / s) * (d / s));
            assert_eq!(mach.stats().tensor_rows, (d / s) * (d / s) * d);
            // Latency term is exactly (n/m)·ℓ.
            assert_eq!(mach.stats().tensor_latency_time, (d / s) * (d / s) * l);
        }
    }

    #[test]
    fn naive_order_cost_formula() {
        let (m, l) = (16usize, 500u64);
        let d = 16usize;
        let mut mach = TcuMachine::model(m, l);
        let a = pseudo(d, d, 9);
        let b = pseudo(d, d, 10);
        let _ = multiply_naive_order(&mut mach, &a, &b);
        assert_eq!(mach.time(), multiply_naive_order_time(d as u64, 4, l));
        assert_eq!(mach.stats().tensor_calls, 4 * 4 * 4);
    }

    #[test]
    fn tall_streaming_beats_naive_order_on_latency() {
        // Same product, same machine parameters: the Theorem 2 order must
        // pay a factor d/s fewer latencies.
        let (m, l) = (16usize, 10_000u64);
        let d = 32usize;
        let a = pseudo(d, d, 11);
        let b = pseudo(d, d, 12);

        let mut fast = TcuMachine::model(m, l);
        let _ = multiply(&mut fast, &a, &b);
        let mut slow = TcuMachine::model(m, l);
        let _ = multiply_naive_order(&mut slow, &a, &b);

        let q = (d / 4) as u64;
        assert_eq!(fast.stats().tensor_latency_time, q * q * l);
        assert_eq!(slow.stats().tensor_latency_time, q * q * q * l);
        assert!(slow.time() > fast.time());
    }

    #[test]
    fn weak_machine_pays_latency_per_tile() {
        // Theorem 2's algorithm on the §5 weak model: every strip call
        // splits into d/s square invocations, so the latency term becomes
        // (n/m)^{3/2}·ℓ.
        let (m, l) = (16usize, 1_000u64);
        let d = 32usize;
        let a = pseudo(d, d, 13);
        let b = pseudo(d, d, 14);
        let mut weak = TcuMachine::weak(m, l);
        let c = multiply(&mut weak, &a, &b);
        assert_eq!(c, matmul_naive(&a, &b));
        let q = (d / 4) as u64;
        assert_eq!(weak.stats().tensor_calls, q * q * q);
        assert_eq!(weak.stats().tensor_latency_time, q * q * q * l);
    }

    #[test]
    fn rectangular_cost_matches_corollary_1() {
        // √n × r times r × √n with r ≤ √n: time Θ(r·n/√m + (r√n/m)·ℓ).
        let (m, l) = (16u64, 100u64);
        let s = 4u64;
        let (d, r) = (32u64, 8u64);
        let a = pseudo(d as usize, r as usize, 15);
        let b = pseudo(r as usize, d as usize, 16);
        let mut mach = TcuMachine::model(m as usize, l);
        let _ = multiply_rect(&mut mach, &a, &b);
        // (r/s)·(d/s) invocations, each streaming d rows.
        let calls = (r / s) * (d / s);
        assert_eq!(mach.stats().tensor_calls, calls);
        assert_eq!(mach.stats().tensor_latency_time, calls * l);
        // adds: per output column-block, (r/s − 1) strip adds of d·s.
        let adds = (d / s) * (r / s - 1) * d * s;
        assert_eq!(mach.time(), calls * (d * s + l) + adds);
    }

    #[test]
    fn identity_multiplication_on_machine() {
        let mut mach = TcuMachine::model(4, 0);
        let a = pseudo(6, 6, 17);
        let id = Matrix::<i64>::identity(6);
        assert_eq!(multiply(&mut mach, &a, &id), a);
    }

    #[cfg(feature = "sched")]
    #[test]
    fn scheduled_at_native_block_matches_eager_stats_exactly() {
        let (m, l) = (16usize, 1000u64);
        for d in [16usize, 32, 64] {
            let a = pseudo(d, d, 21);
            let b = pseudo(d, d, 22);
            let mut eager = TcuMachine::model(m, l);
            let want = multiply(&mut eager, &a, &b);
            let mut sched = TcuMachine::model(m, l);
            sched.executor_mut().enable_pack_cache(d / 4);
            let got = multiply_scheduled(&mut sched, &a, &b);
            assert_eq!(got, want, "d = {d}");
            assert_eq!(got, matmul_naive(&a, &b), "d = {d}");
            // Same op multiset, same CPU summation bill: full parity.
            assert_eq!(sched.stats(), eager.stats(), "d = {d}");
            // Every strip packed once, reused across the block columns.
            let cache = sched.executor().pack_cache_stats().expect("cache on");
            assert_eq!(cache.misses, (d / 4) as u64, "d = {d}");
        }
    }

    #[cfg(feature = "sched")]
    #[test]
    fn repeated_scheduled_calls_reuse_one_memoized_plan() {
        use crate::plan_memo::plan_cache_stats;
        let (m, l) = (16usize, 4_064u64);
        let d = 32usize;
        let a = pseudo(d, d, 25);
        let b = pseudo(d, d, 26);
        let run = || {
            let mut mach = TcuMachine::model(m, l);
            let c = multiply_scheduled_blocked(&mut mach, &a, &b, 2);
            (c, mach.stats().clone())
        };
        let (first, first_stats) = run();
        let before = plan_cache_stats();
        let (second, second_stats) = run();
        let after = plan_cache_stats();
        assert_eq!(after.misses - before.misses, 0, "no re-planning");
        assert_eq!(after.hits - before.hits, 1, "one memo hit");
        assert_eq!(second, first);
        assert_eq!(second, matmul_naive(&a, &b));
        assert_eq!(second_stats, first_stats);
    }

    #[cfg(feature = "sched")]
    #[test]
    fn narrow_recording_coalesces_back_to_native_charges() {
        // Block-2 recording on a √m = 4 machine: the scheduler merges
        // each 2×2-of-narrow-ops group into one full-footprint op, so
        // the charge matches the natively-blocked flow (modulo the CPU
        // adds the merged k-chains absorb), and results stay exact.
        let (m, l) = (16usize, 500u64);
        let d = 32usize;
        let a = pseudo(d, d, 23);
        let b = pseudo(d, d, 24);
        let mut native = TcuMachine::model(m, l);
        let want = multiply(&mut native, &a, &b);
        let mut narrow = TcuMachine::model(m, l);
        let got = multiply_scheduled_blocked(&mut narrow, &a, &b, 2);
        assert_eq!(got, want);
        // Full parity with the natively-blocked flow: merging rebuilds
        // the same invocation grid (charge rows pad to the footprint
        // either way) and the same per-column add chains.
        assert_eq!(narrow.stats(), native.stats());
        // The un-coalesced narrow recording would have paid 4× the
        // calls — (d/2)² instead of (d/4)².
        let q = (d / 2) as u64;
        assert_eq!(native.stats().tensor_calls * 4, q * q);
    }
}
