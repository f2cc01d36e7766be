//! Strassen-like multiplication on the TCU — §4.1, Theorem 1.
//!
//! A Strassen-like algorithm with base-case parameters `(n₀, p₀)` runs the
//! recursion until a subproblem *fits the tensor unit* (`n ≤ m`, i.e.
//! dimension `≤ √m`), where the product costs one `O(m + ℓ)` invocation.
//! Theorem 1: total time `O((n/m)^{ω₀} (m + ℓ))` with `ω₀ = log_{n₀} p₀`.
//!
//! Two instances are provided, matching the paper's own discussion:
//!
//! * [`multiply_recursive`] — the standard eight-product recursion
//!   (`n₀ = 4, p₀ = 8`, `ω₀ = 3/2`), giving
//!   `O(n^{3/2}/m^{1/2} + (n/m)^{3/2} ℓ)`;
//! * [`multiply_strassen`] — Strassen's seven-product recursion
//!   (`n₀ = 4, p₀ = 7`, `ω₀ = log₄ 7 ≈ 1.4037`), giving
//!   `O(n^{1.4037}/m^{0.4037} + (n/m)^{1.4037} ℓ)`.
//!
//! The recursion threshold is exposed for the base-case ablation of
//! experiment E1 (the paper's choice `n ≤ m` is the sweet spot: stopping
//! earlier wastes the unit on sub-footprint tiles, stopping later wastes
//! CPU additions on products the unit could absorb).

use tcu_core::{Executor, TcuMachine, TensorUnit};
use tcu_linalg::{Matrix, MatrixView, Scalar};

/// Standard recursive multiplication (8 products per level), tensor-unit
/// base case at dimension `≤ √m`.
///
/// # Panics
/// Panics unless operands are square, of equal power-of-two dimension.
#[must_use]
pub fn multiply_recursive<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    let base = mach.sqrt_m();
    multiply_recursive_with_base(mach, a, b, base)
}

/// [`multiply_recursive`] with an explicit base-case dimension (ablation
/// hook; `base_dim ≥ √m` stops early and finishes each base product with
/// the blocked Theorem 2 routine, `base_dim ≤ √m` behaves like `√m`).
///
/// # Panics
/// Panics unless operands are square, of equal power-of-two dimension.
#[must_use]
pub fn multiply_recursive_with_base<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    base_dim: usize,
) -> Matrix<T> {
    check_square_pow2(a.view(), b.view());
    rec_standard(mach, a.view(), b.view(), base_dim.max(1))
}

/// Strassen multiplication (7 products per level), tensor-unit base case
/// at dimension `≤ √m` (Theorem 1 with `p₀ = 7`).
///
/// # Panics
/// Panics unless operands are square, of equal power-of-two dimension.
#[must_use]
pub fn multiply_strassen<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    let base = mach.sqrt_m();
    multiply_strassen_with_base(mach, a, b, base)
}

/// [`multiply_strassen`] with an explicit base-case dimension.
///
/// # Panics
/// Panics unless operands are square, of equal power-of-two dimension.
#[must_use]
pub fn multiply_strassen_with_base<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    base_dim: usize,
) -> Matrix<T> {
    check_square_pow2(a.view(), b.view());
    rec_strassen(mach, a.view(), b.view(), base_dim.max(1))
}

/// Largest leaf-product count for which the scheduled recursion's graph
/// and plan are memoized across calls (see [`crate::plan_memo`]).
///
/// Below this bound the record + coalesce + plan pipeline dominates the
/// actual products on repeated small multiplies (the `strassen d=64`
/// wall cliff the benchmarks exposed), so the plan is cached and
/// replayed; above it, planning is a vanishing fraction of the work and
/// the memory for a retained graph would be wasted.
pub const PLAN_MEMO_MAX_LEAVES: usize = 4096;

/// Deferred fast path: the standard eight-product recursion with every
/// base product recorded into one `tcu-sched` op graph before anything
/// executes. The recursion only ever multiplies sub-blocks of the
/// *original* operands (all combining additions come after the
/// products), so the whole product tree is a single batch of
/// independent ops over regions of `A` and `B` — one wave the scheduler
/// may reorder, coalesce, and strip-cache at will. Base products are
/// emitted grouped by left-operand block with column-adjacent weight
/// blocks consecutive, which is exactly the shape width-merging fuses:
/// with a base dimension `base_dim` below `√m` (the coalescing ablation
/// hook) pairs of products collapse into one invocation. Results are
/// bit-identical to [`multiply_recursive_with_base`] for every scalar
/// type (the leaf products write disjoint slots, so merging fuses truly
/// independent ops and no sum is reassociated), and at base `√m` the
/// simulated `Stats` totals match the eager recursion exactly.
///
/// # Errors
/// Execution faults come back as the [`tcu_core::TcuError`] of
/// [`tcu_sched::Schedule::try_run`].
///
/// # Panics
/// Panics unless operands are square of equal power-of-two dimension
/// and `1 ≤ base_dim ≤ √m` — caller bugs, not runtime faults.
pub fn try_multiply_recursive_scheduled_with_base<
    T: Scalar,
    U: TensorUnit + 'static,
    E: Executor,
>(
    mach: &mut TcuMachine<U, E>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    base_dim: usize,
) -> Result<Matrix<T>, tcu_core::TcuError> {
    use crate::plan_memo::{plan_cached, PlannedGraph};
    use std::rc::Rc;
    use tcu_sched::{ExecEnv, OpGraph, Scheduler};

    check_square_pow2(a.view(), b.view());
    let d = a.rows();
    let s = mach.sqrt_m();
    assert!(
        (1..=s).contains(&base_dim),
        "scheduled base dimension must satisfy 1 ≤ base ≤ √m = {s}"
    );
    // Leaf tile side: halve until the tile fits the base case.
    let mut tile = d;
    while tile > base_dim {
        tile /= 2;
    }
    let leaves = {
        let mut n = 1usize;
        let mut t = d;
        while t > tile {
            n *= 8;
            t /= 2;
        }
        n
    };

    let build = || {
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, d);
        let bb = g.buffer("B", d, d);
        let pb = g.buffer("P", tile, leaves * tile);
        let mut next = 0usize;
        record_products(&mut g, ab, bb, pb, 0, 0, 0, 0, d, tile, &mut next);
        debug_assert_eq!(next, leaves);
        (g, vec![ab, bb, pb])
    };
    // Small recursions pay more for planning than for the products, so
    // their plans are memoized; past the leaf bound the plan is a
    // vanishing cost and is rebuilt fresh.
    let planned = if leaves <= PLAN_MEMO_MAX_LEAVES {
        plan_cached("strassen8", [d, tile, 0, 0], mach.unit(), 1, build)
    } else {
        let (graph, bufs) = build();
        let plan = Scheduler::new().plan(&graph, mach.unit());
        Rc::new(PlannedGraph { graph, bufs, plan })
    };
    let (ab, bb, pb) = (planned.bufs[0], planned.bufs[1], planned.bufs[2]);

    let mut products = Matrix::<T>::zeros(tile, leaves * tile);
    let mut env = ExecEnv::new(&planned.graph);
    env.try_bind_input(ab, a.view())?;
    env.try_bind_input(bb, b.view())?;
    env.try_bind_output(pb, products.view_mut())?;
    planned.plan.try_run(mach, &mut env)?;

    let mut next = 0usize;
    Ok(combine_products(mach, &products, d, tile, &mut next))
}

/// Emit the recursion's base products in left-operand-major order:
/// for each `A` quadrant, its two weight quadrants are column- (or
/// row-) adjacent regions of the original `B`, so consecutive leaf
/// pairs share the left strip against adjacent weights — the width-
/// merge shape. `(ar, ac)` / `(br, bc)` anchor the current sub-blocks.
#[allow(clippy::too_many_arguments)]
fn record_products(
    g: &mut tcu_sched::OpGraph,
    ab: tcu_sched::BufferId,
    bb: tcu_sched::BufferId,
    pb: tcu_sched::BufferId,
    ar: usize,
    ac: usize,
    br: usize,
    bc: usize,
    d: usize,
    tile: usize,
    next: &mut usize,
) {
    use tcu_sched::OperandRef;
    if d <= tile {
        let idx = *next;
        *next += 1;
        g.record(
            tcu_core::TensorOp::padded(tile, tile, tile),
            OperandRef::new(ab, ar, ac, tile, tile),
            OperandRef::new(bb, br, bc, tile, tile),
            OperandRef::new(pb, 0, idx * tile, tile, tile),
        );
        return;
    }
    let h = d / 2;
    // (a11, b11), (a11, b12): same left block, adjacent weight columns.
    let mut rec = |dar, dac, dbr, dbc| {
        record_products(
            g,
            ab,
            bb,
            pb,
            ar + dar * h,
            ac + dac * h,
            br + dbr * h,
            bc + dbc * h,
            h,
            tile,
            next,
        );
    };
    rec(0, 0, 0, 0); // a11·b11
    rec(0, 0, 0, 1); // a11·b12
    rec(0, 1, 1, 0); // a12·b21
    rec(0, 1, 1, 1); // a12·b22
    rec(1, 0, 0, 0); // a21·b11
    rec(1, 0, 0, 1); // a21·b12
    rec(1, 1, 1, 0); // a22·b21
    rec(1, 1, 1, 1); // a22·b22
}

/// Reassemble the product batch bottom-up, consuming leaves in the
/// emission order of [`record_products`] and billing the combining
/// additions exactly as the eager recursion does.
fn combine_products<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    products: &Matrix<T>,
    d: usize,
    tile: usize,
    next: &mut usize,
) -> Matrix<T> {
    if d <= tile {
        let idx = *next;
        *next += 1;
        return products.block(0, idx * tile, tile, tile);
    }
    let h = d / 2;
    let m1 = combine_products(mach, products, h, tile, next); // a11·b11
    let m2 = combine_products(mach, products, h, tile, next); // a11·b12
    let m3 = combine_products(mach, products, h, tile, next); // a12·b21
    let m4 = combine_products(mach, products, h, tile, next); // a12·b22
    let m5 = combine_products(mach, products, h, tile, next); // a21·b11
    let m6 = combine_products(mach, products, h, tile, next); // a21·b12
    let m7 = combine_products(mach, products, h, tile, next); // a22·b21
    let m8 = combine_products(mach, products, h, tile, next); // a22·b22
    mach.charge(4 * (h * h) as u64);
    assemble(&m1.add(&m3), &m2.add(&m4), &m5.add(&m7), &m6.add(&m8))
}

fn check_square_pow2<T: Scalar>(a: MatrixView<'_, T>, b: MatrixView<'_, T>) {
    let d = a.rows();
    assert!(
        a.cols() == d && b.rows() == d && b.cols() == d,
        "operands must be d×d"
    );
    assert!(d.is_power_of_two(), "dimension must be a power of two");
}

/// Base product for a tile that fits the unit (dimension ≤ √m): one
/// (padded) invocation, cost `m + ℓ`.
fn base_mul<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
) -> Matrix<T> {
    mach.tensor_mul_padded_view(a, b)
}

/// Base product for an early-stopped recursion (tile still larger than
/// √m): the blocked Theorem 2 routine.
fn base_or_blocked<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
) -> Matrix<T> {
    if a.rows() <= mach.sqrt_m() {
        base_mul(mach, a, b)
    } else {
        crate::dense::multiply_view(mach, a, b)
    }
}

/// The four quadrants as zero-copy views — the recursion descends
/// through the original backing buffers without materializing a single
/// sub-block.
fn quadrants<T: Scalar>(x: MatrixView<'_, T>) -> [MatrixView<'_, T>; 4] {
    let h = x.rows() / 2;
    [
        x.subview(0, 0, h, h),
        x.subview(0, h, h, h),
        x.subview(h, 0, h, h),
        x.subview(h, h, h, h),
    ]
}

/// Element-wise combination of two views, materialized (the recursion's
/// combining terms are genuinely new values, so they must own storage).
fn combine_views<T: Scalar>(
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
    f: impl Fn(T, T) -> T,
) -> Matrix<T> {
    debug_assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    let mut out = Matrix::<T>::zeros(a.rows(), a.cols());
    for i in 0..a.rows() {
        let (ra, rb) = (a.row(i), b.row(i));
        for (o, (&x, &y)) in out.row_mut(i).iter_mut().zip(ra.iter().zip(rb)) {
            *o = f(x, y);
        }
    }
    out
}

/// `a + b` over views.
fn add_views<T: Scalar>(a: MatrixView<'_, T>, b: MatrixView<'_, T>) -> Matrix<T> {
    combine_views(a, b, T::add)
}

/// `a − b` over views.
fn sub_views<T: Scalar>(a: MatrixView<'_, T>, b: MatrixView<'_, T>) -> Matrix<T> {
    combine_views(a, b, T::sub)
}

fn assemble<T: Scalar>(
    c11: &Matrix<T>,
    c12: &Matrix<T>,
    c21: &Matrix<T>,
    c22: &Matrix<T>,
) -> Matrix<T> {
    let h = c11.rows();
    let mut c = Matrix::<T>::zeros(2 * h, 2 * h);
    c.set_block(0, 0, c11);
    c.set_block(0, h, c12);
    c.set_block(h, 0, c21);
    c.set_block(h, h, c22);
    c
}

fn rec_standard<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
    base_dim: usize,
) -> Matrix<T> {
    let d = a.rows();
    if d <= base_dim {
        return base_or_blocked(mach, a, b);
    }
    let h = d / 2;
    let [a11, a12, a21, a22] = quadrants(a);
    let [b11, b12, b21, b22] = quadrants(b);

    // Eight recursive products, four Θ(h²) combining additions.
    let p1 = rec_standard(mach, a11, b11, base_dim);
    let p2 = rec_standard(mach, a12, b21, base_dim);
    let p3 = rec_standard(mach, a11, b12, base_dim);
    let p4 = rec_standard(mach, a12, b22, base_dim);
    let p5 = rec_standard(mach, a21, b11, base_dim);
    let p6 = rec_standard(mach, a22, b21, base_dim);
    let p7 = rec_standard(mach, a21, b12, base_dim);
    let p8 = rec_standard(mach, a22, b22, base_dim);
    mach.charge(4 * (h * h) as u64);
    assemble(&p1.add(&p2), &p3.add(&p4), &p5.add(&p6), &p7.add(&p8))
}

fn rec_strassen<T: Scalar, U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
    base_dim: usize,
) -> Matrix<T> {
    let d = a.rows();
    if d <= base_dim {
        return base_or_blocked(mach, a, b);
    }
    let h = d / 2;
    let [a11, a12, a21, a22] = quadrants(a);
    let [b11, b12, b21, b22] = quadrants(b);

    // Ten pre-additions.
    mach.charge(10 * (h * h) as u64);
    let s1 = add_views(a11, a22);
    let s2 = add_views(b11, b22);
    let s3 = add_views(a21, a22);
    let s4 = sub_views(b12, b22);
    let s5 = sub_views(b21, b11);
    let s6 = add_views(a11, a12);
    let s7 = sub_views(a21, a11);
    let s8 = add_views(b11, b12);
    let s9 = sub_views(a12, a22);
    let s10 = add_views(b21, b22);

    // Seven recursive products.
    let m1 = rec_strassen(mach, s1.view(), s2.view(), base_dim);
    let m2 = rec_strassen(mach, s3.view(), b11, base_dim);
    let m3 = rec_strassen(mach, a11, s4.view(), base_dim);
    let m4 = rec_strassen(mach, a22, s5.view(), base_dim);
    let m5 = rec_strassen(mach, s6.view(), b22, base_dim);
    let m6 = rec_strassen(mach, s7.view(), s8.view(), base_dim);
    let m7 = rec_strassen(mach, s9.view(), s10.view(), base_dim);

    // Eight post-additions.
    mach.charge(8 * (h * h) as u64);
    let c11 = m1.add(&m4).sub(&m5).add(&m7);
    let c12 = m3.add(&m5);
    let c21 = m2.add(&m4);
    let c22 = m1.sub(&m2).add(&m3).add(&m6);
    assemble(&c11, &c12, &c21, &c22)
}

/// Exact simulated time of [`multiply_recursive`] on a model machine:
/// mirrors the recursion's charges (`8 T(d/2) + 4(d/2)²`, base `m + ℓ`).
#[must_use]
pub fn recursive_time(d: u64, s: u64, l: u64) -> u64 {
    if d <= s {
        return s * s + l;
    }
    let h = d / 2;
    8 * recursive_time(h, s, l) + 4 * h * h
}

/// Exact simulated time of [`multiply_strassen`] on a model machine
/// (`7 T(d/2) + 18(d/2)²`, base `m + ℓ`).
#[must_use]
pub fn strassen_time(d: u64, s: u64, l: u64) -> u64 {
    if d <= s {
        return s * s + l;
    }
    let h = d / 2;
    7 * strassen_time(h, s, l) + 18 * h * h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcu_core::TcuMachine;
    use tcu_linalg::ops::matmul_naive;

    fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
        Matrix::from_fn(r, c, |i, j| {
            ((i as i64 * 67 + j as i64 * 29 + seed).wrapping_mul(16807) >> 6) % 41 - 20
        })
    }

    #[test]
    fn both_recursions_match_naive() {
        let mut mach = TcuMachine::model(16, 13);
        for d in [2usize, 4, 8, 16, 32] {
            let a = pseudo(d, d, 1);
            let b = pseudo(d, d, 2);
            let want = matmul_naive(&a, &b);
            assert_eq!(
                multiply_recursive(&mut mach, &a, &b),
                want,
                "standard d={d}"
            );
            assert_eq!(multiply_strassen(&mut mach, &a, &b), want, "strassen d={d}");
        }
    }

    #[test]
    fn costs_match_recurrence_formulas() {
        let (m, l) = (16usize, 777u64);
        for d in [4u64, 8, 16, 32, 64] {
            let a = pseudo(d as usize, d as usize, 3);
            let b = pseudo(d as usize, d as usize, 4);

            let mut mach = TcuMachine::model(m, l);
            let _ = multiply_recursive(&mut mach, &a, &b);
            assert_eq!(mach.time(), recursive_time(d, 4, l), "standard d={d}");

            let mut mach = TcuMachine::model(m, l);
            let _ = multiply_strassen(&mut mach, &a, &b);
            assert_eq!(mach.time(), strassen_time(d, 4, l), "strassen d={d}");
        }
    }

    #[test]
    fn base_call_counts_follow_p0() {
        // (d/√m)^{log2 p0} base invocations at recursion depth log2(d/√m).
        let m = 16usize;
        let d = 64usize; // depth 4 over √m = 4
        let a = pseudo(d, d, 5);
        let b = pseudo(d, d, 6);

        let mut mach = TcuMachine::model(m, 0);
        let _ = multiply_recursive(&mut mach, &a, &b);
        assert_eq!(mach.stats().tensor_calls, 8u64.pow(4));

        let mut mach = TcuMachine::model(m, 0);
        let _ = multiply_strassen(&mut mach, &a, &b);
        assert_eq!(mach.stats().tensor_calls, 7u64.pow(4));
    }

    #[test]
    fn strassen_wins_for_large_ratio() {
        // Strassen's advantage is in the base-call count ((n/m)^{1.4} vs
        // (n/m)^{1.5} invocations), so it wins once each invocation is
        // expensive (large ℓ) — with ℓ = 0 its 18-adds-per-level constant
        // pushes the crossover out to d/√m ≈ 2^10.
        assert!(strassen_time(256, 4, 10_000) < recursive_time(256, 4, 10_000));
        assert!(strassen_time(4096, 4, 0) < recursive_time(4096, 4, 0));
        // Below the crossover the standard recursion is cheaper: the
        // latency-free, small-ratio regime.
        assert!(strassen_time(64, 4, 0) > recursive_time(64, 4, 0));
    }

    #[test]
    fn early_stop_ablation_is_correct_and_costlier_in_latency() {
        let (m, l) = (16usize, 0u64);
        let d = 32usize;
        let a = pseudo(d, d, 7);
        let b = pseudo(d, d, 8);
        let want = matmul_naive(&a, &b);

        // Stop at 2·√m and finish blocks with Theorem 2: still correct.
        let mut mach = TcuMachine::model(m, l);
        assert_eq!(multiply_strassen_with_base(&mut mach, &a, &b, 8), want);

        // Stop below √m: recursion continues past the footprint and pays
        // full-footprint charges for quarter-size tiles — strictly worse.
        let mut fine = TcuMachine::model(m, l);
        let _ = multiply_strassen_with_base(&mut fine, &a, &b, 2);
        let mut canonical = TcuMachine::model(m, l);
        let _ = multiply_strassen(&mut canonical, &a, &b);
        assert!(fine.time() > canonical.time());
    }

    #[test]
    fn works_on_weak_machine() {
        let mut weak = TcuMachine::weak(16, 9);
        let a = pseudo(16, 16, 9);
        let b = pseudo(16, 16, 10);
        assert_eq!(multiply_strassen(&mut weak, &a, &b), matmul_naive(&a, &b));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut mach = TcuMachine::model(16, 0);
        let a = pseudo(12, 12, 11);
        let _ = multiply_strassen(&mut mach, &a, &a.clone());
    }

    #[test]
    fn scheduled_recursion_matches_eager_results_and_stats() {
        let (m, l) = (16usize, 777u64);
        for d in [4usize, 8, 16, 32] {
            let a = pseudo(d, d, 31);
            let b = pseudo(d, d, 32);
            let mut eager = TcuMachine::model(m, l);
            let want = multiply_recursive(&mut eager, &a, &b);
            let mut sched = TcuMachine::model(m, l);
            let got = try_multiply_recursive_scheduled_with_base(&mut sched, &a, &b, 4).unwrap();
            assert_eq!(got, want, "d = {d}");
            assert_eq!(sched.stats(), eager.stats(), "d = {d}");
        }
    }

    #[test]
    fn sub_footprint_base_coalesces_product_pairs() {
        // Base 2 on a √m = 4 machine: leaf products come in (same left
        // block, adjacent weight columns) pairs, which width-merging
        // fuses — half the invocations of the eager base-2 ablation,
        // same full-footprint charge per invocation, same result.
        let (m, l) = (16usize, 1000u64);
        let d = 16usize;
        let a = pseudo(d, d, 33);
        let b = pseudo(d, d, 34);
        let mut eager = TcuMachine::model(m, l);
        let want = multiply_recursive_with_base(&mut eager, &a, &b, 2);
        let mut sched = TcuMachine::model(m, l);
        let got = try_multiply_recursive_scheduled_with_base(&mut sched, &a, &b, 2).unwrap();
        assert_eq!(got, want);
        assert_eq!(got, matmul_naive(&a, &b));
        assert_eq!(
            sched.stats().tensor_calls * 2,
            eager.stats().tensor_calls,
            "width merging must halve the base-product invocations"
        );
        assert!(sched.time() < eager.time());
    }

    #[test]
    fn scheduled_recursion_is_float_exact() {
        // Width merges never reassociate a sum, so even f64 results are
        // bit-identical to the eager recursion — including with a
        // sub-footprint base where merging actually happens.
        let d = 16usize;
        let a = Matrix::from_fn(d, d, |i, j| (i as f64 - 3.5) * 0.25 + j as f64 * 0.125);
        let b = Matrix::from_fn(d, d, |i, j| (j as f64 - 8.0) * 0.5 - i as f64 * 0.0625);
        for base in [4usize, 2] {
            let mut eager = TcuMachine::model(16, 5);
            let want = multiply_recursive_with_base(&mut eager, &a, &b, base);
            let mut sched = TcuMachine::model(16, 5);
            let got = try_multiply_recursive_scheduled_with_base(&mut sched, &a, &b, base).unwrap();
            assert_eq!(got, want, "base = {base}");
        }
    }
}
