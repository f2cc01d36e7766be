//! Tiled host kernels for the simulator's hot path.
//!
//! Every simulated tensor instruction ends in a host matrix product;
//! [`crate::ops::matmul_naive`] defines the semantics (and stays the test
//! oracle), while the kernels here compute the *same sum in the same
//! per-element order* but organized for the cache and the register file:
//!
//! * `pack_b` copies the right operand once per invocation into
//!   column panels of width `NR`, so the micro-kernel reads `B` as
//!   contiguous, reusable rows regardless of the source view's stride;
//! * the `MR × NR` register-blocked micro-kernel keeps a full tile of
//!   `C` in accumulators across the entire inner (`k`) loop, eliminating
//!   the per-`k` round trips through `C` that dominate the naive triple
//!   loop;
//! * [`matmul_threads`] adds an opt-in parallel path that splits the
//!   tall left operand of a large enough product (`MIN_BAND_WORK`
//!   multiply-adds per band) into **deterministic row bands** — band
//!   boundaries depend only on `(rows, threads)`, each band is written
//!   by exactly one worker via disjoint `split_at_mut` chunks, and every
//!   element is accumulated in the same `k` order as the serial kernel —
//!   so results are bit-identical for every thread count;
//! * [`matmul_into`] is the runtime-dispatch entry the executor layer
//!   keys off a `TensorOp`'s accumulate flag;
//! * [`pack_a`] / [`matmul_acc_packed`] pack a tall strip once into
//!   interleaved row panels so blocked flows that re-stream the same
//!   strip per block column read a compact sequential buffer instead of
//!   page-strided rows.
//!
//! Accumulation order matters: for each output element the `k` loop runs
//! in ascending order from a zero accumulator, exactly like
//! `matmul_naive`, so integer and `F_p` results are equal and float
//! results agree under IEEE `==` (the only divergence is the sign of a
//! zero, which `==` ignores). Determinism of the *simulated* machine is
//! untouched — these kernels never see `Stats` or traces.
//!
//! **Narrow multiplier.** For scalar types with [`Scalar::NARROW_MUL`]
//! (`i64`, `u64`), a call whose `A` and `B` elements all pass
//! [`Scalar::is_narrow`] — they fit 32 bits — runs the micro-kernels on
//! [`Scalar::mul_add_narrow`]: the operands' 32-bit values, sign- (or
//! zero-) extended, multiplied into the same 64-bit accumulators in the
//! same ascending-`k` order. The product of two 32-bit values is exact
//! in 64 bits, so it equals the wide `a * b`, and every accumulator step
//! is the same add: the result is bit-identical to the wide path for
//! every input, with no bound on the sums and no rounding involved. The
//! choice is a property of the input alone. [`PackedA`] records it when
//! it packs, `pack_b` checks `B` as it copies it, and the view path
//! scans `A` once per call, before [`matmul_threads`] splits bands, so
//! every band runs the same multiplier. One element past 32 bits in
//! either operand sends the whole call down the wide path.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{MatrixView, MatrixViewMut};

/// Minimum multiply-adds (`rows × inner × width`) per parallel band.
/// Measured on a 2-vCPU box, a scoped spawn and join of two bands costs
/// 45–60 µs, and two bands first match the serial kernel at about 2^21
/// multiply-adds each (f64 and i64, inner and width 16 or 64; at 2^20
/// they still lost by 2–28%). At 2^22 each, they beat it by 8–36%. Every
/// `bench_matmul` shape, at most 2^19 per call, stays serial.
const MIN_BAND_WORK: usize = 1 << 22;

/// Micro-kernel height: rows of `C` kept in accumulators per tile.
const MR: usize = 4;
/// Micro-kernel width: one packed `B` panel. `4 × 16` keeps the whole
/// accumulator tile in vector registers (8 zmm of `f64` with AVX-512,
/// 16 ymm with AVX2) and covers the hot `√m = 16` shape with a single
/// panel, so the left operand is traversed once per invocation.
const NR: usize = 16;

/// `C = A·B` through the tiled kernel, single-threaded.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
#[must_use]
pub fn matmul<T: Scalar>(a: MatrixView<'_, T>, b: MatrixView<'_, T>) -> Matrix<T> {
    matmul_threads(a, b, 1)
}

/// `C = A·B` through the tiled kernel, splitting the left operand's rows
/// into `threads` deterministic bands executed under
/// [`std::thread::scope`]. `threads ≤ 1`, or too little work to give
/// each band its minimum, runs the serial kernel on the calling thread;
/// results are identical either way, element for element.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
#[must_use]
pub fn matmul_threads<T: Scalar>(
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
    threads: usize,
) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimensions must agree");
    let mut c = Matrix::<T>::zeros(a.rows(), b.cols());
    run::<T, false>(&mut c.view_mut(), a, b, threads);
    c
}

/// Fused accumulate `C += A·B` into a (possibly strided) destination
/// view — the `D = A·B + C` shape real tensor cores execute. Eliminates
/// the intermediate product matrix and the separate accumulation pass of
/// the blocked algorithms; the per-element sum order matches
/// `matmul_naive` followed by an element add, so results agree with the
/// unfused flow.
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or `c` is not `a.rows × b.cols`.
pub fn matmul_acc<T: Scalar>(
    c: &mut MatrixViewMut<'_, T>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
) {
    matmul_acc_threads(c, a, b, 1);
}

/// [`matmul_acc`] with the deterministic row-band parallel path.
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or `c` is not `a.rows × b.cols`.
pub fn matmul_acc_threads<T: Scalar>(
    c: &mut MatrixViewMut<'_, T>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
    threads: usize,
) {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimensions must agree");
    assert_eq!(
        (c.rows(), c.cols()),
        (a.rows(), b.cols()),
        "matmul_acc: output shape mismatch"
    );
    run::<T, true>(c, a, b, threads);
}

/// Unified entry point for the executor layer: `C (+)= A·B` with the
/// accumulate flag decided at runtime (the `TensorOp.accumulate` bit of
/// `tcu-core`'s IR dispatches here). Overwrite mode writes every element
/// of `c`, so the destination needs no pre-zeroing.
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or `c` is not `a.rows × b.cols`.
pub fn matmul_into<T: Scalar>(
    c: &mut MatrixViewMut<'_, T>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
    accumulate: bool,
    threads: usize,
) {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimensions must agree");
    assert_eq!(
        (c.rows(), c.cols()),
        (a.rows(), b.cols()),
        "matmul_acc: output shape mismatch"
    );
    if accumulate {
        run::<T, true>(c, a, b, threads);
    } else {
        run::<T, false>(c, a, b, threads);
    }
}

/// A left operand packed once into contiguous `MR`-row panels:
/// `panel t`, covering rows `[t·MR, t·MR + MR)`, stores those rows
/// back-to-back, each as its `k` values in column order (rows past the
/// ragged bottom edge are zero). Keeping the rows *row-major inside the
/// panel* lets the packed micro-kernel read `A` exactly like the view
/// kernel reads its rows — same loads, same codegen — with the panel
/// merely guaranteeing the rows sit on one or two cache lines instead
/// of a page apart. One pack per *strip* — not per invocation — is the
/// cache lever for blocked flows: a `d × √m` strip of a `d × d` matrix
/// has page-sized row strides (TLB-hostile, one cache line per row
/// touch), and the blocked algorithm re-streams it once per block
/// column. Packing converts all of those re-reads into sequential scans
/// of a compact buffer that stays cache-resident across uses.
#[derive(Clone, Debug)]
pub struct PackedA<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
    /// Every element is [`Scalar::is_narrow`]; recorded once, at pack
    /// time, so each product against the strip skips the scan.
    narrow: bool,
}

impl<T: Scalar> PackedA<T> {
    /// Rows of the packed operand.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the packed operand.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes of packed storage — what a pack-cache accounts as "packed
    /// bytes moved" per miss (panel zero-padding included: the buffer is
    /// what the kernel actually scans).
    #[inline]
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

/// Pack `a` into `MR`-row interleaved panels (see [`PackedA`]).
#[must_use]
pub fn pack_a<T: Scalar>(a: MatrixView<'_, T>) -> PackedA<T> {
    let (n, k) = (a.rows(), a.cols());
    let tiles = n.div_ceil(MR);
    let mut data = vec![T::ZERO; tiles * k * MR];
    let mut narrow = T::NARROW_MUL;
    for t in 0..tiles {
        let i0 = t * MR;
        let h = MR.min(n - i0);
        let panel = &mut data[t * k * MR..(t + 1) * k * MR];
        for r in 0..h {
            let row = a.row(i0 + r);
            narrow = narrow && all_narrow(row);
            panel[r * k..(r + 1) * k].copy_from_slice(row);
        }
    }
    PackedA {
        rows: n,
        cols: k,
        data,
        narrow,
    }
}

/// Fused accumulate `C += A·B` with a pre-packed left operand
/// (serial; blocked callers parallelize across strips). Element results
/// and per-element accumulation order are identical to
/// [`matmul_acc`] — only the memory layout of `A` differs.
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or `c` is not `a.rows × b.cols`.
pub fn matmul_acc_packed<T: Scalar>(
    c: &mut MatrixViewMut<'_, T>,
    a: &PackedA<T>,
    b: MatrixView<'_, T>,
) {
    matmul_packed_into(c, a, b, true);
}

/// Unified packed-strip entry for the executor layer: `C (+)= A·B` with
/// a pre-packed left operand and the accumulate flag decided at runtime —
/// the pack-cache execution path of `HostExecutor` dispatches here with
/// whatever `TensorOp.accumulate` says. Overwrite mode writes every
/// element of `c` (no pre-zeroing needed); both modes are bit-identical
/// to [`matmul_into`] on the unpacked view.
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or `c` is not `a.rows × b.cols`.
pub fn matmul_packed_into<T: Scalar>(
    c: &mut MatrixViewMut<'_, T>,
    a: &PackedA<T>,
    b: MatrixView<'_, T>,
    accumulate: bool,
) {
    let (n, k, p) = (a.rows, a.cols, b.cols());
    assert_eq!(k, b.rows(), "matmul: inner dimensions must agree");
    assert_eq!(
        (c.rows(), c.cols()),
        (n, p),
        "matmul_acc: output shape mismatch"
    );
    if n == 0 || p == 0 {
        return;
    }
    if k == 0 {
        // An empty inner dimension accumulates nothing — but overwrite
        // mode must still zero the destination like `matmul_into` does.
        if !accumulate {
            for i in 0..n {
                c.row_mut(i).fill(T::ZERO);
            }
        }
        return;
    }
    let (packed_b, b_narrow) = pack_b(b);
    match (accumulate, T::NARROW_MUL && a.narrow && b_narrow) {
        (true, true) => packed_band::<T, true, true>(a, &packed_b, k, p, c),
        (true, false) => packed_band::<T, true, false>(a, &packed_b, k, p, c),
        (false, true) => packed_band::<T, false, true>(a, &packed_b, k, p, c),
        (false, false) => packed_band::<T, false, false>(a, &packed_b, k, p, c),
    }
}

/// Const-dimension dispatch for the packed band (same hot square shapes
/// as `mul_band`: fully unrolled inner products).
fn packed_band<T: Scalar, const ACC: bool, const NARROW: bool>(
    a: &PackedA<T>,
    packed_b: &[T],
    k: usize,
    p: usize,
    c: &mut MatrixViewMut<'_, T>,
) {
    match (k, p) {
        (4, 4) => packed_band_impl::<T, ACC, NARROW>(a, packed_b, 4, 4, c),
        (8, 8) => packed_band_impl::<T, ACC, NARROW>(a, packed_b, 8, 8, c),
        (16, 16) => packed_band_impl::<T, ACC, NARROW>(a, packed_b, 16, 16, c),
        (32, 32) => packed_band_impl::<T, ACC, NARROW>(a, packed_b, 32, 32, c),
        _ => packed_band_impl::<T, ACC, NARROW>(a, packed_b, k, p, c),
    }
}

#[inline(always)]
fn packed_band_impl<T: Scalar, const ACC: bool, const NARROW: bool>(
    a: &PackedA<T>,
    packed_b: &[T],
    k: usize,
    p: usize,
    c: &mut MatrixViewMut<'_, T>,
) {
    let n = a.rows;
    let panels = p.div_ceil(NR);
    for (t, apanel) in a.data.chunks_exact(k * MR).enumerate() {
        let i0 = t * MR;
        let mr = MR.min(n - i0);
        for q in 0..panels {
            let j0 = q * NR;
            let w = NR.min(p - j0);
            let bpanel = &packed_b[q * k * NR..(q + 1) * k * NR];
            match mr {
                1 => micro_kernel_packed::<T, 1, ACC, NARROW>(apanel, bpanel, k, j0, w, i0, c),
                2 => micro_kernel_packed::<T, 2, ACC, NARROW>(apanel, bpanel, k, j0, w, i0, c),
                3 => micro_kernel_packed::<T, 3, ACC, NARROW>(apanel, bpanel, k, j0, w, i0, c),
                _ => micro_kernel_packed::<T, MR, ACC, NARROW>(apanel, bpanel, k, j0, w, i0, c),
            }
        }
    }
}

/// [`micro_kernel`] over a packed `A` panel: the panel's rows are
/// row-major slices, so this body is the view kernel's verbatim — only
/// the row pointers come from the compact panel instead of the strided
/// source. The `kk` loop ascends from zero accumulators — the exact
/// per-element order of `matmul_naive`, so results are bit-identical to
/// the view-reading kernel (spilling by add when `ACC`, by overwrite
/// else).
#[inline(always)]
fn micro_kernel_packed<T: Scalar, const RB: usize, const ACC: bool, const NARROW: bool>(
    apanel: &[T],
    bpanel: &[T],
    k: usize,
    j0: usize,
    w: usize,
    i0: usize,
    c: &mut MatrixViewMut<'_, T>,
) {
    let mut acc = [[T::ZERO; NR]; RB];
    let mut arows: [&[T]; RB] = [&[]; RB];
    for (r, ar) in arows.iter_mut().enumerate() {
        *ar = &apanel[r * k..(r + 1) * k];
    }
    for kk in 0..k {
        let brow = &bpanel[kk * NR..kk * NR + NR];
        for r in 0..RB {
            let av = arows[r][kk];
            let accr = &mut acc[r];
            for jj in 0..NR {
                accr[jj] = mac::<T, NARROW>(accr[jj], av, brow[jj]);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut c.row_mut(i0 + r)[j0..j0 + w];
        if ACC {
            for (o, &v) in crow.iter_mut().zip(&accr[..w]) {
                *o = o.add(v);
            }
        } else {
            crow.copy_from_slice(&accr[..w]);
        }
    }
}

/// Shared body of the view entries: pack `B`, choose the multiplier,
/// then run the band kernel serially or over deterministic row bands.
/// `ACC` selects accumulate-into vs overwrite.
fn run<T: Scalar, const ACC: bool>(
    c: &mut MatrixViewMut<'_, T>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
    threads: usize,
) {
    if a.rows() == 0 || b.cols() == 0 {
        return;
    }
    let (packed, b_narrow) = pack_b(b);
    // One scan of `A` decides the whole call before any band split, so
    // every band, at every thread count, runs the same multiplier.
    if T::NARROW_MUL && b_narrow && (0..a.rows()).all(|i| all_narrow(a.row(i))) {
        run_bands::<T, ACC, true>(c, a, &packed, threads);
    } else {
        run_bands::<T, ACC, false>(c, a, &packed, threads);
    }
}

/// Run the band kernel over packed `B`, serially or over deterministic
/// row bands.
fn run_bands<T: Scalar, const ACC: bool, const NARROW: bool>(
    c: &mut MatrixViewMut<'_, T>,
    a: MatrixView<'_, T>,
    packed: &[T],
    threads: usize,
) {
    let (n, k) = (a.rows(), a.cols());
    let p = c.cols();
    // A band below MIN_BAND_WORK multiply-adds is cheaper to compute
    // than to spawn, so every call short of two such bands (each tensor
    // instruction of the simulated algorithms, for one) stays serial
    // even when the caller opted into more workers. Results are
    // bit-identical either way, so the threshold is pure policy.
    let threads = threads.min(n * k * p / MIN_BAND_WORK).min(n).max(1);
    if threads == 1 {
        mul_band::<T, ACC, NARROW>(a, packed, k, p, &mut c.reborrow());
        return;
    }

    // Deterministic row bands: ⌈n/threads⌉-sized from the top, remainder
    // spread over the leading bands. Boundaries depend only on
    // (n, threads); each band's output is a disjoint mutable view.
    let base = n / threads;
    let extra = n % threads;
    std::thread::scope(|scope| {
        let mut rest = c.reborrow();
        let mut row = 0usize;
        for t in 0..threads {
            let h = base + usize::from(t < extra);
            if h == 0 {
                continue;
            }
            let (mut band_out, tail) = rest.split_at_row(h);
            rest = tail;
            let band_in = a.subview(row, 0, h, k);
            scope.spawn(move || mul_band::<T, ACC, NARROW>(band_in, packed, k, p, &mut band_out));
            row += h;
        }
    });
}

/// Pack `b` into column panels of width [`NR`]: panel `q` holds columns
/// `[q·NR, q·NR + NR)` as `k` consecutive rows of `NR` elements
/// (zero-padded on the ragged right edge). One pack per invocation makes
/// every micro-kernel `B` access a contiguous forward scan. Also returns
/// whether every element of `b` is narrow, checked as it is copied.
fn pack_b<T: Scalar>(b: MatrixView<'_, T>) -> (Vec<T>, bool) {
    let (k, p) = (b.rows(), b.cols());
    let panels = p.div_ceil(NR).max(1);
    let mut packed = vec![T::ZERO; panels * k * NR];
    let mut narrow = T::NARROW_MUL;
    for q in 0..panels {
        let j0 = q * NR;
        let w = NR.min(p.saturating_sub(j0));
        if w == 0 {
            continue;
        }
        let panel = &mut packed[q * k * NR..(q + 1) * k * NR];
        for kk in 0..k {
            let src = &b.row(kk)[j0..j0 + w];
            narrow = narrow && all_narrow(src);
            panel[kk * NR..kk * NR + w].copy_from_slice(src);
        }
    }
    (packed, narrow)
}

/// Whether every element of `s` takes the narrow multiplier. A
/// branch-free fold, so the scan vectorizes.
#[inline]
fn all_narrow<T: Scalar>(s: &[T]) -> bool {
    s.iter().fold(true, |ok, x| ok & x.is_narrow())
}

/// The micro-kernels' multiply-add: [`Scalar::mul_add_narrow`] when the
/// call's operands are all narrow, [`Scalar::mul_add`] otherwise. Both
/// give the same bits on narrow operands.
#[inline(always)]
fn mac<T: Scalar, const NARROW: bool>(acc: T, a: T, b: T) -> T {
    if NARROW {
        acc.mul_add_narrow(a, b)
    } else {
        acc.mul_add(a, b)
    }
}

/// Serial tiled kernel over one row band: `c` is the band's `h × p`
/// output view (possibly strided), `packed` the full packed `B`.
///
/// The hot shapes are square `√m × √m` right operands; dispatching them
/// to inlined copies of the band loop with *literal* dimensions lets the
/// compiler fully unroll the inner product and keep the register tile
/// clean (the runtime-dimension fallback is ~2× slower on the `√m = 16`
/// shape). All arms run identical code, so results are identical.
fn mul_band<T: Scalar, const ACC: bool, const NARROW: bool>(
    a: MatrixView<'_, T>,
    packed: &[T],
    k: usize,
    p: usize,
    c: &mut MatrixViewMut<'_, T>,
) {
    match (k, p) {
        (4, 4) => mul_band_impl::<T, ACC, NARROW>(a, packed, 4, 4, c),
        (8, 8) => mul_band_impl::<T, ACC, NARROW>(a, packed, 8, 8, c),
        (16, 16) => mul_band_impl::<T, ACC, NARROW>(a, packed, 16, 16, c),
        (32, 32) => mul_band_impl::<T, ACC, NARROW>(a, packed, 32, 32, c),
        _ => mul_band_impl::<T, ACC, NARROW>(a, packed, k, p, c),
    }
}

#[inline(always)]
fn mul_band_impl<T: Scalar, const ACC: bool, const NARROW: bool>(
    a: MatrixView<'_, T>,
    packed: &[T],
    k: usize,
    p: usize,
    c: &mut MatrixViewMut<'_, T>,
) {
    let h = a.rows();
    debug_assert_eq!((c.rows(), c.cols()), (h, p));
    let panels = p.div_ceil(NR);
    let mut i0 = 0usize;
    while i0 < h {
        let mr = MR.min(h - i0);
        for q in 0..panels {
            let j0 = q * NR;
            let w = NR.min(p - j0);
            let panel = &packed[q * k * NR..(q + 1) * k * NR];
            if mr == MR {
                micro_kernel::<T, MR, ACC, NARROW>(a, i0, panel, k, j0, w, c);
            } else {
                match mr {
                    1 => micro_kernel::<T, 1, ACC, NARROW>(a, i0, panel, k, j0, w, c),
                    2 => micro_kernel::<T, 2, ACC, NARROW>(a, i0, panel, k, j0, w, c),
                    _ => micro_kernel::<T, 3, ACC, NARROW>(a, i0, panel, k, j0, w, c),
                }
            }
        }
        i0 += mr;
    }
}

/// `RB × NR` register tile: accumulate rows `[i0, i0 + RB)` of the band
/// against one packed panel, then spill to `c` (overwriting, or adding
/// when `ACC`). The `kk` loop ascends from zero accumulators — the exact
/// per-element order of `matmul_naive` — and `NARROW` picks the
/// multiply-add ([`mac`]).
#[inline(always)]
fn micro_kernel<T: Scalar, const RB: usize, const ACC: bool, const NARROW: bool>(
    a: MatrixView<'_, T>,
    i0: usize,
    panel: &[T],
    k: usize,
    j0: usize,
    w: usize,
    c: &mut MatrixViewMut<'_, T>,
) {
    let mut acc = [[T::ZERO; NR]; RB];
    let mut arows: [&[T]; RB] = [&[]; RB];
    for (r, ar) in arows.iter_mut().enumerate() {
        *ar = a.row(i0 + r);
    }
    for kk in 0..k {
        let brow = &panel[kk * NR..kk * NR + NR];
        for r in 0..RB {
            let av = arows[r][kk];
            let accr = &mut acc[r];
            for jj in 0..NR {
                accr[jj] = mac::<T, NARROW>(accr[jj], av, brow[jj]);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut c.row_mut(i0 + r)[j0..j0 + w];
        if ACC {
            for (o, &v) in crow.iter_mut().zip(&accr[..w]) {
                *o = o.add(v);
            }
        } else {
            crow.copy_from_slice(&accr[..w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::modular::Fp61;
    use crate::ops::matmul_naive;

    fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
        Matrix::from_fn(r, c, |i, j| {
            ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
        })
    }

    #[test]
    fn tiled_matches_naive_over_shapes() {
        for (n, k, p) in [
            (1usize, 1usize, 1usize),
            (4, 4, 4),
            (5, 3, 7),
            (16, 16, 16),
            (33, 16, 16),
            (512, 16, 16),
            (7, 1, 9),
            (2, 19, 31),
            (13, 8, 8),
        ] {
            let a = pseudo(n, k, 1);
            let b = pseudo(k, p, 2);
            assert_eq!(
                matmul(a.view(), b.view()),
                matmul_naive(&a, &b),
                "{n}x{k}x{p}"
            );
        }
    }

    #[test]
    fn tiled_on_strided_views_matches_copies() {
        let big_a = pseudo(20, 24, 3);
        let big_b = pseudo(24, 24, 4);
        let av = big_a.subview(2, 3, 9, 5);
        let bv = big_b.subview(1, 7, 5, 11);
        let want = matmul_naive(&big_a.block(2, 3, 9, 5), &big_b.block(1, 7, 5, 11));
        assert_eq!(matmul(av, bv), want);
    }

    #[test]
    fn parallel_bands_are_bit_identical() {
        // 4101 × 64 × 64: 4 real bands (≥ MIN_BAND_WORK each) with a
        // ragged remainder spread over the leading ones.
        let a = pseudo(4101, 64, 5);
        let b = pseudo(64, 64, 6);
        assert_eq!(4101 * 64 * 64 / MIN_BAND_WORK, 4);
        let serial = matmul(a.view(), b.view());
        for threads in [2usize, 3, 4, 7, 64] {
            assert_eq!(
                matmul_threads(a.view(), b.view(), threads),
                serial,
                "threads = {threads}"
            );
        }
        // Small operands fall back to the serial kernel regardless.
        let small = pseudo(37, 64, 7);
        assert_eq!(
            matmul_threads(small.view(), b.view(), 8),
            matmul(small.view(), b.view())
        );
    }

    #[test]
    fn float_results_equal_naive() {
        let a = Matrix::from_fn(23, 12, |i, j| (i as f64 - 3.5) * 0.25 + j as f64 * 0.125);
        let b = Matrix::from_fn(12, 17, |i, j| (j as f64 - 8.0) * 0.5 - i as f64 * 0.0625);
        assert_eq!(matmul(a.view(), b.view()), matmul_naive(&a, &b));
        assert_eq!(matmul_threads(a.view(), b.view(), 3), matmul_naive(&a, &b));
    }

    #[test]
    fn field_and_complex_scalars() {
        let a = Matrix::from_fn(9, 6, |i, j| Fp61::new((i as u64 * 131 + j as u64) << 7));
        let b = Matrix::from_fn(6, 10, |i, j| Fp61::new((j as u64 * 31 + i as u64) << 9));
        assert_eq!(matmul(a.view(), b.view()), matmul_naive(&a, &b));

        let ca = Matrix::from_fn(8, 8, |i, j| Complex64::root_of_unity(16, (i * j) as i64));
        let cb = Matrix::from_fn(8, 8, |i, j| Complex64::root_of_unity(16, (i + j) as i64));
        assert_eq!(matmul(ca.view(), cb.view()), matmul_naive(&ca, &cb));
    }

    #[test]
    fn fused_accumulate_equals_product_plus_add() {
        let big = pseudo(30, 40, 11);
        let wts = pseudo(20, 20, 12);
        let a = big.subview(1, 2, 21, 16);
        let b = wts.subview(3, 1, 16, 16);
        // Unfused reference: C0 + A·B.
        let mut want = pseudo(21, 16, 13);
        want.add_assign(&matmul(a, b));
        // Fused, serial and threaded, must agree exactly.
        for threads in [1usize, 3, 5] {
            let mut c = pseudo(21, 16, 13);
            matmul_acc_threads(&mut c.view_mut(), a, b, threads);
            assert_eq!(c, want, "threads = {threads}");
        }
    }

    #[test]
    fn fused_accumulate_into_strided_block() {
        let a = pseudo(8, 4, 21);
        let b = pseudo(4, 4, 22);
        let mut want_inner = pseudo(8, 4, 23);
        want_inner.add_assign(&matmul(a.view(), b.view()));

        // Destination is a block of a larger matrix; surrounding entries
        // must be untouched.
        let mut host = Matrix::<i64>::zeros(12, 10);
        host.set_block_view(2, 3, pseudo(8, 4, 23).view());
        let before = host.clone();
        let mut dst = host.subview_mut(2, 3, 8, 4);
        matmul_acc(&mut dst, a.view(), b.view());
        assert_eq!(host.block(2, 3, 8, 4), want_inner);
        for i in 0..12 {
            for j in 0..10 {
                if !(2..10).contains(&i) || !(3..7).contains(&j) {
                    assert_eq!(host[(i, j)], before[(i, j)], "({i},{j}) clobbered");
                }
            }
        }
    }

    #[test]
    fn runtime_dispatch_matches_const_paths() {
        let a = pseudo(21, 16, 31);
        let b = pseudo(16, 16, 32);
        let want = matmul(a.view(), b.view());

        // Overwrite mode must ignore (and fully replace) prior contents.
        let mut c = pseudo(21, 16, 33);
        matmul_into(&mut c.view_mut(), a.view(), b.view(), false, 1);
        assert_eq!(c, want);

        let mut acc = pseudo(21, 16, 33);
        let mut want_acc = pseudo(21, 16, 33);
        want_acc.add_assign(&want);
        matmul_into(&mut acc.view_mut(), a.view(), b.view(), true, 2);
        assert_eq!(acc, want_acc);
    }

    #[test]
    fn packed_a_strip_path_is_bit_identical() {
        // The blocked-flow shape: a tall strided strip re-used against
        // many weight blocks.
        let d = 96usize;
        let s = 16usize;
        let a = pseudo(d, d, 41);
        let b = pseudo(d, d, 42);
        for k in [0usize, 2] {
            let strip = a.subview(0, k * s, d, s);
            let pa = pack_a(strip);
            assert_eq!((pa.rows(), pa.cols()), (d, s));
            for j in 0..d / s {
                let blk = b.subview(k * s, j * s, s, s);
                let mut want = pseudo(d, s, 43 + j as i64);
                let mut got = want.clone();
                matmul_acc(&mut want.view_mut(), strip, blk);
                matmul_acc_packed(&mut got.view_mut(), &pa, blk);
                assert_eq!(got, want, "k={k} j={j}");
            }
        }
    }

    #[test]
    fn packed_a_handles_ragged_rows_and_float() {
        let a = Matrix::from_fn(11, 7, |i, j| (i as f64 - 2.5) * 0.5 + j as f64 * 0.125);
        let b = Matrix::from_fn(7, 5, |i, j| (j as f64 - 1.0) * 0.25 - i as f64 * 0.0625);
        let mut want = Matrix::<f64>::zeros(11, 5);
        matmul_acc(&mut want.view_mut(), a.view(), b.view());
        let mut got = Matrix::<f64>::zeros(11, 5);
        matmul_acc_packed(&mut got.view_mut(), &pack_a(a.view()), b.view());
        assert_eq!(got, want);
    }

    #[test]
    fn packed_overwrite_matches_matmul_into() {
        let a = pseudo(21, 16, 51);
        let b = pseudo(16, 16, 52);
        let mut want = pseudo(21, 16, 53);
        matmul_into(&mut want.view_mut(), a.view(), b.view(), false, 1);
        // Overwrite mode must fully replace prior contents.
        let mut got = pseudo(21, 16, 53);
        matmul_packed_into(&mut got.view_mut(), &pack_a(a.view()), b.view(), false);
        assert_eq!(got, want);
        assert_eq!(
            pack_a(a.view()).bytes(),
            24 * 16 * std::mem::size_of::<i64>()
        );
    }

    #[test]
    fn packed_overwrite_with_empty_inner_zeroes_output() {
        let a = Matrix::<i64>::zeros(3, 0);
        let b = Matrix::<i64>::zeros(0, 5);
        let mut c = pseudo(3, 5, 54);
        matmul_packed_into(&mut c.view_mut(), &pack_a(a.view()), b.view(), false);
        assert_eq!(c, Matrix::<i64>::zeros(3, 5));
        // Accumulate mode leaves the destination untouched.
        let mut c2 = pseudo(3, 5, 54);
        let before = c2.clone();
        matmul_packed_into(&mut c2.view_mut(), &pack_a(a.view()), b.view(), true);
        assert_eq!(c2, before);
    }

    #[test]
    fn narrow_products_are_exact_at_the_i32_extremes() {
        // Products of the i32 range's ends, with sums that come within
        // 2^33 of i64's limits: exact in i64, so the narrow path must
        // equal the wide oracle bit for bit.
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let a = Matrix::from_vec(5, 2, vec![lo, hi, hi, hi, lo, 0, -1, lo, hi, lo]);
        let b = Matrix::from_vec(2, 3, vec![lo, hi, lo, hi, hi, 1]);
        assert!(pack_a(a.view()).narrow && pack_b(b.view()).1);
        let want = matmul_naive(&a, &b);
        assert_eq!(want[(1, 1)], 2 * hi * hi);
        assert_eq!(matmul(a.view(), b.view()), want);
        let mut got = Matrix::<i64>::zeros(5, 3);
        matmul_packed_into(&mut got.view_mut(), &pack_a(a.view()), b.view(), true);
        assert_eq!(got, want);
    }

    #[test]
    fn one_wide_element_sends_the_call_down_the_wide_path() {
        // A narrow-path product would keep only the low 32 bits of the
        // wide entry and get every element in its row (or column) wrong.
        let a = pseudo(7, 5, 61);
        let b = pseudo(5, 18, 62);
        for (i, j, v) in [
            (6, 4, 1i64 << 31),
            (0, 0, -(1i64 << 31) - 1),
            (3, 2, 1 << 40),
        ] {
            let mut wa = a.clone();
            wa[(i, j)] = v;
            assert!(!pack_a(wa.view()).narrow);
            assert_eq!(matmul(wa.view(), b.view()), matmul_naive(&wa, &b));
            let mut got = pseudo(7, 18, 63);
            matmul_packed_into(&mut got.view_mut(), &pack_a(wa.view()), b.view(), false);
            assert_eq!(got, matmul_naive(&wa, &b));
            let mut wb = b.clone();
            wb[(j, 17 - i)] = v;
            assert!(!pack_b(wb.view()).1);
            assert_eq!(matmul(a.view(), wb.view()), matmul_naive(&a, &wb));
        }
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::<i64>::zeros(0, 4);
        let b = pseudo(4, 4, 7);
        assert_eq!(matmul(a.view(), b.view()), Matrix::<i64>::zeros(0, 4));
        let a = pseudo(3, 4, 8);
        let b = Matrix::<i64>::zeros(4, 0);
        assert_eq!(matmul(a.view(), b.view()), Matrix::<i64>::zeros(3, 0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn rejects_mismatched_inner_dims() {
        let a = pseudo(3, 4, 9);
        let b = pseudo(5, 3, 10);
        let _ = matmul(a.view(), b.view());
    }
}
