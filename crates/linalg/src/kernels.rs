//! Tiled host kernels for the simulator's hot path.
//!
//! Every simulated tensor instruction ends in a host matrix product;
//! [`crate::ops::matmul_naive`] defines the semantics (and stays the test
//! oracle), while the kernels here compute the *same sum in the same
//! per-element order* but organized for the cache and the register file:
//!
//! * `pack_b` copies each right operand once per call into column
//!   panels of width `NR`, so the tile kernel reads `B` as contiguous,
//!   reusable rows regardless of the source view's stride;
//! * the `MR × NR` register-blocked tile kernel keeps a full tile of
//!   `C` in accumulators across the entire inner (`k`) loop, eliminating
//!   the per-`k` round trips through `C` that dominate the naive triple
//!   loop;
//! * [`matmul_chain_into`] runs an *accumulation chain* — several
//!   products into one destination, as Theorem 2's `k` steps stream
//!   into one `C` strip — keeping each `MR × NR` tile of the destination
//!   in registers across every link, so `C` is loaded and stored once
//!   per chain instead of once per product. Per link it performs exactly
//!   the operations of a one-link chain: the link's product summed from
//!   zero in ascending `k`, then added to the carried tile (or replacing
//!   it, for a link that overwrites);
//! * [`matmul_into`] is the runtime-dispatch entry the executor layer
//!   keys off a `TensorOp`'s accumulate flag, a one-link chain, as are
//!   [`matmul`] and [`matmul_acc`];
//! * [`pack_a`] / [`matmul_acc_packed`] pack a tall strip once into
//!   interleaved row panels so blocked flows that re-stream the same
//!   strip per block column read a compact sequential buffer instead of
//!   page-strided rows; a chain link's `A` may be such a strip.
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
//! [`Scalar::is_narrow`] — they fit 32 bits — runs the tile kernel on
//! [`Scalar::mul_add_narrow`]: the operands' 32-bit values, sign- (or
//! zero-) extended, multiplied into the same 64-bit accumulators in the
//! same ascending-`k` order. The product of two 32-bit values is exact
//! in 64 bits, so it equals the wide `a * b`, and every accumulator step
//! is the same add: the result is bit-identical to the wide path for
//! every input, with no bound on the sums and no rounding involved. The
//! choice is a property of the input alone, made once per call (a chain
//! decides once for all its links). [`PackedA`] records it when it
//! packs, `pack_b` checks `B` as it copies it, and a view `A` is scanned
//! once per call unless its caller hands in the verdict it recorded for
//! that operand ([`ChainA::View`]). One element past 32 bits in any
//! operand sends the whole call down the wide path.
//!
//! The kernels run on the calling thread. Parallelism lives one level
//! up, where the paper puts it: `p` tensor units, each invocation one
//! atomic charge.
//!
//! **Vector width.** The kernels are plain Rust that the compiler
//! vectorizes; nothing here names an instruction set. Which vectors it
//! emits is a property of the build: `.cargo/config.toml` builds for
//! `target-cpu=native` and clears LLVM's `prefer-256-bit` tuning (which
//! LLVM sets for recent Intel server cores), so on an AVX-512 host the
//! const-dimension tile kernels use 512-bit zmm registers, and on an
//! AVX2 host 256-bit ymm ones; a portable build gets SSE2. Without
//! the flag, an AVX-512 host whose tuning sets it gets ymm code. Each
//! lane holds one output element and runs the same operation in the
//! same `k` order, so the width never changes a result bit.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{MatrixView, MatrixViewMut};

/// Tile height: rows of `C` kept in accumulators per tile.
const MR: usize = 4;
/// Tile width: one packed `B` panel. `4 × 16` keeps the whole
/// accumulator tile in vector registers and covers the hot `√m = 16`
/// shape with a single panel, so the left operand is traversed once per
/// invocation. The tile is 8 zmm of `f64` when the build emits 512-bit
/// vectors (an AVX-512 host with `.cargo/config.toml`'s
/// `target-feature=-prefer-256-bit`, see the module docs) and 16 ymm
/// when it emits 256-bit ones (AVX2, or AVX-512 without that flag).
const NR: usize = 16;

/// `C = A·B` through the tiled kernel.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
#[must_use]
pub fn matmul<T: Scalar>(a: MatrixView<'_, T>, b: MatrixView<'_, T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimensions must agree");
    let mut c = Matrix::<T>::zeros(a.rows(), b.cols());
    matmul_into(&mut c.view_mut(), a, b, false, 1);
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
    matmul_into(c, a, b, true, 1);
}

/// Unified entry point for the executor layer: `C (+)= A·B` with the
/// accumulate flag decided at runtime (the `TensorOp.accumulate` bit of
/// `tcu-core`'s IR dispatches here), as a one-link
/// [`matmul_chain_into`]. Overwrite mode writes every element of `c`,
/// so the destination needs no pre-zeroing. The last argument is
/// ignored: it stays only because perfbench still passes it, until the
/// next benchmark change drops it.
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or `c` is not `a.rows × b.cols`.
pub fn matmul_into<T: Scalar>(
    c: &mut MatrixViewMut<'_, T>,
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
    accumulate: bool,
    _unused: usize,
) {
    let link = ChainLink {
        a: ChainA::View(a, None),
        b,
        accumulate,
    };
    matmul_chain_into(c, &[link]);
}

/// A left operand packed once into contiguous `MR`-row panels:
/// `panel t`, covering rows `[t·MR, t·MR + MR)`, stores those rows
/// back-to-back, each as its `k` values in column order (rows past the
/// ragged bottom edge are zero). Keeping the rows *row-major inside the
/// panel* lets the tile kernel read a packed `A` exactly like a view's
/// rows — same loads, same codegen — with the panel merely guaranteeing
/// the rows sit on one or two cache lines instead of a page apart. One
/// pack per *strip* — not per invocation — is the cache lever for
/// blocked flows: a `d × √m` strip of a `d × d` matrix has page-sized
/// row strides (TLB-hostile, one cache line per row touch), and the
/// blocked algorithm re-streams it once per block column. Packing
/// converts all of those re-reads into sequential scans of a compact
/// buffer that stays cache-resident across uses.
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

/// `C (+)= A·B` with a pre-packed left operand and the accumulate flag
/// decided at runtime, as a one-link [`matmul_chain_into`]. Overwrite
/// mode writes every element of `c` (no pre-zeroing needed); both
/// modes are bit-identical to [`matmul_into`] on the unpacked view,
/// except that an empty inner dimension leaves an accumulating `c` as
/// it is.
///
/// # Panics
/// Panics if `a.cols() != b.rows()` or `c` is not `a.rows × b.cols`.
pub fn matmul_packed_into<T: Scalar>(
    c: &mut MatrixViewMut<'_, T>,
    a: &PackedA<T>,
    b: MatrixView<'_, T>,
    accumulate: bool,
) {
    let link = ChainLink {
        a: ChainA::Packed(a),
        b,
        accumulate,
    };
    matmul_chain_into(c, &[link]);
}

/// The left operand of one [`ChainLink`].
#[derive(Clone, Copy, Debug)]
pub enum ChainA<'a, T: Scalar> {
    /// Rows read through a (possibly strided) view, with the caller's
    /// recorded verdict of whether every element is
    /// [`Scalar::is_narrow`] — `None` has the chain scan them.
    View(MatrixView<'a, T>, Option<bool>),
    /// A strip packed by [`pack_a`], which recorded its narrowness.
    Packed(&'a PackedA<T>),
}

impl<T: Scalar> ChainA<'_, T> {
    fn rows(&self) -> usize {
        match self {
            ChainA::View(a, _) => a.rows(),
            ChainA::Packed(a) => a.rows,
        }
    }

    fn cols(&self) -> usize {
        match self {
            ChainA::View(a, _) => a.cols(),
            ChainA::Packed(a) => a.cols,
        }
    }

    fn narrow(&self) -> bool {
        match *self {
            ChainA::View(_, Some(narrow)) => narrow,
            ChainA::View(a, None) => is_narrow(a),
            ChainA::Packed(a) => a.narrow,
        }
    }
}

/// One product of an accumulation chain: `C += A·B`, or `C = A·B` when
/// `accumulate` is `false`.
#[derive(Clone, Copy, Debug)]
pub struct ChainLink<'a, T: Scalar> {
    /// Left operand, `C.rows × k`.
    pub a: ChainA<'a, T>,
    /// Right operand, `k × C.cols`.
    pub b: MatrixView<'a, T>,
    /// Add the product to `C` (else replace `C` with it).
    pub accumulate: bool,
}

/// Whether every element of `a` takes the narrow multiplier (always
/// `false` for a type without one) — the verdict a caller may record
/// per operand and hand to [`matmul_chain_into`] through
/// [`ChainA::View`].
#[must_use]
pub fn is_narrow<T: Scalar>(a: MatrixView<'_, T>) -> bool {
    T::NARROW_MUL && (0..a.rows()).all(|i| all_narrow(a.row(i)))
}

/// Run an accumulation chain into `c`: the links' products, in order,
/// each added to `c` (or overwriting it), with every `MR × NR` tile of
/// `c` held in registers across the whole chain.
///
/// Bit-identical to one one-link call per link, in link order, for
/// every scalar type: each link's product is summed from zero in
/// ascending `k` and then added to the carried tile
/// (`carried.add(product)`) or replaces it. An accumulating link with
/// an empty inner dimension adds the zero product through a view and
/// leaves the tile as it is through a packed strip. The chain takes the
/// narrow multiplier only when every `A` and `B` of every link is
/// narrow — one decision for the whole chain.
///
/// # Panics
/// Panics if a link's `A` is not `c.rows × k` or its `B` not
/// `k × c.cols`.
pub fn matmul_chain_into<T: Scalar>(c: &mut MatrixViewMut<'_, T>, links: &[ChainLink<'_, T>]) {
    let (n, p) = (c.rows(), c.cols());
    for link in links {
        assert_eq!(
            link.a.cols(),
            link.b.rows(),
            "matmul: inner dimensions must agree"
        );
        assert_eq!(
            (link.a.rows(), link.b.cols()),
            (n, p),
            "matmul: output shape mismatch"
        );
    }
    if links.is_empty() || n == 0 || p == 0 {
        return;
    }
    // Every link's `B` packed once, back to back; the multiplier is
    // decided before any `A` is scanned when a `B` is already wide.
    let panels = p.div_ceil(NR);
    let panel_len = |l: &ChainLink<'_, T>| l.b.rows() * NR;
    let mut packed = vec![T::ZERO; panels * links.iter().map(panel_len).sum::<usize>()];
    let mut narrow = T::NARROW_MUL;
    let mut off = 0;
    for link in links {
        let len = panels * panel_len(link);
        narrow &= pack_b(link.b, &mut packed[off..off + len]);
        off += len;
    }
    narrow = narrow && links.iter().all(|l| l.a.narrow());
    let k0 = links[0].b.rows();
    let uniform = links.iter().all(|l| l.b.rows() == k0);
    // A one-link chain (every per-op call) runs its own copy of the
    // kernel, whose link loop the compiler removes and whose `k` loop it
    // then unrolls in full, as it does not inside a loop over links: one
    // link through the general copy ran `bench_matmul`'s f64 cases
    // 27–70% slower.
    let k = uniform.then_some(k0);
    match (narrow, links.len() == 1) {
        (true, true) => chain_band::<T, true, true>(links, &packed, k, c),
        (true, false) => chain_band::<T, true, false>(links, &packed, k, c),
        (false, true) => chain_band::<T, false, true>(links, &packed, k, c),
        (false, false) => chain_band::<T, false, false>(links, &packed, k, c),
    }
}

/// Const-dimension dispatch, when every link shares its inner dimension
/// `k`. The hot shapes are square `√m × √m` right operands; dispatching
/// them to inlined copies of the band loop with *literal* dimensions
/// lets the compiler fully unroll the inner product and keep the
/// register tile clean (the runtime-dimension fallback is ~2× slower on
/// the `√m = 16` shape). All arms run identical code, so results are
/// identical.
fn chain_band<T: Scalar, const NARROW: bool, const ONE: bool>(
    links: &[ChainLink<'_, T>],
    packed: &[T],
    k: Option<usize>,
    c: &mut MatrixViewMut<'_, T>,
) {
    match (k, c.cols()) {
        (Some(4), 4) => chain_band_impl::<T, NARROW, ONE>(links, packed, Some(4), 4, c),
        (Some(8), 8) => chain_band_impl::<T, NARROW, ONE>(links, packed, Some(8), 8, c),
        (Some(16), 16) => chain_band_impl::<T, NARROW, ONE>(links, packed, Some(16), 16, c),
        (Some(32), 32) => chain_band_impl::<T, NARROW, ONE>(links, packed, Some(32), 32, c),
        (k, p) => chain_band_impl::<T, NARROW, ONE>(links, packed, k, p, c),
    }
}

#[inline(always)]
fn chain_band_impl<T: Scalar, const NARROW: bool, const ONE: bool>(
    links: &[ChainLink<'_, T>],
    packed: &[T],
    k: Option<usize>,
    p: usize,
    c: &mut MatrixViewMut<'_, T>,
) {
    let n = c.rows();
    let panels = p.div_ceil(NR);
    let mut i0 = 0usize;
    while i0 < n {
        let mr = MR.min(n - i0);
        for q in 0..panels {
            // A full-width tile passes `NR` as a literal, so its loads and
            // stores of `c` are fixed-length and the carried tile stays in
            // registers.
            let tile = |w| Tile {
                i0,
                q,
                j0: q * NR,
                w,
            };
            let w = NR.min(p - q * NR);
            match (mr, w) {
                (MR, NR) => chain_tile::<T, MR, NARROW, ONE>(links, packed, k, panels, tile(NR), c),
                (1, _) => chain_tile::<T, 1, NARROW, ONE>(links, packed, k, panels, tile(w), c),
                (2, _) => chain_tile::<T, 2, NARROW, ONE>(links, packed, k, panels, tile(w), c),
                (3, _) => chain_tile::<T, 3, NARROW, ONE>(links, packed, k, panels, tile(w), c),
                _ => chain_tile::<T, MR, NARROW, ONE>(links, packed, k, panels, tile(w), c),
            }
        }
        i0 += mr;
    }
}

/// Where one register tile of a chain sits: rows from `i0`, `B` panel
/// `q`, columns `[j0, j0 + w)`.
#[derive(Clone, Copy)]
struct Tile {
    i0: usize,
    q: usize,
    j0: usize,
    w: usize,
}

/// One `RB × NR` tile through the whole chain: per link, the product
/// from zero accumulators in ascending `k` — the exact per-element
/// order of `matmul_naive`, with `NARROW` picking the multiply-add
/// ([`mac`]) — then folded into the carried tile, which is loaded from
/// `c` only by an accumulating first link and stored once at the end.
/// `k` is every link's inner dimension when they share one (a literal
/// after dispatch), else each link's own; `ONE` says there is one link.
#[inline(always)]
fn chain_tile<T: Scalar, const RB: usize, const NARROW: bool, const ONE: bool>(
    links: &[ChainLink<'_, T>],
    packed: &[T],
    k: Option<usize>,
    panels: usize,
    tile: Tile,
    c: &mut MatrixViewMut<'_, T>,
) {
    let Tile { i0, q, j0, w } = tile;
    let links = if ONE { &links[..1] } else { links };
    let mut carry = [[T::ZERO; NR]; RB];
    let mut off = 0usize;
    for (l, link) in links.iter().enumerate() {
        let k = k.unwrap_or_else(|| link.b.rows());
        let bpanel = &packed[off + q * k * NR..off + (q + 1) * k * NR];
        off += panels * k * NR;
        let mut arows: [&[T]; RB] = [&[]; RB];
        match link.a {
            ChainA::View(a, _) => {
                for (r, ar) in arows.iter_mut().enumerate() {
                    *ar = &a.row(i0 + r)[..k];
                }
            }
            ChainA::Packed(a) => {
                let apanel = &a.data[i0 * k..(i0 + MR) * k];
                for (r, ar) in arows.iter_mut().enumerate() {
                    *ar = &apanel[r * k..(r + 1) * k];
                }
            }
        }
        let mut prod = [[T::ZERO; NR]; RB];
        for kk in 0..k {
            let brow = &bpanel[kk * NR..kk * NR + NR];
            for r in 0..RB {
                let av = arows[r][kk];
                let pr = &mut prod[r];
                for jj in 0..NR {
                    pr[jj] = mac::<T, NARROW>(pr[jj], av, brow[jj]);
                }
            }
        }
        if !link.accumulate {
            carry = prod;
            continue;
        }
        if l == 0 {
            for (r, cr) in carry.iter_mut().enumerate() {
                let crow = &c.row_mut(i0 + r)[j0..j0 + w];
                cr[..w].copy_from_slice(crow);
            }
        }
        // A packed strip with an empty inner dimension leaves the tile
        // untouched; a view adds the zero product.
        if k > 0 || matches!(link.a, ChainA::View(..)) {
            for (cr, pr) in carry.iter_mut().zip(&prod) {
                for (o, &v) in cr.iter_mut().zip(pr) {
                    *o = o.add(v);
                }
            }
        }
    }
    for (r, cr) in carry.iter().enumerate() {
        let crow = &mut c.row_mut(i0 + r)[j0..j0 + w];
        crow.copy_from_slice(&cr[..w]);
    }
}

/// Pack `b` into `out`, column panels of width [`NR`]: panel `q` holds
/// columns `[q·NR, q·NR + NR)` as `k` consecutive rows of `NR` elements
/// (`out` comes zeroed, which pads the ragged right edge). One pack per
/// call makes every tile kernel `B` access a contiguous forward scan.
/// Returns whether every element of `b` is narrow, checked as it is
/// copied.
fn pack_b<T: Scalar>(b: MatrixView<'_, T>, out: &mut [T]) -> bool {
    let (k, p) = (b.rows(), b.cols());
    let mut narrow = T::NARROW_MUL;
    for q in 0..p.div_ceil(NR) {
        let j0 = q * NR;
        let w = NR.min(p - j0);
        let panel = &mut out[q * k * NR..(q + 1) * k * NR];
        for kk in 0..k {
            let src = &b.row(kk)[j0..j0 + w];
            narrow = narrow && all_narrow(src);
            panel[kk * NR..kk * NR + w].copy_from_slice(src);
        }
    }
    narrow
}

/// Whether every element of `s` takes the narrow multiplier. A
/// branch-free fold, so the scan vectorizes.
#[inline]
fn all_narrow<T: Scalar>(s: &[T]) -> bool {
    s.iter().fold(true, |ok, x| ok & x.is_narrow())
}

/// The tile kernel's multiply-add: [`Scalar::mul_add_narrow`] when the
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::modular::Fp61;
    use crate::ops::matmul_naive;

    /// Whether `pack_b` finds every element of `b` narrow.
    fn packed_b_narrow(b: MatrixView<'_, i64>) -> bool {
        pack_b(b, &mut vec![0; b.cols().div_ceil(NR) * b.rows() * NR])
    }

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
    fn float_results_equal_naive() {
        let a = Matrix::from_fn(23, 12, |i, j| (i as f64 - 3.5) * 0.25 + j as f64 * 0.125);
        let b = Matrix::from_fn(12, 17, |i, j| (j as f64 - 8.0) * 0.5 - i as f64 * 0.0625);
        assert_eq!(matmul(a.view(), b.view()), matmul_naive(&a, &b));
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
        // Fused must agree exactly.
        let mut c = pseudo(21, 16, 13);
        matmul_acc(&mut c.view_mut(), a, b);
        assert_eq!(c, want);
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
        matmul_into(&mut acc.view_mut(), a.view(), b.view(), true, 1);
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
        assert!(pack_a(a.view()).narrow && packed_b_narrow(b.view()));
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
            assert!(!packed_b_narrow(wb.view()));
            assert_eq!(matmul(a.view(), wb.view()), matmul_naive(&a, &wb));
        }
    }

    /// One `matmul_into` (view links) or `matmul_packed_into` (packed
    /// links) call per link, in order: what `matmul_chain_into` must
    /// reproduce bit for bit.
    fn per_link<T: Scalar>(c: &mut Matrix<T>, links: &[ChainLink<'_, T>]) {
        for l in links {
            match l.a {
                ChainA::View(a, _) => matmul_into(&mut c.view_mut(), a, l.b, l.accumulate, 1),
                ChainA::Packed(a) => matmul_packed_into(&mut c.view_mut(), a, l.b, l.accumulate),
            }
        }
    }

    /// The chain `ops` (`A`, `B`, accumulate) run from `c0` by
    /// `matmul_chain_into` equals [`per_link`] in every element's `bits`,
    /// with each `A` a strided view (unscanned and with its recorded
    /// verdict), packed, or alternating between the two.
    fn assert_chain_matches<T: Scalar, B: PartialEq + std::fmt::Debug>(
        c0: &Matrix<T>,
        ops: &[(Matrix<T>, Matrix<T>, bool)],
        bits: impl Fn(T) -> B,
    ) {
        let hosts: Vec<Matrix<T>> = ops
            .iter()
            .map(|(a, _, _)| {
                let mut h = Matrix::zeros(a.rows() + 1, a.cols() + 3);
                h.set_block_view(1, 2, a.view());
                h
            })
            .collect();
        let views: Vec<MatrixView<'_, T>> = hosts
            .iter()
            .zip(ops)
            .map(|(h, (a, _, _))| h.subview(1, 2, a.rows(), a.cols()))
            .collect();
        let packed: Vec<PackedA<T>> = views.iter().map(|&v| pack_a(v)).collect();
        for layout in 0..4 {
            let links: Vec<ChainLink<'_, T>> = ops
                .iter()
                .enumerate()
                .map(|(l, (_, b, accumulate))| ChainLink {
                    a: match layout {
                        0 => ChainA::View(views[l], None),
                        1 => ChainA::View(views[l], Some(is_narrow(views[l]))),
                        2 => ChainA::Packed(&packed[l]),
                        _ if l % 2 == 0 => ChainA::Packed(&packed[l]),
                        _ => ChainA::View(views[l], None),
                    },
                    b: b.view(),
                    accumulate: *accumulate,
                })
                .collect();
            let mut want = c0.clone();
            per_link(&mut want, &links);
            let mut got = c0.clone();
            matmul_chain_into(&mut got.view_mut(), &links);
            let elems = |m: &Matrix<T>| m.as_slice().iter().map(|&x| bits(x)).collect::<Vec<_>>();
            assert_eq!(
                elems(&got),
                elems(&want),
                "layout {layout}, {}×{}, {} links",
                c0.rows(),
                c0.cols(),
                ops.len()
            );
        }
    }

    /// Heights off the 4-row tile, the dispatched square widths, a
    /// ragged width, and inner dimensions that differ between links.
    const CHAIN_SHAPES: [(usize, usize, &[usize]); 7] = [
        (1, 4, &[4, 4]),
        (5, 8, &[8, 8, 8]),
        (22, 16, &[16, 16, 16, 16]),
        (64, 16, &[16; 6]),
        (13, 32, &[32, 32, 32]),
        (11, 20, &[11, 11, 11]),
        (9, 16, &[3, 16, 7, 1]),
    ];

    /// The links of a chain of `CHAIN_SHAPES` shape: entry `l` of `ks`
    /// makes link `l`, overwriting when `overwrite` names it.
    fn chain_ops<T: Scalar>(
        n: usize,
        p: usize,
        ks: &[usize],
        overwrite: &[usize],
        elem: impl Fn(usize, usize, usize) -> T,
    ) -> Vec<(Matrix<T>, Matrix<T>, bool)> {
        ks.iter()
            .enumerate()
            .map(|(l, &k)| {
                let a = Matrix::from_fn(n, k, |i, j| elem(2 * l, i, j));
                let b = Matrix::from_fn(k, p, |i, j| elem(2 * l + 1, i, j));
                (a, b, !overwrite.contains(&l))
            })
            .collect()
    }

    fn hash(s: usize, i: usize, j: usize) -> u64 {
        let x = (s as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ (j as u64 + 7).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 29)
    }

    #[test]
    fn chain_equals_one_call_per_link_f64() {
        // Sevenths round, so a chain that summed its links into one
        // accumulator (or added products in another order) differs.
        let elem = |s, i, j| (hash(s, i, j) % 2001) as f64 / 7.0 - 142.0;
        for (n, p, ks) in CHAIN_SHAPES {
            let c0 = Matrix::from_fn(n, p, |i, j| elem(99, i, j));
            for overwrite in [&[][..], &[0], &[1], &[0, 2]] {
                let ops = chain_ops(n, p, ks, overwrite, elem);
                assert_chain_matches(&c0, &ops, f64::to_bits);
                // The one-link calls share the chain's tile kernel, so
                // also hold it to the naive oracle: each link's product
                // from zero, added to (or replacing) what came before.
                let mut want = c0.clone();
                for (a, b, accumulate) in &ops {
                    let prod = matmul_naive(a, b);
                    if *accumulate {
                        want.add_assign(&prod);
                    } else {
                        want = prod;
                    }
                }
                let links: Vec<ChainLink<'_, f64>> = ops
                    .iter()
                    .map(|(a, b, accumulate)| ChainLink {
                        a: ChainA::View(a.view(), None),
                        b: b.view(),
                        accumulate: *accumulate,
                    })
                    .collect();
                let mut got = c0.clone();
                matmul_chain_into(&mut got.view_mut(), &links);
                let bits =
                    |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{n}×{p}, overwrite {overwrite:?}");
            }
        }
    }

    #[test]
    fn an_overwriting_head_keeps_a_negative_zero_product() {
        // Every product underflows from below: a fused multiply-add
        // rounds it to -0.0, and -0.0 + -0.0 stays -0.0, so a chain that
        // started its head from the `+0.0` of an add (or of `C`) would
        // end at +0.0.
        let ops: Vec<(Matrix<f64>, Matrix<f64>, bool)> = (0..3)
            .map(|l| {
                let a = Matrix::from_fn(6, 4, |_, _| -1e-200);
                let b = Matrix::from_fn(4, 4, |_, _| 1e-200);
                (a, b, l > 0)
            })
            .collect();
        let c0 = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64);
        assert_chain_matches(&c0, &ops, f64::to_bits);
        let mut want = c0.clone();
        let links: Vec<_> = ops
            .iter()
            .map(|(a, b, accumulate)| ChainLink {
                a: ChainA::View(a.view(), None),
                b: b.view(),
                accumulate: *accumulate,
            })
            .collect();
        per_link(&mut want, &links);
        if cfg!(target_feature = "fma") {
            assert!(want
                .as_slice()
                .iter()
                .all(|x| x.to_bits() == (-0.0f64).to_bits()));
        }
    }

    #[test]
    fn chain_equals_one_call_per_link_i64_narrow_and_wide() {
        let elem = |s, i, j| (hash(s, i, j) % 201) as i64 - 100;
        for (n, p, ks) in CHAIN_SHAPES {
            let c0 = Matrix::from_fn(n, p, |i, j| elem(99, i, j));
            let ops = chain_ops(n, p, ks, &[1], elem);
            assert_chain_matches(&c0, &ops, |x| x);
            let mid = ks.len() / 2;
            // One wide element in a middle link's `A`, in a middle
            // link's `B`, and both: each sends the chain wide.
            for (wide_a, wide_b) in [(true, false), (false, true), (true, true)] {
                let mut ops = ops.clone();
                if wide_a {
                    ops[mid].0[(n - 1, 0)] = 1 << 40;
                }
                if wide_b {
                    let last = ops[mid.saturating_sub(1)].1.cols() - 1;
                    ops[mid.saturating_sub(1)].1[(0, last)] = -(1 << 33);
                }
                assert_chain_matches(&c0, &ops, |x| x);
            }
        }
    }

    #[test]
    fn chain_equals_one_call_per_link_u64_fp61_complex() {
        for (n, p, ks) in CHAIN_SHAPES {
            let c0 = Matrix::from_fn(n, p, |i, j| hash(99, i, j));
            let ops = chain_ops(n, p, ks, &[2], |s, i, j| hash(s, i, j) >> (s % 3 * 16));
            assert_chain_matches(&c0, &ops, |x| x);

            let fp = |s, i, j| Fp61::new(hash(s, i, j));
            let c0 = Matrix::from_fn(n, p, |i, j| fp(99, i, j));
            assert_chain_matches(&c0, &chain_ops(n, p, ks, &[0], fp), |x| x);

            let cx = |s, i, j| Complex64::root_of_unity(64, (hash(s, i, j) % 64) as i64);
            let c0 = Matrix::from_fn(n, p, |i, j| cx(99, i, j));
            assert_chain_matches(&c0, &chain_ops(n, p, ks, &[], cx), |x| {
                (x.re.to_bits(), x.im.to_bits())
            });
        }
    }

    #[test]
    fn chain_with_an_empty_inner_dimension_matches_its_calls() {
        // A `k = 0` link adds the zero product through a view and leaves
        // `C` as is through a packed strip, exactly like its call.
        let c0 = Matrix::from_fn(5, 4, |i, j| if (i + j) % 2 == 0 { -0.0 } else { 1.5 });
        let ops = vec![
            (Matrix::zeros(5, 0), Matrix::zeros(0, 4), true),
            (
                Matrix::from_fn(5, 2, |i, j| (i + j) as f64),
                Matrix::from_fn(2, 4, |i, j| (i * j) as f64),
                true,
            ),
        ];
        assert_chain_matches(&c0, &ops, f64::to_bits);
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
