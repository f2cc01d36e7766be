//! Host-kernel wall-clock benchmark: the seed `matmul_naive` execution
//! path versus the tiled view kernels, at the simulator's hot-path
//! shapes. Emits machine-readable `BENCH_matmul.json` next to the
//! working directory (override with `--out <path>`); `--quick` shrinks
//! sizes/reps for the CI smoke run. The header names the core count and
//! the vector features the binary was compiled with, since the tiled
//! kernels' speed depends on the latter.
//!
//! Two families are measured, over `f64` and over `i64`:
//!
//! * `tensor_mul n=<n>` — one tensor instruction: `A (n × √m) · B
//!   (√m × √m)`, the host work behind every simulated invocation.
//!   The seed variant re-creates the operand marshalling the seed
//!   callers performed (allocating `block` copies) plus `matmul_naive`;
//!   the view variants run the packed tiled kernel over zero-copy
//!   subviews of the same operands.
//! * `blocked d=<d>` — the full Theorem 2 blocked multiplication of
//!   `d × d` operands (the E2 hot path), seed flow (block copies +
//!   `matmul_naive` + copy-back) versus the view flow.
//!
//! * `chain d=<d>` — Theorem 2's product as the serial scheduled run
//!   executes it: `d/√m` accumulation chains of `d/√m` links, one per
//!   `C` strip (E2's shape at `d = 256`). The reference issues one
//!   `matmul_into` per link in emission order (every strip's step `k`
//!   before any strip's step `k + 1`); the fused variant runs each
//!   chain as one `matmul_chain_into` call, with each `A` strip's
//!   narrow verdict taken once per flow, as the serial scheduled run
//!   records it per read. Their ratio is `speedup_chain`.
//!
//! The `i64` cases draw operands that fit 32 bits, so the tiled kernels
//! take their narrow multiplier, and additionally time the tiled
//! variant on operands past 32 bits (`wide_ns_per_op`), which take the
//! wide one.
//!
//! All variants are checked against `matmul_naive` before timing (to a
//! rounding tolerance for the seed and blocked `f64` flows, exactly
//! otherwise), so the numbers can never come from a wrong kernel.
//!
//! A case's seed and tiled variants are timed in interleaved rounds
//! ([`tcu_bench::time_pair_ns`]), since `speedup_tiled` is their ratio.
//! Timed one after the other on 512-bit vectors, the seed kernel's
//! per-call time moved by up to a third from one process to the next
//! (`tensor_mul n=64`: 3.1 or 3.9–4.3 µs), enough to fail `bench_diff`'s
//! 20% gate on the box that recorded the baseline.

use tcu_linalg::kernels;
use tcu_linalg::ops::{matmul_naive, max_abs_diff};
use tcu_linalg::{Matrix, Scalar};

const SQRT_M: usize = 16;

/// Magnitude bits `(A, B)` of the `i64` operands that fit 32 bits.
const NARROW_BITS: (u32, u32) = (20, 20);
/// Magnitude bits `(A, B)` of the `i64` operands past 32 bits: `B`
/// stays small enough that no sum of the blocked `d = 256` case
/// overflows.
const WIDE_BITS: (u32, u32) = (40, 12);

/// Element types the cases run over.
trait Elem: Scalar {
    /// Suffix of the case name (empty for `f64`, the original cases).
    const SUFFIX: &'static str;
    /// Element from the hash `x`; integers fall in `[-2^bits, 2^bits)`.
    fn from_hash(x: u64, bits: u32) -> Self;
    /// Whether `got` equals `want` to within `tol` (exactly, for
    /// integers).
    fn agrees(got: &Matrix<Self>, want: &Matrix<Self>, tol: f64) -> bool;
}

impl Elem for f64 {
    const SUFFIX: &'static str = "";
    fn from_hash(x: u64, _bits: u32) -> Self {
        (x % 4096) as f64 / 2048.0 - 1.0
    }
    fn agrees(got: &Matrix<Self>, want: &Matrix<Self>, tol: f64) -> bool {
        max_abs_diff(got, want) < tol
    }
}

impl Elem for i64 {
    const SUFFIX: &'static str = " i64";
    fn from_hash(x: u64, bits: u32) -> Self {
        (x % (2u64 << bits)) as i64 - (1i64 << bits)
    }
    fn agrees(got: &Matrix<Self>, want: &Matrix<Self>, _tol: f64) -> bool {
        got == want
    }
}

/// Frozen replica of the seed `matmul_naive` inner loop (separate
/// multiply and add, zero-skip), so the baseline stays the *seed* kernel
/// even though the live `matmul_naive` oracle now shares `mul_add` with
/// the tiled kernels.
fn matmul_seed<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimensions must agree");
    let (n, k, p) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(n, p);
    for i in 0..n {
        for l in 0..k {
            let ail = a[(i, l)];
            if ail == T::ZERO {
                continue;
            }
            let brow = b.row(l);
            let crow: &mut [T] = c.row_mut(i);
            for j in 0..p {
                crow[j] = crow[j].add(ail.mul(brow[j]));
            }
        }
    }
    c
}

struct Case {
    name: String,
    n: usize,
    sqrt_m: usize,
    reps: u32,
    /// The reference variant: the seed kernel, or per-link calls for a
    /// chain case.
    seed_ns: f64,
    /// The measured variant: the tiled kernel, or fused chains.
    tiled_ns: f64,
    /// The tiled variant on operands past 32 bits (integer cases only).
    wide_ns: Option<f64>,
    /// A `chain` case: its fields are written as `per_link_ns_per_op`,
    /// `fused_ns_per_op` and `speedup_chain`.
    chain: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| "BENCH_matmul.json".to_string(), Clone::clone);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let tall_sizes: &[usize] = if quick { &[64, 512] } else { &[64, 512, 2048] };
    // Quick mode keeps `d = 256` so the CI bench-diff step has a blocked
    // case in common with the committed full-run baseline.
    let blocked_sizes: &[usize] = if quick { &[256] } else { &[256, 512] };

    let mut cases = Vec::new();
    for &n in tall_sizes {
        cases.push(bench_tensor_mul::<f64>(n, quick));
    }
    cases.push(bench_tensor_mul::<i64>(512, quick));
    for &d in blocked_sizes {
        cases.push(bench_blocked::<f64>(d, quick));
    }
    cases.push(bench_blocked::<i64>(256, quick));
    cases.push(bench_chain::<i64>(256, quick));
    if !quick {
        cases.push(bench_chain::<f64>(512, quick));
    }

    let mut table = tcu_bench::Table::new(
        "BENCH matmul — seed naive vs tiled view kernel (host wall-clock)",
        &[
            "case",
            "reps",
            "seed ns/op",
            "tiled ns/op",
            "wide ns/op",
            "speedup",
        ],
    );
    for c in cases.iter().filter(|c| !c.chain) {
        table.row(vec![
            c.name.clone(),
            c.reps.to_string(),
            tcu_bench::fmt_f(c.seed_ns, 0),
            tcu_bench::fmt_f(c.tiled_ns, 0),
            c.wide_ns
                .map_or_else(|| "-".to_string(), |ns| tcu_bench::fmt_f(ns, 0)),
            tcu_bench::fmt_f(c.seed_ns / c.tiled_ns, 2),
        ]);
    }
    table.print();
    let mut chains = tcu_bench::Table::new(
        "BENCH matmul — per-link calls vs one fused call per accumulation chain",
        &["case", "reps", "per-link ns/op", "fused ns/op", "speedup"],
    );
    for c in cases.iter().filter(|c| c.chain) {
        chains.row(vec![
            c.name.clone(),
            c.reps.to_string(),
            tcu_bench::fmt_f(c.seed_ns, 0),
            tcu_bench::fmt_f(c.tiled_ns, 0),
            tcu_bench::fmt_f(c.seed_ns / c.tiled_ns, 2),
        ]);
    }
    chains.print();

    let json = render_json(&cases, quick, cores);
    std::fs::write(&out_path, &json).expect("write BENCH_matmul.json");
    println!("wrote {out_path}");
}

fn workload<T: Elem>(r: usize, c: usize, seed: u64, bits: u32) -> Matrix<T> {
    Matrix::from_fn(r, c, |i, j| {
        let x = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(seed);
        T::from_hash(x, bits)
    })
}

/// One simulated tensor instruction: `A (n × √m) · B (√m × √m)`. The
/// seed path includes the caller-side `block` copy that marshalled the
/// strip out of a wider matrix (as `dense::multiply` did).
fn bench_tensor_mul<T: Elem>(n: usize, quick: bool) -> Case {
    let s = SQRT_M;
    // A lives inside a wider matrix, as in the blocked algorithms.
    let operands = |(a_bits, b_bits): (u32, u32)| {
        (
            workload::<T>(n, 4 * s, 1, a_bits),
            workload::<T>(s, s, 2, b_bits),
        )
    };
    let (wide, b) = operands(NARROW_BITS);
    let tiled =
        |wide: &Matrix<T>, b: &Matrix<T>| kernels::matmul(wide.subview(0, s, n, s), b.view());

    // The tiled kernels must equal the live oracle exactly; the frozen
    // seed replica differs from a fused-FMA build only in the last ulp.
    let want = matmul_naive(&wide.block(0, s, n, s), &b);
    assert_eq!(tiled(&wide, &b), want);
    assert!(T::agrees(
        &matmul_seed(&wide.block(0, s, n, s), &b),
        &want,
        1e-9
    ));
    // A type with a narrow multiplier also times its wide one.
    let past_32_bits = T::NARROW_MUL.then(|| operands(WIDE_BITS));
    if let Some((wide, b)) = &past_32_bits {
        assert_eq!(tiled(wide, b), matmul_naive(&wide.block(0, s, n, s), b));
    }

    let reps: u32 = if quick { 20 } else { 200 };
    let (seed_ns, tiled_ns) = tcu_bench::time_pair_ns(
        reps,
        || {
            let strip = wide.block(0, s, n, s);
            matmul_seed(&strip, &b)
        },
        || tiled(&wide, &b),
    );
    let wide_ns = past_32_bits.map(|(wide, b)| tcu_bench::time_ns(reps, || tiled(&wide, &b)));
    Case {
        name: format!("tensor_mul n={n}{}", T::SUFFIX),
        n,
        sqrt_m: s,
        reps,
        seed_ns,
        tiled_ns,
        wide_ns,
        chain: false,
    }
}

/// The Theorem 2 blocked multiplication host flow for `d × d` operands.
/// The seed flow copies each strip per (column, step) pair and
/// accumulates naive products; the tiled flow packs each `A` strip once
/// and re-uses it across all block columns (`kernels::pack_a` +
/// `matmul_acc_packed`). Both produce the same matrix.
fn bench_blocked<T: Elem>(d: usize, quick: bool) -> Case {
    let s = SQRT_M;
    let operands = |(a_bits, b_bits): (u32, u32)| {
        (
            workload::<T>(d, d, 3, a_bits),
            workload::<T>(d, d, 4, b_bits),
        )
    };
    let (a, b) = operands(NARROW_BITS);

    // Blocked sums round differently from the oracle's single ascending
    // sum, so the f64 flows agree with it to a tolerance.
    let want = matmul_naive(&a, &b);
    let tol = 1e-6 * d as f64;
    assert!(T::agrees(&seed_flow(&a, &b), &want, tol));
    assert!(T::agrees(&packed_flow(&a, &b), &want, tol));
    // A type with a narrow multiplier also times its wide one.
    let past_32_bits = T::NARROW_MUL.then(|| operands(WIDE_BITS));
    if let Some((a, b)) = &past_32_bits {
        assert_eq!(packed_flow(a, b), matmul_naive(a, b));
    }

    let reps: u32 = if quick { 3 } else { 10 };
    let (seed_ns, tiled_ns) =
        tcu_bench::time_pair_ns(reps, || seed_flow(&a, &b), || packed_flow(&a, &b));
    let wide_ns = past_32_bits.map(|(a, b)| tcu_bench::time_ns(reps, || packed_flow(&a, &b)));
    Case {
        name: format!("blocked d={d}{}", T::SUFFIX),
        n: d,
        sqrt_m: s,
        reps,
        seed_ns,
        tiled_ns,
        wide_ns,
        chain: false,
    }
}

/// Theorem 2's product as accumulation chains (see the module docs):
/// per-link calls in emission order against one fused call per chain.
/// Both flows must give the same elements; the `i64` operands fit 32
/// bits, so both take the narrow multiplier.
fn bench_chain<T: Elem>(d: usize, quick: bool) -> Case {
    let s = SQRT_M;
    let a = workload::<T>(d, d, 5, NARROW_BITS.0);
    let b = workload::<T>(d, d, 6, NARROW_BITS.1);
    let (per_link, fused) = (per_link_flow(&a, &b), fused_flow(&a, &b));
    assert!(per_link == fused, "fused chains must equal per-link calls");
    assert!(T::agrees(&fused, &matmul_naive(&a, &b), 1e-6 * d as f64));
    let reps: u32 = if quick { 3 } else { 10 };
    let (seed_ns, tiled_ns) =
        tcu_bench::time_pair_ns(reps, || per_link_flow(&a, &b), || fused_flow(&a, &b));
    Case {
        name: format!("chain d={d}{}", T::SUFFIX),
        n: d,
        sqrt_m: s,
        reps,
        seed_ns,
        tiled_ns,
        wide_ns: None,
        chain: true,
    }
}

/// One `matmul_into` per link, in emission order: step `k` of every
/// strip before step `k + 1` of any.
fn per_link_flow<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let (d, s) = (a.rows(), SQRT_M);
    let mut c = Matrix::<T>::zeros(d, d);
    for k in 0..d / s {
        for j in 0..d / s {
            let mut out = c.subview_mut(0, j * s, d, s);
            let (strip, blk) = (a.subview(0, k * s, d, s), b.subview(k * s, j * s, s, s));
            kernels::matmul_into(&mut out, strip, blk, true, 1);
        }
    }
    c
}

/// One `matmul_chain_into` per `C` strip, each `A` strip's narrow
/// verdict taken once.
fn fused_flow<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let (d, s) = (a.rows(), SQRT_M);
    let q = d / s;
    let strips: Vec<_> = (0..q).map(|k| a.subview(0, k * s, d, s)).collect();
    let verdicts: Vec<bool> = strips.iter().map(|&v| kernels::is_narrow(v)).collect();
    let mut c = Matrix::<T>::zeros(d, d);
    for j in 0..q {
        let links: Vec<_> = (0..q)
            .map(|k| kernels::ChainLink {
                a: kernels::ChainA::View(strips[k], Some(verdicts[k])),
                b: b.subview(k * s, j * s, s, s),
                accumulate: true,
            })
            .collect();
        kernels::matmul_chain_into(&mut c.subview_mut(0, j * s, d, s), &links);
    }
    c
}

/// The seed flow: per (block column, step), copy the strip and block out
/// and accumulate their seed-kernel product.
fn seed_flow<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let (d, s) = (a.rows(), SQRT_M);
    let q = d / s;
    let mut c = Matrix::<T>::zeros(d, d);
    for j in 0..q {
        let mut acc: Option<Matrix<T>> = None;
        for k in 0..q {
            let strip = a.block(0, k * s, d, s);
            let blk = b.block(k * s, j * s, s, s);
            let prod = matmul_seed(&strip, &blk);
            match &mut acc {
                None => acc = Some(prod),
                Some(sum) => sum.add_assign(&prod),
            }
        }
        c.set_block(0, j * s, &acc.expect("q >= 1"));
    }
    c
}

/// The packed flow is the ROADMAP's "pack `A` strips once" lever: strip
/// `k` is packed into contiguous row panels once and re-used for every
/// block column `j` (the loop order is `k` outer, `j` inner), so the
/// full `A` is no longer re-streamed per block column through
/// page-strided views. Each output column strip still accumulates its
/// `k` contributions in ascending order, so results are bit-identical to
/// the unpacked `j`-outer flow.
fn packed_flow<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let (d, s) = (a.rows(), SQRT_M);
    let mut c = Matrix::<T>::zeros(d, d);
    for k in 0..d / s {
        let pa = kernels::pack_a(a.subview(0, k * s, d, s));
        for j in 0..d / s {
            let mut out = c.subview_mut(0, j * s, d, s);
            kernels::matmul_acc_packed(&mut out, &pa, b.subview(k * s, j * s, s, s));
        }
    }
    c
}

fn render_json(cases: &[Case], quick: bool, cores: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"matmul\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!(
        "  \"target_features\": \"{}\",\n",
        tcu_bench::target_features()
    ));
    out.push_str(&format!("  \"rustflags\": \"{}\",\n", tcu_bench::RUSTFLAGS));
    out.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let [reference, measured, speedup] = if c.chain {
            ["per_link_ns_per_op", "fused_ns_per_op", "speedup_chain"]
        } else {
            ["seed_ns_per_op", "tiled_ns_per_op", "speedup_tiled"]
        };
        out.push_str("    {");
        out.push_str(&format!(
            "\"name\": \"{}\", \"n\": {}, \"sqrt_m\": {}, \"reps\": {}, \
             \"{reference}\": {:.1}, \"{measured}\": {:.1}, \"{speedup}\": {:.3}",
            c.name,
            c.n,
            c.sqrt_m,
            c.reps,
            c.seed_ns,
            c.tiled_ns,
            c.seed_ns / c.tiled_ns,
        ));
        if let Some(wide_ns) = c.wide_ns {
            out.push_str(&format!(", \"wide_ns_per_op\": {wide_ns:.1}"));
        }
        out.push('}');
        if i + 1 < cases.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}
