//! Property-based tests (proptest) of the core invariants: ring axioms
//! on the simulated tensor unit, oracle agreement under random inputs,
//! transform inverses, cost-model monotonicity, and exact agreement of
//! the tiled/parallel host kernels with the naive oracle.

use proptest::prelude::*;
use tcu::algos::{apsd, closure, dense, fft, intmul, poly, workloads};
use tcu::linalg::ops::matmul_naive;
use tcu::linalg::{kernels, MatrixView};
use tcu::prelude::*;

/// Random small Fp61 matrix strategy.
fn fp_matrix(d: usize) -> impl Strategy<Value = Matrix<Fp61>> {
    proptest::collection::vec(any::<u64>(), d * d)
        .prop_map(move |v| Matrix::from_vec(d, d, v.into_iter().map(Fp61::new).collect()))
}

/// `i64` entries at the ends of the `i32` range (narrow: the tiled
/// kernels' 32-bit multiplier applies), then entries past it (wide).
const I64_EDGES: [i64; 9] = [
    i32::MIN as i64,
    i32::MAX as i64,
    i32::MIN as i64 + 1,
    -1,
    0,
    1 << 31,
    -(1 << 31) - 1,
    1 << 32,
    -(3 << 37),
];
/// `u64` entries at the top of the `u32` range, then past it.
const U64_EDGES: [u64; 9] = [
    u32::MAX as u64,
    u32::MAX as u64 - 1,
    1 << 31,
    1,
    0,
    1 << 32,
    (1 << 32) + 1,
    1 << 63,
    u64::MAX,
];
/// How many leading entries of each edge table are narrow.
const NARROW_EDGES: usize = 5;

/// Half the entries from `edges` (its narrow prefix alone unless
/// `wide`), the rest from `small`.
fn edge_matrix<T: Scalar>(
    r: usize,
    c: usize,
    edges: &[T],
    wide: bool,
    rng: &mut rand::rngs::StdRng,
    mut small: impl FnMut(&mut rand::rngs::StdRng) -> T,
) -> Matrix<T> {
    use rand::Rng;
    let edges = if wide { edges } else { &edges[..NARROW_EDGES] };
    Matrix::from_fn(r, c, |_, _| {
        if rng.gen_bool(0.5) {
            edges[rng.gen_range(0..edges.len())]
        } else {
            small(rng)
        }
    })
}

/// `a · b` through every tiled-kernel entry (views into larger matrices
/// at 1 and 3 threads, and the packed strip; each overwriting `c0` and
/// accumulating onto it) equals `matmul_naive`.
fn assert_kernels_match_naive<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, c0: &Matrix<T>) {
    let (n, k, p) = (a.rows(), a.cols(), b.cols());
    let want = matmul_naive(a, b);
    let mut want_acc = c0.clone();
    want_acc.add_assign(&want);
    let mut host_a = Matrix::zeros(n + 2, k + 3);
    host_a.set_block_view(1, 2, a.view());
    let mut host_b = Matrix::zeros(k + 1, p + 2);
    host_b.set_block_view(1, 1, b.view());
    let (av, bv) = (host_a.subview(1, 2, n, k), host_b.subview(1, 1, k, p));
    let packed = kernels::pack_a(av);
    for (accumulate, want) in [(false, &want), (true, &want_acc)] {
        for threads in [1, 3] {
            let mut c = c0.clone();
            kernels::matmul_into(&mut c.view_mut(), av, bv, accumulate, threads);
            prop_assert_eq!(
                &c,
                want,
                "views, threads {}, accumulate {}",
                threads,
                accumulate
            );
        }
        let mut c = c0.clone();
        kernels::matmul_packed_into(&mut c.view_mut(), &packed, bv, accumulate);
        prop_assert_eq!(&c, want, "packed, accumulate {}", accumulate);
    }
}

/// `a · b` accumulated onto `c0` at 2 host threads, in a product of at
/// least 2^23 multiply-adds: two real row bands at the kernels' minimum
/// of 2^22 each. `a` is widened to `t` copies side by side against `t`
/// copies of `b` down the diagonal (zeros elsewhere) until inner and
/// width reach 16, then its rows are stacked until the work suffices;
/// every block of the result is `c0 + a · b`, exactly.
fn assert_bands_match_naive<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, c0: &Matrix<T>) {
    let (n, k, p) = (a.rows(), a.cols(), b.cols());
    let t = 16usize.div_ceil(k.min(p));
    let rows = n * (1usize << 23).div_ceil(n * t * k * t * p);
    let wide_a = Matrix::from_fn(rows, t * k, |i, j| a[(i % n, j % k)]);
    let diag_b = Matrix::from_fn(t * k, t * p, |i, j| {
        if i / k == j / p {
            b[(i % k, j % p)]
        } else {
            T::ZERO
        }
    });
    let tiled = |m: &Matrix<T>| Matrix::from_fn(rows, t * p, |i, j| m[(i % n, j % p)]);
    let mut want = c0.clone();
    want.add_assign(&matmul_naive(a, b));
    let mut c = tiled(c0);
    kernels::matmul_into(&mut c.view_mut(), wide_a.view(), diag_b.view(), true, 2);
    prop_assert_eq!(&c, &tiled(&want), "two row bands");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tensor_multiplication_is_associative((a, b, c) in (fp_matrix(8), fp_matrix(8), fp_matrix(8))) {
        let mut mach = TcuMachine::model(16, 5);
        let ab = dense::multiply(&mut mach, &a, &b);
        let ab_c = dense::multiply(&mut mach, &ab, &c);
        let bc = dense::multiply(&mut mach, &b, &c);
        let a_bc = dense::multiply(&mut mach, &a, &bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn tensor_multiplication_distributes((a, b, c) in (fp_matrix(8), fp_matrix(8), fp_matrix(8))) {
        let mut mach = TcuMachine::model(16, 5);
        let left = dense::multiply(&mut mach, &a, &b.add(&c));
        let right = dense::multiply(&mut mach, &a, &b).add(&dense::multiply(&mut mach, &a, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn machine_product_equals_naive(seed in any::<u64>(), d in 1usize..20) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = workloads::random_matrix_i64(d, d, 100, &mut rng);
        let b = workloads::random_matrix_i64(d, d, 100, &mut rng);
        let mut mach = TcuMachine::model(16, 9);
        prop_assert_eq!(dense::multiply_rect(&mut mach, &a, &b), matmul_naive(&a, &b));
    }

    #[test]
    fn closure_is_idempotent_and_monotone(seed in any::<u64>()) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let adj = workloads::random_digraph(16, 0.2, &mut rng);
        let mut mach = TcuMachine::model(16, 0);
        let mut once = adj.clone();
        closure::transitive_closure(&mut mach, &mut once);
        // Monotone: every original edge survives.
        for i in 0..16 {
            for j in 0..16 {
                prop_assert!(once[(i, j)] >= adj[(i, j)]);
            }
        }
        // Idempotent.
        let mut twice = once.clone();
        closure::transitive_closure(&mut mach, &mut twice);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn seidel_matches_bfs(seed in any::<u64>(), n in 2usize..24) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let adj = workloads::random_connected_graph(n, 0.15, &mut rng);
        let mut mach = TcuMachine::model(16, 1);
        prop_assert_eq!(apsd::seidel_apsd(&mut mach, &adj), apsd::bfs_apsd_host(&adj));
    }

    #[test]
    fn dft_roundtrip_and_linearity(seed in any::<u64>(), logn in 1u32..8) {
        let n = 1usize << logn;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let x = workloads::random_vector_c64(n, &mut rng);
        let mut mach = TcuMachine::model(16, 2);
        let fwd = fft::dft(&mut mach, &x);
        let back = fft::idft(&mut mach, &fwd);
        for (orig, got) in x.iter().zip(&back) {
            prop_assert!(orig.sub(*got).abs() < 1e-9);
        }
    }

    #[test]
    fn bignat_multiplication_matches_host(seed in any::<u64>(), la in 1usize..40, lb in 1usize..40) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = intmul::BigNat::from_limbs(workloads::random_limbs(la, &mut rng));
        let b = intmul::BigNat::from_limbs(workloads::random_limbs(lb, &mut rng));
        let want = intmul::mul_host(&a, &b);
        let mut mach = TcuMachine::model(16, 3);
        prop_assert_eq!(intmul::mul_tcu_schoolbook(&mut mach, &a, &b), want.clone());
        prop_assert_eq!(intmul::mul_tcu_karatsuba(&mut mach, &a, &b), want);
    }

    #[test]
    fn bignat_mul_is_commutative(seed in any::<u64>()) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = intmul::BigNat::from_limbs(workloads::random_limbs(12, &mut rng));
        let b = intmul::BigNat::from_limbs(workloads::random_limbs(7, &mut rng));
        let mut mach = TcuMachine::model(16, 0);
        prop_assert_eq!(
            intmul::mul_tcu_schoolbook(&mut mach, &a, &b),
            intmul::mul_tcu_schoolbook(&mut mach, &b, &a)
        );
    }

    #[test]
    fn poly_eval_matches_horner(seed in any::<u64>(), n in 1usize..80, p in 1usize..12) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let coeffs: Vec<Fp61> = (0..n).map(|_| Fp61::new(rand::Rng::gen(&mut rng))).collect();
        let points: Vec<Fp61> = (0..p).map(|_| Fp61::new(rand::Rng::gen(&mut rng))).collect();
        let mut mach = TcuMachine::model(16, 4);
        prop_assert_eq!(poly::batch_eval(&mut mach, &coeffs, &points), poly::horner_host(&coeffs, &points));
    }

    #[test]
    fn time_is_monotone_in_latency(seed in any::<u64>(), l1 in 0u64..1000, dl in 1u64..1000) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = workloads::random_matrix_i64(16, 16, 10, &mut rng);
        let b = workloads::random_matrix_i64(16, 16, 10, &mut rng);
        let mut lo = TcuMachine::model(16, l1);
        let _ = dense::multiply(&mut lo, &a, &b);
        let mut hi = TcuMachine::model(16, l1 + dl);
        let _ = dense::multiply(&mut hi, &a, &b);
        prop_assert!(hi.time() > lo.time());
        // And the difference is exactly calls × dl.
        prop_assert_eq!(hi.time() - lo.time(), lo.stats().tensor_calls * dl);
    }

    #[test]
    fn weak_machine_never_beats_strong(seed in any::<u64>(), l in 0u64..500) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = workloads::random_matrix_i64(32, 32, 10, &mut rng);
        let b = workloads::random_matrix_i64(32, 32, 10, &mut rng);
        let mut strong = TcuMachine::model(16, l);
        let cs = dense::multiply(&mut strong, &a, &b);
        let mut weak = TcuMachine::weak(16, l);
        let cw = dense::multiply(&mut weak, &a, &b);
        prop_assert_eq!(cs, cw);
        prop_assert!(weak.time() >= strong.time());
    }

    #[test]
    fn tiled_kernel_equals_naive_i64(seed in any::<u64>(), n in 1usize..40, k in 1usize..24, p in 1usize..24) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = workloads::random_matrix_i64(n, k, 50, &mut rng);
        let b = workloads::random_matrix_i64(k, p, 50, &mut rng);
        let want = matmul_naive(&a, &b);
        prop_assert_eq!(kernels::matmul(a.view(), b.view()), want.clone());
        // Strided operand views (blocks of larger matrices) agree too.
        let wide_a = workloads::random_matrix_i64(n + 3, k + 5, 50, &mut rng);
        let wide_b = workloads::random_matrix_i64(k + 2, p + 4, 50, &mut rng);
        let av = wide_a.subview(1, 2, n, k);
        let bv = wide_b.subview(2, 3, k, p);
        prop_assert_eq!(
            kernels::matmul(av, bv),
            matmul_naive(&av.to_matrix(), &bv.to_matrix())
        );
    }

    #[test]
    fn parallel_kernel_bit_identical_for_every_thread_count(seed in any::<u64>(), n in 1usize..520, threads in 1usize..9) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let s = 16;
        let a = workloads::random_matrix_i64(n, s, 100, &mut rng);
        let b = workloads::random_matrix_i64(s, s, 100, &mut rng);
        let serial = kernels::matmul(a.view(), b.view());
        prop_assert_eq!(serial.clone(), matmul_naive(&a, &b));
        prop_assert_eq!(kernels::matmul_threads(a.view(), b.view(), threads), serial);
    }

    #[test]
    fn tiled_kernel_equals_naive_f64(seed in any::<u64>(), n in 1usize..32, k in 1usize..20) {
        // Floats: the tiled kernel and the oracle share the same
        // per-element mul_add order, so they agree under IEEE ==.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = Matrix::from_fn(n, k, |_, _| rand::Rng::gen_range(&mut rng, -4.0f64..4.0));
        let b = Matrix::from_fn(k, k, |_, _| rand::Rng::gen_range(&mut rng, -4.0f64..4.0));
        let want = matmul_naive(&a, &b);
        prop_assert_eq!(kernels::matmul(a.view(), b.view()), want.clone());
        prop_assert_eq!(kernels::matmul_threads(a.view(), b.view(), 4), want);
    }

    #[test]
    fn tiled_kernel_equals_naive_fp61(seed in any::<u64>(), n in 1usize..24, k in 1usize..18, p in 1usize..18) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = Matrix::from_fn(n, k, |_, _| Fp61::new(rand::Rng::gen(&mut rng)));
        let b = Matrix::from_fn(k, p, |_, _| Fp61::new(rand::Rng::gen(&mut rng)));
        prop_assert_eq!(kernels::matmul(a.view(), b.view()), matmul_naive(&a, &b));
    }

    #[test]
    fn tiled_kernel_equals_naive_across_the_32_bit_boundary_i64(seed in any::<u64>(), n in 1usize..420, k in 1usize..24, p in 1usize..24) {
        // Layouts: 0 narrow edges only; 1 wide edges too; 2 narrow plus
        // one entry just past 32 bits in `B`; 3 the same in the last row
        // of an odd-height `A`, inside its ragged last row tile. One side
        // draws the edges and the other stays within ±2^15, so no sum
        // overflows in a debug build.
        use rand::Rng;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for layout in 0..4 {
            let n = if layout == 3 { n | 1 } else { n };
            let big = |r, c, rng: &mut rand::rngs::StdRng| {
                edge_matrix(r, c, &I64_EDGES, layout == 1, rng, |rng| rng.gen_range(-1000..=1000))
            };
            let small = |r, c, rng: &mut rand::rngs::StdRng| workloads::random_matrix_i64(r, c, 1 << 15, rng);
            let (mut a, mut b) = if rng.gen_bool(0.5) {
                (big(n, k, &mut rng), small(k, p, &mut rng))
            } else {
                (small(n, k, &mut rng), big(k, p, &mut rng))
            };
            let past = if rng.gen_bool(0.5) { 1i64 << 31 } else { -(1i64 << 31) - 1 };
            match layout {
                2 => b[(rng.gen_range(0..k), rng.gen_range(0..p))] = past,
                3 => a[(n - 1, rng.gen_range(0..k))] = past,
                _ => {}
            }
            let c0 = workloads::random_matrix_i64(n, p, 100, &mut rng);
            assert_kernels_match_naive(&a, &b, &c0);
            if layout == (seed % 4) as usize {
                assert_bands_match_naive(&a, &b, &c0);
            }
        }
    }

    #[test]
    fn tiled_kernel_equals_naive_across_the_32_bit_boundary_u64(seed in any::<u64>(), n in 1usize..420, k in 1usize..24, p in 1usize..24) {
        // The i64 layouts over `u64`, whose sums wrap, so both sides may
        // draw the edges `u32::MAX` and 2^32.
        use rand::Rng;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for layout in 0..4 {
            let n = if layout == 3 { n | 1 } else { n };
            let mut edges = |r, c| {
                edge_matrix(r, c, &U64_EDGES, layout == 1, &mut rng, |rng| rng.gen_range(0..=1000u64))
            };
            let (mut a, mut b) = (edges(n, k), edges(k, p));
            match layout {
                2 => b[(rng.gen_range(0..k), rng.gen_range(0..p))] = 1 << 32,
                3 => a[(n - 1, rng.gen_range(0..k))] = 1 << 32,
                _ => {}
            }
            let c0 = Matrix::from_fn(n, p, |_, _| rng.gen::<u64>());
            assert_kernels_match_naive(&a, &b, &c0);
            if layout == (seed % 4) as usize {
                assert_bands_match_naive(&a, &b, &c0);
            }
        }
    }

    #[test]
    fn fused_accumulate_equals_unfused(seed in any::<u64>(), n in 1usize..400, threads in 1usize..5) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let s = 8;
        let a = workloads::random_matrix_i64(n, s, 30, &mut rng);
        let b = workloads::random_matrix_i64(s, s, 30, &mut rng);
        let c0 = workloads::random_matrix_i64(n, s, 30, &mut rng);
        let mut want = c0.clone();
        want.add_assign(&matmul_naive(&a, &b));
        let mut got = c0;
        kernels::matmul_acc_threads(&mut got.view_mut(), a.view(), b.view(), threads);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn machine_view_calls_equal_owned_calls(seed in any::<u64>(), n in 4usize..32) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let s = 4;
        let wide = workloads::random_matrix_i64(n + 2, 3 * s, 40, &mut rng);
        let wts = workloads::random_matrix_i64(2 * s, 2 * s, 40, &mut rng);
        let a = wide.block(1, s, n, s);
        let b = wts.block(s, 0, s, s);

        let mut owned = TcuMachine::model(16, 7);
        owned.enable_trace();
        let co = owned.tensor_mul(&a, &b);
        let mut viewed = TcuMachine::model(16, 7);
        viewed.set_host_threads(3);
        viewed.enable_trace();
        let cv = viewed.tensor_mul_view(wide.subview(1, s, n, s), wts.subview(s, 0, s, s));
        prop_assert_eq!(co, cv);
        prop_assert_eq!(owned.stats(), viewed.stats());
        prop_assert_eq!(owned.take_trace(), viewed.take_trace());
    }

    #[test]
    fn batch_views_match_owned_batch(seed in any::<u64>(), q in 1usize..5) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let s = 4;
        let d = q * s;
        let a = workloads::random_matrix_i64(d, d, 20, &mut rng);
        let b = workloads::random_matrix_i64(d, d, 20, &mut rng);
        let ops: Vec<(MatrixView<'_, i64>, MatrixView<'_, i64>)> = (0..q * q)
            .map(|kj| (a.col_strip_view((kj / q) * s, s), b.subview((kj / q) * s, (kj % q) * s, s, s)))
            .collect();
        let mut par = ParallelTcuMachine::new(tcu::core::ModelTensorUnit::new(16, 5), 2);
        let prods = par.tensor_mul_batch_views(&ops);
        for (kj, prod) in prods.iter().enumerate() {
            let strip = a.col_strip((kj / q) * s, s);
            let blk = b.block((kj / q) * s, (kj % q) * s, s, s);
            prop_assert_eq!(prod.clone(), matmul_naive(&strip, &blk));
        }
    }

    #[test]
    fn systolic_array_equals_naive(seed in any::<u64>(), s in 1usize..10, mult in 1usize..5) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = workloads::random_matrix_i64(s * mult, s, 20, &mut rng);
        let b = workloads::random_matrix_i64(s, s, 20, &mut rng);
        let mut arr = SystolicArray::new(s);
        let (c, rep) = arr.multiply(&a, &b);
        prop_assert_eq!(c, matmul_naive(&a, &b));
        prop_assert_eq!(rep.stream_steps, tcu::systolic::stream_cycles(s * mult, s));
    }
}
