//! Blocked transitive closure on the TCU — §4.3, Theorem 5 (paper
//! Figures 5–7).
//!
//! The adjacency matrix (0/1 integers) is updated in place by a blocked
//! Floyd–Warshall-style sweep. Kernels `A`, `B`, `C` touch blocks that
//! overlap the pivot block row/column and must run on the CPU with
//! (∨, ∧); kernel `D` updates disjoint blocks and — the paper's key
//! observation — may use (+, ×) followed by clamping to 1, which is
//! exactly a matrix product the tensor unit can absorb. As in Gaussian
//! elimination, for each block column `j ≠ k` the weight `X_{k,j}` is
//! loaded once and every `X_{i,k}` (`i ≠ k`) is streamed through as one
//! tall operand.
//!
//! Theorem 5: time `Θ(n³/√m + (n²/m)·ℓ + n²√m)` for an `n`-vertex graph.

use tcu_core::{Executor, TcuMachine, TensorUnit};
use tcu_linalg::Matrix;

/// Reachability closure of a 0/1 adjacency matrix, in place, blocked on
/// the tensor unit (paper Figure 7). `d[i][j] = 1` on return iff vertex
/// `j` is reachable from vertex `i` by a non-empty path (or `i = j` held
/// a self-loop / was already 1).
///
/// # Panics
/// Panics unless `d` is square 0/1 with `√m | n`.
pub fn transitive_closure<U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    d: &mut Matrix<i64>,
) {
    let n = d.rows();
    assert!(d.is_square(), "adjacency matrix must be square");
    assert!(
        d.as_slice().iter().all(|&x| x == 0 || x == 1),
        "entries must be 0/1"
    );
    let s = mach.sqrt_m();
    assert!(n.is_multiple_of(s), "√m = {s} must divide n = {n}");
    let q = n / s;

    for kk in 0..q {
        pivot_kernels(mach, d, kk, s);

        // D( X_ij, X_ik, X_kj ) on the tensor unit: stack all X_ik
        // (i ≠ k) into one tall operand, one invocation per block column.
        if q == 1 {
            continue;
        }
        let rows = (q - 1) * s;
        let mut tall = Matrix::<i64>::zeros(rows, s);
        let others: Vec<usize> = (0..q).filter(|&i| i != kk).collect();
        for (bi, &i) in others.iter().enumerate() {
            tall.set_block_view(bi * s, 0, d.subview(i * s, kk * s, s, s));
        }
        for &j in &others {
            // The weight block X_kj is disjoint from every updated block
            // X_ij (i ≠ k), but the borrow checker cannot see that
            // through one matrix, so it is staged through a copy; the
            // updates themselves run in place through views.
            let xkj = d.block(kk * s, j * s, s, s);
            let prod = mach.tensor_mul_view(tall.view(), xkj.view());
            for (bi, &i) in others.iter().enumerate() {
                // D's lines 1–7: accumulate the integer product, then
                // clamp to 1 — two CPU ops per element.
                mach.charge(2 * (s * s) as u64);
                d.subview_mut(i * s, j * s, s, s)
                    .zip_apply(prod.subview(bi * s, 0, s, s), |x, p| i64::from(x + p > 0));
            }
        }
    }
}

/// Deferred fast path (feature `sched`): [`transitive_closure`] with
/// every stage's `D` updates recorded into a `tcu-sched` op graph and
/// run as a planned, tagged stream.
///
/// Per pivot block `kk`, the stacked tall operand `T` (every `X_{i,k}`,
/// `i ≠ k`) is recorded as the single left operand streamed against the
/// `q − 1` weight blocks — so the pack cache, when enabled, packs the
/// stack once per plan and re-uses it for every other op in that plan.
/// The weights `X_{k,j}` are gathered once per stage, side by side, into
/// an `s × (q−1)s` panel `W`, the same way `T` is. A chunk's graph
/// reads `W` and `T` at offsets relative to the chunk, never at the
/// stage's position in `X`, so it depends only on `(n, s, chunk
/// length)`: every full chunk of every stage runs one memoized plan and
/// a short tail chunk a second. The gathers are host marshalling and
/// uncharged, like the eager path's block copies. The weight blocks
/// are processed in chunks of [`D_CHUNK`] block-columns per plan, with
/// the (∨-clamp) fold back into `X` run after each chunk: batching
/// *all* `q − 1` products before folding would push the product panel
/// out to an `(q−1)²s²`-element round-trip that evicts both `X` and the
/// products themselves, while per-chunk folding keeps the working set
/// near the eager path's mul-then-fold locality without giving up the
/// planned, tagged stream. The fold stays on the CPU, charged exactly
/// as the eager kernel `D` charges it — `Stats` and results are
/// identical.
///
/// # Panics
/// Panics unless `d` is square 0/1 with `√m | n`.
#[cfg(feature = "sched")]
pub fn transitive_scheduled<U: TensorUnit + 'static, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    d: &mut Matrix<i64>,
) {
    try_transitive_scheduled(mach, d).unwrap_or_else(|e| panic!("{e}"));
}

// Per-thread scratch pool for `try_transitive_scheduled`: the
// `[tall, wts, prods]` buffers of the last completed call, handed back
// to the next call of the same shape. Dropped (not restored) on the
// error path — a faulted run just re-allocates next time.
#[cfg(feature = "sched")]
thread_local! {
    static SCRATCH: core::cell::RefCell<Option<[Matrix<i64>; 3]>> =
        const { core::cell::RefCell::new(None) };
}

/// Block-columns of `D`-stage updates batched per plan in
/// [`try_transitive_scheduled`]. Chosen so the product panel
/// (`D_CHUNK · (q−1) · s²` elements) stays L2-resident at the bench
/// shape (n = 256, s = 16 → 120 KiB): profiling chunk sizes 2/4/8/15
/// showed 2 dominated by per-plan machinery, 15 (everything in one
/// plan) dominated by the 460 KiB product round-trip evicting `X`
/// between fold and the next stage's kernels, and 4 ≈ 8 at the sweet
/// spot.
#[cfg(feature = "sched")]
const D_CHUNK: usize = 4;

/// Fallible form of [`transitive_scheduled`]: execution faults surface
/// as [`tcu_core::TcuError`] instead of panicking. Shape and 0/1-entry
/// preconditions still panic — they are caller bugs, not runtime
/// faults.
///
/// # Errors
/// Propagates any [`tcu_core::TcuError`] from [`tcu_sched::Schedule::try_run`].
#[cfg(feature = "sched")]
pub fn try_transitive_scheduled<U: TensorUnit + 'static, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    d: &mut Matrix<i64>,
) -> Result<(), tcu_core::TcuError> {
    use crate::plan_memo::plan_cached;
    use tcu_core::TensorOp;
    use tcu_sched::{ExecEnv, OpGraph, OperandRef};

    let n = d.rows();
    assert!(d.is_square(), "adjacency matrix must be square");
    assert!(
        d.as_slice().iter().all(|&x| x == 0 || x == 1),
        "entries must be 0/1"
    );
    let s = mach.sqrt_m();
    assert!(n.is_multiple_of(s), "√m = {s} must divide n = {n}");
    let q = n / s;

    // Stage-invariant scratch, hoisted out of the stage loop AND reused
    // across calls on this thread: `tall` (the stacked column strip),
    // `wts` (the pivot block row's weights, side by side) and `prods`
    // (the product panel) keep one shape across all stages and are
    // fully overwritten before any read in every stage — `tall` and
    // `wts` by the q−1 block copies each, `prods` by the q−1
    // overwriting muls into its disjoint column bands (together the
    // bands tile the whole panel) — so neither zeroing nor a fresh
    // allocation buys anything.
    // The thread-local pool matters for the run-many shape: a fresh n²
    // buffer per call pays its first-touch page faults inside the timed
    // run, every run, which is exactly the class of per-run cost the
    // plan-once/run-many contract exists to amortize away.
    let rows = q.saturating_sub(1) * s;
    let chunk_cap = D_CHUNK.min(q.saturating_sub(1));
    let shapes = [(rows, s), (s, rows), (rows * chunk_cap, s)];
    let [mut tall, mut wts, mut prods] = match SCRATCH.with(|c| c.borrow_mut().take()) {
        Some(pool) if pool.iter().map(|m| (m.rows(), m.cols())).eq(shapes) => pool,
        _ => shapes.map(|(r, w)| Matrix::zeros(r, w)),
    };

    for kk in 0..q {
        pivot_kernels(mach, d, kk, s);
        if q == 1 {
            continue;
        }
        // Gather the stage's operands. `D` writes neither block row nor
        // block column `kk`, so both stay valid for every chunk.
        let others: Vec<usize> = (0..q).filter(|&i| i != kk).collect();
        for (b, &o) in others.iter().enumerate() {
            tall.set_block_view(b * s, 0, d.subview(o * s, kk * s, s, s));
            wts.set_block_view(0, b * s, d.subview(kk * s, o * s, s, s));
        }

        for (ci, chunk) in others.chunks(D_CHUNK).enumerate() {
            // Against the gathered operands the chunk graph depends only
            // on (n, s, chunk length): one plan for every full chunk of
            // every stage, one more for a short tail.
            let len = chunk.len();
            let planned = plan_cached("closure-d", [n, s, len, 0], mach.unit(), 1, || {
                let mut g = OpGraph::new();
                let tb = g.buffer("T", rows, s);
                let wb = g.buffer("W", s, len * s);
                let pb = g.buffer("P", rows * len, s);
                let t_whole = OperandRef::new(tb, 0, 0, rows, s);
                for bj in 0..len {
                    g.record(
                        TensorOp::mul(rows, s),
                        t_whole,
                        OperandRef::new(wb, 0, bj * s, s, s),
                        OperandRef::new(pb, bj * rows, 0, rows, s),
                    );
                }
                (g, vec![tb, wb, pb])
            });
            let (tb, wb, pb) = (planned.bufs[0], planned.bufs[1], planned.bufs[2]);
            let mut env = ExecEnv::new(&planned.graph);
            env.try_bind_input(tb, tall.view())?;
            env.try_bind_input(wb, wts.subview(0, ci * D_CHUNK * s, s, len * s))?;
            env.try_bind_output(pb, prods.subview_mut(0, 0, rows * len, s))?;
            planned.plan.try_run(mach, &mut env)?;

            for (bj, &j) in chunk.iter().enumerate() {
                for (bi, &i) in others.iter().enumerate() {
                    mach.charge(2 * (s * s) as u64);
                    d.subview_mut(i * s, j * s, s, s)
                        .zip_apply(prods.subview(bj * rows + bi * s, 0, s, s), |x, p| {
                            i64::from(x + p > 0)
                        });
                }
            }
        }
    }
    SCRATCH.with(|c| *c.borrow_mut() = Some([tall, wts, prods]));
    Ok(())
}

/// Kernels `A`, `B` and `C` of stage `kk` on the CPU, in place: close
/// the pivot block, then fold it into the rest of its block row and
/// block column.
fn pivot_kernels<U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    d: &mut Matrix<i64>,
    kk: usize,
    s: usize,
) {
    let q = d.rows() / s;
    // A( X_kk ): in-block closure.
    let mut xkk = d.block(kk * s, kk * s, s, s);
    kernel_a(mach, &mut xkk);
    d.set_block(kk * s, kk * s, &xkk);

    // B( X_kj, X_kk ): pivot block row.
    for j in (0..q).filter(|&j| j != kk) {
        let mut xkj = d.block(kk * s, j * s, s, s);
        kernel_b(mach, &mut xkj, &xkk);
        d.set_block(kk * s, j * s, &xkj);
    }

    // C( X_ik, X_kk ): pivot block column.
    for i in (0..q).filter(|&i| i != kk) {
        let mut xik = d.block(i * s, kk * s, s, s);
        kernel_c(mach, &mut xik, &xkk);
        d.set_block(i * s, kk * s, &xik);
    }
}

/// `row[j] ∨= c ∧ pivot[j]` for every `j`: one row of a Figure 7 step.
fn or_and(row: &mut [i64], c: i64, pivot: &[i64]) {
    for (x, &p) in row.iter_mut().zip(pivot) {
        *x |= c & p;
    }
}

/// Step `k` of a kernel whose pivot row is row `k` of the block it
/// updates (`A`, `B`): `X[i,·] ∨= c_i ∧ X[k,·]` for every row `i ≠ k`,
/// with `c_i = coef(i, X[i,k])`. Row `k` is skipped: its own update is
/// `a ∨ (c ∧ a) = a`, so the other rows borrow it unchanged.
fn pivot_row_step(x: &mut Matrix<i64>, k: usize, coef: impl Fn(usize, i64) -> i64) {
    let s = x.cols();
    let (above, rest) = x.as_mut_slice().split_at_mut(k * s);
    let (pivot, below) = rest.split_at_mut(s);
    let rows = (above.chunks_exact_mut(s).zip(0..)).chain(below.chunks_exact_mut(s).zip(k + 1..));
    for (row, i) in rows {
        let c = coef(i, row[k]);
        or_and(row, c, pivot);
    }
}

/// Kernel `A` (Figure 7): in-block closure with (∨, ∧); 2 ops per inner
/// iteration. `X[i,k]` is read once per row: the step's `j = k` update
/// leaves it unchanged.
fn kernel_a<U: TensorUnit, E: Executor>(mach: &mut TcuMachine<U, E>, x: &mut Matrix<i64>) {
    let s = x.rows();
    for k in 0..s {
        pivot_row_step(x, k, |_, xik| xik);
    }
    mach.charge(2 * (s * s * s) as u64);
}

/// Kernel `B` (Figure 7): `X[i,j] ∨= Y[i,k] ∧ X[k,j]`.
fn kernel_b<U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    x: &mut Matrix<i64>,
    y: &Matrix<i64>,
) {
    let s = x.rows();
    for k in 0..s {
        pivot_row_step(x, k, |i, _| y[(i, k)]);
    }
    mach.charge(2 * (s * s * s) as u64);
}

/// Kernel `C` (Figure 7): `X[i,j] ∨= X[i,k] ∧ Y[k,j]`. `X[i,k]` is read
/// once per row: the step's `j = k` update leaves it unchanged.
fn kernel_c<U: TensorUnit, E: Executor>(
    mach: &mut TcuMachine<U, E>,
    x: &mut Matrix<i64>,
    y: &Matrix<i64>,
) {
    let s = x.rows();
    for k in 0..s {
        let pivot = y.row(k);
        for row in x.as_mut_slice().chunks_exact_mut(s) {
            let c = row[k];
            or_and(row, c, pivot);
        }
    }
    mach.charge(2 * (s * s * s) as u64);
}

/// Host oracle: the unblocked Figure 5 loop (`Θ(n³)` bit operations).
/// Returns the closure of a fresh copy.
#[must_use]
pub fn transitive_closure_host(d: &Matrix<i64>) -> Matrix<i64> {
    let n = d.rows();
    let mut c = d.clone();
    for k in 0..n {
        for i in 0..n {
            if c[(i, k)] == 0 {
                continue;
            }
            for j in 0..n {
                c[(i, j)] |= c[(k, j)];
            }
        }
    }
    c
}

/// Simulated-time charge of running the unblocked Figure 5 loop on the
/// TCU's CPU (the baseline of experiment E5): 2 ops per inner iteration.
#[must_use]
pub fn host_closure_time(n: u64) -> u64 {
    2 * n * n * n
}

/// Exact simulated time of [`transitive_closure`] on a model machine.
#[must_use]
pub fn transitive_closure_time(n: u64, s: u64, l: u64) -> u64 {
    let q = n / s;
    let kernel = 2 * s * s * s;
    let mut t = 0u64;
    for _kk in 0..q {
        t += kernel; // A
        t += 2 * (q - 1) * kernel; // B and C
        if q > 1 {
            t += (q - 1) * ((q - 1) * s * s + l); // tensor calls
            t += (q - 1) * (q - 1) * 2 * s * s; // accumulate + clamp
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::random_digraph;
    use rand::{rngs::StdRng, SeedableRng};
    use tcu_core::TcuMachine;

    fn closure_pair(n: usize, m: usize, density: f64, seed: u64) -> (Matrix<i64>, Matrix<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = random_digraph(n, density, &mut rng);
        let host = transitive_closure_host(&adj);
        let mut mach = TcuMachine::model(m, 3);
        let mut dev = adj;
        transitive_closure(&mut mach, &mut dev);
        (host, dev)
    }

    #[test]
    fn matches_unblocked_oracle() {
        for (n, m, density) in [
            (8usize, 4usize, 0.2),
            (16, 16, 0.1),
            (32, 16, 0.05),
            (32, 16, 0.5),
            (24, 4, 0.15),
        ] {
            let (host, dev) = closure_pair(n, m, density, 1000 + n as u64);
            assert_eq!(host, dev, "n={n} m={m} density={density}");
        }
    }

    #[test]
    fn empty_and_complete_graphs() {
        let mut mach = TcuMachine::model(4, 0);
        let mut empty = Matrix::<i64>::zeros(8, 8);
        transitive_closure(&mut mach, &mut empty);
        assert!(empty.is_zero());

        let mut complete = Matrix::from_fn(8, 8, |_, _| 1i64);
        let want = complete.clone();
        transitive_closure(&mut mach, &mut complete);
        assert_eq!(complete, want);
    }

    #[test]
    fn directed_path_closes_to_upper_triangle() {
        // Edges i -> i+1: closure reaches every j > i.
        let n = 16;
        let mut d = Matrix::from_fn(n, n, |i, j| i64::from(j == i + 1));
        let mut mach = TcuMachine::model(16, 2);
        transitive_closure(&mut mach, &mut d);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(d[(i, j)], i64::from(j > i), "({i},{j})");
            }
        }
    }

    #[test]
    fn closure_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(7);
        let adj = random_digraph(16, 0.15, &mut rng);
        let mut mach = TcuMachine::model(16, 0);
        let mut once = adj;
        transitive_closure(&mut mach, &mut once);
        let mut twice = once.clone();
        transitive_closure(&mut mach, &mut twice);
        assert_eq!(once, twice);
    }

    #[test]
    fn cost_matches_closed_form() {
        for (n, m, l) in [(16u64, 16usize, 0u64), (32, 16, 999), (32, 4, 5)] {
            let mut rng = StdRng::seed_from_u64(n);
            let adj = random_digraph(n as usize, 0.2, &mut rng);
            let mut mach = TcuMachine::model(m, l);
            let mut d = adj;
            transitive_closure(&mut mach, &mut d);
            let s = (m as f64).sqrt() as u64;
            assert_eq!(mach.time(), transitive_closure_time(n, s, l), "n={n} m={m}");
        }
    }

    #[test]
    fn tensor_latency_is_n2_over_m() {
        let (n, m, l) = (32usize, 16usize, 100_000u64);
        let mut rng = StdRng::seed_from_u64(3);
        let adj = random_digraph(n, 0.3, &mut rng);
        let mut mach = TcuMachine::model(m, l);
        let mut d = adj;
        transitive_closure(&mut mach, &mut d);
        let q = (n / 4) as u64;
        // q block iterations × (q−1) tall calls each.
        assert_eq!(mach.stats().tensor_calls, q * (q - 1));
        assert_eq!(mach.stats().tensor_latency_time, q * (q - 1) * l);
    }

    #[test]
    #[should_panic(expected = "entries must be 0/1")]
    fn rejects_non_boolean_input() {
        let mut mach = TcuMachine::model(4, 0);
        let mut d = Matrix::from_fn(4, 4, |i, j| (i + j) as i64);
        transitive_closure(&mut mach, &mut d);
    }

    #[cfg(feature = "sched")]
    #[test]
    fn scheduled_closure_matches_eager_with_identical_stats() {
        for (n, m, density) in [
            (16usize, 16usize, 0.1),
            (32, 16, 0.2),
            (24, 4, 0.15),
            (64, 16, 0.03),
        ] {
            let mut rng = StdRng::seed_from_u64(500 + n as u64);
            let adj = random_digraph(n, density, &mut rng);
            let mut eager = TcuMachine::model(m, 7);
            let mut want = adj.clone();
            transitive_closure(&mut eager, &mut want);
            let mut sched = TcuMachine::model(m, 7);
            sched.executor_mut().enable_pack_cache(2);
            let mut got = adj.clone();
            transitive_scheduled(&mut sched, &mut got);
            assert_eq!(got, want, "n={n} m={m}");
            assert_eq!(got, transitive_closure_host(&adj), "n={n} m={m}");
            assert_eq!(sched.stats(), eager.stats(), "n={n} m={m}");
        }
    }

    #[cfg(feature = "sched")]
    #[test]
    fn scheduled_closure_plans_once_per_chunk_length() {
        use crate::plan_memo::plan_cache_stats;
        // q = 32 stages × 8 chunks = 256 memo lookups per call: far past
        // MEMO_CAP if each (stage, chunk) needed its own plan. Keyed by
        // chunk length there are two (7 chunks of 4, a tail of 3).
        let (n, m) = (128usize, 16usize);
        let mut rng = StdRng::seed_from_u64(128);
        let adj = random_digraph(n, 2.0 / n as f64, &mut rng);
        let want = transitive_closure_host(&adj);
        // A latency no other test uses keeps this thread's memo cold.
        let run = || {
            let mut mach = TcuMachine::model(m, 4_128);
            let mut d = adj.clone();
            let before = plan_cache_stats();
            transitive_scheduled(&mut mach, &mut d);
            let after = plan_cache_stats();
            (d, after.misses - before.misses, after.hits - before.hits)
        };
        let (cold, cold_misses, cold_hits) = run();
        assert_eq!(cold, want);
        assert_eq!((cold_misses, cold_hits), (2, 254), "cold call");
        let (warm, warm_misses, warm_hits) = run();
        assert_eq!(warm, want);
        assert_eq!((warm_misses, warm_hits), (0, 256), "warm call");
    }

    #[cfg(feature = "sched")]
    #[test]
    fn scheduled_closure_packs_each_stage_stack_once() {
        let (n, m) = (32usize, 16usize);
        let q = n / 4;
        let mut rng = StdRng::seed_from_u64(9);
        let mut d = random_digraph(n, 0.2, &mut rng);
        let mut mach = TcuMachine::model(m, 0);
        mach.executor_mut().enable_pack_cache(2);
        transitive_scheduled(&mut mach, &mut d);
        let cache = mach.executor().pack_cache_stats().expect("cache on");
        // q stages, each streaming one stacked operand against q − 1
        // weight blocks in ⌈(q−1)/D_CHUNK⌉ chunk plans: one lookup per
        // mul, one pack per chunk plan (a fresh env re-stamps the
        // operand), and a hit for every other mul in the chunk.
        let chunks_per_stage = (q - 1).div_ceil(D_CHUNK);
        assert_eq!(cache.lookups, (q * (q - 1)) as u64);
        assert_eq!(cache.misses, (q * chunks_per_stage) as u64);
        assert_eq!(cache.hits, (q * (q - 1 - chunks_per_stage)) as u64);
    }
}
