//! Seeded random workload generators for the test suites and the
//! experiment harness (`tcu-bench`). Everything takes an explicit
//! [`rand::Rng`] so the tables `tcu-bench`'s `exp` binary prints (see
//! the README's Quickstart) are bit-reproducible.

use rand::Rng;
use tcu_linalg::{Complex64, Fp61, Matrix};

/// Dense `r × c` matrix with entries uniform in `[-1, 1]`.
pub fn random_matrix_f64<R: Rng>(r: usize, c: usize, rng: &mut R) -> Matrix<f64> {
    Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
}

/// Dense `r × c` integer matrix with entries uniform in `[-bound, bound]`.
pub fn random_matrix_i64<R: Rng>(r: usize, c: usize, bound: i64, rng: &mut R) -> Matrix<i64> {
    Matrix::from_fn(r, c, |_, _| rng.gen_range(-bound..=bound))
}

/// Dense `r × c` matrix over the prime field `F_{2^61−1}`.
pub fn random_matrix_fp<R: Rng>(r: usize, c: usize, rng: &mut R) -> Matrix<Fp61> {
    Matrix::from_fn(r, c, |_, _| Fp61::new(rng.gen()))
}

/// Dense `r × c` complex matrix with entries in the unit square.
pub fn random_matrix_c64<R: Rng>(r: usize, c: usize, rng: &mut R) -> Matrix<Complex64> {
    Matrix::from_fn(r, c, |_, _| {
        Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    })
}

/// Random complex vector (DFT input).
pub fn random_vector_c64<R: Rng>(n: usize, rng: &mut R) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// 0/1 adjacency matrix of a random digraph: each off-diagonal arc is
/// present independently with probability `density`.
pub fn random_digraph<R: Rng>(n: usize, density: f64, rng: &mut R) -> Matrix<i64> {
    Matrix::from_fn(n, n, |i, j| i64::from(i != j && rng.gen_bool(density)))
}

/// Symmetric 0/1 adjacency matrix of a random *connected* undirected graph
/// (a random spanning tree plus density-`p` extra edges), zero diagonal —
/// the input class Seidel's algorithm requires.
pub fn random_connected_graph<R: Rng>(n: usize, p: f64, rng: &mut R) -> Matrix<i64> {
    assert!(n >= 1);
    let mut adj = Matrix::<i64>::zeros(n, n);
    // Random spanning tree: attach vertex v to a uniform earlier vertex.
    for v in 1..n {
        let u = rng.gen_range(0..v);
        adj[(u, v)] = 1;
        adj[(v, u)] = 1;
    }
    for i in 0..n {
        for j in i + 1..n {
            if adj[(i, j)] == 0 && rng.gen_bool(p) {
                adj[(i, j)] = 1;
                adj[(j, i)] = 1;
            }
        }
    }
    adj
}

/// Sparse balanced multiplication instance for Theorem 3: two `d × d`
/// matrices whose non-zeros are confined to `ra` active rows of `A` and
/// `cb` active columns of `B` (so the output support is at most
/// `ra × cb`), with `nnz_per` non-zeros per active line. Returned as
/// dense 0-padded matrices; `tcu-algos::sparse` converts to CSR.
pub fn random_sparse_pair<R: Rng>(
    d: usize,
    ra: usize,
    cb: usize,
    nnz_per: usize,
    rng: &mut R,
) -> (Matrix<f64>, Matrix<f64>) {
    assert!(ra <= d && cb <= d);
    let mut a = Matrix::<f64>::zeros(d, d);
    let mut b = Matrix::<f64>::zeros(d, d);
    let rows: Vec<usize> = sample_distinct(d, ra, rng);
    let cols: Vec<usize> = sample_distinct(d, cb, rng);
    for &r in &rows {
        for _ in 0..nnz_per {
            let c = rng.gen_range(0..d);
            a[(r, c)] = rng.gen_range(0.5..1.5);
        }
    }
    for &c in &cols {
        for _ in 0..nnz_per {
            let r = rng.gen_range(0..d);
            b[(r, c)] = rng.gen_range(0.5..1.5);
        }
    }
    (a, b)
}

/// `k` distinct values from `0..d` (Floyd's sampling).
fn sample_distinct<R: Rng>(d: usize, k: usize, rng: &mut R) -> Vec<usize> {
    use std::collections::HashSet;
    let mut set = HashSet::with_capacity(k);
    for j in d - k..d {
        let t = rng.gen_range(0..=j);
        if !set.insert(t) {
            set.insert(j);
        }
    }
    let mut v: Vec<usize> = set.into_iter().collect();
    v.sort_unstable();
    v
}

/// Random non-negative big integer with exactly `limbs` 16-bit limbs
/// (top limb non-zero), as the limb vector used by `algos::intmul`.
pub fn random_limbs<R: Rng>(limbs: usize, rng: &mut R) -> Vec<u64> {
    let mut v: Vec<u64> = (0..limbs).map(|_| u64::from(rng.gen::<u16>())).collect();
    if let Some(top) = v.last_mut() {
        *top = u64::from(rng.gen_range(1u16..=u16::MAX));
    }
    v
}

/// Random grid for stencil experiments: `d × d` with values in `[0, 1]`
/// (think normalized temperatures).
pub fn random_grid<R: Rng>(d: usize, rng: &mut R) -> Matrix<f64> {
    Matrix::from_fn(d, d, |_, _| rng.gen_range(0.0..1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generators_are_deterministic_under_seed() {
        let a1 = random_matrix_f64(4, 4, &mut StdRng::seed_from_u64(1));
        let a2 = random_matrix_f64(4, 4, &mut StdRng::seed_from_u64(1));
        assert_eq!(a1, a2);
        let g1 = random_digraph(10, 0.3, &mut StdRng::seed_from_u64(2));
        let g2 = random_digraph(10, 0.3, &mut StdRng::seed_from_u64(2));
        assert_eq!(g1, g2);
    }

    #[test]
    fn connected_graph_is_connected_and_symmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 24;
        let adj = random_connected_graph(n, 0.05, &mut rng);
        for i in 0..n {
            assert_eq!(adj[(i, i)], 0, "no self loops");
            for j in 0..n {
                assert_eq!(adj[(i, j)], adj[(j, i)], "symmetry");
            }
        }
        // BFS from 0 must reach everything.
        let mut seen = vec![false; n];
        let mut queue = vec![0usize];
        seen[0] = true;
        while let Some(u) = queue.pop() {
            for v in 0..n {
                if adj[(u, v)] == 1 && !seen[v] {
                    seen[v] = true;
                    queue.push(v);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "graph must be connected");
    }

    #[test]
    fn sparse_pair_respects_support() {
        let mut rng = StdRng::seed_from_u64(4);
        let (a, b) = random_sparse_pair(32, 4, 5, 6, &mut rng);
        let nonempty_rows = (0..32)
            .filter(|&i| (0..32).any(|j| a[(i, j)] != 0.0))
            .count();
        let nonempty_cols = (0..32)
            .filter(|&j| (0..32).any(|i| b[(i, j)] != 0.0))
            .count();
        assert!(nonempty_rows <= 4);
        assert!(nonempty_cols <= 5);
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let v = sample_distinct(50, 10, &mut rng);
            assert_eq!(v.len(), 10);
            assert!(v.windows(2).all(|w| w[0] < w[1]));
            assert!(v.iter().all(|&x| x < 50));
        }
    }

    #[test]
    fn limbs_have_nonzero_top() {
        let mut rng = StdRng::seed_from_u64(6);
        let v = random_limbs(12, &mut rng);
        assert_eq!(v.len(), 12);
        assert!(*v.last().unwrap() > 0);
        assert!(v.iter().all(|&x| x < (1 << 16)));
    }
}
