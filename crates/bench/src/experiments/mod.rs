//! One module per experiment, each opening with the paper claim it
//! checks. Each exposes `run(quick: bool)`: `quick` shrinks the sweeps
//! for smoke tests. [`EXPERIMENTS`] is the index the `exp` binary runs
//! them by.

pub mod e10_karatsuba;
pub mod e11_poly;
pub mod e12_extmem;
pub mod e1_strassen;
pub mod e2_dense;
pub mod e2_rect;
pub mod e3_sparse;
pub mod e4_gauss;
pub mod e5_closure;
pub mod e6_apsd;
pub mod e7_dft;
pub mod e8_stencil;
pub mod e9_intmul;
pub mod ep1_parallel;
pub mod ep2_precision;
pub mod f1_systolic;
pub mod val_cycles;

/// An experiment's name, as `exp` takes it, and its `run`.
pub type Experiment = (&'static str, fn(bool));

/// Every experiment, in index order: the order `exp all` runs them.
pub const EXPERIMENTS: [Experiment; 17] = [
    ("f1_systolic", f1_systolic::run),
    ("e1_strassen", e1_strassen::run),
    ("e2_dense", e2_dense::run),
    ("e2_rect", e2_rect::run),
    ("e3_sparse", e3_sparse::run),
    ("e4_gauss", e4_gauss::run),
    ("e5_closure", e5_closure::run),
    ("e6_apsd", e6_apsd::run),
    ("e7_dft", e7_dft::run),
    ("e8_stencil", e8_stencil::run),
    ("e9_intmul", e9_intmul::run),
    ("e10_karatsuba", e10_karatsuba::run),
    ("e11_poly", e11_poly::run),
    ("e12_extmem", e12_extmem::run),
    ("val_cycles", val_cycles::run),
    ("ep1_parallel", ep1_parallel::run),
    ("ep2_precision", ep2_precision::run),
];

/// Run every experiment in index order (`exp all`).
pub fn run_all(quick: bool) {
    for (_, run) in EXPERIMENTS {
        run(quick);
    }
}
