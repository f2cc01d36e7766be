//! # tcu-algos — the paper's §4 algorithm suite on the simulated TCU
//!
//! One module per subsection of §4, each implementing the paper's
//! algorithm on a [`tcu_core::TcuMachine`] together with the RAM baseline
//! it is measured against:
//!
//! | module | paper | result |
//! |---|---|---|
//! | [`dense`] | §4.1, Thm 2 / Cor 1 | blocked multiplication with tall-operand streaming |
//! | [`strassen`] | §4.1, Thm 1 | Strassen-like recursion with tensor-unit base case |
//! | [`sparse`] | §4.1, Thm 3 | output-sensitive sparse multiplication by compression |
//! | [`gauss`] | §4.2, Thm 4 | blocked Gaussian elimination without pivoting (Fig. 4) |
//! | [`closure`] | §4.3, Thm 5 | blocked transitive closure (Fig. 7) |
//! | [`apsd`] | §4.4, Thm 6 | Seidel's all-pairs shortest distances |
//! | [`fft`] | §4.5, Thm 7 | Cooley–Tukey DFT with `√m`-point tensor base cases |
//! | [`stencil`] | §4.6, Thm 8 | linear stencils via convolution (Lemmas 1–2) |
//! | [`intmul`] | §4.7, Thms 9–10 | long-integer multiplication (schoolbook + Karatsuba) |
//! | [`poly`] | §4.8, Thm 11 | batch polynomial evaluation |
//!
//! Each algorithm charges the machine at the granularity of the paper's
//! pseudocode — tensor invocations through [`tcu_core::TcuMachine::tensor_mul`],
//! scalar CPU arithmetic through [`tcu_core::TcuMachine::charge`] — and its
//! unit tests pin both the numeric output (against a host oracle) and, for
//! the structured algorithms, the exact closed-form simulated time.
//!
//! [`workloads`] generates the random inputs the experiments sweep over
//! (seeded, so every table `tcu-bench`'s `exp` binary prints is
//! reproducible; see the README's Quickstart).

pub mod apsd;
pub mod closure;
pub mod dense;
pub mod fft;
pub mod gauss;
pub mod intmul;
pub mod parallel;
pub mod plan_memo;
pub mod poly;
pub mod scan;
pub mod sparse;
pub mod stencil;
pub mod strassen;
pub mod triangles;
pub mod workloads;
