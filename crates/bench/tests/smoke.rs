//! Smoke tests: every experiment must run to completion in quick mode
//! (they contain their own internal assertions — oracle agreement,
//! exact closed forms, bound checks — so completing IS the test).
//! Heavier experiments are grouped to keep per-test wall time low.

use tcu_bench::experiments as exp;

#[test]
fn f1_and_val_run() {
    exp::f1_systolic::run(true);
    exp::val_cycles::run(true);
}

#[test]
fn dense_family_runs() {
    exp::e2_dense::run(true);
    exp::e2_rect::run(true);
    exp::e1_strassen::run(true);
}

#[test]
fn sparse_runs() {
    exp::e3_sparse::run(true);
}

#[test]
fn gauss_and_graphs_run() {
    exp::e4_gauss::run(true);
    exp::e5_closure::run(true);
    exp::e6_apsd::run(true);
}

#[test]
fn dft_and_stencil_run() {
    exp::e7_dft::run(true);
    exp::e8_stencil::run(true);
}

#[test]
fn intmul_and_poly_run() {
    exp::e9_intmul::run(true);
    exp::e10_karatsuba::run(true);
    exp::e11_poly::run(true);
}

#[test]
fn extmem_runs() {
    exp::e12_extmem::run(true);
}

#[test]
fn extensions_run() {
    exp::ep1_parallel::run(true);
    exp::ep2_precision::run(true);
}

/// `exp` runs experiments by name: an unknown name exits with status 2
/// and lists every name it knows.
#[test]
fn exp_rejects_an_unknown_name_with_the_list() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg("e0_unknown")
        .output()
        .expect("exp starts");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    for (name, _) in exp::EXPERIMENTS {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}
