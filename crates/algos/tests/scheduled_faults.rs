//! The error path of the four scheduled entry points.
//!
//! Each `try_*` entry runs on a machine whose executor fails its first
//! op. A serial scheduled run makes one attempt per op, so the call
//! must return a typed error — `RetriesExhausted` after one attempt for
//! a transient fault, `UnitFault` for a permanent one — and never
//! unwind. The next call on the same thread, on a healthy machine, must
//! then equal the eager result and its `Stats`: nothing the failed call
//! left behind (the plan memo, the closure's per-thread scratch) may
//! leak into it.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tcu_algos::{closure, dense, gauss, strassen};
use tcu_core::{
    silence_injected_fault_panics, FaultKind, FaultPlan, FaultyExecutor, HostExecutor,
    ModelTensorUnit, TcuError, TcuMachine,
};
use tcu_linalg::Matrix;

const M: usize = 16;
const S: usize = 4;
const L: u64 = 37;
const D: usize = 32;
const KINDS: [FaultKind; 2] = [FaultKind::Transient, FaultKind::Permanent];

type Faulty = TcuMachine<ModelTensorUnit, FaultyExecutor<HostExecutor>>;

fn healthy() -> TcuMachine<ModelTensorUnit> {
    TcuMachine::model(M, L)
}

/// A serial machine whose executor fails its first op with `kind`.
fn faulty(kind: FaultKind) -> Faulty {
    TcuMachine::with_executor(
        ModelTensorUnit::new(M, L),
        FaultyExecutor::new(HostExecutor::new(), FaultPlan::none().fail(0, 0, kind)),
    )
}

/// `call` on a faulty machine: it must come back as the typed error
/// `kind` maps to, not as a panic.
fn assert_fails_typed<R: Debug>(
    kind: FaultKind,
    call: impl FnOnce(&mut Faulty) -> Result<R, TcuError>,
) {
    let mut mach = faulty(kind);
    let result = catch_unwind(AssertUnwindSafe(|| call(&mut mach)));
    let typed = match kind {
        FaultKind::Transient => matches!(
            result,
            Ok(Err(TcuError::RetriesExhausted {
                unit: 0,
                attempts: 1,
                ..
            }))
        ),
        FaultKind::Permanent => matches!(result, Ok(Err(TcuError::UnitFault { unit: 0, .. }))),
    };
    assert!(typed, "{kind:?}: expected a typed error, got {result:?}");
}

fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

#[test]
fn dense_fails_typed_then_runs_exact() {
    silence_injected_fault_panics();
    let (a, b) = (pseudo(D, D, 1), pseudo(D, D, 2));
    let mut eager = healthy();
    let want = dense::multiply(&mut eager, &a, &b);
    for kind in KINDS {
        assert_fails_typed(kind, |mach| {
            dense::try_multiply_scheduled_blocked(mach, &a, &b, S)
        });
        let mut next = healthy();
        let got = dense::try_multiply_scheduled_blocked(&mut next, &a, &b, S).unwrap();
        assert_eq!(got, want, "{kind:?}");
        assert_eq!(next.stats(), eager.stats(), "{kind:?}");
    }
}

#[test]
fn strassen_fails_typed_then_runs_exact() {
    silence_injected_fault_panics();
    let (a, b) = (pseudo(D, D, 3), pseudo(D, D, 4));
    let mut eager = healthy();
    let want = strassen::multiply_recursive_with_base(&mut eager, &a, &b, S);
    for kind in KINDS {
        assert_fails_typed(kind, |mach| {
            strassen::try_multiply_recursive_scheduled_with_base(mach, &a, &b, S)
        });
        let mut next = healthy();
        let got =
            strassen::try_multiply_recursive_scheduled_with_base(&mut next, &a, &b, S).unwrap();
        assert_eq!(got, want, "{kind:?}");
        assert_eq!(next.stats(), eager.stats(), "{kind:?}");
    }
}

#[test]
fn gauss_fails_typed_then_runs_exact() {
    silence_injected_fault_panics();
    // Diagonally dominant, so no pivot of the no-pivoting scheme is 0.
    let x0 = Matrix::from_fn(D, D, |i, j| {
        if i == j {
            4.0 * D as f64
        } else {
            ((i * 7 + j * 3) % 5) as f64 - 2.0
        }
    });
    let mut eager = healthy();
    let mut want = x0.clone();
    gauss::ge_forward(&mut eager, &mut want);
    for kind in KINDS {
        let mut x = x0.clone();
        assert_fails_typed(kind, |mach| gauss::try_eliminate_scheduled(mach, &mut x));
        let mut next = healthy();
        let mut got = x0.clone();
        gauss::try_eliminate_scheduled(&mut next, &mut got).unwrap();
        assert_eq!(got, want, "{kind:?}");
        assert_eq!(next.stats(), eager.stats(), "{kind:?}");
    }
}

#[test]
fn closure_fails_typed_then_runs_exact() {
    silence_injected_fault_panics();
    let adj = Matrix::from_fn(D, D, |i, j| i64::from((i * 5 + j * 3) % 11 == 0));
    let mut eager = healthy();
    let mut want = adj.clone();
    closure::transitive_closure(&mut eager, &mut want);
    // A healthy call first, so the failing one takes a warm scratch
    // pool from this thread and drops it.
    closure::try_transitive_scheduled(&mut healthy(), &mut adj.clone()).unwrap();
    for kind in KINDS {
        let mut d = adj.clone();
        assert_fails_typed(kind, |mach| closure::try_transitive_scheduled(mach, &mut d));
        let mut next = healthy();
        let mut got = adj.clone();
        closure::try_transitive_scheduled(&mut next, &mut got).unwrap();
        assert_eq!(got, want, "{kind:?}");
        assert_eq!(next.stats(), eager.stats(), "{kind:?}");
    }
}
