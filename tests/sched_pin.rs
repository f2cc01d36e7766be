//! Pin: the deferred scheduling runtime must be a *no-op in the model*
//! on the canonical E2 workload — the exact workload whose eager
//! accounting `tests/cost_invariance.rs` pins byte-for-byte against the
//! seed simulator.
//!
//! At the native block size nothing can coalesce, so the scheduled
//! blocked multiplication must (a) equal the unscheduled oracle
//! element-for-element, (b) charge exactly the `Stats` the seed pins
//! (same counters the eager path produces), and (c) get all of its
//! host-side win from the pack cache — one pack per strip per run —
//! without perturbing a single simulated counter. A second scenario
//! checks the ablation direction: a sub-footprint recording coalesces
//! back to exactly the native charges.

use tcu::algos::dense;
use tcu::core::TcuMachine;
use tcu::linalg::{ops::matmul_naive, Matrix};

/// The cost_invariance workload generator, frozen here for the same
/// reason: pins must not drift with workload-module edits.
fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

#[test]
fn scheduled_e2_matches_the_unscheduled_oracle_and_the_seed_pin() {
    // Same machine and inputs as cost_invariance::e2_dense.
    let a = pseudo(64, 64, 3);
    let b = pseudo(64, 64, 4);

    let mut eager = TcuMachine::model(16, 1000);
    let want = dense::multiply(&mut eager, &a, &b);

    let mut sched = TcuMachine::model(16, 1000);
    sched.executor_mut().enable_pack_cache(16);
    let got = dense::try_multiply_scheduled_blocked(&mut sched, &a, &b, 4).unwrap();

    // Element-for-element against the unscheduled oracle (and the host
    // reference, so both paths can't be wrong together).
    assert_eq!(got, want);
    assert_eq!(got, matmul_naive(&a, &b));

    // The full Stats of the scheduled run equal the eager run's — the
    // same counters cost_invariance pins to the seed values, restated
    // here so a scheduler change that perturbs accounting fails with
    // the divergent counter named.
    assert_eq!(sched.stats(), eager.stats());
    assert_eq!(sched.stats().tensor_calls, 256);
    assert_eq!(sched.stats().tensor_rows, 16_384);
    assert_eq!(sched.stats().tensor_time, 321_536);
    assert_eq!(sched.stats().tensor_latency_time, 256_000);
    assert_eq!(sched.stats().scalar_ops, 61_440);

    // Host-side effect only: 16 strips, each packed exactly once and
    // re-used for all 16 block columns.
    let cache = sched.executor().pack_cache_stats().expect("cache on");
    assert_eq!((cache.lookups, cache.misses, cache.hits), (256, 16, 240));
}

#[test]
fn two_stage_pipeline_charges_exactly_twice_the_pinned_e2_run() {
    // One versioned graph holding M = A·B then C = M·B at the native
    // block size, on the E2-pinned machine: the planned stream must
    // charge exactly 2× the seed-pinned E2 counters (two back-to-back
    // blocked multiplications, nothing coalescable), stage 2 must
    // consume stage 1's output through generation-staged reads, and the
    // pack cache must retire stage-1 strips (M's strips are packed at
    // their post-write generation).
    use tcu::core::TensorOp;
    use tcu::sched::{ExecEnv, OpGraph, OperandRef, Scheduler};

    let d = 64usize;
    let s = 4usize;
    let a = pseudo(d, d, 3);
    let b = pseudo(d, d, 4);
    let mut g = OpGraph::new();
    let ab = g.buffer("A", d, d);
    let bb = g.buffer("B", d, d);
    let mb = g.buffer("M", d, d);
    let cb = g.buffer("C", d, d);
    let q = d / s;
    for (src, dst) in [(ab, mb), (mb, cb)] {
        for j in 0..q {
            for k in 0..q {
                g.record(
                    TensorOp::mul_acc(d, s),
                    OperandRef::new(src, 0, k * s, d, s),
                    OperandRef::new(bb, k * s, j * s, s, s),
                    OperandRef::new(dst, 0, j * s, d, s),
                );
            }
        }
    }
    let mut mach = TcuMachine::model(16, 1000);
    mach.executor_mut().enable_pack_cache(2 * q);
    let plan = Scheduler::new().plan(&g, mach.unit());
    let (mut m, mut c) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
    let mut env = ExecEnv::new(&g);
    env.try_bind_input(ab, a.view()).unwrap();
    env.try_bind_input(bb, b.view()).unwrap();
    env.try_bind_output(mb, m.view_mut()).unwrap();
    env.try_bind_output(cb, c.view_mut()).unwrap();
    plan.try_run(&mut mach, &mut env).unwrap();

    let want_m = matmul_naive(&a, &b);
    assert_eq!(m, want_m);
    assert_eq!(c, matmul_naive(&want_m, &b));
    // 2× the cost_invariance E2 pins (the CPU summation is not part of
    // the recorded stream, so only tensor counters double).
    assert_eq!(mach.stats().tensor_calls, 2 * 256);
    assert_eq!(mach.stats().tensor_rows, 2 * 16_384);
    assert_eq!(mach.stats().tensor_time, 2 * 321_536);
    assert_eq!(mach.stats().tensor_latency_time, 2 * 256_000);
    // Strip traffic: A's 16 strips pack once each for stage 1; M's 16
    // strips pack once each at their written generation for stage 2.
    let cache = mach.executor().pack_cache_stats().expect("cache on");
    assert_eq!((cache.lookups, cache.misses), (512, 32));
}

#[test]
fn narrow_recording_coalesces_to_the_pinned_native_charges() {
    // Record the same product in quarter-footprint blocks: coalescing
    // must rebuild the native invocation grid and land on the *same*
    // pinned Stats as the eager native-block flow.
    let a = pseudo(64, 64, 3);
    let b = pseudo(64, 64, 4);
    let mut eager = TcuMachine::model(16, 1000);
    let want = dense::multiply(&mut eager, &a, &b);
    let mut narrow = TcuMachine::model(16, 1000);
    let got = dense::try_multiply_scheduled_blocked(&mut narrow, &a, &b, 2).unwrap();
    assert_eq!(got, want);
    assert_eq!(narrow.stats(), eager.stats());
}
