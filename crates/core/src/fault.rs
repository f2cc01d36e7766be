//! Deterministic fault injection and the recovery accounting surface.
//!
//! Hardware accelerators fail: a unit drops an invocation (a transient
//! ECC hiccup, a preempted stream) or dies for the rest of the job (a
//! wedged engine). The scheduled runtime recovers from both — transient
//! faults are retried in place, permanently failing units are
//! quarantined and their work re-partitioned onto survivors — and this
//! module provides the machinery to *test* that story the way the rest
//! of the workspace tests everything: deterministically.
//!
//! [`FaultyExecutor`] wraps any [`Executor`] and injects faults from a
//! [`FaultPlan`] — an explicit map of "the k-th execution on unit u
//! fails, transiently or permanently". Plans can be built by hand for
//! targeted tests or generated from a seed (via the workspace's
//! hermetic `rand` shim) for chaos suites; either way the same plan
//! always produces the same fault sequence, so a chaos run that found a
//! bug is replayable by seed.
//!
//! Injected faults manifest as panics carrying an [`InjectedFault`]
//! payload, raised *before* the wrapped executor touches the output —
//! so a retried op sees its destination exactly as seeded, and the
//! parallel driver (`tcu-sched`) contains the unwind per chain attempt
//! with `catch_unwind`, retrying from the failed link. Non-injected
//! panics (a real executor bug) are treated as permanent unit faults
//! and recovered the same way: the chain's private accumulator is
//! discarded unmerged, and the whole chain re-runs on a survivor.

use crate::exec::{ChainOp, Executor, OperandId, PackCacheStats};
use crate::op::TensorOp;
use crate::parallel::ParallelTcuMachine;
use crate::tensor_unit::TensorUnit;
use std::collections::BTreeMap;
use std::sync::Arc;
use tcu_linalg::{MatrixView, MatrixViewMut, Scalar};

/// How long an injected fault lasts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// One execution fails; the next attempt may succeed. Models a
    /// dropped invocation — a parallel run retries in place with
    /// simulated backoff.
    Transient,
    /// The unit fails this execution and every one after it. Models a
    /// dead engine — a parallel run quarantines the unit.
    Permanent,
}

/// The panic payload of an injected fault. The parallel driver
/// downcasts caught unwinds to this type to tell injected faults
/// (destination left untouched, retry is safe) from real executor bugs
/// (destination state unknown, rebuild before re-execution).
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// Unit the fault fired on.
    pub unit: usize,
    /// Execution index (per unit) the fault fired at.
    pub k: u64,
    /// Transient or permanent.
    pub kind: FaultKind,
}

/// A deterministic map of injected faults: `(unit, k) → kind`, where
/// `k` counts the executions the unit's executor has performed
/// (retries count — a transiently-failed op's second attempt is the
/// unit's next execution).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<(usize, u64), FaultKind>,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire. A [`FaultyExecutor`] with
    /// this plan is a pure (counted) pass-through — the configuration
    /// the fault-free-overhead benchmark measures.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: fail the `k`-th execution on `unit` with `kind`.
    #[must_use]
    pub fn fail(mut self, unit: usize, k: u64, kind: FaultKind) -> Self {
        self.faults.insert((unit, k), kind);
        self
    }

    /// A seeded random plan over `units` units and execution indices
    /// `0..horizon`, guaranteed *recoverable* by a parallel run (3
    /// attempts per op, quarantine on):
    ///
    /// * transient faults fire with probability
    ///   `transient_per_mille / 1000` per execution index, but never at
    ///   two consecutive indices of one unit — so a retried op always
    ///   succeeds by its second attempt;
    /// * at most `permanent_units` units (capped at `units − 1`, so at
    ///   least one unit always survives) additionally receive one
    ///   permanent fault at a random index.
    ///
    /// Same seed, same arguments → byte-identical plan (the generator is
    /// the hermetic SplitMix64 shim), which is what makes chaos-test
    /// failures replayable.
    #[must_use]
    pub fn seeded(
        seed: u64,
        units: usize,
        horizon: u64,
        transient_per_mille: u32,
        permanent_units: usize,
    ) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut plan = Self::none();
        for u in 0..units {
            let mut prev_faulted = false;
            for k in 0..horizon {
                let fire = !prev_faulted
                    && u64::from(transient_per_mille) > 0
                    && rng.gen_range(0..1000u32) < transient_per_mille;
                if fire {
                    plan.faults.insert((u, k), FaultKind::Transient);
                }
                prev_faulted = fire;
            }
        }
        let perm = permanent_units.min(units.saturating_sub(1));
        if perm > 0 {
            // Choose `perm` distinct victims deterministically.
            let mut victims: Vec<usize> = (0..units).collect();
            for i in 0..perm {
                let j = i + rng.gen_range(0..(units - i));
                victims.swap(i, j);
            }
            for &u in victims.iter().take(perm) {
                let k = rng.gen_range(0..horizon.max(1));
                plan.faults.insert((u, k), FaultKind::Permanent);
            }
        }
        plan
    }

    /// The fault planned for execution `k` on `unit`, if any.
    #[must_use]
    pub fn fault_at(&self, unit: usize, k: u64) -> Option<FaultKind> {
        self.faults.get(&(unit, k)).copied()
    }

    /// Whether any fault is planned on `unit` for an execution in `ks`.
    fn any_in(&self, unit: usize, ks: std::ops::Range<u64>) -> bool {
        self.faults
            .range((unit, ks.start)..(unit, ks.end))
            .next()
            .is_some()
    }

    /// Number of planned faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` iff no faults are planned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// An [`Executor`] wrapper that injects the faults of a [`FaultPlan`].
///
/// Each instance counts its own executions (one per op, one per link of
/// a chain) and checks the plan under its configured unit id before
/// delegating; a planned fault panics
/// with an [`InjectedFault`] payload *without* touching the output.
/// Once a permanent fault fires, every later execution on the instance
/// fails too (the unit is dead until quarantined).
///
/// [`ParallelTcuMachine::with_executor`] clones one template executor
/// per unit, which would give every unit the same id — call
/// [`assign_unit_ids`] (or [`FaultyExecutor::set_unit`] per unit) after
/// construction so each clone injects its own unit's faults.
#[derive(Clone, Debug)]
pub struct FaultyExecutor<E> {
    inner: E,
    plan: Arc<FaultPlan>,
    unit: usize,
    executed: u64,
    dead: bool,
}

impl<E> FaultyExecutor<E> {
    /// Wrap `inner`, injecting from `plan` (as unit 0 until
    /// [`Self::set_unit`]).
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan: Arc::new(plan),
            unit: 0,
            executed: 0,
            dead: false,
        }
    }

    /// Set which unit's planned faults this instance injects.
    pub fn set_unit(&mut self, unit: usize) {
        self.unit = unit;
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Mutable access to the wrapped executor (e.g. to enable the host
    /// pack cache through the wrapper).
    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }

    /// Executions attempted so far (including ones that faulted).
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Check the plan for this execution index; panic with an
    /// [`InjectedFault`] payload if a fault is due. Fires *before* any
    /// numeric work, so the output is untouched on a fault.
    fn trip(&mut self) {
        let k = self.executed;
        self.executed += 1;
        if self.dead {
            std::panic::panic_any(InjectedFault {
                unit: self.unit,
                k,
                kind: FaultKind::Permanent,
            });
        }
        match self.plan.fault_at(self.unit, k) {
            Some(FaultKind::Permanent) => {
                self.dead = true;
                std::panic::panic_any(InjectedFault {
                    unit: self.unit,
                    k,
                    kind: FaultKind::Permanent,
                });
            }
            Some(FaultKind::Transient) => std::panic::panic_any(InjectedFault {
                unit: self.unit,
                k,
                kind: FaultKind::Transient,
            }),
            None => {}
        }
    }
}

impl<E: Executor> Executor for FaultyExecutor<E> {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn execute<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        self.trip();
        self.inner.execute(op, a, b, out)
    }

    fn execute_tagged<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        a_id: Option<OperandId>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        self.trip();
        self.inner.execute_tagged(op, a, a_id, b, out)
    }

    /// A chain no planned fault falls in goes to the wrapped executor
    /// whole (the host executor fuses it), its links counted as
    /// executions; any other chain runs one [`Self::execute_tagged`]
    /// per link, so a fault fires at its own link, before that link
    /// writes, with the links before it counted in `done`.
    fn execute_chain<T: Scalar>(
        &mut self,
        links: &[ChainOp<'_, T>],
        out: &mut MatrixViewMut<'_, T>,
        done: &mut usize,
    ) -> u64 {
        let ks = self.executed..self.executed + links.len() as u64;
        if self.dead || self.plan.any_in(self.unit, ks.clone()) {
            let mut cost = 0;
            for link in links {
                cost += self.execute_tagged(&link.op, link.a, link.a_id, link.b, out);
                *done += 1;
            }
            return cost;
        }
        self.executed = ks.end;
        self.inner.execute_chain(links, out, done)
    }

    fn cache_stats(&self) -> Option<PackCacheStats> {
        self.inner.cache_stats()
    }

    fn attach_recorder(&mut self, recorder: std::sync::Arc<dyn tcu_obs::Recorder>, unit: u32) {
        // Injection wraps, never replaces, the backend: telemetry flows
        // to the real executor so cache events keep their unit lane.
        self.inner.attach_recorder(recorder, unit);
    }
}

/// Give every unit's cloned [`FaultyExecutor`] its own unit id, so each
/// injects the faults its unit's plan entries name.
pub fn assign_unit_ids<U: TensorUnit, E: Executor>(
    mach: &mut ParallelTcuMachine<U, FaultyExecutor<E>>,
) {
    for u in 0..mach.units() {
        mach.unit_executor_mut(u).set_unit(u);
    }
}

/// Recovery counters of one [`ParallelTcuMachine`]: everything the
/// fault-tolerant parallel driver did that a fault-free run would not.
/// Deliberately *not* part of [`crate::Stats`] — the recovery contract
/// is that a recoverable faulty run's `Stats` are byte-identical to the
/// fault-free run's, so recovery accounting lives on its own surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient faults contained.
    pub transient_faults: u64,
    /// Permanent faults contained (including real worker panics).
    pub permanent_faults: u64,
    /// Retry attempts issued after transient faults.
    pub retries: u64,
    /// Simulated time charged for retry backoff (in the unit's cost
    /// model: the op's invocation cost again, doubling per attempt).
    pub backoff_time: u64,
    /// Units quarantined.
    pub quarantined_units: u64,
    /// Ops re-run on surviving units in recovery passes: each dead
    /// unit's unexecuted ops plus everything hazard-downstream of them.
    pub requeued_ops: u64,
    /// Extra simulated makespan of re-run work (the LPT makespan of
    /// each recovery pass over the survivors).
    pub recovery_makespan: u64,
}

impl FaultStats {
    /// Whether any recovery happened (all counters zero otherwise).
    #[must_use]
    pub fn any(&self) -> bool {
        *self != Self::default()
    }
}

impl std::fmt::Display for FaultStats {
    /// One diagnostic line mirroring [`crate::StatsSummary`]'s shape,
    /// so `--stats` output prints recovery uniformly for every case.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "faults {} transient, {} permanent; retries {} (backoff {}); \
             quarantined {} units, requeued {} ops (recovery makespan {})",
            self.transient_faults,
            self.permanent_faults,
            self.retries,
            self.backoff_time,
            self.quarantined_units,
            self.requeued_ops,
            self.recovery_makespan,
        )
    }
}

/// Suppress the default panic-hook output for [`InjectedFault`] panics
/// (they are expected and caught by the parallel driver; letting each one
/// print a backtrace banner buries real output). Any other panic still
/// reaches the previously-installed hook. Installs once per process;
/// chaos tests, the chaos example, and the fault benchmarks call this
/// first thing.
pub fn silence_injected_fault_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::HostExecutor;
    use tcu_linalg::Matrix;

    fn run_once(exec: &mut FaultyExecutor<HostExecutor>) -> Result<Matrix<i64>, InjectedFault> {
        let op = TensorOp::mul(4, 4);
        let a = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as i64);
        let b = Matrix::from_fn(4, 4, |i, j| (2 * i + j) as i64);
        let mut out = Matrix::<i64>::zeros(4, 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.execute(&op, a.view(), b.view(), &mut out.view_mut())
        }));
        match r {
            Ok(_) => Ok(out),
            Err(payload) => match payload.downcast::<InjectedFault>() {
                Ok(f) => Err(*f),
                Err(other) => std::panic::resume_unwind(other),
            },
        }
    }

    #[test]
    fn transient_fault_fires_once_then_clears() {
        silence_injected_fault_panics();
        let plan = FaultPlan::none().fail(0, 1, FaultKind::Transient);
        let mut exec = FaultyExecutor::new(HostExecutor::new(), plan);
        let ok = run_once(&mut exec).unwrap();
        let fault = run_once(&mut exec).unwrap_err();
        assert_eq!((fault.unit, fault.k), (0, 1));
        assert_eq!(fault.kind, FaultKind::Transient);
        // The retry (execution 2) succeeds and computes the same bytes.
        assert_eq!(run_once(&mut exec).unwrap(), ok);
        assert_eq!(exec.executed(), 3);
    }

    #[test]
    fn permanent_fault_latches() {
        silence_injected_fault_panics();
        let plan = FaultPlan::none().fail(0, 1, FaultKind::Permanent);
        let mut exec = FaultyExecutor::new(HostExecutor::new(), plan);
        assert!(run_once(&mut exec).is_ok());
        for _ in 0..3 {
            let fault = run_once(&mut exec).unwrap_err();
            assert_eq!(fault.kind, FaultKind::Permanent);
        }
    }

    #[test]
    fn faults_key_on_the_unit_id() {
        silence_injected_fault_panics();
        let plan = FaultPlan::none().fail(1, 0, FaultKind::Transient);
        let mut unit0 = FaultyExecutor::new(HostExecutor::new(), plan.clone());
        assert!(run_once(&mut unit0).is_ok(), "unit 0 has no faults");
        let mut unit1 = FaultyExecutor::new(HostExecutor::new(), plan);
        unit1.set_unit(1);
        assert!(run_once(&mut unit1).is_err(), "unit 1 faults at k = 0");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_spaced() {
        let a = FaultPlan::seeded(42, 4, 64, 120, 2);
        let b = FaultPlan::seeded(42, 4, 64, 120, 2);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(
            a,
            FaultPlan::seeded(43, 4, 64, 120, 2),
            "different seeds must (here) differ"
        );
        assert!(!a.is_empty());
        // No two consecutive transient faults on one unit, and at least
        // one unit entirely free of permanent faults.
        let mut perm_units = std::collections::BTreeSet::new();
        for u in 0..4usize {
            for k in 1..64u64 {
                if matches!(a.fault_at(u, k), Some(FaultKind::Transient)) {
                    assert_ne!(
                        a.fault_at(u, k - 1),
                        Some(FaultKind::Transient),
                        "consecutive transients at unit {u}, k {k}"
                    );
                }
            }
            if (0..64).any(|k| a.fault_at(u, k) == Some(FaultKind::Permanent)) {
                perm_units.insert(u);
            }
        }
        assert!(perm_units.len() <= 2, "at most permanent_units victims");
        assert!(perm_units.len() < 4, "at least one unit must survive");
    }

    #[test]
    fn empty_plan_is_a_counted_passthrough() {
        let mut exec = FaultyExecutor::new(HostExecutor::new(), FaultPlan::none());
        let out = run_once(&mut exec).unwrap();
        let mut plain = HostExecutor::new();
        let op = TensorOp::mul(4, 4);
        let a = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as i64);
        let b = Matrix::from_fn(4, 4, |i, j| (2 * i + j) as i64);
        let mut want = Matrix::<i64>::zeros(4, 4);
        let _ = plain.execute(&op, a.view(), b.view(), &mut want.view_mut());
        assert_eq!(out, want);
        assert_eq!(exec.executed(), 1);
    }

    /// Counts the chain and per-op calls that reach it.
    #[derive(Default)]
    struct Calls {
        chains: usize,
        ops: usize,
    }

    impl Executor for Calls {
        fn name(&self) -> &'static str {
            "calls"
        }

        fn execute<T: Scalar>(
            &mut self,
            op: &TensorOp,
            a: MatrixView<'_, T>,
            b: MatrixView<'_, T>,
            out: &mut MatrixViewMut<'_, T>,
        ) -> u64 {
            self.ops += 1;
            HostExecutor::new().execute(op, a, b, out)
        }

        fn execute_chain<T: Scalar>(
            &mut self,
            links: &[ChainOp<'_, T>],
            out: &mut MatrixViewMut<'_, T>,
            done: &mut usize,
        ) -> u64 {
            self.chains += 1;
            HostExecutor::new().execute_chain(links, out, done)
        }
    }

    #[test]
    fn chains_no_fault_falls_in_reach_the_inner_executor_whole() {
        silence_injected_fault_panics();
        let a = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as i64);
        let b = Matrix::from_fn(4, 4, |i, j| (2 * i + j) as i64);
        let links: Vec<_> = (0..4)
            .map(|_| ChainOp {
                op: TensorOp::mul_acc(4, 4),
                a: a.view(),
                a_id: None,
                a_narrow: None,
                b: b.view(),
            })
            .collect();
        let mut want = Matrix::<i64>::zeros(4, 4);
        let mut host = HostExecutor::new();
        for l in &links {
            let _ = host.execute(&l.op, l.a, l.b, &mut want.view_mut());
        }
        let plan = FaultPlan::none().fail(0, 5, FaultKind::Transient);
        let mut exec = FaultyExecutor::new(Calls::default(), plan);
        let mut out = Matrix::<i64>::zeros(4, 4);
        // Executions 0..4: no fault, one chain call.
        let mut done = 0;
        let _ = exec.execute_chain(&links, &mut out.view_mut(), &mut done);
        assert_eq!((done, exec.executed()), (4, 4));
        assert_eq!((exec.inner().chains, exec.inner().ops), (1, 0));
        assert_eq!(out, want);
        // Executions 4..8 hold the fault at 5: link by link, and the
        // fault fires at the chain's second link with one link done.
        let mut out = Matrix::<i64>::zeros(4, 4);
        let mut done = 0;
        let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.execute_chain(&links, &mut out.view_mut(), &mut done)
        }))
        .unwrap_err()
        .downcast::<InjectedFault>()
        .unwrap();
        assert_eq!((fault.k, done, exec.executed()), (5, 1, 6));
        assert_eq!((exec.inner().chains, exec.inner().ops), (1, 1));
        // The retry from the failed link (executions 6..9) runs whole.
        let _ = exec.execute_chain(&links[done..], &mut out.view_mut(), &mut done);
        assert_eq!((done, exec.executed()), (4, 9));
        assert_eq!((exec.inner().chains, exec.inner().ops), (2, 1));
        assert_eq!(out, want);
    }
}
