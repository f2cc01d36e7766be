//! Schedule execution: bind data to the graph's logical buffers and
//! drive the planned op stream through a [`TcuMachine`] — or across the
//! units of a [`ParallelTcuMachine`].
//!
//! [`ExecEnv`] maps every [`BufferId`] to real storage — immutable
//! [`MatrixView`]s for buffers the graph only reads, mutable views for
//! buffers it writes. Execution itself runs off the schedule's compiled
//! form (see [`crate::compile`]): the first run lowers the schedule
//! into an [`crate::ExecutablePlan`] whose ops carry concrete buffer
//! offsets, snapshot slots, and the hazard structure, so the per-op hot
//! loop does no hash lookups and no environment scans — it indexes
//! dense arrays. Each left
//! operand is tagged with an [`OperandId`] whose generation combines a
//! process-unique stamp (the environment's *epoch* for frozen
//! input-bound reads, a fresh per-run stamp for reads of written
//! buffers — see `tag_stamps`) with the operand's emission-order
//! content version from the schedule — so a pack-caching executor
//! reuses packed strips across every invocation that streams the same
//! region *at the same version*, a write in a pipeline retires the
//! stale strip (its readers carry the bumped generation), and
//! re-running a schedule against mutated outputs can never be served
//! last run's bytes.
//!
//! # Reading written buffers (pipelines)
//!
//! A versioned graph may read regions of buffers it also writes — the
//! Schur-complement update streaming the pivot panel of the matrix it
//! updates, or a second pipeline stage consuming the first stage's
//! product. The hazard order guarantees that when a reader of content
//! version `gen` executes, the region holds exactly the bytes that
//! version names — so *direct* reads of written buffers are always
//! correct, and snapshots exist only where safe-Rust borrows force
//! them. The two execution loops need different ones:
//!
//! * the **serial run** holds an op's destination binding mutably while
//!   the op runs, so it snapshots a read key on first use, and only when
//!   an op reads it from the buffer that op writes: one gather per
//!   `(region, generation)`, the same marshalling the eager blocked
//!   algorithms perform. Every other read — of inputs and of other
//!   written buffers alike — is zero-copy;
//! * the **threaded executor**'s workers cannot borrow the outputs the
//!   main thread retains mutable access to, so it snapshots every read
//!   key no input binding serves (every written-buffer read, and reads
//!   of a never-written buffer bound as an output) once, right before
//!   its first reader's dispatch.
//!
//! (Simulated cost is untouched either way: in the model, operand
//! marshalling is covered by the invocation charge.)
//!
//! Accounting is eager execution's: every driver first runs one shared
//! prologue — plan and machine checks, every binding the stream
//! touches, then the whole stream charged in emission order through
//! the machine's [`WaveAccountant`], the path eager issue charges
//! through. What changes with scheduling is *which* (coalesced) ops are
//! issued and in what (canonical) order — never how an issued op is
//! charged — and a run the prologue rejects has charged and written
//! nothing.
//!
//! # One serial loop, one parallel executor
//!
//! The paper's machine is a RAM with one tensor unit, and its parallel
//! machine has `p`, so a compiled plan has two executors.
//! [`Schedule::try_run`] is the serial loop: one pass over the stream
//! in emission order on the machine's own executor, each op writing its
//! bound destination in place, with one attempt per op and no
//! quarantine (one unit has no survivor to hand work to). It computes
//! no placement and keeps no recovery state; an executor panic comes
//! back as a typed error. Every parallel run, at every core count, goes
//! to the threaded executor below.
//!
//! # Multi-unit execution
//!
//! [`Schedule::try_run_parallel`] is a barrier-free dataflow driver: ops
//! dispatch as soon as their hazard predecessors' results have been
//! committed. Every scheduling decision is resolved *at plan time* by
//! [`crate::dataflow`]'s deterministic placement simulation (which unit
//! runs each op, in what per-unit order, with which deterministic
//! steals), so the runtime executes fixed per-unit queues and its
//! results cannot depend on thread timing:
//!
//! * **accounting** — every op is charged on the main thread, up
//!   front, in emission order (after validating all bindings), so
//!   `Stats` and the trace digest are byte-identical to the serial
//!   run's; wall-clock advances once, by the placement's simulated
//!   makespan, so `time()` lands on [`Schedule::dataflow_makespan`]
//!   (never above [`Schedule::makespan`]);
//! * **numerics** — workers execute into private accumulators, one per
//!   *chain*: a run of consecutive writers of one output rectangle in
//!   one unit's queue, derived from each pass's queues (see `Chains`).
//!   The chain's head seeds the accumulator once from the destination
//!   (zeros for an overwrite), its ops run into it in queue order on
//!   the worker, and the worker hands it back after the chain's last
//!   op. The main thread copies it into the rectangle once and only
//!   then releases the hazard successors of every op in the chain, so
//!   overlapping writes retire in hazard (emission) order and elements
//!   are bit-identical to [`Schedule::try_run`] for every unit count and
//!   interleaving. An op no other op continues is a one-op chain: a
//!   per-op scratch;
//! * **dispatch** — an op is ready once every hazard predecessor outside
//!   its own chain has committed (the chain's earlier ops run first, on
//!   the same unit); each idle unit receives its entire ready prefix as
//!   *one* channel message, and reads are snapshotted right before
//!   their first reader's dispatch;
//! * **buffers** — a run's placement is computed once per schedule and
//!   kept next to the compiled plan. Its chain accumulators and
//!   snapshots come from a pool the calling thread keeps per scalar
//!   type, and every merged accumulator and every snapshot returns to
//!   it when the run ends, so a warm run on the same thread allocates
//!   no data-sized buffer. The pool lives as long as the thread and
//!   holds only the buffers the thread's last threaded run held, so it
//!   never keeps more than one run's working set. Every pooled buffer
//!   is fully overwritten before it is read: a seed copy, a zero fill
//!   for an overwrite, or a snapshot copy.
//!
//! # Fault tolerance
//!
//! Every entry point returns [`TcuError`] — binding mistakes,
//! plan/machine mismatches, and op contract violations come back as
//! values. On top of that, [`Schedule::try_run_parallel`] *recovers*
//! from unit faults.
//! Every execution, serial ones included, is wrapped in
//! `catch_unwind`:
//!
//! * a transient [`InjectedFault`] (as injected by
//!   [`tcu_core::FaultyExecutor`]) is retried in place, up to 3 attempts
//!   per op, each retry charging simulated backoff into wall-clock;
//! * a permanent fault — or any other panic payload, i.e. a real
//!   executor bug — quarantines the unit for the rest of the run.
//!
//! A serial run makes one attempt per op and quarantines nothing, so it
//! turns both into typed failures: [`TcuError::RetriesExhausted`] and
//! [`TcuError::UnitFault`].
//!
//! Recovery is **pass-based**. When a unit dies, its unexecuted queue
//! suffix and everything hazard-downstream of that suffix leave the
//! current pass; the survivors finish the rest of their fixed queues;
//! then the removed set is LPT-placed ([`partition_lpt`]) onto the
//! survivors, each queue kept in `(start, index)` order, and runs as
//! the next pass, whose makespan is charged as recovery time. Fault,
//! retry, and quarantine annotations are buffered per unit and flushed
//! in unit order at each pass boundary.
//!
//! Chains change none of this. Injected faults fire
//! before the executor writes, so a stopping worker hands back every
//! open accumulator that holds a completed op and the main thread
//! merges it: the committed set is exactly the unit's executed prefix.
//! A foreign panic tears only the
//! accumulator it was writing; that chain's completed ops rejoin the
//! pass's removed set (they re-run against a destination the chain
//! never merged into), and so do all open chains of a worker lost
//! outside containment. A removal can also *cut* a chain whose unit
//! lives on, leaving its accumulator open with nothing left to
//! dispatch: when no unit can dispatch, the driver flushes every open
//! chain, merging its completed prefix (by then each open chain's next
//! op has provably been removed).
//!
//! That makes recovery a function of the schedule and the fault plan
//! alone. No removed op can have been dispatched — each one waits on
//! an uncommitted op outside its chain, or on a chain op
//! queued ahead of it on its own unit — except a torn chain's completed
//! ops, which the plan determines. So every unit's execution sequence
//! in a pass is its queue minus the removed set, and so is every
//! executor's fault-plan index. `time()`, [`tcu_core::FaultStats`], and
//! the *ordered* fault trace therefore replay exactly under any thread
//! interleaving (the chaos and dataflow suites check this by replaying
//! each plan under jittered executors). Recovery stays
//! unobservable in results: charges precede numerics, faulted ops
//! re-execute against an untouched destination, and the annotations
//! are excluded from the digest — so a recoverable faulty run's
//! elements, `Stats`, and digest are byte-identical to the fault-free
//! run's. Unrecoverable runs fail typed ([`TcuError::RetriesExhausted`],
//! [`TcuError::UnitFault`], [`TcuError::AllUnitsQuarantined`]); a pass
//! with several fatal stops drains and reports the one on the op with
//! the smallest `(start, index)` key, so errors are deterministic too.
//!
//! # Known deviations
//!
//! The one left is deterministic and pinned by tests:
//!
//! 1. **A failed run's `Stats` carry the full charge.** Both executors
//!    charge the whole stream once the prologue has passed, so a run
//!    that then fails in execution still holds the whole schedule's
//!    `Stats` (a parallel run's simulated makespan is not charged).
//!    Pinned by `chaos.rs`'s
//!    `all_units_quarantined_fails_typed_not_hanging` and
//!    `dataflow_exec.rs`'s `serial_executor_panic_fails_typed`.

use crate::compile::{CompiledRead, ExecutablePlan};
use crate::dataflow::DataflowPlacement;
use crate::graph::BufferId;
use crate::scheduler::Schedule;
use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tcu_core::{
    partition_lpt, BindRole, Executor, FaultKind, InjectedFault, OperandId, ParallelTcuMachine,
    TcuError, TcuMachine, TensorOp, TensorUnit, WaveAccountant,
};
use tcu_linalg::{Matrix, MatrixView, MatrixViewMut, Scalar};

/// Process-wide epoch allocator: every environment gets a distinct
/// stamp, so operand tags from different environments (different data)
/// can never collide in an executor cache.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Data bindings for one run of a schedule: per-buffer views, split
/// into read-only inputs and mutable (written, possibly also read)
/// outputs.
#[derive(Debug)]
pub struct ExecEnv<'a, T: Scalar> {
    epoch: u64,
    shapes: Vec<(usize, usize)>,
    written: Vec<bool>,
    inputs: Vec<Option<MatrixView<'a, T>>>,
    outputs: Vec<Option<MatrixViewMut<'a, T>>>,
}

impl<'a, T: Scalar> ExecEnv<'a, T> {
    /// Fresh bindings for `graph`'s buffers (all unbound, new epoch).
    #[must_use]
    pub fn new(graph: &crate::OpGraph) -> Self {
        let shapes = (0..graph.buffer_count())
            .map(|i| graph.buffer_shape(BufferId(i)))
            .collect::<Vec<_>>();
        let written = (0..graph.buffer_count())
            .map(|i| graph.buffer_written(BufferId(i)))
            .collect::<Vec<_>>();
        Self {
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            inputs: vec![None; shapes.len()],
            outputs: shapes.iter().map(|_| None).collect(),
            written,
            shapes,
        }
    }

    /// The environment's cache-key epoch (diagnostic).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registered buffer shapes, in buffer-id order (the witness
    /// [`Schedule::compile`] checks an environment against).
    pub(crate) fn shapes(&self) -> &[(usize, usize)] {
        &self.shapes
    }

    /// Bind a read-only buffer to a view of its exact registered shape.
    /// Fails on a shape mismatch, an id from another graph, or a buffer
    /// the graph writes (written buffers need [`Self::try_bind_output`],
    /// and reads of them resolve against per-op generations).
    pub fn try_bind_input(
        &mut self,
        id: BufferId,
        view: MatrixView<'a, T>,
    ) -> Result<(), TcuError> {
        let expected = *self.shapes.get(id.0).ok_or(TcuError::PlanMismatch {
            what: "binding names a buffer from another graph",
        })?;
        if (view.rows(), view.cols()) != expected {
            return Err(TcuError::BindShape {
                buffer: id.0,
                role: BindRole::Input,
                expected,
                got: (view.rows(), view.cols()),
            });
        }
        if self.written[id.0] {
            return Err(TcuError::BindWrittenAsInput { buffer: id.0 });
        }
        self.inputs[id.0] = Some(view);
        Ok(())
    }

    /// Bind a written buffer to a mutable view of its registered shape.
    /// Fails on a shape mismatch or an id from another graph. Reads the
    /// graph performs on the same buffer (pipelines) are served from
    /// generation-keyed snapshots of this binding.
    pub fn try_bind_output(
        &mut self,
        id: BufferId,
        view: MatrixViewMut<'a, T>,
    ) -> Result<(), TcuError> {
        let expected = *self.shapes.get(id.0).ok_or(TcuError::PlanMismatch {
            what: "binding names a buffer from another graph",
        })?;
        if (view.rows(), view.cols()) != expected {
            return Err(TcuError::BindShape {
                buffer: id.0,
                role: BindRole::Output,
                expected,
                got: (view.rows(), view.cols()),
            });
        }
        self.outputs[id.0] = Some(view);
        Ok(())
    }
}

/// Per-buffer cache-tag stamps for one execution of a schedule.
///
/// A tag is sound only while equal tags guarantee equal bytes, so two
/// stamps with different lifetimes back the two read sources:
///
/// * **input-bound** buffers are borrowed, hence frozen, for the
///   environment's whole lifetime — their reads carry the environment
///   *epoch*, so packed strips survive across repeated runs of one
///   environment (the plan-once / run-many contract);
/// * **output-bound** buffers mutate as the schedule executes, and a
///   *second* run of the same environment starts from different bytes
///   (e.g. accumulates applied twice) at the same emission generations —
///   so their reads carry a fresh per-run stamp, retiring every strip
///   packed from written data when the run ends.
///
/// Input bindings cannot change mid-run (the run borrows the
/// environment mutably), so the per-buffer choice is resolved once here
/// instead of per op. Both stamps are drawn from one process-wide
/// counter, so they can never collide with each other. The stamp
/// occupies the upper 32 bits of `OperandId::generation` (emission
/// generation below): aliasing would need 2³² environments+runs while
/// a strip from the first still sits in a bounded FIFO cache — noted
/// here rather than guarded, since the guard would be a panic after
/// four billion runs.
fn tag_stamps<T: Scalar>(env: &ExecEnv<'_, T>) -> Vec<u64> {
    let run = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
    env.inputs
        .iter()
        .map(|i| if i.is_some() { env.epoch } else { run })
        .collect()
}

/// The cache tag of one compiled read under its buffer's run stamp.
fn read_tag(r: &CompiledRead, stamp: u64) -> OperandId {
    OperandId {
        buffer: r.buf as u64,
        generation: stamp.wrapping_shl(32) | u64::from(r.gen),
        origin: (r.r0, r.c0),
        extent: (r.rows, r.cols),
    }
}

/// Resolve a compiled read on the serial run: its snapshot if
/// the slot holds one (a read of the op's own destination buffer always
/// does), otherwise zero-copy from the bound input or output view —
/// bindings are validated up front, and the destination's own binding
/// is taken out for the op's duration.
fn serial_read<'s, T: Scalar>(
    arena: &'s [Option<Matrix<T>>],
    inputs: &'s [Option<MatrixView<'_, T>>],
    outputs: &'s [Option<MatrixViewMut<'_, T>>],
    r: &CompiledRead,
) -> MatrixView<'s, T> {
    if let Some(snap) = &arena[r.slot as usize] {
        return snap.view();
    }
    match (&inputs[r.buf], &outputs[r.buf]) {
        (Some(v), _) => v.subview(r.r0, r.c0, r.rows, r.cols),
        (None, Some(v)) => v.as_view().subview(r.r0, r.c0, r.rows, r.cols),
        (None, None) => unreachable!("read bound (validated up front)"),
    }
}

/// Attempts per op on the serial run. It quarantines nothing either:
/// one unit has no survivor to hand work to, so a permanent fault fails
/// the run.
const SERIAL_ATTEMPTS: u32 = 1;

/// Attempts per op on a parallel run, the first try included. A
/// unit that fails permanently is quarantined and its work re-run on
/// the survivors.
const PARALLEL_ATTEMPTS: u32 = 3;

impl Schedule {
    /// Execute the planned stream on `mach` with `env`'s bindings: each
    /// emitted node issues one tagged tensor instruction, charged and
    /// traced exactly like an eager call; outputs land in the bound
    /// views. The serial order is the schedule's canonical order; on a
    /// pack-caching host executor, repeated left-operand regions are
    /// packed once per content version per environment. This is one
    /// pass over the stream in emission order on the machine's own
    /// executor (see the [module docs](self)).
    ///
    /// Everything that can be checked is checked up front, before
    /// anything is charged or written: the machine's `√m` and tall
    /// support against the planning unit's, the environment's buffer
    /// shapes, every op's contract, and every binding the stream
    /// touches. A failure there returns [`TcuError`] with outputs and
    /// `Stats` untouched. Then the whole stream is charged and executed
    /// with one attempt per op and no quarantine, so an executor panic
    /// comes back typed instead of unwinding:
    /// [`TcuError::RetriesExhausted`] for an injected transient fault,
    /// [`TcuError::UnitFault`] for anything else. Such a run keeps the
    /// full charge, and the outputs hold what the ops before the
    /// failing one wrote (named deviation 1).
    pub fn try_run<T: Scalar, U: TensorUnit, E: Executor>(
        &self,
        mach: &mut TcuMachine<U, E>,
        env: &mut ExecEnv<'_, T>,
    ) -> Result<(), TcuError> {
        let recorder = mach.recorder_handle();
        let (mut acct, execs) = mach.wave_parts();
        let plan = self.prologue(&mut acct, env)?;
        run_serial(
            self,
            plan,
            &mut acct,
            &mut execs[0],
            env,
            recorder.as_deref(),
        )
    }

    /// Execute the planned stream *across the units* of a parallel
    /// machine on the barrier-free dataflow driver, with fault recovery
    /// (see the [module docs](self)): elements, `Stats`, and trace
    /// digests are byte-identical to the serial [`Schedule::try_run`]
    /// for every unit count. Runs the prologue both executors share
    /// (plan, machine and binding checks, then the whole stream charged
    /// in emission order, so `Stats` and the digest equal the serial
    /// run's even under recovery), takes the schedule's deterministic
    /// placement, then executes it on the threaded executor, one worker
    /// per unit. Thread interleaving is not observable in elements,
    /// `Stats`, digest, `time()`, or [`tcu_core::FaultStats`].
    /// Wall-clock advances by [`Schedule::dataflow_makespan`] plus the
    /// charged backoff and recovery passes.
    ///
    /// The machine's `√m`, unit count and tall support must match what
    /// the schedule was planned for, the environment's buffer shapes
    /// the planned graph's, and every referenced buffer must be bound;
    /// otherwise the run returns [`TcuError`] before anything is
    /// charged or written.
    ///
    /// Transient faults retry in place, at most 3 attempts per op, or
    /// the run fails with [`TcuError::RetriesExhausted`]. A unit that
    /// fails permanently is quarantined and its work re-run in a
    /// recovery pass (see the [module docs](self)); losing every unit
    /// with work still pending fails with
    /// [`TcuError::AllUnitsQuarantined`]. On `Err` the makespan is not
    /// charged and outputs hold only the committed ops' results.
    pub fn try_run_parallel<T: Scalar, U: TensorUnit, E: Executor>(
        &self,
        mach: &mut ParallelTcuMachine<U, E>,
        env: &mut ExecEnv<'_, T>,
    ) -> Result<(), TcuError> {
        if mach.units() != self.units() {
            return Err(TcuError::PlanMismatch {
                what: "schedule was planned for a different unit count",
            });
        }
        let recorder = mach.recorder_handle();
        let (mut acct, execs) = mach.wave_parts();
        let plan = self.prologue(&mut acct, env)?;
        let placement = self.placement(plan);
        run_threaded(self, plan, placement, &mut acct, execs, env, &recorder)?;
        acct.complete_wave(placement.makespan);
        Ok(())
    }

    /// The prologue both executors run before they charge or write
    /// anything: the machine's `√m`, the environment's buffer shapes,
    /// compilation (every op's contract), every op's output and read
    /// bindings, and the machine splitting every op exactly as the
    /// planning unit did. Then the whole stream is charged in emission
    /// order on the calling thread, so `Stats` and the trace come out
    /// byte-identical to eager issue however execution interleaves.
    fn prologue<T: Scalar, U: TensorUnit>(
        &self,
        acct: &mut WaveAccountant<'_, U>,
        env: &ExecEnv<'_, T>,
    ) -> Result<&ExecutablePlan, TcuError> {
        if acct.sqrt_m() != self.sqrt_m {
            return Err(TcuError::PlanMismatch {
                what: "schedule was planned for a different tensor-unit size",
            });
        }
        if env.shapes != self.buffer_shapes {
            return Err(TcuError::PlanMismatch {
                what: "environment built for a different graph (buffer shapes disagree)",
            });
        }
        let plan = self.compiled()?;
        for (i, cop) in plan.ops.iter().enumerate() {
            if env.outputs[cop.out_buf].is_none() {
                return Err(TcuError::Unbound {
                    buffer: cop.out_buf,
                    written: true,
                });
            }
            for r in [&cop.a, &cop.b] {
                if env.inputs[r.buf].is_none() && env.outputs[r.buf].is_none() {
                    return Err(TcuError::Unbound {
                        buffer: r.buf,
                        written: false,
                    });
                }
            }
            if cop.op.invocations(acct.unit()).0 as u32 != self.node_invocations[i] {
                return Err(TcuError::PlanMismatch {
                    what: "machine splits ops differently than the schedule planned \
                           (tall-operand support must match the planning unit)",
                });
            }
        }
        for cop in &plan.ops {
            acct.charge_wave_op(&cop.op);
        }
        Ok(plan)
    }
}

/// Record one closed telemetry span: `t0` is the recorder clock at the
/// phase's start (captured only when recording), the duration is
/// measured here. No-op when recording is off — both arguments are
/// `None` together, so the disabled path is two `Option` checks.
fn emit_span(
    rec: Option<&dyn tcu_obs::Recorder>,
    lane: tcu_obs::Lane,
    t0: Option<u64>,
    kind: tcu_obs::EventKind,
) {
    if let (Some(r), Some(t0)) = (rec, t0) {
        r.record(
            lane,
            tcu_obs::SpanEvent {
                kind,
                t_ns: t0,
                dur_ns: r.now_ns().saturating_sub(t0),
            },
        );
    }
}

/// "No op" in [`Chains::next`].
const NO_OP: u32 = u32::MAX;

/// The accumulation chains of one pass: op `j` continues op `i` when
///
/// 1. `j` is `i`'s first hazard successor,
/// 2. `j` writes exactly `i`'s output rectangle and reads nothing that
///    overlaps it,
/// 3. both sit in the same unit's queue of this pass, and
/// 4. every hazard successor of `i` writes or reads that rectangle.
///
/// Successor lists are sorted and list every conflicting pair, so rules
/// 1 and 4 mean no other op reads or overwrites a version between `i`
/// and `j`, and every op but `j` that waits on `i` also waits on `j` —
/// by induction, on the chain's last op. Holding a chain's commits back
/// until one merge after that op therefore delays no op that does not
/// already wait for it. A pure function of the pass's queues: placement
/// and recovery passes fix those at plan time, so chains never depend
/// on thread timing.
struct Chains {
    /// The op continuing each op's chain, or [`NO_OP`] at its tail.
    next: Vec<u32>,
    /// Each op's chain head.
    head: Vec<u32>,
    /// Chain ops ahead of each op — all of them hazard predecessors it
    /// does not wait on to dispatch, since they run first on its unit.
    before: Vec<u32>,
}

impl Chains {
    fn of_pass(sched: &Schedule, plan: &ExecutablePlan, queues: &[Vec<u32>]) -> Self {
        let nodes = sched.nodes();
        let n = plan.ops();
        let mut unit = vec![NO_OP; n];
        for (u, q) in queues.iter().enumerate() {
            for &i in q {
                unit[i as usize] = u as u32;
            }
        }
        let mut chains = Chains {
            next: vec![NO_OP; n],
            head: (0..n as u32).collect(),
            before: vec![0; n],
        };
        // Links point forward in emission order, so an op's own head and
        // count are final by the time it is linked onward.
        for i in 0..n {
            let succs = plan.successors_of(i);
            let Some(&j) = succs.first() else {
                continue;
            };
            let rect = nodes[i].node.out;
            let next = &nodes[j as usize].node;
            let touches = |&x: &u32| {
                let op = &nodes[x as usize].node;
                op.out.overlaps(&rect) || op.a.overlaps(&rect) || op.b.overlaps(&rect)
            };
            if unit[i] == NO_OP
                || unit[j as usize] != unit[i]
                || next.out != rect
                || next.a.overlaps(&rect)
                || next.b.overlaps(&rect)
                || !succs.iter().all(touches)
            {
                continue;
            }
            chains.next[i] = j;
            chains.head[j as usize] = chains.head[i];
            chains.before[j as usize] = chains.before[i] + 1;
        }
        chains
    }
}

/// One op bound for a specific unit's worker.
struct WaveItem<'v, T: Scalar> {
    /// Compiled-op index (emission order), for the commit.
    idx: usize,
    /// The op's chain head: the key of the worker's accumulator.
    head: u32,
    /// Whether the op ends its chain (the worker then hands the
    /// accumulator back).
    tail: bool,
    op: TensorOp,
    a: MatrixView<'v, T>,
    tag: OperandId,
    b: MatrixView<'v, T>,
    /// The chain's seeded accumulator, carried by its head alone.
    scratch: Option<Matrix<T>>,
    /// Rows the op charges (telemetry annotation for its execute span).
    rows: u64,
    /// Simulated cost charged for the op (telemetry annotation).
    sim_cost: u64,
}

/// Resolve a compiled read on the parallel path: the staged snapshot
/// if its slot is filled (every read no input binding serves),
/// otherwise zero-copy from the bound input.
fn wave_read<'v, T: Scalar>(
    arena: &'v [OnceLock<Matrix<T>>],
    inputs: &'v [Option<MatrixView<'_, T>>],
    r: &CompiledRead,
) -> Result<MatrixView<'v, T>, TcuError> {
    if let Some(m) = arena[r.slot as usize].get() {
        return Ok(m.view());
    }
    match inputs[r.buf].as_ref() {
        Some(v) => Ok(v.subview(r.r0, r.c0, r.rows, r.cols)),
        None => Err(TcuError::Unbound {
            buffer: r.buf,
            written: false,
        }),
    }
}

thread_local! {
    /// Per scalar type, the buffers the last threaded run on this thread
    /// held: each entry a `Vec<Matrix<T>>` (see [`Scratch`]).
    static POOLS: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// The data-sized buffers of one threaded run — chain accumulators and
/// staged snapshots — drawn from, and at the end returned to, the
/// calling thread's pool for `T`. That thread allocates and frees every
/// one of them, so a warm run on it reuses the last run's buffers
/// instead of page-faulting fresh ones; and since the run leaves behind
/// only the buffers it held, the pool never outgrows one run's working
/// set.
struct Scratch<T: Scalar> {
    /// The last run's buffers this run has not taken.
    spare: Vec<Matrix<T>>,
    /// Buffers this run took and has handed back.
    free: Vec<Matrix<T>>,
}

impl<T: Scalar> Scratch<T> {
    /// Take the calling thread's pool for `T` out of the thread.
    fn claim() -> Self {
        let spare = POOLS.with_borrow_mut(|pools| {
            let pos = pools.iter().position(|p| p.is::<Vec<Matrix<T>>>());
            pos.and_then(|i| pools.swap_remove(i).downcast().ok())
                .map_or_else(Vec::new, |pool| *pool)
        });
        Self {
            spare,
            free: Vec::new(),
        }
    }

    /// An exactly-shaped buffer for unit `unit`'s op — one this run
    /// handed back, else one the last run left, else fresh zeros — with
    /// the acquisition recorded when a recorder is attached. A pooled
    /// buffer is re-zeroed when the op needs zeros (`zero`): an executor
    /// is allowed to skip numerics entirely (replay), so it must present
    /// the bytes a fresh allocation would. Every other caller overwrites
    /// each element (a seed or a snapshot copy) instead.
    fn take(
        &mut self,
        rows: usize,
        cols: usize,
        zero: bool,
        rec: Option<&dyn tcu_obs::Recorder>,
        unit: u32,
    ) -> Matrix<T> {
        let pooled = [&mut self.free, &mut self.spare]
            .into_iter()
            .find_map(|pool| {
                let pos = pool
                    .iter()
                    .position(|m| m.rows() == rows && m.cols() == cols)?;
                Some(pool.swap_remove(pos))
            });
        let reused = pooled.is_some();
        let m = match pooled {
            Some(mut m) => {
                if zero {
                    m.as_mut_slice().fill(T::ZERO);
                }
                m
            }
            None => Matrix::zeros(rows, cols),
        };
        if let Some(r) = rec {
            emit_span(
                rec,
                tcu_obs::Lane::Scheduler,
                Some(r.now_ns()),
                tcu_obs::EventKind::ScratchAcquire {
                    unit,
                    reused,
                    bytes: (rows * cols * std::mem::size_of::<T>()) as u64,
                },
            );
        }
        m
    }

    /// End the run: the buffers it handed back plus `held` (its
    /// snapshots) become the thread's pool for `T`; the last run's
    /// buffers this run did not take are freed.
    fn release(mut self, held: impl IntoIterator<Item = Matrix<T>>) {
        self.free.extend(held);
        POOLS.with_borrow_mut(|pools| pools.push(Box::new(self.free)));
    }
}

/// Resolve one compiled op into its executable work item: operand
/// views (staged snapshots or bound inputs), left-operand cache tag,
/// and its place in its chain. A chain head also gets the chain's
/// accumulator from `pool`, acquired for `unit` — zeros for an
/// overwrite op (the kernel writes every element), the exact
/// destination bytes for an accumulating op (so the chain performs the
/// identical arithmetic in-place accumulates would); a continuation
/// carries none and runs into its head's. Also
/// the rebuild path for an op a recovery pass re-runs: an uncommitted
/// op's destination is untouched (every later writer of it waits on the
/// commit of its chain), so building the same item twice yields
/// byte-identical operands and seed.
#[allow(clippy::too_many_arguments)]
fn build_item<'v, T: Scalar>(
    arena: &'v [OnceLock<Matrix<T>>],
    inputs: &'v [Option<MatrixView<'_, T>>],
    outputs: &[Option<MatrixViewMut<'_, T>>],
    stamps: &[u64],
    pool: &mut Scratch<T>,
    plan: &ExecutablePlan,
    chains: &Chains,
    idx: usize,
    rec: Option<&dyn tcu_obs::Recorder>,
    unit: u32,
) -> Result<WaveItem<'v, T>, TcuError> {
    let cop = &plan.ops[idx];
    let a = wave_read(arena, inputs, &cop.a)?;
    let b = wave_read(arena, inputs, &cop.b)?;
    let tag = read_tag(&cop.a, stamps[cop.a.buf]);
    let mut scratch = None;
    if chains.before[idx] == 0 {
        let mut acc = pool.take(cop.op.rows, cop.op.width, !cop.op.accumulate, rec, unit);
        if cop.op.accumulate {
            let host = outputs[cop.out_buf].as_ref().ok_or(TcuError::Unbound {
                buffer: cop.out_buf,
                written: true,
            })?;
            acc.view_mut().copy_from(host.as_view().subview(
                cop.out_r0,
                cop.out_c0,
                cop.out_rows,
                cop.out_cols,
            ));
        }
        scratch = Some(acc);
    }
    Ok(WaveItem {
        idx,
        head: chains.head[idx],
        tail: chains.next[idx] == NO_OP,
        op: cop.op,
        a,
        tag,
        b,
        scratch,
        // Telemetry annotations the dispatcher stamps from the
        // accountant.
        rows: 0,
        sim_cost: 0,
    })
}

/// A recovery annotation produced during a pass, recorded into the
/// machine at the pass boundary (in unit order, so trace annotations
/// are deterministic for a given fault plan).
#[derive(Clone, Copy)]
enum WorkerNote {
    /// A contained fault (transient = retried, permanent = unit died).
    Fault { transient: bool },
    /// A retry attempt; the op identifies the backoff's cost basis.
    Retry { attempt: u32, op: TensorOp },
}

/// Why a unit stopped executing mid-pass.
#[derive(Clone, Copy)]
enum Terminal {
    /// One op stayed transiently faulting through `max_attempts`.
    Exhausted { attempts: u32 },
    /// The unit failed permanently. `foreign` means the panic was not
    /// an [`InjectedFault`] (which fires before any write), so the
    /// failed attempt may have half-written its destination.
    Dead { foreign: bool },
}

impl Terminal {
    /// The error this stop fails a run with when the unit cannot be
    /// quarantined.
    fn error(self, unit: usize, wave: usize) -> TcuError {
        match self {
            Terminal::Exhausted { attempts } => TcuError::RetriesExhausted {
                unit,
                wave,
                attempts,
            },
            Terminal::Dead { .. } => TcuError::UnitFault { unit, wave },
        }
    }
}

/// A chain's accumulator, held open by its unit's worker across
/// messages until the chain's last op completes.
struct OpenChain<T: Scalar> {
    head: u32,
    acc: Matrix<T>,
    /// Ops completed into `acc`, in chain order.
    done: Vec<usize>,
}

/// Everything one unit's worker produced for one message.
struct UnitOutcome<T: Scalar> {
    /// Accumulators to merge: chains whose last op completed — and, at a
    /// stop or a flush, every open chain with a completed op.
    closed: Vec<OpenChain<T>>,
    /// Head of the chain a foreign panic tore after some of its ops had
    /// completed: those ops rejoin the pass's removed set.
    torn: Option<u32>,
    /// Fault/retry annotations, in occurrence order.
    notes: Vec<WorkerNote>,
    /// Why the worker stopped early, if it did.
    terminal: Option<Terminal>,
    /// Items not executed (the failed item and everything after it).
    unexecuted: usize,
}

impl<T: Scalar> UnitOutcome<T> {
    fn new() -> Self {
        Self {
            closed: Vec::new(),
            torn: None,
            notes: Vec::new(),
            terminal: None,
            unexecuted: 0,
        }
    }
}

/// Record unit `u`'s buffered fault/retry annotations into the
/// accountant, in occurrence order.
fn record_notes<U: TensorUnit>(acct: &mut WaveAccountant<'_, U>, u: usize, notes: &[WorkerNote]) {
    let s = acct.sqrt_m();
    for note in notes {
        match *note {
            WorkerNote::Fault { transient } => acct.record_fault(u, transient),
            WorkerNote::Retry { attempt, op } => {
                let _ = acct.record_retry(u, attempt, op.charge_rows(s));
            }
        }
    }
}

/// Execute one op with per-attempt fault containment: every attempt is
/// wrapped in `catch_unwind`, a transient [`InjectedFault`] retries in
/// place (bounded by `max_attempts` — each retry consumes the
/// executor's next execution index, so a fault plan spacing its
/// transients out by one index always recovers), and a permanent fault
/// or a foreign panic stops the unit. Annotations go to `notes`.
#[allow(clippy::too_many_arguments)]
fn execute_with_retries<T: Scalar, E: Executor>(
    exec: &mut E,
    op: &TensorOp,
    a: MatrixView<'_, T>,
    tag: OperandId,
    b: MatrixView<'_, T>,
    out: &mut MatrixViewMut<'_, T>,
    max_attempts: u32,
    notes: &mut Vec<WorkerNote>,
) -> Result<(), Terminal> {
    let mut attempt = 1u32;
    loop {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = exec.execute_tagged(op, a, Some(tag), b, out);
        }));
        let Err(payload) = result else {
            return Ok(());
        };
        match payload.downcast::<InjectedFault>() {
            Ok(fault) if fault.kind == FaultKind::Transient => {
                notes.push(WorkerNote::Fault { transient: true });
                if attempt >= max_attempts {
                    return Err(Terminal::Exhausted { attempts: attempt });
                }
                attempt += 1;
                notes.push(WorkerNote::Retry { attempt, op: *op });
            }
            injected => {
                notes.push(WorkerNote::Fault { transient: false });
                return Err(Terminal::Dead {
                    foreign: injected.is_err(),
                });
            }
        }
    }
}

/// Run one unit's batch in queue order on its executor, each op under
/// [`execute_with_retries`] and into its chain's accumulator in `open`;
/// a chain's last op closes it. A continuation that overwrites zeroes
/// the accumulator first, so an executor that skips numerics sees what
/// a fresh scratch would hold. Injected faults fire before the executor
/// touches the accumulator, so a stop hands back every open chain with
/// a completed op for merging; a foreign panic's accumulator is torn
/// and discarded instead — a recovery pass rebuilds its chain from the
/// environment.
fn run_items_contained<T: Scalar, E: Executor>(
    exec: &mut E,
    open: &mut Vec<OpenChain<T>>,
    items: Vec<WaveItem<'_, T>>,
    rec: Option<&dyn tcu_obs::Recorder>,
    unit: u32,
) -> UnitOutcome<T> {
    let mut out = UnitOutcome::new();
    let mut iter = items.into_iter();
    while let Some(item) = iter.next() {
        let slot = match item.scratch {
            Some(acc) => {
                open.push(OpenChain {
                    head: item.head,
                    acc,
                    done: Vec::new(),
                });
                open.len() - 1
            }
            None => {
                let slot = open
                    .iter()
                    .position(|c| c.head == item.head)
                    .unwrap_or_else(|| unreachable!("a continuation's chain is open on its unit"));
                if !item.op.accumulate {
                    open[slot].acc.as_mut_slice().fill(T::ZERO);
                }
                slot
            }
        };
        let chain = &mut open[slot];
        let t0 = rec.map(tcu_obs::Recorder::now_ns);
        let result = execute_with_retries(
            exec,
            &item.op,
            item.a,
            item.tag,
            item.b,
            &mut chain.acc.view_mut(),
            PARALLEL_ATTEMPTS,
            &mut out.notes,
        );
        if let Err(terminal) = result {
            if let Terminal::Dead { foreign: true } = terminal {
                let torn = open.swap_remove(slot);
                out.torn = Some(torn.head).filter(|_| !torn.done.is_empty());
            }
            out.closed
                .extend(open.drain(..).filter(|c| !c.done.is_empty()));
            out.terminal = Some(terminal);
            out.unexecuted = 1 + iter.len();
            break;
        }
        emit_span(
            rec,
            tcu_obs::Lane::Unit(unit),
            t0,
            tcu_obs::EventKind::OpExec {
                unit,
                rows: item.rows,
                sim_cost: item.sim_cost,
            },
        );
        chain.done.push(item.idx);
        if item.tail {
            out.closed.push(open.swap_remove(slot));
        }
    }
    out
}

/// One main→worker message of the threaded executor.
enum Task<'v, T: Scalar> {
    /// Run these items, in order.
    Run(Vec<WaveItem<'v, T>>),
    /// Hand back every open chain: the pass stalled, so a recovery
    /// removal cut each of them.
    Flush,
}

/// One worker→main message of the threaded executor: a message's
/// outcome, or a drop-guard notice that the worker died outside per-op
/// containment (the outcome rides in a `Box` so the two variants stay
/// close in size).
enum DfMsg<T: Scalar> {
    Done(usize, Box<UnitOutcome<T>>),
    Gone(usize),
}

/// Arms a worker with a death notice: if the worker thread unwinds
/// anywhere outside [`execute_with_retries`]' containment, the guard's
/// drop sends [`DfMsg::Gone`], so the main thread — which blocks on one
/// shared result channel — can never wait forever on a reply that will
/// not come. Disarmed on normal shutdown.
struct GoneGuard<T: Scalar> {
    unit: usize,
    tx: std::sync::mpsc::Sender<DfMsg<T>>,
    armed: bool,
}

impl<T: Scalar> Drop for GoneGuard<T> {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.tx.send(DfMsg::Gone(self.unit));
        }
    }
}

/// Stage op `idx`'s reads that no input binding serves and whose
/// snapshot slots are still empty, each into a buffer from `pool`.
/// Sound at first-reader dispatch time: the reader's hazard
/// predecessors (every generation-`gen` writer among them) have
/// committed, and any later writer is hazard-gated behind this reader's
/// own commit, so the region holds exactly the bytes the read's key
/// names — and a buffer the graph never writes, bound as an output,
/// holds the same bytes all run.
#[allow(clippy::too_many_arguments)]
fn stage_pending_reads<T: Scalar>(
    arena: &[OnceLock<Matrix<T>>],
    inputs: &[Option<MatrixView<'_, T>>],
    outputs: &[Option<MatrixViewMut<'_, T>>],
    pool: &mut Scratch<T>,
    plan: &ExecutablePlan,
    idx: usize,
    rec: Option<&dyn tcu_obs::Recorder>,
    unit: u32,
) -> Result<u32, TcuError> {
    let cop = &plan.ops[idx];
    let mut staged = 0;
    for r in [&cop.a, &cop.b] {
        if inputs[r.buf].is_some() || arena[r.slot as usize].get().is_some() {
            continue;
        }
        let host = outputs[r.buf].as_ref().ok_or(TcuError::Unbound {
            buffer: r.buf,
            written: false,
        })?;
        let mut snap = pool.take(r.rows, r.cols, false, rec, unit);
        snap.view_mut()
            .copy_from(host.as_view().subview(r.r0, r.c0, r.rows, r.cols));
        let _ = arena[r.slot as usize].set(snap);
        staged += 1;
    }
    Ok(staged)
}

/// Mark `seeds` and everything hazard-downstream of them in `removed`,
/// returning how many ops were newly marked.
fn remove_downstream<'s>(
    plan: &ExecutablePlan,
    seeds: impl IntoIterator<Item = &'s u32>,
    removed: &mut [bool],
) -> usize {
    let mut stack: Vec<u32> = seeds.into_iter().copied().collect();
    let mut marked = 0;
    while let Some(i) = stack.pop() {
        let i = i as usize;
        if !removed[i] {
            removed[i] = true;
            marked += 1;
            stack.extend_from_slice(plan.successors_of(i));
        }
    }
    marked
}

/// What one execution pass of the threaded executor observed, per
/// unit, until its boundary.
///
/// Each unit's entries follow its own queue minus the ops the pass
/// removes, so closing it yields the same annotations, quarantines,
/// and recovery pass regardless of how units interleaved.
struct PassLog {
    /// Buffered fault/retry annotations, per unit, in occurrence order.
    notes: Vec<Vec<WorkerNote>>,
    /// Queue position of the op each unit stopped at, if it stopped.
    stopped_at: Vec<Option<usize>>,
    /// Per unit, the heads of chains it completed ops of but lost
    /// unmerged — torn by a foreign panic, or held by a worker lost
    /// outside containment. Those ops leave the pass with its queue
    /// suffix. Which chains these are follows from the plan and the
    /// failing op, so recovery stays replay-deterministic.
    rejoin: Vec<Vec<u32>>,
    /// The pass's fatal stop with the smallest `(start, index)` key.
    fatal: Option<((u64, u32), TcuError)>,
}

impl PassLog {
    fn new(units: usize) -> Self {
        Self {
            notes: vec![Vec::new(); units],
            stopped_at: vec![None; units],
            rejoin: vec![Vec::new(); units],
            fatal: None,
        }
    }

    /// What unit `u`'s stop takes out of the pass: its lost chains and
    /// its queue suffix from the stop on (the removed set is what is
    /// hazard-downstream of these).
    fn lost<'q>(&'q self, u: usize, queue: &'q [u32]) -> impl Iterator<Item = &'q u32> {
        let pos = self.stopped_at[u].unwrap_or(queue.len());
        self.rejoin[u].iter().chain(&queue[pos..])
    }

    /// Unit `u` stopped at position `pos` of its pass `queue`; `fatal`
    /// is the error the stop fails the run with, if it is not
    /// recoverable.
    fn stop(
        &mut self,
        u: usize,
        pos: usize,
        queue: &[u32],
        start: &[u64],
        fatal: Option<TcuError>,
    ) {
        self.stopped_at[u] = Some(pos);
        let key = queue
            .get(pos)
            .map_or((u64::MAX, u32::MAX), |&i| (start[i as usize], i));
        if let Some(e) = fatal {
            if self.fatal.as_ref().is_none_or(|(k, _)| key < *k) {
                self.fatal = Some((key, e));
            }
        }
    }

    /// Close the pass: flush every unit's annotations in unit order and
    /// quarantine the units that died — each credited with the removed
    /// ops no lower-indexed unit's stop already claimed — then LPT-place
    /// the removed set onto the survivors as the next pass's `queues`,
    /// charging its makespan as recovery. Returns whether a recovery
    /// pass follows; `Err` for the pass's earliest fatal stop, or when
    /// work remains and no unit survives.
    fn finish<U: TensorUnit>(
        self,
        acct: &mut WaveAccountant<'_, U>,
        sched: &Schedule,
        plan: &ExecutablePlan,
        start: &[u64],
        queues: &mut Vec<Vec<u32>>,
        alive: &mut [bool],
    ) -> Result<bool, TcuError> {
        let mut removed = vec![false; plan.ops()];
        for (u, notes) in self.notes.iter().enumerate() {
            record_notes(acct, u, notes);
            if self.stopped_at[u].is_some() && self.fatal.is_none() {
                alive[u] = false;
                let requeued = remove_downstream(plan, self.lost(u, &queues[u]), &mut removed);
                acct.record_quarantine(u, requeued);
            }
        }
        if let Some((_, e)) = self.fatal {
            return Err(e);
        }
        let batch: Vec<usize> = (0..plan.ops()).filter(|&i| removed[i]).collect();
        let Some(&first) = batch.first() else {
            return Ok(false);
        };
        let survivors: Vec<usize> = (0..alive.len()).filter(|&u| alive[u]).collect();
        if survivors.is_empty() {
            return Err(TcuError::AllUnitsQuarantined {
                wave: sched.nodes()[first].level,
                pending: batch.len(),
            });
        }
        let costs: Vec<u64> = batch
            .iter()
            .map(|&j| acct.op_cost(&plan.ops[j].op))
            .collect();
        let part = partition_lpt(&costs, survivors.len());
        acct.charge_recovery(part.makespan());
        let mut next = vec![Vec::new(); alive.len()];
        for (&j, &slot) in batch.iter().zip(&part.assignment) {
            next[survivors[slot]].push(j as u32);
        }
        for q in &mut next {
            q.sort_unstable_by_key(|&j| (start[j as usize], j));
        }
        *queues = next;
        Ok(true)
    }
}

/// The serial run: one pass over the stream in emission order on the
/// machine's own executor, each op under [`execute_with_retries`] with
/// [`SERIAL_ATTEMPTS`], straight into the bound destination. Reads are
/// zero-copy except an op's reads of the buffer it writes, snapshotted
/// on first use (see the [module docs](self)). The first failing op
/// ends the run: its fault annotation (digest-exempt) is recorded and
/// the error comes back typed.
fn run_serial<T: Scalar, U: TensorUnit, E: Executor>(
    sched: &Schedule,
    plan: &ExecutablePlan,
    acct: &mut WaveAccountant<'_, U>,
    exec: &mut E,
    env: &mut ExecEnv<'_, T>,
    recorder: Option<&dyn tcu_obs::Recorder>,
) -> Result<(), TcuError> {
    let stamps = tag_stamps(env);
    let mut arena: Vec<Option<Matrix<T>>> = (0..plan.slots).map(|_| None).collect();
    let s = acct.sqrt_m();
    for (i, cop) in plan.ops.iter().enumerate() {
        // The destination's binding leaves the environment while the op
        // runs, so its reads of its own buffer come from snapshots, each
        // taken on the key's first such use, before any write: by the
        // hazard order, the version the key names.
        let mut host = env.outputs[cop.out_buf]
            .take()
            .unwrap_or_else(|| unreachable!("output bound (validated up front)"));
        let stage_t0 = recorder.map(tcu_obs::Recorder::now_ns);
        let mut staged = 0;
        for r in [&cop.a, &cop.b] {
            let slot = &mut arena[r.slot as usize];
            if r.buf == cop.out_buf && slot.is_none() {
                *slot = Some(
                    host.as_view()
                        .subview(r.r0, r.c0, r.rows, r.cols)
                        .to_matrix(),
                );
                staged += 1;
            }
        }
        if staged > 0 {
            emit_span(
                recorder,
                tcu_obs::Lane::Scheduler,
                stage_t0,
                tcu_obs::EventKind::Stage { copies: staged },
            );
        }
        let a = serial_read(&arena, &env.inputs, &env.outputs, &cop.a);
        let b = serial_read(&arena, &env.inputs, &env.outputs, &cop.b);
        let tag = read_tag(&cop.a, stamps[cop.a.buf]);
        let mut out_view = host.subview_mut(cop.out_r0, cop.out_c0, cop.out_rows, cop.out_cols);
        let t0 = recorder.map(tcu_obs::Recorder::now_ns);
        let mut notes = Vec::new();
        let result = execute_with_retries(
            exec,
            &cop.op,
            a,
            tag,
            b,
            &mut out_view,
            SERIAL_ATTEMPTS,
            &mut notes,
        );
        env.outputs[cop.out_buf] = Some(host);
        if let Err(terminal) = result {
            record_notes(acct, 0, &notes);
            let wave = sched.nodes()[i].level;
            return Err(terminal.error(0, wave));
        }
        if t0.is_some() {
            emit_span(
                recorder,
                tcu_obs::Lane::Unit(0),
                t0,
                tcu_obs::EventKind::OpExec {
                    unit: 0,
                    rows: cop.op.charge_rows(s) as u64,
                    sim_cost: acct.op_cost(&cop.op),
                },
            );
        }
    }
    Ok(())
}

/// The threaded executor: per-unit worker threads drain each pass's
/// fixed per-unit queues, the main thread dispatches each idle unit's
/// maximal ready prefix as one batched message, and merges each chain's
/// accumulator as its worker hands it back — releasing the hazard
/// successors of the chain's ops — as frontiers clear. No barrier ever
/// synchronizes units; determinism comes from the fixed queues
/// (per-unit op sequences cannot depend on timing) and hazard-gated
/// commits (overlapping writes retire in emission order).
#[allow(clippy::too_many_arguments)]
fn run_threaded<T: Scalar, U: TensorUnit, E: Executor>(
    sched: &Schedule,
    plan: &ExecutablePlan,
    placement: &DataflowPlacement,
    acct: &mut WaveAccountant<'_, U>,
    execs: &mut [E],
    env: &mut ExecEnv<'_, T>,
    recorder: &Option<std::sync::Arc<dyn tcu_obs::Recorder>>,
) -> Result<(), TcuError> {
    let stamps = &tag_stamps(env);
    let snapshots: Vec<OnceLock<Matrix<T>>> = (0..plan.slots).map(|_| OnceLock::new()).collect();
    let arena = &snapshots;
    let inputs = &env.inputs;
    let outputs = &mut env.outputs;
    let units = execs.len();
    let s = acct.sqrt_m();
    let start = &placement.start;
    let mut queues = placement.unit_order.clone();
    let mut indeg = plan.preds.clone();
    let mut alive = vec![true; units];
    let mut pool = Scratch::<T>::claim();

    let run_result = std::thread::scope(|scope| {
        let (result_tx, result_rx) = std::sync::mpsc::channel::<DfMsg<T>>();
        let mut task_tx = Vec::with_capacity(units);
        let mut handles = Vec::with_capacity(units);
        for (u, exec) in execs.iter_mut().enumerate() {
            let (ttx, trx) = std::sync::mpsc::channel::<Task<'_, T>>();
            let rtx = result_tx.clone();
            let rec = recorder.clone();
            handles.push(scope.spawn(move || {
                let mut guard = GoneGuard {
                    unit: u,
                    tx: rtx,
                    armed: true,
                };
                let mut open = Vec::new();
                while let Ok(task) = trx.recv() {
                    let outcome = match task {
                        Task::Run(items) => {
                            run_items_contained(exec, &mut open, items, rec.as_deref(), u as u32)
                        }
                        Task::Flush => {
                            let mut out = UnitOutcome::new();
                            out.closed.append(&mut open);
                            out
                        }
                    };
                    if guard.tx.send(DfMsg::Done(u, Box::new(outcome))).is_err() {
                        break;
                    }
                }
                guard.armed = false;
            }));
            task_tx.push(ttx);
        }

        let run_result = (|| -> Result<(), TcuError> {
            for pass in 0.. {
                let chains = Chains::of_pass(sched, plan, &queues);
                let mut log = PassLog::new(units);
                let mut cursor = vec![0usize; units];
                // Whether each unit has a message outstanding (at most
                // one), and the queue positions of its in-flight batch.
                let mut busy = vec![false; units];
                let mut in_flight: Vec<Vec<usize>> = vec![Vec::new(); units];
                // Heads of the chains each unit's worker holds open.
                let mut open: Vec<Vec<u32>> = vec![Vec::new(); units];
                let mut removed = vec![false; plan.ops()];
                let mut pending: usize = queues.iter().map(Vec::len).sum();
                while pending > 0 {
                    // Dispatch: every idle, live unit takes its maximal
                    // ready prefix — skipping ops this pass removed —
                    // staged, built, and sent as ONE message.
                    for u in 0..units {
                        if log.stopped_at[u].is_some() || busy[u] {
                            continue;
                        }
                        let rec = recorder.as_deref();
                        let stage_t0 = rec.map(tcu_obs::Recorder::now_ns);
                        let mut staged = 0u32;
                        let mut batch: Vec<WaveItem<'_, T>> = Vec::new();
                        while let Some(&idx) = queues[u].get(cursor[u]) {
                            let i = idx as usize;
                            if removed[i] {
                                cursor[u] += 1;
                                continue;
                            }
                            if indeg[i] != chains.before[i] {
                                break;
                            }
                            staged += stage_pending_reads(
                                arena, inputs, outputs, &mut pool, plan, i, rec, u as u32,
                            )?;
                            let mut item = build_item(
                                arena, inputs, outputs, stamps, &mut pool, plan, &chains, i, rec,
                                u as u32,
                            )?;
                            let cop = &plan.ops[i];
                            item.rows = cop.op.charge_rows(s) as u64;
                            item.sim_cost = acct.op_cost(&cop.op);
                            if item.scratch.is_some() {
                                open[u].push(idx);
                            }
                            let home = placement.home[i] as usize;
                            if pass == 0 && home != u {
                                acct.record_steal(home, u);
                            }
                            batch.push(item);
                            in_flight[u].push(cursor[u]);
                            cursor[u] += 1;
                        }
                        if batch.is_empty() {
                            continue;
                        }
                        if staged > 0 {
                            emit_span(
                                rec,
                                tcu_obs::Lane::Scheduler,
                                stage_t0,
                                tcu_obs::EventKind::Stage { copies: staged },
                            );
                        }
                        acct.record_ready(u, batch.len());
                        busy[u] = true;
                        // A failed send means the worker is already dead;
                        // its drop guard queued a `Gone`, which the
                        // receive path below recovers from.
                        let _ = task_tx[u].send(Task::Run(batch));
                    }
                    if !busy.contains(&true) {
                        // Nothing to dispatch and nothing in flight: every
                        // op left was removed or completed into a chain a
                        // removal cut. Merging those chains ends the pass.
                        for u in 0..units {
                            if !open[u].is_empty() {
                                busy[u] = true;
                                let _ = task_tx[u].send(Task::Flush);
                            }
                        }
                        if !busy.contains(&true) {
                            return Err(TcuError::PlanMismatch {
                                what: "dataflow dispatch stalled with work remaining (driver bug)",
                            });
                        }
                    }
                    let Ok(msg) = result_rx.recv() else {
                        return Err(TcuError::PlanMismatch {
                            what: "dataflow result channel closed (driver bug)",
                        });
                    };
                    // The answering unit, and — if it stopped — how many
                    // of its batch it executed first and why it stopped.
                    // A worker lost outside containment merged nothing
                    // (its chains' rectangles are pristine), so every
                    // chain it held re-runs with its batch.
                    let (u, stop) = match msg {
                        DfMsg::Done(u, outcome) => {
                            let UnitOutcome {
                                closed,
                                torn,
                                notes,
                                terminal,
                                unexecuted,
                            } = *outcome;
                            log.notes[u].extend(notes);
                            // Commit: merge each closed chain's accumulator
                            // into its rectangle once, then release the
                            // hazard successors of every op in the chain.
                            if !closed.is_empty() {
                                let rec = recorder.as_deref();
                                let merge_t0 = rec.map(tcu_obs::Recorder::now_ns);
                                for chain in &closed {
                                    let cop = &plan.ops[chain.head as usize];
                                    outputs[cop.out_buf]
                                        .as_mut()
                                        .unwrap_or_else(|| {
                                            unreachable!("output bound (validated up front)")
                                        })
                                        .subview_mut(
                                            cop.out_r0,
                                            cop.out_c0,
                                            cop.out_rows,
                                            cop.out_cols,
                                        )
                                        .copy_from(chain.acc.view());
                                    for &i in &chain.done {
                                        for &succ in plan.successors_of(i) {
                                            indeg[succ as usize] -= 1;
                                        }
                                    }
                                    pending -= chain.done.len();
                                    open[u].retain(|&h| h != chain.head);
                                }
                                emit_span(
                                    rec,
                                    tcu_obs::Lane::Scheduler,
                                    merge_t0,
                                    tcu_obs::EventKind::Merge {
                                        items: closed.len() as u32,
                                    },
                                );
                                pool.free.extend(closed.into_iter().map(|c| c.acc));
                            }
                            log.rejoin[u].extend(torn);
                            let executed = in_flight[u].len() - unexecuted;
                            (u, terminal.map(|t| (executed, t)))
                        }
                        DfMsg::Gone(u) => {
                            log.notes[u].push(WorkerNote::Fault { transient: false });
                            log.rejoin[u].append(&mut open[u]);
                            (u, Some((0, Terminal::Dead { foreign: true })))
                        }
                    };
                    if let Some((executed, terminal)) = stop {
                        // A stopped worker handed back or lost every
                        // chain it held.
                        open[u].clear();
                        let pos = in_flight[u].get(executed).copied().unwrap_or(cursor[u]);
                        let wave = queues[u]
                            .get(pos)
                            .map_or(0, |&i| sched.nodes()[i as usize].level);
                        // A parallel run quarantines a dead unit;
                        // only an exhausted retry budget fails the run.
                        let fatal = match terminal {
                            Terminal::Dead { .. } => None,
                            Terminal::Exhausted { .. } => Some(terminal.error(u, wave)),
                        };
                        log.stop(u, pos, &queues[u], start, fatal);
                        pending -= remove_downstream(plan, log.lost(u, &queues[u]), &mut removed);
                    }
                    in_flight[u].clear();
                    busy[u] = false;
                }
                if !log.finish(acct, sched, plan, start, &mut queues, &mut alive)? {
                    break;
                }
            }
            Ok(())
        })();

        drop(task_tx);
        drop(result_tx);
        for h in handles {
            let _ = h.join();
        }
        run_result
    });
    pool.release(snapshots.into_iter().filter_map(OnceLock::into_inner));
    run_result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::place_dataflow;
    use crate::{OpGraph, Scheduler};
    use tcu_core::{ReplayExecutor, TensorOp};
    use tcu_linalg::ops::matmul_naive;
    use tcu_linalg::Matrix;

    fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
        Matrix::from_fn(r, c, |i, j| {
            ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
        })
    }

    /// Record, plan, run: the smallest end-to-end flow — one strip
    /// streamed against two adjacent weight blocks on a unit twice as
    /// wide, which the scheduler collapses into a single invocation.
    #[test]
    fn two_block_columns_collapse_and_match_the_oracle() {
        let d = 16usize;
        let a = pseudo(d, 4, 1);
        let b = pseudo(4, 8, 2);
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, 4);
        let bb = g.buffer("B", 4, 8);
        let cb = g.buffer("C", d, 8);
        for j in 0..2 {
            g.record(
                TensorOp::padded(d, 4, 4),
                crate::OperandRef::new(ab, 0, 0, d, 4),
                crate::OperandRef::new(bb, 0, j * 4, 4, 4),
                crate::OperandRef::new(cb, 0, j * 4, d, 4),
            );
        }
        let mut mach = TcuMachine::model(64, 1000);
        let plan = Scheduler::new().plan(&g, mach.unit());
        assert_eq!(plan.ops(), 1);
        assert_eq!(plan.nodes()[0].fused, 2);

        let mut c = Matrix::<i64>::zeros(d, 8);
        let mut env = ExecEnv::new(&g);
        env.try_bind_input(ab, a.view()).unwrap();
        env.try_bind_input(bb, b.view()).unwrap();
        env.try_bind_output(cb, c.view_mut()).unwrap();
        plan.try_run(&mut mach, &mut env).unwrap();
        assert_eq!(c, matmul_naive(&a, &b));
        // One invocation charged instead of two: d·√m + ℓ once.
        assert_eq!(mach.time(), (d * 8) as u64 + 1000);
        assert_eq!(mach.stats().tensor_calls, 1);
    }

    #[test]
    fn run_charges_exactly_what_the_plan_predicts() {
        let d = 32usize;
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, d);
        let bb = g.buffer("B", d, d);
        let cb = g.buffer("C", d, d);
        let s = 8usize;
        for j in 0..d / s {
            for k in 0..d / s {
                g.record(
                    TensorOp {
                        accumulate: true,
                        ..TensorOp::padded(d, s, s)
                    },
                    crate::OperandRef::new(ab, 0, k * s, d, s),
                    crate::OperandRef::new(bb, k * s, j * s, s, s),
                    crate::OperandRef::new(cb, 0, j * s, d, s),
                );
            }
        }
        let mut mach = TcuMachine::with_executor(
            tcu_core::ModelTensorUnit::new(64, 9),
            ReplayExecutor::default(),
        );
        let plan = Scheduler::new().plan(&g, mach.unit());
        let (a, b) = (pseudo(d, d, 3), pseudo(d, d, 4));
        let mut c = Matrix::<i64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.try_bind_input(ab, a.view()).unwrap();
        env.try_bind_input(bb, b.view()).unwrap();
        env.try_bind_output(cb, c.view_mut()).unwrap();
        plan.try_run(&mut mach, &mut env).unwrap();
        assert_eq!(mach.stats().tensor_calls, plan.invocations());
        assert_eq!(mach.stats().tensor_rows, plan.charged_rows());
        assert_eq!(mach.stats().tensor_time, plan.tensor_time());
        // Replay executor ran no numerics.
        assert_eq!(c, Matrix::<i64>::zeros(d, d));
    }

    #[test]
    fn pack_cache_hits_across_the_run_and_fresh_envs_miss() {
        let d = 32usize;
        let s = 8usize;
        let b = pseudo(d, d, 6);
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, d);
        let bb = g.buffer("B", d, d);
        let cb = g.buffer("C", d, d);
        let q = d / s;
        for j in 0..q {
            for k in 0..q {
                g.record(
                    TensorOp {
                        accumulate: true,
                        ..TensorOp::padded(d, s, s)
                    },
                    crate::OperandRef::new(ab, 0, k * s, d, s),
                    crate::OperandRef::new(bb, k * s, j * s, s, s),
                    crate::OperandRef::new(cb, 0, j * s, d, s),
                );
            }
        }
        let mut mach = TcuMachine::model(s * s, 7);
        mach.executor_mut().enable_pack_cache(2 * q);
        let plan = Scheduler::new().plan(&g, mach.unit());
        assert_eq!(plan.ops(), q * q, "√m-wide blocks cannot merge");

        let run_once = |mach: &mut TcuMachine<_, _>, seed: i64| {
            let aa = pseudo(d, d, seed);
            let mut c = Matrix::<i64>::zeros(d, d);
            let mut env = ExecEnv::new(&g);
            env.try_bind_input(ab, aa.view()).unwrap();
            env.try_bind_input(bb, b.view()).unwrap();
            env.try_bind_output(cb, c.view_mut()).unwrap();
            plan.try_run(mach, &mut env).unwrap();
            (c, aa)
        };
        let (c1, a1) = run_once(&mut mach, 5);
        assert_eq!(c1, matmul_naive(&a1, &b));
        let stats = mach.executor().pack_cache_stats().expect("cache on");
        // q distinct strips, q² lookups: q misses, q(q−1) hits.
        assert_eq!(stats.misses, q as u64);
        assert_eq!(stats.hits, (q * (q - 1)) as u64);

        // A second environment re-packs (new epoch): no stale reuse
        // even though buffer ids coincide.
        let (c2, a2) = run_once(&mut mach, 50);
        assert_eq!(c2, matmul_naive(&a2, &b));
        let stats = mach.executor().pack_cache_stats().expect("cache on");
        assert_eq!(stats.misses, 2 * q as u64);
    }

    /// A two-stage RAW pipeline in one graph: M = A·B, then C = M·B —
    /// the shape the pre-versioned runtime forced into two graphs.
    fn pipeline_graph(d: usize, s: usize) -> (OpGraph, [crate::BufferId; 4]) {
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
                        TensorOp {
                            accumulate: true,
                            ..TensorOp::padded(d, s, s)
                        },
                        crate::OperandRef::new(src, 0, k * s, d, s),
                        crate::OperandRef::new(bb, k * s, j * s, s, s),
                        crate::OperandRef::new(dst, 0, j * s, d, s),
                    );
                }
            }
        }
        (g, [ab, bb, mb, cb])
    }

    #[test]
    fn two_stage_pipeline_plans_and_matches_the_chained_oracle() {
        let (d, s) = (16usize, 4usize);
        let (g, [ab, bb, mb, cb]) = pipeline_graph(d, s);
        let a = pseudo(d, d, 7);
        let b = pseudo(d, d, 8);
        let mut mach = TcuMachine::model(s * s, 11);
        mach.executor_mut().enable_pack_cache(2 * d / s);
        let plan = Scheduler::new().plan(&g, mach.unit());
        // Stage 2's reads of M force it into later waves than stage 1's
        // accumulate chain into the same columns.
        assert!(plan.waves() > d / s, "RAW must add depth");
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
        // Charges are the recorded stream's: 2 stages × q² ops, d rows.
        let q = (d / s) as u64;
        assert_eq!(mach.stats().tensor_calls, 2 * q * q);
    }

    #[test]
    fn pipeline_writes_retire_stale_strips_in_the_pack_cache() {
        // One graph: write M, read M (gen 1), overwrite M, read again
        // (gen 2). The second read must repack — tags differ — and the
        // result must reflect the overwrite.
        let s = 4usize;
        let mut g = OpGraph::new();
        let ab = g.buffer("A", s, s);
        let bb = g.buffer("B", s, s);
        let mb = g.buffer("M", s, s);
        let c1b = g.buffer("C1", s, s);
        let c2b = g.buffer("C2", s, s);
        let xb = g.buffer("X", s, s);
        let whole = |buf| crate::OperandRef::new(buf, 0, 0, s, s);
        let op = TensorOp::padded(s, s, s);
        g.record(op, whole(ab), whole(bb), whole(mb)); // M = A·B
        g.record(op, whole(mb), whole(bb), whole(c1b)); // C1 = M·B
        g.record(op, whole(xb), whole(bb), whole(mb)); // M = X·B
        g.record(op, whole(mb), whole(bb), whole(c2b)); // C2 = M'·B
        let mut mach = TcuMachine::model(s * s, 0);
        mach.executor_mut().enable_pack_cache(8);
        let plan = Scheduler::new().plan(&g, mach.unit());
        assert_eq!(plan.waves(), 4, "WAR + RAW serialize all four ops");

        let (a, b, x) = (pseudo(s, s, 21), pseudo(s, s, 22), pseudo(s, s, 23));
        let (mut m, mut c1, mut c2) = (
            Matrix::<i64>::zeros(s, s),
            Matrix::<i64>::zeros(s, s),
            Matrix::<i64>::zeros(s, s),
        );
        let mut env = ExecEnv::new(&g);
        env.try_bind_input(ab, a.view()).unwrap();
        env.try_bind_input(bb, b.view()).unwrap();
        env.try_bind_input(xb, x.view()).unwrap();
        env.try_bind_output(mb, m.view_mut()).unwrap();
        env.try_bind_output(c1b, c1.view_mut()).unwrap();
        env.try_bind_output(c2b, c2.view_mut()).unwrap();
        plan.try_run(&mut mach, &mut env).unwrap();
        assert_eq!(c1, matmul_naive(&matmul_naive(&a, &b), &b));
        assert_eq!(c2, matmul_naive(&matmul_naive(&x, &b), &b));
        assert_eq!(m, matmul_naive(&x, &b));
        // Both M reads packed fresh strips (generations 1 and 2).
        let stats = mach.executor().pack_cache_stats().expect("cache on");
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn rerunning_one_env_repacks_written_reads_but_reuses_frozen_inputs() {
        // Accumulating pipeline: M += A·B, then C += M·B. Running the
        // schedule twice against ONE environment doubles M before the
        // second stage reads it, so run 2's C contribution is 2·(A·B)·B
        // and the total must be 3·(A·B)·B. A cache serving run 1's
        // packed M strips to run 2 (the per-env tag scheme) would
        // compute 2× instead — so written-buffer reads must repack per
        // run, while the frozen input A keeps hitting across runs.
        let (d, s) = (16usize, 4usize);
        let (g, [ab, bb, mb, cb]) = pipeline_graph(d, s);
        let a = pseudo(d, d, 61);
        let b = pseudo(d, d, 62);
        let mut mach = TcuMachine::model(s * s, 0);
        mach.executor_mut().enable_pack_cache(4 * d / s);
        let plan = Scheduler::new().plan(&g, mach.unit());
        let (mut m, mut c) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&g);
        env.try_bind_input(ab, a.view()).unwrap();
        env.try_bind_input(bb, b.view()).unwrap();
        env.try_bind_output(mb, m.view_mut()).unwrap();
        env.try_bind_output(cb, c.view_mut()).unwrap();
        plan.try_run(&mut mach, &mut env).unwrap();
        let after_first = mach.executor().pack_cache_stats().expect("cache on");
        plan.try_run(&mut mach, &mut env).unwrap();

        let ab_prod = matmul_naive(&a, &b);
        assert_eq!(m, ab_prod.scale(2));
        assert_eq!(c, matmul_naive(&ab_prod, &b).scale(3));
        // Frozen input strips (A) hit across runs; written-buffer strips
        // (M) repacked in run 2: q fresh misses, no more.
        let after_second = mach.executor().pack_cache_stats().expect("cache on");
        assert_eq!(
            after_second.misses - after_first.misses,
            (d / s) as u64,
            "exactly the written-buffer strips repack on the second run"
        );
    }

    #[test]
    fn run_parallel_matches_serial_run_and_the_planned_makespan() {
        let (d, s, p) = (32usize, 8usize, 3usize);
        let (g, [ab, bb, mb, cb]) = pipeline_graph(d, s);
        let a = pseudo(d, d, 31);
        let b = pseudo(d, d, 32);
        let unit = tcu_core::ModelTensorUnit::new(s * s, 17);
        let plan = Scheduler::new().with_units(p).plan(&g, &unit);

        let mut serial = TcuMachine::new(unit);
        let (mut m1, mut c1) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&g);
        env.try_bind_input(ab, a.view()).unwrap();
        env.try_bind_input(bb, b.view()).unwrap();
        env.try_bind_output(mb, m1.view_mut()).unwrap();
        env.try_bind_output(cb, c1.view_mut()).unwrap();
        plan.try_run(&mut serial, &mut env).unwrap();

        let mut par = ParallelTcuMachine::new(unit, p);
        par.enable_pack_caches(2 * d / s);
        let (mut m2, mut c2) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&g);
        env.try_bind_input(ab, a.view()).unwrap();
        env.try_bind_input(bb, b.view()).unwrap();
        env.try_bind_output(mb, m2.view_mut()).unwrap();
        env.try_bind_output(cb, c2.view_mut()).unwrap();
        plan.try_run_parallel(&mut par, &mut env).unwrap();

        // Bit-identical results, identical per-op charges, and the
        // multi-unit wall-clock the planner predicted.
        assert_eq!((m2, c2), (m1, c1));
        assert_eq!(par.stats(), serial.stats());
        assert_eq!(par.time(), plan.dataflow_makespan());
        assert!(plan.makespan() < plan.tensor_time(), "3 units must help");
        // The units' caches collectively served every lookup.
        let (mut lookups, mut misses) = (0u64, 0u64);
        for u in 0..p {
            if let Some(c) = par.unit_executor(u).pack_cache_stats() {
                lookups += c.lookups;
                misses += c.misses;
            }
        }
        assert_eq!(lookups, plan.invocations());
        assert!(misses < lookups, "schedule placement must enable reuse");
    }

    /// The Theorem 2 product `C (+)= A·B`, one op per `(column strip,
    /// step)`: accumulating ops chain per strip, overwriting ones each
    /// stand alone.
    fn dense_graph(d: usize, s: usize, accumulate: bool) -> (OpGraph, [crate::BufferId; 3]) {
        let q = d / s;
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, d);
        let bb = g.buffer("B", d, d);
        let cb = g.buffer("C", d, d);
        let steps = if accumulate { q } else { 1 };
        for j in 0..q {
            for k in 0..steps {
                g.record(
                    TensorOp {
                        accumulate,
                        ..TensorOp::padded(d, s, s)
                    },
                    crate::OperandRef::new(ab, 0, k * s, d, s),
                    crate::OperandRef::new(bb, k * s, j * s, s, s),
                    crate::OperandRef::new(cb, 0, j * s, d, s),
                );
            }
        }
        (g, [ab, bb, cb])
    }

    /// One `try_run_parallel` of `plan` over `g`'s buffers on `mach`,
    /// recorded: the sink, and the written buffers as the run left
    /// them (each bound from `init`).
    fn traced_run<T: Scalar, E: Executor>(
        g: &OpGraph,
        plan: &Schedule,
        mach: &mut ParallelTcuMachine<tcu_core::ModelTensorUnit, E>,
        inputs: &[(crate::BufferId, &Matrix<T>)],
        init: &[(crate::BufferId, &Matrix<T>)],
    ) -> (std::sync::Arc<tcu_obs::ObsSink>, Vec<Matrix<T>>) {
        let sink = std::sync::Arc::new(tcu_obs::ObsSink::new());
        let mut outs: Vec<Matrix<T>> = init.iter().map(|(_, m)| (*m).clone()).collect();
        mach.enable_recorder(sink.clone());
        let mut env = ExecEnv::new(g);
        for (id, m) in inputs {
            env.try_bind_input(*id, m.view()).unwrap();
        }
        for ((id, _), m) in init.iter().zip(&mut outs) {
            env.try_bind_output(*id, m.view_mut()).unwrap();
        }
        plan.try_run_parallel(mach, &mut env)
            .expect("fault-free run");
        drop(env);
        (sink, outs)
    }

    /// A run's pool acquisitions: `(fresh, reused)`.
    fn acquisitions(sink: &tcu_obs::ObsSink) -> (u64, u64) {
        let m = sink.metrics();
        (
            m.get(tcu_obs::Metric::ScratchFresh),
            m.get(tcu_obs::Metric::ScratchReused),
        )
    }

    /// The shapes of the buffers this thread's pools for `T` hold.
    fn pooled_shapes<T: Scalar>() -> Vec<(usize, usize)> {
        POOLS.with_borrow(|pools| {
            pools
                .iter()
                .filter_map(|p| p.downcast_ref::<Vec<Matrix<T>>>())
                .flatten()
                .map(|m| (m.rows(), m.cols()))
                .collect()
        })
    }

    /// Run `body` on a thread of its own, so it starts with empty pools.
    fn on_fresh_thread<R: Send>(body: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|scope| scope.spawn(body).join().expect("test body"))
    }

    /// The Theorem 2 product on 2 units: each of the 32 column strips is
    /// one 32-op chain on one unit, so a threaded call seeds and merges
    /// 32 accumulators — per-op scratch took 1024 of each.
    #[test]
    fn dense_strips_seed_and_merge_once_per_chain() {
        let (d, s) = (512usize, 16usize);
        let q = d / s;
        let (g, [ab, bb, cb]) = dense_graph(d, s, true);
        let unit = tcu_core::ModelTensorUnit::new(s * s, 0);
        let plan = Scheduler::new().with_units(2).plan(&g, &unit);
        let compiled = plan.compiled().expect("compiles");
        let placement = place_dataflow(&plan, compiled);
        let chains = Chains::of_pass(&plan, compiled, &placement.unit_order);
        let lengths: Vec<usize> = (0..compiled.ops())
            .filter(|&i| chains.before[i] == 0)
            .map(|h| {
                let mut len = 1;
                let mut i = h;
                while chains.next[i] != NO_OP {
                    i = chains.next[i] as usize;
                    len += 1;
                }
                len
            })
            .collect();
        assert_eq!(lengths, vec![q; q], "32 chains of 32 ops");

        let mut mach = ParallelTcuMachine::with_executor(unit, 2, ReplayExecutor::default());
        let (a, b) = (Matrix::<f64>::zeros(d, d), Matrix::<f64>::zeros(d, d));
        let c = Matrix::<f64>::zeros(d, d);
        let (sink, _) = traced_run(&g, &plan, &mut mach, &[(ab, &a), (bb, &b)], &[(cb, &c)]);
        let (fresh, reused) = acquisitions(&sink);
        let merged: u32 = sink
            .lane_events(tcu_obs::Lane::Scheduler)
            .iter()
            .filter_map(|e| match e.kind {
                tcu_obs::EventKind::Merge { items } => Some(items),
                _ => None,
            })
            .sum();
        assert_eq!((fresh + reused, merged), (q as u64, q as u32));
        assert_eq!(
            sink.metrics().get(tcu_obs::Metric::OpsExecuted),
            (q * q) as u64
        );
    }

    /// A warm run on the thread of an earlier run of the same plan takes
    /// every accumulator and every staged snapshot from the pool.
    #[test]
    fn warm_runs_take_every_accumulator_and_snapshot_from_the_pool() {
        on_fresh_thread(|| {
            // The dense product: every chain head dispatches up front,
            // so both runs hold all 32 accumulators at once.
            let (d, s) = (512usize, 16usize);
            let (g, [ab, bb, cb]) = dense_graph(d, s, true);
            let unit = tcu_core::ModelTensorUnit::new(s * s, 0);
            let plan = Scheduler::new().with_units(2).plan(&g, &unit);
            let mut mach = ParallelTcuMachine::with_executor(unit, 2, ReplayExecutor::default());
            let zeros = Matrix::<f64>::zeros(d, d);
            let inputs = [(ab, &zeros), (bb, &zeros)];
            let mut run =
                || acquisitions(&traced_run(&g, &plan, &mut mach, &inputs, &[(cb, &zeros)]).0);
            assert_eq!(run(), (32, 0), "cold");
            assert_eq!(run(), (0, 32), "warm");

            // The pipeline on one unit (one dispatch order, so both runs
            // hold the same buffers at once): q accumulators per stage,
            // and q snapshots of stage 1's strips for stage 2.
            let (d, s) = (32usize, 8usize);
            let q = (d / s) as u64;
            let (g, [ab, bb, mb, cb]) = pipeline_graph(d, s);
            let unit = tcu_core::ModelTensorUnit::new(s * s, 0);
            let plan = Scheduler::new().with_units(1).plan(&g, &unit);
            let mut mach = ParallelTcuMachine::new(unit, 1);
            let (a, b) = (pseudo(d, d, 51), pseudo(d, d, 52));
            let zeros = Matrix::<i64>::zeros(d, d);
            let inputs = [(ab, &a), (bb, &b)];
            let outputs = [(mb, &zeros), (cb, &zeros)];
            let staged = |sink: &tcu_obs::ObsSink| -> u32 {
                sink.lane_events(tcu_obs::Lane::Scheduler)
                    .iter()
                    .filter_map(|e| match e.kind {
                        tcu_obs::EventKind::Stage { copies } => Some(copies),
                        _ => None,
                    })
                    .sum()
            };
            let (cold, cold_out) = traced_run(&g, &plan, &mut mach, &inputs, &outputs);
            let (warm, warm_out) = traced_run(&g, &plan, &mut mach, &inputs, &outputs);
            assert_eq!((staged(&cold), staged(&warm)), (q as u32, q as u32));
            let (fresh, reused) = acquisitions(&cold);
            assert_eq!(fresh + reused, 3 * q, "2q accumulators and q snapshots");
            assert_eq!(acquisitions(&warm), (0, 3 * q), "warm");
            let want_m = matmul_naive(&a, &b);
            assert_eq!(cold_out, vec![want_m.clone(), matmul_naive(&want_m, &b)]);
            assert_eq!(warm_out, cold_out);
        });
    }

    /// A run that skips numerics after one that computed products on the
    /// same thread: the pooled accumulators it takes for overwrite heads
    /// are zeroed, so it leaves what it leaves on a fresh thread.
    #[test]
    fn pooled_overwrite_accumulators_start_from_zeros() {
        let (d, s) = (64usize, 8usize);
        let (g, [ab, bb, cb]) = dense_graph(d, s, false);
        let unit = tcu_core::ModelTensorUnit::new(s * s, 0);
        let plan = Scheduler::new().with_units(2).plan(&g, &unit);
        let (a, b, c0) = (pseudo(d, d, 71), pseudo(d, d, 72), pseudo(d, d, 73));
        let inputs = [(ab, &a), (bb, &b)];
        let replay = || {
            let mut mach = ParallelTcuMachine::with_executor(unit, 2, ReplayExecutor::default());
            traced_run(&g, &plan, &mut mach, &inputs, &[(cb, &c0)]).1
        };
        let after_host = on_fresh_thread(|| {
            let mut mach = ParallelTcuMachine::new(unit, 2);
            let (_, host) = traced_run(&g, &plan, &mut mach, &inputs, &[(cb, &c0)]);
            let strip_products = matmul_naive(&a.block(0, 0, d, s), &b.block(0, 0, s, d));
            assert_eq!(host, vec![strip_products]);
            assert!(
                !pooled_shapes::<i64>().is_empty(),
                "the host run filled the pool"
            );
            replay()
        });
        let fresh = on_fresh_thread(replay);
        assert_eq!(after_host, fresh);
        // Every strip of `C` is one overwrite head's, merged as zeros.
        assert_eq!(fresh, vec![Matrix::zeros(d, d)]);
    }

    /// The pool keeps only the buffers of the thread's last threaded
    /// run: a run of another strip shape frees the earlier run's.
    #[test]
    fn the_pool_holds_only_the_last_runs_buffers() {
        on_fresh_thread(|| {
            let d = 64usize;
            let strips = |s: usize| {
                let (g, [ab, bb, cb]) = dense_graph(d, s, true);
                let unit = tcu_core::ModelTensorUnit::new(s * s, 0);
                let plan = Scheduler::new().with_units(2).plan(&g, &unit);
                let mut mach = ParallelTcuMachine::new(unit, 2);
                let (a, b) = (pseudo(d, d, 81), pseudo(d, d, 82));
                let c = Matrix::<i64>::zeros(d, d);
                let (_, out) = traced_run(&g, &plan, &mut mach, &[(ab, &a), (bb, &b)], &[(cb, &c)]);
                assert_eq!(out, vec![matmul_naive(&a, &b)], "s = {s}");
            };
            strips(16);
            assert_eq!(pooled_shapes::<i64>(), vec![(d, 16); d / 16]);
            strips(8);
            assert_eq!(pooled_shapes::<i64>(), vec![(d, 8); d / 8]);
            assert!(
                pooled_shapes::<f64>().is_empty(),
                "one pool per scalar type"
            );
        });
    }

    #[test]
    fn run_parallel_rejects_mismatched_unit_count() {
        let (g, [_, _, _, _]) = pipeline_graph(8, 4);
        let unit = tcu_core::ModelTensorUnit::new(16, 0);
        let plan = Scheduler::new().with_units(2).plan(&g, &unit);
        let mut par = ParallelTcuMachine::<_, tcu_core::HostExecutor>::new(unit, 3);
        let mut env = ExecEnv::<i64>::new(&g);
        assert!(matches!(
            plan.try_run_parallel(&mut par, &mut env),
            Err(TcuError::PlanMismatch { what }) if what.contains("different unit count")
        ));
    }

    #[test]
    fn schur_update_reads_and_writes_one_buffer() {
        // The gauss kernel-D shape: X's trailing columns accumulate the
        // product of X's own pivot panel with external weights.
        let (d, s) = (8usize, 4usize);
        let mut g = OpGraph::new();
        let xb = g.buffer("X", d, d);
        let wb = g.buffer("W", s, s);
        g.record(
            TensorOp {
                accumulate: true,
                ..TensorOp::padded(s, s, s)
            },
            crate::OperandRef::new(xb, s, 0, s, s),
            crate::OperandRef::new(wb, 0, 0, s, s),
            crate::OperandRef::new(xb, s, s, s, s),
        );
        let mut mach = TcuMachine::model(s * s, 0);
        let plan = Scheduler::new().plan(&g, mach.unit());
        let mut x = pseudo(d, d, 41);
        let want = {
            let mut w = x.clone();
            let prod = matmul_naive(&x.block(s, 0, s, s), &pseudo(s, s, 42));
            w.subview_mut(s, s, s, s).add_assign(prod.view());
            w
        };
        let wmat = pseudo(s, s, 42);
        let mut env = ExecEnv::new(&g);
        env.try_bind_input(wb, wmat.view()).unwrap();
        env.try_bind_output(xb, x.view_mut()).unwrap();
        plan.try_run(&mut mach, &mut env).unwrap();
        assert_eq!(x, want);
    }

    #[test]
    fn written_buffer_rejects_input_binding() {
        let (g, [_, _, mb, _]) = pipeline_graph(8, 4);
        let m = pseudo(8, 8, 1);
        let mut env = ExecEnv::new(&g);
        assert_eq!(
            env.try_bind_input(mb, m.view()),
            Err(TcuError::BindWrittenAsInput { buffer: mb.index() })
        );
    }
}
