//! §6 extension: *parallel* tensor units.
//!
//! The paper's conclusion lists "hardware accelerators have parallel
//! tensors … how can we include these features in the TCU model?" as an
//! open question (boards like the Titan RTX carry hundreds of tensor
//! cores, §3.1). This module provides the natural extension: a
//! [`ParallelTcuMachine`] with `p` identical units. A *batch* of
//! independent [`TensorOp`]s is scheduled over a deterministic LPT
//! partition ([`partition_lpt`]) and the batch charges its **makespan**;
//! scalar CPU work remains serial (the CPU is still one processor). With
//! equal-size invocations the makespan is `⌈k/p⌉` times the per-call
//! cost, so a `p`-unit machine accelerates exactly the tensor-bound
//! portion of an algorithm — an Amdahl decomposition the EP1 experiment
//! measures.
//!
//! Scheduling operates purely on op descriptors and unit costs — the
//! numerics of every op flow through the same pluggable [`Executor`]
//! backend as the serial machine, so there is exactly one
//! multiplication code path in the workspace.

use crate::cost::{Stats, StatsSummary};
use crate::exec::{Executor, HostExecutor, PackCacheStats};
use crate::fault::FaultStats;
use crate::op::{PadPolicy, TensorOp};
use crate::tensor_unit::TensorUnit;
use crate::trace::TraceLog;
use std::sync::Arc;
use tcu_linalg::{Matrix, MatrixView, Scalar};

/// A TCU machine with `p` identical tensor units.
///
/// Each unit carries its *own* executor instance (cloned from the
/// constructor's template), so backend-local state — the host
/// executor's pack cache above all — is per unit, exactly like the
/// per-core caches of a real multi-unit part. Numerics remain
/// deterministic regardless: ops execute in batch/schedule order, and
/// every executor is required to be order-insensitive per op.
#[derive(Clone, Debug)]
pub struct ParallelTcuMachine<U: TensorUnit, E: Executor = HostExecutor> {
    unit: U,
    execs: Vec<E>,
    stats: Stats,
    trace: Option<TraceLog>,
    /// Simulated time spent in batch makespans (subset of
    /// `stats.tensor_time`, which keeps the *work* for utilization
    /// accounting).
    makespan_time: u64,
    /// Recovery accounting: what the fault-tolerant parallel driver did that
    /// a fault-free run would not. Kept outside `stats` so `Stats` stay
    /// byte-identical between a recovered run and a fault-free one.
    fault_stats: FaultStats,
    /// Execution-telemetry sink (`tcu-obs`), `None` unless opted in via
    /// [`Self::enable_recorder`] or `TCU_TRACE_OUT`. Purely an observer
    /// of wall-clock and already-charged quantities.
    recorder: Option<Arc<dyn tcu_obs::Recorder>>,
}

impl<U: TensorUnit> ParallelTcuMachine<U> {
    /// `p ≥ 1` units sharing one costing policy, over the default
    /// host-kernel backend.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    #[must_use]
    pub fn new(unit: U, p: usize) -> Self {
        Self::with_executor(unit, p, HostExecutor::new())
    }
}

impl<U: TensorUnit> ParallelTcuMachine<U, HostExecutor> {
    /// Enable a pack cache of `capacity` strips on *every* unit's host
    /// executor (resetting any previous cache state). Per-unit caches
    /// mirror the scheduled runtime's placement: a strip is packed by
    /// the unit that first streams it, and re-used by the invocations
    /// the schedule assigns to that same unit.
    pub fn enable_pack_caches(&mut self, capacity: usize) {
        for e in &mut self.execs {
            e.enable_pack_cache(capacity);
        }
    }
}

impl<U: TensorUnit, E: Executor> ParallelTcuMachine<U, E> {
    /// `p ≥ 1` units sharing one costing policy, each running its own
    /// clone of `exec`.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    #[must_use]
    pub fn with_executor(unit: U, p: usize, exec: E) -> Self
    where
        E: Clone,
    {
        assert!(p >= 1, "need at least one unit");
        let mut mach = Self {
            unit,
            execs: vec![exec; p],
            stats: Stats::default(),
            trace: None,
            makespan_time: 0,
            fault_stats: FaultStats::default(),
            recorder: None,
        };
        // `TCU_TRACE_OUT=<path>` turns tracing on process-wide with no
        // caller changes.
        if let Some(sink) = tcu_obs::env_recorder() {
            mach.enable_recorder(sink);
        }
        mach
    }

    /// Attach an execution-telemetry recorder: every unit's executor is
    /// told its unit id (so pack-cache events land on the right lane),
    /// and the fault-recovery annotations gain scheduler-lane instant
    /// events. It replaces any recorder already attached, such as the
    /// `TCU_TRACE_OUT` sink. Purely observational — simulated time,
    /// `Stats`, traces, and results are unchanged with or without it.
    pub fn enable_recorder(&mut self, recorder: Arc<dyn tcu_obs::Recorder>) {
        for (u, e) in self.execs.iter_mut().enumerate() {
            e.attach_recorder(Arc::clone(&recorder), u as u32);
        }
        self.recorder = Some(recorder);
    }

    /// The attached recorder, if any — the parallel driver clones this so
    /// its worker threads can stamp per-op execute spans.
    #[must_use]
    pub fn recorder_handle(&self) -> Option<Arc<dyn tcu_obs::Recorder>> {
        self.recorder.clone()
    }

    /// Unit `u`'s numeric backend.
    ///
    /// # Panics
    /// Panics if `u ≥ units()`.
    #[inline]
    #[must_use]
    pub fn unit_executor(&self, u: usize) -> &E {
        &self.execs[u]
    }

    /// Mutable access to unit `u`'s numeric backend.
    ///
    /// # Panics
    /// Panics if `u ≥ units()`.
    #[inline]
    pub fn unit_executor_mut(&mut self, u: usize) -> &mut E {
        &mut self.execs[u]
    }

    /// All units' backends at once — the slice a caller can hand out
    /// element-wise, one executor per worker thread.
    #[inline]
    pub fn unit_executors_mut(&mut self) -> &mut [E] {
        &mut self.execs
    }

    /// Number of tensor units.
    #[inline]
    #[must_use]
    pub fn units(&self) -> usize {
        self.execs.len()
    }

    /// `√m` of the units.
    #[inline]
    #[must_use]
    pub fn sqrt_m(&self) -> usize {
        self.unit.sqrt_m()
    }

    /// The shared costing policy.
    #[inline]
    #[must_use]
    pub fn unit(&self) -> &U {
        &self.unit
    }

    /// Serial CPU work (1 time unit per op).
    pub fn charge(&mut self, ops: u64) {
        self.stats.record_scalar(ops);
        if let Some(t) = &mut self.trace {
            t.push_scalar(ops);
        }
    }

    /// Start recording an execution trace; any previous trace is
    /// discarded. Tensor events are recorded in *charge order* — the
    /// schedule's canonical serial order under the parallel driver — so a
    /// parallel run's trace is byte-identical to the serial machine's.
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceLog::new());
    }

    /// Stop recording and return the trace collected since
    /// [`Self::enable_trace`].
    pub fn take_trace(&mut self) -> TraceLog {
        self.trace.take().unwrap_or_default()
    }

    /// The trace recorded so far, without stopping or consuming it
    /// (`None` unless [`Self::enable_trace`] was called).
    #[must_use]
    pub fn trace_log(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Simulated wall-clock time: serial CPU work plus the makespan of
    /// every tensor batch.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.stats.scalar_ops + self.makespan_time
    }

    /// Total tensor *work* (sum over units) — `time ×` utilization.
    #[must_use]
    pub fn tensor_work(&self) -> u64 {
        self.stats.tensor_time
    }

    /// Detailed counters (tensor_time holds total work, not makespan).
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// One-look digest of the run so far, in the serial machine's
    /// [`StatsSummary`] shape: invocation/row/time counters from
    /// `Stats`, wall-clock from [`Self::time`], and the per-unit pack
    /// caches summed into one line (`None` when no unit keeps a cache).
    /// The parallel issue paths take pre-lowered descriptors, so the
    /// logical-op kind breakdown is not tracked and reads zero.
    #[must_use]
    pub fn stats_summary(&self) -> StatsSummary {
        let mut pack: Option<PackCacheStats> = None;
        for e in &self.execs {
            if let Some(s) = e.cache_stats() {
                let agg = pack.get_or_insert_with(PackCacheStats::default);
                agg.lookups += s.lookups;
                agg.hits += s.hits;
                agg.misses += s.misses;
                agg.packed_bytes += s.packed_bytes;
                agg.evictions += s.evictions;
            }
        }
        StatsSummary {
            invocations: self.stats.tensor_calls,
            rows_charged: self.stats.tensor_rows,
            tensor_time: self.stats.tensor_time,
            scalar_ops: self.stats.scalar_ops,
            time: self.time(),
            pack_cache: pack,
            ..StatsSummary::default()
        }
    }

    /// The deterministic schedule this machine would use for a batch of
    /// ops, without executing anything: per-invocation unit assignment
    /// and per-unit loads under the unit's costing policy (an op that
    /// tall-splits contributes one schedulable invocation per tile, as
    /// [`TensorOp::invocations`] splits it).
    #[must_use]
    pub fn plan(&self, ops: &[TensorOp]) -> Partition {
        let costs: Vec<u64> = ops
            .iter()
            .flat_map(|op| {
                let (count, rows) = op.invocations(&self.unit);
                std::iter::repeat_n(self.unit.invocation_cost(rows), count)
            })
            .collect();
        partition_lpt(&costs, self.units())
    }

    /// Recovery counters accumulated by the fault-tolerant parallel driver
    /// (all zero on a fault-free run).
    #[must_use]
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Split the machine into its accounting half and its executors —
    /// the borrow seam of persistent-pool wave execution. The returned
    /// [`WaveAccountant`] owns mutable access to `Stats`, the trace,
    /// wall-clock, and [`FaultStats`]; the executor slice is free to be
    /// handed out element-wise to long-lived worker threads. The main
    /// thread can therefore keep charging, annotating, and completing
    /// waves for the whole run while every unit's executor lives on its
    /// own worker.
    pub fn wave_parts(&mut self) -> (WaveAccountant<'_, U>, &mut [E]) {
        (
            WaveAccountant {
                unit: &self.unit,
                stats: &mut self.stats,
                trace: &mut self.trace,
                clock: Some((&mut self.makespan_time, &mut self.fault_stats)),
                kinds: None,
                recorder: self.recorder.as_deref(),
            },
            &mut self.execs,
        )
    }

    /// Issue a batch of *independent* ops (`Cᵢ = Aᵢ·Bᵢ`): each op is
    /// validated and charged exactly as on the serial machine (including
    /// the tall-split into square invocations on units without native
    /// tall support), the resulting invocations are scheduled over
    /// [`partition_lpt`], wall-clock advances by the makespan, and every
    /// op's numerics run through the executor in batch order (scheduling
    /// is pure accounting, so results are independent of the partition).
    ///
    /// # Panics
    /// Panics if an op violates the model's shape contract or its views
    /// (same rules as [`crate::TcuMachine::issue`]), or if an op has
    /// `accumulate` set (batch products are returned, not accumulated).
    #[must_use]
    pub fn issue_batch<T: Scalar>(
        &mut self,
        batch: &[(TensorOp, MatrixView<'_, T>, MatrixView<'_, T>)],
    ) -> Vec<Matrix<T>> {
        let s = self.sqrt_m();
        let mut costs = Vec::with_capacity(batch.len());
        // Each op's first hardware invocation decides which unit runs
        // its numerics (a tall-split op's tiles may be billed across
        // units, but the product is computed once).
        let mut first_inv = Vec::with_capacity(batch.len());
        for (op, a, b) in batch {
            assert!(!op.accumulate, "batch ops return their products");
            assert!(
                op.matches((a.rows(), a.cols()), (b.rows(), b.cols())),
                "operands do not match the op descriptor"
            );
            op.validate(s);
            first_inv.push(costs.len());
            let (count, rows) = op.invocations(&self.unit);
            let cost = self.unit.invocation_cost(rows);
            let lat = self.unit.invocation_latency(rows);
            for _ in 0..count {
                self.stats.record_tensor(rows as u64, cost, lat);
                costs.push(cost);
            }
        }
        let partition = partition_lpt(&costs, self.units());
        self.makespan_time += partition.makespan();
        batch
            .iter()
            .zip(&first_inv)
            .map(|((op, a, b), &inv)| {
                let unit = partition.assignment.get(inv).copied().unwrap_or(0);
                let mut out = Matrix::<T>::zeros(op.rows, op.width);
                let _ = self.execs[unit].execute(op, *a, *b, &mut out.view_mut());
                out
            })
            .collect()
    }

    /// Issue a batch of *independent* tensor invocations
    /// (`Cᵢ = Aᵢ·Bᵢ`, each `Aᵢ : nᵢ × √m`, `Bᵢ : √m × √m`).
    ///
    /// # Panics
    /// Panics if shapes violate the model (same rules as
    /// [`crate::TcuMachine::tensor_mul`]).
    #[must_use]
    pub fn tensor_mul_batch<T: Scalar>(
        &mut self,
        ops: &[(&Matrix<T>, &Matrix<T>)],
    ) -> Vec<Matrix<T>> {
        let views: Vec<(MatrixView<'_, T>, MatrixView<'_, T>)> =
            ops.iter().map(|(a, b)| (a.view(), b.view())).collect();
        self.tensor_mul_batch_views(&views)
    }

    /// [`Self::tensor_mul_batch`] on borrowed operand views — the
    /// zero-copy path used by the §6 parallel algorithms, which carve
    /// every strip and weight block directly out of the input matrices.
    /// Thin wrapper: lowers each pair to a [`TensorOp`] and issues the
    /// batch.
    ///
    /// # Panics
    /// Panics if shapes violate the model.
    #[must_use]
    pub fn tensor_mul_batch_views<T: Scalar>(
        &mut self,
        ops: &[(MatrixView<'_, T>, MatrixView<'_, T>)],
    ) -> Vec<Matrix<T>> {
        let s = self.sqrt_m();
        let batch: Vec<(TensorOp, MatrixView<'_, T>, MatrixView<'_, T>)> = ops
            .iter()
            .map(|&(a, b)| (TensorOp::mul(a.rows(), s), a, b))
            .collect();
        self.issue_batch(&batch)
    }
}

/// The accounting half of a machine, borrowed apart from its executors
/// via [`ParallelTcuMachine::wave_parts`] or
/// [`crate::TcuMachine::wave_parts`].
///
/// Scheduled execution needs two disjoint capabilities at once: the
/// parallel driver's worker threads (or the serial run, on a serial
/// machine's one executor) need exclusive access to each unit's
/// executor, and the main thread needs to keep metering charges,
/// recovery annotations, and makespans in canonical order. This split
/// makes that borrow structure explicit — every method here touches
/// only the shared costing policy and the accounting state, never an
/// executor.
#[derive(Debug)]
pub struct WaveAccountant<'m, U: TensorUnit> {
    pub(crate) unit: &'m U,
    pub(crate) stats: &'m mut Stats,
    pub(crate) trace: &'m mut Option<TraceLog>,
    /// A parallel machine's makespan clock and recovery counters. `None`
    /// on a serial machine, whose clock is its `Stats`: its scheduled
    /// runs neither retry nor quarantine, so there is nothing to count.
    pub(crate) clock: Option<(&'m mut u64, &'m mut FaultStats)>,
    /// A serial machine's logical-op kind counters (its
    /// [`StatsSummary`] breakdown), indexed `2·padded + accumulate`; a
    /// parallel machine keeps none.
    pub(crate) kinds: Option<&'m mut [u64; 4]>,
    /// The machine's recorder: fault/retry/quarantine annotations gain
    /// scheduler-lane instant events when one is attached.
    pub(crate) recorder: Option<&'m dyn tcu_obs::Recorder>,
}

impl<U: TensorUnit> WaveAccountant<'_, U> {
    /// `√m` of the units.
    #[inline]
    #[must_use]
    pub fn sqrt_m(&self) -> usize {
        self.unit.sqrt_m()
    }

    /// The shared costing policy.
    #[inline]
    #[must_use]
    pub fn unit(&self) -> &U {
        self.unit
    }

    /// The total simulated cost one scheduled op will be charged (the
    /// sum over its hardware invocations) — what
    /// [`Self::charge_wave_op`] adds to `tensor_time`, computed without
    /// charging. The parallel driver stamps it into telemetry so per-op
    /// execute spans carry both wall ns and model cost.
    ///
    /// # Panics
    /// Panics if `op` violates the model's shape contract.
    #[must_use]
    pub fn op_cost(&self, op: &TensorOp) -> u64 {
        op.validate(self.sqrt_m());
        let (count, rows) = op.invocations(self.unit);
        count as u64 * self.unit.invocation_cost(rows)
    }

    /// Emit an instant scheduler-lane telemetry event, when recording.
    fn record_instant(&self, kind: tcu_obs::EventKind) {
        if let Some(rec) = self.recorder {
            let t = rec.now_ns();
            rec.record(
                tcu_obs::Lane::Scheduler,
                tcu_obs::SpanEvent {
                    kind,
                    t_ns: t,
                    dur_ns: 0,
                },
            );
        }
    }

    /// Meter one op without executing it: validate against the model,
    /// then record its hardware invocations ([`TensorOp::invocations`])
    /// into `Stats` and the trace, one event per invocation with `rows`
    /// set to what each invocation streams. The serial machine's issue
    /// path charges through here too, so a scheduled driver that charges
    /// every op in canonical order *before* any numerics run produces
    /// `Stats` and a trace byte-identical to eager issue, whatever the
    /// execution interleaving. Wall-clock is not advanced here; see
    /// [`Self::complete_wave`]. Returns the total simulated cost charged.
    ///
    /// # Panics
    /// Panics if `op` violates the model's shape contract.
    pub fn charge_wave_op(&mut self, op: &TensorOp) -> u64 {
        op.validate(self.sqrt_m());
        if let Some(kinds) = self.kinds.as_deref_mut() {
            kinds[2 * usize::from(op.pad == PadPolicy::ZeroPad) + usize::from(op.accumulate)] += 1;
        }
        let (count, rows) = op.invocations(self.unit);
        let cost = self.unit.invocation_cost(rows);
        let lat = self.unit.invocation_latency(rows);
        for _ in 0..count {
            self.stats.record_tensor(rows as u64, cost, lat);
            if let Some(t) = self.trace.as_mut() {
                t.push_tensor(TensorOp { rows, ..*op }, cost);
            }
        }
        count as u64 * cost
    }

    /// Advance simulated wall-clock by a completed schedule's makespan
    /// (the charge [`Self::charge_wave_op`] leaves out).
    pub fn complete_wave(&mut self, makespan: u64) {
        if let Some((time, _)) = &mut self.clock {
            **time += makespan;
        }
    }

    /// Record a contained unit fault (transient or permanent) as a
    /// trace annotation plus, on a parallel machine, a [`FaultStats`]
    /// counter. Never touches `Stats` — recovery must be unobservable
    /// there.
    pub fn record_fault(&mut self, unit: usize, transient: bool) {
        if let Some((_, faults)) = &mut self.clock {
            if transient {
                faults.transient_faults += 1;
            } else {
                faults.permanent_faults += 1;
            }
        }
        if let Some(t) = self.trace.as_mut() {
            t.push_fault(unit, transient);
        }
        self.record_instant(tcu_obs::EventKind::Fault {
            unit: unit as u32,
            transient,
        });
    }

    /// Record a retry of a `rows`-row op on `unit` and charge its
    /// simulated backoff into wall-clock: the op's invocation cost
    /// again, doubled per extra attempt (`attempt` counts from 2, the
    /// first retry). The charge lands in the machine's
    /// [`ParallelTcuMachine::time`], never in `Stats`. Returns the
    /// backoff charged.
    pub fn record_retry(&mut self, unit: usize, attempt: u32, rows: usize) -> u64 {
        let backoff = self
            .unit
            .invocation_cost(rows)
            .wrapping_shl(attempt.saturating_sub(2));
        if let Some((time, faults)) = &mut self.clock {
            faults.retries += 1;
            faults.backoff_time += backoff;
            **time += backoff;
        }
        if let Some(t) = self.trace.as_mut() {
            t.push_retry(unit, attempt, backoff);
        }
        self.record_instant(tcu_obs::EventKind::Retry {
            unit: unit as u32,
            attempt,
            backoff,
        });
        backoff
    }

    /// Record the quarantine of `unit` with `requeued` ops moved onto
    /// survivors.
    pub fn record_quarantine(&mut self, unit: usize, requeued: usize) {
        if let Some((_, faults)) = &mut self.clock {
            faults.quarantined_units += 1;
            faults.requeued_ops += requeued as u64;
        }
        if let Some(t) = self.trace.as_mut() {
            t.push_quarantine(unit, requeued);
        }
        self.record_instant(tcu_obs::EventKind::Quarantine {
            unit: unit as u32,
            requeued: requeued as u64,
        });
    }

    /// Charge the extra simulated makespan of a recovery pass (the LPT
    /// makespan of the requeued ops over the surviving units). Like
    /// backoff, this lands in wall-clock only.
    pub fn charge_recovery(&mut self, makespan: u64) {
        if let Some((time, faults)) = &mut self.clock {
            faults.recovery_makespan += makespan;
            **time += makespan;
        }
    }

    /// Record one ready-deque dispatch of the dataflow driver: `depth`
    /// chains whose dependency frontier cleared were handed to `unit` in
    /// a single batch. Telemetry only — never touches `Stats`, the trace,
    /// or wall-clock — so a recorder-off run skips it entirely.
    pub fn record_ready(&self, unit: usize, depth: usize) {
        self.record_instant(tcu_obs::EventKind::Ready {
            unit: unit as u32,
            depth: depth as u32,
        });
    }
}

/// A deterministic schedule of op costs onto `p` identical units.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[i]` is the unit op `i` runs on.
    pub assignment: Vec<usize>,
    /// Total cost assigned to each unit.
    pub loads: Vec<u64>,
}

impl Partition {
    /// The batch's simulated wall-clock: the maximum unit load.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }
}

/// Deterministic LPT (longest-processing-time-first) partition of
/// `costs` onto `p` identical units: ops are placed in decreasing cost
/// order (ties broken by lower index first) onto the currently
/// least-loaded unit (ties broken by lower unit index). Determinism is
/// the point — the same batch always maps to the same partition, so
/// recorded schedules can be re-derived exactly (cf. deterministic
/// work-unit partitioning in Bobpp-style runtimes).
///
/// # Panics
/// Panics if `p == 0`.
#[must_use]
pub fn partition_lpt(costs: &[u64], p: usize) -> Partition {
    assert!(p >= 1, "need at least one unit");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut assignment = vec![0usize; costs.len()];
    let mut loads = vec![0u64; p];
    for i in order {
        // `p >= 1` is asserted above, so the minimum always exists.
        let unit = (0..p).min_by_key(|&u| (loads[u], u)).unwrap_or(0);
        assignment[i] = unit;
        loads[unit] += costs[i];
    }
    Partition { assignment, loads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor_unit::ModelTensorUnit;

    fn batch_inputs(k: usize, rows: usize, s: usize) -> Vec<(Matrix<i64>, Matrix<i64>)> {
        (0..k)
            .map(|t| {
                (
                    Matrix::from_fn(rows, s, |i, j| (i + j + t) as i64),
                    Matrix::from_fn(s, s, |i, j| (i * 2 + j + t) as i64),
                )
            })
            .collect()
    }

    fn makespan(costs: &[u64], p: usize) -> u64 {
        partition_lpt(costs, p).makespan()
    }

    #[test]
    fn makespan_basics() {
        assert_eq!(makespan(&[], 4), 0);
        assert_eq!(makespan(&[10], 4), 10);
        assert_eq!(makespan(&[10, 10, 10, 10], 2), 20);
        assert_eq!(makespan(&[10, 10, 10], 2), 20);
        // LPT: 7,5,4,3 on 2 machines -> 7+3=10, 5+4=9 -> 10.
        assert_eq!(makespan(&[7, 5, 4, 3], 2), 10);
    }

    #[test]
    fn partition_is_deterministic_and_consistent() {
        let costs = [7u64, 5, 7, 3, 5];
        let part = partition_lpt(&costs, 2);
        assert_eq!(part, partition_lpt(&costs, 2));
        // Loads must be the per-unit sums of the assignment.
        let mut loads = vec![0u64; 2];
        for (i, &u) in part.assignment.iter().enumerate() {
            loads[u] += costs[i];
        }
        assert_eq!(loads, part.loads);
        // Equal costs tie-break by index: op 0 before op 2.
        assert_eq!(part.assignment[0], 0);
        assert_eq!(part.assignment[2], 1);
    }

    #[test]
    fn plan_matches_charged_makespan() {
        let (m, l, p) = (16usize, 100u64, 4usize);
        let mut mach = ParallelTcuMachine::new(ModelTensorUnit::new(m, l), p);
        let ops: Vec<TensorOp> = (0..8).map(|_| TensorOp::mul(4, 4)).collect();
        let plan = mach.plan(&ops);
        let inputs = batch_inputs(8, 4, 4);
        let refs: Vec<(&Matrix<i64>, &Matrix<i64>)> = inputs.iter().map(|(a, b)| (a, b)).collect();
        let _ = mach.tensor_mul_batch(&refs);
        assert_eq!(mach.time(), plan.makespan());
    }

    #[test]
    fn equal_calls_split_evenly() {
        let (m, l, p) = (16usize, 100u64, 4usize);
        let mut mach = ParallelTcuMachine::new(ModelTensorUnit::new(m, l), p);
        let inputs = batch_inputs(8, 4, 4);
        let refs: Vec<(&Matrix<i64>, &Matrix<i64>)> = inputs.iter().map(|(a, b)| (a, b)).collect();
        let out = mach.tensor_mul_batch(&refs);
        assert_eq!(out.len(), 8);
        // 8 calls of cost 16+100 on 4 units: makespan = 2 calls each.
        assert_eq!(mach.time(), 2 * (16 + 100));
        // Work is all 8 calls.
        assert_eq!(mach.tensor_work(), 8 * (16 + 100));
    }

    #[test]
    fn results_match_serial_machine() {
        let mut par = ParallelTcuMachine::new(ModelTensorUnit::new(16, 5), 3);
        let mut ser = crate::TcuMachine::model(16, 5);
        let inputs = batch_inputs(5, 8, 4);
        let refs: Vec<(&Matrix<i64>, &Matrix<i64>)> = inputs.iter().map(|(a, b)| (a, b)).collect();
        let out = par.tensor_mul_batch(&refs);
        for (i, (a, b)) in inputs.iter().enumerate() {
            assert_eq!(out[i], ser.tensor_mul(a, b));
        }
        assert!(
            par.time() < ser.time(),
            "3 units must beat 1 on 5 independent calls"
        );
    }

    #[test]
    fn one_unit_equals_serial_time() {
        let mut par = ParallelTcuMachine::new(ModelTensorUnit::new(16, 7), 1);
        let inputs = batch_inputs(4, 6, 4);
        let refs: Vec<(&Matrix<i64>, &Matrix<i64>)> = inputs.iter().map(|(a, b)| (a, b)).collect();
        let _ = par.tensor_mul_batch(&refs);
        assert_eq!(par.time(), 4 * (6 * 4 + 7));
    }

    #[test]
    fn speedup_saturates_at_batch_width() {
        // More units than independent calls: no further gain.
        let inputs = batch_inputs(3, 4, 4);
        let refs: Vec<(&Matrix<i64>, &Matrix<i64>)> = inputs.iter().map(|(a, b)| (a, b)).collect();
        let mut p3 = ParallelTcuMachine::new(ModelTensorUnit::new(16, 0), 3);
        let _ = p3.tensor_mul_batch(&refs);
        let mut p8 = ParallelTcuMachine::new(ModelTensorUnit::new(16, 0), 8);
        let refs2: Vec<(&Matrix<i64>, &Matrix<i64>)> = inputs.iter().map(|(a, b)| (a, b)).collect();
        let _ = p8.tensor_mul_batch(&refs2);
        assert_eq!(p3.time(), p8.time());
    }

    #[test]
    fn weak_units_split_tall_batch_ops_like_serial() {
        use crate::tensor_unit::WeakTensorUnit;
        // One 12-row tall op (3 square tiles) plus one square op = 4
        // invocations, matching the serial weak machine's accounting.
        let inputs = [
            batch_inputs(1, 12, 4).remove(0),
            batch_inputs(1, 4, 4).remove(0),
        ];
        let refs: Vec<(&Matrix<i64>, &Matrix<i64>)> = inputs.iter().map(|(a, b)| (a, b)).collect();
        let mut par = ParallelTcuMachine::new(WeakTensorUnit::new(16, 7), 2);
        let out = par.tensor_mul_batch(&refs);
        let mut ser = crate::TcuMachine::weak(16, 7);
        for (i, (a, b)) in inputs.iter().enumerate() {
            assert_eq!(out[i], ser.tensor_mul(a, b));
        }
        assert_eq!(par.stats(), ser.stats());
        assert_eq!(par.stats().tensor_calls, 4);
        // 4 equal invocations on 2 units: makespan = 2 calls.
        assert_eq!(par.time(), 2 * (16 + 7));
        // plan() agrees with what the batch charged.
        let ops = [TensorOp::mul(12, 4), TensorOp::mul(4, 4)];
        assert_eq!(par.plan(&ops).makespan(), par.time());
    }

    #[test]
    fn scalar_work_stays_serial() {
        let mut mach = ParallelTcuMachine::new(ModelTensorUnit::new(16, 0), 8);
        mach.charge(1000);
        assert_eq!(mach.time(), 1000);
    }

    #[test]
    fn scheduled_issue_path_matches_serial_charges_and_numerics() {
        use crate::exec::OperandId;
        // Two independent 8-row ops on 2 units through the accountant /
        // executor split: per-op Stats equal the serial machine's,
        // wall-clock is the completed makespan.
        let inputs = batch_inputs(2, 8, 4);
        let mut par = ParallelTcuMachine::new(ModelTensorUnit::new(16, 7), 2);
        par.enable_pack_caches(4);
        let mut ser = crate::TcuMachine::model(16, 7);
        let mut outs = vec![Matrix::<i64>::zeros(8, 4), Matrix::<i64>::zeros(8, 4)];
        let (mut acct, execs) = par.wave_parts();
        for (u, ((a, b), out)) in inputs.iter().zip(&mut outs).enumerate() {
            let id = OperandId {
                buffer: u as u64,
                generation: 0,
                origin: (0, 0),
                extent: (8, 4),
            };
            let op = TensorOp::mul(8, 4);
            acct.charge_wave_op(&op);
            let _ = execs[u].execute_tagged(&op, a.view(), Some(id), b.view(), &mut out.view_mut());
        }
        acct.complete_wave(8 * 4 + 7);
        for (i, (a, b)) in inputs.iter().enumerate() {
            assert_eq!(outs[i], ser.tensor_mul(a, b));
        }
        assert_eq!(par.stats(), ser.stats());
        assert_eq!(par.time(), 8 * 4 + 7);
        // Each unit packed its own strip once: per-unit caches.
        for u in 0..2 {
            let c = par.unit_executor(u).pack_cache_stats().expect("cache on");
            assert_eq!((c.misses, c.hits), (1, 0), "unit {u}");
        }
    }

    #[test]
    fn recovery_accounting_charges_time_but_never_stats() {
        let mut mach = ParallelTcuMachine::new(ModelTensorUnit::new(16, 7), 2);
        mach.enable_trace();
        let clean_stats = mach.stats().clone();

        let (mut acct, _) = mach.wave_parts();
        acct.record_fault(1, true);
        let b1 = acct.record_retry(1, 2, 8); // first retry: 1× cost
        let b2 = acct.record_retry(1, 3, 8); // second retry: 2× cost
        acct.record_fault(0, false);
        acct.record_quarantine(0, 3);
        acct.charge_recovery(100);

        let cost = 8 * 4 + 7;
        assert_eq!((b1, b2), (cost, 2 * cost));
        assert_eq!(mach.time(), b1 + b2 + 100, "backoff + recovery in time()");
        assert_eq!(mach.stats(), &clean_stats, "Stats must stay untouched");
        let fs = mach.fault_stats();
        assert_eq!(fs.transient_faults, 1);
        assert_eq!(fs.permanent_faults, 1);
        assert_eq!(fs.retries, 2);
        assert_eq!(fs.backoff_time, b1 + b2);
        assert_eq!(fs.quarantined_units, 1);
        assert_eq!(fs.requeued_ops, 3);
        assert_eq!(fs.recovery_makespan, 100);

        let trace = mach.take_trace();
        assert_eq!(trace.fault_events().len(), 5);
        assert_eq!(trace.digest(), TraceLog::new().digest());
    }
}
