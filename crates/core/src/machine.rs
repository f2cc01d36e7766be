//! The simulated (m, ℓ)-TCU machine.
//!
//! [`TcuMachine`] couples a [`TensorUnit`] costing policy, an
//! [`Executor`] numeric backend, and the metering state ([`Stats`],
//! optional [`TraceLog`]). It exposes the model's two primitive actions:
//!
//! * [`TcuMachine::charge`] — scalar CPU work, one time unit per operation;
//! * [`TcuMachine::issue`] — the tensor instruction, described by a
//!   [`TensorOp`]: `C = A·B` with `A` of shape `n × √m` (`n ≥ √m`) and
//!   `B` of shape `√m × √m`.
//!
//! Every public `tensor_mul*` variant is a thin wrapper that lowers to
//! one `TensorOp` and routes it through the single
//! [`TcuMachine::issue_into`] entry point; accounting (the `TensorUnit`
//! charge, `Stats`, the trace) and numerics (the `Executor`) never mix,
//! so swapping backends cannot perturb simulated time.
//!
//! The machine is generic over the element type *per call*, not per
//! machine: the model's words are κ-bit and opaque (§3), so the same
//! machine instance may multiply `f64` matrices in one call and `i64`
//! matrices in the next — exactly as the paper's algorithms do (reals for
//! GE, integers for transitive closure, complex numbers for the DFT).

use crate::cost::{Stats, StatsSummary};
use crate::exec::{Executor, HostExecutor, OperandId};
use crate::op::{PadPolicy, TensorOp};
use crate::parallel::WaveAccountant;
use crate::tensor_unit::{ModelTensorUnit, TensorUnit, WeakTensorUnit};
use crate::trace::TraceLog;
use std::sync::Arc;
use tcu_linalg::{Matrix, MatrixView, MatrixViewMut, Scalar};

/// A simulated RAM with an attached tensor unit, metering simulated time.
///
/// `U` decides what invocations *cost*; `E` decides how their numerics
/// are *computed* (default: the tiled host kernels).
#[derive(Clone, Debug)]
pub struct TcuMachine<U: TensorUnit, E: Executor = HostExecutor> {
    unit: U,
    exec: E,
    stats: Stats,
    trace: Option<TraceLog>,
    /// Logical ops issued, by (accumulate, pad) kind — the
    /// [`StatsSummary`] breakdown. Not part of [`Stats`] (the pinned
    /// accounting surface) and not reconstructed by [`Self::replay`],
    /// which only sees per-invocation events.
    issued_kinds: [u64; 4],
    /// Execution-telemetry sink (`tcu-obs`), `None` unless opted in via
    /// [`Self::enable_recorder`] or `TCU_TRACE_OUT`. Strictly an
    /// observer: it sees wall-clock and already-charged quantities, so
    /// `Stats`/trace/results are identical with or without it.
    recorder: Option<Arc<dyn tcu_obs::Recorder>>,
}

impl TcuMachine<ModelTensorUnit> {
    /// The standard (m, ℓ)-TCU: tall left operands stream natively.
    ///
    /// # Panics
    /// Panics unless `m ≥ 1` is a perfect square.
    #[must_use]
    pub fn model(m: usize, latency: u64) -> Self {
        Self::new(ModelTensorUnit::new(m, latency))
    }
}

impl TcuMachine<WeakTensorUnit> {
    /// The §5 weak TCU: only square `√m × √m` invocations.
    ///
    /// # Panics
    /// Panics unless `m ≥ 1` is a perfect square.
    #[must_use]
    pub fn weak(m: usize, latency: u64) -> Self {
        Self::new(WeakTensorUnit::new(m, latency))
    }
}

impl<U: TensorUnit> TcuMachine<U> {
    /// Wrap an arbitrary costing policy over the default host-kernel
    /// backend. Host execution starts single-threaded unless
    /// `TCU_HOST_THREADS` requests more workers.
    #[must_use]
    pub fn new(unit: U) -> Self {
        Self::with_executor(unit, HostExecutor::new())
    }

    /// Opt in to (or back out of) parallel host execution of tensor
    /// instructions. Affects wall-clock only: simulated time, `Stats`,
    /// traces, and numeric results are identical for every value — the
    /// kernel's row-band split is deterministic.
    pub fn set_host_threads(&mut self, threads: usize) {
        self.exec.set_threads(threads);
    }

    /// Current host worker count for tensor-instruction execution.
    #[inline]
    #[must_use]
    pub fn host_threads(&self) -> usize {
        self.exec.threads()
    }
}

impl<U: TensorUnit, E: Executor> TcuMachine<U, E> {
    /// Couple a costing policy with an explicit numeric backend — e.g.
    /// `tcu_systolic::SystolicExecutor` for cycle-level array numerics,
    /// or [`crate::ReplayExecutor`] for accounting-only runs.
    #[must_use]
    pub fn with_executor(unit: U, exec: E) -> Self {
        let mut mach = Self {
            unit,
            exec,
            stats: Stats::default(),
            trace: None,
            issued_kinds: [0; 4],
            recorder: None,
        };
        // `TCU_TRACE_OUT=<path>` turns tracing on process-wide with no
        // caller changes: every machine built after the first check
        // feeds the global sink.
        if let Some(sink) = tcu_obs::env_recorder() {
            mach.enable_recorder(sink);
        }
        mach
    }

    /// Attach an execution-telemetry recorder: per-op execute spans
    /// land on the recorder's unit-0 lane (a serial machine is one
    /// unit), and the executor gets the chance to emit its own events
    /// (pack-cache traffic). Purely observational — simulated time,
    /// `Stats`, traces, and results are unchanged.
    pub fn enable_recorder(&mut self, recorder: Arc<dyn tcu_obs::Recorder>) {
        self.exec.attach_recorder(Arc::clone(&recorder), 0);
        self.recorder = Some(recorder);
    }

    /// The attached telemetry recorder, if any.
    #[must_use]
    pub fn recorder_handle(&self) -> Option<Arc<dyn tcu_obs::Recorder>> {
        self.recorder.clone()
    }

    /// The numeric backend.
    #[inline]
    #[must_use]
    pub fn executor(&self) -> &E {
        &self.exec
    }

    /// Mutable access to the numeric backend (e.g. to re-tune it).
    #[inline]
    pub fn executor_mut(&mut self) -> &mut E {
        &mut self.exec
    }

    /// `√m` of the attached unit.
    #[inline]
    #[must_use]
    pub fn sqrt_m(&self) -> usize {
        self.unit.sqrt_m()
    }

    /// Hardware capacity `m`.
    #[inline]
    #[must_use]
    pub fn m(&self) -> usize {
        self.unit.m()
    }

    /// Per-invocation latency ℓ.
    #[inline]
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.unit.latency()
    }

    /// The costing policy.
    #[inline]
    #[must_use]
    pub fn unit(&self) -> &U {
        &self.unit
    }

    /// Charge `ops` scalar CPU operations (1 time unit each).
    #[inline]
    pub fn charge(&mut self, ops: u64) {
        self.stats.record_scalar(ops);
        if let Some(t) = &mut self.trace {
            t.push_scalar(ops);
        }
    }

    /// Total simulated time so far.
    #[inline]
    #[must_use]
    pub fn time(&self) -> u64 {
        self.stats.time()
    }

    /// Detailed counters.
    #[inline]
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Zero all counters (and any in-progress trace).
    pub fn reset(&mut self) {
        self.stats = Stats::default();
        self.issued_kinds = [0; 4];
        if let Some(t) = &mut self.trace {
            *t = TraceLog::new();
        }
    }

    /// One-look digest of everything issued so far: the [`Stats`]
    /// counters plus the per-kind breakdown of logical ops, plus the
    /// executor's pack-cache counters when it keeps a cache. The kind
    /// counts come from the issue path, so a replayed trace contributes
    /// invocations and rows but no logical-op kinds.
    #[must_use]
    pub fn stats_summary(&self) -> StatsSummary {
        let [muls, mul_accs, padded, padded_accs] = self.issued_kinds;
        StatsSummary {
            ops_issued: self.issued_kinds.iter().sum(),
            muls,
            mul_accs,
            padded,
            padded_accs,
            invocations: self.stats.tensor_calls,
            rows_charged: self.stats.tensor_rows,
            tensor_time: self.stats.tensor_time,
            scalar_ops: self.stats.scalar_ops,
            time: self.stats.time(),
            pack_cache: self.exec.cache_stats(),
        }
    }

    /// Start recording an execution trace (for the §5 external-memory
    /// replay); any previous trace is discarded.
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

    /// The single tensor-instruction entry point: validate `op` against
    /// the unit and the operand views, charge it under the costing
    /// policy (recording one trace event per hardware invocation), and
    /// hand the numerics to the executor, which computes
    /// `out (+)= A·B` per `op.accumulate`.
    ///
    /// # Panics
    /// Panics if `op` violates the model's shape contract for this
    /// unit, or if the views do not carry `op`'s operand shapes, or if
    /// `out` is not `op.rows × op.width`.
    pub fn issue_into<T: Scalar>(
        &mut self,
        op: TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) {
        self.issue_into_tagged(op, a, None, b, out);
    }

    /// [`Self::issue_into`] with the left operand's provenance attached:
    /// `a_id` names the logical buffer region (and write-generation) the
    /// view was carved from, letting the executor cache derived forms of
    /// it across invocations (see [`crate::OperandId`] and
    /// `HostExecutor::enable_pack_cache`). Accounting is identical to
    /// the untagged path — the tag only reaches the numeric backend.
    ///
    /// # Panics
    /// Same shape rules as [`Self::issue_into`].
    pub fn issue_into_tagged<T: Scalar>(
        &mut self,
        op: TensorOp,
        a: MatrixView<'_, T>,
        a_id: Option<OperandId>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) {
        assert_eq!(
            (a.rows(), a.cols()),
            (op.rows, op.inner),
            "left operand does not match the op descriptor"
        );
        match op.pad {
            PadPolicy::Strict => assert_eq!(
                (b.rows(), b.cols()),
                (op.inner, op.width),
                "right operand must be √m × √m"
            ),
            PadPolicy::ZeroPad => {
                assert_eq!(b.rows(), op.inner, "inner dimensions must agree");
                assert_eq!(
                    b.cols(),
                    op.width,
                    "right operand does not match the op descriptor"
                );
            }
        }
        op.validate(self.sqrt_m());
        assert_eq!(
            (out.rows(), out.cols()),
            (op.rows, op.width),
            "matmul_acc: output shape mismatch"
        );
        let sim_cost = self.wave_parts().0.charge_wave_op(&op);
        let start = self.recorder.as_ref().map(|r| r.now_ns());
        let _ = self.exec.execute_tagged(&op, a, a_id, b, out);
        if let (Some(rec), Some(t0)) = (self.recorder.as_ref(), start) {
            rec.record(
                tcu_obs::Lane::Unit(0),
                tcu_obs::SpanEvent {
                    kind: tcu_obs::EventKind::OpExec {
                        unit: 0,
                        rows: op.charge_rows(self.unit.sqrt_m()) as u64,
                        sim_cost,
                    },
                    t_ns: t0,
                    dur_ns: rec.now_ns().saturating_sub(t0),
                },
            );
        }
    }

    /// [`Self::issue_into`] allocating the `rows × width` product
    /// (for non-accumulating ops).
    ///
    /// # Panics
    /// Shape rules of [`Self::issue_into`], plus `op.accumulate` must
    /// be `false` (an accumulating op needs a destination to add into).
    #[must_use]
    pub fn issue<T: Scalar>(
        &mut self,
        op: TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
    ) -> Matrix<T> {
        assert!(
            !op.accumulate,
            "accumulating ops need a destination: use issue_into"
        );
        let mut out = Matrix::<T>::zeros(op.rows, op.width);
        self.issue_into(op, a, b, &mut out.view_mut());
        out
    }

    /// Re-run a recorded trace as a program through this machine's
    /// costing policy: every tensor event is re-charged per recorded
    /// invocation (tall splits were applied when the trace was
    /// recorded) and every scalar segment re-billed — no numerics run.
    /// Replaying a trace on a machine with the unit that recorded it
    /// reproduces `Stats` and the trace stream exactly.
    pub fn replay(&mut self, trace: &TraceLog) {
        crate::exec::replay_events(trace, &self.unit, &mut self.stats, self.trace.as_mut());
    }

    /// The tensor instruction: `C = A·B` where `A` is `n × √m` with
    /// `n ≥ √m` and `B` is `√m × √m` (§3). On a unit without native tall
    /// support (the weak model), the left operand is split into `⌈n/√m⌉`
    /// square tiles, one invocation each.
    ///
    /// The numeric result is the exact ring product; the time charged is
    /// whatever the unit's policy dictates. Operand marshalling is covered
    /// by the invocation charge and not billed separately.
    ///
    /// # Panics
    /// Panics if shapes violate the model (`A.cols ≠ √m`, `B ≠ √m × √m`,
    /// or `A.rows < √m`); use [`Self::tensor_mul_padded`] for undersized
    /// operands.
    #[must_use]
    pub fn tensor_mul<T: Scalar>(&mut self, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        self.tensor_mul_view(a.view(), b.view())
    }

    /// [`Self::tensor_mul`] on borrowed operand views: the zero-copy hot
    /// path. Blocked algorithms pass subviews of their larger matrices
    /// directly, so no block is materialized just to be multiplied.
    ///
    /// # Panics
    /// Same shape rules as [`Self::tensor_mul`].
    #[must_use]
    pub fn tensor_mul_view<T: Scalar>(
        &mut self,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
    ) -> Matrix<T> {
        self.issue(strict_op(&a, &b, false), a, b)
    }

    /// [`Self::tensor_mul_view`] with the product accumulated straight
    /// into `out` (`out += A·B`) — the `D = A·B + C` dataflow of real
    /// tensor cores, exposed as a *host-level* fusion: the simulated
    /// charge is exactly that of `tensor_mul`, and callers that bill the
    /// accumulation as CPU work (Theorem 2's "final summation") must
    /// still [`Self::charge`] it explicitly, so `Stats`/trace output is
    /// identical to the product-then-add flow. What the fusion removes
    /// is the host's intermediate product matrix and second pass.
    ///
    /// # Panics
    /// Shape rules of [`Self::tensor_mul_view`], plus `out` must be
    /// `a.rows × √m`.
    pub fn tensor_mul_acc_view<T: Scalar>(
        &mut self,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) {
        self.issue_into(strict_op(&a, &b, true), a, b, out);
    }

    /// Convenience wrapper for operands smaller than the unit's footprint:
    /// zero-pads `A` (columns up to `√m`, rows up to `√m`) and `B` (up to
    /// `√m × √m`, top-left aligned), issues the padded instruction, and
    /// trims the result back to `A.rows × B.cols`. The charge is that of
    /// the *padded* call — undersized work still pays for the full
    /// hardware footprint, exactly why the paper's base cases stop at the
    /// unit's size rather than below it.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or exceed `√m`.
    #[must_use]
    pub fn tensor_mul_padded<T: Scalar>(&mut self, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        self.tensor_mul_padded_view(a.view(), b.view())
    }

    /// [`Self::tensor_mul_padded`] on borrowed operand views (see
    /// [`Self::tensor_mul_view`]).
    ///
    /// # Panics
    /// Same shape rules as [`Self::tensor_mul_padded`].
    #[must_use]
    pub fn tensor_mul_padded_view<T: Scalar>(
        &mut self,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
    ) -> Matrix<T> {
        self.issue(TensorOp::padded(a.rows(), a.cols(), b.cols()), a, b)
    }

    /// Split the machine into its accounting half and its executor, as
    /// a one-unit slice: the serial counterpart of
    /// [`crate::ParallelTcuMachine::wave_parts`], through which every
    /// op is charged (eagerly by [`Self::issue_into`], up front by a
    /// scheduled run). The accountant counts logical-op kinds and keeps
    /// no makespan clock or fault counters — a serial machine's time is
    /// its `Stats`.
    pub fn wave_parts(&mut self) -> (WaveAccountant<'_, U>, &mut [E]) {
        (
            WaveAccountant {
                unit: &self.unit,
                stats: &mut self.stats,
                trace: &mut self.trace,
                clock: None,
                kinds: Some(&mut self.issued_kinds),
                recorder: self.recorder.as_deref(),
            },
            std::slice::from_mut(&mut self.exec),
        )
    }
}

/// Lower a strict `tensor_mul*` call to its descriptor: the op records
/// the shapes the caller actually passed, so [`TensorOp::validate`]
/// reports model-contract violations (wrong width, too few rows) with
/// the operands' dimensions.
fn strict_op<T: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    accumulate: bool,
) -> TensorOp {
    TensorOp {
        rows: a.rows(),
        inner: a.cols(),
        width: b.cols(),
        accumulate,
        pad: PadPolicy::Strict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ReplayExecutor;
    use crate::trace::TraceEvent;
    use tcu_linalg::ops::matmul_naive;

    fn iota(r: usize, c: usize) -> Matrix<i64> {
        Matrix::from_fn(r, c, |i, j| (i * c + j + 1) as i64)
    }

    #[test]
    fn view_call_equals_owned_call_in_result_and_cost() {
        let big = Matrix::from_fn(16, 12, |i, j| (3 * i + 5 * j) as i64);
        let wts = Matrix::from_fn(8, 8, |i, j| (i * 2 + j) as i64);
        let a = big.block(2, 3, 8, 4);
        let b = wts.block(2, 2, 4, 4);

        let mut owned = TcuMachine::model(16, 9);
        let c_owned = owned.tensor_mul(&a, &b);
        let mut viewed = TcuMachine::model(16, 9);
        let c_viewed = viewed.tensor_mul_view(big.subview(2, 3, 8, 4), wts.subview(2, 2, 4, 4));
        assert_eq!(c_owned, c_viewed);
        assert_eq!(owned.stats(), viewed.stats());
        assert_eq!(c_owned, matmul_naive(&a, &b));
    }

    #[test]
    fn host_threads_change_nothing_observable() {
        // 2049 × 64 × 64 multiply-adds: just over two bands' minimum
        // work, so 4 host threads split it into two real bands (threads
        // are clamped so every band gets the kernel's minimum work).
        let a = iota(2049, 64);
        let b = iota(64, 64);
        let mut serial = TcuMachine::model(64 * 64, 3);
        serial.enable_trace();
        let cs = serial.tensor_mul(&a, &b);

        let mut parallel = TcuMachine::model(64 * 64, 3);
        parallel.set_host_threads(4);
        assert_eq!(parallel.host_threads(), 4);
        parallel.enable_trace();
        let cp = parallel.tensor_mul(&a, &b);

        assert_eq!(cs, cp);
        assert_eq!(serial.stats(), parallel.stats());
        assert_eq!(serial.take_trace(), parallel.take_trace());
    }

    #[test]
    fn square_call_costs_m_plus_latency() {
        let mut mach = TcuMachine::model(16, 7);
        let a = iota(4, 4);
        let b = Matrix::<i64>::identity(4);
        let c = mach.tensor_mul(&a, &b);
        assert_eq!(c, a);
        assert_eq!(mach.time(), 16 + 7);
        assert_eq!(mach.stats().tensor_calls, 1);
        assert_eq!(mach.stats().tensor_rows, 4);
    }

    #[test]
    fn tall_call_streams_rows() {
        let mut mach = TcuMachine::model(16, 100);
        let a = iota(32, 4);
        let b = iota(4, 4);
        let c = mach.tensor_mul(&a, &b);
        assert_eq!(c, matmul_naive(&a, &b));
        // one invocation: 32·4 + 100
        assert_eq!(mach.time(), 32 * 4 + 100);
        assert_eq!(mach.stats().tensor_calls, 1);
        assert_eq!(mach.stats().tensor_latency_time, 100);
    }

    #[test]
    fn weak_machine_splits_tall_calls() {
        let mut weak = TcuMachine::weak(16, 100);
        let a = iota(32, 4);
        let b = iota(4, 4);
        let c = weak.tensor_mul(&a, &b);
        assert_eq!(c, matmul_naive(&a, &b));
        // 32/4 = 8 square invocations, each 16 + 100
        assert_eq!(weak.stats().tensor_calls, 8);
        assert_eq!(weak.time(), 8 * (16 + 100));
    }

    #[test]
    fn weak_machine_rounds_up_ragged_tiles() {
        let mut weak = TcuMachine::weak(16, 0);
        let a = iota(10, 4); // 10 rows -> 3 tiles of 4
        let b = iota(4, 4);
        let c = weak.tensor_mul(&a, &b);
        assert_eq!(c, matmul_naive(&a, &b));
        assert_eq!(weak.stats().tensor_calls, 3);
        assert_eq!(weak.time(), 3 * 16);
    }

    #[test]
    fn padded_call_charges_full_footprint() {
        let mut mach = TcuMachine::model(16, 9);
        let a = iota(2, 3); // 2×3, under-sized in both dimensions
        let b = iota(3, 2);
        let c = mach.tensor_mul_padded(&a, &b);
        assert_eq!(c, matmul_naive(&a, &b));
        assert_eq!((c.rows(), c.cols()), (2, 2));
        // charged as a full √m-row call: 4·4 + 9
        assert_eq!(mach.time(), 16 + 9);
    }

    #[test]
    #[should_panic(expected = "n ≥ √m")]
    fn short_operand_rejected_without_padding() {
        let mut mach = TcuMachine::model(16, 0);
        let a = iota(2, 4);
        let b = iota(4, 4);
        let _ = mach.tensor_mul(&a, &b);
    }

    #[test]
    #[should_panic(expected = "√m = 4 columns")]
    fn wrong_width_rejected() {
        let mut mach = TcuMachine::model(16, 0);
        let a = iota(4, 5);
        let b = iota(5, 5);
        let _ = mach.tensor_mul(&a, &b);
    }

    #[test]
    #[should_panic(expected = "does not match the op descriptor")]
    fn op_view_mismatch_rejected() {
        let mut mach = TcuMachine::model(16, 0);
        let a = iota(8, 4);
        let b = iota(4, 4);
        let _ = mach.issue(TensorOp::mul(9, 4), a.view(), b.view());
    }

    #[test]
    #[should_panic(expected = "use issue_into")]
    fn accumulating_op_needs_destination() {
        let mut mach = TcuMachine::model(16, 0);
        let a = iota(8, 4);
        let b = iota(4, 4);
        let _ = mach.issue(TensorOp::mul_acc(8, 4), a.view(), b.view());
    }

    #[test]
    fn charge_and_reset() {
        let mut mach = TcuMachine::model(4, 0);
        mach.charge(123);
        assert_eq!(mach.time(), 123);
        mach.reset();
        assert_eq!(mach.time(), 0);
        assert_eq!(mach.stats(), &Stats::default());
    }

    #[test]
    fn trace_records_call_sequence() {
        let mut mach = TcuMachine::model(16, 5);
        mach.enable_trace();
        mach.charge(10);
        let a = iota(8, 4);
        let b = iota(4, 4);
        let _ = mach.tensor_mul(&a, &b);
        mach.charge(3);
        mach.charge(4);
        let trace = mach.take_trace();
        assert_eq!(
            trace.events(),
            &[
                TraceEvent::Scalar { ops: 10 },
                TraceEvent::Tensor {
                    op: TensorOp::mul(8, 4),
                    cost: 8 * 4 + 5
                },
                TraceEvent::Scalar { ops: 7 },
            ]
        );
        // taking the trace stops recording
        mach.charge(1);
        assert!(mach.take_trace().is_empty());
    }

    #[test]
    fn replay_reproduces_stats_and_trace() {
        let mut mach = TcuMachine::model(16, 5);
        mach.enable_trace();
        mach.charge(10);
        let a = iota(8, 4);
        let b = iota(4, 4);
        let _ = mach.tensor_mul(&a, &b);
        let _ = mach.tensor_mul_padded(&iota(2, 3), &iota(3, 2));
        let trace = mach.take_trace();

        let mut replayed = TcuMachine::with_executor(*mach.unit(), ReplayExecutor::default());
        replayed.enable_trace();
        replayed.replay(&trace);
        assert_eq!(replayed.stats(), mach.stats());
        assert_eq!(replayed.take_trace(), trace);
    }

    #[test]
    fn replay_executor_machine_charges_without_numerics() {
        let a = iota(8, 4);
        let b = iota(4, 4);
        let mut numeric = TcuMachine::model(16, 5);
        let mut ghost = TcuMachine::with_executor(*numeric.unit(), ReplayExecutor::default());
        let c_num = numeric.tensor_mul(&a, &b);
        let c_ghost = ghost.tensor_mul(&a, &b);
        assert_eq!(numeric.stats(), ghost.stats());
        assert_eq!(c_num, matmul_naive(&a, &b));
        assert_eq!(c_ghost, Matrix::<i64>::zeros(8, 4));
    }

    #[test]
    fn stats_summary_breaks_ops_down_by_kind() {
        let mut mach = TcuMachine::weak(16, 5);
        let a = iota(8, 4);
        let b = iota(4, 4);
        let _ = mach.tensor_mul(&a, &b); // strict, splits into 2 tiles
        let _ = mach.tensor_mul_padded(&iota(2, 3), &iota(3, 2));
        let mut out = mach.tensor_mul(&a, &b);
        mach.tensor_mul_acc_view(a.view(), b.view(), &mut out.view_mut());
        mach.charge(9);
        let s = mach.stats_summary();
        assert_eq!(s.ops_issued, 4);
        assert_eq!((s.muls, s.mul_accs, s.padded, s.padded_accs), (2, 1, 1, 0));
        // Weak unit: each 8-row strict op is 2 invocations; the padded
        // and accumulate ops are 1 each... acc op is 8 rows -> 2 tiles.
        assert_eq!(s.invocations, mach.stats().tensor_calls);
        assert_eq!(s.rows_charged, mach.stats().tensor_rows);
        assert_eq!(s.scalar_ops, 9);
        assert_eq!(s.time, mach.time());
        let line = s.to_string();
        assert!(line.contains("ops issued 4") && line.contains("mul+acc 1"));
        mach.reset();
        assert_eq!(mach.stats_summary(), crate::cost::StatsSummary::default());
    }

    #[test]
    fn tagged_issue_matches_untagged_exactly() {
        let big = iota(16, 12);
        let b = iota(4, 4);
        let mut plain = TcuMachine::model(16, 3);
        plain.enable_trace();
        let mut tagged = TcuMachine::model(16, 3);
        tagged.executor_mut().enable_pack_cache(4);
        tagged.enable_trace();
        let id = OperandId {
            buffer: 0,
            generation: 0,
            origin: (0, 4),
            extent: (16, 4),
        };
        let want = plain.tensor_mul_view(big.subview(0, 4, 16, 4), b.view());
        for _ in 0..3 {
            let mut got = Matrix::<i64>::zeros(16, 4);
            tagged.issue_into_tagged(
                TensorOp::mul(16, 4),
                big.subview(0, 4, 16, 4),
                Some(id),
                b.view(),
                &mut got.view_mut(),
            );
            assert_eq!(got, want);
        }
        let cache = tagged.executor().pack_cache_stats().expect("cache on");
        assert_eq!((cache.misses, cache.hits), (1, 2));
        // Accounting is unchanged by tagging: 3 tagged ops = 3× one op.
        assert_eq!(tagged.stats().tensor_calls, 3);
        assert_eq!(tagged.stats().tensor_time, 3 * plain.stats().tensor_time);
    }

    #[test]
    fn mixed_element_types_on_one_machine() {
        let mut mach = TcuMachine::model(4, 0);
        let af = Matrix::<f64>::identity(2);
        let _ = mach.tensor_mul(&af, &af);
        let ai = Matrix::<i64>::identity(2);
        let _ = mach.tensor_mul(&ai, &ai);
        assert_eq!(mach.stats().tensor_calls, 2);
    }
}
