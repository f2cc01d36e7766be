//! Schedule compilation: lower a planned [`Schedule`] into a dense
//! [`ExecutablePlan`] the runtime can replay with no hash lookups, no
//! per-op environment scans, and no staging decisions in the hot loop.
//!
//! Planning resolves *what* to execute (coalesced ops, canonical order,
//! wave partitions); compilation resolves *how*: every operand read is
//! interned into a slot of a run-local snapshot arena keyed by
//! `(buffer, rectangle, generation)`, the hazard structure is flattened
//! into predecessor counts and successor lists, and the wave structure
//! into index ranges. The result is structural (no data, no scalar
//! type): one compiled plan serves every environment whose buffer
//! shapes match, which is what lets `gauss`/`closure` compile a stage's
//! schedule once and re-run it against rebound buffers per step.
//!
//! Neither executor needs a staging directive. The serial run
//! snapshots a slot on first use, and only when an op reads the buffer
//! it writes; the threaded executor, whose workers run while the main
//! thread retains mutable access to the outputs, snapshots every read
//! key no input binding serves, once, right before its first reader's
//! dispatch (see the `tcu_sched::run` module docs). Only the number of
//! written-buffer keys is stored ([`ExecutablePlan::staged_reads`]).
//! Compilation also fixes the serial run's order and its accumulation
//! chain runs, one executor call each (the same module docs).
//!
//! Compilation happens implicitly on first execution and is cached in
//! the schedule (see [`Schedule::compile`]), so `try_run` and
//! `try_run_parallel` compile, then execute, and repeat runs skip
//! straight to the precomputed form.

use crate::graph::{hazard_successors, Node, OperandRef};
use crate::run::ExecEnv;
use crate::scheduler::Schedule;
use std::collections::HashMap;
use tcu_core::{TcuError, TensorOp};
use tcu_linalg::Scalar;
use tcu_obs::Recorder as _;

/// Identity of one read snapshot: buffer, rectangle, content version.
type ReadKey = (usize, usize, usize, usize, usize, u32);

/// One compiled operand read: the resolved rectangle, its content
/// version, and its snapshot slot (one per distinct read key).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CompiledRead {
    pub(crate) buf: usize,
    pub(crate) r0: usize,
    pub(crate) c0: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) gen: u32,
    pub(crate) slot: u32,
}

/// One emitted op with every operand resolved to concrete offsets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CompiledOp {
    pub(crate) op: TensorOp,
    pub(crate) out_buf: usize,
    pub(crate) out_r0: usize,
    pub(crate) out_c0: usize,
    pub(crate) out_rows: usize,
    pub(crate) out_cols: usize,
    pub(crate) a: CompiledRead,
    pub(crate) b: CompiledRead,
}

/// A [`Schedule`] lowered to its executable form: dense op array,
/// snapshot slots, hazard structure, and flattened wave ranges.
/// Structural — it references logical buffers and slots, never data —
/// so one compiled plan is re-runnable against any rebound environment
/// of the same buffer shapes.
#[derive(Clone, Debug, Default)]
pub struct ExecutablePlan {
    pub(crate) ops: Vec<CompiledOp>,
    /// Written-buffer keys (each snapshotted once by the threaded
    /// executor).
    pub(crate) written_reads: usize,
    /// Snapshot-arena size (one slot per distinct read key).
    pub(crate) slots: usize,
    /// `ops` index range of each wave, in wave order.
    pub(crate) wave_ranges: Vec<(usize, usize)>,
    /// Per-op hazard-predecessor count, emission order — the dataflow
    /// driver's ready gate (an op is dispatchable once this many
    /// predecessors have committed).
    pub(crate) preds: Vec<u32>,
    /// CSR hazard-successor lists over `ops`: op `i`'s successors are
    /// `succs[succ_off[i] .. succ_off[i + 1]]`. Edges are strictly
    /// forward in emission order (conflicting nodes always sit on
    /// different levels, and emission sorts by level first).
    pub(crate) succs: Vec<u32>,
    /// `succs` offsets, length `ops + 1`.
    pub(crate) succ_off: Vec<u32>,
    /// The serial run's op order: emission order, except that each
    /// chain continuation moves up behind its predecessor once every
    /// other hazard predecessor has run (see the `tcu_sched::run`
    /// module docs).
    pub(crate) serial_order: Vec<u32>,
    /// Offsets into `serial_order` where each serial run — a stretch of
    /// consecutive chain links, one executor call — starts, then
    /// `serial_order.len()`.
    pub(crate) serial_starts: Vec<u32>,
}

impl ExecutablePlan {
    /// Compiled ops (equals the schedule's emitted ops).
    #[must_use]
    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// Waves (equals the schedule's).
    #[must_use]
    pub fn waves(&self) -> usize {
        self.wave_ranges.len()
    }

    /// Read keys the threaded executor snapshots (written-buffer
    /// reads).
    #[must_use]
    pub fn staged_reads(&self) -> usize {
        self.written_reads
    }

    /// Hazard edges between compiled ops (the dependency count the
    /// dataflow driver's ready gating walks).
    #[must_use]
    pub fn hazard_edges(&self) -> usize {
        self.succs.len()
    }

    /// Op `i`'s hazard successors (emission-order indices, all `> i`).
    pub(crate) fn successors_of(&self, i: usize) -> &[u32] {
        &self.succs[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// The serial run's runs, in order: each the op indices of one
    /// executor call.
    pub(crate) fn serial_runs(&self) -> impl Iterator<Item = &[u32]> {
        self.serial_starts
            .windows(2)
            .map(|w| &self.serial_order[w[0] as usize..w[1] as usize])
    }
}

/// Intern one operand read: find-or-create its arena slot.
fn intern_read(
    region: &OperandRef,
    gen: u32,
    slot_of: &mut HashMap<ReadKey, u32>,
    keys: &mut Vec<ReadKey>,
) -> CompiledRead {
    let key = (
        region.buf.0,
        region.r0,
        region.c0,
        region.rows,
        region.cols,
        gen,
    );
    let slot = *slot_of.entry(key).or_insert_with(|| {
        keys.push(key);
        (keys.len() - 1) as u32
    });
    CompiledRead {
        buf: region.buf.0,
        r0: region.r0,
        c0: region.c0,
        rows: region.rows,
        cols: region.cols,
        gen,
        slot,
    }
}

/// Lower `sched` into its executable form. Validates every op against
/// the planned `√m` once (execution re-checks nothing), resolves each
/// read to a slot of the snapshot arena, and counts the written-buffer
/// keys.
///
/// # Panics
/// Panics if an emitted node's operand or output rectangles disagree
/// with its op descriptor — a scheduler bug, not a caller error (the
/// graph validates these shapes at record time and coalescing preserves
/// them).
pub(crate) fn compile_schedule(sched: &Schedule) -> Result<ExecutablePlan, TcuError> {
    let nodes = sched.nodes();
    // A buffer is written iff an emitted node writes it: coalescing
    // merges writes into fewer nodes but never removes a buffer's last
    // write, so this matches the recorded graph's notion exactly.
    let mut written = vec![false; sched.buffer_shapes.len()];
    for sn in nodes {
        written[sn.node.out.buf.0] = true;
    }

    let mut slot_of: HashMap<ReadKey, u32> = HashMap::new();
    let mut keys: Vec<ReadKey> = Vec::new();
    let mut ops: Vec<CompiledOp> = Vec::with_capacity(nodes.len());
    let mut wave_ranges: Vec<(usize, usize)> = Vec::new();
    let mut wstart = 0usize;
    for (i, sn) in nodes.iter().enumerate() {
        let node = &sn.node;
        node.op.check(sched.sqrt_m)?;
        if i > 0 && sn.level != nodes[i - 1].level {
            wave_ranges.push((wstart, i));
            wstart = i;
        }
        let a = intern_read(&node.a, sn.a_gen, &mut slot_of, &mut keys);
        let b = intern_read(&node.b, sn.b_gen, &mut slot_of, &mut keys);
        assert!(
            node.op
                .matches((node.a.rows, node.a.cols), (node.b.rows, node.b.cols)),
            "operands do not match the op descriptor"
        );
        assert_eq!(
            (node.out.rows, node.out.cols),
            (node.op.rows, node.op.width),
            "output region does not match the op descriptor"
        );
        ops.push(CompiledOp {
            op: node.op,
            out_buf: node.out.buf.0,
            out_r0: node.out.r0,
            out_c0: node.out.c0,
            out_rows: node.out.rows,
            out_cols: node.out.cols,
            a,
            b,
        });
    }
    if !nodes.is_empty() {
        wave_ranges.push((wstart, nodes.len()));
    }

    let written_reads = keys.iter().filter(|k| written[k.0]).count();

    // Hazard dependency structure over the *emission-ordered* ops:
    // per-op predecessor counts and CSR successor lists. Conflicting
    // nodes always differ in level and emission sorts by level first,
    // so every edge points strictly forward in emission order — which
    // is what lets the dataflow driver gate dispatch on a simple
    // committed-predecessor countdown.
    let emitted: Vec<Node> = nodes.iter().map(|sn| sn.node).collect();
    let succ_lists = hazard_successors(&emitted);
    let mut preds = vec![0u32; emitted.len()];
    let mut succ_off = Vec::with_capacity(emitted.len() + 1);
    let mut succs = Vec::new();
    succ_off.push(0u32);
    for (i, list) in succ_lists.iter().enumerate() {
        for &j in list {
            debug_assert!(j > i, "hazard edges must be forward in emission order");
            preds[j] += 1;
            succs.push(j as u32);
        }
        succ_off.push(succs.len() as u32);
    }

    let mut plan = ExecutablePlan {
        ops,
        written_reads,
        slots: keys.len(),
        wave_ranges,
        preds,
        succs,
        succ_off,
        serial_order: Vec::new(),
        serial_starts: Vec::new(),
    };
    (plan.serial_order, plan.serial_starts) = crate::run::serial_order(sched, &plan);
    Ok(plan)
}

impl Schedule {
    /// The compiled form of this schedule, lowering it on first use and
    /// caching the result in the schedule itself.
    pub(crate) fn compiled(&self) -> Result<&ExecutablePlan, TcuError> {
        if let Some(p) = self.compiled.get() {
            return Ok(p);
        }
        // Telemetry: the lowering itself is a scheduler-lane span (only
        // cold compiles land here — cache hits return above).
        let rec = tcu_obs::env_recorder();
        let start = rec.as_ref().map(|r| r.now_ns());
        let plan = compile_schedule(self)?;
        if let (Some(rec), Some(t0)) = (rec, start) {
            rec.record(
                tcu_obs::Lane::Scheduler,
                tcu_obs::SpanEvent {
                    kind: tcu_obs::EventKind::Compile {
                        ops: plan.ops.len() as u64,
                    },
                    t_ns: t0,
                    dur_ns: rec.now_ns().saturating_sub(t0),
                },
            );
        }
        Ok(self.compiled.get_or_init(|| plan))
    }

    /// Compile this schedule against `env`'s buffer shapes, returning
    /// the cached [`ExecutablePlan`].
    ///
    /// Compilation is structural — it depends on the schedule alone —
    /// so the environment only serves as a shape witness here: the call
    /// fails exactly when running against `env` would. The plan is
    /// computed once per schedule and cached; `try_run` and
    /// `try_run_parallel` call this implicitly, so explicit compilation
    /// is only useful to front the (small) lowering cost or to inspect
    /// the compiled shape.
    pub fn compile<T: Scalar>(&self, env: &ExecEnv<'_, T>) -> Result<&ExecutablePlan, TcuError> {
        if env.shapes() != &self.buffer_shapes[..] {
            return Err(TcuError::PlanMismatch {
                what: "environment built for a different graph (buffer shapes disagree)",
            });
        }
        self.compiled()
    }
}
