//! Pluggable execution backends for the [`crate::op::TensorOp`] stream.
//!
//! The machine splits a tensor instruction into two orthogonal halves:
//! *accounting* (what the invocation costs in simulated time — decided
//! by the [`crate::TensorUnit`] policy, recorded in [`crate::Stats`] and
//! the trace) and *numerics* (how the host actually computes the
//! product). [`Executor`] abstracts the second half, so the same
//! instruction stream can run on the tiled host kernels
//! ([`HostExecutor`]), the cycle-level systolic array
//! (`tcu_systolic::SystolicExecutor`), or not at all
//! ([`ReplayExecutor`], which re-derives accounting from a recorded
//! trace without touching a single matrix element).
//!
//! Because accounting never flows through the executor, swapping
//! backends can never perturb `Stats` or trace digests — the invariant
//! `tests/cost_invariance.rs` pins. What an executor *returns* from
//! [`Executor::execute`] is its own native cost measure (host flops,
//! counted array cycles, zero for replay); experiments use it to compare
//! backends against the model charge, the machine ignores it.

use crate::op::TensorOp;
use std::any::{Any, TypeId};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use tcu_linalg::kernels;
use tcu_linalg::{MatrixView, MatrixViewMut, Scalar};

/// Stable identity of a *left-operand region* across invocations: which
/// logical buffer it lives in, which write-generation of that buffer it
/// was read at, and the exact sub-rectangle. Schedulers that know their
/// operands' provenance (the `tcu-sched` op-graph runtime) attach one to
/// each issued op via [`crate::TcuMachine::issue_into_tagged`]; executors
/// may use it as a cache key for derived operand forms (packed strips),
/// because two invocations with equal `OperandId`s are guaranteed to
/// read bit-identical data. Plain `issue_into` passes `None` — untagged
/// ops are never cached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OperandId {
    /// Logical buffer the operand is a region of (caller-assigned).
    pub buffer: u64,
    /// Number of writes the region had absorbed when the op was
    /// recorded; a later write to the region must bump this, which
    /// makes stale cache entries unreachable.
    pub generation: u64,
    /// Top-left corner of the region within the buffer.
    pub origin: (usize, usize),
    /// Region extent (`rows × cols`).
    pub extent: (usize, usize),
}

/// One link of an accumulation chain handed to
/// [`Executor::execute_chain`]: an op and its operands, as one
/// [`Executor::execute_tagged`] call would take them.
#[derive(Clone, Copy, Debug)]
pub struct ChainOp<'a, T: Scalar> {
    /// The op (its `accumulate` flag says whether the link adds to the
    /// destination or replaces it).
    pub op: TensorOp,
    /// Left operand.
    pub a: MatrixView<'a, T>,
    /// Left operand's provenance, when the caller knows it.
    pub a_id: Option<OperandId>,
    /// Whether every element of `a` takes the narrow multiplier
    /// ([`kernels::is_narrow`]), when the caller recorded it: the host
    /// executor then skips its own scan of `a`. Must be the verdict of
    /// `a` as it is when the chain runs.
    pub a_narrow: Option<bool>,
    /// Right operand.
    pub b: MatrixView<'a, T>,
}

/// A numeric backend for tensor instructions.
///
/// `execute` computes `out (+)= a · b` exactly as `op` describes
/// (overwrite vs accumulate per `op.accumulate`; operand shapes are
/// pre-validated by the machine) and returns the backend's native cost
/// of doing so. Implementations must be deterministic: the same op and
/// operands always produce bit-identical output.
///
/// Executors are `Send`: the multi-unit parallel driver moves each
/// unit's executor into its own worker thread for the duration of a
/// run (determinism is unaffected — every unit still sees its ops in a
/// fixed, plan-time order).
pub trait Executor: Send {
    /// Backend name for diagnostics and experiment tables.
    fn name(&self) -> &'static str;

    /// Execute one op numerically; returns the backend-native cost
    /// (host flops, counted cycles, …) — *not* the simulated charge,
    /// which the machine's [`crate::TensorUnit`] policy decides.
    fn execute<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64;

    /// [`Self::execute`] with the left operand's provenance attached.
    /// Backends that cache derived operand forms (packed strips) key
    /// them by `a_id`; the default implementation ignores the tag, so
    /// every executor works unchanged under a scheduling runtime.
    /// Results must be bit-identical to the untagged path.
    fn execute_tagged<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        a_id: Option<OperandId>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        let _ = a_id;
        self.execute(op, a, b, out)
    }

    /// Execute an *accumulation chain*: `links`, in order, all writing
    /// `out` — each one's result exactly what [`Self::execute_tagged`]
    /// of that link alone would leave in `out` after the links before
    /// it. Returns the summed native cost. Each completed link adds 1 to
    /// `done`, so a caller that catches an unwind knows how far the
    /// chain got.
    ///
    /// The default runs [`Self::execute_tagged`] once per link, counting
    /// each as it completes, so a backend that does not override this
    /// keeps its per-op behaviour — one execution per link, in order
    /// (a fault injector's execution indices count links). A backend
    /// may fuse the chain instead (the host executor keeps each tile of
    /// `out` in registers across groups of links); its results must stay
    /// bit-identical to the per-link calls. A fused chain that unwinds
    /// part-way through may leave `out` partly written, with `done`
    /// short of the links its kernel had started.
    fn execute_chain<T: Scalar>(
        &mut self,
        links: &[ChainOp<'_, T>],
        out: &mut MatrixViewMut<'_, T>,
        done: &mut usize,
    ) -> u64 {
        let mut cost = 0;
        for link in links {
            cost += self.execute_tagged(&link.op, link.a, link.a_id, link.b, out);
            *done += 1;
        }
        cost
    }

    /// Counters of the backend's derived-operand cache, when it keeps
    /// one (the host executor's pack cache). `None` for cache-less
    /// backends — the default. Lets generic reporting (the machine's
    /// `stats_summary`, the `--stats` experiment output) surface cache
    /// behaviour without naming a concrete executor type.
    fn cache_stats(&self) -> Option<PackCacheStats> {
        None
    }

    /// Attach an execution-telemetry recorder, identifying this executor
    /// as tensor unit `unit` in the recorded lanes. Backends with
    /// internal events worth a timeline (the host executor's pack-cache
    /// traffic) store the pair and emit onto `Lane::Unit(unit)`; the
    /// default ignores it, so recording stays strictly opt-in and every
    /// executor works unattached. Recording must be unobservable:
    /// attaching may never change results, native costs, or
    /// [`Self::cache_stats`].
    fn attach_recorder(&mut self, recorder: Arc<dyn tcu_obs::Recorder>, unit: u32) {
        let _ = (recorder, unit);
    }
}

/// Derived pack-cache capacity for a blocked flow whose left operands
/// are strips of a `dims = (rows, cols)` buffer on a `√m = sqrt_m`
/// unit, with the cache split across `units` per-unit executors.
///
/// One blocked pass streams at most `⌈cols/√m⌉` distinct left strips
/// (one per block column of the operand), and a pipelined flow can keep
/// two stages' strips live at once. Hence `⌈2·⌈cols/√m⌉ / units⌉`,
/// clamped to `[2, 1024]` — at least a working pair so ping-pong reuse
/// never thrashes, and a hard ceiling so a huge operand cannot turn the
/// cache into an unbounded retainer. The division by `units` assumes
/// each unit sees only its share of the strips, but a unit runs whole
/// accumulation chains and streams every strip its chains read: the
/// capacity holds them all at 1 and 2 units, and from 3 units on falls
/// below the strip count, so such a cache thrashes.
#[must_use]
pub fn pack_cache_capacity(dims: (usize, usize), sqrt_m: usize, units: usize) -> usize {
    let strips = dims.1.div_ceil(sqrt_m.max(1));
    (2 * strips).div_ceil(units.max(1)).clamp(2, 1024)
}

/// Running counters of a [`HostExecutor`] pack cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackCacheStats {
    /// Tagged executions that consulted the cache.
    pub lookups: u64,
    /// Lookups served by an already-packed strip.
    pub hits: u64,
    /// Lookups that had to pack (insert) the strip.
    pub misses: u64,
    /// Bytes written into pack buffers across all misses — the "packed
    /// bytes moved" metric of the scheduling benchmarks (a pack-per-
    /// invocation policy pays this once per *lookup* instead).
    pub packed_bytes: u64,
    /// Entries dropped to stay within capacity (FIFO order).
    pub evictions: u64,
}

/// Multiply-mix hasher for pack-cache keys: the key is already a bag of
/// word-sized fields with high entropy in the low bits (buffer ids,
/// generations, rectangle coordinates), so one multiply-xor round per
/// word distributes fine — and the lookup sits on the per-op hot path of
/// scheduled execution, where the default SipHash's setup cost per tiny
/// key is measurable across thousands of small ops.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Keys hash only word-sized fields, but TypeId feeds an opaque
        // blob through here — fold it 8 bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FIFO-bounded map from `(element type, OperandId)` to a packed strip.
///
/// Entries are type-erased (`PackedA<T>` behind `Arc<dyn Any>`) because
/// the executor is monomorphic per *call*, not per machine — one cache
/// serves `f64` ops and `i64` ops side by side. Generation bumps in the
/// key make stale strips unreachable; FIFO eviction bounds memory (the
/// order queue pops from the front, so a full cache evicts in O(1), not
/// O(capacity) — a run that replaces its whole working set every epoch
/// pays per insert, not per insert times capacity).
#[derive(Clone, Default)]
struct PackCache {
    capacity: usize,
    entries: HashMap<(TypeId, OperandId), Arc<dyn Any + Send + Sync>, BuildHasherDefault<FxHasher>>,
    order: VecDeque<(TypeId, OperandId)>,
    stats: PackCacheStats,
}

impl std::fmt::Debug for PackCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PackCache {{ capacity: {}, entries: {}, stats: {:?} }}",
            self.capacity,
            self.entries.len(),
            self.stats
        )
    }
}

impl PackCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ..Self::default()
        }
    }

    /// The packed form of `a` under `id`: reused on hit, packed and
    /// inserted on miss (evicting the oldest entry when full).
    fn get_or_pack<T: Scalar>(
        &mut self,
        id: OperandId,
        a: MatrixView<'_, T>,
    ) -> Arc<kernels::PackedA<T>> {
        let key = (TypeId::of::<T>(), id);
        self.stats.lookups += 1;
        if let Some(entry) = self.entries.get(&key) {
            if let Ok(packed) = Arc::clone(entry).downcast::<kernels::PackedA<T>>() {
                if (packed.rows(), packed.cols()) == (a.rows(), a.cols()) {
                    self.stats.hits += 1;
                    return packed;
                }
            }
            // Shape or type disagreement under an equal id is a caller
            // bug, but stay safe: treat as a miss and repack.
            self.entries.remove(&key);
            self.order.retain(|k| *k != key);
        }
        let packed = Arc::new(kernels::pack_a(a));
        self.stats.misses += 1;
        self.stats.packed_bytes += packed.bytes() as u64;
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.entries
            .insert(key, Arc::clone(&packed) as Arc<dyn Any + Send + Sync>);
        self.order.push_back(key);
        packed
    }
}

/// Native cost of one op on the host: scalar multiply-adds performed.
fn native_cost(op: &TensorOp) -> u64 {
    (op.rows * op.inner * op.width) as u64
}

/// The default backend: the tiled, register-blocked host kernels of
/// `tcu-linalg` (packed `B` panels, an optional pack cache for `A`
/// strips), run on the calling thread. A parallel machine gets its
/// parallelism from its units, one executor each, not from inside an
/// invocation.
#[derive(Clone, Debug, Default)]
pub struct HostExecutor {
    cache: Option<PackCache>,
    /// Telemetry sink plus the unit id this executor records as; set by
    /// [`Executor::attach_recorder`], never consulted unless present.
    recorder: Option<(Arc<dyn tcu_obs::Recorder>, u32)>,
}

impl HostExecutor {
    /// A host executor with no pack cache and no recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn on executor-level strip caching for tagged ops: the packed
    /// form of each distinct left-operand region (keyed by
    /// [`OperandId`], i.e. buffer + generation + rectangle) is kept
    /// across invocations, so a blocked flow that re-streams the same
    /// strip against many weight blocks packs it once instead of once
    /// per invocation. At most `capacity` strips are held (FIFO
    /// eviction, clamped to ≥ 1). Untagged ops are unaffected; results
    /// are bit-identical either way. Resets any previous cache state.
    pub fn enable_pack_cache(&mut self, capacity: usize) {
        self.cache = Some(PackCache::new(capacity));
    }

    /// Drop the pack cache (tagged ops fall back to the plain kernels).
    pub fn disable_pack_cache(&mut self) {
        self.cache = None;
    }

    /// Counters of the pack cache since [`Self::enable_pack_cache`]
    /// (`None` when caching is off).
    #[must_use]
    pub fn pack_cache_stats(&self) -> Option<PackCacheStats> {
        self.cache.as_ref().map(|c| c.stats)
    }

    /// `a`'s packed strip under `id` from the pack cache — one lookup,
    /// recorded as a `PackLookup` span (and an eviction as `PackEvict`)
    /// when a recorder is attached — or `None` when caching is off.
    fn cached_pack<T: Scalar>(
        &mut self,
        id: OperandId,
        a: MatrixView<'_, T>,
    ) -> Option<Arc<kernels::PackedA<T>>> {
        let cache = self.cache.as_mut()?;
        let before = cache.stats;
        let start = self.recorder.as_ref().map(|(r, _)| r.now_ns());
        let packed = cache.get_or_pack(id, a);
        if let (Some((rec, unit)), Some(t0)) = (self.recorder.as_ref(), start) {
            let after = cache.stats;
            rec.record(
                tcu_obs::Lane::Unit(*unit),
                tcu_obs::SpanEvent {
                    kind: tcu_obs::EventKind::PackLookup {
                        unit: *unit,
                        hit: after.hits > before.hits,
                    },
                    t_ns: t0,
                    dur_ns: rec.now_ns().saturating_sub(t0),
                },
            );
            if after.evictions > before.evictions {
                let t = rec.now_ns();
                rec.record(
                    tcu_obs::Lane::Unit(*unit),
                    tcu_obs::SpanEvent {
                        kind: tcu_obs::EventKind::PackEvict { unit: *unit },
                        t_ns: t,
                        dur_ns: 0,
                    },
                );
            }
        }
        Some(packed)
    }

    /// Always 1: the kernels run on the calling thread. perfbench still
    /// records it; delete in the next benchmark change.
    #[doc(hidden)]
    #[must_use]
    pub fn threads(&self) -> usize {
        1
    }
}

impl Executor for HostExecutor {
    fn name(&self) -> &'static str {
        "host"
    }

    fn execute<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        kernels::matmul_into(out, a, b, op.accumulate, 1);
        native_cost(op)
    }

    fn execute_tagged<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        a_id: Option<OperandId>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        let link = ChainOp {
            op: *op,
            a,
            a_id,
            a_narrow: None,
            b,
        };
        self.execute_chain(std::slice::from_ref(&link), out, &mut 0)
    }

    /// One kernel call for the whole chain
    /// ([`kernels::matmul_chain_into`]; a tagged op is a one-link
    /// chain): each link's left operand is looked up in the pack cache
    /// once — a packed strip gives the same bits as the view, only the
    /// pack traffic changes — and a view carries the caller's narrow
    /// verdict, when it recorded one, so the kernel does not rescan it.
    fn execute_chain<T: Scalar>(
        &mut self,
        links: &[ChainOp<'_, T>],
        out: &mut MatrixViewMut<'_, T>,
        done: &mut usize,
    ) -> u64 {
        let packed: Vec<_> = links
            .iter()
            .map(|l| l.a_id.and_then(|id| self.cached_pack(id, l.a)))
            .collect();
        let kernel_links: Vec<_> = links
            .iter()
            .zip(&packed)
            .map(|(l, p)| kernels::ChainLink {
                a: match p {
                    Some(p) => kernels::ChainA::Packed(p),
                    None => kernels::ChainA::View(l.a, l.a_narrow),
                },
                b: l.b,
                accumulate: l.op.accumulate,
            })
            .collect();
        kernels::matmul_chain_into(out, &kernel_links);
        *done += links.len();
        links.iter().map(|l| native_cost(&l.op)).sum()
    }

    fn cache_stats(&self) -> Option<PackCacheStats> {
        self.pack_cache_stats()
    }

    fn attach_recorder(&mut self, recorder: Arc<dyn tcu_obs::Recorder>, unit: u32) {
        self.recorder = Some((recorder, unit));
    }
}

/// The accounting-only backend: executes no numerics at all.
///
/// Two uses:
///
/// * plugged into a machine (`TcuMachine::with_executor(unit,
///   ReplayExecutor::default())`), it turns every issued op into pure
///   accounting — the op stream is charged and traced, outputs stay
///   zero;
/// * [`ReplayExecutor::run`] re-runs a recorded [`crate::TraceLog`] as a
///   program, re-deriving [`crate::Stats`] (and an identical fresh
///   trace) from a costing policy without touching numerics — the §5
///   external-memory replays and the trace-invariance property tests
///   are built on this.
#[derive(Clone, Debug, Default)]
pub struct ReplayExecutor {
    trace: crate::trace::TraceLog,
}

impl ReplayExecutor {
    /// Wrap a recorded trace for replay via [`Self::run`].
    #[must_use]
    pub fn new(trace: crate::trace::TraceLog) -> Self {
        Self { trace }
    }

    /// The wrapped trace.
    #[must_use]
    pub fn trace(&self) -> &crate::trace::TraceLog {
        &self.trace
    }

    /// Re-run the recorded op stream under `unit`'s costing policy:
    /// every tensor event is re-charged (per recorded invocation — tall
    /// splits were already applied when the trace was recorded) and
    /// every scalar segment re-billed. Returns the re-derived stats and
    /// the regenerated trace; replaying under the unit that recorded the
    /// trace reproduces both exactly.
    #[must_use]
    pub fn run<U: crate::TensorUnit>(&self, unit: &U) -> (crate::Stats, crate::trace::TraceLog) {
        let mut stats = crate::Stats::default();
        let mut trace = crate::trace::TraceLog::new();
        replay_events(&self.trace, unit, &mut stats, Some(&mut trace));
        (stats, trace)
    }
}

/// The one replay core (shared by [`ReplayExecutor::run`] and
/// `TcuMachine::replay`): re-charge every event of `trace` under `unit`,
/// accumulating into `stats` and — when recording — regenerating the
/// event stream into `out`.
pub(crate) fn replay_events<U: crate::TensorUnit>(
    trace: &crate::trace::TraceLog,
    unit: &U,
    stats: &mut crate::Stats,
    mut out: Option<&mut crate::trace::TraceLog>,
) {
    for ev in trace.events() {
        match *ev {
            crate::trace::TraceEvent::Tensor { op, .. } => {
                let cost = unit.invocation_cost(op.rows);
                let lat = unit.invocation_latency(op.rows);
                stats.record_tensor(op.rows as u64, cost, lat);
                if let Some(t) = out.as_deref_mut() {
                    t.push_tensor(op, cost);
                }
            }
            crate::trace::TraceEvent::Scalar { ops } => {
                stats.record_scalar(ops);
                if let Some(t) = out.as_deref_mut() {
                    t.push_scalar(ops);
                }
            }
            // Recovery annotations carry no chargeable work: replay
            // re-derives the fault-free accounting, which is exactly
            // what the recovery contract says the original run charged.
            crate::trace::TraceEvent::Fault { .. }
            | crate::trace::TraceEvent::Retry { .. }
            | crate::trace::TraceEvent::Quarantine { .. } => {}
        }
    }
}

impl Executor for ReplayExecutor {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn execute<T: Scalar>(
        &mut self,
        _op: &TensorOp,
        _a: MatrixView<'_, T>,
        _b: MatrixView<'_, T>,
        _out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcu_linalg::ops::matmul_naive;
    use tcu_linalg::Matrix;

    fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
        Matrix::from_fn(r, c, |i, j| ((i * 5 + j * 3) as i64 + seed) % 17 - 8)
    }

    #[test]
    fn host_executor_overwrites_or_accumulates_per_op() {
        let a = pseudo(8, 4, 1);
        let b = pseudo(4, 4, 2);
        let want = matmul_naive(&a, &b);

        let mut exec = HostExecutor::new();
        let mut out = Matrix::from_fn(8, 4, |_, _| 99i64);
        let flops = exec.execute(
            &TensorOp::mul(8, 4),
            a.view(),
            b.view(),
            &mut out.view_mut(),
        );
        assert_eq!(out, want);
        assert_eq!(flops, 8 * 4 * 4);

        let mut acc = want.clone();
        let _ = exec.execute(
            &TensorOp::mul_acc(8, 4),
            a.view(),
            b.view(),
            &mut acc.view_mut(),
        );
        let mut doubled = want.clone();
        doubled.add_assign(&want);
        assert_eq!(acc, doubled);
    }

    #[test]
    fn replay_executor_skips_numerics() {
        let a = pseudo(4, 4, 3);
        let b = pseudo(4, 4, 4);
        let mut out = Matrix::<i64>::zeros(4, 4);
        let cost = ReplayExecutor::default().execute(
            &TensorOp::mul(4, 4),
            a.view(),
            b.view(),
            &mut out.view_mut(),
        );
        assert_eq!(cost, 0);
        assert_eq!(out, Matrix::<i64>::zeros(4, 4));
    }

    #[test]
    fn pack_cache_hits_reuse_strips_and_stay_bit_identical() {
        let big = pseudo(24, 12, 5);
        let strip = big.subview(0, 4, 24, 4);
        let b1 = pseudo(4, 4, 6);
        let b2 = pseudo(4, 4, 7);
        let id = OperandId {
            buffer: 3,
            generation: 0,
            origin: (0, 4),
            extent: (24, 4),
        };

        let mut plain = HostExecutor::new();
        let mut cached = HostExecutor::new();
        cached.enable_pack_cache(8);
        for (i, blk) in [&b1, &b2, &b1].iter().enumerate() {
            let op = if i == 0 {
                TensorOp::mul(24, 4)
            } else {
                TensorOp::mul_acc(24, 4)
            };
            let mut want = Matrix::<i64>::zeros(24, 4);
            let mut got = Matrix::<i64>::zeros(24, 4);
            let _ = plain.execute(&op, strip, blk.view(), &mut want.view_mut());
            let _ = cached.execute_tagged(&op, strip, Some(id), blk.view(), &mut got.view_mut());
            // Overwrite and accumulate modes both served from the cache.
            assert_eq!(got, want, "op {i}");
        }
        let stats = cached.pack_cache_stats().expect("cache enabled");
        assert_eq!((stats.lookups, stats.hits, stats.misses), (3, 2, 1));
        assert_eq!(stats.packed_bytes, 24 * 4 * 8);

        // A new generation is a different key: repack, no stale reuse.
        let next = OperandId {
            generation: 1,
            ..id
        };
        let mut out = Matrix::<i64>::zeros(24, 4);
        let _ = cached.execute_tagged(
            &TensorOp::mul(24, 4),
            strip,
            Some(next),
            b1.view(),
            &mut out.view_mut(),
        );
        assert_eq!(cached.pack_cache_stats().expect("enabled").misses, 2);

        // Untagged ops bypass the cache entirely.
        let _ = cached.execute_tagged(
            &TensorOp::mul(24, 4),
            strip,
            None,
            b1.view(),
            &mut out.view_mut(),
        );
        assert_eq!(cached.pack_cache_stats().expect("enabled").lookups, 4);
    }

    #[test]
    fn host_chains_equal_per_link_calls_and_look_each_link_up_once() {
        // A C strip's chain: an overwriting head, then accumulates, each
        // link streaming its own strip of `big`, one of which holds an
        // element past 32 bits, so the chain must take the wide
        // multiplier whether or not the caller hands in verdicts.
        let mut big = pseudo(64, 16, 13);
        big[(37, 9)] = 1 << 40;
        let wts: Vec<Matrix<i64>> = (0..4).map(|l| pseudo(4, 4, 20 + l)).collect();
        let mut want = Matrix::<i64>::zeros(64, 4);
        for (l, w) in wts.iter().enumerate() {
            want.add_assign(&matmul_naive(&big.block(0, 4 * l, 64, 4), w));
        }
        for recorded in [false, true] {
            let links: Vec<ChainOp<'_, i64>> = (0..4)
                .map(|l| {
                    let a = big.subview(0, 4 * l, 64, 4);
                    ChainOp {
                        op: if l == 0 {
                            TensorOp::mul(64, 4)
                        } else {
                            TensorOp::mul_acc(64, 4)
                        },
                        a,
                        a_id: Some(OperandId {
                            buffer: 7,
                            generation: 0,
                            origin: (0, 4 * l),
                            extent: (64, 4),
                        }),
                        a_narrow: recorded.then(|| kernels::is_narrow(a)),
                        b: wts[l].view(),
                    }
                })
                .collect();
            for cache in [false, true] {
                let mut exec = HostExecutor::new();
                if cache {
                    exec.enable_pack_cache(8);
                }
                // Twice: the second chain finds every strip packed.
                for _ in 0..2 {
                    let mut got = pseudo(64, 4, 30);
                    let mut done = 0;
                    let cost = exec.execute_chain(&links, &mut got.view_mut(), &mut done);
                    assert_eq!(got, want, "cache {cache}, recorded {recorded}");
                    assert_eq!((done, cost), (4, 4 * 64 * 4 * 4));
                }
                if let Some(stats) = exec.pack_cache_stats() {
                    assert_eq!((stats.lookups, stats.misses), (8, 4));
                }
            }
        }
    }

    #[test]
    fn pack_cache_evicts_fifo_at_capacity() {
        let a = pseudo(8, 4, 9);
        let b = pseudo(4, 4, 10);
        let mut exec = HostExecutor::new();
        exec.enable_pack_cache(2);
        let mut out = Matrix::<i64>::zeros(8, 4);
        let id = |buf: u64| OperandId {
            buffer: buf,
            generation: 0,
            origin: (0, 0),
            extent: (8, 4),
        };
        for buf in [0u64, 1, 2, 0] {
            let _ = exec.execute_tagged(
                &TensorOp::mul(8, 4),
                a.view(),
                Some(id(buf)),
                b.view(),
                &mut out.view_mut(),
            );
        }
        let stats = exec.pack_cache_stats().expect("enabled");
        // Buffer 0 was evicted by buffer 2's insert, so its second use
        // repacks (and evicts buffer 1 in turn): 4 misses, 2 evictions.
        assert_eq!((stats.misses, stats.evictions, stats.hits), (4, 2, 0));
        exec.disable_pack_cache();
        assert!(exec.pack_cache_stats().is_none());
    }

    #[test]
    fn derived_capacity_bounds_the_cache() {
        // d = 32, √m = 4, 1 unit: ⌈32/4⌉ = 8 strips, two stages → 16.
        assert_eq!(pack_cache_capacity((32, 32), 4, 1), 16);
        // Split across 4 units: ⌈16/4⌉ = 4 per-unit strips.
        assert_eq!(pack_cache_capacity((32, 32), 4, 4), 4);
        // Tiny operands still get a working pair; huge ones hit the cap.
        assert_eq!(pack_cache_capacity((4, 4), 4, 8), 2);
        assert_eq!(pack_cache_capacity((1 << 20, 1 << 20), 4, 1), 1024);

        // Eviction engages exactly at the derived bound: insert one
        // strip per block column twice over — the first pass fills the
        // cache to capacity, one extra distinct strip then evicts FIFO.
        let cap = pack_cache_capacity((8, 8), 4, 1); // 2 strips × 2 = 4
        assert_eq!(cap, 4);
        let a = pseudo(8, 4, 11);
        let b = pseudo(4, 4, 12);
        let mut exec = HostExecutor::new();
        exec.enable_pack_cache(cap);
        let mut out = Matrix::<i64>::zeros(8, 4);
        let id = |buf: u64| OperandId {
            buffer: buf,
            generation: 0,
            origin: (0, 0),
            extent: (8, 4),
        };
        for buf in 0..cap as u64 {
            let _ = exec.execute_tagged(
                &TensorOp::mul(8, 4),
                a.view(),
                Some(id(buf)),
                b.view(),
                &mut out.view_mut(),
            );
        }
        assert_eq!(
            exec.pack_cache_stats().expect("enabled").evictions,
            0,
            "the derived bound holds a full pass without eviction"
        );
        let _ = exec.execute_tagged(
            &TensorOp::mul(8, 4),
            a.view(),
            Some(id(cap as u64)),
            b.view(),
            &mut out.view_mut(),
        );
        assert_eq!(
            exec.pack_cache_stats().expect("enabled").evictions,
            1,
            "one strip past the derived bound evicts exactly once"
        );
    }

    #[test]
    fn env_free_constructors() {
        assert_eq!(HostExecutor::new().name(), "host");
        assert_eq!(ReplayExecutor::default().name(), "replay");
    }
}
