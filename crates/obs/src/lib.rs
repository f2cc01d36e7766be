#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # tcu-obs — span-based execution telemetry for the TCU simulator
//!
//! Observability seam for the whole workspace: the execution layers
//! (`tcu-core`'s machines, `tcu-sched`'s planner and parallel driver,
//! `tcu-algos`' plan memo) emit typed, *closed* spans and instant
//! events into a [`Recorder`], and this crate turns the buffered
//! stream into
//!
//! * a Chrome Trace Event / Perfetto JSON timeline with one lane per
//!   tensor unit plus a scheduler lane
//!   ([`ObsSink::export_chrome_trace`]),
//! * a plain-text run report — per-unit busy/idle utilization, the
//!   wall-time split across plan/compile/stage/execute/merge, retry
//!   counts, and dispatch counters ([`ObsSink::report`]), and
//! * a unified metrics registry of named counters ([`Metrics`]),
//!   incremented as events arrive.
//!
//! The crate sits at the *bottom* of the workspace stack (std-only, no
//! tcu dependencies) so every layer can hook into it. The hard
//! invariant the hooks uphold: recording is **byte-unobservable** —
//! elements, `Stats`, trace digests, and simulated makespans are
//! identical with a recorder attached or not, because recorders only
//! ever observe wall-clock and already-charged quantities, never feed
//! anything back.
//!
//! ## Contention model
//!
//! [`ObsSink`] keeps one bounded ring buffer per lane, each behind its
//! own mutex. Exactly one thread writes a given lane in steady state —
//! the parallel driver's unit workers own their unit's lane, the main
//! thread owns the scheduler lane — so locks are uncontended and
//! recording stays off every other thread's path. When a ring is full
//! the *oldest* events drop (counted, surfaced in the report), so a
//! long run degrades to a recent-window trace instead of unbounded
//! memory.
//!
//! ## Activation
//!
//! Recorders are strictly opt-in: hooks hold an `Option<Arc<dyn
//! Recorder>>` that defaults to `None` (one branch when disabled).
//! Setting `TCU_TRACE_OUT=<path>` creates a process-global sink
//! ([`env_recorder`]) that machines pick up at construction;
//! [`flush_env_trace`] writes it out.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which timeline a recorded event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Main-thread orchestration: planning, compilation, dispatch,
    /// staging, merging, fault handling.
    Scheduler,
    /// Per-op execution (and executor-local cache traffic) on one
    /// tensor unit. The serial machine records as unit 0.
    Unit(u32),
}

/// What happened. Spans carry their payload here; wall-clock placement
/// lives in the enclosing [`SpanEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// One `Scheduler::plan` call: recorded ops in, scheduled
    /// (post-coalescing) ops and waves out.
    PlanBuild {
        /// Ops recorded into the graph.
        recorded: u64,
        /// Scheduled ops after coalescing.
        scheduled: u64,
        /// Dependency waves emitted.
        waves: u64,
    },
    /// A plan-memo lookup served from cache.
    MemoHit,
    /// A plan-memo lookup that had to plan.
    MemoMiss,
    /// One `Schedule::compile` lowering.
    Compile {
        /// Compiled ops in the executable plan.
        ops: u64,
    },
    /// Operand staging (snapshotting written-buffer regions before
    /// their first reader) for one dispatch or one serial op.
    Stage {
        /// Staging directives executed.
        copies: u32,
    },
    /// The merge pass copying the chain accumulators one worker message
    /// returned into outputs.
    Merge {
        /// Accumulators merged.
        items: u32,
    },
    /// One op executed on a unit: wall time in the span, simulated
    /// charge and streamed rows here.
    OpExec {
        /// Executing unit.
        unit: u32,
        /// Rows charged (the `n` of `n·√m + ℓ`).
        rows: u64,
        /// Simulated cost charged for the op's invocations.
        sim_cost: u64,
    },
    /// One scratch-buffer acquisition by the parallel driver.
    ScratchAcquire {
        /// Unit whose op the scratch is for.
        unit: u32,
        /// Whether a pooled buffer was reused (vs freshly allocated).
        reused: bool,
        /// Buffer size in bytes.
        bytes: u64,
    },
    /// One pack-cache lookup in an executor.
    PackLookup {
        /// Owning unit.
        unit: u32,
        /// Served from cache (`false` = packed on miss).
        hit: bool,
    },
    /// A pack-cache eviction (FIFO capacity).
    PackEvict {
        /// Owning unit.
        unit: u32,
    },
    /// A contained unit fault.
    Fault {
        /// Faulting unit.
        unit: u32,
        /// Transient (retryable) vs permanent.
        transient: bool,
    },
    /// A retry of a faulted op, with its simulated backoff charge.
    Retry {
        /// Retrying unit.
        unit: u32,
        /// Attempt number (2 = first retry).
        attempt: u32,
        /// Simulated backoff charged into wall-clock.
        backoff: u64,
    },
    /// A unit quarantined, its remaining work requeued onto survivors.
    Quarantine {
        /// Quarantined unit.
        unit: u32,
        /// Ops moved onto surviving units.
        requeued: u64,
    },
    /// A batch of ops became runnable on a unit's ready deque (dataflow
    /// driver): the dependency frontier cleared and the ops were
    /// dispatched in one message.
    Ready {
        /// Unit whose deque the ops were queued on.
        unit: u32,
        /// Ready-deque depth drained by this dispatch.
        depth: u32,
    },
}

impl EventKind {
    /// Short stable name (trace-event `name`, metrics key prefix).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PlanBuild { .. } => "plan",
            EventKind::MemoHit => "memo_hit",
            EventKind::MemoMiss => "memo_miss",
            EventKind::Compile { .. } => "compile",
            EventKind::Stage { .. } => "stage",
            EventKind::Merge { .. } => "merge",
            EventKind::OpExec { .. } => "op",
            EventKind::ScratchAcquire { .. } => "scratch",
            EventKind::PackLookup { .. } => "pack",
            EventKind::PackEvict { .. } => "pack_evict",
            EventKind::Fault { .. } => "fault",
            EventKind::Retry { .. } => "retry",
            EventKind::Quarantine { .. } => "quarantine",
            EventKind::Ready { .. } => "ready",
        }
    }
}

/// One closed span (or instant event, `dur_ns == 0`) on a lane.
///
/// Spans are recorded *after* they finish — the hook stamps the start,
/// does the work, then records with the measured duration — so a sink
/// never holds a half-open span and every export is well-formed by
/// construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// What happened.
    pub kind: EventKind,
    /// Start, in ns since the sink's origin.
    pub t_ns: u64,
    /// Duration in ns (0 for instant events).
    pub dur_ns: u64,
}

impl SpanEvent {
    /// End of the span, ns since origin.
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.t_ns + self.dur_ns
    }
}

/// Sink for execution telemetry. Implementations must be cheap and
/// must never panic: recording happens on execution hot paths,
/// including inside worker threads whose panics the parallel driver
/// interprets as unit faults.
///
/// `Debug` is required so hosting structs (machines, schedulers) keep
/// their derived `Debug` impls.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Monotonic ns since the recorder's origin — hooks use this to
    /// stamp span starts so starts and durations share one clock.
    fn now_ns(&self) -> u64;

    /// Deliver one closed span / instant event.
    fn record(&self, lane: Lane, ev: SpanEvent);
}

/// Counter identities of the [`Metrics`] registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)]
pub enum Metric {
    PlanBuilds,
    MemoHits,
    MemoMisses,
    Compiles,
    OpsExecuted,
    StageSpans,
    MergeSpans,
    ScratchReused,
    ScratchFresh,
    PackHits,
    PackMisses,
    PackEvictions,
    Faults,
    Retries,
    Quarantines,
    EventsDropped,
    ReadyDepthPeak,
}

/// Number of registered metrics.
const METRIC_COUNT: usize = 17;

/// Registry names, indexed by `Metric as usize`.
pub const METRIC_NAMES: [&str; METRIC_COUNT] = [
    "plan_builds",
    "memo_hits",
    "memo_misses",
    "compiles",
    "ops_executed",
    "stage_spans",
    "merge_spans",
    "scratch_reused",
    "scratch_fresh",
    "pack_hits",
    "pack_misses",
    "pack_evictions",
    "faults",
    "retries",
    "quarantines",
    "events_dropped",
    "ready_depth_peak",
];

/// The unified metrics registry: named monotonic counters, updated
/// lock-free as events arrive at an [`ObsSink`] and readable at any
/// time. One registry per sink; the text report prints a snapshot.
#[derive(Debug)]
pub struct Metrics {
    counters: [AtomicU64; METRIC_COUNT],
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Metrics {
    /// Add `by` to a counter.
    pub fn bump(&self, m: Metric, by: u64) {
        self.counters[m as usize].fetch_add(by, Ordering::Relaxed);
    }

    /// Raise a high-water-mark counter to `v` if `v` exceeds it (e.g.
    /// [`Metric::ReadyDepthPeak`], the deepest ready deque observed).
    pub fn bump_max(&self, m: Metric, v: u64) {
        self.counters[m as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Current value of a counter.
    #[must_use]
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize].load(Ordering::Relaxed)
    }

    /// Look a counter up by registry name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<u64> {
        METRIC_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// All `(name, value)` pairs, registry order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        METRIC_NAMES
            .iter()
            .zip(&self.counters)
            .map(|(n, c)| (*n, c.load(Ordering::Relaxed)))
            .collect()
    }
}

/// Run-identifying metadata stamped into exports so artifacts are
/// self-describing: the Perfetto JSON carries it in `otherData`, the
/// text report in its header.
#[derive(Clone, Debug, Default)]
pub struct RunMeta {
    /// Tensor units the run executed on.
    pub units: Option<u64>,
    /// CPU cores of the recording machine
    /// (`std::thread::available_parallelism`).
    pub ci_cores: Option<u64>,
    /// Pack-cache capacity per unit executor.
    pub pack_cache_capacity: Option<u64>,
    /// Plan-memo hits during the run.
    pub memo_hits: Option<u64>,
    /// Free-form extras (`(key, value)`).
    pub extra: Vec<(String, String)>,
}

impl RunMeta {
    fn pairs(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut push = |k: &str, v: &Option<u64>| {
            if let Some(v) = v {
                out.push((k.to_string(), v.to_string()));
            }
        };
        push("units", &self.units);
        push("ci_cores", &self.ci_cores);
        push("pack_cache_capacity", &self.pack_cache_capacity);
        push("memo_hits", &self.memo_hits);
        out.extend(self.extra.iter().cloned());
        out
    }
}

/// One lane's bounded buffer.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

/// Unit lanes pre-allocated per sink (beyond this, unit ids clamp to
/// the last lane — far above any realistic unit count here).
const MAX_UNIT_LANES: usize = 64;

/// Default per-lane ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

/// The standard [`Recorder`]: per-lane bounded ring buffers (scheduler
/// lane + one per unit) plus the [`Metrics`] registry, with Chrome
/// Trace Event export and a plain-text report.
#[derive(Debug)]
pub struct ObsSink {
    origin: Instant,
    capacity: usize,
    /// `lanes[0]` is the scheduler lane; `lanes[1 + u]` is unit `u`.
    lanes: Vec<Mutex<Ring>>,
    metrics: Metrics,
}

impl Default for ObsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsSink {
    /// A sink with the default per-lane capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A sink whose rings hold at most `capacity` events each (oldest
    /// events drop first once full; drops are counted).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            capacity: capacity.max(1),
            lanes: (0..=MAX_UNIT_LANES)
                .map(|_| Mutex::new(Ring::default()))
                .collect(),
            metrics: Metrics::default(),
        }
    }

    /// The sink's metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn lane_index(lane: Lane) -> usize {
        match lane {
            Lane::Scheduler => 0,
            Lane::Unit(u) => 1 + (u as usize).min(MAX_UNIT_LANES - 1),
        }
    }

    /// Snapshot of one lane's buffered events, oldest first.
    #[must_use]
    pub fn lane_events(&self, lane: Lane) -> Vec<SpanEvent> {
        match self.lanes[Self::lane_index(lane)].lock() {
            Ok(ring) => ring.events.iter().copied().collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Total events dropped to ring capacity, across lanes.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.metrics.get(Metric::EventsDropped)
    }

    /// Unit lanes that have recorded at least one event.
    #[must_use]
    pub fn active_units(&self) -> Vec<u32> {
        (0..MAX_UNIT_LANES as u32)
            .filter(|&u| {
                self.lanes[1 + u as usize]
                    .lock()
                    .map(|r| !r.events.is_empty())
                    .unwrap_or(false)
            })
            .collect()
    }

    fn count(&self, ev: &SpanEvent) {
        let m = &self.metrics;
        match ev.kind {
            EventKind::PlanBuild { .. } => m.bump(Metric::PlanBuilds, 1),
            EventKind::MemoHit => m.bump(Metric::MemoHits, 1),
            EventKind::MemoMiss => m.bump(Metric::MemoMisses, 1),
            EventKind::Compile { .. } => m.bump(Metric::Compiles, 1),
            EventKind::Stage { .. } => m.bump(Metric::StageSpans, 1),
            EventKind::Merge { .. } => m.bump(Metric::MergeSpans, 1),
            EventKind::OpExec { .. } => m.bump(Metric::OpsExecuted, 1),
            EventKind::ScratchAcquire { reused, .. } => m.bump(
                if reused {
                    Metric::ScratchReused
                } else {
                    Metric::ScratchFresh
                },
                1,
            ),
            EventKind::PackLookup { hit, .. } => m.bump(
                if hit {
                    Metric::PackHits
                } else {
                    Metric::PackMisses
                },
                1,
            ),
            EventKind::PackEvict { .. } => m.bump(Metric::PackEvictions, 1),
            EventKind::Fault { .. } => m.bump(Metric::Faults, 1),
            EventKind::Retry { .. } => m.bump(Metric::Retries, 1),
            EventKind::Quarantine { .. } => m.bump(Metric::Quarantines, 1),
            EventKind::Ready { depth, .. } => m.bump_max(Metric::ReadyDepthPeak, u64::from(depth)),
        }
    }

    /// Serialize the whole sink as Chrome Trace Event JSON (loadable in
    /// Perfetto / `chrome://tracing`): lane-naming metadata events plus
    /// one complete (`"ph": "X"`) event per recorded span, timestamps
    /// in microseconds. `meta` lands in `otherData`.
    #[must_use]
    pub fn export_chrome_trace(&self, meta: &RunMeta) -> String {
        let mut out = String::with_capacity(1 << 16);
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {");
        let pairs = meta.pairs();
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": \"{}\"",
                json_escape(k),
                json_escape(v)
            ));
        }
        out.push_str("\n  },\n  \"traceEvents\": [\n");
        let mut first = true;
        let mut push_event = |s: String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str("    ");
            out.push_str(&s);
        };
        // Lane-naming metadata: the scheduler lane, every declared unit
        // lane, and any further lane that actually recorded something.
        let declared = meta.units.unwrap_or(0) as usize;
        let mut named = vec![false; MAX_UNIT_LANES + 1];
        let mut name_lane = |tid: usize, label: String, first: &mut bool, named: &mut Vec<bool>| {
            if !named[tid] {
                named[tid] = true;
                push_event(
                    format!(
                        "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                         \"args\": {{\"name\": \"{label}\"}}}}"
                    ),
                    first,
                );
            }
        };
        name_lane(0, "scheduler".to_string(), &mut first, &mut named);
        for u in 0..declared.min(MAX_UNIT_LANES) {
            name_lane(1 + u, format!("unit {u}"), &mut first, &mut named);
        }
        for u in self.active_units() {
            name_lane(1 + u as usize, format!("unit {u}"), &mut first, &mut named);
        }
        // The spans, globally sorted by start time (ties: longer span
        // first, so an enclosing span precedes the spans it contains).
        // Ring order alone is not start order — a span is recorded when
        // it *closes*, so a nested span (a pack lookup inside an op
        // execute) lands in the ring before its parent.
        let mut spans: Vec<(usize, SpanEvent)> = Vec::new();
        for tid in 0..self.lanes.len() {
            if let Ok(r) = self.lanes[tid].lock() {
                spans.extend(r.events.iter().map(|&ev| (tid, ev)));
            }
        }
        spans.sort_by(|a, b| {
            a.1.t_ns
                .cmp(&b.1.t_ns)
                .then(b.1.dur_ns.cmp(&a.1.dur_ns))
                .then(a.0.cmp(&b.0))
        });
        for (tid, ev) in spans {
            let ts = ev.t_ns as f64 / 1000.0;
            let dur = ev.dur_ns as f64 / 1000.0;
            push_event(
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {ts:.3}, \"dur\": {dur:.3}, \
                     \"pid\": 1, \"tid\": {tid}, \"args\": {{{}}}}}",
                    ev.kind.name(),
                    args_json(&ev.kind),
                ),
                &mut first,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write [`Self::export_chrome_trace`] to `path`.
    ///
    /// # Errors
    /// Propagates the underlying file write error.
    pub fn write_chrome_trace(&self, path: &str, meta: &RunMeta) -> std::io::Result<()> {
        std::fs::write(path, self.export_chrome_trace(meta))
    }

    /// Per-unit utilization over the execution window: `(unit, busy_ns,
    /// idle_ns, ops)` per active unit, plus the window itself. The
    /// window spans the first span start to the last span end across
    /// unit lanes, so `busy + idle == window` for every unit.
    #[must_use]
    pub fn unit_utilization(&self) -> (u64, Vec<(u32, u64, u64, u64)>) {
        let mut t0 = u64::MAX;
        let mut t1 = 0u64;
        let mut per_unit: Vec<(u32, u64, u64)> = Vec::new(); // (unit, busy, ops)
        for u in self.active_units() {
            let mut busy = 0u64;
            let mut ops = 0u64;
            for ev in self.lane_events(Lane::Unit(u)) {
                t0 = t0.min(ev.t_ns);
                t1 = t1.max(ev.end_ns());
                if let EventKind::OpExec { .. } = ev.kind {
                    busy += ev.dur_ns;
                    ops += 1;
                }
            }
            per_unit.push((u, busy, ops));
        }
        let window = t1.saturating_sub(if t0 == u64::MAX { 0 } else { t0 });
        let rows = per_unit
            .into_iter()
            .map(|(u, busy, ops)| {
                let busy = busy.min(window);
                (u, busy, window - busy, ops)
            })
            .collect();
        (window, rows)
    }

    /// The plain-text run report: metadata header, per-unit busy/idle
    /// utilization, the wall-time split across
    /// plan/compile/stage/execute/merge (a phase no span of its kind
    /// reached reads `not recorded`), fault/retry lines, dispatch
    /// counters, and the metrics-registry snapshot.
    #[must_use]
    pub fn report(&self, meta: &RunMeta) -> String {
        let mut out = String::new();
        out.push_str("== tcu-obs run report ==\n");
        let pairs = meta.pairs();
        if !pairs.is_empty() {
            let line: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("meta: {}\n", line.join(" ")));
        }

        let (window, rows) = self.unit_utilization();
        out.push_str(&format!("execution window: {window} ns\n"));
        for (u, busy, idle, ops) in &rows {
            let pct = if window == 0 {
                0.0
            } else {
                100.0 * *busy as f64 / window as f64
            };
            out.push_str(&format!(
                "  unit {u}: busy {busy} ns ({pct:.1}%), idle {idle} ns, ops {ops}\n"
            ));
        }

        let mut phase = [0u64; 5]; // plan, compile, stage, execute, merge
        let mut retries = (0u64, 0u64); // count, simulated backoff
        for ev in self.lane_events(Lane::Scheduler) {
            match ev.kind {
                EventKind::PlanBuild { .. } => phase[0] += ev.dur_ns,
                EventKind::Compile { .. } => phase[1] += ev.dur_ns,
                EventKind::Stage { .. } => phase[2] += ev.dur_ns,
                EventKind::Merge { .. } => phase[4] += ev.dur_ns,
                EventKind::Retry { backoff, .. } => {
                    retries.0 += 1;
                    retries.1 += backoff;
                }
                _ => {}
            }
        }
        for (_, busy, _, _) in &rows {
            phase[3] += busy;
        }
        // A phase no span of its kind reached reads "not recorded": 0
        // would claim it was free.
        let seen = [
            Metric::PlanBuilds,
            Metric::Compiles,
            Metric::StageSpans,
            Metric::OpsExecuted,
            Metric::MergeSpans,
        ]
        .map(|m| self.metrics.get(m) > 0);
        out.push_str("phase wall time (ns):\n");
        for ((name, ns), seen) in ["plan", "compile", "stage", "execute", "merge"]
            .iter()
            .zip(phase)
            .zip(seen)
        {
            if seen {
                out.push_str(&format!("  {name:<8} {ns}\n"));
            } else {
                out.push_str(&format!("  {name:<8} not recorded\n"));
            }
        }
        if retries.0 > 0 {
            out.push_str(&format!(
                "retries: {} (simulated backoff {})\n",
                retries.0, retries.1
            ));
        }
        // Dataflow line: present whenever a dataflow run recorded ready
        // dispatches (the peak is >= 1 then).
        let ready_peak = self.metrics.get(Metric::ReadyDepthPeak);
        if ready_peak > 0 {
            out.push_str(&format!("dataflow: ready_depth_peak {ready_peak}\n"));
        }

        out.push_str("metrics:");
        for (name, v) in self.metrics.snapshot() {
            if v > 0 {
                out.push_str(&format!(" {name}={v}"));
            }
        }
        out.push('\n');
        out
    }
}

impl Recorder for ObsSink {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, lane: Lane, ev: SpanEvent) {
        self.count(&ev);
        if let Ok(mut ring) = self.lanes[Self::lane_index(lane)].lock() {
            if ring.events.len() >= self.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
                self.metrics.bump(Metric::EventsDropped, 1);
            }
            ring.events.push_back(ev);
        }
    }
}

/// Longest cost-weighted path through a forward-edge DAG: node `i`'s
/// successors must all have indices `> i` (the shape
/// `tcu-sched`'s hazard index produces). Node weights are inclusive —
/// a single node's path is its own cost — so the result is the
/// schedule-independent lower bound on makespan a critical-path
/// analysis compares against.
#[must_use]
pub fn critical_path(costs: &[u64], succs: &[Vec<usize>]) -> u64 {
    let n = costs.len();
    debug_assert_eq!(succs.len(), n);
    let mut finish = vec![0u64; n];
    let mut best = 0u64;
    for i in 0..n {
        finish[i] += costs[i];
        best = best.max(finish[i]);
        for &j in &succs[i] {
            debug_assert!(j > i, "critical_path requires forward edges");
            if j > i && j < n {
                finish[j] = finish[j].max(finish[i]);
            }
        }
    }
    best
}

/// Minimal JSON string escaping for metadata values.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `args` object body for one event kind.
fn args_json(kind: &EventKind) -> String {
    match *kind {
        EventKind::PlanBuild {
            recorded,
            scheduled,
            waves,
        } => format!("\"recorded\": {recorded}, \"scheduled\": {scheduled}, \"waves\": {waves}"),
        EventKind::MemoHit | EventKind::MemoMiss => String::new(),
        EventKind::Compile { ops } => format!("\"ops\": {ops}"),
        EventKind::Stage { copies } => format!("\"copies\": {copies}"),
        EventKind::Merge { items } => format!("\"items\": {items}"),
        EventKind::OpExec {
            unit,
            rows,
            sim_cost,
        } => format!("\"unit\": {unit}, \"rows\": {rows}, \"sim_cost\": {sim_cost}"),
        EventKind::ScratchAcquire {
            unit,
            reused,
            bytes,
        } => format!("\"unit\": {unit}, \"reused\": {reused}, \"bytes\": {bytes}"),
        EventKind::PackLookup { unit, hit } => format!("\"unit\": {unit}, \"hit\": {hit}"),
        EventKind::PackEvict { unit } => format!("\"unit\": {unit}"),
        EventKind::Fault { unit, transient } => {
            format!("\"unit\": {unit}, \"transient\": {transient}")
        }
        EventKind::Retry {
            unit,
            attempt,
            backoff,
        } => format!("\"unit\": {unit}, \"attempt\": {attempt}, \"backoff\": {backoff}"),
        EventKind::Quarantine { unit, requeued } => {
            format!("\"unit\": {unit}, \"requeued\": {requeued}")
        }
        EventKind::Ready { unit, depth } => format!("\"unit\": {unit}, \"depth\": {depth}"),
    }
}

/// Process-global sink created from `TCU_TRACE_OUT`, if set.
static ENV_SINK: OnceLock<Option<(Arc<ObsSink>, String)>> = OnceLock::new();

fn env_entry() -> &'static Option<(Arc<ObsSink>, String)> {
    ENV_SINK.get_or_init(|| {
        std::env::var("TCU_TRACE_OUT")
            .ok()
            .filter(|p| !p.is_empty())
            .map(|p| (Arc::new(ObsSink::new()), p))
    })
}

/// The process-global recorder, present iff `TCU_TRACE_OUT=<path>` was
/// set when first consulted. Machines pick this up at construction, so
/// setting the variable is all it takes to trace an existing binary.
#[must_use]
pub fn env_recorder() -> Option<Arc<ObsSink>> {
    env_entry().as_ref().map(|(s, _)| Arc::clone(s))
}

/// The output path `TCU_TRACE_OUT` named, if set.
#[must_use]
pub fn env_trace_path() -> Option<&'static str> {
    env_entry().as_ref().map(|(_, p)| p.as_str())
}

/// Write the process-global sink's Chrome trace to the `TCU_TRACE_OUT`
/// path. Returns the path written, or `None` when tracing is off.
/// Binaries call this once at exit (std has no portable atexit seam).
///
/// # Errors
/// Propagates the underlying file write error.
pub fn flush_env_trace(meta: &RunMeta) -> std::io::Result<Option<&'static str>> {
    match env_entry() {
        Some((sink, path)) => {
            sink.write_chrome_trace(path, meta)?;
            Ok(Some(path.as_str()))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: EventKind, t: u64, d: u64) -> SpanEvent {
        SpanEvent {
            kind,
            t_ns: t,
            dur_ns: d,
        }
    }

    #[test]
    fn metrics_count_event_kinds() {
        let sink = ObsSink::new();
        sink.record(Lane::Scheduler, span(EventKind::MemoHit, 0, 0));
        sink.record(Lane::Scheduler, span(EventKind::MemoMiss, 1, 0));
        sink.record(Lane::Scheduler, span(EventKind::MemoHit, 2, 0));
        sink.record(
            Lane::Unit(0),
            span(EventKind::PackLookup { unit: 0, hit: true }, 3, 0),
        );
        let m = sink.metrics();
        assert_eq!(m.get(Metric::MemoHits), 2);
        assert_eq!(m.get(Metric::MemoMisses), 1);
        assert_eq!(m.get(Metric::PackHits), 1);
        assert_eq!(m.lookup("memo_hits"), Some(2));
        assert_eq!(m.lookup("no_such_metric"), None);
        assert_eq!(m.snapshot().len(), METRIC_NAMES.len());
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let sink = ObsSink::with_capacity(2);
        for t in 0..5u64 {
            sink.record(Lane::Unit(3), span(EventKind::MemoHit, t, 0));
        }
        let evs = sink.lane_events(Lane::Unit(3));
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].t_ns, evs[1].t_ns), (3, 4));
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn lanes_are_separate_and_units_clamp() {
        let sink = ObsSink::new();
        sink.record(Lane::Scheduler, span(EventKind::MemoHit, 0, 0));
        sink.record(Lane::Unit(1), span(EventKind::MemoMiss, 1, 0));
        sink.record(Lane::Unit(9999), span(EventKind::MemoMiss, 2, 0));
        assert_eq!(sink.lane_events(Lane::Scheduler).len(), 1);
        assert_eq!(sink.lane_events(Lane::Unit(1)).len(), 1);
        assert_eq!(sink.lane_events(Lane::Unit(0)).len(), 0);
        // Oversized unit ids land on the last lane instead of panicking.
        assert_eq!(
            sink.lane_events(Lane::Unit(MAX_UNIT_LANES as u32 - 1))
                .len(),
            1
        );
        assert_eq!(sink.active_units(), vec![1, MAX_UNIT_LANES as u32 - 1]);
    }

    #[test]
    fn utilization_busy_plus_idle_matches_window() {
        let sink = ObsSink::new();
        let op = |u, t, d| {
            span(
                EventKind::OpExec {
                    unit: u,
                    rows: 8,
                    sim_cost: 39,
                },
                t,
                d,
            )
        };
        sink.record(Lane::Unit(0), op(0, 100, 50));
        sink.record(Lane::Unit(0), op(0, 200, 30));
        sink.record(Lane::Unit(1), op(1, 120, 180));
        let (window, rows) = sink.unit_utilization();
        // First start 100 (unit 0), last end 120 + 180 = 300 (unit 1).
        assert_eq!(window, 200);
        for (u, busy, idle, ops) in rows {
            assert_eq!(busy + idle, window, "unit {u}");
            assert!(ops > 0);
        }
    }

    #[test]
    fn chrome_trace_names_lanes_and_closes_spans() {
        let sink = ObsSink::new();
        sink.record(
            Lane::Scheduler,
            span(
                EventKind::PlanBuild {
                    recorded: 10,
                    scheduled: 8,
                    waves: 2,
                },
                5,
                100,
            ),
        );
        sink.record(
            Lane::Unit(0),
            span(
                EventKind::OpExec {
                    unit: 0,
                    rows: 16,
                    sim_cost: 77,
                },
                10,
                40,
            ),
        );
        let meta = RunMeta {
            units: Some(2),
            ci_cores: Some(2),
            ..RunMeta::default()
        };
        let json = sink.export_chrome_trace(&meta);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"scheduler\""));
        assert!(json.contains("\"name\": \"unit 0\""));
        // Declared-but-idle unit 1 still gets a named lane.
        assert!(json.contains("\"name\": \"unit 1\""));
        assert!(json.contains("\"units\": \"2\""));
        assert!(json.contains("\"ci_cores\": \"2\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"sim_cost\": 77"));
        // Every complete event carries a duration (spans are closed).
        for line in json.lines().filter(|l| l.contains("\"ph\": \"X\"")) {
            assert!(line.contains("\"dur\":"), "unclosed span: {line}");
        }
    }

    #[test]
    fn report_contains_utilization_and_metrics() {
        let sink = ObsSink::new();
        sink.record(
            Lane::Unit(2),
            span(
                EventKind::OpExec {
                    unit: 2,
                    rows: 4,
                    sim_cost: 16,
                },
                0,
                500,
            ),
        );
        sink.record(
            Lane::Scheduler,
            span(EventKind::Ready { unit: 2, depth: 3 }, 0, 0),
        );
        let rep = sink.report(&RunMeta::default());
        assert!(rep.contains("unit 2: busy 500 ns (100.0%), idle 0 ns"));
        assert!(rep.contains("dataflow: ready_depth_peak 3"));
        assert!(rep.contains("ops_executed=1"));
        assert!(rep.contains("ready_depth_peak=3"));
    }

    #[test]
    fn phases_no_span_reached_read_not_recorded() {
        // A machine-attached sink sees the run's spans, not the plan and
        // compile spans: those phases are unmeasured, not free.
        let sink = ObsSink::new();
        sink.record(
            Lane::Unit(0),
            span(
                EventKind::OpExec {
                    unit: 0,
                    rows: 4,
                    sim_cost: 16,
                },
                10,
                500,
            ),
        );
        sink.record(Lane::Scheduler, span(EventKind::Stage { copies: 2 }, 0, 10));
        sink.record(Lane::Scheduler, span(EventKind::Merge { items: 1 }, 510, 0));
        let rep = sink.report(&RunMeta::default());
        assert!(rep.contains("  plan     not recorded\n"), "{rep}");
        assert!(rep.contains("  compile  not recorded\n"), "{rep}");
        assert!(rep.contains("  stage    10\n"), "{rep}");
        assert!(rep.contains("  execute  500\n"), "{rep}");
        // A zero-length span of a phase's kind is a measured 0.
        assert!(rep.contains("  merge    0\n"), "{rep}");
        sink.record(Lane::Scheduler, span(EventKind::Compile { ops: 1 }, 0, 7));
        assert!(sink.report(&RunMeta::default()).contains("  compile  7\n"));
    }

    #[test]
    fn critical_path_on_chains_and_diamonds() {
        // Chain 0 -> 1 -> 2.
        assert_eq!(critical_path(&[3, 4, 5], &[vec![1], vec![2], vec![]]), 12);
        // Diamond: 0 -> {1, 2} -> 3; the heavy arm wins.
        assert_eq!(
            critical_path(&[1, 10, 2, 1], &[vec![1, 2], vec![3], vec![3], vec![]]),
            12
        );
        // No edges: the max node.
        assert_eq!(critical_path(&[7, 9, 3], &[vec![], vec![], vec![]]), 9);
        assert_eq!(critical_path(&[], &[]), 0);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn env_recorder_absent_without_env() {
        // The test harness never sets TCU_TRACE_OUT.
        assert!(env_recorder().is_none());
        assert!(env_trace_path().is_none());
        assert!(flush_env_trace(&RunMeta::default())
            .map(|p| p.is_none())
            .unwrap_or(false));
    }
}
