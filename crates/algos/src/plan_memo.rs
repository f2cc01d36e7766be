//! Bounded memo for recorded op graphs and their schedules.
//!
//! The deferred algorithm paths (`dense`, `strassen`, `gauss`,
//! `closure`) record a *structural* op graph — buffer shapes and region
//! rectangles, no element data — and plan it before executing. The
//! graph depends only on a handful of integer parameters, yet small
//! problems pay the full record + coalesce + level + partition cost on
//! every call, which is exactly the `strassen d=64 base=8` wall cliff in
//! `BENCH_sched.json`: planning ~8³ leaf products costs more wall-clock
//! than the products.
//!
//! [`plan_cached`] memoizes the finished `(OpGraph, buffers, Schedule)`
//! triple under a **parameter key**: the builder's identity and integer
//! parameters plus everything the planner consults on the unit (`√m`,
//! ℓ, tall-operand support, the concrete unit *type*, and the planned
//! unit count). A hit skips the builder and the planner, and shares the
//! schedule's compiled [`tcu_sched::ExecutablePlan`]; a miss builds the
//! graph and plans it.
//!
//! Graphs are scalar-agnostic, so one entry serves every element type.
//! [`plan_cache_stats`] exposes hit/miss counters and the wall-clock
//! nanoseconds spent inside `Scheduler::plan`, letting benchmarks
//! report first-plan cost and amortized plan cost separately.
//!
//! The memo is thread-local (plans are cheap to rebuild per thread and
//! this keeps the fast path free of locks) and FIFO-bounded at
//! [`MEMO_CAP`] entries so pathological parameter sweeps cannot retain
//! unbounded memory.
//!
//! What keeps the memo small is the builders, not the cap: each records
//! against operands laid out relative to the graph, so its parameter
//! key names one graph *shape*, not one call site — dense `(d, blk)`,
//! Strassen `(d, tile)`, Gauss `(d, s, stage)`, closure `(n, s, chunk
//! length)`. The closure's `D` chunks read a gathered weight panel,
//! never the adjacency matrix at the stage's offset, which is what lets
//! chunk length alone key them. One round of the four scheduled paper
//! paths (Strassen `d = 64` base 8, dense and Gauss `d = 256`, closure
//! `n = 256`, all on `√m = 16`) therefore needs 19 plans: 1 Strassen, 1
//! dense, 15 Gauss stages (one per trailing-panel height) and 2 closure
//! chunk lengths. A warm round plans nothing. Eviction stays FIFO on
//! purpose: nothing in that round is evicted, and on a cyclic round
//! larger than the cap LRU and CLOCK evict every entry before its
//! reuse, exactly as FIFO does.

use std::any::TypeId;
use std::cell::RefCell;
use std::rc::Rc;

use tcu_core::TensorUnit;
use tcu_sched::{BufferId, OpGraph, Schedule, Scheduler};

/// Maximum number of retained plans per thread (FIFO eviction).
pub const MEMO_CAP: usize = 64;

/// A recorded graph, the buffer handles its builder declared (in
/// declaration order), and the schedule planned for it.
pub struct PlannedGraph {
    /// The recorded op graph (needed to open an `ExecEnv`).
    pub graph: OpGraph,
    /// Buffer handles in the order the builder created them.
    pub bufs: Vec<BufferId>,
    /// The planned schedule for `graph`.
    pub plan: Schedule,
}

/// Everything that can change the planner's output for a fixed builder.
type Key = (
    &'static str, // builder identity
    [usize; 4],   // builder parameters (dimension, tile, stage, …)
    TypeId,       // concrete unit type (cost model)
    usize,        // √m
    u64,          // ℓ
    bool,         // tall-operand support
    usize,        // planned unit count
);

/// Running counters of the thread's plan memo (see
/// [`plan_cache_stats`]). `hits + misses` equals the number of
/// [`plan_cached`] calls; `plan_ns` accumulates wall-clock nanoseconds
/// spent inside `Scheduler::plan` on misses — the cost hits amortize
/// away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Calls served without running the planner.
    pub hits: u64,
    /// Calls that ran `Scheduler::plan`.
    pub misses: u64,
    /// Always 0: the memo has no level that shares one plan across
    /// parameter keys. Kept so struct literals naming it still build.
    #[doc(hidden)]
    pub shared: u64,
    /// Nanoseconds spent planning (misses only).
    pub plan_ns: u64,
}

thread_local! {
    static MEMO: RefCell<Vec<(Key, Rc<PlannedGraph>)>> = const { RefCell::new(Vec::new()) };
    static STATS: RefCell<PlanCacheStats> = const { RefCell::new(PlanCacheStats {
        hits: 0, misses: 0, shared: 0, plan_ns: 0 }) };
}

/// Telemetry: memo outcomes as instant events on the scheduler lane of
/// the process-global recorder, when `TCU_TRACE_OUT` is set. The
/// counters in [`PlanCacheStats`] are authoritative either way; this
/// only places the hits and misses on the timeline.
fn note_memo(hit: bool) {
    if let Some(rec) = tcu_obs::env_recorder() {
        use tcu_obs::Recorder as _;
        let t = rec.now_ns();
        rec.record(
            tcu_obs::Lane::Scheduler,
            tcu_obs::SpanEvent {
                kind: if hit {
                    tcu_obs::EventKind::MemoHit
                } else {
                    tcu_obs::EventKind::MemoMiss
                },
                t_ns: t,
                dur_ns: 0,
            },
        );
    }
}

/// This thread's plan-memo counters since start (or the last
/// [`reset_plan_cache_stats`]).
#[must_use]
pub fn plan_cache_stats() -> PlanCacheStats {
    STATS.with(|s| *s.borrow())
}

/// Zero this thread's plan-memo counters (the memo itself is kept).
pub fn reset_plan_cache_stats() {
    STATS.with(|s| *s.borrow_mut() = PlanCacheStats::default());
}

/// Return the memoized plan for `(tag, dims)` under `unit`/`units`,
/// building the graph via `build` and planning it on a miss.
///
/// `build` must be a pure function of `(tag, dims)`: it returns the
/// recorded graph and its buffer handles, and the same inputs must
/// always produce a structurally identical graph (the memo replays the
/// cached one instead of calling it again).
pub fn plan_cached<U: TensorUnit + 'static>(
    tag: &'static str,
    dims: [usize; 4],
    unit: &U,
    units: usize,
    build: impl FnOnce() -> (OpGraph, Vec<BufferId>),
) -> Rc<PlannedGraph> {
    let key: Key = (
        tag,
        dims,
        TypeId::of::<U>(),
        unit.sqrt_m(),
        unit.latency(),
        unit.supports_tall(),
        units,
    );
    let cached = MEMO.with(|memo| {
        memo.borrow()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, hit)| Rc::clone(hit))
    });
    if let Some(hit) = cached {
        STATS.with(|s| s.borrow_mut().hits += 1);
        note_memo(true);
        return hit;
    }

    let (graph, bufs) = build();
    let t0 = std::time::Instant::now();
    let plan = Scheduler::new().with_units(units).plan(&graph, unit);
    let spent = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    STATS.with(|s| {
        let mut s = s.borrow_mut();
        s.misses += 1;
        s.plan_ns += spent;
    });
    note_memo(false);
    let entry = Rc::new(PlannedGraph { graph, bufs, plan });
    MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        if memo.len() == MEMO_CAP {
            memo.remove(0);
        }
        memo.push((key, Rc::clone(&entry)));
    });
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcu_core::{ModelTensorUnit, TensorOp};
    use tcu_sched::OperandRef;

    fn tiny_graph(d: usize) -> (OpGraph, Vec<BufferId>) {
        let mut g = OpGraph::new();
        let a = g.buffer("A", d, d);
        let b = g.buffer("B", d, d);
        let c = g.buffer("C", d, d);
        g.record(
            TensorOp::padded(d, d, d),
            OperandRef::new(a, 0, 0, d, d),
            OperandRef::new(b, 0, 0, d, d),
            OperandRef::new(c, 0, 0, d, d),
        );
        (g, vec![a, b, c])
    }

    #[test]
    fn hit_returns_the_same_plan_and_skips_the_builder() {
        let unit = ModelTensorUnit::new(16, 3);
        let first = plan_cached("test-tiny", [4, 0, 0, 0], &unit, 1, || tiny_graph(4));
        let second = plan_cached("test-tiny", [4, 0, 0, 0], &unit, 1, || {
            panic!("builder must not run on a hit")
        });
        assert!(Rc::ptr_eq(&first, &second));
        assert_eq!(first.bufs.len(), 3);
    }

    #[test]
    fn distinct_parameters_and_units_get_distinct_plans() {
        let unit = ModelTensorUnit::new(64, 3);
        let a = plan_cached("test-param", [4, 0, 0, 0], &unit, 1, || tiny_graph(4));
        let b = plan_cached("test-param", [8, 0, 0, 0], &unit, 1, || tiny_graph(8));
        assert!(!Rc::ptr_eq(&a, &b));
        let slow = ModelTensorUnit::new(64, 999);
        let c = plan_cached("test-param", [4, 0, 0, 0], &slow, 1, || tiny_graph(4));
        assert!(!Rc::ptr_eq(&a, &c), "latency is part of the key");
    }

    #[test]
    fn memo_is_fifo_bounded() {
        let unit = ModelTensorUnit::new(16, 5);
        let first = plan_cached("test-cap", [0, 0, 0, 1], &unit, 1, || tiny_graph(4));
        for i in 1..=MEMO_CAP {
            let _ = plan_cached("test-cap", [i, 0, 0, 1], &unit, 1, || tiny_graph(4));
        }
        // The oldest entry was evicted: its key builds and plans again.
        let before = plan_cache_stats();
        let mut rebuilt = false;
        let again = plan_cached("test-cap", [0, 0, 0, 1], &unit, 1, || {
            rebuilt = true;
            tiny_graph(4)
        });
        let after = plan_cache_stats();
        assert!(rebuilt, "FIFO eviction must drop the oldest entry");
        assert_eq!(
            after.misses,
            before.misses + 1,
            "the evicted key plans again"
        );
        assert_eq!(after.hits, before.hits);
        assert!(!Rc::ptr_eq(&first, &again));
    }
}
