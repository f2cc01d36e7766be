//! Scheduling-runtime benchmark: the PR-3 eager issue path versus the
//! `tcu-sched` deferred path on the blocked Theorem 2 flow. Emits
//! machine-readable `BENCH_sched.json` (override with `--out <path>`);
//! `--quick` shrinks sizes/reps for the CI smoke run.
//!
//! Scheduling is a plan-once / run-many runtime (the graph and its
//! schedule are reusable across data bindings), so the timed scheduled
//! flow is the *run*: recording + planning cost is measured once and
//! reported separately as `plan_ns`.
//!
//! Seven case families:
//!
//! * `packcache d=<d>` — the E2 hot path (`√m = 16`, strict full-width
//!   blocks, `f64`): eager `dense::multiply` re-reads each `A` strip
//!   through page-strided views once per block column, while the
//!   scheduled run tags operands so `HostExecutor`'s pack cache packs
//!   each strip once per run and re-uses it `d/√m` times. Model charges
//!   are identical (nothing can coalesce at full width); the win is
//!   host wall-clock and packed-strip traffic.
//! * `coalesce d=<d>` — the same flow recorded in 16-wide blocks but
//!   planned for a `√m = 32` unit: width+inner merging fuses each 2×2
//!   group of narrow ops into one full-footprint invocation — 4× fewer
//!   invocations and streamed rows *in simulated time*, the model's own
//!   cost terms.
//! * `plan d=512 ops=1024` — *planner wall time* on the canonical
//!   1024-op coalesce graph, coalescing off vs on. The ns/op columns
//!   divide each planner's wall by the ops *it emits* (1024 plain, 256
//!   coalesced) — a plan-only denominator, so `speedup_wall` here is
//!   per-emitted-op plan cost and never mixes planner wall with a run
//!   config. `plan_ms` is still the full coalescing-planner call. Runs
//!   at full size even under `--quick`, so CI can diff the committed
//!   `plan_ms` baseline and catch a regression of the
//!   bucketed-hazard-index + batched-merge planning cost (the PR-4
//!   all-pairs scan took ≈92 ms here).
//! * `strassen d=<d> base=8 memo<=N` — the recursive flow with a
//!   sub-footprint base: the scheduler width-merges leaf-product pairs,
//!   halving base invocations versus the eager recursion at the same
//!   base. This case times the whole scheduled call; recursions at or
//!   below `N` leaf products re-use a memoized plan
//!   (`tcu_algos::plan_memo`), so record + plan cost — formerly the
//!   dominant wall cost here, the 0.158× cliff — is paid once in the
//!   warmup and the timed rounds run plan-free.
//! * `dataflow d=<d> units=<p>` — the serial scheduled run versus
//!   `run_parallel` (the barrier-free dataflow driver) on `p` units
//!   over the packcache-style accumulation graph (`d/√m` independent
//!   column-block chains). Results are asserted bit-identical before
//!   timing; the `speedup_wall` of these cases is what `bench_diff`
//!   gates on runners whose core count matches the committed
//!   baseline's (a 1-core runner resolves to the inline executor, so
//!   `sched ns/op` collapses to ≈ the serial run). Their
//!   `sched_efficiency` (the structural bound over the dataflow
//!   makespan) is a *hard* `bench_diff` gate — deterministic, so >10%
//!   drops fail even in informational mode.
//! * `faults d=<d> units=<p> rate=<r>` — `run_parallel` on plain
//!   executors versus the fault-tolerant `try_run_parallel` on
//!   `FaultyExecutor`s injecting `r` transient faults per mille (plus a
//!   permanent victim when `r > 0`). `rate=0` pins the fault-free
//!   containment overhead in wall-clock (the gated number); nonzero
//!   rates chart recovery's simulated cost — retry backoff + recovery
//!   passes — against fault density. Recovery is replay-deterministic,
//!   so the simulated columns are exact. Elements and `Stats` are
//!   asserted byte-identical before timing (the recovery contract).
//! * `gauss d=<d>` / `closure n=<n>` — the panel-re-streaming paper
//!   workloads on their scheduled fast paths
//!   (`gauss::eliminate_scheduled`, `closure::transitive_scheduled`):
//!   model charges are asserted identical to eager. With plans
//!   memoized + compiled once (structural shape-hash sharing) and the
//!   closure `D`-stage chunked to keep its product panel
//!   cache-resident, both run at or above eager wall at the committed
//!   sizes — `bench_diff` gates their `speedup_wall` against an
//!   absolute 1.0× floor (ROADMAP item 2's target). Gauss keeps the
//!   pack cache on (its pivot panels are *strided* re-streamed
//!   operands; the pack-ratio column shows one pack per plan); closure
//!   runs cache-off here, see `bench_closure`.
//!
//! Every variant is checked element-equal against its eager counterpart
//! before timing, so the numbers can never come from a wrong schedule.
//! The eager-vs-sched serial cases time both rivals through
//! `time_pair_ns` (order-alternating interleaved rounds), so a
//! frequency-drift episode or a slot-order warmup artifact cannot
//! manufacture a ratio.

use tcu_algos::{closure, dense, gauss, strassen, workloads};
use tcu_core::{Stats, TcuMachine};
use tcu_linalg::Matrix;

const SQRT_M: usize = 16;

fn workload(r: usize, c: usize, seed: u64) -> Matrix<f64> {
    Matrix::from_fn(r, c, |i, j| {
        let x = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(seed);
        (x % 4096) as f64 / 2048.0 - 1.0
    })
}

/// Plan-memo cost split for the cases whose scheduled entry point plans
/// inside the timed call (gauss/closure/strassen). `first_plan_ns` is
/// the planning wall time the *first* (warmup) call paid — the cost the
/// old single `plan_ns: 0.0` field hid — and `amortized_plan_ns` is the
/// planning time per timed rep once the structural memo is warm (≈ 0
/// when plan sharing works). The hit/miss counters are cumulative over
/// the case (warmup + timed reps), so `plan_cache_hits > 0` is the CI
/// witness that equal-shape stages actually shared a plan.
#[derive(Default)]
struct MemoCost {
    first_plan_ns: f64,
    amortized_plan_ns: f64,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
}

impl MemoCost {
    /// Capture the memo cost of one benched case: `warm` is the stats
    /// snapshot after the correctness/warmup call (memo cold before
    /// it), `total` the snapshot after the timed reps.
    fn from_stats(
        warm: tcu_algos::plan_memo::PlanCacheStats,
        total: tcu_algos::plan_memo::PlanCacheStats,
        reps: u32,
    ) -> Self {
        Self {
            first_plan_ns: warm.plan_ns as f64,
            amortized_plan_ns: (total.plan_ns - warm.plan_ns) as f64 / f64::from(reps.max(1)),
            plan_cache_hits: total.hits,
            plan_cache_misses: total.misses,
        }
    }
}

struct Case {
    name: String,
    d: usize,
    sqrt_m: usize,
    /// Worker threads (= planned units) the scheduled flow ran with; 1
    /// for the serial cases. `bench_diff` gates `speedup_wall` for
    /// cases with `threads > 1` only when the runner's core count
    /// matches the baseline's.
    threads: usize,
    reps: u32,
    eager_ns: f64,
    sched_ns: f64,
    plan_ns: f64,
    eager_invocations: u64,
    sched_invocations: u64,
    eager_sim_time: u64,
    sched_sim_time: u64,
    pack_lookups: u64,
    pack_misses: u64,
    packed_bytes: u64,
    memo: MemoCost,
    /// Longest cost-weighted hazard chain of the scheduled plan — the
    /// lower bound no unit count can beat (0 when the case's plan lives
    /// inside an algos entry point and is not held here).
    critical_path: u64,
    /// `max(critical_path, ⌈work/units⌉) / makespan` of the plan: 1.0
    /// means the LPT waves hit the structural lower bound (0.0 when the
    /// plan is not held here). For the `dataflow` and `faults` cases
    /// this is [`tcu_sched::Schedule::dataflow_efficiency`] — the same
    /// bound over the barrier-free placement's makespan.
    sched_efficiency: f64,
    /// Planned parallel wall over the cost-weighted critical path —
    /// how far the schedule sits from the no-units-can-help floor
    /// (1.0 = critical-path bound; 0.0 when the plan is not held
    /// here). For the `dataflow` and `faults` cases the numerator is
    /// the dataflow makespan, for every other planned case the wave
    /// makespan.
    makespan_over_cp: f64,
}

impl Case {
    /// Packed-strip traffic ratio: what a pack-per-invocation policy
    /// moves divided by what the cache moved (1.0 when caching is not
    /// part of the case).
    fn pack_ratio(&self) -> f64 {
        if self.pack_misses == 0 {
            1.0
        } else {
            self.pack_lookups as f64 / self.pack_misses as f64
        }
    }
}

/// `makespan / critical_path` guarded against plan-less cases.
fn over_cp(makespan: u64, critical_path: u64) -> f64 {
    if critical_path == 0 {
        0.0
    } else {
        makespan as f64 / critical_path as f64
    }
}

/// Eager vs scheduled+pack-cache on the strict `√m = 16` blocked flow.
fn bench_packcache(d: usize, quick: bool) -> Case {
    use tcu_core::TensorOp;
    use tcu_sched::{ExecEnv, OpGraph, OperandRef, Scheduler};

    let a = workload(d, d, 1);
    let b = workload(d, d, 2);
    let s = SQRT_M;
    let q = d / s;
    // Derived capacity: one run streams `q` strips of `A`, so the
    // heuristic's `2·(d/√m)` bound keeps them all resident.
    let pack_cap = tcu_core::pack_cache_capacity((d, d), s, 1);

    let eager_run = || {
        let mut mach = TcuMachine::model(s * s, 0);
        let c = dense::multiply(&mut mach, &a, &b);
        (c, mach.stats().clone())
    };
    // Correctness + accounting parity through the algos-level entry
    // point (which also bills the CPU final summation).
    let (c_eager, eager_stats) = eager_run();
    let (c_sched, sched_stats, cache) = {
        let mut mach = TcuMachine::model(s * s, 0);
        mach.executor_mut().enable_pack_cache(pack_cap);
        let c = dense::multiply_scheduled(&mut mach, &a, &b);
        let cache = mach.executor().pack_cache_stats().expect("cache enabled");
        (c, mach.stats().clone(), cache)
    };
    assert_eq!(c_eager, c_sched, "scheduled result must equal eager");
    assert_eq!(
        eager_stats, sched_stats,
        "full-width blocks must charge identically"
    );

    // Timed flow: record + plan once, then run per rep (the runtime's
    // plan-once / run-many contract).
    let mut g = OpGraph::new();
    let ab = g.buffer("A", d, d);
    let bb = g.buffer("B", d, d);
    let cb = g.buffer("C", d, d);
    let record = |g: &mut OpGraph| {
        for j in 0..q {
            for k in 0..q {
                g.record(
                    TensorOp::mul_acc(d, s),
                    OperandRef::new(ab, 0, k * s, d, s),
                    OperandRef::new(bb, k * s, j * s, s, s),
                    OperandRef::new(cb, 0, j * s, d, s),
                );
            }
        }
    };
    record(&mut g);
    let unit = *TcuMachine::model(s * s, 0).unit();
    let plan = Scheduler::new().plan(&g, &unit);
    let plan_ns = tcu_bench::time_ns(if quick { 2 } else { 5 }, || {
        // Ids are registration indices, so the handles `record` closes
        // over transfer to a fresh graph with the same buffer layout.
        let mut g2 = OpGraph::new();
        let _ = (
            g2.buffer("A", d, d),
            g2.buffer("B", d, d),
            g2.buffer("C", d, d),
        );
        record(&mut g2);
        Scheduler::new().plan(&g2, &unit)
    });

    let sched_once = || {
        let mut mach = TcuMachine::model(s * s, 0);
        mach.executor_mut().enable_pack_cache(pack_cap);
        let mut c = Matrix::<f64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan.run(&mut mach, &mut env);
        c
    };
    assert_eq!(sched_once(), c_eager, "planned run must equal eager");

    let reps: u32 = if quick { 3 } else { 10 };
    let (eager_ns, sched_ns) = tcu_bench::time_pair_ns(reps, || eager_run().0, sched_once);
    Case {
        name: format!("packcache d={d}"),
        d,
        sqrt_m: s,
        threads: 1,
        reps,
        eager_ns,
        sched_ns,
        plan_ns,
        eager_invocations: eager_stats.tensor_calls,
        sched_invocations: sched_stats.tensor_calls,
        eager_sim_time: eager_stats.time(),
        sched_sim_time: sched_stats.time(),
        pack_lookups: cache.lookups,
        pack_misses: cache.misses,
        packed_bytes: cache.packed_bytes,
        memo: MemoCost::default(),
        critical_path: plan.critical_path(),
        sched_efficiency: plan.sched_efficiency(),
        makespan_over_cp: over_cp(plan.makespan(), plan.critical_path()),
    }
}

/// Narrow (block-16) recording planned for a `√m = 32` unit: the
/// coalescing win in the model's own cost terms. The eager reference is
/// the same narrow stream charged without coalescing.
fn bench_coalesce(d: usize, quick: bool) -> Case {
    use tcu_core::TensorOp;
    use tcu_sched::{ExecEnv, OpGraph, OperandRef, Scheduler};

    let blk = 16usize;
    let s = 32usize;
    let l = 10_000u64;
    let a = workload(d, d, 3);
    let b = workload(d, d, 4);

    let mut g = OpGraph::new();
    let ab = g.buffer("A", d, d);
    let bb = g.buffer("B", d, d);
    let cb = g.buffer("C", d, d);
    let q = d / blk;
    for j in 0..q {
        for k in 0..q {
            g.record(
                TensorOp {
                    accumulate: true,
                    ..TensorOp::padded(d, blk, blk)
                },
                OperandRef::new(ab, 0, k * blk, d, blk),
                OperandRef::new(bb, k * blk, j * blk, blk, blk),
                OperandRef::new(cb, 0, j * blk, d, blk),
            );
        }
    }

    let unit = tcu_core::ModelTensorUnit::new(s * s, l);
    let plan_eager = Scheduler::new().without_coalescing().plan(&g, &unit);
    let plan_coal = Scheduler::new().plan(&g, &unit);
    let plan_ns = tcu_bench::time_ns(if quick { 2 } else { 5 }, || {
        Scheduler::new().plan(&g, &unit)
    });

    let run = |plan: &tcu_sched::Schedule| {
        let mut mach = TcuMachine::with_executor(unit, tcu_core::HostExecutor::new());
        // Derived from the merged-op width (√m = 32 after coalescing):
        // 2·(d/32) = d/16 entries, the old hand-picked `q`.
        mach.executor_mut()
            .enable_pack_cache(tcu_core::pack_cache_capacity((d, d), s, 1));
        let mut c = Matrix::<f64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan.run(&mut mach, &mut env);
        (c, mach.stats().clone())
    };

    let (_, eager_stats) = run(&plan_eager);
    let (c_coal, sched_stats) = run(&plan_coal);
    // f64 + inner merging reassociates per-element sums, so compare to
    // the oracle within round-off rather than bitwise.
    let want = tcu_linalg::kernels::matmul(a.view(), b.view());
    assert!(
        tcu_linalg::ops::max_abs_diff(&c_coal, &want) < 1e-9 * d as f64,
        "coalesced result must match the oracle"
    );

    let reps: u32 = if quick { 3 } else { 10 };
    let (eager_ns, sched_ns) =
        tcu_bench::time_pair_ns(reps, || run(&plan_eager).0, || run(&plan_coal).0);
    Case {
        name: format!("coalesce d={d}"),
        d,
        sqrt_m: s,
        threads: 1,
        reps,
        eager_ns,
        sched_ns,
        plan_ns,
        eager_invocations: eager_stats.tensor_calls,
        sched_invocations: sched_stats.tensor_calls,
        eager_sim_time: eager_stats.time(),
        sched_sim_time: sched_stats.time(),
        pack_lookups: 0,
        pack_misses: 0,
        packed_bytes: 0,
        memo: MemoCost::default(),
        critical_path: plan_coal.critical_path(),
        sched_efficiency: plan_coal.sched_efficiency(),
        makespan_over_cp: over_cp(plan_coal.makespan(), plan_coal.critical_path()),
    }
}

/// Planner wall time on the canonical 1024-op coalesce graph — always
/// full size, so quick (CI) runs share this case with the committed
/// baseline and `bench_diff` can gate `plan_ms`.
fn bench_plan(quick: bool) -> Case {
    use tcu_core::TensorOp;
    use tcu_sched::{OpGraph, OperandRef, Scheduler};

    let (d, blk, s) = (512usize, 16usize, 32usize);
    let mut g = OpGraph::new();
    let ab = g.buffer("A", d, d);
    let bb = g.buffer("B", d, d);
    let cb = g.buffer("C", d, d);
    let q = d / blk;
    for j in 0..q {
        for k in 0..q {
            g.record(
                TensorOp {
                    accumulate: true,
                    ..TensorOp::padded(d, blk, blk)
                },
                OperandRef::new(ab, 0, k * blk, d, blk),
                OperandRef::new(bb, k * blk, j * blk, blk, blk),
                OperandRef::new(cb, 0, j * blk, d, blk),
            );
        }
    }
    assert_eq!(g.len(), 1024);
    let unit = tcu_core::ModelTensorUnit::new(s * s, 10_000);
    let plan_eager = Scheduler::new().without_coalescing().plan(&g, &unit);
    let plan_coal = Scheduler::new().plan(&g, &unit);
    assert_eq!(plan_coal.invocations() * 4, plan_eager.invocations());

    let reps: u32 = if quick { 3 } else { 10 };
    let eager_total_ns = tcu_bench::time_ns(reps, || {
        Scheduler::new().without_coalescing().plan(&g, &unit)
    });
    let sched_total_ns = tcu_bench::time_ns(reps, || Scheduler::new().plan(&g, &unit));
    Case {
        name: "plan d=512 ops=1024".to_string(),
        d,
        sqrt_m: s,
        threads: 1,
        reps,
        // For this case both timings *are* planner runs: coalescing off
        // vs on. The per-op numbers divide each planner's wall by the
        // ops *it* emits (1024 plain vs 256 coalesced), so
        // `speedup_wall` compares plan cost per scheduled op — a
        // plan-only denominator — instead of conflating total planner
        // wall with the coalesce case's 4×-smaller run config. plan_ns
        // (hence plan_ms) still records the full coalescing-planner
        // call, the number the CI gate pins.
        eager_ns: eager_total_ns / plan_eager.ops() as f64,
        sched_ns: sched_total_ns / plan_coal.ops() as f64,
        plan_ns: sched_total_ns,
        eager_invocations: plan_eager.invocations(),
        sched_invocations: plan_coal.invocations(),
        eager_sim_time: plan_eager.makespan(),
        sched_sim_time: plan_coal.makespan(),
        pack_lookups: 0,
        pack_misses: 0,
        packed_bytes: 0,
        memo: MemoCost::default(),
        critical_path: plan_coal.critical_path(),
        sched_efficiency: plan_coal.sched_efficiency(),
        makespan_over_cp: over_cp(plan_coal.makespan(), plan_coal.critical_path()),
    }
}

/// Eager vs scheduled Gaussian elimination (the Theorem 4 flow): the
/// per-stage pivot panel streamed against every trailing block column.
fn bench_gauss(d: usize, quick: bool) -> Case {
    use tcu_algos::plan_memo::{plan_cache_stats, reset_plan_cache_stats};
    use tcu_linalg::decomp::{augmented_from, diag_dominant};

    let s = SQRT_M;
    let a = diag_dominant(d - 1, d as u64);
    let b: Vec<f64> = (0..d - 1).map(|i| (i % 5) as f64 - 2.0).collect();
    let c0 = augmented_from(&a, &b);

    let eager_run = || {
        let mut mach = TcuMachine::model(s * s, 0);
        let mut x = c0.clone();
        gauss::ge_forward(&mut mach, &mut x);
        (x, mach.stats().clone())
    };
    // The pivot panel is the only tagged left operand live at a time;
    // its dims (d rows, √m-wide stages) derive a capacity of 2.
    let pack_cap = tcu_core::pack_cache_capacity((d, s), s, 1);
    let sched_run = || {
        let mut mach = TcuMachine::model(s * s, 0);
        mach.executor_mut().enable_pack_cache(pack_cap);
        let mut x = c0.clone();
        gauss::eliminate_scheduled(&mut mach, &mut x);
        let cache = mach.executor().pack_cache_stats().expect("cache enabled");
        (x, mach.stats().clone(), cache)
    };
    reset_plan_cache_stats();
    let (x_eager, eager_stats) = eager_run();
    let (x_sched, sched_stats, cache) = sched_run();
    let warm = plan_cache_stats();
    assert_eq!(x_eager, x_sched, "scheduled elimination must equal eager");
    assert_eq!(eager_stats, sched_stats, "charges must be identical");

    let reps: u32 = if quick { 2 } else { 5 };
    let (eager_ns, sched_ns) = tcu_bench::time_pair_ns(reps, || eager_run().0, || sched_run().0);
    let memo = MemoCost::from_stats(warm, plan_cache_stats(), reps);
    Case {
        name: format!("gauss d={d}"),
        d,
        sqrt_m: s,
        threads: 1,
        reps,
        eager_ns,
        sched_ns,
        // Record + plan happen per stage inside the timed call; the
        // memo split below reports what that actually cost (first call
        // plans, warm reps ride the structural memo).
        plan_ns: 0.0,
        eager_invocations: eager_stats.tensor_calls,
        sched_invocations: sched_stats.tensor_calls,
        eager_sim_time: eager_stats.time(),
        sched_sim_time: sched_stats.time(),
        pack_lookups: cache.lookups,
        pack_misses: cache.misses,
        packed_bytes: cache.packed_bytes,
        memo,
        critical_path: 0,
        sched_efficiency: 0.0,
        makespan_over_cp: 0.0,
    }
}

/// Eager vs scheduled transitive closure (the Theorem 5 flow).
fn bench_closure(n: usize, quick: bool) -> Case {
    use rand::{rngs::StdRng, SeedableRng};
    use tcu_algos::plan_memo::{plan_cache_stats, reset_plan_cache_stats};

    let s = SQRT_M;
    let mut rng = StdRng::seed_from_u64(n as u64);
    let adj = workloads::random_digraph(n, 2.0 / n as f64, &mut rng);

    let eager_run = || {
        let mut mach = TcuMachine::model(s * s, 0);
        let mut x = adj.clone();
        closure::transitive_closure(&mut mach, &mut x);
        (x, mach.stats().clone())
    };
    // No pack cache here: closure's streamed left operand (the stacked
    // `tall` strip) is already contiguous, so a pack is an identity
    // copy — the row-major panel layout of a contiguous MR-aligned
    // matrix is the matrix itself — and the per-op cache lookups are
    // pure overhead. The cache earns its keep on *strided* re-streamed
    // panels: the packcache and gauss cases.
    let sched_run = || {
        let mut mach = TcuMachine::model(s * s, 0);
        let mut x = adj.clone();
        closure::transitive_scheduled(&mut mach, &mut x);
        (x, mach.stats().clone())
    };
    reset_plan_cache_stats();
    let (x_eager, eager_stats) = eager_run();
    let (x_sched, sched_stats) = sched_run();
    let warm = plan_cache_stats();
    assert_eq!(x_eager, x_sched, "scheduled closure must equal eager");
    assert_eq!(eager_stats, sched_stats, "charges must be identical");

    let reps: u32 = if quick { 2 } else { 5 };
    let (eager_ns, sched_ns) = tcu_bench::time_pair_ns(reps, || eager_run().0, || sched_run().0);
    let memo = MemoCost::from_stats(warm, plan_cache_stats(), reps);
    Case {
        name: format!("closure n={n}"),
        d: n,
        sqrt_m: s,
        threads: 1,
        reps,
        eager_ns,
        sched_ns,
        plan_ns: 0.0,
        eager_invocations: eager_stats.tensor_calls,
        sched_invocations: sched_stats.tensor_calls,
        eager_sim_time: eager_stats.time(),
        sched_sim_time: sched_stats.time(),
        pack_lookups: 0,
        pack_misses: 0,
        packed_bytes: 0,
        memo,
        critical_path: 0,
        sched_efficiency: 0.0,
        makespan_over_cp: 0.0,
    }
}

/// Eager vs scheduled recursive multiplication at a sub-footprint base.
fn bench_strassen(d: usize, quick: bool) -> Case {
    use tcu_algos::plan_memo::{plan_cache_stats, reset_plan_cache_stats};

    let base = 8usize;
    let l = 1000u64;
    let ai = Matrix::from_fn(d, d, |i, j| ((i * 67 + j * 29) % 41) as i64 - 20);
    let bi = Matrix::from_fn(d, d, |i, j| ((i * 31 + j * 17) % 37) as i64 - 18);

    let eager_run = || {
        let mut mach = TcuMachine::model(SQRT_M * SQRT_M, l);
        let c = strassen::multiply_recursive_with_base(&mut mach, &ai, &bi, base);
        (c, mach.stats().clone())
    };
    // No pack cache for this case: the leaves are base×base (8×8)
    // tiles, which `matmul_into` dispatches to a const-dimension kernel
    // the generic packed micro-kernel cannot beat, and each tile is
    // re-read only ~4 times — the per-op cache lookup costs more than
    // the re-reads save. Packing pays off for *strided* panels
    // re-streamed many times (gauss), not sub-footprint tiles.
    let sched_run = || {
        let mut mach = TcuMachine::model(SQRT_M * SQRT_M, l);
        let c = strassen::multiply_recursive_scheduled_with_base(&mut mach, &ai, &bi, base);
        (c, mach.stats().clone())
    };
    reset_plan_cache_stats();
    let (c_eager, eager_stats): (Matrix<i64>, Stats) = eager_run();
    let (c_sched, sched_stats) = sched_run();
    let warm = plan_cache_stats();
    assert_eq!(c_eager, c_sched, "scheduled recursion must equal eager");

    let reps: u32 = if quick { 2 } else { 5 };
    let (eager_ns, sched_ns) = tcu_bench::time_pair_ns(reps, || eager_run().0, || sched_run().0);
    let memo = MemoCost::from_stats(warm, plan_cache_stats(), reps);
    Case {
        // The memo bound is part of the name: plans for recursions at
        // or below `PLAN_MEMO_MAX_LEAVES` leaves are cached across
        // calls (the fix for this case's old planning-wall cliff), so a
        // change to the threshold re-keys the baseline on purpose.
        name: format!(
            "strassen d={d} base={base} memo<={}",
            strassen::PLAN_MEMO_MAX_LEAVES
        ),
        d,
        sqrt_m: SQRT_M,
        threads: 1,
        reps,
        eager_ns,
        sched_ns,
        // Recording + planning is inside sched_ns for this case (the
        // algos entry point owns the graph); see the module docs.
        plan_ns: 0.0,
        eager_invocations: eager_stats.tensor_calls,
        sched_invocations: sched_stats.tensor_calls,
        eager_sim_time: eager_stats.time(),
        sched_sim_time: sched_stats.time(),
        pack_lookups: 0,
        pack_misses: 0,
        packed_bytes: 0,
        memo,
        critical_path: 0,
        sched_efficiency: 0.0,
        makespan_over_cp: 0.0,
    }
}

/// Serial scheduled run vs `run_parallel`, the barrier-free dataflow
/// driver, on `units`. The graph is the packcache accumulation flow:
/// `q` independent column-block chains of `q` products each. The
/// placement is resolved at plan time; at run time ops dispatch as
/// their hazard predecessors commit, with batching elided entirely on
/// one core (the inline executor walks the placement serial-style).
/// Results are asserted bit-identical to the serial scheduled run
/// before timing; `speedup_wall` is the number `bench_diff` gates when
/// the runner's core count matches the baseline's. `sched_efficiency`
/// here is `dataflow_efficiency` — the structural lower bound over the
/// *dataflow* makespan — and is a hard lower-is-worse `bench_diff`
/// gate.
fn bench_dataflow(d: usize, units: usize, quick: bool) -> Case {
    use tcu_core::{ModelTensorUnit, ParallelTcuMachine, TensorOp};
    use tcu_sched::{ExecEnv, OpGraph, OperandRef, Scheduler};

    let s = SQRT_M;
    let q = d / s;
    let a = workload(d, d, 5);
    let b = workload(d, d, 6);

    let mut g = OpGraph::new();
    let ab = g.buffer("A", d, d);
    let bb = g.buffer("B", d, d);
    let cb = g.buffer("C", d, d);
    for j in 0..q {
        for k in 0..q {
            g.record(
                TensorOp::mul_acc(d, s),
                OperandRef::new(ab, 0, k * s, d, s),
                OperandRef::new(bb, k * s, j * s, s, s),
                OperandRef::new(cb, 0, j * s, d, s),
            );
        }
    }
    let unit = ModelTensorUnit::new(s * s, 0);
    let plan_serial = Scheduler::new().plan(&g, &unit);
    let plan_par = Scheduler::new().with_units(units).plan(&g, &unit);

    let serial_run = || {
        let mut mach = TcuMachine::with_executor(unit, tcu_core::HostExecutor::new());
        let mut c = Matrix::<f64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan_serial.run(&mut mach, &mut env);
        (c, mach.stats().clone())
    };
    let df_run = || {
        let mut mach = ParallelTcuMachine::new(unit, units);
        let mut c = Matrix::<f64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan_par.run_parallel(&mut mach, &mut env);
        (c, mach.stats().clone())
    };
    let (c_serial, serial_stats) = serial_run();
    let (c_df, df_stats) = df_run();
    assert_eq!(c_serial, c_df, "run_parallel must be bit-identical");
    assert_eq!(serial_stats, df_stats, "charges must be identical");

    let reps: u32 = if quick { 2 } else { 5 };
    let eager_ns = tcu_bench::time_ns(reps, || serial_run().0);
    let sched_ns = tcu_bench::time_ns(reps, || df_run().0);
    Case {
        name: format!("dataflow d={d} units={units}"),
        d,
        sqrt_m: s,
        threads: units,
        reps,
        eager_ns,
        sched_ns,
        plan_ns: 0.0,
        eager_invocations: plan_serial.invocations(),
        sched_invocations: plan_par.invocations(),
        // Simulated time: the barrier-free placement's makespan versus
        // the single-unit serial charge.
        eager_sim_time: plan_serial.makespan(),
        sched_sim_time: plan_par.dataflow_makespan(),
        pack_lookups: 0,
        pack_misses: 0,
        packed_bytes: 0,
        memo: MemoCost::default(),
        critical_path: plan_par.critical_path(),
        sched_efficiency: plan_par.dataflow_efficiency(),
        makespan_over_cp: over_cp(plan_par.dataflow_makespan(), plan_par.critical_path()),
    }
}

/// The fault-tolerance overhead and recovery-cost case: `run_parallel`
/// on plain executors versus `try_run_parallel` on [`FaultyExecutor`]s
/// injecting a seeded plan at `rate` transient faults per mille (plus
/// one permanent victim when `rate > 0`). At `rate = 0` the injector is
/// a pure counted pass-through, so `speedup_wall` *is* the fault-free
/// containment overhead (the per-op `catch_unwind` + the wrapper's plan
/// probe) — the number the gate keeps honest. At `rate > 0` the wall
/// ratio shows recovery's host cost and the sim ratio its simulated
/// cost (retry backoff + recovery passes over the planned makespan),
/// as a function of fault rate. Elements and `Stats` are asserted
/// byte-identical to the fault-free run before timing — the recovery
/// contract, re-checked where the numbers are made.
fn bench_faults(d: usize, units: usize, rate: u32, quick: bool) -> Case {
    use tcu_core::{
        assign_unit_ids, silence_injected_fault_panics, FaultPlan, FaultyExecutor, HostExecutor,
        ModelTensorUnit, ParallelTcuMachine, TensorOp,
    };
    use tcu_sched::{ExecEnv, OpGraph, OperandRef, Scheduler};

    silence_injected_fault_panics();
    let s = SQRT_M;
    let q = d / s;
    let a = workload(d, d, 7);
    let b = workload(d, d, 8);

    let mut g = OpGraph::new();
    let ab = g.buffer("A", d, d);
    let bb = g.buffer("B", d, d);
    let cb = g.buffer("C", d, d);
    for j in 0..q {
        for k in 0..q {
            g.record(
                TensorOp::mul_acc(d, s),
                OperandRef::new(ab, 0, k * s, d, s),
                OperandRef::new(bb, k * s, j * s, s, s),
                OperandRef::new(cb, 0, j * s, d, s),
            );
        }
    }
    let unit = ModelTensorUnit::new(s * s, 0);
    let plan = Scheduler::new().with_units(units).plan(&g, &unit);
    // Horizon covers every execution a unit could perform even after
    // quarantine concentrates the whole stream on one survivor.
    let fplan = if rate == 0 {
        FaultPlan::none()
    } else {
        FaultPlan::seeded(u64::from(rate), units, 2 * plan.invocations(), rate, 1)
    };

    let plain_run = || {
        let mut mach = ParallelTcuMachine::new(unit, units);
        let mut c = Matrix::<f64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan.run_parallel(&mut mach, &mut env);
        (c, mach.stats().clone())
    };
    let faulty_run = || {
        let mut mach = ParallelTcuMachine::with_executor(
            unit,
            units,
            FaultyExecutor::new(HostExecutor::new(), fplan.clone()),
        );
        assign_unit_ids(&mut mach);
        let mut c = Matrix::<f64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan.try_run_parallel(&mut mach, &mut env)
            .expect("seeded plans are recoverable");
        drop(env);
        (c, mach.stats().clone(), mach.time())
    };
    let (c_plain, plain_stats) = plain_run();
    let (c_faulty, faulty_stats, faulty_time) = faulty_run();
    assert_eq!(c_plain, c_faulty, "recovery must be element-unobservable");
    assert_eq!(plain_stats, faulty_stats, "recovery must not touch Stats");

    let reps: u32 = if quick { 2 } else { 5 };
    let eager_ns = tcu_bench::time_ns(reps, || plain_run().0);
    let sched_ns = tcu_bench::time_ns(reps, || faulty_run().0);
    Case {
        name: format!("faults d={d} units={units} rate={rate}"),
        d,
        sqrt_m: s,
        threads: units,
        reps,
        eager_ns,
        sched_ns,
        plan_ns: 0.0,
        eager_invocations: plan.invocations(),
        sched_invocations: plan.invocations(),
        // Simulated time: planned makespan vs the faulty run's clock
        // (makespan + retry backoff + recovery passes) — the recovery
        // cost in the model's own terms.
        eager_sim_time: plan.dataflow_makespan(),
        sched_sim_time: faulty_time,
        pack_lookups: 0,
        pack_misses: 0,
        packed_bytes: 0,
        memo: MemoCost::default(),
        critical_path: plan.critical_path(),
        sched_efficiency: plan.dataflow_efficiency(),
        makespan_over_cp: over_cp(plan.dataflow_makespan(), plan.critical_path()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| "BENCH_sched.json".to_string(), Clone::clone);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let d_block = if quick { 256 } else { 512 };
    let d_str = if quick { 32 } else { 64 };
    let d_ge = if quick { 128 } else { 256 };
    let cases = vec![
        bench_packcache(d_block, quick),
        bench_coalesce(d_block, quick),
        bench_plan(quick),
        bench_strassen(d_str, quick),
        bench_gauss(d_ge, quick),
        bench_closure(d_ge, quick),
        // Always full size (like `plan`), so the CI smoke run shares
        // these case names with the committed baseline and bench_diff
        // can gate the parallel wall speedups.
        bench_dataflow(512, 2, quick),
        bench_dataflow(512, 4, quick),
        // Fault tolerance: rate=0 pins the fault-free containment
        // overhead on the dataflow workload (wall speedup ≈ 1), the
        // nonzero rates chart recovery cost against fault density in
        // simulated time. Full size always, same reason as `dataflow`.
        bench_faults(512, 4, 0, quick),
        bench_faults(512, 4, 20, quick),
        bench_faults(512, 4, 100, quick),
    ];

    let mut table = tcu_bench::Table::new(
        "BENCH sched — eager issue path vs deferred schedule (host wall-clock + model charges)",
        &[
            "case",
            "reps",
            "eager ns/op",
            "sched ns/op",
            "wall speedup",
            "eager invocs",
            "sched invocs",
            "sim speedup",
            "pack ratio",
            "msp/cp",
            "plan ns",
            "1st plan ms",
            "memo h/m",
        ],
    );
    for c in &cases {
        table.row(vec![
            c.name.clone(),
            c.reps.to_string(),
            tcu_bench::fmt_f(c.eager_ns, 0),
            tcu_bench::fmt_f(c.sched_ns, 0),
            tcu_bench::fmt_f(c.eager_ns / c.sched_ns, 2),
            tcu_bench::fmt_u64(c.eager_invocations),
            tcu_bench::fmt_u64(c.sched_invocations),
            tcu_bench::fmt_f(c.eager_sim_time as f64 / c.sched_sim_time as f64, 2),
            tcu_bench::fmt_f(c.pack_ratio(), 1),
            tcu_bench::fmt_f(c.makespan_over_cp, 2),
            tcu_bench::fmt_f(c.plan_ns, 0),
            tcu_bench::fmt_f(c.memo.first_plan_ns / 1e6, 3),
            format!("{}/{}", c.memo.plan_cache_hits, c.memo.plan_cache_misses),
        ]);
    }
    table.print();

    // Run metadata, mirrored into the Perfetto trace header when
    // `TCU_TRACE_OUT` is set (see the flush below): executor worker
    // threads, the headline pack-cache capacity, and total plan-memo
    // hits across every case.
    let host_threads = tcu_core::HostExecutor::new().threads();
    let pack_cache_cap = tcu_core::pack_cache_capacity((d_block, d_block), SQRT_M, 1);
    let memo_hits: u64 = cases.iter().map(|c| c.memo.plan_cache_hits).sum();

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"sched\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"available_parallelism\": {threads},\n"));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("  \"pack_cache_cap\": {pack_cache_cap},\n"));
    json.push_str(&format!("  \"memo_hits\": {memo_hits},\n"));
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str("    {");
        json.push_str(&format!(
            "\"name\": \"{}\", \"d\": {}, \"sqrt_m\": {}, \"threads\": {}, \"reps\": {}, \
             \"eager_ns_per_op\": {:.1}, \"sched_ns_per_op\": {:.1}, \
             \"plan_ns\": {:.1}, \"plan_ms\": {:.3}, \
             \"first_plan_ms\": {:.3}, \"amortized_plan_ms\": {:.3}, \
             \"plan_cache_hits\": {}, \"plan_cache_misses\": {}, \
             \"speedup_wall\": {:.3}, \"eager_invocations\": {}, \
             \"sched_invocations\": {}, \"eager_sim_time\": {}, \
             \"sched_sim_time\": {}, \"speedup_sim\": {:.3}, \
             \"pack_lookups\": {}, \"pack_misses\": {}, \
             \"packed_bytes\": {}, \"pack_ratio\": {:.3}, \
             \"critical_path\": {}, \"sched_efficiency\": {:.4}, \
             \"makespan_over_cp\": {:.4}",
            c.name,
            c.d,
            c.sqrt_m,
            c.threads,
            c.reps,
            c.eager_ns,
            c.sched_ns,
            c.plan_ns,
            c.plan_ns / 1e6,
            c.memo.first_plan_ns / 1e6,
            c.memo.amortized_plan_ns / 1e6,
            c.memo.plan_cache_hits,
            c.memo.plan_cache_misses,
            c.eager_ns / c.sched_ns,
            c.eager_invocations,
            c.sched_invocations,
            c.eager_sim_time,
            c.sched_sim_time,
            c.eager_sim_time as f64 / c.sched_sim_time as f64,
            c.pack_lookups,
            c.pack_misses,
            c.packed_bytes,
            c.pack_ratio(),
            c.critical_path,
            c.sched_efficiency,
            c.makespan_over_cp,
        ));
        json.push('}');
        if i + 1 < cases.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_sched.json");
    println!("wrote {out_path}");

    // When `TCU_TRACE_OUT=<path>` is set, every machine this process
    // built recorded into the global sink; write the Perfetto trace
    // with the same run metadata the JSON header carries.
    let meta = tcu_obs::RunMeta {
        units: Some(cases.iter().map(|c| c.threads as u64).max().unwrap_or(1)),
        host_threads: Some(host_threads as u64),
        ci_cores: std::env::var("CI_CORES").ok().and_then(|v| v.parse().ok()),
        pack_cache_capacity: Some(pack_cache_cap as u64),
        memo_hits: Some(memo_hits),
        extra: vec![("bench".to_string(), "sched".to_string())],
    };
    match tcu_obs::flush_env_trace(&meta) {
        Ok(Some(path)) => println!("wrote {path}"),
        Ok(None) => {}
        Err(e) => eprintln!("trace flush failed: {e}"),
    }
}
