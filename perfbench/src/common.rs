//! What the three workloads share: the workload interface, the unit
//! they plan for, seeded inputs, and the readings both parallel
//! workloads derive from their spans.

use crate::spans::{Summary, Tracer};
use rand::{rngs::StdRng, SeedableRng};
use tcu_core::{FaultStats, ModelTensorUnit, PackCacheStats};
use tcu_sched::{ExecEnv, ExecutablePlan, OpGraph, Schedule, Scheduler};

/// `√m` of every workload's tensor unit.
pub const SQRT_M: usize = 16;

/// Calls each set-up makes after its references, so timing starts with
/// warm allocator, page and pack-cache state.
pub const WARMUP_CALLS: usize = 3;

/// Span names shared by the workloads.
pub const CALL: &str = "bench.call";
pub const PARALLEL: &str = "sched.run.parallel";
pub const SERIAL: &str = "sched.run.serial";
pub const FLOOR: &str = "linalg.kernels.floor";
pub const RECORD: &str = "sched.graph.record";
pub const PLAN: &str = "sched.scheduler.plan";
pub const COMPILE: &str = "sched.compile.compile";

/// A per-layer reading: name, value, samples behind it.
pub type Reading = (&'static str, f64, usize);

/// Result of one workload call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// No `Err`, and elements, `Stats` and simulated time matched the
    /// set-up references.
    pub ok: bool,
    /// Simulated time of the call (`time()`, summed over machines).
    pub sim_time: u64,
}

/// One benchmark workload. The benchmark drives it in a closed loop:
/// one caller issues the next call when the previous one returns.
pub trait Workload: Sized {
    /// Generate inputs from `seed`; record, plan and compile; compute
    /// the references every call is checked against; warm up.
    fn setup(seed: u64) -> Self;
    /// One call: allocate outputs, bind, run, check.
    fn call(&mut self, t: &mut Tracer) -> Outcome;
    /// Reference probes the traced run interleaves with the call.
    fn probe_count(&self) -> usize;
    /// Run probe `i`, wrapping the measured layer call in a span.
    fn probe(&mut self, i: usize, t: &mut Tracer);
    /// Effective configuration, as (key, JSON value) pairs.
    fn config(&self) -> Vec<(&'static str, String)>;
    /// Per-layer readings of a traced run.
    fn layers(&self, s: &Summary) -> Vec<Reading>;
}

/// The tensor unit every workload plans for.
pub fn unit(latency: u64) -> ModelTensorUnit {
    ModelTensorUnit::new(SQRT_M * SQRT_M, latency)
}

/// An independent generator per input `stream`, all derived from the
/// run's seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// FNV-1a over 64-bit words: a fingerprint of generated inputs.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Record the first call's simulated time as the reference and report
/// whether `sim` matches it.
pub fn same_sim(reference: &mut Option<u64>, sim: u64) -> bool {
    *reference.get_or_insert(sim) == sim
}

/// Pack-cache counters summed over executors (caches that are off
/// contribute nothing).
pub fn sum_pack(stats: impl IntoIterator<Item = Option<PackCacheStats>>) -> PackCacheStats {
    stats
        .into_iter()
        .flatten()
        .fold(PackCacheStats::default(), |acc, s| PackCacheStats {
            lookups: acc.lookups + s.lookups,
            hits: acc.hits + s.hits,
            misses: acc.misses + s.misses,
            packed_bytes: acc.packed_bytes + s.packed_bytes,
            evictions: acc.evictions + s.evictions,
        })
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn pack_readings(p: PackCacheStats) -> [Reading; 3] {
    [
        ("core.exec.pack_misses", p.misses as f64, 1),
        ("core.exec.packed_bytes", p.packed_bytes as f64, 1),
        (
            "core.exec.pack_hit_ratio",
            ratio(p.hits as f64, p.lookups as f64),
            1,
        ),
    ]
}

/// Fault counters of the last call, and the backoff its clock carries
/// beyond the planned dataflow makespan (exact).
pub fn fault_readings(f: FaultStats, sim_time: u64, makespan: u64) -> [Reading; 3] {
    [
        ("core.fault.transient_faults", f.transient_faults as f64, 1),
        ("core.fault.retries", f.retries as f64, 1),
        (
            "core.fault.backoff_time",
            sim_time as f64 - makespan as f64,
            1,
        ),
    ]
}

/// Plan facts read from the schedule and its compiled form: exact, so
/// one reading each.
pub fn plan_readings(plan: &Schedule, compiled: &ExecutablePlan) -> [Reading; 3] {
    [
        (
            "sched.scheduler.coalesced_away",
            plan.coalesced_away() as f64,
            1,
        ),
        (
            "sched.compile.staged_reads",
            compiled.staged_reads() as f64,
            1,
        ),
        (
            "sched.compile.hazard_edges",
            compiled.hazard_edges() as f64,
            1,
        ),
    ]
}

/// The dataflow placement's facts (exact).
pub fn dataflow_readings(plan: &Schedule) -> [Reading; 3] {
    [
        (
            "sched.dataflow.makespan",
            plan.dataflow_makespan() as f64,
            1,
        ),
        ("sched.dataflow.steals", plan.dataflow_steals() as f64, 1),
        ("sched.dataflow.efficiency", plan.dataflow_efficiency(), 1),
    ]
}

/// Re-record, re-plan and first-compile timings of a re-plan probe.
pub fn replan_readings(s: &Summary) -> [Reading; 3] {
    [
        ("sched.graph.record_ms", s.self_ms(RECORD), s.count(RECORD)),
        ("sched.scheduler.plan_ms", s.self_ms(PLAN), s.count(PLAN)),
        (
            "sched.compile.compile_ms",
            s.self_ms(COMPILE),
            s.count(COMPILE),
        ),
    ]
}

/// Driver readings of the two parallel workloads: the parallel span, the
/// interleaved serial run of the 1-unit plan, and the kernel floor.
pub fn driver_readings(s: &Summary, units: usize) -> [Reading; 5] {
    let parallel = s.self_ms(PARALLEL);
    let floor = s.self_ms(FLOOR);
    [
        ("linalg.kernels.floor_ms", floor, s.count(FLOOR)),
        ("sched.run.parallel_ms", parallel, s.count(PARALLEL)),
        ("sched.run.serial_ms", s.self_ms(SERIAL), s.count(SERIAL)),
        (
            "sched.run.speedup_vs_serial",
            ratio(s.self_ms(SERIAL), parallel),
            s.count(SERIAL).min(s.count(PARALLEL)),
        ),
        (
            "sched.run.overhead_ms",
            parallel - floor / units as f64,
            s.count(PARALLEL).min(s.count(FLOOR)),
        ),
    ]
}

/// The re-plan probe: record the workload's graph again, plan it, and
/// compile the fresh schedule once, each in its own span.
pub fn replan_probe(t: &mut Tracer, record: impl FnOnce() -> OpGraph, units: usize) {
    let graph = t.span(RECORD, record);
    let plan = t.span(PLAN, || {
        Scheduler::new().with_units(units).plan(&graph, &unit(0))
    });
    let env = ExecEnv::<f64>::new(&graph);
    std::hint::black_box(t.span(COMPILE, || plan.compile(&env).is_ok()));
}
