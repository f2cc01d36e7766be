//! Deterministic dataflow placement: list-schedule the compiled plan's
//! hazard DAG onto the planned units *at plan time*, so the barrier-free
//! runtime can execute fixed per-unit op sequences and stay bit-for-bit
//! deterministic no matter how threads interleave.
//!
//! The wave partition ([`Schedule::wave_partitions`]) puts a barrier
//! at every hazard level, so its makespan is the *sum of per-wave
//! maxima* — a straggler idles every other unit for the rest of its
//! wave. The dataflow placement replays the same cost model through an
//! event-driven simulation instead: ops become ready as their hazard
//! predecessors finish, the ready pool is drained in
//! `(ready time, cost desc, emission index)` order, and each op runs on
//! the unit that can start it earliest.
//! Ties prefer the op's *home* — the unit the wave planner's LPT
//! partition assigned its first invocation to — and otherwise follow a
//! seeded permutation of the units; a non-home choice is a
//! **deterministic steal**, resolved here rather than raced over at run
//! time (cf. Bobpp-style deterministic work partitioning). For a
//! single-wave schedule the simulation reduces exactly to
//! [`tcu_core::partition_lpt`]: every op is ready at time zero, the
//! pool drains in decreasing cost order, and the min-start unit is the
//! min-load unit, with the home tie-break picking the LPT assignment
//! itself.
//!
//! Greedy list scheduling can lose to per-wave LPT on adversarial
//! graphs, so the placement falls back to the wave assignment (home
//! units, emission order) whenever the simulated makespan exceeds the
//! wave makespan — [`Schedule::dataflow_makespan`] therefore never
//! exceeds [`Schedule::makespan`].
//!
//! The placement is pure integer arithmetic over the plan — no clocks,
//! no thread timing — so a given `(schedule, seed)` always yields the
//! same unit assignment, the same per-unit op order, and the same
//! simulated makespan, which is what the runtime charges into
//! `time()`.

use crate::compile::ExecutablePlan;
use crate::scheduler::Schedule;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Knobs of the parallel driver that do not affect results: the steal
/// tie-break seed (any seed yields byte-identical elements, `Stats`,
/// and digest — it only moves which unit runs what, hence per-unit
/// cache counters, fault outcomes, and `time()`), and the
/// inline/threaded choice (also unobservable in `time()`, cache
/// counters, and fault counters; the one exception, a foreign executor
/// panic, is a named deviation in the `run` module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataflowTuning {
    /// Seed of the steal tie-break permutation (0 = lowest-index-first
    /// after the home unit).
    pub steal_seed: u64,
    /// `Some(true)` forces the single-threaded inline executor,
    /// `Some(false)` forces the worker-pool executor, `None` picks
    /// inline exactly when the host has one core (where worker threads
    /// only add dispatch overhead).
    pub inline: Option<bool>,
}

impl DataflowTuning {
    /// Tuning from the environment: `TCU_STEAL_SEED` (integer, default
    /// 0) and `TCU_DF_INLINE` (`1`/`0`, default auto).
    #[must_use]
    pub fn from_env() -> Self {
        let steal_seed = std::env::var("TCU_STEAL_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let inline = match std::env::var("TCU_DF_INLINE").as_deref() {
            Ok("1") => Some(true),
            Ok("0") => Some(false),
            _ => None,
        };
        Self { steal_seed, inline }
    }

    /// Resolve the inline/threaded choice.
    #[must_use]
    pub fn use_inline(&self) -> bool {
        self.inline
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(true, |p| p.get() <= 1))
    }
}

/// The resolved dataflow placement of one schedule: fixed per-unit
/// execution queues, plus the simulated makespan the runtime charges.
#[derive(Clone, Debug)]
pub(crate) struct DataflowPlacement {
    /// Each op's wave-LPT home unit (an op queued elsewhere is a
    /// steal), emission order.
    pub(crate) home: Vec<u32>,
    /// Simulated start time of each op (the fallback placement stores
    /// the emission index — any topological stamp works; only the
    /// relative order is consumed). Every hazard edge points to a
    /// strictly larger `(start, index)` key, which is what keeps
    /// queues in that order deadlock-free.
    pub(crate) start: Vec<u64>,
    /// Per-unit op indices in execution order (ascending
    /// `(start, index)`).
    pub(crate) unit_order: Vec<Vec<u32>>,
    /// Simulated makespan the runtime charges (never exceeds the wave
    /// makespan — see the fallback).
    pub(crate) makespan: u64,
    /// Ops placed off their home unit.
    pub(crate) steals: u64,
}

impl DataflowPlacement {
    /// The one-queue partition a serial run walks: every op on unit 0
    /// in emission order (`start` is the op index). No simulation runs
    /// and no makespan is charged — a serial machine's clock is its
    /// `Stats`.
    pub(crate) fn one_queue(ops: usize) -> Self {
        Self {
            home: vec![0; ops],
            start: (0..ops as u64).collect(),
            unit_order: vec![(0..ops as u32).collect()],
            makespan: 0,
            steals: 0,
        }
    }
}

/// `splitmix64` step — the standard 64-bit mix, enough PRNG for a
/// tie-break permutation without pulling in a dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates permutation of the unit indices — the order
/// non-home units are considered when several can start an op equally
/// early. Seed 0 still shuffles (the shuffle is what the seeded
/// steal-order proptests vary); determinism per seed is the contract.
fn steal_permutation(units: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..units).collect();
    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    for i in (1..units).rev() {
        let r = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        perm.swap(i, r);
    }
    perm
}

/// Each op's home unit: the wave-LPT unit of its first invocation.
fn home_units(sched: &Schedule, plan: &ExecutablePlan) -> Vec<u32> {
    let mut home = vec![0u32; sched.ops()];
    for (wave, &(wstart, wend)) in plan.wave_ranges.iter().enumerate() {
        let assignment = &sched.wave_partitions()[wave].assignment;
        let mut inv_at = 0usize;
        for (i, h) in home.iter_mut().enumerate().take(wend).skip(wstart) {
            *h = assignment[inv_at] as u32;
            inv_at += sched.node_invocations[i] as usize;
        }
    }
    home
}

/// Compute the deterministic dataflow placement of `sched` under
/// `steal_seed`. Pure function of its arguments — see the module docs
/// for the simulation and the wave fallback.
pub(crate) fn place_dataflow(
    sched: &Schedule,
    plan: &ExecutablePlan,
    steal_seed: u64,
) -> DataflowPlacement {
    let n = sched.ops();
    let units = sched.units();
    let costs = &sched.node_costs;
    let home = home_units(sched, plan);

    let mut indeg: Vec<u32> = plan.preds.clone();
    let mut ready_time = vec![0u64; n];
    // Min-heap on (ready time, cost descending, emission index): the
    // drain order that reduces to LPT within a single wave.
    let mut heap: BinaryHeap<Reverse<(u64, Reverse<u64>, u32)>> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| Reverse((0u64, Reverse(costs[i]), i as u32)))
        .collect();
    let perm = steal_permutation(units, steal_seed);

    let mut avail = vec![0u64; units];
    let mut start = vec![0u64; n];
    let mut unit_order: Vec<Vec<u32>> = vec![Vec::new(); units];
    let mut steals = 0u64;
    while let Some(Reverse((rt, Reverse(cost), idx))) = heap.pop() {
        let i = idx as usize;
        let h = home[i] as usize;
        // `units >= 1` always (the planner asserts it), so the min
        // exists.
        let best = (0..units).map(|u| avail[u].max(rt)).min().unwrap_or(rt);
        let chosen = if avail[h].max(rt) == best {
            h
        } else {
            steals += 1;
            perm.iter()
                .copied()
                .find(|&u| avail[u].max(rt) == best)
                .unwrap_or(h)
        };
        start[i] = best;
        avail[chosen] = best + cost;
        unit_order[chosen].push(idx);
        let finish = best + cost;
        for &j in plan.successors_of(i) {
            let j = j as usize;
            ready_time[j] = ready_time[j].max(finish);
            indeg[j] -= 1;
            if indeg[j] == 0 {
                heap.push(Reverse((ready_time[j], Reverse(costs[j]), j as u32)));
            }
        }
    }
    let makespan = avail.iter().copied().max().unwrap_or(0);

    if makespan > sched.makespan() {
        // The barrier-free greedy lost to per-wave LPT (possible on
        // adversarial graphs): keep the wave placement, whose emission
        // order is trivially hazard-safe and whose makespan is the wave
        // makespan.
        let mut unit_order: Vec<Vec<u32>> = vec![Vec::new(); units];
        for (i, &h) in home.iter().enumerate() {
            unit_order[h as usize].push(i as u32);
        }
        return DataflowPlacement {
            start: (0..n as u64).collect(),
            unit_order,
            makespan: sched.makespan(),
            steals: 0,
            home,
        };
    }

    DataflowPlacement {
        home,
        start,
        unit_order,
        makespan,
        steals,
    }
}

impl Schedule {
    /// The simulated makespan of the dataflow driver under the
    /// environment's steal seed (`TCU_STEAL_SEED`, default 0): what a
    /// dataflow run charges into `time()` as its tensor wall-clock.
    /// Never exceeds [`Schedule::makespan`] — the placement falls back
    /// to the wave assignment when the barrier-free simulation loses —
    /// and never undercuts
    /// `max(critical_path, ⌈tensor_time / units⌉)`.
    #[must_use]
    pub fn dataflow_makespan(&self) -> u64 {
        self.dataflow_makespan_seeded(DataflowTuning::from_env().steal_seed)
    }

    /// [`Schedule::dataflow_makespan`] under an explicit steal seed.
    #[must_use]
    pub fn dataflow_makespan_seeded(&self, steal_seed: u64) -> u64 {
        match self.compiled() {
            Ok(plan) => place_dataflow(self, plan, steal_seed).makespan,
            Err(_) => self.makespan(),
        }
    }

    /// Deterministic steals in the dataflow placement under the
    /// environment's steal seed: ops the simulation moved off their
    /// wave-LPT home unit.
    #[must_use]
    pub fn dataflow_steals(&self) -> u64 {
        match self.compiled() {
            Ok(plan) => place_dataflow(self, plan, DataflowTuning::from_env().steal_seed).steals,
            Err(_) => 0,
        }
    }

    /// [`Schedule::sched_efficiency`] for the dataflow driver:
    /// `lower_bound / dataflow_makespan`. At least the wave efficiency
    /// (the dataflow makespan never exceeds the wave makespan), and
    /// `1.0` means the barrier-free schedule is provably optimal for
    /// the cost model.
    #[must_use]
    pub fn dataflow_efficiency(&self) -> f64 {
        let df = self.dataflow_makespan();
        if df == 0 {
            return 1.0;
        }
        let bound = self
            .critical_path()
            .max(self.tensor_time().div_ceil(self.units() as u64));
        bound as f64 / df as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpGraph, OperandRef, Scheduler};
    use tcu_core::TensorOp;

    /// A two-stage RAW pipeline whose waves are wide enough to place.
    fn pipeline(d: usize, s: usize) -> OpGraph {
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
                        OperandRef::new(src, 0, k * s, d, s),
                        OperandRef::new(bb, k * s, j * s, s, s),
                        OperandRef::new(dst, 0, j * s, d, s),
                    );
                }
            }
        }
        g
    }

    #[test]
    fn placement_is_deterministic_and_bounded() {
        let unit = tcu_core::ModelTensorUnit::new(64, 13);
        let plan = Scheduler::new().with_units(4).plan(&pipeline(32, 8), &unit);
        let compiled = plan.compiled().expect("compiles");
        let p1 = place_dataflow(&plan, compiled, 7);
        let p2 = place_dataflow(&plan, compiled, 7);
        assert_eq!(p1.unit_order, p2.unit_order);
        assert_eq!(p1.start, p2.start);
        assert_eq!(p1.makespan, p2.makespan);
        assert!(plan.dataflow_makespan_seeded(7) <= plan.makespan());
        let bound = plan
            .critical_path()
            .max(plan.tensor_time().div_ceil(plan.units() as u64));
        assert!(p1.makespan >= bound, "makespan cannot beat the lower bound");
    }

    #[test]
    fn global_order_respects_every_hazard_edge() {
        let unit = tcu_core::ModelTensorUnit::new(64, 13);
        let plan = Scheduler::new().with_units(3).plan(&pipeline(32, 8), &unit);
        let compiled = plan.compiled().expect("compiles");
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            // The global `(start, index)` order the executors walk.
            let p = place_dataflow(&plan, compiled, seed);
            let key = |i: usize| (p.start[i], i);
            for i in 0..plan.ops() {
                for &j in compiled.successors_of(i) {
                    assert!(
                        key(i) < key(j as usize),
                        "op {i} must execute before its successor {j} (seed {seed})"
                    );
                }
            }
            for q in &p.unit_order {
                assert!(q
                    .windows(2)
                    .all(|w| key(w[0] as usize) < key(w[1] as usize)));
            }
        }
    }

    #[test]
    fn single_wave_reduces_to_the_wave_lpt() {
        // Independent ops only — one wave. The simulation must replay
        // the LPT partition exactly: home units, zero steals, the wave
        // makespan.
        let d = 32usize;
        let s = 8usize;
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, d);
        let bb = g.buffer("B", d, d);
        let cb = g.buffer("C", d, d);
        let q = d / s;
        for j in 0..q {
            for k in 0..q {
                g.record(
                    TensorOp::padded(s, s, s),
                    OperandRef::new(ab, j * s, k * s, s, s),
                    OperandRef::new(bb, 0, 0, s, s),
                    OperandRef::new(cb, j * s, k * s, s, s),
                );
            }
        }
        let unit = tcu_core::ModelTensorUnit::new(64, 13);
        let plan = Scheduler::new().with_units(3).plan(&g, &unit);
        assert_eq!(plan.waves(), 1);
        let compiled = plan.compiled().expect("compiles");
        for seed in [0u64, 42] {
            let p = place_dataflow(&plan, compiled, seed);
            for (u, q) in p.unit_order.iter().enumerate() {
                for &i in q {
                    assert_eq!(
                        p.home[i as usize] as usize, u,
                        "single wave keeps LPT homes"
                    );
                }
            }
            assert_eq!(p.steals, 0);
            assert_eq!(p.makespan, plan.makespan());
        }
    }
}
