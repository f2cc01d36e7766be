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
use std::sync::{Arc, Mutex, PoisonError};
use tcu_core::TcuError;

/// The parallel driver's one knob, which does not affect results: the
/// steal tie-break seed. Any seed yields byte-identical elements,
/// `Stats`, and digest; it only moves which unit runs what, hence
/// per-unit cache counters, fault outcomes, and `time()`. The default
/// (seed 0) is what [`Schedule::try_run_parallel`] and
/// [`Schedule::dataflow_makespan`] use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataflowTuning {
    /// Seed of the steal tie-break permutation (0 = lowest-index-first
    /// after the home unit).
    pub steal_seed: u64,
}

impl DataflowTuning {
    /// The default tuning. Reads no environment; perfbench still calls
    /// it. Delete in the next benchmark change.
    #[doc(hidden)]
    #[must_use]
    pub fn from_env() -> Self {
        Self::default()
    }

    /// Always `false`: every parallel run uses the threaded executor.
    /// perfbench still records it. Delete in the next benchmark change.
    #[doc(hidden)]
    #[must_use]
    pub fn use_inline(&self) -> bool {
        false
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

/// Steal seeds whose placements one schedule keeps; a further seed
/// evicts the oldest.
const CACHED_SEEDS: usize = 4;

/// A schedule's dataflow placements by steal seed, each computed once by
/// [`place_dataflow`] and kept next to the compiled plan. Runs and
/// queries take the default seed unless told otherwise, so one entry
/// usually serves them all. Every update leaves the list valid (a panic
/// in `place_dataflow` happens before any), so a poisoned lock is taken
/// over as is.
#[derive(Debug, Default)]
pub(crate) struct PlacementCache(Mutex<Vec<(u64, Arc<DataflowPlacement>)>>);

impl Clone for PlacementCache {
    fn clone(&self) -> Self {
        let cached = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        Self(Mutex::new(cached.clone()))
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
    /// The dataflow placement of this schedule under `steal_seed`, over
    /// its compiled `plan`: computed on first use, then cached.
    pub(crate) fn placement(
        &self,
        plan: &ExecutablePlan,
        steal_seed: u64,
    ) -> Arc<DataflowPlacement> {
        let mut cached = self
            .placements
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, p)) = cached.iter().find(|(seed, _)| *seed == steal_seed) {
            return Arc::clone(p);
        }
        let p = Arc::new(place_dataflow(self, plan, steal_seed));
        if cached.len() == CACHED_SEEDS {
            cached.remove(0);
        }
        cached.push((steal_seed, Arc::clone(&p)));
        p
    }

    /// [`Schedule::placement`] over the compiled plan.
    fn compiled_placement(&self, steal_seed: u64) -> Result<Arc<DataflowPlacement>, TcuError> {
        self.compiled().map(|plan| self.placement(plan, steal_seed))
    }

    /// The simulated makespan of the dataflow driver under the default
    /// steal seed (0): what [`Schedule::try_run_parallel`] charges into
    /// `time()` as its tensor wall-clock. Never exceeds
    /// [`Schedule::makespan`] — the placement falls back to the wave
    /// assignment when the barrier-free simulation loses — and never
    /// undercuts `max(critical_path, ⌈tensor_time / units⌉)`.
    #[must_use]
    pub fn dataflow_makespan(&self) -> u64 {
        self.dataflow_makespan_seeded(DataflowTuning::default().steal_seed)
    }

    /// [`Schedule::dataflow_makespan`] under an explicit steal seed.
    #[must_use]
    pub fn dataflow_makespan_seeded(&self, steal_seed: u64) -> u64 {
        self.compiled_placement(steal_seed)
            .map_or(self.makespan(), |p| p.makespan)
    }

    /// Deterministic steals in the dataflow placement under the
    /// default steal seed (0): ops the simulation moved off their
    /// wave-LPT home unit.
    #[must_use]
    pub fn dataflow_steals(&self) -> u64 {
        self.compiled_placement(DataflowTuning::default().steal_seed)
            .map_or(0, |p| p.steals)
    }

    /// [`Schedule::sched_efficiency`] for the dataflow driver under the
    /// default steal seed: `lower_bound / dataflow_makespan`. At least
    /// the wave efficiency (the dataflow makespan never exceeds the
    /// wave makespan), and `1.0` means the barrier-free schedule is
    /// provably optimal for the cost model.
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
            // The `(start, index)` keys every queue is sorted by.
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
    fn placements_are_computed_once_per_seed() {
        let unit = tcu_core::ModelTensorUnit::new(64, 13);
        let plan = Scheduler::new().with_units(2).plan(&pipeline(32, 8), &unit);
        let compiled = plan.compiled().expect("compiles");
        let first = plan.placement(compiled, 0);
        assert!(Arc::ptr_eq(&first, &plan.placement(compiled, 0)));
        assert_eq!(
            first.unit_order,
            place_dataflow(&plan, compiled, 0).unit_order
        );
        assert_eq!(plan.dataflow_makespan(), first.makespan);
        // Other seeds get their own entries; a fifth evicts the oldest.
        for seed in 1..=CACHED_SEEDS as u64 {
            let p = plan.placement(compiled, seed);
            assert_eq!(p.start, place_dataflow(&plan, compiled, seed).start);
        }
        assert!(!Arc::ptr_eq(&first, &plan.placement(compiled, 0)));
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
