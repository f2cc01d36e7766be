//! Chain-granular placement: the accumulation chains of a compiled
//! plan, the DAG between them, and one deterministic list schedule of
//! whole chains onto the planned units, all fixed at compile time
//! before any thread runs.
//!
//! The paper's Theorem 2 runs the product as `k`-chains `D = A·B + C`,
//! the accumulator held in the unit. A **chain** here is that run of
//! same-rectangle writers: op `j` continues op `i` when
//!
//! 1. `j` is `i`'s first hazard successor,
//! 2. `j` writes exactly `i`'s output rectangle and reads nothing that
//!    overlaps it, and
//! 3. every hazard successor of `i` writes or reads that rectangle.
//!
//! Successor lists are sorted and list every conflicting pair, so rules
//! 1 and 3 mean no other op reads or overwrites a version between `i`
//! and `j`, and every op but `j` that waits on `i` also waits on `j` —
//! by induction, on the chain's tail. Running a chain whole and
//! releasing its successors once, after its tail, therefore delays no
//! op that does not already wait for the tail. A chain is indexed by its
//! head (the lowest emission index among its links); an op no other op
//! continues is a one-link chain.
//!
//! The **chain DAG** has an edge from chain `X` to chain `Y` when some
//! op of `Y` is a hazard successor of some op of `X`. Such an op waits on
//! `X`'s tail, so `Y`'s tail comes later in emission order than `X`'s:
//! tails increase along every edge, and the DAG is acyclic.
//!
//! Both loops run this one structure. The serial run walks the chains in
//! topological order, smallest head first, one executor call each. The
//! threaded executor runs the **placement**: an event-driven list
//! schedule of whole chains. A chain costs the sum of its links'
//! simulated costs and becomes ready once every predecessor chain has
//! finished. Ready chains are taken in `(ready time, cost descending,
//! head)` order, and each goes to the earliest-free unit, ties to the
//! lowest index. Independent chains therefore reduce exactly to
//! [`tcu_core::partition_lpt`] over the chain costs. Start times never
//! decrease in that order, and no unit idles while a ready chain waits,
//! so the makespan keeps Graham's bound `p·makespan ≤ W + (p − 1)·cp`,
//! with `cp` the chain DAG's critical path.
//!
//! The placement is pure integer arithmetic over the plan — no clocks,
//! no thread timing — so a given schedule always yields the same unit
//! queues and the same makespan, which is what
//! [`Schedule::makespan`] reports and what the runtime charges into
//! `time()`.

use crate::graph::Node;
use crate::scheduler::Schedule;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// No setting is left to tune; perfbench still calls `from_env()` and
/// `use_inline()`. Delete in the next benchmark change.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataflowTuning;

impl DataflowTuning {
    /// The unit value. Reads no environment.
    #[doc(hidden)]
    #[must_use]
    pub fn from_env() -> Self {
        Self
    }

    /// Always `false`: every parallel run uses the threaded executor.
    #[doc(hidden)]
    #[must_use]
    pub fn use_inline(&self) -> bool {
        false
    }
}

/// "No op" in a continuation link.
const NO_OP: u32 = u32::MAX;

/// The accumulation chains of a compiled plan, the DAG between them, and
/// the serial run's chain order (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct Chains {
    /// Chain `c`'s links, op indices in emission order, are
    /// `links[link_off[c]..link_off[c + 1]]`. Chains are numbered in
    /// head order.
    links: Vec<u32>,
    link_off: Vec<u32>,
    /// Each chain's cost: the sum of its links' simulated costs under
    /// the planning unit.
    pub(crate) cost: Vec<u64>,
    /// Each chain's predecessor-chain count (the runtime's ready gate).
    pub(crate) preds: Vec<u32>,
    /// Chain `c`'s successor chains are
    /// `succs[succ_off[c]..succ_off[c + 1]]`, ascending.
    succs: Vec<u32>,
    succ_off: Vec<u32>,
    /// The serial run's order: topological, smallest head first.
    pub(crate) serial: Vec<u32>,
}

impl Chains {
    /// Group `nodes` (emission order, with `succs` their hazard
    /// successor lists and `costs` their simulated costs) into chains,
    /// and derive the chain DAG and the serial order.
    pub(crate) fn new(nodes: &[Node], succs: &[Vec<usize>], costs: &[u64]) -> Self {
        let n = nodes.len();
        let mut next = vec![NO_OP; n];
        let mut continues = vec![false; n];
        for (i, list) in succs.iter().enumerate() {
            let Some(&j) = list.first() else {
                continue;
            };
            let rect = nodes[i].out;
            let cont = &nodes[j];
            let touches = |&x: &usize| {
                let op = &nodes[x];
                op.out.overlaps(&rect) || op.a.overlaps(&rect) || op.b.overlaps(&rect)
            };
            if cont.out == rect
                && !cont.a.overlaps(&rect)
                && !cont.b.overlaps(&rect)
                && list.iter().all(touches)
            {
                next[i] = j as u32;
                continues[j] = true;
            }
        }

        let mut chain_of = vec![0u32; n];
        let mut chains = Chains {
            links: Vec::with_capacity(n),
            link_off: vec![0],
            ..Chains::default()
        };
        for head in (0..n).filter(|&i| !continues[i]) {
            let c = chains.cost.len() as u32;
            let mut cost = 0;
            let mut link = head as u32;
            while link != NO_OP {
                chain_of[link as usize] = c;
                chains.links.push(link);
                cost += costs[link as usize];
                link = next[link as usize];
            }
            chains.link_off.push(chains.links.len() as u32);
            chains.cost.push(cost);
        }

        let k = chains.cost.len();
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, list) in succs.iter().enumerate() {
            let x = chain_of[i];
            out[x as usize].extend(list.iter().map(|&j| chain_of[j]).filter(|&y| y != x));
        }
        chains.preds = vec![0; k];
        chains.succ_off = Vec::with_capacity(k + 1);
        chains.succ_off.push(0);
        for list in &mut out {
            list.sort_unstable();
            list.dedup();
            for &y in list.iter() {
                chains.preds[y as usize] += 1;
            }
            chains.succs.extend_from_slice(list);
            chains.succ_off.push(chains.succs.len() as u32);
        }

        // Kahn's walk, the smallest ready head first.
        let mut waiting = chains.preds.clone();
        let mut ready: BinaryHeap<Reverse<u32>> = (0..k as u32)
            .filter(|&c| waiting[c as usize] == 0)
            .map(Reverse)
            .collect();
        chains.serial = Vec::with_capacity(k);
        while let Some(Reverse(c)) = ready.pop() {
            chains.serial.push(c);
            for &y in chains.successors(c as usize) {
                waiting[y as usize] -= 1;
                if waiting[y as usize] == 0 {
                    ready.push(Reverse(y));
                }
            }
        }
        debug_assert_eq!(chains.serial.len(), k, "the chain DAG is acyclic");
        chains
    }

    /// Number of chains.
    pub(crate) fn len(&self) -> usize {
        self.cost.len()
    }

    /// Chain `c`'s links: op indices, ascending.
    pub(crate) fn links(&self, c: usize) -> &[u32] {
        &self.links[self.link_off[c] as usize..self.link_off[c + 1] as usize]
    }

    /// Chain `c`'s successor chains, ascending.
    pub(crate) fn successors(&self, c: usize) -> &[u32] {
        &self.succs[self.succ_off[c] as usize..self.succ_off[c + 1] as usize]
    }
}

/// The list schedule of a plan's chains: fixed per-unit queues and the
/// simulated makespan the runtime charges.
#[derive(Clone, Debug, Default)]
pub(crate) struct Placement {
    /// Each chain's simulated start.
    pub(crate) start: Vec<u64>,
    /// Per unit, its chains in execution order.
    pub(crate) unit_order: Vec<Vec<u32>>,
    /// The latest unit finish.
    pub(crate) makespan: u64,
}

impl Placement {
    /// List-schedule `chains` onto `units` units (see the module docs).
    pub(crate) fn new(chains: &Chains, units: usize) -> Self {
        let k = chains.len();
        let mut waiting = chains.preds.clone();
        let mut ready_at = vec![0u64; k];
        let mut ready: BinaryHeap<Reverse<(u64, Reverse<u64>, u32)>> = (0..k)
            .filter(|&c| waiting[c] == 0)
            .map(|c| Reverse((0, Reverse(chains.cost[c]), c as u32)))
            .collect();
        let mut free_at = vec![0u64; units];
        let mut placement = Placement {
            start: vec![0; k],
            unit_order: vec![Vec::new(); units],
            makespan: 0,
        };
        while let Some(Reverse((ready_time, Reverse(cost), c))) = ready.pop() {
            // `units >= 1` always (the planner asserts it), so the min
            // exists.
            let u = (0..units).min_by_key(|&u| (free_at[u], u)).unwrap_or(0);
            let start = free_at[u].max(ready_time);
            let finish = start + cost;
            placement.start[c as usize] = start;
            placement.unit_order[u].push(c);
            free_at[u] = finish;
            for &y in chains.successors(c as usize) {
                let y = y as usize;
                ready_at[y] = ready_at[y].max(finish);
                waiting[y] -= 1;
                if waiting[y] == 0 {
                    ready.push(Reverse((ready_at[y], Reverse(chains.cost[y]), y as u32)));
                }
            }
        }
        placement.makespan = free_at.into_iter().max().unwrap_or(0);
        placement
    }

    /// Chain `c`'s ordering key, strictly larger than every predecessor
    /// chain's: its start, then its tail. A start never falls below a
    /// predecessor's finish, and tails increase along every chain edge,
    /// so the key stays ordered even where a zero-cost chain shares its
    /// start with a successor. Recovery passes keep every queue in this
    /// order, which keeps them deadlock-free.
    pub(crate) fn key(&self, chains: &Chains, c: usize) -> (u64, u32) {
        let tail = chains.links(c).last().copied().unwrap_or(NO_OP);
        (self.start[c], tail)
    }
}

impl Schedule {
    /// [`Schedule::makespan`]; perfbench still calls it. Delete in the
    /// next benchmark change.
    #[doc(hidden)]
    #[must_use]
    pub fn dataflow_makespan(&self) -> u64 {
        self.makespan()
    }

    /// Always 0: the placement has no home units to steal from.
    /// perfbench still calls it. Delete in the next benchmark change.
    #[doc(hidden)]
    #[must_use]
    pub fn dataflow_steals(&self) -> u64 {
        0
    }

    /// [`Schedule::sched_efficiency`]; perfbench still calls it. Delete
    /// in the next benchmark change.
    #[doc(hidden)]
    #[must_use]
    pub fn dataflow_efficiency(&self) -> f64 {
        self.sched_efficiency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::hazard_successors;
    use crate::test_graphs as graphs;
    use crate::{OpGraph, OperandRef, Scheduler};
    use proptest::prelude::*;
    use tcu_core::{partition_lpt, ModelTensorUnit, TensorOp};

    /// The placement's own bounds on `g` planned for `units` units:
    ///
    /// * the compiled chain DAG is exactly the one the op-level hazards
    ///   induce, and it is acyclic;
    /// * every chain edge points to a later start (by at least the
    ///   predecessor's cost), hence to a larger `(start, head)` key;
    /// * every chain sits in exactly one queue, a queue's chains never
    ///   overlap, and the makespan is the latest queue finish;
    /// * Graham's bound `p·makespan ≤ W + (p − 1)·cp`, with `cp` the
    ///   chain DAG's critical path.
    fn check_placement(g: &OpGraph, units: usize) {
        let unit = ModelTensorUnit::new(graphs::SQRT_M * graphs::SQRT_M, 13);
        let plan = Scheduler::new().with_units(units).plan(g, &unit);
        let compiled = plan.compiled();
        let (chains, placement) = (&compiled.chains, &compiled.placement);
        let k = chains.len();

        let mut chain_of = vec![usize::MAX; plan.ops()];
        for c in 0..k {
            for &i in chains.links(c) {
                prop_assert_eq!(chain_of[i as usize], usize::MAX, "op {} in two chains", i);
                chain_of[i as usize] = c;
            }
        }
        prop_assert!(chain_of.iter().all(|&c| c < k), "every op is in a chain");
        let nodes: Vec<Node> = plan.nodes().iter().map(|sn| sn.node).collect();
        let mut induced = vec![std::collections::BTreeSet::new(); k];
        for (i, succs) in hazard_successors(&nodes).iter().enumerate() {
            for &j in succs {
                if chain_of[i] != chain_of[j] {
                    induced[chain_of[i]].insert(chain_of[j] as u32);
                }
            }
        }
        for (c, edges) in induced.iter().enumerate() {
            let edges: Vec<u32> = edges.iter().copied().collect();
            prop_assert_eq!(chains.successors(c), &edges[..], "chain {}'s edges", c);
        }

        // Kahn's walk over the induced edges: acyclic iff it visits every
        // chain. It also yields each chain's longest path to its finish.
        let mut waiting = vec![0usize; k];
        for edges in &induced {
            for &y in edges {
                waiting[y as usize] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..k).filter(|&c| waiting[c] == 0).collect();
        let mut path = vec![0u64; k];
        let mut visited = 0;
        while let Some(c) = ready.pop() {
            visited += 1;
            path[c] += chains.cost[c];
            for &y in &induced[c] {
                let y = y as usize;
                path[y] = path[y].max(path[c]);
                waiting[y] -= 1;
                if waiting[y] == 0 {
                    ready.push(y);
                }
            }
        }
        prop_assert_eq!(visited, k, "the chain DAG has a cycle");
        let cp = path.iter().copied().max().unwrap_or(0);

        let head = |c: usize| chains.links(c)[0];
        for (x, edges) in induced.iter().enumerate() {
            for &y in edges {
                let y = y as usize;
                prop_assert!(placement.start[y] >= placement.start[x] + chains.cost[x]);
                prop_assert!((placement.start[x], head(x)) < (placement.start[y], head(y)));
                prop_assert!(placement.key(chains, x) < placement.key(chains, y));
            }
        }

        let mut placed = vec![false; k];
        let mut finish = 0;
        for queue in &placement.unit_order {
            let mut free = 0;
            for &c in queue {
                let c = c as usize;
                prop_assert!(!placed[c], "chain {} queued twice", c);
                placed[c] = true;
                prop_assert!(placement.start[c] >= free, "overlapping chains");
                free = placement.start[c] + chains.cost[c];
            }
            finish = finish.max(free);
        }
        prop_assert!(placed.iter().all(|&p| p), "every chain queued");
        prop_assert_eq!(plan.makespan(), finish);

        let work: u64 = chains.cost.iter().sum();
        prop_assert_eq!(work, plan.tensor_time());
        let p = units as u64;
        prop_assert!(
            p * plan.makespan() <= work + (p - 1) * cp,
            "Graham's bound: {} units, makespan {}, work {}, cp {}",
            units,
            plan.makespan(),
            work,
            cp
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Both generators of the dataflow suite at 1/2/4/8 units.
        #[test]
        fn placements_keep_their_own_bounds(seed in 0u64..100_000) {
            for (g, _) in [graphs::random_graph(seed), graphs::chain_graph(seed)] {
                for units in [1usize, 2, 4, 8] {
                    check_placement(&g, units);
                }
            }
        }
    }

    /// A two-stage RAW pipeline whose stages hold `d/s` chains each.
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
                        TensorOp::mul_acc(d, s),
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
    fn placements_are_deterministic_and_computed_once_per_schedule() {
        let unit = tcu_core::ModelTensorUnit::new(64, 13);
        let plan = Scheduler::new().with_units(3).plan(&pipeline(32, 8), &unit);
        assert!(plan.compiled.get().is_none(), "compiled only on first use");
        let compiled = plan.compiled();
        let fresh = Placement::new(&compiled.chains, 3);
        assert_eq!(compiled.placement.unit_order, fresh.unit_order);
        assert_eq!(compiled.placement.start, fresh.start);
        assert_eq!(plan.makespan(), fresh.makespan);
        assert!(std::ptr::eq(compiled, plan.compiled()));
        // Two stages of 4 chains of 4 links: each stage-2 chain reads
        // every stage-1 strip.
        assert_eq!(compiled.chains.len(), 8);
        assert!((0..8).all(|c| compiled.chains.links(c).len() == 4));
        let bound = plan
            .critical_path()
            .max(plan.tensor_time().div_ceil(plan.units() as u64));
        assert!(
            plan.makespan() >= bound,
            "the placement cannot beat the bound"
        );
    }

    #[test]
    fn independent_chains_reduce_to_lpt_over_chain_costs() {
        // Independent one-link chains of mixed heights: every chain is
        // ready at time zero, so the placement must replay the LPT
        // partition of the chain costs, unit for unit.
        let (d, s, ops) = (32usize, 8usize, 12usize);
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, s);
        let bb = g.buffer("B", s, s);
        let cb = g.buffer("C", d, ops * s);
        for j in 0..ops {
            let rows = s * (1 + (j * 7) % 4);
            g.record(
                TensorOp::padded(rows, s, s),
                OperandRef::new(ab, 0, 0, rows, s),
                OperandRef::new(bb, 0, 0, s, s),
                OperandRef::new(cb, 0, j * s, rows, s),
            );
        }
        let unit = tcu_core::ModelTensorUnit::new(64, 13);
        for units in [2usize, 3, 4] {
            let plan = Scheduler::new().with_units(units).plan(&g, &unit);
            let compiled = plan.compiled();
            let chains = &compiled.chains;
            assert!(
                (0..chains.len()).all(|c| chains.preds[c] == 0),
                "independent"
            );
            let lpt = partition_lpt(&chains.cost, units);
            for (u, queue) in compiled.placement.unit_order.iter().enumerate() {
                for &c in queue {
                    assert_eq!(lpt.assignment[c as usize], u, "{units} units");
                }
            }
            assert_eq!(plan.makespan(), lpt.makespan());
        }
    }
}
