//! Graph → schedule: coalescing passes and deterministic list scheduling.
//!
//! [`Scheduler::plan`] runs three phases over a recorded [`OpGraph`]:
//!
//! 1. **Coalescing** (optional): rewrite the node list into fewer,
//!    wider invocations wherever the model's shape contract allows —
//!    see [width merging](#width-merging) and [inner
//!    merging](#inner-merging) below. Every merge removes one whole
//!    `n·√m + ℓ` invocation charge, which is the model's own cost term,
//!    not a host implementation detail.
//! 2. **Leveling**: dependency depth from the hazard structure, built
//!    through the per-buffer bucket index of [`crate::graph`] (near-
//!    linear for disjoint-region streams) rather than an all-pairs
//!    scan. Nodes of equal depth are mutually independent (a conflict
//!    edge always increases depth), so each depth is a wave the machine
//!    may run in any order — or on parallel units. A RAW pipeline
//!    (reads of previously written regions) simply contributes extra
//!    depths: stage boundaries are waves like any other.
//! 3. **Emission**: a canonical serial order (depth, then
//!    [`Node::canonical_key`]) plus one [`tcu_core::Partition`] per wave
//!    from [`tcu_core::partition_lpt`], exactly the partitioner the
//!    parallel machine uses. Single-unit replay and multi-unit dispatch
//!    therefore charge identical per-op Stats; only the makespan —
//!    the max-loaded unit per wave — depends on the unit count.
//!
//! The emitted order depends only on the *dependency structure and
//! contents* of the graph, never on recording order: any
//! dependency-respecting shuffle of the recording yields the same
//! schedule, stats, and trace (`tests/determinism.rs` pins this).
//!
//! # Width merging
//!
//! Two same-depth zero-padded ops that stream the **same left-operand
//! region** against horizontally adjacent weight blocks, writing
//! horizontally adjacent output blocks, are one wider instruction:
//! `C[:, j0..j1] (+)= A·B[:, j0..j1]`. Legal whenever the combined
//! width still fits the unit (`≤ √m`) *and* hoisting the later member
//! to the earlier one's position crosses nothing it must stay ordered
//! with — an interposed write to an overlapping region blocks the merge
//! unless both sides accumulate, which commutes exactly over rings
//! (see `width_merge_pass`). The fused instruction itself computes
//! each output column's inner product untouched; when a hoist crosses
//! an interposed accumulate, float sums into that region reassociate
//! (rings stay exact). This is the ROADMAP's "E2 re-streamed strips"
//! collapse: the strip is streamed once for the merged ops instead of
//! once per block column.
//!
//! # Inner merging
//!
//! An accumulate chain `C += A₁·B₁; C += A₂·B₂` whose left operands are
//! horizontally adjacent (and weight blocks vertically adjacent) is one
//! instruction with the concatenated inner dimension, when that still
//! fits `√m`. For ring scalars (integers, `F_p`) results are exactly
//! equal; for floats the fused chain reassociates the per-element sum
//! (documented, and why the pinned equivalence tests run over `i64`).

use crate::graph::{hazard_successors, levels, Node, OpGraph, RegionBuckets};
use tcu_core::{partition_lpt, PadPolicy, Partition, TensorUnit};
use tcu_obs::Recorder as _;

/// Planner configuration: unit count and whether coalescing runs.
#[derive(Clone, Copy, Debug)]
pub struct Scheduler {
    units: usize,
    coalesce: bool,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    /// Single unit, coalescing on.
    #[must_use]
    pub fn new() -> Self {
        Self {
            units: 1,
            coalesce: true,
        }
    }

    /// Schedule onto `p ≥ 1` identical tensor units.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    #[must_use]
    pub fn with_units(mut self, p: usize) -> Self {
        assert!(p >= 1, "need at least one unit");
        self.units = p;
        self
    }

    /// Disable the coalescing passes (hazard-respecting reordering and
    /// wave scheduling still run): the ablation the benchmarks compare
    /// against, and the mode whose charges match the eager path op-for-op.
    #[must_use]
    pub fn without_coalescing(mut self) -> Self {
        self.coalesce = false;
        self
    }

    /// Plan `graph` for a machine with `unit`'s costing policy.
    ///
    /// # Panics
    /// Panics if a recorded op violates `unit`'s shape contract.
    #[must_use]
    pub fn plan<U: TensorUnit>(&self, graph: &OpGraph, unit: &U) -> Schedule {
        // Telemetry wrapper only — planning itself is below. The span
        // covers coalescing through wave partitioning and lands on the
        // scheduler lane of the process-global sink, when tracing.
        let rec = tcu_obs::env_recorder();
        let start = rec.as_ref().map(|r| r.now_ns());
        let sched = self.plan_inner(graph, unit);
        if let (Some(rec), Some(t0)) = (rec, start) {
            rec.record(
                tcu_obs::Lane::Scheduler,
                tcu_obs::SpanEvent {
                    kind: tcu_obs::EventKind::PlanBuild {
                        recorded: graph.len() as u64,
                        scheduled: sched.ops() as u64,
                        waves: sched.waves() as u64,
                    },
                    t_ns: t0,
                    dur_ns: rec.now_ns().saturating_sub(t0),
                },
            );
        }
        sched
    }

    fn plan_inner<U: TensorUnit>(&self, graph: &OpGraph, unit: &U) -> Schedule {
        let s = unit.sqrt_m();
        let mut nodes: Vec<Node> = graph.nodes().to_vec();
        for n in &nodes {
            n.op.validate(s);
        }
        let mut fused: Vec<u32> = vec![1; nodes.len()];
        if self.coalesce {
            loop {
                let merged = width_merge_pass(&mut nodes, &mut fused, s)
                    + inner_merge_pass(&mut nodes, &mut fused, s);
                if merged == 0 {
                    break;
                }
            }
        }

        // Level, then order canonically within level.
        let succs = hazard_successors(&nodes);
        let lv = levels(&nodes, &succs);

        // Critical path: the longest cost-weighted hazard chain through
        // the (post-coalescing) graph — the makespan no unit count can
        // beat. Computed on the pre-sort index order, which the hazard
        // index's forward-canonicalized edges make topological.
        let node_costs: Vec<u64> = nodes
            .iter()
            .map(|n| {
                let (count, rows) = n.op.invocations(unit);
                count as u64 * unit.invocation_cost(rows)
            })
            .collect();
        let critical_path = tcu_obs::critical_path(&node_costs, &succs);

        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&i, &j| {
            (lv[i], nodes[i].canonical_key()).cmp(&(lv[j], nodes[j].canonical_key()))
        });

        let mut scheduled = Vec::with_capacity(order.len());
        let mut waves = Vec::new();
        let mut makespan = 0u64;
        let (mut invocations, mut charged_rows, mut tensor_time) = (0u64, 0u64, 0u64);
        // Per emitted node (emission order): total invocation cost and
        // invocation count — the dataflow placement's cost model and
        // its walk of the per-invocation wave assignments.
        let mut emitted_costs: Vec<u64> = Vec::with_capacity(order.len());
        let mut emitted_invs: Vec<u32> = Vec::with_capacity(order.len());
        let mut wave_costs: Vec<u64> = Vec::new();
        // Serial-order write index per buffer: each emitted node's read
        // generations are the overlapping writes already emitted, which
        // is exactly when the runtime will execute them.
        let mut emitted_writes: Vec<RegionBuckets> = (0..graph.buffer_count())
            .map(|_| RegionBuckets::default())
            .collect();
        for (pos, &i) in order.iter().enumerate() {
            let node = nodes[i];
            let a_gen = emitted_writes[node.a.buf.index()].count_overlapping(&node.a);
            let b_gen = emitted_writes[node.b.buf.index()].count_overlapping(&node.b);
            emitted_writes[node.out.buf.index()].insert(&node.out);
            scheduled.push(ScheduledNode {
                node,
                level: lv[i],
                fused: fused[i],
                a_gen,
                b_gen,
            });
            let (count, rows) = node.op.invocations(unit);
            let cost = unit.invocation_cost(rows);
            emitted_invs.push(count as u32);
            emitted_costs.push(count as u64 * cost);
            invocations += count as u64;
            charged_rows += (count * rows) as u64;
            tensor_time += count as u64 * cost;
            wave_costs.extend(std::iter::repeat_n(cost, count));
            let wave_ends = pos + 1 == order.len() || lv[order[pos + 1]] != lv[i];
            if wave_ends {
                let partition = partition_lpt(&wave_costs, self.units);
                makespan += partition.makespan();
                waves.push(partition);
                wave_costs.clear();
            }
        }

        Schedule {
            nodes: scheduled,
            waves,
            recorded_ops: graph.len(),
            buffer_shapes: (0..graph.buffer_count())
                .map(|i| graph.buffer_shape(crate::BufferId(i)))
                .collect(),
            units: self.units,
            sqrt_m: s,
            makespan,
            invocations,
            charged_rows,
            tensor_time,
            critical_path,
            node_costs: emitted_costs,
            node_invocations: emitted_invs,
            compiled: std::sync::OnceLock::new(),
            placements: crate::dataflow::PlacementCache::default(),
        }
    }
}

/// One emitted op: the (possibly merged) node, its dependency depth,
/// and how many recorded ops it stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledNode {
    /// The instruction and its operand regions.
    pub node: Node,
    /// Dependency depth (wave index).
    pub level: usize,
    /// Recorded ops this node coalesces (1 = not merged).
    pub fused: u32,
    /// Content version of the left operand in *emission order*: how many
    /// emitted writes overlapping the region execute before this op.
    /// Equal `(buffer, region, a_gen)` within one run ⇒ bit-identical
    /// data — the soundness contract of the executor's pack cache. Can
    /// differ from `node.a_gen` (the record-order version) once merges
    /// rewrite regions, which is why it is recomputed here.
    pub a_gen: u32,
    /// Content version of the right operand in emission order (used by
    /// the runtime to key same-buffer read snapshots).
    pub b_gen: u32,
}

/// A planned execution: canonical serial order, per-wave unit
/// partitions, and the model-cost aggregates of the planned stream.
#[derive(Clone, Debug)]
pub struct Schedule {
    nodes: Vec<ScheduledNode>,
    waves: Vec<Partition>,
    recorded_ops: usize,
    pub(crate) buffer_shapes: Vec<(usize, usize)>,
    units: usize,
    pub(crate) sqrt_m: usize,
    makespan: u64,
    invocations: u64,
    charged_rows: u64,
    tensor_time: u64,
    critical_path: u64,
    /// Per emitted node, emission order: total simulated invocation
    /// cost (the sum over its hardware invocations under the planning
    /// unit) — the dataflow placement's cost model.
    pub(crate) node_costs: Vec<u64>,
    /// Per emitted node, emission order: hardware invocations it
    /// decomposes into (1, or the tall split) — how the dataflow
    /// placement walks the per-invocation wave assignments.
    pub(crate) node_invocations: Vec<u32>,
    /// Lazily compiled executable form (first run, or an explicit
    /// [`Schedule::compile`], fills it; every later run reuses it).
    pub(crate) compiled: std::sync::OnceLock<crate::compile::ExecutablePlan>,
    /// Dataflow placements of the compiled form, by steal seed (the
    /// first parallel run or dataflow query under a seed fills it).
    pub(crate) placements: crate::dataflow::PlacementCache,
}

impl Schedule {
    /// The emitted ops in serial execution order.
    #[must_use]
    pub fn nodes(&self) -> &[ScheduledNode] {
        &self.nodes
    }

    /// Ops after coalescing.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.nodes.len()
    }

    /// Ops as recorded, before coalescing.
    #[must_use]
    pub fn recorded_ops(&self) -> usize {
        self.recorded_ops
    }

    /// Recorded ops eliminated by coalescing.
    #[must_use]
    pub fn coalesced_away(&self) -> usize {
        self.recorded_ops - self.nodes.len()
    }

    /// Dependency levels (independent-op waves).
    #[must_use]
    pub fn waves(&self) -> usize {
        self.waves.len()
    }

    /// Per-wave unit assignments: the [`tcu_core::partition_lpt`]
    /// schedule of each wave's invocation costs onto `units()` units
    /// (invocation order follows [`Self::nodes`], tall splits expanded).
    #[must_use]
    pub fn wave_partitions(&self) -> &[Partition] {
        &self.waves
    }

    /// Unit count the makespan was planned for.
    #[must_use]
    pub fn units(&self) -> usize {
        self.units
    }

    /// Hardware invocations the planned stream charges (after tall
    /// splits under the planning unit).
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Total rows charged across planned invocations.
    #[must_use]
    pub fn charged_rows(&self) -> u64 {
        self.charged_rows
    }

    /// Total tensor-unit work of the planned stream (the `Stats`
    /// tensor-time a single-unit run of this schedule charges).
    #[must_use]
    pub fn tensor_time(&self) -> u64 {
        self.tensor_time
    }

    /// Simulated wall-clock of the tensor work on `units()` units: the
    /// sum of per-wave LPT makespans. Equals [`Self::tensor_time`] on
    /// one unit.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// The longest cost-weighted hazard chain through the scheduled
    /// graph: the simulated makespan no number of units can beat. On
    /// one unit [`Self::makespan`] instead degenerates to
    /// [`Self::tensor_time`], so the interesting comparison is
    /// multi-unit — see [`Self::sched_efficiency`].
    #[must_use]
    pub fn critical_path(&self) -> u64 {
        self.critical_path
    }

    /// How close the wave schedule gets to the best possible makespan:
    /// `lower_bound / makespan`, where the lower bound is the larger of
    /// the critical path and the perfect work split
    /// `⌈tensor_time / units⌉`. Always in `(0, 1]` (every wave's LPT
    /// load is at least the wave's average, and the critical path
    /// threads through the per-wave maxima, so the bound never exceeds
    /// the makespan); `1.0` means wave-synchronous LPT left nothing on
    /// the table, lower values quantify idle-unit time a cleverer
    /// (e.g. wave-free list) schedule could reclaim. An empty schedule
    /// reports `1.0`.
    #[must_use]
    pub fn sched_efficiency(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        let bound = self
            .critical_path
            .max(self.tensor_time.div_ceil(self.units as u64));
        bound as f64 / self.makespan as f64
    }
}

/// Merge same-depth ops that stream one left-operand region against
/// adjacent weight columns into wider invocations. Returns merges made.
///
/// Equal depth guarantees the *pair* is unordered, but the merged node
/// executes at the earlier member's program position — so the later
/// member is hoisted across everything recorded between them. That is
/// only sound when every interposed conflicting node commutes with it,
/// which [`hoist_is_benign`] decides per conflict kind: any producer/
/// consumer relation (the hoisted op reads what an interposed op writes,
/// or vice versa — possible now that pipelines read written buffers)
/// pins the order, while two accumulates into one region commute
/// exactly over rings (floats reassociate, as the module docs note).
fn width_merge_pass(nodes: &mut Vec<Node>, fused: &mut Vec<u32>, s: usize) -> usize {
    let succs = hazard_successors(nodes);
    let lv = levels(nodes, &succs);
    // Sort candidates so chain members become consecutive: everything
    // that must agree first, then the b-column that must be adjacent.
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by_key(|&i| {
        let n = &nodes[i];
        (
            lv[i],
            n.a,
            n.op.accumulate,
            n.b.buf,
            n.b.r0,
            n.out.buf,
            n.out.r0,
            n.b.c0,
            n.out.c0,
        )
    });
    let mut removed = vec![false; nodes.len()];
    let mut merges = 0usize;
    let mut chain_head: Option<usize> = None;
    for w in order.windows(2) {
        let (i, j) = (w[0], w[1]);
        let head = chain_head.unwrap_or(i);
        let (h, n) = (nodes[head], nodes[j]);
        let mergeable = lv[i] == lv[j]
            && h.op.pad == PadPolicy::ZeroPad
            && n.op.pad == PadPolicy::ZeroPad
            && h.op.accumulate == n.op.accumulate
            && h.a == n.a
            && (n.b.buf, n.b.r0, n.b.rows) == (h.b.buf, h.b.r0, h.b.rows)
            && (n.out.buf, n.out.r0, n.out.rows) == (h.out.buf, h.out.r0, h.out.rows)
            && n.b.c0 == h.b.c0 + h.op.width
            && n.out.c0 == h.out.c0 + h.op.width
            && h.op.width + n.op.width <= s
            && hoist_is_benign(nodes, &removed, head, j);
        if mergeable {
            let head_node = &mut nodes[head];
            head_node.op.width += n.op.width;
            head_node.b.cols += n.b.cols;
            head_node.out.cols += n.out.cols;
            fused[head] += fused[j];
            removed[j] = true;
            merges += 1;
            chain_head = Some(head);
        } else {
            chain_head = None;
        }
    }
    compact(nodes, fused, &removed);
    merges
}

/// `true` iff folding node `j` into the merge head at slot `head` moves
/// `j` across nothing it must stay ordered with. Every live node `w`
/// recorded strictly between the two slots is examined per conflict
/// kind:
///
/// * `w` writes a region `j` reads (RAW) — hoisting would read the
///   pre-write value: blocked;
/// * `j` writes a region `w` reads (WAR) — hoisting would clobber `w`'s
///   input early: blocked;
/// * both write one region (WAW) — commutes exactly (over rings) iff
///   both accumulate, blocked otherwise.
///
/// The first two cases could not arise under the pre-versioned graph's
/// input/output-disjoint rule; with pipelines reading written buffers
/// they are real, so the check is per-kind rather than the old blanket
/// "any conflict commutes if both accumulate". The head must precede
/// `j` in program order — merging backwards would instead move the
/// *earlier* member across the window, so it is simply refused. Slots
/// already merged away this pass are skipped: their regions live on at
/// their (earlier) host slot, which is checked in their place.
fn hoist_is_benign(nodes: &[Node], removed: &[bool], head: usize, j: usize) -> bool {
    head < j
        && (head + 1..j).all(|w| {
            if removed[w] {
                return true;
            }
            let (w, j) = (&nodes[w], &nodes[j]);
            if w.out.overlaps(&j.a)
                || w.out.overlaps(&j.b)
                || j.out.overlaps(&w.a)
                || j.out.overlaps(&w.b)
            {
                return false;
            }
            !w.out.overlaps(&j.out) || (w.op.accumulate && j.op.accumulate)
        })
}

/// Merge accumulate chains over adjacent inner-dimension slices into
/// single invocations with the concatenated inner dimension. Returns
/// merges made.
///
/// One *batched* round: the hazard analysis runs once, every mergeable
/// pair found in canonical order is applied (each node participating in
/// at most one merge per round), and the caller's fixpoint loop
/// re-rounds until nothing merges. A chain of `k` slices therefore
/// collapses in `O(log k)` hazard builds instead of the seed's one
/// build per merge — together with the bucketed hazard index, this is
/// what took planning the 1024-op coalesce case from ≈92 ms to
/// single-digit milliseconds. Applying several merges on one analysis
/// is sound because merged pairs are disjoint: an untouched candidate's
/// adjacency fields are re-read from the live nodes, and a node merged
/// away earlier in the round moved to its host's *earlier* slot, where
/// [`hoist_is_benign`] already examines the (widened) host in its place.
fn inner_merge_pass(nodes: &mut Vec<Node>, fused: &mut Vec<u32>, s: usize) -> usize {
    let succs = hazard_successors(nodes);
    let lv = levels(nodes, &succs);
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by(|&i, &j| {
        (lv[i], nodes[i].canonical_key()).cmp(&(lv[j], nodes[j].canonical_key()))
    });
    let mut used = vec![false; nodes.len()];
    let mut removed = vec![false; nodes.len()];
    let mut merges = 0usize;
    for &i in &order {
        if used[i] {
            continue;
        }
        let h = nodes[i];
        if h.op.pad != PadPolicy::ZeroPad || !h.op.accumulate {
            continue;
        }
        for &j in &succs[i] {
            if used[j] {
                continue;
            }
            // The pair's only conflict must be the commuting WAW on the
            // shared destination: if the head's write feeds the tail's
            // reads (possible in a pipeline), fusing would consume the
            // pre-write value — refuse.
            let n = nodes[j];
            let pure_waw = !h.out.overlaps(&n.a) && !h.out.overlaps(&n.b);
            let mergeable = pure_waw
                && n.op.pad == PadPolicy::ZeroPad
                && n.op.accumulate
                && n.out == h.out
                && (n.a.buf, n.a.r0, n.a.rows) == (h.a.buf, h.a.r0, h.a.rows)
                && n.a.c0 == h.a.c0 + h.op.inner
                && (n.b.buf, n.b.c0, n.b.cols) == (h.b.buf, h.b.c0, h.b.cols)
                && n.b.r0 == h.b.r0 + h.op.inner
                && h.op.inner + n.op.inner <= s
                && hoist_is_benign(nodes, &removed, i, j);
            if mergeable {
                let head = &mut nodes[i];
                head.op.inner += n.op.inner;
                head.a.cols += n.a.cols;
                head.b.rows += n.b.rows;
                fused[i] += fused[j];
                used[i] = true;
                used[j] = true;
                removed[j] = true;
                merges += 1;
                break;
            }
        }
    }
    compact(nodes, fused, &removed);
    merges
}

/// Drop the nodes flagged in `removed`, preserving program order.
fn compact(nodes: &mut Vec<Node>, fused: &mut Vec<u32>, removed: &[bool]) {
    let mut k = 0usize;
    nodes.retain(|_| {
        k += 1;
        !removed[k - 1]
    });
    let mut k = 0usize;
    fused.retain(|_| {
        k += 1;
        !removed[k - 1]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OperandRef;
    use tcu_core::{ModelTensorUnit, TensorOp, WeakTensorUnit};

    /// The blocked Theorem-2 loop at block size `blk` over `d × d`
    /// buffers: the canonical recording every scheduler test reuses.
    fn blocked_graph(d: usize, blk: usize) -> (OpGraph, [crate::BufferId; 3]) {
        let mut g = OpGraph::new();
        let a = g.buffer("A", d, d);
        let b = g.buffer("B", d, d);
        let c = g.buffer("C", d, d);
        let q = d / blk;
        for j in 0..q {
            for k in 0..q {
                g.record(
                    TensorOp {
                        accumulate: true,
                        ..TensorOp::padded(d, blk, blk)
                    },
                    OperandRef::new(a, 0, k * blk, d, blk),
                    OperandRef::new(b, k * blk, j * blk, blk, blk),
                    OperandRef::new(c, 0, j * blk, d, blk),
                );
            }
        }
        (g, [a, b, c])
    }

    #[test]
    fn blocked_flow_coalesces_to_quarter_on_a_double_width_unit() {
        // Block-16 recording on a √m = 32 unit: width merging pairs the
        // column blocks, inner merging pairs the k-slices — 4× fewer
        // invocations, each still ≤ √m, and 4× fewer streamed charges.
        let d = 64usize;
        let (g, _) = blocked_graph(d, 16);
        assert_eq!(g.len(), 16);
        let unit = ModelTensorUnit::new(32 * 32, 100);
        let plan = Scheduler::new().plan(&g, &unit);
        assert_eq!(plan.ops(), 4);
        assert_eq!(plan.coalesced_away(), 12);
        assert_eq!(plan.invocations(), 4);
        for sn in plan.nodes() {
            assert_eq!(sn.fused, 4);
            assert_eq!((sn.node.op.inner, sn.node.op.width), (32, 32));
        }
        // Un-coalesced plan charges 4× the invocations and rows.
        let eager = Scheduler::new().without_coalescing().plan(&g, &unit);
        assert_eq!(eager.ops(), 16);
        assert_eq!(eager.charged_rows(), 4 * plan.charged_rows());
    }

    #[test]
    fn strict_full_width_ops_never_merge() {
        let d = 64usize;
        let (g, _) = blocked_graph(d, 16);
        // On a √m = 16 unit the blocks already fill the footprint.
        let unit = ModelTensorUnit::new(256, 10);
        let plan = Scheduler::new().plan(&g, &unit);
        assert_eq!(plan.ops(), 16);
        assert_eq!(plan.coalesced_away(), 0);
        // 4 accumulate waves of 4 independent column blocks each.
        assert_eq!(plan.waves(), 4);
    }

    #[test]
    fn schedule_is_canonical_and_wave_partitions_reuse_lpt() {
        let (g, _) = blocked_graph(64, 16);
        let unit = ModelTensorUnit::new(256, 5);
        let p1 = Scheduler::new().plan(&g, &unit);
        let p4 = Scheduler::new().with_units(4).plan(&g, &unit);
        // Same serial order and per-op charges; only makespan differs.
        assert_eq!(p1.nodes(), p4.nodes());
        assert_eq!(p1.tensor_time(), p4.tensor_time());
        assert_eq!(p1.makespan(), p1.tensor_time());
        // 4 equal ops per wave on 4 units: makespan = 1 op per wave.
        assert_eq!(p4.makespan() * 4, p4.tensor_time());
    }

    #[test]
    fn weak_units_split_tall_ops_into_square_invocations() {
        let (g, _) = blocked_graph(64, 16);
        let unit = WeakTensorUnit::new(256, 5);
        let plan = Scheduler::new().plan(&g, &unit);
        assert_eq!(plan.ops(), 16);
        // Every 64-row op splits into 4 square invocations.
        assert_eq!(plan.invocations(), 64);
        assert_eq!(plan.charged_rows(), 64 * 16);
    }

    #[test]
    fn interposed_overwrite_blocks_width_merge() {
        // overwrite C[:,0..4]; acc C[:,0..4] += A·B₁; overwrite
        // C[:,4..8]; acc C[:,4..8] += A·B₂ — the two accumulates are
        // same-level width-merge candidates sharing the left strip, but
        // fusing them would hoist the second accumulate above the
        // overwrite of its own region (recorded between them), dropping
        // its contribution. The merge must be refused.
        let mut g = OpGraph::new();
        let a = g.buffer("a", 8, 4);
        let b = g.buffer("b", 4, 8);
        let x = g.buffer("x", 8, 8);
        let xb = g.buffer("xb", 4, 8);
        let c = g.buffer("c", 8, 8);
        let astrip = OperandRef::new(a, 0, 0, 8, 4);
        let acc = TensorOp {
            accumulate: true,
            ..TensorOp::padded(8, 4, 4)
        };
        for half in 0..2usize {
            // Distinct left strips, so the overwrites themselves are
            // not merge candidates — only the unsound accumulate hoist
            // is on offer.
            g.record(
                TensorOp::padded(8, 4, 4),
                OperandRef::new(x, 0, half * 4, 8, 4),
                OperandRef::new(xb, 0, half * 4, 4, 4),
                OperandRef::new(c, 0, half * 4, 8, 4),
            );
            g.record(
                acc,
                astrip,
                OperandRef::new(b, 0, half * 4, 4, 4),
                OperandRef::new(c, 0, half * 4, 8, 4),
            );
        }
        let unit = ModelTensorUnit::new(64, 0);
        let plan = Scheduler::new().plan(&g, &unit);
        assert_eq!(
            plan.ops(),
            4,
            "hoisting an accumulate across an overwrite of its region \
             must be refused (and overwrites themselves may not merge \
             across the interposed accumulate)"
        );

        // Numeric proof, not just a count: run the plan and compare to
        // program-order evaluation.
        use crate::ExecEnv;
        use tcu_core::TcuMachine;
        use tcu_linalg::ops::matmul_naive;
        use tcu_linalg::Matrix;
        let am = Matrix::from_fn(8, 4, |i, j| (i * 3 + j) as i64 % 5 - 2);
        let bm = Matrix::from_fn(4, 8, |i, j| (i * 7 + j) as i64 % 9 - 4);
        let xm = Matrix::from_fn(8, 8, |i, j| (i + j * 5) as i64 % 7 - 3);
        let xbm = Matrix::from_fn(4, 8, |i, j| (i * 2 + j * 3) as i64 % 11 - 5);
        let mut cm = Matrix::<i64>::zeros(8, 8);
        let mut env = ExecEnv::new(&g);
        env.bind_input(a, am.view());
        env.bind_input(b, bm.view());
        env.bind_input(x, xm.view());
        env.bind_input(xb, xbm.view());
        env.bind_output(c, cm.view_mut());
        let mut mach = TcuMachine::model(64, 0);
        plan.run(&mut mach, &mut env);
        // Program-order reference: per half, overwrite then accumulate.
        let acc_full = matmul_naive(&am, &bm);
        let mut want = Matrix::<i64>::zeros(8, 8);
        for half in 0..2usize {
            let ow = matmul_naive(&xm.block(0, half * 4, 8, 4), &xbm.block(0, half * 4, 4, 4));
            want.set_block(0, half * 4, &ow);
            let mut region = want.subview_mut(0, half * 4, 8, 4);
            region.add_assign(acc_full.view().subview(0, half * 4, 8, 4));
        }
        assert_eq!(cm, want);
    }

    #[test]
    fn interposed_accumulates_commute_so_width_merge_proceeds() {
        // The block-16-on-√m-32 shape in miniature: accumulates into
        // different column blocks interleave in program order, but every
        // interposed conflict is accumulate-with-accumulate — hoisting
        // commutes exactly, so the merges must still happen.
        let (g, _) = blocked_graph(16, 4);
        let unit = ModelTensorUnit::new(64, 0);
        let plan = Scheduler::new().plan(&g, &unit);
        assert_eq!(plan.ops(), 4);
        assert_eq!(plan.coalesced_away(), 12);
    }

    #[test]
    fn interposed_writer_blocks_inner_merge() {
        // C += A₀·B₀ ; C = X (overwrite) ; C += A₁·B₁ — the k-chain is
        // broken by the overwrite, so nothing may merge across it.
        let mut g = OpGraph::new();
        let a = g.buffer("a", 8, 8);
        let b = g.buffer("b", 8, 4);
        let x = g.buffer("x", 8, 4);
        let xb = g.buffer("xb", 4, 4);
        let c = g.buffer("c", 8, 4);
        let acc = TensorOp {
            accumulate: true,
            ..TensorOp::padded(8, 4, 4)
        };
        let out = OperandRef::new(c, 0, 0, 8, 4);
        g.record(
            acc,
            OperandRef::new(a, 0, 0, 8, 4),
            OperandRef::new(b, 0, 0, 4, 4),
            out,
        );
        g.record(
            TensorOp::padded(8, 4, 4),
            OperandRef::new(x, 0, 0, 8, 4),
            OperandRef::new(xb, 0, 0, 4, 4),
            out,
        );
        g.record(
            acc,
            OperandRef::new(a, 0, 4, 8, 4),
            OperandRef::new(b, 4, 0, 4, 4),
            out,
        );
        let unit = ModelTensorUnit::new(64, 0);
        let plan = Scheduler::new().plan(&g, &unit);
        assert_eq!(plan.ops(), 3, "overwrite in the chain must block merging");
        assert_eq!(plan.waves(), 3);
    }
}
