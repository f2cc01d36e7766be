//! The deferred op stream: logical buffers, operand regions, and the
//! hazard-analyzed, *versioned* [`OpGraph`].
//!
//! Callers *record* tensor ops instead of issuing them: each node names
//! a [`TensorOp`] plus the three operand regions — rectangles of named
//! logical buffers — it reads (`a`, `b`) and writes (`out`). The graph
//! infers the dependency structure automatically from region overlap:
//! two nodes conflict when one's write rectangle intersects anything the
//! other touches (read-after-write, write-after-read, write-after-write
//! all reduce to that test), and conflicting nodes must execute in
//! recording order. Everything else is reorderable — which is exactly
//! the freedom the [`crate::Scheduler`] exploits to coalesce compatible
//! ops and group invocations that share a left-operand strip.
//!
//! # Buffer generations
//!
//! Buffers are versioned SSA-style at the region level: every write
//! bumps the generation of the rectangle it covers, and each recorded
//! operand resolves against the generation live at record time — the
//! number of previously recorded writes overlapping its region
//! ([`Node::a_gen`]/[`Node::b_gen`]; [`Node::out_gen`] is the version
//! the write supersedes). Two reads of the same region at the same
//! generation are therefore guaranteed to observe bit-identical data,
//! which is what lets a pack-caching executor reuse derived operand
//! forms across invocations, *and* what lets one graph express a
//! multi-stage pipeline: an op may read regions an earlier op wrote
//! (the read is ordered after the write by the inferred RAW hazard).
//! Because a region's overlapping writes are exactly its conflicting
//! predecessors, generations are invariant under dependency-respecting
//! shuffles of the recording order — the scheduler's determinism
//! contract extends to versioned pipelines unchanged.
//!
//! The only restriction left is *within* one op: an op may not write a
//! region that overlaps its own reads (in-place self-multiplication has
//! no sequential meaning in the model). Reading elsewhere in the buffer
//! it writes — a Schur-complement update streaming the pivot panel of
//! the very matrix it updates — is fine.

use std::collections::HashMap;
use tcu_core::TensorOp;

/// Handle to a logical buffer registered with [`OpGraph::buffer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub(crate) usize);

impl BufferId {
    /// Position of the buffer in its graph's registration order.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A rectangle of a logical buffer: what one op operand occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperandRef {
    /// The buffer the region lives in.
    pub buf: BufferId,
    /// First row of the region.
    pub r0: usize,
    /// First column of the region.
    pub c0: usize,
    /// Region height.
    pub rows: usize,
    /// Region width.
    pub cols: usize,
}

impl OperandRef {
    /// The `rows × cols` region of `buf` anchored at `(r0, c0)`.
    #[must_use]
    pub fn new(buf: BufferId, r0: usize, c0: usize, rows: usize, cols: usize) -> Self {
        Self {
            buf,
            r0,
            c0,
            rows,
            cols,
        }
    }

    /// `true` iff the two regions share at least one element.
    #[must_use]
    pub fn overlaps(&self, other: &OperandRef) -> bool {
        self.buf == other.buf
            && self.r0 < other.r0 + other.rows
            && other.r0 < self.r0 + self.rows
            && self.c0 < other.c0 + other.cols
            && other.c0 < self.c0 + self.cols
    }
}

/// One recorded tensor op: the descriptor, its operand regions, and the
/// buffer generations the operands resolved against at record time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Node {
    /// The instruction descriptor (shapes, accumulate flag, pad policy).
    pub op: TensorOp,
    /// Left operand region (`op.rows × op.inner`).
    pub a: OperandRef,
    /// Right operand region (`op.inner × op.width`).
    pub b: OperandRef,
    /// Destination region (`op.rows × op.width`), overwritten or
    /// accumulated into per `op.accumulate`.
    pub out: OperandRef,
    /// Generation of `a` at record time: prior recorded writes
    /// overlapping the region.
    pub a_gen: u32,
    /// Generation of `b` at record time.
    pub b_gen: u32,
    /// Generation of `out` this write supersedes (the write itself
    /// creates generation `out_gen + 1` of the covered rectangle).
    pub out_gen: u32,
}

impl Node {
    /// `true` iff executing the two nodes in either order could differ:
    /// one's write rectangle intersects something the other touches.
    #[must_use]
    pub fn conflicts(&self, other: &Node) -> bool {
        self.out.overlaps(&other.a)
            || self.out.overlaps(&other.b)
            || self.out.overlaps(&other.out)
            || self.a.overlaps(&other.out)
            || self.b.overlaps(&other.out)
    }

    /// Total order used wherever independent nodes need a canonical
    /// sequence (within-level schedule order, merge-scan order): every
    /// field of the node — regions, generations, descriptor — so two
    /// nodes compare equal only when they are the same instruction on
    /// the same data version, in which case their order is immaterial.
    /// Crucially *not* the recording index, which is what makes
    /// schedules invariant under dependency-respecting shuffles of the
    /// recording order.
    #[must_use]
    pub fn canonical_key(&self) -> impl Ord {
        (
            self.out,
            self.a,
            self.b,
            op_key(&self.op),
            self.a_gen,
            self.b_gen,
            self.out_gen,
        )
    }
}

/// `TensorOp` as an orderable tuple (the descriptor derives no `Ord`).
fn op_key(op: &TensorOp) -> (usize, usize, usize, bool, u8) {
    (
        op.rows,
        op.inner,
        op.width,
        op.accumulate,
        matches!(op.pad, tcu_core::PadPolicy::ZeroPad).into(),
    )
}

/// Shape of a registered logical buffer, plus whether any recorded op
/// writes it (written buffers must be bound mutably at run time; the
/// versioned graph accepts buffers that are read, written, or both).
#[derive(Clone, Debug)]
pub(crate) struct BufferInfo {
    pub(crate) name: String,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) written: bool,
}

/// A recorded stream of tensor ops over named logical buffers, with
/// dependencies inferred from operand-region overlap and per-region
/// write generations tracked as the stream is recorded.
#[derive(Clone, Debug, Default)]
pub struct OpGraph {
    pub(crate) buffers: Vec<BufferInfo>,
    pub(crate) nodes: Vec<Node>,
    /// Per-buffer index of the write regions recorded so far, for the
    /// near-linear generation lookups `record` performs.
    write_index: Vec<RegionBuckets>,
}

impl OpGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a `rows × cols` logical buffer under `name` (names are
    /// diagnostic only; identity is the returned id).
    pub fn buffer(&mut self, name: &str, rows: usize, cols: usize) -> BufferId {
        self.buffers.push(BufferInfo {
            name: name.to_string(),
            rows,
            cols,
            written: false,
        });
        self.write_index.push(RegionBuckets::default());
        BufferId(self.buffers.len() - 1)
    }

    /// Number of registered buffers.
    #[must_use]
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Diagnostic name of a buffer.
    ///
    /// # Panics
    /// Panics if `id` is not from this graph.
    #[must_use]
    pub fn buffer_name(&self, id: BufferId) -> &str {
        &self.buffers[id.0].name
    }

    /// Shape of a buffer.
    ///
    /// # Panics
    /// Panics if `id` is not from this graph.
    #[must_use]
    pub fn buffer_shape(&self, id: BufferId) -> (usize, usize) {
        let b = &self.buffers[id.0];
        (b.rows, b.cols)
    }

    /// `true` iff any recorded op writes into the buffer (such buffers
    /// must be bound mutably at run time; reads of them resolve against
    /// the generation recorded per op).
    ///
    /// # Panics
    /// Panics if `id` is not from this graph.
    #[must_use]
    pub fn buffer_written(&self, id: BufferId) -> bool {
        self.buffers[id.0].written
    }

    /// Current write generation of a region: how many recorded writes
    /// overlap it. The generation the next op reading `r` would record.
    ///
    /// # Panics
    /// Panics if the region is out of bounds or from another graph.
    #[must_use]
    pub fn generation(&self, r: &OperandRef) -> u32 {
        self.check_region(r, "generation query");
        self.write_index[r.buf.0].count_overlapping(r)
    }

    /// Record one op reading `a`/`b` and writing `out`. Recording order
    /// is program order: conflicting ops keep it, independent ops may be
    /// reordered and coalesced by the scheduler. Reads of regions
    /// earlier ops wrote are welcome — each operand resolves against the
    /// write generation live at this point of the recording, and the
    /// inferred RAW hazard orders the read after its producers.
    ///
    /// # Panics
    /// Panics if a region is out of its buffer's bounds, if a region
    /// shape disagrees with the descriptor, or if `out` overlaps `a` or
    /// `b` (an op may read the buffer it writes — a pipeline — but not
    /// the very rectangle it is writing).
    pub fn record(&mut self, op: TensorOp, a: OperandRef, b: OperandRef, out: OperandRef) -> usize {
        self.check_region(&a, "left operand");
        self.check_region(&b, "right operand");
        self.check_region(&out, "output");
        assert_eq!(
            (a.rows, a.cols),
            (op.rows, op.inner),
            "left region must be rows × inner"
        );
        assert_eq!(
            (b.rows, b.cols),
            (op.inner, op.width),
            "right region must be inner × width"
        );
        assert_eq!(
            (out.rows, out.cols),
            (op.rows, op.width),
            "output region must be rows × width"
        );
        assert!(
            !out.overlaps(&a) && !out.overlaps(&b),
            "an op may not write a region overlapping its own reads \
             (in-place self-multiplication is not a sequential program)"
        );
        let a_gen = self.write_index[a.buf.0].count_overlapping(&a);
        let b_gen = self.write_index[b.buf.0].count_overlapping(&b);
        let out_gen = self.write_index[out.buf.0].count_overlapping(&out);
        self.buffers[out.buf.0].written = true;
        self.write_index[out.buf.0].insert(&out);
        self.nodes.push(Node {
            op,
            a,
            b,
            out,
            a_gen,
            b_gen,
            out_gen,
        });
        self.nodes.len() - 1
    }

    /// The recorded nodes, in program (recording) order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of recorded ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn check_region(&self, r: &OperandRef, what: &str) {
        let info = self
            .buffers
            .get(r.buf.0)
            .unwrap_or_else(|| panic!("{what}: unknown buffer id"));
        assert!(
            r.r0 + r.rows <= info.rows && r.c0 + r.cols <= info.cols,
            "{what}: region exceeds buffer '{}' ({} × {})",
            info.name,
            info.rows,
            info.cols
        );
    }
}

/// Most grid cells one region may enumerate before the index treats it
/// as *oversize* and handles it by exact linear scan instead. Bounds
/// the worst case of mismatched extents (a tiny first region fixing a
/// tiny cell size, then a huge region arriving) at a constant, without
/// giving up exactness: oversize regions are simply checked against
/// everything, and everything checks against them.
const MAX_COVERED_CELLS: usize = 4096;

/// A spatial index over rectangles of one buffer: regions are hashed
/// into a uniform grid of cells sized to the first inserted region, so
/// overlap queries touch only the candidates sharing a cell instead of
/// every region ever inserted. For the disjoint, uniformly-sized
/// streams the blocked algorithms record, insert and query are O(cells
/// covered) — constant per op — which is what keeps both `record`'s
/// generation lookups and the planner's hazard build near-linear.
/// Regions spanning more than [`MAX_COVERED_CELLS`] cells fall back to
/// an exact linear overflow list, so adversarially mixed extents
/// degrade gracefully instead of enumerating millions of cells.
#[derive(Clone, Debug, Default)]
pub(crate) struct RegionBuckets {
    cell: Option<(usize, usize)>,
    cells: HashMap<(usize, usize), Vec<u32>>,
    /// Regions too large for the grid, matched by exact scan.
    oversize: Vec<u32>,
    regions: Vec<OperandRef>,
}

impl RegionBuckets {
    /// Number of grid cells `r` covers under cell size `(ch, cw)`.
    fn covered_count(r: &OperandRef, (ch, cw): (usize, usize)) -> usize {
        let rows = (r.r0 + r.rows.saturating_sub(1)) / ch - r.r0 / ch + 1;
        let cols = (r.c0 + r.cols.saturating_sub(1)) / cw - r.c0 / cw + 1;
        rows.saturating_mul(cols)
    }

    /// Grid cells covered by `r` under cell size `(ch, cw)`.
    fn covered(
        r: &OperandRef,
        (ch, cw): (usize, usize),
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let rows = r.r0 / ch..=(r.r0 + r.rows.saturating_sub(1)) / ch;
        rows.flat_map(move |i| {
            (r.c0 / cw..=(r.c0 + r.cols.saturating_sub(1)) / cw).map(move |j| (i, j))
        })
    }

    /// Add a region to the index.
    pub(crate) fn insert(&mut self, r: &OperandRef) {
        if r.rows == 0 || r.cols == 0 {
            return;
        }
        let cell = *self.cell.get_or_insert((r.rows, r.cols));
        let id = self.regions.len() as u32;
        self.regions.push(*r);
        if Self::covered_count(r, cell) > MAX_COVERED_CELLS {
            self.oversize.push(id);
            return;
        }
        for c in Self::covered(r, cell) {
            self.cells.entry(c).or_default().push(id);
        }
    }

    /// Number of indexed regions overlapping `r`.
    pub(crate) fn count_overlapping(&self, r: &OperandRef) -> u32 {
        let Some(cell) = self.cell else {
            return 0;
        };
        if r.rows == 0 || r.cols == 0 {
            return 0;
        }
        if Self::covered_count(r, cell) > MAX_COVERED_CELLS {
            // Oversize query: exact scan over everything beats walking
            // millions of cells.
            return self.regions.iter().filter(|q| q.overlaps(r)).count() as u32;
        }
        let mut candidates: Vec<u32> = Self::covered(r, cell)
            .filter_map(|c| self.cells.get(&c))
            .flatten()
            .chain(&self.oversize)
            .copied()
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .filter(|&id| self.regions[id as usize].overlaps(r))
            .count() as u32
    }
}

/// Directed hazard edges over a node list: `succs[i]` holds every later
/// node that conflicts with node `i` (program order orients each pair).
///
/// Built through a per-buffer grid index rather than the all-pairs scan:
/// operand occurrences are bucketed by the cells they cover, buffers
/// nothing writes are skipped outright (reads alone never conflict), and
/// candidate pairs are only the write–write and write–read occupants of
/// a shared cell, confirmed by the exact rectangle test. For the
/// disjoint-region streams the blocked algorithms emit this is
/// near-linear in recorded ops plus true conflicts — the planning-cost
/// fix the ROADMAP asked for — and it is exact: the candidate set of a
/// cell always contains every genuinely overlapping pair.
#[must_use]
pub(crate) fn hazard_successors(nodes: &[Node]) -> Vec<Vec<usize>> {
    // Operand occurrences per buffer: (node, region, is_write).
    let mut per_buf: HashMap<usize, Vec<(u32, OperandRef, bool)>> = HashMap::new();
    for (i, n) in nodes.iter().enumerate() {
        let i = i as u32;
        per_buf.entry(n.a.buf.0).or_default().push((i, n.a, false));
        per_buf.entry(n.b.buf.0).or_default().push((i, n.b, false));
        per_buf
            .entry(n.out.buf.0)
            .or_default()
            .push((i, n.out, true));
    }
    let mut succs = vec![Vec::new(); nodes.len()];
    let mut edge = |x: u32, y: u32| {
        if x != y {
            let (i, j) = (x.min(y) as usize, x.max(y) as usize);
            succs[i].push(j);
        }
    };
    for entries in per_buf.into_values() {
        if !entries.iter().any(|e| e.2) {
            continue;
        }
        let cell = entries
            .iter()
            .filter(|e| e.1.rows > 0 && e.1.cols > 0)
            .map(|e| (e.1.rows, e.1.cols))
            .fold((usize::MAX, usize::MAX), |(h, w), (rh, rw)| {
                (h.min(rh), w.min(rw))
            });
        if cell.0 == usize::MAX {
            continue;
        }
        // Bucket writes and reads separately per cell: read–read pairs
        // can never conflict, so they are never even enumerated. An
        // entry spanning more than MAX_COVERED_CELLS cells (possible
        // when extents are wildly mixed and the min-dims cell is tiny)
        // skips the grid and is paired against every entry exactly —
        // bounded degradation instead of cell-enumeration blow-up.
        let mut cells: HashMap<(usize, usize), (Vec<usize>, Vec<usize>)> = HashMap::new();
        let mut oversize: Vec<usize> = Vec::new();
        for (e, entry) in entries.iter().enumerate() {
            if entry.1.rows == 0 || entry.1.cols == 0 {
                continue;
            }
            if RegionBuckets::covered_count(&entry.1, cell) > MAX_COVERED_CELLS {
                oversize.push(e);
                continue;
            }
            for c in RegionBuckets::covered(&entry.1, cell) {
                let slot = cells.entry(c).or_default();
                if entry.2 {
                    slot.0.push(e);
                } else {
                    slot.1.push(e);
                }
            }
        }
        for &o in &oversize {
            let (on, or_, o_write) = entries[o];
            for &(en, er, e_write) in &entries {
                // Self-pairs are dropped by `edge`; duplicate pairs are
                // canonicalized by the final sort+dedup.
                if (o_write || e_write) && or_.overlaps(&er) {
                    edge(on, en);
                }
            }
        }
        for (writes, reads) in cells.into_values() {
            for (wi, &w) in writes.iter().enumerate() {
                let (wn, wr, _) = entries[w];
                for &w2 in &writes[wi + 1..] {
                    let (on, or, _) = entries[w2];
                    if wr.overlaps(&or) {
                        edge(wn, on);
                    }
                }
                for &r in &reads {
                    let (rn, rr, _) = entries[r];
                    if wr.overlaps(&rr) {
                        edge(wn, rn);
                    }
                }
            }
        }
    }
    // A pair sharing several cells is found several times; canonicalize.
    for s in &mut succs {
        s.sort_unstable();
        s.dedup();
    }
    succs
}

/// Dependency depth of every node: 0 for sources, else one more than
/// the deepest conflicting predecessor. Depends only on the conflict
/// structure, so it is invariant under dependency-respecting shuffles
/// of the recording order.
#[must_use]
pub(crate) fn levels(nodes: &[Node], succs: &[Vec<usize>]) -> Vec<usize> {
    let mut level = vec![0usize; nodes.len()];
    for i in 0..nodes.len() {
        for &j in &succs[i] {
            level[j] = level[j].max(level[i] + 1);
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;

    fn padded(rows: usize, inner: usize, width: usize, acc: bool) -> TensorOp {
        TensorOp {
            accumulate: acc,
            ..TensorOp::padded(rows, inner, width)
        }
    }

    /// The exact quadratic reference the bucket index must agree with.
    fn hazard_successors_naive(nodes: &[Node]) -> Vec<Vec<usize>> {
        let mut succs = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                if nodes[i].conflicts(&nodes[j]) {
                    succs[i].push(j);
                }
            }
        }
        succs
    }

    #[test]
    fn regions_overlap_only_within_a_buffer() {
        let mut g = OpGraph::new();
        let x = g.buffer("x", 8, 8);
        let y = g.buffer("y", 8, 8);
        let r = |b, r0, c0| OperandRef::new(b, r0, c0, 4, 4);
        assert!(r(x, 0, 0).overlaps(&r(x, 3, 3)));
        assert!(!r(x, 0, 0).overlaps(&r(x, 4, 0)));
        assert!(!r(x, 0, 0).overlaps(&r(x, 0, 4)));
        assert!(!r(x, 0, 0).overlaps(&r(y, 0, 0)));
        assert_eq!(g.buffer_name(y), "y");
        assert_eq!(g.buffer_shape(x), (8, 8));
    }

    #[test]
    fn hazards_order_conflicting_ops_and_free_independent_ones() {
        let mut g = OpGraph::new();
        let a = g.buffer("a", 8, 4);
        let b = g.buffer("b", 4, 8);
        let c = g.buffer("c", 8, 8);
        let op = padded(8, 4, 4, true);
        let areg = OperandRef::new(a, 0, 0, 8, 4);
        // Two accumulates into the same block: ordered. A third into a
        // disjoint block: free.
        g.record(
            op,
            areg,
            OperandRef::new(b, 0, 0, 4, 4),
            OperandRef::new(c, 0, 0, 8, 4),
        );
        g.record(
            op,
            areg,
            OperandRef::new(b, 0, 4, 4, 4),
            OperandRef::new(c, 0, 0, 8, 4),
        );
        g.record(
            op,
            areg,
            OperandRef::new(b, 0, 4, 4, 4),
            OperandRef::new(c, 0, 4, 8, 4),
        );
        let succs = hazard_successors(g.nodes());
        assert_eq!(succs[0], vec![1]);
        assert!(succs[1].is_empty() && succs[2].is_empty());
        assert_eq!(levels(g.nodes(), &succs), vec![0, 1, 0]);
        // The two writes to the same rectangle carry successive
        // generations; the disjoint third write starts fresh.
        let gens: Vec<u32> = g.nodes().iter().map(|n| n.out_gen).collect();
        assert_eq!(gens, vec![0, 1, 0]);
    }

    #[test]
    fn bucket_index_matches_the_quadratic_scan() {
        // Mixed region sizes, shared cells, a read-write buffer, and a
        // couple of pipeline hops — every structural case at once.
        let mut g = OpGraph::new();
        let x = g.buffer("x", 32, 32);
        let w = g.buffer("w", 32, 32);
        let p = g.buffer("p", 32, 32);
        for (k, (ar, ac, or, oc, rows)) in [
            (0usize, 0usize, 0usize, 8usize, 8usize),
            (0, 0, 8, 8, 8),
            (8, 0, 0, 16, 16),
            (0, 8, 16, 0, 8),
            (0, 16, 8, 8, 24),
            (4, 0, 24, 24, 8),
        ]
        .into_iter()
        .enumerate()
        {
            let op = padded(rows, 4, 4, k.is_multiple_of(2));
            g.record(
                op,
                OperandRef::new(x, ar, ac, rows, 4),
                OperandRef::new(w, (k * 4) % 16, 0, 4, 4),
                OperandRef::new(if k.is_multiple_of(3) { x } else { p }, or, oc, rows, 4),
            );
        }
        assert_eq!(
            hazard_successors(g.nodes()),
            hazard_successors_naive(g.nodes())
        );
    }

    #[test]
    fn oversize_regions_fall_back_to_exact_scans() {
        // A 1×1 write fixes the output buffer's grid cell at 1×1, so
        // the whole-buffer write that follows would cover 512² cells —
        // it must take the oversize path (and the later read must find
        // both writes by exact scan) without walking the grid.
        let d = 512usize;
        let mut g = OpGraph::new();
        let x = g.buffer("x", d, d);
        let w = g.buffer("w", d, d);
        let o = g.buffer("o", d, d);
        let whole = |b| OperandRef::new(b, 0, 0, d, d);
        g.record(
            padded(1, 1, 1, false),
            OperandRef::new(x, 0, 0, 1, 1),
            OperandRef::new(w, 0, 0, 1, 1),
            OperandRef::new(o, 0, 0, 1, 1),
        );
        g.record(padded(d, d, d, false), whole(x), whole(w), whole(o));
        let i = g.record(
            padded(1, 1, 1, false),
            OperandRef::new(o, 3, 3, 1, 1),
            OperandRef::new(w, 0, 0, 1, 1),
            OperandRef::new(x, 9, 9, 1, 1),
        );
        // The pipeline read of o at (3,3) saw both the tiny write (no —
        // disjoint) and the whole-buffer write: generation 1.
        assert_eq!(g.nodes()[i].a_gen, 1);
        assert_eq!(g.generation(&OperandRef::new(o, 0, 0, 1, 1)), 2);
        assert_eq!(
            hazard_successors(g.nodes()),
            hazard_successors_naive(g.nodes())
        );
    }

    #[test]
    fn generations_count_overlapping_writes_only() {
        let mut g = OpGraph::new();
        let a = g.buffer("a", 8, 8);
        let b = g.buffer("b", 4, 4);
        let c = g.buffer("c", 8, 8);
        let d = g.buffer("d", 8, 8);
        let half = |buf, c0| OperandRef::new(buf, 0, c0, 8, 4);
        let wb = OperandRef::new(b, 0, 0, 4, 4);
        // Write c[:,0..4], then c[:,4..8]: disjoint, both generation 0.
        g.record(padded(8, 4, 4, false), half(a, 0), wb, half(c, 0));
        g.record(padded(8, 4, 4, false), half(a, 4), wb, half(c, 4));
        // Read c[:,0..4] (one overlapping write → gen 1), write d.
        let i = g.record(padded(8, 4, 4, false), half(c, 0), wb, half(d, 0));
        assert_eq!(g.nodes()[i].a_gen, 1);
        // Overwrite c[:,0..4] again: supersedes generation 1.
        let i = g.record(padded(8, 4, 4, false), half(a, 0), wb, half(c, 0));
        assert_eq!(g.nodes()[i].out_gen, 1);
        // A later read of the re-written half sees generation 2; the
        // untouched half still reads generation 0.
        let i = g.record(padded(8, 4, 4, false), half(c, 0), wb, half(d, 4));
        assert_eq!(g.nodes()[i].a_gen, 2);
        assert_eq!(g.generation(&half(c, 4)), 1);
        assert_eq!(g.generation(&half(a, 0)), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn out_of_bounds_region_rejected() {
        let mut g = OpGraph::new();
        let a = g.buffer("a", 8, 4);
        let b = g.buffer("b", 4, 4);
        let c = g.buffer("c", 8, 4);
        g.record(
            padded(8, 4, 4, false),
            OperandRef::new(a, 1, 0, 8, 4),
            OperandRef::new(b, 0, 0, 4, 4),
            OperandRef::new(c, 0, 0, 8, 4),
        );
    }

    #[test]
    fn reading_a_written_buffer_forms_a_pipeline() {
        // The RAW pipeline the pre-versioned graph rejected: stage one
        // writes C, stage two streams C against fresh weights into D.
        // Hazards order the stages; the read resolves at generation 1.
        let mut g = OpGraph::new();
        let a = g.buffer("a", 4, 4);
        let b = g.buffer("b", 4, 4);
        let c = g.buffer("c", 4, 4);
        let d = g.buffer("d", 4, 4);
        let whole = |buf| OperandRef::new(buf, 0, 0, 4, 4);
        g.record(padded(4, 4, 4, false), whole(a), whole(b), whole(c));
        let i = g.record(padded(4, 4, 4, false), whole(c), whole(b), whole(d));
        assert_eq!(g.nodes()[i].a_gen, 1, "read resolves after the write");
        assert!(g.buffer_written(c) && !g.buffer_written(a));
        let succs = hazard_successors(g.nodes());
        assert_eq!(succs[0], vec![1], "RAW hazard orders the stages");
        assert_eq!(levels(g.nodes(), &succs), vec![0, 1]);
    }

    #[test]
    fn pipeline_may_update_the_buffer_it_streams() {
        // The Schur-complement shape: stream the pivot panel of X while
        // accumulating into a disjoint column of the same buffer.
        let mut g = OpGraph::new();
        let x = g.buffer("x", 8, 8);
        let w = g.buffer("w", 4, 4);
        let panel = OperandRef::new(x, 4, 0, 4, 4);
        let out = OperandRef::new(x, 4, 4, 4, 4);
        g.record(
            padded(4, 4, 4, true),
            panel,
            OperandRef::new(w, 0, 0, 4, 4),
            out,
        );
        let n = &g.nodes()[0];
        assert_eq!((n.a_gen, n.out_gen), (0, 0));
        assert!(g.buffer_written(x));
    }

    #[test]
    #[should_panic(expected = "overlapping its own reads")]
    fn in_place_self_multiplication_rejected() {
        let mut g = OpGraph::new();
        let x = g.buffer("x", 4, 4);
        let b = g.buffer("b", 4, 4);
        let whole = OperandRef::new(x, 0, 0, 4, 4);
        g.record(
            padded(4, 4, 4, false),
            whole,
            OperandRef::new(b, 0, 0, 4, 4),
            whole,
        );
    }

    #[test]
    #[should_panic(expected = "rows × inner")]
    fn region_shape_must_match_descriptor() {
        let mut g = OpGraph::new();
        let a = g.buffer("a", 8, 4);
        let b = g.buffer("b", 4, 4);
        let c = g.buffer("c", 8, 4);
        g.record(
            padded(8, 4, 4, false),
            OperandRef::new(a, 0, 0, 4, 4),
            OperandRef::new(b, 0, 0, 4, 4),
            OperandRef::new(c, 0, 0, 8, 4),
        );
    }
}
