//! Execution traces: the recorded instruction stream of a TCU algorithm.
//!
//! A trace is a *replayable program*: every tensor event carries the
//! full [`TensorOp`] descriptor of the invocation plus the simulated
//! cost it was charged, and scalar segments carry their op counts. Two
//! consumers exist today: `tcu-extmem::simulate` replays traces in the
//! external-memory model (Theorem 12 turns each tensor call into `Θ(m)`
//! I/Os), and [`crate::exec::ReplayExecutor`] re-runs a trace through a
//! costing policy to re-derive [`crate::Stats`] without touching
//! numerics — the property `replay(record(P)) == record(P)` is pinned
//! by the workspace's replay tests.
//!
//! Tensor events are recorded per *hardware invocation*: a tall call on
//! a unit without native tall support appears as its `⌈n/√m⌉` square
//! tiles, exactly as charged.

use crate::op::TensorOp;

/// One step of a TCU execution, at the granularity Theorem 12 needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// One hardware tensor invocation: the full op descriptor (with
    /// `op.rows` the rows actually charged for this invocation) and the
    /// simulated cost the costing policy charged it.
    Tensor {
        /// Descriptor of the invocation.
        op: TensorOp,
        /// Simulated time charged (`n·√m + ℓ` under the model policy).
        cost: u64,
    },
    /// A run of `ops` consecutive scalar CPU operations (coalesced).
    Scalar {
        /// Number of unit-cost CPU operations in the run.
        ops: u64,
    },
    /// A tensor unit faulted during a parallel wave and the fault was
    /// contained. Recovery events are *annotations*, not work: they are
    /// excluded from the digest and from every work summary, so a
    /// recovered run's trace digests identically to the fault-free run.
    Fault {
        /// The faulting unit.
        unit: usize,
        /// `true` for a transient fault (retried), `false` for a
        /// permanent one (unit quarantined or run failed).
        transient: bool,
    },
    /// A faulted op was retried on its unit after simulated backoff.
    Retry {
        /// The retrying unit.
        unit: usize,
        /// Attempt number issued (2 = first retry).
        attempt: u32,
        /// Simulated backoff time charged into the run's makespan.
        backoff: u64,
    },
    /// A permanently failed unit was quarantined and its remaining wave
    /// assignments re-partitioned onto the surviving units.
    Quarantine {
        /// The quarantined unit.
        unit: usize,
        /// Ops moved onto survivors.
        requeued: usize,
    },
}

impl TraceEvent {
    /// `true` for the recovery annotations ([`TraceEvent::Fault`],
    /// [`TraceEvent::Retry`], [`TraceEvent::Quarantine`]) that describe
    /// *how* a run executed rather than *what* it computed.
    #[must_use]
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            Self::Fault { .. } | Self::Retry { .. } | Self::Quarantine { .. }
        )
    }
}

impl std::fmt::Display for TraceEvent {
    /// One human-readable line per event, shared by
    /// [`TraceLog::summary`] and the experiments' `--stats` output so
    /// fault annotations print identically everywhere.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Tensor { op, cost } => write!(
                f,
                "tensor {}x{}·{}x{}{}{} (cost {cost})",
                op.rows,
                op.inner,
                op.inner,
                op.width,
                if op.accumulate { " +acc" } else { "" },
                if matches!(op.pad, crate::op::PadPolicy::ZeroPad) {
                    " padded"
                } else {
                    ""
                },
            ),
            Self::Scalar { ops } => write!(f, "scalar x{ops}"),
            Self::Fault { unit, transient } => write!(
                f,
                "fault on unit {unit} ({})",
                if transient { "transient" } else { "permanent" }
            ),
            Self::Retry {
                unit,
                attempt,
                backoff,
            } => write!(
                f,
                "retry on unit {unit}, attempt {attempt} (backoff {backoff})"
            ),
            Self::Quarantine { unit, requeued } => {
                write!(f, "quarantine unit {unit}, requeued {requeued} ops")
            }
        }
    }
}

/// An append-only log of [`TraceEvent`]s with consecutive scalar segments
/// coalesced, so trace size is proportional to the number of tensor calls
/// rather than to simulated time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a tensor invocation with its charged cost.
    pub fn push_tensor(&mut self, op: TensorOp, cost: u64) {
        self.events.push(TraceEvent::Tensor { op, cost });
    }

    /// Append scalar work, merging with a trailing scalar segment.
    pub fn push_scalar(&mut self, ops: u64) {
        if ops == 0 {
            return;
        }
        if let Some(TraceEvent::Scalar { ops: last }) = self.events.last_mut() {
            *last += ops;
        } else {
            self.events.push(TraceEvent::Scalar { ops });
        }
    }

    /// Record a contained unit fault. Recovery events never coalesce
    /// with scalar segments — the parallel driver charges no scalar work
    /// while recovering, so a fault annotation can never split a run
    /// that a fault-free execution would have merged.
    pub fn push_fault(&mut self, unit: usize, transient: bool) {
        self.events.push(TraceEvent::Fault { unit, transient });
    }

    /// Record a retry attempt and its charged backoff.
    pub fn push_retry(&mut self, unit: usize, attempt: u32, backoff: u64) {
        self.events.push(TraceEvent::Retry {
            unit,
            attempt,
            backoff,
        });
    }

    /// Record a unit quarantine and the number of requeued ops.
    pub fn push_quarantine(&mut self, unit: usize, requeued: usize) {
        self.events.push(TraceEvent::Quarantine { unit, requeued });
    }

    /// The recorded events, in execution order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of tensor invocations recorded.
    #[must_use]
    pub fn tensor_calls(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Tensor { .. }))
            .count() as u64
    }

    /// Total scalar operations recorded.
    #[must_use]
    pub fn scalar_ops(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Scalar { ops } => *ops,
                _ => 0,
            })
            .sum()
    }

    /// Total rows streamed across all tensor invocations.
    #[must_use]
    pub fn tensor_rows(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Tensor { op, .. } => op.rows as u64,
                _ => 0,
            })
            .sum()
    }

    /// Total simulated cost recorded across tensor invocations (the
    /// `Stats::tensor_time` of the recording run).
    #[must_use]
    pub fn tensor_cost(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Tensor { cost, .. } => *cost,
                _ => 0,
            })
            .sum()
    }

    /// The log with recovery annotations dropped: exactly the event
    /// stream a fault-free execution of the same schedule records. The
    /// chaos suite compares `faulted.without_faults().events()` against
    /// the fault-free run's `events()` — the strongest form of the
    /// recovery-is-unobservable contract.
    #[must_use]
    pub fn without_faults(&self) -> TraceLog {
        TraceLog {
            events: self
                .events
                .iter()
                .filter(|e| !e.is_fault())
                .copied()
                .collect(),
        }
    }

    /// The recorded recovery annotations, in execution order.
    #[must_use]
    pub fn fault_events(&self) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.is_fault())
            .copied()
            .collect()
    }

    /// `true` iff nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Multi-line pretty-print of the log: one aggregate work line
    /// (invocations, rows, cost, scalar ops), then — when recovery
    /// happened — each fault annotation on its own indented line via
    /// [`TraceEvent`]'s `Display`. The uniform shape every `--stats`
    /// printout routes through.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "trace: {} invocations, {} rows, tensor cost {}, scalar ops {}",
            self.tensor_calls(),
            self.tensor_rows(),
            self.tensor_cost(),
            self.scalar_ops(),
        );
        let faults = self.fault_events();
        if !faults.is_empty() {
            out.push_str(&format!("; {} recovery events:", faults.len()));
            for ev in faults {
                out.push_str(&format!("\n  {ev}"));
            }
        }
        out
    }

    /// FNV-1a digest of the event stream: event kind tag plus its
    /// primary payload (tensor rows / scalar ops), little-endian. The
    /// hashed bytes are the trace schema of the seed simulator, so
    /// digests are stable across the `TensorOp` upgrade — the pinned
    /// values in `tests/cost_invariance.rs` predate it. The digest
    /// covers *only* that seed schema: descriptor extras
    /// (inner/width/accumulate/pad) and costs are deliberately not
    /// hashed, so two traces can digest equal while differing in them —
    /// anything needing full trace identity must compare
    /// [`Self::events`] directly (the strictly stronger check the
    /// replay tests use).
    #[must_use]
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        };
        for ev in &self.events {
            // Recovery annotations are not part of the trace schema:
            // skipping them here is what makes a recovered run's digest
            // equal the fault-free digest by construction.
            let (tag, payload) = match ev {
                TraceEvent::Tensor { op, .. } => (b'T', op.rows as u64),
                TraceEvent::Scalar { ops } => (b'S', *ops),
                TraceEvent::Fault { .. }
                | TraceEvent::Retry { .. }
                | TraceEvent::Quarantine { .. } => continue,
            };
            eat(tag);
            for b in payload.to_le_bytes() {
                eat(b);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(rows: usize) -> TensorOp {
        TensorOp::mul(rows, 4)
    }

    #[test]
    fn scalar_segments_coalesce() {
        let mut log = TraceLog::new();
        log.push_scalar(5);
        log.push_scalar(7);
        log.push_tensor(tensor(16), 16 * 4);
        log.push_scalar(0); // no-op
        log.push_scalar(3);
        assert_eq!(
            log.events(),
            &[
                TraceEvent::Scalar { ops: 12 },
                TraceEvent::Tensor {
                    op: tensor(16),
                    cost: 64
                },
                TraceEvent::Scalar { ops: 3 },
            ]
        );
    }

    #[test]
    fn summaries() {
        let mut log = TraceLog::new();
        assert!(log.is_empty());
        log.push_tensor(tensor(8), 32);
        log.push_scalar(10);
        log.push_tensor(tensor(24), 96);
        assert_eq!(log.tensor_calls(), 2);
        assert_eq!(log.tensor_rows(), 32);
        assert_eq!(log.scalar_ops(), 10);
        assert_eq!(log.tensor_cost(), 128);
        assert!(!log.is_empty());
    }

    #[test]
    fn digest_separates_streams_and_ignores_descriptor_extras() {
        let mut a = TraceLog::new();
        a.push_tensor(tensor(8), 32);
        a.push_scalar(10);
        let mut b = TraceLog::new();
        b.push_tensor(tensor(8), 32);
        b.push_scalar(11);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), TraceLog::new().digest());

        // The digest hashes the seed schema (tag + rows), so a cost or
        // descriptor difference alone does not perturb it — events()
        // equality is the stronger check for those.
        let mut c = TraceLog::new();
        c.push_tensor(TensorOp::mul_acc(8, 4), 32);
        c.push_scalar(10);
        assert_eq!(a.digest(), c.digest());
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn fault_events_are_annotations_not_work() {
        let mut clean = TraceLog::new();
        clean.push_tensor(tensor(8), 32);
        clean.push_scalar(10);
        clean.push_tensor(tensor(24), 96);

        let mut faulty = TraceLog::new();
        faulty.push_tensor(tensor(8), 32);
        faulty.push_fault(1, true);
        faulty.push_retry(1, 2, 45);
        faulty.push_scalar(10);
        faulty.push_fault(0, false);
        faulty.push_quarantine(0, 3);
        faulty.push_tensor(tensor(24), 96);

        // Digest and every work summary ignore the annotations...
        assert_eq!(faulty.digest(), clean.digest());
        assert_eq!(faulty.tensor_calls(), clean.tensor_calls());
        assert_eq!(faulty.tensor_rows(), clean.tensor_rows());
        assert_eq!(faulty.tensor_cost(), clean.tensor_cost());
        assert_eq!(faulty.scalar_ops(), clean.scalar_ops());
        // ...without_faults() strips them to the clean stream exactly...
        assert_eq!(faulty.without_faults().events(), clean.events());
        // ...and fault_events() exposes just the recovery story.
        assert_eq!(
            faulty.fault_events(),
            vec![
                TraceEvent::Fault {
                    unit: 1,
                    transient: true
                },
                TraceEvent::Retry {
                    unit: 1,
                    attempt: 2,
                    backoff: 45
                },
                TraceEvent::Fault {
                    unit: 0,
                    transient: false
                },
                TraceEvent::Quarantine {
                    unit: 0,
                    requeued: 3
                },
            ]
        );
        assert!(TraceEvent::Fault {
            unit: 0,
            transient: true
        }
        .is_fault());
        assert!(!TraceEvent::Scalar { ops: 1 }.is_fault());
    }
}
