#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # tcu-sched — deferred op-stream runtime for the (m, ℓ)-TCU simulator
//!
//! In the TCU model, an algorithm's cost is its instruction stream: each
//! tensor invocation pays `n·√m + ℓ`, so *how many* invocations you
//! issue and *how much* each one streams are the whole game. This crate
//! attacks both terms after the fact: instead of issuing eagerly,
//! callers **record** their tensor ops into an [`OpGraph`] against named
//! logical buffers, a [`Scheduler`] rewrites and orders the stream, and
//! the resulting [`Schedule`] replays it through any
//! [`tcu_core::TcuMachine`] — host kernels, systolic array, or
//! accounting-only replay.
//!
//! The pipeline, layer by layer:
//!
//! * **[`OpGraph`]** — nodes are [`tcu_core::TensorOp`]s plus operand
//!   regions ([`OperandRef`]: rectangles of logical buffers); hazards
//!   (RAW/WAR/WAW) are inferred automatically from region overlap, and
//!   only conflicting ops keep their recording order.
//! * **[`Scheduler`]** — (1) *coalescing*: merges compatible ops into
//!   wider invocations (adjacent-width merge for ops sharing a left
//!   strip, inner-dimension merge for accumulate chains), each merge
//!   deleting a whole `n·√m + ℓ` charge; (2) *deterministic ordering*:
//!   dependency levels and a canonical within-level order, so one-unit
//!   and multi-unit runs charge identical `Stats` and differ only in
//!   makespan.
//! * **[`ExecutablePlan`]** — the schedule compiled once: resolved
//!   operand slots, the accumulation chains with the DAG between them,
//!   and a deterministic list schedule of whole chains onto the units
//!   (see [`dataflow`]), which both execution loops run.
//! * **[`ExecEnv`] / [`Schedule::try_run`]** — binds buffers to borrowed
//!   matrix views, charges the stream up front through the machine's
//!   [`tcu_core::WaveAccountant`] and executes it on the machine's
//!   executor, tagging every left operand with its
//!   buffer/generation/region identity so `HostExecutor`'s pack cache
//!   reuses packed strips across invocations (the blocked flow packs
//!   each strip once per run instead of once per block column).
//!
//! Scheduling is strictly opt-in: nothing in the eager
//! `TcuMachine::tensor_mul*` path changes, and with coalescing disabled
//! a scheduled run charges exactly the ops that were recorded.
//!
//! Execution is fallible end to end: [`Schedule::try_run`] and
//! [`Schedule::try_run_parallel`] surface binding, validation, and unit
//! faults as [`tcu_core::TcuError`]s — a serial run contains executor
//! panics too — and the parallel path retries or quarantines faulty
//! units (see the [`run`] module docs for the fault model).

pub mod compile;
pub mod dataflow;
pub mod graph;
pub mod run;
pub mod scheduler;

pub use compile::ExecutablePlan;
pub use dataflow::DataflowTuning;
pub use graph::{BufferId, Node, OpGraph, OperandRef};
pub use run::ExecEnv;
pub use scheduler::{Schedule, ScheduledNode, Scheduler};

/// The dataflow suite's graph generators, for the placement's proptest.
#[cfg(test)]
#[path = "../tests/graphs/mod.rs"]
mod test_graphs;
