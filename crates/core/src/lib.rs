#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # tcu-core — the (m, ℓ)-TCU computational model
//!
//! This crate implements the machine model of Chowdhury, Silvestri &
//! Vella, *A Computational Model for Tensor Core Units* (SPAA 2020), §3:
//! a standard RAM whose CPU contains a *tensor unit* that multiplies an
//! `n × √m` matrix by a `√m × √m` matrix in time `O(n√m + ℓ)`, where
//!
//! * `m ≥ 1` is the hardware capacity (the unit natively multiplies
//!   `√m × √m` matrices),
//! * `ℓ ≥ 0` is the latency charged per invocation (systolic pipeline
//!   fill, activation, operand encoding), and
//! * `n ≥ √m` is chosen per call by the algorithm — the model's
//!   *asymmetric* feature: a tall left operand is streamed through the
//!   unit while the right operand (the "weights") stays resident.
//!
//! The simulator executes tensor instructions numerically (so algorithms
//! can be checked for correctness) while metering *simulated time*, the
//! quantity all the paper's theorems bound:
//!
//! * each scalar CPU operation costs 1 time unit ([`TcuMachine::charge`]),
//! * each tensor invocation with an `n`-row left operand costs exactly
//!   `n·√m + ℓ` under the default [`ModelTensorUnit`] policy.
//!
//! Two alternative policies reproduce the paper's variations: the *weak*
//! model of §5 ([`WeakTensorUnit`], square `√m × √m` calls only — tall
//! multiplications must be split, paying latency per tile), and the
//! cycle-counting policy implemented in the `tcu-systolic` crate, which
//! charges the exact step count of the §2.2 systolic array instead of the
//! closed-form model cost.
//!
//! ## Execution stack
//!
//! Every tensor invocation lowers to a [`TensorOp`] descriptor issued
//! through [`TcuMachine::issue_into`] — the single seam between the
//! *accounting* half (the [`TensorUnit`] costing policy, [`Stats`], the
//! [`TraceLog`]) and the *numeric* half (a pluggable [`Executor`]:
//! tiled host kernels by default, the cycle-level systolic array via
//! `tcu_systolic::SystolicExecutor`, or no numerics at all via
//! [`ReplayExecutor`]). Traces record the full per-invocation op plus
//! its charged cost, so a trace is a replayable program:
//! [`TcuMachine::replay`] re-derives `Stats` from one without touching
//! a matrix element.
//!
//! ## Accounting conventions
//!
//! The model says the tensor instruction's `O(n√m + ℓ)` charge covers
//! loading/storing its operands, so the simulator does **not** separately
//! charge the buffer copies that marshal blocks into tensor calls.
//! Conversely, all genuine CPU arithmetic an algorithm performs (block
//! sums, twiddle multiplications, pivot divisions, …) must be charged via
//! [`TcuMachine::charge`]; the algorithms in `tcu-algos` do so at the
//! granularity of the paper's pseudocode, and their unit tests pin the
//! resulting closed-form totals exactly.

pub mod cost;
pub mod error;
pub mod exec;
pub mod fault;
pub mod machine;
pub mod op;
pub mod parallel;
pub mod tensor_unit;
pub mod trace;

pub use cost::{Stats, StatsSummary};
pub use error::{BindRole, TcuError};
pub use exec::{
    pack_cache_capacity, Executor, HostExecutor, OperandId, PackCacheStats, ReplayExecutor,
};
pub use fault::{
    assign_unit_ids, silence_injected_fault_panics, FaultKind, FaultPlan, FaultStats,
    FaultyExecutor, InjectedFault,
};
pub use machine::TcuMachine;
pub use op::{PadPolicy, TensorOp};
pub use parallel::{partition_lpt, ParallelTcuMachine, Partition, WaveAccountant};
pub use tensor_unit::{exact_sqrt, ModelTensorUnit, TensorUnit, WeakTensorUnit};
pub use trace::{TraceEvent, TraceLog};

/// Convenience alias: the default machine (model-cost tensor unit).
pub type ModelMachine = TcuMachine<ModelTensorUnit>;

/// Convenience alias: the weak-model machine of §5 (square calls only).
pub type WeakMachine = TcuMachine<WeakTensorUnit>;
