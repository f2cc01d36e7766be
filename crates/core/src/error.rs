//! The typed error surface of the execution stack.
//!
//! Until this module existed, every failure in the scheduled runtime —
//! a mis-shaped binding, an unbound buffer, a schedule replayed on the
//! wrong machine, a worker thread dying mid-wave — was a `panic!`. That
//! is fine for a simulator driven by tests, and useless for anything
//! long-running: a service front end needs to reject one bad request,
//! not abort the process. [`TcuError`] names every failure the runtime
//! can now *return* instead of raising: every entry point of the
//! scheduled runtime (`try_bind_*`, `try_run`, `try_run_parallel`)
//! returns it, and a caller that treats a failure as a bug unwraps it.

use std::fmt;

/// Which side of an [`crate::exec::Executor`] data binding failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindRole {
    /// A read-only input binding.
    Input,
    /// A mutable output binding.
    Output,
}

/// Everything the execution stack can fail with, typed.
///
/// `Display` strings keep the substrings of the assert messages they
/// replaced (pinned by this module's tests), so a failure reads the
/// same whether it was returned or raised.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TcuError {
    /// A binding's view does not have the buffer's registered shape.
    BindShape {
        /// Buffer the binding targeted.
        buffer: usize,
        /// Input or output binding.
        role: BindRole,
        /// The buffer's registered shape.
        expected: (usize, usize),
        /// The view's shape.
        got: (usize, usize),
    },
    /// A buffer the graph writes was bound read-only.
    BindWrittenAsInput {
        /// The offending buffer.
        buffer: usize,
    },
    /// A buffer the schedule references has no binding.
    Unbound {
        /// The unbound buffer.
        buffer: usize,
        /// `true` if the schedule *writes* the buffer (it needed an
        /// output binding), `false` if it only reads it.
        written: bool,
    },
    /// Schedule, machine, and environment disagree (wrong `√m`, unit
    /// count, buffer shapes, or tall-split convention). The payload is
    /// the full human-readable diagnosis.
    PlanMismatch {
        /// What disagreed.
        what: &'static str,
    },
    /// A [`crate::TensorOp`] violates the model's shape contract.
    OpInvalid {
        /// The contract violation, in the model's own words.
        reason: String,
    },
    /// A tensor unit failed permanently on a run that cannot quarantine
    /// it: the serial run, whose one unit has no survivor to hand work
    /// to.
    UnitFault {
        /// The failed unit.
        unit: usize,
        /// Wave index (within the running schedule) of the failure.
        wave: usize,
    },
    /// One op kept faulting transiently until the bounded retry budget
    /// ran out.
    RetriesExhausted {
        /// Unit the op was retried on.
        unit: usize,
        /// Wave index of the failure.
        wave: usize,
        /// Attempts made: 1 on the serial run, 3 on a parallel run.
        attempts: u32,
    },
    /// Every unit has been quarantined with work still pending —
    /// nothing is left to run on.
    AllUnitsQuarantined {
        /// Wave index at which the last unit died.
        wave: usize,
        /// Ops still unexecuted when recovery became impossible.
        pending: usize,
    },
}

impl fmt::Display for TcuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BindShape {
                buffer,
                role,
                expected,
                got,
            } => {
                let side = match role {
                    BindRole::Input => "input",
                    BindRole::Output => "output",
                };
                write!(
                    f,
                    "{side} binding shape mismatch (buffer {buffer}: registered \
                     {}×{}, bound {}×{})",
                    expected.0, expected.1, got.0, got.1
                )
            }
            Self::BindWrittenAsInput { buffer } => write!(
                f,
                "buffer {buffer} is written by the graph; bind it mutably with try_bind_output"
            ),
            Self::Unbound { buffer, written } => {
                if *written {
                    write!(f, "buffer {buffer} written but not bound as output")
                } else {
                    write!(f, "buffer {buffer} read but not bound as input or output")
                }
            }
            Self::PlanMismatch { what } => f.write_str(what),
            Self::OpInvalid { reason } => f.write_str(reason),
            Self::UnitFault { unit, wave } => write!(
                f,
                "tensor unit {unit} failed permanently in wave {wave} and the \
                 run cannot quarantine it"
            ),
            Self::RetriesExhausted {
                unit,
                wave,
                attempts,
            } => write!(
                f,
                "op on unit {unit} in wave {wave} still faulting after {attempts} attempts; \
                 retries exhausted"
            ),
            Self::AllUnitsQuarantined { wave, pending } => write!(
                f,
                "all units quarantined in wave {wave} with {pending} ops still pending"
            ),
        }
    }
}

impl std::error::Error for TcuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_the_legacy_panic_substrings() {
        // Each Display string keeps the substring of the assert
        // message it replaced.
        let cases: Vec<(TcuError, &str)> = vec![
            (
                TcuError::BindWrittenAsInput { buffer: 2 },
                "bind it mutably",
            ),
            (
                TcuError::BindShape {
                    buffer: 0,
                    role: BindRole::Input,
                    expected: (4, 4),
                    got: (4, 5),
                },
                "input binding shape mismatch",
            ),
            (
                TcuError::Unbound {
                    buffer: 3,
                    written: true,
                },
                "buffer 3 written but not bound as output",
            ),
            (
                TcuError::Unbound {
                    buffer: 1,
                    written: false,
                },
                "buffer 1 read but not bound as input or output",
            ),
            (
                TcuError::PlanMismatch {
                    what: "schedule was planned for a different unit count",
                },
                "different unit count",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} must contain {needle:?}"
            );
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&TcuError::AllUnitsQuarantined {
            wave: 0,
            pending: 4,
        });
    }
}
