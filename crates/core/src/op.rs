//! The `TensorOp` IR: one descriptor per tensor-unit invocation.
//!
//! In the (m, ℓ)-TCU model an algorithm *is* its instruction stream —
//! the sequence of tensor invocations (each `n·√m + ℓ`) plus scalar
//! work fully determines simulated time, independent of how the host
//! happens to compute the products. [`TensorOp`] makes that stream a
//! first-class artifact: every `tensor_mul*` front-end call on
//! [`crate::TcuMachine`] lowers to one `TensorOp` issued through a
//! single entry point, executors (host kernels, the systolic array, a
//! replay pass) consume the same descriptor, traces record it verbatim,
//! and schedulers (the parallel machine's deterministic partitions)
//! operate on descriptors without touching operand data.
//!
//! A `TensorOp` describes the *logical* multiplication the caller asked
//! for: `C[rows × width] (+)= A[rows × inner] · B[inner × width]`. The
//! machine validates it against its `√m`, derives the charged footprint
//! (padding undersized operands up to the unit's size, splitting tall
//! operands on units without native tall support) and records one trace
//! event per hardware invocation.

/// How a [`TensorOp`] treats operands smaller than the unit's footprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PadPolicy {
    /// The model's native shape contract: `A : n × √m` with `n ≥ √m`,
    /// `B : √m × √m`. Violations panic at issue time.
    #[default]
    Strict,
    /// Logical zero-padding for undersized operands (`inner ≤ √m`,
    /// `width ≤ √m`, any `rows ≥ 1`): the instruction is charged as if
    /// the operands were padded to the full hardware footprint —
    /// undersized work still pays for `√m` rows — while the host only
    /// computes (and returns) the trimmed `rows × width` product.
    ZeroPad,
}

/// Descriptor of one logical tensor-unit multiplication:
/// `C[rows × width] (+)= A[rows × inner] · B[inner × width]`.
///
/// `Copy` and tiny by design — schedulers and traces pass these around
/// by value. The operand *data* travels separately as borrowed views;
/// [`TensorOp::matches`] checks that a descriptor and a pair of views
/// agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TensorOp {
    /// Rows of the left operand (the streamed dimension `n`).
    pub rows: usize,
    /// Inner dimension (`A.cols = B.rows`); `≤ √m`, `= √m` when strict.
    pub inner: usize,
    /// Columns of the right operand; `≤ √m`, `= √m` when strict.
    pub width: usize,
    /// `true` for the fused `C += A·B` dataflow: the executor accumulates
    /// into the destination instead of overwriting it. Accounting is
    /// identical either way — the model charge covers the product; any
    /// CPU-billed final summation stays the caller's responsibility.
    pub accumulate: bool,
    /// Undersized-operand handling (see [`PadPolicy`]).
    pub pad: PadPolicy,
}

impl TensorOp {
    /// The model's native instruction: `A (rows × √m) · B (√m × √m)`.
    #[must_use]
    pub fn mul(rows: usize, sqrt_m: usize) -> Self {
        Self {
            rows,
            inner: sqrt_m,
            width: sqrt_m,
            accumulate: false,
            pad: PadPolicy::Strict,
        }
    }

    /// Native instruction with fused accumulation into the destination.
    #[must_use]
    pub fn mul_acc(rows: usize, sqrt_m: usize) -> Self {
        Self {
            accumulate: true,
            ..Self::mul(rows, sqrt_m)
        }
    }

    /// Zero-padded instruction for undersized operands.
    #[must_use]
    pub fn padded(rows: usize, inner: usize, width: usize) -> Self {
        Self {
            rows,
            inner,
            width,
            accumulate: false,
            pad: PadPolicy::ZeroPad,
        }
    }

    /// Rows the unit charges for: the raw row count for strict ops,
    /// padded up to `√m` for [`PadPolicy::ZeroPad`] ops.
    #[must_use]
    pub fn charge_rows(&self, sqrt_m: usize) -> usize {
        match self.pad {
            PadPolicy::Strict => self.rows,
            PadPolicy::ZeroPad => self.rows.max(sqrt_m),
        }
    }

    /// The hardware invocations this op decomposes into on `unit`, as
    /// `(count, rows each)`: one tall invocation of
    /// [`Self::charge_rows`] rows, or `⌈n/√m⌉` square `√m`-row tiles
    /// when the unit has no native tall support. Every charge, cost and
    /// schedule in the workspace splits ops by this one rule.
    #[must_use]
    pub fn invocations<U: crate::TensorUnit + ?Sized>(&self, unit: &U) -> (usize, usize) {
        let s = unit.sqrt_m();
        let n = self.charge_rows(s);
        if unit.supports_tall() {
            (1, n)
        } else {
            (n.div_ceil(s), s)
        }
    }

    /// Check the descriptor against a unit of the given `√m`, returning
    /// [`crate::TcuError::OpInvalid`] with the model's shape-contract
    /// message on violation. [`Self::validate`] is the panicking form.
    pub fn check(&self, sqrt_m: usize) -> Result<(), crate::TcuError> {
        let s = sqrt_m;
        let reason = match self.pad {
            PadPolicy::Strict => {
                if self.inner != s {
                    Some(format!("left operand must have √m = {s} columns"))
                } else if self.width != s {
                    Some("right operand must be √m × √m".to_string())
                } else if self.rows < s {
                    Some(format!(
                        "model requires n ≥ √m rows (got {}); pad first",
                        self.rows
                    ))
                } else {
                    None
                }
            }
            PadPolicy::ZeroPad => {
                if self.inner > s {
                    Some("inner dimension exceeds √m".to_string())
                } else if self.width > s {
                    Some("right operand width exceeds √m".to_string())
                } else {
                    None
                }
            }
        };
        match reason {
            Some(reason) => Err(crate::TcuError::OpInvalid { reason }),
            None => Ok(()),
        }
    }

    /// Validate the descriptor against a unit of the given `√m`.
    ///
    /// # Panics
    /// Panics with the model's shape contract messages on violation
    /// (the `Display` of the [`crate::TcuError::OpInvalid`] that
    /// [`Self::check`] returns).
    pub fn validate(&self, sqrt_m: usize) {
        if let Err(e) = self.check(sqrt_m) {
            panic!("{e}");
        }
    }

    /// `true` iff views with the given shapes carry this op's operands
    /// (`A : rows × inner`, `B : inner × width`).
    #[must_use]
    pub fn matches(&self, a_shape: (usize, usize), b_shape: (usize, usize)) -> bool {
        a_shape == (self.rows, self.inner) && b_shape == (self.inner, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_policy_and_flags() {
        let op = TensorOp::mul(32, 4);
        assert_eq!((op.rows, op.inner, op.width), (32, 4, 4));
        assert!(!op.accumulate);
        assert_eq!(op.pad, PadPolicy::Strict);

        let acc = TensorOp::mul_acc(8, 4);
        assert!(acc.accumulate);

        let pad = TensorOp::padded(2, 3, 2);
        assert_eq!(pad.pad, PadPolicy::ZeroPad);
    }

    #[test]
    fn charge_rows_pads_up_to_sqrt_m() {
        assert_eq!(TensorOp::mul(32, 4).charge_rows(4), 32);
        assert_eq!(TensorOp::padded(2, 3, 2).charge_rows(4), 4);
        assert_eq!(TensorOp::padded(9, 3, 2).charge_rows(4), 9);
    }

    #[test]
    fn validate_accepts_model_shapes() {
        TensorOp::mul(4, 4).validate(4);
        TensorOp::mul(100, 4).validate(4);
        TensorOp::padded(1, 1, 1).validate(4);
        TensorOp::padded(100, 4, 3).validate(4);
    }

    #[test]
    #[should_panic(expected = "n ≥ √m")]
    fn validate_rejects_short_strict_operand() {
        TensorOp::mul(2, 4).validate(4);
    }

    #[test]
    #[should_panic(expected = "√m = 4 columns")]
    fn validate_rejects_wrong_inner() {
        TensorOp {
            rows: 8,
            inner: 5,
            width: 4,
            accumulate: false,
            pad: PadPolicy::Strict,
        }
        .validate(4);
    }

    #[test]
    #[should_panic(expected = "inner dimension exceeds √m")]
    fn validate_rejects_oversized_padded_inner() {
        TensorOp::padded(4, 5, 4).validate(4);
    }

    #[test]
    fn check_returns_typed_errors_with_the_panic_wording() {
        assert!(TensorOp::mul(4, 4).check(4).is_ok());
        let short = TensorOp::mul(2, 4).check(4).unwrap_err();
        assert!(short.to_string().contains("n ≥ √m"), "{short}");
        let wide = TensorOp::padded(4, 4, 5).check(4).unwrap_err();
        assert!(wide.to_string().contains("width exceeds √m"), "{wide}");
    }

    #[test]
    fn matches_checks_both_operands() {
        let op = TensorOp::mul(8, 4);
        assert!(op.matches((8, 4), (4, 4)));
        assert!(!op.matches((8, 4), (4, 3)));
        assert!(!op.matches((7, 4), (4, 4)));
    }
}
