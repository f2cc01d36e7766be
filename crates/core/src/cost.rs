//! Simulated-time accounting for the (m, ℓ)-TCU model.
//!
//! The paper defines the running time of a TCU algorithm as "the total
//! cost of all operations performed by the CPU, including all calls to the
//! tensor unit", with no concurrency between CPU, memory, and tensor unit
//! (§3). [`Stats`] meters that quantity exactly and keeps enough
//! per-component detail for the experiments to decompose time into its
//! bandwidth (`n√m`) and latency (`ℓ`) terms.

/// Running counters for one simulated execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of tensor-unit invocations issued.
    pub tensor_calls: u64,
    /// Total rows streamed through the unit (the sum of each call's `n`).
    pub tensor_rows: u64,
    /// Simulated time spent inside the tensor unit, including latency.
    pub tensor_time: u64,
    /// Simulated time spent on latency alone (the `ℓ` component of
    /// `tensor_time`); lets experiments separate the two terms of
    /// `O(n√m + ℓ)` without re-deriving call counts.
    pub tensor_latency_time: u64,
    /// Scalar CPU operations (1 time unit each).
    pub scalar_ops: u64,
}

impl Stats {
    /// Total simulated time: CPU ops plus tensor-unit time (the model's
    /// components are mutually exclusive in time, so they sum).
    #[inline]
    #[must_use]
    pub fn time(&self) -> u64 {
        self.scalar_ops + self.tensor_time
    }

    /// Tensor time with latency stripped: the pure streaming/bandwidth
    /// component `Σ n·√m` (for the default model-cost policy).
    #[inline]
    #[must_use]
    pub fn tensor_stream_time(&self) -> u64 {
        self.tensor_time - self.tensor_latency_time
    }

    /// Record one tensor invocation.
    pub(crate) fn record_tensor(&mut self, n_rows: u64, cost: u64, latency_part: u64) {
        self.tensor_calls += 1;
        self.tensor_rows += n_rows;
        self.tensor_time += cost;
        self.tensor_latency_time += latency_part;
    }

    /// Record scalar CPU work.
    pub(crate) fn record_scalar(&mut self, ops: u64) {
        self.scalar_ops += ops;
    }
}

/// One-look digest of a machine's activity: the [`Stats`] counters plus
/// the per-op-kind breakdown of the *logical* ops issued (before any
/// tall-split into hardware invocations). Produced by
/// `TcuMachine::stats_summary`; the experiment harness prints it behind
/// `--stats` so scheduler wins (fewer invocations, fewer rows) are
/// visible in every experiment's table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSummary {
    /// Logical tensor ops issued (`issue`/`issue_into` calls).
    pub ops_issued: u64,
    /// Of those: strict overwriting products.
    pub muls: u64,
    /// Strict fused-accumulate products.
    pub mul_accs: u64,
    /// Zero-padded overwriting products.
    pub padded: u64,
    /// Zero-padded fused-accumulate products.
    pub padded_accs: u64,
    /// Hardware invocations charged (≥ `ops_issued`: tall splits).
    pub invocations: u64,
    /// Total rows charged across invocations.
    pub rows_charged: u64,
    /// Simulated time inside the tensor unit (incl. latency).
    pub tensor_time: u64,
    /// Scalar CPU operations charged.
    pub scalar_ops: u64,
    /// Total simulated time.
    pub time: u64,
    /// Counters of the executor's derived-operand (pack) cache, when the
    /// backend keeps one — `None` otherwise. Host-side observability
    /// only: nothing in the cache touches simulated time.
    pub pack_cache: Option<crate::exec::PackCacheStats>,
}

impl std::fmt::Display for StatsSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ops issued {} (mul {}, mul+acc {}, padded {}, padded+acc {}); \
             invocations {}, rows charged {}, tensor time {}, scalar ops {}, total time {}",
            self.ops_issued,
            self.muls,
            self.mul_accs,
            self.padded,
            self.padded_accs,
            self.invocations,
            self.rows_charged,
            self.tensor_time,
            self.scalar_ops,
            self.time,
        )?;
        if let Some(c) = &self.pack_cache {
            write!(
                f,
                "; pack cache: {} lookups, {} hits, {} misses, {} evictions, {} packed bytes",
                c.lookups, c.hits, c.misses, c.evictions, c.packed_bytes,
            )?;
        }
        Ok(())
    }
}

/// Closed-form model cost of a single tensor invocation with an `n`-row
/// left operand on an (m, ℓ)-TCU with `√m = sqrt_m`: exactly `n·√m + ℓ`.
#[inline]
#[must_use]
pub fn model_invocation_cost(n_rows: u64, sqrt_m: u64, latency: u64) -> u64 {
    n_rows * sqrt_m + latency
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_sum_of_components() {
        let mut s = Stats::default();
        s.record_scalar(100);
        s.record_tensor(16, 16 * 4 + 7, 7);
        s.record_tensor(32, 32 * 4 + 7, 7);
        assert_eq!(s.tensor_calls, 2);
        assert_eq!(s.tensor_rows, 48);
        assert_eq!(s.tensor_time, 48 * 4 + 14);
        assert_eq!(s.tensor_latency_time, 14);
        assert_eq!(s.tensor_stream_time(), 48 * 4);
        assert_eq!(s.time(), 100 + 48 * 4 + 14);
    }

    #[test]
    fn model_cost_formula() {
        assert_eq!(model_invocation_cost(16, 4, 0), 64);
        assert_eq!(model_invocation_cost(16, 4, 1000), 1064);
        assert_eq!(model_invocation_cost(4, 4, 0), 16); // square call: exactly m
    }
}
