//! `paper-serial`: one round of the paper's scheduled algorithms, each
//! entry point called on a fresh serial `TcuMachine`:
//!
//! * E1 `strassen::multiply_recursive_scheduled_with_base`: `d = 64`,
//!   base 8, i64, `ℓ = 1000`;
//! * E2 `dense::multiply_scheduled_blocked`: `d = 256`, blocks of 8 on
//!   `√m = 16`, i64 — it records 1024 narrow ops and coalesces them to
//!   256 on every call, with no memo;
//! * E4 `gauss::eliminate_scheduled`: `d = 256`, f64, pack cache on;
//! * E5 `closure::transitive_scheduled`: `n = 256`, arc density `2/n`.
//!
//! Recording, the coalescing planner, `plan_memo` lookups, compilation,
//! the serial interpreter, same-buffer staging and the pack cache do the
//! work here; no parallel driver runs.

use crate::common::{
    digest, pack_readings, plan_readings, replan_probe, replan_readings, rng, same_sim, unit,
    Outcome, Reading, Workload, SQRT_M, WARMUP_CALLS,
};
use crate::spans::{Summary, Tracer};
use rand::Rng;
use tcu_algos::plan_memo::{plan_cache_stats, PlanCacheStats};
use tcu_algos::workloads::{random_digraph, random_matrix_i64};
use tcu_algos::{closure, dense, gauss, strassen};
use tcu_core::{pack_cache_capacity, PackCacheStats, PadPolicy, Stats, TcuMachine, TensorOp};
use tcu_linalg::decomp::{augmented_from, diag_dominant};
use tcu_linalg::Matrix;
use tcu_sched::{ExecEnv, OpGraph, OperandRef, Scheduler};

/// E1's unit latency.
const STRASSEN_LATENCY: u64 = 1000;
/// E1's base-case dimension.
const STRASSEN_BASE: usize = 8;
/// E2's recording block size.
const DENSE_BLOCK: usize = 8;
/// Entries of E1/E2 inputs are uniform in `[-BOUND, BOUND]`.
const BOUND: i64 = 20;

/// Problem sizes of the four entry points.
#[derive(Clone, Copy, Debug)]
pub struct Dims {
    pub strassen: usize,
    pub dense: usize,
    pub gauss: usize,
    pub closure: usize,
}

pub const FULL: Dims = Dims {
    strassen: 64,
    dense: 256,
    gauss: 256,
    closure: 256,
};

/// The four entry points, in round order: span name, eager probe span.
const ALGOS: [(&str, &str); 4] = [
    ("algos.strassen", "algos.strassen.eager"),
    ("algos.dense", "algos.dense.eager"),
    ("algos.gauss", "algos.gauss.eager"),
    ("algos.closure", "algos.closure.eager"),
];

pub struct PaperSerial {
    dims: Dims,
    e1: [Matrix<i64>; 2],
    e2: [Matrix<i64>; 2],
    e4: Matrix<f64>,
    e5: Matrix<i64>,
    e1_ref: Matrix<i64>,
    e2_ref: (Matrix<i64>, Stats),
    e4_ref: (Matrix<f64>, Stats),
    e5_ref: (Matrix<i64>, Stats),
    gauss_cap: usize,
    sim_ref: Option<u64>,
    /// Plan-memo deltas of the first (cold) round and the last round.
    cold_memo: Option<PlanCacheStats>,
    memo: PlanCacheStats,
    tensor_calls: [u64; 4],
    gauss_pack: PackCacheStats,
    inputs_digest: u64,
}

fn memo_delta(after: PlanCacheStats, before: PlanCacheStats) -> PlanCacheStats {
    PlanCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        shared: after.shared - before.shared,
        plan_ns: after.plan_ns - before.plan_ns,
    }
}

/// E2's narrow recording, exactly as the scheduled entry point records
/// it: one zero-padded `blk × blk` accumulate per (column block, strip).
fn record_dense(d: usize) -> OpGraph {
    let blk = DENSE_BLOCK;
    let mut g = OpGraph::new();
    let [ab, bb, cb] = [
        g.buffer("A", d, d),
        g.buffer("B", d, d),
        g.buffer("C", d, d),
    ];
    for j in 0..d / blk {
        for k in 0..d / blk {
            g.record(
                TensorOp {
                    rows: d,
                    inner: blk,
                    width: blk,
                    accumulate: true,
                    pad: PadPolicy::ZeroPad,
                },
                OperandRef::new(ab, 0, k * blk, d, blk),
                OperandRef::new(bb, k * blk, j * blk, blk, blk),
                OperandRef::new(cb, 0, j * blk, d, blk),
            );
        }
    }
    g
}

impl PaperSerial {
    pub fn with_dims(seed: u64, dims: Dims) -> Self {
        let mut gen = rng(seed, 3);
        let e1 = [
            random_matrix_i64(dims.strassen, dims.strassen, BOUND, &mut gen),
            random_matrix_i64(dims.strassen, dims.strassen, BOUND, &mut gen),
        ];
        let e2 = [
            random_matrix_i64(dims.dense, dims.dense, BOUND, &mut gen),
            random_matrix_i64(dims.dense, dims.dense, BOUND, &mut gen),
        ];
        let n = dims.gauss - 1;
        let rhs: Vec<f64> = (0..n).map(|_| gen.gen_range(-1.0..1.0)).collect();
        let e4 = augmented_from(&diag_dominant(n, gen.gen()), &rhs);
        let e5 = random_digraph(dims.closure, 2.0 / dims.closure as f64, &mut gen);
        let ints = e1.iter().chain(&e2).chain([&e5]);
        let inputs_digest = digest(
            ints.flat_map(|m| m.as_slice().iter().map(|&x| x as u64))
                .chain(e4.as_slice().iter().map(|x| x.to_bits())),
        );

        let e1_ref = strassen::multiply_recursive_with_base(
            &mut TcuMachine::new(unit(STRASSEN_LATENCY)),
            &e1[0],
            &e1[1],
            STRASSEN_BASE,
        );
        let mut m = TcuMachine::new(unit(0));
        let e2_ref = (dense::multiply(&mut m, &e2[0], &e2[1]), m.stats().clone());
        let mut m = TcuMachine::new(unit(0));
        let mut x = e4.clone();
        gauss::ge_forward(&mut m, &mut x);
        let e4_ref = (x, m.stats().clone());
        let mut m = TcuMachine::new(unit(0));
        let mut x = e5.clone();
        closure::transitive_closure(&mut m, &mut x);
        let e5_ref = (x, m.stats().clone());

        let mut w = Self {
            dims,
            e1,
            e2,
            e4,
            e5,
            e1_ref,
            e2_ref,
            e4_ref,
            e5_ref,
            // Only the pivot panel is a live tagged left operand.
            gauss_cap: pack_cache_capacity((dims.gauss, SQRT_M), SQRT_M, 1),
            sim_ref: None,
            cold_memo: None,
            memo: PlanCacheStats::default(),
            tensor_calls: [0; 4],
            gauss_pack: PackCacheStats::default(),
            inputs_digest,
        };
        for _ in 0..WARMUP_CALLS {
            w.call(&mut Tracer::off());
        }
        w
    }

    /// The eager counterpart of entry point `i`, wrapped in its span.
    fn eager(&self, i: usize, t: &mut Tracer) {
        let span = ALGOS[i].1;
        match i {
            0 => {
                let mut m = TcuMachine::new(unit(STRASSEN_LATENCY));
                std::hint::black_box(t.span(span, || {
                    strassen::multiply_recursive_with_base(
                        &mut m,
                        &self.e1[0],
                        &self.e1[1],
                        STRASSEN_BASE,
                    )
                }));
            }
            1 => {
                let mut m = TcuMachine::new(unit(0));
                std::hint::black_box(
                    t.span(span, || dense::multiply(&mut m, &self.e2[0], &self.e2[1])),
                );
            }
            2 => {
                let mut m = TcuMachine::new(unit(0));
                let mut x = self.e4.clone();
                t.span(span, || gauss::ge_forward(&mut m, &mut x));
                std::hint::black_box(x);
            }
            _ => {
                let mut m = TcuMachine::new(unit(0));
                let mut x = self.e5.clone();
                t.span(span, || closure::transitive_closure(&mut m, &mut x));
                std::hint::black_box(x);
            }
        }
    }

    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        self.e5_ref.0[(0, 1)] ^= 1;
    }
}

impl Workload for PaperSerial {
    fn setup(seed: u64) -> Self {
        Self::with_dims(seed, FULL)
    }

    fn call(&mut self, t: &mut Tracer) -> Outcome {
        let before = plan_cache_stats();

        let mut m1 = TcuMachine::new(unit(STRASSEN_LATENCY));
        let r1 = t.span(ALGOS[0].0, || {
            strassen::try_multiply_recursive_scheduled_with_base(
                &mut m1,
                &self.e1[0],
                &self.e1[1],
                STRASSEN_BASE,
            )
        });
        let ok1 = r1.is_ok_and(|c| c == self.e1_ref);

        let mut m2 = TcuMachine::new(unit(0));
        let r2 = t.span(ALGOS[1].0, || {
            dense::try_multiply_scheduled_blocked(&mut m2, &self.e2[0], &self.e2[1], DENSE_BLOCK)
        });
        let ok2 = r2.is_ok_and(|c| c == self.e2_ref.0) && *m2.stats() == self.e2_ref.1;

        let mut m4 = TcuMachine::new(unit(0));
        m4.executor_mut().enable_pack_cache(self.gauss_cap);
        let mut x4 = self.e4.clone();
        let r4 = t.span(ALGOS[2].0, || {
            gauss::try_eliminate_scheduled(&mut m4, &mut x4)
        });
        let ok4 = r4.is_ok() && x4 == self.e4_ref.0 && *m4.stats() == self.e4_ref.1;

        let mut m5 = TcuMachine::new(unit(0));
        let mut x5 = self.e5.clone();
        let r5 = t.span(ALGOS[3].0, || {
            closure::try_transitive_scheduled(&mut m5, &mut x5)
        });
        let ok5 = r5.is_ok() && x5 == self.e5_ref.0 && *m5.stats() == self.e5_ref.1;

        self.memo = memo_delta(plan_cache_stats(), before);
        self.cold_memo.get_or_insert(self.memo);
        self.tensor_calls = [&m1, &m2, &m4, &m5].map(|m| m.stats().tensor_calls);
        self.gauss_pack = m4.executor().pack_cache_stats().unwrap_or_default();
        let sim_time = m1.time() + m2.time() + m4.time() + m5.time();
        Outcome {
            ok: ok1 && ok2 && ok4 && ok5 && same_sim(&mut self.sim_ref, sim_time),
            sim_time,
        }
    }

    fn probe_count(&self) -> usize {
        ALGOS.len() + 1
    }

    fn probe(&mut self, i: usize, t: &mut Tracer) {
        if i < ALGOS.len() {
            self.eager(i, t);
            return;
        }
        let d = self.dims.dense;
        replan_probe(t, || record_dense(d), 1);
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        let Dims {
            strassen,
            dense,
            gauss,
            closure,
        } = self.dims;
        vec![
            ("strassen_d", strassen.to_string()),
            ("strassen_base", STRASSEN_BASE.to_string()),
            ("strassen_latency", STRASSEN_LATENCY.to_string()),
            ("dense_d", dense.to_string()),
            ("dense_block", DENSE_BLOCK.to_string()),
            ("gauss_d", gauss.to_string()),
            ("closure_n", closure.to_string()),
            ("sqrt_m", SQRT_M.to_string()),
            ("planned_units", "1".to_string()),
            ("gauss_pack_cache_capacity", self.gauss_cap.to_string()),
            (
                "inputs_digest",
                crate::report::string(&format!("{:016x}", self.inputs_digest)),
            ),
        ]
    }

    fn layers(&self, s: &Summary) -> Vec<Reading> {
        let mut r: Vec<Reading> = Vec::new();
        let names = [
            (
                "algos.strassen.ms",
                "algos.strassen.speedup_vs_eager",
                "algos.strassen.tensor_calls",
            ),
            (
                "algos.dense.ms",
                "algos.dense.speedup_vs_eager",
                "algos.dense.tensor_calls",
            ),
            (
                "algos.gauss.ms",
                "algos.gauss.speedup_vs_eager",
                "algos.gauss.tensor_calls",
            ),
            (
                "algos.closure.ms",
                "algos.closure.speedup_vs_eager",
                "algos.closure.tensor_calls",
            ),
        ];
        for (i, ((ms, speedup, calls), (span, eager))) in names.into_iter().zip(ALGOS).enumerate() {
            let sched = s.self_ms(span);
            r.push((ms, sched, s.count(span)));
            r.push((
                speedup,
                crate::common::ratio(s.self_ms(eager), sched),
                s.count(eager).min(s.count(span)),
            ));
            r.push((calls, self.tensor_calls[i] as f64, 1));
        }
        let cold = self.cold_memo.unwrap_or_default();
        r.extend([
            ("algos.plan_memo.hits", self.memo.hits as f64, 1),
            ("algos.plan_memo.misses", self.memo.misses as f64, 1),
            ("algos.plan_memo.plan_ms", self.memo.plan_ns as f64 / 1e6, 1),
            ("algos.plan_memo.cold_hits", cold.hits as f64, 1),
            ("algos.plan_memo.cold_misses", cold.misses as f64, 1),
            ("algos.plan_memo.cold_plan_ms", cold.plan_ns as f64 / 1e6, 1),
        ]);
        r.extend(replan_readings(s));
        let graph = record_dense(self.dims.dense);
        let plan = Scheduler::new().plan(&graph, &unit(0));
        let compiled = plan
            .compile(&ExecEnv::<i64>::new(&graph))
            .expect("the plan compiles");
        r.extend(plan_readings(&plan, compiled));
        r.extend(pack_readings(self.gauss_pack));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Dims = Dims {
        strassen: 32,
        dense: 32,
        gauss: 32,
        closure: 32,
    };

    #[test]
    fn rounds_check_out_and_a_corrupted_reference_counts_as_failed() {
        let mut w = PaperSerial::with_dims(9, SMALL);
        assert!(w.call(&mut Tracer::off()).ok);
        let cold = w.cold_memo.unwrap();
        assert!(cold.misses > 0, "the first round plans");
        assert_eq!(w.memo.misses, 0, "later rounds ride the memo");
        w.corrupt_reference();
        assert!(!w.call(&mut Tracer::off()).ok);
    }

    #[test]
    fn the_recorded_dense_graph_coalesces_four_to_one() {
        let graph = record_dense(SMALL.dense);
        let plan = Scheduler::new().plan(&graph, &unit(0));
        assert_eq!(graph.len(), 16);
        assert_eq!(plan.coalesced_away(), 12);
    }
}
