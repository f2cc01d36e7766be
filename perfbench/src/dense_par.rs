//! `dense-par`: the Theorem 2 blocked product, `d = 512`, `√m = 16`,
//! `ℓ = 0`, f64, on the default parallel driver with 2 units.
//!
//! The 1024-op `mul_acc` graph is recorded and planned once in set-up.
//! Each call allocates `C`, binds a fresh `ExecEnv`, and runs
//! `Schedule::try_run_parallel` on a fresh `ParallelTcuMachine` with
//! per-unit pack caches. The planner does no work per call, so the
//! driver (dispatch, per-op scratch, main-thread merge) and the kernels
//! set the wall. Every writer of a `C` strip sits on one unit.

use crate::common::{
    dataflow_readings, digest, driver_readings, fault_readings, pack_readings, plan_readings,
    replan_probe, replan_readings, rng, same_sim, sum_pack, unit, Outcome, Reading, Workload,
    FLOOR, PARALLEL, SERIAL, SQRT_M, WARMUP_CALLS,
};
use crate::spans::{Summary, Tracer};
use tcu_algos::{dense, workloads::random_matrix_f64};
use tcu_core::{
    pack_cache_capacity, FaultStats, ModelTensorUnit, PackCacheStats, ParallelTcuMachine, Stats,
    TcuError, TcuMachine, TensorOp,
};
use tcu_linalg::{kernels, Matrix};
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const D: usize = 512;
const UNITS: usize = 2;

pub struct DensePar {
    d: usize,
    unit: ModelTensorUnit,
    a: Matrix<f64>,
    b: Matrix<f64>,
    graph: OpGraph,
    bufs: [BufferId; 3],
    plan: Schedule,
    serial_plan: Schedule,
    cap: usize,
    serial_cap: usize,
    c_ref: Matrix<f64>,
    stats_ref: Stats,
    sim_ref: Option<u64>,
    pack: PackCacheStats,
    faults: FaultStats,
    sim_time: u64,
    inputs_digest: u64,
}

/// The blocked product's graph: one `mul_acc` per (column block, strip).
fn record(d: usize) -> (OpGraph, [BufferId; 3]) {
    let s = SQRT_M;
    let mut g = OpGraph::new();
    let bufs = [
        g.buffer("A", d, d),
        g.buffer("B", d, d),
        g.buffer("C", d, d),
    ];
    let [ab, bb, cb] = bufs;
    for j in 0..d / s {
        for k in 0..d / s {
            g.record(
                TensorOp::mul_acc(d, s),
                OperandRef::new(ab, 0, k * s, d, s),
                OperandRef::new(bb, k * s, j * s, s, s),
                OperandRef::new(cb, 0, j * s, d, s),
            );
        }
    }
    (g, bufs)
}

fn bind<'a>(
    graph: &OpGraph,
    [ab, bb, cb]: [BufferId; 3],
    a: &'a Matrix<f64>,
    b: &'a Matrix<f64>,
    c: &'a mut Matrix<f64>,
) -> Result<ExecEnv<'a, f64>, TcuError> {
    let mut env = ExecEnv::new(graph);
    env.try_bind_input(ab, a.view())?;
    env.try_bind_input(bb, b.view())?;
    env.try_bind_output(cb, c.view_mut())?;
    Ok(env)
}

impl DensePar {
    pub fn with_dim(seed: u64, d: usize) -> Self {
        let mut gen = rng(seed, 1);
        let a = random_matrix_f64(d, d, &mut gen);
        let b = random_matrix_f64(d, d, &mut gen);
        let inputs_digest = digest(a.as_slice().iter().chain(b.as_slice()).map(|x| x.to_bits()));
        let unit = unit(0);
        let (graph, bufs) = record(d);
        let plan = Scheduler::new().with_units(UNITS).plan(&graph, &unit);
        let serial_plan = Scheduler::new().plan(&graph, &unit);
        let c_ref = dense::multiply(&mut TcuMachine::new(unit), &a, &b);
        let mut w = Self {
            d,
            unit,
            a,
            b,
            graph,
            bufs,
            plan,
            serial_plan,
            cap: pack_cache_capacity((d, d), SQRT_M, UNITS),
            serial_cap: pack_cache_capacity((d, d), SQRT_M, 1),
            c_ref,
            stats_ref: Stats::default(),
            sim_ref: None,
            pack: PackCacheStats::default(),
            faults: FaultStats::default(),
            sim_time: 0,
            inputs_digest,
        };
        let (c, stats) = w
            .serial_run(&mut Tracer::off())
            .expect("the serial scheduled run succeeds");
        assert!(c == w.c_ref, "serial scheduled product differs from eager");
        w.stats_ref = stats;
        w.compiled();
        for _ in 0..WARMUP_CALLS {
            w.call(&mut Tracer::off());
        }
        w
    }

    /// The parallel plan's compiled form (compiled on first use).
    fn compiled(&self) -> &tcu_sched::ExecutablePlan {
        self.plan
            .compile(&ExecEnv::<f64>::new(&self.graph))
            .expect("the plan compiles")
    }

    /// `Schedule::try_run` of the 1-unit plan on a serial machine with
    /// the same pack cache the units use.
    fn serial_run(&self, t: &mut Tracer) -> Result<(Matrix<f64>, Stats), TcuError> {
        let mut mach = TcuMachine::new(self.unit);
        mach.executor_mut().enable_pack_cache(self.serial_cap);
        let mut c = Matrix::zeros(self.d, self.d);
        let mut env = bind(&self.graph, self.bufs, &self.a, &self.b, &mut c)?;
        t.span(SERIAL, || self.serial_plan.try_run(&mut mach, &mut env))?;
        drop(env);
        Ok((c, mach.stats().clone()))
    }

    /// The call's products issued straight to the kernels on one
    /// thread: each strip packed once, then 1024 packed products.
    fn floor(&self) -> Matrix<f64> {
        let (d, s) = (self.d, SQRT_M);
        let strips: Vec<_> = (0..d / s)
            .map(|k| kernels::pack_a(self.a.subview(0, k * s, d, s)))
            .collect();
        let mut c = Matrix::zeros(d, d);
        for j in 0..d / s {
            for (k, strip) in strips.iter().enumerate() {
                let mut out = c.subview_mut(0, j * s, d, s);
                kernels::matmul_packed_into(
                    &mut out,
                    strip,
                    self.b.subview(k * s, j * s, s, s),
                    true,
                );
            }
        }
        c
    }

    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        self.c_ref[(0, 0)] += 1.0;
    }
}

impl Workload for DensePar {
    fn setup(seed: u64) -> Self {
        Self::with_dim(seed, D)
    }

    fn call(&mut self, t: &mut Tracer) -> Outcome {
        let mut c = Matrix::zeros(self.d, self.d);
        let mut mach = ParallelTcuMachine::new(self.unit, UNITS);
        mach.enable_pack_caches(self.cap);
        let ran = bind(&self.graph, self.bufs, &self.a, &self.b, &mut c).and_then(|mut env| {
            t.span(PARALLEL, || self.plan.try_run_parallel(&mut mach, &mut env))
        });
        self.pack = sum_pack((0..UNITS).map(|u| mach.unit_executor(u).pack_cache_stats()));
        self.faults = *mach.fault_stats();
        let sim_time = mach.time();
        self.sim_time = sim_time;
        let ok = ran.is_ok()
            && c == self.c_ref
            && *mach.stats() == self.stats_ref
            && same_sim(&mut self.sim_ref, sim_time);
        Outcome { ok, sim_time }
    }

    fn probe_count(&self) -> usize {
        3
    }

    fn probe(&mut self, i: usize, t: &mut Tracer) {
        match i {
            0 => {
                let _ = std::hint::black_box(self.serial_run(t));
            }
            1 => {
                std::hint::black_box(t.span(FLOOR, || self.floor()));
            }
            _ => replan_probe(t, || record(self.d).0, UNITS),
        }
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("d", self.d.to_string()),
            ("sqrt_m", SQRT_M.to_string()),
            ("latency", "0".to_string()),
            ("scalar", crate::report::string("f64")),
            ("planned_units", UNITS.to_string()),
            ("recorded_ops", self.graph.len().to_string()),
            ("pack_cache_capacity_per_unit", self.cap.to_string()),
            ("serial_pack_cache_capacity", self.serial_cap.to_string()),
            (
                "inputs_digest",
                crate::report::string(&format!("{:016x}", self.inputs_digest)),
            ),
        ]
    }

    fn layers(&self, s: &Summary) -> Vec<Reading> {
        let mut r: Vec<Reading> = Vec::new();
        r.extend(driver_readings(s, UNITS));
        r.extend(replan_readings(s));
        r.extend(plan_readings(&self.plan, self.compiled()));
        r.extend(dataflow_readings(&self.plan));
        r.extend(pack_readings(self.pack));
        r.extend(fault_readings(
            self.faults,
            self.sim_time,
            self.plan.dataflow_makespan(),
        ));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_check_out_and_a_corrupted_reference_counts_as_failed() {
        let mut w = DensePar::with_dim(3, 64);
        assert!(w.call(&mut Tracer::off()).ok);
        let sim = w.sim_ref.unwrap();
        assert_eq!(sim, w.plan.dataflow_makespan());
        w.corrupt_reference();
        let out = w.call(&mut Tracer::off());
        assert!(!out.ok);
        assert_eq!(out.sim_time, sim);
    }

    #[test]
    fn the_floor_computes_the_same_product() {
        let w = DensePar::with_dim(5, 64);
        assert!(w.floor() == w.c_ref);
    }
}
