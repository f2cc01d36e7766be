//! `chain-faults-par`: a two-stage read-after-write chain, `d = 256`,
//! `√m = 16`, f64, on the default parallel driver with 2 units whose
//! executors inject seeded transient faults.
//!
//! Stage 1 computes `C = A·B` (256 ops), stage 2 `E = C·D` (256 ops);
//! every left operand of stage 2 is a strip of `C` that stage 1 wrote,
//! so hazard edges cross units, written-buffer reads are staged, and the
//! driver retries transient faults. The executors keep no pack cache, so
//! the uncached kernel path runs here. Permanent faults are left out:
//! under them the threaded driver's recovery clock depends on thread
//! timing, and `sim_time` would not repeat.

use crate::common::{
    dataflow_readings, digest, driver_readings, fault_readings, pack_readings, plan_readings,
    replan_probe, replan_readings, rng, same_sim, sum_pack, unit, Outcome, Reading, Workload, CALL,
    FLOOR, PARALLEL, SERIAL, SQRT_M, WARMUP_CALLS,
};
use crate::spans::{Summary, Tracer};
use tcu_algos::workloads::random_matrix_f64;
use tcu_core::{
    assign_unit_ids, FaultPlan, FaultStats, FaultyExecutor, HostExecutor, ModelTensorUnit,
    PackCacheStats, ParallelTcuMachine, Stats, TcuError, TcuMachine, TensorOp,
};
use tcu_linalg::{kernels, Matrix};
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const D: usize = 256;
const UNITS: usize = 2;
/// Transient faults per mille of executions.
const TRANSIENT_PER_MILLE: u32 = 20;

/// Span of the probe that repeats the call under `FaultPlan::none()`.
const FAULT_FREE: &str = "core.fault.fault_free_call";

/// Buffers in registration order: A, B, C, D, E.
type Bufs = [BufferId; 5];

type FaultyMachine = ParallelTcuMachine<ModelTensorUnit, FaultyExecutor<HostExecutor>>;

pub struct ChainFaults {
    d: usize,
    unit: ModelTensorUnit,
    a: Matrix<f64>,
    b: Matrix<f64>,
    dm: Matrix<f64>,
    graph: OpGraph,
    bufs: Bufs,
    plan: Schedule,
    serial_plan: Schedule,
    faults_plan: FaultPlan,
    c_ref: Matrix<f64>,
    e_ref: Matrix<f64>,
    stats_ref: Stats,
    sim_ref: Option<u64>,
    pack: PackCacheStats,
    faults: FaultStats,
    sim_time: u64,
    inputs_digest: u64,
}

/// The chain's graph: stage 1 accumulates `A·B` into `C` strip by strip,
/// stage 2 streams the strips of `C` against `D` into `E`.
fn record(d: usize) -> (OpGraph, Bufs) {
    let s = SQRT_M;
    let mut g = OpGraph::new();
    let bufs = [
        g.buffer("A", d, d),
        g.buffer("B", d, d),
        g.buffer("C", d, d),
        g.buffer("D", d, d),
        g.buffer("E", d, d),
    ];
    let [ab, bb, cb, db, eb] = bufs;
    for (left, right, out) in [(ab, bb, cb), (cb, db, eb)] {
        for j in 0..d / s {
            for k in 0..d / s {
                g.record(
                    TensorOp::mul_acc(d, s),
                    OperandRef::new(left, 0, k * s, d, s),
                    OperandRef::new(right, k * s, j * s, s, s),
                    OperandRef::new(out, 0, j * s, d, s),
                );
            }
        }
    }
    (g, bufs)
}

struct Outputs {
    c: Matrix<f64>,
    e: Matrix<f64>,
}

impl ChainFaults {
    pub fn with_dim(seed: u64, d: usize) -> Self {
        let mut gen = rng(seed, 2);
        let a = random_matrix_f64(d, d, &mut gen);
        let b = random_matrix_f64(d, d, &mut gen);
        let dm = random_matrix_f64(d, d, &mut gen);
        let inputs_digest = digest(
            [&a, &b, &dm]
                .into_iter()
                .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits())),
        );
        let unit = unit(0);
        let (graph, bufs) = record(d);
        let plan = Scheduler::new().with_units(UNITS).plan(&graph, &unit);
        let serial_plan = Scheduler::new().plan(&graph, &unit);
        // The horizon covers every execution a unit could attempt, retries
        // included.
        let faults_plan =
            FaultPlan::seeded(seed, UNITS, 2 * plan.invocations(), TRANSIENT_PER_MILLE, 0);
        let mut w = Self {
            d,
            unit,
            a,
            b,
            dm,
            graph,
            bufs,
            plan,
            serial_plan,
            faults_plan,
            c_ref: Matrix::zeros(d, d),
            e_ref: Matrix::zeros(d, d),
            stats_ref: Stats::default(),
            sim_ref: None,
            pack: PackCacheStats::default(),
            faults: FaultStats::default(),
            sim_time: 0,
            inputs_digest,
        };
        let (out, stats) = w
            .serial_run(&mut Tracer::off())
            .expect("the serial scheduled run succeeds");
        w.c_ref = out.c;
        w.e_ref = out.e;
        w.stats_ref = stats;
        w.compiled();
        for _ in 0..WARMUP_CALLS {
            w.call(&mut Tracer::off());
        }
        w
    }

    fn compiled(&self) -> &tcu_sched::ExecutablePlan {
        self.plan
            .compile(&ExecEnv::<f64>::new(&self.graph))
            .expect("the plan compiles")
    }

    fn bind<'a>(&'a self, out: &'a mut Outputs) -> Result<ExecEnv<'a, f64>, TcuError> {
        let [ab, bb, cb, db, eb] = self.bufs;
        let mut env = ExecEnv::new(&self.graph);
        env.try_bind_input(ab, self.a.view())?;
        env.try_bind_input(bb, self.b.view())?;
        env.try_bind_input(db, self.dm.view())?;
        env.try_bind_output(cb, out.c.view_mut())?;
        env.try_bind_output(eb, out.e.view_mut())?;
        Ok(env)
    }

    fn outputs(&self) -> Outputs {
        Outputs {
            c: Matrix::zeros(self.d, self.d),
            e: Matrix::zeros(self.d, self.d),
        }
    }

    /// `Schedule::try_run` of the 1-unit plan on a serial machine.
    fn serial_run(&self, t: &mut Tracer) -> Result<(Outputs, Stats), TcuError> {
        let mut mach = TcuMachine::new(self.unit);
        let mut out = self.outputs();
        let mut env = self.bind(&mut out)?;
        t.span(SERIAL, || self.serial_plan.try_run(&mut mach, &mut env))?;
        drop(env);
        Ok((out, mach.stats().clone()))
    }

    /// One call under `faults`: fresh outputs and machine, bind, run,
    /// check elements and `Stats`. Returns the machine for its counters.
    fn run(&self, t: &mut Tracer, faults: &FaultPlan) -> (bool, FaultyMachine) {
        let mut out = self.outputs();
        let exec = FaultyExecutor::new(HostExecutor::new(), faults.clone());
        let mut mach = ParallelTcuMachine::with_executor(self.unit, UNITS, exec);
        assign_unit_ids(&mut mach);
        let ran = self.bind(&mut out).and_then(|mut env| {
            t.span(PARALLEL, || self.plan.try_run_parallel(&mut mach, &mut env))
        });
        let ok = ran.is_ok()
            && out.c == self.c_ref
            && out.e == self.e_ref
            && *mach.stats() == self.stats_ref;
        (ok, mach)
    }

    /// The call's products issued straight to the kernels on one
    /// thread: 512 unpacked products, stage by stage.
    fn floor(&self) -> Outputs {
        let (d, s) = (self.d, SQRT_M);
        let mut out = self.outputs();
        for j in 0..d / s {
            for k in 0..d / s {
                let b = self.b.subview(k * s, j * s, s, s);
                let a = self.a.subview(0, k * s, d, s);
                kernels::matmul_into(&mut out.c.subview_mut(0, j * s, d, s), a, b, true, 1);
            }
        }
        for j in 0..d / s {
            for k in 0..d / s {
                let b = self.dm.subview(k * s, j * s, s, s);
                let a = out.c.subview(0, k * s, d, s);
                kernels::matmul_into(&mut out.e.subview_mut(0, j * s, d, s), a, b, true, 1);
            }
        }
        out
    }

    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        self.e_ref[(1, 2)] -= 1.0;
    }
}

impl Workload for ChainFaults {
    fn setup(seed: u64) -> Self {
        Self::with_dim(seed, D)
    }

    fn call(&mut self, t: &mut Tracer) -> Outcome {
        let (ok, mach) = self.run(t, &self.faults_plan);
        self.pack = sum_pack((0..UNITS).map(|u| mach.unit_executor(u).inner().pack_cache_stats()));
        self.faults = *mach.fault_stats();
        self.sim_time = mach.time();
        Outcome {
            ok: ok && same_sim(&mut self.sim_ref, self.sim_time),
            sim_time: self.sim_time,
        }
    }

    fn probe_count(&self) -> usize {
        4
    }

    fn probe(&mut self, i: usize, t: &mut Tracer) {
        match i {
            0 => {
                let _ = std::hint::black_box(self.serial_run(t));
            }
            1 => {
                std::hint::black_box(t.span(FLOOR, || self.floor()));
            }
            2 => {
                let none = FaultPlan::none();
                std::hint::black_box(t.span(FAULT_FREE, || self.run(&mut Tracer::off(), &none)));
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
            ("pack_cache_capacity_per_unit", "0".to_string()),
            ("transient_per_mille", TRANSIENT_PER_MILLE.to_string()),
            ("planned_faults", self.faults_plan.len().to_string()),
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
        r.push((
            "core.fault.recovery_ms",
            s.dur_ms(CALL) - s.dur_ms(FAULT_FREE),
            s.count(FAULT_FREE),
        ));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_retry_check_out_and_a_corrupted_reference_counts_as_failed() {
        let mut w = ChainFaults::with_dim(7, 64);
        let first = w.call(&mut Tracer::off());
        assert!(first.ok);
        assert_eq!(
            w.sim_time,
            w.plan.dataflow_makespan() + w.faults.backoff_time
        );
        w.corrupt_reference();
        assert!(!w.call(&mut Tracer::off()).ok);
    }

    #[test]
    fn same_seed_same_inputs_faults_and_sim_time() {
        let (x, y, z) = (
            ChainFaults::with_dim(11, 64),
            ChainFaults::with_dim(11, 64),
            ChainFaults::with_dim(12, 64),
        );
        assert_eq!(x.inputs_digest, y.inputs_digest);
        assert_eq!(x.faults_plan, y.faults_plan);
        assert_eq!(x.sim_ref, y.sim_ref);
        assert!(x.sim_ref.is_some());
        assert_ne!(x.inputs_digest, z.inputs_digest);
    }

    #[test]
    fn the_floor_computes_the_same_chain() {
        let w = ChainFaults::with_dim(5, 64);
        let out = w.floor();
        assert!(out.c == w.c_ref && out.e == w.e_ref);
    }
}
