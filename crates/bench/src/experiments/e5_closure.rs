//! E5 — Theorem 5: blocked transitive closure in
//! `Θ(n³/√m + (n²/m)·ℓ + n²√m)` versus the unblocked `Θ(n³)` bit-loop.

use crate::{fmt_f, fmt_u64, Table};
use rand::{rngs::StdRng, SeedableRng};
use tcu_algos::closure;
use tcu_algos::workloads::random_digraph;
use tcu_core::TcuMachine;

pub fn run(quick: bool) {
    let (m, l) = (256usize, 5_000u64);
    let s = 16u64;
    let ns: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512]
    };
    let mut rng = StdRng::seed_from_u64(7);

    let mut t = Table::new(
        &format!("E5: transitive closure, m={m}, l={l}"),
        &[
            "n",
            "time",
            "closed form",
            "unblocked 2n^3",
            "speedup",
            "latency share",
        ],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in ns {
        let adj = random_digraph(n, 2.0 / n as f64, &mut rng);
        let mut d = adj.clone();
        let mut mach = TcuMachine::model(m, l);
        closure::transitive_closure(&mut mach, &mut d);
        crate::report_stats(&format!("E5 closure n={n}"), &mach);
        if crate::stats_enabled() {
            // Scheduled fast path: identical charges plus pack-cache
            // counters (one stacked-operand pack per pivot stage).
            let mut smach = TcuMachine::model(m, l);
            smach.executor_mut().enable_pack_cache(2);
            let mut sd = adj;
            closure::try_transitive_scheduled(&mut smach, &mut sd).unwrap();
            assert_eq!(sd, d);
            assert_eq!(smach.time(), mach.time());
            crate::report_stats(&format!("E5 closure n={n} scheduled"), &smach);
        }
        let closed = closure::transitive_closure_time(n as u64, s, l);
        assert_eq!(mach.time(), closed);
        let host = closure::host_closure_time(n as u64);
        xs.push(n as f64);
        ys.push(mach.time() as f64);
        t.row(vec![
            fmt_u64(n as u64),
            fmt_u64(mach.time()),
            fmt_u64(closed),
            fmt_u64(host),
            fmt_f(host as f64 / mach.time() as f64, 2),
            fmt_f(
                mach.stats().tensor_latency_time as f64 / mach.time() as f64,
                3,
            ),
        ]);
    }
    t.print();
    let (slope, r2) = crate::fit_loglog(&xs, &ys);
    println!(
        "E5: fitted exponent on n = {:.3} (theory 3), r² = {:.4}; speedup over the unblocked loop approaches √m/(1+…) as n grows.\n",
        slope, r2
    );
}
