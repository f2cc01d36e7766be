//! Compare a freshly measured bench JSON (`BENCH_matmul.json` or
//! `BENCH_sched.json`) against the committed baseline and flag
//! regressions.
//!
//! Usage: `bench_diff <fresh.json> <baseline.json> [--threshold <pct>]
//! [--informational]`
//!
//! These per-case metrics are diffed, each only when present in both
//! files (matched by case name):
//!
//! * `speedup_tiled` — the seed-kernel-vs-tiled-kernel ratio measured
//!   on the *same* machine in the same run, so the check is meaningful
//!   across hosts of different absolute speed. Regression = fresh ratio
//!   more than `threshold` percent *below* baseline. Compared **only
//!   when both files name the same `target_features`**: the vector
//!   instructions a build may use decide how wide both kernels run (a
//!   256-bit build reads its `f64` ratios 37–48% below the 512-bit
//!   `BENCH_matmul.json`), so mismatched features print an explicit
//!   "skipped (features X vs Y)" line instead.
//! * `speedup_chain` — `bench_matmul`'s per-link-calls-vs-fused-chain
//!   ratio, an in-run ratio like `speedup_tiled` and compared the same
//!   way: higher is better, only between files with the same
//!   `target_features`.
//! * `speedup_wall` — gated only for thread-parallel cases (those
//!   emitted with `threads > 1`, i.e. `exp_sched`'s `dataflow` and
//!   `faults` `try_run_parallel` cases), and **only when both files were
//!   measured with the same `available_parallelism`**: a parallel ratio
//!   from a 1-core runner says nothing about a multi-core baseline, so
//!   mismatched core counts print an explicit "skipped (cores N vs M)"
//!   line instead of a silent skip. Serial cases' wall ratios remain
//!   informational table columns, not gates.
//! * `plan_ms` — scheduler planning wall time (the `exp_sched` cases).
//!   Lower is better: regression = fresh time more than `threshold`
//!   percent *above* baseline. This is the gate that pins the
//!   bucketed-hazard-index + batched-merge planning cost (the all-pairs
//!   scan it replaced took ≈92 ms on the shared 1024-op case).
//! * `sched_efficiency` — for the `dataflow` cases only: the structural
//!   lower bound over the barrier-free placement's makespan. Lower is
//!   worse; a drop of more than 10% vs baseline fails **even in
//!   `--informational` mode**, because the number is pure simulation
//!   (no wall-clock noise) — a regression means the placement itself
//!   got worse, not the runner.
//!
//! Cases present in only one file (the CI smoke run sweeps fewer sizes
//! than the committed full run) are reported and skipped.
//!
//! Exit status is non-zero when any case regresses, unless
//! `--informational` is passed — the mode CI uses on small shared
//! runners, where wall-clock noise makes a hard gate counterproductive;
//! there the findings surface as GitHub warning annotations instead.

use std::process::ExitCode;

/// Serial scheduled cases whose wall-clock ratio is gated as an
/// *absolute floor* rather than a baseline-relative delta: ROADMAP item
/// 2's target is that the scheduled gauss/closure paths do not lose to
/// eager at the reference size, so a fresh recording below 1.0× fails
/// regardless of what the baseline said. Quick (CI smoke) runs sweep
/// smaller sizes and simply don't emit these case names, so the floor
/// only fires on full recordings.
const WALL_FLOOR_CASES: [&str; 2] = ["gauss d=256", "closure n=256"];
const WALL_FLOOR: f64 = 1.0;

/// Relative drop in the `dataflow` cases' `sched_efficiency` that fails
/// the diff. Deliberately tighter than the wall-clock `--threshold` and
/// never downgraded to informational: the metric is deterministic.
const EFFICIENCY_DROP_PCT: f64 = 10.0;

struct CaseSpeedup {
    name: String,
    speedup_tiled: Option<f64>,
    /// Per-link calls over one fused call per accumulation chain
    /// (`bench_matmul`'s `chain` cases); compared like `speedup_tiled`.
    speedup_chain: Option<f64>,
    /// Wall-clock speedup of the case's fast path over its reference.
    /// Gated only for thread-parallel cases (`threads > 1`), and only
    /// when core counts match — serial wall ratios stay informational.
    speedup_wall: Option<f64>,
    /// Worker threads the case ran with (`exp_sched`'s `dataflow` and
    /// `faults` cases emit > 1; absent or 1 marks a serial case).
    threads: Option<f64>,
    plan_ms: Option<f64>,
    /// Structural efficiency of the planned schedule; gated hard for
    /// the `dataflow` cases (see [`EFFICIENCY_DROP_PCT`]).
    sched_efficiency: Option<f64>,
}

impl CaseSpeedup {
    /// `true` when this case exercised real thread parallelism, making
    /// its wall-clock ratio a core-count-sensitive metric.
    fn is_parallel(&self) -> bool {
        self.threads.is_some_and(|t| t > 1.0)
    }
}

/// One parsed bench file: its cases plus the core count it ran with
/// (`available_parallelism`) and the vector features its binary was
/// compiled with (`target_features`, written by `bench_matmul` only).
struct BenchFile {
    cases: Vec<CaseSpeedup>,
    cores: Option<f64>,
    features: Option<String>,
}

/// Extract `(name, speedup_tiled)` pairs from the bench JSON. The file
/// is machine-written by `bench_matmul` with one case object per line,
/// so a line-oriented field scan is exact for it (no general JSON
/// parser needed — the workspace is dependency-free by design).
fn parse_file(text: &str) -> BenchFile {
    let mut cases = Vec::new();
    let mut cores = None;
    let mut features = None;
    for line in text.lines() {
        if cores.is_none() {
            cores = field_num(line, "available_parallelism");
        }
        if features.is_none() {
            features = field_str(line, "target_features");
        }
        let Some(name) = field_str(line, "name") else {
            continue;
        };
        let speedup_tiled = field_num(line, "speedup_tiled");
        let speedup_chain = field_num(line, "speedup_chain");
        let plan_ms = field_num(line, "plan_ms").filter(|&ms| ms > 0.0);
        let speedup_wall = field_num(line, "speedup_wall");
        let threads = field_num(line, "threads");
        let sched_efficiency = field_num(line, "sched_efficiency");
        let parallel_wall = threads.is_some_and(|t| t > 1.0) && speedup_wall.is_some();
        let floor_gated = WALL_FLOOR_CASES.contains(&name.as_str()) && speedup_wall.is_some();
        let efficiency_gated = name.contains("dataflow") && sched_efficiency.is_some();
        if speedup_tiled.is_none()
            && speedup_chain.is_none()
            && plan_ms.is_none()
            && !parallel_wall
            && !floor_gated
            && !efficiency_gated
        {
            continue;
        }
        cases.push(CaseSpeedup {
            name,
            speedup_tiled,
            speedup_chain,
            speedup_wall,
            threads,
            plan_ms,
            sched_efficiency,
        });
    }
    BenchFile {
        cases,
        cores,
        features,
    }
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let tail = line.split(&format!("\"{key}\": \"")).nth(1)?;
    Some(tail.split('"').next()?.to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let tail = line.split(&format!("\"{key}\": ")).nth(1)?;
    tail.trim_start()
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let informational = args.iter().any(|a| a == "--informational");
    let mut threshold = 20.0f64;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--informational" => {}
            "--threshold" => {
                threshold = it.next().and_then(|v| v.parse().ok()).unwrap_or(threshold);
            }
            _ => files.push(arg.clone()),
        }
    }
    let [fresh_path, base_path] = files.as_slice() else {
        eprintln!(
            "usage: bench_diff <fresh.json> <baseline.json> [--threshold <pct>] [--informational]"
        );
        return ExitCode::from(2);
    };

    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench_diff: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let fresh_file = parse_file(&read(fresh_path));
    let base_file = parse_file(&read(base_path));
    let (fresh, base) = (&fresh_file.cases, &base_file.cases);
    if fresh.is_empty() || base.is_empty() {
        eprintln!(
            "bench_diff: no cases parsed (fresh: {}, baseline: {})",
            fresh.len(),
            base.len()
        );
        return ExitCode::from(2);
    }
    let same_cores = match (fresh_file.cores, base_file.cores) {
        (Some(f), Some(b)) => f == b,
        _ => false,
    };
    if !same_cores {
        println!(
            "bench_diff: core counts differ (fresh {:?}, baseline {:?}); \
             parallel-path comparisons skipped",
            fresh_file.cores, base_file.cores
        );
    }
    let same_features = fresh_file.features.is_some() && fresh_file.features == base_file.features;
    let features_note = || {
        format!(
            "skipped (features \"{}\" vs \"{}\")",
            fresh_file.features.as_deref().unwrap_or("?"),
            base_file.features.as_deref().unwrap_or("?")
        )
    };
    if !same_features
        && fresh
            .iter()
            .any(|f| f.speedup_tiled.is_some() || f.speedup_chain.is_some())
    {
        println!(
            "bench_diff: target features differ; tiled- and chain-speedup comparisons {}",
            features_note()
        );
    }

    let mut regressions = 0u32;
    // Regressions that fail the run even in `--informational` mode:
    // deterministic simulation metrics where "runner noise" is not a
    // possible explanation.
    let mut hard_regressions = 0u32;
    let mut compared = 0u32;
    // Absolute wall floors first: these don't need a baseline
    // counterpart — the contract is "scheduled must not lose to eager",
    // measured within the fresh run itself.
    for f in fresh {
        if !WALL_FLOOR_CASES.contains(&f.name.as_str()) {
            continue;
        }
        let Some(fw) = f.speedup_wall else { continue };
        compared += 1;
        let regressed = fw < WALL_FLOOR;
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        println!(
            "{:<20}  wall floor {fw:.2}x (must be >= {WALL_FLOOR:.2}x)  {verdict}",
            f.name
        );
        if regressed {
            regressions += 1;
            let level = if informational { "warning" } else { "error" };
            println!(
                "::{level}::bench {}: scheduled wall speedup {fw:.2}x is below the {WALL_FLOOR:.2}x \
                 floor (scheduled path must not lose to eager)",
                f.name
            );
        }
    }
    for f in fresh {
        let Some(b) = base.iter().find(|b| b.name == f.name) else {
            println!("{:<20}  fresh-only case, skipped", f.name);
            continue;
        };
        compared += 1;
        // (kind, fresh, baseline, higher_is_better, unit suffix)
        let mut checks: Vec<(&str, f64, f64, bool, &str)> = Vec::new();
        for (kind, fresh_ratio, base_ratio) in [
            ("tiled speedup", f.speedup_tiled, b.speedup_tiled),
            ("chain speedup", f.speedup_chain, b.speedup_chain),
        ] {
            if let (Some(fr), Some(br)) = (fresh_ratio, base_ratio) {
                if same_features {
                    checks.push((kind, fr, br, true, "x"));
                } else {
                    println!("{:<20}  {kind} {}", f.name, features_note());
                }
            }
        }
        let cores_note = || {
            let show = |c: Option<f64>| c.map_or_else(|| "?".to_string(), |v| format!("{v}"));
            format!(
                "skipped (cores {} vs {})",
                show(fresh_file.cores),
                show(base_file.cores)
            )
        };
        // Thread-parallel cases (exp_sched's `dataflow`/`faults`): their
        // wall ratio is the tentpole metric, gated exactly like any
        // other when the runner matches the baseline's core count.
        match (f.speedup_wall, b.speedup_wall) {
            (Some(fw), Some(bw)) if f.is_parallel() || b.is_parallel() => {
                if same_cores {
                    checks.push(("wall speedup", fw, bw, true, "x"));
                } else {
                    println!("{:<20}  wall speedup {}", f.name, cores_note());
                }
            }
            _ => {}
        }
        if let (Some(fp), Some(bp)) = (f.plan_ms, b.plan_ms) {
            checks.push(("plan time", fp, bp, false, "ms"));
        }
        // The dataflow cases' structural efficiency: pure simulation,
        // so it gates hard regardless of `--informational`.
        if f.name.contains("dataflow") {
            if let (Some(fe), Some(be)) = (f.sched_efficiency, b.sched_efficiency) {
                let delta_pct = (fe / be - 1.0) * 100.0;
                let regressed = delta_pct < -EFFICIENCY_DROP_PCT;
                let verdict = if regressed { "REGRESSED (hard)" } else { "ok" };
                println!(
                    "{:<20}  sched efficiency {fe:.3} vs baseline {be:.3}  ({delta_pct:+.1}%)  {verdict}",
                    f.name
                );
                if regressed {
                    hard_regressions += 1;
                    println!(
                        "::error::bench {}: dataflow sched_efficiency {fe:.3} dropped {:.1}% \
                         below the committed baseline {be:.3} (hard limit \
                         {EFFICIENCY_DROP_PCT}%; this metric is deterministic — the placement \
                         regressed, not the runner)",
                        f.name,
                        delta_pct.abs()
                    );
                }
            }
        }
        for (kind, fs, bs, higher_better, unit) in checks {
            let delta_pct = (fs / bs - 1.0) * 100.0;
            let regressed = if higher_better {
                delta_pct < -threshold
            } else {
                delta_pct > threshold
            };
            let verdict = if regressed { "REGRESSED" } else { "ok" };
            println!(
                "{:<20}  {kind} {fs:.2}{unit} vs baseline {bs:.2}{unit}  ({delta_pct:+.1}%)  {verdict}",
                f.name
            );
            if regressed {
                regressions += 1;
                // GitHub annotation: warning in informational mode, error
                // when the gate is hard.
                let level = if informational { "warning" } else { "error" };
                let dir = if higher_better { "below" } else { "above" };
                println!(
                    "::{level}::bench {}: {kind} {fs:.2}{unit} moved {:.1}% {dir} the committed \
                     baseline {bs:.2}{unit} (threshold {threshold}%)",
                    f.name,
                    delta_pct.abs()
                );
            }
        }
    }
    for b in base {
        if !fresh.iter().any(|f| f.name == b.name) {
            println!("{:<20}  baseline-only case, skipped", b.name);
        }
    }
    println!(
        "bench_diff: {compared} case(s) compared, {} regression(s) ({hard_regressions} hard), \
         threshold {threshold}%{}",
        regressions + hard_regressions,
        if informational {
            " (informational)"
        } else {
            ""
        }
    );
    if compared == 0 {
        // No overlap means the gate checked nothing — a case rename or
        // sweep change, not noise, so it fails even in informational mode.
        println!("::error::bench_diff compared zero cases: fresh and baseline share no case names");
        return ExitCode::from(2);
    }
    if hard_regressions > 0 || (regressions > 0 && !informational) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
