//! `perfbench` — the repository's benchmark of the TCU simulator.
//!
//! ```text
//! perfbench --workload <dense-par|chain-faults-par|paper-serial>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run generates its inputs from `--seed`, sets the workload up, then
//! drives it in a closed loop for `--seconds`, checking every call
//! against references computed in set-up. It prints a report line (the
//! effective configuration, every metric with unit and sample count)
//! and, last, a result line:
//!
//! * `--trace 0` — the end-to-end metrics, from untraced calls. The run
//!   is split over [`PARTS`] fresh processes, one after another, whose
//!   calls are pooled (see [`untraced`]).
//! * `--trace 1` — the per-layer metrics, from one process: each call
//!   runs inside spans around the layer functions it calls, interleaved
//!   with reference probes (serial run, eager counterparts, kernel
//!   floor, fault-free run) whose order alternates every iteration. The
//!   spans are written to `out/` next to this package's manifest when
//!   the run ends.
//!
//! Any `TCU_*` environment variable makes the run fail before it starts:
//! each one changes what a workload measures.

mod chain_faults;
mod common;
mod dense_par;
mod paper_serial;
mod report;
mod spans;
mod stats;

use common::{Workload, CALL};
use report::{Metric, END_TO_END, PER_LAYER};
use spans::{Summary, Tracer};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <dense-par|chain-faults-par|paper-serial> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Processes an untraced run is split over. Some conditions hold for a
/// process's whole life — where its buffers land in physical memory,
/// which vCPUs its threads settle on — and on a 2-vCPU guest they shift
/// one process's wall by up to a fifth; pooling several processes
/// averages them out of the run's percentiles.
const PARTS: u32 = 5;

/// Iterations a traced run makes at least, whatever `--seconds` says.
const MIN_TRACED_ITERS: usize = 20;

/// Root span of each reference probe.
const PROBE: &str = "bench.probe";

type Head = Vec<(String, String)>;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set on the processes an untraced run starts: which part this is.
    part: Option<u64>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut part) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--part" => part = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["dense-par", "chain-faults-par", "paper-serial"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = trace.ok_or("--trace is required")?;
    if trace && part.is_some() {
        return Err("--part belongs to untraced runs".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        part,
    })
}

/// The first `TCU_*` variable set in the environment, if any.
fn tcu_variable() -> Option<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TCU_"))
        .collect();
    names.sort();
    names.into_iter().next()
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = tcu_variable() {
        eprintln!(
            "perfbench: {name} is set; unset every TCU_* variable so the run measures the \
             default configuration its workload names"
        );
        return ExitCode::from(2);
    }
    tcu_core::silence_injected_fault_panics();
    let result = if !args.trace && args.part.is_none() {
        untraced(&args)
    } else {
        match args.workload.as_str() {
            "dense-par" => in_process::<dense_par::DensePar>(&args, started),
            "chain-faults-par" => in_process::<chain_faults::ChainFaults>(&args, started),
            _ => in_process::<paper_serial::PaperSerial>(&args, started),
        }
    };
    match result {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn in_process<W: Workload>(args: &Args, started: Instant) -> Result<Vec<String>, String> {
    let mut w = W::setup(args.seed);
    let setup_s = started.elapsed().as_secs_f64();
    let head = config(args, &w);
    if args.trace {
        traced(&mut w, args, head)
    } else {
        part(&mut w, args, head, setup_s)
    }
}

/// Counts of one run's workload calls.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// The configuration every output line records.
fn config<W: Workload>(args: &Args, w: &W) -> Head {
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let target_cpu = flags
        .split_whitespace()
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default");
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let inline = tcu_sched::DataflowTuning::from_env().use_inline();
    let mut head = vec![
        ("workload", report::string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("dataflow_inline", inline.to_string()),
        (
            "host_threads",
            tcu_core::HostExecutor::new().threads().to_string(),
        ),
        ("target_cpu", report::string(target_cpu)),
        ("rustflags", report::string(flags)),
        ("tcu_env", report::string("unset")),
    ];
    head.extend(w.config());
    head.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// One part of an untraced run: calls for `--seconds / PARTS`, and at
/// least its share of the [`stats::MIN_P90_SAMPLES`] the pooled p90
/// needs. Prints raw readings, one `key value` line each, for the
/// process that started it.
fn part<W: Workload>(
    w: &mut W,
    args: &Args,
    head: Head,
    setup_s: f64,
) -> Result<Vec<String>, String> {
    let deadline = Duration::from_secs_f64(args.seconds as f64 / f64::from(PARTS));
    let min_calls = stats::MIN_P90_SAMPLES.div_ceil(PARTS as usize);
    let mut off = Tracer::off();
    let mut walls = Vec::new();
    let mut tally = Tally::default();
    let mut sim_time = 0;
    let t0 = Instant::now();
    while walls.len() < min_calls || t0.elapsed() < deadline {
        let c0 = Instant::now();
        let out = w.call(&mut off);
        walls.push(c0.elapsed().as_secs_f64() * 1e3);
        tally.add(out.ok);
        if tally.attempted == 1 {
            sim_time = out.sim_time;
        }
    }
    let mut lines: Vec<String> = head
        .into_iter()
        .map(|(k, v)| format!("config {k} {v}"))
        .collect();
    let walls: Vec<String> = walls.iter().map(f64::to_string).collect();
    lines.extend([
        format!("setup_s {setup_s}"),
        format!("sim_time {sim_time}"),
        format!("attempted {}", tally.attempted),
        format!("failed {}", tally.failed),
        format!("peak_rss_mb {}", peak_rss_mb()?),
        format!("walls_ms {}", walls.join(" ")),
    ]);
    Ok(lines)
}

/// Readings of one part, parsed back from its output.
#[derive(Debug, Default, PartialEq)]
struct Part {
    config: Head,
    setup_s: f64,
    sim_time: u64,
    attempted: usize,
    failed: usize,
    peak_rss_mb: f64,
    walls_ms: Vec<f64>,
}

impl Part {
    fn parse(text: &str) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {key} {v:?}"))
        }
        let mut p = Self::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "config" => {
                    let (k, v) = rest.split_once(' ').ok_or("bad config line")?;
                    p.config.push((k.to_string(), v.to_string()));
                }
                "setup_s" => p.setup_s = num(key, rest)?,
                "sim_time" => p.sim_time = num(key, rest)?,
                "attempted" => p.attempted = num(key, rest)?,
                "failed" => p.failed = num(key, rest)?,
                "peak_rss_mb" => p.peak_rss_mb = num(key, rest)?,
                "walls_ms" => {
                    p.walls_ms = rest
                        .split_whitespace()
                        .map(|v| num(key, v))
                        .collect::<Result<_, _>>()?;
                }
                _ => return Err(format!("unexpected line {line:?}")),
            }
        }
        if p.attempted == 0 || p.walls_ms.len() != p.attempted {
            return Err("a part reported no calls".to_string());
        }
        Ok(p)
    }
}

/// An untraced run: [`PARTS`] fresh processes of this program, one
/// after another, each setting the workload up from process start and
/// timing calls for its share of `--seconds`. Their calls are pooled
/// for the percentiles; `setup_s` is the median of their set-ups (each
/// from process start to the first timed call, on a cold plan memo), and
/// `peak_rss_mb` the largest peak. A part whose `sim_time` differs from
/// the first part's counts all its calls as failed.
fn untraced(args: &Args) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut parts = Vec::new();
    for k in 0..u64::from(PARTS) {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--part", &k.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start part {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("part {k} failed: {}", out.status));
        }
        let text = String::from_utf8(out.stdout).map_err(|_| "part output is not UTF-8")?;
        parts.push(Part::parse(&text).map_err(|e| format!("part {k}: {e}"))?);
    }
    let sim_time = parts[0].sim_time;
    let mut tally = Tally::default();
    for p in &parts {
        tally.attempted += p.attempted;
        tally.failed += if p.sim_time == sim_time {
            p.failed
        } else {
            p.attempted
        };
    }
    let walls: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.walls_ms.iter().copied())
        .collect();
    let setups: Vec<f64> = parts.iter().map(|p| p.setup_s).collect();
    let p50 = stats::p50(&walls).ok_or("no calls timed")?;
    let p90 = stats::p90(&walls)?;
    let setup = stats::p50(&setups).ok_or("no set-up timed")?;
    let peak_rss = parts.iter().map(|p| p.peak_rss_mb).fold(0.0, f64::max);
    let mut head = parts[0].config.clone();
    head.extend([
        ("parts".to_string(), PARTS.to_string()),
        ("calls_timed".to_string(), walls.len().to_string()),
        ("samples_beyond_p90".to_string(), p90.beyond.to_string()),
    ]);
    let values = [
        (p50.value, p50.samples),
        (p90.value, p90.samples),
        (sim_time as f64, walls.len()),
        (setup.value, setup.samples),
        (peak_rss, parts.len()),
        (
            tally.failed as f64 / tally.attempted as f64,
            tally.attempted,
        ),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            value,
            unit,
            samples,
        })
        .collect();
    let listed: Vec<Metric> = metrics
        .iter()
        .filter(|m| report::in_result_line(m.name))
        .cloned()
        .collect();
    Ok(vec![
        report::report_line(&head, &metrics),
        report::result_line(tally.failed == 0, tally.attempted, tally.failed, &listed),
    ])
}

/// Traced loop: each iteration runs the traced call, an untraced call
/// and every reference probe, in an order that reverses every
/// iteration, until `--seconds` have passed and at least
/// [`MIN_TRACED_ITERS`] iterations ran. The result is correct when
/// every call checked out and every root span's self times partition
/// its wall.
fn traced<W: Workload>(w: &mut W, args: &Args, mut head: Head) -> Result<Vec<String>, String> {
    let deadline = Duration::from_secs(args.seconds);
    let mut t = Tracer::on();
    let mut off = Tracer::off();
    let mut untraced_ms = Vec::new();
    let mut tally = Tally::default();
    let slots = 2 + w.probe_count();
    let t0 = Instant::now();
    let mut iter = 0;
    while iter < MIN_TRACED_ITERS || t0.elapsed() < deadline {
        t.set_call(iter as u64);
        for k in 0..slots {
            match if iter % 2 == 0 { k } else { slots - 1 - k } {
                0 => {
                    t.open(CALL);
                    let out = w.call(&mut t);
                    t.close();
                    tally.add(out.ok);
                }
                1 => {
                    let c0 = Instant::now();
                    let out = w.call(&mut off);
                    untraced_ms.push(c0.elapsed().as_secs_f64() * 1e3);
                    tally.add(out.ok);
                }
                p => {
                    t.open(PROBE);
                    w.probe(p - 2, &mut t);
                    t.close();
                }
            }
        }
        iter += 1;
    }
    let s = Summary::new(t.spans());
    let calls = s.count(CALL);
    let traced_p50 = stats::p50(&s.durations_ms(CALL)).ok_or("no traced calls")?;
    let untraced_p50 = stats::p50(&untraced_ms).ok_or("no untraced calls")?;
    let mut readings = w.layers(&s);
    readings.extend([
        ("bench.call.wall_ms", s.dur_ms(CALL), calls),
        ("bench.call.residual_ms", s.self_ms(CALL), calls),
        (
            "bench.trace_overhead_ms",
            traced_p50.value - untraced_p50.value,
            calls.min(untraced_ms.len()),
        ),
    ]);
    head.push(("iterations".to_string(), iter.to_string()));
    head.push((
        "unpartitioned_spans".to_string(),
        s.unpartitioned.to_string(),
    ));
    if let Some(path) = write_spans(args, t.spans()) {
        head.push(("spans_file".to_string(), report::string(&path)));
    }
    let metrics = report::complete(PER_LAYER, &readings);
    let correct = s.unpartitioned == 0 && tally.failed == 0;
    Ok(vec![
        report::report_line(&head, &metrics),
        report::result_line(correct, tally.attempted, tally.failed, &metrics),
    ])
}

/// Write the spans as JSON lines under `out/` next to the manifest,
/// returning the file's path.
fn write_spans(args: &Args, spans: &[spans::Span]) -> Option<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_json_lines(spans)))
    {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            None
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        assert_eq!(
            parse("--workload dense-par --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "dense-par".into(),
                seed: 7,
                seconds: 10,
                trace: true,
                part: None,
            })
        );
        assert_eq!(
            parse("--workload paper-serial --seed 1 --seconds 5 --trace 0 --part 3")
                .unwrap()
                .part,
            Some(3)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload dense-par --seed x --seconds 1 --trace 0",
            "--workload dense-par --seed 1 --seconds 1 --trace 2",
            "--workload dense-par --seed 1 --seconds 1",
            "--workload dense-par --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload dense-par --seed 1 --seconds 1 --trace 1 --part 0",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn part_readings_round_trip() {
        let text = "config seed 7\nconfig workload \"dense-par\"\nsetup_s 0.125\nsim_time 42\n\
                    attempted 3\nfailed 1\npeak_rss_mb 9.5\nwalls_ms 1.5 2 0.25\n";
        let p = Part::parse(text).unwrap();
        assert_eq!(
            p,
            Part {
                config: vec![
                    ("seed".into(), "7".into()),
                    ("workload".into(), "\"dense-par\"".into()),
                ],
                setup_s: 0.125,
                sim_time: 42,
                attempted: 3,
                failed: 1,
                peak_rss_mb: 9.5,
                walls_ms: vec![1.5, 2.0, 0.25],
            }
        );
        assert!(Part::parse("walls_ms 1\nattempted 2\n").is_err());
        assert!(Part::parse("bogus 1\n").is_err());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
