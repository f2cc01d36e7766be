//! Runs the paper's experiments by name, printing each one's table:
//!
//! ```sh
//! cargo run --release -p tcu-bench --bin exp -- <name>|all [--quick] [--stats]
//! ```
//!
//! `--quick` runs the reduced smoke-test sweeps and `--stats` adds
//! per-machine summary lines. An unknown name exits with status 2 and
//! prints the names (see `tcu_bench::experiment_main`).
fn main() -> std::process::ExitCode {
    tcu_bench::experiment_main(std::env::args().skip(1))
}
