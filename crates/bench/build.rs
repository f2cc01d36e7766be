//! Records the compiler flags this package was built with, so the JSON
//! headers of `bench_matmul` and `exp_sched` can name the build they
//! measured: `target-cpu` decides which vector instructions the host
//! kernels use and `target-feature=-prefer-256-bit` how wide they are,
//! which moves wall time but never simulated results.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!("cargo:rustc-env=TCU_BENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-changed=build.rs");
}
