//! Records the compiler flags the benchmark was built with, so every
//! result line can name the build it measured: the host kernels use
//! FMA/AVX only when `target-cpu` allows them, which moves wall time but
//! never simulated results.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-changed=build.rs");
}
