//! End-to-end pipeline throughput: full synthesis of each BSL workload,
//! the RTL-vs-behavioral verification loop, and serial vs parallel
//! design-space exploration. Runs on the in-repo `std::time` harness.

use hls_bench::harness::{bench, Group};
use hls_core::{Explorer, GridSpec, Synthesizer};

fn synthesis() {
    let group = Group::new("e2e_synthesis");
    for (name, src) in [
        ("sqrt", hls_workloads::sources::SQRT),
        ("gcd", hls_workloads::sources::GCD),
        ("diffeq", hls_workloads::sources::DIFFEQ),
        ("fir4", hls_workloads::sources::FIR4),
    ] {
        group.bench("synthesize", name, || {
            Synthesizer::new()
                .synthesize_source(src)
                .expect("synthesizes")
        });
    }
}

fn verification() {
    let design = Synthesizer::new()
        .synthesize_source(hls_workloads::sources::SQRT)
        .expect("synthesizes");
    bench("e2e_verify_sqrt_8_vectors", || {
        let eq = design.verify(8, (0.05, 1.0)).expect("simulates");
        assert!(eq.equivalent);
    });
}

fn exploration() {
    let group = Group::new("e2e_exploration");
    let base = Synthesizer::new();
    let spec = GridSpec::fu_sweep(&base, 5);
    // Each sweep compiles the source too, as a caller starting from BSL does.
    let diffeq = || hls_lang::compile(hls_workloads::sources::DIFFEQ).expect("compiles");
    group.bench("sweep_serial", "diffeq", || {
        hls_core::sweep_grid_cdfg(&base, &diffeq(), &spec).expect("sweeps")
    });
    for threads in [2usize, 4] {
        group.bench("sweep_parallel_cold", format!("diffeq/t{threads}"), || {
            // A fresh explorer per iteration: measures the pool fan-out
            // without cache effects.
            Explorer::with_threads(threads)
                .sweep_grid_cdfg(&base, &diffeq(), &spec)
                .expect("sweeps")
        });
    }
    let warm = Explorer::with_threads(4);
    warm.sweep_grid_cdfg(&base, &diffeq(), &spec)
        .expect("sweeps");
    group.bench("sweep_parallel_warm", "diffeq/t4", || {
        warm.sweep_grid_cdfg(&base, &diffeq(), &spec)
            .expect("sweeps")
    });
    println!("warm-cache stats: {:?}", warm.cache_stats());
}

fn main() {
    synthesis();
    verification();
    exploration();
}
