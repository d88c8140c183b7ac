//! Design-space exploration on the HAL differential-equation benchmark:
//! fan a multi-dimensional sweep (FU count × scheduler × control style)
//! across a worker pool, then print the area–latency Pareto front
//! (§1.2: "the ability to search the design space").
//!
//! Run with `cargo run --example diffeq_explorer`. Worker count defaults
//! to the machine's core count; override with `HLS_EXPLORE_THREADS`.

use hls::core::{pareto_front, ControlStyle, Explorer, GridSpec};
use hls::ctrl::EncodingStyle;
use hls::sched::{Algorithm, Priority};
use hls::Synthesizer;
use hls_workloads::sources::DIFFEQ;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("HAL differential-equation solver: y'' + 3xy' + 3y = 0\n");
    let base = Synthesizer::new();
    let explorer = Explorer::new();
    let cdfg = hls::lang::compile(DIFFEQ)?;

    // 1. Resource sweep under the default list scheduler, fanned across
    //    the pool.
    println!(
        "FU sweep (list scheduling, path-length priority, {} worker(s)):",
        explorer.threads()
    );
    println!("  fus  latency  area(GE)  regs  mux-ins");
    let points = explorer.sweep_grid_cdfg(&base, &cdfg, &GridSpec::fu_sweep(&base, 6))?;
    for p in &points {
        println!(
            "  {:<4} {:<8} {:<9.0} {:<5} {}",
            p.fus, p.latency, p.area, p.registers, p.mux_inputs
        );
    }

    // 2. The full grid: FU count × scheduling algorithm × control style.
    //    The memo cache dedups any point the FU sweep above already
    //    synthesized.
    let spec = GridSpec {
        fus: (1..=4).collect(),
        algorithms: vec![
            Algorithm::Asap,
            Algorithm::List(Priority::PathLength),
            Algorithm::List(Priority::Urgency),
            Algorithm::ForceDirected { slack: 0 },
        ],
        controls: vec![
            ControlStyle::Hardwired(EncodingStyle::Binary),
            ControlStyle::Microcode,
        ],
    };
    let grid = explorer.sweep_grid_cdfg(&base, &cdfg, &spec)?;
    println!("\nfull grid: {} design points explored", grid.len());

    println!("\nPareto front (area vs latency) over the full grid:");
    for p in pareto_front(&grid) {
        println!(
            "  {} FU(s), {:<14} {:<10} {} steps, {:.0} GE",
            p.fus,
            p.algorithm.name(),
            format!("{:?}", p.control),
            p.latency,
            p.area
        );
    }

    let stats = explorer.cache_stats();
    println!(
        "\ncache: {} misses, {} hits ({:.0}% hit rate)",
        stats.misses,
        stats.hits,
        stats.hit_rate() * 100.0
    );

    // 3. Every Pareto-optimal design stays functionally correct.
    for p in pareto_front(&grid) {
        let r = base
            .clone()
            .universal_fus(p.fus)
            .algorithm(p.algorithm)
            .control(p.control)
            .synthesize_source(DIFFEQ)?;
        let eq = r.verify(6, (0.1, 0.9))?;
        assert!(eq.equivalent, "{p:?}: {:?}", eq.mismatch);
    }
    println!("all Pareto-optimal designs verified against the behavioral model");
    Ok(())
}
