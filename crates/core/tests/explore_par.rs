//! Differential tests for the parallel, cached exploration engine: the
//! parallel path must be byte-identical to the serial reference, cached
//! points must actually hit, and every explored point must respect the
//! dependence lower bound.

use hls_cdfg::Cdfg;
use hls_core::{
    pareto_front, sweep_grid_cdfg, ControlStyle, DesignPoint, Explorer, GridSpec, Synthesizer,
};
use hls_ctrl::EncodingStyle;
use hls_sched::{Algorithm, Priority};
use hls_workloads::sources::{DIFFEQ, SQRT};

fn compile(source: &str) -> Cdfg {
    hls_lang::compile(source).expect("workload compiles")
}

/// The serial reference FU sweep `1..=max_fus` over `source`.
fn serial_fu_sweep(base: &Synthesizer, source: &str, max_fus: usize) -> Vec<DesignPoint> {
    sweep_grid_cdfg(base, &compile(source), &GridSpec::fu_sweep(base, max_fus)).unwrap()
}

fn grid() -> GridSpec {
    GridSpec {
        fus: vec![1, 2, 3],
        algorithms: vec![
            Algorithm::Asap,
            Algorithm::List(Priority::PathLength),
            Algorithm::List(Priority::Urgency),
        ],
        controls: vec![
            ControlStyle::Hardwired(EncodingStyle::Binary),
            ControlStyle::Microcode,
        ],
    }
}

/// (a) A parallel FU sweep returns byte-identical `DesignPoint` vectors
/// to the serial path, at several thread counts.
#[test]
fn parallel_sweep_fus_matches_serial() {
    let base = Synthesizer::new();
    let serial = serial_fu_sweep(&base, DIFFEQ, 5);
    let spec = GridSpec::fu_sweep(&base, 5);
    for threads in [1, 2, 4, 8] {
        let par = Explorer::with_threads(threads)
            .sweep_grid_cdfg(&base, &compile(DIFFEQ), &spec)
            .unwrap();
        assert_eq!(par, serial, "thread count {threads} diverged from serial");
    }
}

/// (a') The full multi-dimensional grid is also identical and
/// order-stable across repeated parallel runs.
#[test]
fn parallel_sweep_grid_matches_serial_and_is_order_stable() {
    let base = Synthesizer::new();
    let spec = grid();
    let cdfg = compile(DIFFEQ);
    let serial = sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
    assert_eq!(serial.len(), spec.len());
    let explorer = Explorer::with_threads(4);
    let first = explorer.sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
    let second = explorer.sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
    assert_eq!(first, serial, "parallel grid diverged from serial");
    assert_eq!(second, serial, "warm-cache rerun diverged");
}

/// (b) The unconstrained dependence bound (ASAP latency with effectively
/// unlimited FUs) never exceeds the resource-constrained list latency of
/// any explored point.
#[test]
fn asap_bound_holds_for_every_explored_point() {
    let base = Synthesizer::new();
    let asap_floor = base
        .clone()
        .universal_fus(64)
        .algorithm(Algorithm::Asap)
        .synthesize_source(DIFFEQ)
        .unwrap()
        .latency;
    let spec = GridSpec {
        fus: vec![1, 2, 3, 4],
        algorithms: vec![
            Algorithm::List(Priority::PathLength),
            Algorithm::List(Priority::Urgency),
            Algorithm::List(Priority::Mobility),
        ],
        controls: vec![ControlStyle::Hardwired(EncodingStyle::Binary)],
    };
    let points = Explorer::with_threads(4)
        .sweep_grid_cdfg(&base, &compile(DIFFEQ), &spec)
        .unwrap();
    for p in &points {
        assert!(
            asap_floor <= p.latency,
            "dependence bound {asap_floor} exceeds list latency {} at {p:?}",
            p.latency
        );
    }
}

/// (c) Repeated grid points never reach the memo cache: a grid with
/// duplicated coordinates dispatches each distinct point once (duplicates
/// are filled by fan-out, not cache lookups), and a rerun of the same
/// sweep is answered entirely from cache.
#[test]
fn memo_cache_hits_on_repeated_points() {
    let base = Synthesizer::new();
    let explorer = Explorer::with_threads(2);
    // Duplicate FU axis: 6 grid points but only 3 distinct configurations.
    let spec = GridSpec {
        fus: vec![1, 2, 3, 1, 2, 3],
        algorithms: vec![Algorithm::List(Priority::PathLength)],
        controls: vec![ControlStyle::Hardwired(EncodingStyle::Binary)],
    };
    let cdfg = compile(SQRT);
    let points = explorer.sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
    assert_eq!(points.len(), 6);
    assert_eq!(points[0], points[3]);
    assert_eq!(points[1], points[4]);
    assert_eq!(points[2], points[5]);
    let stats = explorer.cache_stats();
    assert_eq!(
        stats.misses, 3,
        "each distinct point synthesized once: {stats:?}"
    );
    assert_eq!(
        stats.hits, 0,
        "spec-repeated duplicates are deduplicated before dispatch: {stats:?}"
    );
    // Re-sweeping adds zero misses: every distinct point hits.
    explorer.sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
    let rerun = explorer.cache_stats();
    assert_eq!(
        rerun.misses, 3,
        "warm rerun must not resynthesize: {rerun:?}"
    );
    assert_eq!(rerun.hits, 3);
    assert!((rerun.hit_rate() - 0.5).abs() < 1e-9);
}

/// Distinct behaviors and distinct configurations never collide in the
/// cache: sweeping a second workload after the first keeps results
/// correct (no cross-workload reuse).
#[test]
fn cache_is_content_addressed_across_workloads() {
    let base = Synthesizer::new();
    let explorer = Explorer::with_threads(2);
    let spec = GridSpec::fu_sweep(&base, 3);
    let sqrt = explorer
        .sweep_grid_cdfg(&base, &compile(SQRT), &spec)
        .unwrap();
    let diffeq = explorer
        .sweep_grid_cdfg(&base, &compile(DIFFEQ), &spec)
        .unwrap();
    assert_eq!(sqrt, serial_fu_sweep(&base, SQRT, 3));
    assert_eq!(diffeq, serial_fu_sweep(&base, DIFFEQ, 3));
    assert_ne!(sqrt, diffeq);
    assert_eq!(
        explorer.cache_stats().misses,
        6,
        "6 distinct (behavior, config) points"
    );
}

/// (d) `pareto_front` output is minimal and dominance-sound on the full
/// grid: no front point dominates another, every non-front point is
/// dominated by (or duplicates) a front point.
#[test]
fn pareto_front_minimal_and_sound_on_grid() {
    let base = Synthesizer::new();
    let points = Explorer::with_threads(4)
        .sweep_grid_cdfg(&base, &compile(DIFFEQ), &grid())
        .unwrap();
    let front = pareto_front(&points);
    assert!(!front.is_empty());
    // Soundness: the front is mutually non-dominated.
    for (i, a) in front.iter().enumerate() {
        for (j, b) in front.iter().enumerate() {
            if i != j {
                assert!(!a.dominates(b), "{a:?} dominates front member {b:?}");
            }
        }
    }
    // Minimality: everything off the front is dominated by or equal (in
    // both objectives) to some front member.
    for p in &points {
        let on_front = front
            .iter()
            .any(|f| f.latency == p.latency && f.area == p.area);
        if !on_front {
            assert!(
                front.iter().any(|f| f.dominates(p)),
                "non-front point {p:?} is not dominated by any front member"
            );
        }
    }
}

/// Synthesis failures propagate deterministically: the first failing grid
/// point in grid order, independent of interleaving.
#[test]
fn first_error_in_grid_order_propagates() {
    let base = Synthesizer::new();
    let explorer = Explorer::with_threads(4);
    // Zero FUs cannot schedule anything; ASAP precedes list in the grid.
    let spec = GridSpec {
        fus: vec![2, 0],
        ..grid()
    };
    let err = explorer
        .sweep_grid_cdfg(&base, &compile(DIFFEQ), &spec)
        .unwrap_err();
    let first = base
        .clone()
        .universal_fus(0)
        .algorithm(Algorithm::Asap)
        .synthesize_source(DIFFEQ)
        .unwrap_err();
    assert_eq!(err.to_string(), first.to_string());
}
