//! `explore-sweep`: the tutorial's trade-off exploration.
//!
//! A pass sweeps four behaviours — DIFFEQ (compiled from BSL), EWF, and
//! two seeded `random_dag` graphs of 384 and 512 ops — each over
//! {1,2,4,8} FUs × {list/path, asap, list/urgency} × {binary, microcode},
//! three times: cold and exhaustive, cold and pruned on a fresh
//! `Explorer`, and a warm exhaustive repeat. One sweep is one item.
//!
//! The seed draws [`PAIRS`] pairs of graphs and pass `k` uses pair
//! `k mod PAIRS`: the controller cost of a graph swings widely with its
//! structure, so a run averages over several graphs instead of resting
//! on one.
//!
//! Sweeps run inside the explorer's pool, where the benchmark cannot
//! place spans; the traced run therefore also replays every grid point
//! serially, layer by layer (`probe.point` spans, outside any item), to
//! split the sweep's work into layers.

use std::collections::BTreeMap;
use std::time::Instant;

use hls_cdfg::Cdfg;
use hls_core::{
    pareto_front, prune_mask, ControlStyle, DesignPoint, Estimator, Explorer, GridSpec, Synthesizer,
};
use hls_ctrl::EncodingStyle;
use hls_sched::{Algorithm, Priority};
use hls_testkit::SplitMix64;
use hls_workloads::{benchmarks, random, sources};

use crate::flow::{back_half, prepare_layers, DesignConfig};
use crate::report::{layer_values, push_end_to_end, Outcome};
use crate::stats::{ratio, SetTimings};
use crate::trace::Tracer;
use crate::{threads, Args, SetupTimes};

/// The sweep grid: 4 × 3 × 2 = 24 points.
pub fn grid() -> GridSpec {
    GridSpec {
        fus: vec![1, 2, 4, 8],
        algorithms: vec![
            Algorithm::List(Priority::PathLength),
            Algorithm::Asap,
            Algorithm::List(Priority::Urgency),
        ],
        controls: vec![
            ControlStyle::Hardwired(EncodingStyle::Binary),
            ControlStyle::Microcode,
        ],
    }
}

/// Pairs of random graphs a run cycles through; every untraced run
/// makes at least this many passes.
pub const PAIRS: usize = 6;

/// The seeded behaviour sets, one per pair of graphs.
pub fn behaviours(seed: u64) -> Vec<Vec<(String, Cdfg)>> {
    let mut rng = SplitMix64::new(seed ^ 0x4558_504C_4F52_4500);
    let diffeq = hls_lang::compile(sources::DIFFEQ).expect("DIFFEQ compiles");
    let ewf = benchmarks::to_cdfg("ewf", benchmarks::ewf());
    (0..PAIRS)
        .map(|k| {
            let mut set = vec![
                ("diffeq".to_string(), diffeq.clone()),
                ("ewf".to_string(), ewf.clone()),
            ];
            for ops in [384, 448] {
                let name = format!("dag{ops}-{k}");
                let dfg = random::random_dag(&random::RandomDagConfig {
                    ops,
                    inputs: 16,
                    window: 24,
                    mul_ratio: 0.3,
                    seed: rng.next_u64(),
                });
                set.push((name.clone(), benchmarks::to_cdfg(&name, dfg)));
            }
            set
        })
        .collect()
}

fn setup(seed: u64) -> (f64, Vec<Vec<(String, Cdfg)>>) {
    let t0 = Instant::now();
    let b = behaviours(seed);
    // Warm-up: a full sweep of each small behaviour (DIFFEQ, EWF) on a
    // throwaway explorer, so the pool and the flow's code are warm.
    let explorer = Explorer::with_threads(threads());
    for (_, cdfg) in &b[0][..2] {
        let _ = explorer.sweep_grid_cdfg(&Synthesizer::new(), cdfg, &grid());
    }
    (t0.elapsed().as_secs_f64(), b)
}

/// One behaviour's three sweeps. Returns the three item walls (ms) and
/// the checked outcome of each, plus the exhaustive sweep's points.
struct Swept {
    item_ms: [f64; 3],
    checks: [Result<(), String>; 3],
    points: Vec<DesignPoint>,
}

fn sweep_behaviour(cdfg: &Cdfg, tr: &Tracer, item: u64) -> Swept {
    let base = Synthesizer::new();
    let spec = grid();
    let cold_ex = Explorer::with_threads(threads());
    let pruned_ex = Explorer::with_threads(threads());

    let t = Instant::now();
    let cold = tr.span("item.sweep", item, || {
        tr.span("core.sweep_cold", item, || {
            cold_ex.sweep_grid_cdfg(&base, cdfg, &spec)
        })
    });
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let cold_stats = cold_ex.cache_stats();

    let t = Instant::now();
    let pruned = tr.span("item.sweep", item + 1, || {
        tr.span("core.sweep_pruned", item + 1, || {
            pruned_ex.sweep_grid_cdfg_pruned(&base, cdfg, &spec)
        })
    });
    let pruned_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let warm = tr.span("item.sweep", item + 2, || {
        tr.span("core.sweep_warm", item + 2, || {
            cold_ex.sweep_grid_cdfg(&base, cdfg, &spec)
        })
    });
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm_stats = cold_ex.cache_stats();

    let pruned_stats = pruned_ex.cache_stats();
    tr.count(
        "core.points_synthesized",
        item,
        (warm_stats.misses + pruned_stats.misses) as f64,
    );
    tr.count(
        "core.memo_hits",
        item,
        (warm_stats.hits + pruned_stats.hits) as f64,
    );
    tr.count(
        "core.memo_lookups",
        item,
        (warm_stats.hits + warm_stats.misses + pruned_stats.hits + pruned_stats.misses) as f64,
    );
    if let Ok(p) = &pruned {
        tr.count("core.pruned", item, p.stats.pruned as f64);
        tr.count("core.estimated", item, p.stats.estimated as f64);
    }

    let points = cold.as_ref().cloned().unwrap_or_default();
    let front = pareto_front(&points);
    let cold_check = cold.as_ref().map(|_| ()).map_err(|e| e.to_string());
    let pruned_check = match (&cold, &pruned) {
        (_, Err(e)) => Err(e.to_string()),
        (Err(_), Ok(_)) => Err("no exhaustive front to compare with".into()),
        (Ok(_), Ok(p)) => {
            let got = format!("{:?}", pareto_front(&p.points));
            if got == format!("{front:?}") {
                Ok(())
            } else {
                Err(format!(
                    "pruned front {got} differs from exhaustive {front:?}"
                ))
            }
        }
    };
    let warm_check = match (&cold, &warm) {
        (_, Err(e)) => Err(e.to_string()),
        (Err(_), Ok(_)) => Err("no cold sweep to compare with".into()),
        (Ok(c), Ok(w)) if c != w => Err("warm sweep differs from cold".into()),
        (Ok(c), Ok(_)) if warm_stats.hits - cold_stats.hits != c.len() as u64 => Err(format!(
            "warm sweep hit the memo {} times for {} points",
            warm_stats.hits - cold_stats.hits,
            c.len()
        )),
        (Ok(_), Ok(_)) => Ok(()),
    };
    Swept {
        item_ms: [cold_ms, pruned_ms, warm_ms],
        checks: [cold_check, pruned_check, warm_check],
        points,
    }
}

/// Traced-run probe, outside any item: `Synthesizer::prepare` and the
/// estimator pre-pass as the sweeps call them, then the front half and
/// every grid point replayed one layer call at a time.
fn probe(cdfg: &Cdfg, tr: &Tracer, item: u64) -> Result<(), String> {
    let base = Synthesizer::new();
    let prepared = tr
        .span("core.prepare", item, || base.prepare(cdfg.clone()))
        .map_err(|e| e.to_string())?;
    let points = grid().expand();
    tr.span("core.estimate", item, || {
        let estimates = Estimator::new(&base, &prepared).estimate_points(&points);
        prune_mask(&estimates)
    });
    let p = prepare_layers(&DesignConfig::default_with(1), cdfg.clone(), tr, item)
        .map_err(|e| e.to_string())?;
    for point in points {
        let cfg = DesignConfig {
            fus: point.fus,
            algorithm: point.algorithm,
            control: point.control,
            ..DesignConfig::default_with(point.fus)
        };
        tr.span("probe.point", item, || back_half(&cfg, &p, tr, item))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

struct Pass {
    wall: f64,
    item_ms: Vec<f64>,
    /// Exhaustive sweep points per behaviour name.
    points: Vec<(String, Vec<DesignPoint>)>,
}

fn pass(behaviours: &[(String, Cdfg)], tr: &Tracer, outcome: &mut Outcome) -> Pass {
    let t0 = Instant::now();
    let mut item_ms = Vec::new();
    let mut points = Vec::new();
    for (b, (name, cdfg)) in behaviours.iter().enumerate() {
        let swept = sweep_behaviour(cdfg, tr, 3 * b as u64);
        for (kind, check) in ["cold", "pruned", "warm"].iter().zip(swept.checks) {
            outcome.check(|| format!("{name}/{kind}"), check);
        }
        item_ms.extend(swept.item_ms);
        points.push((name.clone(), swept.points));
    }
    Pass {
        wall: t0.elapsed().as_secs_f64(),
        item_ms,
        points,
    }
}

pub fn run(args: &Args) -> Outcome {
    let (first, sets) = setup(args.seed);
    let mut setups = SetupTimes::new(first, args.seconds);
    let off = Tracer::new(false);
    let tr = Tracer::new(args.trace);
    let mut outcome = Outcome::default();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut timings = SetTimings::new(PAIRS);
    let mut points: BTreeMap<String, Vec<DesignPoint>> = BTreeMap::new();
    let started = Instant::now();
    for k in 0.. {
        let behaviours = &sets[k % PAIRS];
        let mut passes = vec![pass(behaviours, &off, &mut outcome)];
        walls.push(passes[0].wall);
        timings.record(k % PAIRS, passes[0].wall, passes[0].item_ms.clone());
        if !args.trace {
            setups.catch_up(started.elapsed().as_secs_f64(), || setup(args.seed).0);
        }
        if args.trace {
            let traced = pass(behaviours, &tr, &mut outcome);
            traced_walls.push(traced.wall);
            passes.push(traced);
            for (b, (name, cdfg)) in behaviours.iter().enumerate() {
                let r = probe(cdfg, &tr, 3 * b as u64);
                outcome.check(|| format!("{name}/probe"), r);
            }
        }
        for (name, swept) in passes.into_iter().flat_map(|p| p.points) {
            let first = points.entry(name.clone()).or_insert_with(|| swept.clone());
            let same = *first == swept;
            outcome.check(
                || format!("{name} points across passes"),
                if same {
                    Ok(())
                } else {
                    Err("sweep changed between passes".into())
                },
            );
        }
        let enough = args.trace || walls.len() >= PAIRS;
        if enough && crate::should_stop(started, args.seconds, &walls, &traced_walls) {
            break;
        }
    }
    if args.trace {
        let trace = tr.take();
        let passes = traced_walls.len();
        let mut values = layer_values(&trace, passes);
        let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
        let point_ns: u64 = trace.durations("probe.point").iter().sum();
        let ctrl_ms = get(&values, "ctrl.fsm_ms")
            + get(&values, "ctrl.hardwired_ms")
            + get(&values, "ctrl.microcode_ms");
        let point_ms_per_pass = point_ns as f64 / 1e6 / passes as f64;
        values.insert(
            "core.discarded_ctrl_frac".into(),
            ratio(ctrl_ms, point_ms_per_pass),
        );
        values.insert(
            "par.pool_efficiency".into(),
            ratio(
                point_ms_per_pass,
                get(&values, "core.sweep_cold_ms") * threads() as f64,
            ),
        );
        values.insert(
            "core.prune_ratio".into(),
            ratio(get(&values, "core.pruned"), get(&values, "core.estimated")),
        );
        values.insert(
            "core.memo_hit_ratio".into(),
            ratio(
                get(&values, "core.memo_hits"),
                get(&values, "core.memo_lookups"),
            ),
        );
        crate::finish_traced(args, &trace, values, &walls, &traced_walls, &mut outcome);
    } else {
        let all_points = points.values().flatten();
        let qor = (
            all_points.clone().map(|p| p.latency as f64).sum(),
            all_points.map(|p| p.area).sum(),
        );
        push_end_to_end(&mut outcome, setups.times(), &timings, qor);
    }
    outcome
}
