//! `synth-mixed`: the paper's flow as a designer runs it.
//!
//! A run synthesizes [`SETS`] sets of [`DESIGNS`] designs [`ROUNDS`]
//! times or more, each verified against the behavioural model and
//! emitted as Verilog. Sources: the BSL kernels compiled from text (with
//! and without optimization, unrolling and if-conversion), PIPE3-style
//! systems, and `random_dag` graphs of 32–512 ops. No exploration, memo
//! cache or server code runs.

use std::time::Instant;

use hls_cdfg::Cdfg;
use hls_core::SynthesisError;
use hls_testkit::SplitMix64;
use hls_workloads::{benchmarks, random, sources};

use crate::flow::{self, DesignConfig, Run};
use crate::gen::{balanced, log_ladder, ALGORITHMS, CONTROLS};
use crate::report::{layer_values, push_end_to_end, Outcome};
use crate::stats::{KindProfile, SetTimings};
use crate::trace::Tracer;
use crate::{Args, SetupTimes};

/// Design sets per run.
pub const SETS: usize = 6;
/// Passes over every set that an untraced run makes at least. A design's
/// time is its median over them, so that a stall of the machine during
/// one of its runs does not move the latency percentiles.
pub const ROUNDS: usize = 4;
/// Designs per set, including the two paper SQRT checks.
pub const DESIGNS: usize = 120;
// Kernels and systems are more than half of a set, so that the median
// design lies among them and not at the sparse edge where the slowest
// kernels meet the smallest graphs.
const KERNEL_DESIGNS: usize = 66;
const SYSTEM_DESIGNS: usize = 20;
const DAG_DESIGNS: usize = DESIGNS - 2 - KERNEL_DESIGNS - SYSTEM_DESIGNS;
/// Random vectors per verification.
pub const VECTORS: usize = 4;
/// In a traced run, the layer self times of every design must add up to
/// at least this share of its wall time.
pub const MIN_ITEM_COVERAGE: f64 = 0.95;
/// Times a design below [`MIN_ITEM_COVERAGE`] is traced again, alone,
/// before it counts as a failure: a hole in the attribution repeats, a
/// stall of the machine between two spans does not.
const COVERAGE_RETRIES: usize = 2;

const KERNELS: [(&str, &str, (f64, f64)); 5] = [
    ("sqrt", sources::SQRT, (0.05, 1.0)),
    ("gcd", sources::GCD, (1.0, 64.0)),
    ("diffeq", sources::DIFFEQ, (0.1, 0.9)),
    ("fir4", sources::FIR4, (-2.0, 2.0)),
    ("sumsq", sources::SUMSQ, (1.0, 15.0)),
];

/// What a design starts from.
pub enum Input {
    /// BSL text, compiled inside the item.
    Kernel(&'static str),
    /// A multi-process `system` source.
    System(String),
    /// A pre-built random data-flow graph.
    Dag(Cdfg),
}

pub struct Design {
    pub name: String,
    pub input: Input,
    pub cfg: DesignConfig,
    pub range: (f64, f64),
    /// The paper's SQRT latency, where the design reproduces it.
    pub expect_latency: Option<u64>,
}

/// The kinds of design a set holds, as [`Design::source`] numbers them.
const SOURCES: [&str; 4] = ["sqrt-check", "kernel", "system", "dag"];

impl Design {
    /// Index of the design's kind in [`SOURCES`].
    fn source(&self) -> usize {
        match (&self.input, self.expect_latency) {
            (_, Some(_)) => 0,
            (Input::Kernel(_), None) => 1,
            (Input::System(_), _) => 2,
            (Input::Dag(_), _) => 3,
        }
    }

    /// The design's own copy of its pre-built graph, if it has one; made
    /// before an item's clock starts.
    fn graph_copy(&self) -> Option<Cdfg> {
        match &self.input {
            Input::Dag(cdfg) => Some(cdfg.clone()),
            _ => None,
        }
    }
}

/// The run's design sets.
pub fn design_sets(seed: u64) -> Vec<Vec<Design>> {
    (0..SETS).map(|k| designs(seed, k)).collect()
}

/// Design set `set` of a seed.
pub fn designs(seed: u64, set: usize) -> Vec<Design> {
    let mut rng = SplitMix64::new(seed ^ 0x5157_4D49_5845_4400 ^ (set as u64) << 56);
    let mut out = vec![
        Design {
            name: "sqrt-paper-10".into(),
            input: Input::Kernel(sources::SQRT),
            cfg: DesignConfig::default_with(2),
            range: (0.05, 1.0),
            expect_latency: Some(10),
        },
        Design {
            name: "sqrt-paper-23".into(),
            input: Input::Kernel(sources::SQRT),
            cfg: DesignConfig {
                optimize: false,
                ..DesignConfig::default_with(1)
            },
            range: (0.05, 1.0),
            expect_latency: Some(23),
        },
    ];
    let n = DESIGNS - 2;
    // The design plan (which behaviour, FU count, algorithm, control
    // style and passes each design gets) is drawn once per set from a
    // fixed seed, balanced over every value; the run seed draws the
    // structure of every random graph. Drawing the plan from the run
    // seed too would let the seed, not the code, decide the figures: a
    // design whose state count lands just above a power of two costs the
    // controller layer 10-100x more than one just below it.
    let mut plan = SplitMix64::new(0x504C_414E + set as u64);
    let fus = balanced(&mut plan, &[1usize, 2, 3, 4, 5, 6, 7, 8], n);
    let algorithms = balanced(&mut plan, &ALGORITHMS, n);
    let controls = balanced(&mut plan, &CONTROLS, n);
    let kernels = balanced(&mut plan, &[0usize, 1, 2, 3, 4], KERNEL_DESIGNS);
    // optimize × unroll × if-convert, every combination equally often.
    let flags = balanced(&mut plan, &[0u8, 1, 2, 3, 4, 5, 6, 7], KERNEL_DESIGNS);
    let depths = balanced(&mut plan, &[0u32, 1, 2, 3], SYSTEM_DESIGNS);
    let sizes = log_ladder(32, 512, DAG_DESIGNS);
    for i in 0..n {
        let cfg = DesignConfig {
            optimize: true,
            unroll: false,
            if_convert: false,
            fus: fus[i],
            algorithm: algorithms[i],
            control: controls[i],
        };
        let design = if i < KERNEL_DESIGNS {
            let (name, src, range) = KERNELS[kernels[i]];
            let f = flags[i];
            Design {
                name: format!("{name}-{i}"),
                input: Input::Kernel(src),
                cfg: DesignConfig {
                    optimize: f & 1 == 0,
                    unroll: f & 2 != 0,
                    if_convert: f & 4 != 0,
                    ..cfg
                },
                range,
                expect_latency: None,
            }
        } else if i < KERNEL_DESIGNS + SYSTEM_DESIGNS {
            let depth = depths[i - KERNEL_DESIGNS];
            Design {
                name: format!("pipe3-d{depth}-{i}"),
                input: Input::System(sources::pipe3_with_depth(depth)),
                cfg,
                range: (1.0, 8.0),
                expect_latency: None,
            }
        } else {
            let ops = sizes[i - KERNEL_DESIGNS - SYSTEM_DESIGNS];
            let dfg = random::random_dag(&random::RandomDagConfig {
                ops,
                inputs: 16,
                window: 24,
                mul_ratio: 0.3,
                seed: rng.next_u64(),
            });
            let name = format!("dag{ops}-{i}");
            Design {
                input: Input::Dag(benchmarks::to_cdfg(&name, dfg)),
                name,
                cfg,
                range: (0.5, 1.5),
                expect_latency: None,
            }
        };
        out.push(design);
    }
    out
}

/// What the checks compare across passes.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub latency: u64,
    pub area: f64,
    pub states: usize,
    pub verilog_fnv: u64,
}

/// Runs one design through the library entry points (`tr` disabled) or
/// layer by layer inside spans (`tr` enabled). `dag` is the design's
/// own copy of a pre-built graph, made before the item's clock starts.
fn run_flow(d: &Design, dag: Option<Cdfg>, tr: &Tracer, item: u64) -> Result<Run, SynthesisError> {
    let traced = tr.enabled();
    if let Input::System(src) = &d.input {
        return if traced {
            flow::run_system_layers(&d.cfg, src, VECTORS, d.range, tr, item)
        } else {
            flow::synthesize_system(&d.cfg, src, VECTORS, d.range)
        };
    }
    let cdfg = match (&d.input, dag) {
        (_, Some(cdfg)) => cdfg,
        (Input::Kernel(src), None) if traced => flow::compile(src, tr, item)?,
        (Input::Kernel(src), None) => hls_lang::compile(src)?,
        _ => unreachable!("a graph design always gets its copy"),
    };
    if traced {
        flow::run_layers(&d.cfg, cdfg, VECTORS, d.range, tr, item)
    } else {
        flow::synthesize(&d.cfg, cdfg, VECTORS, d.range)
    }
}

/// The output checks of one design.
fn check(d: &Design, ran: Result<Run, SynthesisError>) -> Result<Summary, String> {
    let r = ran.map_err(|e| e.to_string())?;
    if !r.equivalent {
        return Err(format!("verify mismatch: {:?}", r.mismatch));
    }
    if r.vectors == 0 {
        return Err("verify checked no vectors".into());
    }
    if !r.verilog.contains("endmodule") {
        return Err("no Verilog module emitted".into());
    }
    if let Some(want) = d.expect_latency {
        if r.latency != want {
            return Err(format!("latency {}, paper says {want}", r.latency));
        }
    }
    Ok(Summary {
        latency: r.latency,
        area: r.area,
        states: r.states,
        verilog_fnv: hls_testkit::fnv1a(r.verilog.as_bytes()),
    })
}

/// Per design of a pass: its wall time (ms) and checked summary.
type DesignRuns = Vec<(f64, Result<Summary, String>)>;

/// One pass over every design: the pass wall time (s) and its runs.
/// Item ids are `first_item` plus the design's index.
fn pass(designs: &[Design], tr: &Tracer, first_item: u64) -> (f64, DesignRuns) {
    let t0 = Instant::now();
    let runs = designs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let item = first_item + i as u64;
            let dag = d.graph_copy();
            let t = Instant::now();
            let ran = tr.span("item.design", item, || run_flow(d, dag, tr, item));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            (ms, check(d, ran))
        })
        .collect();
    (t0.elapsed().as_secs_f64(), runs)
}

/// Layer self time over wall time of one traced design.
fn coverage((_, wall, covered): (u64, u64, u64)) -> f64 {
    covered as f64 / wall.max(1) as f64
}

/// The coverage check of a traced run: every design whose layer self
/// times cover less than [`MIN_ITEM_COVERAGE`] of its wall time is
/// traced again, alone, up to [`COVERAGE_RETRIES`] times, and fails if
/// it never reaches it. Traced pass `k` gave its designs item ids from
/// `k * DESIGNS`.
fn check_coverage(trace: &crate::trace::Trace, sets: &[Vec<Design>], outcome: &mut Outcome) {
    let low: Vec<(u64, f64)> = trace
        .item_coverage()
        .into_iter()
        .map(|c| (c.0, coverage(c)))
        .filter(|&(_, cov)| cov < MIN_ITEM_COVERAGE)
        .collect();
    for (item, first) in low {
        let (k, i) = (item as usize / DESIGNS, item as usize % DESIGNS);
        let d = &sets[k % SETS][i];
        let mut seen = vec![first];
        let reached = |seen: &[f64]| seen.iter().any(|&c| c >= MIN_ITEM_COVERAGE);
        while !reached(&seen) && seen.len() <= COVERAGE_RETRIES {
            let tr = Tracer::new(true);
            let _ = tr.span("item.design", 0, || run_flow(d, d.graph_copy(), &tr, 0));
            seen.push(
                tr.take()
                    .item_coverage()
                    .first()
                    .map_or(0.0, |&c| coverage(c)),
            );
        }
        eprintln!(
            "{}: layer coverage {seen:.4?}, the first traced in a pass",
            d.name
        );
        let ok = if reached(&seen) {
            Ok(())
        } else {
            Err(format!(
                "layer self times cover {seen:.4?} of the design's wall time, \
                 below {MIN_ITEM_COVERAGE}"
            ))
        };
        outcome.check(|| format!("trace coverage of {}", d.name), ok);
    }
}

/// Set-up: input generation plus one warm-up synthesis, timed.
fn setup(seed: u64) -> (f64, Vec<Vec<Design>>) {
    let t0 = Instant::now();
    let sets = design_sets(seed);
    let _ = run_flow(&sets[0][0], None, &Tracer::new(false), 0);
    (t0.elapsed().as_secs_f64(), sets)
}

pub fn run(args: &Args) -> Outcome {
    let (first, sets) = setup(args.seed);
    let mut setups = SetupTimes::new(first, args.seconds);
    let off = Tracer::new(false);
    let tr = Tracer::new(args.trace);
    let mut outcome = Outcome::default();
    let mut reference: Vec<Vec<Option<Summary>>> =
        sets.iter().map(|d| vec![None; d.len()]).collect();
    let mut timings = SetTimings::repeated(SETS);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut profile = KindProfile::new(&SOURCES);
    let started = Instant::now();
    // Pass k runs set k mod SETS. Untraced and (with --trace 1) traced
    // passes alternate; every pass is checked, and must agree with the
    // first pass over its set.
    for k in 0.. {
        let set = k % SETS;
        let designs = &sets[set];
        let mut record = |runs: DesignRuns, outcome: &mut Outcome| {
            let mut item_ms = Vec::with_capacity(runs.len());
            for (i, (ms, r)) in runs.into_iter().enumerate() {
                item_ms.push(ms);
                let checked = r.and_then(|s| match &reference[set][i] {
                    None => {
                        reference[set][i] = Some(s);
                        Ok(())
                    }
                    Some(first) if *first == s => Ok(()),
                    Some(first) => Err(format!("pass differs: {first:?} then {s:?}")),
                });
                outcome.check(|| designs[i].name.clone(), checked);
            }
            item_ms
        };
        let (wall, runs) = pass(designs, &off, 0);
        walls.push(wall);
        let item_ms = record(runs, &mut outcome);
        profile.add_pass(
            designs
                .iter()
                .map(Design::source)
                .zip(item_ms.iter().copied()),
        );
        timings.record(set, wall, item_ms);
        if !args.trace {
            setups.catch_up(started.elapsed().as_secs_f64(), || setup(args.seed).0);
        }
        if args.trace {
            let (wall, runs) = pass(designs, &tr, (k * DESIGNS) as u64);
            traced_walls.push(wall);
            record(runs, &mut outcome);
        }
        let enough = args.trace || k + 1 >= SETS * ROUNDS;
        if enough && crate::should_stop(started, args.seconds, &walls, &traced_walls) {
            break;
        }
    }
    if args.trace {
        let trace = tr.take();
        let values = layer_values(&trace, traced_walls.len());
        check_coverage(&trace, &sets, &mut outcome);
        crate::finish_traced(args, &trace, values, &walls, &traced_walls, &mut outcome);
    } else {
        let qor: Vec<&Summary> = reference.iter().flatten().flatten().collect();
        let qor = (
            qor.iter().map(|s| s.latency as f64).sum(),
            qor.iter().map(|s| s.area).sum(),
        );
        eprintln!("synth-mixed mix: {}", profile.summary());
        push_end_to_end(&mut outcome, setups.times(), &timings, qor);
    }
    outcome
}
