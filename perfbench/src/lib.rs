//! The repository benchmark: the HLS flow timed end to end and per
//! layer on three workloads. See `README.md` beside this crate.

pub mod explore_sweep;
pub mod flow;
pub mod gen;
pub mod report;
pub mod serve_v1;
pub mod stats;
pub mod synth_mixed;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// Set-up repeats per `--seconds` of timed phase; `setup_s` is the
/// median of all set-ups of a run.
pub const SETUP_REPEATS: usize = 15;

/// The set-up times of an untraced run. Set-up runs once before the
/// timed phase and is repeated between passes, one repeat due every
/// `seconds / SETUP_REPEATS` of the phase, so that `setup_s` samples the
/// machine over the same stretch of time as the timed metrics: on a
/// shared machine the speed of short, allocation-heavy work drifts by
/// tens of percent over seconds.
pub struct SetupTimes {
    times: Vec<f64>,
    every: f64,
}

impl SetupTimes {
    pub fn new(first: f64, seconds: f64) -> Self {
        SetupTimes {
            times: vec![first],
            every: seconds / SETUP_REPEATS as f64,
        }
    }

    /// Runs `setup`, which returns the time it took, once for every
    /// repeat due by `elapsed` seconds into the timed phase.
    pub fn catch_up(&mut self, elapsed: f64, mut setup: impl FnMut() -> f64) {
        while self.times.len() as f64 * self.every <= elapsed {
            self.times.push(setup());
        }
    }

    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// Clients, explorer pools and server workers: the machine's cores, at
/// most 2.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Parsed command line of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The workloads by name.
pub const WORKLOADS: [&str; 3] = ["synth-mixed", "explore-sweep", "serve-v1"];

/// Runs one workload; `None` for an unknown name.
pub fn run(args: &Args) -> Option<report::Outcome> {
    match args.workload.as_str() {
        "synth-mixed" => Some(synth_mixed::run(args)),
        "explore-sweep" => Some(explore_sweep::run(args)),
        "serve-v1" => Some(serve_v1::run(args)),
        _ => None,
    }
}

/// Whether a pass loop should end: the timed phase has used its
/// seconds, or the next round (as long as the last one) would overrun
/// them by more than half a round.
pub fn should_stop(started: Instant, seconds: f64, walls: &[f64], traced: &[f64]) -> bool {
    let next = walls.last().copied().unwrap_or(0.0) + traced.last().copied().unwrap_or(0.0);
    started.elapsed().as_secs_f64() + next / 2.0 >= seconds
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.ndjson", args.workload, args.seed))
}

/// Ends a traced run: adds `trace.overhead_frac` (median traced pass
/// over median untraced pass, minus 1), writes and tabulates the trace
/// file, and emits every per-layer metric.
pub fn finish_traced(
    args: &Args,
    trace: &trace::Trace,
    mut values: std::collections::BTreeMap<String, f64>,
    walls: &[f64],
    traced_walls: &[f64],
    outcome: &mut report::Outcome,
) {
    values.insert(
        "trace.overhead_frac".into(),
        stats::median(traced_walls) / stats::median(walls) - 1.0,
    );
    write_trace(args, trace);
    report::push_per_layer(outcome, &values);
}

/// Writes the trace file, reads it back, and prints the per-layer table
/// regenerated from the file to stderr.
fn write_trace(args: &Args, trace: &trace::Trace) {
    let path = trace_path(args);
    let table = trace
        .write_file(&path)
        .map_err(|e| e.to_string())
        .and_then(|()| trace::load(&path))
        .map(|t| trace::layer_table(&t));
    match table {
        Ok(table) => eprintln!("per-layer self time, from {}:\n{table}", path.display()),
        Err(e) => eprintln!("warning: trace file {}: {e}", path.display()),
    }
}
