//! The result line every run ends with, and the metric names.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, peak_rss_mb, SetTimings};

/// One measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one checked item; `Err` counts as a failure.
    pub fn check(&mut self, what: impl FnOnce() -> String, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{}: {e}", what()));
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The JSON result object (one line).
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                m,
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                metric.name, value, metric.unit
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// End-to-end metrics, printed on every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("qor_latency_steps", "steps"),
    ("qor_area", "gates"),
];

/// Emits every [`END_TO_END`] metric: the median set-up time, the pass
/// and item timings, peak memory, and the workload's QoR sums (control
/// steps, area).
pub fn push_end_to_end(
    outcome: &mut Outcome,
    setups: &[f64],
    timings: &SetTimings,
    qor: (f64, f64),
) {
    let values = [
        median(setups),
        timings.wall_s(),
        timings.item_quantile_ms(0.5),
        timings.item_quantile_ms(0.9),
        timings.item_quantile_ms(0.99),
        peak_rss_mb(),
        qor.0,
        qor.1,
    ];
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        outcome.metric(name, value, unit);
    }
}

/// Per-layer metrics, printed on every workload with `--trace 1`.
/// A workload that never enters a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("ctrl.hardwired_ms", "ms"),
    ("ctrl.hardwired_calls", "count"),
    ("ctrl.literals", "count"),
    ("ctrl.unminimized_frac", "ratio"),
    ("ctrl.microcode_ms", "ms"),
    ("ctrl.fsm_ms", "ms"),
    ("ctrl.states", "count"),
    ("core.discarded_ctrl_frac", "ratio"),
    ("core.sweep_cold_ms", "ms"),
    ("core.sweep_pruned_ms", "ms"),
    ("core.sweep_warm_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.prune_ratio", "ratio"),
    ("core.points_synthesized", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("par.pool_efficiency", "ratio"),
    ("sim.cosim_ms", "ms"),
    ("sim.vectors", "count"),
    ("sim.system_cosim_ms", "ms"),
    ("sim.deadlock_ms", "ms"),
    ("sched.bounds_ms", "ms"),
    ("sched.schedule_ms", "ms"),
    ("sched.steps", "count"),
    ("alloc.datapath_ms", "ms"),
    ("alloc.fus", "count"),
    ("alloc.registers", "count"),
    ("alloc.muxes", "count"),
    ("opt.passes_ms", "ms"),
    ("opt.ops_before", "count"),
    ("opt.ops_after", "count"),
    ("lang.compile_ms", "ms"),
    ("lang.source_bytes", "bytes"),
    ("rtl.netlist_ms", "ms"),
    ("rtl.area_ms", "ms"),
    ("rtl.verilog_ms", "ms"),
    ("rtl.verilog_bytes", "bytes"),
    ("rtl.instances", "count"),
    ("serve.connect_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed_retries", "count"),
    ("serve.stage_schedule_s", "s"),
    ("serve.stage_alloc_s", "s"),
    ("serve.stage_rtl_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.min_item_coverage", "ratio"),
];

/// Per-layer values derivable from a trace alone, per traced pass:
/// `<span>_ms` is the summed self time of every span with that name,
/// counters are summed, `ctrl.unminimized_frac` is the share of hardwired
/// controllers past the exact-minimization input limit, and the
/// `trace.*` values compare layer self time with item wall time.
pub fn layer_values(trace: &crate::trace::Trace, passes: usize) -> BTreeMap<String, f64> {
    let per = passes.max(1) as f64;
    let mut out = BTreeMap::new();
    for (name, (ns, calls, _)) in trace.by_name() {
        if name.starts_with("item.") {
            continue;
        }
        if name == "ctrl.hardwired" {
            out.insert("ctrl.hardwired_calls".to_string(), calls as f64 / per);
        }
        out.insert(format!("{name}_ms"), ns as f64 / 1e6 / per);
    }
    let mut sums: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for c in &trace.counters {
        let e = sums.entry(c.name.as_ref()).or_default();
        e.0 += c.value;
        e.1 += 1;
    }
    for (name, (sum, n)) in sums {
        if name == "ctrl.unminimized" {
            out.insert("ctrl.unminimized_frac".to_string(), sum / n as f64);
        } else {
            out.insert(name.to_string(), sum / per);
        }
    }
    let items = trace.item_coverage();
    let wall: u64 = items.iter().map(|(_, w, _)| w).sum();
    let covered: u64 = items.iter().map(|(_, _, c)| c).sum();
    out.insert(
        "trace.coverage".to_string(),
        crate::stats::ratio(covered as f64, wall as f64),
    );
    out.insert(
        "trace.min_item_coverage".to_string(),
        items
            .iter()
            .map(|&(_, w, c)| crate::stats::ratio(c as f64, w as f64))
            .fold(f64::INFINITY, f64::min),
    );
    out
}

/// Emits every [`PER_LAYER`] metric from `values` (0 where absent).
pub fn push_per_layer(outcome: &mut Outcome, values: &BTreeMap<String, f64>) {
    for (name, unit) in PER_LAYER {
        outcome.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}
