//! The synthesis flow, two ways.
//!
//! [`synthesize`] and [`synthesize_system`] go through `hls_core`'s
//! public entry points, exactly as a user of the library would; the
//! untraced end-to-end runs use them. [`run_layers`] and
//! [`run_system_layers`] make the same calls one layer at a time —
//! `hls_lang::compile`, `hls_opt::optimize`, `CdfgBoundsCache::build`,
//! `schedule_cdfg_cached`, `build_datapath`, `build_fsm`,
//! `hardwired_logic`/`microcode`, `Datapath::to_netlist`,
//! `hls_rtl::estimate`, `check_random_vectors`, the Verilog emitters —
//! each inside a span, so the traced run can attribute time to layers.
//! `tests/decomposition.rs` checks that both produce the same designs.

use hls_alloc::{build_datapath, Datapath, FuStrategy};
use hls_cdfg::Cdfg;
use hls_core::{
    ControlReport, ControlStyle, ProcessSynthesis, StageNanos, SynthesisError, SynthesisResult,
    Synthesizer, SystemSynthesisResult,
};
use hls_ctrl::{build_fsm, controller_verilog, hardwired_logic, microcode};
use hls_opt::PassKind;
use hls_rtl::{estimate, Library};
use hls_sched::{schedule_cdfg_cached, Algorithm, CdfgBoundsCache, OpClassifier, ResourceLimits};

use crate::trace::Tracer;

/// Seed of the verification vectors, the one `SynthesisResult::verify`
/// uses.
const VERIFY_SEED: u64 = 0xD5EA_D5EA;

/// Seed of the system co-simulation vectors.
const SYSTEM_VERIFY_SEED: u64 = 0x5EED_0003;

/// Input-count (state bits + flags) limit above which `hardwired_logic`
/// skips exact minimization. It mirrors the private `EXACT_LIMIT` in
/// `hls-ctrl`; `tests/ctrl_limit.rs` fails when the two diverge.
/// `hls-ctrl` also falls back, per output function, when a function at
/// exactly this many inputs has more than 600 care and don't-care
/// minterms; `ctrl.unminimized_frac` does not count that case.
pub const EXACT_INPUT_LIMIT: u32 = 10;

/// Everything that varies between designs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DesignConfig {
    pub optimize: bool,
    pub unroll: bool,
    pub if_convert: bool,
    pub fus: usize,
    pub algorithm: Algorithm,
    pub control: ControlStyle,
}

impl DesignConfig {
    /// The library's default flow at `fus` universal units.
    pub fn default_with(fus: usize) -> Self {
        DesignConfig {
            optimize: true,
            unroll: false,
            if_convert: false,
            fus,
            algorithm: Algorithm::List(hls_sched::Priority::PathLength),
            control: ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
        }
    }

    /// The configured `Synthesizer`.
    pub fn synthesizer(&self) -> Synthesizer {
        let mut s = Synthesizer::new();
        s.set_optimize(self.optimize)
            .set_unrolling(self.unroll)
            .set_if_conversion(self.if_convert)
            .set_universal_fus(self.fus)
            .set_algorithm(self.algorithm)
            .set_control(self.control);
        s
    }

    /// The classifier `Synthesizer` picks for this configuration.
    pub fn classifier(&self) -> OpClassifier {
        if self.optimize {
            OpClassifier::universal_free_shifts()
        } else {
            OpClassifier::universal()
        }
    }
}

/// What one design run produces, whichever way it ran: the numbers the
/// checks look at, plus the full synthesis result, handed back so that
/// the caller drops it outside the item's clock.
pub struct Run {
    pub latency: u64,
    pub area: f64,
    pub states: usize,
    /// Datapath and controller Verilog (a system's elaborated top).
    pub verilog: String,
    pub equivalent: bool,
    pub vectors: usize,
    pub mismatch: Option<String>,
    pub result: Synthesized,
}

/// The full result behind a [`Run`].
pub enum Synthesized {
    Single(Box<SynthesisResult>),
    System(Box<SystemSynthesisResult>),
}

/// Front half run layer by layer: passes, then bound analysis.
pub struct Prepared {
    pub cdfg: Cdfg,
    pub classifier: OpClassifier,
    pub bounds: CdfgBoundsCache,
    pub pass_stats: Vec<hls_opt::PassStats>,
}

/// `Synthesizer::prepare`, one layer call at a time.
pub fn prepare_layers(
    cfg: &DesignConfig,
    mut cdfg: Cdfg,
    tr: &Tracer,
    item: u64,
) -> Result<Prepared, SynthesisError> {
    tr.count("opt.ops_before", item, cdfg.total_ops() as f64);
    let pass_stats = tr.span("opt.passes", item, || {
        if cfg.if_convert {
            hls_opt::run_pass(&mut cdfg, PassKind::IfConvert);
        }
        if cfg.unroll {
            hls_opt::run_pass(&mut cdfg, PassKind::Unroll);
        }
        if cfg.optimize {
            hls_opt::optimize(&mut cdfg)
        } else {
            Vec::new()
        }
    });
    tr.count("opt.ops_after", item, cdfg.total_ops() as f64);
    let classifier = cfg.classifier();
    let bounds = tr.span("sched.bounds", item, || {
        CdfgBoundsCache::build(&cdfg, &classifier)
    })?;
    Ok(Prepared {
        cdfg,
        classifier,
        bounds,
        pass_stats,
    })
}

/// The back half's products, before they are assembled into a
/// `SynthesisResult`.
pub struct BackHalf {
    pub schedule: hls_sched::CdfgSchedule,
    pub latency: u64,
    pub datapath: Datapath,
    pub fsm: hls_ctrl::Fsm,
    pub control_report: ControlReport,
    pub netlist: hls_rtl::Netlist,
    pub area: hls_rtl::AreaReport,
}

/// `Synthesizer::synthesize_prepared`, one layer call at a time.
pub fn back_half(
    cfg: &DesignConfig,
    p: &Prepared,
    tr: &Tracer,
    item: u64,
) -> Result<BackHalf, SynthesisError> {
    let library = Library::standard();
    let limits = ResourceLimits::universal(cfg.fus);
    let (schedule, latency) = tr.span("sched.schedule", item, || {
        schedule_cdfg_cached(&p.cdfg, &p.classifier, &limits, cfg.algorithm, &p.bounds).map(|s| {
            let latency = s.total_latency(&p.cdfg);
            (s, latency)
        })
    })?;
    tr.count("sched.steps", item, latency as f64);
    let datapath = tr.span("alloc.datapath", item, || {
        build_datapath(
            &p.cdfg,
            &schedule,
            &p.classifier,
            &library,
            FuStrategy::GreedyAware,
        )
    })?;
    count_datapath(tr, item, &datapath);
    let fsm = tr.span("ctrl.fsm", item, || {
        build_fsm(&p.cdfg, &schedule, &datapath, &p.classifier)
    })?;
    tr.count("ctrl.states", item, fsm.len() as f64);
    let control_report = match cfg.control {
        ControlStyle::Hardwired(style) => {
            let report = tr.span("ctrl.hardwired", item, || hardwired_logic(&fsm, style))?;
            let inputs = report.state_bits + fsm.flags.len() as u32;
            tr.count(
                "ctrl.unminimized",
                item,
                f64::from(u8::from(inputs > EXACT_INPUT_LIMIT)),
            );
            tr.count("ctrl.literals", item, report.literals as f64);
            ControlReport::Hardwired(report)
        }
        // The ROM widths are computed from the microprogram, so the
        // report is built (and the microprogram dropped) inside the span.
        ControlStyle::Microcode => tr.span("ctrl.microcode", item, || {
            let mp = microcode(&fsm);
            ControlReport::Microcode {
                words: mp.rom.len(),
                horizontal_bits: mp.horizontal_rom_bits(),
                encoded_bits: mp.encoded_rom_bits(),
            }
        }),
    };
    let netlist = tr.span("rtl.netlist", item, || {
        datapath.to_netlist(&p.cdfg, &library)
    })?;
    tr.count("rtl.instances", item, netlist.instance_count() as f64);
    let area = tr.span("rtl.area", item, || estimate(&netlist, &library));
    Ok(BackHalf {
        schedule,
        latency,
        datapath,
        fsm,
        control_report,
        netlist,
        area,
    })
}

impl BackHalf {
    /// Assembles the `SynthesisResult` `synthesize_prepared` returns.
    pub fn into_result(self, p: Prepared) -> SynthesisResult {
        SynthesisResult {
            cdfg: p.cdfg,
            schedule: self.schedule,
            datapath: self.datapath,
            fsm: self.fsm,
            control_report: self.control_report,
            netlist: self.netlist,
            area: self.area,
            latency: self.latency,
            pass_stats: p.pass_stats,
            classifier: p.classifier,
            stage_nanos: StageNanos::default(),
        }
    }
}

fn count_datapath(tr: &Tracer, item: u64, d: &Datapath) {
    tr.count("alloc.fus", item, d.fu_count() as f64);
    tr.count("alloc.registers", item, d.reg_count() as f64);
    tr.count("alloc.muxes", item, d.mux_inputs as f64);
}

/// Datapath Verilog plus controller Verilog of one design.
fn emit(tr: &Tracer, item: u64, r: &SynthesisResult) -> String {
    tr.span("rtl.verilog", item, || {
        let mut v = hls_rtl::to_verilog(&r.netlist);
        v.push_str(&controller_verilog(
            &format!("{}_ctrl", r.cdfg.name()),
            &r.fsm,
        ));
        v
    })
}

fn single(r: SynthesisResult, verilog: String, eq: hls_sim::Equivalence) -> Run {
    Run {
        latency: r.latency,
        area: r.area.total(),
        states: r.fsm.len(),
        verilog,
        equivalent: eq.equivalent,
        vectors: eq.vectors,
        mismatch: eq.mismatch.map(|m| format!("{m:?}")),
        result: Synthesized::Single(Box::new(r)),
    }
}

/// One design through the library entry points: prepare, synthesize,
/// verify on `vectors` random vectors in `range`, emit Verilog.
pub fn synthesize(
    cfg: &DesignConfig,
    cdfg: Cdfg,
    vectors: usize,
    range: (f64, f64),
) -> Result<Run, SynthesisError> {
    let syn = cfg.synthesizer();
    let prepared = syn.prepare(cdfg)?;
    let r = syn.synthesize_prepared(&prepared)?;
    let eq = r.verify(vectors, range)?;
    let verilog = emit(&Tracer::new(false), 0, &r);
    Ok(single(r, verilog, eq))
}

/// [`synthesize`], one layer call at a time inside spans.
pub fn run_layers(
    cfg: &DesignConfig,
    cdfg: Cdfg,
    vectors: usize,
    range: (f64, f64),
    tr: &Tracer,
    item: u64,
) -> Result<Run, SynthesisError> {
    let p = prepare_layers(cfg, cdfg, tr, item)?;
    let r = back_half(cfg, &p, tr, item)?.into_result(p);
    let eq = tr.span("sim.cosim", item, || {
        hls_sim::check_random_vectors(
            &r.cdfg,
            &r.schedule,
            &r.datapath,
            &r.classifier,
            vectors,
            range,
            VERIFY_SEED,
        )
    })?;
    tr.count("sim.vectors", item, eq.vectors as f64);
    let verilog = emit(tr, item, &r);
    tr.count("rtl.verilog_bytes", item, verilog.len() as f64);
    Ok(single(r, verilog, eq))
}

/// Compiles BSL text inside a `lang.compile` span.
pub fn compile(src: &str, tr: &Tracer, item: u64) -> Result<Cdfg, SynthesisError> {
    tr.count("lang.source_bytes", item, src.len() as f64);
    Ok(tr.span("lang.compile", item, || hls_lang::compile(src))?)
}

fn system_run(sys: SystemSynthesisResult, verilog: String, eq: hls_core::SystemEquivalence) -> Run {
    Run {
        latency: sys.processes.iter().map(|p| p.result.latency).sum(),
        area: sys.processes.iter().map(|p| p.result.area.total()).sum(),
        states: sys.processes.iter().map(|p| p.result.fsm.len()).sum(),
        verilog,
        equivalent: eq.equivalent,
        vectors: eq.vectors,
        mismatch: eq.mismatch,
        result: Synthesized::System(Box::new(sys)),
    }
}

/// A multi-process `system` source through the library entry points:
/// synthesize, co-simulate, elaborate Verilog.
pub fn synthesize_system(
    cfg: &DesignConfig,
    src: &str,
    vectors: usize,
    range: (f64, f64),
) -> Result<Run, SynthesisError> {
    let sys = cfg.synthesizer().synthesize_system_source(src)?;
    let eq = sys.verify(vectors, range, SYSTEM_VERIFY_SEED)?;
    let verilog = sys.to_verilog();
    Ok(system_run(sys, verilog, eq))
}

/// [`synthesize_system`], one layer call at a time inside spans. Like
/// `Synthesizer::synthesize_system`, processes run with unrolling and
/// if-conversion off.
pub fn run_system_layers(
    cfg: &DesignConfig,
    src: &str,
    vectors: usize,
    range: (f64, f64),
    tr: &Tracer,
    item: u64,
) -> Result<Run, SynthesisError> {
    tr.count("lang.source_bytes", item, src.len() as f64);
    let golden = tr.span("lang.compile", item, || hls_lang::compile_system(src))?;
    let per_process = DesignConfig {
        unroll: false,
        if_convert: false,
        ..*cfg
    };
    // `Synthesizer::synthesize_system`'s own work (copying the system
    // and each process behaviour) is the span's self time.
    let (system, processes) = tr.span("core.synthesize_system", item, || {
        let mut system = golden.clone();
        let mut processes = Vec::with_capacity(system.processes.len());
        for p in &mut system.processes {
            let prepared = prepare_layers(&per_process, p.cdfg.clone(), tr, item)?;
            p.cdfg = prepared.cdfg.clone();
            let result = back_half(&per_process, &prepared, tr, item)?.into_result(prepared);
            processes.push(ProcessSynthesis {
                name: p.name.clone(),
                result,
            });
        }
        Ok::<_, SynthesisError>((system, processes))
    })?;
    let deadlock = tr.span("sim.deadlock", item, || hls_core::analyze_deadlock(&golden));
    let sys = SystemSynthesisResult {
        golden,
        system,
        processes,
        deadlock,
    };
    let eq = tr.span("sim.system_cosim", item, || {
        sys.verify(vectors, range, SYSTEM_VERIFY_SEED)
    })?;
    tr.count("sim.vectors", item, eq.vectors as f64);
    let verilog = tr.span("rtl.verilog", item, || sys.to_verilog());
    tr.count("rtl.verilog_bytes", item, verilog.len() as f64);
    Ok(system_run(sys, verilog, eq))
}
