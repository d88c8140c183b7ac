//! The traced run measures the same program: calling the layers one at
//! a time (as the traced run does) reproduces what `hls_core`'s entry
//! points produce, on sampled configurations at smoke sizes.

use hls_cdfg::Cdfg;
use hls_core::Synthesizer;
use hls_perfbench::flow::{self, DesignConfig, Synthesized};
use hls_perfbench::gen::{ALGORITHMS, CONTROLS};
use hls_perfbench::trace::Tracer;
use hls_testkit::SplitMix64;
use hls_workloads::{benchmarks, random, sources};

fn behaviours() -> Vec<(&'static str, Cdfg, (f64, f64))> {
    let mut out: Vec<(&'static str, Cdfg, (f64, f64))> = [
        ("sqrt", sources::SQRT, (0.05, 1.0)),
        ("gcd", sources::GCD, (1.0, 64.0)),
        ("diffeq", sources::DIFFEQ, (0.1, 0.9)),
        ("fir4", sources::FIR4, (-2.0, 2.0)),
        ("sumsq", sources::SUMSQ, (1.0, 15.0)),
    ]
    .into_iter()
    .map(|(name, src, range)| (name, hls_lang::compile(src).unwrap(), range))
    .collect();
    let dag = random::random_dag(&random::RandomDagConfig {
        ops: 48,
        inputs: 8,
        window: 12,
        mul_ratio: 0.3,
        seed: 11,
    });
    out.push(("dag48", benchmarks::to_cdfg("dag48", dag), (0.5, 1.5)));
    out
}

fn sampled_configs(rng: &mut SplitMix64, n: usize) -> Vec<DesignConfig> {
    (0..n)
        .map(|_| DesignConfig {
            optimize: rng.bool_with(0.5),
            unroll: rng.bool_with(0.5),
            if_convert: rng.bool_with(0.5),
            fus: rng.usize_in(1, 9),
            algorithm: *rng.choose(&ALGORITHMS),
            control: *rng.choose(&CONTROLS),
        })
        .collect()
}

#[test]
fn layer_calls_reproduce_synthesize_prepared() {
    let mut rng = SplitMix64::new(0xDEC0);
    for (name, cdfg, _) in behaviours() {
        for cfg in sampled_configs(&mut rng, 8) {
            let syn = cfg.synthesizer();
            let prepared = syn.prepare(cdfg.clone()).unwrap();
            let want = syn.synthesize_prepared(&prepared).unwrap();

            let tr = Tracer::new(true);
            let p = flow::prepare_layers(&cfg, cdfg.clone(), &tr, 0).unwrap();
            let got = flow::back_half(&cfg, &p, &tr, 0).unwrap().into_result(p);

            let what = format!("{name} {cfg:?}");
            assert_eq!(got.latency, want.latency, "{what}");
            assert_eq!(got.area.total(), want.area.total(), "{what}");
            assert_eq!(got.fsm.len(), want.fsm.len(), "{what}");
            assert_eq!(got.to_verilog(), want.to_verilog(), "{what}");
            assert_eq!(
                hls_ctrl::controller_verilog("c", &got.fsm),
                hls_ctrl::controller_verilog("c", &want.fsm),
                "{what}"
            );
            assert_eq!(
                format!("{:?}", got.control_report),
                format!("{:?}", want.control_report),
                "{what}"
            );
        }
    }
}

#[test]
fn traced_design_run_matches_untraced_and_nests_its_spans() {
    let mut rng = SplitMix64::new(0x7AC3);
    for (name, cdfg, range) in behaviours() {
        for cfg in sampled_configs(&mut rng, 3) {
            let plain = flow::synthesize(&cfg, cdfg.clone(), 2, range).unwrap();
            let tr = Tracer::new(true);
            let traced = tr
                .span("item.design", 0, || {
                    flow::run_layers(&cfg, cdfg.clone(), 2, range, &tr, 0)
                })
                .unwrap();
            let what = format!("{name} {cfg:?}");
            assert_eq!(traced.latency, plain.latency, "{what}");
            assert_eq!(traced.area, plain.area, "{what}");
            assert_eq!(traced.states, plain.states, "{what}");
            assert_eq!(traced.verilog, plain.verilog, "{what}");
            assert!(traced.equivalent && plain.equivalent, "{what}");
            assert_eq!(traced.vectors, plain.vectors, "{what}");
            assert!(matches!(traced.result, Synthesized::Single(_)));

            let trace = tr.take();
            let root = trace
                .spans
                .iter()
                .find(|s| s.name == "item.design")
                .unwrap();
            for s in trace.spans.iter().filter(|s| s.id != root.id) {
                assert_eq!(s.parent, root.id, "{what}: {} not under the item", s.name);
                assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
            }
            for layer in ["opt.passes", "sched.schedule", "alloc.datapath", "ctrl.fsm"] {
                assert!(
                    trace.spans.iter().any(|s| s.name == layer),
                    "{what}: no {layer}"
                );
            }
        }
    }
}

#[test]
fn system_layer_calls_reproduce_synthesize_system() {
    for depth in [0, 2] {
        let src = sources::pipe3_with_depth(depth);
        for fus in [1, 3] {
            let cfg = DesignConfig::default_with(fus);
            let plain = flow::synthesize_system(&cfg, &src, 2, (1.0, 8.0)).unwrap();
            let tr = Tracer::new(true);
            let traced = flow::run_system_layers(&cfg, &src, 2, (1.0, 8.0), &tr, 0).unwrap();
            assert_eq!(traced.latency, plain.latency);
            assert_eq!(traced.area, plain.area);
            assert_eq!(traced.states, plain.states);
            assert_eq!(traced.verilog, plain.verilog);
            assert!(traced.equivalent && plain.equivalent);
            assert!(tr.take().spans.iter().any(|s| s.name == "sim.system_cosim"));
        }
    }
}

#[test]
fn paper_sqrt_latencies_hold_on_both_paths() {
    let cdfg = hls_lang::compile(sources::SQRT).unwrap();
    let optimized = DesignConfig::default_with(2);
    let unoptimized = DesignConfig {
        optimize: false,
        ..DesignConfig::default_with(1)
    };
    for (cfg, steps) in [(optimized, 10), (unoptimized, 23)] {
        let tr = Tracer::new(true);
        let traced = flow::run_layers(&cfg, cdfg.clone(), 2, (0.05, 1.0), &tr, 0).unwrap();
        let plain = flow::synthesize(&cfg, cdfg.clone(), 2, (0.05, 1.0)).unwrap();
        assert_eq!((traced.latency, plain.latency), (steps, steps));
    }
    // The configuration really is the library default.
    let default = Synthesizer::new().synthesize(cdfg).unwrap();
    assert_eq!(default.latency, 10);
}

#[test]
fn workload_inputs_are_a_function_of_the_seed() {
    use hls_perfbench::synth_mixed::{designs, Input};
    let inputs = |seed| {
        designs(seed, 0)
            .iter()
            .map(|d| match &d.input {
                Input::Dag(cdfg) => format!("{} {:x}", d.name, hls_core::cdfg_fingerprint(cdfg)),
                _ => format!("{} {:?}", d.name, d.cfg),
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(inputs(5), inputs(5));
    assert_ne!(inputs(5), inputs(6));
    assert!(designs(5, 0).len() >= 100);

    let fps = |seed| {
        hls_perfbench::explore_sweep::behaviours(seed)
            .iter()
            .flatten()
            .map(|(_, c)| hls_core::cdfg_fingerprint(c))
            .collect::<Vec<_>>()
    };
    assert_eq!(fps(5), fps(5));
    assert_ne!(fps(5), fps(6));
}
