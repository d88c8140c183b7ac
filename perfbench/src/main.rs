//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result as the last stdout line.
//! `perfbench report <trace.ndjson>` prints the per-layer table of a
//! trace file written by a traced run.

use std::process::ExitCode;

use hls_perfbench::{run, trace, Args, WORKLOADS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench report <trace.ndjson>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("report") {
        let [_, path] = argv.as_slice() else {
            return usage();
        };
        return match trace::load(std::path::Path::new(path)) {
            Ok(t) => {
                print!("{}", trace::layer_table(&t));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return usage();
        }
    };
    let Some(outcome) = run(&args) else {
        return usage();
    };
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    eprintln!(
        "{}: {} items attempted, {} failed (failed_frac {})",
        args.workload,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome.json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
