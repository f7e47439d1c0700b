//! slimbench — one end-to-end benchmark of the SLIM stack at hospital
//! scale, with per-layer attribution measured from outside the program.
//!
//! ```text
//! cargo run --release --offline --manifest-path slimbench/Cargo.toml -- \
//!     --workload rounds_read --seed 0xC0FFEE --seconds 10 --trace 0 [--spans PATH]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (which adds one traced round after the measured ones;
//! `--spans` writes its spans as JSON lines). A failed correctness check
//! or a refused op makes the exit code 1. See README.md.

mod pad_rounds;
mod probe;
mod report;
mod services;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;

use crate::probe::{Span, Tracer};
use crate::workload::{Budget, Plan, Run};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["rounds_read", "pad_churn", "pad_service", "triple_service"];

pub fn run_workload(name: &str, plan: &Plan) -> Result<Run, String> {
    match name {
        "rounds_read" => pad_rounds::run(plan, pad_rounds::Kind::RoundsRead),
        "pad_churn" => pad_rounds::run(plan, pad_rounds::Kind::PadChurn),
        "pad_service" => services::run_pad_service(plan),
        "triple_service" => services::run_triple_service(plan),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: WORKLOADS[0].to_string(),
        seed: 0xC0FFEE,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                let v = value()?;
                parsed.seed = parse_seed(&v).ok_or(format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--spans" => parsed.spans = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn span_lines(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"workload\": \"{workload}\", \"op\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
             \"start_us\": {:.3}, \"end_us\": {:.3}}}\n",
            s.op,
            s.id,
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
        ));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slimbench: {e}");
            eprintln!(
                "usage: slimbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--spans PATH]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let plan = Plan {
        size: workload::QUICK,
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        traced: args.trace,
        tracer: Tracer::new(),
    };
    let run = match run_workload(&args.workload, &plan) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("slimbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut problems = run.problems.clone();
    let metrics = if args.trace {
        run.layers.metrics().unwrap_or_else(|e| {
            problems.push(e);
            Vec::new()
        })
    } else {
        run.e2e.metrics()
    };
    problems.extend(report::check(&metrics));
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, span_lines(&args.workload, &run.spans)) {
            problems.push(format!("cannot write spans to {path}: {e}"));
        }
    }

    let mut log = std::io::stderr().lock();
    let _ = writeln!(log, "slimbench {} seed {:#x}", args.workload, args.seed);
    for line in &run.notes {
        let _ = writeln!(log, "  {line}");
    }
    for m in &metrics {
        let _ = writeln!(log, "  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        let _ = writeln!(log, "  CHECK FAILED: {p}");
    }
    drop(log);

    let correct = problems.is_empty();
    println!(
        "{}",
        report::result_line(correct, run.attempted, run.failed, &metrics)
    );
    if correct && run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
