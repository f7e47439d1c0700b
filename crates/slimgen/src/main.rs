//! slimgen CLI — generate, digest, and soak hospital-scale workloads.
//!
//! ```text
//! slimgen --digest --profile quick --seed 0xC0FFEE   # corpus + trace digests
//! slimgen --soak   --profile quick --seed 0xC0FFEE   # checkpointed soak + crash
//! slimgen --chaos  --profile quick --seed 0xC0FFEE   # triple-level service chaos
//! slimgen --chaos-pad --profile quick --seed 0xC0FFEE # pad-level service chaos
//! ```
//!
//! `--soak`, `--chaos` and `--chaos-pad` exit non-zero on any oracle
//! divergence — that exit code is the CI soak jobs' verdict. All modes
//! print the seed so any report can be replayed verbatim.

use std::process::ExitCode;

use slimgen::chaos::{self, ChaosConfig, Pads, Triples};
use slimgen::soak::{self, SoakConfig};
use slimgen::trace::{self, Mix};
use slimgen::{corpus, Profile};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Digest,
    Soak,
    Chaos,
    ChaosPad,
}

struct Args {
    profile: Profile,
    seed: u64,
    mix: Mix,
    mode: Mode,
    no_crash: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        profile: Profile::Quick,
        seed: 0xC0FFEE,
        mix: Mix::Mixed,
        mode: Mode::Digest,
        no_crash: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--digest" => args.mode = Mode::Digest,
            "--soak" => args.mode = Mode::Soak,
            "--chaos" => args.mode = Mode::Chaos,
            "--chaos-pad" => args.mode = Mode::ChaosPad,
            "--no-crash" => args.no_crash = true,
            "--profile" => {
                let v = it.next().ok_or("--profile needs a value")?;
                args.profile =
                    Profile::parse(&v).ok_or(format!("unknown profile {v:?} (smoke|quick|full)"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = parse_seed(&v).ok_or(format!("bad seed {v:?}"))?;
            }
            "--mix" => {
                let v = it.next().ok_or("--mix needs a value")?;
                args.mix = Mix::parse(&v).ok_or(format!("unknown mix {v:?} (read|write|mixed)"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn parse_seed(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("slimgen: {message}");
            return ExitCode::from(2);
        }
    };

    if args.mode == Mode::Chaos || args.mode == Mode::ChaosPad {
        let mut config = if args.mode == Mode::Chaos {
            ChaosConfig::new::<Triples>(args.profile, args.seed)
        } else {
            ChaosConfig::new::<Pads>(args.profile, args.seed)
        };
        config.mix = args.mix;
        config.crash = !args.no_crash;
        let report = if args.mode == Mode::Chaos {
            chaos::run::<Triples>(&config)
        } else {
            chaos::run::<Pads>(&config)
        };
        println!("slimgen {}  seed={:#x}  mix={}", report.target, args.seed, args.mix.name());
        println!(
            "  {} sessions x {} ops x 2 epochs, crash: {}",
            report.sessions, report.ops_per_session, report.crash
        );
        let s = &report.stats;
        println!(
            "  {} attempts: {} acked, {} shed, {} timed out, {} panicked, {} engine-refused, \
             {} quarantined, {} io-refused, {} closed",
            report.attempts,
            s.acked,
            s.shed,
            s.timed_out,
            s.panicked,
            s.engine_refusals,
            s.quarantine_rejections,
            s.io_refusals,
            s.closed_refusals
        );
        println!(
            "  {} commits, {} compactions, {} views published ({} rebuilt), \
             {} degraded resolutions, {} repairs",
            s.commits,
            s.compactions,
            s.snapshots_published,
            s.snapshot_rebuilds,
            s.degraded_resolutions,
            s.repairs
        );
        if let Some(recovery) = &report.recovery {
            println!("  recovery: {recovery}");
        }
        println!(
            "  digests: live {:#018x}  replay {:#018x}  disk {:#018x}",
            report.live_digest, report.replay_digest, report.disk_digest
        );
        return if report.passed() {
            println!("  PASS: zero divergences");
            ExitCode::SUCCESS
        } else {
            for d in &report.divergences {
                eprintln!("  DIVERGENCE: {d}");
            }
            ExitCode::FAILURE
        };
    }

    if args.mode == Mode::Soak {
        let mut config = SoakConfig::new(args.profile, args.seed);
        config.mix = args.mix;
        config.crash = !args.no_crash;
        let report = soak::run(&config);
        println!("slimgen soak  seed={:#x}  mix={}", args.seed, args.mix.name());
        println!(
            "  corpus: {} docs, {} marks, {} bundles, {} scraps",
            report.stats.docs, report.stats.marks, report.stats.bundles, report.stats.scraps
        );
        println!("  input digest:   {}", report.input_digest);
        println!("  outcome digest: {}", report.outcome_digest);
        println!(
            "  {} ops, {} checkpoints, crash recovered: {}",
            report.ops, report.checkpoints, report.crash_recovered
        );
        if report.passed() {
            println!("  PASS: zero divergences");
            ExitCode::SUCCESS
        } else {
            for d in &report.divergences {
                eprintln!("  DIVERGENCE: {d}");
            }
            ExitCode::FAILURE
        }
    } else {
        let corpus = corpus::generate(args.profile, args.seed);
        let ops = trace::generate(args.seed, args.profile.trace_ops(), args.mix);
        let mut corpus_digest = slimgen::Digest::new();
        corpus_digest.update(corpus.corpus_xml().as_bytes());
        println!("slimgen digest  seed={:#x}  mix={}", args.seed, args.mix.name());
        println!(
            "  corpus: {} docs, {} marks, {} bundles, {} scraps",
            corpus.stats.docs, corpus.stats.marks, corpus.stats.bundles, corpus.stats.scraps
        );
        println!("  input digest:  {}", corpus.input_digest);
        println!("  corpus digest: {corpus_digest}");
        println!("  trace digest:  {} ({} ops)", trace::trace_digest(&ops), ops.len());
        ExitCode::SUCCESS
    }
}
