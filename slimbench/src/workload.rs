//! What every workload shares: sizes, run budgets, set-up timing, and
//! the shape of a finished run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use slimgen::Profile;

use crate::probe::{IoTotals, Span, Tracer};
use crate::report::{highest_supported, median, percentile, EndToEnd, Layers};

/// How big the inputs are. `QUICK` is what the command line runs; tests
/// use `SMOKE` so a pass over every workload takes seconds.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Corpus preset for the pad workloads.
    pub profile: Profile,
    /// Trace ops per `rounds_read` / `pad_churn` round.
    pub round_ops: usize,
    /// Pad ops each `pad_service` session submits per round.
    pub session_ops: usize,
    /// Scraps in the `triple_service` store (five triples each, plus the
    /// join chain).
    pub scraps: usize,
    /// Writes per `triple_service` round.
    pub writes: usize,
}

pub const QUICK: Size = Size {
    profile: Profile::Quick,
    round_ops: 600,
    session_ops: 10,
    scraps: 10_000,
    writes: 6_000,
};

#[cfg(test)]
pub const SMOKE: Size = Size {
    profile: Profile::Smoke,
    round_ops: 120,
    session_ops: 10,
    scraps: 640,
    writes: 600,
};

/// How many measured rounds a run makes.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole rounds until this much wall time has passed.
    Seconds(f64),
    /// Exactly this many rounds (tests: repeatable counts).
    Rounds(usize),
}

impl Budget {
    /// Whether to start another round after `done`, never stopping below
    /// `min`.
    pub fn more(&self, done: usize, min: usize, since: Instant) -> bool {
        match *self {
            Budget::Seconds(s) => done < min || since.elapsed().as_secs_f64() < s,
            Budget::Rounds(n) => done < n.max(min),
        }
    }
}

/// One run's inputs.
pub struct Plan {
    pub size: Size,
    pub seed: u64,
    pub budget: Budget,
    /// Add one traced round after the measured ones.
    pub traced: bool,
    pub tracer: Arc<Tracer>,
}

/// What a workload hands back.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; empty when every output was right.
    pub problems: Vec<String>,
    pub e2e: EndToEnd,
    /// Filled from the traced round (empty when untraced).
    pub layers: Layers,
    /// Storage calls made by the ops of every round, summed.
    pub io: IoTotals,
    /// The traced round's spans.
    pub spans: Vec<Span>,
    /// Human-readable detail for the log.
    pub notes: Vec<String>,
}

/// Set-ups per run of the workloads that set up once: `setup_s` is their
/// median.
const SETUPS: usize = 3;

/// Durations of named set-up phases, every sample kept.
#[derive(Debug, Default)]
pub struct Phases {
    samples: BTreeMap<&'static str, Vec<Duration>>,
}

impl Phases {
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.samples.entry(name).or_default().push(start.elapsed());
        out
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Duration> {
        self.samples
            .iter()
            .map(|(name, v)| (*name, v.iter().sum()))
            .collect()
    }

    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.samples.get(name).map_or(Vec::new(), |v| {
            v.iter().map(Duration::as_secs_f64).collect()
        })
    }
}

/// Set up `SETUPS` times, keeping the last result. Earlier results are
/// dropped before the next set-up starts, outside its timing.
pub fn set_up<T>(
    phases: &mut Phases,
    mut once: impl FnMut(&mut Phases) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut kept = None;
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(once(phases)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, times))
}

/// Peak resident set size of this process so far, in MB. The peak, not
/// the current size: with threads publishing and dropping snapshots, the
/// current size depends on when the allocator last gave memory back.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics from set-up and restart times and the op
/// latencies of the measured rounds, all in seconds.
pub fn end_to_end(
    setups: &[f64],
    ops_per_s: f64,
    latencies: &[f64],
    tail: f64,
    restarts: &[f64],
    peak_rss_mb: f64,
) -> EndToEnd {
    EndToEnd {
        setup_s: median(setups),
        ops_per_s,
        op_tail_ms: percentile(latencies, tail) * 1e3,
        restart_s: median(restarts),
        peak_rss_mb,
    }
}

/// A log line with the median op latency, the tail percentile and the
/// samples behind it.
pub fn latency_note(latencies: &[f64], tail: f64) -> String {
    let n = latencies.len();
    let beyond = crate::report::beyond(n, tail);
    let supported = highest_supported(n).map_or("none".to_string(), |p| format!("p{}", p * 100.0));
    format!(
        "op latency over {n} samples: p50 {:.4} ms; op_tail_ms is p{} ({beyond} beyond it; highest \
         supported: {supported}){}",
        percentile(latencies, 0.5) * 1e3,
        tail * 100.0,
        if beyond < 10 { " — fewer than 10 samples beyond the tail" } else { "" }
    )
}

/// A log line with every set-up and restart sample, in seconds.
pub fn timing_note(setups: &[f64], restarts: &[f64]) -> String {
    format!("set-ups {setups:.3?} s; restarts {restarts:.3?} s")
}

/// Traced-round op time against the median untraced round, in percent.
pub fn overhead_pct(traced: f64, untraced: &[f64]) -> f64 {
    let base = median(untraced);
    100.0 * (traced - base) / base.max(1e-12)
}
