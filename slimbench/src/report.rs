//! Statistics, the metric catalogue, and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::probe::{IoTotals, Span, WRITER_ROOT};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Median of `values` (mean of the middle pair for an even count); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank index of the `p`-quantile in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// The `p`-quantile of `values` by nearest rank; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(rank(v.len(), p)).copied().unwrap_or(f64::NAN)
}

/// Samples lying beyond the `p`-quantile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p) + 1)
}

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest percentile with at least ten of `n` samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// The end-to-end metrics every workload reports. The median op latency
/// is logged, not reported: on `rounds_read` it is a ~15 µs extract whose
/// run-to-run spread reached 40%, beyond any bound the benchmark may set.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-ups.
    pub setup_s: f64,
    pub ops_per_s: f64,
    /// The workload's fixed tail percentile of op latency.
    pub op_tail_ms: f64,
    /// Median time to reopen the workload's durable state.
    pub restart_s: f64,
    /// Peak resident set of the run.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name: &str, value, unit| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        vec![
            m("setup_s", self.setup_s, "s"),
            m("ops_per_s", self.ops_per_s, "1/s"),
            m("op_tail_ms", self.op_tail_ms, "ms"),
            m("restart_s", self.restart_s, "s"),
            m("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Layer calls the benchmark times, one span name per call site. Each
/// gives `<name>.calls` and `<name>.self_pct`, the span's self time as a
/// share of the traced round's op time.
pub const SPANS: [&str; 17] = [
    "slimpad.begin_op",
    "slimpad.commit",
    "slimpad.extract",
    "slimstore.find_scraps",
    "slimstore.write",
    "trim.undo",
    "slimserve.pad.resolve",
    "slimserve.pad.extract",
    "slimserve.pad.create_mark",
    "slimserve.pad.annotate",
    "slimserve.pad.link",
    "slimserve.pad.create_bundle",
    "slimserve.pad.inspect",
    "slimserve.service.insert",
    "slimserve.service.remove",
    "trim.snapshot.read",
    "slimio",
];

/// Per-layer metrics beyond the span pair, with units.
const EXTRA: [(&str, &str); 25] = [
    ("slimio.writes", "count"),
    ("slimio.appends", "count"),
    ("slimio.syncs", "count"),
    ("slimio.renames", "count"),
    ("slimio.bytes_written", "B"),
    ("slimio.bytes_per_op", "B"),
    ("slimio.ms_total", "ms"),
    ("slimpad.extract.degraded_pct", "%"),
    ("slimpad.open_logged.frames_replayed", "count"),
    ("slimpad.open_logged.ops_replayed", "count"),
    ("slimserve.pad.commits", "count"),
    ("slimserve.pad.ops_per_commit", "count"),
    ("slimserve.pad.compactions", "count"),
    ("slimserve.pad.engine_refusals", "count"),
    ("slimserve.pad.degraded_resolutions", "count"),
    ("slimserve.service.commits", "count"),
    ("slimserve.service.ops_per_commit", "count"),
    ("trim.snapshot.published", "count"),
    ("trim.snapshot.rebuilds", "count"),
    ("slimgen.corpus.setup_pct", "%"),
    ("slimpad.enable_logging.setup_pct", "%"),
    ("slimserve.pad.open.setup_pct", "%"),
    ("slim_bench.join_store.setup_pct", "%"),
    ("trim.save_to.setup_pct", "%"),
    ("slimserve.service.open.setup_pct", "%"),
];

/// How the traced round accounts for itself.
const TRACE: [(&str, &str); 2] = [("trace.op_ms_total", "ms"), ("trace.overhead_pct", "%")];

/// Every per-layer metric, in report order.
pub fn layer_catalogue() -> Vec<(String, &'static str)> {
    let spans = SPANS.iter().flat_map(|s| {
        [
            (format!("{s}.calls"), "count"),
            (format!("{s}.self_pct"), "%"),
        ]
    });
    let fixed = EXTRA
        .iter()
        .chain(TRACE.iter())
        .map(|(n, u)| (n.to_string(), *u));
    spans.chain(fixed).collect()
}

/// Per-layer values gathered during a run. Every catalogue metric is
/// reported; one a workload never touches reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The catalogue, filled in. Names set outside it are reported as
    /// problems so the catalogue and the workloads cannot drift apart.
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        let catalogue = layer_catalogue();
        if let Some(stray) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|(name, _)| name == *k))
        {
            return Err(format!("per-layer metric {stray} is not in the catalogue"));
        }
        Ok(catalogue
            .into_iter()
            .map(|(name, unit)| {
                let value = self.values.get(&name).copied().unwrap_or(0.0);
                Metric { name, value, unit }
            })
            .collect())
    }

    /// Span-derived metrics: calls and self-time shares per layer span,
    /// and storage time. Each op span wraps exactly the call its round
    /// loop times, so the self times under it add up to that op's
    /// measured time by construction.
    pub fn add_spans(&mut self, spans: &[Span]) {
        let mut child_time: BTreeMap<u64, Duration> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent.is_some()) {
            *child_time
                .entry(s.parent.unwrap_or(WRITER_ROOT))
                .or_default() += s.duration();
        }
        let is_root = |s: &Span| s.parent.is_none() && s.id != WRITER_ROOT;
        let op_time: Duration = spans
            .iter()
            .filter(|s| is_root(s))
            .map(Span::duration)
            .sum();
        let mut per_name: BTreeMap<&str, (u64, Duration)> = BTreeMap::new();
        let mut io_time = Duration::ZERO;
        for s in spans.iter().filter(|s| s.id != WRITER_ROOT) {
            let name = if s.name.starts_with("slimio.") {
                "slimio"
            } else {
                s.name
            };
            let own = s
                .duration()
                .saturating_sub(child_time.get(&s.id).copied().unwrap_or_default());
            let entry = per_name.entry(name).or_default();
            entry.0 += 1;
            entry.1 += own;
            if name == "slimio" {
                io_time += s.duration();
            }
        }
        let share = |d: Duration| 100.0 * d.as_secs_f64() / op_time.as_secs_f64().max(1e-12);
        for (name, (calls, own)) in per_name {
            self.set(&format!("{name}.calls"), calls as f64);
            self.set(&format!("{name}.self_pct"), share(own));
        }
        self.set("slimio.ms_total", io_time.as_secs_f64() * 1e3);
        self.set("trace.op_ms_total", op_time.as_secs_f64() * 1e3);
    }

    /// Storage counts for the traced round's `ops` ops.
    pub fn add_io(&mut self, io: &IoTotals, ops: u64) {
        self.set("slimio.writes", io.writes as f64);
        self.set("slimio.appends", io.appends as f64);
        self.set("slimio.syncs", io.syncs as f64);
        self.set("slimio.renames", io.renames as f64);
        self.set("slimio.bytes_written", io.bytes_written as f64);
        self.set(
            "slimio.bytes_per_op",
            io.bytes_written as f64 / ops.max(1) as f64,
        );
    }

    /// Set-up attribution: each phase's share of the total set-up time.
    pub fn add_setup(&mut self, phases: &BTreeMap<&'static str, Duration>, total: Duration) {
        for (name, d) in phases {
            self.set(
                &format!("{name}.setup_pct"),
                100.0 * d.as_secs_f64() / total.as_secs_f64().max(1e-12),
            );
        }
    }
}

/// Metric names: a letter or digit, then letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Problems with a metric list: a malformed name or unit, a repeated
/// name, or a value JSON cannot carry.
pub fn check(metrics: &[Metric]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            problems.push(format!("metric name {:?} is malformed", m.name));
        }
        if !valid_unit(m.unit) {
            problems.push(format!("unit {:?} of {} is malformed", m.unit, m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number ({})", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            problems.push(format!("metric {} is reported twice", m.name));
        }
    }
    problems
}

/// The result line. Values print with every digit Rust's shortest
/// round-trip form gives; non-finite values print as 0 (and `check` has
/// already marked the run incorrect).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
