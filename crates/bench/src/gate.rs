//! The one bench gate behind every `BENCH_*.json` reporter: its flags,
//! the committed-baseline lookup, declarative check rows, and the
//! write / print / verdict tail. DESIGN.md §10 "Bench gates" tabulates
//! each reporter's rows.
//!
//! A gated `(row, key)` the baseline lacks is a failing check, never a
//! skipped bound: a renamed key or a reformatted baseline must not turn
//! a gate off while the run still reports that it passed.

/// The flags every reporter takes:
/// `[--quick] [--out PATH] [--check BASELINE_PATH]`.
pub struct Args {
    /// Shorter measurement budget, for CI smoke runs.
    pub quick: bool,
    /// Where the fresh report is written.
    pub out: String,
    /// The committed baseline to gate against, if any.
    pub check: Option<String>,
}

impl Args {
    /// Parse the process arguments of reporter `bin`, whose report goes
    /// to `default_out` unless `--out` says otherwise. Anything else
    /// prints the usage line and exits 2.
    pub fn parse(bin: &str, default_out: &str) -> Args {
        let mut args = Args { quick: false, out: default_out.to_string(), check: None };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--out" => args.out = it.next().unwrap_or_else(|| usage(bin)),
                "--check" => args.check = Some(it.next().unwrap_or_else(|| usage(bin))),
                _ => usage(bin),
            }
        }
        args
    }
}

fn usage(bin: &str) -> ! {
    eprintln!("usage: {bin} [--quick] [--out PATH] [--check BASELINE_PATH]");
    std::process::exit(2)
}

/// A report's `"name": [...]` array: one row object per line, comma
/// separated, indented the way every `BENCH_*.json` lays out its rows.
pub fn json_rows(name: &str, rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = rows.into_iter().map(|row| format!("    {row}")).collect();
    format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n"))
}

/// The number stored under `key` in a machine-written report.
///
/// `row` picks the object: the first `{...}` whose text contains it
/// (e.g. `"shape": "p"` or `"batch": 1`, which does not match
/// `"batch": 16`) and holds `key`. An empty `row` searches the whole
/// report, for top-level keys and keys that occur once. String scanning
/// rather than a JSON dependency: reports are flat rows written by this
/// crate, and the lookup does not depend on their line layout.
fn lookup(report: &str, row: &str, key: &str) -> Option<f64> {
    if row.is_empty() {
        return value_of(report, key);
    }
    report.match_indices(row).find_map(|(at, _)| {
        let end = at + row.len();
        if report[end..].starts_with(|c: char| c.is_ascii_digit() || c == '.') {
            return None;
        }
        let open = report[..end].rfind('{')?;
        let close = end + report[end..].find('}')?;
        value_of(&report[open..close], key)
    })
}

fn value_of(scope: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &scope[scope.find(&needle)? + needle.len()..];
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// One gated measurement: a value, an optional floor, and an optional
/// regression bound against the committed baseline.
pub struct Check {
    name: String,
    value: f64,
    floor: Option<f64>,
    bound: Option<(String, &'static str, f64)>,
}

impl Check {
    /// The measured `value`, named for failure lines.
    pub fn new(name: impl Into<String>, value: f64) -> Check {
        Check { name: name.into(), value, floor: None, bound: None }
    }

    /// A count that must be greater than zero.
    pub fn positive(name: impl Into<String>, count: u64) -> Check {
        Check::new(name, count as f64).floor(1.0)
    }

    /// Fail when the value is below `floor`.
    pub fn floor(mut self, floor: f64) -> Check {
        self.floor = Some(floor);
        self
    }

    /// Fail when the value is below the baseline's `key` in `row` divided
    /// by `factor`, or when the baseline lacks it. `row` is a marker such
    /// as `"shape": "p"` naming the row object; empty for a top-level key.
    pub fn against(mut self, row: impl Into<String>, key: &'static str, factor: f64) -> Check {
        self.bound = Some((row.into(), key, factor));
        self
    }

    /// This row's failures against `baseline`, one line each.
    fn failures(&self, baseline: &str) -> Vec<String> {
        let Check { name, value, .. } = self;
        let mut failed = Vec::new();
        if let Some(floor) = self.floor.filter(|&floor| *value < floor) {
            failed.push(format!("{name}: {} is below the {} floor", num(*value), num(floor)));
        }
        if let Some((row, key, factor)) = &self.bound {
            let at = match row.as_str() {
                "" => format!("top-level `{key}`"),
                row => format!("`{key}` in row `{row}`"),
            };
            match lookup(baseline, row, key) {
                None => failed.push(format!("{name}: the baseline has no {at}")),
                Some(committed) if *value < committed / factor => failed.push(format!(
                    "{name}: {} regressed more than {factor}x against the committed baseline \
                     ({at} is {})",
                    num(*value),
                    num(committed),
                )),
                Some(_) => {}
            }
        }
        failed
    }
}

/// Up to four decimals, trailing zeros dropped.
fn num(v: f64) -> String {
    let s = format!("{v:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Every failure of every check against `baseline`, in check order.
pub fn failures(checks: &[Check], baseline: &str) -> Vec<String> {
    checks.iter().flat_map(|c| c.failures(baseline)).collect()
}

/// The tail every reporter ends with: write `report` to `args.out` and
/// print it; under `--check`, evaluate every check against the baseline,
/// print each failure on its own line, and exit 1 if any failed.
pub fn finish(args: &Args, report: &str, checks: &[Check]) {
    std::fs::write(&args.out, report).unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    print!("{report}");
    println!("wrote {}", args.out);
    let Some(path) = &args.check else { return };
    let failed = match std::fs::read_to_string(path) {
        Ok(baseline) => failures(checks, &baseline),
        Err(e) => vec![format!("cannot read baseline {path}: {e}")],
    };
    if failed.is_empty() {
        println!("baseline check passed against {path}");
        return;
    }
    for f in &failed {
        eprintln!("baseline check FAILED: {f}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "mode": "full",
  "rows": [
    {"batch": 1, "speedup": 40.0},
    {"batch": 16, "speedup": 8.0}
  ],
  "scaling": 2.5
}
"#;

    /// Floor 10, and at least half the baseline's `speedup` in `row`.
    fn speedup(value: f64, row: &str) -> Check {
        Check::new("speedup", value).floor(10.0).against(row, "speedup", 2.0)
    }

    #[test]
    fn lookup_finds_rows_and_top_level_keys() {
        assert_eq!(lookup(BASELINE, "\"batch\": 1", "speedup"), Some(40.0));
        assert_eq!(lookup(BASELINE, "\"batch\": 16", "speedup"), Some(8.0));
        assert_eq!(lookup(BASELINE, "", "scaling"), Some(2.5));
        assert_eq!(lookup(BASELINE, "\"batch\": 2", "speedup"), None);
        assert_eq!(lookup(BASELINE, "\"batch\": 1", "ratio"), None);
    }

    #[test]
    fn lookup_survives_one_key_per_line() {
        let reindented = BASELINE.replace("{\"", "{\n      \"").replace(", \"", ",\n      \"");
        assert_ne!(reindented, BASELINE);
        assert_eq!(lookup(&reindented, "\"batch\": 1", "speedup"), Some(40.0));
        assert_eq!(lookup(&reindented, "\"batch\": 16", "speedup"), Some(8.0));
    }

    #[test]
    fn a_row_passes_above_floor_and_bound() {
        assert!(speedup(20.0, "\"batch\": 1").failures(BASELINE).is_empty());
        assert!(Check::positive("shed", 1).failures(BASELINE).is_empty());
    }

    #[test]
    fn a_row_fails_below_its_floor() {
        // 9 clears the batch-16 bound (8 / 2) but not the floor.
        let failed = speedup(9.0, "\"batch\": 16").failures(BASELINE);
        assert_eq!(failed, ["speedup: 9 is below the 10 floor"]);
    }

    #[test]
    fn a_row_fails_below_baseline_over_factor() {
        let failed = speedup(19.0, "\"batch\": 1").failures(BASELINE);
        assert_eq!(
            failed,
            ["speedup: 19 regressed more than 2x against the committed baseline \
              (`speedup` in row `\"batch\": 1` is 40)"]
        );
    }

    #[test]
    fn a_row_fails_on_a_missing_key_naming_row_and_key() {
        let failed = speedup(20.0, "\"batch\": 2").failures(BASELINE);
        assert_eq!(failed, ["speedup: the baseline has no `speedup` in row `\"batch\": 2`"]);
        let failed = Check::new("gone", 1.0).against("", "gone", 2.0).failures(BASELINE);
        assert_eq!(failed, ["gone: the baseline has no top-level `gone`"]);
    }

    #[test]
    fn every_failing_row_is_reported() {
        let checks = [
            speedup(5.0, "\"batch\": 1"),
            speedup(30.0, "\"batch\": 1"),
            Check::positive("acked", 0),
            Check::new("scaling", 0.1).against("", "scaling", 3.0),
        ];
        let failed = failures(&checks, BASELINE);
        assert_eq!(failed.len(), 4, "{failed:?}");
        assert!(failed[0].starts_with("speedup: 5 is below"), "{failed:?}");
        assert!(failed[1].starts_with("speedup: 5 regressed"), "{failed:?}");
        assert!(failed[2].starts_with("acked: 0 is below"), "{failed:?}");
        assert!(failed[3].starts_with("scaling: 0.1 regressed"), "{failed:?}");
    }
}
