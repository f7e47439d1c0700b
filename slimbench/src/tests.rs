//! Tests of the benchmark itself: its statistics, its output, and a
//! Smoke-size pass over every workload.

use std::collections::BTreeMap;

use crate::report::{
    self, beyond, highest_supported, median, percentile, valid_name, Layers, Metric,
};
use crate::workload::{Budget, Plan, Run, SMOKE};
use crate::{run_workload, Tracer, WORKLOADS};

fn smoke(workload: &str, rounds: usize, traced: bool) -> Run {
    let plan = Plan {
        size: SMOKE,
        seed: 0xC0FFEE,
        budget: Budget::Rounds(rounds),
        traced,
        tracer: Tracer::new(),
    };
    run_workload(workload, &plan).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(beyond(999, 0.99), 9);
    assert_eq!(highest_supported(10_000), Some(0.999));
    assert_eq!(highest_supported(1000), Some(0.99));
    assert_eq!(highest_supported(999), Some(0.95));
    assert_eq!(highest_supported(40), Some(0.75));
    assert_eq!(highest_supported(19), None);
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(
        percentile(&samples, 0.99),
        990.0,
        "nearest rank, ten samples above"
    );
    assert_eq!(percentile(&samples, 0.5), 500.0);
}

#[test]
fn scalars_are_medians_of_rounds() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn metric_names_are_checked() {
    for good in ["setup_s", "slimpad.commit.self_pct", "a-b", "9lives"] {
        assert!(valid_name(good), "{good}");
    }
    for bad in ["", ".x", "_x", "with space", "slash/name", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
    let m = |name: &str, value| Metric {
        name: name.to_string(),
        value,
        unit: "ms",
    };
    assert_eq!(report::check(&[m("ok", 1.0)]).len(), 0);
    assert_eq!(report::check(&[m("ok", f64::NAN)]).len(), 1);
    assert_eq!(report::check(&[m("ok", 1.0), m("ok", 2.0)]).len(), 1);
}

/// `(name, unit)` of each metric in a `BENCHMARK.json` list.
type Declared = Vec<(String, String)>;

/// The `BENCHMARK.json` next to this package: workload names, end-to-end
/// metrics, per-layer metrics.
fn declared() -> (Vec<String>, Declared, Declared) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| {
        json.get(key)
            .and_then(Json::array)
            .unwrap_or_else(|| panic!("{key} list"))
    };
    let named = |key: &str| -> Vec<(String, String)> {
        list(key)
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::string).unwrap(),
                    m.get("unit").and_then(Json::string).unwrap(),
                )
            })
            .collect()
    };
    let workloads = list("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::string).unwrap())
        .collect();
    (workloads, named("end_to_end"), named("per_layer"))
}

#[test]
fn emitted_metrics_are_the_declared_ones() {
    let (workloads, e2e, per_layer) = declared();
    assert_eq!(workloads, WORKLOADS);
    let emitted = smoke("triple_service", 1, false).e2e.metrics();
    let names = |ms: &[Metric]| {
        ms.iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&emitted), e2e);
    let layers = Layers::default().metrics().unwrap();
    assert_eq!(names(&layers), per_layer);
    assert!(layers.len() <= 128 && emitted.len() <= 16);
    for m in emitted.iter().chain(&layers) {
        assert!(valid_name(&m.name), "{}", m.name);
    }
}

#[test]
fn result_line_parses_as_json() {
    let metrics = vec![
        Metric {
            name: "op_p50_ms".into(),
            value: 0.0123456789,
            unit: "ms",
        },
        Metric {
            name: "ops_per_s".into(),
            value: 1234.5,
            unit: "1/s",
        },
    ];
    let line = report::result_line(true, 7, 0, &metrics);
    let json = Json::parse(&line).expect("result line parses");
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(json.get("attempted"), Some(&Json::Num(7.0)));
    let p50 = json
        .get("metrics")
        .and_then(|m| m.get("op_p50_ms"))
        .unwrap();
    assert_eq!(
        p50.get("value"),
        Some(&Json::Num(0.0123456789)),
        "every digit survives"
    );
    assert_eq!(
        p50.get("unit").and_then(Json::string).as_deref(),
        Some("ms")
    );
}

#[test]
fn every_workload_passes_at_smoke_size() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let run = smoke(workload, 2, traced);
            assert!(run.problems.is_empty(), "{workload}: {:?}", run.problems);
            assert_eq!(run.failed, 0, "{workload}");
            assert!(run.attempted > 0, "{workload}");
            let metrics = if traced {
                run.layers.metrics().unwrap()
            } else {
                run.e2e.metrics()
            };
            assert!(
                report::check(&metrics).is_empty(),
                "{workload}: {:?}",
                report::check(&metrics)
            );
            let line = report::result_line(true, run.attempted, run.failed, &metrics);
            Json::parse(&line).unwrap_or_else(|| panic!("{workload}: {line}"));
            if traced {
                let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
                assert!(
                    value("slimio.ms_total") > 0.0,
                    "{workload}: storage was timed"
                );
                assert!(
                    value("trace.op_ms_total") > 0.0,
                    "{workload}: ops were timed"
                );
            } else {
                for m in &metrics {
                    assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
                }
            }
        }
    }
}

#[test]
fn same_seed_gives_identical_storage_counts() {
    let a = smoke("rounds_read", 2, true);
    let b = smoke("rounds_read", 2, true);
    assert_eq!(a.io, b.io);
    assert!(a.io.appends > 0, "the trace commits");
    let slimio = |run: &Run| -> BTreeMap<String, f64> {
        run.layers
            .metrics()
            .unwrap()
            .into_iter()
            .filter(|m| m.name.starts_with("slimio.") && m.unit != "ms" && m.unit != "%")
            .map(|m| (m.name, m.value))
            .collect()
    };
    assert_eq!(slimio(&a), slimio(&b));
}

/// Just enough JSON to check what the benchmark writes and reads.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn string(&self) -> Option<String> {
        match self {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        (self.s.get(self.i) == Some(&c)).then(|| self.i += 1)
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value()? else {
                        return None;
                    };
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    if self.eat(b'}').is_some() {
                        return Some(Json::Obj(fields));
                    }
                    self.eat(b',')?;
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']').is_some() {
                        return Some(Json::Arr(items));
                    }
                    self.eat(b',')?;
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match *self.s.get(self.i)? {
                        b'"' => break,
                        b'\\' => {
                            self.i += 1;
                            out.push(*self.s.get(self.i)? as char);
                        }
                        c => out.push(c as char),
                    }
                    self.i += 1;
                }
                self.i += 1;
                Some(Json::Str(out))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return Some(v);
                    }
                }
                None
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Json::Num)
            }
        }
    }
}
