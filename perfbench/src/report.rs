//! Metric names, the declared metric set, and the result line.
//!
//! `BENCHMARK.json` at the repository root declares every metric by name and
//! unit. A run prints exactly the declared `end_to_end` metrics (untraced)
//! or `per_layer` metrics (traced); [`Metrics::check_declared`] refuses a
//! run whose metric set has drifted from the file.

use hymm_bench::json::{esc, parse_json, Json};
use std::collections::BTreeMap;

/// Maximum length of a metric name.
const MAX_NAME: usize = 64;
/// Maximum length of a unit.
const MAX_UNIT: usize = 16;

/// A metric name: 1 to 64 letters, digits, `_`, `.` or `-`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= MAX_NAME
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= MAX_UNIT
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Named measurements of one run, in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records one metric. Panics on a malformed name or unit, a repeated
    /// name or a non-finite value: each is a bug in this benchmark.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "malformed metric name {name:?}");
        assert!(valid_unit(unit), "malformed unit {unit:?} for {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        let previous = self.values.insert(name.clone(), (value, unit));
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// Checks the recorded names and units against the `section`
    /// (`end_to_end` or `per_layer`) of a `BENCHMARK.json` document.
    pub fn check_declared(&self, benchmark_json: &str, section: &str) -> Result<(), String> {
        let doc = parse_json(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let Some(Json::Arr(entries)) = doc.get(section) else {
            return Err(format!("BENCHMARK.json has no {section} list"));
        };
        let mut declared = BTreeMap::new();
        for e in entries {
            let (Some(name), Some(unit)) = (
                e.get("name").and_then(Json::as_str),
                e.get("unit").and_then(Json::as_str),
            ) else {
                return Err(format!("{section} entry without name or unit"));
            };
            declared.insert(name.to_string(), unit.to_string());
        }
        for (name, unit) in &declared {
            match self.values.get(name) {
                None => return Err(format!("declared {section} metric {name} was not measured")),
                Some((_, u)) if u != unit => {
                    return Err(format!("{name} measured in {u}, declared in {unit}"))
                }
                Some(_) => {}
            }
        }
        if let Some(extra) = self.values.keys().find(|n| !declared.contains_key(*n)) {
            return Err(format!("metric {extra} is not declared in {section}"));
        }
        Ok(())
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    esc(name),
                    esc(unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
        )
    }

    /// One `name = value unit` line per metric, for people reading the log.
    pub fn human_lines(&self) -> Vec<String> {
        self.values
            .iter()
            .map(|(name, (value, unit))| format!("  {name:<40} {value:>16.6} {unit}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in [
            "setup_s",
            "p50_ms",
            "core.stall_share.dmb-miss.HyMM-noacc",
            "0start",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "uni\u{e9}",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn unit_grammar() {
        for ok in ["ms", "s", "1/s", "count", "%", "ns/cycle", "x"] {
            assert!(valid_unit(ok), "{ok} should be valid");
        }
        for bad in ["", "m s", "ratio!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.203_456_789_012_3, "ms");
        m.put("setup_s", 0.5, "s");
        let line = m.result_line(true, 7, 0);
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(7.0));
        let v = doc
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(v, Some(1.203_456_789_012_3));
    }

    #[test]
    fn declared_set_must_match_exactly() {
        let doc =
            r#"{"end_to_end": [{"name": "a_ms", "unit": "ms"}, {"name": "b_s", "unit": "s"}]}"#;
        let mut m = Metrics::default();
        m.put("a_ms", 1.0, "ms");
        assert!(m.check_declared(doc, "end_to_end").is_err(), "b_s missing");
        m.put("b_s", 1.0, "s");
        assert!(m.check_declared(doc, "end_to_end").is_ok());
        m.put("c_s", 1.0, "s");
        assert!(m.check_declared(doc, "end_to_end").is_err(), "c_s extra");
        let mut wrong_unit = Metrics::default();
        wrong_unit.put("a_ms", 1.0, "s");
        wrong_unit.put("b_s", 1.0, "s");
        assert!(wrong_unit.check_declared(doc, "end_to_end").is_err());
    }

    #[test]
    fn committed_benchmark_json_uses_the_grammar() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = parse_json(&text).unwrap();
        for section in ["workloads", "end_to_end", "per_layer"] {
            let Some(Json::Arr(entries)) = doc.get(section) else {
                panic!("{section} missing");
            };
            for e in entries {
                let name = e.get("name").and_then(Json::as_str).unwrap();
                assert!(valid_name(name), "{section}: {name}");
                if let Some(unit) = e.get("unit").and_then(Json::as_str) {
                    assert!(valid_unit(unit), "{section}: {name} unit {unit}");
                }
            }
        }
    }
}
