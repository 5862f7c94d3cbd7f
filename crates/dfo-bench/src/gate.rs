//! The bench-regression gate: parses the `BENCH_*.json` trajectory files
//! and compares a fresh bench run against the committed baseline.
//!
//! Policy (enforced by the `bench_gate` binary via `tools/bench_gate.sh`
//! in CI):
//!
//! * numeric leaves whose key path mentions `bytes` are **hard-gated**: a
//!   fresh value more than 5 % above the baseline fails the build — byte
//!   counts are deterministic in this simulator, so drift means a real
//!   I/O regression;
//! * leaves mentioning `wall` or `secs` only **warn** — CI wall-clock is
//!   noise;
//! * other numerics (hit counts, iteration counts) are ignored by the
//!   gate — the benches assert their own invariants on those;
//! * a numeric baseline key missing from the fresh run hard-fails (schema
//!   must evolve by updating the baseline, not by dropping metrics);
//!   string metadata keys (`workload`, `recorded`, …) are ignored.
//!
//! Documents are parsed by [`dfo_obs::json`] — the workspace's one JSON
//! reader (it is offline, so no serde).

use dfo_obs::json::JsonValue;
use std::fmt;

/// True when this subtree contains at least one number.
fn has_numbers(v: &JsonValue) -> bool {
    match v {
        JsonValue::Num(_) => true,
        JsonValue::Arr(items) => items.iter().any(has_numbers),
        JsonValue::Obj(fields) => fields.iter().any(|(_, v)| has_numbers(v)),
        _ => false,
    }
}

/// Severity of one gate finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Byte-metric regression or schema break: fails the build.
    Fail,
    /// Wall-clock drift: reported, never fails.
    Warn,
}

/// One comparison finding.
#[derive(Clone, Debug)]
pub struct Finding {
    pub severity: Severity,
    pub path: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Fail => "FAIL",
            Severity::Warn => "warn",
        };
        write!(f, "[{tag}] {}: {}", self.path, self.message)
    }
}

/// Fractional headroom for byte metrics (5 %).
pub const BYTE_TOLERANCE: f64 = 0.05;
/// Fractional headroom before a wall-clock warning (25 %).
pub const WALL_TOLERANCE: f64 = 0.25;

fn is_byte_metric(path: &str) -> bool {
    path.to_ascii_lowercase().contains("bytes")
}

fn is_wall_metric(path: &str) -> bool {
    let p = path.to_ascii_lowercase();
    p.contains("wall") || p.contains("secs")
}

/// Compares `fresh` against `baseline`, returning every finding. An empty
/// `Fail` set means the gate passes.
pub fn compare(baseline: &JsonValue, fresh: &JsonValue) -> Vec<Finding> {
    let mut findings = Vec::new();
    walk(baseline, fresh, "$", &mut findings);
    findings
}

fn walk(base: &JsonValue, fresh: &JsonValue, path: &str, out: &mut Vec<Finding>) {
    match (base, fresh) {
        (JsonValue::Obj(bm), JsonValue::Obj(_)) => {
            // findings come out in key order, whatever order the file used
            let mut fields: Vec<&(String, JsonValue)> = bm.iter().collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            for (k, bv) in fields {
                match fresh.get(k) {
                    Some(fv) => walk(bv, fv, &format!("{path}.{k}"), out),
                    None if has_numbers(bv) => out.push(Finding {
                        severity: Severity::Fail,
                        path: format!("{path}.{k}"),
                        message: "metric present in baseline but missing from fresh run \
                                  (update the baseline if the schema changed)"
                            .into(),
                    }),
                    None => {} // string metadata may be baseline-only
                }
            }
        }
        (JsonValue::Arr(ba), JsonValue::Arr(fa)) => {
            if ba.len() != fa.len() && ba.iter().any(has_numbers) {
                out.push(Finding {
                    severity: Severity::Fail,
                    path: path.into(),
                    message: format!("array length changed: {} -> {}", ba.len(), fa.len()),
                });
                return;
            }
            for (i, (bv, fv)) in ba.iter().zip(fa).enumerate() {
                walk(bv, fv, &format!("{path}[{i}]"), out);
            }
        }
        (JsonValue::Num(b), JsonValue::Num(f)) => {
            if is_byte_metric(path) {
                let limit = b * (1.0 + BYTE_TOLERANCE);
                if *f > limit {
                    out.push(Finding {
                        severity: Severity::Fail,
                        path: path.into(),
                        message: format!(
                            "byte metric regressed: {b:.0} -> {f:.0} (+{:.1}%, limit +{:.0}%)",
                            (f / b - 1.0) * 100.0,
                            BYTE_TOLERANCE * 100.0
                        ),
                    });
                }
            } else if is_wall_metric(path) {
                let limit = b * (1.0 + WALL_TOLERANCE);
                if *f > limit {
                    out.push(Finding {
                        severity: Severity::Warn,
                        path: path.into(),
                        message: format!(
                            "wall-clock drifted: {b:.3} -> {f:.3} (+{:.0}%; warn-only)",
                            (f / b - 1.0) * 100.0
                        ),
                    });
                }
            }
        }
        (b, f) if std::mem::discriminant(b) != std::mem::discriminant(f) && has_numbers(b) => {
            out.push(Finding {
                severity: Severity::Fail,
                path: path.into(),
                message: "value type changed between baseline and fresh run".into(),
            });
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfo_obs::json::parse;

    fn fails(findings: &[Finding]) -> usize {
        findings.iter().filter(|f| f.severity == Severity::Fail).count()
    }

    #[test]
    fn parses_the_bench_shapes() {
        let j = parse(
            r#"{"bench":"x","iters":5,"a":{"wall_secs":0.118,"read_bytes_per_iter":[1,2,3],
                "note":"free text, with ] and } inside"},"ok":true,"n":null,"f":-1.5e3}"#,
        )
        .unwrap();
        assert_eq!(j.get("iters"), Some(&JsonValue::Num(5.0)));
        assert_eq!(j.get("f"), Some(&JsonValue::Num(-1500.0)));
        let per_iter = j.get("a").and_then(|a| a.get("read_bytes_per_iter")).unwrap();
        assert_eq!(
            per_iter,
            &JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0), JsonValue::Num(3.0)])
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn identical_runs_pass() {
        let b = parse(r#"{"total_read_bytes":1000,"wall_secs":0.1}"#).unwrap();
        assert!(compare(&b, &b).is_empty());
    }

    #[test]
    fn small_byte_improvement_and_headroom_pass() {
        let b = parse(r#"{"total_read_bytes":1000}"#).unwrap();
        for fresh in [r#"{"total_read_bytes":900}"#, r#"{"total_read_bytes":1049}"#] {
            let f = parse(fresh).unwrap();
            assert!(compare(&b, &f).is_empty(), "{fresh}");
        }
    }

    #[test]
    fn byte_regression_fails() {
        let b = parse(r#"{"x":{"total_read_bytes":1000}}"#).unwrap();
        let f = parse(r#"{"x":{"total_read_bytes":1051}}"#).unwrap();
        let findings = compare(&b, &f);
        assert_eq!(fails(&findings), 1, "{findings:?}");
        assert!(findings[0].path.contains("total_read_bytes"));
    }

    #[test]
    fn per_iteration_arrays_gate_elementwise() {
        let b = parse(r#"{"read_bytes_per_iter":[100,50,50]}"#).unwrap();
        let ok = parse(r#"{"read_bytes_per_iter":[100,52,49]}"#).unwrap();
        assert_eq!(fails(&compare(&b, &ok)), 0);
        let bad = parse(r#"{"read_bytes_per_iter":[100,50,80]}"#).unwrap();
        assert_eq!(fails(&compare(&b, &bad)), 1);
        let reshaped = parse(r#"{"read_bytes_per_iter":[100,50]}"#).unwrap();
        assert_eq!(fails(&compare(&b, &reshaped)), 1);
    }

    #[test]
    fn wall_clock_only_warns() {
        let b = parse(r#"{"wall_secs":0.1}"#).unwrap();
        let f = parse(r#"{"wall_secs":9.0}"#).unwrap();
        let findings = compare(&b, &f);
        assert_eq!(fails(&findings), 0);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Warn);
    }

    #[test]
    fn missing_numeric_metric_fails_missing_metadata_does_not() {
        let b = parse(r#"{"workload":"text","total_read_bytes":10,"hits":5}"#).unwrap();
        let f = parse(r#"{"hits":5}"#).unwrap();
        let findings = compare(&b, &f);
        assert_eq!(fails(&findings), 1, "{findings:?}");
        assert!(findings[0].path.contains("total_read_bytes"));
        // extra keys in the fresh run are fine (schema growth)
        let f2 =
            parse(r#"{"workload":"text","total_read_bytes":10,"hits":5,"new_metric_bytes":1}"#)
                .unwrap();
        assert!(compare(&b, &f2).is_empty());
    }

    #[test]
    fn non_byte_counters_are_not_gated() {
        let b = parse(r#"{"cache_hits":182,"iters":5}"#).unwrap();
        let f = parse(r#"{"cache_hits":10,"iters":5}"#).unwrap();
        assert!(compare(&b, &f).is_empty());
    }
}
