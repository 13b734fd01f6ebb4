//! `simdht-benchmark compare <setA> <setB>`: per (workload, end-to-end
//! metric) medians, quartiles, the ratio with its base, and pass/fail
//! against the bounds in `BENCHMARK.json`. A set is a directory of run
//! records; traced and smoke records in it are ignored. Used for the
//! same-commit agreement check and for paired parent/change runs.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::Summary;

/// `workload → metric → one value per run`.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

/// Fold one run record into `set`. Returns false for records that do not
/// count: traced, smoke, or not a run record at all.
pub fn add_record(set: &mut RunSet, record: &Json) -> bool {
    let flag = |k: &str| record.get(k).and_then(Json::as_bool).unwrap_or(false);
    let (Some(workload), Some(Json::Obj(metrics))) = (
        record.get("workload").and_then(Json::as_str),
        record.get("metrics"),
    ) else {
        return false;
    };
    if flag("trace") || flag("smoke") {
        return false;
    }
    let per_metric = set.entry(workload.to_string()).or_default();
    for (name, m) in metrics {
        if let Some(v) = m.get("value").and_then(Json::as_f64) {
            per_metric.entry(name.clone()).or_default().push(v);
        }
    }
    true
}

pub fn load_set(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut used = 0;
    for path in paths {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        // Trace span files and foreign JSON are skipped, not errors.
        if let Ok(record) = Json::parse(&text) {
            used += usize::from(add_record(&mut set, &record));
        }
    }
    if used == 0 {
        return Err(format!("{}: no untraced run records", dir.display()));
    }
    Ok(set)
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Summary,
    pub b: Summary,
    /// How much worse B's median is than A's, as a share of A's (negative =
    /// better).
    pub worse_by: f64,
    pub bound: f64,
    pub pass: bool,
}

pub fn compare_sets(a: &RunSet, b: &RunSet, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for bound in bounds {
            let (Some(av), Some(bv)) = (a_metrics.get(&bound.name), b_metrics.get(&bound.name))
            else {
                continue;
            };
            let (sa, sb) = (Summary::of(av), Summary::of(bv));
            let change = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median.abs()
            };
            let worse_by = if bound.higher_is_better {
                -change
            } else {
                change
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                a: sa,
                b: sb,
                worse_by,
                bound: bound.bound,
                pass: worse_by <= bound.bound,
            });
        }
    }
    rows
}

/// Print the table; true when every row passes.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<13} {:<22} {:>13} {:>21} {:>13} {:>21} {:>8} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] (n)",
        "B median",
        "B [q1, q3] (n)",
        "B/A",
        "worse",
        "bound"
    );
    for r in rows {
        let iqr = |s: &Summary| format!("[{:.4}, {:.4}] ({})", s.q1, s.q3, s.n);
        // A spread wider than the bound means the verdict is unresolved,
        // whatever the medians say.
        let unresolved = r.a.spread().max(r.b.spread()) > r.bound;
        println!(
            "{:<13} {:<22} {:>13.4} {:>21} {:>13.4} {:>21} {:>8.4} {:>+7.2}% {:>6.2}%  {}",
            r.workload,
            r.metric,
            r.a.median,
            iqr(&r.a),
            r.b.median,
            iqr(&r.b),
            if r.a.median == 0.0 {
                1.0
            } else {
                r.b.median / r.a.median
            },
            r.worse_by * 100.0,
            r.bound * 100.0,
            match (r.pass, unresolved) {
                (false, _) => "WORSE THAN BOUND",
                (true, true) => "ok (spread exceeds bound)",
                (true, false) => "ok",
            }
        );
    }
    let failed = rows.iter().filter(|r| !r.pass).count();
    println!(
        "{} of {} (workload, metric) pairs within bound (ratios are B over base A)",
        rows.len() - failed,
        rows.len()
    );
    failed == 0 && !rows.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, keys: f64, p50: f64, trace: bool) -> Json {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(trace)),
            ("smoke", Json::Bool(false)),
            (
                "metrics",
                Json::obj([
                    ("keys_per_s", metric(keys, "1/s")),
                    ("req_p50_us", metric(p50, "us")),
                ]),
            ),
        ])
    }

    fn bounds() -> Vec<Bound> {
        vec![
            Bound {
                name: "keys_per_s".into(),
                higher_is_better: true,
                bound: 0.08,
            },
            Bound {
                name: "req_p50_us".into(),
                higher_is_better: false,
                bound: 0.10,
            },
        ]
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let mut a = RunSet::new();
        let mut b = RunSet::new();
        for k in [100.0, 102.0, 98.0] {
            assert!(add_record(&mut a, &record("w", k, 10.0, false)));
        }
        // 5 % fewer keys/s (within 8 %), 20 % slower p50 (beyond 10 %).
        for k in [95.0, 96.0, 94.0] {
            assert!(add_record(&mut b, &record("w", k, 12.0, false)));
        }
        assert!(
            !add_record(&mut b, &record("w", 1.0, 99.0, true)),
            "traced runs are ignored"
        );
        assert!(!add_record(
            &mut b,
            &Json::obj([("spans", Json::Arr(vec![]))])
        ));
        let rows = compare_sets(&a, &b, &bounds());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].a.n, 3);
        assert!((rows[0].worse_by - 0.05).abs() < 1e-12 && rows[0].pass);
        assert!((rows[1].worse_by - 0.20).abs() < 1e-12 && !rows[1].pass);
        // Better in both directions passes trivially.
        let rows = compare_sets(&b, &a, &bounds());
        assert!(rows.iter().all(|r| r.pass && r.worse_by < 0.0));
    }
}
