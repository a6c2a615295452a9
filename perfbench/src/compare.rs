//! Compare mode: two result sets side by side, per workload and metric.
//!
//! A result set is a JSON-lines file, one run per line:
//! `{"workload": "…", "seed": N, "result": {…the run's last line…}}`
//! (`series.sh` in this directory writes them). For every metric the
//! table shows each side's median and quartiles and the median delta. A
//! delta smaller than the wider side's interquartile range is marked
//! "unresolved". Simulated results and exact counter ratios must not move
//! at all under a change that claims not to touch the model, so any
//! difference in them on a seed both sides ran is marked "model changed".

use std::collections::BTreeMap;

use conzone_sim::json::{self, Json};

use crate::stats::{median, quartiles};

/// Per-layer metrics that are exact counter ratios: equal for equal seeds
/// unless the simulated model changed.
const EXACT_LAYER_METRICS: [&str; 7] = [
    "ftl.l2p_miss_ratio",
    "ftl.mapping_reads_per_op",
    "core.premature_flushes_per_op",
    "core.buffer_conflicts_per_op",
    "core.gc_migrated_slices_per_op",
    "flash.data_reads_per_op",
    "flash.erases_per_gib",
];

fn is_exact(metric: &str) -> bool {
    metric.starts_with("sim_") || metric == "waf" || EXACT_LAYER_METRICS.contains(&metric)
}

/// `(seed, value)` per run, by workload then metric.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

/// How one metric's two sides relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// An exact metric reads the same on both sides.
    Identical,
    /// An exact metric differs: the simulated model changed.
    ModelChanged,
    /// The delta exceeds the spread of both sides.
    Resolved,
    /// The spread of either side exceeds the delta, or a side has too few
    /// runs to tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::ModelChanged => "model changed",
            Verdict::Resolved => "resolved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from each side's `(seed, value)` runs.
pub fn verdict(metric: &str, a: &[(u64, f64)], b: &[(u64, f64)]) -> Verdict {
    let values = |side: &[(u64, f64)]| side.iter().map(|&(_, v)| v).collect::<Vec<_>>();
    let (va, vb) = (values(a), values(b));
    let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
        return Verdict::Unresolved;
    };
    if is_exact(metric) {
        let common: Vec<bool> = a
            .iter()
            .filter_map(|&(seed, x)| {
                b.iter()
                    .find(|&&(s, _)| s == seed)
                    .map(|&(_, y)| x.to_bits() == y.to_bits())
            })
            .collect();
        let same = if common.is_empty() {
            ma.to_bits() == mb.to_bits()
        } else {
            common.iter().all(|&s| s)
        };
        return if same {
            Verdict::Identical
        } else {
            Verdict::ModelChanged
        };
    }
    match (quartiles(&va), quartiles(&vb)) {
        (Some((a1, a3)), Some((b1, b3))) if (mb - ma).abs() > (a3 - a1).max(b3 - b1) => {
            Verdict::Resolved
        }
        _ => Verdict::Unresolved,
    }
}

fn load(path: &str) -> Result<(ResultSet, BTreeMap<String, String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet::new();
    let mut units = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let run = json::parse(line).map_err(|e| bad(&e.to_string()))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = run.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let result = run.get("result").ok_or_else(|| bad("no result"))?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            eprintln!(
                "{}: run of {workload} seed {seed} was not correct",
                bad("warning")
            );
        }
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric without a value"))?;
            if let Some(unit) = m.get("unit").and_then(Json::as_str) {
                units.insert(name.clone(), unit.to_string());
            }
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push((seed, value));
        }
    }
    Ok((set, units))
}

fn side(values: &[(u64, f64)]) -> String {
    let v: Vec<f64> = values.iter().map(|&(_, x)| x).collect();
    match (median(&v), quartiles(&v)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", v.len()),
        (Some(m), None) => format!("{m:.6} n={}", v.len()),
        _ => "-".to_string(),
    }
}

/// `compare A.jsonl B.jsonl`; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let [a_path, b_path] = args else {
        eprintln!("usage: conzone-perfbench compare A.jsonl B.jsonl");
        return 2;
    };
    let ((a, mut units), (b, b_units)) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    units.extend(b_units);
    let empty = BTreeMap::new();
    let workloads: Vec<&String> = a
        .keys()
        .chain(b.keys().filter(|w| !a.contains_key(*w)))
        .collect();
    for w in workloads {
        println!("{w}");
        let (ma, mb) = (a.get(w).unwrap_or(&empty), b.get(w).unwrap_or(&empty));
        let names: Vec<&String> = ma
            .keys()
            .chain(mb.keys().filter(|m| !ma.contains_key(*m)))
            .collect();
        for name in names {
            let (va, vb) = (
                ma.get(name).map_or(&[][..], Vec::as_slice),
                mb.get(name).map_or(&[][..], Vec::as_slice),
            );
            let med = |v: &[(u64, f64)]| median(&v.iter().map(|&(_, x)| x).collect::<Vec<_>>());
            let delta = match (med(va), med(vb)) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:+.2}%", (y - x) / x.abs() * 100.0),
                (Some(x), Some(y)) => format!("{:+.6}", y - x),
                _ => "-".to_string(),
            };
            println!(
                "  {name:32} {:10} A {:44} B {:44} {delta:>10}  {}",
                units.get(name).map_or("", String::as_str),
                side(va),
                side(vb),
                verdict(name, va, vb).label()
            );
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn exact_metrics_flag_any_change() {
        let a = runs(&[1.5, 1.5, 2.0]);
        assert_eq!(verdict("waf", &a, &a), Verdict::Identical);
        let b = runs(&[1.5, 1.5, 2.000001]);
        assert_eq!(verdict("waf", &a, &b), Verdict::ModelChanged);
        assert_eq!(verdict("sim_kiops", &a, &b), Verdict::ModelChanged);
        assert_eq!(
            verdict("core.gc_migrated_slices_per_op", &a, &b),
            Verdict::ModelChanged
        );
    }

    #[test]
    fn timings_are_resolved_only_beyond_the_spread() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let near = runs(&[100.4, 101.4, 99.4, 100.9, 99.9]);
        let far = runs(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        assert_eq!(verdict("ops_per_s", &a, &near), Verdict::Unresolved);
        assert_eq!(verdict("ops_per_s", &a, &far), Verdict::Resolved);
        assert_eq!(
            verdict("ops_per_s", &a, &runs(&[120.0])),
            Verdict::Unresolved
        );
    }

    #[test]
    fn loads_series_lines() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("a.jsonl");
        std::fs::write(
            &path,
            "{\"workload\":\"w\",\"seed\":3,\"result\":{\"correct\":true,\"attempted\":1,\
             \"failed\":0,\"metrics\":{\"ops_per_s\":{\"value\":2.5,\"unit\":\"ops/s\"}}}}\n",
        )
        .expect("write");
        let (set, units) = load(path.to_str().expect("utf-8 path")).expect("parses");
        assert_eq!(set["w"]["ops_per_s"], vec![(3, 2.5)]);
        assert_eq!(units["ops_per_s"], "ops/s");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
