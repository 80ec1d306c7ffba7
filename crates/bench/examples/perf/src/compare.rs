//! `perf compare <base.jsonl> <new.jsonl>`: two commits' runs side by
//! side.
//!
//! Each file holds the records `--json` appended, any number of runs of
//! any workloads. For every workload × end-to-end metric it prints both
//! sides' median and quartiles and a verdict: better, within bound,
//! worse, or unresolved when the base's own spread is wider than the
//! bound. Work counts and digests of runs with the same workload and
//! seed must match exactly. Returns `Ok(false)` on any worse verdict,
//! count drift or failed gate.

use std::collections::BTreeMap;
use std::path::Path;

use ragnar_harness::Value;

use crate::metrics::END_TO_END;
use crate::stats::{quartiles, verdict, worsening, Verdict};

fn load(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Value::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// Untraced values of `metric` on `workload`, in file order.
fn values(records: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_bool) == Some(false))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// `(workload, seed, traced)` → the first such record's encoded counts
/// and digests.
fn fingerprints(records: &[Value]) -> BTreeMap<(String, i64, bool), (String, String)> {
    let mut out = BTreeMap::new();
    for r in records {
        let (Some(w), Some(seed), Some(traced)) = (
            r.get("workload").and_then(Value::as_str),
            r.get("seed").and_then(Value::as_i64),
            r.get("trace").and_then(Value::as_bool),
        ) else {
            continue;
        };
        let enc = |k: &str| r.get(k).map(Value::encode).unwrap_or_default();
        out.entry((w.to_string(), seed, traced))
            .or_insert_with(|| (enc("counts"), enc("digests")));
    }
    out
}

pub fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let base = load(base_path)?;
    let new = load(new_path)?;
    let mut ok = true;
    for (side, records) in [("base", &base), ("new", &new)] {
        for r in records.iter() {
            if r.get("correct").and_then(Value::as_bool) != Some(true) {
                ok = false;
                println!(
                    "{side}: {} seed {} failed its gates",
                    r.get("workload").and_then(Value::as_str).unwrap_or("?"),
                    r.get("seed").and_then(Value::as_i64).unwrap_or(-1)
                );
            }
        }
    }
    println!(
        "{:<17} {:<12} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "base median [q1, q3] (n)",
        "new median [q1, q3] (n)",
        "change",
        "bound"
    );
    for w in crate::WORKLOADS {
        for m in &END_TO_END {
            let (b, n) = (values(&base, w, m.name), values(&new, w, m.name));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let (bq1, bmed, bq3) = quartiles(&b);
            let (nq1, nmed, nq3) = quartiles(&n);
            let v = verdict(&b, &n, m.better, m.bound);
            ok &= v != Verdict::Worse;
            println!(
                "{w:<17} {:<12} {:>28} {:>28} {:>+7.1}% {:>5.0}%  {}",
                m.name,
                format!("{bmed:.4} [{bq1:.4}, {bq3:.4}] ({})", b.len()),
                format!("{nmed:.4} [{nq1:.4}, {nq3:.4}] ({})", n.len()),
                100.0 * worsening(bmed, nmed, m.better),
                100.0 * m.bound,
                v.name()
            );
        }
    }
    let (fb, fnew) = (fingerprints(&base), fingerprints(&new));
    let mut matched = 0;
    for (key, (counts, digests)) in &fb {
        let Some((c2, d2)) = fnew.get(key) else {
            continue;
        };
        matched += 1;
        if counts != c2 || digests != d2 {
            ok = false;
            println!("count drift: {} seed {} trace {}", key.0, key.1, key.2);
            println!("  base counts {counts}\n  new  counts {c2}");
            println!("  base digests {digests}\n  new  digests {d2}");
        }
    }
    println!(
        "{matched} (workload, seed, trace) records compared exactly; {}",
        if ok { "no regression" } else { "REGRESSION" }
    );
    Ok(ok)
}
