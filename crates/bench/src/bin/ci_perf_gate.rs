//! CI performance-regression gate over `bench_m2xfp_json` reports.
//!
//! Usage: `ci_perf_gate <current.json> <baseline.json>`
//!
//! Compares a fresh `--profile ci` report (`results/BENCH_ci.json`)
//! against the committed `results/BENCH_ci_baseline.json`. Both are
//! flattened to `path.to.leaf` keys, and each leaf's check follows from
//! its name and value alone, so no key list is kept here:
//!
//! | Leaf | Check | Missing from current, baseline has it | `null` |
//! |---|---|---|---|
//! | boolean | hard: `false` fails | fails | skipped |
//! | name starts `speedup_` | hard: fails below 0.75 × baseline | fails | skipped |
//! | any leaf under a `cfg` object | hard: must equal the baseline | fails (must be on both sides) | — |
//! | name ends `_s`, `_ms` or `_us`, not `_per_s` | warning only, above 1.25 × baseline | — | — |
//! | anything else | not compared | — | — |
//!
//! Booleans are exactness and leak witnesses: a `false` is a correctness
//! loss, never a perf question. The `speedup_*` ratios time both sides in
//! the same process, so a drop is a code regression whatever the runner's
//! speed; absolute times follow the runner, which is why they only warn.
//! A `cfg` mismatch means the two runs measured different work. Losing a
//! hard-gated key fails, since silently disarming a gate is itself a
//! regression; an explicit `null` is a measurement the host cannot take.
//! The exit code is non-zero when any hard check fails. Reports are read
//! with the workspace's own JSON parser (`m2x_gateway::json`) — the
//! workspace builds offline, with no serde.

use m2x_gateway::json::{parse, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::process::ExitCode;

/// Allowed fractional regression: a `speedup_*` ratio fails below
/// `1 - TOLERANCE` of its baseline, a time warns above `1 + TOLERANCE`.
const TOLERANCE: f64 = 0.25;

/// Scalar value the gate understands.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Num(f64),
    Bool(bool),
    Null,
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Num(x) => write!(f, "{x}"),
            Scalar::Bool(b) => write!(f, "{b}"),
            Scalar::Null => f.write_str("null"),
        }
    }
}

type Leaves = BTreeMap<String, Scalar>;

/// Parses a report into a flat `path.to.key -> Scalar` map. Strings and
/// arrays are skipped: no gated metric is either.
fn flatten_json(text: &str) -> Result<Leaves, String> {
    let json = parse(text).map_err(|e| e.to_string())?;
    let mut out = Leaves::new();
    flatten(&json, "", &mut out);
    Ok(out)
}

fn flatten(v: &Json, path: &str, out: &mut Leaves) {
    let leaf = match v {
        Json::Obj(fields) => {
            for (key, v) in fields {
                let key = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(v, &key, out);
            }
            return;
        }
        Json::Num(x) => Scalar::Num(*x),
        Json::Bool(b) => Scalar::Bool(*b),
        Json::Null => Scalar::Null,
        Json::Str(_) | Json::Arr(_) => return,
    };
    out.insert(path.to_string(), leaf);
}

/// Which rule a leaf falls under.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    Cfg,
    Flag,
    Speedup,
    /// A wall time, in the unit its suffix names, with the decimals the
    /// emitter writes it with.
    Time(&'static str, usize),
}

/// The rule for `key`, from its path and from its value on either side;
/// `None` for a leaf the gate does not compare.
fn rule(key: &str, current: Option<&Scalar>, baseline: Option<&Scalar>) -> Option<Rule> {
    let mut parts = key.rsplit('.');
    let leaf = parts.next().unwrap_or(key);
    if parts.any(|p| p == "cfg") {
        return Some(Rule::Cfg);
    }
    if matches!(current, Some(Scalar::Bool(_))) || matches!(baseline, Some(Scalar::Bool(_))) {
        return Some(Rule::Flag);
    }
    if leaf.starts_with("speedup_") {
        return Some(Rule::Speedup);
    }
    if leaf.ends_with("_per_s") {
        return None;
    }
    [("_ms", "ms", 3), ("_us", "us", 1), ("_s", "s", 6)]
        .into_iter()
        .find(|(suffix, _, _)| leaf.ends_with(suffix))
        .map(|(_, unit, decimals)| Rule::Time(unit, decimals))
}

/// One gate verdict: metric name, detail text, pass. `hard` failures fail
/// the gate; soft ones only warn.
struct Verdict {
    metric: String,
    detail: String,
    pass: bool,
    hard: bool,
}

fn evaluate(current: &Leaves, baseline: &Leaves) -> Vec<Verdict> {
    let keys: BTreeSet<&String> = current.keys().chain(baseline.keys()).collect();
    let mut verdicts = Vec::new();
    for key in keys {
        let (cur, base) = (current.get(key), baseline.get(key));
        let Some(rule) = rule(key, cur, base) else {
            continue;
        };
        let (pass, hard, detail) = match (rule, cur, base) {
            (Rule::Time(unit, d), Some(Scalar::Num(c)), Some(Scalar::Num(b))) => {
                let limit = b * (1.0 + TOLERANCE);
                let detail = format!(
                    "current {c:.d$}{unit} vs baseline {b:.d$}{unit} (limit {limit:.d$}{unit})"
                );
                (*c <= limit, false, detail)
            }
            (Rule::Time(..), _, _) => continue,
            (Rule::Cfg, Some(c), Some(b)) => (c == b, true, format!("current {c} vs baseline {b}")),
            (Rule::Cfg, _, None) => (false, true, "missing from baseline".to_string()),
            (Rule::Flag, Some(Scalar::Bool(b)), _) => (*b, true, b.to_string()),
            (_, Some(Scalar::Null), _) => (true, true, "null (measurement skipped)".to_string()),
            (_, None, _) => (false, true, "missing from current run".to_string()),
            (Rule::Speedup, Some(Scalar::Num(c)), Some(Scalar::Num(b))) => {
                let floor = b * (1.0 - TOLERANCE);
                let detail = format!("current {c:.3}x vs baseline {b:.3}x (floor {floor:.3}x)");
                (*c >= floor, true, detail)
            }
            (Rule::Speedup, Some(Scalar::Num(c)), _) => {
                (true, true, format!("current {c:.3}x, not in baseline"))
            }
            (_, Some(other), _) => (false, true, format!("unexpected value {other}")),
        };
        verdicts.push(Verdict {
            metric: key.clone(),
            detail,
            pass,
            hard,
        });
    }
    verdicts
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: ci_perf_gate <current.json> <baseline.json>");
        return ExitCode::from(2);
    }
    let read = |p: &str| -> Result<Leaves, String> {
        flatten_json(&std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?)
    };
    let (current, baseline) = match (read(&args[1]), read(&args[2])) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ci_perf_gate: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "ci_perf_gate: tolerance {:.0}%, absolute times advisory",
        TOLERANCE * 100.0
    );
    let verdicts = evaluate(&current, &baseline);
    let mut ok = true;
    for v in &verdicts {
        let tag = match (v.pass, v.hard) {
            (true, true) => "ok",
            (true, false) => continue,
            (false, true) => "FAIL",
            (false, false) => "warn",
        };
        println!("  [{tag}] {:42} {}", v.metric, v.detail);
        ok &= v.pass || !v.hard;
    }
    if ok {
        println!("ci_perf_gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!(
            "ci_perf_gate: FAIL (regression beyond tolerance, exactness lost or config changed)"
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../../results/BENCH_ci_baseline.json");
    const RECORD: &str = include_str!("../../../../results/BENCH_m2xfp.json");

    /// The 15 exactness flags and 6 within-run speedup ratios CI
    /// hard-gates (CHANGES.md lists the renames behind these names).
    const PINNED: [&str; 21] = [
        "chaos.chaos_exact",
        "chaos.zero_leak",
        "decode_kernel.decode_exact",
        "decode_kernel.speedup_gemv",
        "e2e_model.backends_exact",
        "e2e_model.speedup_packed",
        "engine.zero_syscall_tick",
        "exact_match",
        "gateway.stream_exact",
        "gateway.zero_leak",
        "kv_pool.reuse_exact",
        "kv_pool.zero_leak",
        "lint_clean",
        "qgemm.speedup_1thread",
        "quantize_plus_qgemm.speedup_1thread",
        "quantize_weights.speedup_packed",
        "serve.batch_exact",
        "serve.speedup_batch",
        "telemetry.trace_exact",
        "telemetry.zero_alloc",
        "weight_search_exact",
    ];

    /// Keys of a leaf set that fall under `pick`'s rules.
    fn keys_under(leaves: &Leaves, pick: impl Fn(Rule) -> bool) -> BTreeSet<String> {
        leaves
            .iter()
            .filter(|(k, v)| rule(k, Some(v), Some(v)).is_some_and(&pick))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn hard_fails(cur: &Leaves, base: &Leaves) -> Vec<String> {
        evaluate(cur, base)
            .into_iter()
            .filter(|v| !v.pass && v.hard)
            .map(|v| v.metric)
            .collect()
    }

    #[test]
    fn flatten_handles_nesting_null_strings_and_bools() {
        let m = flatten_json(
            r#"{"bench": "m2xfp", "cfg": {"k": 256}, "ok": true,
                "t": {"zero_alloc": null, "wall_s": 1.5e-3}}"#,
        )
        .unwrap();
        let want = [
            ("cfg.k", Scalar::Num(256.0)),
            ("ok", Scalar::Bool(true)),
            ("t.wall_s", Scalar::Num(0.0015)),
            ("t.zero_alloc", Scalar::Null),
        ];
        // The string value is skipped, not misread as a key.
        assert_eq!(m, BTreeMap::from(want.map(|(k, v)| (k.to_string(), v))));
    }

    /// Walks every leaf of the committed baseline and breaks it the way
    /// its rule says must (or must not) fail the gate.
    #[test]
    fn every_hard_gated_leaf_of_the_baseline_gates() {
        let base = flatten_json(BASELINE).unwrap();
        assert!(evaluate(&base, &base).iter().all(|v| v.pass));
        let with = |key: &str, v: Option<Scalar>| {
            let mut cur = base.clone();
            match v {
                Some(v) => cur.insert(key.to_string(), v),
                None => cur.remove(key),
            };
            cur
        };
        let (mut flags, mut speedups, mut cfgs, mut ms_times) = (0, 0, 0, 0);
        for (key, value) in &base {
            let only = [key.as_str()];
            match (rule(key, Some(value), Some(value)), value) {
                (Some(Rule::Flag), _) => {
                    flags += 1;
                    let off = with(key, Some(Scalar::Bool(false)));
                    assert_eq!(hard_fails(&off, &base), only);
                    assert_eq!(hard_fails(&with(key, None), &base), only);
                    assert!(hard_fails(&with(key, Some(Scalar::Null)), &base).is_empty());
                }
                (Some(Rule::Speedup), Scalar::Num(x)) => {
                    speedups += 1;
                    let low = with(key, Some(Scalar::Num(x * 0.70)));
                    assert_eq!(hard_fails(&low, &base), only);
                    let mild = with(key, Some(Scalar::Num(x * 0.80)));
                    assert!(hard_fails(&mild, &base).is_empty(), "{key}");
                    assert_eq!(hard_fails(&with(key, None), &base), only);
                    assert!(hard_fails(&with(key, Some(Scalar::Null)), &base).is_empty());
                }
                (Some(Rule::Cfg), Scalar::Num(x)) => {
                    cfgs += 1;
                    let other = with(key, Some(Scalar::Num(x + 1.0)));
                    assert_eq!(hard_fails(&other, &base), only);
                    assert_eq!(hard_fails(&with(key, None), &base), only);
                }
                (Some(Rule::Time(unit, _)), Scalar::Num(x)) => {
                    ms_times += usize::from(unit == "ms");
                    let slow = with(key, Some(Scalar::Num(x * 2.0 + 1.0)));
                    let v = evaluate(&slow, &base);
                    let failed: Vec<&Verdict> = v.iter().filter(|v| !v.pass).collect();
                    assert_eq!(failed.len(), 1, "{key}");
                    assert!(!failed[0].hard, "{key}: times only warn");
                    let detail = &failed[0].detail;
                    assert!(detail.contains(&format!("{unit} vs")), "{key}: {detail}");
                    assert!(detail.ends_with(&format!("{unit})")), "{key}: {detail}");
                }
                (rule, _) => assert!(
                    matches!(rule, None | Some(Rule::Time(..))),
                    "{key}: {rule:?} leaf {value}"
                ),
            }
        }
        assert_eq!((flags, speedups), (15, 6));
        assert!(cfgs > 0 && ms_times > 0, "cfg {cfgs}, ms {ms_times}");
    }

    /// The baseline's hard-gated flags and ratios are exactly the pinned
    /// 21, and the record profile writes the same hard-gated key names:
    /// one schema for both.
    #[test]
    fn hard_gated_keys_are_pinned_and_shared_by_both_profiles() {
        let base = flatten_json(BASELINE).unwrap();
        let gated = keys_under(&base, |r| matches!(r, Rule::Flag | Rule::Speedup));
        assert_eq!(gated, BTreeSet::from(PINNED.map(String::from)));
        let hard = |r: Rule| !matches!(r, Rule::Time(..));
        let record = flatten_json(RECORD).unwrap();
        assert_eq!(keys_under(&base, hard), keys_under(&record, hard));
    }

    #[test]
    fn new_leaves_gate_by_rule_without_a_baseline() {
        let base = flatten_json(BASELINE).unwrap();
        let mut cur = base.clone();
        cur.insert("x.speedup_new".into(), Scalar::Num(1.0));
        cur.insert("x.new_s".into(), Scalar::Num(1.0));
        cur.insert("x.ok".into(), Scalar::Bool(true));
        assert!(hard_fails(&cur, &base).is_empty());
        cur.insert("x.broken".into(), Scalar::Bool(false));
        cur.insert("x.cfg.hidden".into(), Scalar::Num(1.0));
        assert_eq!(hard_fails(&cur, &base), ["x.broken", "x.cfg.hidden"]);
    }
}
