//! CI performance-regression gate over `bench_m2xfp_json` artifacts.
//!
//! Usage: `ci_perf_gate <current.json> <baseline.json>`
//!
//! Compares the freshly measured `results/BENCH_m2xfp.json` against the
//! committed `results/BENCH_ci_baseline.json` (same dims, produced by the
//! same emitter) and exits non-zero when
//!
//! * any exactness flag (`exact_match`, `weight_search_exact`,
//!   `e2e_model.backends_exact`, `serve.batch_exact`, the
//!   fault-tolerance flags `serve.chaos_exact` / `serve.zero_leak`, the
//!   observability flags `telemetry.trace_exact` /
//!   `telemetry.zero_alloc`, or the engine's `engine.zero_syscall_tick`)
//!   is `false` in the current run, or
//! * any within-run speedup ratio — per-kernel, the e2e section's
//!   `e2e_model.speedup_packed` (grouped over packed over the model's
//!   seven projection shapes) or the serving `serve.speedup_batch`
//!   (batched-over-solo) — dropped by more than the tolerance
//!   (`M2X_GATE_TOLERANCE`, default 0.25 = 25%) relative to the baseline.
//!
//! Absolute wall-times are compared against the baseline too, but a
//! regression there is only a **warning** by default: the committed
//! baseline and the CI runner are different hardware, and sub-millisecond
//! measurements on shared runners vary beyond any useful tolerance. Set
//! `M2X_GATE_ABS_TIMES=1` to harden them (e.g. on a dedicated,
//! baseline-matched runner). The speedup ratios are hardware-normalized
//! (both sides measured in the same process), so they catch real code
//! regressions regardless of runner speed.
//!
//! Metrics absent from the **baseline** are reported but not gated, so
//! new emitter fields can land before the baseline is re-recorded. A
//! hard-gated metric that the baseline has but the current run **lost**
//! (key missing entirely — e.g. an emitter refactor renamed or dropped
//! the section) fails the gate: silently disarming a gate is itself a
//! regression. An explicit `null` (a deliberately skipped measurement,
//! e.g. `M2X_BENCH_WQ_REFERENCE=0`) stays ungated. The parser is a
//! self-contained subset of JSON (objects, numbers, bools, strings,
//! `null`) — the workspace builds offline, with no serde.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Scalar value the gate understands.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Num(f64),
    Bool(bool),
    Null,
}

/// Parses a JSON object into a flat `path.to.key -> Scalar` map. Strings
/// are skipped (no gated metric is a string). Arrays are unsupported —
/// the emitter never writes them.
fn flatten_json(text: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let mut out = BTreeMap::new();
    let mut chars = text.char_indices().peekable();
    let mut path: Vec<String> = Vec::new();
    let mut pending_key: Option<String> = None;
    while let Some((i, c)) = chars.next() {
        match c {
            '{' => {
                if let Some(k) = pending_key.take() {
                    path.push(k);
                }
            }
            '}' => {
                path.pop();
            }
            '"' => {
                let mut s = String::new();
                for (_, c2) in chars.by_ref() {
                    if c2 == '"' {
                        break;
                    }
                    if c2 == '\\' {
                        return Err(format!("escape sequences unsupported (byte {i})"));
                    }
                    s.push(c2);
                }
                // A string followed by ':' is a key; otherwise a value.
                let mut rest = chars.clone();
                let is_key = loop {
                    match rest.peek() {
                        Some((_, w)) if w.is_whitespace() => {
                            rest.next();
                        }
                        Some((_, ':')) => break true,
                        _ => break false,
                    }
                };
                if is_key {
                    pending_key = Some(s);
                } else {
                    pending_key = None; // string value: not gated, drop it
                }
            }
            't' | 'f' | 'n' if pending_key.is_some() => {
                let word: String = std::iter::once(c)
                    .chain(
                        std::iter::from_fn(|| {
                            chars.next_if(|(_, w)| w.is_ascii_alphabetic()).map(|x| x.1)
                        })
                        .fuse(),
                    )
                    .collect();
                let key = pending_key.take().expect("guarded by match arm");
                let v = match word.as_str() {
                    "true" => Scalar::Bool(true),
                    "false" => Scalar::Bool(false),
                    "null" => Scalar::Null,
                    other => return Err(format!("unexpected literal `{other}` at byte {i}")),
                };
                out.insert(join(&path, &key), v);
            }
            c if (c.is_ascii_digit() || c == '-') && pending_key.is_some() => {
                let mut num = String::new();
                num.push(c);
                while let Some((_, d)) = chars.next_if(|(_, d)| {
                    d.is_ascii_digit() || matches!(d, '.' | 'e' | 'E' | '+' | '-')
                }) {
                    num.push(d);
                }
                let key = pending_key.take().expect("guarded by match arm");
                let v: f64 = num
                    .parse()
                    .map_err(|e| format!("bad number `{num}` at byte {i}: {e}"))?;
                out.insert(join(&path, &key), Scalar::Num(v));
            }
            _ => {}
        }
    }
    Ok(out)
}

fn join(path: &[String], key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{}.{key}", path.join("."))
    }
}

/// Wall-time metrics (lower is better). Absolute times assume baseline
/// and current ran on comparable hardware, so by default a regression
/// here only warns (`M2X_GATE_ABS_TIMES=1` hardens it); the
/// hardware-normalized speedup ratios below are the enforcing gates.
const GATED_TIMES: [&str; 9] = [
    "quantize_act.packed_s",
    "qgemm.packed_threaded_s",
    "quantize_plus_qgemm.packed_threaded_s",
    "quantize_weights_packed_s",
    "decode_kernel.gemv_s",
    "e2e_model.quantize_s",
    "e2e_model.forward_batch_packed_s",
    "serve.batch_s",
    "gateway.e2e_p99_ms",
];

/// Throughput metrics (higher is better). Hardware-dependent like the
/// wall-times, so they share the advisory-by-default/`M2X_GATE_ABS_TIMES`
/// treatment; the projection-level `e2e_model.speedup_packed` and serving
/// `serve.speedup_batch` ratios below are the enforcing gates.
const GATED_THROUGHPUTS: [&str; 7] = [
    "decode_kernel.gemv_melem_per_s",
    "e2e_model.gmacs",
    "serve.req_per_s",
    "serve.decode_tok_per_s",
    "serve.solo_decode_tok_per_s",
    "gateway.churn_req_per_s",
    // Traced-over-untraced single-stream decode throughput (≈ 1.0): a
    // drop means leaving telemetry on got expensive. Advisory like the
    // other throughputs — both sides run in the same process, but the
    // ratio of two near-equal wall times is noisy on shared runners.
    "telemetry.overhead_ratio",
];

/// Within-run speedup ratios (higher is better). Both sides of each ratio
/// are measured in the same process on the same machine, so these are
/// hardware-normalized: a >tolerance drop is a code regression even if
/// the runner got faster or slower overall.
const GATED_SPEEDUPS: [&str; 6] = [
    "qgemm.speedup_1thread",
    "quantize_plus_qgemm.speedup_1thread",
    "quantize_weights_speedup",
    "decode_kernel.speedup_gemv",
    "e2e_model.speedup_packed",
    "serve.speedup_batch",
];

/// Boolean exactness flags the gate enforces on the current run.
/// `serve.chaos_exact` (chaos survivors bit-identical to solo) and
/// `serve.zero_leak` (zero open sessions after the chaos shutdown) gate
/// the fault-tolerance layer the same way `batch_exact` gates the happy
/// path; `gateway.stream_exact` (socket-reassembled SSE tokens
/// bit-identical to solo) and `gateway.zero_leak` (abandoned streams
/// cancelled and reaped) extend the same invariant through the HTTP
/// front-end; `lint_clean` (the in-repo `m2x-lint` R1–R4 scan found no
/// violations) gates the source-level allocation/panic/unsafe discipline
/// the same run; `telemetry.trace_exact` (the drained trace reconstructs
/// every request's exact lifecycle) and `telemetry.zero_alloc` (warm
/// trace recording performed zero heap allocations under the counting
/// global allocator) gate the observability layer — a trace that lies or
/// a tracer that allocates on the hot path is a correctness loss too;
/// `kv_pool.reuse_exact` (every request served off shared/recycled KV
/// pages bit-identical to its solo run, with real prefix hits and
/// free-list reuse so the check cannot go vacuous) and
/// `kv_pool.zero_leak` (zero sessions and zero pool pages in use after
/// the churn shutdown) gate the paged-KV prefix-sharing layer;
/// `engine.zero_syscall_tick` (a warm batch-8 decode tick made no `read`
/// syscall, counted through `/proc/self/io`; `null` where that counter is
/// unavailable) keeps per-call OS queries off the decode hot loop.
/// A `false` is a correctness loss, never a perf question.
const GATED_EXACT: [&str; 15] = [
    "exact_match",
    "lint_clean",
    "weight_search_exact",
    "decode_kernel.decode_exact",
    "e2e_model.backends_exact",
    "serve.batch_exact",
    "serve.chaos_exact",
    "serve.zero_leak",
    "gateway.stream_exact",
    "gateway.zero_leak",
    "telemetry.trace_exact",
    "telemetry.zero_alloc",
    "kv_pool.reuse_exact",
    "kv_pool.zero_leak",
    "engine.zero_syscall_tick",
];

/// One gate verdict: metric name, baseline, current, allowed, pass.
/// `hard` failures fail the gate; soft ones only warn.
struct Verdict {
    metric: String,
    detail: String,
    pass: bool,
    hard: bool,
}

fn evaluate(
    current: &BTreeMap<String, Scalar>,
    baseline: &BTreeMap<String, Scalar>,
    tolerance: f64,
    abs_times_hard: bool,
) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for flag in GATED_EXACT {
        let (pass, detail) = match current.get(flag) {
            Some(Scalar::Bool(true)) => (true, "true".to_string()),
            Some(Scalar::Bool(false)) => (false, "false".to_string()),
            Some(Scalar::Null) => (true, "null (measurement skipped, not gated)".to_string()),
            None if matches!(baseline.get(flag), Some(Scalar::Bool(_))) => (
                false,
                "missing from current run but gated in baseline".to_string(),
            ),
            None => (true, "absent (not gated)".to_string()),
            Some(other) => (false, format!("non-boolean {other:?}")),
        };
        verdicts.push(Verdict {
            metric: flag.to_string(),
            detail,
            pass,
            hard: true,
        });
    }
    for metric in GATED_TIMES {
        let (pass, detail) = match (current.get(metric), baseline.get(metric)) {
            (Some(Scalar::Num(cur)), Some(Scalar::Num(base))) => {
                let limit = base * (1.0 + tolerance);
                (
                    *cur <= limit,
                    format!("current {cur:.6}s vs baseline {base:.6}s (limit {limit:.6}s)"),
                )
            }
            _ => (
                true,
                "absent in current or baseline (not gated)".to_string(),
            ),
        };
        verdicts.push(Verdict {
            metric: metric.to_string(),
            detail,
            pass,
            hard: abs_times_hard,
        });
    }
    for metric in GATED_THROUGHPUTS {
        let (pass, detail) = match (current.get(metric), baseline.get(metric)) {
            (Some(Scalar::Num(cur)), Some(Scalar::Num(base))) => {
                let floor = base * (1.0 - tolerance);
                (
                    *cur >= floor,
                    format!("current {cur:.3} vs baseline {base:.3} (floor {floor:.3})"),
                )
            }
            _ => (
                true,
                "absent in current or baseline (not gated)".to_string(),
            ),
        };
        verdicts.push(Verdict {
            metric: metric.to_string(),
            detail,
            pass,
            hard: abs_times_hard,
        });
    }
    for metric in GATED_SPEEDUPS {
        let (pass, detail) = match (current.get(metric), baseline.get(metric)) {
            (Some(Scalar::Num(cur)), Some(Scalar::Num(base))) => {
                let floor = base * (1.0 - tolerance);
                (
                    *cur >= floor,
                    format!("current {cur:.3}x vs baseline {base:.3}x (floor {floor:.3}x)"),
                )
            }
            // Losing a ratio the baseline gates (key gone from the emitter)
            // would silently disarm the gate; an explicit null is a
            // deliberately skipped measurement and stays ungated.
            (None, Some(Scalar::Num(_))) => (
                false,
                "missing from current run but gated in baseline".to_string(),
            ),
            _ => (
                true,
                "absent or null in current or baseline (not gated)".to_string(),
            ),
        };
        verdicts.push(Verdict {
            metric: metric.to_string(),
            detail,
            pass,
            hard: true,
        });
    }
    // Dims must match or the time comparison is meaningless. The core
    // emitter dims are required; the e2e-section dims gate the e2e metrics
    // and are only compared when either side carries them (pre-e2e
    // baselines stay usable).
    let required = ["dims.m", "dims.k", "dims.n"];
    let optional = [
        "e2e_model.hidden",
        "e2e_model.layers",
        "e2e_model.tokens",
        "serve.hidden",
        "serve.layers",
        "serve.requests",
        "serve.max_batch",
        "gateway.hidden",
        "gateway.layers",
        "gateway.long_streams",
        "gateway.short_connections",
        "gateway.disconnects",
        "telemetry.hidden",
        "telemetry.layers",
        "telemetry.requests",
        "telemetry.decode_steps",
        "kv_pool.hidden",
        "kv_pool.layers",
        "kv_pool.requests",
        "kv_pool.prefix_tokens",
        "kv_pool.max_batch",
    ];
    for d in required.iter().chain(&optional) {
        let (pass, detail) = match (current.get(*d), baseline.get(*d)) {
            (Some(Scalar::Num(a)), Some(Scalar::Num(b))) => {
                (a == b, format!("current {a} vs baseline {b}"))
            }
            (None, None) if optional.contains(d) => {
                (true, "absent in both (not gated)".to_string())
            }
            _ => (false, "missing dimension field".to_string()),
        };
        verdicts.push(Verdict {
            metric: d.to_string(),
            detail,
            pass,
            hard: true,
        });
    }
    verdicts
}

fn env_tolerance() -> f64 {
    std::env::var("M2X_GATE_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: ci_perf_gate <current.json> <baseline.json>");
        return ExitCode::from(2);
    }
    let read = |p: &str| -> Result<BTreeMap<String, Scalar>, String> {
        flatten_json(&std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?)
    };
    let (current, baseline) = match (read(&args[1]), read(&args[2])) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ci_perf_gate: {e}");
            return ExitCode::from(2);
        }
    };
    let tolerance = env_tolerance();
    let abs_times_hard = std::env::var("M2X_GATE_ABS_TIMES").as_deref() == Ok("1");
    println!(
        "ci_perf_gate: tolerance {:.0}%, absolute times {}",
        tolerance * 100.0,
        if abs_times_hard { "gated" } else { "advisory" }
    );
    let verdicts = evaluate(&current, &baseline, tolerance, abs_times_hard);
    let mut ok = true;
    for v in &verdicts {
        let tag = match (v.pass, v.hard) {
            (true, _) => "ok",
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
        println!("ci_perf_gate: FAIL (regression beyond tolerance or exactness lost)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "m2xfp_quantize_qgemm",
  "dims": {"m": 32, "k": 256, "n": 256},
  "exact_match": true,
  "engine": {"zero_syscall_tick": true},
  "quantize_act": {"grouped_s": 0.001, "packed_s": 0.0009, "speedup": 1.1},
  "quantize_weights_grouped_s": null,
  "quantize_weights_packed_s": 0.0061,
  "quantize_weights_speedup": 14.2,
  "weight_search_exact": true,
  "qgemm": {"packed_threaded_s": 0.002, "speedup_1thread": 5.3},
  "quantize_plus_qgemm": {"packed_threaded_s": 0.003, "speedup_1thread": 3.2},
  "decode_kernel": {"gemv_s": 0.0001, "gemv_melem_per_s": 650.0, "speedup_gemv": 6.0, "decode_exact": true},
  "e2e_model": {"hidden": 128, "layers": 2, "tokens": 16, "gmacs": 2.1, "speedup_packed": 3.0, "backends_exact": true, "nrmse": 0.05},
  "serve": {"hidden": 128, "layers": 2, "requests": 6, "max_batch": 6, "batch_s": 0.05, "speedup_batch": 1.3, "req_per_s": 120.0, "decode_tok_per_s": 960.0, "solo_decode_tok_per_s": 740.0, "batch_exact": true, "chaos_exact": true, "zero_leak": true, "shed_rate": 0.5, "p99_step_us_churn": 900.0, "recovery_ticks": 2},
  "kv_pool": {"hidden": 128, "layers": 2, "requests": 8, "prefix_tokens": 32, "max_batch": 4, "reuse_exact": true, "zero_leak": true, "prefix_hits": 7, "prefix_misses": 3, "hit_rate": 0.4, "page_allocs": 12, "page_reuses": 8, "cow_clones": 0, "peak_pages": 9, "fragmentation": 0.2},
  "gateway": {"hidden": 128, "layers": 2, "long_streams": 2, "short_connections": 200, "disconnects": 3, "stream_exact": true, "zero_leak": true, "e2e_p50_ms": 1.5, "e2e_p99_ms": 4.0, "churn_req_per_s": 800.0, "stream_tok_per_s": 400.0},
  "telemetry": {"hidden": 256, "layers": 2, "requests": 4, "decode_steps": 12, "trace_exact": true, "zero_alloc": true, "overhead_ratio": 0.99, "traced_tok_per_s": 780.0, "untraced_tok_per_s": 790.0, "stage_cover": 0.98}
}"#;

    #[test]
    fn flatten_handles_nesting_null_and_bools() {
        let m = flatten_json(SAMPLE).unwrap();
        assert_eq!(m.get("dims.k"), Some(&Scalar::Num(256.0)));
        assert_eq!(m.get("quantize_act.packed_s"), Some(&Scalar::Num(0.0009)));
        assert_eq!(m.get("exact_match"), Some(&Scalar::Bool(true)));
        assert_eq!(m.get("quantize_weights_grouped_s"), Some(&Scalar::Null));
        // The string value is skipped, not misread as a key.
        assert!(!m.contains_key("bench"));
        assert_eq!(m.get("qgemm.packed_threaded_s"), Some(&Scalar::Num(0.002)));
    }

    /// Metrics whose failed verdicts are hard (fail the gate).
    fn hard_fails(cur: &BTreeMap<String, Scalar>, base: &BTreeMap<String, Scalar>) -> Vec<String> {
        evaluate(cur, base, 0.25, false)
            .into_iter()
            .filter(|v| !v.pass && v.hard)
            .map(|v| v.metric)
            .collect()
    }

    #[test]
    fn gate_passes_identical_runs() {
        let m = flatten_json(SAMPLE).unwrap();
        assert!(evaluate(&m, &m, 0.25, false).iter().all(|v| v.pass));
    }

    #[test]
    fn abs_time_regression_warns_by_default_and_gates_when_hardened() {
        let base = flatten_json(SAMPLE).unwrap();
        let slower = SAMPLE.replace("\"packed_s\": 0.0009", "\"packed_s\": 0.00111");
        let cur = flatten_json(&slower).unwrap();
        // 0.00111 / 0.0009 = 1.233… — inside 25%, outside 20%.
        assert!(evaluate(&cur, &base, 0.25, true).iter().all(|v| v.pass));
        let v = evaluate(&cur, &base, 0.20, false);
        let t = v.iter().find(|v| v.metric == "quantize_act.packed_s");
        // Advisory by default: a failed time verdict is soft.
        assert!(t.is_some_and(|v| !v.pass && !v.hard));
        let v = evaluate(&cur, &base, 0.20, true);
        let t = v.iter().find(|v| v.metric == "quantize_act.packed_s");
        assert!(t.is_some_and(|v| !v.pass && v.hard));
    }

    #[test]
    fn speedup_ratios_gate_in_the_opposite_direction() {
        let base = flatten_json(SAMPLE).unwrap();
        // A 30% speedup drop fails at 25% tolerance; a 20% drop passes.
        let dropped = SAMPLE.replace("\"speedup_1thread\": 5.3", "\"speedup_1thread\": 3.7");
        let cur = flatten_json(&dropped).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["qgemm.speedup_1thread"]);
        let mild = SAMPLE.replace("\"speedup_1thread\": 5.3", "\"speedup_1thread\": 4.3");
        let cur = flatten_json(&mild).unwrap();
        assert!(evaluate(&cur, &base, 0.25, false).iter().all(|v| v.pass));
    }

    #[test]
    fn decode_kernel_section_gates_exactness_and_gemv_ratio() {
        let base = flatten_json(SAMPLE).unwrap();
        // Lost decode-kernel bit-identity fails hard.
        let broken = SAMPLE.replace("\"decode_exact\": true", "\"decode_exact\": false");
        let cur = flatten_json(&broken).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["decode_kernel.decode_exact"]);
        // A >25% drop of the GEMV-over-grouped ratio fails hard (both
        // sides measured in the same process: hardware-normalized).
        let dropped = SAMPLE.replace("\"speedup_gemv\": 6.0", "\"speedup_gemv\": 4.0");
        let cur = flatten_json(&dropped).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["decode_kernel.speedup_gemv"]);
        // GEMV wall-time and throughput regressions warn by default.
        let slower = SAMPLE.replace("\"gemv_s\": 0.0001", "\"gemv_s\": 0.0002");
        let cur = flatten_json(&slower).unwrap();
        let v = evaluate(&cur, &base, 0.25, false);
        let t = v
            .iter()
            .find(|v| v.metric == "decode_kernel.gemv_s")
            .unwrap();
        assert!(!t.pass && !t.hard);
        let slower = SAMPLE.replace("\"gemv_melem_per_s\": 650.0", "\"gemv_melem_per_s\": 300.0");
        let cur = flatten_json(&slower).unwrap();
        let v = evaluate(&cur, &base, 0.25, false);
        let t = v
            .iter()
            .find(|v| v.metric == "decode_kernel.gemv_melem_per_s")
            .unwrap();
        assert!(!t.pass && !t.hard);
    }

    #[test]
    fn gate_fails_on_lost_exactness() {
        let base = flatten_json(SAMPLE).unwrap();
        let broken = SAMPLE.replace("\"exact_match\": true", "\"exact_match\": false");
        let cur = flatten_json(&broken).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["exact_match"]);
        let broken = SAMPLE.replace("\"backends_exact\": true", "\"backends_exact\": false");
        let cur = flatten_json(&broken).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["e2e_model.backends_exact"]);
    }

    #[test]
    fn projection_ratio_is_hard_gated_and_gmacs_advisory() {
        let base = flatten_json(SAMPLE).unwrap();
        // 3.0 → 2.0 is a 33% drop: beyond the 25% floor.
        let dropped = SAMPLE.replace("\"speedup_packed\": 3.0", "\"speedup_packed\": 2.0");
        let cur = flatten_json(&dropped).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["e2e_model.speedup_packed"]);
        // Throughput regressions warn by default and harden with abs times.
        let slower = SAMPLE.replace("\"gmacs\": 2.1", "\"gmacs\": 1.0");
        let cur = flatten_json(&slower).unwrap();
        let v = evaluate(&cur, &base, 0.25, false);
        let g = v.iter().find(|v| v.metric == "e2e_model.gmacs").unwrap();
        assert!(!g.pass && !g.hard);
        let v = evaluate(&cur, &base, 0.25, true);
        let g = v.iter().find(|v| v.metric == "e2e_model.gmacs").unwrap();
        assert!(!g.pass && g.hard);
    }

    #[test]
    fn serve_section_gates_exactness_and_batching_ratio() {
        let base = flatten_json(SAMPLE).unwrap();
        // Lost per-request bit-identity fails hard.
        let broken = SAMPLE.replace("\"batch_exact\": true", "\"batch_exact\": false");
        let cur = flatten_json(&broken).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["serve.batch_exact"]);
        // A >25% drop of the batched-over-solo ratio fails hard (it is
        // hardware-normalized: both sides measured in the same process).
        let dropped = SAMPLE.replace("\"speedup_batch\": 1.3", "\"speedup_batch\": 0.9");
        let cur = flatten_json(&dropped).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["serve.speedup_batch"]);
        // Serving wall-time/throughput regressions warn by default.
        let slower = SAMPLE.replace("\"decode_tok_per_s\": 960.0", "\"decode_tok_per_s\": 400.0");
        let cur = flatten_json(&slower).unwrap();
        let v = evaluate(&cur, &base, 0.25, false);
        let t = v
            .iter()
            .find(|v| v.metric == "serve.decode_tok_per_s")
            .unwrap();
        assert!(!t.pass && !t.hard);
        // Serve dims gate like the e2e dims: a silent config bump fails.
        let other = SAMPLE.replace("\"max_batch\": 6", "\"max_batch\": 8");
        let cur = flatten_json(&other).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["serve.max_batch"]);
    }

    #[test]
    fn chaos_flags_gate_like_exactness() {
        let base = flatten_json(SAMPLE).unwrap();
        // A survivor drifting from its solo bits under fault injection is
        // a hard correctness failure.
        let broken = SAMPLE.replace("\"chaos_exact\": true", "\"chaos_exact\": false");
        let cur = flatten_json(&broken).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["serve.chaos_exact"]);
        // A leaked session after the chaos shutdown fails hard too (the
        // replace flips the gateway and kv_pool sections' like-named
        // flags as well).
        let leaky = SAMPLE.replace("\"zero_leak\": true", "\"zero_leak\": false");
        let cur = flatten_json(&leaky).unwrap();
        assert_eq!(
            hard_fails(&cur, &base),
            ["serve.zero_leak", "gateway.zero_leak", "kv_pool.zero_leak"]
        );
        // Dropping the flags from the emitter (silent disarm) fails hard;
        // the advisory chaos numbers (shed rate, p99, recovery ticks) can
        // go missing without gating.
        let dropped = SAMPLE.replace("\"chaos_exact\": true, \"zero_leak\": true, ", "");
        assert_ne!(dropped, SAMPLE, "fixture edit must take effect");
        let cur = flatten_json(&dropped).unwrap();
        assert_eq!(
            hard_fails(&cur, &base),
            ["serve.chaos_exact", "serve.zero_leak"]
        );
        let trimmed = SAMPLE.replace(
            ", \"shed_rate\": 0.5, \"p99_step_us_churn\": 900.0, \"recovery_ticks\": 2",
            "",
        );
        assert_ne!(trimmed, SAMPLE, "fixture edit must take effect");
        let cur = flatten_json(&trimmed).unwrap();
        assert!(hard_fails(&cur, &base).is_empty());
    }

    #[test]
    fn gateway_flags_gate_like_exactness() {
        let base = flatten_json(SAMPLE).unwrap();
        // A socket-reassembled token drifting from its solo bits is a
        // hard correctness failure — the bit-identity invariant must
        // survive HTTP framing and the decimal float round-trip.
        let broken = SAMPLE.replace("\"stream_exact\": true", "\"stream_exact\": false");
        let cur = flatten_json(&broken).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["gateway.stream_exact"]);
        // Dropping both flags from the emitter (silent disarm) fails hard.
        let dropped = SAMPLE.replace("\"stream_exact\": true, \"zero_leak\": true, ", "");
        assert_ne!(dropped, SAMPLE, "fixture edit must take effect");
        let cur = flatten_json(&dropped).unwrap();
        assert_eq!(
            hard_fails(&cur, &base),
            ["gateway.stream_exact", "gateway.zero_leak"]
        );
        // The end-to-end latency and churn throughput are advisory by
        // default: hardware-dependent absolute numbers.
        let slower = SAMPLE.replace("\"e2e_p99_ms\": 4.0", "\"e2e_p99_ms\": 9.0");
        let cur = flatten_json(&slower).unwrap();
        let v = evaluate(&cur, &base, 0.25, false);
        let t = v.iter().find(|v| v.metric == "gateway.e2e_p99_ms").unwrap();
        assert!(!t.pass && !t.hard);
        let slower = SAMPLE.replace("\"churn_req_per_s\": 800.0", "\"churn_req_per_s\": 300.0");
        let cur = flatten_json(&slower).unwrap();
        let v = evaluate(&cur, &base, 0.25, false);
        let t = v
            .iter()
            .find(|v| v.metric == "gateway.churn_req_per_s")
            .unwrap();
        assert!(!t.pass && !t.hard);
        // A silent traffic-shape change fails like any other dim bump.
        let other = SAMPLE.replace("\"short_connections\": 200", "\"short_connections\": 40");
        let cur = flatten_json(&other).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["gateway.short_connections"]);
    }

    #[test]
    fn kv_pool_flags_gate_like_exactness() {
        let base = flatten_json(SAMPLE).unwrap();
        // A request served off shared or recycled KV pages drifting from
        // its solo bits is a hard correctness failure — prefix sharing
        // must leave no trace in the token stream.
        let broken = SAMPLE.replace("\"reuse_exact\": true", "\"reuse_exact\": false");
        let cur = flatten_json(&broken).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["kv_pool.reuse_exact"]);
        // Dropping both flags from the emitter (silent disarm) fails hard;
        // the advisory pool counters can go missing without gating.
        let dropped = SAMPLE.replace("\"reuse_exact\": true, \"zero_leak\": true, ", "");
        assert_ne!(dropped, SAMPLE, "fixture edit must take effect");
        let cur = flatten_json(&dropped).unwrap();
        assert_eq!(
            hard_fails(&cur, &base),
            ["kv_pool.reuse_exact", "kv_pool.zero_leak"]
        );
        let trimmed = SAMPLE.replace(
            ", \"hit_rate\": 0.4, \"page_allocs\": 12, \"page_reuses\": 8, \"cow_clones\": 0, \"peak_pages\": 9, \"fragmentation\": 0.2",
            "",
        );
        assert_ne!(trimmed, SAMPLE, "fixture edit must take effect");
        let cur = flatten_json(&trimmed).unwrap();
        assert!(hard_fails(&cur, &base).is_empty());
        // A silent churn-shape change fails like any other dim bump.
        let other = SAMPLE.replace("\"prefix_tokens\": 32", "\"prefix_tokens\": 64");
        let cur = flatten_json(&other).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["kv_pool.prefix_tokens"]);
    }

    #[test]
    fn telemetry_flags_gate_like_exactness() {
        let base = flatten_json(SAMPLE).unwrap();
        // A trace that no longer reconstructs every lifecycle is a hard
        // correctness failure, as is a tracer that allocates when warm.
        let broken = SAMPLE.replace("\"trace_exact\": true", "\"trace_exact\": false");
        let cur = flatten_json(&broken).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["telemetry.trace_exact"]);
        let alloc = SAMPLE.replace("\"zero_alloc\": true", "\"zero_alloc\": false");
        let cur = flatten_json(&alloc).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["telemetry.zero_alloc"]);
        // A run without the counting allocator installed reports null —
        // a skipped measurement, not a failed one.
        let skipped = SAMPLE.replace("\"zero_alloc\": true", "\"zero_alloc\": null");
        let cur = flatten_json(&skipped).unwrap();
        assert!(hard_fails(&cur, &base).is_empty());
        // Dropping both flags from the emitter (silent disarm) fails hard.
        let dropped = SAMPLE.replace("\"trace_exact\": true, \"zero_alloc\": true, ", "");
        assert_ne!(dropped, SAMPLE, "fixture edit must take effect");
        let cur = flatten_json(&dropped).unwrap();
        assert_eq!(
            hard_fails(&cur, &base),
            ["telemetry.trace_exact", "telemetry.zero_alloc"]
        );
        // The tracing-overhead ratio is advisory by default: a ratio of
        // two near-equal wall times is noisy on shared runners.
        let slower = SAMPLE.replace("\"overhead_ratio\": 0.99", "\"overhead_ratio\": 0.5");
        let cur = flatten_json(&slower).unwrap();
        let v = evaluate(&cur, &base, 0.25, false);
        let t = v
            .iter()
            .find(|v| v.metric == "telemetry.overhead_ratio")
            .unwrap();
        assert!(!t.pass && !t.hard);
        // A silent telemetry-config bump fails like any other dim bump.
        let other = SAMPLE.replace("\"decode_steps\": 12", "\"decode_steps\": 24");
        let cur = flatten_json(&other).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["telemetry.decode_steps"]);
    }

    #[test]
    fn engine_syscall_flag_gates_like_exactness() {
        let base = flatten_json(SAMPLE).unwrap();
        // A warm decode tick that made read syscalls fails hard.
        let broken = SAMPLE.replace(
            "\"zero_syscall_tick\": true",
            "\"zero_syscall_tick\": false",
        );
        let cur = flatten_json(&broken).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["engine.zero_syscall_tick"]);
        // A host without `/proc/self/io` reports null — a skipped
        // measurement, not a failed one.
        let skipped = SAMPLE.replace("\"zero_syscall_tick\": true", "\"zero_syscall_tick\": null");
        let cur = flatten_json(&skipped).unwrap();
        assert!(hard_fails(&cur, &base).is_empty());
        // Dropping the section from the emitter (silent disarm) fails hard.
        let dropped = SAMPLE.replace("  \"engine\": {\"zero_syscall_tick\": true},\n", "");
        assert_ne!(dropped, SAMPLE, "fixture edit must take effect");
        let cur = flatten_json(&dropped).unwrap();
        assert_eq!(hard_fails(&cur, &base), ["engine.zero_syscall_tick"]);
    }

    #[test]
    fn gate_fails_on_dim_mismatch() {
        let base = flatten_json(SAMPLE).unwrap();
        let other = SAMPLE.replace("\"k\": 256", "\"k\": 512");
        let cur = flatten_json(&other).unwrap();
        assert!(!hard_fails(&cur, &base).is_empty());
        // The e2e/serve/gateway/kv_pool sections' dims gate too: a silent
        // ::ci() bump must not be compared against the stale baseline.
        // (`replace` rewrites all four sections' `hidden`.)
        let other = SAMPLE.replace("\"hidden\": 128", "\"hidden\": 256");
        let cur = flatten_json(&other).unwrap();
        assert_eq!(
            hard_fails(&cur, &base),
            [
                "e2e_model.hidden",
                "serve.hidden",
                "gateway.hidden",
                "kv_pool.hidden"
            ]
        );
        // But a pre-e2e baseline (no section at all on either side) is
        // fine; only compare what exists.
        let trimmed = SAMPLE.replace("\"hidden\": 128, \"layers\": 2, \"tokens\": 16, ", "");
        let both = flatten_json(&trimmed).unwrap();
        assert!(hard_fails(&both, &both).is_empty());
    }

    #[test]
    fn absent_metrics_are_reported_not_gated() {
        let base = flatten_json(SAMPLE).unwrap();
        let trimmed = SAMPLE.replace("\"quantize_weights_packed_s\": 0.0061,", "");
        let cur = flatten_json(&trimmed).unwrap();
        let v = evaluate(&cur, &base, 0.25, true);
        let wq = v
            .iter()
            .find(|v| v.metric == "quantize_weights_packed_s")
            .unwrap();
        assert!(wq.pass && wq.detail.contains("not gated"));
    }

    #[test]
    fn losing_a_hard_gated_key_fails_but_explicit_null_does_not() {
        let base = flatten_json(SAMPLE).unwrap();
        // Emitter refactor drops the projection ratio and exactness flag:
        // the gate must notice the disarm, not silently pass.
        let dropped = SAMPLE.replace("\"speedup_packed\": 3.0, \"backends_exact\": true, ", "");
        let cur = flatten_json(&dropped).unwrap();
        assert_ne!(dropped, SAMPLE, "fixture edit must take effect");
        let fails = hard_fails(&cur, &base);
        assert!(
            fails.contains(&"e2e_model.speedup_packed".to_string()),
            "{fails:?}"
        );
        assert!(
            fails.contains(&"e2e_model.backends_exact".to_string()),
            "{fails:?}"
        );
        // A deliberately skipped measurement (explicit null, e.g.
        // M2X_BENCH_WQ_REFERENCE=0) stays ungated even when the baseline
        // gates it.
        let skipped = SAMPLE
            .replace(
                "\"quantize_weights_speedup\": 14.2",
                "\"quantize_weights_speedup\": null",
            )
            .replace(
                "\"weight_search_exact\": true",
                "\"weight_search_exact\": null",
            );
        let cur = flatten_json(&skipped).unwrap();
        assert!(hard_fails(&cur, &base).is_empty());
        // New fields absent from the baseline never gate (forward compat).
        let future = SAMPLE.replace("\"gmacs\": 2.1", "\"gmacs\": 2.1, \"new_ratio\": 1.0");
        let cur = flatten_json(&future).unwrap();
        assert!(hard_fails(&cur, &base).is_empty());
    }
}
