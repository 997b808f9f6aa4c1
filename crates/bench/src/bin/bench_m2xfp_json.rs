//! JSON throughput emitter for the M2XFP quantize + qGEMM hot path.
//!
//! Times the legacy grouped pipeline against the packed three-stream
//! pipeline on the same data, verifies the two GEMMs agree bit for bit, and
//! writes `results/BENCH_m2xfp.json`. This is the artifact behind the
//! recorded throughput baseline (`BENCH_m2xfp.json` at the repo root).
//!
//! Environment (the full knob list lives in README § "Benchmark
//! environment knobs"):
//! * `M2X_BENCH_DIM`  — K = N dimension (default 512; the acceptance run
//!   uses 4096). M is fixed at 32 (a decode batch).
//! * `M2X_BENCH_REPS` — measurement repetitions per timer (default 3,
//!   minimum over reps is reported).
//! * `M2X_BENCH_WQ_REFERENCE` — set to `0` to skip timing the float-codec
//!   reference weight search (it is the slow one: ~12 s per rep at 4096²).

use m2x_bench::e2e::{run as run_e2e, E2eConfig};
use m2x_bench::gateway_load::{run_gateway_load, GatewayLoadConfig};
use m2x_bench::report::results_dir;
use m2x_bench::serving::{
    run as run_serve, run_chaos, run_prefix_churn, run_telemetry, zero_syscall_tick,
    ChaosBenchConfig, PrefixChurnConfig, ServeBenchConfig, TelemetryBenchConfig,
};
use m2x_bench::timing::{time_once, Interleaved};
use m2x_telemetry::alloc_probe::CountingAlloc;
use m2x_tensor::{Matrix, Xoshiro};
use m2xfp::format::{ActTensor, PackedActTensor, PackedWeightTensor, WeightTensor};
use m2xfp::gemm::{
    qgemm, qgemm_packed, qgemm_packed_threaded, qgemm_reference, qgemv_packed, GemmScratch,
    WeightPlane,
};
use m2xfp::M2xfpConfig;
use std::hint::black_box;

/// Arms the `telemetry.zero_alloc` witness: with the counting allocator
/// installed process-wide, `run_telemetry` can prove warm trace recording
/// never touches the heap (a dead probe would report `null`, and the gate
/// would treat the measurement as skipped).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn time<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    (0..reps.max(1))
        .map(|_| time_once(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Runs the `m2x-lint` R1–R4 scan over the workspace this binary was
/// built from. `Some(true)` = clean, `Some(false)` = findings (printed to
/// stderr), `None` = source tree not found (the binary runs detached from
/// its workspace; the gate treats `null` as "measurement skipped").
fn lint_clean() -> Option<bool> {
    let cwd = std::env::current_dir().ok()?;
    let root = m2x_lint::find_workspace_root(&cwd)?;
    let report = m2x_lint::scan_workspace(&root);
    for f in &report.findings {
        eprintln!("{f}");
    }
    Some(report.is_clean())
}

fn main() {
    // Engine section, first: `/proc/self/io` counts the reads of every
    // thread in the process, so the witness runs before any section
    // starts one. `engine.zero_syscall_tick` (a warm batch-8 GQA decode
    // tick makes no `read` syscall) is a CI hard gate; `null` where the
    // counter is unavailable.
    let engine_zero_syscall = zero_syscall_tick();
    let dim = env_usize("M2X_BENCH_DIM", 512);
    let reps = env_usize("M2X_BENCH_REPS", 3);
    let (m, k, n) = (32usize, dim, dim);
    let cfg = M2xfpConfig::default();

    let mut rng = Xoshiro::seed(7);
    let x = Matrix::from_fn(m, k, |_, _| rng.laplace(1.0));
    let w = Matrix::from_fn(n, k, |_, _| rng.laplace(0.5));

    eprintln!("m2xfp bench: M={m} K={k} N={n}, {reps} reps");

    // Weight quantization happens offline, so it is excluded from the
    // headline quantize+qGEMM speedup; `quantize_weights_grouped_s` is the
    // legacy float-codec Sg-EM search and `quantize_weights_packed_s` the
    // threaded integer-LUT search writing the packed streams directly.
    // Their ratio is a hard-gated CI metric, so the two are timed back to
    // back inside every rep (see `m2x_bench::timing`). At the 4096²
    // acceptance dim the reference costs ~12 s per rep — set
    // `M2X_BENCH_WQ_REFERENCE=0` (or lower `M2X_BENCH_REPS`) to trim that.
    let time_reference = env_usize("M2X_BENCH_WQ_REFERENCE", 1) != 0;
    let mut wt_ref = None;
    let mut wp = None;
    let mut wq_packed = || time_once(|| wp = Some(PackedWeightTensor::quantize_parallel(&w, cfg)));
    let (t_wq, t_wq_packed, wq_speedup) = if time_reference {
        let mut wq_ref = || time_once(|| wt_ref = Some(WeightTensor::quantize_reference(&w, cfg)));
        let t = Interleaved::run(reps, [&mut wq_ref, &mut wq_packed]);
        (Some(t.best(0)), t.best(1), Some(t.median(|s| s[0] / s[1])))
    } else {
        (None, time(reps, &mut wq_packed), None)
    };
    let wp = wp.expect("reps >= 1");
    // Bit-exactness of the parallel LUT search against the float oracle.
    let wq_exact = wt_ref
        .as_ref()
        .map(|r| PackedWeightTensor::from_grouped(r) == wp);
    let wt = wp.to_grouped();
    let xt = ActTensor::quantize(&x, cfg);
    let xp = PackedActTensor::from_grouped(&xt);

    // Encode (activations: the online path) and GEMM throughput. The
    // hard-gated `qgemm.speedup_1thread` and
    // `quantize_plus_qgemm.speedup_1thread` are medians of per-rep ratios
    // over these four sides, timed back to back in every rep.
    let mut enc_grouped = || time_once(|| ActTensor::quantize(&x, cfg));
    let mut gemm_grouped = || time_once(|| qgemm(&xt, &wt));
    let mut enc_packed = || time_once(|| PackedActTensor::quantize(&x, cfg));
    let mut gemm_packed_1t = || time_once(|| qgemm_packed_threaded(&xp, &wp, 1));
    let hot = Interleaved::run(
        reps,
        [
            &mut enc_grouped,
            &mut gemm_grouped,
            &mut enc_packed,
            &mut gemm_packed_1t,
        ],
    );
    let (t_enc_grouped, t_gemm_grouped) = (hot.best(0), hot.best(1));
    let (t_enc_packed, t_gemm_packed_1t) = (hot.best(2), hot.best(3));
    let t_gemm_packed_mt = time(reps, || qgemm_packed(&xp, &wp));

    // Bit-exactness of the two pipelines on this data.
    let a = qgemm(&xt, &wt);
    let b = qgemm_packed(&xp, &wp);
    let exact = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(p, q)| p.to_bits() == q.to_bits());

    // Decode-kernel section: the m == 1 GEMV shape serving hits once per
    // projection per layer per decode step. `speedup_gemv` (grouped PE
    // pipeline over the register-blocked GEMV fast path, both at m == 1,
    // timed back to back in every rep) is the hardware-normalized ratio
    // CI hard-gates.
    let x1 = Matrix::from_fn(1, k, |_, _| rng.laplace(1.0));
    let x1t = ActTensor::quantize(&x1, cfg);
    let x1p = PackedActTensor::from_grouped(&x1t);
    let plane = WeightPlane::decode(&wp);
    let mut scratch = GemmScratch::new();
    // A single m == 1 call is microseconds at the CI dim — far inside
    // shared-runner timer noise, and `speedup_gemv` is a hard gate. Each
    // timed sample therefore loops the kernel until it covers a few
    // milliseconds and reports the per-call mean (~4 MMAC per sample).
    let dk_iters = (4_000_000 / (k * n)).max(1);
    let mut dk_grouped = || {
        time_once(|| {
            for _ in 0..dk_iters {
                black_box(qgemm(&x1t, &wt));
            }
        }) / dk_iters as f64
    };
    let mut dk_gemv = || {
        time_once(|| {
            for _ in 0..dk_iters {
                black_box(qgemv_packed(&x1p, &plane, &mut scratch));
            }
        }) / dk_iters as f64
    };
    let dk = Interleaved::run(reps, [&mut dk_grouped, &mut dk_gemv]);
    let (t_dk_grouped, t_dk_gemv) = (dk.best(0), dk.best(1));
    let dk_want = qgemm_reference(&x1t, &wt);
    let dk_gemv = qgemv_packed(&x1p, &plane, &mut scratch);
    let decode_exact = dk_want
        .as_slice()
        .iter()
        .zip(dk_gemv.as_slice())
        .all(|(p, q)| p.to_bits() == q.to_bits());

    // Whole-model §6 end-to-end section: fixed small dims (independent of
    // M2X_BENCH_DIM, so the committed baseline stays comparable across
    // emitter dims). `backends_exact` (the packed layer forward equals the
    // grouped `qgemm` and f64 `qgemm_reference` over the model's seven
    // projection shapes) and `speedup_packed` (grouped over packed time
    // summed over those shapes) are the kernel-level checks CI
    // hard-gates; `gmacs` the absolute whole-model throughput it gates
    // like the wall-times.
    let e2e_cfg = E2eConfig {
        reps,
        ..E2eConfig::ci()
    };
    eprintln!(
        "e2e model: hidden={} layers={} tokens={}",
        e2e_cfg.hidden, e2e_cfg.layers, e2e_cfg.tokens
    );
    let e2e = run_e2e(e2e_cfg);

    // Serving section: the continuous-batching scheduler vs solo sequential
    // sessions at fixed small dims. `speedup_batch` is hardware-normalized
    // (both sides in the same process) and CI hard-gates it alongside the
    // `batch_exact` bit-identity flag.
    let serve_cfg = ServeBenchConfig {
        reps,
        ..ServeBenchConfig::ci()
    };
    eprintln!(
        "serve: hidden={} layers={} requests={} max_batch={}",
        serve_cfg.hidden, serve_cfg.layers, serve_cfg.requests, serve_cfg.max_batch
    );
    let serve = run_serve(serve_cfg);

    // Chaos section: the same serving runtime flooded past its bounded
    // queue under a seeded fault plan (step panics, stalls, mid-flight
    // cancels) plus per-request deadlines. `chaos_exact` and `zero_leak`
    // are CI hard gates: survivors stay bit-identical to solo and the
    // server quiesces with zero leaked sessions; the shed rate, p99 step
    // latency and recovery-tick count ride along as advisory numbers.
    let chaos_cfg = ChaosBenchConfig::ci();
    eprintln!(
        "chaos: requests={} queue={} seed={:#x} panics={} delays={} cancels={}",
        chaos_cfg.requests,
        chaos_cfg.queue_capacity,
        chaos_cfg.seed,
        chaos_cfg.panics,
        chaos_cfg.delays,
        chaos_cfg.cancels
    );
    let chaos = run_chaos(chaos_cfg);

    // KV-pool section: the paged KV cache under prefix sharing + churn.
    // One request seeds a frozen prompt prefix; the rest adopt its pages
    // copy-on-write while cancelled long-runners recycle pages through the
    // free list. `kv_pool.reuse_exact` (every request served off
    // shared/recycled pages is bit-identical to its solo run, every
    // adopter actually hit the prefix cache, and at least one page was
    // recycled) and `kv_pool.zero_leak` (zero sessions *and* zero pool
    // pages in use after shutdown) are CI hard gates; the hit rate,
    // fragmentation and page counters ride along as advisory numbers.
    let kv_cfg = PrefixChurnConfig::ci();
    eprintln!(
        "kv_pool: requests={} prefix={} suffix={} max_batch={} cancels={}",
        kv_cfg.requests,
        kv_cfg.prefix_tokens,
        kv_cfg.suffix_tokens,
        kv_cfg.max_batch,
        kv_cfg.cancels
    );
    let kv = run_prefix_churn(kv_cfg);

    // Gateway section: the HTTP front-end under mixed load — pinned long
    // SSE streams, a churn wave of short connections, mid-stream hangups.
    // `gateway.stream_exact` and `gateway.zero_leak` are CI hard gates:
    // socket-reassembled tokens stay bit-identical to solo and abandoned
    // streams are cancelled and reaped; the end-to-end p50/p99 latencies
    // and churn throughput ride along as advisory numbers.
    let gw_cfg = GatewayLoadConfig::ci();
    eprintln!(
        "gateway: short={} long={} disconnects={} clients={}",
        gw_cfg.short_connections, gw_cfg.long_streams, gw_cfg.disconnects, gw_cfg.clients
    );
    let gw = run_gateway_load(gw_cfg);

    // Telemetry section: the observability layer measured against itself.
    // `telemetry.trace_exact` (the drained trace reconstructs every
    // request's exact lifecycle) and `telemetry.zero_alloc` (warm trace
    // recording performs zero heap allocations, witnessed by the counting
    // global allocator this binary installs) are CI hard gates; the
    // traced-over-untraced `overhead_ratio` and the per-stage split of the
    // decode tick ride along as advisory numbers. The stage split must
    // explain the tick it decomposes: stage_cover within 10% of 1.0 is
    // asserted below.
    let tl_cfg = TelemetryBenchConfig {
        reps,
        ..TelemetryBenchConfig::ci()
    };
    eprintln!(
        "telemetry: hidden={} layers={} requests={} decode={}",
        tl_cfg.hidden, tl_cfg.layers, tl_cfg.requests, tl_cfg.decode_steps
    );
    let tl = run_telemetry(tl_cfg);

    let macs = (m * k * n) as f64;
    let elems = (m * k) as f64;
    // Quantize+qgemm: the end-to-end hot path the acceptance criterion
    // measures (online activation encode + GEMM; weights are offline).
    let path_grouped = t_enc_grouped + t_gemm_grouped;
    let path_packed_1t = t_enc_packed + t_gemm_packed_1t;
    let path_packed_mt = t_enc_packed + t_gemm_packed_mt;

    let json = format!(
        r#"{{
  "bench": "m2xfp_quantize_qgemm",
  "dims": {{"m": {m}, "k": {k}, "n": {n}}},
  "exact_match": {exact},
  "lint_clean": {lint},
  "engine": {{
    "zero_syscall_tick": {engine_zs}
  }},
  "quantize_act": {{
    "grouped_s": {t_enc_grouped:.6},
    "packed_s": {t_enc_packed:.6},
    "packed_melem_per_s": {enc_tput:.2},
    "speedup": {enc_speedup:.3}
  }},
  "quantize_weights_grouped_s": {wq_grouped},
  "quantize_weights_packed_s": {t_wq_packed:.6},
  "quantize_weights_speedup": {wq_speedup},
  "weight_search_exact": {wq_exact_str},
  "qgemm": {{
    "grouped_s": {t_gemm_grouped:.6},
    "packed_1thread_s": {t_gemm_packed_1t:.6},
    "packed_threaded_s": {t_gemm_packed_mt:.6},
    "packed_threaded_gmac_per_s": {gemm_tput:.3},
    "speedup_1thread": {g1:.3},
    "speedup_threaded": {gmt:.3}
  }},
  "quantize_plus_qgemm": {{
    "grouped_s": {path_grouped:.6},
    "packed_1thread_s": {path_packed_1t:.6},
    "packed_threaded_s": {path_packed_mt:.6},
    "speedup_1thread": {p1:.3},
    "speedup_threaded": {pmt:.3}
  }},
  "decode_kernel": {{
    "grouped_s": {t_dk_grouped:.6},
    "gemv_s": {t_dk_gemv:.6},
    "gemv_melem_per_s": {dk_tput:.2},
    "speedup_gemv": {dk_sp:.3},
    "decode_exact": {decode_exact}
  }},
  "e2e_model": {{
    "hidden": {e2e_hidden},
    "layers": {e2e_layers},
    "tokens": {e2e_tokens},
    "quantize_s": {e2e_quant:.6},
    "forward_batch_packed_s": {e2e_fp:.6},
    "gmacs": {e2e_gmacs:.4},
    "speedup_packed": {e2e_speedup:.3},
    "backends_exact": {e2e_exact},
    "nrmse": {e2e_nrmse:.6}
  }},
  "serve": {{
    "hidden": {sv_hidden},
    "layers": {sv_layers},
    "requests": {sv_requests},
    "max_batch": {sv_batch},
    "solo_s": {sv_solo:.6},
    "batch_s": {sv_bs:.6},
    "speedup_batch": {sv_speedup:.3},
    "req_per_s": {sv_rps:.3},
    "decode_tok_per_s": {sv_tps:.2},
    "solo_decode_tok_per_s": {sv_stps:.2},
    "batch_exact": {sv_exact},
    "chaos_exact": {ch_exact},
    "zero_leak": {ch_leak},
    "shed_rate": {ch_shed:.3},
    "p99_step_us_churn": {ch_p99:.1},
    "recovery_ticks": {ch_rt}
  }},
  "kv_pool": {{
    "hidden": {kv_hidden},
    "layers": {kv_layers},
    "requests": {kv_requests},
    "prefix_tokens": {kv_pt},
    "max_batch": {kv_mb},
    "reuse_exact": {kv_exact},
    "zero_leak": {kv_leak},
    "prefix_hits": {kv_hits},
    "prefix_misses": {kv_misses},
    "hit_rate": {kv_hr:.3},
    "page_allocs": {kv_pa},
    "page_reuses": {kv_pr},
    "cow_clones": {kv_cc},
    "peak_pages": {kv_pk},
    "fragmentation": {kv_fr:.3}
  }},
  "gateway": {{
    "hidden": {gw_hidden},
    "layers": {gw_layers},
    "long_streams": {gw_long},
    "short_connections": {gw_short},
    "disconnects": {gw_disc},
    "stream_exact": {gw_exact},
    "zero_leak": {gw_leak},
    "e2e_p50_ms": {gw_p50:.3},
    "e2e_p99_ms": {gw_p99:.3},
    "churn_req_per_s": {gw_rps:.1},
    "stream_tok_per_s": {gw_tps:.1}
  }},
  "telemetry": {{
    "hidden": {tl_hidden},
    "layers": {tl_layers},
    "requests": {tl_requests},
    "decode_steps": {tl_decode},
    "trace_exact": {tl_exact},
    "zero_alloc": {tl_zalloc},
    "overhead_ratio": {tl_or:.3},
    "traced_tok_per_s": {tl_tt:.2},
    "untraced_tok_per_s": {tl_ut:.2},
    "trace_events": {tl_ev},
    "assemble_us": {tl_sa:.1},
    "encode_us": {tl_se:.1},
    "qgemm_us": {tl_sq:.1},
    "attention_us": {tl_sat:.1},
    "kv_append_us": {tl_sk:.1},
    "feedback_us": {tl_sf:.1},
    "stage_sum_us": {tl_ss:.1},
    "tick_sum_us": {tl_ts:.1},
    "stage_cover": {tl_sc:.3}
  }}
}}
"#,
        engine_zs = match engine_zero_syscall {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        },
        tl_hidden = tl.cfg.hidden,
        tl_layers = tl.cfg.layers,
        tl_requests = tl.cfg.requests,
        tl_decode = tl.cfg.decode_steps,
        tl_exact = tl.trace_exact,
        tl_zalloc = match tl.zero_alloc {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        },
        tl_or = tl.overhead_ratio,
        tl_tt = tl.traced_tok_per_s,
        tl_ut = tl.untraced_tok_per_s,
        tl_ev = tl.trace_events,
        tl_sa = tl.assemble_us,
        tl_se = tl.encode_us,
        tl_sq = tl.qgemm_us,
        tl_sat = tl.attention_us,
        tl_sk = tl.kv_append_us,
        tl_sf = tl.feedback_us,
        tl_ss = tl.stage_sum_us,
        tl_ts = tl.tick_sum_us,
        tl_sc = tl.stage_cover,
        sv_hidden = serve.cfg.hidden,
        sv_layers = serve.cfg.layers,
        sv_requests = serve.cfg.requests,
        sv_batch = serve.cfg.max_batch,
        sv_solo = serve.solo_s,
        sv_bs = serve.batch_s,
        sv_speedup = serve.speedup_batch,
        sv_rps = serve.req_per_s,
        sv_tps = serve.decode_tok_per_s,
        sv_stps = serve.solo_decode_tok_per_s,
        sv_exact = serve.batch_exact,
        ch_exact = chaos.chaos_exact,
        ch_leak = chaos.zero_leak,
        ch_shed = chaos.shed_rate,
        ch_p99 = chaos.p99_step_us,
        ch_rt = chaos.recovery_ticks,
        kv_hidden = kv.cfg.hidden,
        kv_layers = kv.cfg.layers,
        kv_requests = kv.cfg.requests,
        kv_pt = kv.cfg.prefix_tokens,
        kv_mb = kv.cfg.max_batch,
        kv_exact = kv.reuse_exact,
        kv_leak = kv.zero_leak,
        kv_hits = kv.prefix_hits,
        kv_misses = kv.prefix_misses,
        kv_hr = kv.hit_rate,
        kv_pa = kv.page_allocs,
        kv_pr = kv.page_reuses,
        kv_cc = kv.cow_clones,
        kv_pk = kv.peak_pages,
        kv_fr = kv.fragmentation,
        gw_hidden = gw.cfg.hidden,
        gw_layers = gw.cfg.layers,
        gw_long = gw.cfg.long_streams,
        gw_short = gw.cfg.short_connections,
        gw_disc = gw.cfg.disconnects,
        gw_exact = gw.stream_exact,
        gw_leak = gw.zero_leak,
        gw_p50 = gw.e2e_p50_ms,
        gw_p99 = gw.e2e_p99_ms,
        gw_rps = gw.churn_req_per_s,
        gw_tps = gw.stream_tok_per_s,
        e2e_hidden = e2e.cfg.hidden,
        e2e_layers = e2e.cfg.layers,
        e2e_tokens = e2e.cfg.tokens,
        e2e_quant = e2e.quantize_s,
        e2e_fp = e2e.forward_packed_s,
        e2e_gmacs = e2e.gmacs,
        e2e_speedup = e2e.speedup_packed,
        e2e_exact = e2e.backends_exact,
        e2e_nrmse = e2e.nrmse,
        wq_grouped = match t_wq {
            Some(t) => format!("{t:.6}"),
            None => "null".to_string(),
        },
        wq_speedup = match wq_speedup {
            Some(r) => format!("{r:.3}"),
            None => "null".to_string(),
        },
        wq_exact_str = match wq_exact {
            Some(e) => e.to_string(),
            None => "null".to_string(),
        },
        lint = match lint_clean() {
            Some(clean) => clean.to_string(),
            None => "null".to_string(),
        },
        enc_tput = elems / t_enc_packed / 1e6,
        enc_speedup = t_enc_grouped / t_enc_packed,
        dk_tput = (k * n) as f64 / t_dk_gemv / 1e6,
        dk_sp = dk.median(|s| s[0] / s[1]),
        gemm_tput = macs / t_gemm_packed_mt / 1e9,
        g1 = hot.median(|s| s[1] / s[3]),
        gmt = t_gemm_grouped / t_gemm_packed_mt,
        p1 = hot.median(|s| (s[0] + s[1]) / (s[2] + s[3])),
        pmt = path_grouped / path_packed_mt,
    );

    print!("{json}");
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_m2xfp.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    assert!(exact, "packed qGEMM diverged from the grouped pipeline");
    assert_ne!(
        engine_zero_syscall,
        Some(false),
        "a warm decode tick made read syscalls"
    );
    assert!(
        decode_exact,
        "the GEMV decode kernel diverged from the f64 reference"
    );
    assert!(
        wq_exact.unwrap_or(true),
        "parallel LUT weight search diverged from the float reference"
    );
    assert!(
        e2e.backends_exact,
        "a packed projection diverged from the grouped or f64 oracle"
    );
    assert!(
        serve.batch_exact,
        "a batched request's token stream diverged from its solo run"
    );
    assert!(
        chaos.chaos_exact,
        "a chaos survivor's token stream diverged from its solo run"
    );
    assert!(chaos.zero_leak, "sessions leaked after the chaos run");
    assert!(
        kv.reuse_exact,
        "a request served off shared/recycled KV pages diverged from its solo run"
    );
    assert!(
        kv.zero_leak,
        "KV pages or sessions leaked after the prefix churn run"
    );
    assert!(
        tl.trace_exact,
        "the drained trace failed to reconstruct every request's lifecycle"
    );
    assert_eq!(
        tl.zero_alloc,
        Some(true),
        "warm trace recording allocated {} times (probe installed above)",
        tl.recording_allocs
    );
    assert!(
        (tl.stage_cover - 1.0).abs() <= 0.10,
        "stage clocks cover {:.1}% of measured tick time (want within 10%)",
        tl.stage_cover * 100.0
    );
}
