//! Serving-throughput measurement harness — behind the `serve`, `chaos`,
//! `kv_pool` and `telemetry` sections of `bench_m2xfp_json`, and its
//! `engine` syscall witness.
//!
//! Builds one shared prepared model (`Arc<ModelWeights>`), generates `M`
//! deterministic generation requests, then measures the same workload two
//! ways:
//!
//! * **solo** — each request on its own fresh session, one after another
//!   (the PR 3 single-session serving loop);
//! * **batched** — all requests submitted open-loop to the `m2x_serve`
//!   continuous-batching [`Server`] with an admission window of
//!   `max_batch`.
//!
//! Both paths produce the exact same per-request token streams
//! (`batch_exact` — hard-gated in CI), so the wall-clock ratio
//! `speedup_batch` is a pure scheduling/batching win: one walk over each
//! prepared weight plane per step instead of one per request.

use crate::report::Json;
use crate::timing::{bits_eq, percentile, Interleaved};
use m2x_nn::model::{ModelBuilder, ModelWeights, SessionState, StepScratch};
use m2x_nn::profile::ModelProfile;
use m2x_nn::synth::activation_matrix;
use m2x_serve::{
    run_solo, Completed, FaultPlan, RequestOptions, RequestOutcome, ServeConfig, Server,
};
use m2x_telemetry::alloc_probe::count_allocations;
use m2x_telemetry::syscall_probe::count_read_syscalls;
use m2x_telemetry::{stage, Histogram, StageTally, Telemetry};
use m2x_tensor::Matrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Dimensions and measurement knobs of one serving run.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchConfig {
    /// Hidden (residual stream) dimension.
    pub hidden: usize,
    /// Transformer layer count.
    pub layers: usize,
    /// Concurrent generation requests.
    pub requests: usize,
    /// Prompt length per request, in tokens.
    pub prompt_tokens: usize,
    /// Closed-loop decode steps per request.
    pub decode_steps: usize,
    /// Admission window of the continuous-batching scheduler.
    pub max_batch: usize,
    /// Measurement repetitions: times are best-of, `speedup_batch` the
    /// median of the per-rep ratios.
    pub reps: usize,
}

impl ServeBenchConfig {
    /// The fixed small configuration of the emitter's `ci` profile (and
    /// gated by CI): big enough that batching amortizes real weight-plane
    /// traffic, small enough for a shared runner.
    pub fn ci() -> Self {
        ServeBenchConfig {
            hidden: 128,
            layers: 2,
            requests: 6,
            prompt_tokens: 8,
            decode_steps: 8,
            max_batch: 6,
            reps: 3,
        }
    }

    /// The report's `cfg` table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hidden", self.hidden.into()),
            ("layers", self.layers.into()),
            ("requests", self.requests.into()),
            ("prompt_tokens", self.prompt_tokens.into()),
            ("decode_steps", self.decode_steps.into()),
            ("max_batch", self.max_batch.into()),
            ("reps", self.reps.into()),
        ])
    }
}

/// Measured results of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Configuration measured.
    pub cfg: ServeBenchConfig,
    /// Every request's batched token stream was bit-identical to its solo
    /// run.
    pub batch_exact: bool,
    /// Best-of-reps wall time of the solo sequential sessions (seconds).
    pub solo_s: f64,
    /// Best-of-reps wall time of the batched server run (seconds).
    pub batch_s: f64,
    /// Hardware-normalized solo/batched wall-time ratio (> 1 means
    /// batching wins): the median over reps of each rep's ratio, the two
    /// sides timed back to back (see [`crate::timing`]).
    pub speedup_batch: f64,
    /// Completed requests per second of the batched run.
    pub req_per_s: f64,
    /// Aggregate decode throughput of the batched run (tokens/s).
    pub decode_tok_per_s: f64,
    /// Decode throughput of the solo sequential sessions (tokens/s) — the
    /// single-stream number the GEMV decode fast path moves directly.
    pub solo_decode_tok_per_s: f64,
    /// Median request latency in scheduler steps.
    pub latency_p50_steps: f64,
    /// 99th-percentile request latency in scheduler steps.
    pub latency_p99_steps: f64,
    /// Largest in-flight batch the scheduler reached.
    pub peak_batch: usize,
}

/// The deterministic request mix: request `i` prefills `prompt_tokens`
/// profile-calibrated embedding rows from stream seed `i`, so every
/// request carries a **distinct** token stream — a scheduler bug that
/// mixed rows between sessions would flip `batch_exact`, which is the
/// whole point of the gate.
pub fn request_prompts(cfg: &ServeBenchConfig) -> Vec<Matrix> {
    let profile = ModelProfile::llama3_8b();
    (0..cfg.requests)
        .map(|i| {
            activation_matrix(&profile, i, cfg.prompt_tokens, cfg.hidden).map(|v| (v * 0.25).tanh())
        })
        .collect()
}

/// Runs the full measurement. Deterministic given the configuration
/// (timings aside).
pub fn run(cfg: ServeBenchConfig) -> ServeReport {
    let profile = ModelProfile::llama3_8b();
    let weights: Arc<ModelWeights> = Arc::new(
        ModelBuilder::scaled(&profile, cfg.hidden, cfg.layers)
            .build_weights()
            .expect("scaled dimensions are group-aligned"),
    );
    let prompts = request_prompts(&cfg);

    // Solo: the same M requests, one session at a time. Like the batched
    // side, which runs on the server's engine thread, the sessions run on
    // one spawned thread, so the ratio compares scheduling rather than
    // which thread (and allocator arena) ran the model: run on the main
    // thread, the solo side swung the ratio 0.82–1.64 across runs of
    // unchanged code.
    let mut solo_outs = Vec::new();
    let mut solo = || {
        let t0 = Instant::now();
        let outs: Vec<Matrix> = std::thread::scope(|s| {
            s.spawn(|| {
                prompts
                    .iter()
                    .map(|p| run_solo(&weights, p, cfg.decode_steps).expect("solo run"))
                    .collect()
            })
            .join()
            .expect("solo thread completes")
        });
        let dt = t0.elapsed().as_secs_f64();
        solo_outs = outs;
        dt
    };

    // Batched: open-loop submission of every request, then wait for all.
    let (mut completed, mut peak_batch) = (Vec::new(), 0);
    let mut batched = || {
        let t0 = Instant::now();
        let server = Server::start(
            Arc::clone(&weights),
            ServeConfig {
                max_batch: cfg.max_batch,
                ..ServeConfig::default()
            },
        );
        let ids: Vec<u64> = prompts
            .iter()
            .map(|p| server.submit(p.clone(), cfg.decode_steps).expect("submit"))
            .collect();
        let done: Vec<Completed> = ids
            .into_iter()
            .map(|id| {
                server
                    .wait(id)
                    .expect("typed outcome")
                    .finished()
                    .expect("no faults in the throughput run")
            })
            .collect();
        let peak = server.stats().peak_batch;
        drop(server);
        let dt = t0.elapsed().as_secs_f64();
        (completed, peak_batch) = (done, peak);
        dt
    };
    let t = Interleaved::run(cfg.reps, [&mut solo, &mut batched]);
    let (solo_s, batch_s) = (t.best(0), t.best(1));

    let batch_exact = completed
        .iter()
        .zip(&solo_outs)
        .all(|(c, solo)| bits_eq(&c.decoded, solo));

    let mut latencies: Vec<f64> = completed
        .iter()
        .map(|c| (c.finished_step - c.arrived_step) as f64)
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let decode_tokens = (cfg.requests * cfg.decode_steps) as f64;

    ServeReport {
        cfg,
        batch_exact,
        solo_s,
        batch_s,
        speedup_batch: t.median(|s| s[0] / s[1]),
        req_per_s: cfg.requests as f64 / batch_s,
        decode_tok_per_s: decode_tokens / batch_s,
        solo_decode_tok_per_s: decode_tokens / solo_s,
        latency_p50_steps: percentile(&latencies, 0.50),
        latency_p99_steps: percentile(&latencies, 0.99),
        peak_batch,
    }
}

impl ServeReport {
    /// The report's (name, value) table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cfg", self.cfg.to_json()),
            ("batch_exact", self.batch_exact.into()),
            ("solo_s", Json::Num(self.solo_s, 6)),
            ("batch_s", Json::Num(self.batch_s, 6)),
            ("speedup_batch", Json::Num(self.speedup_batch, 3)),
            ("req_per_s", Json::Num(self.req_per_s, 3)),
            ("decode_tok_per_s", Json::Num(self.decode_tok_per_s, 2)),
            (
                "solo_decode_tok_per_s",
                Json::Num(self.solo_decode_tok_per_s, 2),
            ),
            ("latency_p50_steps", Json::Num(self.latency_p50_steps, 1)),
            ("latency_p99_steps", Json::Num(self.latency_p99_steps, 1)),
            ("peak_batch", self.peak_batch.into()),
        ])
    }
}

/// Dimensions and fault mix of one chaos + churn serving run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosBenchConfig {
    /// Hidden (residual stream) dimension.
    pub hidden: usize,
    /// Transformer layer count.
    pub layers: usize,
    /// Requests flooded at the server open-loop (more than it will admit).
    pub requests: usize,
    /// Prompt length per request, in tokens.
    pub prompt_tokens: usize,
    /// Closed-loop decode steps per request.
    pub decode_steps: usize,
    /// Admission window of the continuous-batching scheduler.
    pub max_batch: usize,
    /// Bounded arrival queue — the flood sheds everything past this.
    pub queue_capacity: usize,
    /// Seed of the [`FaultPlan`] (and nothing else: the workload is fixed).
    pub seed: u64,
    /// Injected step panics (each must fail exactly one request).
    pub panics: usize,
    /// Injected engine stalls.
    pub delays: usize,
    /// Injected mid-flight slot cancellations.
    pub cancels: usize,
    /// Last scheduler tick a fault may fire at. Keep it well below the
    /// ticks the churn wave typically drives (≈ `admitted · (1 + decode)
    /// / max_batch`) so the recovery wave usually runs fault-free.
    pub fault_horizon: u64,
}

impl ChaosBenchConfig {
    /// The fixed chaos scenario of both emitter profiles, gated by CI
    /// (`chaos.chaos_exact`, `chaos.zero_leak`). The flood is 4× the
    /// queue, so admission control *must* shed; the plan's horizon (16)
    /// sits below the ~22+ ticks the admitted work typically drives, so
    /// the recovery wave normally runs on an exhausted plan.
    pub fn ci() -> Self {
        ChaosBenchConfig {
            hidden: 128,
            layers: 2,
            requests: 24,
            prompt_tokens: 6,
            decode_steps: 8,
            max_batch: 4,
            queue_capacity: 6,
            seed: 0x00C0_FFEE,
            panics: 2,
            delays: 3,
            cancels: 3,
            fault_horizon: 16,
        }
    }

    /// The report's `cfg` table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hidden", self.hidden.into()),
            ("layers", self.layers.into()),
            ("requests", self.requests.into()),
            ("prompt_tokens", self.prompt_tokens.into()),
            ("decode_steps", self.decode_steps.into()),
            ("max_batch", self.max_batch.into()),
            ("queue_capacity", self.queue_capacity.into()),
            ("seed", self.seed.into()),
            ("panics", self.panics.into()),
            ("delays", self.delays.into()),
            ("cancels", self.cancels.into()),
            ("fault_horizon", self.fault_horizon.into()),
        ])
    }
}

/// Measured results of one chaos + churn run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Configuration measured.
    pub cfg: ChaosBenchConfig,
    /// Every request that **finished** (churn survivors and the
    /// post-chaos recovery wave alike) was bit-identical to its solo run,
    /// every failure was an injected fault, and at least one request
    /// finished (the fault budget is below the admission floor, so the
    /// check can never go vacuous). CI hard gate.
    pub chaos_exact: bool,
    /// `ModelWeights::open_sessions() == 0` after shutdown — no KV page
    /// outlived its request. CI hard gate.
    pub zero_leak: bool,
    /// Fraction of the flood shed by admission control.
    pub shed_rate: f64,
    /// 99th-percentile engine step latency (µs) under churn — measured
    /// across admission, expiry, cancellation and panic-recovery ticks.
    pub p99_step_us: f64,
    /// Scheduler ticks spent in reset-and-replay panic recovery.
    pub recovery_ticks: u64,
    /// Requests that ran to completion (both waves).
    pub finished: u64,
    /// Requests shed at admission.
    pub rejected: u64,
    /// Requests cancelled (all injected by the plan here).
    pub cancelled: u64,
    /// Requests that blew their step deadline.
    pub deadline_exceeded: u64,
    /// Requests failed by an injected panic.
    pub failed: u64,
    /// Panics the engine caught and recovered from (2 per fired
    /// injection: batched attempt + isolated replay).
    pub panics_recovered: u64,
    /// Wall time of the whole scenario (seconds) — advisory only; chaos
    /// wall time is dominated by injected delays.
    pub wall_s: f64,
}

/// Runs the chaos + churn scenario: flood a bounded-queue server wired to
/// a seeded [`FaultPlan`], classify every typed outcome, then prove the
/// engine still serves a full recovery wave bit-exactly and quiesces with
/// zero leaked sessions.
pub fn run_chaos(cfg: ChaosBenchConfig) -> ChaosReport {
    let profile = ModelProfile::llama3_8b();
    let weights: Arc<ModelWeights> = Arc::new(
        ModelBuilder::scaled(&profile, cfg.hidden, cfg.layers)
            .build_weights()
            .expect("scaled dimensions are group-aligned"),
    );
    let prompts: Vec<Matrix> = (0..cfg.requests + cfg.max_batch)
        .map(|i| {
            activation_matrix(&profile, i, cfg.prompt_tokens, cfg.hidden).map(|v| (v * 0.25).tanh())
        })
        .collect();
    let solo = |p: &Matrix| run_solo(&weights, p, cfg.decode_steps).expect("solo run");

    let plan = FaultPlan::seeded(
        cfg.seed,
        cfg.fault_horizon,
        cfg.max_batch,
        cfg.panics,
        cfg.delays,
        cfg.cancels,
        300,
    );
    let mut server = Server::start_with_faults(
        Arc::clone(&weights),
        ServeConfig {
            max_batch: cfg.max_batch,
            queue_capacity: cfg.queue_capacity,
            ..ServeConfig::default()
        },
        plan,
    );

    let t0 = Instant::now();
    // ── Churn wave: flood 4× the queue; every 6th request carries a
    //    too-tight step deadline. Shed, expiry, injected cancels and
    //    injected panics all land in this wave. ──
    let ids: Vec<u64> = prompts[..cfg.requests]
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let opts = if i % 6 == 5 {
                RequestOptions {
                    deadline_steps: Some((cfg.decode_steps / 2) as u64),
                    ..RequestOptions::default()
                }
            } else {
                RequestOptions::default()
            };
            server
                .submit_with(p.clone(), cfg.decode_steps, opts)
                .expect("server is live")
        })
        .collect();
    let mut chaos_exact = true;
    for (i, id) in ids.iter().enumerate() {
        match server.wait(*id).expect("typed outcome") {
            RequestOutcome::Finished(c) => {
                chaos_exact &= bits_eq(&c.decoded, &solo(&prompts[i]));
            }
            RequestOutcome::Failed { error } => {
                // Only the plan may fail requests in this scenario.
                chaos_exact &= error.contains("injected fault");
            }
            RequestOutcome::Rejected { .. }
            | RequestOutcome::Cancelled { .. }
            | RequestOutcome::DeadlineExceeded { .. } => {}
        }
    }

    // ── Recovery wave: `max_batch` fresh requests, submitted one at a
    //    time (so admission control can never shed them). Normally the
    //    churn wave has driven the step counter past the plan's horizon
    //    and all of these finish; ticks only advance under load, though,
    //    so a residual planned fault may still land here — that keeps a
    //    *typed* per-request outcome, never an untyped one. ──
    for p in &prompts[cfg.requests..] {
        let id = server
            .submit(p.clone(), cfg.decode_steps)
            .expect("server is live");
        match server.wait(id).expect("typed outcome") {
            RequestOutcome::Finished(c) => chaos_exact &= bits_eq(&c.decoded, &solo(p)),
            RequestOutcome::Failed { error } => chaos_exact &= error.contains("injected fault"),
            // A residual planned cancel is legal; nothing here carries a
            // deadline and a serial submitter cannot be shed.
            RequestOutcome::Cancelled { .. } => {}
            RequestOutcome::Rejected { .. } | RequestOutcome::DeadlineExceeded { .. } => {
                chaos_exact = false;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let stats = server.shutdown();
    let zero_leak = weights.open_sessions() == 0;
    let finished = cfg.requests as u64 + cfg.max_batch as u64
        - stats.rejected
        - stats.cancelled
        - stats.deadline_exceeded
        - stats.failed;
    // Non-vacuous by construction: admitted ≥ queue_capacity + max_batch
    // while panics + cancels + deadline victims stay strictly below it.
    chaos_exact &= finished >= 1;
    ChaosReport {
        cfg,
        chaos_exact,
        zero_leak,
        shed_rate: stats.rejected as f64 / cfg.requests as f64,
        p99_step_us: stats.p99_step_us,
        recovery_ticks: stats.recovery_ticks,
        finished,
        rejected: stats.rejected,
        cancelled: stats.cancelled,
        deadline_exceeded: stats.deadline_exceeded,
        failed: stats.failed,
        panics_recovered: stats.panics_recovered,
        wall_s,
    }
}

impl ChaosReport {
    /// The report's (name, value) table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cfg", self.cfg.to_json()),
            ("chaos_exact", self.chaos_exact.into()),
            ("zero_leak", self.zero_leak.into()),
            ("shed_rate", Json::Num(self.shed_rate, 3)),
            ("p99_step_us", Json::Num(self.p99_step_us, 1)),
            ("recovery_ticks", self.recovery_ticks.into()),
            ("finished", self.finished.into()),
            ("rejected", self.rejected.into()),
            ("cancelled", self.cancelled.into()),
            ("deadline_exceeded", self.deadline_exceeded.into()),
            ("failed", self.failed.into()),
            ("panics_recovered", self.panics_recovered.into()),
            ("wall_s", Json::Num(self.wall_s, 6)),
        ])
    }
}

/// Dimensions of one paged-KV prefix-sharing churn run.
#[derive(Debug, Clone, Copy)]
pub struct PrefixChurnConfig {
    /// Hidden (residual stream) dimension.
    pub hidden: usize,
    /// Transformer layer count.
    pub layers: usize,
    /// Requests sharing the common prompt prefix. The first runs alone
    /// and seeds the pool's prefix index; the rest adopt its frozen
    /// pages.
    pub requests: usize,
    /// Shared prefix length in tokens — a multiple of the KV page size,
    /// so it freezes whole pages.
    pub prefix_tokens: usize,
    /// Distinct per-request suffix length in tokens.
    pub suffix_tokens: usize,
    /// Closed-loop decode steps per request.
    pub decode_steps: usize,
    /// Admission window of the continuous-batching scheduler.
    pub max_batch: usize,
    /// Long-running churn victims submitted alongside the adopters and
    /// cancelled mid-flight, so pages release to the free list and
    /// recycle while shared pages are live.
    pub cancels: usize,
}

impl PrefixChurnConfig {
    /// The fixed prefix-churn scenario of the emitter's `ci` profile,
    /// gated by CI (`kv_pool.reuse_exact`, `kv_pool.zero_leak`): one
    /// 32-token page of shared prefix (the default page size), distinct
    /// suffixes, admission churn from cancelled long-runners.
    pub fn ci() -> Self {
        PrefixChurnConfig {
            hidden: 128,
            layers: 2,
            requests: 8,
            prefix_tokens: 32,
            suffix_tokens: 8,
            decode_steps: 6,
            max_batch: 4,
            cancels: 2,
        }
    }

    /// The report's `cfg` table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hidden", self.hidden.into()),
            ("layers", self.layers.into()),
            ("requests", self.requests.into()),
            ("prefix_tokens", self.prefix_tokens.into()),
            ("suffix_tokens", self.suffix_tokens.into()),
            ("decode_steps", self.decode_steps.into()),
            ("max_batch", self.max_batch.into()),
            ("cancels", self.cancels.into()),
        ])
    }
}

/// Measured results of one prefix-sharing churn run.
#[derive(Debug, Clone)]
pub struct PrefixChurnReport {
    /// Configuration measured.
    pub cfg: PrefixChurnConfig,
    /// Every request served off pooled/adopted/recycled pages was
    /// bit-identical to its solo run, every adopter actually hit the
    /// prefix cache, and at least one page was recycled from the free
    /// list (the check can never go vacuous). CI hard gate.
    pub reuse_exact: bool,
    /// Zero open sessions **and** zero pool pages in use after shutdown —
    /// every page returned to the free list, no handle outlived its
    /// request. CI hard gate.
    pub zero_leak: bool,
    /// Frozen prefix pages adopted across the run (deterministic:
    /// `requests - 1` adopters × 1 prefix page).
    pub prefix_hits: u64,
    /// Prefix lookups that adopted nothing (the seeding request plus the
    /// short churn victims).
    pub prefix_misses: u64,
    /// Free-list hit rate of page acquisition:
    /// `page_reuses / (page_allocs + page_reuses)`.
    pub hit_rate: f64,
    /// Pages allocated fresh.
    pub page_allocs: u64,
    /// Pages recycled from the free list.
    pub page_reuses: u64,
    /// Copy-on-write forks (0 here: appends after a *full* shared page
    /// never fork it — sharing survives decode).
    pub cow_clones: u64,
    /// High-water mark of pages in use.
    pub peak_pages: u64,
    /// Shared-page gauge sampled mid-wave (advisory: racy against
    /// admission timing, but ≥ 1 whenever an adopter holds the frozen
    /// page at the sample point).
    pub shared_pages_mid: u64,
    /// Unused token-row fraction of in-flight pages at the last engine
    /// tick (partially-filled tail pages drive this).
    pub fragmentation: f64,
    /// Packed KV bytes of in-flight sessions at the last engine tick —
    /// what the admission budget meters.
    pub packed_bytes: u64,
    /// Decoded f32 KV bytes of in-flight sessions at the last engine
    /// tick — reported, never gated.
    pub decoded_bytes: u64,
    /// Wall time of the whole scenario (seconds), advisory.
    pub wall_s: f64,
}

/// The churn workload's prompts: one shared `prefix_tokens`-row prefix
/// stitched to a distinct per-request suffix, so every prompt shares
/// pages but no two requests carry the same token stream.
pub fn prefix_churn_prompts(cfg: &PrefixChurnConfig) -> Vec<Matrix> {
    let profile = ModelProfile::llama3_8b();
    let prefix = activation_matrix(&profile, 9_000, cfg.prefix_tokens, cfg.hidden)
        .map(|v| (v * 0.25).tanh());
    (0..cfg.requests)
        .map(|i| {
            let suffix = activation_matrix(&profile, 9_100 + i, cfg.suffix_tokens, cfg.hidden)
                .map(|v| (v * 0.25).tanh());
            let mut p = prefix.clone();
            p.push_rows(&suffix);
            p
        })
        .collect()
}

/// Runs the prefix-sharing churn scenario: solo oracles first (fresh
/// sessions, never the prefix index), then one request seeds the frozen
/// prefix, the rest adopt it concurrently while long-running victims are
/// cancelled mid-flight to force free-list recycling under sharing.
pub fn run_prefix_churn(cfg: PrefixChurnConfig) -> PrefixChurnReport {
    let profile = ModelProfile::llama3_8b();
    let weights: Arc<ModelWeights> = Arc::new(
        ModelBuilder::scaled(&profile, cfg.hidden, cfg.layers)
            .build_weights()
            .expect("scaled dimensions are group-aligned"),
    );
    let prompts = prefix_churn_prompts(&cfg);
    let solo: Vec<Matrix> = prompts
        .iter()
        .map(|p| run_solo(&weights, p, cfg.decode_steps).expect("solo run"))
        .collect();

    let mut server = Server::start(
        Arc::clone(&weights),
        ServeConfig {
            max_batch: cfg.max_batch,
            ..ServeConfig::default()
        },
    );
    let t0 = Instant::now();
    // Seed: the first request runs alone and registers the frozen prefix
    // (registration lands on its prefill tick, well before its outcome).
    let first = server
        .submit(prompts[0].clone(), cfg.decode_steps)
        .expect("submit");
    let mut reuse_exact = bits_eq(
        &server
            .wait(first)
            .expect("typed outcome")
            .finished()
            .expect("no faults in this scenario")
            .decoded,
        &solo[0],
    );
    // Churn victims: short prompts (below one page of prefix — always a
    // lookup miss), effectively unbounded decode, cancelled mid-wave so
    // their pages recycle under the adopters.
    let victims: Vec<u64> = (0..cfg.cancels)
        .map(|i| {
            let p = activation_matrix(&profile, 9_500 + i, cfg.suffix_tokens.max(2), cfg.hidden)
                .map(|v| (v * 0.25).tanh());
            server.submit(p, 1_000_000).expect("submit")
        })
        .collect();
    // Adopters: the rest of the wave, open-loop.
    let ids: Vec<u64> = prompts[1..]
        .iter()
        .map(|p| server.submit(p.clone(), cfg.decode_steps).expect("submit"))
        .collect();
    let shared_pages_mid = server.stats().kv_pool.shared_pages;
    for v in &victims {
        let _ = server.cancel(*v);
    }
    for (id, s) in ids.iter().zip(&solo[1..]) {
        let out = server
            .wait(*id)
            .expect("typed outcome")
            .finished()
            .expect("no faults in this scenario");
        reuse_exact &= bits_eq(&out.decoded, s);
    }
    for v in victims {
        let _ = server.wait(v);
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let stats = server.shutdown();
    let pool = stats.kv_pool;
    let zero_leak = weights.open_sessions() == 0 && pool.pages_in_use == 0;
    // Non-vacuity: every adopter must actually have hit the prefix cache
    // (requests − 1 adopters × exactly 1 frozen prefix page each), and
    // churn must have recycled at least one page through the free list.
    reuse_exact &= pool.prefix_hits == (cfg.requests - 1) as u64;
    reuse_exact &= pool.page_reuses >= 1;
    let grabs = pool.page_allocs + pool.page_reuses;
    PrefixChurnReport {
        cfg,
        reuse_exact,
        zero_leak,
        prefix_hits: pool.prefix_hits,
        prefix_misses: pool.prefix_misses,
        hit_rate: if grabs == 0 {
            0.0
        } else {
            pool.page_reuses as f64 / grabs as f64
        },
        page_allocs: pool.page_allocs,
        page_reuses: pool.page_reuses,
        cow_clones: pool.cow_clones,
        peak_pages: pool.peak_pages,
        shared_pages_mid,
        fragmentation: stats.kv_fragmentation,
        packed_bytes: stats.kv_packed_bytes,
        decoded_bytes: stats.kv_decoded_bytes,
        wall_s,
    }
}

impl PrefixChurnReport {
    /// The report's (name, value) table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cfg", self.cfg.to_json()),
            ("reuse_exact", self.reuse_exact.into()),
            ("zero_leak", self.zero_leak.into()),
            ("prefix_hits", self.prefix_hits.into()),
            ("prefix_misses", self.prefix_misses.into()),
            ("hit_rate", Json::Num(self.hit_rate, 3)),
            ("page_allocs", self.page_allocs.into()),
            ("page_reuses", self.page_reuses.into()),
            ("cow_clones", self.cow_clones.into()),
            ("peak_pages", self.peak_pages.into()),
            ("shared_pages_mid", self.shared_pages_mid.into()),
            ("fragmentation", Json::Num(self.fragmentation, 3)),
            ("packed_bytes", self.packed_bytes.into()),
            ("decoded_bytes", self.decoded_bytes.into()),
            ("wall_s", Json::Num(self.wall_s, 6)),
        ])
    }
}

/// Dimensions and knobs of one telemetry overhead + fidelity run.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryBenchConfig {
    /// Hidden (residual stream) dimension.
    pub hidden: usize,
    /// Transformer layer count.
    pub layers: usize,
    /// Requests driven one at a time (closed loop, single stream).
    pub requests: usize,
    /// Prompt length per request, in tokens.
    pub prompt_tokens: usize,
    /// Closed-loop decode steps per request.
    pub decode_steps: usize,
    /// Measurement repetitions (best-of is reported).
    pub reps: usize,
}

impl TelemetryBenchConfig {
    /// The fixed configuration of both emitter profiles, gated by CI:
    /// single-stream decode at the serving dims (hidden 256), the
    /// shape the `solo_decode_tok_per_s` headline moves — so
    /// `overhead_ratio` answers "what does leaving tracing on cost the
    /// number we actually advertise?".
    pub fn ci() -> Self {
        TelemetryBenchConfig {
            hidden: 256,
            layers: 2,
            requests: 4,
            prompt_tokens: 8,
            decode_steps: 12,
            reps: 3,
        }
    }

    /// The report's `cfg` table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hidden", self.hidden.into()),
            ("layers", self.layers.into()),
            ("requests", self.requests.into()),
            ("prompt_tokens", self.prompt_tokens.into()),
            ("decode_steps", self.decode_steps.into()),
            ("reps", self.reps.into()),
        ])
    }
}

/// Measured results of one telemetry run.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Configuration measured.
    pub cfg: TelemetryBenchConfig,
    /// The drained trace reconstructs every request's exact lifecycle
    /// (one submitted/admitted/prefill/finished, one token instant per
    /// decoded row in order, no spurious terminals, one TICK span per
    /// engine tick, every sub-tick stage present, nothing dropped).
    /// CI hard gate.
    pub trace_exact: bool,
    /// Warm trace/histogram/stage recording performed zero heap
    /// allocations. `None` when the process did not install the counting
    /// global allocator (the witness would be vacuous — rendered as JSON
    /// `null`, which the gate treats as "measurement skipped").
    /// CI hard gate in the bench binary, which installs the probe.
    pub zero_alloc: Option<bool>,
    /// Raw allocation count behind `zero_alloc` (0 when the probe is not
    /// installed).
    pub recording_allocs: u64,
    /// Traced over untraced single-stream decode throughput (≈ 1.0;
    /// advisory CI gate — a drop means tracing got expensive). Both
    /// sides are scored by their fastest engine tick across reps (the
    /// step-latency histogram's exact min), not wave wall clock, so
    /// scheduler wakeup latency and runner preemption — which only ever
    /// add time, to both modes alike — cancel out of the ratio.
    pub overhead_ratio: f64,
    /// Single-stream decode throughput with tracing on (tokens per
    /// second at the floor tick cost).
    pub traced_tok_per_s: f64,
    /// Single-stream decode throughput with tracing off (tokens per
    /// second at the floor tick cost).
    pub untraced_tok_per_s: f64,
    /// Engine ticks of the analysis wave (prefill + decode).
    pub ticks: u64,
    /// Trace events drained from all rings after the analysis wave.
    pub trace_events: usize,
    /// Events lost to full rings (0 for an exact trace).
    pub trace_dropped: u64,
    /// Per-stage accumulated time across the analysis wave (µs).
    pub assemble_us: f64,
    /// Activation quantization time (µs).
    pub encode_us: f64,
    /// Quantized GEMM time (µs).
    pub qgemm_us: f64,
    /// Attention (scores + mix over the KV cache) time (µs).
    pub attention_us: f64,
    /// KV-cache append time (µs).
    pub kv_append_us: f64,
    /// Output feedback ("sampling") time (µs).
    pub feedback_us: f64,
    /// Sum of the six sub-tick stages (µs).
    pub stage_sum_us: f64,
    /// Sum of the whole-tick latency histogram (µs).
    pub tick_sum_us: f64,
    /// `stage_sum_us / tick_sum_us` — how much of measured tick time the
    /// stage clocks account for. The bench binary asserts this lands
    /// within 10% of 1.0 at the CI dims: the split must explain the tick,
    /// not decorate it.
    pub stage_cover: f64,
}

/// The `engine.zero_syscall_tick` witness: eight sessions of a GQA model
/// (hidden 256 × 2 layers, 4 query heads sharing 1 KV head) prefill 40
/// tokens each, warm up for two decode ticks, then step eight more
/// through [`ModelWeights::step_sessions_scratch`] with auto-sized
/// workers while `/proc/self/io` counts the process's `read` syscalls.
/// `Some(true)` when those ticks made none, `None` where the counter is
/// unavailable. The counter sums over every thread of the process, so run
/// this before anything else starts a thread.
pub fn zero_syscall_tick() -> Option<bool> {
    let profile = ModelProfile::llama3_8b();
    let weights = ModelBuilder::scaled(&profile, 256, 2)
        .heads(4, 1)
        .build_weights()
        .expect("scaled dimensions are group-aligned");
    let mut sessions: Vec<_> = (0..8).map(|_| weights.new_session()).collect();
    let mut scratch = StepScratch::new();
    let mut tick = |sessions: &mut [SessionState], rows: usize, seed: usize| {
        let inputs: Vec<Matrix> = (0..8)
            .map(|s| activation_matrix(&profile, seed + s, rows, 256).map(|v| (v * 0.25).tanh()))
            .collect();
        let mut refs: Vec<_> = sessions.iter_mut().collect();
        let out = weights.step_sessions_scratch(&mut refs, &inputs, 0, &mut scratch);
        out.expect("aligned inputs step");
    };
    tick(&mut sessions, 40, 0);
    for t in 0..2 {
        tick(&mut sessions, 1, 100 + 8 * t);
    }
    let (reads, ()) = count_read_syscalls(|| {
        for t in 0..8 {
            tick(&mut sessions, 1, 200 + 8 * t);
        }
    });
    reads.map(|n| n == 0)
}

/// Warm-recording allocation witness: after warm-up, a burst of trace
/// span/instant pushes, histogram records and stage-tally bookings must
/// not touch the heap. Returns `(probe_live, allocations)` — the caller
/// treats a dead probe (counting allocator not installed in this
/// process) as "measurement skipped" rather than a vacuous pass.
fn warm_recording_allocations() -> (bool, u64) {
    let tele = Arc::new(Telemetry::new(true));
    let trace = tele.register("witness", 256);
    let mut hist = Histogram::default();
    let mut tally = StageTally::new();
    tally.set_enabled(true);
    trace.span(stage::TICK, 0, 0, 1, 1);
    hist.record(1);
    tally.add_ns(stage::QGEMM, 1);
    let (allocs, ()) = count_allocations(|| {
        for i in 0..1024u64 {
            trace.span(stage::TICK, 0, i, i + 1, 1);
            trace.instant(stage::REQ_TOKEN, 7, i);
            hist.record(i);
            tally.add_ns(stage::QGEMM, 100);
            tally.time(stage::ATTENTION, || black_box(i));
        }
    });
    let (canary, _) = count_allocations(|| black_box(Box::new([0u8; 8])));
    (canary > 0, allocs)
}

/// Reconstructs every request's lifecycle from the drained rings and
/// checks it against the typed outcomes: the trace must be a faithful,
/// complete transcript, not a sample.
fn lifecycle_matches(completed: &[(u64, Completed)], rings: &[m2x_telemetry::DrainedRing]) -> bool {
    let mut ok = rings.iter().all(|r| r.dropped == 0);
    for (id, c) in completed {
        let req = *id as u32;
        let evs = || {
            rings
                .iter()
                .flat_map(|r| r.events.iter())
                .filter(move |e| e.req == req)
                .filter(|e| (stage::REQ_SUBMITTED..=stage::REQ_FAILED).contains(&e.stage))
        };
        let count = |s: u16| evs().filter(|e| e.stage == s).count();
        ok &= count(stage::REQ_SUBMITTED) == 1;
        ok &= count(stage::REQ_ADMITTED) == 1;
        ok &= count(stage::REQ_PREFILL) == 1;
        ok &= count(stage::REQ_FINISHED) == 1;
        ok &= count(stage::REQ_REJECTED) == 0
            && count(stage::REQ_CANCELLED) == 0
            && count(stage::REQ_DEADLINE) == 0
            && count(stage::REQ_FAILED) == 0;
        // Every decoded row left a token instant, in decode order (ring
        // order is push order, so this also pins emission ordering).
        let toks: Vec<u64> = evs()
            .filter(|e| e.stage == stage::REQ_TOKEN)
            .map(|e| e.value)
            .collect();
        ok &= toks.len() == c.decoded.rows();
        ok &= toks.iter().enumerate().all(|(i, v)| *v == i as u64);
        ok &= evs()
            .find(|e| e.stage == stage::REQ_FINISHED)
            .is_some_and(|e| e.value == c.decoded.rows() as u64);
    }
    ok
}

/// Runs the telemetry measurement: the zero-alloc recording witness, a
/// traced-vs-untraced single-stream overhead comparison, then one traced
/// analysis wave whose drained trace is reconstructed request by request
/// and whose stage clocks are compared against the tick histogram.
pub fn run_telemetry(cfg: TelemetryBenchConfig) -> TelemetryReport {
    // Witness first, while no engine threads are running: allocation
    // counting is process-wide.
    let (probe_live, recording_allocs) = warm_recording_allocations();
    let zero_alloc = if probe_live {
        Some(recording_allocs == 0)
    } else {
        None
    };

    let profile = ModelProfile::llama3_8b();
    let weights: Arc<ModelWeights> = Arc::new(
        ModelBuilder::scaled(&profile, cfg.hidden, cfg.layers)
            .build_weights()
            .expect("scaled dimensions are group-aligned"),
    );
    let prompts = request_prompts(&ServeBenchConfig {
        hidden: cfg.hidden,
        layers: cfg.layers,
        requests: cfg.requests,
        prompt_tokens: cfg.prompt_tokens,
        decode_steps: cfg.decode_steps,
        max_batch: 1,
        reps: cfg.reps,
    });

    // Closed-loop single-stream wave: one request in flight at a time, so
    // the ratio below is the tracing tax on the solo decode headline.
    // Tracing cost lives *inside* the engine tick, so each wave is scored
    // by its **fastest tick** (the latency histogram records in both
    // modes, and its min is exact): wall clock over a short wave is
    // dominated by engine-thread wakeup latency and runner contention,
    // neither of which tracing can affect, while preemption and cache
    // pollution only ever add time — so the min-tick of each mode
    // estimates its clean per-tick cost, and the ratio isolates the
    // tracing tax. Reps interleave the two modes so machine-load drift
    // hits both equally.
    let wave = |telemetry: bool| -> Histogram {
        let server = Server::start(
            Arc::clone(&weights),
            ServeConfig {
                max_batch: 1,
                telemetry,
                ..ServeConfig::default()
            },
        );
        for p in &prompts {
            let id = server.submit(p.clone(), cfg.decode_steps).expect("submit");
            server
                .wait(id)
                .expect("typed outcome")
                .finished()
                .expect("no faults in the telemetry run");
        }
        server.telemetry_snapshot().step_us
    };
    let mut wave_ticks = 0u64;
    let mut traced_min_us = u64::MAX;
    let mut untraced_min_us = u64::MAX;
    for _ in 0..cfg.reps.max(1) {
        let h = wave(true);
        wave_ticks = h.count();
        traced_min_us = traced_min_us.min(h.min());
        untraced_min_us = untraced_min_us.min(wave(false).min());
    }
    // Idealized noise-free wave time: every tick at the floor cost.
    let traced_s = traced_min_us as f64 * wave_ticks as f64 / 1e6;
    let untraced_s = untraced_min_us as f64 * wave_ticks as f64 / 1e6;
    let tokens = (cfg.requests * cfg.decode_steps) as f64;

    // Analysis wave (untimed): one traced run whose rings and histograms
    // are inspected rather than raced.
    let server = Server::start(
        Arc::clone(&weights),
        ServeConfig {
            max_batch: 1,
            telemetry: true,
            ..ServeConfig::default()
        },
    );
    let completed: Vec<(u64, Completed)> = prompts
        .iter()
        .map(|p| {
            let id = server.submit(p.clone(), cfg.decode_steps).expect("submit");
            let c = server
                .wait(id)
                .expect("typed outcome")
                .finished()
                .expect("no faults in the telemetry run");
            (id, c)
        })
        .collect();
    let snap = server.telemetry_snapshot();
    let rings = server.telemetry().drain();
    drop(server);

    let ticks = snap.step_us.count();
    let engine_spans = |s: u16| {
        rings
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|e| e.stage == s)
            .count() as u64
    };
    let trace_exact = lifecycle_matches(&completed, &rings)
        && engine_spans(stage::TICK) == ticks
        && (stage::ASSEMBLE..stage::TICK_STAGES as u16).all(|s| engine_spans(s) > 0);

    let us = |s: u16| snap.stages.ns(s) as f64 / 1000.0;
    let stage_sum_us = snap.stages.stage_sum_ns() as f64 / 1000.0;
    let tick_sum_us = snap.step_us.sum() as f64;

    TelemetryReport {
        cfg,
        trace_exact,
        zero_alloc,
        recording_allocs,
        overhead_ratio: untraced_s / traced_s,
        traced_tok_per_s: tokens / traced_s,
        untraced_tok_per_s: tokens / untraced_s,
        ticks,
        trace_events: rings.iter().map(|r| r.events.len()).sum(),
        trace_dropped: rings.iter().map(|r| r.dropped).sum(),
        assemble_us: us(stage::ASSEMBLE),
        encode_us: us(stage::ENCODE),
        qgemm_us: us(stage::QGEMM),
        attention_us: us(stage::ATTENTION),
        kv_append_us: us(stage::KV_APPEND),
        feedback_us: us(stage::FEEDBACK),
        stage_sum_us,
        tick_sum_us,
        stage_cover: if tick_sum_us > 0.0 {
            stage_sum_us / tick_sum_us
        } else {
            0.0
        },
    }
}

impl TelemetryReport {
    /// The report's (name, value) table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cfg", self.cfg.to_json()),
            ("trace_exact", self.trace_exact.into()),
            ("zero_alloc", self.zero_alloc.into()),
            ("recording_allocs", self.recording_allocs.into()),
            ("overhead_ratio", Json::Num(self.overhead_ratio, 3)),
            ("traced_tok_per_s", Json::Num(self.traced_tok_per_s, 2)),
            ("untraced_tok_per_s", Json::Num(self.untraced_tok_per_s, 2)),
            ("ticks", self.ticks.into()),
            ("trace_events", self.trace_events.into()),
            ("trace_dropped", self.trace_dropped.into()),
            ("assemble_us", Json::Num(self.assemble_us, 1)),
            ("encode_us", Json::Num(self.encode_us, 1)),
            ("qgemm_us", Json::Num(self.qgemm_us, 1)),
            ("attention_us", Json::Num(self.attention_us, 1)),
            ("kv_append_us", Json::Num(self.kv_append_us, 1)),
            ("feedback_us", Json::Num(self.feedback_us, 1)),
            ("stage_sum_us", Json::Num(self.stage_sum_us, 1)),
            ("tick_sum_us", Json::Num(self.tick_sum_us, 1)),
            ("stage_cover", Json::Num(self.stage_cover, 3)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_prompts_are_distinct() {
        // Identical prompts would make the batch_exact gate vacuous: a
        // cross-session row mix-up between identical streams is invisible.
        let prompts = request_prompts(&ServeBenchConfig::ci());
        for i in 0..prompts.len() {
            for j in i + 1..prompts.len() {
                assert_ne!(prompts[i], prompts[j], "prompts {i} and {j} collide");
            }
        }
    }

    #[test]
    fn chaos_run_holds_both_gates_at_small_dims() {
        let cfg = ChaosBenchConfig {
            hidden: 64,
            layers: 1,
            requests: 8,
            prompt_tokens: 3,
            decode_steps: 4,
            max_batch: 2,
            queue_capacity: 3,
            seed: 7,
            panics: 1,
            delays: 1,
            cancels: 1,
            fault_horizon: 6,
        };
        let r = run_chaos(cfg);
        assert!(r.chaos_exact, "chaos run lost bit-exactness: {r:?}");
        assert!(r.zero_leak, "chaos run leaked sessions: {r:?}");
        assert!(r.finished >= 1);
        assert_eq!(r.panics_recovered, 2 * r.failed, "exact attribution");
        let json = r.to_json().render();
        assert!(json.contains("\"chaos_exact\": true"));
        assert!(json.contains("\"zero_leak\": true"));
        assert!(json.contains("\"recovery_ticks\""));
    }

    #[test]
    fn prefix_churn_holds_both_gates_at_small_dims() {
        let cfg = PrefixChurnConfig {
            hidden: 64,
            layers: 1,
            requests: 4,
            prefix_tokens: 32,
            suffix_tokens: 4,
            decode_steps: 4,
            max_batch: 3,
            cancels: 1,
        };
        let r = run_prefix_churn(cfg);
        assert!(r.reuse_exact, "prefix churn lost bit-exactness: {r:?}");
        assert!(r.zero_leak, "prefix churn leaked pages or sessions: {r:?}");
        assert_eq!(r.prefix_hits, 3, "every adopter hits one frozen page");
        assert!(r.page_reuses >= 1, "churn must recycle the free list");
        assert!(r.hit_rate > 0.0);
        assert!(r.fragmentation > 0.0, "tail pages are partially filled");
        let json = r.to_json().render();
        assert!(json.contains("\"reuse_exact\": true"));
        assert!(json.contains("\"zero_leak\": true"));
        assert!(json.contains("\"hit_rate\""));
        assert!(json.contains("\"fragmentation\""));
    }

    #[test]
    fn prefix_churn_prompts_share_exactly_the_prefix() {
        let cfg = PrefixChurnConfig::ci();
        let prompts = prefix_churn_prompts(&cfg);
        assert_eq!(prompts.len(), cfg.requests);
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(p.rows(), cfg.prefix_tokens + cfg.suffix_tokens);
            for q in &prompts[i + 1..] {
                for r in 0..cfg.prefix_tokens {
                    for c in 0..cfg.hidden {
                        assert_eq!(p[(r, c)].to_bits(), q[(r, c)].to_bits());
                    }
                }
                assert_ne!(p, q, "suffixes must differ or reuse_exact is vacuous");
            }
        }
    }

    #[test]
    fn telemetry_run_reconstructs_lifecycles_at_small_dims() {
        let cfg = TelemetryBenchConfig {
            hidden: 64,
            layers: 1,
            requests: 2,
            prompt_tokens: 3,
            decode_steps: 3,
            reps: 1,
        };
        let r = run_telemetry(cfg);
        assert!(r.trace_exact, "trace reconstruction failed: {r:?}");
        assert_eq!(r.trace_dropped, 0);
        // Each request is one prefill tick plus `decode_steps` decode
        // ticks at max_batch 1.
        assert_eq!(r.ticks, 2 * (1 + 3));
        assert!(r.overhead_ratio > 0.0 && r.traced_tok_per_s > 0.0);
        assert!(r.stage_sum_us > 0.0 && r.tick_sum_us > 0.0);
        // Microsecond truncation on ~100µs ticks makes the cover noisy at
        // these dims; the bench binary asserts the tight 10% window at
        // the CI dims, here it only has to be sane.
        assert!(
            r.stage_cover > 0.5 && r.stage_cover < 1.5,
            "stage cover {}",
            r.stage_cover
        );
        // The library's own test process never installs the counting
        // allocator, so the witness reports "skipped", not a vacuous pass.
        let json = r.to_json().render();
        assert!(json.contains("\"trace_exact\": true"));
        assert!(json.contains("\"zero_alloc\": null"));
        assert!(json.contains("\"stage_cover\""));
    }

    #[test]
    fn ci_run_is_exact() {
        let cfg = ServeBenchConfig {
            hidden: 64,
            layers: 1,
            requests: 3,
            prompt_tokens: 3,
            decode_steps: 2,
            max_batch: 3,
            reps: 1,
        };
        let r = run(cfg);
        assert!(r.batch_exact, "batched streams diverged from solo");
        assert!(r.speedup_batch > 0.0 && r.decode_tok_per_s > 0.0);
        assert!(r.latency_p99_steps >= r.latency_p50_steps);
        assert!(r.peak_batch >= 2, "peak batch {}", r.peak_batch);
        let json = r.to_json().render();
        assert!(json.contains("\"batch_exact\": true"));
        assert!(json.contains("\"speedup_batch\""));
    }
}
