//! Serving-throughput measurement harness — behind the `serve`, `chaos`,
//! `kv_pool` and `telemetry` sections of `bench_m2xfp_json`, and its
//! `engine` syscall witness.
//!
//! Each runner builds one shared prepared model ([`shared_weights`]) and
//! its deterministic prompts ([`prompt`]), drives the scenario, and returns
//! its section's report table, each leaf written once where its value is
//! computed. The `serve` section measures the same workload two ways:
//!
//! * **solo** — each request on its own fresh session, one after another;
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

/// A prompt of `tokens` embedding rows from stream `seed`:
/// profile-calibrated LLaMA3-8B activations squashed into an
/// embedding-like range, so deep stacks stay well conditioned. Distinct
/// seeds give distinct rows.
pub fn prompt(seed: usize, tokens: usize, hidden: usize) -> Matrix {
    activation_matrix(&ModelProfile::llama3_8b(), seed, tokens, hidden).map(|v| (v * 0.25).tanh())
}

/// The prepared weights of a scaled LLaMA3-8B stack, shared by every
/// session and server of one run.
pub fn shared_weights(hidden: usize, layers: usize) -> Arc<ModelWeights> {
    Arc::new(
        ModelBuilder::scaled(&ModelProfile::llama3_8b(), hidden, layers)
            .build_weights()
            .expect("scaled dimensions are group-aligned"),
    )
}

/// The deterministic request mix: request `i` prefills `tokens` prompt
/// rows from stream seed `i`, so every request carries a **distinct**
/// token stream — a scheduler bug that mixed rows between sessions would
/// flip `batch_exact`, which is the whole point of the gate.
pub fn request_prompts(requests: usize, tokens: usize, hidden: usize) -> Vec<Matrix> {
    (0..requests).map(|i| prompt(i, tokens, hidden)).collect()
}

/// Runs the `serve` measurement and returns its table. Deterministic
/// given the configuration (timings aside).
pub fn run(cfg: ServeBenchConfig) -> Json {
    let weights = shared_weights(cfg.hidden, cfg.layers);
    let prompts = request_prompts(cfg.requests, cfg.prompt_tokens, cfg.hidden);

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

    Json::obj([
        ("cfg", cfg.to_json()),
        // Hard gate: every request's batched token stream is bit-identical
        // to its solo run.
        ("batch_exact", batch_exact.into()),
        // Best-of-reps wall times of the solo sessions and the batched run.
        ("solo_s", Json::Num(solo_s, 6)),
        ("batch_s", Json::Num(batch_s, 6)),
        // Hard gate: solo over batched wall time (> 1 means batching
        // wins), the median over reps of each rep's ratio, both sides
        // timed back to back (see [`crate::timing`]).
        ("speedup_batch", Json::Num(t.median(|s| s[0] / s[1]), 3)),
        ("req_per_s", Json::Num(cfg.requests as f64 / batch_s, 3)),
        // Aggregate decode throughput of the batched run, then of the solo
        // sessions: the single-stream number the GEMV decode path moves.
        ("decode_tok_per_s", Json::Num(decode_tokens / batch_s, 2)),
        (
            "solo_decode_tok_per_s",
            Json::Num(decode_tokens / solo_s, 2),
        ),
        (
            "latency_p50_steps",
            Json::Num(percentile(&latencies, 0.50), 1),
        ),
        (
            "latency_p99_steps",
            Json::Num(percentile(&latencies, 0.99), 1),
        ),
        // Largest in-flight batch the scheduler reached.
        ("peak_batch", peak_batch.into()),
    ])
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

/// Runs the chaos + churn scenario: flood a bounded-queue server wired to
/// a seeded [`FaultPlan`], classify every typed outcome, then prove the
/// engine still serves a full recovery wave bit-exactly and quiesces with
/// zero leaked sessions. Returns the `chaos` table.
pub fn run_chaos(cfg: ChaosBenchConfig) -> Json {
    let weights = shared_weights(cfg.hidden, cfg.layers);
    let prompts = request_prompts(cfg.requests + cfg.max_batch, cfg.prompt_tokens, cfg.hidden);
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
    Json::obj([
        ("cfg", cfg.to_json()),
        // Hard gate: every request that finished (churn survivors and the
        // recovery wave alike) was bit-identical to its solo run, every
        // failure was an injected fault, and at least one request
        // finished.
        ("chaos_exact", chaos_exact.into()),
        // Hard gate: no session outlived its request.
        ("zero_leak", zero_leak.into()),
        // Fraction of the flood shed by admission control.
        (
            "shed_rate",
            Json::Num(stats.rejected as f64 / cfg.requests as f64, 3),
        ),
        // Engine step latency under churn: admission, expiry,
        // cancellation and panic-recovery ticks.
        ("p99_step_us", Json::Num(stats.p99_step_us, 1)),
        // Scheduler ticks spent in reset-and-replay panic recovery.
        ("recovery_ticks", stats.recovery_ticks.into()),
        // Outcomes over both waves.
        ("finished", finished.into()),
        ("rejected", stats.rejected.into()),
        ("cancelled", stats.cancelled.into()),
        ("deadline_exceeded", stats.deadline_exceeded.into()),
        ("failed", stats.failed.into()),
        // Two per fired panic injection: the batched attempt and the
        // isolated replay.
        ("panics_recovered", stats.panics_recovered.into()),
        // Advisory: injected delays dominate the scenario's wall time.
        ("wall_s", Json::Num(wall_s, 6)),
    ])
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

/// The churn workload's prompts: one shared `prefix_tokens`-row prefix
/// stitched to a distinct per-request suffix, so every prompt shares
/// pages but no two requests carry the same token stream.
pub fn prefix_churn_prompts(cfg: &PrefixChurnConfig) -> Vec<Matrix> {
    let prefix = prompt(9_000, cfg.prefix_tokens, cfg.hidden);
    (0..cfg.requests)
        .map(|i| {
            let mut p = prefix.clone();
            p.push_rows(&prompt(9_100 + i, cfg.suffix_tokens, cfg.hidden));
            p
        })
        .collect()
}

/// Runs the prefix-sharing churn scenario: solo oracles first (fresh
/// sessions, never the prefix index), then one request seeds the frozen
/// prefix, the rest adopt it concurrently while long-running victims are
/// cancelled mid-flight to force free-list recycling under sharing.
/// Returns the `kv_pool` table.
pub fn run_prefix_churn(cfg: PrefixChurnConfig) -> Json {
    let weights = shared_weights(cfg.hidden, cfg.layers);
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
            let p = prompt(9_500 + i, cfg.suffix_tokens.max(2), cfg.hidden);
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
    let hit_rate = if grabs == 0 {
        0.0
    } else {
        pool.page_reuses as f64 / grabs as f64
    };
    Json::obj([
        ("cfg", cfg.to_json()),
        // Hard gate: every request served off pooled, adopted or recycled
        // pages was bit-identical to its solo run, every adopter hit the
        // prefix cache, and at least one page was recycled.
        ("reuse_exact", reuse_exact.into()),
        // Hard gate: zero open sessions and zero pool pages in use after
        // shutdown.
        ("zero_leak", zero_leak.into()),
        // Frozen prefix pages adopted (`requests - 1` adopters × 1 page),
        // and lookups that adopted nothing (the seeding request and the
        // churn victims).
        ("prefix_hits", pool.prefix_hits.into()),
        ("prefix_misses", pool.prefix_misses.into()),
        // Free-list hit rate of page acquisition:
        // `page_reuses / (page_allocs + page_reuses)`.
        ("hit_rate", Json::Num(hit_rate, 3)),
        ("page_allocs", pool.page_allocs.into()),
        ("page_reuses", pool.page_reuses.into()),
        // Copy-on-write forks: 0 here, since appends after a full shared
        // page never fork it.
        ("cow_clones", pool.cow_clones.into()),
        // High-water mark of pages in use.
        ("peak_pages", pool.peak_pages.into()),
        // Shared-page gauge sampled mid-wave; racy against admission.
        ("shared_pages_mid", shared_pages_mid.into()),
        // At the last engine tick: the unused token-row share of in-flight
        // pages, their packed KV bytes (what the admission budget meters)
        // and their decoded f32 KV bytes (reported, never gated).
        ("fragmentation", Json::Num(stats.kv_fragmentation, 3)),
        ("packed_bytes", stats.kv_packed_bytes.into()),
        ("decoded_bytes", stats.kv_decoded_bytes.into()),
        ("wall_s", Json::Num(wall_s, 6)),
    ])
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

/// The `engine.zero_syscall_tick` witness: eight sessions of a GQA model
/// (hidden 256 × 2 layers, 4 query heads sharing 1 KV head) prefill 40
/// tokens each, warm up for two decode ticks, then step eight more
/// through [`ModelWeights::step_sessions_scratch`] with auto-sized
/// workers while `/proc/self/io` counts the process's `read` syscalls.
/// `Some(true)` when those ticks made none, `None` where the counter is
/// unavailable. The counter sums over every thread of the process, so run
/// this before anything else starts a thread.
pub fn zero_syscall_tick() -> Option<bool> {
    let weights = ModelBuilder::scaled(&ModelProfile::llama3_8b(), 256, 2)
        .heads(4, 1)
        .build_weights()
        .expect("scaled dimensions are group-aligned");
    let mut sessions: Vec<_> = (0..8).map(|_| weights.new_session()).collect();
    let mut scratch = StepScratch::new();
    let mut tick = |sessions: &mut [SessionState], rows: usize, seed: usize| {
        let inputs: Vec<Matrix> = (0..8).map(|s| prompt(seed + s, rows, 256)).collect();
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
/// Returns the `telemetry` table.
pub fn run_telemetry(cfg: TelemetryBenchConfig) -> Json {
    // Witness first, while no engine threads are running: allocation
    // counting is process-wide.
    let (probe_live, recording_allocs) = warm_recording_allocations();

    let weights = shared_weights(cfg.hidden, cfg.layers);
    let prompts = request_prompts(cfg.requests, cfg.prompt_tokens, cfg.hidden);

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

    let us = |s: u16| Json::Num(snap.stages.ns(s) as f64 / 1000.0, 1);
    let stage_sum_us = snap.stages.stage_sum_ns() as f64 / 1000.0;
    let tick_sum_us = snap.step_us.sum() as f64;
    let stage_cover = if tick_sum_us > 0.0 {
        stage_sum_us / tick_sum_us
    } else {
        0.0
    };

    Json::obj([
        ("cfg", cfg.to_json()),
        // Hard gate: the drained trace reconstructs every request's exact
        // lifecycle (one submitted/admitted/prefill/finished, one token
        // instant per decoded row in order, no spurious terminals, one
        // TICK span per engine tick, every sub-tick stage present,
        // nothing dropped).
        ("trace_exact", trace_exact.into()),
        // Hard gate in the bench binary, which installs the counting
        // allocator: warm trace, histogram and stage recording made no
        // heap allocation. `null` where the probe is not installed, since
        // the witness would be vacuous.
        (
            "zero_alloc",
            probe_live.then_some(recording_allocs == 0).into(),
        ),
        ("recording_allocs", recording_allocs.into()),
        // Traced over untraced single-stream decode throughput (≈ 1.0,
        // advisory), each side at its fastest engine tick across reps.
        ("overhead_ratio", Json::Num(untraced_s / traced_s, 3)),
        ("traced_tok_per_s", Json::Num(tokens / traced_s, 2)),
        ("untraced_tok_per_s", Json::Num(tokens / untraced_s, 2)),
        // The analysis wave's engine ticks, the events drained from all
        // rings, and the events lost to full rings.
        ("ticks", ticks.into()),
        (
            "trace_events",
            rings.iter().map(|r| r.events.len()).sum::<usize>().into(),
        ),
        (
            "trace_dropped",
            rings.iter().map(|r| r.dropped).sum::<u64>().into(),
        ),
        // Per-stage time summed over the analysis wave.
        ("assemble_us", us(stage::ASSEMBLE)),
        ("encode_us", us(stage::ENCODE)),
        ("qgemm_us", us(stage::QGEMM)),
        ("attention_us", us(stage::ATTENTION)),
        ("kv_append_us", us(stage::KV_APPEND)),
        ("feedback_us", us(stage::FEEDBACK)),
        // The six stages' sum, and the whole-tick histogram's sum.
        ("stage_sum_us", Json::Num(stage_sum_us, 1)),
        ("tick_sum_us", Json::Num(tick_sum_us, 1)),
        // The share of measured tick time the stage clocks explain; the
        // bench binary asserts it within 10 % of 1.0 at the CI dims.
        ("stage_cover", Json::Num(stage_cover, 3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_baseline_keys;

    #[test]
    fn request_prompts_are_distinct() {
        // Identical prompts would make the batch_exact gate vacuous: a
        // cross-session row mix-up between identical streams is invisible.
        let cfg = ServeBenchConfig::ci();
        let prompts = request_prompts(cfg.requests, cfg.prompt_tokens, cfg.hidden);
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
        let num = |k: &str| r.num(k).unwrap();
        assert_eq!(
            r.get("chaos_exact"),
            Some(&Json::Bool(true)),
            "chaos run lost bit-exactness: {r:?}"
        );
        assert_eq!(
            r.get("zero_leak"),
            Some(&Json::Bool(true)),
            "chaos run leaked sessions: {r:?}"
        );
        assert!(num("finished") >= 1.0);
        assert_eq!(
            num("panics_recovered"),
            2.0 * num("failed"),
            "exact attribution"
        );
        assert!(r.get("recovery_ticks").is_some());
        assert_baseline_keys("chaos", &r);
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
        let num = |k: &str| r.num(k).unwrap();
        assert_eq!(
            r.get("reuse_exact"),
            Some(&Json::Bool(true)),
            "prefix churn lost bit-exactness: {r:?}"
        );
        assert_eq!(
            r.get("zero_leak"),
            Some(&Json::Bool(true)),
            "prefix churn leaked pages or sessions: {r:?}"
        );
        assert_eq!(
            num("prefix_hits"),
            3.0,
            "every adopter hits one frozen page"
        );
        assert!(
            num("page_reuses") >= 1.0,
            "churn must recycle the free list"
        );
        assert!(num("hit_rate") > 0.0);
        assert!(
            num("fragmentation") > 0.0,
            "tail pages are partially filled"
        );
        assert_baseline_keys("kv_pool", &r);
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
        let num = |k: &str| r.num(k).unwrap();
        assert_eq!(
            r.get("trace_exact"),
            Some(&Json::Bool(true)),
            "trace reconstruction failed: {r:?}"
        );
        assert_eq!(num("trace_dropped"), 0.0);
        // Each request is one prefill tick plus `decode_steps` decode
        // ticks at max_batch 1.
        assert_eq!(num("ticks"), (2 * (1 + 3)) as f64);
        assert!(num("overhead_ratio") > 0.0 && num("traced_tok_per_s") > 0.0);
        assert!(num("stage_sum_us") > 0.0 && num("tick_sum_us") > 0.0);
        // Microsecond truncation on ~100µs ticks makes the cover noisy at
        // these dims; the bench binary asserts the tight 10% window at
        // the CI dims, here it only has to be sane.
        let cover = num("stage_cover");
        assert!(cover > 0.5 && cover < 1.5, "stage cover {cover}");
        // The library's own test process never installs the counting
        // allocator, so the witness reports "skipped", not a vacuous pass.
        assert_eq!(r.get("zero_alloc"), Some(&Json::Null));
        assert_baseline_keys("telemetry", &r);
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
        let num = |k: &str| r.num(k).unwrap();
        assert_eq!(
            r.get("batch_exact"),
            Some(&Json::Bool(true)),
            "batched streams diverged from solo"
        );
        assert!(num("speedup_batch") > 0.0 && num("decode_tok_per_s") > 0.0);
        assert!(num("latency_p99_steps") >= num("latency_p50_steps"));
        let peak = num("peak_batch");
        assert!(peak >= 2.0, "peak batch {peak}");
        assert_baseline_keys("serve", &r);
    }
}
