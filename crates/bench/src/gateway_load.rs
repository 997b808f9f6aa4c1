//! Gateway load-test harness — behind the `gateway` section of
//! `bench_m2xfp_json`.
//!
//! Drives a live [`m2x_gateway::Gateway`] (real TCP, real HTTP parsing,
//! real SSE streams) with the traffic shape serving front-ends actually
//! see: a few **long-running** token streams that pin connections for the
//! whole run, a churn wave of **hundreds of short connections** (health
//! probes, metric scrapes, small generations) arriving concurrently from
//! several client threads, and a handful of clients that **disconnect
//! mid-stream** to exercise the cancel-on-disconnect path.
//!
//! Two hard CI gates come out of it:
//!
//! * `stream_exact` — every token row reassembled from the socket (long
//!   streams and short generations alike) is bit-identical to
//!   [`run_solo`] for the same prompt: HTTP framing, SSE chunking and the
//!   decimal float round-trip add zero error;
//! * `zero_leak` — after the churn, every abandoned stream was cancelled
//!   and reaped, the scheduler quiesces with all outcomes consumed, and
//!   `ModelWeights::open_sessions()` is zero.
//!
//! The advisory numbers are end-to-end: `e2e_p50_ms`/`e2e_p99_ms` are
//! connect-to-last-byte latencies of the short generations measured
//! **through** the gateway while the long streams are running — the
//! head-of-line number a faster decode step ultimately buys.

use crate::report::Json;
use crate::timing::{bits_eq, percentile};
use m2x_gateway::{client, Gateway, GatewayConfig};
use m2x_nn::model::{ModelBuilder, ModelWeights};
use m2x_nn::profile::ModelProfile;
use m2x_nn::synth::activation_matrix;
use m2x_serve::sync::lock_poisoned;
use m2x_serve::{run_solo, ServeConfig, Server};
use m2x_tensor::Matrix;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Traffic shape and dimensions of one gateway load run.
#[derive(Debug, Clone, Copy)]
pub struct GatewayLoadConfig {
    /// Hidden (residual stream) dimension.
    pub hidden: usize,
    /// Transformer layer count.
    pub layers: usize,
    /// Long-running streams held open for the whole run.
    pub long_streams: usize,
    /// Decode steps of each long stream.
    pub long_decode_steps: usize,
    /// Short connections in the churn wave (health probes, metric
    /// scrapes and small generations, round-robin).
    pub short_connections: usize,
    /// Decode steps of each short generation.
    pub short_decode_steps: usize,
    /// Distinct prompts the short generations cycle through (bounds the
    /// solo-oracle cost).
    pub short_prompt_pool: usize,
    /// Concurrent client threads driving the churn wave.
    pub clients: usize,
    /// Clients that open a long stream and hang up mid-flight.
    pub disconnects: usize,
    /// Gateway connection-worker pool size (must exceed the pinned
    /// connections — long streams + disconnectors — or churn starves).
    pub workers: usize,
}

impl GatewayLoadConfig {
    /// The fixed configuration of the emitter's `ci` profile, gated by
    /// CI: 2 pinned long streams + 3 mid-stream hangups under a
    /// 200-connection churn wave from 4 clients.
    pub fn ci() -> Self {
        GatewayLoadConfig {
            hidden: 128,
            layers: 2,
            long_streams: 2,
            long_decode_steps: 48,
            short_connections: 200,
            short_decode_steps: 2,
            short_prompt_pool: 8,
            clients: 4,
            disconnects: 3,
            workers: 10,
        }
    }

    /// The report's `cfg` table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hidden", self.hidden.into()),
            ("layers", self.layers.into()),
            ("long_streams", self.long_streams.into()),
            ("long_decode_steps", self.long_decode_steps.into()),
            ("short_connections", self.short_connections.into()),
            ("short_decode_steps", self.short_decode_steps.into()),
            ("short_prompt_pool", self.short_prompt_pool.into()),
            ("clients", self.clients.into()),
            ("disconnects", self.disconnects.into()),
            ("workers", self.workers.into()),
        ])
    }
}

/// Measured results of one gateway load run.
#[derive(Debug, Clone)]
pub struct GatewayLoadReport {
    /// Configuration measured.
    pub cfg: GatewayLoadConfig,
    /// Every socket-reassembled token stream (long and short) was
    /// bit-identical to its solo run. CI hard gate.
    pub stream_exact: bool,
    /// Every abandoned stream was cancelled and reaped, and zero sessions
    /// survived the shutdown. CI hard gate.
    pub zero_leak: bool,
    /// Connect-to-last-byte p50 of the short generations (milliseconds).
    pub e2e_p50_ms: f64,
    /// Connect-to-last-byte p99 of the short generations (milliseconds).
    pub e2e_p99_ms: f64,
    /// Short connections completed per second (whole churn wave).
    pub churn_req_per_s: f64,
    /// Aggregate decode throughput of the long streams, measured at the
    /// client end of the socket (tokens/s).
    pub stream_tok_per_s: f64,
    /// Wall time of the whole scenario (seconds).
    pub wall_s: f64,
    /// Requests the scheduler cancelled (== the mid-stream hangups).
    pub cancelled: u64,
    /// Generations that ran to completion (long + short).
    pub finished: u64,
}

/// Runs the full load scenario. Deterministic workload (timings aside).
pub fn run_gateway_load(cfg: GatewayLoadConfig) -> GatewayLoadReport {
    let profile = ModelProfile::llama3_8b();
    let weights: Arc<ModelWeights> = Arc::new(
        ModelBuilder::scaled(&profile, cfg.hidden, cfg.layers)
            .build_weights()
            .expect("scaled dimensions are group-aligned"),
    );
    let prompt = |seed: usize, tokens: usize| {
        activation_matrix(&profile, seed, tokens, cfg.hidden).map(|v| (v * 0.25).tanh())
    };

    // Solo oracles, computed up front so they don't pollute the timings.
    let long_prompts: Vec<Matrix> = (0..cfg.long_streams).map(|i| prompt(1000 + i, 4)).collect();
    let long_solo: Vec<Matrix> = long_prompts
        .iter()
        .map(|p| run_solo(&weights, p, cfg.long_decode_steps).expect("solo run"))
        .collect();
    let short_prompts: Vec<Matrix> = (0..cfg.short_prompt_pool.max(1))
        .map(|i| prompt(2000 + i, 2))
        .collect();
    let short_solo: Vec<Matrix> = short_prompts
        .iter()
        .map(|p| run_solo(&weights, p, cfg.short_decode_steps).expect("solo run"))
        .collect();

    let server = Arc::new(Server::start(Arc::clone(&weights), ServeConfig::default()));
    let gateway = Gateway::bind(
        Arc::clone(&server),
        GatewayConfig {
            workers: cfg.workers,
            max_decode_steps: cfg.long_decode_steps.max(100_000),
            ..GatewayConfig::default()
        },
    )
    .expect("bind gateway on a free port");
    let addr = gateway.local_addr();

    let t0 = Instant::now();
    let exact = Arc::new(AtomicBool::new(true));

    // ── Long streams: pinned connections decoding for the whole run. ──
    let long_handles: Vec<_> = long_prompts
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let p = p.clone();
            let solo = long_solo[i].clone();
            let exact = Arc::clone(&exact);
            std::thread::spawn(move || {
                let got = client::generate(addr, &p, solo.rows(), None, None)
                    .expect("long stream completes");
                if got.status != 200
                    || got.outcome.as_deref() != Some("finished")
                    || !bits_eq(&got.tokens, &solo)
                {
                    exact.store(false, Ordering::SeqCst);
                }
                got.tokens.rows()
            })
        })
        .collect();

    // ── Mid-stream hangups: open a long stream, read a little, vanish. ──
    let disconnect_handles: Vec<_> = (0..cfg.disconnects)
        .map(|i| {
            let p = prompt(3000 + i, 3);
            std::thread::spawn(move || {
                let body = client::generate_body(&p, 50_000, None, None);
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .write_all(
                        format!(
                            "POST /v1/generate HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                            body.len()
                        )
                        .as_bytes(),
                    )
                    .expect("send request");
                // Wait for the stream head + some frames, then hang up.
                let mut first = [0u8; 256];
                stream.read_exact(&mut first).expect("stream opened");
                drop(stream);
            })
        })
        .collect();

    // ── Churn wave: short connections from `clients` threads. ──
    let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
    let churn_t0 = Instant::now();
    let churn_handles: Vec<_> = (0..cfg.clients.max(1))
        .map(|c| {
            let exact = Arc::clone(&exact);
            let latencies = Arc::clone(&latencies);
            let short_prompts = short_prompts.clone();
            let short_solo = short_solo.clone();
            let n = cfg.short_connections / cfg.clients.max(1);
            let steps = cfg.short_decode_steps;
            std::thread::spawn(move || {
                for i in 0..n {
                    let kind = (c + i) % 3;
                    if kind == 0 {
                        // One short generation, end-to-end latency sample.
                        let slot = (c * n + i) % short_prompts.len();
                        let t = Instant::now();
                        let got = client::generate(addr, &short_prompts[slot], steps, None, None)
                            .expect("short generation completes");
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if got.status != 200 || !bits_eq(&got.tokens, &short_solo[slot]) {
                            exact.store(false, Ordering::SeqCst);
                        }
                        lock_poisoned(&latencies).push(ms);
                    } else {
                        let target = if kind == 1 { "/healthz" } else { "/metrics" };
                        let raw = format!(
                            "GET {target} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n"
                        );
                        let (status, _, _) =
                            client::http_request(addr, raw.as_bytes()).expect("probe completes");
                        if status != 200 {
                            exact.store(false, Ordering::SeqCst);
                        }
                    }
                }
            })
        })
        .collect();

    for h in churn_handles {
        h.join().expect("churn client");
    }
    let churn_s = churn_t0.elapsed().as_secs_f64();
    let streamed_long_tokens: usize = long_handles
        .into_iter()
        .map(|h| h.join().expect("long stream client"))
        .sum();
    for h in disconnect_handles {
        h.join().expect("disconnect client");
    }
    let wall_s = t0.elapsed().as_secs_f64();

    // Give the cancel-on-disconnect path a bounded window to reap every
    // hangup before the leak check (the gateway worker notices the dead
    // socket on its next frame write).
    let reap_deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().cancelled < cfg.disconnects as u64 && Instant::now() < reap_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Tear down: gateway first (joins workers, so every abandon ran),
    // then the scheduler.
    drop(gateway);
    let stats = server.stats();
    let mut server = Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("gateway drop released every Server handle"));
    server.shutdown();
    let zero_leak = weights.open_sessions() == 0
        && stats.cancelled == cfg.disconnects as u64
        && stats.rejected == 0
        && stats.failed == 0;

    let mut lat = Arc::try_unwrap(latencies)
        .expect("churn clients joined")
        .into_inner()
        .expect("latency lock");
    lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let short_gens = lat.len();

    GatewayLoadReport {
        cfg,
        stream_exact: exact.load(Ordering::SeqCst),
        zero_leak,
        e2e_p50_ms: percentile(&lat, 0.50),
        e2e_p99_ms: percentile(&lat, 0.99),
        churn_req_per_s: (cfg.short_connections / cfg.clients.max(1) * cfg.clients.max(1)) as f64
            / churn_s,
        stream_tok_per_s: streamed_long_tokens as f64 / wall_s,
        wall_s,
        cancelled: stats.cancelled,
        finished: (cfg.long_streams + short_gens) as u64,
    }
}

impl GatewayLoadReport {
    /// The report's (name, value) table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cfg", self.cfg.to_json()),
            ("stream_exact", self.stream_exact.into()),
            ("zero_leak", self.zero_leak.into()),
            ("e2e_p50_ms", Json::Num(self.e2e_p50_ms, 3)),
            ("e2e_p99_ms", Json::Num(self.e2e_p99_ms, 3)),
            ("churn_req_per_s", Json::Num(self.churn_req_per_s, 1)),
            ("stream_tok_per_s", Json::Num(self.stream_tok_per_s, 1)),
            ("wall_s", Json::Num(self.wall_s, 6)),
            ("cancelled", self.cancelled.into()),
            ("finished", self.finished.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature load run end-to-end: both gates hold and the report's
    /// accounting matches the traffic that was actually driven.
    #[test]
    fn mini_load_run_gates_hold() {
        let cfg = GatewayLoadConfig {
            hidden: 64,
            layers: 1,
            long_streams: 1,
            long_decode_steps: 12,
            short_connections: 24,
            short_decode_steps: 2,
            short_prompt_pool: 4,
            clients: 2,
            disconnects: 1,
            workers: 6,
        };
        let r = run_gateway_load(cfg);
        assert!(r.stream_exact, "socket streams diverged from solo");
        assert!(r.zero_leak, "sessions or outcomes leaked");
        assert_eq!(r.cancelled, 1);
        assert!(r.e2e_p99_ms >= r.e2e_p50_ms);
        assert!(r.finished > 8); // 1 long + ceil(24/3)-ish short gens
        let json = r.to_json().render();
        assert!(json.contains("\"stream_exact\": true"));
        assert!(json.contains("\"zero_leak\": true"));
    }
}
