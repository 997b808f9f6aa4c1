//! `m2x-gateway` — std-only streaming HTTP/1.1 front-end over the
//! [`m2x_serve`] continuous-batching scheduler.
//!
//! The gateway puts a wire protocol on the fault-tolerant serving
//! runtime without adding a single dependency: a [`std::net::TcpListener`]
//! accept loop feeds a fixed worker pool, each worker speaks hand-rolled
//! HTTP/1.1 (incremental bounded parsing, keep-alive, pipelining,
//! `Expect: 100-continue`), and generation responses stream one SSE
//! `data:` frame per decode step over chunked transfer encoding — flushed
//! as the engine produces them, so the client sees tokens at decode
//! latency, not request latency.
//!
//! Four endpoints (full schemas in `docs/HTTP_API.md`):
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `POST /v1/generate` | Submit a prompt, stream decode tokens as SSE |
//! | `GET /metrics` | Prometheus text: counters + latency histograms |
//! | `GET /v1/trace` | Drain the trace rings as Chrome trace-event JSON |
//! | `GET /healthz` | Liveness of the engine thread |
//!
//! Every typed [`RequestOutcome`] and [`ServeError`] maps onto a
//! deliberate status code ([`outcome_status`], [`serve_error_status`]) —
//! admission-control rejections are `429` with the observed queue depth,
//! deadline expiries are `504`, panic-isolated failures are `500`, and a
//! client that disconnects mid-stream gets its request [`Server::cancel`]ed
//! so abandoned work never occupies a batch slot.
//!
//! The serving layer's bit-identity invariant extends through the socket:
//! the token rows a client reassembles from the SSE frames are
//! bit-identical to [`run_solo`](m2x_serve::run_solo) for the same prompt,
//! because activations are serialized as shortest-round-trip decimals
//! ([`json::f32_repr`]) and recovered exactly by an f64 parse + f32 cast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;

use m2x_serve::sync::lock_poisoned;
use m2x_serve::{RequestOptions, RequestOutcome, ServeError, Server, StreamEvent};
use m2x_telemetry::{stage, Histogram, TraceHandle, TraceKind};
use m2x_tensor::Matrix;

use std::fmt::{Display, Write as _};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use http::Limits;
pub use json::Json;

/// Gateway trace-ring capacity (events): one connection span + one parse
/// span per request + one stream span per generation.
const GW_RING_EVENTS: usize = 4_096;

/// Configuration of a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Address to bind; port `0` picks a free port (see
    /// [`Gateway::local_addr`]).
    pub addr: String,
    /// Connection worker threads (each handles one connection at a time;
    /// a long-lived token stream occupies its worker for its duration).
    pub workers: usize,
    /// HTTP parser bounds (header/body size caps).
    pub limits: Limits,
    /// Per-read socket timeout while waiting for request bytes; a
    /// connection idle longer than this between requests is dropped.
    pub read_timeout: Duration,
    /// Upper bound accepted for `max_tokens`; larger asks are rejected
    /// with `400` before touching the scheduler.
    pub max_decode_steps: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
            max_decode_steps: 4096,
        }
    }
}

/// Monotonic gateway-level counters, snapshot via [`Gateway::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// TCP connections accepted.
    pub connections: u64,
    /// HTTP requests fully parsed and routed (any endpoint).
    pub requests: u64,
    /// Generation requests that opened an SSE token stream.
    pub streams_opened: u64,
    /// Streams whose client vanished mid-flight (each triggered a
    /// [`Server::cancel`]).
    pub client_disconnects: u64,
    /// Requests rejected by the HTTP parser or validation (4xx).
    pub bad_requests: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    streams_opened: AtomicU64,
    client_disconnects: AtomicU64,
    bad_requests: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> GatewayStats {
        GatewayStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            streams_opened: self.streams_opened.load(Ordering::Relaxed),
            client_disconnects: self.client_disconnects.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
        }
    }
}

/// Maps a resolved [`RequestOutcome`] onto its documented status code.
///
/// | Outcome | Status |
/// |---|---|
/// | `Finished` | `200 OK` |
/// | `Rejected` | `429 Too Many Requests` |
/// | `DeadlineExceeded` | `504 Gateway Timeout` |
/// | `Cancelled` | `499 Client Closed Request` |
/// | `Failed` | `500 Internal Server Error` |
pub fn outcome_status(outcome: &RequestOutcome) -> (u16, &'static str) {
    match outcome {
        RequestOutcome::Finished(_) => (200, "OK"),
        RequestOutcome::Rejected { .. } => (429, "Too Many Requests"),
        RequestOutcome::DeadlineExceeded { .. } => (504, "Gateway Timeout"),
        RequestOutcome::Cancelled { .. } => (499, "Client Closed Request"),
        RequestOutcome::Failed { .. } => (500, "Internal Server Error"),
    }
}

/// Maps a [`ServeError`] onto its documented status code.
///
/// | Error | Status |
/// |---|---|
/// | `Invalid` | `400 Bad Request` |
/// | `UnknownRequest` | `404 Not Found` |
/// | `AlreadyConsumed` | `409 Conflict` |
/// | `ShutDown` / `EngineDown` | `503 Service Unavailable` |
pub fn serve_error_status(err: &ServeError) -> (u16, &'static str) {
    match err {
        ServeError::Invalid(_) => (400, "Bad Request"),
        ServeError::UnknownRequest { .. } => (404, "Not Found"),
        ServeError::AlreadyConsumed { .. } => (409, "Conflict"),
        ServeError::ShutDown | ServeError::EngineDown { .. } => (503, "Service Unavailable"),
    }
}

/// JSON payload describing a resolved outcome — the body of non-streaming
/// error responses and the final `data:` frame of a token stream.
fn outcome_json(outcome: &RequestOutcome) -> String {
    match outcome {
        RequestOutcome::Finished(c) => format!(
            "{{\"outcome\":\"finished\",\"decoded_tokens\":{},\"latency_steps\":{}}}",
            c.decoded.rows(),
            c.finished_step - c.arrived_step
        ),
        RequestOutcome::Rejected { queue_depth } => format!(
            "{{\"outcome\":\"rejected\",\"queue_depth\":{queue_depth},\"error\":\"arrival queue full\"}}"
        ),
        RequestOutcome::DeadlineExceeded { decoded_tokens } => format!(
            "{{\"outcome\":\"deadline_exceeded\",\"decoded_tokens\":{decoded_tokens},\"error\":\"deadline exceeded\"}}"
        ),
        RequestOutcome::Cancelled { decoded_tokens } => format!(
            "{{\"outcome\":\"cancelled\",\"decoded_tokens\":{decoded_tokens},\"error\":\"request cancelled\"}}"
        ),
        RequestOutcome::Failed { error } => format!(
            "{{\"outcome\":\"failed\",\"error\":\"{}\"}}",
            json::escape(error)
        ),
    }
}

/// The body of every plain error response: `{"error":"…"}` and a newline.
fn error_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", json::escape(msg))
}

/// A running gateway: accept thread + worker pool over an
/// [`m2x_serve::Server`]. Dropping it (or calling [`Gateway::shutdown`])
/// stops accepting, drains the workers, and joins every thread; the
/// scheduler itself is owned by the caller's [`Arc`] and outlives the
/// gateway.
///
/// ```
/// use m2x_gateway::{client, Gateway, GatewayConfig};
/// use m2x_nn::model::ModelBuilder;
/// use m2x_nn::profile::ModelProfile;
/// use m2x_serve::{ServeConfig, Server};
/// use std::sync::Arc;
///
/// let weights = Arc::new(
///     ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1).build_weights()?,
/// );
/// let server = Arc::new(Server::start(weights, ServeConfig::default()));
/// let gateway = Gateway::bind(server, GatewayConfig::default())?;
/// let (status, _, body) = client::http_request(
///     gateway.local_addr(),
///     b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
/// )?;
/// assert_eq!(status, 200);
/// assert_eq!(body, b"ok\n");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Gateway {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
}

struct Ctx {
    server: Arc<Server>,
    cfg: GatewayConfig,
    counters: Arc<Counters>,
    /// Gateway ring on the server's [`m2x_telemetry::Telemetry`] clock:
    /// connection/parse/stream phase spans, shared by all workers.
    trace: TraceHandle,
}

impl Gateway {
    /// Binds the listener, spawns the accept thread and
    /// [`GatewayConfig::workers`] connection workers, and returns
    /// immediately; requests are served until [`Gateway::shutdown`] (or
    /// drop).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding [`GatewayConfig::addr`].
    pub fn bind(server: Arc<Server>, cfg: GatewayConfig) -> io::Result<Gateway> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let trace = server.telemetry().register("gateway", GW_RING_EVENTS);
        let ctx = Arc::new(Ctx {
            server,
            cfg,
            counters: Arc::clone(&counters),
            trace,
        });

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..ctx.cfg.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("m2x-gw-worker-{i}"))
                    .spawn(move || loop {
                        let next = lock_poisoned(&rx).recv();
                        match next {
                            Ok(stream) => handle_connection(&ctx, stream),
                            Err(_) => return, // accept loop gone: shutdown
                        }
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("m2x-gw-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break; // the wake-up connection, or a late one
                        }
                        if let Ok(stream) = conn {
                            counters.connections.fetch_add(1, Ordering::Relaxed);
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                    }
                    // Dropping `tx` here releases the workers.
                })?
        };

        Ok(Gateway {
            local_addr,
            shutdown,
            accept: Some(accept),
            workers,
            counters,
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the gateway-level counters.
    pub fn stats(&self) -> GatewayStats {
        self.counters.snapshot()
    }

    /// Stops accepting, joins the accept thread and every worker (in-flight
    /// connections run to completion first). Idempotent; [`Drop`] calls it.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection and traces it: one `gw_connection` span for the
/// connection's lifetime (value = requests served) wrapped around
/// [`serve_connection`].
fn handle_connection(ctx: &Ctx, stream: TcpStream) {
    let t0 = ctx.trace.now_us();
    let served = serve_connection(ctx, stream);
    ctx.trace
        .span(stage::GW_CONNECTION, 0, t0, ctx.trace.now_us(), served);
}

/// Serves one connection: keep-alive loop of incremental parse → route,
/// until the client closes, times out, pipelines its last request, or a
/// response demands `connection: close`. Returns requests served.
fn serve_connection(ctx: &Ctx, mut stream: TcpStream) -> u64 {
    let _ = stream.set_read_timeout(Some(ctx.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut served = 0u64;
    'requests: loop {
        // The `gw_parse` span runs from here to a complete parse, so for
        // the second and later requests of a keep-alive connection it
        // includes the idle wait for the client's next request bytes.
        let t_req = ctx.trace.now_us();
        let mut sent_continue = false;
        let request = loop {
            match http::parse_request(&buf, &ctx.cfg.limits) {
                Ok(http::Parsed::Complete { request, consumed }) => {
                    buf.drain(..consumed);
                    break request;
                }
                Ok(http::Parsed::Partial {
                    headers_complete,
                    expects_continue,
                }) => {
                    if headers_complete && expects_continue && !sent_continue {
                        sent_continue = true;
                        if stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err() {
                            return served;
                        }
                    }
                    match stream.read(&mut chunk) {
                        Ok(0) => return served, // clean close between requests
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        Err(_) => return served, // timeout or reset
                    }
                }
                Err(e) => {
                    ctx.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                    let (status, reason) = e.status();
                    let _ = http::write_response(
                        &mut stream,
                        status,
                        reason,
                        "application/json",
                        &[],
                        error_body(&e.to_string()).as_bytes(),
                        false,
                    );
                    return served; // framing is unrecoverable after a parse error
                }
            }
        };
        ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
        served += 1;
        ctx.trace.span(
            stage::GW_PARSE,
            0,
            t_req,
            ctx.trace.now_us(),
            request.body.len() as u64,
        );
        let keep_alive = request.keep_alive();
        let streamed = route(ctx, &mut stream, &request);
        if streamed || !keep_alive {
            return served;
        }
        if buf.is_empty() {
            // Nothing pipelined; loop back to read the next request.
            continue 'requests;
        }
    }
}

/// Dispatches one parsed request. Returns `true` if the response was a
/// token stream (those always close the connection).
fn route(ctx: &Ctx, stream: &mut TcpStream, req: &http::Request) -> bool {
    match (req.method.as_str(), req.target.as_str()) {
        ("POST", "/v1/generate") => return generate(ctx, stream, req),
        ("GET", "/healthz") => {
            let (status, reason, body) = if ctx.server.healthy() {
                (200, "OK", "ok\n")
            } else {
                (503, "Service Unavailable", "engine down\n")
            };
            respond_text(stream, status, reason, body, req.keep_alive());
        }
        ("GET", "/metrics") => {
            let body = render_metrics(ctx);
            respond_text(stream, 200, "OK", &body, req.keep_alive());
        }
        ("GET", "/v1/trace") => {
            let body = render_trace(ctx);
            respond_json(stream, 200, "OK", &body, req.keep_alive());
        }
        ("GET" | "HEAD", "/v1/generate")
        | ("POST" | "PUT" | "DELETE", "/healthz" | "/metrics" | "/v1/trace") => {
            ctx.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let allow = if req.target == "/v1/generate" {
                "POST"
            } else {
                "GET"
            };
            let _ = http::write_response(
                stream,
                405,
                "Method Not Allowed",
                "application/json",
                &[("allow", allow.to_string())],
                error_body("method not allowed").as_bytes(),
                req.keep_alive(),
            );
        }
        _ => {
            ctx.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_response(
                stream,
                404,
                "Not Found",
                "application/json",
                &[],
                error_body("no such endpoint").as_bytes(),
                req.keep_alive(),
            );
        }
    }
    false
}

fn respond_text(stream: &mut TcpStream, status: u16, reason: &str, body: &str, keep_alive: bool) {
    let _ = http::write_response(
        stream,
        status,
        reason,
        "text/plain; charset=utf-8",
        &[],
        body.as_bytes(),
        keep_alive,
    );
}

fn respond_json(stream: &mut TcpStream, status: u16, reason: &str, body: &str, keep_alive: bool) {
    let _ = http::write_response(
        stream,
        status,
        reason,
        "application/json",
        &[],
        body.as_bytes(),
        keep_alive,
    );
}

/// Appends one single-sample metric family in Prometheus text format
/// (`# HELP` + `# TYPE` + the sample line).
fn render_metric(out: &mut String, name: &str, kind: &str, help: &str, value: impl Display) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one histogram family with a cumulative `le` ladder of
/// `4^k - 1` bounds (0, 3, 15, …, 268435455, `+Inf`). Power-of-four
/// bounds land exactly on the histogram's bucket boundaries
/// ([`Histogram::count_below`] is exact at powers of two), so the
/// rendered counts carry no bucketing error on top of the histogram's
/// own.
fn render_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let _ = writeln!(out, "{name}_bucket{{le=\"0\"}} {}", h.count_below(1));
    let mut bound = 4u64;
    for _ in 0..14 {
        let below = h.count_below(bound);
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {below}", bound - 1);
        bound *= 4;
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// `/metrics` in Prometheus text exposition format: `m2x_serve_*`
/// scheduler counters and latency histograms (step latency, TTFT, queue
/// wait, tokens per request) plus `m2x_gateway_*` connection counters.
/// Every family carries `# HELP`/`# TYPE` lines; the exact fresh-server
/// output is pinned by a unit test.
fn render_metrics(ctx: &Ctx) -> String {
    let s = ctx.server.stats();
    let t = ctx.server.telemetry_snapshot();
    let g = ctx.counters.snapshot();
    let mut out = String::with_capacity(4096);
    let o = &mut out;
    render_metric(
        o,
        "m2x_serve_steps",
        "counter",
        "Batched scheduler steps executed.",
        s.steps,
    );
    render_metric(
        o,
        "m2x_serve_decoded_tokens",
        "counter",
        "Decode tokens produced across all requests.",
        s.decoded_tokens,
    );
    render_metric(
        o,
        "m2x_serve_peak_batch",
        "gauge",
        "Largest number of requests in flight during one step.",
        s.peak_batch,
    );
    render_metric(
        o,
        "m2x_serve_rejected",
        "counter",
        "Requests shed at submission (arrival queue full).",
        s.rejected,
    );
    render_metric(
        o,
        "m2x_serve_cancelled",
        "counter",
        "Requests cancelled.",
        s.cancelled,
    );
    render_metric(
        o,
        "m2x_serve_deadline_exceeded",
        "counter",
        "Requests expired past their deadline.",
        s.deadline_exceeded,
    );
    render_metric(
        o,
        "m2x_serve_failed",
        "counter",
        "Requests failed by a step panic or model error.",
        s.failed,
    );
    render_metric(
        o,
        "m2x_serve_panics_recovered",
        "counter",
        "Panics caught by the engine's step isolation.",
        s.panics_recovered,
    );
    render_metric(
        o,
        "m2x_serve_recovery_ticks",
        "counter",
        "Scheduler ticks that ran the reset-and-replay recovery pass.",
        s.recovery_ticks,
    );
    render_metric(
        o,
        "m2x_serve_peak_queue_depth",
        "gauge",
        "Largest arrival-queue depth observed at submission.",
        s.peak_queue_depth,
    );
    render_metric(
        o,
        "m2x_serve_p99_step_us",
        "gauge",
        "p99 engine step latency in microseconds.",
        s.p99_step_us,
    );
    render_metric(
        o,
        "m2x_serve_kv_pages_in_use",
        "gauge",
        "KV pool pages in use by sessions or the prefix index, each counted once.",
        s.kv_pool.pages_in_use,
    );
    render_metric(
        o,
        "m2x_serve_kv_peak_pages",
        "gauge",
        "High-water mark of KV pool pages in use.",
        s.kv_pool.peak_pages,
    );
    render_metric(
        o,
        "m2x_serve_kv_page_allocs",
        "counter",
        "KV pool pages allocated fresh (free list empty).",
        s.kv_pool.page_allocs,
    );
    render_metric(
        o,
        "m2x_serve_kv_page_reuses",
        "counter",
        "KV pool pages recycled from the free list.",
        s.kv_pool.page_reuses,
    );
    render_metric(
        o,
        "m2x_serve_kv_cow_clones",
        "counter",
        "Copy-on-write forks of shared or frozen KV pages.",
        s.kv_pool.cow_clones,
    );
    render_metric(
        o,
        "m2x_serve_kv_prefix_hits",
        "counter",
        "Frozen prefix pages adopted by admitted requests.",
        s.kv_pool.prefix_hits,
    );
    render_metric(
        o,
        "m2x_serve_kv_prefix_misses",
        "counter",
        "Prefix-cache lookups that adopted nothing.",
        s.kv_pool.prefix_misses,
    );
    render_metric(
        o,
        "m2x_serve_kv_shared_pages",
        "gauge",
        "KV pages currently referenced by more than one holder.",
        s.kv_pool.shared_pages,
    );
    render_metric(
        o,
        "m2x_serve_kv_free_pages",
        "gauge",
        "KV pages parked on the pool free list.",
        s.kv_pool.free_pages,
    );
    render_metric(
        o,
        "m2x_serve_kv_packed_bytes",
        "gauge",
        "Packed KV bytes held by in-flight sessions (the budgeted payload).",
        s.kv_packed_bytes,
    );
    render_metric(
        o,
        "m2x_serve_kv_decoded_bytes",
        "gauge",
        "Decoded f32 KV bytes held by in-flight sessions (not budgeted).",
        s.kv_decoded_bytes,
    );
    render_metric(
        o,
        "m2x_serve_kv_fragmentation",
        "gauge",
        "Unused token-row fraction of the KV pages in flight.",
        s.kv_fragmentation,
    );
    render_histogram(
        o,
        "m2x_serve_step_latency_us",
        "Engine step (tick) wall latency in microseconds.",
        &t.step_us,
    );
    render_histogram(
        o,
        "m2x_serve_ttft_us",
        "Time to first decode token in microseconds, from submission.",
        &t.ttft_us,
    );
    render_histogram(
        o,
        "m2x_serve_queue_wait_us",
        "Queue wait in microseconds, from submission to admission.",
        &t.queue_wait_us,
    );
    render_histogram(
        o,
        "m2x_serve_tokens_per_request",
        "Decode tokens delivered per resolved request.",
        &t.tokens_per_request,
    );
    render_metric(
        o,
        "m2x_gateway_connections",
        "counter",
        "TCP connections accepted.",
        g.connections,
    );
    render_metric(
        o,
        "m2x_gateway_requests",
        "counter",
        "HTTP requests fully parsed and routed.",
        g.requests,
    );
    render_metric(
        o,
        "m2x_gateway_streams_opened",
        "counter",
        "Generation requests that opened an SSE token stream.",
        g.streams_opened,
    );
    render_metric(
        o,
        "m2x_gateway_client_disconnects",
        "counter",
        "Streams whose client vanished mid-flight.",
        g.client_disconnects,
    );
    render_metric(
        o,
        "m2x_gateway_bad_requests",
        "counter",
        "Requests rejected by the HTTP parser or validation.",
        g.bad_requests,
    );
    render_metric(
        o,
        "m2x_gateway_healthy",
        "gauge",
        "1 while the engine thread is alive and accepting.",
        u8::from(ctx.server.healthy()),
    );
    out
}

/// `GET /v1/trace`: drains every trace ring of the server's
/// [`m2x_telemetry::Telemetry`] (engine, api, gateway) and renders the
/// events as Chrome trace-event JSON — load the response in
/// `chrome://tracing` or Perfetto. Each ring becomes one track (`tid` =
/// registration index, labelled by a `thread_name` metadata event);
/// spans render as `"ph":"X"`, instants as `"ph":"i"`. The drain is
/// destructive: a second immediate request returns only events recorded
/// in between, and `dropped` reports per-ring overwrite losses since the
/// previous drain.
fn render_trace(ctx: &Ctx) -> String {
    let rings = ctx.server.telemetry().drain();
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for ring in &rings {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            ring.tid,
            json::escape(&ring.name)
        );
        for e in &ring.events {
            out.push(',');
            let _ = match e.kind {
                TraceKind::Span => write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"req\":{},\"value\":{}}}}}",
                    stage::name(e.stage), e.ts_us, e.dur_us, ring.tid, e.req, e.value
                ),
                TraceKind::Instant => write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\"pid\":1,\"tid\":{},\"args\":{{\"req\":{},\"value\":{}}}}}",
                    stage::name(e.stage), e.ts_us, ring.tid, e.req, e.value
                ),
            };
        }
    }
    out.push_str("],\"dropped\":{");
    for (i, ring) in rings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json::escape(&ring.name), ring.dropped);
    }
    out.push_str("}}\n");
    out
}

/// The decoded `POST /v1/generate` body.
struct GenerateBody {
    prompt: Matrix,
    max_tokens: usize,
    opts: RequestOptions,
}

fn parse_generate_body(ctx: &Ctx, body: &[u8]) -> Result<GenerateBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let rows = doc
        .get("prompt")
        .and_then(Json::as_arr)
        .ok_or("`prompt` must be an array of token rows")?;
    if rows.is_empty() {
        return Err("`prompt` must contain at least one token row".to_string());
    }
    let width = rows[0].as_arr().map(<[Json]>::len).unwrap_or(0);
    if width == 0 {
        return Err("`prompt` rows must be non-empty arrays of numbers".to_string());
    }
    let mut data = Vec::with_capacity(rows.len() * width);
    for (r, row) in rows.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or_else(|| format!("`prompt[{r}]` is not an array"))?;
        if row.len() != width {
            return Err(format!(
                "`prompt[{r}]` has {} values, expected {width} (ragged prompt)",
                row.len()
            ));
        }
        for (c, v) in row.iter().enumerate() {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("`prompt[{r}][{c}]` is not a number"))?;
            data.push(v as f32);
        }
    }
    let max_tokens = doc
        .get("max_tokens")
        .ok_or("`max_tokens` is required")?
        .as_usize()
        .ok_or("`max_tokens` must be a non-negative integer")?;
    if max_tokens > ctx.cfg.max_decode_steps {
        return Err(format!(
            "`max_tokens` {max_tokens} exceeds the gateway cap {}",
            ctx.cfg.max_decode_steps
        ));
    }
    let deadline_ms = match doc.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or("`deadline_ms` must be a non-negative integer")? as u64,
        ),
    };
    let deadline_steps = match doc.get("deadline_steps") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or("`deadline_steps` must be a non-negative integer")? as u64,
        ),
    };
    Ok(GenerateBody {
        prompt: Matrix::from_vec(rows.len(), width, data),
        max_tokens,
        opts: RequestOptions {
            deadline: deadline_ms.map(Duration::from_millis),
            deadline_steps,
            stream: true,
        },
    })
}

/// RAII `gw_stream` span: created when a token stream opens, emitted on
/// every exit path of the streaming loop (clean finish, client
/// disconnect, engine death) with the number of token frames written.
struct StreamSpan<'a> {
    trace: &'a TraceHandle,
    req: u32,
    start_us: u64,
    tokens: u64,
}

impl Drop for StreamSpan<'_> {
    fn drop(&mut self) {
        let end = self.trace.now_us();
        self.trace
            .span(stage::GW_STREAM, self.req, self.start_us, end, self.tokens);
    }
}

/// One SSE token frame: `data: {"index":N,"token":[...]}\n\n`.
// m2x-lint: hot
fn token_frame(index: usize, row: &Matrix) -> Vec<u8> {
    let mut frame = String::with_capacity(32 + row.cols() * 12);
    let _ = write!(frame, "data: {{\"index\":{index},\"token\":[");
    for (c, v) in row.as_slice().iter().enumerate() {
        if c > 0 {
            frame.push(',');
        }
        json::push_f32(&mut frame, *v);
    }
    frame.push_str("]}\n\n");
    frame.into_bytes()
}

/// Handles `POST /v1/generate`. Returns `true` when a chunked stream was
/// written (connection must close).
// m2x-lint: hot
fn generate(ctx: &Ctx, stream: &mut TcpStream, req: &http::Request) -> bool {
    let parsed = match parse_generate_body(ctx, &req.body) {
        Ok(p) => p,
        Err(msg) => {
            ctx.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let body = error_body(&msg);
            respond_json(stream, 400, "Bad Request", &body, req.keep_alive());
            return false;
        }
    };
    let id = match ctx
        .server
        .submit_with(parsed.prompt, parsed.max_tokens, parsed.opts)
    {
        Ok(id) => id,
        Err(e) => {
            let (status, reason) = serve_error_status(&e);
            if status == 400 {
                ctx.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            }
            // m2x-lint: allow(alloc) error response path, not the streaming loop
            let body = error_body(&e.to_string());
            respond_json(stream, status, reason, &body, req.keep_alive());
            return false;
        }
    };

    // The first event decides the response shape: a token opens a 200
    // SSE stream; an immediate outcome (rejected / expired while queued /
    // failed before producing anything / zero-token finish) gets a plain
    // JSON response with the mapped status.
    let mut event = ctx.server.next_token(id, 0);
    match &event {
        Ok(StreamEvent::Token { .. }) => {}
        Ok(StreamEvent::Done(outcome)) => {
            let (status, reason) = outcome_status(outcome);
            let mut body = outcome_json(outcome);
            body.push('\n');
            let _ = http::write_response(
                stream,
                status,
                reason,
                "application/json",
                // m2x-lint: allow(alloc) non-streaming terminal response, one per request
                &[("x-m2x-request-id", id.to_string())],
                body.as_bytes(),
                req.keep_alive(),
            );
            return false;
        }
        Err(e) => {
            let (status, reason) = serve_error_status(e);
            // m2x-lint: allow(alloc) error response path, not the streaming loop
            let body = error_body(&e.to_string());
            respond_json(stream, status, reason, &body, req.keep_alive());
            return false;
        }
    }

    ctx.counters.streams_opened.fetch_add(1, Ordering::Relaxed);
    let mut span = StreamSpan {
        trace: &ctx.trace,
        req: id as u32,
        start_us: ctx.trace.now_us(),
        tokens: 0,
    };
    // m2x-lint: allow(alloc) once per stream: the response head, not the token loop
    let id_hdr = [("x-m2x-request-id", id.to_string())];
    if http::write_stream_head(stream, 200, "OK", &id_hdr).is_err() {
        abandon(ctx, id);
        return true;
    }
    loop {
        match event {
            Ok(StreamEvent::Token { index, row }) => {
                if http::write_chunk(stream, &token_frame(index, &row)).is_err() {
                    abandon(ctx, id);
                    return true;
                }
                span.tokens += 1;
                event = ctx.server.next_token(id, index + 1);
            }
            Ok(StreamEvent::Done(outcome)) => {
                // m2x-lint: allow(alloc) once per stream: the terminal frame, not the token loop
                let done = format!("data: {{\"done\":{}}}\n\n", outcome_json(&outcome));
                // m2x-lint: allow(alloc) once per stream: the terminal frame, not the token loop
                let kind = outcome.kind().to_string();
                let _ = http::write_chunk(stream, done.as_bytes()).and_then(|()| {
                    http::write_last_chunk(stream, &[(http::OUTCOME_TRAILER, kind)])
                });
                return true;
            }
            Err(e) => {
                // Engine died mid-stream: terminate with a trailer.
                // m2x-lint: allow(alloc) engine-death path, terminates the stream
                let done = format!(
                    "data: {{\"done\":{{\"outcome\":\"error\",\"error\":\"{}\"}}}}\n\n",
                    // m2x-lint: allow(alloc) engine-death path, terminates the stream
                    json::escape(&e.to_string())
                );
                let _ = http::write_chunk(stream, done.as_bytes()).and_then(|()| {
                    http::write_last_chunk(
                        stream,
                        // m2x-lint: allow(alloc) engine-death path, terminates the stream
                        &[(http::OUTCOME_TRAILER, "error".to_string())],
                    )
                });
                return true;
            }
        }
    }
}

/// The client vanished mid-stream: cancel the request so it stops burning
/// a batch slot, then consume its outcome so the scheduler's bookkeeping
/// (and the zero-leak gate) sees it retired.
fn abandon(ctx: &Ctx, id: u64) {
    ctx.counters
        .client_disconnects
        .fetch_add(1, Ordering::Relaxed);
    let _ = ctx.server.cancel(id);
    let _ = ctx.server.wait(id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2x_nn::model::ModelBuilder;
    use m2x_nn::profile::ModelProfile;
    use m2x_serve::ServeConfig;

    fn test_ctx() -> Ctx {
        let weights = Arc::new(
            ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1)
                .build_weights()
                .unwrap(),
        );
        let server = Arc::new(Server::start(weights, ServeConfig::default()));
        Ctx {
            trace: server.telemetry().register("gateway", 64),
            server,
            cfg: GatewayConfig::default(),
            counters: Arc::new(Counters::default()),
        }
    }

    /// The exact `/metrics` text of a fresh server. This is the pinned
    /// exposition format: any change to metric names, `# HELP`/`# TYPE`
    /// lines, the histogram `le` ladder, or ordering must update this
    /// string deliberately (dashboards parse it).
    const FRESH_METRICS: &str = "\
# HELP m2x_serve_steps Batched scheduler steps executed.
# TYPE m2x_serve_steps counter
m2x_serve_steps 0
# HELP m2x_serve_decoded_tokens Decode tokens produced across all requests.
# TYPE m2x_serve_decoded_tokens counter
m2x_serve_decoded_tokens 0
# HELP m2x_serve_peak_batch Largest number of requests in flight during one step.
# TYPE m2x_serve_peak_batch gauge
m2x_serve_peak_batch 0
# HELP m2x_serve_rejected Requests shed at submission (arrival queue full).
# TYPE m2x_serve_rejected counter
m2x_serve_rejected 0
# HELP m2x_serve_cancelled Requests cancelled.
# TYPE m2x_serve_cancelled counter
m2x_serve_cancelled 0
# HELP m2x_serve_deadline_exceeded Requests expired past their deadline.
# TYPE m2x_serve_deadline_exceeded counter
m2x_serve_deadline_exceeded 0
# HELP m2x_serve_failed Requests failed by a step panic or model error.
# TYPE m2x_serve_failed counter
m2x_serve_failed 0
# HELP m2x_serve_panics_recovered Panics caught by the engine's step isolation.
# TYPE m2x_serve_panics_recovered counter
m2x_serve_panics_recovered 0
# HELP m2x_serve_recovery_ticks Scheduler ticks that ran the reset-and-replay recovery pass.
# TYPE m2x_serve_recovery_ticks counter
m2x_serve_recovery_ticks 0
# HELP m2x_serve_peak_queue_depth Largest arrival-queue depth observed at submission.
# TYPE m2x_serve_peak_queue_depth gauge
m2x_serve_peak_queue_depth 0
# HELP m2x_serve_p99_step_us p99 engine step latency in microseconds.
# TYPE m2x_serve_p99_step_us gauge
m2x_serve_p99_step_us 0
# HELP m2x_serve_kv_pages_in_use KV pool pages in use by sessions or the prefix index, each counted once.
# TYPE m2x_serve_kv_pages_in_use gauge
m2x_serve_kv_pages_in_use 0
# HELP m2x_serve_kv_peak_pages High-water mark of KV pool pages in use.
# TYPE m2x_serve_kv_peak_pages gauge
m2x_serve_kv_peak_pages 0
# HELP m2x_serve_kv_page_allocs KV pool pages allocated fresh (free list empty).
# TYPE m2x_serve_kv_page_allocs counter
m2x_serve_kv_page_allocs 0
# HELP m2x_serve_kv_page_reuses KV pool pages recycled from the free list.
# TYPE m2x_serve_kv_page_reuses counter
m2x_serve_kv_page_reuses 0
# HELP m2x_serve_kv_cow_clones Copy-on-write forks of shared or frozen KV pages.
# TYPE m2x_serve_kv_cow_clones counter
m2x_serve_kv_cow_clones 0
# HELP m2x_serve_kv_prefix_hits Frozen prefix pages adopted by admitted requests.
# TYPE m2x_serve_kv_prefix_hits counter
m2x_serve_kv_prefix_hits 0
# HELP m2x_serve_kv_prefix_misses Prefix-cache lookups that adopted nothing.
# TYPE m2x_serve_kv_prefix_misses counter
m2x_serve_kv_prefix_misses 0
# HELP m2x_serve_kv_shared_pages KV pages currently referenced by more than one holder.
# TYPE m2x_serve_kv_shared_pages gauge
m2x_serve_kv_shared_pages 0
# HELP m2x_serve_kv_free_pages KV pages parked on the pool free list.
# TYPE m2x_serve_kv_free_pages gauge
m2x_serve_kv_free_pages 0
# HELP m2x_serve_kv_packed_bytes Packed KV bytes held by in-flight sessions (the budgeted payload).
# TYPE m2x_serve_kv_packed_bytes gauge
m2x_serve_kv_packed_bytes 0
# HELP m2x_serve_kv_decoded_bytes Decoded f32 KV bytes held by in-flight sessions (not budgeted).
# TYPE m2x_serve_kv_decoded_bytes gauge
m2x_serve_kv_decoded_bytes 0
# HELP m2x_serve_kv_fragmentation Unused token-row fraction of the KV pages in flight.
# TYPE m2x_serve_kv_fragmentation gauge
m2x_serve_kv_fragmentation 0
# HELP m2x_serve_step_latency_us Engine step (tick) wall latency in microseconds.
# TYPE m2x_serve_step_latency_us histogram
m2x_serve_step_latency_us_bucket{le=\"0\"} 0
m2x_serve_step_latency_us_bucket{le=\"3\"} 0
m2x_serve_step_latency_us_bucket{le=\"15\"} 0
m2x_serve_step_latency_us_bucket{le=\"63\"} 0
m2x_serve_step_latency_us_bucket{le=\"255\"} 0
m2x_serve_step_latency_us_bucket{le=\"1023\"} 0
m2x_serve_step_latency_us_bucket{le=\"4095\"} 0
m2x_serve_step_latency_us_bucket{le=\"16383\"} 0
m2x_serve_step_latency_us_bucket{le=\"65535\"} 0
m2x_serve_step_latency_us_bucket{le=\"262143\"} 0
m2x_serve_step_latency_us_bucket{le=\"1048575\"} 0
m2x_serve_step_latency_us_bucket{le=\"4194303\"} 0
m2x_serve_step_latency_us_bucket{le=\"16777215\"} 0
m2x_serve_step_latency_us_bucket{le=\"67108863\"} 0
m2x_serve_step_latency_us_bucket{le=\"268435455\"} 0
m2x_serve_step_latency_us_bucket{le=\"+Inf\"} 0
m2x_serve_step_latency_us_sum 0
m2x_serve_step_latency_us_count 0
# HELP m2x_serve_ttft_us Time to first decode token in microseconds, from submission.
# TYPE m2x_serve_ttft_us histogram
m2x_serve_ttft_us_bucket{le=\"0\"} 0
m2x_serve_ttft_us_bucket{le=\"3\"} 0
m2x_serve_ttft_us_bucket{le=\"15\"} 0
m2x_serve_ttft_us_bucket{le=\"63\"} 0
m2x_serve_ttft_us_bucket{le=\"255\"} 0
m2x_serve_ttft_us_bucket{le=\"1023\"} 0
m2x_serve_ttft_us_bucket{le=\"4095\"} 0
m2x_serve_ttft_us_bucket{le=\"16383\"} 0
m2x_serve_ttft_us_bucket{le=\"65535\"} 0
m2x_serve_ttft_us_bucket{le=\"262143\"} 0
m2x_serve_ttft_us_bucket{le=\"1048575\"} 0
m2x_serve_ttft_us_bucket{le=\"4194303\"} 0
m2x_serve_ttft_us_bucket{le=\"16777215\"} 0
m2x_serve_ttft_us_bucket{le=\"67108863\"} 0
m2x_serve_ttft_us_bucket{le=\"268435455\"} 0
m2x_serve_ttft_us_bucket{le=\"+Inf\"} 0
m2x_serve_ttft_us_sum 0
m2x_serve_ttft_us_count 0
# HELP m2x_serve_queue_wait_us Queue wait in microseconds, from submission to admission.
# TYPE m2x_serve_queue_wait_us histogram
m2x_serve_queue_wait_us_bucket{le=\"0\"} 0
m2x_serve_queue_wait_us_bucket{le=\"3\"} 0
m2x_serve_queue_wait_us_bucket{le=\"15\"} 0
m2x_serve_queue_wait_us_bucket{le=\"63\"} 0
m2x_serve_queue_wait_us_bucket{le=\"255\"} 0
m2x_serve_queue_wait_us_bucket{le=\"1023\"} 0
m2x_serve_queue_wait_us_bucket{le=\"4095\"} 0
m2x_serve_queue_wait_us_bucket{le=\"16383\"} 0
m2x_serve_queue_wait_us_bucket{le=\"65535\"} 0
m2x_serve_queue_wait_us_bucket{le=\"262143\"} 0
m2x_serve_queue_wait_us_bucket{le=\"1048575\"} 0
m2x_serve_queue_wait_us_bucket{le=\"4194303\"} 0
m2x_serve_queue_wait_us_bucket{le=\"16777215\"} 0
m2x_serve_queue_wait_us_bucket{le=\"67108863\"} 0
m2x_serve_queue_wait_us_bucket{le=\"268435455\"} 0
m2x_serve_queue_wait_us_bucket{le=\"+Inf\"} 0
m2x_serve_queue_wait_us_sum 0
m2x_serve_queue_wait_us_count 0
# HELP m2x_serve_tokens_per_request Decode tokens delivered per resolved request.
# TYPE m2x_serve_tokens_per_request histogram
m2x_serve_tokens_per_request_bucket{le=\"0\"} 0
m2x_serve_tokens_per_request_bucket{le=\"3\"} 0
m2x_serve_tokens_per_request_bucket{le=\"15\"} 0
m2x_serve_tokens_per_request_bucket{le=\"63\"} 0
m2x_serve_tokens_per_request_bucket{le=\"255\"} 0
m2x_serve_tokens_per_request_bucket{le=\"1023\"} 0
m2x_serve_tokens_per_request_bucket{le=\"4095\"} 0
m2x_serve_tokens_per_request_bucket{le=\"16383\"} 0
m2x_serve_tokens_per_request_bucket{le=\"65535\"} 0
m2x_serve_tokens_per_request_bucket{le=\"262143\"} 0
m2x_serve_tokens_per_request_bucket{le=\"1048575\"} 0
m2x_serve_tokens_per_request_bucket{le=\"4194303\"} 0
m2x_serve_tokens_per_request_bucket{le=\"16777215\"} 0
m2x_serve_tokens_per_request_bucket{le=\"67108863\"} 0
m2x_serve_tokens_per_request_bucket{le=\"268435455\"} 0
m2x_serve_tokens_per_request_bucket{le=\"+Inf\"} 0
m2x_serve_tokens_per_request_sum 0
m2x_serve_tokens_per_request_count 0
# HELP m2x_gateway_connections TCP connections accepted.
# TYPE m2x_gateway_connections counter
m2x_gateway_connections 0
# HELP m2x_gateway_requests HTTP requests fully parsed and routed.
# TYPE m2x_gateway_requests counter
m2x_gateway_requests 0
# HELP m2x_gateway_streams_opened Generation requests that opened an SSE token stream.
# TYPE m2x_gateway_streams_opened counter
m2x_gateway_streams_opened 0
# HELP m2x_gateway_client_disconnects Streams whose client vanished mid-flight.
# TYPE m2x_gateway_client_disconnects counter
m2x_gateway_client_disconnects 0
# HELP m2x_gateway_bad_requests Requests rejected by the HTTP parser or validation.
# TYPE m2x_gateway_bad_requests counter
m2x_gateway_bad_requests 0
# HELP m2x_gateway_healthy 1 while the engine thread is alive and accepting.
# TYPE m2x_gateway_healthy gauge
m2x_gateway_healthy 1
";

    #[test]
    fn fresh_metrics_text_is_pinned() {
        let ctx = test_ctx();
        assert_eq!(render_metrics(&ctx), FRESH_METRICS);
    }

    /// docs/HTTP_API.md's `/metrics` table lists exactly the families a
    /// fresh server renders, each with its rendered `# TYPE`.
    #[test]
    fn metrics_doc_table_matches_rendered_families() {
        let body = render_metrics(&test_ctx());
        let rendered: Vec<(&str, &str)> = body
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
            .collect();
        let doc = include_str!("../../../docs/HTTP_API.md");
        let section = doc
            .split_once("## `GET /metrics`")
            .and_then(|(_, rest)| rest.split("\n## ").next())
            .expect("HTTP_API.md has a `GET /metrics` section");
        let documented: Vec<(&str, &str)> = section
            .lines()
            .filter_map(|l| {
                let mut cells = l.strip_prefix('|')?.split('|').map(str::trim);
                let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
                Some((name, cells.next()?))
            })
            .collect();
        for (name, kind) in &rendered {
            let listed = documented.iter().find(|(n, _)| n == name);
            assert_eq!(
                listed.map(|(_, k)| *k),
                Some(*kind),
                "/metrics renders `{name}` as a {kind}; HTTP_API.md's table must list it so"
            );
        }
        for (name, _) in &documented {
            assert!(
                rendered.iter().any(|(n, _)| n == name),
                "HTTP_API.md lists `{name}`, which /metrics does not render"
            );
        }
    }

    #[test]
    fn metrics_histograms_count_served_requests() {
        let ctx = test_ctx();
        let prompt = Matrix::from_fn(2, 64, |r, c| ((r + c) as f32 * 0.01).tanh());
        let id = ctx.server.submit(prompt, 3).unwrap();
        ctx.server.wait(id).unwrap();
        let body = render_metrics(&ctx);
        assert!(body.contains("m2x_serve_ttft_us_count 1"), "{body}");
        assert!(body.contains("m2x_serve_queue_wait_us_count 1"));
        assert!(body.contains("m2x_serve_tokens_per_request_sum 3"));
        assert!(body.contains("m2x_serve_tokens_per_request_bucket{le=\"+Inf\"} 1"));
        // The cumulative ladder is monotone for every histogram family.
        for family in [
            "m2x_serve_step_latency_us",
            "m2x_serve_ttft_us",
            "m2x_serve_queue_wait_us",
            "m2x_serve_tokens_per_request",
        ] {
            let mut last = 0u64;
            for line in body
                .lines()
                .filter(|l| l.starts_with(&format!("{family}_bucket")))
            {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "non-cumulative ladder: {line}");
                last = v;
            }
        }
    }

    #[test]
    fn trace_renders_every_ring_as_chrome_json() {
        let ctx = test_ctx();
        let prompt = Matrix::from_fn(1, 64, |_, c| (c as f32 * 0.02).cos() * 0.3);
        let id = ctx.server.submit(prompt, 2).unwrap();
        ctx.server.wait(id).unwrap();
        ctx.trace.span(stage::GW_STREAM, id as u32, 0, 5, 2);
        let body = render_trace(&ctx);
        let doc = json::parse(&body).expect("trace output must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // One thread_name metadata event per ring: engine, api, gateway.
        let tracks: Vec<&str> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("M")))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert_eq!(tracks, vec!["engine", "api", "gateway"]);
        // Spans carry ts + dur; instants carry ts + scope.
        assert!(events.iter().any(|e| {
            matches!(e.get("ph").and_then(Json::as_str), Some("X"))
                && matches!(e.get("name").and_then(Json::as_str), Some("tick"))
        }));
        assert!(events.iter().any(|e| {
            matches!(e.get("ph").and_then(Json::as_str), Some("i"))
                && matches!(e.get("name").and_then(Json::as_str), Some("req_token"))
        }));
        // Drains are destructive: an immediate re-render is near-empty.
        let again = render_trace(&ctx);
        let doc2 = json::parse(&again).unwrap();
        let n2 = doc2
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .len();
        assert!(
            n2 <= 3 + 2,
            "second drain should hold only metadata, got {n2}"
        );
    }
}
