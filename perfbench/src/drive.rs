//! Closed-loop load generators.
//!
//! * [`drive_gateway`] streams generations over the gateway socket from
//!   up to two client threads, one connection each; a client sends its
//!   next request when its stream ends.
//! * [`drive_in_process`] keeps up to `cap` requests outstanding through
//!   `Server::submit_with` / `Server::next_token` from one thread.
//!
//! Neither can queue more than its cap, so no queue grows with run
//! length. Every token is timestamped when the client sees it and checked
//! against its oracle; no response body is kept.

use crate::check::{hash_row, hash_rows, EMPTY_HASH};
use crate::host;
use crate::spans::{Open, Recorder, Span};
use crate::sse::StreamReader;
use crate::workload::Request;
use m2x_gateway::json::f32_repr;
use m2x_serve::{RequestOptions, RequestOutcome, Server, StreamEvent};
use m2x_telemetry::Telemetry;
use m2x_tensor::Matrix;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a client waits on one socket read before failing the request.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Failure messages kept per pass (the count is always exact).
const MAX_ERRORS: usize = 8;

/// What one pass of a load generator measured.
#[derive(Debug, Default)]
pub struct Driven {
    /// Time to first token of each finished request, ms.
    pub ttft_ms: Vec<f64>,
    /// Gaps between consecutive tokens of one request, ms.
    pub itl_ms: Vec<f64>,
    /// Duration of each `submit_with` call, µs (in-process only).
    pub submit_us: Vec<f64>,
    /// Tokens received.
    pub tokens: u64,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed any check.
    pub failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// First submit to last completion, s.
    pub window_s: f64,
    /// Process CPU over the window, s.
    pub process_cpu_s: f64,
    /// CPU of the load generator's own threads over the window, s.
    pub loadgen_cpu_s: f64,
    /// Most requests the load generator ever had outstanding.
    pub max_outstanding: usize,
    /// Response bytes read (gateway only).
    pub resp_bytes: u64,
    /// Request body bytes written (gateway only).
    pub req_body_bytes: u64,
    /// Hash of each request's decode rows (in-process only).
    pub hashes: Vec<u64>,
    /// The spans of a traced pass.
    pub spans: Vec<Span>,
}

impl Driven {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    fn absorb(&mut self, other: Driven) {
        self.ttft_ms.extend(other.ttft_ms);
        self.itl_ms.extend(other.itl_ms);
        self.tokens += other.tokens;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
        self.loadgen_cpu_s += other.loadgen_cpu_s;
        self.resp_bytes += other.resp_bytes;
        self.req_body_bytes += other.req_body_bytes;
        self.spans.extend(other.spans);
    }

    /// CPU seconds of the serving stack: the process minus the load
    /// generator's threads.
    pub fn stack_cpu_s(&self) -> f64 {
        self.process_cpu_s - self.loadgen_cpu_s
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The rendered `POST /v1/generate` body of `prompt`, up to the
/// `max_tokens` value: `{"prompt":[[..],..],"max_tokens":`.
pub fn body_prefix(prompt: &Matrix) -> Vec<u8> {
    let mut body = String::from("{\"prompt\":[");
    for r in 0..prompt.rows() {
        if r > 0 {
            body.push(',');
        }
        body.push('[');
        for (c, v) in prompt.row(r).iter().enumerate() {
            if c > 0 {
                body.push(',');
            }
            body.push_str(&f32_repr(*v));
        }
        body.push(']');
    }
    body.push_str("],\"max_tokens\":");
    body.into_bytes()
}

/// The SSE frames the gateway must send for the decode rows of `oracle`
/// (each without the blank line that ends it): row `i` rendered with
/// `json::f32_repr` as `data: {"index":i,"token":[..]}`. Rendered before
/// the window, so checking a frame costs the client one comparison.
pub fn expected_frames(oracle: &Matrix) -> Vec<Vec<u8>> {
    (0..oracle.rows())
        .map(|i| {
            let mut out = format!("data: {{\"index\":{i},\"token\":[");
            for (c, v) in oracle.row(i).iter().enumerate() {
                if c > 0 {
                    out.push(',');
                }
                out.push_str(&f32_repr(*v));
            }
            out.push_str("]}");
            out.into_bytes()
        })
        .collect()
}

/// The chat inputs the gateway load generator needs besides the request
/// list.
pub struct ChatInputs<'a> {
    /// Rendered body prefix per pool prompt ([`body_prefix`]).
    pub bodies: &'a [Vec<u8>],
    /// Expected frames per pool prompt ([`expected_frames`] of its
    /// `run_solo` oracle), at least as many as any request decodes.
    pub frames: &'a [Vec<Vec<u8>>],
}

/// Streams `reqs` through the gateway at `addr` on `conns` connections
/// (one client thread each, the calling thread included). `on_complete`
/// runs on the client thread after each request, outside its timing.
pub fn drive_gateway(
    addr: SocketAddr,
    reqs: &[Request],
    chat: &ChatInputs<'_>,
    conns: usize,
    clock: Option<Arc<Telemetry>>,
    on_complete: &(dyn Fn() + Sync),
) -> Driven {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let cpu0 = host::process_cpu_s().unwrap_or(0.0);
    let client = |tid: u32| -> (Driven, Instant) {
        let cpu = host::thread_cpu_s().unwrap_or(0.0);
        let mut d = Driven::default();
        let mut rec = Recorder::new(clock.clone(), tid);
        let mut last = t0;
        let mut scratch = ClientScratch::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(r) = reqs.get(i) else { break };
            d.attempted += 1;
            if let Err(e) = chat_request(addr, r, chat, &mut d, &mut rec, &mut scratch) {
                d.fail(format!("chat request {i}: {e}"));
            }
            last = Instant::now();
            on_complete();
        }
        d.loadgen_cpu_s = host::thread_cpu_s().unwrap_or(cpu) - cpu;
        d.spans = rec.into_spans();
        (d, last)
    };
    let conns = conns.max(1) as u32;
    let mut total = Driven::default();
    let mut end = t0;
    std::thread::scope(|sc| {
        let others: Vec<_> = (1..conns).map(|t| sc.spawn(move || client(t))).collect();
        let mut parts = vec![client(0)];
        parts.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        for (d, last) in parts {
            end = end.max(last);
            total.absorb(d);
        }
    });
    total.window_s = (end - t0).as_secs_f64();
    total.process_cpu_s = host::process_cpu_s().unwrap_or(cpu0) - cpu0;
    total.max_outstanding = conns as usize;
    total
}

/// Buffers a client reuses across its requests.
#[derive(Default)]
struct ClientScratch {
    request: Vec<u8>,
    read: Vec<u8>,
}

/// One streamed generation: connect, write, read frames until the
/// response ends, checking each frame against the oracle as it arrives.
fn chat_request(
    addr: SocketAddr,
    r: &Request,
    chat: &ChatInputs<'_>,
    d: &mut Driven,
    rec: &mut Recorder,
    s: &mut ClientScratch,
) -> Result<(), String> {
    let p = r.pool.ok_or("chat request without a pool prompt")?;
    let expected = &chat.frames[p];
    if expected.len() < r.decode {
        return Err("oracle shorter than the request".into());
    }
    let body_len = chat.bodies[p].len() + r.decode.to_string().len() + 1;
    s.request.clear();
    s.request.extend_from_slice(
        format!(
            "POST /v1/generate HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {body_len}\r\nconnection: close\r\n\r\n"
        )
        .as_bytes(),
    );
    s.request.extend_from_slice(&chat.bodies[p]);
    s.request
        .extend_from_slice(format!("{}}}", r.decode).as_bytes());
    if s.read.len() < 64 * 1024 {
        s.read.resize(64 * 1024, 0);
    }

    let req_span = rec.open();
    let start = Instant::now();
    let o = rec.open();
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    rec.close(o, "gateway", "connect", req_span.id, 0);
    sock.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    sock.set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    let o = rec.open();
    sock.write_all(&s.request)
        .map_err(|e| format!("write: {e}"))?;
    rec.close(o, "gateway", "write", req_span.id, 0);
    d.req_body_bytes += body_len as u64;

    let mut reader = StreamReader::new();
    let (mut frames, mut done_ok, mut bad) = (0usize, false, None::<String>);
    let mut ttft = None;
    let mut last = start;
    let mut gaps = Vec::with_capacity(r.decode);
    loop {
        let o = rec.open();
        let n = sock.read(&mut s.read).map_err(|e| format!("read: {e}"))?;
        let now = Instant::now();
        if n == 0 {
            rec.close(
                o,
                "gateway",
                "read",
                req_span.id,
                reader.request_id().unwrap_or(0),
            );
            break;
        }
        reader.feed(&s.read[..n], &mut |frame: &[u8]| {
            if frame.starts_with(b"data: {\"done\":") {
                done_ok = frame.starts_with(b"data: {\"done\":{\"outcome\":\"finished\"");
                return;
            }
            if frames < r.decode {
                if frame != expected[frames].as_slice() && bad.is_none() {
                    bad = Some(format!("frame {frames} differs from run_solo"));
                }
            } else if bad.is_none() {
                bad = Some(format!("more than {} frames", r.decode));
            }
            if frames == 0 {
                ttft = Some(ms(now - start));
            } else {
                gaps.push(ms(now - last));
            }
            last = now;
            frames += 1;
        })?;
        rec.close(
            o,
            "gateway",
            "read",
            req_span.id,
            reader.request_id().unwrap_or(0),
        );
    }
    rec.close(
        req_span,
        "gateway",
        "request",
        0,
        reader.request_id().unwrap_or(0),
    );
    d.resp_bytes += reader.bytes();
    if let Some(e) = bad {
        return Err(e);
    }
    if reader.status() != 200 || !reader.is_stream() {
        return Err(format!("HTTP {} without a token stream", reader.status()));
    }
    if !reader.is_done() || reader.outcome() != Some("finished") || !done_ok {
        return Err(format!("stream ended with outcome {:?}", reader.outcome()));
    }
    if frames != r.decode {
        return Err(format!("{frames} frames for max_tokens {}", r.decode));
    }
    d.tokens += frames as u64;
    d.ttft_ms.extend(ttft);
    d.itl_ms.extend(gaps);
    Ok(())
}

/// A request the in-process load generator has submitted and not yet
/// retired.
struct Live {
    idx: usize,
    id: u64,
    span: Open,
    start: Instant,
    last: Instant,
    cursor: usize,
    hash: u64,
    ttft: f64,
    gaps: Vec<f64>,
    done: bool,
    error: Option<String>,
}

/// Keeps up to `cap` of `reqs` outstanding on `server` from the calling
/// thread, streaming every token. `on_complete` runs after each request
/// retires, outside its timing.
///
/// The loop blocks on the oldest request that is already streaming:
/// the engine publishes one token for every running request per tick, so
/// when that call returns, the other streaming requests' tokens of the
/// same tick are ready too. A new request's first token arrives in
/// submission order (admission is FIFO and a prompt always prefills in
/// one tick), so the count of first-token samples in the server's
/// histogram tells which new requests have one.
pub fn drive_in_process(
    server: &Server,
    reqs: &[Request],
    cap: usize,
    rec: &mut Recorder,
    on_complete: &mut dyn FnMut(&Server),
) -> Driven {
    let opts = RequestOptions {
        stream: true,
        ..RequestOptions::default()
    };
    let mut d = Driven {
        hashes: vec![EMPTY_HASH; reqs.len()],
        ..Driven::default()
    };
    let firsts0 = server.telemetry_snapshot().ttft_us.count();
    let cpu = host::thread_cpu_s().unwrap_or(0.0);
    let cpu0 = host::process_cpu_s().unwrap_or(0.0);
    let t0 = Instant::now();
    let mut end = t0;
    let mut live: Vec<Live> = Vec::with_capacity(cap);
    let mut next = 0usize;
    loop {
        while live.len() < cap.max(1) && next < reqs.len() {
            let r = &reqs[next];
            let prompt = r.prompt();
            let span = rec.open();
            let o = rec.open();
            let start = Instant::now();
            let res = server.submit_with(prompt, r.decode, opts);
            d.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
            d.attempted += 1;
            match res {
                Ok(id) => {
                    rec.close(o, "serve", "submit_with", span.id, id);
                    live.push(Live {
                        idx: next,
                        id,
                        span,
                        start,
                        last: start,
                        cursor: 0,
                        hash: EMPTY_HASH,
                        ttft: 0.0,
                        gaps: Vec::with_capacity(r.decode),
                        done: false,
                        error: None,
                    });
                }
                Err(e) => d.fail(format!("request {next}: submit_with: {e}")),
            }
            next += 1;
            d.max_outstanding = d.max_outstanding.max(live.len());
        }
        if live.is_empty() {
            break;
        }
        let target = live.iter().position(|l| l.cursor > 0).unwrap_or(0);
        read_event(server, &mut live[target], reqs, rec);
        for (i, l) in live.iter_mut().enumerate() {
            if i != target && l.cursor > 0 && !l.done {
                read_event(server, l, reqs, rec);
            }
        }
        if live.iter().any(|l| l.cursor == 0 && !l.done) {
            let firsts = server.telemetry_snapshot().ttft_us.count() - firsts0;
            for l in live.iter_mut() {
                if l.cursor == 0 && !l.done && (l.idx as u64) < firsts {
                    read_event(server, l, reqs, rec);
                }
            }
        }
        let mut i = 0;
        while i < live.len() {
            if !live[i].done {
                i += 1;
                continue;
            }
            let l = live.remove(i);
            rec.close(l.span, "serve", "request", 0, l.id);
            end = l.last;
            match l.error {
                Some(e) => d.fail(format!("request {}: {e}", l.idx)),
                None => {
                    d.hashes[l.idx] = l.hash;
                    d.tokens += reqs[l.idx].decode as u64;
                    d.ttft_ms.push(l.ttft);
                    d.itl_ms.extend(l.gaps);
                }
            }
            on_complete(server);
        }
    }
    d.window_s = (end - t0).as_secs_f64();
    d.process_cpu_s = host::process_cpu_s().unwrap_or(cpu0) - cpu0;
    d.loadgen_cpu_s = host::thread_cpu_s().unwrap_or(cpu) - cpu;
    d
}

/// Reads the next event of `l` (blocking until it exists) and folds it
/// in. After the last token the outcome is already published, so it is
/// read right away.
fn read_event(server: &Server, l: &mut Live, reqs: &[Request], rec: &mut Recorder) {
    let decode = reqs[l.idx].decode;
    let o = rec.open();
    let ev = server.next_token(l.id, l.cursor);
    let now = Instant::now();
    rec.close(o, "serve", "next_token", l.span.id, l.id);
    match ev {
        Ok(StreamEvent::Token { index, row }) => {
            if index != l.cursor || index >= decode {
                l.error = Some(format!("token {index} out of order"));
                l.done = true;
                return;
            }
            l.hash = hash_row(l.hash, row.row(0));
            if l.cursor == 0 {
                l.ttft = ms(now - l.start);
            } else {
                l.gaps.push(ms(now - l.last));
            }
            l.last = now;
            l.cursor += 1;
            if l.cursor == decode {
                read_event(server, l, reqs, rec);
            }
        }
        Ok(StreamEvent::Done(outcome)) => {
            l.done = true;
            l.last = now;
            l.error = match outcome {
                RequestOutcome::Finished(c) => {
                    if l.cursor != decode || c.decoded.rows() != decode {
                        Some(format!("{} of {decode} tokens", c.decoded.rows()))
                    } else if hash_rows(&c.decoded) != l.hash {
                        Some("outcome rows differ from the streamed rows".into())
                    } else {
                        None
                    }
                }
                other => Some(format!("outcome {}", other.kind())),
            };
        }
        Err(e) => {
            l.done = true;
            l.error = Some(format!("next_token: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2x_nn::model::ModelBuilder;
    use m2x_nn::profile::ModelProfile;
    use m2x_serve::{run_solo, ServeConfig};

    fn tiny_requests(n: usize) -> (Arc<m2x_nn::ModelWeights>, Vec<Request>) {
        let w = Arc::new(
            ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1)
                .build_weights()
                .unwrap(),
        );
        let reqs = (0..n)
            .map(|i| Request {
                head: None,
                tail: Arc::new(Matrix::from_fn(1 + i % 3, 64, |r, c| {
                    (((i * 7 + r) * 64 + c) as f32 * 0.37).sin() * 0.5
                })),
                decode: 2 + i % 4,
                pool: None,
            })
            .collect();
        (w, reqs)
    }

    #[test]
    fn closed_loop_load_never_exceeds_its_cap() {
        let (w, reqs) = tiny_requests(10);
        for cap in [1, 3] {
            let server = Server::start(Arc::clone(&w), ServeConfig::default());
            let mut outstanding_seen = 0usize;
            let mut rec = Recorder::new(None, 0);
            let d = drive_in_process(&server, &reqs, cap, &mut rec, &mut |s: &Server| {
                outstanding_seen = outstanding_seen.max(s.stats().peak_batch);
            });
            assert_eq!((d.attempted, d.failed), (10, 0), "{:?}", d.errors);
            assert!(d.max_outstanding <= cap && d.max_outstanding > 0);
            assert!(server.stats().peak_batch <= cap);
            assert!(outstanding_seen <= cap);
            assert_eq!(d.ttft_ms.len(), 10);
            assert_eq!(d.tokens, reqs.iter().map(|r| r.decode as u64).sum::<u64>());
            for (r, h) in reqs.iter().zip(&d.hashes) {
                assert_eq!(*h, hash_rows(&run_solo(&w, &r.prompt(), r.decode).unwrap()));
            }
        }
    }

    #[test]
    fn expected_frames_match_the_gateway_rendering() {
        let m = Matrix::from_vec(2, 3, vec![0.0, 1.0, 2.0, 1.5, -0.25, 2.0]);
        let f = expected_frames(&m);
        assert_eq!(f[1], b"data: {\"index\":1,\"token\":[1.5,-0.25,2]}");
    }
}
