//! Socket-level tests of the gateway: every documented status code is
//! exercised over a real TCP connection against a live scheduler, and the
//! streamed token bytes are reassembled and compared bit-for-bit against
//! the solo oracle.

use m2x_gateway::{client, Gateway, GatewayConfig, Limits};
use m2x_nn::model::{ModelBuilder, ModelWeights};
use m2x_nn::profile::ModelProfile;
use m2x_nn::synth::activation_matrix;
use m2x_serve::{run_solo, Fault, FaultPlan, ServeConfig, Server};
use m2x_tensor::Matrix;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn weights(hidden: usize) -> Arc<ModelWeights> {
    Arc::new(
        ModelBuilder::scaled(&ModelProfile::llama3_8b(), hidden, 1)
            .build_weights()
            .unwrap(),
    )
}

fn prompt(tokens: usize, seed: usize, hidden: usize) -> Matrix {
    activation_matrix(&ModelProfile::llama3_8b(), seed, tokens, hidden).map(|v| (v * 0.25).tanh())
}

fn gateway_over(weights: &Arc<ModelWeights>, serve_cfg: ServeConfig) -> (Gateway, Arc<Server>) {
    let server = Arc::new(Server::start(Arc::clone(weights), serve_cfg));
    let gw = Gateway::bind(Arc::clone(&server), GatewayConfig::default()).unwrap();
    (gw, server)
}

/// A gateway whose `max_tokens` cap admits the very long streams the
/// disconnect tests need (they never run to completion).
fn gateway_long_streams(weights: &Arc<ModelWeights>) -> (Gateway, Arc<Server>) {
    let server = Arc::new(Server::start(Arc::clone(weights), ServeConfig::default()));
    let gw = Gateway::bind(
        Arc::clone(&server),
        GatewayConfig {
            max_decode_steps: 100_000,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    (gw, server)
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

/// The tentpole invariant: tokens reassembled from the SSE frames of a
/// `POST /v1/generate` stream are bit-identical to the solo run.
#[test]
fn streamed_generation_bit_identical_to_solo() {
    let w = weights(64);
    let (gw, _server) = gateway_over(&w, ServeConfig::default());
    for seed in 0..3 {
        let p = prompt(2 + seed, seed, 64);
        let steps = 3 + seed;
        let got = client::generate(gw.local_addr(), &p, steps, None, None).unwrap();
        assert_eq!(got.status, 200, "case {seed}");
        assert_eq!(got.outcome.as_deref(), Some("finished"), "case {seed}");
        assert_eq!(got.frames, steps, "case {seed}");
        let solo = run_solo(&w, &p, steps).unwrap();
        assert_bits_eq(&got.tokens, &solo, &format!("case {seed}"));
    }
    assert_eq!(gw.stats().streams_opened, 3);
    assert_eq!(gw.stats().client_disconnects, 0);
}

/// Deadline already expired at submission → non-streaming `504` with the
/// outcome payload.
#[test]
fn expired_deadline_maps_to_504() {
    let w = weights(64);
    let (gw, _server) = gateway_over(&w, ServeConfig::default());
    let got = client::generate(gw.local_addr(), &prompt(1, 0, 64), 50, None, Some(0)).unwrap();
    assert_eq!(got.status, 504);
    assert_eq!(got.outcome.as_deref(), Some("deadline_exceeded"));
    assert_eq!(got.frames, 0);
}

/// Queue shedding → `429` carrying the observed queue depth. The server
/// is never ticked, so the request queued directly holds its size-1
/// arrival queue and the HTTP request is shed at submission.
#[test]
fn queue_overflow_maps_to_429_with_depth() {
    let w = weights(64);
    let (server, _ticker) = Server::ticked(
        Arc::clone(&w),
        ServeConfig {
            max_batch: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
        FaultPlan::none(),
    );
    let server = Arc::new(server);
    server.submit(prompt(1, 0, 64), 4).unwrap();
    let gw = Gateway::bind(Arc::clone(&server), GatewayConfig::default()).unwrap();
    let rejected = client::generate(gw.local_addr(), &prompt(1, 1, 64), 4, None, None).unwrap();
    assert_eq!(rejected.status, 429);
    assert_eq!(rejected.outcome.as_deref(), Some("rejected"));
    let depth = rejected
        .done
        .as_ref()
        .and_then(|d| d.get("queue_depth"))
        .and_then(m2x_gateway::Json::as_usize)
        .expect("429 body carries queue_depth");
    assert_eq!(depth, 1);
}

/// A step panic pinned on the only in-flight request → `500` with the
/// panic message, before any token frame was produced (recovery discards
/// pre-publication progress, so the stream never opens).
#[test]
fn isolated_failure_maps_to_500() {
    let w = weights(64);
    let server = Arc::new(Server::start_with_faults(
        Arc::clone(&w),
        ServeConfig::default(),
        FaultPlan::new(vec![Fault::StepPanic { tick: 0, slot: 0 }]),
    ));
    let gw = Gateway::bind(Arc::clone(&server), GatewayConfig::default()).unwrap();
    let got = client::generate(gw.local_addr(), &prompt(1, 0, 64), 4, None, None).unwrap();
    assert_eq!(got.status, 500);
    assert_eq!(got.outcome.as_deref(), Some("failed"));
    // The scheduler survives the injected panic: the next request is fine.
    let p = prompt(2, 1, 64);
    let ok = client::generate(gw.local_addr(), &p, 3, None, None).unwrap();
    assert_eq!(ok.status, 200);
    assert_bits_eq(&ok.tokens, &run_solo(&w, &p, 3).unwrap(), "post-panic");
}

/// Malformed bodies → `400` with a JSON error, connection still usable
/// (keep-alive): ragged prompts, missing/oversized `max_tokens`, broken
/// JSON, wrong width (the scheduler's own validation surfaces as 400 too).
#[test]
fn invalid_generate_bodies_map_to_400() {
    let w = weights(64);
    let (gw, _server) = gateway_over(&w, ServeConfig::default());
    let cases: &[&str] = &[
        "{not json",
        "{\"max_tokens\":3}",
        "{\"prompt\":[],\"max_tokens\":3}",
        "{\"prompt\":[[0.1],[0.2,0.3]],\"max_tokens\":3}",
        "{\"prompt\":[[0.1,0.2]],\"max_tokens\":-1}",
        "{\"prompt\":[[0.1,0.2]],\"max_tokens\":999999999}",
        "{\"prompt\":[[0.1,\"x\"]],\"max_tokens\":3}",
        "{\"prompt\":[[0.1,0.2]],\"max_tokens\":3}", // width 2 != hidden 64
    ];
    for body in cases {
        let raw = format!(
            "POST /v1/generate HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        );
        let (status, _, resp) = client::http_request(gw.local_addr(), raw.as_bytes()).unwrap();
        assert_eq!(
            status,
            400,
            "body {body:?} → {}",
            String::from_utf8_lossy(&resp)
        );
    }
    assert!(gw.stats().bad_requests >= cases.len() as u64);
}

/// Routing: unknown paths → 404, wrong methods → 405 with `allow`.
#[test]
fn routing_404_and_405() {
    let w = weights(64);
    let (gw, _server) = gateway_over(&w, ServeConfig::default());
    let (status, _, _) = client::http_request(
        gw.local_addr(),
        b"GET /nope HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!(status, 404);
    let (status, headers, _) = client::http_request(
        gw.local_addr(),
        b"GET /v1/generate HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!(status, 405);
    let allow = headers
        .iter()
        .find(|(n, _)| n == "allow")
        .map(|(_, v)| v.as_str());
    assert_eq!(allow, Some("POST"));
    let (status, _, _) = client::http_request(
        gw.local_addr(),
        b"POST /metrics HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!(status, 405);
}

/// Parser hardening over the socket: malformed request line → 400,
/// oversized head → 431, oversized declared body → 413,
/// Transfer-Encoding on a request → 501.
#[test]
fn parser_rejections_over_socket() {
    let w = weights(64);
    let server = Arc::new(Server::start(Arc::clone(&w), ServeConfig::default()));
    let gw = Gateway::bind(
        Arc::clone(&server),
        GatewayConfig {
            limits: Limits {
                max_head_bytes: 512,
                max_body_bytes: 1024,
            },
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let cases: &[(&[u8], u16)] = &[
        (b"BORKED\r\n\r\n", 400),
        (b"GET / HTTP/2.0\r\nhost: x\r\n\r\n", 505),
        (
            b"POST /v1/generate HTTP/1.1\r\nhost: x\r\ntransfer-encoding: chunked\r\n\r\n",
            501,
        ),
        (
            b"POST /v1/generate HTTP/1.1\r\nhost: x\r\ncontent-length: 99999\r\n\r\n",
            413,
        ),
    ];
    for (raw, want) in cases {
        let (status, _, _) = client::http_request(gw.local_addr(), raw).unwrap();
        assert_eq!(status, *want, "request {:?}", String::from_utf8_lossy(raw));
    }
    // Oversized head (431): a single header bigger than the cap.
    let raw = format!(
        "GET /healthz HTTP/1.1\r\nhost: x\r\nx-pad: {}\r\n\r\n",
        "y".repeat(1024)
    );
    let (status, _, _) = client::http_request(gw.local_addr(), raw.as_bytes()).unwrap();
    assert_eq!(status, 431);
}

/// Keep-alive + pipelining: two requests written back-to-back on one
/// connection get two complete responses, in order, on that connection.
#[test]
fn pipelined_requests_share_a_connection() {
    let w = weights(64);
    let (gw, _server) = gateway_over(&w, ServeConfig::default());
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\nGET /metrics HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
    assert!(text.contains("ok\n"), "{text}");
    assert!(text.contains("m2x_serve_steps"), "{text}");
    assert_eq!(gw.stats().connections, 1);
    assert_eq!(gw.stats().requests, 2);
}

/// `Expect: 100-continue` gets the interim response before the body is
/// sent, then the real response.
#[test]
fn expect_100_continue_handshake() {
    let w = weights(64);
    let (gw, _server) = gateway_over(&w, ServeConfig::default());
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    let p = prompt(1, 0, 64);
    let body = client::generate_body(&p, 2, None, None);
    stream
        .write_all(
            format!(
                "POST /v1/generate HTTP/1.1\r\nhost: x\r\nexpect: 100-continue\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // Wait for the interim response before sending the body.
    let mut interim = [0u8; 25];
    stream.read_exact(&mut interim).unwrap();
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let resp = client::parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    let got = client::decode_generated(&resp).unwrap();
    assert_bits_eq(&got.tokens, &run_solo(&w, &p, 2).unwrap(), "100-continue");
}

/// Tokens are flushed as produced: the first SSE frame arrives while the
/// request is still decoding (long before the stream completes).
#[test]
fn frames_arrive_incrementally() {
    let w = weights(64);
    let (gw, server) = gateway_long_streams(&w);
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    let p = prompt(1, 0, 64);
    let body = client::generate_body(&p, 20_000, None, None);
    stream
        .write_all(
            format!(
                "POST /v1/generate HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // Read just the head + first frame; the 20k-step request is nowhere
    // near done, so these bytes existing proves per-token flushing.
    let mut got = Vec::new();
    let mut chunk = [0u8; 1024];
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        let n = stream.read(&mut chunk).unwrap();
        if n == 0 {
            break;
        }
        got.extend_from_slice(&chunk[..n]);
        let text = String::from_utf8_lossy(&got);
        if text.contains("\"index\":0") {
            assert!(text.contains("HTTP/1.1 200 OK"));
            assert!(text.contains("text/event-stream"));
            // Cancel the rest so the test doesn't decode 20k steps.
            drop(stream);
            // The disconnect-cancel path retires the request.
            let deadline = Instant::now() + Duration::from_secs(20);
            while server.stats().cancelled == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(server.stats().cancelled, 1, "disconnect must cancel");
            return;
        }
    }
    panic!(
        "first frame never arrived; got {:?}",
        String::from_utf8_lossy(&got)
    );
}

/// A client that vanishes mid-stream triggers `cancel`: the scheduler
/// retires the request (outcome consumed — zero leak) and its session is
/// released so `open_sessions` returns to zero.
#[test]
fn mid_stream_disconnect_cancels_and_leaks_nothing() {
    let w = weights(64);
    let (gw, server) = gateway_long_streams(&w);
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    let p = prompt(1, 0, 64);
    let body = client::generate_body(&p, 50_000, None, None);
    stream
        .write_all(
            format!(
                "POST /v1/generate HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // Wait for the stream to open, then slam the connection shut.
    let mut first = [0u8; 64];
    stream.read_exact(&mut first).unwrap();
    drop(stream);

    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if server.stats().cancelled == 1
            && w.open_sessions() == 0
            && gw.stats().client_disconnects == 1
        {
            return; // cancelled, session released, outcome consumed
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "disconnect not fully reaped: cancelled={} open_sessions={} disconnects={}",
        server.stats().cancelled,
        w.open_sessions(),
        gw.stats().client_disconnects
    );
}

/// `/healthz` reports a live engine; `/metrics` exposes the scheduler and
/// gateway counter families in the documented text format.
#[test]
fn healthz_and_metrics_reflect_server_state() {
    let w = weights(64);
    let server = Arc::new(Server::start(Arc::clone(&w), ServeConfig::default()));
    let gw = Gateway::bind(Arc::clone(&server), GatewayConfig::default()).unwrap();
    let (status, _, body) = client::http_request(
        gw.local_addr(),
        b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    let p = prompt(1, 0, 64);
    let got = client::generate(gw.local_addr(), &p, 3, None, None).unwrap();
    assert_eq!(got.status, 200);

    let (status, _, body) = client::http_request(
        gw.local_addr(),
        b"GET /metrics HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
    )
    .unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    for needle in [
        "m2x_serve_steps ",
        "m2x_serve_decoded_tokens 3",
        "m2x_serve_p99_step_us ",
        "m2x_gateway_connections ",
        "m2x_gateway_streams_opened 1",
        "m2x_gateway_healthy 1",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}
