//! `perfbench` — the serving benchmark of the M2XFP stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat|prefix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the layered replay (gateway → in-process server →
//! engine step → kernels) with tracing on, prints the per-layer metrics
//! and writes a Chrome trace to `perfbench/out/`. Everything timed runs on
//! one CPU. The last line of standard output is one JSON object; the exit
//! code is non-zero when any check failed. See `perfbench/README.md`.

mod check;
mod drive;
mod host;
mod replay;
mod spans;
mod sse;
mod stats;
mod workload;

use crate::drive::{
    body_prefix, drive_gateway, drive_in_process, expected_frames, ChatInputs, Driven,
};
use crate::host::{CpuSet, CpuTicks};
use crate::spans::{chrome_trace, PassTrace, Recorder};
use crate::stats::{median, percentile};
use crate::workload::{
    profile, Plan, Request, Workload, CHAT_MAX_DECODE, HIDDEN, LAYERS, PAGE_TOKENS, PREFIX_ROWS,
};
use m2x_gateway::{Gateway, GatewayConfig};
use m2x_nn::model::{ModelBuilder, ModelWeights};
use m2x_nn::PoolStats;
use m2x_serve::{ServeConfig, ServeStats, Server};
use m2x_telemetry::Telemetry;
use m2x_tensor::Matrix;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Buffered trace events that trigger a drain of the server's rings.
const DRAIN_AT: usize = 8_192;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload chat|prefix --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Attempted and failed requests across a run's passes.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, label: &str, d: &Driven) {
        self.attempted += d.attempted;
        self.failed += d.failed;
        self.errors
            .extend(d.errors.iter().map(|e| format!("{label}: {e}")));
    }

    fn fail(&mut self, count: usize, msg: String) {
        self.failed += count.max(1);
        self.errors.push(msg);
    }

    fn report(&mut self, metrics: Vec<Metric>, diagnostics: Vec<(String, f64)>) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.failed,
            errors: std::mem::take(&mut self.errors),
            metrics,
            diagnostics,
        }
    }
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Report {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    diagnostics: Vec<(String, f64)>,
}

impl Report {
    fn print(&self) {
        for e in &self.errors {
            eprintln!("perfbench: FAILED {e}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.4} {unit}");
        }
        let diag: Vec<String> = self
            .diagnostics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect();
        println!("diagnostics {{{}}}", diag.join(","));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

/// A finite number as JSON (non-finite values cannot occur in a correct
/// run; they print as 0 so the line stays parseable).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn build_weights(keep_reference: bool) -> Result<Arc<ModelWeights>, String> {
    ModelBuilder::scaled(&profile(), HIDDEN, LAYERS)
        .kv_page_tokens(PAGE_TOKENS)
        .keep_reference(keep_reference)
        .build_weights()
        .map(Arc::new)
        .map_err(|e| format!("building the model: {e}"))
}

/// A running server, plus the gateway in front of it for `chat`.
struct Stack {
    server: Arc<Server>,
    gateway: Option<Gateway>,
}

impl Stack {
    fn start(weights: &Arc<ModelWeights>, gateway: bool, telemetry: bool) -> Result<Stack, String> {
        let cfg = ServeConfig {
            max_batch: 8,
            worker_threads: 0,
            telemetry,
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::start(Arc::clone(weights), cfg));
        let gateway = if gateway {
            Some(
                Gateway::bind(Arc::clone(&server), GatewayConfig::default())
                    .map_err(|e| format!("binding the gateway: {e}"))?,
            )
        } else {
            None
        };
        Ok(Stack { server, gateway })
    }

    fn addr(&self) -> Result<SocketAddr, String> {
        self.gateway
            .as_ref()
            .map(Gateway::local_addr)
            .ok_or_else(|| "no gateway".into())
    }

    /// Stops the gateway, drains the server and joins every thread.
    fn shutdown(mut self) -> Result<(), String> {
        if let Some(mut g) = self.gateway.take() {
            g.shutdown();
        }
        let mut server = Arc::try_unwrap(self.server)
            .map_err(|_| "server still shared at shutdown".to_string())?;
        server.shutdown();
        Ok(())
    }
}

/// After a server shut down: no session or page may be left behind.
fn leak_check(weights: &ModelWeights, tally: &mut Tally, label: &str) {
    let (open, pages) = (
        weights.open_sessions(),
        weights.kv_pool().stats().pages_in_use,
    );
    if open != 0 || pages != 0 {
        tally.fail(
            1,
            format!("{label}: {open} sessions and {pages} pages leaked"),
        );
    }
}

/// The chat pool's oracles, their expected frames and the rendered
/// request bodies.
struct Chat {
    bodies: Vec<Vec<u8>>,
    oracles: Vec<Matrix>,
    frames: Vec<Vec<Vec<u8>>>,
}

impl Chat {
    fn inputs(&self) -> ChatInputs<'_> {
        ChatInputs {
            bodies: &self.bodies,
            frames: &self.frames,
        }
    }
}

/// How a pass reaches the server.
#[derive(Clone, Copy, PartialEq)]
enum Surface {
    Gateway,
    InProcess(usize),
}

/// One closed-loop pass over the request list and the server-side
/// counters around it.
struct Pass {
    driven: Driven,
    stats0: ServeStats,
    stats1: ServeStats,
    pool0: PoolStats,
    pool1: PoolStats,
    steal: f64,
    peak_rss_mb: f64,
    /// Peak decoded and packed KV bytes, sampled at every completion.
    kv_peaks: (u64, u64),
    queue_wait_ms: f64,
}

impl Pass {
    fn tok_per_s(&self) -> f64 {
        self.driven.tokens as f64 / self.driven.window_s
    }

    fn cpu_ms_per_tok(&self) -> f64 {
        self.driven.stack_cpu_s() * 1e3 / self.driven.tokens.max(1) as f64
    }
}

fn sample_kv(peaks: &mut (u64, u64), s: &ServeStats) {
    peaks.0 = peaks.0.max(s.kv_decoded_bytes);
    peaks.1 = peaks.1.max(s.kv_packed_bytes);
}

/// Sends the warm-up request through `surface`, alone.
fn warm_up(
    stack: &Stack,
    plan: &Plan,
    chat: Option<&Chat>,
    surface: Surface,
) -> Result<Driven, String> {
    let one = std::slice::from_ref(&plan.warmup);
    Ok(match (surface, chat) {
        (Surface::Gateway, Some(c)) => {
            drive_gateway(stack.addr()?, one, &c.inputs(), 1, None, &|| {})
        }
        _ => drive_in_process(
            &stack.server,
            one,
            1,
            &mut Recorder::new(None, 0),
            &mut |_| {},
        ),
    })
}

/// Runs the measured request list through `surface`. With `trace`, the
/// benchmark's spans and the server's rings land in it.
fn run_pass(
    stack: &Stack,
    weights: &ModelWeights,
    plan: &Plan,
    chat: Option<&Chat>,
    surface: Surface,
    trace: Option<&mut PassTrace>,
) -> Result<Pass, String> {
    let server = &stack.server;
    let clock = trace.is_some().then(|| Arc::clone(server.telemetry()));
    let sink = trace.map(Mutex::new);
    let drain = |force: bool| {
        if let Some(t) = &sink {
            if force || server.telemetry().buffered() > DRAIN_AT {
                t.lock()
                    .expect("trace sink poisoned")
                    .absorb(server.telemetry());
            }
        }
    };
    let stats0 = server.stats();
    let pool0 = weights.kv_pool().stats();
    // `peak_rss_mb` is the window's own peak, not the set-up's or the
    // oracles'.
    host::reset_peak_rss()?;
    let ticks = CpuTicks::now()?;
    let kv_peaks = Mutex::new((0u64, 0u64));
    let mut driven = match (surface, chat) {
        (Surface::Gateway, Some(c)) => drive_gateway(
            stack.addr()?,
            &plan.requests,
            &c.inputs(),
            2,
            clock,
            &|| {
                sample_kv(
                    &mut kv_peaks.lock().expect("kv sample poisoned"),
                    &server.stats(),
                );
                drain(false);
            },
        ),
        (Surface::InProcess(cap), _) => {
            let mut rec = Recorder::new(clock, 0);
            let mut d =
                drive_in_process(server, &plan.requests, cap, &mut rec, &mut |s: &Server| {
                    sample_kv(
                        &mut kv_peaks.lock().expect("kv sample poisoned"),
                        &s.stats(),
                    );
                    drain(false);
                });
            d.spans.extend(rec.into_spans());
            d
        }
        (Surface::Gateway, None) => return Err("chat inputs missing".into()),
    };
    let steal = CpuTicks::now()?.steal_share_since(&ticks);
    let peak_rss_mb = host::peak_rss_mb()?;
    let stats1 = server.stats();
    let pool1 = weights.kv_pool().stats();
    let queue_wait_ms = server.telemetry_snapshot().queue_wait_us.quantile(0.5) as f64 / 1e3;
    drain(true);
    if let Some(t) = sink {
        t.into_inner()
            .expect("trace sink poisoned")
            .spans
            .append(&mut driven.spans);
    }
    Ok(Pass {
        driven,
        stats0,
        stats1,
        pool0,
        pool1,
        steal,
        peak_rss_mb,
        kv_peaks: kv_peaks.into_inner().expect("kv sample poisoned"),
        queue_wait_ms,
    })
}

/// The mechanism guards: no prefix reuse on `chat`, all four shared pages
/// adopted by every measured `prefix` request, batch ≤ 2 on `chat` and 8
/// on `prefix`. A broken guard fails every request of the pass.
fn guards(plan: &Plan, pass: &Pass, tally: &mut Tally, label: &str) {
    let n = plan.requests.len() as u64;
    let hits = pass.pool1.prefix_hits - pass.pool0.prefix_hits;
    let want = match plan.workload {
        Workload::Chat => 0,
        Workload::Prefix => n * (PREFIX_ROWS / PAGE_TOKENS) as u64,
    };
    if hits != want {
        tally.fail(
            pass.driven.attempted,
            format!("{label}: {hits} prefix pages adopted, {want} expected"),
        );
    }
    let peak = pass.stats1.peak_batch;
    let ok = match plan.workload {
        Workload::Chat => peak <= 2,
        Workload::Prefix => peak == 8,
    };
    if !ok {
        tally.fail(pass.driven.attempted, format!("{label}: peak batch {peak}"));
    }
}

/// One accounted pass on fresh weights (so the page pool starts empty)
/// and a fresh server, plus the gateway for `chat`: the warm-up request
/// alone, the measured list through `surface`, shutdown, then the guards
/// and the leak check. Tracing is on exactly when `trace` is given.
/// Returns the pass and the warm-up.
fn measured_pass(
    plan: &Plan,
    chat: Option<&Chat>,
    surface: Surface,
    trace: Option<&mut PassTrace>,
    label: &str,
    tally: &mut Tally,
) -> Result<(Pass, Driven), String> {
    let weights = build_weights(false)?;
    let stack = Stack::start(&weights, surface == Surface::Gateway, trace.is_some())?;
    let warm = warm_up(&stack, plan, chat, surface)?;
    tally.add("warm-up", &warm);
    let pass = run_pass(&stack, &weights, plan, chat, surface, trace)?;
    stack.shutdown()?;
    tally.add(label, &pass.driven);
    guards(plan, &pass, tally, label);
    leak_check(&weights, tally, label);
    Ok((pass, warm))
}

/// Expected decode-row hash of each measured request and of the warm-up
/// request.
struct Expected {
    requests: Vec<Option<u64>>,
    warmup: Option<u64>,
}

fn expected_hashes(
    weights: &Arc<ModelWeights>,
    plan: &Plan,
    chat: Option<&Chat>,
) -> Result<Expected, String> {
    let prefix_rows =
        |m: &Matrix, n: usize| Matrix::from_vec(n, m.cols(), m.as_slice()[..n * m.cols()].to_vec());
    if let Some(c) = chat {
        let of = |r: &Request| {
            r.pool
                .map(|p| check::hash_rows(&prefix_rows(&c.oracles[p], r.decode)))
        };
        return Ok(Expected {
            requests: plan.requests.iter().map(of).collect(),
            warmup: of(&plan.warmup),
        });
    }
    let items: Vec<check::Item> = plan
        .requests
        .iter()
        .chain(std::iter::once(&plan.warmup))
        .map(|r| (Arc::new(r.prompt()), r.decode))
        .collect();
    let mut hashes: Vec<Option<u64>> = check::solo_outputs(weights, &items)?
        .iter()
        .map(|m| Some(check::hash_rows(m)))
        .collect();
    let warmup = hashes.pop().flatten();
    Ok(Expected {
        requests: hashes,
        warmup,
    })
}

/// Compares stream hashes with the oracles.
fn verify(label: &str, hashes: &[u64], expected: &[Option<u64>], tally: &mut Tally) {
    let bad = hashes
        .iter()
        .zip(expected)
        .filter(|(h, e)| e.is_some_and(|e| **h != check::EMPTY_HASH && e != **h))
        .count();
    if bad > 0 {
        tally.fail(bad, format!("{label}: {bad} requests differ from run_solo"));
    }
}

/// The quality metric: NRMSE of the sampled requests against the f32
/// reference forward. Also checks the sampled traces against the oracles.
fn quality(
    weights: &Arc<ModelWeights>,
    plan: &Plan,
    chat: Option<&Chat>,
    expected: &Expected,
    tally: &mut Tally,
) -> Result<f64, String> {
    let (items, want): (Vec<check::Item>, Vec<Option<u64>>) = match chat {
        Some(c) => plan
            .pool
            .iter()
            .zip(&c.oracles)
            .map(|(p, o)| ((Arc::clone(p), CHAT_MAX_DECODE), Some(check::hash_rows(o))))
            .unzip(),
        None => plan
            .quality_sample
            .iter()
            .map(|&i| {
                (
                    (Arc::new(plan.requests[i].prompt()), plan.requests[i].decode),
                    expected.requests[i],
                )
            })
            .unzip(),
    };
    let traces = check::solo_traces(weights, &items)?;
    let bad = traces
        .iter()
        .zip(&want)
        .filter(|(t, w)| w.is_some_and(|w| w != t.decode_hash))
        .count();
    if bad > 0 {
        tally.fail(
            bad,
            format!("engine step: {bad} solo traces differ from run_solo"),
        );
    }
    let reference = build_weights(true)?;
    check::quality(&reference, &traces)
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let plan = Plan::build(w, args.seed, w.request_count(args.seconds));
    let surface = match w {
        Workload::Chat => Surface::Gateway,
        Workload::Prefix => Surface::InProcess(w.outstanding()),
    };
    let chat = if w == Workload::Chat {
        let weights = build_weights(false)?;
        let items: Vec<check::Item> = plan
            .pool
            .iter()
            .map(|p| (Arc::clone(p), CHAT_MAX_DECODE))
            .collect();
        let oracles = check::solo_outputs(&weights, &items)?;
        Some(Chat {
            bodies: plan.pool.iter().map(|p| body_prefix(p)).collect(),
            frames: oracles.iter().map(expected_frames).collect(),
            oracles,
        })
    } else {
        None
    };
    let chat = chat.as_ref();
    let mut tally = Tally::default();
    // Everything timed runs on one CPU; the inputs above and the oracles
    // after the window use every CPU. On a small shared VM, steps that
    // fan out to a second vCPU wait on the hypervisor, and their times
    // followed the host's steal (see the README's Host noise section).
    let all = CpuSet::current()?;
    let (cpu, one) = all.first()?;
    one.apply()?;
    let mut report = if args.trace {
        traced(args, &plan, chat, surface, &all, &mut tally)
    } else {
        untraced(&plan, chat, surface, &all, &mut tally)
    }?;
    report.diagnostics.push(("pinned_cpu".into(), cpu as f64));
    Ok(report)
}

/// `--trace 0`: set-up timing and the end-to-end metrics.
fn untraced(
    plan: &Plan,
    chat: Option<&Chat>,
    surface: Surface,
    all_cpus: &CpuSet,
    tally: &mut Tally,
) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let weights = build_weights(false)?;
        let stack = Stack::start(&weights, surface == Surface::Gateway, false)?;
        let warm = warm_up(&stack, plan, chat, surface)?;
        setup_s.push(t.elapsed().as_secs_f64());
        tally.add("set-up", &warm);
        stack.shutdown()?;
        leak_check(&weights, tally, "set-up");
    }
    let (pass, warm) = measured_pass(plan, chat, surface, None, "run", tally)?;

    // Verification runs after the window (and after `peak_rss_mb` was
    // read inside `run_pass`), on a model built the same way.
    all_cpus.apply()?;
    let weights = build_weights(false)?;
    let expected = expected_hashes(&weights, plan, chat)?;
    if chat.is_none() {
        verify("run", &pass.driven.hashes, &expected.requests, tally);
        verify("warm-up", &warm.hashes, &[expected.warmup], tally);
    }
    let nrmse = quality(&weights, plan, chat, &expected, tally)?;

    let d = &pass.driven;
    let metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("ttft_p50_ms", percentile(&d.ttft_ms, 0.5)?, "ms"),
        ("ttft_p90_ms", percentile(&d.ttft_ms, 0.9)?, "ms"),
        ("itl_p50_ms", percentile(&d.itl_ms, 0.5)?, "ms"),
        ("itl_p90_ms", percentile(&d.itl_ms, 0.9)?, "ms"),
        ("tok_per_s", pass.tok_per_s(), "tok/s"),
        ("cpu_ms_per_tok", pass.cpu_ms_per_tok(), "ms/tok"),
        ("peak_rss_mb", pass.peak_rss_mb, "MiB"),
        ("nrmse", nrmse, "ratio"),
    ];
    let diagnostics = vec![
        ("requests", plan.requests.len() as f64),
        ("tokens", d.tokens as f64),
        ("window_s", d.window_s),
        ("steal_share", pass.steal),
        // Not a metric: on a shared host it follows the steal share (see
        // the README's Host noise section).
        ("itl_p99_ms", percentile(&d.itl_ms, 0.99)?),
        // Engine ticks in the window: the same in every run of a
        // workload, whatever the seed, when the batch schedule is fixed.
        ("steps", (pass.stats1.steps - pass.stats0.steps) as f64),
        ("loadgen_cpu_s", d.loadgen_cpu_s),
        ("stack_cpu_s", d.stack_cpu_s()),
    ];
    Ok(tally.report(
        metrics,
        diagnostics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    ))
}

/// `--trace 1`: the layered replay and the per-layer metrics.
fn traced(
    args: &Args,
    plan: &Plan,
    chat: Option<&Chat>,
    surface: Surface,
    all_cpus: &CpuSet,
    tally: &mut Tally,
) -> Result<Report, String> {
    let w = plan.workload;
    let mut traces: Vec<PassTrace> = Vec::new();
    let mut diagnostics = Vec::new();

    // Untraced and traced runs of the workload's own surface, for the
    // tracing overhead.
    let (plain, _) = measured_pass(plan, chat, surface, None, "untraced", tally)?;
    let mut top = PassTrace::named("traced run");
    let (traced_pass, _) = measured_pass(plan, chat, surface, Some(&mut top), "traced", tally)?;
    traces.push(top);

    // The in-process rung: for chat, the same list without the gateway at
    // two outstanding requests; otherwise the traced pass itself.
    let serve_pass = match surface {
        Surface::Gateway => {
            let mut t = PassTrace::named("in-process run");
            let cap = Surface::InProcess(w.outstanding());
            let (p, _) = measured_pass(plan, None, cap, Some(&mut t), "in-process", tally)?;
            traces.push(t);
            Some(p)
        }
        Surface::InProcess(_) => None,
    };
    let inproc = serve_pass.as_ref().unwrap_or(&traced_pass);

    // The engine rung, on a fresh pool.
    let weights = build_weights(false)?;
    let mut rec = Recorder::new(Some(Arc::new(Telemetry::new(true))), 0);
    let engine = replay::replay_engine(
        &weights,
        &plan.warmup,
        &plan.requests,
        w.outstanding(),
        &mut rec,
    )?;
    tally.attempted += plan.requests.len();
    leak_check(&weights, tally, "engine replay");
    let want_adopted = if w == Workload::Prefix {
        plan.requests.len() * PREFIX_ROWS
    } else {
        0
    };
    if engine.adopted_tokens != want_adopted {
        tally.fail(
            plan.requests.len(),
            format!(
                "engine replay: {} prefix tokens adopted, {want_adopted} expected",
                engine.adopted_tokens
            ),
        );
    }

    // The kernel rung, at the shapes the engine ran.
    let mut prefilled = engine.prefilled_rows.clone();
    prefilled.sort_unstable();
    let gemm_rows = prefilled[prefilled.len() / 2];
    let kernels = replay::replay_kernels(&weights, &engine.steps, gemm_rows, &mut rec)?;
    traces.push(PassTrace {
        spans: rec.into_spans(),
        ..PassTrace::named("engine and kernel replay")
    });

    // Every pass is checked against the oracles.
    all_cpus.apply()?;
    let expected = expected_hashes(&weights, plan, chat)?;
    verify("engine replay", &engine.hashes, &expected.requests, tally);
    let mut checked = vec![("untraced", &plain), ("traced", &traced_pass)];
    checked.extend(serve_pass.as_ref().map(|p| ("in-process", p)));
    for (label, p) in checked {
        verify(label, &p.driven.hashes, &expected.requests, tally);
    }

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    std::fs::write(&path, chrome_trace(&traces))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());

    let p50 = |xs: &[f64]| percentile(xs, 0.5);
    let gw = surface == Surface::Gateway;
    let tp = &traced_pass.driven;
    let ip = &inproc.driven;
    let (gw_ttft, gw_itl, gw_bytes, gw_kb) = if gw {
        (
            p50(&tp.ttft_ms)? - p50(&ip.ttft_ms)?,
            p50(&tp.itl_ms)? - p50(&ip.itl_ms)?,
            tp.resp_bytes as f64 / tp.tokens.max(1) as f64,
            tp.req_body_bytes as f64 / 1024.0 / tp.attempted.max(1) as f64,
        )
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    let steps = (inproc.stats1.steps - inproc.stats0.steps).max(1) as f64;
    let decoded = (inproc.stats1.decoded_tokens - inproc.stats0.decoded_tokens) as f64;
    let (pool0, pool1) = (&inproc.pool0, &inproc.pool1);
    let engine_macs = engine.macs() as f64;
    let metrics = vec![
        ("gateway.self_ttft_ms", gw_ttft, "ms"),
        ("gateway.self_itl_ms", gw_itl, "ms"),
        ("gateway.resp_bytes_per_tok", gw_bytes, "B/tok"),
        ("gateway.req_kb", gw_kb, "KiB"),
        ("serve.submit_us", p50(&ip.submit_us)?, "us"),
        ("serve.queue_wait_ms", inproc.queue_wait_ms, "ms"),
        (
            "serve.self_ttft_ms",
            p50(&ip.ttft_ms)? - p50(&engine.ttft_ms)?,
            "ms",
        ),
        (
            "serve.self_itl_ms",
            p50(&ip.itl_ms)? - p50(&engine.itl_ms)?,
            "ms",
        ),
        ("serve.tokens_per_tick", decoded / steps, "tok/tick"),
        ("serve.peak_batch", inproc.stats1.peak_batch as f64, "count"),
        ("nn.prefill_us_per_row", engine.prefill_us_per_row(), "us"),
        ("nn.decode_step_p50_us", engine.decode_step_us(0.5)?, "us"),
        ("nn.decode_step_p99_us", engine.decode_step_us(0.99)?, "us"),
        ("nn.proj_share", kernels.proj_share, "ratio"),
        (
            "nn.macs_per_tok",
            engine_macs / engine.tokens.max(1) as f64,
            "MAC/tok",
        ),
        (
            "nn.gmac_per_s",
            engine_macs / engine.step_s() / 1e9,
            "GMAC/s",
        ),
        (
            "kv_pool.prefix_token_share",
            ((pool1.prefix_hits - pool0.prefix_hits) as usize * PAGE_TOKENS) as f64
                / plan.prompt_tokens() as f64,
            "ratio",
        ),
        (
            "kv_pool.page_allocs",
            (pool1.page_allocs - pool0.page_allocs) as f64,
            "count",
        ),
        (
            "kv_pool.page_reuses",
            (pool1.page_reuses - pool0.page_reuses) as f64,
            "count",
        ),
        (
            "kv_pool.cow_clones",
            (pool1.cow_clones - pool0.cow_clones) as f64,
            "count",
        ),
        ("kv_pool.peak_pages", pool1.peak_pages as f64, "count"),
        (
            "kv_pool.retained_pages",
            pool1.retained_pages as f64,
            "count",
        ),
        (
            "kv_pool.decoded_to_packed",
            inproc.kv_peaks.0 as f64 / inproc.kv_peaks.1.max(1) as f64,
            "ratio",
        ),
        ("core.gemv_gmac_per_s", kernels.gemv_gmac_per_s, "GMAC/s"),
        ("core.gemm_gmac_per_s", kernels.gemm_gmac_per_s, "GMAC/s"),
        (
            "core.act_encode_melem_per_s",
            kernels.act_encode_melem_per_s,
            "Melem/s",
        ),
        ("core.weight_quant_s", kernels.weight_quant_s, "s"),
        (
            "telemetry.overhead_ratio",
            traced_pass.tok_per_s() / plain.tok_per_s(),
            "ratio",
        ),
        // Wall-clock rates of two passes move with the host's steal (see
        // the passes' `steal_share` diagnostics); CPU per token does not.
        (
            "telemetry.cpu_overhead_ratio",
            traced_pass.cpu_ms_per_tok() / plain.cpu_ms_per_tok(),
            "ratio",
        ),
    ];
    for (label, p) in [
        ("untraced", &plain),
        ("traced", &traced_pass),
        ("in_process", inproc),
    ] {
        diagnostics.push((format!("{label}.tok_per_s"), p.tok_per_s()));
        diagnostics.push((format!("{label}.cpu_ms_per_tok"), p.cpu_ms_per_tok()));
        diagnostics.push((format!("{label}.steal_share"), p.steal));
        diagnostics.push((format!("{label}.loadgen_cpu_s"), p.driven.loadgen_cpu_s));
    }
    diagnostics.push(("engine.gemm_rows".into(), gemm_rows as f64));
    diagnostics.push(("engine.steps".into(), engine.steps.len() as f64));
    Ok(tally.report(metrics, diagnostics))
}
