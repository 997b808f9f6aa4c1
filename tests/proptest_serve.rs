//! Property-based tests on the `m2x-serve` continuous-batching runtime:
//! for any mix of request shapes, arrival interleavings, admission-window
//! sizes and worker-thread counts, every scheduled
//! request's token stream is **bit-identical** to running that request
//! alone on a fresh session — the scheduler only changes *when* work runs,
//! never *what* it computes. Random tick schedules on a virtual clock
//! (`Server::ticked`) add cancels, step and wall deadlines, queue
//! shedding and injected faults at chosen ticks.

use m2xfp_repro::core::M2xfpConfig;
use m2xfp_repro::nn::model::{ModelBuilder, ModelWeights, QuantizedModel};
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::nn::synth::activation_matrix;
use m2xfp_repro::serve::{
    run_solo, Completed, Fault, FaultPlan, RequestOptions, RequestOutcome, ServeConfig, ServeError,
    Server,
};
use m2xfp_repro::tensor::Matrix;
use m2xfp_repro::testkit::{cases, Gen};
use std::sync::Arc;
use std::time::Duration;

fn wait_finished(server: &Server, id: u64) -> Completed {
    server
        .wait(id)
        .unwrap()
        .finished()
        .unwrap_or_else(|| panic!("request {id} did not finish"))
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

fn prompt(tokens: usize, seed: usize, hidden: usize) -> Matrix {
    activation_matrix(&ModelProfile::llama3_8b(), seed, tokens, hidden).map(|v| (v * 0.25).tanh())
}

/// Scheduled generation == solo generation, bit for bit, across request
/// mixes, admission windows and worker-thread counts.
#[test]
fn scheduled_requests_bit_identical_to_solo() {
    cases(6, |g| {
        let layers = 1 + g.below(2);
        let weights: Arc<ModelWeights> = Arc::new(
            ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, layers)
                .config(M2xfpConfig::default())
                .build_weights()
                .unwrap(),
        );
        let n_requests = 1 + g.below(5);
        let reqs: Vec<(Matrix, usize)> = (0..n_requests)
            .map(|i| (prompt(1 + g.below(5), g.case * 31 + i, 64), g.below(4)))
            .collect();
        let solo: Vec<Matrix> = reqs
            .iter()
            .map(|(p, d)| run_solo(&weights, p, *d).unwrap())
            .collect();

        let server = Server::start(
            Arc::clone(&weights),
            ServeConfig {
                max_batch: 1 + g.below(4),
                worker_threads: 1 + g.below(3),
                ..ServeConfig::default()
            },
        );
        // Interleave arrivals with completions: submit a prefix, force a
        // drain by waiting on part of it, then submit the rest. Every
        // request is verified exactly once (the early-waited one inline,
        // the rest in the final sweep).
        let split = g.below(n_requests + 1);
        let mut ids: Vec<u64> = reqs[..split]
            .iter()
            .map(|(p, d)| server.submit(p.clone(), *d).unwrap())
            .collect();
        let early_waited = ids.first().copied();
        if let Some(first) = early_waited {
            let out = wait_finished(&server, first);
            assert_bits_eq(
                &out.decoded,
                &solo[0],
                &format!("case {}: early-waited request", g.case),
            );
        }
        ids.extend(
            reqs[split..]
                .iter()
                .map(|(p, d)| server.submit(p.clone(), *d).unwrap()),
        );
        let skip = usize::from(early_waited.is_some());
        for (i, id) in ids.iter().enumerate().skip(skip) {
            let out = wait_finished(&server, *id);
            assert_eq!(out.id, *id);
            assert_bits_eq(
                &out.decoded,
                &solo[i],
                &format!("case {}: request {i}", g.case),
            );
        }
    });
}

/// The scheduler's prefill outputs match a plain single-session prefill,
/// and session bookkeeping (latency steps, decoded counts) is consistent.
#[test]
fn scheduled_prefill_matches_session_prefill() {
    let weights: Arc<ModelWeights> = Arc::new(
        ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 2)
            .build_weights()
            .unwrap(),
    );
    let p = prompt(5, 3, 64);
    let mut session = QuantizedModel::from_weights(Arc::clone(&weights));
    let want = session.prefill(&p).unwrap();

    let server = Server::start(Arc::clone(&weights), ServeConfig::default());
    let id = server.submit(p, 3).unwrap();
    let out = wait_finished(&server, id);
    assert_bits_eq(&out.prefill_out, &want, "prefill outputs");
    assert_eq!(out.decoded.rows(), 3);
    // 1 prefill step + 3 decode steps, admitted into an idle server.
    assert_eq!(out.finished_step - out.arrived_step, 4);
    let stats = server.stats();
    assert_eq!(stats.decoded_tokens, 3);
}

/// One event of a generated schedule, applied in order to a ticked
/// server.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Submit pool prompt `prompt` for `decode` steps, streamed.
    Submit {
        prompt: usize,
        decode: usize,
        deadline_steps: Option<u64>,
        deadline_ms: Option<u64>,
    },
    /// Cancel the `n % submitted`-th request submitted so far.
    Cancel(usize),
    /// Advance the virtual clock by `ms`, then run one tick.
    Tick { ms: u64 },
}

/// A generated schedule: the server's shape, its fault plan and the
/// events, drained after the last one.
#[derive(Debug, Clone)]
struct Schedule {
    max_batch: usize,
    queue_capacity: usize,
    faults: Vec<Fault>,
    events: Vec<Event>,
}

/// What a schedule produced: per submitted request its outcome and the
/// rows it streamed, plus the server's counters.
#[derive(Debug, PartialEq)]
struct Transcript {
    outcomes: Vec<(RequestOutcome, usize)>,
    counters: [u64; 10],
}

/// Prompts of the schedule test and their solo decodes at
/// [`POOL_DECODE`] steps; a request of `d ≤ POOL_DECODE` steps must
/// stream the first `d` rows.
const POOL_DECODE: usize = 4;

fn schedule(g: &mut Gen, pool: usize) -> Schedule {
    let ticks = 14 + g.below(8);
    let mut faults = Vec::new();
    for _ in 0..g.below(3) {
        let (tick, slot) = (g.below(ticks) as u64, g.below(4));
        faults.push(if g.below(2) == 0 {
            Fault::StepPanic { tick, slot }
        } else {
            Fault::CancelActive { tick, slot }
        });
    }
    let mut events = Vec::new();
    for _ in 0..ticks {
        for _ in 0..g.below(2) {
            events.push(match g.below(5) {
                0 => Event::Cancel(g.below(8)),
                pick => Event::Submit {
                    prompt: g.below(pool),
                    decode: g.below(POOL_DECODE + 1),
                    deadline_steps: (pick == 1).then(|| g.below(8) as u64),
                    deadline_ms: (pick == 2).then(|| g.below(12) as u64),
                },
            });
        }
        events.push(Event::Tick {
            ms: g.below(3) as u64,
        });
    }
    Schedule {
        max_batch: 1 + g.below(4),
        queue_capacity: [0, 1, 3][g.below(3)],
        faults,
        events,
    }
}

/// Runs `s` on a fresh ticked server over `weights`, checks every
/// request against its solo run, and returns the transcript.
fn run_schedule(
    weights: &Arc<ModelWeights>,
    pool: &[(Matrix, Matrix)],
    s: &Schedule,
    case: usize,
) -> Transcript {
    let cfg = ServeConfig {
        max_batch: s.max_batch,
        worker_threads: 1,
        queue_capacity: s.queue_capacity,
        ..ServeConfig::default()
    };
    let (server, mut ticker) =
        Server::ticked(Arc::clone(weights), cfg, FaultPlan::new(s.faults.clone()));
    let mut clock = Duration::ZERO;
    let mut reqs: Vec<(u64, usize, usize)> = Vec::new();
    for e in &s.events {
        match *e {
            Event::Submit {
                prompt,
                decode,
                deadline_steps,
                deadline_ms,
            } => {
                let opts = RequestOptions {
                    deadline_steps,
                    deadline: deadline_ms.map(Duration::from_millis),
                    stream: true,
                };
                let id = server
                    .submit_with(pool[prompt].0.clone(), decode, opts)
                    .unwrap();
                reqs.push((id, prompt, decode));
            }
            Event::Cancel(n) => {
                if !reqs.is_empty() {
                    server.cancel(reqs[n % reqs.len()].0).unwrap();
                }
            }
            Event::Tick { ms } => {
                clock += Duration::from_millis(ms);
                ticker.tick(clock);
            }
        }
    }
    while ticker.tick(clock) {
        clock += Duration::from_millis(1);
    }
    assert_eq!(weights.open_sessions(), 0, "case {case}: leaked sessions");

    let mut outcomes = Vec::new();
    for &(id, prompt, decode) in &reqs {
        let solo = &pool[prompt].1;
        let mut rows = 0;
        let outcome = server
            .wait_streaming(id, |i, row| {
                assert_eq!(i, rows, "case {case}: request {id} row order");
                assert_bits_eq(
                    row,
                    &solo.block(i, 0, 1, solo.cols()),
                    &format!("case {case}: request {id} row {i}"),
                );
                rows += 1;
            })
            .unwrap();
        assert!(rows <= decode, "case {case}: request {id} over-streamed");
        match &outcome {
            RequestOutcome::Finished(c) => {
                assert_eq!(rows, decode, "case {case}: request {id}");
                assert_bits_eq(
                    &c.decoded,
                    &solo.block(0, 0, decode, solo.cols()),
                    &format!("case {case}: finished request {id}"),
                );
            }
            RequestOutcome::Cancelled { decoded_tokens }
            | RequestOutcome::DeadlineExceeded { decoded_tokens } => {
                assert_eq!(*decoded_tokens, rows as u64, "case {case}: request {id}");
            }
            RequestOutcome::Failed { error } => {
                assert!(error.contains("injected fault"), "case {case}: {error}");
            }
            RequestOutcome::Rejected { .. } => assert_eq!(rows, 0, "case {case}"),
        }
        // Each id resolves once: its outcome is handed out once.
        assert_eq!(
            server.wait(id),
            Err(ServeError::AlreadyConsumed { id }),
            "case {case}"
        );
        outcomes.push((outcome, rows));
    }

    let st = server.stats();
    let kinds = |k: &str| outcomes.iter().filter(|(o, _)| o.kind() == k).count() as u64;
    assert_eq!(
        st.decoded_tokens,
        outcomes.iter().map(|(_, rows)| *rows as u64).sum::<u64>(),
        "case {case}: decoded_tokens counts every streamed row once"
    );
    assert_eq!(st.cancelled, kinds("cancelled"), "case {case}");
    assert_eq!(
        st.deadline_exceeded,
        kinds("deadline_exceeded"),
        "case {case}"
    );
    assert_eq!(st.rejected, kinds("rejected"), "case {case}");
    assert_eq!(st.failed, kinds("failed"), "case {case}");
    // Each fired panic is caught twice (the batched step and its victim's
    // isolated replay) and fails exactly one request.
    assert_eq!(st.panics_recovered, 2 * st.failed, "case {case}");
    assert_eq!(st.recovery_ticks, st.failed, "case {case}");
    Transcript {
        outcomes,
        counters: [
            st.steps,
            st.decoded_tokens,
            st.peak_batch as u64,
            st.rejected,
            st.cancelled,
            st.deadline_exceeded,
            st.failed,
            st.panics_recovered,
            st.recovery_ticks,
            st.peak_queue_depth as u64,
        ],
    }
}

/// Random schedules of submits, cancels, step and wall deadlines and
/// ticks at a virtual clock, under step panics and slot cancels at chosen
/// ticks: every id resolves once, every streamed row and finished stream
/// equals the solo run bit for bit, `decoded_tokens` equals the rows
/// streamed, the sessions all close, and a schedule replayed gives the
/// same outcomes and counters.
#[test]
fn random_tick_schedules_resolve_every_request_exactly() {
    let weights: Arc<ModelWeights> = Arc::new(
        ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1)
            .build_weights()
            .unwrap(),
    );
    let pool: Vec<(Matrix, Matrix)> = (0..6)
        .map(|i| {
            let p = prompt(1 + i % 3, 7_000 + i, 64);
            let solo = run_solo(&weights, &p, POOL_DECODE).unwrap();
            (p, solo)
        })
        .collect();
    cases(1_000, |g| {
        let s = schedule(g, pool.len());
        let first = run_schedule(&weights, &pool, &s, g.case);
        if g.case % 25 == 0 {
            let again = run_schedule(&weights, &pool, &s, g.case);
            assert_eq!(first, again, "case {}: replay diverged", g.case);
        }
    });
}
