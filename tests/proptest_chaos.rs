//! Chaos property tests on the `m2x-serve` fault-tolerance layer: under a
//! seeded [`FaultPlan`] of step panics and mid-flight cancels — mixed
//! with per-request deadlines and arbitrary arrival interleavings — the
//! server must degrade *per request*, never as a whole:
//!
//! * every submitted id resolves to exactly one typed [`RequestOutcome`]
//!   (no hangs, no engine death);
//! * every injected step panic fails **exactly one** request (pinned by
//!   the engine's caught-panic accounting: one batched attempt + one
//!   isolated replay per fired fault);
//! * every *surviving* request's token stream is **bit-identical** to its
//!   solo run — panic recovery replays through the same kernels, so even
//!   requests whose sessions were rewound mid-flight must not drift;
//! * every delivered token is counted once: a resolved request's decoded
//!   tokens equal its token instants in the trace, and the server's
//!   `decoded_tokens` equals them all;
//! * the server quiesces with **zero leaked sessions** (all KV memory
//!   released), which `ModelWeights::open_sessions` meters.

use m2xfp_repro::nn::model::{ModelBuilder, ModelWeights};
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::nn::synth::activation_matrix;
use m2xfp_repro::serve::{
    run_solo, FaultPlan, RequestOptions, RequestOutcome, ServeConfig, Server, Ticker,
};
use m2xfp_repro::telemetry::stage;
use m2xfp_repro::tensor::Matrix;
use m2xfp_repro::testkit::cases;
use std::sync::Arc;
use std::time::Duration;

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

fn prompt(tokens: usize, seed: usize, hidden: usize) -> Matrix {
    activation_matrix(&ModelProfile::llama3_8b(), seed, tokens, hidden).map(|v| (v * 0.25).tanh())
}

/// Ticks at a frozen virtual instant until nothing is queued or in
/// flight.
fn drain(ticker: &mut Ticker) {
    while ticker.tick(Duration::ZERO) {}
}

fn tiny_weights(layers: usize) -> Arc<ModelWeights> {
    Arc::new(
        ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, layers)
            .build_weights()
            .unwrap(),
    )
}

/// The headline chaos property (see module docs): typed outcomes, exact
/// fault attribution, bit-identical survivors, tokens counted once, zero
/// leaks, engine alive.
#[test]
fn chaos_plan_degrades_per_request_and_leaks_nothing() {
    cases(5, |g| {
        let weights = tiny_weights(1 + g.below(2));
        let max_batch = 2 + g.below(3);
        let n_requests = 3 + g.below(4);
        let reqs: Vec<(Matrix, usize)> = (0..n_requests)
            .map(|i| (prompt(1 + g.below(4), g.case * 97 + i, 64), 6 + g.below(6)))
            .collect();
        let solo: Vec<Matrix> = reqs
            .iter()
            .map(|(p, d)| run_solo(&weights, p, *d).unwrap())
            .collect();
        let plan = FaultPlan::seeded(
            g.u32() as u64,
            10,        // horizon: inside the ~n*(1+decode)/batch tick span
            max_batch, // slots
            1,         // step panics
            1 + g.below(2),
        );
        let planned_faults = plan.len();
        let server = Server::start_with_faults(
            Arc::clone(&weights),
            ServeConfig {
                max_batch,
                worker_threads: 1 + g.below(2),
                ..ServeConfig::default()
            },
            plan,
        );

        // Arbitrary interleaving: one mid-burst request carries a step
        // deadline that may or may not fire depending on queue depth.
        let deadline_victim = g.below(n_requests);
        let ids: Vec<u64> = reqs
            .iter()
            .enumerate()
            .map(|(i, (p, d))| {
                let opts = if i == deadline_victim {
                    RequestOptions {
                        deadline_steps: Some(3 + g.below(4) as u64),
                        ..RequestOptions::default()
                    }
                } else {
                    RequestOptions::default()
                };
                server.submit_with(p.clone(), *d, opts).unwrap()
            })
            .collect();

        let (mut finished, mut failed, mut disrupted) = (0u64, 0u64, 0u64);
        // `(id, decoded tokens)` of every outcome that is not `Failed`.
        let mut decoded = Vec::new();
        let mut finished_ids = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            // Every id resolves to a typed outcome — wait never errors,
            // never hangs (the engine survived whatever the plan threw).
            match server.wait(*id).unwrap() {
                RequestOutcome::Finished(c) => {
                    assert_eq!(c.id, *id);
                    assert_bits_eq(
                        &c.decoded,
                        &solo[i],
                        &format!("case {}: survivor {i}", g.case),
                    );
                    finished += 1;
                    decoded.push((*id, c.decoded.rows() as u64));
                    finished_ids.push(*id);
                }
                RequestOutcome::Failed { error } => {
                    assert!(
                        error.contains("injected fault"),
                        "case {}: only injected faults can fail requests: {error}",
                        g.case
                    );
                    failed += 1;
                }
                RequestOutcome::Cancelled { decoded_tokens }
                | RequestOutcome::DeadlineExceeded { decoded_tokens } => {
                    disrupted += 1;
                    decoded.push((*id, decoded_tokens));
                }
                RequestOutcome::Rejected { .. } => {
                    panic!("case {}: unbounded queue cannot shed", g.case)
                }
            }
        }
        assert_eq!(finished + failed + disrupted, n_requests as u64);

        let stats = server.stats();
        assert_eq!(stats.failed, failed);
        // Exact attribution: each fired step panic is caught exactly twice
        // (batched attempt + isolated replay of its victim) and fails
        // exactly one request.
        assert_eq!(
            stats.panics_recovered,
            2 * failed,
            "case {}: fired panics must map 1:1 to failed requests",
            g.case
        );
        assert_eq!(stats.recovery_ticks, failed);
        assert!(
            stats.cancelled + stats.deadline_exceeded == disrupted,
            "case {}: disruptions must be typed",
            g.case
        );
        // Every delivered token has one REQ_TOKEN instant, also across a
        // recovery replay that rewound the request after delivering it.
        let rings = server.telemetry().drain();
        assert!(rings.iter().all(|r| r.dropped == 0), "case {}", g.case);
        let reqs_of = |s: u16| -> Vec<u32> {
            rings
                .iter()
                .flat_map(|r| &r.events)
                .filter(|e| e.stage == s)
                .map(|e| e.req)
                .collect()
        };
        let token_reqs = reqs_of(stage::REQ_TOKEN);
        // One prefill instant per request, also across a replay that
        // re-ran the prefill: every finished request has exactly one, and
        // no request has two.
        let prefill_reqs = reqs_of(stage::REQ_PREFILL);
        for id in &ids {
            let traced = prefill_reqs.iter().filter(|&&r| r == *id as u32).count();
            assert!(traced <= 1, "case {}: request {id} traced twice", g.case);
            if finished_ids.contains(id) {
                assert_eq!(traced, 1, "case {}: request {id}", g.case);
            }
        }
        for (id, n) in decoded {
            let traced = token_reqs.iter().filter(|&&r| r == id as u32).count();
            assert_eq!(n, traced as u64, "case {}: request {id}", g.case);
        }
        assert_eq!(
            stats.decoded_tokens,
            token_reqs.len() as u64,
            "case {}: decoded_tokens counts every delivered token once",
            g.case
        );

        // The engine keeps scheduling afterwards. Not every planned fault
        // has necessarily fired yet (ticks only advance under load), so a
        // probe may still absorb one — but each remaining harmful fault
        // kills at most one probe, so within planned_faults + 1 attempts
        // one must run clean, and every casualty stays typed.
        let mut probe_ok = false;
        for attempt in 0..=planned_faults {
            let probe = prompt(2, g.case * 97 + 1000 + attempt, 64);
            let probe_id = server.submit(probe.clone(), 3).unwrap();
            match server.wait(probe_id).unwrap() {
                RequestOutcome::Finished(c) => {
                    assert_bits_eq(
                        &c.decoded,
                        &run_solo(&weights, &probe, 3).unwrap(),
                        &format!("case {}: post-chaos probe", g.case),
                    );
                    probe_ok = true;
                    break;
                }
                RequestOutcome::Failed { error } => {
                    assert!(error.contains("injected fault"), "{error}")
                }
                RequestOutcome::Cancelled { .. } => {}
                other => panic!("case {}: probe outcome {}", g.case, other.kind()),
            }
        }
        assert!(
            probe_ok,
            "case {}: engine must keep serving once the plan is exhausted",
            g.case
        );

        // Quiescence: dropping the server (graceful drain) leaves zero
        // live sessions — no leaked KV pages anywhere.
        drop(server);
        assert_eq!(
            weights.open_sessions(),
            0,
            "case {}: leaked sessions",
            g.case
        );
    });
}

/// Join/leave/cancel churn over many ticks leaves the weights' session
/// accounting at zero *while the server is still live*, and the
/// reclaimed capacity re-admits a full `max_batch` afterwards — the
/// KV-reclaim path never strands a slot. Runs on a ticked server, so
/// which requests are in flight when the cancels land is part of the
/// case, not a race.
#[test]
fn churn_returns_session_accounting_to_zero_and_readmits_full_batch() {
    cases(4, |g| {
        let weights = tiny_weights(1);
        let max_batch = 2 + g.below(3);
        let (server, mut ticker) = Server::ticked(
            Arc::clone(&weights),
            ServeConfig {
                max_batch,
                ..ServeConfig::default()
            },
            FaultPlan::none(),
        );
        for wave in 0..3 {
            let n = 2 + g.below(4);
            let mut kill_list = Vec::new();
            let mut keep_list = Vec::new();
            for i in 0..n {
                let p = prompt(1 + g.below(3), g.case * 131 + wave * 17 + i, 64);
                match g.below(3) {
                    // Long request we cancel, in flight or still queued.
                    0 => kill_list.push(server.submit(p, 10_000).unwrap()),
                    // Doomed: expires before it can ever be stepped.
                    1 => keep_list.push(
                        server
                            .submit_with(
                                p,
                                4,
                                RequestOptions {
                                    deadline_steps: Some(0),
                                    ..RequestOptions::default()
                                },
                            )
                            .unwrap(),
                    ),
                    // Normal request that runs to completion.
                    _ => keep_list.push(server.submit(p, 1 + g.below(4)).unwrap()),
                }
            }
            for _ in 0..g.below(3) {
                ticker.tick(Duration::ZERO);
            }
            for id in &kill_list {
                server.cancel(*id).unwrap();
            }
            drain(&mut ticker);
            for id in kill_list.into_iter().chain(keep_list) {
                server.wait(id).unwrap(); // every outcome typed
            }
            // All waves' sessions are released as soon as their outcomes
            // resolve — no shutdown needed to get the memory back.
            assert_eq!(
                weights.open_sessions(),
                0,
                "case {} wave {wave}: sessions leaked mid-life",
                g.case
            );
        }

        // Post-churn, the whole admission window opens again: one tick
        // admits `max_batch` long requests (a session each).
        let holds: Vec<u64> = (0..max_batch)
            .map(|i| {
                let p = prompt(2, g.case * 131 + 8000 + i, 64);
                server.submit(p, 10_000).unwrap()
            })
            .collect();
        ticker.tick(Duration::ZERO);
        assert_eq!(
            weights.open_sessions(),
            max_batch,
            "case {}: churn stranded admission slots",
            g.case
        );
        assert_eq!(server.stats().peak_batch, max_batch, "case {}", g.case);
        for id in &holds {
            server.cancel(*id).unwrap();
        }
        drain(&mut ticker);
        for id in holds {
            let outcome = server.wait(id).unwrap();
            assert!(
                matches!(outcome, RequestOutcome::Cancelled { .. }),
                "case {}: held request must resolve Cancelled, got {outcome:?}",
                g.case
            );
        }

        // A fresh burst after the churn stays bit-identical to solo runs.
        let reqs: Vec<(Matrix, usize)> = (0..max_batch)
            .map(|i| (prompt(2, g.case * 131 + 9000 + i, 64), 12))
            .collect();
        let ids: Vec<u64> = reqs
            .iter()
            .map(|(p, d)| server.submit(p.clone(), *d).unwrap())
            .collect();
        drain(&mut ticker);
        for (i, id) in ids.iter().enumerate() {
            let c = server
                .wait(*id)
                .unwrap()
                .finished()
                .expect("post-churn burst must finish");
            assert_bits_eq(
                &c.decoded,
                &run_solo(&weights, &reqs[i].0, reqs[i].1).unwrap(),
                &format!("case {}: post-churn request {i}", g.case),
            );
        }
        assert_eq!(weights.open_sessions(), 0, "case {}: leak", g.case);
    });
}
