//! Property-based tests on the telemetry trace: across random request
//! mixes, admission windows, bounded queues, arrival interleavings,
//! mid-flight cancellations and tight deadlines, the drained trace must
//! reconstruct **every** request's exact lifecycle — one submission
//! event, at most one admission, exactly one terminal event agreeing with
//! the typed outcome, and one token instant per decoded row. The trace is
//! a transcript of what the scheduler did, not a sample of it.

use m2xfp_repro::nn::model::{ModelBuilder, ModelWeights};
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::nn::synth::activation_matrix;
use m2xfp_repro::serve::{RequestOptions, RequestOutcome, ServeConfig, Server};
use m2xfp_repro::telemetry::{stage, DrainedRing, TraceEvent};
use m2xfp_repro::tensor::Matrix;
use m2xfp_repro::testkit::cases;
use std::sync::Arc;

fn prompt(tokens: usize, seed: usize, hidden: usize) -> Matrix {
    activation_matrix(&ModelProfile::llama3_8b(), seed, tokens, hidden).map(|v| (v * 0.25).tanh())
}

/// All lifecycle events for request `id`, in ring push order (each ring's
/// slice is its emission order; a request's events live on the engine
/// ring except the submission/rejection instants, which the api ring
/// carries).
fn lifecycle_events(rings: &[DrainedRing], id: u64) -> Vec<&TraceEvent> {
    rings
        .iter()
        .flat_map(|r| r.events.iter())
        .filter(|e| e.req == id as u32)
        .filter(|e| (stage::REQ_SUBMITTED..=stage::REQ_FAILED).contains(&e.stage))
        .collect()
}

fn count(evs: &[&TraceEvent], s: u16) -> usize {
    evs.iter().filter(|e| e.stage == s).count()
}

/// The one terminal stage a request's trace must carry, given its typed
/// outcome.
fn terminal_stage(outcome: &RequestOutcome) -> u16 {
    match outcome {
        RequestOutcome::Finished(_) => stage::REQ_FINISHED,
        RequestOutcome::Cancelled { .. } => stage::REQ_CANCELLED,
        RequestOutcome::DeadlineExceeded { .. } => stage::REQ_DEADLINE,
        RequestOutcome::Rejected { .. } => stage::REQ_REJECTED,
        RequestOutcome::Failed { .. } => stage::REQ_FAILED,
    }
}

/// Decode tokens the outcome says were produced before the request left
/// the engine — the trace must carry exactly this many token instants.
fn outcome_tokens(outcome: &RequestOutcome) -> u64 {
    match outcome {
        RequestOutcome::Finished(c) => c.decoded.rows() as u64,
        RequestOutcome::Cancelled { decoded_tokens }
        | RequestOutcome::DeadlineExceeded { decoded_tokens } => *decoded_tokens,
        RequestOutcome::Rejected { .. } | RequestOutcome::Failed { .. } => 0,
    }
}

/// Every request's exact lifecycle is reconstructible from the drained
/// trace, for any interleaving of arrivals, completions, cancellations,
/// deadline expiries and admission-control rejections.
#[test]
fn trace_reconstructs_every_lifecycle() {
    cases(8, |g| {
        let layers = 1 + g.below(2);
        let weights: Arc<ModelWeights> = Arc::new(
            ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, layers)
                .build_weights()
                .unwrap(),
        );
        let server = Server::start(
            Arc::clone(&weights),
            ServeConfig {
                max_batch: 1 + g.below(4),
                worker_threads: 1 + g.below(2),
                queue_capacity: 2 + g.below(6),
                telemetry: true,
                ..ServeConfig::default()
            },
        );

        // Random open-loop wave: enough requests that the bounded queue
        // can shed some, a random subset cancelled right after arrival,
        // an occasional too-tight step deadline, and one mid-wave wait so
        // later arrivals meet a warm, possibly busy engine.
        let n_requests = 1 + g.below(8);
        let wait_at = g.below(n_requests);
        let mut ids: Vec<u64> = Vec::new();
        let mut outcomes: Vec<Option<RequestOutcome>> = Vec::new();
        for i in 0..n_requests {
            let p = prompt(1 + g.below(4), g.case * 97 + i, 64);
            let opts = if g.below(5) == 0 {
                RequestOptions {
                    deadline_steps: Some(g.below(2) as u64),
                    ..RequestOptions::default()
                }
            } else {
                RequestOptions::default()
            };
            let id = server.submit_with(p, g.below(5), opts).unwrap();
            if g.below(4) == 0 {
                server.cancel(id).unwrap();
            }
            ids.push(id);
            outcomes.push(None);
            if i == wait_at {
                outcomes[i] = Some(server.wait(id).unwrap());
            }
        }
        for (i, id) in ids.iter().enumerate() {
            if outcomes[i].is_none() {
                outcomes[i] = Some(server.wait(*id).unwrap());
            }
        }

        // Every id is resolved, so the engine is idle and the rings hold
        // each request's complete lifecycle.
        let rings = server.telemetry().drain();
        assert_eq!(
            rings.iter().map(|r| r.dropped).sum::<u64>(),
            0,
            "case {}: ring overflow would make the transcript lossy",
            g.case
        );
        for (i, (id, outcome)) in ids.iter().zip(&outcomes).enumerate() {
            let outcome = outcome.as_ref().unwrap();
            let evs = lifecycle_events(&rings, *id);
            let ctx = format!(
                "case {} request {i} -> {}",
                g.case,
                stage::name(terminal_stage(outcome))
            );
            assert_eq!(count(&evs, stage::REQ_SUBMITTED), 1, "{ctx}: submitted");
            assert!(count(&evs, stage::REQ_ADMITTED) <= 1, "{ctx}: admitted");
            let terminals = [
                stage::REQ_FINISHED,
                stage::REQ_CANCELLED,
                stage::REQ_DEADLINE,
                stage::REQ_FAILED,
                stage::REQ_REJECTED,
            ];
            let total: usize = terminals.iter().map(|s| count(&evs, *s)).sum();
            assert_eq!(total, 1, "{ctx}: exactly one terminal event, got {evs:?}");
            assert_eq!(
                count(&evs, terminal_stage(outcome)),
                1,
                "{ctx}: trace terminal agrees with the typed outcome"
            );
            // One token instant per decoded row the outcome reports, with
            // sequential values in emission order.
            let toks: Vec<u64> = evs
                .iter()
                .filter(|e| e.stage == stage::REQ_TOKEN)
                .map(|e| e.value)
                .collect();
            assert_eq!(
                toks.len() as u64,
                outcome_tokens(outcome),
                "{ctx}: token instants"
            );
            assert!(
                toks.iter().enumerate().all(|(j, v)| *v == j as u64),
                "{ctx}: token indices {toks:?}"
            );
            match outcome {
                RequestOutcome::Finished(c) => {
                    assert_eq!(count(&evs, stage::REQ_ADMITTED), 1, "{ctx}");
                    assert_eq!(count(&evs, stage::REQ_PREFILL), 1, "{ctx}");
                    assert!(
                        evs.iter()
                            .find(|e| e.stage == stage::REQ_FINISHED)
                            .is_some_and(|e| e.value == c.decoded.rows() as u64),
                        "{ctx}: finished event carries the decoded-token count"
                    );
                }
                RequestOutcome::Rejected { .. } => {
                    assert_eq!(count(&evs, stage::REQ_ADMITTED), 0, "{ctx}");
                    assert_eq!(count(&evs, stage::REQ_PREFILL), 0, "{ctx}");
                }
                _ => {
                    // A cancel/expiry can land before or after admission;
                    // if it was admitted and decoded anything, prefill
                    // must have been traced first.
                    assert!(count(&evs, stage::REQ_PREFILL) <= 1, "{ctx}");
                    if !toks.is_empty() {
                        assert_eq!(count(&evs, stage::REQ_PREFILL), 1, "{ctx}");
                    }
                }
            }
            // Within the engine ring, a request's events never go
            // backwards in time (push order is emission order, and every
            // recorded timestamp is at or after the previous one's).
            let engine: Vec<&TraceEvent> = rings
                .iter()
                .filter(|r| r.name == "engine")
                .flat_map(|r| r.events.iter())
                .filter(|e| {
                    e.req == *id as u32
                        && (stage::REQ_SUBMITTED..=stage::REQ_FAILED).contains(&e.stage)
                })
                .collect();
            assert!(
                engine.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
                "{ctx}: engine-ring timestamps regress: {engine:?}"
            );
        }

        // The accounting each resolution owns: one counter bump per typed
        // outcome of its kind, one `tokens_per_request` sample per id
        // summing to the outcomes' decoded tokens, and one TTFT sample per
        // outcome that decoded a token (no faults here, so no replay).
        let outcomes: Vec<&RequestOutcome> = outcomes.iter().flatten().collect();
        let of_kind = |kind: &str| outcomes.iter().filter(|o| o.kind() == kind).count() as u64;
        let stats = server.stats();
        let ctx = format!("case {}", g.case);
        assert_eq!(stats.rejected, of_kind("rejected"), "{ctx}: rejected");
        assert_eq!(stats.cancelled, of_kind("cancelled"), "{ctx}: cancelled");
        assert_eq!(
            stats.deadline_exceeded,
            of_kind("deadline_exceeded"),
            "{ctx}: deadline_exceeded"
        );
        assert_eq!(stats.failed, of_kind("failed"), "{ctx}: failed");
        let hist = server.telemetry_snapshot();
        assert_eq!(
            hist.tokens_per_request.count(),
            ids.len() as u64,
            "{ctx}: one tokens_per_request sample per id"
        );
        assert_eq!(
            hist.tokens_per_request.sum(),
            outcomes.iter().map(|o| outcome_tokens(o)).sum::<u64>(),
            "{ctx}: tokens_per_request sums the outcomes' decoded tokens"
        );
        assert_eq!(
            hist.ttft_us.count(),
            outcomes.iter().filter(|o| outcome_tokens(o) > 0).count() as u64,
            "{ctx}: one TTFT sample per outcome that decoded a token"
        );
    });
}

/// With telemetry disabled nothing is buffered, whatever the workload —
/// the rings must cost nothing when off.
#[test]
fn disabled_telemetry_buffers_nothing() {
    cases(3, |g| {
        let weights: Arc<ModelWeights> = Arc::new(
            ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1)
                .build_weights()
                .unwrap(),
        );
        let server = Server::start(
            Arc::clone(&weights),
            ServeConfig {
                max_batch: 1 + g.below(3),
                telemetry: false,
                ..ServeConfig::default()
            },
        );
        for i in 0..1 + g.below(4) {
            let p = prompt(1 + g.below(3), g.case * 13 + i, 64);
            let id = server.submit(p, g.below(4)).unwrap();
            server.wait(id).unwrap();
        }
        assert_eq!(server.telemetry().buffered(), 0);
        assert!(server
            .telemetry()
            .drain()
            .iter()
            .all(|r| r.events.is_empty()));
    });
}
