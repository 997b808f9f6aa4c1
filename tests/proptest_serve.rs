//! Property-based tests on the `m2x-serve` continuous-batching runtime:
//! for any mix of request shapes, arrival interleavings, admission-window
//! sizes and worker-thread counts, every scheduled
//! request's token stream is **bit-identical** to running that request
//! alone on a fresh session — the scheduler only changes *when* work runs,
//! never *what* it computes.

use m2xfp_repro::core::M2xfpConfig;
use m2xfp_repro::nn::model::{ModelBuilder, ModelWeights, QuantizedModel};
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::nn::synth::activation_matrix;
use m2xfp_repro::serve::{run_solo, Completed, ServeConfig, Server};
use m2xfp_repro::tensor::Matrix;
use m2xfp_repro::testkit::cases;
use std::sync::Arc;

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
