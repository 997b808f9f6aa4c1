//! # m2x-serve
//!
//! Multi-session continuous-batching serving runtime over the quantized
//! M2XFP engine — the system the MX line of work motivates low-bit formats
//! with: one shared set of prepared weights amortized across many in-flight
//! generation requests.
//!
//! The runtime is std-only (threads, `Mutex`/`Condvar`, `mpsc`-style
//! queues) and is built on the `m2x_nn::model` weight/state split:
//!
//! * [`ModelWeights`] behind an `Arc` is the
//!   **shared model** — every projection quantized and decoded once; N
//!   concurrent requests cost N KV caches, never N weight copies.
//! * A [`Server`] owns one engine thread running the continuous-batching
//!   scheduler tick: requests are admitted from the arrival queue up to
//!   [`ServeConfig::max_batch`], every scheduler step stacks all active
//!   requests' pending rows (prefill chunks and decode tokens mix freely)
//!   into one batched
//!   [`step_sessions_scratch`](m2x_nn::model::ModelWeights::step_sessions_scratch)
//!   call, and requests join and leave between steps without disturbing
//!   the others.
//!
//! **Determinism:** every output row depends only on its own request's
//! rows and KV cache, so each request's generation is **bit-identical to
//! running it alone** ([`run_solo`]) — for any arrival interleaving, batch
//! composition and worker-thread count. `tests/proptest_serve.rs` pins
//! this; the bench emitter's `serve` section hard-gates it in CI
//! (`serve.batch_exact`).
//!
//! **Fault tolerance:** every submitted id resolves to exactly one typed
//! [`RequestOutcome`] (`Finished | Cancelled | DeadlineExceeded | Rejected
//! | Failed`) — per-request deadlines, [`Server::cancel`], a bounded
//! arrival queue with shed-on-overload, a KV-memory admission budget, and
//! `catch_unwind` panic isolation that fails only the implicated request
//! and keeps every survivor bit-identical to its solo run (see
//! [`scheduler`]). The [`fault`] module's deterministic [`FaultPlan`]
//! drives the chaos property tests (`tests/proptest_chaos.rs`) and the CI
//! hard gates `chaos.chaos_exact` / `chaos.zero_leak`.
//!
//! **Paged KV with prefix sharing:** session KV state lives on fixed-size
//! pages from a shared [`KvPagePool`](m2x_nn::KvPagePool) — admission
//! releases return pages to a free list for O(1) reuse, and a request
//! whose prompt starts with an already-served prefix **adopts** the
//! frozen prefix pages copy-on-write instead of recomputing them
//! (`ServeStats::kv_pool.prefix_hits`). Sharing never bends bit-identity: the
//! adopted pages are verified byte-equal to what prefilling would
//! produce, a shared page is never mutated in place, and recovery
//! replays run the full prompt from scratch. `tests/proptest_kv_pool.rs`
//! pins this; CI hard-gates `kv_pool.reuse_exact` / `kv_pool.zero_leak`.
//!
//! ```
//! use m2x_nn::model::ModelBuilder;
//! use m2x_nn::profile::ModelProfile;
//! use m2x_serve::{feedback_token, run_solo, ServeConfig, ServeError, Server};
//! use m2x_tensor::Matrix;
//! use std::sync::Arc;
//!
//! let weights = Arc::new(
//!     ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1).build_weights()?,
//! );
//! let prompt = Matrix::from_fn(3, 64, |r, c| ((r * 64 + c) as f32 * 0.1).sin() * 0.5);
//! let server = Server::start(Arc::clone(&weights), ServeConfig::default());
//! let id = server.submit(prompt.clone(), 2)?;
//! let out = server.wait(id)?.finished().expect("no faults in play");
//! assert_eq!(out.decoded, run_solo(&weights, &prompt, 2)?); // bit-identical
//! # Ok::<(), ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod scheduler;
pub mod sync;

pub use fault::{Fault, FaultPlan};
#[doc(hidden)]
pub use scheduler::Ticker;
pub use scheduler::{
    Completed, RequestOutcome, ServeError, ServeStats, Server, StreamEvent, TelemetrySnapshot,
};
pub use sync::{lock_poisoned, wait_poisoned};

use m2x_nn::model::{ModelWeights, QuantizedModel};
use m2x_tensor::Matrix;
use m2xfp::Error;
use std::sync::Arc;

/// Configuration of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission cap: at most this many requests are in flight per
    /// scheduler step; later arrivals queue until a slot frees up.
    pub max_batch: usize,
    /// Worker threads the per-request attention work is sharded over.
    /// `0` = auto: the engine scales the worker count with each step's
    /// attention work volume, up to the available cores (small steps stay
    /// inline). Any value computes identical bits.
    pub worker_threads: usize,
    /// Arrival-queue bound; `0` = unbounded. When the queue holds this
    /// many waiting requests, later submissions are **shed**: they resolve
    /// immediately to [`RequestOutcome::Rejected`] instead of growing the
    /// queue.
    pub queue_capacity: usize,
    /// Packed-KV admission budget in bytes; `0` = unlimited. Admission
    /// charges the in-flight sessions'
    /// [`kv_bytes`](m2x_nn::model::SessionState::kv_bytes), and each
    /// request admitted in the same tick the packed K+V bytes of the
    /// prompt rows its prefill will append (the rows past any adopted
    /// prefix, whose shared pages it already holds). While that sum is at
    /// or past the budget, the engine stops admitting (graceful
    /// degradation) but keeps serving — at least one request always runs,
    /// so the budget drains and admission resumes.
    ///
    /// The budget meters the **packed** pool pages (FP4 codes | E8M0
    /// scales | 2-bit meta), with a page shared between sessions counted
    /// once per holder — the same sum
    /// [`ServeStats::kv_packed_bytes`] reports. The decoded
    /// planes the engine also keeps (the K score-GEMM planes + the
    /// dequantized V row cache) are reported honestly as
    /// [`ServeStats::kv_decoded_bytes`] but are **not** gated:
    /// they are a deterministic multiple of the packed payload, so one
    /// knob suffices.
    pub kv_budget_bytes: usize,
    /// Record telemetry (trace events, per-stage timing and latency
    /// histograms; see [`m2x_telemetry`]). Recording is designed to be
    /// cheap enough to leave on — the `telemetry.overhead_ratio` CI bench
    /// measures the cost — but the switch exists so that measurement has
    /// an untraced baseline, and it can also be flipped at runtime via
    /// [`Server::telemetry`]'s
    /// [`set_enabled`](m2x_telemetry::Telemetry::set_enabled).
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            worker_threads: 0,
            queue_capacity: 0,
            kv_budget_bytes: 0,
            telemetry: true,
        }
    }
}

/// Per-request options for [`Server::submit_with`]: optional deadlines,
/// counted from submission (time spent queued counts against them), and
/// incremental token streaming. `..Default::default()` is "no deadline,
/// no streaming".
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOptions {
    /// Expire the request once this many scheduler steps have elapsed
    /// since submission (deterministic — the chaos tests use this form).
    pub deadline_steps: Option<u64>,
    /// Expire the request once this much wall-clock time has elapsed
    /// since submission.
    pub deadline: Option<std::time::Duration>,
    /// Publish each decode token incrementally as the engine produces it,
    /// for consumption through [`Server::next_token`] /
    /// [`Server::wait_streaming`] — the hook the `m2x-gateway` HTTP
    /// front-end streams SSE frames from. Costs one row clone per decode
    /// step; the buffered rows are released when the request's outcome is
    /// consumed.
    pub stream: bool,
}

/// The deterministic greedy "sampler" of the synthetic serving loop: the
/// next input token embedding is the last output row squashed back into an
/// embedding-like range. Purely per-row, so the feedback stream of a
/// request is identical whether it runs solo or batched.
pub fn feedback_token(y: &Matrix) -> Matrix {
    assert!(y.rows() > 0, "feedback needs at least one output row");
    let last = y.rows() - 1;
    Matrix::from_fn(1, y.cols(), |_, c| (y[(last, c)] * 0.25).tanh())
}

/// Rejects prompts carrying NaN/Inf values at the serve boundary: a
/// non-finite row would flow through the online quantizer into the engine
/// and poison whatever batch it lands in, so both [`Server::submit`] and
/// [`run_solo`] validate before any model state is touched.
pub(crate) fn check_finite(prompt: &Matrix) -> Result<(), Error> {
    if prompt.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(Error::config("prompt contains non-finite (NaN/Inf) values"));
    }
    Ok(())
}

/// Runs one generation request synchronously on a fresh single session over
/// the shared weights: prefill the prompt, then `decode_steps` closed-loop
/// decode steps through [`feedback_token`]. Returns the stacked decode
/// outputs (`[decode_steps, hidden]`) — the solo oracle every scheduled
/// request is bit-compared against.
///
/// # Errors
///
/// Fails on an input width mismatch, an empty prompt, or non-finite
/// prompt values (the same boundary check as [`Server::submit`]).
pub fn run_solo(
    weights: &Arc<ModelWeights>,
    prompt: &Matrix,
    decode_steps: usize,
) -> Result<Matrix, Error> {
    if prompt.rows() == 0 {
        return Err(Error::config("prompt must contain at least one token"));
    }
    check_finite(prompt)?;
    let mut model = QuantizedModel::from_weights(Arc::clone(weights));
    let y = model.prefill(prompt)?;
    let mut tok = feedback_token(&y);
    let mut decoded = Matrix::zeros(0, weights.hidden());
    for _ in 0..decode_steps {
        let y = model.decode(&tok)?;
        tok = feedback_token(&y);
        decoded.push_rows(&y);
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2x_nn::model::ModelBuilder;
    use m2x_nn::profile::ModelProfile;
    use m2x_nn::synth::activation_matrix;
    use std::time::Duration;

    fn weights() -> Arc<ModelWeights> {
        Arc::new(
            ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1)
                .build_weights()
                .unwrap(),
        )
    }

    fn prompt(tokens: usize, seed: usize) -> Matrix {
        activation_matrix(&ModelProfile::llama3_8b(), seed, tokens, 64).map(|v| (v * 0.25).tanh())
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    fn wait_finished(server: &Server, id: u64) -> Completed {
        server
            .wait(id)
            .unwrap()
            .finished()
            .unwrap_or_else(|| panic!("request {id} did not finish"))
    }

    fn ticked(w: &Arc<ModelWeights>, cfg: ServeConfig, faults: Vec<Fault>) -> (Server, Ticker) {
        Server::ticked(Arc::clone(w), cfg, FaultPlan::new(faults))
    }

    /// Ticks at a frozen virtual instant until nothing is queued or in
    /// flight.
    fn drain(t: &mut Ticker) {
        while t.tick(Duration::ZERO) {}
    }

    #[test]
    fn batched_requests_match_solo_bitwise() {
        let w = weights();
        let server = Server::start(
            Arc::clone(&w),
            ServeConfig {
                max_batch: 3,
                worker_threads: 2,
                ..ServeConfig::default()
            },
        );
        let reqs: Vec<(Matrix, usize)> =
            (0..5).map(|i| (prompt(1 + i % 4, i), 1 + i % 3)).collect();
        let ids: Vec<u64> = reqs
            .iter()
            .map(|(p, d)| server.submit(p.clone(), *d).unwrap())
            .collect();
        for (id, (p, d)) in ids.iter().zip(&reqs) {
            let out = wait_finished(&server, *id);
            assert_eq!(out.id, *id);
            assert_eq!(out.decoded.rows(), *d);
            assert_bits_eq(&out.decoded, &run_solo(&w, p, *d).unwrap());
            assert!(out.finished_step > out.arrived_step);
        }
        let stats = server.stats();
        assert!(stats.peak_batch >= 2, "peak batch {}", stats.peak_batch);
        assert_eq!(
            stats.decoded_tokens,
            reqs.iter().map(|r| r.1 as u64).sum::<u64>()
        );
    }

    #[test]
    fn zero_decode_steps_completes_after_prefill() {
        let w = weights();
        let server = Server::start(Arc::clone(&w), ServeConfig::default());
        let id = server.submit(prompt(3, 0), 0).unwrap();
        let out = wait_finished(&server, id);
        assert_eq!(out.decoded.rows(), 0);
        assert_eq!(out.prefill_out.rows(), 3);
    }

    #[test]
    fn submit_rejects_bad_requests() {
        let server = Server::start(weights(), ServeConfig::default());
        assert!(server.submit(Matrix::zeros(0, 64), 1).is_err());
        assert!(server.submit(Matrix::zeros(1, 65), 1).is_err());
        let mut nan = prompt(2, 0);
        nan[(1, 3)] = f32::NAN;
        assert!(server.submit(nan, 1).is_err());
        let mut inf = prompt(2, 1);
        inf[(0, 0)] = f32::INFINITY;
        assert!(server.submit(inf, 1).is_err());
    }

    #[test]
    fn rejected_nonfinite_submit_leaves_concurrent_requests_bit_identical() {
        // A NaN prompt is rejected at the boundary and never reaches the
        // engine: the requests in flight around it keep producing streams
        // bit-identical to their solo runs, and the engine stays alive for
        // later submissions.
        let w = weights();
        let server = Server::start(Arc::clone(&w), ServeConfig::default());
        let before: Vec<(u64, Matrix)> = (0..3)
            .map(|i| {
                let p = prompt(2 + i, i);
                (server.submit(p.clone(), 2).unwrap(), p)
            })
            .collect();
        let mut poison = prompt(3, 7);
        poison[(2, 5)] = f32::NAN;
        assert!(server.submit(poison, 2).is_err());
        let after = prompt(4, 9);
        let after_id = server.submit(after.clone(), 1).unwrap();
        for (id, p) in &before {
            assert_bits_eq(
                &wait_finished(&server, *id).decoded,
                &run_solo(&w, p, 2).unwrap(),
            );
        }
        assert_bits_eq(
            &wait_finished(&server, after_id).decoded,
            &run_solo(&w, &after, 1).unwrap(),
        );
    }

    #[test]
    fn run_solo_rejects_nonfinite_prompt() {
        let w = weights();
        let mut p = prompt(2, 0);
        p[(0, 1)] = f32::NEG_INFINITY;
        assert!(run_solo(&w, &p, 1).is_err());
    }

    #[test]
    fn wait_misuse_returns_typed_errors_instead_of_panicking() {
        let server = Server::start(weights(), ServeConfig::default());
        assert_eq!(server.wait(99), Err(ServeError::UnknownRequest { id: 99 }));
        let id = server.submit(prompt(2, 0), 1).unwrap();
        assert!(server.wait(id).is_ok());
        assert_eq!(server.wait(id), Err(ServeError::AlreadyConsumed { id }));
        assert_eq!(
            server.cancel(77),
            Err(ServeError::UnknownRequest { id: 77 })
        );
    }

    #[test]
    fn submit_after_shutdown_returns_error_and_shutdown_is_idempotent() {
        let mut server = Server::start(weights(), ServeConfig::default());
        let id = server.submit(prompt(2, 0), 2).unwrap();
        let stats = server.shutdown();
        // The drain resolved the in-flight request before the join.
        assert!(stats.steps >= 1);
        assert!(wait_finished(&server, id).decoded.rows() == 2);
        assert_eq!(server.submit(prompt(2, 1), 1), Err(ServeError::ShutDown));
        server.shutdown(); // second call is a no-op
    }

    #[test]
    fn abort_cancels_queued_and_in_flight_work() {
        let w = weights();
        let mut server = Server::start(
            Arc::clone(&w),
            ServeConfig {
                max_batch: 1, // force a queue to build up
                ..ServeConfig::default()
            },
        );
        let ids: Vec<u64> = (0..4)
            .map(|i| server.submit(prompt(2, i), 200).unwrap())
            .collect();
        let stats = server.abort();
        assert_eq!(stats.cancelled, 4);
        for id in ids {
            let out = server.wait(id).unwrap();
            assert!(
                matches!(out, RequestOutcome::Cancelled { .. }),
                "{id}: {}",
                out.kind()
            );
        }
        assert_eq!(w.open_sessions(), 0, "aborted sessions must be released");
    }

    #[test]
    fn cancel_releases_kv_and_leaves_survivors_bit_identical() {
        let w = weights();
        let server = Server::start(Arc::clone(&w), ServeConfig::default());
        let keep = prompt(3, 0);
        let keep_id = server.submit(keep.clone(), 40).unwrap();
        let victim = server.submit(prompt(2, 1), 5_000).unwrap();
        assert!(server.cancel(victim).unwrap());
        let out = server.wait(victim).unwrap();
        assert!(
            matches!(out, RequestOutcome::Cancelled { .. }),
            "{}",
            out.kind()
        );
        // The engine keeps scheduling and the survivor's stream is intact.
        let done = wait_finished(&server, keep_id);
        assert_bits_eq(&done.decoded, &run_solo(&w, &keep, 40).unwrap());
        assert!(server.stats().cancelled >= 1);
        // Cancel after resolution is a no-op.
        assert!(!server.cancel(victim).unwrap());
    }

    #[test]
    fn step_deadline_expires_queued_and_in_flight_requests() {
        let w = weights();
        let server = Server::start(Arc::clone(&w), ServeConfig::default());
        // Deadline of 0 steps: expired at the first lifecycle pass,
        // before ever being stepped.
        let dead = server
            .submit_with(
                prompt(2, 0),
                3,
                RequestOptions {
                    deadline_steps: Some(0),
                    ..RequestOptions::default()
                },
            )
            .unwrap();
        // A short step deadline on a long request: admitted, then expired
        // mid-flight with partial progress.
        let slow = server
            .submit_with(
                prompt(2, 1),
                10_000,
                RequestOptions {
                    deadline_steps: Some(4),
                    ..RequestOptions::default()
                },
            )
            .unwrap();
        let live = server.submit(prompt(2, 2), 2).unwrap();
        assert!(matches!(
            server.wait(dead).unwrap(),
            RequestOutcome::DeadlineExceeded { decoded_tokens: 0 }
        ));
        assert!(matches!(
            server.wait(slow).unwrap(),
            RequestOutcome::DeadlineExceeded { .. }
        ));
        assert_eq!(wait_finished(&server, live).decoded.rows(), 2);
        assert_eq!(server.stats().deadline_exceeded, 2);
        drop(server);
        assert_eq!(w.open_sessions(), 0, "expired sessions must be released");
    }

    #[test]
    fn step_deadline_past_the_counter_range_is_no_deadline() {
        let server = Server::start(weights(), ServeConfig::default());
        let first = server.submit(prompt(2, 0), 1).unwrap();
        wait_finished(&server, first);
        // The step counter is past 0 now, so `steps + u64::MAX` overflows.
        let id = server
            .submit_with(
                prompt(2, 1),
                2,
                RequestOptions {
                    deadline_steps: Some(u64::MAX),
                    ..RequestOptions::default()
                },
            )
            .unwrap();
        assert_eq!(wait_finished(&server, id).decoded.rows(), 2);
    }

    #[test]
    fn wall_deadline_and_queue_wait_follow_the_virtual_clock() {
        let w = weights();
        let (server, mut t) = ticked(&w, ServeConfig::default(), vec![]);
        let ms = Duration::from_millis;
        let opts = RequestOptions {
            deadline: Some(ms(5)),
            ..RequestOptions::default()
        };
        // Stamped at virtual 0, admitted and prefilled at 2 ms, one row
        // decoded at 4 ms, expired at exactly 5 ms.
        let id = server.submit_with(prompt(2, 0), 100, opts).unwrap();
        assert!(t.tick(ms(2)));
        assert!(t.tick(ms(4)));
        assert!(!t.tick(ms(5)));
        assert_eq!(
            server.wait(id).unwrap(),
            RequestOutcome::DeadlineExceeded { decoded_tokens: 1 }
        );
        assert_eq!(server.telemetry_snapshot().queue_wait_us.sum(), 2_000);
    }

    #[test]
    fn dropping_the_ticker_fails_waiters_instead_of_hanging() {
        let w = weights();
        let (server, mut t) = ticked(&w, ServeConfig::default(), vec![]);
        let id = server.submit(prompt(2, 0), 50).unwrap();
        assert!(t.tick(Duration::ZERO));
        assert_eq!(w.open_sessions(), 1);
        drop(t);
        assert_eq!(w.open_sessions(), 0, "the in-flight session is released");
        assert!(matches!(
            server.wait(id),
            Err(ServeError::EngineDown { .. })
        ));
        assert!(!server.healthy());
    }

    #[test]
    fn generous_wall_deadline_does_not_expire_a_short_request() {
        let server = Server::start(weights(), ServeConfig::default());
        // `Duration::MAX` is past the clock's range: no deadline at all.
        for deadline in [Duration::from_secs(600), Duration::MAX] {
            let id = server
                .submit_with(
                    prompt(2, 0),
                    2,
                    RequestOptions {
                        deadline: Some(deadline),
                        ..RequestOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(wait_finished(&server, id).decoded.rows(), 2);
        }
    }

    #[test]
    fn bounded_queue_sheds_overload_with_queue_depth() {
        let w = weights();
        let server = Server::start(
            Arc::clone(&w),
            ServeConfig {
                max_batch: 1,
                queue_capacity: 2,
                ..ServeConfig::default()
            },
        );
        // Submit a burst far past capacity; the engine races the
        // submissions, so we only know *at least* burst - capacity -
        // in-flight requests resolve, and every shed one carries the
        // observed depth.
        let ids: Vec<u64> = (0..8)
            .map(|i| server.submit(prompt(2, i), 30).unwrap())
            .collect();
        let mut rejected = 0u64;
        for id in ids {
            match server.wait(id).unwrap() {
                RequestOutcome::Rejected { queue_depth } => {
                    assert!(queue_depth >= 2, "shed below capacity");
                    rejected += 1;
                }
                RequestOutcome::Finished(c) => assert_eq!(c.decoded.rows(), 30),
                other => panic!("unexpected outcome {}", other.kind()),
            }
        }
        assert!(rejected > 0, "an 8-burst into capacity 2 must shed");
        let stats = server.stats();
        assert_eq!(stats.rejected, rejected);
        assert!(stats.peak_queue_depth <= 2);
    }

    #[test]
    fn kv_budget_degrades_to_serial_admission_but_serves_everything() {
        let w = weights();
        // A 1-byte budget: any non-empty KV footprint is over it, so the
        // engine degrades to one admitted request at a time — but always
        // at least one, so everything still completes, bit-identically.
        let server = Server::start(
            Arc::clone(&w),
            ServeConfig {
                max_batch: 4,
                kv_budget_bytes: 1,
                ..ServeConfig::default()
            },
        );
        let reqs: Vec<(Matrix, usize)> = (0..4).map(|i| (prompt(2, i), 3)).collect();
        let ids: Vec<u64> = reqs
            .iter()
            .map(|(p, d)| server.submit(p.clone(), *d).unwrap())
            .collect();
        for (id, (p, d)) in ids.iter().zip(&reqs) {
            let out = wait_finished(&server, *id);
            assert_bits_eq(&out.decoded, &run_solo(&w, p, *d).unwrap());
        }
        assert_eq!(server.stats().peak_batch, 1);
    }

    #[test]
    fn kv_budget_admits_a_queued_burst_one_request_at_a_time() {
        // Four requests queued before the first tick, under a 1-byte
        // budget: the first admission's prefill charge already exhausts
        // it, so the tick admits one, and each later request waits until
        // the running one has released its pages.
        let w = weights();
        let cfg = ServeConfig {
            max_batch: 4,
            kv_budget_bytes: 1,
            ..ServeConfig::default()
        };
        let (server, mut t) = ticked(&w, cfg, vec![]);
        let reqs: Vec<(Matrix, usize)> = (0..4).map(|i| (prompt(2, i), 3)).collect();
        let ids: Vec<u64> = reqs
            .iter()
            .map(|(p, d)| server.submit(p.clone(), *d).unwrap())
            .collect();
        assert!(t.tick(Duration::ZERO));
        assert_eq!(w.open_sessions(), 1);
        while t.tick(Duration::ZERO) {
            assert!(w.open_sessions() <= 1);
        }
        assert_eq!(server.stats().peak_batch, 1);
        for (id, (p, d)) in ids.iter().zip(&reqs) {
            let out = wait_finished(&server, *id);
            assert_bits_eq(&out.decoded, &run_solo(&w, p, *d).unwrap());
        }
    }

    #[test]
    fn admission_charges_the_packed_bytes_prefill_appends() {
        let w = weights();
        let (server, mut t) = ticked(&w, ServeConfig::default(), vec![]);
        server.submit(prompt(3, 0), 4).unwrap();
        assert!(t.tick(Duration::ZERO));
        let charge = 3 * crate::scheduler::kv_token_bytes(w.kv_pool().geometry());
        assert_eq!(server.stats().kv_packed_bytes, charge as u64);
    }

    #[test]
    fn injected_step_panic_fails_only_the_victim_bitwise() {
        let w = weights();
        let plan = FaultPlan::new(vec![Fault::StepPanic { tick: 2, slot: 0 }]);
        let server = Server::start_with_faults(
            Arc::clone(&w),
            ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
            plan,
        );
        let reqs: Vec<(Matrix, usize)> = (0..3).map(|i| (prompt(2 + i, i), 8)).collect();
        let ids: Vec<u64> = reqs
            .iter()
            .map(|(p, d)| server.submit(p.clone(), *d).unwrap())
            .collect();
        let mut failures = 0;
        for (id, (p, d)) in ids.iter().zip(&reqs) {
            match server.wait(*id).unwrap() {
                RequestOutcome::Failed { error } => {
                    assert!(error.contains("injected fault"), "{error}");
                    failures += 1;
                }
                RequestOutcome::Finished(c) => {
                    // Survivors replayed through recovery still match solo.
                    assert_bits_eq(&c.decoded, &run_solo(&w, p, *d).unwrap());
                }
                other => panic!("unexpected outcome {}", other.kind()),
            }
        }
        assert_eq!(failures, 1, "exactly the victim fails");
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.recovery_ticks, 1);
        // One caught panic in the batched step + one in the victim's
        // isolated replay — the exact-attribution invariant.
        assert_eq!(stats.panics_recovered, 2);
        drop(server);
        assert_eq!(w.open_sessions(), 0);
    }

    #[test]
    fn injected_cancel_leaves_survivors_exact() {
        let w = weights();
        let cfg = ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        };
        let (server, mut t) = ticked(&w, cfg, vec![Fault::CancelActive { tick: 5, slot: 1 }]);
        let reqs: Vec<(Matrix, usize)> = (0..3).map(|i| (prompt(2, i), 10)).collect();
        let ids: Vec<u64> = reqs
            .iter()
            .map(|(p, d)| server.submit(p.clone(), *d).unwrap())
            .collect();
        drain(&mut t);
        for (i, (id, (p, d))) in ids.iter().zip(&reqs).enumerate() {
            let out = server.wait(*id).unwrap();
            if i == 1 {
                // Rows 1–4 were decoded at ticks 1–4; the cancel lands
                // before tick 5's step.
                assert_eq!(out, RequestOutcome::Cancelled { decoded_tokens: 4 });
            } else {
                let c = out.finished().expect("survivors finish");
                assert_bits_eq(&c.decoded, &run_solo(&w, p, *d).unwrap());
            }
        }
        assert_eq!(server.stats().cancelled, 1);
        drop(t);
        assert_eq!(w.open_sessions(), 0);
    }

    #[test]
    fn cancel_aimed_past_the_batch_lands_modulo_its_size() {
        let w = weights();
        let (server, mut t) = ticked(
            &w,
            ServeConfig::default(),
            vec![Fault::CancelActive { tick: 1, slot: 3 }],
        );
        let p = prompt(2, 0);
        let keep = server.submit(p.clone(), 4).unwrap();
        let victim = server.submit(prompt(2, 1), 4).unwrap();
        drain(&mut t);
        // Two in flight at tick 1: slot 3 lands on slot 3 % 2 = 1.
        assert_eq!(
            server.wait(victim).unwrap(),
            RequestOutcome::Cancelled { decoded_tokens: 0 }
        );
        let done = wait_finished(&server, keep);
        assert_bits_eq(&done.decoded, &run_solo(&w, &p, 4).unwrap());
        assert_eq!(server.stats().cancelled, 1);
    }

    #[test]
    fn streamed_tokens_match_solo_bitwise_and_arrive_incrementally() {
        let w = weights();
        let server = Server::start(Arc::clone(&w), ServeConfig::default());
        let p = prompt(3, 0);
        let id = server
            .submit_with(
                p.clone(),
                5,
                RequestOptions {
                    stream: true,
                    ..RequestOptions::default()
                },
            )
            .unwrap();
        let mut streamed = Matrix::zeros(0, 64);
        let mut indices = Vec::new();
        let outcome = server
            .wait_streaming(id, |i, row| {
                indices.push(i);
                streamed.push_rows(row);
            })
            .unwrap();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        let done = outcome.finished().expect("no faults in play");
        assert_bits_eq(&streamed, &run_solo(&w, &p, 5).unwrap());
        assert_bits_eq(&done.decoded, &streamed);
        // The outcome was consumed by the streaming wait.
        assert_eq!(server.wait(id), Err(ServeError::AlreadyConsumed { id }));
    }

    #[test]
    fn next_token_without_stream_flag_blocks_until_done() {
        let w = weights();
        let server = Server::start(Arc::clone(&w), ServeConfig::default());
        let p = prompt(2, 1);
        let id = server.submit(p.clone(), 2).unwrap();
        match server.next_token(id, 0).unwrap() {
            crate::StreamEvent::Done(outcome) => {
                let done = outcome.finished().expect("no faults in play");
                assert_bits_eq(&done.decoded, &run_solo(&w, &p, 2).unwrap());
            }
            crate::StreamEvent::Token { .. } => panic!("request did not opt into streaming"),
        }
    }

    #[test]
    fn streaming_cancel_ends_stream_with_cancelled_outcome() {
        let w = weights();
        let server = Server::start(Arc::clone(&w), ServeConfig::default());
        let p = prompt(2, 2);
        let id = server
            .submit_with(
                p.clone(),
                100_000,
                RequestOptions {
                    stream: true,
                    ..RequestOptions::default()
                },
            )
            .unwrap();
        // Pull at least one token, then cancel mid-stream.
        let first = server.next_token(id, 0).unwrap();
        let solo = run_solo(&w, &p, 2).unwrap();
        match first {
            crate::StreamEvent::Token { index, ref row } => {
                assert_eq!(index, 0);
                assert_bits_eq(row, &Matrix::from_vec(1, 64, solo.row(0).to_vec()));
            }
            crate::StreamEvent::Done(_) => panic!("a 100k-step request cannot be done yet"),
        }
        server.cancel(id).unwrap();
        let mut tokens = 1usize;
        let outcome = loop {
            match server.next_token(id, tokens).unwrap() {
                crate::StreamEvent::Token { ref row, .. } => {
                    // Every token streamed before the cancel lands is still
                    // bit-identical to the solo prefix.
                    if tokens < solo.rows() {
                        assert_bits_eq(row, &Matrix::from_vec(1, 64, solo.row(tokens).to_vec()));
                    }
                    tokens += 1;
                }
                crate::StreamEvent::Done(outcome) => break outcome,
            }
        };
        assert!(
            matches!(outcome, RequestOutcome::Cancelled { .. }),
            "{}",
            outcome.kind()
        );
        drop(server);
        assert_eq!(w.open_sessions(), 0);
    }

    #[test]
    fn streaming_survives_panic_recovery_bitwise() {
        // A step panic mid-stream: the victim fails, the streaming
        // survivor's published prefix stays valid and the rest of its
        // stream arrives bit-identical to solo.
        let w = weights();
        // Slot 0 is the victim: submitted first, so it occupies the first
        // batch slot from tick 0 regardless of how the engine's ticks race
        // the second submission.
        let plan = FaultPlan::new(vec![Fault::StepPanic { tick: 3, slot: 0 }]);
        let server = Server::start_with_faults(Arc::clone(&w), ServeConfig::default(), plan);
        let victim = server.submit(prompt(2, 4), 5_000).unwrap();
        let p = prompt(2, 3);
        let streamer = server
            .submit_with(
                p.clone(),
                8,
                RequestOptions {
                    stream: true,
                    ..RequestOptions::default()
                },
            )
            .unwrap();
        let mut streamed = Matrix::zeros(0, 64);
        let outcome = server
            .wait_streaming(streamer, |_, row| streamed.push_rows(row))
            .unwrap();
        assert!(outcome.finished().is_some());
        assert_bits_eq(&streamed, &run_solo(&w, &p, 8).unwrap());
        assert!(matches!(
            server.wait(victim).unwrap(),
            RequestOutcome::Failed { .. }
        ));
    }

    #[test]
    fn cancel_after_recovery_reports_the_delivered_tokens() {
        // A recovery replay rewinds the survivor's decode rows, but the
        // rows it already streamed stay delivered: a cancel right after
        // the replay resolves with them, and the server keeps counting
        // every delivered row, the failed request's included.
        let w = weights();
        let cfg = ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        };
        let (server, mut t) = ticked(
            &w,
            cfg,
            vec![
                Fault::StepPanic { tick: 6, slot: 1 },
                Fault::CancelActive { tick: 7, slot: 0 },
            ],
        );
        let stream = RequestOptions {
            stream: true,
            ..RequestOptions::default()
        };
        // Both admitted and prefilled at tick 0, so each has streamed
        // five rows when slot 1's panic lands at tick 6.
        let p = prompt(2, 5);
        let survivor = server.submit_with(p.clone(), 100, stream).unwrap();
        let victim = server.submit_with(prompt(2, 6), 100, stream).unwrap();
        drain(&mut t);
        let mut streamed = Matrix::zeros(0, 64);
        let outcome = server
            .wait_streaming(survivor, |_, row| streamed.push_rows(row))
            .unwrap();
        let mut victim_rows = 0u64;
        let victim_outcome = server
            .wait_streaming(victim, |_, _| victim_rows += 1)
            .unwrap();
        assert!(matches!(victim_outcome, RequestOutcome::Failed { .. }));
        assert_eq!(outcome, RequestOutcome::Cancelled { decoded_tokens: 5 });
        assert_eq!((streamed.rows(), victim_rows), (5, 5));
        assert_bits_eq(&streamed, &run_solo(&w, &p, 5).unwrap());
        assert_eq!(server.stats().decoded_tokens, 10);
        // The failed request's sample stays 0 although it streamed rows.
        assert_eq!(server.telemetry_snapshot().tokens_per_request.sum(), 5);
    }

    #[test]
    fn healthy_tracks_shutdown() {
        let mut server = Server::start(weights(), ServeConfig::default());
        assert!(server.healthy());
        server.shutdown();
        assert!(!server.healthy());
    }

    #[test]
    fn telemetry_histograms_and_trace_cover_the_request_lifecycle() {
        use m2x_telemetry::stage;
        let w = weights();
        let server = Server::start(Arc::clone(&w), ServeConfig::default());
        let id = server.submit(prompt(2, 0), 3).unwrap();
        wait_finished(&server, id);
        let snap = server.telemetry_snapshot();
        assert!(snap.step_us.count() >= 4, "prefill + 3 decode ticks");
        assert_eq!(snap.ttft_us.count(), 1);
        assert_eq!(snap.queue_wait_us.count(), 1);
        assert_eq!(snap.tokens_per_request.count(), 1);
        assert_eq!(snap.tokens_per_request.sum(), 3);
        assert!(snap.stages.stage_sum_ns() > 0, "stage clocks booked time");
        assert!(server.stats().p99_step_us > 0.0);
        // The drained trace holds the full lifecycle, exactly once each.
        let rings = server.telemetry().drain();
        let events: Vec<_> = rings.iter().flat_map(|r| r.events.iter()).collect();
        let count = |s: u16| events.iter().filter(|e| e.stage == s).count();
        assert_eq!(count(stage::REQ_SUBMITTED), 1);
        assert_eq!(count(stage::REQ_ADMITTED), 1);
        assert_eq!(count(stage::REQ_PREFILL), 1);
        assert_eq!(count(stage::REQ_TOKEN), 3);
        assert_eq!(count(stage::REQ_FINISHED), 1);
        assert!(count(stage::TICK) >= 4);
    }

    #[test]
    fn telemetry_disabled_records_no_trace_but_keeps_stats() {
        let w = weights();
        let server = Server::start(
            Arc::clone(&w),
            ServeConfig {
                telemetry: false,
                ..ServeConfig::default()
            },
        );
        let id = server.submit(prompt(2, 0), 2).unwrap();
        wait_finished(&server, id);
        assert_eq!(server.telemetry().buffered(), 0, "tracing is off");
        let snap = server.telemetry_snapshot();
        assert_eq!(snap.stages.stage_sum_ns(), 0, "stage clocks are off");
        // Latency histograms stay on: they back ServeStats::p99_step_us.
        assert!(snap.step_us.count() >= 3);
        assert!(server.stats().p99_step_us > 0.0);
    }

    #[test]
    fn shared_prefix_adoption_is_bit_identical_and_counted() {
        let w = weights();
        let server = Server::start(Arc::clone(&w), ServeConfig::default());
        // 40 tokens with the default 32-token pages: one full (freezable)
        // page + an 8-row tail.
        let base = prompt(40, 11);
        let a = server.submit(base.clone(), 3).unwrap();
        let out_a = wait_finished(&server, a);
        assert_bits_eq(&out_a.decoded, &run_solo(&w, &base, 3).unwrap());
        // Same prompt again: adopts the frozen prefix page, must still be
        // bit-identical — including the stitched full-prompt prefill_out.
        let b = server.submit(base.clone(), 3).unwrap();
        let out_b = wait_finished(&server, b);
        assert_bits_eq(&out_b.decoded, &out_a.decoded);
        assert_bits_eq(&out_b.prefill_out, &out_a.prefill_out);
        // A prompt diverging only in the suffix shares the prefix page
        // but must produce its own (solo-exact) stream.
        let mut fork = base.clone();
        for c in 0..64 {
            fork[(36, c)] = (fork[(36, c)] * 0.5) + 0.01;
        }
        let c_id = server.submit(fork.clone(), 2).unwrap();
        let out_c = wait_finished(&server, c_id);
        assert_bits_eq(&out_c.decoded, &run_solo(&w, &fork, 2).unwrap());
        let stats = server.stats();
        assert!(
            stats.kv_pool.prefix_hits >= 2,
            "hits {}",
            stats.kv_pool.prefix_hits
        );
        assert!(stats.kv_pool.page_allocs > 0);
        drop(server);
        assert_eq!(w.open_sessions(), 0);
        // Shutdown cleared the prefix index: every page is back on the
        // free list, none in use.
        assert_eq!(w.kv_pool().stats().pages_in_use, 0);
    }

    #[test]
    fn feedback_token_uses_last_row() {
        let y = Matrix::from_vec(2, 2, vec![9.0, 9.0, 1.0, -1.0]);
        let t = feedback_token(&y);
        assert_eq!(t.rows(), 1);
        assert!((t[(0, 0)] - 0.25f32.tanh()).abs() < 1e-7);
        assert!(t[(0, 1)] < 0.0);
    }
}
