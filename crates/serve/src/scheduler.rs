//! The continuous-batching scheduler: an arrival queue with admission
//! control, one synchronous scheduler tick stepping every in-flight
//! request's rows through a single batched model call, and a
//! fault-tolerant request lifecycle ending in a typed [`RequestOutcome`].
//!
//! ```text
//!            shed (queue full) ──► Rejected
//!                 │
//!  submit() ──► pending (FIFO, bounded) ──admit (≤ max_batch,
//!                 │                        ≤ KV budget)──► active
//!                 │ deadline                                │ every tick:
//!                 ▼                          cancel/deadline│  faults? →
//!            DeadlineExceeded   Cancelled ◄────(released    │  stack rows →
//!                                               between     │  step_sessions
//!                                               steps)      │  (catch_unwind)
//!                                                           │      │ panic?
//!                                              Failed ◄── isolate ◄┘
//!  wait(id) ◄── outcome map ◄── retire finished ◄───────────┘
//!
//!  engine thread: wait on work_cv (work, shutdown, abort) ─► tick(Instant::now())
//!  tests:         Server::ticked ─► Ticker::tick(offset)  ─► tick(base + offset)
//! ```
//!
//! A tick is one synchronous function of the queues, the state the
//! engine owns (the in-flight requests, the step scratch, the pool
//! counters of the last tick, the [`FaultPlan`]) and the instant `now` it
//! runs at. Deadlines and queue wait compare against `now`, and a first
//! token's TTFT is `now` plus the measured step time; no lifecycle
//! decision reads the clock itself. [`Server::start`] runs ticks on an
//! engine thread at the wall clock. `Server::ticked` hands tests the same
//! engine with no thread, to tick at a virtual clock, so a test states
//! each interleaving it needs instead of sleeping until it happens.
//!
//! Requests are admitted and stepped in arrival order, so a given request
//! stream is reproducible run to run; and because every output row depends
//! only on its own request's rows and KV cache, each request's outputs are
//! bit-identical to a solo run no matter how arrivals interleave with the
//! engine's steps — including across cancellations, deadline expiry and
//! panic recovery of *other* requests in the same batch.
//!
//! # Failure semantics
//!
//! * Every submitted id resolves to exactly one [`RequestOutcome`],
//!   consumed once by [`Server::wait`]. Misuse (unknown id, double wait)
//!   is a typed [`ServeError`], not a panic or a hang.
//! * Cancelled and deadline-expired requests release their session
//!   **between** steps, so their KV memory is reclaimed before the next
//!   admission and never mid-computation. A deadline too far out to
//!   represent is no deadline.
//! * The KV budget charges each request admitted in a tick the packed
//!   bytes of the prompt rows it will prefill, so a burst arriving in one
//!   tick cannot slip past it before any prefill has run.
//! * A panic inside the batched step (a worker thread, a kernel, or an
//!   injected [`Fault::StepPanic`](crate::fault::Fault)) is caught with
//!   `catch_unwind`. Generation is closed-loop deterministic from the
//!   prompt, so recovery resets every in-flight session and re-steps each
//!   request in isolation: the request that reproduces the failure gets a
//!   [`RequestOutcome::Failed`] and is released; every survivor replays to
//!   a stream still bit-identical to its solo run. The engine keeps
//!   scheduling.
//! * Locks poisoned by a panic are recovered (`lock_queues`); shared
//!   state is only ever mutated under the lock in panic-free sections, so
//!   recovered guards still see consistent data.
//! * When the engine exits (its thread returns or dies, or a ticked
//!   server's `Ticker` is dropped), its in-flight sessions are released
//!   and a wait on an id that can no longer resolve returns
//!   [`ServeError::EngineDown`] instead of hanging.

use crate::fault::{Fault, FaultPlan};
use crate::sync::{lock_poisoned, wait_poisoned};
use crate::{feedback_token, RequestOptions, ServeConfig};
use m2x_nn::kv_pool::{PoolGeometry, PoolStats};
use m2x_nn::model::{ModelWeights, SessionState, StepScratch};
use m2x_telemetry::{stage, Histogram, StageTally, Telemetry, TraceHandle};
use m2x_tensor::Matrix;
use m2xfp::Error;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine trace-ring capacity (events): sized for thousands of ticks of
/// TICK + stage spans + token instants between `/v1/trace` drains.
const ENGINE_RING_EVENTS: usize = 16_384;

/// API trace-ring capacity (events): submit/reject/cancel instants.
const API_RING_EVENTS: usize = 4_096;

/// A finished request: its decode outputs plus scheduling metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Completed {
    /// The id [`Server::submit`] returned.
    pub id: u64,
    /// Outputs of the prompt rows (the prefill step).
    pub prefill_out: Matrix,
    /// Stacked outputs of the decode steps (`[decode_steps, hidden]`).
    pub decoded: Matrix,
    /// Scheduler step count when the request was admitted.
    pub arrived_step: u64,
    /// Scheduler step count when the request finished; `finished_step -
    /// arrived_step` is the request's latency in scheduler steps.
    pub finished_step: u64,
}

/// How a submitted request ended. Every id handed out by
/// [`Server::submit`] resolves to exactly one of these, consumed once by
/// [`Server::wait`].
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// Ran to completion; the payload is the full result.
    Finished(Completed),
    /// Cancelled — by [`Server::cancel`], [`Server::abort`], or an
    /// injected [`Fault::CancelActive`](crate::fault::Fault) — before it
    /// finished. Its session was released between steps.
    Cancelled {
        /// Decode tokens delivered before the cancellation took effect —
        /// each counted once, even when a recovery replay rewound the
        /// request after delivering it.
        decoded_tokens: u64,
    },
    /// Missed its deadline (scheduler-step or wall-clock) and was expired
    /// between steps, whether still queued or already in flight.
    DeadlineExceeded {
        /// Decode tokens delivered before expiry (0 if never admitted),
        /// counted as for [`RequestOutcome::Cancelled`].
        decoded_tokens: u64,
    },
    /// Shed at submission: the bounded arrival queue was full
    /// ([`ServeConfig::queue_capacity`]). The request never touched the
    /// engine.
    Rejected {
        /// Queue depth observed when the request was shed.
        queue_depth: usize,
    },
    /// The engine's step failed for this specific request — a caught
    /// panic or model error reproduced in isolation — and the request was
    /// released. Concurrent requests keep running.
    Failed {
        /// The panic message or model error, for diagnostics.
        error: String,
    },
}

impl RequestOutcome {
    /// The completed result, if the request [`Finished`](Self::Finished).
    pub fn finished(self) -> Option<Completed> {
        match self {
            RequestOutcome::Finished(c) => Some(c),
            _ => None,
        }
    }

    /// A short stable label for logs/metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestOutcome::Finished(_) => "finished",
            RequestOutcome::Cancelled { .. } => "cancelled",
            RequestOutcome::DeadlineExceeded { .. } => "deadline_exceeded",
            RequestOutcome::Rejected { .. } => "rejected",
            RequestOutcome::Failed { .. } => "failed",
        }
    }
}

/// Typed misuse/liveness errors of the serving API — every former
/// panic-on-misuse path of [`Server::wait`]/[`Server::submit`] lands here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The id was never issued by this server.
    UnknownRequest {
        /// The offending id.
        id: u64,
    },
    /// The id's outcome was already consumed by an earlier
    /// [`Server::wait`] (outcomes are handed out once).
    AlreadyConsumed {
        /// The offending id.
        id: u64,
    },
    /// The server was shut down; no new work is accepted.
    ShutDown,
    /// The engine exited without resolving this request: a panic escaped
    /// the engine's isolation (which the chaos tests exist to rule out),
    /// or a ticked server's `Ticker` was dropped.
    EngineDown {
        /// Why the engine is gone.
        reason: String,
    },
    /// Submit-time validation failed (shape, width, non-finite values).
    Invalid(Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownRequest { id } => {
                write!(f, "request {id} was never submitted to this server")
            }
            ServeError::AlreadyConsumed { id } => {
                write!(f, "request {id}'s outcome was already consumed")
            }
            ServeError::ShutDown => write!(f, "server is shut down"),
            ServeError::EngineDown { reason } => write!(f, "serve engine is down: {reason}"),
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Error> for ServeError {
    fn from(e: Error) -> Self {
        ServeError::Invalid(e)
    }
}

/// Aggregate scheduler counters (monotonic over the server's lifetime),
/// snapshotted by [`Server::stats`] — the numbers the `m2x-gateway`
/// `/metrics` endpoint renders.
///
/// ```
/// use m2x_nn::model::ModelBuilder;
/// use m2x_nn::profile::ModelProfile;
/// use m2x_serve::{ServeConfig, ServeError, Server};
/// use m2x_tensor::Matrix;
/// use std::sync::Arc;
///
/// let weights = Arc::new(
///     ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1).build_weights()?,
/// );
/// let server = Server::start(weights, ServeConfig::default());
/// let prompt = Matrix::from_fn(1, 64, |_, c| (c as f32 * 0.02).cos() * 0.3);
/// let id = server.submit(prompt, 3)?;
/// server.wait(id)?;
/// let stats = server.stats();
/// assert_eq!(stats.decoded_tokens, 3);
/// assert!(stats.steps >= 4); // prefill + 3 decode steps
/// # Ok::<(), ServeError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Batched scheduler steps executed.
    pub steps: u64,
    /// Total decode tokens delivered across all requests, each counted
    /// once when first reported: a recovery replay that re-derives a
    /// delivered token does not count it again, and the tokens a request
    /// delivered before it failed stay counted.
    pub decoded_tokens: u64,
    /// Largest number of requests in flight during one step.
    pub peak_batch: usize,
    /// Requests shed at submission because the arrival queue was full.
    pub rejected: u64,
    /// Requests cancelled (explicitly or by [`Server::abort`]).
    pub cancelled: u64,
    /// Requests expired past their deadline.
    pub deadline_exceeded: u64,
    /// Requests failed by a step panic or model error.
    pub failed: u64,
    /// Panics caught by the engine's isolation (each batched attempt and
    /// each isolated replay counts one).
    pub panics_recovered: u64,
    /// Scheduler ticks that ran the reset-and-replay recovery pass.
    pub recovery_ticks: u64,
    /// Largest arrival-queue depth observed at submission.
    pub peak_queue_depth: usize,
    /// p99 engine step latency in µs over the server's lifetime, derived
    /// from the step-latency [`Histogram`] (0 until a step has run;
    /// quantiles carry the histogram's ≤ 1/16 relative bucket error).
    pub p99_step_us: f64,
    /// The KV page pool's counters, read live by [`Server::stats`]: pages
    /// in use (each page once, the prefix index's retained pages
    /// included) and their high-water mark, fresh allocs and free-list
    /// reuses, copy-on-write forks, prefix hits and misses, and the
    /// shared and free page gauges.
    pub kv_pool: PoolStats,
    /// **Packed** KV bytes held by in-flight sessions (gauge): the
    /// three-stream payload (FP4 codes | E8M0 scales | 2-bit meta) —
    /// exactly what [`ServeConfig::kv_budget_bytes`](crate::ServeConfig)
    /// meters at admission. Shared pages count once per holder, matching
    /// the admission sum.
    pub kv_packed_bytes: u64,
    /// **Decoded** KV bytes held by in-flight sessions (gauge): the K
    /// score-GEMM kernel operands decoded from the packed K streams
    /// (8.25-bit [`WeightPlane`](m2xfp::gemm::WeightPlane)s) plus the
    /// dequantized f32 V row cache. Reported for honest accounting — this
    /// memory exists — but *not* gated: the budget meters the packed
    /// payload above.
    pub kv_decoded_bytes: u64,
    /// Unused token-row fraction of the pages in flight (gauge):
    /// `1 - tokens / (pages × page_tokens)`, 0.0 when no pages are held.
    /// High values mean many partially-filled tail pages.
    pub kv_fragmentation: f64,
    /// Packed weight bytes of the served model (gauge): the three-stream
    /// payload of every projection ([`ModelWeights::weight_bytes`]).
    pub weight_packed_bytes: u64,
    /// Kernel-operand weight bytes of the served model (gauge): the
    /// decoded planes every projection multiplies, resident next to the
    /// packed streams ([`ModelWeights::operand_bytes`]).
    pub weight_operand_bytes: u64,
}

/// A point-in-time copy of the scheduler's latency histograms and
/// per-stage time split, taken by [`Server::telemetry_snapshot`] — the
/// data behind the `m2x-gateway` `/metrics` histogram families and the
/// bench driver's per-stage breakdown. Unlike [`Telemetry::drain`] this
/// is non-destructive: histograms and the stage tally accumulate over the
/// server's lifetime.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Engine step (tick) wall latency, µs.
    pub step_us: Histogram,
    /// Time to first decode token, µs from submission (queue wait
    /// included); one sample per request that produced at least one token.
    pub ttft_us: Histogram,
    /// Queue wait, µs from submission to admission; one sample per
    /// admitted request.
    pub queue_wait_us: Histogram,
    /// Decode tokens delivered per resolved request (0 for requests that
    /// never produced one — rejected, expired-in-queue — and for every
    /// failed request, even one that streamed rows before it failed).
    pub tokens_per_request: Histogram,
    /// Cumulative per-stage engine time over all ticks (see
    /// [`stage`]): assemble/encode/qgemm/attention/kv_append/feedback.
    pub stages: StageTally,
}

/// One decode-step event of a streaming request, returned by
/// [`Server::next_token`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// Decode step `index` produced `row` (`[1, hidden]`) — bit-identical
    /// to row `index` of the solo run's decode output, even across panic
    /// recovery (a replay regenerates the same bits, so an already
    /// streamed prefix is never invalidated).
    Token {
        /// Zero-based decode-step index of this row.
        index: usize,
        /// The decode output row.
        row: Matrix,
    },
    /// The request resolved and no further tokens will arrive. Consumes
    /// the outcome exactly like [`Server::wait`] (a later `wait`/
    /// `next_token` on the same id is [`ServeError::AlreadyConsumed`]).
    Done(RequestOutcome),
}

/// When a request expires, fixed at submission and checked between steps
/// whether the request is still queued or already running.
struct Deadline {
    /// Step counter to expire at, if a step deadline was set.
    step: Option<u64>,
    /// Wall-clock instant to expire at, if a wall deadline was set.
    at: Option<Instant>,
}

impl Deadline {
    fn passed(&self, now_step: u64, now: Instant) -> bool {
        self.step.is_some_and(|s| now_step >= s) || self.at.is_some_and(|t| now >= t)
    }
}

struct Pending {
    id: u64,
    prompt: Matrix,
    decode_steps: usize,
    deadline: Deadline,
    /// Publish decode rows incrementally ([`RequestOptions::stream`]).
    stream: bool,
    /// When the request was submitted, on the scheduler's clock
    /// (queue-wait / TTFT base).
    submitted_at: Instant,
    /// Submission time on the telemetry clock, for lifecycle spans.
    submitted_us: u64,
}

/// One in-flight request, owned by the engine between ticks.
struct Active {
    id: u64,
    /// The original prompt, kept so a recovery pass can replay the request
    /// from scratch (generation is closed-loop deterministic).
    prompt: Matrix,
    decode_steps: usize,
    session: SessionState,
    next_input: Matrix,
    prefilling: bool,
    prefill_out: Matrix,
    decoded: Matrix,
    arrived_step: u64,
    deadline: Deadline,
    stream: bool,
    /// When the request was submitted (TTFT base).
    submitted_at: Instant,
    /// Whether the end of this request's prefill has been marked: its
    /// prefix registered with the pool's prefix index and its prefill
    /// trace instant emitted. Set once and kept across recovery replays,
    /// so a replay never re-freezes pages and the lifecycle trace shows
    /// each transition exactly once.
    prefill_marked: bool,
    /// Decode rows reported so far: each got its token trace instant, a
    /// count in [`ServeStats::decoded_tokens`] and, for a streaming
    /// request, its published row, and the first one the TTFT sample. A
    /// high-water mark: a recovery replay regrowing `decoded` from zero
    /// re-derives identical rows, so reported rows stay valid and are
    /// never reported twice. A cancel, deadline or abort resolves the
    /// request with this count.
    reported: usize,
    /// Prefill output rows of an adopted shared prefix (frozen alongside
    /// the pages, so they are bit-identical to recomputing them).
    /// `consume` stitches them in front of the suffix prefill output so
    /// [`Completed::prefill_out`] always covers the whole prompt.
    adopted_out: Option<Matrix>,
}

impl Active {
    fn admit(p: Pending, weights: &ModelWeights, arrived_step: u64) -> Self {
        let hidden = weights.hidden();
        let mut session = weights.new_session();
        // Prefix adoption: if a frozen prefix of this prompt is in the
        // pool's index, the session starts on those shared pages and only
        // the suffix rows go through prefill. Bit-identity holds because
        // the frozen pages and output rows are verified byte-equal to
        // what prefilling the prefix would produce.
        let mut next_input = p.prompt.clone();
        let mut adopted_out = None;
        if let Some(m) = weights.kv_pool().lookup_prefix(&p.prompt) {
            let t0 = m.tokens;
            adopted_out = Some(session.adopt_prefix(m));
            next_input = p.prompt.block(t0, 0, p.prompt.rows() - t0, p.prompt.cols());
        }
        Active {
            id: p.id,
            session,
            next_input,
            prompt: p.prompt,
            prefilling: true,
            decode_steps: p.decode_steps,
            prefill_out: Matrix::zeros(0, hidden),
            decoded: Matrix::zeros(0, hidden),
            arrived_step,
            deadline: p.deadline,
            stream: p.stream,
            submitted_at: p.submitted_at,
            prefill_marked: false,
            reported: 0,
            adopted_out,
        }
    }

    /// Folds one step's output rows into the request.
    fn consume(&mut self, y: Matrix) {
        self.next_input = feedback_token(&y);
        if self.prefilling {
            // A suffix-only prefill (adopted prefix) still reports the
            // full prompt's output: the adopted rows go in front.
            self.prefill_out = match self.adopted_out.take() {
                Some(mut pre) => {
                    pre.push_rows(&y);
                    pre
                }
                None => y,
            };
            self.prefilling = false;
        } else {
            self.decoded.push_rows(&y);
        }
    }

    fn finished(&self) -> bool {
        !self.prefilling && self.decoded.rows() == self.decode_steps
    }

    /// Rewinds the request to its prompt for a recovery replay: fresh KV
    /// state, original inputs, progress discarded (`reported` keeps its
    /// mark). Adoption is discarded too — the replay prefills the full
    /// prompt from scratch, so a fault can never hide behind a shared
    /// page — while `prefill_marked` survives, so replays never re-freeze
    /// pages.
    fn reset_for_replay(&mut self) {
        self.session.reset();
        self.adopted_out = None;
        self.next_input = self.prompt.clone();
        self.prefilling = true;
        self.prefill_out = Matrix::zeros(0, self.prefill_out.cols());
        self.decoded = Matrix::zeros(0, self.decoded.cols());
    }

    fn into_completed(self, finished_step: u64) -> Completed {
        Completed {
            id: self.id,
            prefill_out: self.prefill_out,
            decoded: self.decoded,
            arrived_step: self.arrived_step,
            finished_step,
        }
    }
}

#[derive(Default)]
struct Queues {
    next_id: u64,
    pending: VecDeque<Pending>,
    done: BTreeMap<u64, RequestOutcome>,
    /// Ids whose [`RequestOutcome`] has already been handed to a waiter.
    claimed: BTreeSet<u64>,
    /// Cancellation flags for in-flight ids, acted on by the engine
    /// between steps and cleared when the id resolves (pending ids are
    /// cancelled inline by [`Server::cancel`]).
    cancels: BTreeSet<u64>,
    /// Decode rows published so far for streaming requests
    /// ([`RequestOptions::stream`]), appended by the engine between steps
    /// and drained by [`Server::next_token`]. A buffer lives until its
    /// request's outcome is consumed. During panic recovery a request's
    /// internal progress may temporarily fall behind its published rows;
    /// replay regenerates identical bits, so the published prefix stays
    /// authoritative and is never rolled back.
    streams: BTreeMap<u64, Vec<Matrix>>,
    stats: ServeStats,
    /// Lifetime latency histograms + per-stage time split, snapshotted by
    /// [`Server::telemetry_snapshot`] (see [`TelemetrySnapshot`] for the
    /// field semantics). Recording into them is allocation-free.
    telemetry: TelemetrySnapshot,
    shutdown: bool,
    /// Abort-mode shutdown: cancel in-flight work instead of draining it.
    abort: bool,
    /// Set (with a reason) if a panic escapes the engine's isolation —
    /// waiters then error out instead of blocking forever.
    engine_down: Option<String>,
    /// Set when the engine exits for any reason.
    engine_exited: bool,
    /// The virtual clock of a ticked server (`Server::ticked`): the
    /// instant of its last tick, which submissions are stamped with.
    /// `None` on a threaded server, whose submissions read the wall
    /// clock.
    virtual_now: Option<Instant>,
}

impl Queues {
    /// Resolves `id` to `outcome`, the one exit of every request: bumps
    /// the outcome's counter, emits its terminal instant on `ring`
    /// (valued at the decoded tokens, or the queue depth for
    /// [`RequestOutcome::Rejected`]), records the `tokens_per_request`
    /// sample, drops any cancel flag and stores the outcome for its
    /// waiter. The caller notifies `done_cv`.
    // m2x-lint: hot
    fn resolve(&mut self, ring: &TraceHandle, id: u64, outcome: RequestOutcome) {
        let (event, tokens, value) = match &outcome {
            RequestOutcome::Finished(c) => {
                let n = c.decoded.rows() as u64;
                (stage::REQ_FINISHED, n, n)
            }
            RequestOutcome::Cancelled { decoded_tokens: n } => {
                self.stats.cancelled += 1;
                (stage::REQ_CANCELLED, *n, *n)
            }
            RequestOutcome::DeadlineExceeded { decoded_tokens: n } => {
                self.stats.deadline_exceeded += 1;
                (stage::REQ_DEADLINE, *n, *n)
            }
            RequestOutcome::Rejected { queue_depth } => {
                self.stats.rejected += 1;
                (stage::REQ_REJECTED, 0, *queue_depth as u64)
            }
            RequestOutcome::Failed { .. } => {
                self.stats.failed += 1;
                (stage::REQ_FAILED, 0, 0)
            }
        };
        ring.instant(event, id as u32, value);
        self.telemetry.tokens_per_request.record(tokens);
        self.cancels.remove(&id);
        let prior = self.done.insert(id, outcome);
        debug_assert!(
            prior.is_none() && !self.claimed.contains(&id),
            "request {id} resolved twice"
        );
    }
}

struct Shared {
    weights: Arc<ModelWeights>,
    max_batch: usize,
    threads: usize,
    /// Arrival-queue bound (0 = unbounded): submissions past it are shed.
    queue_capacity: usize,
    /// Packed-KV admission budget in bytes (0 = unlimited): admission
    /// stops (but serving continues) while in-flight KV is at or past it.
    kv_budget: usize,
    /// Packed K+V bytes one token adds to a session: what admission
    /// charges a request per prompt row it will prefill.
    kv_token_bytes: usize,
    q: Mutex<Queues>,
    /// Wakes the engine: new arrival, cancellation or shutdown.
    work_cv: Condvar,
    /// Wakes waiters: an outcome landed or the engine died.
    done_cv: Condvar,
    /// Shared tracing registry ([`ServeConfig::telemetry`] sets its
    /// initial on/off state); exposed via [`Server::telemetry`] so the
    /// gateway can register its own rings on the same clock.
    telemetry: Arc<Telemetry>,
    /// Engine-thread ring: TICK + stage spans, lifecycle transitions.
    engine_trace: TraceHandle,
    /// API-thread ring: submit/reject/inline-cancel instants.
    api_trace: TraceHandle,
}

impl Shared {
    fn new(weights: Arc<ModelWeights>, cfg: ServeConfig) -> Arc<Self> {
        let telemetry = Arc::new(Telemetry::new(cfg.telemetry));
        let engine_trace = telemetry.register("engine", ENGINE_RING_EVENTS);
        let api_trace = telemetry.register("api", API_RING_EVENTS);
        Arc::new(Shared {
            threads: cfg.worker_threads,
            max_batch: cfg.max_batch.max(1),
            queue_capacity: cfg.queue_capacity,
            kv_budget: cfg.kv_budget_bytes,
            kv_token_bytes: kv_token_bytes(weights.kv_pool().geometry()),
            weights,
            q: Mutex::new(Queues::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            telemetry,
            engine_trace,
            api_trace,
        })
    }
}

/// Packed K+V bytes one token adds to a session over pool geometry `g`:
/// per layer and KV head, one K row and one V row of `head_dim` values,
/// each quantization group of which packs `group_size` FP4 codes two to a
/// byte, one E8M0 scale byte and a 2-bit code per subgroup. Exact for
/// subgroup counts that fill whole metadata bytes (the production 4 per
/// group), rounded up otherwise.
pub(crate) fn kv_token_bytes(g: &PoolGeometry) -> usize {
    let cfg = g.cfg;
    let groups = g.head_dim.div_ceil(cfg.group_size);
    let meta_bits = groups * (cfg.group_size / cfg.subgroup_size) * 2;
    let row = groups * (cfg.group_size.div_ceil(2) + 1) + meta_bits.div_ceil(8);
    2 * g.layers * g.kv_heads * row
}

/// A running serving instance: one engine thread, one shared weight set,
/// any number of submitting/waiting/cancelling threads.
///
/// Shutdown ordering: [`Server::shutdown`] (and [`Drop`]) stops admission,
/// **drains** — every already-submitted request still resolves (finish,
/// cancel, deadline, fail) — then joins the engine thread.
/// [`Server::abort`] instead cancels all queued and in-flight work, then
/// joins. Both are deterministic: after either returns, every id has an
/// outcome and every session has been released.
pub struct Server {
    shared: Arc<Shared>,
    engine: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the engine thread over an `Arc`-shared prepared model.
    pub fn start(weights: Arc<ModelWeights>, cfg: ServeConfig) -> Self {
        Self::start_with_faults(weights, cfg, FaultPlan::none())
    }

    /// [`Server::start`] plus a deterministic [`FaultPlan`] the engine
    /// fires at its scheduled ticks — the chaos-testing entry point (see
    /// [`crate::fault`]).
    pub fn start_with_faults(
        weights: Arc<ModelWeights>,
        cfg: ServeConfig,
        plan: FaultPlan,
    ) -> Self {
        let engine = Engine::new(Shared::new(weights, cfg), plan);
        let shared = Arc::clone(&engine.shared);
        let thread = std::thread::Builder::new()
            .name("m2x-serve-engine".into())
            .spawn(move || engine_loop(engine))
            // m2x-lint: allow(panic) construction-time spawn fails only on OS thread exhaustion; surfacing it at startup is intentional
            .expect("spawning the serve engine thread");
        Server {
            shared,
            engine: Some(thread),
        }
    }

    /// [`Server::start_with_faults`] with no engine thread: the returned
    /// [`Ticker`] runs the same scheduler tick when the caller asks, at a
    /// virtual clock, so a test writes out each interleaving it needs.
    /// Until the first tick the clock reads the construction instant.
    /// Blocking calls ([`Server::wait`], [`Server::next_token`]) return
    /// once the caller has ticked the request to its outcome, or error
    /// once the `Ticker` is dropped; [`Server::shutdown`] stops admission
    /// but drains nothing.
    #[doc(hidden)]
    pub fn ticked(weights: Arc<ModelWeights>, cfg: ServeConfig, plan: FaultPlan) -> (Self, Ticker) {
        let base = Instant::now();
        let engine = Engine::new(Shared::new(weights, cfg), plan);
        lock_queues(&engine.shared).virtual_now = Some(base);
        let server = Server {
            shared: Arc::clone(&engine.shared),
            engine: None,
        };
        (server, Ticker { engine, base })
    }

    /// Enqueues a generation request (open-loop: returns immediately) and
    /// hands back the id to [`Self::wait`] on. The request prefills
    /// `prompt` and then runs `decode_steps` closed-loop decode steps
    /// through [`feedback_token`].
    ///
    /// If the arrival queue is at [`ServeConfig::queue_capacity`], the
    /// request is **shed**: an id is still returned, and its outcome is
    /// [`RequestOutcome::Rejected`] — overload is an outcome, not an
    /// error, so callers can distinguish it from caller bugs.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] on an empty prompt, an input width
    /// mismatch, or a prompt containing NaN/Inf values — non-finite rows
    /// would flow into the online quantizer and poison the engine thread
    /// mid-batch, taking every concurrent request down with an error that
    /// belongs to this one. [`ServeError::ShutDown`] after
    /// [`Server::shutdown`]/[`Server::abort`]: the request would queue
    /// into a dead engine.
    pub fn submit(&self, prompt: Matrix, decode_steps: usize) -> Result<u64, ServeError> {
        self.submit_with(prompt, decode_steps, RequestOptions::default())
    }

    /// [`Server::submit`] with per-request [`RequestOptions`]: deadlines
    /// in scheduler steps and/or wall-clock time, counted from
    /// submission (queue wait included), and opt-in token streaming.
    ///
    /// ```
    /// use m2x_nn::model::ModelBuilder;
    /// use m2x_nn::profile::ModelProfile;
    /// use m2x_serve::{RequestOptions, RequestOutcome, ServeConfig, ServeError, Server};
    /// use m2x_tensor::Matrix;
    /// use std::sync::Arc;
    ///
    /// let weights = Arc::new(
    ///     ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1).build_weights()?,
    /// );
    /// let server = Server::start(weights, ServeConfig::default());
    /// let prompt = Matrix::from_fn(2, 64, |r, c| ((r + c) as f32 * 0.01).tanh());
    /// // A 0-step deadline expires before the request is ever admitted.
    /// let id = server.submit_with(
    ///     prompt,
    ///     100,
    ///     RequestOptions { deadline_steps: Some(0), ..RequestOptions::default() },
    /// )?;
    /// assert!(matches!(
    ///     server.wait(id)?,
    ///     RequestOutcome::DeadlineExceeded { decoded_tokens: 0 }
    /// ));
    /// # Ok::<(), ServeError>(())
    /// ```
    pub fn submit_with(
        &self,
        prompt: Matrix,
        decode_steps: usize,
        opts: RequestOptions,
    ) -> Result<u64, ServeError> {
        if prompt.rows() == 0 {
            return Err(Error::config("prompt must contain at least one token").into());
        }
        if prompt.cols() != self.shared.weights.hidden() {
            return Err(ServeError::Invalid(Error::WidthMismatch {
                tensor: "serve prompt".to_string(),
                expected: self.shared.weights.hidden(),
                got: prompt.cols(),
            }));
        }
        crate::check_finite(&prompt)?;
        let wall = Instant::now();
        let submitted_us = self.shared.telemetry.now_us();
        let mut q = self.lock();
        if q.shutdown {
            return Err(ServeError::ShutDown);
        }
        let now = q.virtual_now.unwrap_or(wall);
        let id = q.next_id;
        q.next_id += 1;
        self.shared
            .api_trace
            .instant(stage::REQ_SUBMITTED, id as u32, prompt.rows() as u64);
        if self.shared.queue_capacity > 0 && q.pending.len() >= self.shared.queue_capacity {
            let queue_depth = q.pending.len();
            q.resolve(
                &self.shared.api_trace,
                id,
                RequestOutcome::Rejected { queue_depth },
            );
            self.shared.done_cv.notify_all();
            return Ok(id);
        }
        // A deadline past the representable range is no deadline.
        let deadline = Deadline {
            step: opts
                .deadline_steps
                .and_then(|d| q.stats.steps.checked_add(d)),
            at: opts.deadline.and_then(|d| now.checked_add(d)),
        };
        q.pending.push_back(Pending {
            id,
            prompt,
            decode_steps,
            deadline,
            stream: opts.stream,
            submitted_at: now,
            submitted_us,
        });
        q.stats.peak_queue_depth = q.stats.peak_queue_depth.max(q.pending.len());
        self.shared.work_cv.notify_one();
        Ok(id)
    }

    /// Requests cancellation of `id`. A still-queued request is cancelled
    /// inline; an in-flight one is flagged and released by the engine
    /// **between** steps (its KV memory reclaimed before the next
    /// admission). Returns `true` if the cancellation was recorded while
    /// the request was unresolved, `false` if it had already resolved —
    /// either way [`Server::wait`] reports the authoritative outcome
    /// (best-effort: a request may still finish in the step racing the
    /// flag).
    ///
    /// ```
    /// use m2x_nn::model::ModelBuilder;
    /// use m2x_nn::profile::ModelProfile;
    /// use m2x_serve::{RequestOutcome, ServeConfig, ServeError, Server};
    /// use m2x_tensor::Matrix;
    /// use std::sync::Arc;
    ///
    /// let weights = Arc::new(
    ///     ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1).build_weights()?,
    /// );
    /// let server = Server::start(weights, ServeConfig::default());
    /// let prompt = Matrix::from_fn(1, 64, |_, c| (c as f32 * 0.01).tanh());
    /// let id = server.submit(prompt, 50_000)?; // far too long to finish
    /// server.cancel(id)?;
    /// assert!(matches!(server.wait(id)?, RequestOutcome::Cancelled { .. }));
    /// # Ok::<(), ServeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRequest`] if `id` was never issued here.
    pub fn cancel(&self, id: u64) -> Result<bool, ServeError> {
        let mut q = self.lock();
        if id >= q.next_id {
            return Err(ServeError::UnknownRequest { id });
        }
        if q.done.contains_key(&id) || q.claimed.contains(&id) {
            return Ok(false);
        }
        if let Some(pos) = q.pending.iter().position(|p| p.id == id) {
            q.pending.remove(pos);
            q.resolve(
                &self.shared.api_trace,
                id,
                RequestOutcome::Cancelled { decoded_tokens: 0 },
            );
            self.shared.done_cv.notify_all();
            return Ok(true);
        }
        q.cancels.insert(id);
        self.shared.work_cv.notify_one();
        Ok(true)
    }

    /// Blocks until request `id` resolves and returns its
    /// [`RequestOutcome`]. Each outcome is handed out **once**: the first
    /// `wait(id)` consumes it.
    ///
    /// ```
    /// use m2x_nn::model::ModelBuilder;
    /// use m2x_nn::profile::ModelProfile;
    /// use m2x_serve::{ServeConfig, ServeError, Server};
    /// use m2x_tensor::Matrix;
    /// use std::sync::Arc;
    ///
    /// let weights = Arc::new(
    ///     ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1).build_weights()?,
    /// );
    /// let server = Server::start(weights, ServeConfig::default());
    /// let prompt = Matrix::from_fn(2, 64, |r, c| ((r + c) as f32 * 0.01).sin());
    /// let id = server.submit(prompt, 4)?;
    /// let done = server.wait(id)?.finished().expect("no faults in play");
    /// assert_eq!(done.decoded.rows(), 4);
    /// // Outcomes are consumed once: a second wait is a typed error.
    /// assert_eq!(server.wait(id), Err(ServeError::AlreadyConsumed { id }));
    /// # Ok::<(), ServeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRequest`] if `id` was never issued here,
    /// [`ServeError::AlreadyConsumed`] on a second wait for the same id,
    /// [`ServeError::EngineDown`] if the engine exited without resolving
    /// the request (never blocks forever).
    pub fn wait(&self, id: u64) -> Result<RequestOutcome, ServeError> {
        // No stream ever holds a row at `usize::MAX`, so this blocking
        // read returns only the outcome.
        match self.next_token(id, usize::MAX)? {
            StreamEvent::Done(outcome) => Ok(outcome),
            StreamEvent::Token { .. } => unreachable!("no stream reaches row usize::MAX"),
        }
    }

    /// Blocks until decode step `cursor` of streaming request `id` is
    /// available (returning [`StreamEvent::Token`]) or the request has
    /// resolved with no row at `cursor` (returning [`StreamEvent::Done`],
    /// which **consumes** the outcome like [`Server::wait`]).
    ///
    /// Drive it with a monotonically increasing cursor starting at 0 —
    /// each `Token { index, .. }` is followed by a call with
    /// `cursor == index + 1`. The request must have been submitted with
    /// [`RequestOptions::stream`] set for tokens to arrive before
    /// completion; without it, the first call blocks until resolution and
    /// returns `Done` directly.
    ///
    /// Tokens are published **between** engine steps, after the step's
    /// outputs are final; a row handed out here is bit-identical to the
    /// same row of the solo run and is never retracted, even if a panic
    /// recovery later replays the request.
    ///
    /// # Errors
    ///
    /// The same misuse/liveness errors as [`Server::wait`]:
    /// [`ServeError::UnknownRequest`], [`ServeError::AlreadyConsumed`]
    /// (the outcome was already handed out), [`ServeError::EngineDown`].
    pub fn next_token(&self, id: u64, cursor: usize) -> Result<StreamEvent, ServeError> {
        let mut q = self.lock();
        if id >= q.next_id {
            return Err(ServeError::UnknownRequest { id });
        }
        if q.claimed.contains(&id) {
            return Err(ServeError::AlreadyConsumed { id });
        }
        loop {
            if let Some(buf) = q.streams.get(&id) {
                if cursor < buf.len() {
                    return Ok(StreamEvent::Token {
                        index: cursor,
                        row: buf[cursor].clone(),
                    });
                }
            }
            if let Some(done) = q.done.remove(&id) {
                q.claimed.insert(id);
                q.streams.remove(&id);
                return Ok(StreamEvent::Done(done));
            }
            if let Some(reason) = &q.engine_down {
                return Err(ServeError::EngineDown {
                    reason: reason.clone(),
                });
            }
            if q.engine_exited {
                return Err(ServeError::EngineDown {
                    reason: "the engine exited before the request resolved".to_string(),
                });
            }
            q = wait_poisoned(&self.shared.done_cv, q);
        }
    }

    /// Streaming analogue of [`Server::wait`]: invokes `on_token` for
    /// every decode row as the engine produces it, then returns the
    /// request's [`RequestOutcome`] (consuming it). The rows passed to
    /// `on_token`, in order, are exactly the prefix of the solo run's
    /// decode output that the request got through before resolving —
    /// all of it when the outcome is [`RequestOutcome::Finished`].
    ///
    /// ```
    /// use m2x_nn::model::ModelBuilder;
    /// use m2x_nn::profile::ModelProfile;
    /// use m2x_serve::{run_solo, RequestOptions, ServeConfig, ServeError, Server};
    /// use m2x_tensor::Matrix;
    /// use std::sync::Arc;
    ///
    /// let weights = Arc::new(
    ///     ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1).build_weights()?,
    /// );
    /// let server = Server::start(Arc::clone(&weights), ServeConfig::default());
    /// let prompt = Matrix::from_fn(2, 64, |r, c| ((r * 64 + c) as f32 * 0.1).sin() * 0.5);
    /// let opts = RequestOptions { stream: true, ..RequestOptions::default() };
    /// let id = server.submit_with(prompt.clone(), 3, opts)?;
    ///
    /// let mut streamed = Matrix::zeros(0, 64);
    /// let outcome = server.wait_streaming(id, |_, row| streamed.push_rows(row))?;
    /// assert_eq!(outcome.kind(), "finished");
    /// assert_eq!(streamed, run_solo(&weights, &prompt, 3)?); // bit-identical
    /// # Ok::<(), ServeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`Server::next_token`].
    pub fn wait_streaming(
        &self,
        id: u64,
        mut on_token: impl FnMut(usize, &Matrix),
    ) -> Result<RequestOutcome, ServeError> {
        let mut cursor = 0;
        loop {
            match self.next_token(id, cursor)? {
                StreamEvent::Token { index, row } => {
                    on_token(index, &row);
                    cursor = index + 1;
                }
                StreamEvent::Done(outcome) => return Ok(outcome),
            }
        }
    }

    /// `true` while the server can make progress on new submissions: the
    /// engine thread is alive and [`Server::shutdown`]/[`Server::abort`]
    /// has not been called. The `m2x-gateway` `/healthz` endpoint reports
    /// exactly this.
    pub fn healthy(&self) -> bool {
        let q = self.lock();
        q.engine_down.is_none() && !q.engine_exited && !q.shutdown
    }

    /// Aggregate scheduler counters so far. Lock-poison-tolerant: the
    /// queue mutex is recovered on poisoning (see `lock_queues`), so
    /// stats stay readable even while the engine is mid-recovery from a
    /// caught panic.
    pub fn stats(&self) -> ServeStats {
        let mut stats = {
            let q = self.lock();
            let mut stats = q.stats;
            stats.p99_step_us = if q.telemetry.step_us.is_empty() {
                0.0
            } else {
                q.telemetry.step_us.quantile(0.99) as f64
            };
            stats
        };
        // Pool counters are read live (the pool keeps its own totals),
        // so they are current even between engine ticks.
        stats.kv_pool = self.shared.weights.kv_pool().stats();
        stats.weight_packed_bytes = self.shared.weights.weight_bytes() as u64;
        stats.weight_operand_bytes = self.shared.weights.operand_bytes() as u64;
        stats
    }

    /// The server's tracing registry: flip recording on/off at runtime
    /// ([`Telemetry::set_enabled`]), register additional rings on the
    /// same clock (the gateway does), or [`drain`](Telemetry::drain) the
    /// buffered trace — the `m2x-gateway` `GET /v1/trace` endpoint is a
    /// Chrome-trace rendering of exactly that drain.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// Copies the lifetime latency histograms and per-stage time split
    /// (non-destructive, unlike [`Telemetry::drain`]). Cold path: clones
    /// four histograms.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.lock().telemetry.clone()
    }

    /// Graceful shutdown: stops admission (later [`Server::submit`]s
    /// return [`ServeError::ShutDown`]), **drains** every
    /// already-submitted request to an outcome, joins the engine thread,
    /// and returns the final stats. Idempotent; [`Drop`] calls it.
    pub fn shutdown(&mut self) -> ServeStats {
        {
            let mut q = self.lock();
            q.shutdown = true;
        }
        self.join_engine()
    }

    /// Hard shutdown: stops admission and **cancels** every queued and
    /// in-flight request (outcome [`RequestOutcome::Cancelled`], sessions
    /// released) instead of draining, then joins the engine thread.
    pub fn abort(&mut self) -> ServeStats {
        {
            let mut q = self.lock();
            q.shutdown = true;
            q.abort = true;
        }
        self.join_engine()
    }

    fn join_engine(&mut self) -> ServeStats {
        self.shared.work_cv.notify_all();
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
        // The prefix index and its retained frozen pages serve future
        // admissions; with the engine gone there are none, so drop them —
        // every pool page returns to the free list (the zero-leak
        // invariant `kv_pool.zero_leak` gates in CI).
        self.shared.weights.kv_pool().clear_retained();
        self.stats()
    }

    fn lock(&self) -> MutexGuard<'_, Queues> {
        lock_queues(&self.shared)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Locks the queue state, recovering from poisoning: every mutation of the
/// queue state happens under the lock in panic-free sections (the engine's
/// model calls run outside the lock, behind `catch_unwind`), so a poisoned
/// mutex still guards consistent data.
fn lock_queues(shared: &Shared) -> MutexGuard<'_, Queues> {
    lock_poisoned(&shared.q)
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "step panicked".to_string()
    }
}

/// Resolves every queued and in-flight request as cancelled (the abort
/// shutdown path); sessions drop here, releasing their KV memory.
fn abort_all(shared: &Shared, q: &mut Queues, active: &mut Vec<Active>) {
    while let Some(p) = q.pending.pop_front() {
        let outcome = RequestOutcome::Cancelled { decoded_tokens: 0 };
        q.resolve(&shared.engine_trace, p.id, outcome);
    }
    for a in active.drain(..) {
        let decoded_tokens = a.reported as u64;
        q.resolve(
            &shared.engine_trace,
            a.id,
            RequestOutcome::Cancelled { decoded_tokens },
        );
    }
}

/// What the engine owns between ticks. Dropping it (the engine thread's
/// exit, or a [`Ticker`]'s drop) releases the sessions still in flight
/// and publishes "the engine is gone", also when a panic escaped the
/// tick's isolation, so waiters never block on an id that can no longer
/// resolve.
struct Engine {
    shared: Arc<Shared>,
    active: Vec<Active>,
    /// One activation scratch for the engine's lifetime: every scheduler
    /// step's projection GEMMs (and, at one worker, the attention score
    /// GEMVs) reuse it, so the decode hot loop stops allocating activation
    /// planes per call. Reset after any failed step (stale contents are
    /// harmless — see `GemmScratch` — but recovery discards them anyway).
    scratch: StepScratch,
    /// Previous tick's KV pool counter totals; phase 4 diffs against them
    /// to emit page alloc/release trace instants.
    last_pool: PoolStats,
    plan: FaultPlan,
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.active.clear();
        let mut q = lock_queues(&self.shared);
        q.engine_exited = true;
        if std::thread::panicking() {
            q.engine_down = Some("a panic escaped the engine's step isolation".to_string());
        }
        self.shared.done_cv.notify_all();
    }
}

/// A [`Server`]'s engine with no thread, from `Server::ticked`: the
/// caller runs each scheduler tick, at a virtual clock that starts at the
/// server's construction instant. Dropping it exits the engine.
#[doc(hidden)]
pub struct Ticker {
    engine: Engine,
    base: Instant,
}

impl Ticker {
    /// Runs one scheduler tick at the virtual instant `at` past the
    /// server's construction, and stamps later submissions with that
    /// instant. Returns whether requests remain queued or in flight.
    pub fn tick(&mut self, at: Duration) -> bool {
        let now = self.base + at;
        self.engine.tick(now);
        let mut q = lock_queues(&self.engine.shared);
        q.virtual_now = Some(now);
        !self.engine.active.is_empty() || !q.pending.is_empty()
    }
}

/// The engine thread: waits on `work_cv` for work, a shutdown or an
/// abort, then runs one tick at the wall clock. Returns once shut down
/// with nothing left queued or in flight (an abort cancels both first).
/// With requests in flight it ticks straight on, so a decode tick takes
/// the queue lock no more often than the tick itself does.
fn engine_loop(mut engine: Engine) {
    loop {
        if engine.active.is_empty() {
            let shared = &engine.shared;
            let mut q = lock_queues(shared);
            while q.pending.is_empty() {
                if q.shutdown {
                    return;
                }
                q = wait_poisoned(&shared.work_cv, q);
            }
        }
        engine.tick(Instant::now());
    }
}

impl Engine {
    fn new(shared: Arc<Shared>, plan: FaultPlan) -> Self {
        let last_pool = shared.weights.kv_pool().stats();
        Engine {
            shared,
            active: Vec::new(),
            scratch: StepScratch::new(),
            last_pool,
            plan,
        }
    }

    /// One scheduler tick at `now`: lifecycle and admission, the plan's
    /// faults, one batched step with recovery, then bookkeeping and
    /// retirement. Does nothing past phase 1 when no request is in
    /// flight, so the step counter advances only on a step.
    // m2x-lint: hot
    fn tick(&mut self, now: Instant) {
        let Engine {
            shared,
            active,
            scratch,
            last_pool,
            plan,
        } = self;
        let shared: &Shared = shared;

        // ── Phase 1 (locked): lifecycle + admission ─────────────────────
        // Cancellations and deadline expiries resolve here, **between**
        // steps: the released sessions drop before the admission below,
        // so reclaimed KV memory immediately frees budget and batch slots.
        let tick = {
            let mut q = lock_queues(shared);
            if q.abort {
                abort_all(shared, &mut q, active);
                shared.done_cv.notify_all();
                return;
            }
            let now_step = q.stats.steps;
            let mut resolved = false;
            for _ in 0..q.pending.len() {
                let Some(p) = q.pending.pop_front() else {
                    break;
                };
                if p.deadline.passed(now_step, now) {
                    let outcome = RequestOutcome::DeadlineExceeded { decoded_tokens: 0 };
                    q.resolve(&shared.engine_trace, p.id, outcome);
                    resolved = true;
                } else {
                    q.pending.push_back(p);
                }
            }
            active.retain(|a| {
                let decoded_tokens = a.reported as u64;
                let outcome = if q.cancels.contains(&a.id) {
                    RequestOutcome::Cancelled { decoded_tokens }
                } else if a.deadline.passed(now_step, now) {
                    RequestOutcome::DeadlineExceeded { decoded_tokens }
                } else {
                    return true;
                };
                q.resolve(&shared.engine_trace, a.id, outcome);
                resolved = true;
                false
            });
            let mut kv_used: usize = active.iter().map(|a| a.session.kv_bytes()).sum();
            while active.len() < shared.max_batch {
                // Graceful degradation, not a stall: past the KV budget we
                // stop admitting, but at least one request always runs, so
                // the budget drains and admission resumes.
                if shared.kv_budget > 0 && !active.is_empty() && kv_used >= shared.kv_budget {
                    break;
                }
                let Some(p) = q.pending.pop_front() else {
                    break;
                };
                // Queue wait resolves at admission: one histogram sample,
                // and one span stretching from submission to now — the
                // visual "waiting in queue" bar of the Chrome trace.
                let waited_us = now
                    .saturating_duration_since(p.submitted_at)
                    .as_micros()
                    .min(u64::MAX as u128) as u64;
                q.telemetry.queue_wait_us.record(waited_us);
                shared.engine_trace.span(
                    stage::REQ_ADMITTED,
                    p.id as u32,
                    p.submitted_us,
                    p.submitted_us.saturating_add(waited_us),
                    q.pending.len() as u64,
                );
                let a = Active::admit(p, &shared.weights, now_step);
                // Charged before its prefill runs: the adopted prefix
                // pages it already holds plus the packed K+V rows this
                // tick's prefill appends.
                kv_used += a.session.kv_bytes() + a.next_input.rows() * shared.kv_token_bytes;
                active.push(a);
            }
            q.stats.peak_batch = q.stats.peak_batch.max(active.len());
            if resolved {
                shared.done_cv.notify_all();
            }
            now_step
        };
        if active.is_empty() {
            return;
        }

        // ── Phase 2: scheduled faults for this tick ─────────────────────
        // Each fault lands modulo the batch. Cancels land in plan order;
        // the panic is pinned on the batch that then steps. A fault is
        // skipped only when this tick's earlier cancels emptied the batch.
        let mut panic_slot: Option<usize> = None;
        for &fault in plan.take_due(tick) {
            match fault {
                Fault::CancelActive { slot, .. } => {
                    if active.is_empty() {
                        continue;
                    }
                    let a = active.remove(slot % active.len());
                    let decoded_tokens = a.reported as u64;
                    lock_queues(shared).resolve(
                        &shared.engine_trace,
                        a.id,
                        RequestOutcome::Cancelled { decoded_tokens },
                    );
                    shared.done_cv.notify_all();
                }
                Fault::StepPanic { slot, .. } => panic_slot = Some(slot),
            }
        }
        if active.is_empty() {
            return;
        }
        let armed_panic = panic_slot.map(|slot| active[slot % active.len()].id);

        // ── Phase 3: one batched step (isolated), recovery on failure ───
        // Arm the per-tick stage clocks inside the model's scratch: the
        // step books assemble/encode/qgemm/attention/kv_append time into
        // it, and phase 4 merges the split into the lifetime tally.
        let rec = shared.telemetry.enabled();
        scratch.tally.set_enabled(rec);
        scratch.tally.clear();
        let t0_us = if rec { shared.engine_trace.now_us() } else { 0 };
        let t0 = Instant::now();
        let mut caught_panics = 0u64;
        // m2x-lint: allow(alloc) empty Vec does not allocate; grows only on the recovery path
        let mut failed: Vec<(u64, String)> = Vec::new();
        let batched = guarded_step(shared, active, armed_panic, scratch, &mut caught_panics);
        let batched_error = match batched {
            Ok(Ok(outs)) => {
                // Feedback ("sampling") is the one tick stage living
                // outside the model step: fold it into the same tally.
                let tally = &mut scratch.tally;
                tally.time(stage::FEEDBACK, || {
                    for (a, y) in active.iter_mut().zip(outs) {
                        a.consume(y);
                    }
                });
                None
            }
            // m2x-lint: allow(alloc) recovery path, not the healthy decode tick
            Ok(Err(e)) => Some(e.to_string()),
            Err(panic) => Some(panic),
        };
        let recovery = batched_error.is_some();
        if let Some(batched_error) = batched_error {
            // The batched step died mid-flight: a panic or a model error.
            // Every in-flight session is suspect — the failure may have
            // landed after some sessions already appended this step's KV
            // rows. Generation is closed-loop deterministic from the
            // prompt, so recovery rewinds every request and re-steps each
            // in isolation: the one that reproduces the failure is failed
            // and released, the rest replay to bit-identical streams and
            // keep going batched.
            active.retain_mut(|a| {
                a.reset_for_replay();
                let isolated = guarded_step(
                    shared,
                    std::slice::from_mut(a),
                    armed_panic,
                    scratch,
                    &mut caught_panics,
                );
                let error = match isolated {
                    Ok(Ok(mut outs)) => match outs.pop() {
                        Some(y) => {
                            a.consume(y);
                            return true;
                        }
                        // One session in, zero outputs out: a model
                        // contract breach. Fail the request instead of
                        // poisoning the engine with a panic.
                        // m2x-lint: allow(alloc) recovery path, not the healthy decode tick
                        None => format!(
                            "isolated re-step returned no output (batched step: {batched_error})"
                        ),
                    },
                    // m2x-lint: allow(alloc) recovery path, not the healthy decode tick
                    Ok(Err(e)) => format!("{e} (batched step: {batched_error})"),
                    Err(panic) => panic,
                };
                failed.push((a.id, error));
                false
            });
        }
        let step_time = t0.elapsed();
        let step_us = step_time.as_micros() as u64;

        // ── Phase 4 (locked): bookkeeping + retire ──────────────────────
        let batch = active.len() + failed.len();
        if rec {
            // One TICK span plus one sub-span per stage with booked time.
            // Stage durations are measured; their offsets are synthetic
            // (laid end to end from the tick start) because the stages
            // interleave per layer inside the batched step — the trace
            // shows the split, not the true interleaving.
            let tick_end = t0_us.saturating_add(step_us);
            shared
                .engine_trace
                .span(stage::TICK, 0, t0_us, tick_end, batch as u64);
            let mut cursor = t0_us;
            for s in stage::ASSEMBLE..stage::TICK_STAGES as u16 {
                let ns = scratch.tally.ns(s);
                if ns == 0 {
                    continue;
                }
                let dur = ns / 1_000;
                shared.engine_trace.span(
                    s,
                    0,
                    cursor,
                    cursor.saturating_add(dur),
                    scratch.tally.calls(s),
                );
                cursor = cursor.saturating_add(dur);
            }
        }
        // Mark each completed prefill: register it with the pool's prefix
        // index, so a later request sharing the prompt prefix can adopt
        // the frozen pages, and emit its prefill instant. Once per request
        // — `prefill_marked` survives recovery replays, so a replay never
        // re-freezes or re-traces. Pool lock only, taken before the queue
        // lock below (the lock order everywhere is queue → pool, never the
        // reverse).
        for a in active.iter_mut() {
            if !a.prefilling && !a.prefill_marked {
                a.prefill_marked = true;
                shared
                    .weights
                    .kv_pool()
                    .register_prefix(&a.prompt, &a.prefill_out, a.session.kv());
                shared.engine_trace.instant(
                    stage::REQ_PREFILL,
                    a.id as u32,
                    a.prompt.rows() as u64,
                );
            }
        }
        // KV pool bookkeeping: page traffic since the last tick becomes
        // trace instants; the live sessions' byte and fragmentation
        // gauges are summed here (engine-owned data, no lock needed).
        let pool_now = shared.weights.kv_pool().stats();
        if rec {
            let grabbed = (pool_now.page_allocs + pool_now.page_reuses + pool_now.cow_clones)
                .saturating_sub(
                    last_pool.page_allocs + last_pool.page_reuses + last_pool.cow_clones,
                );
            if grabbed > 0 {
                shared
                    .engine_trace
                    .instant(stage::KV_PAGE_ALLOC, 0, grabbed);
            }
            let released = pool_now.releases.saturating_sub(last_pool.releases);
            if released > 0 {
                shared
                    .engine_trace
                    .instant(stage::KV_PAGE_RELEASE, 0, released);
            }
        }
        *last_pool = pool_now;
        let page_tokens = shared.weights.kv_pool().page_tokens() as u64;
        let (mut kv_packed, mut kv_decoded, mut kv_tokens, mut kv_capacity) =
            (0u64, 0u64, 0u64, 0u64);
        for a in active.iter() {
            kv_packed += a.session.kv_bytes() as u64;
            kv_decoded += a.session.kv_decoded_bytes() as u64;
            kv_tokens += a.session.kv().tokens() as u64;
            kv_capacity += a.session.kv().page_count() as u64 * page_tokens;
        }
        // A first token lands when its step ends: `now` plus the
        // measured step time.
        let step_end = now + step_time;
        let mut q = lock_queues(shared);
        q.stats.steps += 1;
        q.stats.peak_batch = q.stats.peak_batch.max(batch);
        q.stats.panics_recovered += caught_panics;
        if recovery {
            q.stats.recovery_ticks += 1;
        }
        q.telemetry.step_us.record(step_us);
        q.telemetry.stages.merge(&scratch.tally);
        q.stats.kv_packed_bytes = kv_packed;
        q.stats.kv_decoded_bytes = kv_decoded;
        q.stats.kv_fragmentation = if kv_capacity == 0 {
            0.0
        } else {
            1.0 - kv_tokens as f64 / kv_capacity as f64
        };
        // Token instants, TTFT, the decoded-token count and stream
        // publication, all past each request's `reported` mark — before
        // retiring finished requests, so a waiter always sees every token
        // before the outcome. The marks only ever grow, so a recovery
        // replay regrowing `decoded` from zero never re-emits a token
        // instant, re-records a TTFT sample, recounts a token or
        // republishes a row (it re-derives identical bits, so the
        // published prefix stays valid).
        for a in active.iter_mut() {
            let rows = a.decoded.rows();
            if a.reported == 0 && rows > 0 {
                let ttft_us = step_end
                    .saturating_duration_since(a.submitted_at)
                    .as_micros()
                    .min(u64::MAX as u128) as u64;
                q.telemetry.ttft_us.record(ttft_us);
            }
            for r in a.reported..rows {
                if a.stream {
                    q.streams.entry(a.id).or_default().push(Matrix::from_vec(
                        1,
                        a.decoded.cols(),
                        // m2x-lint: allow(alloc) structural: published token rows must outlive the tick
                        a.decoded.row(r).to_vec(),
                    ));
                }
                shared
                    .engine_trace
                    .instant(stage::REQ_TOKEN, a.id as u32, r as u64);
            }
            q.stats.decoded_tokens += rows.saturating_sub(a.reported) as u64;
            a.reported = a.reported.max(rows);
        }
        for (id, error) in failed {
            q.resolve(&shared.engine_trace, id, RequestOutcome::Failed { error });
        }
        let now = q.stats.steps;
        // m2x-lint: allow(alloc) retire bookkeeping: sized by batch (small), not by tokens
        let mut rest = Vec::with_capacity(active.len());
        for a in active.drain(..) {
            if a.finished() {
                let id = a.id;
                let outcome = RequestOutcome::Finished(a.into_completed(now));
                q.resolve(&shared.engine_trace, id, outcome);
            } else {
                rest.push(a);
            }
        }
        *active = rest;
        shared.done_cv.notify_all();
    }
}

/// Steps `batch` once through the model under `catch_unwind`: the batched
/// tick and each isolated recovery re-step alike. An armed
/// [`Fault::StepPanic`] fires only when its victim is in `batch`, and
/// after the compute, so session state has already advanced when the
/// panic lands — the worst case the reset-and-replay recovery must
/// handle. A caught panic counts into `caught_panics` and comes back as
/// its message; any failure resets `scratch`.
// m2x-lint: hot
fn guarded_step(
    shared: &Shared,
    batch: &mut [Active],
    armed_panic: Option<u64>,
    scratch: &mut StepScratch,
    caught_panics: &mut u64,
) -> Result<Result<Vec<Matrix>, Error>, String> {
    let victim = armed_panic.filter(|v| batch.iter().any(|a| a.id == *v));
    // m2x-lint: allow(alloc) structural: the step borrows sessions mutably, so inputs are cloned out first
    let inputs: Vec<Matrix> = batch.iter().map(|a| a.next_input.clone()).collect();
    let step = catch_unwind(AssertUnwindSafe(|| {
        let mut sessions: Vec<&mut SessionState> =
            // m2x-lint: allow(alloc) batch-sized pointer Vec rebuilt per step (membership changes between ticks)
            batch.iter_mut().map(|a| &mut a.session).collect();
        let out =
            shared
                .weights
                .step_sessions_scratch(&mut sessions, &inputs, shared.threads, scratch);
        if let (Some(victim), Ok(_)) = (victim, &out) {
            // m2x-lint: allow(panic) deliberate fault injection, caught by the catch_unwind directly above
            panic!("injected fault: step panic (request {victim})");
        }
        out
    }))
    .map_err(|payload| {
        *caught_panics += 1;
        panic_message(payload)
    });
    if !matches!(step, Ok(Ok(_))) {
        scratch.reset();
    }
    step
}
