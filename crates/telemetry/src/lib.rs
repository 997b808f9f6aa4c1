//! # m2x-telemetry
//!
//! Fixed-capacity, allocation-free-when-warm instrumentation for the
//! serving stack: the measurement layer behind `/metrics` histograms,
//! `GET /v1/trace` Chrome traces, and the `telemetry` section of the CI
//! bench JSON.
//!
//! The MX benchmarking line of work argues that format and serving
//! choices must be *recorded measurements* rather than guesses; this
//! crate makes the recording cheap enough to leave on in production and
//! inside `// m2x-lint: hot` functions:
//!
//! * [`trace::TraceRing`] — a fixed-capacity ring of compact
//!   [`trace::TraceEvent`] records (monotonic microsecond timestamps from
//!   a saturating [`std::time::Instant`] base, `u16` stage ids, `u32`
//!   request ids). Pushing into a warm ring performs **zero** heap
//!   allocations; when full it overwrites the oldest event and counts the
//!   loss, so the hot path never blocks on an observer.
//! * [`hist::Histogram`] — a log-bucketed fixed-array histogram (no `Vec`
//!   growth, mergeable) with exact counts at power-of-two bucket
//!   boundaries, backing the Prometheus `_bucket`/`_sum`/`_count` lines
//!   and the scheduler's p50/p90/p99 step latency.
//! * [`stage::StageTally`] / [`stage::StageTimer`] — a per-scratch
//!   fixed-array accumulator and RAII guard splitting an engine tick into
//!   the stage taxonomy of [`stage`] (assemble, encode, qgemm, attention,
//!   kv_append, feedback).
//! * [`trace::Telemetry`] — the registry tying it together: one shared
//!   time base, a kill switch, and named per-thread rings drained by the
//!   gateway's `GET /v1/trace`.
//! * [`alloc_probe`] — the counting [`std::alloc::GlobalAlloc`] witness
//!   used by `tests/alloc_gate.rs` and the bench binary to *prove* the
//!   zero-allocation claim at runtime (`telemetry.zero_alloc` CI gate).
//! * [`syscall_probe`] — the `read`-syscall counter behind the claim that
//!   a warm engine decode tick makes no syscalls
//!   (`engine.zero_syscall_tick` CI gate).
//!
//! Everything is std-only and engine-crate lint discipline applies
//! (`m2x-lint` R1–R3): no panicking constructs, no allocation in the
//! record paths.
//!
//! ```
//! use m2x_telemetry::{stage, Telemetry};
//! use std::sync::Arc;
//!
//! let telemetry = Arc::new(Telemetry::new(true));
//! let ring = telemetry.register("engine", 1024);
//! let t0 = ring.now_us();
//! // ... do a tick ...
//! ring.span(stage::TICK, 0, t0, ring.now_us(), 4);
//! let drained = telemetry.drain();
//! assert_eq!(drained[0].events.len(), 1);
//! assert_eq!(drained[0].events[0].stage, stage::TICK);
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to `alloc_probe` (a `GlobalAlloc` impl cannot be
// written without it); everything else in the crate is safe code.
#![deny(unsafe_code)]

pub mod alloc_probe;
pub mod hist;
pub mod stage;
pub mod syscall_probe;
pub mod trace;

pub use hist::Histogram;
pub use stage::{StageTally, StageTimer};
pub use trace::{DrainedRing, Telemetry, TraceEvent, TraceHandle, TraceKind};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, tolerating poison: telemetry is an observer, so a panic in
/// some other thread holding a ring must never cascade into the engine's
/// record path (the data is plain counters — safe to read after unwind).
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
