//! The stage taxonomy and the per-tick stage-time accumulator.
//!
//! Stage ids are dense `u16`s grouped by subsystem:
//!
//! * `0..TICK_STAGES` — the engine-tick breakdown ([`TICK`] plus the six
//!   phases of `step_sessions_scratch`: [`ASSEMBLE`], [`ENCODE`],
//!   [`QGEMM`], [`ATTENTION`], [`KV_APPEND`], [`FEEDBACK`]). These index
//!   directly into a [`StageTally`].
//! * `16..` — request-lifecycle transitions emitted as trace events
//!   (submitted → admitted → prefill → tokens → retired).
//! * `32..` — gateway connection phases.
//!
//! [`name`] maps any id back to its stable string (used by the Chrome
//! trace export and the bench JSON); unknown ids render as `"unknown"`
//! rather than panicking.

use std::time::Instant;

/// Time not attributed to any named stage (tick minus the stage sum).
pub const OTHER: u16 = 0;
/// One whole engine scheduler tick (batched step + bookkeeping).
pub const TICK: u16 = 1;
/// Stacking the active sessions' pending rows into one batch matrix.
pub const ASSEMBLE: u16 = 2;
/// Elementwise glue between the GEMMs: the RMS-norms and residual adds.
/// Despite the name, no activation quantization is booked here: each
/// projection's activation encode runs inside [`QGEMM`], and the Q and P
/// encodes inside [`ATTENTION`].
pub const ENCODE: u16 = 3;
/// Quantized GEMM/GEMV linears (`qkv`, `o`, `up`, `down`), each with the
/// online activation encode of its input, plus the MLP's elementwise glue
/// (SiLU(gate)⊙up or ReLU).
pub const QGEMM: u16 = 4;
/// Attention over the KV cache per `(session, KV head)` work item, inline
/// or sharded: the Q encode, per-page score GEMMs, mask and softmax, the
/// P encode and the value mix.
pub const ATTENTION: u16 = 5;
/// Appending this step's K/V rows to the packed caches.
pub const KV_APPEND: u16 = 6;
/// Closed-loop feedback: squashing output rows into next-step inputs and
/// publishing streamed tokens.
pub const FEEDBACK: u16 = 7;
/// Number of engine-tick stage slots (ids `0..TICK_STAGES` tally).
pub const TICK_STAGES: usize = 8;

/// Request accepted into the arrival queue (instant; value = prompt rows).
pub const REQ_SUBMITTED: u16 = 16;
/// Request shed by admission control (instant; value = queue depth).
pub const REQ_REJECTED: u16 = 17;
/// Request admitted into the running batch (span covering the queue wait).
pub const REQ_ADMITTED: u16 = 18;
/// Prefill completed for a request (instant; value = prompt rows).
pub const REQ_PREFILL: u16 = 19;
/// One decode token produced (instant; value = token index).
pub const REQ_TOKEN: u16 = 20;
/// Request retired with a `Finished` outcome (instant; value = tokens).
pub const REQ_FINISHED: u16 = 21;
/// Request retired with a `Cancelled` outcome (instant; value = tokens).
pub const REQ_CANCELLED: u16 = 22;
/// Request retired past its deadline (instant; value = tokens).
pub const REQ_DEADLINE: u16 = 23;
/// Request retired by panic isolation (instant; value = tokens).
pub const REQ_FAILED: u16 = 24;
/// KV pool pages entered use this tick — fresh allocations, free-list
/// reuses and copy-on-write forks combined (instant; value = page count).
pub const KV_PAGE_ALLOC: u16 = 25;
/// KV pool pages returned to the free list this tick (instant; value =
/// page count).
pub const KV_PAGE_RELEASE: u16 = 26;

/// One gateway TCP connection, accept to close (span; value = requests).
pub const GW_CONNECTION: u16 = 32;
/// Reading + incrementally parsing one HTTP request head/body (span).
pub const GW_PARSE: u16 = 33;
/// Streaming one SSE token response (span; value = tokens streamed).
pub const GW_STREAM: u16 = 34;

/// Stable display name of a stage id (trace export, bench JSON, docs).
pub fn name(stage: u16) -> &'static str {
    match stage {
        OTHER => "other",
        TICK => "tick",
        ASSEMBLE => "assemble",
        ENCODE => "encode",
        QGEMM => "qgemm",
        ATTENTION => "attention",
        KV_APPEND => "kv_append",
        FEEDBACK => "feedback",
        REQ_SUBMITTED => "req_submitted",
        REQ_REJECTED => "req_rejected",
        REQ_ADMITTED => "req_admitted",
        REQ_PREFILL => "req_prefill",
        REQ_TOKEN => "req_token",
        REQ_FINISHED => "req_finished",
        REQ_CANCELLED => "req_cancelled",
        REQ_DEADLINE => "req_deadline",
        REQ_FAILED => "req_failed",
        KV_PAGE_ALLOC => "kv_page_alloc",
        KV_PAGE_RELEASE => "kv_page_release",
        GW_CONNECTION => "gw_connection",
        GW_PARSE => "gw_parse",
        GW_STREAM => "gw_stream",
        _ => "unknown",
    }
}

/// Fixed-array accumulator of per-stage elapsed time across one engine
/// tick (or any other unit of work). Lives inline in the engine's step
/// scratch: recording is two array writes, no heap, no locks — cheap
/// enough for `// m2x-lint: hot` functions.
///
/// A disabled tally (the default — plain `m2x-nn` callers outside the
/// server never pay for timing) skips the clock reads entirely; the
/// engine enables it per tick when the server's telemetry is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTally {
    enabled: bool,
    ns: [u64; TICK_STAGES],
    calls: [u64; TICK_STAGES],
}

impl Default for StageTally {
    fn default() -> Self {
        StageTally::new()
    }
}

impl StageTally {
    /// A disabled, zeroed tally.
    pub fn new() -> StageTally {
        StageTally {
            enabled: false,
            ns: [0; TICK_STAGES],
            calls: [0; TICK_STAGES],
        }
    }

    /// Turns timing on or off (counts are untouched).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether stage clocks are being read.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Zeroes the accumulated times and call counts, keeping the enable
    /// flag — the engine calls this at the top of every tick.
    pub fn clear(&mut self) {
        self.ns = [0; TICK_STAGES];
        self.calls = [0; TICK_STAGES];
    }

    /// Adds `ns` nanoseconds to `stage` (ignored when disabled or the id
    /// is outside the tick-stage range).
    #[inline]
    pub fn add_ns(&mut self, stage: u16, ns: u64) {
        if self.enabled && (stage as usize) < TICK_STAGES {
            self.ns[stage as usize] = self.ns[stage as usize].saturating_add(ns);
            self.calls[stage as usize] += 1;
        }
    }

    /// Times `f` against `stage`. When the tally is disabled this is just
    /// the call — no clock reads.
    #[inline]
    pub fn time<R>(&mut self, stage: u16, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.add_ns(stage, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Accumulated nanoseconds for `stage` (0 for out-of-range ids).
    pub fn ns(&self, stage: u16) -> u64 {
        if (stage as usize) < TICK_STAGES {
            self.ns[stage as usize]
        } else {
            0
        }
    }

    /// Times recorded against `stage` (0 for out-of-range ids).
    pub fn calls(&self, stage: u16) -> u64 {
        if (stage as usize) < TICK_STAGES {
            self.calls[stage as usize]
        } else {
            0
        }
    }

    /// Sum over the named sub-tick stages ([`ASSEMBLE`]..[`FEEDBACK`] —
    /// [`TICK`] and [`OTHER`] excluded, so this is comparable to a
    /// measured whole-tick time).
    pub fn stage_sum_ns(&self) -> u64 {
        self.ns[ASSEMBLE as usize..TICK_STAGES]
            .iter()
            .fold(0u64, |acc, v| acc.saturating_add(*v))
    }

    /// Folds another tally's times and counts into this one (the engine
    /// merges each tick's tally into a lifetime accumulator).
    pub fn merge(&mut self, other: &StageTally) {
        for i in 0..TICK_STAGES {
            self.ns[i] = self.ns[i].saturating_add(other.ns[i]);
            self.calls[i] += other.calls[i];
        }
    }
}

/// RAII stage timer: starts a clock on construction, adds the elapsed
/// time to its [`StageTally`] slot on drop. For straight-line regions the
/// closure form [`StageTally::time`] reads better; the guard exists for
/// scopes with early exits (`?`, `return`, `break`) where a closure
/// cannot wrap the region.
#[derive(Debug)]
pub struct StageTimer<'a> {
    tally: &'a mut StageTally,
    stage: u16,
    start: Option<Instant>,
}

impl<'a> StageTimer<'a> {
    /// Starts timing `stage` (a no-op guard when the tally is disabled).
    #[inline]
    pub fn start(tally: &'a mut StageTally, stage: u16) -> StageTimer<'a> {
        let start = tally.enabled.then(Instant::now);
        StageTimer {
            tally,
            stage,
            start,
        }
    }
}

impl Drop for StageTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.tally
                .add_ns(self.stage, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tally_records_nothing() {
        let mut t = StageTally::new();
        t.add_ns(QGEMM, 100);
        let v = t.time(ENCODE, || 42);
        assert_eq!(v, 42);
        assert_eq!(t.ns(QGEMM), 0);
        assert_eq!(t.calls(ENCODE), 0);
        assert_eq!(t.stage_sum_ns(), 0);
    }

    #[test]
    fn enabled_tally_accumulates_and_merges() {
        let mut t = StageTally::new();
        t.set_enabled(true);
        t.add_ns(QGEMM, 100);
        t.add_ns(QGEMM, 50);
        t.add_ns(ATTENTION, 7);
        t.add_ns(TICK, 1_000); // excluded from the stage sum
        assert_eq!(t.ns(QGEMM), 150);
        assert_eq!(t.calls(QGEMM), 2);
        assert_eq!(t.stage_sum_ns(), 157);

        let mut total = StageTally::new();
        total.merge(&t);
        total.merge(&t);
        assert_eq!(total.ns(QGEMM), 300);
        assert_eq!(total.calls(ATTENTION), 2);
        // Merging never needs `total` itself to be enabled.
        assert!(!total.enabled());
    }

    #[test]
    fn clear_keeps_enable_flag() {
        let mut t = StageTally::new();
        t.set_enabled(true);
        t.add_ns(FEEDBACK, 9);
        t.clear();
        assert!(t.enabled());
        assert_eq!(t.ns(FEEDBACK), 0);
        assert_eq!(t.calls(FEEDBACK), 0);
    }

    #[test]
    fn timer_and_closure_record_real_time() {
        let mut t = StageTally::new();
        t.set_enabled(true);
        {
            let _guard = StageTimer::start(&mut t, ASSEMBLE);
            std::hint::black_box(());
        }
        t.time(ENCODE, || std::hint::black_box(()));
        assert_eq!(t.calls(ASSEMBLE), 1);
        assert_eq!(t.calls(ENCODE), 1);
    }

    #[test]
    fn out_of_range_stage_ids_are_ignored() {
        let mut t = StageTally::new();
        t.set_enabled(true);
        t.add_ns(REQ_TOKEN, 100);
        t.add_ns(u16::MAX, 100);
        assert_eq!(t.stage_sum_ns(), 0);
        assert_eq!(t.ns(REQ_TOKEN), 0);
        assert_eq!(t.calls(u16::MAX), 0);
    }

    #[test]
    fn every_named_stage_has_a_stable_name() {
        for (id, want) in [
            (OTHER, "other"),
            (TICK, "tick"),
            (ASSEMBLE, "assemble"),
            (ENCODE, "encode"),
            (QGEMM, "qgemm"),
            (ATTENTION, "attention"),
            (KV_APPEND, "kv_append"),
            (FEEDBACK, "feedback"),
            (REQ_SUBMITTED, "req_submitted"),
            (REQ_REJECTED, "req_rejected"),
            (REQ_ADMITTED, "req_admitted"),
            (REQ_PREFILL, "req_prefill"),
            (REQ_TOKEN, "req_token"),
            (REQ_FINISHED, "req_finished"),
            (REQ_CANCELLED, "req_cancelled"),
            (REQ_DEADLINE, "req_deadline"),
            (REQ_FAILED, "req_failed"),
            (KV_PAGE_ALLOC, "kv_page_alloc"),
            (KV_PAGE_RELEASE, "kv_page_release"),
            (GW_CONNECTION, "gw_connection"),
            (GW_PARSE, "gw_parse"),
            (GW_STREAM, "gw_stream"),
        ] {
            assert_eq!(name(id), want);
        }
        assert_eq!(name(15), "unknown");
        assert_eq!(name(u16::MAX), "unknown");
    }
}
