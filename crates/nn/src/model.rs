//! Model-level quantized inference — the §6 end-to-end setting as an API.
//!
//! [`ModelBuilder`] takes a [`ModelProfile`] + [`M2xfpConfig`], synthesizes
//! every projection weight of a transformer stack (deterministic, from the
//! profile's seed), stacks the projections that read the same input —
//! `[q;k;v]` and, for gated MLPs, `[gate;up]` — so each block holds four
//! linears (`qkv`, `o`, `up`, `down`), quantizes each through the threaded
//! integer-LUT Sg-EM search (`PackedWeightTensor::quantize_parallel`, via
//! [`QuantizedLinear`]) and decodes its kernel plane once. The result
//! splits into two halves:
//!
//! * [`ModelWeights`] — the **immutable, shareable** half: every linear
//!   decoded once, held behind an `Arc` so any number of concurrent
//!   sessions (threads, serving requests) run against the same weight
//!   planes. N sessions cost N KV caches, never N weight copies.
//! * [`SessionState`] — the **per-request mutable** half: a [`PagedKv`]
//!   view into the weights' shared [`KvPagePool`] plus the stream
//!   position. KV rows live in fixed-size pool pages (recycled on
//!   release, copy-on-write when shared, prefix-reusable across
//!   requests — see [`crate::kv_pool`]).
//!
//! [`QuantizedModel`] pairs the two into the single-session API (its
//! architecture queries live on [`QuantizedModel::weights`]):
//!
//! * [`QuantizedModel::forward_batch`] — reset the KV cache and run a full
//!   causal batch (the throughput surface the bench emitter's `e2e_model`
//!   section times);
//! * [`QuantizedModel::prefill`] / [`QuantizedModel::decode`] — the
//!   serving loop: append tokens to the session's paged KV state and
//!   return their outputs. Prefill-then-decode is **bit-identical** to the
//!   one-shot batch (rows quantize independently and every kernel computes
//!   each output element in the same order), which the workspace property
//!   tests pin.
//!
//! [`ModelWeights::step_sessions_scratch`] is the multi-session surface the
//! `m2x-serve` continuous-batching scheduler drives: one batched step over
//! many independent sessions, their token rows stacked into single
//! projection GEMMs (each output row depends only on its own input row, so
//! every request's output is bit-identical to running it solo) and the
//! per-request attention fanned out over scoped worker threads.
//!
//! Attention follows the paper's §6.4 hybrid: K is cached in the packed
//! Sg-EM weight representation and consumed by the quantized score GEMM;
//! V rows are Sg-EM-quantized per token and dequantized at use; Q and the
//! probability matrix P run the online Elem-EM path. The cache grows
//! **decode-on-append** ([`PagedKv::append_layer`]): each new token's rows
//! are quantized and decoded straight into the page's K plane, so a decode
//! step costs O(1) per head instead of re-decoding the whole K plane.
//! Every projection and score GEMM runs the same packed integer kernels,
//! which the workspace property tests pin bit for bit against the grouped
//! `qgemm` and f64 `qgemm_reference` oracles.

use crate::kv_pool::{KvPagePool, PagedKv, PoolGeometry, PrefixMatch};
use crate::linear::QuantizedLinear;
use crate::profile::{MlpKind, ModelProfile};
use crate::synth::{weight_matrix, LayerKind};
use m2x_telemetry::{stage, StageTally, StageTimer};
use m2x_tensor::Matrix;
use m2xfp::format::PackedActTensor;
use m2xfp::gemm::{gemm_threads, qgemm_into, GemmScratch};
use m2xfp::{Error, M2xfpConfig};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Minimum attention MAC volume (per layer, across the whole step batch)
/// that justifies one additional scoped worker in the multi-session step:
/// the worker scope is re-entered every layer, so below this the
/// spawn/join overhead on the decode hot loop exceeds the parallel win.
const ATTN_MACS_PER_WORKER: usize = 1 << 20;

/// Row-wise RMS normalization (unit gain): keeps the residual stream's
/// scale bounded across layers so deep stacks stay in the formats' dynamic
/// range. Purely per-row, so batch and decode paths compute identical bits.
fn rms_norm(m: &Matrix) -> Matrix {
    let n = m.cols() as f64;
    let mut out = m.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let ss: f64 = row.iter().map(|&v| v as f64 * v as f64).sum();
        let inv = (1.0 / (ss / n + 1e-6).sqrt()) as f32;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

/// Writes `src` into `out` at column offset `start`.
fn write_cols(out: &mut Matrix, src: &Matrix, start: usize) {
    write_block(out, src, 0, start)
}

/// Writes `src` into `out` at row offset `r0`.
fn write_rows(out: &mut Matrix, src: &Matrix, r0: usize) {
    write_block(out, src, r0, 0)
}

/// Writes `src` into `out` with its top-left corner at (`r0`, `c0`).
fn write_block(out: &mut Matrix, src: &Matrix, r0: usize, c0: usize) {
    for r in 0..src.rows() {
        let (orow, srow) = (out.row_mut(r0 + r), src.row(r));
        orow[c0..c0 + srow.len()].copy_from_slice(srow);
    }
}

/// One transformer block's projections: [`QuantizedLinear`]s for the
/// engine, f32 weights (transposed `[out, in]`) for the reference oracle.
/// Projections that read the same input are stacked row-wise into one
/// linear: `qkv` holds the Q rows, then K, then V, and `up` holds the
/// gate rows above the up rows for gated MLPs. Weights quantize per
/// output row and activations per group along the reduction dimension,
/// so each column block of a stacked forward is bit-identical to the
/// separate projection's forward.
#[derive(Debug, Clone)]
struct Block<T> {
    qkv: T,
    o: T,
    up: T,
    down: T,
}

/// One `(session, KV head)` attention work item of a step: the query
/// heads sharing KV head `kvh`, over the session's cache `kv`, for its
/// `t` rows starting at row `r0` of the step's stacked `qkv` matrix; `p0`
/// is the session's stream position at step entry.
#[derive(Clone, Copy)]
struct KvHeadItem<'a> {
    kv: &'a PagedKv,
    kvh: usize,
    r0: usize,
    t: usize,
    p0: usize,
}

/// Accumulates `out += P[:, col0..col0+len] · rhs` with the exact
/// per-element loop of [`Matrix::matmul`] (kk ascending, plain `+=`,
/// zero-skip): each output element accumulates its products in the same
/// order a single matmul over the row-concatenated pages would, so the
/// page-sliced value mix is bit-identical to the monolithic one.
#[cfg(test)]
fn matmul_acc(out: &mut Matrix, p: &Matrix, col0: usize, len: usize, rhs: &Matrix) {
    debug_assert_eq!(rhs.rows(), len);
    debug_assert_eq!(out.cols(), rhs.cols());
    debug_assert_eq!(out.rows(), p.rows());
    for i in 0..p.rows() {
        for kk in 0..len {
            let a = p[(i, col0 + kk)];
            if a == 0.0 {
                continue;
            }
            let rrow = rhs.row(kk);
            let orow = out.row_mut(i);
            for (o, &b) in orow.iter_mut().zip(rrow) {
                *o += a * b;
            }
        }
    }
}

/// Reusable scratch state of one long-lived stepping loop (a serving
/// engine thread, a [`QuantizedModel`] session): the main activation
/// scratch threaded through every projection GEMM plus the per-worker
/// scratches the threaded attention path lends out. Holding one across
/// scheduler steps keeps the decode hot loop allocation-free after
/// warm-up — the buffers grow once to the largest projection width and
/// are then refilled in place.
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    /// Scratch of the single-threaded work: projections and, at one
    /// worker, the attention score GEMVs.
    main: GemmScratch,
    /// One scratch per attention worker (scratches cannot be shared
    /// across threads); grown to the step's worker count and reused
    /// every layer of every subsequent step.
    workers: Vec<GemmScratch>,
    /// Per-step row counts of each session's input, refilled in place
    /// every step so the decode loop stops allocating index vectors.
    counts: Vec<usize>,
    /// Row offsets of each session's block in the stacked step matrix.
    offsets: Vec<usize>,
    /// Stream position of each session at step entry.
    p0s: Vec<usize>,
    /// Each layer's `(q, attention)` matrices, recorded when `Some` so
    /// the stacked-attention test can recompute every head through the
    /// per-head oracle [`ModelWeights::attention_head`].
    #[cfg(test)]
    attn_log: Option<Vec<(Matrix, Matrix)>>,
    /// Per-stage elapsed-time accumulator for this step (assemble,
    /// encode, qgemm, attention, kv_append — see
    /// [`m2x_telemetry::stage`]). Disabled by default so plain callers
    /// never pay for clock reads; the serving engine enables it per tick
    /// and merges the split into its lifetime totals.
    pub tally: StageTally,
}

impl StepScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops any buffered activation data (capacity included). Scratch
    /// contents never carry semantic state between steps — every kernel
    /// refills what it reads — so this is only needed to discard a scratch
    /// a caught panic may have left half-written, cheaply re-establishing
    /// the freshly-constructed state without reallocating the struct.
    pub fn reset(&mut self) {
        *self = StepScratch::new();
    }
}

/// Live-session bookkeeping for one weight family: [`SessionState`] holds a
/// ticket that increments the shared counter on creation/clone and
/// decrements it on drop, so [`ModelWeights::open_sessions`] can assert
/// that a serving runtime released every KV cache it admitted.
#[derive(Debug)]
struct SessionTicket(Arc<AtomicUsize>);

impl SessionTicket {
    fn issue(counter: &Arc<AtomicUsize>) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        SessionTicket(Arc::clone(counter))
    }
}

impl Clone for SessionTicket {
    fn clone(&self) -> Self {
        SessionTicket::issue(&self.0)
    }
}

impl Drop for SessionTicket {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The per-request mutable half of a model session: a [`PagedKv`] view
/// into the weights' shared [`KvPagePool`] plus the stream position.
/// Create one per concurrent request with [`ModelWeights::new_session`];
/// the weights stay shared. Dropping (or [`reset`](Self::reset)ting) the
/// session returns its pages to the pool's free list; cloning shares the
/// pages copy-on-write.
#[derive(Debug, Clone)]
pub struct SessionState {
    kv: PagedKv,
    pos: usize,
    /// Keeps the weights' open-session count honest (see [`SessionTicket`]).
    /// Held only for its `Clone`/`Drop` side effects.
    _ticket: SessionTicket,
}

impl SessionState {
    /// Tokens appended so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The session's paged KV view (all layers).
    pub fn kv(&self) -> &PagedKv {
        &self.kv
    }

    /// Total **packed** KV footprint of this session across all layers,
    /// in bytes — the canonical 4.5-bit three-stream representation. The
    /// serving scheduler's KV-memory budget (`kv_budget_bytes`) meters
    /// admission against this; pages shared with other sessions are
    /// counted once per holder. The decoded working state on top is
    /// reported separately by [`Self::kv_decoded_bytes`].
    pub fn kv_bytes(&self) -> usize {
        self.kv.packed_bytes()
    }

    /// Decoded KV working state in bytes: the K pages' 8.25-bit kernel
    /// operands plus the dequantized f32 V row cache. Not metered by the
    /// admission budget — reported alongside [`Self::kv_bytes`] so
    /// accounting stays honest.
    pub fn kv_decoded_bytes(&self) -> usize {
        self.kv.decoded_bytes()
    }

    /// Adopts a frozen prompt-prefix match (from
    /// [`KvPagePool::lookup_prefix`]) into a fresh session: the shared
    /// pages are held read-only (copy-on-write), the position jumps to
    /// the adopted token count, and the recorded prefill output rows for
    /// those tokens are returned — bit-identical to recomputing them.
    /// Must only be called on a fresh session (position zero).
    pub fn adopt_prefix(&mut self, m: PrefixMatch) -> Matrix {
        debug_assert_eq!(self.pos, 0, "prefix adoption requires a fresh session");
        self.kv.adopt_prefix(m.pages, m.tokens);
        self.pos = m.tokens;
        m.out_rows
    }

    /// Returns every page to the pool and resets the stream position.
    pub fn reset(&mut self) {
        self.kv.clear();
        self.pos = 0;
    }
}

/// Builder for a [`QuantizedModel`]: a [`ModelProfile`] supplies the
/// architecture shape and weight statistics, an [`M2xfpConfig`] the format.
/// [`ModelBuilder::scaled`] shrinks the dimensions and
/// [`ModelBuilder::heads`] overrides the head counts, so tests and CI
/// drive the same code at toy sizes.
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    profile: ModelProfile,
    cfg: M2xfpConfig,
    hidden: usize,
    intermediate: usize,
    heads: usize,
    kv_heads: usize,
    layers: usize,
    keep_reference: bool,
    kv_page_tokens: Option<usize>,
}

impl ModelBuilder {
    /// A builder with the profile's real architecture dimensions.
    pub fn new(profile: &ModelProfile) -> Self {
        ModelBuilder {
            cfg: M2xfpConfig::default(),
            hidden: profile.hidden,
            intermediate: profile.intermediate,
            heads: profile.heads,
            kv_heads: profile.kv_heads,
            layers: profile.layers,
            keep_reference: false,
            kv_page_tokens: None,
            profile: profile.clone(),
        }
    }

    /// A builder scaled down to `hidden` × `layers`, preserving the
    /// profile's head width (64 where it divides `hidden`), GQA ratio and
    /// MLP expansion factor, rounded to group-aligned dimensions.
    pub fn scaled(profile: &ModelProfile, hidden: usize, layers: usize) -> Self {
        let head_dim = if hidden % 64 == 0 { 64 } else { 32 };
        let heads = (hidden / head_dim).max(1);
        let ratio = (profile.heads / profile.kv_heads).max(1);
        let mut kv_heads = (heads / ratio).max(1);
        while heads % kv_heads != 0 {
            kv_heads -= 1;
        }
        let expand = profile.intermediate as f64 / profile.hidden as f64;
        let intermediate = (((hidden as f64 * expand) / 32.0).round() as usize).max(1) * 32;
        ModelBuilder {
            hidden,
            intermediate,
            heads,
            kv_heads,
            layers,
            ..Self::new(profile)
        }
    }

    /// Sets the quantization configuration.
    pub fn config(mut self, cfg: M2xfpConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Overrides the attention head counts.
    pub fn heads(mut self, heads: usize, kv_heads: usize) -> Self {
        self.heads = heads;
        self.kv_heads = kv_heads;
        self
    }

    /// Keeps the f32 weights alongside the quantized model so
    /// [`ModelWeights::reference_forward_batch`] (the NRMSE oracle) is
    /// available. Costs one full-precision copy of every weight.
    pub fn keep_reference(mut self, keep: bool) -> Self {
        self.keep_reference = keep;
        self
    }

    /// Overrides the KV pool's page size in tokens (default: one
    /// quantization group, `cfg.group_size`). Must be a positive multiple
    /// of the group size so a page never splits a group
    /// ([`PoolGeometry`] checks it).
    pub fn kv_page_tokens(mut self, tokens: usize) -> Self {
        self.kv_page_tokens = Some(tokens);
        self
    }

    fn validate(&self) -> Result<(), Error> {
        let gs = self.cfg.group_size;
        let bad = |msg: String| Err(Error::config(msg));
        if self.layers == 0 {
            return bad("layers must be >= 1".into());
        }
        if self.heads == 0 || self.kv_heads == 0 || self.heads % self.kv_heads != 0 {
            return bad(format!(
                "heads {} must be a positive multiple of kv_heads {}",
                self.heads, self.kv_heads
            ));
        }
        if self.hidden % self.heads != 0 {
            return bad(format!(
                "hidden {} must divide into heads {}",
                self.hidden, self.heads
            ));
        }
        let head_dim = self.hidden / self.heads;
        for (name, dim) in [
            ("hidden", self.hidden),
            ("intermediate", self.intermediate),
            ("head_dim", head_dim),
        ] {
            if dim == 0 || dim % gs != 0 {
                return bad(format!(
                    "{name} {dim} must be a positive multiple of the group size {gs}"
                ));
            }
        }
        Ok(())
    }

    /// Synthesizes, quantizes and decodes every layer, then opens a fresh
    /// single session over the shared weights.
    ///
    /// # Errors
    ///
    /// Fails on inconsistent or group-misaligned dimensions; the message
    /// names the offending field or layer.
    pub fn build(self) -> Result<QuantizedModel, Error> {
        Ok(QuantizedModel::from_weights(Arc::new(
            self.build_weights()?,
        )))
    }

    /// Synthesizes, quantizes and decodes every layer into the shareable
    /// immutable half only — wrap in an `Arc` and hand to
    /// [`QuantizedModel::from_weights`] or the `m2x-serve` scheduler.
    ///
    /// # Errors
    ///
    /// Same as [`Self::build`].
    pub fn build_weights(self) -> Result<ModelWeights, Error> {
        self.validate()?;
        let (h, inter) = (self.hidden, self.intermediate);
        let head_dim = h / self.heads;
        let kv_dim = self.kv_heads * head_dim;
        // Built first, so a bad page size fails before any weight is
        // quantized.
        let pool = KvPagePool::new(PoolGeometry {
            layers: self.layers,
            kv_heads: self.kv_heads,
            head_dim,
            page_tokens: self.kv_page_tokens.unwrap_or(self.cfg.group_size),
            cfg: self.cfg,
        })?;

        let mut blocks = Vec::with_capacity(self.layers);
        let mut reference = self.keep_reference.then(Vec::new);
        // The `(kind, out features)` row blocks of the stacked linears.
        let qkv_rows = [
            (LayerKind::Q, h),
            (LayerKind::K, kv_dim),
            (LayerKind::V, kv_dim),
        ];
        let up_rows: &[_] = match self.profile.mlp {
            MlpKind::Gated => &[(LayerKind::Gate, inter), (LayerKind::Up, inter)],
            MlpKind::Plain => &[(LayerKind::Up, inter)],
        };
        for l in 0..self.layers {
            let synth = |rows: &[(LayerKind, usize)], k: usize| -> Matrix {
                let mut w = Matrix::zeros(0, k);
                for &(kind, n) in rows {
                    w.push_rows(&weight_matrix(&self.profile, kind, l, n, k));
                }
                w
            };
            let quant = |w: &Matrix, name: &str| -> Result<QuantizedLinear, Error> {
                QuantizedLinear::from_weights(w, self.cfg)
                    .map_err(|e| e.for_tensor(format!("layer {l} {name}")))
            };
            let w = Block {
                qkv: synth(&qkv_rows, h),
                o: synth(&[(LayerKind::O, h)], h),
                up: synth(up_rows, h),
                down: synth(&[(LayerKind::Down, h)], inter),
            };
            blocks.push(Block {
                qkv: quant(&w.qkv, "qkv_proj")?,
                o: quant(&w.o, "o_proj")?,
                up: quant(&w.up, "mlp_up")?,
                down: quant(&w.down, "mlp_down")?,
            });
            if let Some(r) = reference.as_mut() {
                r.push(w);
            }
        }

        Ok(ModelWeights {
            name: self.profile.name.to_string(),
            cfg: self.cfg,
            mlp: self.profile.mlp,
            hidden: h,
            intermediate: inter,
            heads: self.heads,
            kv_heads: self.kv_heads,
            head_dim,
            blocks,
            reference,
            sessions: Arc::new(AtomicUsize::new(0)),
            pool,
        })
    }
}

/// The immutable, shareable half of a quantized transformer: every
/// projection held in the packed three-stream representation next to its
/// decoded kernel plane. Hold it in an `Arc` and open any number of
/// concurrent [`SessionState`]s against it — sessions cost a KV cache
/// each, the weights are never copied. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct ModelWeights {
    name: String,
    cfg: M2xfpConfig,
    mlp: MlpKind,
    hidden: usize,
    intermediate: usize,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
    blocks: Vec<Block<QuantizedLinear>>,
    reference: Option<Vec<Block<Matrix>>>,
    /// Live [`SessionState`] count opened against this weight family.
    /// Clones of the weights share the counter (and the KV pool), so it
    /// meters the family, not one `Arc` handle.
    sessions: Arc<AtomicUsize>,
    /// Shared paged KV pool every session allocates from. Clones of the
    /// weights share the pool, so prefix pages registered by one handle
    /// are adoptable through any other.
    pool: Arc<KvPagePool>,
}

impl ModelWeights {
    /// Profile name the model was synthesized from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The quantization configuration.
    pub fn config(&self) -> &M2xfpConfig {
        &self.cfg
    }

    /// Hidden (residual stream) dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// MLP intermediate dimension.
    pub fn intermediate(&self) -> usize {
        self.intermediate
    }

    /// Transformer layer count.
    pub fn layer_count(&self) -> usize {
        self.blocks.len()
    }

    /// Attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// KV heads (GQA when < heads).
    pub fn kv_heads(&self) -> usize {
        self.kv_heads
    }

    /// Width of one attention head.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Total packed weight footprint across all layers, in bytes.
    pub fn weight_bytes(&self) -> usize {
        self.linears().map(QuantizedLinear::weight_bytes).sum()
    }

    /// Total kernel-operand bytes across all layers: the
    /// [`WeightPlane`](m2xfp::gemm::WeightPlane)s the projections
    /// multiply, decoded once at construction and resident next to the
    /// packed streams [`Self::weight_bytes`] counts.
    pub fn operand_bytes(&self) -> usize {
        self.linears().map(QuantizedLinear::operand_bytes).sum()
    }

    /// Every projection of every layer, in engine order.
    fn linears(&self) -> impl Iterator<Item = &QuantizedLinear> {
        self.blocks
            .iter()
            .flat_map(|b| [&b.qkv, &b.o, &b.up, &b.down])
    }

    /// Multiply–accumulate count of one forward over `tokens` tokens
    /// starting at cache position `start_pos` (linear projections plus the
    /// per-head score/value GEMMs against the grown cache).
    pub fn forward_macs(&self, tokens: usize, start_pos: usize) -> u64 {
        let (t, h) = (tokens as u64, self.hidden as u64);
        let inter = self.intermediate as u64;
        let kv_dim = (self.kv_heads * self.head_dim) as u64;
        let s = (start_pos + tokens) as u64;
        let linear = t * h * h * 2 // q, o
            + t * h * kv_dim * 2 // k, v
            + match self.mlp {
                MlpKind::Gated => 3 * t * h * inter,
                MlpKind::Plain => 2 * t * h * inter,
            };
        let attn = self.heads as u64 * 2 * t * s * self.head_dim as u64;
        (linear + attn) * self.blocks.len() as u64
    }

    /// The shared [`KvPagePool`] sessions of this weight family allocate
    /// their KV pages from (and the prefix index lives in).
    pub fn kv_pool(&self) -> &Arc<KvPagePool> {
        &self.pool
    }

    /// Opens a fresh session (empty KV view, position zero) against these
    /// weights.
    pub fn new_session(&self) -> SessionState {
        SessionState {
            kv: PagedKv::new(Arc::clone(&self.pool)),
            pos: 0,
            _ticket: SessionTicket::issue(&self.sessions),
        }
    }

    /// Number of [`SessionState`]s currently alive against this weight
    /// family (sessions opened minus sessions dropped, clones of a session
    /// counted). The serving layer's zero-leak gate asserts this returns
    /// to 0 after shutdown — a leak here is a leaked KV cache.
    pub fn open_sessions(&self) -> usize {
        self.sessions.load(Ordering::SeqCst)
    }

    /// One batched step over many **independent** sessions — the
    /// continuous-batching surface. `inputs[i]` (`[tokens_i, hidden]`,
    /// prefill chunks and single decode tokens mix freely) is appended to
    /// `sessions[i]` and its causal outputs returned in order.
    ///
    /// All sessions' rows are stacked into one matrix per projection GEMM,
    /// so a decode batch of B requests walks each weight plane once
    /// instead of B times; the per-request attention (score/value GEMMs
    /// per `(session, KV head)` work item, the query heads sharing a KV
    /// head stacked into one score GEMM per page) splits the sessions into
    /// contiguous runs, one per scoped worker thread, each writing its
    /// sessions' rows of the attention matrix in place — `threads == 0`
    /// auto-scales the worker count with the attention work volume (small
    /// steps stay inline, avoiding per-layer spawn overhead, and never ask
    /// the OS for the core count, so a warm decode tick makes no syscall),
    /// an explicit count is pinned exactly. Every output row depends only
    /// on its own session's rows and cache, so each request's output is
    /// **bit-identical to running it solo** — for any batch composition and
    /// any thread count — which `tests/proptest_serve.rs` pins.
    ///
    /// The caller holds `scratch` across steps: it is threaded through
    /// every projection GEMM and the attention score GEMMs (per-worker
    /// sub-scratches on the threaded path), so the decode hot loop stops
    /// allocating activation planes per call. The outputs are the same for
    /// any scratch state.
    ///
    /// # Errors
    ///
    /// Fails on a session/input count mismatch or an input width mismatch.
    // m2x-lint: hot
    pub fn step_sessions_scratch(
        &self,
        sessions: &mut [&mut SessionState],
        inputs: &[Matrix],
        threads: usize,
        scratch: &mut StepScratch,
    ) -> Result<Vec<Matrix>, Error> {
        self.step_multi(sessions, inputs, threads, None, scratch)
    }

    // m2x-lint: hot
    fn step_multi(
        &self,
        sessions: &mut [&mut SessionState],
        inputs: &[Matrix],
        threads: usize,
        mut trace: Option<&mut Vec<Matrix>>,
        scr: &mut StepScratch,
    ) -> Result<Vec<Matrix>, Error> {
        if sessions.len() != inputs.len() {
            // m2x-lint: allow(alloc) cold error path, never taken by a healthy engine
            return Err(Error::config(format!(
                "step got {} sessions but {} inputs",
                sessions.len(),
                inputs.len()
            )));
        }
        for x in inputs {
            if x.cols() != self.hidden {
                return Err(Error::WidthMismatch {
                    // m2x-lint: allow(alloc) cold error path, never taken by a healthy engine
                    tensor: "model input".to_string(),
                    expected: self.hidden,
                    got: x.cols(),
                });
            }
        }
        // The stage tally travels as a local for the rest of the step so
        // timed regions never fight the borrow of the scratch buffers;
        // it is stored back right before the successful return (an error
        // fails the whole step, so its partial split is dropped with it).
        let mut tally = std::mem::take(&mut scr.tally);
        // Step geometry lives in the caller-held scratch: refilled in
        // place each step, so a warm decode loop allocates nothing here.
        tally.time(stage::ASSEMBLE, || {
            scr.counts.clear();
            scr.counts.extend(inputs.iter().map(Matrix::rows));
            scr.offsets.clear();
            scr.offsets.extend(scr.counts.iter().scan(0usize, |acc, c| {
                let o = *acc;
                *acc += c;
                Some(o)
            }));
            scr.p0s.clear();
            scr.p0s.extend(sessions.iter().map(|s| s.pos));
        });
        let counts: &[usize] = &scr.counts;
        let offsets: &[usize] = &scr.offsets;
        let p0s: &[usize] = &scr.p0s;
        let total: usize = counts.iter().sum();

        // Worker budget for the per-layer attention phase. The scope is
        // re-entered every layer (the projections in between are sequential
        // barriers), so each extra worker must be paid for by real
        // score/value-GEMM volume or the spawn/join overhead sits directly
        // on the decode hot loop: in auto mode (`threads == 0`) one worker
        // is granted per [`ATTN_MACS_PER_WORKER`] attention MACs, capped at
        // the sessions (workers split the step by session) and the
        // available cores (mirrors `gemm_threads`' policy). An explicit
        // count is pinned exactly, up to the session count. Any worker
        // count computes identical bits.
        let attn_workers = if threads == 0 {
            let attn_macs: usize = counts
                .iter()
                .zip(p0s)
                .map(|(&c, &p0)| 2 * c * (p0 + c) * self.head_dim * self.heads)
                .sum();
            m2xfp::capped_workers((attn_macs / ATTN_MACS_PER_WORKER + 1).min(sessions.len()))
        } else {
            threads.min(sessions.len()).max(1)
        };

        let mut h = tally.time(stage::ASSEMBLE, || {
            let mut h = Matrix::zeros(total, self.hidden);
            for (x, &o) in inputs.iter().zip(offsets) {
                write_rows(&mut h, x, o);
            }
            h
        });

        // Grow the persistent per-worker attention scratch pool to this
        // step's worker count; the slots live in the caller's StepScratch,
        // so they stay warm across layers AND across scheduler steps.
        if attn_workers > 1 && scr.workers.len() < attn_workers {
            scr.workers.resize_with(attn_workers, GemmScratch::new);
        }

        for li in 0..self.blocks.len() {
            // m2x-lint: allow(alloc) closure body is a cold error path, only run when a projection fails
            let ctx = |e: Error, what: &str| e.for_tensor(format!("layer {li} {what}"));
            let hn = tally.time(stage::ENCODE, || rms_norm(&h));
            let block = &self.blocks[li];
            // q in columns [0, hidden), then k and v, `kv_dim` wide each.
            let qkv = {
                // The guard (not the closure form) because `?` exits the
                // region early: the drop still books the elapsed time.
                let _t = StageTimer::start(&mut tally, stage::QGEMM);
                block
                    .qkv
                    .forward_scratch(&hn, &mut scr.main)
                    .map_err(|e| ctx(e, "qkv_proj"))?
            };

            // Grow every session's paged cache with its own K/V rows
            // (decode-on-append per page: O(new rows) per session,
            // independent of history; shared pages fork copy-on-write).
            {
                let _t = StageTimer::start(&mut tally, stage::KV_APPEND);
                let kv_dim = self.kv_heads * self.head_dim;
                for (i, s) in sessions.iter_mut().enumerate() {
                    let (r0, t) = (offsets[i], counts[i]);
                    let ks = qkv.block(r0, self.hidden, t, kv_dim);
                    let vs = qkv.block(r0, self.hidden + kv_dim, t, kv_dim);
                    s.kv.append_layer(li, &ks, &vs)
                        .map_err(|e| ctx(e, "kv cache"))?;
                }
            }

            // Attention over the grown caches: one `attention_kv_head` call
            // per (session, KV head). The sessions split into at most
            // `attn_workers` contiguous runs; each run owns its sessions'
            // rows of the attention matrix and writes every head in place.
            // An item reads only its own session's cache and q rows, so any
            // worker count computes identical bits.
            let _t_attn = StageTimer::start(&mut tally, stage::ATTENTION);
            let mut attn = Matrix::zeros(total, self.hidden);
            // The appends are done: from here the sessions are only read.
            let sessions: &[&mut SessionState] = sessions;
            let attend = |run: Range<usize>, mut rows: &mut [f32], sc: &mut GemmScratch| {
                for si in run {
                    let (own, rest) =
                        std::mem::take(&mut rows).split_at_mut(counts[si] * self.hidden);
                    rows = rest;
                    for kvh in 0..self.kv_heads {
                        let it = KvHeadItem {
                            kv: &sessions[si].kv,
                            kvh,
                            r0: offsets[si],
                            t: counts[si],
                            p0: p0s[si],
                        };
                        self.attention_kv_head(li, it, &qkv, sc, own);
                    }
                }
            };
            if attn_workers <= 1 {
                // The decode hot loop: one run on the calling thread.
                attend(0..sessions.len(), attn.as_mut_slice(), &mut scr.main);
            } else {
                let per = sessions.len().div_ceil(attn_workers);
                std::thread::scope(|sc| {
                    let mut rows = attn.as_mut_slice();
                    let handles: Vec<_> = (0..sessions.len())
                        .step_by(per)
                        .zip(scr.workers.iter_mut())
                        .map(|(s0, local)| {
                            let s1 = (s0 + per).min(sessions.len());
                            let len = counts[s0..s1].iter().sum::<usize>() * self.hidden;
                            let (own, rest) = std::mem::take(&mut rows).split_at_mut(len);
                            rows = rest;
                            let attend = &attend;
                            sc.spawn(move || attend(s0..s1, own, local))
                        })
                        // m2x-lint: allow(alloc) one handle per worker run, threaded (prefill) path only
                        .collect();
                    // A worker panic is re-raised with its original payload
                    // so the serve layer's catch_unwind fault isolation sees
                    // the real message, not a join error.
                    for h in handles {
                        h.join()
                            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                    }
                });
            }
            drop(_t_attn);
            #[cfg(test)]
            if let Some(log) = scr.attn_log.as_mut() {
                log.push((qkv.clone(), attn.clone()));
            }

            let o = {
                let _t = StageTimer::start(&mut tally, stage::QGEMM);
                block
                    .o
                    .forward_scratch(&attn, &mut scr.main)
                    .map_err(|e| ctx(e, "o_proj"))?
            };
            let hn = tally.time(stage::ENCODE, || {
                h = h.add(&o);
                rms_norm(&h)
            });
            // The MLP is booked whole against `qgemm`: its two
            // projections dominate, and the elementwise glue
            // ([`Self::mlp_act`]) is not worth a stage boundary.
            let _t_mlp = StageTimer::start(&mut tally, stage::QGEMM);
            let u = block
                .up
                .forward_scratch(&hn, &mut scr.main)
                .map_err(|e| ctx(e, "mlp_up"))?;
            let m = block
                .down
                .forward_scratch(&self.mlp_act(&u), &mut scr.main)
                .map_err(|e| ctx(e, "mlp_down"))?;
            drop(_t_mlp);
            tally.time(stage::ENCODE, || {
                h = h.add(&m);
            });
            if let Some(t) = trace.as_deref_mut() {
                // m2x-lint: allow(alloc) trace instrumentation, never requested by the serving engine
                t.push(h.clone());
            }
        }
        for (s, c) in sessions.iter_mut().zip(counts) {
            s.pos += c;
        }
        let out = tally.time(stage::ASSEMBLE, || {
            offsets
                .iter()
                .zip(counts)
                .map(|(&o, &c)| h.block(o, 0, c, self.hidden))
                // m2x-lint: allow(alloc) structural: the per-session output matrices are the step's return value
                .collect()
        });
        scr.tally = tally;
        Ok(out)
    }

    /// Causal attention of one `(session, KV head)` work item over the
    /// session's paged cache, §6.4 hybrid: quantized score GEMM (Q online,
    /// K from the Sg-EM pages' planes — **no per-step decode**, each page's
    /// plane grew on append), online Elem-EM quantization of P, cached
    /// dequantized Sg-EM V rows.
    ///
    /// The `heads_per_kv` query heads that share the KV head are read from
    /// the q columns of the step's stacked projection output `qkv` and
    /// stacked head-major as rows of one `[heads_per_kv·t, head_dim]` block
    /// (stacked row `j·t + i` is head `j` at chunk row `i`), encoded and
    /// loaded into the kernel operand once, then run through one score
    /// GEMM per page. MX groups run along
    /// `head_dim`, so no group spans two heads: every stacked row encodes
    /// to the codes a per-head encode gives it. Masking, softmax, the P
    /// encode and the value mix are per row too, so each head's output is
    /// bit-identical to the per-head path (`attention_head`, the test
    /// oracle). `out` holds the session's `t` rows of the step's attention
    /// matrix (row-major, `hidden` wide, zero in this KV head's columns),
    /// and head `j`'s output for chunk row `i` is written in place into
    /// row `i` at the head's own q columns.
    ///
    /// Paging preserves bit-identity with the old monolithic cache:
    /// * every score element is an independent dot product over
    ///   `head_dim`, so per-page score GEMMs produce the exact columns of
    ///   the one-plane GEMM;
    /// * P is masked, softmaxed and fake-quantized over **full**
    ///   `seq`-long rows *before* any per-page column slicing (its
    ///   quantization groups run along `seq`, which pages would split);
    /// * the value mix accumulates each output element in page order, kk
    ///   ascending, with plain `+=` and zero-skip — the exact loop of
    ///   [`Matrix::matmul`].
    fn attention_kv_head(
        &self,
        li: usize,
        it: KvHeadItem<'_>,
        qkv: &Matrix,
        scratch: &mut GemmScratch,
        out: &mut [f32],
    ) {
        let (hd, t, kv) = (self.head_dim, it.t, it.kv);
        let rows = (self.heads / self.kv_heads) * t;
        let scale = 1.0 / (hd as f32).sqrt();
        let seq = kv.layer_len(li);
        let pt = kv.pool().page_tokens();
        let pages = seq.div_ceil(pt);
        let q_c0 = it.kvh * (self.hidden / self.kv_heads);
        let qs = Matrix::from_fn(rows, hd, |r, c| {
            qkv[(it.r0 + r % t, q_c0 + (r / t) * hd + c)]
        });
        scratch.load(&PackedActTensor::quantize_parallel(&qs, self.cfg));
        let mut scores = Matrix::zeros(rows, seq);
        for pi in 0..pages {
            let k = kv.page_k(pi, li, it.kvh);
            let n = k.shape().0;
            let mut s = Matrix::zeros(rows, n);
            qgemm_into(scratch, k, gemm_threads(rows, hd, n), s.as_mut_slice());
            write_cols(&mut scores, &s, pi * pt);
        }
        for r in 0..rows {
            // Causal mask: chunk row r % t sits at stream position
            // p0 + r % t and may only attend to keys at or before it.
            let last = it.p0 + r % t;
            for (j, sc) in scores.row_mut(r).iter_mut().enumerate() {
                *sc = if j <= last {
                    *sc * scale
                } else {
                    f32::NEG_INFINITY
                };
            }
        }
        let p = crate::attention::softmax_rows(&scores);
        // P is produced on the fly → online Elem-EM path; V rows were
        // quantized on arrival (per token, so decode == batch) and their
        // dequantized form is cached per page for the value mix.
        let pq = PackedActTensor::quantize_parallel(&p, self.cfg).dequantize();
        for r in 0..rows {
            let orow = &mut out[(r % t) * self.hidden + q_c0 + (r / t) * hd..][..hd];
            let prow = pq.row(r);
            for pi in 0..pages {
                let v = kv.page_v_rows(pi, li, it.kvh);
                let probs = &prow[pi * pt..pi * pt + kv.page_rows(li, pi)];
                for (kk, &a) in probs.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &b) in orow.iter_mut().zip(v.row(kk)) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// One causal attention head over a session's paged cache, computed
    /// on its own — the oracle [`Self::attention_kv_head`] is tested
    /// against: Q is the head's own `[t, head_dim]` slice, re-encoded by
    /// `packed_forward` for every page.
    #[cfg(test)]
    fn attention_head(
        &self,
        kv: &PagedKv,
        li: usize,
        qh: &Matrix,
        head: usize,
        p0: usize,
        scratch: &mut GemmScratch,
    ) -> Matrix {
        let heads_per_kv = self.heads / self.kv_heads;
        let kvh = head / heads_per_kv;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let t = qh.rows();
        let seq = kv.layer_len(li);
        let pt = kv.pool().page_tokens();
        let pages = seq.div_ceil(pt);
        // Scores = Q·Kᵀ through the packed quantized GEMM, one GEMM per
        // page: each page's K rows are exactly the weight layout
        // ([rows, head_dim], grouped along the reduction dimension).
        let mut scores = Matrix::zeros(t, seq);
        for pi in 0..pages {
            let s = crate::linear::packed_forward(qh, kv.page_k(pi, li, kvh), self.cfg, scratch);
            write_cols(&mut scores, &s, pi * pt);
        }
        for i in 0..t {
            let row = scores.row_mut(i);
            for (j, sc) in row.iter_mut().enumerate() {
                // Causal mask: chunk row i sits at stream position p0 + i
                // and may only attend to keys at or before it.
                *sc = if j <= p0 + i {
                    *sc * scale
                } else {
                    f32::NEG_INFINITY
                };
            }
        }
        let p = crate::attention::softmax_rows(&scores);
        // P is produced on the fly → online Elem-EM path; V rows were
        // quantized on arrival (per token, so decode == batch) and their
        // dequantized form is cached per page for the value mix.
        let pq = PackedActTensor::quantize_parallel(&p, self.cfg).dequantize();
        let mut oh = Matrix::zeros(t, self.head_dim);
        for pi in 0..pages {
            let rows = kv.page_rows(li, pi);
            matmul_acc(&mut oh, &pq, pi * pt, rows, kv.page_v_rows(pi, li, kvh));
        }
        oh
    }

    /// The MLP activation on the `up` linear's output: SiLU(gate) ⊙ up over
    /// its two column halves for gated MLPs, ReLU for plain ones. The
    /// engine and the f32 oracle share it.
    fn mlp_act(&self, u: &Matrix) -> Matrix {
        match self.mlp {
            MlpKind::Gated => {
                let i = self.intermediate;
                Matrix::from_fn(u.rows(), i, |r, c| {
                    let g = u[(r, c)];
                    g / (1.0 + (-g).exp()) * u[(r, i + c)]
                })
            }
            MlpKind::Plain => u.map(|v| v.max(0.0)),
        }
    }

    /// Full-precision (f32) forward over the same synthesized weights and
    /// architecture — the oracle the whole-model NRMSE is measured against.
    /// Stateless (always starts from position 0) and available only when
    /// the builder was asked to [`ModelBuilder::keep_reference`].
    ///
    /// # Errors
    ///
    /// Fails on an input width mismatch or when the reference weights were
    /// not kept.
    pub fn reference_forward_batch(&self, x: &Matrix) -> Result<Matrix, Error> {
        Ok(self.reference_traced(x)?.0)
    }

    /// [`Self::reference_forward_batch`] that also returns the residual
    /// stream after every layer.
    ///
    /// # Errors
    ///
    /// Same as [`Self::reference_forward_batch`].
    pub fn reference_traced(&self, x: &Matrix) -> Result<(Matrix, Vec<Matrix>), Error> {
        let Some(reference) = &self.reference else {
            return Err(Error::config(
                "reference weights were not kept; build with keep_reference(true)",
            ));
        };
        if x.cols() != self.hidden {
            return Err(Error::WidthMismatch {
                tensor: "model input".to_string(),
                expected: self.hidden,
                got: x.cols(),
            });
        }
        let (hd, t) = (self.head_dim, x.rows());
        let heads_per_kv = self.heads / self.kv_heads;
        // Column offsets of K and V in the stacked `qkv` output.
        let (k0, v0) = (self.hidden, self.hidden + self.kv_heads * hd);
        let scale = 1.0 / (hd as f32).sqrt();
        let mut trace = Vec::with_capacity(reference.len());
        let mut h = x.clone();
        for block in reference {
            let hn = rms_norm(&h);
            let lin = |w: &Matrix, x: &Matrix| x.matmul(&w.transpose());
            let qkv = lin(&block.qkv, &hn);
            let mut attn = Matrix::zeros(t, self.hidden);
            for head in 0..self.heads {
                let kvh = head / heads_per_kv;
                let qh = qkv.block(0, head * hd, t, hd);
                let kh = qkv.block(0, k0 + kvh * hd, t, hd);
                let vh = qkv.block(0, v0 + kvh * hd, t, hd);
                let mut scores = qh.matmul(&kh.transpose());
                for i in 0..t {
                    let row = scores.row_mut(i);
                    for (j, sc) in row.iter_mut().enumerate() {
                        *sc = if j <= i {
                            *sc * scale
                        } else {
                            f32::NEG_INFINITY
                        };
                    }
                }
                let p = crate::attention::softmax_rows(&scores);
                write_cols(&mut attn, &p.matmul(&vh), head * hd);
            }
            h = h.add(&lin(&block.o, &attn));
            let hn = rms_norm(&h);
            h = h.add(&lin(&block.down, &self.mlp_act(&lin(&block.up, &hn))));
            trace.push(h.clone());
        }
        Ok((h, trace))
    }
}

/// A whole transformer stack quantized to M2XFP: an `Arc`-shared
/// [`ModelWeights`] paired with one [`SessionState`] — the single-session
/// inference API. Cloning shares the weights and copies only the session.
/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    weights: Arc<ModelWeights>,
    state: SessionState,
    /// Reusable scratch of the session's GEMMs: decode steps reload its
    /// activation operands in place, with no plane allocation after
    /// warm-up.
    scratch: StepScratch,
}

impl QuantizedModel {
    /// Opens a fresh session over already-built shared weights — O(KV
    /// cache), the weights are not copied. This is how the serving runtime
    /// turns one built model into many concurrent sessions.
    pub fn from_weights(weights: Arc<ModelWeights>) -> Self {
        let state = weights.new_session();
        QuantizedModel {
            weights,
            state,
            scratch: StepScratch::new(),
        }
    }

    /// The shared immutable half: architecture queries, the decoded
    /// projections and the f32 reference path.
    pub fn weights(&self) -> &Arc<ModelWeights> {
        &self.weights
    }

    /// The per-session mutable half (KV caches + position).
    pub fn session(&self) -> &SessionState {
        &self.state
    }

    /// Tokens currently held in the KV cache.
    pub fn seq_len(&self) -> usize {
        self.state.pos
    }

    /// The session's paged KV view (all layers).
    pub fn kv(&self) -> &PagedKv {
        &self.state.kv
    }

    /// Drops the KV cache and resets the stream position to zero.
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// One-shot causal forward over a full batch of token embeddings
    /// `[tokens, hidden]`: resets the session, then prefills. Bit-identical
    /// to any prefill/decode split of the same rows.
    ///
    /// # Errors
    ///
    /// Fails on an input width mismatch.
    pub fn forward_batch(&mut self, x: &Matrix) -> Result<Matrix, Error> {
        self.reset();
        self.step(x, None)
    }

    /// Appends a chunk of tokens `[tokens, hidden]` to the session and
    /// returns their outputs (causal within the chunk and against the
    /// cache).
    ///
    /// # Errors
    ///
    /// Fails on an input width mismatch.
    pub fn prefill(&mut self, x: &Matrix) -> Result<Matrix, Error> {
        self.step(x, None)
    }

    /// Appends exactly one token `[1, hidden]` — the serving decode step.
    ///
    /// # Errors
    ///
    /// Fails on an input width mismatch or a multi-row input.
    pub fn decode(&mut self, x: &Matrix) -> Result<Matrix, Error> {
        if x.rows() != 1 {
            return Err(Error::config(format!(
                "decode expects exactly 1 token row, got {}",
                x.rows()
            )));
        }
        self.step(x, None)
    }

    /// [`Self::forward_batch`] that also returns the residual stream after
    /// every layer — the per-layer observability hook the bench emitter's
    /// `e2e_model` NRMSE report uses.
    ///
    /// # Errors
    ///
    /// Fails on an input width mismatch.
    pub fn forward_batch_traced(&mut self, x: &Matrix) -> Result<(Matrix, Vec<Matrix>), Error> {
        self.reset();
        let mut trace = Vec::with_capacity(self.weights.layer_count());
        let out = self.step(x, Some(&mut trace))?;
        Ok((out, trace))
    }

    fn step(&mut self, x: &Matrix, trace: Option<&mut Vec<Matrix>>) -> Result<Matrix, Error> {
        let mut outs = self.weights.step_multi(
            &mut [&mut self.state],
            std::slice::from_ref(x),
            1,
            trace,
            &mut self.scratch,
        )?;
        outs.pop().ok_or_else(|| Error::Config {
            msg: "step_multi returned no output for a single-session step".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::activation_matrix;
    use m2x_tensor::stats::nmse;

    fn tiny_builder() -> ModelBuilder {
        ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 2).keep_reference(true)
    }

    /// One engine step with a fresh scratch.
    fn step(
        weights: &ModelWeights,
        sessions: &mut [&mut SessionState],
        inputs: &[Matrix],
        threads: usize,
    ) -> Result<Vec<Matrix>, Error> {
        weights.step_sessions_scratch(sessions, inputs, threads, &mut StepScratch::new())
    }

    fn tokens(n: usize, hidden: usize) -> Matrix {
        let x = activation_matrix(&ModelProfile::llama3_8b(), 0, n, hidden);
        // Embeddings, not raw activations: tame the outlier channels so the
        // residual stream stays well-conditioned through a deep stack.
        x.map(|v| (v * 0.25).tanh())
    }

    #[test]
    fn session_accounting_tracks_open_and_dropped_sessions() {
        let weights = tiny_builder().build_weights().unwrap();
        assert_eq!(weights.open_sessions(), 0);
        let a = weights.new_session();
        let b = weights.new_session();
        assert_eq!(weights.open_sessions(), 2);
        // Clones of the weights share the counter; clones of a session
        // count as their own live KV cache.
        let alias = weights.clone();
        assert_eq!(alias.open_sessions(), 2);
        let b2 = b.clone();
        assert_eq!(weights.open_sessions(), 3);
        drop(b2);
        drop(a);
        assert_eq!(weights.open_sessions(), 1);
        drop(b);
        assert_eq!(weights.open_sessions(), 0);
        assert_eq!(alias.open_sessions(), 0);
    }

    #[test]
    fn session_kv_bytes_grows_with_appended_tokens() {
        let weights = tiny_builder().build_weights().unwrap();
        let mut sessions = [weights.new_session()];
        let mut refs: Vec<&mut SessionState> = sessions.iter_mut().collect();
        assert_eq!(refs[0].kv_bytes(), 0);
        let x = tokens(4, 64);
        step(&weights, &mut refs, std::slice::from_ref(&x), 1).unwrap();
        let after_prefill = refs[0].kv_bytes();
        assert!(after_prefill > 0);
        assert_eq!(after_prefill, refs[0].kv().packed_bytes());
        assert!(
            refs[0].kv_decoded_bytes() > 0,
            "decoded working state must be reported alongside the packed bytes"
        );
        step(&weights, &mut refs, &[tokens(1, 64)], 1).unwrap();
        assert!(refs[0].kv_bytes() > after_prefill);
    }

    #[test]
    fn builder_validates_dimensions() {
        let p = ModelProfile::llama3_8b();
        assert!(ModelBuilder::scaled(&p, 64, 0).build().is_err());
        // hidden 48 gives a 48-wide head: not group-aligned.
        assert!(ModelBuilder::scaled(&p, 48, 1).build().is_err());
        let err = ModelBuilder::scaled(&p, 64, 1)
            .heads(3, 2)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("heads"), "{err}");
    }

    #[test]
    fn weight_operand_is_8_25_bits_per_weight() {
        // The LLaMA3-8B profile scaled to hidden 256 × 2 layers: per layer
        // qkv 384 × 256, o 256 × 256, gate+up 1792 × 256 and down
        // 256 × 896, 851,968 weights. The kernel operand holds one byte per
        // weight plus one scale byte per 32 (8.25 bits), against 4.5 bits
        // in the packed streams.
        let w = ModelBuilder::scaled(&ModelProfile::llama3_8b(), 256, 2)
            .build_weights()
            .unwrap();
        assert_eq!(w.operand_bytes(), 1_757_184);
        assert_eq!(w.weight_bytes(), 958_464);
    }

    #[test]
    fn forward_shapes_and_macs() {
        let mut m = tiny_builder().build().unwrap();
        let w = Arc::clone(m.weights());
        assert_eq!(w.hidden(), 64);
        assert_eq!(w.layer_count(), 2);
        assert_eq!(w.heads(), 1);
        let x = tokens(6, 64);
        let y = m.forward_batch(&x).unwrap();
        assert_eq!((y.rows(), y.cols()), (6, 64));
        assert_eq!(m.seq_len(), 6);
        assert!(w.forward_macs(6, 0) > 0);
        assert!(w.weight_bytes() > 0);
        assert!(m.kv().packed_bytes() > 0);
        assert_eq!(m.kv().tokens(), 6);
    }

    #[test]
    fn quantized_model_tracks_reference() {
        let mut m = tiny_builder().build().unwrap();
        let x = tokens(8, 64);
        let y = m.forward_batch(&x).unwrap();
        let (y_ref, trace_ref) = m.weights().reference_traced(&x).unwrap();
        let e = nmse(y_ref.as_slice(), y.as_slice());
        assert!(e > 0.0 && e < 0.05, "whole-model nmse {e}");
        assert_eq!(trace_ref.len(), 2);
    }

    #[test]
    fn prefill_then_decode_matches_batch() {
        let mut m = tiny_builder().build().unwrap();
        let x = tokens(5, 64);
        let batch = m.forward_batch(&x).unwrap();
        m.reset();
        let head = Matrix::from_fn(3, 64, |r, c| x[(r, c)]);
        let mut rows = m.prefill(&head).unwrap().into_vec();
        for t in 3..5 {
            let xt = Matrix::from_fn(1, 64, |_, c| x[(t, c)]);
            rows.extend(m.decode(&xt).unwrap().into_vec());
        }
        let inc = Matrix::from_vec(5, 64, rows);
        for (a, b) in batch.as_slice().iter().zip(inc.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn shared_weight_sessions_match_solo_bitwise() {
        // Two sessions over one Arc of prepared weights, stepped as a
        // batch, reproduce two independent solo models bit for bit — the
        // SharedModel contract the serving runtime is built on.
        let weights = Arc::new(tiny_builder().build_weights().unwrap());
        let xa = tokens(4, 64);
        let xb = tokens(7, 64);

        let mut solo_a = QuantizedModel::from_weights(Arc::clone(&weights));
        let mut solo_b = QuantizedModel::from_weights(Arc::clone(&weights));
        let ya = solo_a.forward_batch(&xa).unwrap();
        let yb = solo_b.forward_batch(&xb).unwrap();

        let mut sa = weights.new_session();
        let mut sb = weights.new_session();
        for threads in [1usize, 3] {
            sa.reset();
            sb.reset();
            let outs = step(
                &weights,
                &mut [&mut sa, &mut sb],
                &[xa.clone(), xb.clone()],
                threads,
            )
            .unwrap();
            for (want, got) in [(&ya, &outs[0]), (&yb, &outs[1])] {
                for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
                }
            }
            assert_eq!(sa.pos(), 4);
            assert_eq!(sb.pos(), 7);
        }
    }

    #[test]
    fn stacked_kv_head_attention_matches_per_head_oracle_bitwise() {
        // The engine stacks the query heads that share a KV head, encodes
        // them once and runs one score GEMM per page; the per-head oracle
        // re-encodes each head's own Q slice for every page. Every head of
        // every layer must agree bit for bit: three sessions whose prompts
        // end just before, on and just after a 32-token page boundary,
        // prefilled in one step and then decoded, inline and threaded:
        // two workers split the 31/32/33-row prefill into uneven runs, and
        // eight are more workers than sessions.
        let profile = ModelProfile::llama3_8b();
        let hidden = 256;
        let row = |seed: usize, n: usize| {
            activation_matrix(&profile, seed, n, hidden).map(|v| (v * 0.25).tanh())
        };
        for (heads, kv_heads) in [(4, 1), (4, 2), (4, 4), (8, 2)] {
            let weights = ModelBuilder::scaled(&profile, hidden, 2)
                .heads(heads, kv_heads)
                .build_weights()
                .unwrap();
            let hd = weights.head_dim();
            for threads in [1, 2, 3, 8] {
                let mut sessions: Vec<SessionState> =
                    (0..3).map(|_| weights.new_session()).collect();
                let mut scratch = StepScratch::new();
                for tick in 0..4 {
                    let inputs: Vec<Matrix> = if tick == 0 {
                        [31, 32, 33]
                            .iter()
                            .enumerate()
                            .map(|(s, &n)| row(s, n))
                            .collect()
                    } else {
                        (0..3).map(|s| row(10 * tick + s, 1)).collect()
                    };
                    let p0s: Vec<usize> = sessions.iter().map(SessionState::pos).collect();
                    let mut refs: Vec<&mut SessionState> = sessions.iter_mut().collect();
                    scratch.attn_log = Some(Vec::new());
                    weights
                        .step_sessions_scratch(&mut refs, &inputs, threads, &mut scratch)
                        .unwrap();
                    let log = scratch.attn_log.take().unwrap();
                    assert_eq!(log.len(), weights.layer_count());
                    for (li, (q, attn)) in log.iter().enumerate() {
                        let mut r0 = 0;
                        for (si, x) in inputs.iter().enumerate() {
                            let t = x.rows();
                            for head in 0..heads {
                                let qh = Matrix::from_fn(t, hd, |r, c| q[(r0 + r, head * hd + c)]);
                                let kv = sessions[si].kv();
                                let mut sc = GemmScratch::new();
                                let want =
                                    weights.attention_head(kv, li, &qh, head, p0s[si], &mut sc);
                                for (i, c) in (0..t).flat_map(|i| (0..hd).map(move |c| (i, c))) {
                                    assert_eq!(
                                        attn[(r0 + i, head * hd + c)].to_bits(),
                                        want[(i, c)].to_bits(),
                                        "heads {heads}/{kv_heads}, threads {threads}, tick \
                                         {tick}, layer {li}, session {si}, head {head}, row {i}"
                                    );
                                }
                            }
                            r0 += t;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stacked_projections_match_separate_linears_bitwise() {
        // Each block stacks [q;k;v] and [gate;up] into one linear. Every
        // column block of a stacked forward must equal the separate
        // projection's forward, and the stacked packed streams the
        // per-kind streams joined in order. The solo ≡ batched tests
        // cannot see a stack that is wrong the same way on every path
        // (say K and V swapped); this test does.
        let (llama, opt) = (ModelProfile::llama3_8b(), ModelProfile::opt_6_7b());
        for (profile, heads) in [(&llama, (4, 1)), (&llama, (4, 2)), (&opt, (4, 4))] {
            let w = ModelBuilder::scaled(profile, 256, 2)
                .heads(heads.0, heads.1)
                .build_weights()
                .unwrap();
            let (h, kv, inter) = (w.hidden, w.kv_heads * w.head_dim, w.intermediate);
            let qkv = [(LayerKind::Q, h), (LayerKind::K, kv), (LayerKind::V, kv)];
            let up: &[_] = match profile.mlp {
                MlpKind::Gated => &[(LayerKind::Gate, inter), (LayerKind::Up, inter)],
                MlpKind::Plain => &[(LayerKind::Up, inter)],
            };
            for (l, block) in w.blocks.iter().enumerate() {
                for (stacked, kinds) in [(&block.qkv, &qkv[..]), (&block.up, up)] {
                    let what = format!("{} heads {heads:?} layer {l}", profile.name);
                    let parts: Vec<QuantizedLinear> = kinds
                        .iter()
                        .map(|&(kind, n)| {
                            let wk = weight_matrix(profile, kind, l, n, h);
                            QuantizedLinear::from_weights(&wk, w.cfg).unwrap()
                        })
                        .collect();
                    let mut joined = parts[0].packed_weights().clone();
                    for p in &parts[1..] {
                        joined.append_packed(p.packed_weights().clone()).unwrap();
                    }
                    assert!(
                        stacked.packed_weights() == &joined,
                        "{what}: packed streams"
                    );
                    for rows in [1, 5, 33] {
                        let x = tokens(rows, h);
                        let y = stacked.forward(&x).unwrap();
                        let mut c0 = 0;
                        for (&(kind, n), part) in kinds.iter().zip(&parts) {
                            let got = y.block(0, c0, rows, n);
                            let want = part.forward(&x).unwrap();
                            assert!(
                                (got.as_slice().iter().zip(want.as_slice()))
                                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                                "{what}: {kind:?} block, {rows} rows"
                            );
                            c0 += n;
                        }
                        assert_eq!(c0, y.cols(), "{what}: stacked width");
                    }
                }
            }
        }
    }

    #[test]
    fn step_sessions_scratch_reuse_matches_fresh_scratch_bitwise() {
        // One scratch carried across scheduler steps (the serving engine
        // pattern) produces the same bits as a fresh scratch per step.
        let weights = Arc::new(tiny_builder().build_weights().unwrap());
        let x = tokens(3, 64);
        let tok = tokens(1, 64);
        let mut fresh = weights.new_session();
        let a0 = step(&weights, &mut [&mut fresh], std::slice::from_ref(&x), 1).unwrap();
        let a1 = step(&weights, &mut [&mut fresh], std::slice::from_ref(&tok), 1).unwrap();
        let mut reused = weights.new_session();
        let mut scratch = StepScratch::new();
        let b0 = weights
            .step_sessions_scratch(&mut [&mut reused], &[x], 1, &mut scratch)
            .unwrap();
        let b1 = weights
            .step_sessions_scratch(&mut [&mut reused], &[tok], 1, &mut scratch)
            .unwrap();
        for (a, b) in [(a0, b0), (a1, b1)] {
            for (p, q) in a[0].as_slice().iter().zip(b[0].as_slice()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn prefix_adoption_matches_full_prefill_bitwise() {
        // Session A prefills a 40-token prompt and registers its prefix;
        // session B adopts the frozen 32-token page, prefills only the
        // suffix, and must reproduce A's outputs and decode stream bit
        // for bit — the serving-layer prefix-reuse contract.
        let weights = Arc::new(tiny_builder().build_weights().unwrap());
        let x = tokens(40, 64);
        let mut solo = weights.new_session();
        let full = step(&weights, &mut [&mut solo], std::slice::from_ref(&x), 1).unwrap();
        weights.kv_pool().register_prefix(&x, &full[0], solo.kv());

        let m = weights.kv_pool().lookup_prefix(&x).expect("prefix hit");
        assert_eq!(m.tokens, 32);
        let mut adopted = weights.new_session();
        let head = adopted.adopt_prefix(m);
        assert_eq!(adopted.pos(), 32);
        let suffix = x.block(32, 0, 8, 64);
        let tail = step(&weights, &mut [&mut adopted], &[suffix], 1).unwrap();
        let mut stitched = head;
        stitched.push_rows(&tail[0]);
        for (a, b) in full[0].as_slice().iter().zip(stitched.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "adopted prefill diverged");
        }

        // The adopted KV state must continue decoding identically too.
        let tok = tokens(1, 64);
        let d_solo = step(&weights, &mut [&mut solo], std::slice::from_ref(&tok), 1).unwrap();
        let d_adopt = step(&weights, &mut [&mut adopted], std::slice::from_ref(&tok), 1).unwrap();
        for (a, b) in d_solo[0].as_slice().iter().zip(d_adopt[0].as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "adopted decode diverged");
        }
        assert!(weights.kv_pool().stats().prefix_hits >= 1);
        assert!(weights.kv_pool().verify_frozen());
    }

    #[test]
    fn step_sessions_validates_inputs() {
        let weights = Arc::new(tiny_builder().build_weights().unwrap());
        let mut s = weights.new_session();
        assert!(step(&weights, &mut [&mut s], &[], 1).is_err());
        let bad = Matrix::zeros(2, 65);
        assert!(step(&weights, &mut [&mut s], &[bad], 1).is_err());
    }

    #[test]
    fn decode_rejects_multi_row_and_bad_width() {
        let mut m = tiny_builder().build().unwrap();
        assert!(m.decode(&tokens(2, 64)).is_err());
        assert!(m.forward_batch(&Matrix::zeros(2, 65)).is_err());
    }

    #[test]
    fn reference_requires_keep_reference() {
        let m = ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, 1)
            .build()
            .unwrap();
        assert!(m.weights().reference_forward_batch(&tokens(2, 64)).is_err());
    }
}
