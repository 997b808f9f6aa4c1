//! The lower rungs of the traced run's layered replay.
//!
//! * [`replay_engine`] runs the request list through
//!   `ModelWeights::step_sessions_scratch` alone, with the scheduler's FIFO
//!   admission of at most `cap` sessions, prefix adoption at admission and
//!   prefix registration after prefill — the engine's share of what the
//!   server did, without the server.
//! * [`replay_kernels`] times the projections and the `m2xfp` packed
//!   kernels at the shapes the engine ran.

use crate::check::{hash_row, EMPTY_HASH};
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::workload::{profile, Request, HIDDEN, LAYERS};
use m2x_nn::model::{ModelWeights, SessionState, StepScratch};
use m2x_nn::synth::{activation_matrix, weight_matrix, LayerKind};
use m2x_nn::QuantizedLinear;
use m2x_serve::feedback_token;
use m2x_tensor::Matrix;
use m2xfp::format::{PackedActTensor, PackedWeightTensor};
use m2xfp::gemm::{
    gemm_threads, qgemm_packed_planed_scratch, qgemv_packed, GemmScratch, WeightPlane,
};
use m2xfp::M2xfpConfig;
use std::sync::Arc;
use std::time::Instant;

/// One batched engine step of the replay.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Rows stacked into the step.
    pub rows: usize,
    /// Of those, prompt rows.
    pub prefill_rows: usize,
    /// Of those, decode rows (one per decoding session).
    pub decode_rows: usize,
    /// `forward_macs` summed over the step's sessions.
    pub macs: u64,
    /// The prompt rows' share of `macs`.
    pub prefill_macs: u64,
    /// Wall time of the step, µs.
    pub us: f64,
}

/// What the engine replay measured.
#[derive(Debug, Default)]
pub struct EngineReplay {
    /// Every measured step, in order.
    pub steps: Vec<StepRecord>,
    /// Admission to first token, ms, per request.
    pub ttft_ms: Vec<f64>,
    /// Gaps between a request's token steps, ms.
    pub itl_ms: Vec<f64>,
    /// Decode tokens generated.
    pub tokens: u64,
    /// Hash of each request's decode rows.
    pub hashes: Vec<u64>,
    /// Rows each request actually prefilled (prompt minus adopted prefix).
    pub prefilled_rows: Vec<usize>,
    /// Prompt tokens served from adopted prefix pages.
    pub adopted_tokens: usize,
}

impl EngineReplay {
    /// Prompt rows' time per row, µs: each step's time split between its
    /// prompt and decode rows in proportion to their MACs.
    pub fn prefill_us_per_row(&self) -> f64 {
        let (us, rows) = self.steps.iter().fold((0.0, 0usize), |(us, rows), s| {
            if s.prefill_rows == 0 {
                return (us, rows);
            }
            (
                us + s.us * s.prefill_macs as f64 / s.macs.max(1) as f64,
                rows + s.prefill_rows,
            )
        });
        us / rows.max(1) as f64
    }

    /// Percentile of step time over decode tokens (a step that advances
    /// `k` sessions counts `k` times) — the per-token view the inter-token
    /// gap takes.
    pub fn decode_step_us(&self, p: f64) -> Result<f64, String> {
        let per_token: Vec<f64> = self
            .steps
            .iter()
            .flat_map(|s| std::iter::repeat_n(s.us, s.decode_rows))
            .collect();
        percentile(&per_token, p)
    }

    /// Summed MACs of every step.
    pub fn macs(&self) -> u64 {
        self.steps.iter().map(|s| s.macs).sum()
    }

    /// Summed step time, s.
    pub fn step_s(&self) -> f64 {
        self.steps.iter().map(|s| s.us).sum::<f64>() / 1e6
    }
}

struct Slot {
    idx: Option<usize>,
    prompt: Arc<Matrix>,
    session: SessionState,
    next_input: Matrix,
    prefilling: bool,
    remaining: usize,
    adopted_out: Option<Matrix>,
    prefill_out: Matrix,
    registered: bool,
    hash: u64,
    admitted: Instant,
    last: Instant,
    tokens: usize,
}

/// Admits a request the way the scheduler does: adopt any frozen prefix
/// of its prompt, queue the rest for prefill.
fn admit(
    weights: &ModelWeights,
    idx: Option<usize>,
    r: &Request,
    replay: &mut EngineReplay,
) -> Slot {
    let mut session = weights.new_session();
    let prompt = Arc::new(r.prompt());
    let (next_input, adopted_out) = match weights.kv_pool().lookup_prefix(&prompt) {
        Some(m) => {
            let t0 = m.tokens;
            let out = session.adopt_prefix(m);
            let rest = Matrix::from_fn(prompt.rows() - t0, prompt.cols(), |i, c| {
                prompt[(t0 + i, c)]
            });
            if idx.is_some() {
                replay.adopted_tokens += t0;
            }
            (rest, Some(out))
        }
        None => ((*prompt).clone(), None),
    };
    if let Some(i) = idx {
        replay.prefilled_rows[i] = next_input.rows();
    }
    let now = Instant::now();
    Slot {
        idx,
        session,
        next_input,
        prefilling: true,
        remaining: r.decode,
        adopted_out,
        prefill_out: Matrix::zeros(0, prompt.cols()),
        registered: false,
        hash: EMPTY_HASH,
        admitted: now,
        last: now,
        tokens: 0,
        prompt,
    }
}

/// Replays `warmup` alone, then `reqs` with at most `cap` sessions in
/// flight, admitting in list order as slots free up. Only the measured
/// requests' steps are recorded. Leaves the pool's prefix index cleared.
pub fn replay_engine(
    weights: &ModelWeights,
    warmup: &Request,
    reqs: &[Request],
    cap: usize,
    rec: &mut Recorder,
) -> Result<EngineReplay, String> {
    let mut replay = EngineReplay {
        hashes: vec![EMPTY_HASH; reqs.len()],
        prefilled_rows: vec![0; reqs.len()],
        ..EngineReplay::default()
    };
    let mut scratch = StepScratch::new();
    let list: Vec<(Option<usize>, &Request)> = std::iter::once((None, warmup))
        .chain(reqs.iter().enumerate().map(|(i, r)| (Some(i), r)))
        .collect();
    let mut active: Vec<Slot> = Vec::with_capacity(cap);
    let mut next = 0;
    loop {
        // The warm-up (first in the list) runs alone, like the run's
        // set-up request.
        while active.len() < cap.max(1)
            && next < list.len()
            && !active.iter().any(|s| s.idx.is_none())
        {
            let (idx, r) = list[next];
            active.push(admit(weights, idx, r, &mut replay));
            next += 1;
        }
        if active.is_empty() {
            break;
        }
        let measured = active.iter().any(|s| s.idx.is_some());
        let inputs: Vec<Matrix> = active.iter().map(|s| s.next_input.clone()).collect();
        let mut record = StepRecord {
            rows: 0,
            prefill_rows: 0,
            decode_rows: 0,
            macs: 0,
            prefill_macs: 0,
            us: 0.0,
        };
        for (s, x) in active.iter().zip(&inputs) {
            let macs = weights.forward_macs(x.rows(), s.session.pos());
            record.rows += x.rows();
            record.macs += macs;
            if s.prefilling {
                record.prefill_rows += x.rows();
                record.prefill_macs += macs;
            } else {
                record.decode_rows += x.rows();
            }
        }
        let o = rec.open();
        let t = Instant::now();
        let outs = {
            let mut sessions: Vec<&mut SessionState> =
                active.iter_mut().map(|s| &mut s.session).collect();
            weights
                .step_sessions_scratch(&mut sessions, &inputs, 0, &mut scratch)
                .map_err(|e| format!("engine replay step: {e}"))?
        };
        let now = Instant::now();
        record.us = (now - t).as_secs_f64() * 1e6;
        rec.close(o, "nn", "step", 0, record.rows as u64);
        for (s, y) in active.iter_mut().zip(outs) {
            s.next_input = feedback_token(&y);
            if s.prefilling {
                s.prefill_out = match s.adopted_out.take() {
                    Some(mut pre) => {
                        pre.push_rows(&y);
                        pre
                    }
                    None => y,
                };
                s.prefilling = false;
            } else {
                s.hash = hash_row(s.hash, y.row(0));
                s.remaining -= 1;
                if s.idx.is_some() {
                    let gap =
                        (now - if s.tokens == 0 { s.admitted } else { s.last }).as_secs_f64() * 1e3;
                    if s.tokens == 0 {
                        replay.ttft_ms.push(gap);
                    } else {
                        replay.itl_ms.push(gap);
                    }
                    replay.tokens += 1;
                }
                s.tokens += 1;
                s.last = now;
            }
        }
        for s in active.iter_mut().filter(|s| !s.prefilling && !s.registered) {
            s.registered = true;
            weights
                .kv_pool()
                .register_prefix(&s.prompt, &s.prefill_out, s.session.kv());
        }
        active.retain(|s| {
            let done = !s.prefilling && s.remaining == 0;
            if done {
                if let Some(i) = s.idx {
                    replay.hashes[i] = s.hash;
                }
            }
            !done
        });
        if measured {
            replay.steps.push(record);
        }
    }
    weights.kv_pool().clear_retained();
    Ok(replay)
}

/// What the kernel replay measured.
#[derive(Debug, Clone, Copy)]
pub struct KernelReplay {
    /// Share of engine step time spent in the seven projections.
    pub proj_share: f64,
    /// GEMV (m = 1) rate over the projection shapes, GMAC/s.
    pub gemv_gmac_per_s: f64,
    /// GEMM rate at the workload's median prefill rows, GMAC/s.
    pub gemm_gmac_per_s: f64,
    /// Online activation encode rate on rows of hidden width, Melem/s.
    pub act_encode_melem_per_s: f64,
    /// Sg-EM weight quantization of every projection of every layer, s.
    pub weight_quant_s: f64,
}

const GEMV_ITERS: usize = 200;

/// The seven projections of one layer: (kind, out features, in features).
fn projection_shapes(weights: &ModelWeights) -> Vec<(LayerKind, usize, usize)> {
    let (h, i) = (weights.hidden(), weights.intermediate());
    let kv = weights.kv_heads() * weights.head_dim();
    vec![
        (LayerKind::Q, h, h),
        (LayerKind::K, kv, h),
        (LayerKind::V, kv, h),
        (LayerKind::O, h, h),
        (LayerKind::Gate, i, h),
        (LayerKind::Up, i, h),
        (LayerKind::Down, h, i),
    ]
}

/// LLM-like input rows of `width` columns, `rows` of them.
fn inputs(width: usize, rows: usize) -> Matrix {
    activation_matrix(&profile(), 0x1A7E_0001, rows, width).map(|v| (v * 0.25).tanh())
}

/// The first `rows` rows of `m` (cycling when `m` is shorter).
fn take_rows(m: &Matrix, rows: usize) -> Matrix {
    Matrix::from_fn(rows, m.cols(), |r, c| m[(r % m.rows(), c)])
}

/// Times the projections at every replayed step's row count and the
/// packed kernels at the workload's shapes. `gemm_rows` is the median
/// prefill row count.
pub fn replay_kernels(
    weights: &ModelWeights,
    steps: &[StepRecord],
    gemm_rows: usize,
    rec: &mut Recorder,
) -> Result<KernelReplay, String> {
    let cfg: M2xfpConfig = *weights.config();
    let p = profile();
    let shapes = projection_shapes(weights);
    let w_all: Vec<Vec<Matrix>> = (0..LAYERS)
        .map(|l| {
            shapes
                .iter()
                .map(|&(k, n, kk)| weight_matrix(&p, k, l, n, kk))
                .collect()
        })
        .collect();
    let linears: Vec<QuantizedLinear> = w_all[0]
        .iter()
        .map(|w| QuantizedLinear::from_weights(w, cfg).map_err(|e| format!("projection: {e}")))
        .collect::<Result<_, _>>()?;
    let max_rows = steps
        .iter()
        .map(|s| s.rows)
        .max()
        .unwrap_or(1)
        .max(gemm_rows);
    let src_h = inputs(HIDDEN, max_rows.min(512));
    let src_i = inputs(weights.intermediate(), max_rows.min(512));
    let mut scratch = GemmScratch::new();

    // Projection share of the engine steps (identical shapes per layer).
    let mut proj_us = 0.0;
    for s in steps {
        let (xh, xi) = (take_rows(&src_h, s.rows), take_rows(&src_i, s.rows));
        for lin in &linears {
            let x = if lin.in_features() == HIDDEN {
                &xh
            } else {
                &xi
            };
            let o = rec.open();
            let t = Instant::now();
            let y = lin
                .forward_scratch(x, &mut scratch)
                .map_err(|e| format!("projection: {e}"))?;
            proj_us += t.elapsed().as_secs_f64() * 1e6;
            rec.close(o, "nn", "projection", 0, s.rows as u64);
            std::hint::black_box(y);
        }
    }
    let step_us: f64 = steps.iter().map(|s| s.us).sum();
    let proj_share = proj_us * LAYERS as f64 / step_us.max(1e-9);

    let planes: Vec<WeightPlane> = linears
        .iter()
        .map(|l| WeightPlane::decode(l.packed_weights()))
        .collect();
    let encode = |rows: usize, lin: &QuantizedLinear| {
        let src = if lin.in_features() == HIDDEN {
            &src_h
        } else {
            &src_i
        };
        PackedActTensor::quantize_parallel(&take_rows(src, rows), cfg)
    };

    // GEMV at m = 1.
    let (mut macs, mut secs) = (0f64, 0f64);
    for (lin, plane) in linears.iter().zip(&planes) {
        let x = encode(1, lin);
        for _ in 0..GEMV_ITERS {
            let o = rec.open();
            let t = Instant::now();
            let y = qgemv_packed(&x, plane, &mut scratch);
            secs += t.elapsed().as_secs_f64();
            rec.close(o, "core", "qgemv", 0, 1);
            std::hint::black_box(y);
        }
        macs += (lin.out_features() * lin.in_features() * GEMV_ITERS) as f64;
    }
    let gemv_gmac_per_s = macs / secs / 1e9;

    // GEMM at the median prefill rows.
    let m = gemm_rows.max(1);
    let iters = (4096 / m).clamp(2, 200);
    let (mut macs, mut secs) = (0f64, 0f64);
    for (lin, plane) in linears.iter().zip(&planes) {
        let x = encode(m, lin);
        let threads = gemm_threads(m, lin.in_features(), lin.out_features());
        for _ in 0..iters {
            let o = rec.open();
            let t = Instant::now();
            let y = qgemm_packed_planed_scratch(&x, plane, threads, &mut scratch);
            secs += t.elapsed().as_secs_f64();
            rec.close(o, "core", "qgemm", 0, m as u64);
            std::hint::black_box(y);
        }
        macs += (m * lin.out_features() * lin.in_features() * iters) as f64;
    }
    let gemm_gmac_per_s = macs / secs / 1e9;

    // Online activation encode of hidden-width rows.
    let x = take_rows(&src_h, m);
    let mut secs = 0f64;
    for _ in 0..iters {
        let o = rec.open();
        let t = Instant::now();
        let y = PackedActTensor::quantize_parallel(&x, cfg);
        secs += t.elapsed().as_secs_f64();
        rec.close(o, "core", "act_encode", 0, m as u64);
        std::hint::black_box(y);
    }
    let act_encode_melem_per_s = (m * HIDDEN * iters) as f64 / secs / 1e6;

    // Sg-EM weight quantization of every projection of every layer.
    let mut weight_quant_s = 0f64;
    for w in w_all.iter().flatten() {
        let o = rec.open();
        let t = Instant::now();
        let q = PackedWeightTensor::quantize_parallel(w, cfg);
        weight_quant_s += t.elapsed().as_secs_f64();
        rec.close(o, "core", "weight_quant", 0, w.rows() as u64);
        std::hint::black_box(q);
    }

    Ok(KernelReplay {
        proj_share,
        gemv_gmac_per_s,
        gemm_gmac_per_s,
        act_encode_melem_per_s,
        weight_quant_s,
    })
}
