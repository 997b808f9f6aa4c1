//! Whole-model end-to-end measurement harness — the §6 setting behind the
//! `e2e_model` section of `bench_m2xfp_json`.
//!
//! Builds a scaled synthetic LLaMA3-8B stack through
//! [`m2x_nn::model::ModelBuilder`], times offline quantization, batched
//! forward throughput and the prefill→decode serving loop, and measures
//! per-layer + whole-model NRMSE against the f32 reference path. The
//! packed kernels are probed over the seven per-kind projection shapes
//! (q, k, v, o, gate, up, down; the engine itself runs each block as four
//! stacked linears, `qkv`, `o`, `up`, `down`): the packed layer forward
//! against the grouped `qgemm` and the f64 `qgemm_reference` oracles, bit
//! for bit, with the grouped-over-packed time ratio.

use crate::report::Json;
use crate::timing::{best_of, bits_eq, time_per_call, Interleaved};
use m2x_nn::linear::QuantizedLinear;
use m2x_nn::model::{ModelBuilder, ModelWeights, QuantizedModel};
use m2x_nn::profile::ModelProfile;
use m2x_nn::synth::{activation_matrix, weight_matrix, LayerKind};
use m2x_tensor::stats::nmse;
use m2x_tensor::Matrix;
use m2xfp::format::ActTensor;
use m2xfp::gemm::{qgemm, qgemm_reference, GemmScratch};
use std::hint::black_box;
use std::time::Instant;

/// Dimensions and measurement knobs of one end-to-end run.
#[derive(Debug, Clone, Copy)]
pub struct E2eConfig {
    /// Hidden (residual stream) dimension.
    pub hidden: usize,
    /// Transformer layer count.
    pub layers: usize,
    /// Prefill batch size in tokens.
    pub tokens: usize,
    /// Decode steps timed after a half-batch prefill.
    pub decode_steps: usize,
    /// Measurement repetitions: times are best-of, `speedup_packed` the
    /// median of the per-rep ratios.
    pub reps: usize,
}

impl E2eConfig {
    /// The fixed small configuration of the emitter's `ci` profile (and
    /// gated by CI): big enough to exercise every engine layer, small
    /// enough for a shared runner.
    pub fn ci() -> Self {
        E2eConfig {
            hidden: 128,
            layers: 2,
            tokens: 16,
            decode_steps: 4,
            reps: 3,
        }
    }

    /// The report's `cfg` table.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hidden", self.hidden.into()),
            ("layers", self.layers.into()),
            ("tokens", self.tokens.into()),
            ("decode_steps", self.decode_steps.into()),
            ("reps", self.reps.into()),
        ])
    }
}

/// Measured results of one end-to-end run.
#[derive(Debug, Clone)]
pub struct E2eReport {
    /// Configuration measured.
    pub cfg: E2eConfig,
    /// Attention heads / KV heads / MLP width of the scaled model.
    pub heads: usize,
    /// KV heads.
    pub kv_heads: usize,
    /// MLP intermediate width.
    pub intermediate: usize,
    /// Packed weight footprint (bytes).
    pub weight_bytes: usize,
    /// Offline build: synthesize + Sg-EM quantize + plane decode, all
    /// layers (seconds).
    pub quantize_s: f64,
    /// Best-of-reps batched forward of the whole model (seconds).
    pub forward_packed_s: f64,
    /// Whole-model throughput of the batched forward (GMAC/s).
    pub gmacs: f64,
    /// One call of each of the seven per-kind projections at the batch's
    /// token count through the packed layer forward, summed; fastest rep
    /// (seconds).
    pub proj_packed_s: f64,
    /// The same calls through the grouped PE pipeline (`ActTensor`
    /// encode + `qgemm`), summed; fastest rep (seconds).
    pub proj_grouped_s: f64,
    /// Hardware-normalized kernel ratio grouped over packed: the median
    /// over reps of each rep's summed grouped time over its summed packed
    /// time, the two sides timed back to back (see [`crate::timing`]).
    pub speedup_packed: f64,
    /// Over all seven per-kind projection shapes, the packed layer
    /// forward, the grouped `qgemm` and the f64 `qgemm_reference` agree
    /// bit for bit.
    pub backends_exact: bool,
    /// Decode throughput after a half-batch prefill (tokens/s).
    pub decode_tokens_per_s: f64,
    /// Whole-model output NRMSE vs the f32 reference.
    pub nrmse: f64,
    /// Per-layer residual-stream NMSE vs the f32 reference (quantized
    /// trace vs reference trace, cumulative through the stack).
    pub per_layer_nmse: Vec<f64>,
}

/// Minimum duration of one timed kernel sample: single projection calls
/// at CI dims take microseconds, far inside timer noise, and the ratio
/// built from them is hard-gated.
const KERNEL_SAMPLE_S: f64 = 0.003;

/// Token embeddings for the run: profile-calibrated activations squashed
/// into an embedding-like range so deep stacks stay well-conditioned.
pub fn token_embeddings(profile: &ModelProfile, tokens: usize, hidden: usize) -> Matrix {
    activation_matrix(profile, 0, tokens, hidden).map(|v| (v * 0.25).tanh())
}

fn build(profile: &ModelProfile, cfg: &E2eConfig) -> QuantizedModel {
    ModelBuilder::scaled(profile, cfg.hidden, cfg.layers)
        .keep_reference(true)
        .build()
        .expect("scaled dimensions are group-aligned")
}

/// The seven per-kind projection shapes of one block, the kernel probes:
/// `(kind, out_features, in_features)`.
fn projection_shapes(w: &ModelWeights) -> [(LayerKind, usize, usize); 7] {
    let (h, i) = (w.hidden(), w.intermediate());
    let kv = w.kv_heads() * w.head_dim();
    [
        (LayerKind::Q, h, h),
        (LayerKind::K, kv, h),
        (LayerKind::V, kv, h),
        (LayerKind::O, h, h),
        (LayerKind::Gate, i, h),
        (LayerKind::Up, i, h),
        (LayerKind::Down, h, i),
    ]
}

/// Kernel-level check over the seven per-kind projection shapes at
/// `tokens` rows: whether the packed forward is bit-exact against both
/// oracles, plus the interleaved grouped (side 0) and packed (side 1)
/// times, each side one call per shape summed. Both sides include their
/// activation encode, as a layer forward does.
fn projection_kernels(
    profile: &ModelProfile,
    w: &ModelWeights,
    tokens: usize,
    reps: usize,
) -> (bool, Interleaved<2>) {
    let cfg = *w.config();
    let mut scratch = GemmScratch::new();
    let mut exact = true;
    let mut shapes = Vec::new();
    for (kind, n, k) in projection_shapes(w) {
        let lin = QuantizedLinear::from_weights(&weight_matrix(profile, kind, 0, n, k), cfg)
            .expect("projection widths are group-aligned");
        let wg = lin.weights();
        let x = activation_matrix(profile, 0, tokens, k);
        let y = lin.forward_scratch(&x, &mut scratch).expect("aligned");
        let xa = ActTensor::quantize(&x, cfg);
        exact &= bits_eq(&y, &qgemm(&xa, &wg)) && bits_eq(&y, &qgemm_reference(&xa, &wg));
        shapes.push((lin, wg, x));
    }
    let mut grouped = || -> f64 {
        shapes
            .iter()
            .map(|(_, wg, x)| {
                time_per_call(KERNEL_SAMPLE_S, || {
                    black_box(qgemm(&ActTensor::quantize(x, cfg), wg));
                })
            })
            .sum()
    };
    let mut packed = || -> f64 {
        shapes
            .iter()
            .map(|(lin, _, x)| {
                time_per_call(KERNEL_SAMPLE_S, || {
                    black_box(lin.forward_scratch(x, &mut scratch).expect("aligned"));
                })
            })
            .sum()
    };
    (exact, Interleaved::run(reps, [&mut grouped, &mut packed]))
}

/// Runs the full measurement. Deterministic given the configuration.
pub fn run(cfg: E2eConfig) -> E2eReport {
    let profile = ModelProfile::llama3_8b();
    let x = token_embeddings(&profile, cfg.tokens, cfg.hidden);

    let (quantize_s, mut model) = best_of(cfg.reps, || build(&profile, &cfg));
    let (forward_packed_s, _) = best_of(cfg.reps, || model.forward_batch(&x).expect("aligned"));
    let weights = std::sync::Arc::clone(model.weights());

    // Serving loop: prefill half the batch, then single-token decodes on
    // the decode-on-append KV path (each step grows the page's K plane
    // and cached V rows incrementally — O(1) per head per step).
    let prefill_rows = (cfg.tokens / 2).max(1);
    let decode_s = {
        model.reset();
        let head = Matrix::from_fn(prefill_rows, cfg.hidden, |r, c| x[(r, c)]);
        model.prefill(&head).expect("aligned");
        let xt = Matrix::from_fn(1, cfg.hidden, |_, c| x[(prefill_rows.min(x.rows() - 1), c)]);
        let t0 = Instant::now();
        for _ in 0..cfg.decode_steps {
            black_box(model.decode(&xt).expect("aligned"));
        }
        t0.elapsed().as_secs_f64()
    };

    // Accuracy: quantized vs f32 reference, per layer and end to end.
    let (y_q, trace_q) = {
        model.reset();
        model.forward_batch_traced(&x).expect("aligned")
    };
    let (y_ref, trace_ref) = weights.reference_traced(&x).expect("reference kept");
    let per_layer_nmse: Vec<f64> = trace_q
        .iter()
        .zip(&trace_ref)
        .map(|(a, b)| nmse(b.as_slice(), a.as_slice()))
        .collect();
    let nrmse = nmse(y_ref.as_slice(), y_q.as_slice()).sqrt();

    let (backends_exact, proj) = projection_kernels(&profile, &weights, cfg.tokens, cfg.reps);
    let macs = weights.forward_macs(cfg.tokens, 0) as f64;
    E2eReport {
        cfg,
        heads: weights.heads(),
        kv_heads: weights.kv_heads(),
        intermediate: weights.intermediate(),
        weight_bytes: weights.weight_bytes(),
        quantize_s,
        forward_packed_s,
        gmacs: macs / forward_packed_s / 1e9,
        proj_packed_s: proj.best(1),
        proj_grouped_s: proj.best(0),
        speedup_packed: proj.median(|s| s[0] / s[1]),
        backends_exact,
        decode_tokens_per_s: cfg.decode_steps as f64 / decode_s,
        nrmse,
        per_layer_nmse,
    }
}

impl E2eReport {
    /// The report's (name, value) table. Per-layer errors become
    /// `per_layer.layer_<i>` keys.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cfg", self.cfg.to_json()),
            ("heads", self.heads.into()),
            ("kv_heads", self.kv_heads.into()),
            ("intermediate", self.intermediate.into()),
            ("weight_bytes", self.weight_bytes.into()),
            ("quantize_s", Json::Num(self.quantize_s, 6)),
            (
                "forward_batch_packed_s",
                Json::Num(self.forward_packed_s, 6),
            ),
            ("gmacs", Json::Num(self.gmacs, 4)),
            ("proj_grouped_s", Json::Num(self.proj_grouped_s, 6)),
            ("proj_packed_s", Json::Num(self.proj_packed_s, 6)),
            ("speedup_packed", Json::Num(self.speedup_packed, 3)),
            ("backends_exact", self.backends_exact.into()),
            (
                "decode_tokens_per_s",
                Json::Num(self.decode_tokens_per_s, 2),
            ),
            ("nrmse", Json::Num(self.nrmse, 6)),
            (
                "per_layer",
                Json::Obj(
                    self.per_layer_nmse
                        .iter()
                        .enumerate()
                        .map(|(i, e)| (format!("layer_{i}"), Json::Num(*e, 8)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_run_is_exact_and_accurate() {
        let mut cfg = E2eConfig::ci();
        cfg.hidden = 64;
        cfg.tokens = 6;
        cfg.reps = 1;
        cfg.decode_steps = 2;
        let r = run(cfg);
        assert!(
            r.backends_exact,
            "packed projections diverged from the oracles"
        );
        assert!(r.nrmse > 0.0 && r.nrmse < 0.3, "nrmse {}", r.nrmse);
        assert_eq!(r.per_layer_nmse.len(), cfg.layers);
        assert!(r.gmacs > 0.0 && r.speedup_packed > 0.0);
        let json = r.to_json().render();
        assert!(json.contains("\"backends_exact\": true"));
        assert!(json.contains("\"layer_1\""));
    }
}
