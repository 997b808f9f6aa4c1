//! W4A4 error measurement through the transformer's linear stack.
//!
//! For each GEMM kind of a model we synthesize the operands from the
//! model's profile, run the quantized GEMM (`Q_a(X) · Q_w(Wᵀ)ᵀ`) against
//! the f32 reference, and aggregate the relative output error weighted by
//! each GEMM's share of the model's MACs. This measured error is the input
//! to every accuracy/perplexity proxy in [`crate::metrics`] — the proxies
//! never see the format, only its measured error.

use crate::layers::{linear_gemms, weight_kind};
use crate::linear::packed_forward;
use crate::profile::ModelProfile;
use crate::synth::{activation_matrix, weight_matrix};
use m2x_tensor::stats::nmse;
use m2x_tensor::Matrix;
use m2xfp::format::PackedWeightTensor;
use m2xfp::gemm::{GemmScratch, WeightPlane};
use m2xfp::{M2xfpConfig, TensorQuantizer};

/// Evaluation size caps (full model dimensions are sub-sampled; block
/// quantization error statistics are dimension-independent, see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Token rows per GEMM.
    pub tokens: usize,
    /// Cap on the sampled reduction dimension.
    pub max_k: usize,
    /// Cap on the sampled output width.
    pub max_n: usize,
    /// Transformer layers sampled per model.
    pub layer_samples: usize,
    /// Threads for the f32 reference GEMMs.
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            tokens: 48,
            max_k: 768,
            max_n: 384,
            layer_samples: 2,
            threads: 8,
        }
    }
}

impl EvalConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        EvalConfig {
            tokens: 16,
            max_k: 128,
            max_n: 64,
            layer_samples: 1,
            threads: 2,
        }
    }
}

/// Measured W4A4 error statistics of one (model, format) pair.
#[derive(Debug, Clone)]
pub struct W4a4Stats {
    /// Format display name.
    pub format: String,
    /// Model display name.
    pub model: String,
    /// Per-GEMM-kind output NMSE (averaged over sampled layers).
    pub per_gemm: Vec<(String, f64)>,
    /// MAC-weighted mean output NMSE.
    pub mean_nmse: f64,
}

impl W4a4Stats {
    /// Relative RMS output error (√NMSE) — the proxies' noise magnitude.
    pub fn nrmse(&self) -> f64 {
        self.mean_nmse.sqrt()
    }
}

/// Evaluates a format through the [`TensorQuantizer`] interface.
pub fn evaluate(
    profile: &ModelProfile,
    quant: &dyn TensorQuantizer,
    cfg: &EvalConfig,
) -> W4a4Stats {
    evaluate_with(
        profile,
        &quant.name(),
        cfg,
        |w, _layer| quant.quantize_weights(w),
        |x| quant.quantize_activations(x),
    )
}

/// Evaluates the M2XFP format through the engine: every quantized GEMM
/// runs the packed integer kernels a `QuantizedLinear` forward runs
/// (online activation encode + PE kernel against the decoded weight
/// plane) instead of the fake-quantize-then-f32-matmul route of
/// [`evaluate`]. This is the measurement the engine really ships.
pub fn evaluate_backend(profile: &ModelProfile, qcfg: M2xfpConfig, cfg: &EvalConfig) -> W4a4Stats {
    // K is aligned down to the group size so the engine forward keeps the
    // hardware layout contract (`K % group_size == 0`).
    evaluate_gemms(
        profile,
        "M2XFP/packed",
        cfg,
        qcfg.group_size,
        |x, w_t, _layer| {
            let plane = WeightPlane::decode(&PackedWeightTensor::quantize_parallel(w_t, qcfg));
            packed_forward(x, &plane, qcfg, &mut GemmScratch::new())
        },
    )
}

/// Evaluates with explicit weight/activation transforms — the hook used by
/// calibration-dependent schemes (MR-GPTQ) and ablations. The weight hook
/// receives the sampled layer index so calibration data can match the
/// layer's activation statistics.
pub fn evaluate_with(
    profile: &ModelProfile,
    format_name: &str,
    cfg: &EvalConfig,
    quantize_weights: impl Fn(&Matrix, usize) -> Matrix,
    quantize_activations: impl Fn(&Matrix) -> Matrix,
) -> W4a4Stats {
    evaluate_gemms(profile, format_name, cfg, 1, |x, w_t, layer_idx| {
        let xq = quantize_activations(x);
        let wq = quantize_weights(w_t, layer_idx);
        xq.matmul_threaded(&wq.transpose(), cfg.threads)
    })
}

/// The shared measurement scaffold: enumerates the model's linear GEMMs,
/// synthesizes operands per sampled layer, runs `quantized_gemm(x, w_t,
/// layer_idx)` against the f32 reference and MAC-weights the per-kind NMSE.
/// `k_align` rounds the sampled reduction dimension down to a multiple
/// (1 = no alignment; the engine route passes the group size).
fn evaluate_gemms(
    profile: &ModelProfile,
    format_name: &str,
    cfg: &EvalConfig,
    k_align: usize,
    quantized_gemm: impl Fn(&Matrix, &Matrix, usize) -> Matrix,
) -> W4a4Stats {
    let shapes = linear_gemms(profile, cfg.tokens);
    let total_macs: f64 = shapes.iter().map(|g| g.macs() as f64).sum();

    let mut per_gemm = Vec::with_capacity(shapes.len());
    let mut weighted = 0.0f64;
    for shape in &shapes {
        // m2x-lint: allow(panic) shapes come from the static profile table, every entry is a linear gemm
        let kind = weight_kind(&shape.name).expect("linear gemm");
        let k = (shape.k.min(cfg.max_k) / k_align).max(1) * k_align;
        let n = shape.n.min(cfg.max_n);
        let mut acc = 0.0f64;
        for li in 0..cfg.layer_samples {
            let layer_idx = li * (profile.layers / cfg.layer_samples.max(1)).max(1);
            let x = activation_matrix(profile, layer_idx, cfg.tokens, k);
            let w_t = weight_matrix(profile, kind, layer_idx, n, k);
            let y_ref = x.matmul_threaded(&w_t.transpose(), cfg.threads);
            let y_q = quantized_gemm(&x, &w_t, layer_idx);
            acc += nmse(y_ref.as_slice(), y_q.as_slice());
        }
        let e = acc / cfg.layer_samples as f64;
        weighted += e * shape.macs() as f64 / total_macs;
        per_gemm.push((shape.name.clone(), e));
    }

    W4a4Stats {
        format: format_name.to_string(),
        model: profile.name.to_string(),
        per_gemm,
        mean_nmse: weighted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2x_baselines::MxQuantizer;
    use m2xfp::quantizer::{Fp16Reference, M2xfpQuantizer};

    #[test]
    fn fp16_reference_error_is_negligible() {
        let p = ModelProfile::llama2_7b();
        let e = evaluate(&p, &Fp16Reference, &EvalConfig::tiny());
        assert!(e.mean_nmse < 1e-5, "{}", e.mean_nmse);
    }

    #[test]
    fn m2xfp_beats_mxfp4_end_to_end() {
        let p = ModelProfile::llama3_8b();
        let cfg = EvalConfig::tiny();
        let e_m2 = evaluate(&p, &M2xfpQuantizer::default(), &cfg);
        let e_mx = evaluate(&p, &MxQuantizer::mxfp4(), &cfg);
        assert!(
            e_m2.mean_nmse < e_mx.mean_nmse,
            "m2xfp {} vs mxfp4 {}",
            e_m2.mean_nmse,
            e_mx.mean_nmse
        );
    }

    #[test]
    fn per_gemm_covers_all_linear_layers() {
        let p = ModelProfile::mistral_7b();
        let e = evaluate(&p, &MxQuantizer::mxfp4(), &EvalConfig::tiny());
        assert_eq!(e.per_gemm.len(), 7);
        assert!(e.per_gemm.iter().all(|(_, v)| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = ModelProfile::falcon_7b();
        let cfg = EvalConfig::tiny();
        let a = evaluate(&p, &MxQuantizer::mxfp4(), &cfg);
        let b = evaluate(&p, &MxQuantizer::mxfp4(), &cfg);
        assert_eq!(a.mean_nmse, b.mean_nmse);
    }

    #[test]
    fn engine_evaluation_matches_fake_quantized_route() {
        // The engine's integer kernels compute the exact product of the
        // fake-quantized operands, so the only difference from the f32
        // matmul route is the final rounding: the errors agree closely.
        let p = ModelProfile::llama3_8b();
        let cfg = EvalConfig::tiny();
        let qcfg = M2xfpConfig::default();
        let engine = evaluate_backend(&p, qcfg, &cfg);
        let fake = evaluate(&p, &qcfg.quantizer(), &cfg);
        assert_eq!(engine.format, "M2XFP/packed");
        assert!(engine.mean_nmse > 0.0 && engine.mean_nmse < 0.05);
        let rel = (engine.mean_nmse - fake.mean_nmse).abs() / fake.mean_nmse;
        assert!(
            rel < 0.05,
            "engine {} vs fake-quantized {}",
            engine.mean_nmse,
            fake.mean_nmse
        );
    }

    #[test]
    fn nrmse_is_sqrt_of_nmse() {
        let e = W4a4Stats {
            format: "t".into(),
            model: "m".into(),
            per_gemm: vec![],
            mean_nmse: 0.04,
        };
        assert!((e.nrmse() - 0.2).abs() < 1e-12);
    }
}
