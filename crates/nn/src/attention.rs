//! Quantized attention — the §6.4 extension of M2XFP to the KV cache.
//!
//! In attention, K and V are right-hand GEMM operands that can be
//! quantized lazily (like weights, with the adaptive Sg-EM search), while
//! Q and the probability matrix P are produced on the fly and need the
//! online Elem-EM path: `P = Q·Kᵀ`, `O = P·V`. This module evaluates the
//! output error of that hybrid against any uniform format.
//!
//! With [`m2xfp::quantizer::M2xfpQuantizer`] as the `cached` format, the
//! K/V quantization runs the threaded integer-LUT Sg-EM search (the
//! `PackedWeightTensor::quantize_parallel` route), bit-identical to the
//! legacy float search — long-context KV caches quantize at weight-search
//! speed instead of the old ~12 s/4096² rate.

use crate::linear::packed_forward;
use crate::profile::ModelProfile;
use m2x_tensor::{stats, Matrix, Xoshiro};
use m2xfp::format::PackedWeightTensor;
use m2xfp::gemm::{GemmScratch, WeightPlane};
use m2xfp::{Error, M2xfpConfig, TensorQuantizer};

/// Row-wise softmax (f32; the probability matrix of attention).
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let mx = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - mx).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
    out
}

/// Error of one quantized attention head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionError {
    /// NMSE of the score matrix `Q·Kᵀ`.
    pub scores_nmse: f64,
    /// NMSE of the attention output `P·V`.
    pub output_nmse: f64,
}

/// Synthesizes one head's Q/K/V from a model profile (queries share the
/// activation statistics; keys/values are mildly smoother, as post-RoPE
/// projections are).
pub fn synth_head(profile: &ModelProfile, seq: usize, head_dim: usize) -> (Matrix, Matrix, Matrix) {
    let mut r = Xoshiro::seed(profile.seed ^ 0xA77E_0000);
    let nu = profile.act_student_nu;
    let q = Matrix::from_fn(seq, head_dim, |_, _| r.student_t(nu) * 0.7);
    let k = Matrix::from_fn(seq, head_dim, |_, _| r.student_t(nu) * 0.7);
    let v = Matrix::from_fn(seq, head_dim, |_, _| r.student_t(nu + 2) * 0.8);
    (q, k, v)
}

/// Runs one attention head with `dynamic` quantization on Q/P (the online
/// path) and `cached` quantization on K/V (the lazily quantized cache).
pub fn evaluate_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    dynamic: &dyn TensorQuantizer,
    cached: &dyn TensorQuantizer,
) -> AttentionError {
    let scale = 1.0 / (q.cols() as f32).sqrt();

    let scores_ref = q.matmul(&k.transpose()).map(|x| x * scale);
    let p_ref = softmax_rows(&scores_ref);
    let out_ref = p_ref.matmul(v);

    let scores_q = dynamic
        .quantize_activations(q)
        .matmul(&cached.quantize_weights(k).transpose())
        .map(|x| x * scale);
    let p_q = softmax_rows(&scores_q);
    // V is grouped along seq for the P·V product: quantize its transpose
    // (rows along the reduction dimension), then transpose back.
    let v_q = cached.quantize_weights(&v.transpose()).transpose();
    let out_q = dynamic.quantize_activations(&p_q).matmul(&v_q);

    AttentionError {
        scores_nmse: stats::nmse(scores_ref.as_slice(), scores_q.as_slice()),
        output_nmse: stats::nmse(out_ref.as_slice(), out_q.as_slice()),
    }
}

/// Runs one attention head through the engine — the engine-true variant
/// of [`evaluate_attention`]: the score GEMM `Q·Kᵀ` and the value GEMM
/// `P·V` both execute the packed quantized kernel against the planes of
/// Sg-EM quantized K/Vᵀ (the lazily quantized cache operands), with Q and
/// P quantized online inside the forward.
///
/// This measures the full-sequence offline setting, where Vᵀ may be
/// grouped along seq. `m2x_nn::model`'s KV-cache attention shares the
/// score route but quantizes V **per token along the head dimension**
/// (grouping V along a growing seq axis would let future tokens perturb
/// past group scales, breaking causality and the prefill/decode
/// equivalence) and mixes the dequantized V rows in f32 — so its
/// attention error differs slightly from the number reported here.
///
/// # Errors
///
/// Fails when Q/K/V shapes are inconsistent.
pub fn evaluate_attention_backend(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: M2xfpConfig,
) -> Result<AttentionError, Error> {
    for (tensor, expected, got) in [
        ("attention scores (Q·Kᵀ)", k.cols(), q.cols()),
        ("attention output (P·V)", v.rows(), k.rows()),
    ] {
        if expected != got {
            return Err(Error::WidthMismatch {
                tensor: tensor.to_string(),
                expected,
                got,
            });
        }
    }
    let scale = 1.0 / (q.cols() as f32).sqrt();

    let scores_ref = q.matmul(&k.transpose()).map(|x| x * scale);
    let p_ref = softmax_rows(&scores_ref);
    let out_ref = p_ref.matmul(v);

    // K rows are already the weight layout ([seq, head_dim], rows along the
    // reduction dimension); V must be grouped along seq for P·V, so its
    // transpose is the cached weight operand.
    let plane = |w: &Matrix| WeightPlane::decode(&PackedWeightTensor::quantize_parallel(w, cfg));
    let mut scratch = GemmScratch::new();
    let scores_q = packed_forward(q, &plane(k), cfg, &mut scratch).map(|x| x * scale);
    let p_q = softmax_rows(&scores_q);
    let out_q = packed_forward(&p_q, &plane(&v.transpose()), cfg, &mut scratch);

    Ok(AttentionError {
        scores_nmse: stats::nmse(scores_ref.as_slice(), scores_q.as_slice()),
        output_nmse: stats::nmse(out_ref.as_slice(), out_q.as_slice()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2x_baselines::MxQuantizer;
    use m2xfp::quantizer::{Fp16Reference, M2xfpQuantizer};

    #[test]
    fn softmax_rows_are_distributions() {
        let m = Matrix::from_fn(4, 8, |r, c| ((r * 8 + c) as f32 * 0.7).sin() * 3.0);
        let p = softmax_rows(&m);
        for r in 0..4 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn fp16_attention_nearly_exact() {
        let p = ModelProfile::llama3_8b();
        let (q, k, v) = synth_head(&p, 32, 32);
        let e = evaluate_attention(&q, &k, &v, &Fp16Reference, &Fp16Reference);
        assert!(e.output_nmse < 1e-5, "{}", e.output_nmse);
    }

    #[test]
    fn m2xfp_hybrid_beats_uniform_mxfp4() {
        // §6.4: Elem-EM for Q/P + Sg-EM for the KV cache outperforms plain
        // MXFP4 on everything.
        let p = ModelProfile::llama3_8b();
        let (q, k, v) = synth_head(&p, 64, 64);
        let m2 = M2xfpQuantizer::default();
        let mx = MxQuantizer::mxfp4();
        let e_m2 = evaluate_attention(&q, &k, &v, &m2, &m2);
        let e_mx = evaluate_attention(&q, &k, &v, &mx, &mx);
        assert!(
            e_m2.output_nmse < e_mx.output_nmse,
            "m2xfp {} vs mxfp4 {}",
            e_m2.output_nmse,
            e_mx.output_nmse
        );
        assert!(e_m2.scores_nmse < e_mx.scores_nmse);
    }

    #[test]
    fn kv_cache_lut_search_matches_legacy_float_search() {
        // The M2XFP KV-cache path now quantizes K/V through the threaded
        // LUT search; attention errors must be bit-identical to the legacy
        // per-group float Sg-EM search.
        use m2x_tensor::Matrix;
        use m2xfp::quantizer::ReferenceM2xfpQuantizer;

        let p = ModelProfile::llama3_8b();
        let (q, k, v) = synth_head(&p, 48, 32);
        let m2 = M2xfpQuantizer::default();
        let oracle = ReferenceM2xfpQuantizer::default();
        let kq: Matrix = m2.quantize_weights(&k);
        let kq_ref: Matrix = oracle.quantize_weights(&k);
        for (a, b) in kq.as_slice().iter().zip(kq_ref.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let e = evaluate_attention(&q, &k, &v, &m2, &m2);
        let e_ref = evaluate_attention(&q, &k, &v, &oracle, &oracle);
        assert_eq!(e.scores_nmse.to_bits(), e_ref.scores_nmse.to_bits());
        assert_eq!(e.output_nmse.to_bits(), e_ref.output_nmse.to_bits());
    }

    #[test]
    fn engine_attention_tracks_fake_quantized_route_and_rejects_bad_shapes() {
        // The engine's score GEMM is the exact product of the fake-quantized
        // operands (up to the final f32 rounding), so its score error
        // matches the fake-quantized route closely; a ragged seq (40) runs
        // the zero-padded trailing group of the P·V kernel.
        let p = ModelProfile::llama3_8b();
        let (q, k, v) = synth_head(&p, 40, 64);
        let cfg = M2xfpConfig::default();
        let e = evaluate_attention_backend(&q, &k, &v, cfg).unwrap();
        assert!(e.output_nmse > 0.0 && e.output_nmse.is_finite());
        let m2 = M2xfpQuantizer::new(cfg);
        let fake = evaluate_attention(&q, &k, &v, &m2, &m2);
        let rel = (e.scores_nmse - fake.scores_nmse).abs() / fake.scores_nmse;
        assert!(
            rel < 0.05,
            "engine {} vs fake {}",
            e.scores_nmse,
            fake.scores_nmse
        );
        let short_k = Matrix::zeros(40, 32);
        assert!(evaluate_attention_backend(&q, &short_k, &v, cfg).is_err());
        let short_v = Matrix::zeros(39, 64);
        assert!(evaluate_attention_backend(&q, &k, &short_v, cfg).is_err());
    }

    #[test]
    fn head_synthesis_deterministic() {
        let p = ModelProfile::mistral_7b();
        let (q1, _, _) = synth_head(&p, 16, 16);
        let (q2, _, _) = synth_head(&p, 16, 16);
        assert_eq!(q1, q2);
    }
}
