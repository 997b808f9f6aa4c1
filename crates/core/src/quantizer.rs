//! The [`TensorQuantizer`] trait — the uniform interface every format in
//! this reproduction (M2XFP and all baselines) implements, mirroring how the
//! paper's PyTorch framework models formats via fake quantization.
//!
//! Conventions:
//! * Matrices are grouped **along rows** (contiguous row chunks of the group
//!   size). For a GEMM `X[M,K] · W[K,N]` both operands must be grouped along
//!   `K`, so callers pass `X` as-is and the weight matrix transposed
//!   (`W^T`, shape `[N, K]`). `m2x-nn` handles this.
//! * `quantize_*` return the dequantized ("fake-quantized") tensor, which is
//!   exactly what flows through the paper's accuracy evaluation.

use crate::ebw::BitBudget;
use crate::format::PackedWeightTensor;
use crate::{activation, M2xfpConfig};
use m2x_tensor::Matrix;

/// A weight/activation quantization format.
pub trait TensorQuantizer: Send + Sync {
    /// Display name (used in tables).
    fn name(&self) -> String;

    /// Equivalent bit width of the weight representation (Eq. 2).
    fn weight_ebw(&self) -> f64;

    /// Equivalent bit width of the activation representation.
    fn activation_ebw(&self) -> f64;

    /// Fake-quantizes a weight matrix (grouped along rows).
    fn quantize_weights(&self, w: &Matrix) -> Matrix;

    /// Fake-quantizes an activation matrix (grouped along rows).
    fn quantize_activations(&self, x: &Matrix) -> Matrix;
}

/// Applies a per-group fake-quantization function along matrix rows.
pub fn fake_quant_rowwise(
    m: &Matrix,
    group_size: usize,
    mut f: impl FnMut(&[f32]) -> Vec<f32>,
) -> Matrix {
    let mut out = Vec::with_capacity(m.len());
    for group in m.row_groups(group_size) {
        let q = f(group);
        debug_assert_eq!(q.len(), group.len());
        out.extend_from_slice(&q);
    }
    Matrix::from_vec(m.rows(), m.cols(), out)
}

/// The full hybrid M2XFP format: Elem-EM-top1 activations and Sg-EM-2bit
/// weights (paper §4.3).
#[derive(Debug, Clone, Copy)]
pub struct M2xfpQuantizer {
    cfg: M2xfpConfig,
}

impl M2xfpQuantizer {
    /// Creates a quantizer from a configuration.
    pub fn new(cfg: M2xfpConfig) -> Self {
        M2xfpQuantizer { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &M2xfpConfig {
        &self.cfg
    }
}

impl Default for M2xfpQuantizer {
    fn default() -> Self {
        M2xfpQuantizer::new(M2xfpConfig::default())
    }
}

impl TensorQuantizer for M2xfpQuantizer {
    fn name(&self) -> String {
        // Non-default configurations must be distinguishable by name:
        // result caches key on it.
        if self.cfg == M2xfpConfig::default() {
            "M2XFP".to_string()
        } else {
            format!(
                "M2XFP(g{}/sg{},{},{})",
                self.cfg.group_size,
                self.cfg.subgroup_size,
                self.cfg.scale_rule.name(),
                if self.cfg.adaptive_weight_scale {
                    "adaptive"
                } else {
                    "fixed"
                }
            )
        }
    }

    fn weight_ebw(&self) -> f64 {
        BitBudget::with_subgroup_meta(self.cfg.group_size, self.cfg.subgroup_size, 2.0).ebw()
    }

    fn activation_ebw(&self) -> f64 {
        self.weight_ebw()
    }

    fn quantize_weights(&self, w: &Matrix) -> Matrix {
        // The threaded integer-LUT Sg-EM search straight into the packed
        // streams, then a direct stream dequantize — bit-identical to the
        // legacy per-group float search (`weight::fake_quantize_group`
        // over `fake_quant_rowwise`), roughly an order of magnitude
        // faster, and what makes multi-layer offline quantization (§6
        // end-to-end) practical.
        PackedWeightTensor::quantize_parallel(w, self.cfg).dequantize()
    }

    fn quantize_activations(&self, x: &Matrix) -> Matrix {
        let gc = self.cfg.group_config();
        fake_quant_rowwise(x, self.cfg.group_size, |g| {
            activation::fake_quantize_group(g, gc, self.cfg.scale_rule)
        })
    }
}

/// The float-codec reference twin of [`M2xfpQuantizer`]: weights run the
/// original per-group decode/encode Sg-EM search
/// ([`quantize_group_reference`](crate::weight::quantize_group_reference)) instead of the threaded LUT
/// path. Kept as the bit-exactness oracle — tests assert the production
/// quantizer matches it bit for bit. Slow; not for production use.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceM2xfpQuantizer {
    cfg: M2xfpConfig,
}

impl ReferenceM2xfpQuantizer {
    /// Creates an oracle quantizer from a configuration.
    pub fn new(cfg: M2xfpConfig) -> Self {
        ReferenceM2xfpQuantizer { cfg }
    }
}

impl TensorQuantizer for ReferenceM2xfpQuantizer {
    fn name(&self) -> String {
        format!("{}-reference", M2xfpQuantizer::new(self.cfg).name())
    }

    fn weight_ebw(&self) -> f64 {
        M2xfpQuantizer::new(self.cfg).weight_ebw()
    }

    fn activation_ebw(&self) -> f64 {
        M2xfpQuantizer::new(self.cfg).activation_ebw()
    }

    fn quantize_weights(&self, w: &Matrix) -> Matrix {
        use crate::weight;
        let gc = self.cfg.group_config();
        fake_quant_rowwise(w, self.cfg.group_size, |g| {
            weight::dequantize_group(
                &weight::quantize_group_reference(
                    g,
                    gc,
                    self.cfg.scale_rule,
                    self.cfg.adaptive_weight_scale,
                ),
                gc,
            )
        })
    }

    fn quantize_activations(&self, x: &Matrix) -> Matrix {
        M2xfpQuantizer::new(self.cfg).quantize_activations(x)
    }
}

/// The FP16 reference "format": rounds to binary16, the baseline row of
/// every table in the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fp16Reference;

impl TensorQuantizer for Fp16Reference {
    fn name(&self) -> String {
        "FP16".to_string()
    }

    fn weight_ebw(&self) -> f64 {
        16.0
    }

    fn activation_ebw(&self) -> f64 {
        16.0
    }

    fn quantize_weights(&self, w: &Matrix) -> Matrix {
        w.map(m2x_formats::half::quantize_f16)
    }

    fn quantize_activations(&self, x: &Matrix) -> Matrix {
        x.map(m2x_formats::half::quantize_f16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2x_tensor::stats::nmse;

    fn toy_matrix(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.317 + seed).sin() * 3.0
        })
    }

    #[test]
    fn m2xfp_ebw_matches_paper() {
        let q = M2xfpQuantizer::default();
        assert!((q.weight_ebw() - 4.5).abs() < 1e-12);
        assert!((q.activation_ebw() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn fake_quant_preserves_shape() {
        let q = M2xfpQuantizer::default();
        let x = toy_matrix(5, 100, 0.0);
        let xq = q.quantize_activations(&x);
        assert_eq!((xq.rows(), xq.cols()), (5, 100));
        let wq = q.quantize_weights(&x);
        assert_eq!((wq.rows(), wq.cols()), (5, 100));
    }

    #[test]
    fn quantization_error_is_small_but_nonzero() {
        let q = M2xfpQuantizer::default();
        let x = toy_matrix(8, 128, 1.0);
        let xq = q.quantize_activations(&x);
        let e = nmse(x.as_slice(), xq.as_slice());
        assert!(e > 0.0 && e < 0.01, "nmse {e}");
    }

    #[test]
    fn fp16_reference_nearly_exact() {
        let q = Fp16Reference;
        let x = toy_matrix(4, 64, 2.0);
        let xq = q.quantize_activations(&x);
        let e = nmse(x.as_slice(), xq.as_slice());
        assert!(e < 1e-6, "nmse {e}");
    }

    #[test]
    fn trait_object_usable() {
        let quants: Vec<Box<dyn TensorQuantizer>> =
            vec![Box::new(M2xfpQuantizer::default()), Box::new(Fp16Reference)];
        let x = toy_matrix(2, 32, 0.5);
        for q in &quants {
            let _ = q.quantize_weights(&x);
            assert!(!q.name().is_empty());
        }
    }

    #[test]
    fn names_distinguish_configurations() {
        use crate::{M2xfpConfig, ScaleRule};
        let default = M2xfpQuantizer::default();
        assert_eq!(default.name(), "M2XFP");
        let fixed = M2xfpQuantizer::new(M2xfpConfig {
            adaptive_weight_scale: false,
            ..M2xfpConfig::default()
        });
        let ceil = M2xfpQuantizer::new(M2xfpConfig {
            scale_rule: ScaleRule::Ceil,
            ..M2xfpConfig::default()
        });
        let sg4 = M2xfpQuantizer::new(M2xfpConfig {
            subgroup_size: 4,
            ..M2xfpConfig::default()
        });
        let names = [default.name(), fixed.name(), ceil.name(), sg4.name()];
        for i in 0..names.len() {
            for j in i + 1..names.len() {
                assert_ne!(names[i], names[j], "{} vs {}", names[i], names[j]);
            }
        }
    }

    #[test]
    fn routed_quantize_weights_matches_legacy_fake_quant() {
        // quantize_weights now runs the threaded LUT search through the
        // packed streams; it must stay bit-identical to the float-codec
        // oracle quantizer (the legacy per-group fake-quantization it
        // replaced — result caches and recorded tables depend on it).
        for cfg in [
            M2xfpConfig::default(),
            M2xfpConfig {
                adaptive_weight_scale: false,
                ..M2xfpConfig::default()
            },
            M2xfpConfig {
                scale_rule: crate::ScaleRule::Ceil,
                ..M2xfpConfig::default()
            },
        ] {
            let q = M2xfpQuantizer::new(cfg);
            let oracle = ReferenceM2xfpQuantizer::new(cfg);
            for (rows, cols) in [(4, 128), (3, 100), (1, 32)] {
                let w = toy_matrix(rows, cols, 0.3);
                let routed = q.quantize_weights(&w);
                let legacy = oracle.quantize_weights(&w);
                for (a, b) in routed.as_slice().iter().zip(legacy.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}x{cols}", rows);
                }
            }
        }
    }

    #[test]
    fn weights_use_subgroup_refinement() {
        // Weight path must beat the activation path on static data where the
        // adaptive search can align subgroup maxima.
        let q = M2xfpQuantizer::default();
        let mut better = 0;
        for seed in 0..10 {
            let w = toy_matrix(4, 128, seed as f32);
            let ew = nmse(w.as_slice(), q.quantize_weights(&w).as_slice());
            let ea = nmse(w.as_slice(), q.quantize_activations(&w).as_slice());
            if ew <= ea {
                better += 1;
            }
        }
        assert!(better >= 7, "weight path better in only {better}/10 runs");
    }
}
