//! # m2xfp
//!
//! The paper's primary contribution: the **M2XFP metadata-augmented
//! microscaling data format** and the machinery around it.
//!
//! * [`scale`] — shared-scale computation rules (floor/ceil/RTN1/RTN2/RTNE)
//!   and the adaptive exponent-bias search (paper §2.2, §4.4.2, §6.4).
//! * [`group`] — group/subgroup partitioning framework (paper §4.1).
//! * [`ebw`] — equivalent-bit-width accounting (paper Eq. 2).
//! * [`activation`] — Algorithm 1: online Elem-EM-top1 activation
//!   quantization with the bias-clamp FP6 encoding (paper §4.4.1).
//! * [`weight`] — Sg-EM-2bit weight quantization with hierarchical MSE
//!   search over subgroup multipliers and exponent bias (paper §4.4.2).
//! * [`strategy`] — the full metadata design space (Elem-EM/EE, Sg-EM/EE ×
//!   fixed/adaptive shared scale) explored in Figs. 6–7.
//! * [`format`](mod@format) — packed tensor representation with the three-stream memory
//!   layout of §5.2.
//! * [`gemm`] — bit-exact quantized GEMM mirroring the augmented PE
//!   (fixed-point accumulation, ΔX correction, shift-add subgroup scaling,
//!   paper §5.4 / Eq. 5): the production packed kernels over a decoded
//!   [`gemm::WeightPlane`], plus the grouped and f64 oracles they are
//!   pinned against.
//! * [`dse`] — Pareto sweep driver for the encoding design-space
//!   exploration.
//! * [`quantizer`] — the [`TensorQuantizer`] trait shared with every
//!   baseline format.
//! * [`error`] — the unified [`enum@Error`] type of the engine API.
//!
//! ```
//! use m2x_tensor::Matrix;
//! use m2xfp::{M2xfpConfig, quantizer::TensorQuantizer};
//!
//! let cfg = M2xfpConfig::default(); // group 32, subgroup 8, floor rule
//! let q = cfg.quantizer();
//! let x = Matrix::from_fn(4, 64, |r, c| ((r * 64 + c) as f32).sin() * 3.0);
//! let xq = q.quantize_activations(&x);
//! assert_eq!(xq.rows(), 4);
//! ```

// `unsafe` is confined to `gemm::avx2` (the `std::arch` SIMD kernel
// cannot be written without it); everything else in the crate is safe.
#![deny(unsafe_code)]

pub mod activation;
pub mod dse;
pub mod ebw;
pub mod error;
pub mod format;
pub mod gemm;
pub mod group;
pub mod quantizer;
pub mod scale;
pub mod strategy;
pub mod weight;

pub use error::Error;
pub use group::GroupConfig;
pub use quantizer::TensorQuantizer;
pub use scale::ScaleRule;

/// Worker count for a job whose size asks for `wanted` workers: `wanted`
/// capped at the available cores, never below one.
///
/// The core count is asked for only when more than one worker is wanted.
/// `std::thread::available_parallelism` reads cgroup and affinity state
/// through several `read` syscalls on Linux, and decode-sized work never
/// wants a second worker, so the serving hot loop makes no syscall here.
/// The answer is not cached: a process may change its CPU affinity while
/// it runs.
pub fn capped_workers(wanted: usize) -> usize {
    if wanted <= 1 {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |t| t.get().min(wanted))
}

/// One-stop imports for the engine API: configuration, packed tensors,
/// the decoded weight plane, the quantizer trait and the unified error
/// type.
///
/// ```
/// use m2x_tensor::Matrix;
/// use m2xfp::gemm::qgemm_packed_planed_scratch;
/// use m2xfp::prelude::*;
///
/// let cfg = M2xfpConfig::default();
/// let w = Matrix::from_fn(8, 64, |r, c| ((r * 64 + c) as f32 * 0.1).sin());
/// let plane = WeightPlane::decode(&PackedWeightTensor::quantize_parallel(&w, cfg));
/// let x = Matrix::from_fn(4, 64, |r, c| (r + c) as f32);
/// let x = PackedActTensor::quantize_parallel(&x, cfg);
/// let y = qgemm_packed_planed_scratch(&x, &plane, 1, &mut GemmScratch::new());
/// assert_eq!(y.cols(), 8);
/// ```
pub mod prelude {
    pub use crate::error::Error;
    pub use crate::format::{ActTensor, PackedActTensor, PackedWeightTensor, WeightTensor};
    pub use crate::gemm::{GemmScratch, WeightPlane};
    pub use crate::quantizer::{M2xfpQuantizer, TensorQuantizer};
    pub use crate::scale::ScaleRule;
    pub use crate::M2xfpConfig;
}

/// Top-level M2XFP configuration.
///
/// The paper's production configuration (§6.1) is group size 32, subgroup
/// size 8, OCP floor scale rule, adaptive shared scale for weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct M2xfpConfig {
    /// Elements sharing one E8M0 scale (paper: 32).
    pub group_size: usize,
    /// Elements per metadata subgroup (paper: 8).
    pub subgroup_size: usize,
    /// How the shared exponent is derived from the block maximum.
    pub scale_rule: ScaleRule,
    /// Whether weight quantization searches the exponent bias b ∈ {-1,0,1}.
    pub adaptive_weight_scale: bool,
}

impl Default for M2xfpConfig {
    fn default() -> Self {
        M2xfpConfig {
            group_size: 32,
            subgroup_size: 8,
            scale_rule: ScaleRule::Floor,
            adaptive_weight_scale: true,
        }
    }
}

impl M2xfpConfig {
    /// The group layout implied by this configuration.
    pub fn group_config(&self) -> GroupConfig {
        GroupConfig::new(self.group_size, self.subgroup_size)
    }

    /// A [`TensorQuantizer`] implementing the full hybrid format
    /// (Elem-EM-top1 activations, Sg-EM-2bit weights).
    pub fn quantizer(&self) -> quantizer::M2xfpQuantizer {
        quantizer::M2xfpQuantizer::new(*self)
    }
}
