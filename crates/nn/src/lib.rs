//! # m2x-nn
//!
//! Synthetic LLM substrate for the M2XFP reproduction.
//!
//! The paper evaluates on real checkpoints (LLaMA-2/3, OPT, Mistral,
//! Falcon, DeepSeek-R1-Distill-Qwen) via PyTorch + lm-evaluation-harness.
//! Neither the checkpoints nor a GPU stack are available here, so this
//! crate substitutes statistically calibrated synthetic tensors and exactly
//! computable error propagation (see DESIGN.md §1 for the substitution
//! argument):
//!
//! * [`profile`] — per-model architecture shapes and tensor statistics
//!   (outlier channel rates, tail weights) for all eight evaluated models.
//! * [`synth`] — seeded weight/activation synthesis from a profile.
//! * [`layers`] — the transformer GEMM inventory (QKVO + MLP + attention),
//!   shared with the accelerator timing model.
//! * [`propagate`] — W4A4 layer error measurement: quantized GEMMs vs the
//!   f32 reference, aggregated across layer kinds.
//! * [`metrics`] — perplexity and task-accuracy proxies anchored to the
//!   paper's published FP16/MXFP4 rows (anchors are constants; every other
//!   number is predicted from measured error).
//! * [`attention`] — the §6.4 extension: quantized attention with an
//!   Elem-EM online path (Q, P) and an Sg-EM KV cache.
//! * [`linear`] — a deployable quantized linear layer (packed weights
//!   decoded once into the kernel's plane, bit-exact forward pass).
//! * [`model`] — the engine API's model-level session: a
//!   [`QuantizedModel`] built by a
//!   [`ModelBuilder`], with per-layer decoded
//!   weights, a quantized KV cache and batch/prefill/decode forwards — the
//!   paper's §6 end-to-end flow. The weights split into an `Arc`-shared
//!   [`ModelWeights`] and per-request
//!   [`SessionState`]s, the multi-session surface the
//!   `m2x-serve` continuous-batching scheduler drives.

pub mod attention;
pub mod kv_pool;
pub mod layers;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod profile;
pub mod propagate;
pub mod synth;

pub use kv_pool::{KvPagePool, PageHandle, PagedKv, PoolGeometry, PoolStats, PrefixMatch};
pub use linear::QuantizedLinear;
pub use model::{ModelBuilder, ModelWeights, QuantizedModel, SessionState};
pub use profile::ModelProfile;
pub use propagate::W4a4Stats;
