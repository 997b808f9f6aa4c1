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
//! for bit, with the grouped-over-packed time ratio. [`run`] returns the
//! section's table.

use crate::report::Json;
use crate::serving::prompt;
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

/// Minimum duration of one timed kernel sample: single projection calls
/// at CI dims take microseconds, far inside timer noise, and the ratio
/// built from them is hard-gated.
const KERNEL_SAMPLE_S: f64 = 0.003;

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

/// Runs the full measurement and returns the `e2e_model` table.
/// Deterministic given the configuration (timings aside).
pub fn run(cfg: E2eConfig) -> Json {
    let profile = ModelProfile::llama3_8b();
    let x = prompt(0, cfg.tokens, cfg.hidden);

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
    let per_layer = trace_q
        .iter()
        .zip(&trace_ref)
        .enumerate()
        .map(|(i, (a, b))| {
            let e = nmse(b.as_slice(), a.as_slice());
            (format!("layer_{i}"), Json::Num(e, 8))
        })
        .collect();

    let (backends_exact, proj) = projection_kernels(&profile, &weights, cfg.tokens, cfg.reps);
    let macs = weights.forward_macs(cfg.tokens, 0) as f64;
    Json::obj([
        ("cfg", cfg.to_json()),
        ("heads", weights.heads().into()),
        ("kv_heads", weights.kv_heads().into()),
        ("intermediate", weights.intermediate().into()),
        // Packed weight footprint in bytes.
        ("weight_bytes", weights.weight_bytes().into()),
        // Offline build of all layers: synthesize, Sg-EM quantize and
        // decode the planes; best of reps.
        ("quantize_s", Json::Num(quantize_s, 6)),
        // Batched forward of the whole model, best of reps, and its
        // throughput.
        ("forward_batch_packed_s", Json::Num(forward_packed_s, 6)),
        ("gmacs", Json::Num(macs / forward_packed_s / 1e9, 4)),
        // One call of each of the seven per-kind projections at the
        // batch's token count, summed, fastest rep: through the grouped
        // PE pipeline (`ActTensor` encode + `qgemm`) and through the
        // packed layer forward.
        ("proj_grouped_s", Json::Num(proj.best(0), 6)),
        ("proj_packed_s", Json::Num(proj.best(1), 6)),
        // Hard gate: the median over reps of each rep's grouped over
        // packed time, both sides timed back to back (see
        // [`crate::timing`]).
        ("speedup_packed", Json::Num(proj.median(|s| s[0] / s[1]), 3)),
        // Hard gate: over all seven shapes, the packed layer forward,
        // `qgemm` and `qgemm_reference` agree bit for bit.
        ("backends_exact", backends_exact.into()),
        // Decode throughput after a half-batch prefill.
        (
            "decode_tokens_per_s",
            Json::Num(cfg.decode_steps as f64 / decode_s, 2),
        ),
        // Whole-model output NRMSE against the f32 reference.
        (
            "nrmse",
            Json::Num(nmse(y_ref.as_slice(), y_q.as_slice()).sqrt(), 6),
        ),
        // Residual-stream NMSE against the f32 reference after each
        // layer, cumulative through the stack.
        ("per_layer", Json::Obj(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_baseline_keys;

    #[test]
    fn ci_run_is_exact_and_accurate() {
        let mut cfg = E2eConfig::ci();
        cfg.hidden = 64;
        cfg.tokens = 6;
        cfg.reps = 1;
        cfg.decode_steps = 2;
        let r = run(cfg);
        assert_eq!(
            r.get("backends_exact"),
            Some(&Json::Bool(true)),
            "packed projections diverged from the oracles"
        );
        let nrmse = r.num("nrmse").unwrap();
        assert!(nrmse > 0.0 && nrmse < 0.3, "nrmse {nrmse}");
        let layers = r
            .leaves()
            .iter()
            .filter(|(k, _)| k.starts_with("per_layer."))
            .count();
        assert_eq!(layers, cfg.layers);
        assert!(r.get("per_layer.layer_1").is_some());
        assert!(r.num("gmacs").unwrap() > 0.0 && r.num("speedup_packed").unwrap() > 0.0);
        assert_baseline_keys("e2e_model", &r);
    }
}
