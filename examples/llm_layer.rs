//! A W4A4 transformer layer end to end: synthesize LLaMA3-8B-like
//! weights/activations, run every projection GEMM quantized, and report the
//! per-layer output error for each format — the measurement underlying
//! Tables 2–4 — then the same measurement through the engine's real
//! packed kernels, and finally a whole quantized model via the
//! `QuantizedModel` session API.
//!
//! Run with: `cargo run --release --example llm_layer`

use m2xfp_repro::baselines::{MxQuantizer, Nvfp4};
use m2xfp_repro::core::quantizer::{M2xfpQuantizer, TensorQuantizer};
use m2xfp_repro::core::M2xfpConfig;
use m2xfp_repro::nn::model::ModelBuilder;
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::nn::propagate::{evaluate, evaluate_backend, EvalConfig};
use m2xfp_repro::nn::synth::activation_matrix;
use m2xfp_repro::tensor::stats::nmse;

fn main() {
    let model = ModelProfile::llama3_8b();
    let cfg = EvalConfig {
        tokens: 48,
        max_k: 512,
        max_n: 256,
        layer_samples: 2,
        threads: 8,
    };
    println!(
        "W4A4 error through {}'s linear stack ({} layers, hidden {}):\n",
        model.name, model.layers, model.hidden
    );

    // ── 1. Format comparison (fake-quantize + f32 matmul, as the paper
    //       frames Tables 2-4) ──
    let formats: Vec<Box<dyn TensorQuantizer>> = vec![
        Box::new(MxQuantizer::mxfp4()),
        Box::new(Nvfp4::default()),
        Box::new(M2xfpQuantizer::default()),
    ];
    for q in &formats {
        let e = evaluate(&model, q.as_ref(), &cfg);
        println!("{} (EBW {:.2}):", e.format, q.activation_ebw());
        for (name, nmse) in &e.per_gemm {
            println!("  {name:<10} output NMSE = {nmse:.5}");
        }
        println!(
            "  MAC-weighted mean = {:.5}  (relative RMS error {:.3})\n",
            e.mean_nmse,
            e.nrmse()
        );
    }
    println!("Expected ordering: M2XFP < NVFP4 < MXFP4 (paper Tbl. 2-3).\n");

    // ── 2. The same measurement through the real engine: online encode +
    //       the packed integer PE kernel ──
    let e = evaluate_backend(&model, M2xfpConfig::default(), &cfg);
    println!(
        "{} (engine-true qGEMM): MAC-weighted mean = {:.5}",
        e.format, e.mean_nmse
    );

    // ── 3. Whole-model session: quantize a scaled-down stack and run a
    //       batched forward against the f32 reference ──
    let mut qm = ModelBuilder::scaled(&model, 256, 4)
        .keep_reference(true)
        .build()
        .expect("group-aligned dims");
    let x = activation_matrix(&model, 0, 16, 256).map(|v| (v * 0.25).tanh());
    let y = qm.forward_batch(&x).expect("aligned");
    let w = qm.weights();
    let y_ref = w.reference_forward_batch(&x).expect("reference kept");
    println!(
        "\nQuantizedModel ({} layers, hidden {}, {} heads):",
        w.layer_count(),
        w.hidden(),
        w.heads()
    );
    println!(
        "  weight footprint {} KiB, whole-model output NRMSE {:.4}",
        w.weight_bytes() / 1024,
        nmse(y_ref.as_slice(), y.as_slice()).sqrt()
    );
}
