//! The §6.4 extension: applying M2XFP to attention and the KV cache.
//!
//! K/V are right-hand GEMM operands (like weights) and can be quantized
//! lazily with the adaptive Sg-EM search; Q and the attention probabilities
//! P are produced on the fly and use the online Elem-EM path. This example
//! measures attention-output error for that hybrid vs plain MXFP4, runs the
//! same head through the engine's packed kernels, and drives a
//! `QuantizedModel` prefill→decode session
//! whose KV state grows in fixed-size pages drawn from the process-wide
//! `KvPagePool`, packed in the Sg-EM representation —
//! decode-on-append: each new token's K rows are quantized and decoded
//! straight into the page's score-GEMM plane, so a decode step costs
//! O(1) per head instead of re-decoding the whole cache.
//!
//! Run with: `cargo run --release --example kv_cache`

use m2xfp_repro::baselines::MxQuantizer;
use m2xfp_repro::core::quantizer::M2xfpQuantizer;
use m2xfp_repro::core::M2xfpConfig;
use m2xfp_repro::nn::attention::{evaluate_attention, evaluate_attention_backend, synth_head};
use m2xfp_repro::nn::layers::linear_macs_fraction;
use m2xfp_repro::nn::model::ModelBuilder;
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::nn::synth::activation_matrix;
use m2xfp_repro::tensor::Matrix;

fn main() {
    let model = ModelProfile::llama3_8b();

    // ── 1. Why the KV cache matters: MAC split vs sequence length ──
    println!("Linear vs attention MAC share ({}):", model.name);
    for seq in [1024usize, 4096, 16384] {
        let lin = linear_macs_fraction(&model, seq);
        println!(
            "  seq {:>6}: linear {:>5.1}%  attention {:>5.1}%",
            seq,
            lin * 100.0,
            (1.0 - lin) * 100.0
        );
    }
    println!("(paper §6.4: ~83% linear at 4096; attention ~45% at 16384)\n");

    // ── 2. Quantized attention: scores = Q·Kᵀ, out = P·V ──
    let (q, k, v) = synth_head(&model, 128, model.head_dim().min(128));
    let m2 = M2xfpQuantizer::default();
    let mx = MxQuantizer::mxfp4();
    // M2XFP hybrid: Elem-EM for the dynamic Q/P, Sg-EM for the cached K/V.
    let e_m2 = evaluate_attention(&q, &k, &v, &m2, &m2);
    // Uniform MXFP4 everywhere.
    let e_mx = evaluate_attention(&q, &k, &v, &mx, &mx);

    println!("Attention error over a {}-token head:", q.rows());
    println!(
        "  scores (Q·K^T) NMSE:  MXFP4 {:.6}  M2XFP {:.6}",
        e_mx.scores_nmse, e_m2.scores_nmse
    );
    println!(
        "  output (P·V)   NMSE:  MXFP4 {:.6}  M2XFP {:.6}",
        e_mx.output_nmse, e_m2.output_nmse
    );
    println!(
        "  output improvement: {:.2}x\n",
        e_mx.output_nmse / e_m2.output_nmse
    );

    // ── 3. The same head through the engine: score and value GEMMs run
    //       the real packed quantized kernels ──
    let cfg = M2xfpConfig::default();
    let e = evaluate_attention_backend(&q, &k, &v, cfg).expect("shapes");
    println!(
        "  engine[packed] scores NMSE {:.6}  output NMSE {:.6}",
        e.scores_nmse, e.output_nmse
    );

    // ── 4. A serving session: prefill a prompt, decode tokens, watch the
    //       packed Sg-EM KV cache grow on the appendable-plane path ──
    let mut qm = ModelBuilder::scaled(&model, 128, 2)
        .build()
        .expect("group-aligned dims");
    let prompt = activation_matrix(&model, 0, 12, 128).map(|x| (x * 0.25).tanh());
    qm.prefill(&prompt).expect("aligned");
    println!(
        "\nQuantizedModel session: prefilled {} tokens, {} packed KV B across {} pool pages",
        qm.seq_len(),
        qm.kv().packed_bytes(),
        qm.kv().page_count()
    );
    let decode_steps = 16;
    let t0 = std::time::Instant::now();
    for step in 0..decode_steps {
        let tok = Matrix::from_fn(1, 128, |_, c| prompt[(11, c)] * (1.0 - 0.01 * step as f32));
        qm.decode(&tok).expect("aligned");
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "after {decode_steps} decode steps: seq {}, {} packed KV B across {} pool pages \
         (4.5 bits/element)",
        qm.seq_len(),
        qm.kv().packed_bytes(),
        qm.kv().page_count()
    );
    println!(
        "decode {:.0} tok/s — each step appends K rows straight into the page's \
         score-GEMM plane (O(1)/head), no per-step cache re-decode",
        decode_steps as f64 / dt
    );
}
