//! Property-based tests on the engine API: the prefill/decode session
//! contract across configurations, and the branch-free online activation
//! encoder's bit-identity against the float-codec oracle. Kernel-level
//! equivalence with the grouped and f64 oracles lives in
//! `proptest_core.rs`.

use m2xfp_repro::core::activation::{quantize_group_into, quantize_group_into_reference};
use m2xfp_repro::core::{M2xfpConfig, ScaleRule};
use m2xfp_repro::nn::model::ModelBuilder;
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::tensor::Matrix;
use m2xfp_repro::testkit::cases;

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

/// Any prefill/decode split of a token stream reproduces the one-shot
/// batched forward bit for bit — the session-state contract of
/// `QuantizedModel` (KV rows quantize independently; every kernel computes
/// each output element identically) — on a 4-layer model, across metadata
/// granularities and scale rules.
#[test]
fn prefill_decode_split_matches_batch() {
    let profile = ModelProfile::llama3_8b();
    let total = 7usize;
    let x = m2xfp_repro::nn::synth::activation_matrix(&profile, 0, total, 64)
        .map(|v| (v * 0.25).tanh());
    for (sg, rule) in [
        (8usize, ScaleRule::Floor),
        (16, ScaleRule::Ceil),
        (8, ScaleRule::Rtn2),
    ] {
        let cfg = M2xfpConfig {
            subgroup_size: sg,
            scale_rule: rule,
            ..M2xfpConfig::default()
        };
        let mut model = ModelBuilder::scaled(&profile, 64, 4)
            .config(cfg)
            .build()
            .unwrap();
        assert_eq!(model.weights().layer_count(), 4);
        let batch = model.forward_batch(&x).unwrap();
        for split in [1usize, 3, 6] {
            model.reset();
            let head = Matrix::from_fn(split, 64, |r, c| x[(r, c)]);
            let mut rows = model.prefill(&head).unwrap().into_vec();
            for t in split..total {
                let xt = Matrix::from_fn(1, 64, |_, c| x[(t, c)]);
                rows.extend(model.decode(&xt).unwrap().into_vec());
            }
            assert_eq!(model.seq_len(), total);
            let inc = Matrix::from_vec(total, 64, rows);
            assert_bits_eq(
                &batch,
                &inc,
                &format!("sg={sg} rule={rule:?} split {split}"),
            );
        }
    }
}

/// The branch-free online activation encoder (`fp4_encode` +
/// `fp6_mag_code`, reciprocal scaling) is bit-identical to the float-codec
/// oracle on random groups across lengths, magnitudes and scale rules.
#[test]
fn fast_activation_encode_matches_float_oracle() {
    cases(400, |g| {
        let cfg = m2xfp_repro::core::GroupConfig::new(32, [4usize, 8, 16][g.below(3)]);
        let rule = ScaleRule::ALL[g.below(5)];
        let len = 1 + g.below(32);
        let mag = [1e-30f32, 1e-3, 1.0, 1e3, 1e30][g.below(5)];
        let mut x = g.vec_f32(len, -4.0, 4.0);
        x.iter_mut().for_each(|v| *v *= mag);
        if g.below(8) == 0 {
            x[0] = 0.0; // exercise all-zero-ish groups
        }
        let nsub = cfg.subgroup_count(len);
        let (mut c1, mut m1) = (vec![0u8; len], vec![0u8; nsub]);
        let (mut c2, mut m2) = (vec![0u8; len], vec![0u8; nsub]);
        let s1 = quantize_group_into(&x, cfg, rule, &mut c1, &mut m1);
        let s2 = quantize_group_into_reference(&x, cfg, rule, &mut c2, &mut m2);
        assert_eq!(s1, s2, "case {}: scale", g.case);
        assert_eq!(c1, c2, "case {}: codes", g.case);
        assert_eq!(m1, m2, "case {}: meta", g.case);
    });
}
