//! Property-based tests on the M2XFP core: Algorithm 1 invariants, Sg-EM
//! search optimality, GEMM exactness (grouped and packed), scale-rule laws
//! and EBW accounting.

use m2xfp_repro::core::activation::{dequantize_group, fake_quantize_group, quantize_group};
use m2xfp_repro::core::format::{ActTensor, PackedActTensor, PackedWeightTensor, WeightTensor};
use m2xfp_repro::core::gemm::{
    qgemm, qgemm_into_on, qgemm_packed_planed_scratch, qgemm_reference, qgemv_packed, GemmScratch,
    KernelPath, WeightPlane,
};
use m2xfp_repro::core::strategy::{MetadataStrategy, ScaleMode};
use m2xfp_repro::core::weight;
use m2xfp_repro::core::{Error, GroupConfig, M2xfpConfig, ScaleRule};
use m2xfp_repro::formats::fp4;
use m2xfp_repro::formats::tables::{fp6_candidates, top1_index};
use m2xfp_repro::tensor::Matrix;
use m2xfp_repro::testkit::{cases, Gen};

fn group32(g: &mut Gen) -> Vec<f32> {
    g.vec_f32(32, -64.0, 64.0)
}

/// Algorithm 1: metadata never changes the FP4 codes, the decoder
/// re-identifies the encoder's top-1, and the refined magnitude is one of
/// the bias-clamp candidates for that FP4 code.
#[test]
fn activation_invariants() {
    cases(256, |g| {
        let x = group32(g);
        let cfg = GroupConfig::new(32, 8);
        let gq = quantize_group(&x, cfg, ScaleRule::Floor);
        let f4 = fp4();
        let s = gq.scale.value();
        let plain: Vec<u8> = x.iter().map(|&v| f4.encode(v / s)).collect();
        assert_eq!(&gq.codes, &plain, "case {}", g.case);
        let dq = dequantize_group(&gq, cfg);
        for (sg_idx, sg_codes) in gq.codes.chunks(8).enumerate() {
            let local = top1_index(sg_codes);
            let idx = sg_idx * 8 + local;
            // Non-top elements decode exactly like plain MXFP4.
            for (j, &c) in sg_codes.iter().enumerate() {
                if j == local {
                    continue;
                }
                assert_eq!(dq[sg_idx * 8 + j], f4.decode(c) * s, "case {}", g.case);
            }
            // The refined element is a bias-clamp candidate.
            let cands = fp6_candidates(sg_codes[local] & 7);
            let mag = (dq[idx] / s).abs();
            assert!(
                cands.iter().any(|c| (c - mag).abs() < 1e-6),
                "case {}: mag {} not in {:?}",
                g.case,
                mag,
                cands
            );
        }
    });
}

/// Re-quantization drift is bounded and settles. Algorithm 1 is *not*
/// exactly idempotent: a refined value sitting on an FP4 RNE tie midpoint
/// (the §4.4.1 bad-case region, e.g. 3.5·2^e) re-rounds up a code and the
/// bias clamp shifts it one FP6 step. The honest invariants: (a) one
/// re-quantization moves any element by at most one FP6 step at the shared
/// scale, (b) the third pass equals the second (the drift settles
/// immediately).
#[test]
fn activation_requantization_settles() {
    cases(256, |g| {
        let x = group32(g);
        let cfg = GroupConfig::new(32, 8);
        let once = fake_quantize_group(&x, cfg, ScaleRule::Floor);
        let twice = fake_quantize_group(&once, cfg, ScaleRule::Floor);
        let amax = once.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let s = ScaleRule::Floor.shared_scale(amax, fp4()).value();
        // Largest FP6 (E2M3) step below the FP4 max is 0.5 at unit scale.
        for (a, b) in once.iter().zip(&twice) {
            assert!(
                (a - b).abs() <= 0.5 * s + 1e-6,
                "case {}: {a} -> {b} (scale {s})",
                g.case
            );
        }
        let thrice = fake_quantize_group(&twice, cfg, ScaleRule::Floor);
        assert_eq!(twice, thrice, "case {}", g.case);
    });
}

/// Sg-EM: every stored multiplier code is 0..4, the adaptive search never
/// loses to the fixed scale, and the multiplier search never loses to
/// plain MXFP4 on the same group.
#[test]
fn weight_search_optimality() {
    cases(128, |g| {
        let w = group32(g);
        let cfg = GroupConfig::new(32, 8);
        let gq = weight::quantize_group(&w, cfg, ScaleRule::Floor, true);
        assert!(gq.sg_em.iter().all(|&k| k < 4), "case {}", g.case);
        let sse = |q: &[f32]| -> f64 {
            w.iter()
                .zip(q)
                .map(|(&a, &b)| ((a - b) as f64).powi(2))
                .sum()
        };
        let adaptive = sse(&weight::fake_quantize_group(
            &w,
            cfg,
            ScaleRule::Floor,
            true,
        ));
        let fixed = sse(&weight::fake_quantize_group(
            &w,
            cfg,
            ScaleRule::Floor,
            false,
        ));
        assert!(adaptive <= fixed + 1e-9, "case {}", g.case);
        let f4 = fp4();
        let amax = w.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let s = ScaleRule::Floor.shared_scale(amax, f4).value();
        let plain: Vec<f32> = w.iter().map(|&v| f4.quantize(v / s) * s).collect();
        assert!(fixed <= sse(&plain) + 1e-9, "case {}", g.case);
    });
}

/// The fixed-point PE GEMM and the f64 reference agree bit for bit.
#[test]
fn qgemm_exact() {
    cases(128, |g| {
        let xs = g.vec_f32(2 * 32, -16.0, 16.0);
        let ws = g.vec_f32(3 * 32, -4.0, 4.0);
        let cfg = M2xfpConfig::default();
        let x = ActTensor::quantize(&Matrix::from_vec(2, 32, xs), cfg);
        let w = WeightTensor::quantize(&Matrix::from_vec(3, 32, ws), cfg);
        let a = qgemm(&x, &w);
        let b = qgemm_reference(&x, &w);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits(), "case {}", g.case);
            }
        }
    });
}

/// The packed three-stream round-trip equals the legacy grouped
/// representation element-for-element — including ragged trailing groups
/// and every stream accessor.
#[test]
fn packed_streams_equal_grouped_representation() {
    cases(96, |g| {
        let cfg = M2xfpConfig::default();
        let rows = 1 + g.below(3);
        let cols = 1 + g.below(100); // frequently ragged
        let data = g.vec_f32(rows * cols, -32.0, 32.0);
        let m = Matrix::from_vec(rows, cols, data);

        let act = ActTensor::quantize(&m, cfg);
        let pact = PackedActTensor::quantize_parallel(&m, cfg);
        assert_eq!(PackedActTensor::from_grouped(&act), pact, "case {}", g.case);
        assert_eq!(pact.to_grouped(), act, "case {}", g.case);
        assert_eq!(pact.dequantize(), act.dequantize(), "case {}", g.case);
        for (gi, grp) in act.groups().iter().enumerate() {
            assert_eq!(pact.group_len(gi), grp.codes.len(), "case {}", g.case);
            assert_eq!(pact.group_scale(gi), grp.scale, "case {}", g.case);
            for (i, &c) in grp.codes.iter().enumerate() {
                assert_eq!(pact.code_at(gi, i), c, "case {} g{gi} i{i}", g.case);
            }
            for (sg, &mv) in grp.meta.iter().enumerate() {
                assert_eq!(pact.meta_at(gi, sg), mv, "case {} g{gi} sg{sg}", g.case);
            }
        }

        let wt = WeightTensor::quantize(&m, cfg);
        let pwt = PackedWeightTensor::quantize_parallel(&m, cfg);
        assert_eq!(
            PackedWeightTensor::from_grouped(&wt),
            pwt,
            "case {}",
            g.case
        );
        assert_eq!(pwt.to_grouped(), wt, "case {}", g.case);
        assert_eq!(pwt.dequantize(), wt.dequantize(), "case {}", g.case);
    });
}

/// `PackedActTensor::dequantize` walks the packed streams directly and
/// equals the grouped round trip bit for bit: ragged widths, subgroup
/// sizes 8 and 16, every `ScaleRule`, and (in half the cases) runs of
/// eight tiny negatives beside large values, so subgroups of
/// negative-zero codes reach the top-1 refinement.
#[test]
fn packed_act_dequantize_bit_exact() {
    cases(96, |g| {
        let cfg = M2xfpConfig {
            subgroup_size: [8usize, 16][g.below(2)],
            scale_rule: ScaleRule::ALL[g.below(5)],
            ..M2xfpConfig::default()
        };
        let rows = 1 + g.below(3);
        let cols = 1 + g.below(100); // frequently ragged
        let tiny = g.below(2) == 0;
        let data: Vec<f32> = g
            .vec_f32(rows * cols, -32.0, 32.0)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                if tiny && (i % cols) % 16 < 8 {
                    -v.abs() * 1e-6
                } else {
                    v
                }
            })
            .collect();
        let p = PackedActTensor::quantize_parallel(&Matrix::from_vec(rows, cols, data), cfg);
        let (got, want) = (p.dequantize(), p.to_grouped().dequantize());
        assert_eq!((got.rows(), got.cols()), (rows, cols), "case {}", g.case);
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "case {} element {i} cols={cols} sg={} rule={:?}",
                g.case,
                cfg.subgroup_size,
                cfg.scale_rule
            );
        }
    });
}

/// Every kernel path this CPU can run, the portable one always first.
fn supported_paths() -> Vec<KernelPath> {
    let paths: Vec<KernelPath> = KernelPath::ALL
        .into_iter()
        .filter(|p| p.is_supported())
        .collect();
    assert_eq!(paths[0], KernelPath::Portable);
    paths
}

/// A group size from {5, 6, 12, 32, 64}, so groups that are and are not
/// whole k-quads of the kernel planes both occur, and a subgroup size
/// drawn from its divisors.
fn group_geometry(g: &mut Gen) -> (usize, usize) {
    let group_size = [5usize, 6, 12, 32, 64][g.below(5)];
    let divisors: Vec<usize> = (1..=group_size).filter(|d| group_size % d == 0).collect();
    (group_size, divisors[g.below(divisors.len())])
}

/// Loads `x` and runs `path`'s kernel into a fresh matrix.
fn qgemm_on(
    path: KernelPath,
    x: &PackedActTensor,
    w: &WeightPlane,
    threads: usize,
    scratch: &mut GemmScratch,
) -> Matrix {
    scratch.load(x);
    let mut y = Matrix::zeros(x.shape().0, w.shape().0);
    qgemm_into_on(path, scratch, w, threads, y.as_mut_slice());
    y
}

/// The packed qGEMM on every kernel path this CPU runs, the dispatched
/// route and the grouped PE pipeline all equal the f64 reference bit for
/// bit — for any thread count, row counts odd and even, output widths
/// across several 16-column panels, ragged trailing groups, group sizes
/// that are and are not whole k-quads with every subgroup size that
/// divides them, every `ScaleRule`, fixed and adaptive weight scales, and
/// weight magnitudes across three decades.
#[test]
fn packed_qgemm_bit_exact() {
    let paths = supported_paths();
    let mut scratch = GemmScratch::new();
    cases(64, |g| {
        let (group_size, subgroup_size) = group_geometry(g);
        let cfg = M2xfpConfig {
            group_size,
            subgroup_size,
            scale_rule: ScaleRule::ALL[g.below(5)],
            adaptive_weight_scale: g.below(2) == 0,
        };
        let m = 1 + g.below(9);
        let n = 1 + g.below(40);
        let k = 1 + g.below(100); // frequently ragged
        let scale = [0.03f32, 1.0, 40.0][g.below(3)];
        let xm = Matrix::from_vec(m, k, g.vec_f32(m * k, -16.0, 16.0));
        let wm = Matrix::from_vec(n, k, g.vec_f32(n * k, -4.0, 4.0)).map(|v| v * scale);
        let xa = ActTensor::quantize(&xm, cfg);
        let wpacked = PackedWeightTensor::quantize_parallel(&wm, cfg);
        let wt = wpacked.to_grouped();
        let want = qgemm_reference(&xa, &wt);
        let threads = 1 + g.below(4);
        let xp = PackedActTensor::quantize_parallel(&xm, cfg);
        let plane = WeightPlane::decode(&wpacked);
        let mut got = vec![
            ("grouped".to_string(), qgemm(&xa, &wt)),
            (
                "dispatched".to_string(),
                qgemm_packed_planed_scratch(&xp, &plane, threads, &mut scratch),
            ),
        ];
        for &path in &paths {
            let y = qgemm_on(path, &xp, &plane, threads, &mut scratch);
            got.push((path.name().to_string(), y));
        }
        for (name, y) in &got {
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        y[(i, j)].to_bits(),
                        want[(i, j)].to_bits(),
                        "case {} {name} ({i},{j}) m={m} n={n} k={k} threads={threads} gs={} sg={} \
                         rule={:?} adaptive={}",
                        g.case,
                        cfg.group_size,
                        cfg.subgroup_size,
                        cfg.scale_rule,
                        cfg.adaptive_weight_scale
                    );
                }
            }
        }
    });
}

/// The decode micro-kernels — the `m == 1` GEMV fast path over a cached
/// `WeightPlane` (with its scratch reused across cases, the serving
/// pattern), the scratch-backed planed kernel, and the `m == 1` shape on
/// every kernel path this CPU runs — are bit-identical to the f64
/// reference: ragged trailing groups, group sizes that are and are not
/// whole k-quads with every subgroup size that divides them, every
/// `ScaleRule`, any thread count, and output widths that end mid-panel.
#[test]
fn decode_kernels_bit_exact() {
    let paths = supported_paths();
    let mut scratch = GemmScratch::new();
    cases(64, |g| {
        let (group_size, subgroup_size) = group_geometry(g);
        let cfg = M2xfpConfig {
            group_size,
            subgroup_size,
            scale_rule: ScaleRule::ALL[g.below(5)],
            ..M2xfpConfig::default()
        };
        let n = 1 + g.below(40); // up to three 16-column panels, often partial
        let k = 1 + g.below(100); // frequently ragged
        let xm = Matrix::from_vec(1, k, g.vec_f32(k, -16.0, 16.0));
        let wm = Matrix::from_vec(n, k, g.vec_f32(n * k, -4.0, 4.0));
        let want = qgemm_reference(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        let xp = PackedActTensor::quantize_parallel(&xm, cfg);
        let wp = PackedWeightTensor::quantize_parallel(&wm, cfg);
        let plane = WeightPlane::decode(&wp);
        let gemv = qgemv_packed(&xp, &plane, &mut scratch);
        let threads = 1 + g.below(4);
        let planed = qgemm_packed_planed_scratch(&xp, &plane, threads, &mut scratch);
        let on_paths: Vec<_> = paths
            .iter()
            .map(|&p| (p, qgemm_on(p, &xp, &plane, threads, &mut scratch)))
            .collect();
        for j in 0..n {
            let w = want[(0, j)].to_bits();
            assert_eq!(
                gemv[(0, j)].to_bits(),
                w,
                "case {} gemv j={j} n={n} k={k} gs={} sg={} rule={:?}",
                g.case,
                cfg.group_size,
                cfg.subgroup_size,
                cfg.scale_rule
            );
            assert_eq!(
                planed[(0, j)].to_bits(),
                w,
                "case {} planed j={j} n={n} k={k} threads={threads}",
                g.case
            );
            for (p, y) in &on_paths {
                assert_eq!(
                    y[(0, j)].to_bits(),
                    w,
                    "case {} {} j={j} n={n} k={k} threads={threads}",
                    g.case,
                    p.name()
                );
            }
        }
    });
}

/// On unpacked buffers of 1–3 rows × 1–20 columns × 1–3 groups of 32, in
/// `pack`'s byte order with every code byte, scale byte and metadata byte
/// drawn by `code`, `scale` and `meta`, at a subgroup size drawn from
/// `subgroups`: the f64 reference, the grouped pipeline and every packed
/// kernel path read the same bits, NaN equal to NaN.
fn kernels_match_reference_on_raw_buffers(
    subgroups: [usize; 2],
    code: fn(&mut Gen) -> u8,
    scale: fn(&mut Gen) -> u8,
    meta: fn(&mut Gen) -> u8,
) {
    let paths = supported_paths();
    let mut scratch = GemmScratch::new();
    let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    cases(200, |g| {
        let cfg = M2xfpConfig {
            subgroup_size: subgroups[g.below(2)],
            ..M2xfpConfig::default()
        };
        let (m, n, k) = (1 + g.below(3), 1 + g.below(20), 32 * (1 + g.below(3)));
        let threads = 1 + g.below(4);
        let mut buffer = |rows: usize| -> Vec<u8> {
            let groups = rows * k / 32;
            let meta_bytes = (groups * 2 * 32 / cfg.subgroup_size).div_ceil(8);
            let mut buf: Vec<u8> = (0..groups * 16).map(|_| code(g)).collect();
            buf.extend((0..groups).map(|_| scale(g)));
            buf.extend((0..meta_bytes).map(|_| meta(g)));
            buf
        };
        let x = ActTensor::unpack(&buffer(m), m, k, cfg).expect("well-formed buffer");
        let w = WeightTensor::unpack(&buffer(n), n, k, cfg).expect("well-formed buffer");
        let want = qgemm_reference(&x, &w);
        let xp = PackedActTensor::from_grouped(&x);
        let plane = WeightPlane::decode(&PackedWeightTensor::from_grouped(&w));
        let mut got = vec![("grouped", qgemm(&x, &w))];
        for &path in &paths {
            got.push((
                path.name(),
                qgemm_on(path, &xp, &plane, threads, &mut scratch),
            ));
        }
        for (name, y) in &got {
            for i in 0..m {
                for j in 0..n {
                    assert!(
                        same(y[(i, j)], want[(i, j)]),
                        "case {} {name} ({i},{j}) m={m} n={n} k={k} sg={}: {} vs reference {}",
                        g.case,
                        cfg.subgroup_size,
                        y[(i, j)],
                        want[(i, j)]
                    );
                }
            }
        }
    });
}

/// Scale bytes at the top of the E8M0 range — 0xFC, 0xFD and 0xFE (2^125
/// to 2^127), mixed with 0x7F (2^0) — under random codes and metadata, at
/// subgroups 8 and 16: ±inf included, every path reads the reference's
/// bits. No encoder writes such scales, but `unpack` accepts them.
#[test]
fn reference_matches_kernels_on_extreme_scale_bytes() {
    const SCALES: [u8; 4] = [0x7F, 0xFC, 0xFD, 0xFE];
    kernels_match_reference_on_raw_buffers(
        [8, 16],
        |g| g.below(256) as u8,
        |g| SCALES[g.below(4)],
        |g| g.below(256) as u8,
    );
}

/// The kernels' integer edge: every weight at ±84 (FP4 codes 0x7/0xF, ±6
/// ×2, with multiplier code 3, ×7) against activations at their largest
/// refined magnitudes (codes 0x7/0xF with extra-mantissa code 3, ±56 ×8;
/// at subgroup 1 every element is its subgroup's refined top-1), scale
/// bytes around 2^0. A biased weight byte is then 0 or 168, so a
/// `maddubs` pair sum reaches ±2·168·56 = ±18,816, the largest it can be
/// and still below 2^15.
#[test]
fn kernels_exact_at_the_largest_operands() {
    kernels_match_reference_on_raw_buffers(
        [1, 8],
        |g| [0x77, 0x7F, 0xF7, 0xFF][g.below(4)],
        |g| 0x78 + g.below(16) as u8,
        |_| 0xFF,
    );
}

/// Scale-rule laws: ceil never clips; floor is within one binade below
/// ceil; RTNE == ceil for FP4.
#[test]
fn scale_rule_laws() {
    cases(512, |g| {
        // Log-uniform over ~40 binades around 1.
        let amax = g.f32_in(-66.0, 66.0).exp2();
        let f = fp4();
        let e_floor = ScaleRule::Floor.shared_exponent(amax, f);
        let e_ceil = ScaleRule::Ceil.shared_exponent(amax, f);
        let e_rtne = ScaleRule::Rtne.shared_exponent(amax, f);
        assert_eq!(e_rtne, e_ceil, "case {}", g.case);
        assert!((e_ceil - 1..=e_ceil).contains(&e_floor), "case {}", g.case);
        // Ceil never clips: 6·2^e >= amax.
        assert!(
            6.0 * (e_ceil as f64).exp2() >= amax as f64 * 0.999_999,
            "case {}",
            g.case
        );
    });
}

/// Packed round-trip equals the in-memory representation for any aligned
/// activation or weight tensor (byte-serialization path), at every
/// subgroup size the group of 32 divides into. The E8M0 NaN code (0xFF)
/// is no scale: the same buffer with it in any group's scale byte fails
/// to unpack and names the group.
#[test]
fn pack_unpack_roundtrip() {
    cases(128, |g| {
        let rows = 1 + g.below(3);
        let cols = 32 * (1 + g.below(3));
        let xs = g.vec_f32(rows * cols, -8.0, 8.0);
        let cfg = M2xfpConfig {
            subgroup_size: [2usize, 4, 8, 16, 32][g.below(5)],
            ..M2xfpConfig::default()
        };
        let m = Matrix::from_vec(rows, cols, xs);
        let groups = rows * cols / 32;
        let group = g.below(groups);
        // The scale stream follows the 16 code bytes of every group.
        let at = groups * 16 + group;
        let what = format!("case {} sg={}", g.case, cfg.subgroup_size);
        let nan = |tensor: &str| Error::NanScale {
            tensor: tensor.to_string(),
            group,
        };

        let t = ActTensor::quantize(&m, cfg);
        let mut bytes = t.pack().unwrap();
        let unpack = |b: &[u8]| ActTensor::unpack(b, rows, cols, cfg);
        assert_eq!(unpack(&bytes), Ok(t), "{what}");
        bytes[at] = 0xFF;
        assert_eq!(unpack(&bytes), Err(nan("activation tensor")), "{what}");

        let w = WeightTensor::quantize(&m, cfg);
        let mut bytes = w.pack().unwrap();
        let unpack = |b: &[u8]| WeightTensor::unpack(b, rows, cols, cfg);
        assert_eq!(unpack(&bytes), Ok(w), "{what}");
        bytes[at] = 0xFF;
        assert_eq!(unpack(&bytes), Err(nan("weight tensor")), "{what}");
    });
}

/// EBW accounting: every strategy's budget is FP4+scale plus its
/// documented metadata bits, monotone in subgroup fineness.
#[test]
fn ebw_monotone() {
    for sg_pow in 1u32..=5 {
        let sg = 1usize << sg_pow; // 2..32
        for s in MetadataStrategy::FIG6_SET {
            let coarse = s.bit_budget(GroupConfig::new(32, 32)).ebw();
            let fine = s.bit_budget(GroupConfig::new(32, sg)).ebw();
            assert!(fine >= coarse - 1e-12);
            assert!(coarse >= 4.25); // never below MXFP4
        }
    }
}

/// Strategy fake-quant never increases group error versus plain MXFP4
/// under the fixed shared scale (all strategies only refine).
#[test]
fn strategies_only_refine() {
    cases(96, |g| {
        let x = group32(g);
        let f4 = fp4();
        let amax = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let s = ScaleRule::Floor.shared_scale(amax, f4).value();
        let plain_sse: f64 = x
            .iter()
            .map(|&v| {
                let q = f4.quantize(v / s) * s;
                ((v - q) as f64).powi(2)
            })
            .sum();
        for strat in MetadataStrategy::FIG6_SET {
            let q = strat.fake_quantize_group(
                &x,
                GroupConfig::new(32, 8),
                ScaleRule::Floor,
                ScaleMode::Fixed,
            );
            let sse: f64 = x
                .iter()
                .zip(&q)
                .map(|(&a, &b)| ((a - b) as f64).powi(2))
                .sum();
            assert!(
                sse <= plain_sse + 1e-9,
                "case {}: {strat}: {sse} > {plain_sse}",
                g.case
            );
        }
    });
}

/// The branch-free FP4 encode agrees with the minifloat codec everywhere:
/// random values across ~80 binades, both signs, plus exact RNE midpoints.
#[test]
fn fast_fp4_encode_matches_codec() {
    let f4 = fp4();
    cases(256, |g| {
        for _ in 0..64 {
            let mant = g.f32_in(-8.0, 8.0);
            let v = mant * ((g.int_in(-40, 40) as f32).exp2());
            assert_eq!(
                m2xfp_repro::formats::tables::fp4_encode(v),
                f4.encode(v),
                "case {} v={v}",
                g.case
            );
        }
        // Exact tie midpoints at a random binade.
        let s = (g.int_in(-30, 30) as f32).exp2();
        for p in [0.25f32, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0] {
            for v in [p * s, -(p * s)] {
                assert_eq!(
                    m2xfp_repro::formats::tables::fp4_encode(v),
                    f4.encode(v),
                    "case {} v={v}",
                    g.case
                );
            }
        }
    });
}

/// The threaded integer-LUT Sg-EM search is bit-identical to the legacy
/// float-codec search (`WeightTensor::quantize_reference`) across random
/// shapes with ragged trailing groups, every `ScaleRule`, fixed and
/// adaptive shared scales, extreme magnitudes and every thread count —
/// and byte-identical across thread counts.
#[test]
fn parallel_lut_weight_search_bit_identical_to_oracle() {
    cases(96, |g| {
        let rows = 1 + g.below(5);
        let cols = 1 + g.below(80); // ragged trailing groups most of the time
        let rule = ScaleRule::ALL[g.below(5)];
        let adaptive = g.below(2) == 1;
        let scale = (g.int_in(-30, 30) as f32).exp2();
        let data = g.vec_f32(rows * cols, -8.0, 8.0);
        let m = Matrix::from_vec(rows, cols, data.iter().map(|&v| v * scale).collect());
        let cfg = M2xfpConfig {
            scale_rule: rule,
            adaptive_weight_scale: adaptive,
            ..M2xfpConfig::default()
        };
        let oracle = PackedWeightTensor::from_grouped(&WeightTensor::quantize_reference(&m, cfg));
        let seq = PackedWeightTensor::quantize_parallel_threaded(&m, cfg, 1);
        assert_eq!(seq, oracle, "case {} (sequential)", g.case);
        let threads = 1 + g.below(6);
        let par = PackedWeightTensor::quantize_parallel_threaded(&m, cfg, threads);
        assert_eq!(par, oracle, "case {} threads={threads}", g.case);
    });
}

/// The LUT scorer behind the Sg-EM/Sg-EE strategy sweep is bit-identical
/// to the float-codec reference for 1-bit and 2-bit metadata, every scale
/// rule and both shared-scale modes.
#[test]
fn strategy_lut_scorer_bit_identical_to_oracle() {
    cases(128, |g| {
        let x = group32(g);
        let bits = 1 + g.below(2) as u8;
        let strategy = if g.below(2) == 0 {
            MetadataStrategy::SgEm { bits }
        } else {
            MetadataStrategy::SgEe { bits }
        };
        let sg = [2usize, 4, 8, 16, 32][g.below(5)];
        let cfg = GroupConfig::new(32, sg);
        let rule = ScaleRule::ALL[g.below(5)];
        let mode = if g.below(2) == 0 {
            ScaleMode::Fixed
        } else {
            ScaleMode::Adaptive
        };
        let fast = strategy.fake_quantize_group(&x, cfg, rule, mode);
        let oracle = strategy.fake_quantize_group_reference(&x, cfg, rule, mode);
        for (i, (a, b)) in fast.iter().zip(&oracle).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "case {} {strategy} sg={sg} i={i}",
                g.case
            );
        }
    });
}

/// The routed `M2xfpQuantizer::quantize_weights` (threaded LUT search →
/// packed streams → direct dequantize) matches the float reference
/// quantizer bit for bit, so every downstream accuracy table is unchanged.
#[test]
fn routed_weight_quantizer_matches_reference_oracle() {
    use m2xfp_repro::core::quantizer::{M2xfpQuantizer, ReferenceM2xfpQuantizer, TensorQuantizer};
    cases(48, |g| {
        let rows = 1 + g.below(4);
        let cols = 1 + g.below(100);
        let m = Matrix::from_vec(rows, cols, g.vec_f32(rows * cols, -16.0, 16.0));
        let cfg = M2xfpConfig {
            scale_rule: ScaleRule::ALL[g.below(5)],
            adaptive_weight_scale: g.below(2) == 1,
            ..M2xfpConfig::default()
        };
        let routed = M2xfpQuantizer::new(cfg).quantize_weights(&m);
        let oracle = ReferenceM2xfpQuantizer::new(cfg).quantize_weights(&m);
        for (a, b) in routed.as_slice().iter().zip(oracle.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "case {}", g.case);
        }
    });
}
