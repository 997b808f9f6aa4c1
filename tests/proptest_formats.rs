//! Property-based tests on the number-format substrate: codec round-trips,
//! nearest-value quantization bounds, packing invertibility, and the
//! integer decode LUTs behind the packed GEMM.

use m2xfp_repro::formats::{
    codebook::Codebook,
    e8m0::E8M0,
    half::{f16_bits_to_f32, f32_to_f16_bits, quantize_f16},
    int::IntCodec,
    minifloat::{Minifloat, SpecialValues},
    packing::{nibble_at, pack_nibbles_into, set_two_bits, two_bits_at},
    tables,
};
use m2xfp_repro::testkit::cases;

fn formats() -> Vec<Minifloat> {
    vec![
        Minifloat::new(2, 1, SpecialValues::None).unwrap(),
        Minifloat::new(2, 3, SpecialValues::None).unwrap(),
        Minifloat::new(3, 2, SpecialValues::None).unwrap(),
        Minifloat::new(3, 3, SpecialValues::None).unwrap(),
        Minifloat::new(4, 3, SpecialValues::NanOnly).unwrap(),
        Minifloat::new(5, 2, SpecialValues::Ieee).unwrap(),
    ]
}

/// quantize() output is always on the grid: re-quantizing is identity.
#[test]
fn minifloat_quantize_idempotent() {
    let fs = formats();
    cases(512, |g| {
        let x = g.f32_in(-1e6, 1e6);
        let f = &fs[g.below(fs.len())];
        let q = f.quantize(x);
        assert_eq!(f.quantize(q).to_bits(), q.to_bits(), "case {}", g.case);
    });
}

/// The quantized value is the nearest grid point (within float fuzz).
#[test]
fn minifloat_quantize_is_nearest() {
    let fs = formats();
    cases(512, |g| {
        let x = g.f32_in(-500.0, 500.0);
        let f = &fs[g.below(fs.len())];
        let q = f.quantize(x);
        let a = x.abs().min(f.max_value());
        let best = f
            .values()
            .into_iter()
            .map(|v| (v - a).abs())
            .fold(f32::INFINITY, f32::min);
        assert!(
            (q.abs() - a).abs() <= best + best.abs() * 1e-6 + 1e-12,
            "case {}: x={x} q={q}",
            g.case
        );
    });
}

/// encode -> decode -> encode is stable for every code of every format.
#[test]
fn minifloat_code_roundtrip() {
    for f in &formats() {
        for code in 0u16..=255 {
            let masked = code as u8 & ((1u16 << f.total_bits()) - 1) as u8;
            let v = f.decode(masked);
            if v.is_finite() {
                assert_eq!(f.decode(f.encode(v)), v, "format {f} code {code}");
            }
        }
    }
}

/// Quantization error is bounded by half the local step (no clipping
/// regime).
#[test]
fn minifloat_error_bound() {
    let fs = formats();
    cases(512, |g| {
        let x = g.f32_in(0.01, 1.0);
        let f = &fs[g.below(fs.len())];
        let a = x * f.max_value() * 0.99;
        let q = f.quantize_magnitude(a);
        let step = (a * (-(f.man_bits() as f32)).exp2()).max(f.min_subnormal());
        assert!(
            (q - a).abs() <= step * 0.5 + 1e-12,
            "case {}: a={a} q={q} step={step}",
            g.case
        );
    });
}

/// f16 round-trip: every finite decode encodes back to the same value.
#[test]
fn f16_roundtrip() {
    for bits in 0u16..=u16::MAX {
        let v = f16_bits_to_f32(bits);
        if v.is_finite() {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(v)), v, "bits {bits:#x}");
        }
    }
}

/// quantize_f16 is idempotent and monotone.
#[test]
fn f16_idempotent_monotone() {
    cases(512, |g| {
        let a = g.f32_in(-60000.0, 60000.0);
        let b = g.f32_in(-60000.0, 60000.0);
        let qa = quantize_f16(a);
        assert_eq!(quantize_f16(qa), qa, "case {}", g.case);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(quantize_f16(lo) <= quantize_f16(hi), "case {}", g.case);
    });
}

/// E8M0 round-trips every in-range exponent.
#[test]
fn e8m0_roundtrip() {
    for e in -127i32..=127 {
        let s = E8M0::from_exponent(e);
        assert_eq!(s.exponent(), e);
        assert_eq!(E8M0::from_bits(s.to_bits()), s);
    }
}

/// Symmetric int codecs: |error| <= scale/2 inside the range.
#[test]
fn int_codec_error_bound() {
    cases(512, |g| {
        let x = g.f32_in(-100.0, 100.0);
        let bits = g.int_in(2, 8) as u32;
        let scale = g.f32_in(0.01, 10.0);
        let c = IntCodec::new(bits);
        let q = c.quantize(x, scale);
        if x.abs() <= c.max_code() as f32 * scale {
            assert!(
                (q - x).abs() <= scale / 2.0 + scale * 1e-5,
                "case {}",
                g.case
            );
        } else {
            assert_eq!(q.abs(), c.max_code() as f32 * scale, "case {}", g.case);
        }
    });
}

/// Nibble packing is invertible for any code sequence: `nibble_at` reads
/// back whatever `pack_nibbles_into` wrote.
#[test]
fn nibble_roundtrip() {
    cases(256, |g| {
        let codes = g.vec_u8_below(16, 0, 199);
        let mut packed = vec![0u8; codes.len().div_ceil(2)];
        pack_nibbles_into(&codes, &mut packed);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(nibble_at(&packed, i), c, "case {} nibble {i}", g.case);
        }
    });
}

/// The 2-bit stream accessors round-trip any field sequence.
#[test]
fn two_bit_stream_roundtrip() {
    cases(256, |g| {
        let fields = g.vec_u8_below(4, 0, 100);
        let mut buf = vec![0u8; (fields.len() * 2).div_ceil(8)];
        for (i, &f) in fields.iter().enumerate() {
            set_two_bits(&mut buf, i, f);
        }
        for (i, &f) in fields.iter().enumerate() {
            assert_eq!(two_bits_at(&buf, i), f, "case {} field {i}", g.case);
        }
    });
}

/// Codebook quantization returns a grid member with minimal distance.
#[test]
fn codebook_nearest() {
    cases(256, |g| {
        let n = 1 + g.below(19);
        let mut grid = g.vec_f32(n, 0.0, 100.0);
        grid.push(0.0);
        let x = g.f32_in(-120.0, 120.0);
        let cb = Codebook::new("p", grid).unwrap();
        let q = cb.quantize(x);
        assert!(cb.magnitudes().contains(&q.abs()), "case {}", g.case);
        let best = cb
            .magnitudes()
            .iter()
            .map(|v| (v - x.abs()).abs())
            .fold(f32::INFINITY, f32::min);
        assert!((q.abs() - x.abs()).abs() <= best + 1e-5, "case {}", g.case);
    });
}

/// The integer decode LUTs agree with the float codec for every code and
/// metadata value (the packed GEMM trusts these tables blindly).
#[test]
fn decode_luts_match_float_codec() {
    let f4 = m2xfp_repro::formats::fp4();
    for c in 0..16u8 {
        assert_eq!(tables::FP4_X8[c as usize] as f32, f4.decode(c) * 8.0);
        assert_eq!(tables::FP4_X2[c as usize] as f32, f4.decode(c) * 2.0);
        let sign = if c & 0x8 != 0 { -1.0f32 } else { 1.0 };
        for meta in 0..4u8 {
            assert_eq!(
                tables::EXTRA_X8[c as usize][meta as usize] as f32,
                sign * tables::decode_extra_mantissa(c & 0x7, meta) * 8.0,
                "code {c} meta {meta}"
            );
        }
    }
}
