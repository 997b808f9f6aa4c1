//! Generic minifloat codec.
//!
//! A [`Minifloat`] describes a sign + exponent + mantissa encoding with a
//! configurable number of exponent and mantissa bits and one of three
//! special-value conventions (see [`SpecialValues`]). It provides bit-exact
//! encode/decode and round-to-nearest-even quantization with saturation —
//! the conversion semantics prescribed by the OCP Microscaling spec.
//!
//! The codec supports subnormals. The exponent bias is the IEEE-style
//! `2^(E-1) - 1` (so E2 formats have bias 1, E4 bias 7, E5 bias 15), which
//! matches all formats in the paper (Fig. 1).

use std::fmt;

/// How the top of the code space is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialValues {
    /// Every code is a finite value (OCP FP4/FP6: no inf, no NaN).
    None,
    /// The single all-ones magnitude code is NaN (OCP FP8 E4M3).
    NanOnly,
    /// The top exponent is reserved for inf (mantissa 0) and NaN (IEEE / E5M2).
    Ieee,
}

/// Error constructing a [`Minifloat`] spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidSpecError {
    msg: String,
}

impl fmt::Display for InvalidSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid minifloat spec: {}", self.msg)
    }
}

impl std::error::Error for InvalidSpecError {}

/// A generic minifloat format: 1 sign bit, `exp_bits` exponent bits and
/// `man_bits` mantissa bits.
///
/// ```
/// use m2x_formats::{Minifloat, SpecialValues};
///
/// let fp4 = Minifloat::new(2, 1, SpecialValues::None)?;
/// assert_eq!(fp4.quantize(2.6), 3.0);
/// assert_eq!(fp4.quantize(-100.0), -6.0); // saturates
/// # Ok::<(), m2x_formats::minifloat::InvalidSpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Minifloat {
    exp_bits: u32,
    man_bits: u32,
    special: SpecialValues,
    bias: i32,
    max_value: u32, // bit pattern of f32 max finite value, stored for hash/eq
}

impl Minifloat {
    /// Creates a new format description.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSpecError`] when the total width exceeds 8 bits,
    /// when `exp_bits == 0`, or when the special-value convention cannot be
    /// honored (e.g. [`SpecialValues::Ieee`] needs a reserved exponent).
    pub fn new(
        exp_bits: u32,
        man_bits: u32,
        special: SpecialValues,
    ) -> Result<Self, InvalidSpecError> {
        if exp_bits == 0 {
            return Err(InvalidSpecError {
                msg: "exp_bits must be >= 1".to_string(),
            });
        }
        if 1 + exp_bits + man_bits > 8 {
            return Err(InvalidSpecError {
                msg: format!("total width {} exceeds 8 bits", 1 + exp_bits + man_bits),
            });
        }
        if special == SpecialValues::Ieee && exp_bits < 2 {
            return Err(InvalidSpecError {
                msg: "IEEE convention needs >= 2 exponent bits".to_string(),
            });
        }
        let bias = (1i32 << (exp_bits - 1)) - 1;
        let mut mf = Minifloat {
            exp_bits,
            man_bits,
            special,
            bias,
            max_value: 0,
        };
        mf.max_value = mf.compute_max().to_bits();
        Ok(mf)
    }

    /// Number of exponent bits.
    pub fn exp_bits(&self) -> u32 {
        self.exp_bits
    }

    /// Number of mantissa bits.
    pub fn man_bits(&self) -> u32 {
        self.man_bits
    }

    /// Special-value convention.
    pub fn special(&self) -> SpecialValues {
        self.special
    }

    /// Exponent bias (`2^(E-1) - 1`).
    pub fn bias(&self) -> i32 {
        self.bias
    }

    /// Total storage width in bits, including the sign.
    pub fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Number of magnitude bits (exponent + mantissa).
    fn magnitude_bits(&self) -> u32 {
        self.exp_bits + self.man_bits
    }

    /// Largest finite representable value.
    pub fn max_value(&self) -> f32 {
        f32::from_bits(self.max_value)
    }

    /// Largest power of two representable (the paper's `P`, e.g. 4 for FP4).
    pub fn max_pow2(&self) -> f32 {
        let emax = self.max_biased_exponent() as i32 - self.bias;
        (emax as f32).exp2()
    }

    /// Smallest positive normal value.
    fn min_normal(&self) -> f32 {
        ((1 - self.bias) as f32).exp2()
    }

    /// Smallest positive subnormal value (the grid's resolution near zero).
    pub fn min_subnormal(&self) -> f32 {
        ((1 - self.bias - self.man_bits as i32) as f32).exp2()
    }

    fn max_biased_exponent(&self) -> u32 {
        match self.special {
            SpecialValues::None | SpecialValues::NanOnly => (1 << self.exp_bits) - 1,
            SpecialValues::Ieee => (1 << self.exp_bits) - 2,
        }
    }

    fn compute_max(&self) -> f32 {
        let emax = self.max_biased_exponent() as i32 - self.bias;
        let m_codes = 1u32 << self.man_bits;
        let top_man = match self.special {
            // All-ones mantissa in the top exponent is a value.
            SpecialValues::None | SpecialValues::Ieee => m_codes - 1,
            // All-ones magnitude is NaN; back off one mantissa step.
            SpecialValues::NanOnly => m_codes - 2,
        };
        let frac = 1.0 + top_man as f32 / m_codes as f32;
        frac * (emax as f32).exp2()
    }

    /// Decodes a bit pattern into its value.
    ///
    /// Bits above the format width are ignored. NaN codes decode to
    /// `f32::NAN`, infinity codes (IEEE convention) to `±f32::INFINITY`.
    pub fn decode(&self, bits: u8) -> f32 {
        let width = self.total_bits();
        let bits = (bits as u32) & ((1u32 << width) - 1);
        let sign = if bits >> (width - 1) != 0 {
            -1.0f32
        } else {
            1.0
        };
        let mag = bits & ((1 << self.magnitude_bits()) - 1);
        sign * self.decode_magnitude(mag as u8)
    }

    /// Decodes magnitude bits only (no sign).
    pub fn decode_magnitude(&self, mag: u8) -> f32 {
        let mag = (mag as u32) & ((1 << self.magnitude_bits()) - 1);
        let e_field = mag >> self.man_bits;
        let m_field = mag & ((1 << self.man_bits) - 1);
        let m_codes = 1u32 << self.man_bits;
        match self.special {
            SpecialValues::NanOnly if mag == (1 << self.magnitude_bits()) - 1 => {
                return f32::NAN;
            }
            SpecialValues::Ieee if e_field == (1 << self.exp_bits) - 1 => {
                return if m_field == 0 {
                    f32::INFINITY
                } else {
                    f32::NAN
                };
            }
            _ => {}
        }
        if e_field == 0 {
            // Subnormal: value = 2^(1-bias) * m / 2^man_bits.
            let scale = ((1 - self.bias - self.man_bits as i32) as f32).exp2();
            m_field as f32 * scale
        } else {
            let exp = e_field as i32 - self.bias;
            (1.0 + m_field as f32 / m_codes as f32) * (exp as f32).exp2()
        }
    }

    /// Encodes `x` to the nearest representable code (RNE, saturating).
    ///
    /// Infinite inputs saturate to the maximum finite value (or encode as
    /// infinity under the IEEE convention); NaN inputs encode as NaN when the
    /// format has one, otherwise as zero.
    pub fn encode(&self, x: f32) -> u8 {
        let sign_bit = if x.is_sign_negative() { 1u8 } else { 0 };
        let mag = self.encode_magnitude(x.abs());
        (sign_bit << self.magnitude_bits()) | mag
    }

    /// Encodes a non-negative magnitude to magnitude bits (RNE, saturating).
    pub fn encode_magnitude(&self, a: f32) -> u8 {
        debug_assert!(a >= 0.0 || a.is_nan(), "magnitude must be non-negative");
        if a.is_nan() {
            return match self.special {
                SpecialValues::None => 0,
                SpecialValues::NanOnly => ((1u32 << self.magnitude_bits()) - 1) as u8,
                SpecialValues::Ieee => {
                    let e_all = ((1u32 << self.exp_bits) - 1) << self.man_bits;
                    (e_all | 1) as u8
                }
            };
        }
        if a.is_infinite() && self.special == SpecialValues::Ieee {
            let e_all = ((1u32 << self.exp_bits) - 1) << self.man_bits;
            return e_all as u8;
        }
        let max = self.max_value();
        // Values exactly halfway between max and the (absent) next step round
        // to max under saturation.
        let q = self.quantize_magnitude(a.min(max));
        self.magnitude_bits_of(q)
    }

    /// Round-to-nearest-even quantization of a non-negative value onto the
    /// grid, saturating at [`Self::max_value`].
    pub fn quantize_magnitude(&self, a: f32) -> f32 {
        debug_assert!(a >= 0.0 || a.is_nan());
        if a.is_nan() {
            return f32::NAN;
        }
        let max = self.max_value();
        if a >= max {
            return max;
        }
        let min_normal = self.min_normal();
        let step = if a < min_normal {
            self.min_subnormal()
        } else {
            // Exponent of a: largest e with 2^e <= a.
            let mut e = a.log2().floor() as i32;
            // log2 rounding can be off by one at bin edges; fix up exactly.
            while (e as f32).exp2() > a {
                e -= 1;
            }
            while ((e + 1) as f32).exp2() <= a {
                e += 1;
            }
            ((e - self.man_bits as i32) as f32).exp2()
        };
        let q = (a / step).round_ties_even() * step;
        // Rounding up may cross into the next exponent bin; that value is
        // still on the grid (mantissa wraps to 0, exponent increments), so
        // only the max clamp is needed.
        q.min(max)
    }

    /// Round-to-nearest-even quantization (signed), saturating at ±max.
    pub fn quantize(&self, x: f32) -> f32 {
        let q = self.quantize_magnitude(x.abs());
        if x.is_sign_negative() {
            -q
        } else {
            q
        }
    }

    /// Returns the magnitude bit pattern of a value already on the grid.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `q` is not exactly representable.
    pub fn magnitude_bits_of(&self, q: f32) -> u8 {
        debug_assert!(q >= 0.0 || q.is_nan());
        if q == 0.0 {
            return 0;
        }
        if q.is_nan() {
            return self.encode_magnitude(f32::NAN);
        }
        let min_normal = self.min_normal();
        if q < min_normal {
            let m = q / self.min_subnormal();
            debug_assert_eq!(m.fract(), 0.0, "value {q} not on subnormal grid");
            return m as u8;
        }
        let mut e = q.log2().floor() as i32;
        while (e as f32).exp2() > q {
            e -= 1;
        }
        while ((e + 1) as f32).exp2() <= q {
            e += 1;
        }
        let m_codes = 1u32 << self.man_bits;
        let frac = q / (e as f32).exp2() - 1.0;
        let m = frac * m_codes as f32;
        debug_assert_eq!(m.fract(), 0.0, "value {q} not on grid");
        let e_field = (e + self.bias) as u32;
        debug_assert!(e_field <= self.max_biased_exponent());
        ((e_field << self.man_bits) | m as u32) as u8
    }

    /// All non-negative finite representable values, ascending (starts at 0).
    pub fn values(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for mag in 0..(1u32 << self.magnitude_bits()) {
            let v = self.decode_magnitude(mag as u8);
            if v.is_finite() {
                out.push(v);
            }
        }
        out.sort_by(|a, b| a.total_cmp(b));
        out.dedup();
        out
    }
}

impl fmt::Display for Minifloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}M{}", self.exp_bits, self.man_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp4() -> Minifloat {
        Minifloat::new(2, 1, SpecialValues::None).unwrap()
    }

    fn fp6() -> Minifloat {
        Minifloat::new(2, 3, SpecialValues::None).unwrap()
    }

    #[test]
    fn fp4_decode_all_codes() {
        let f = fp4();
        let expect = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0];
        for (mag, want) in expect.iter().enumerate() {
            assert_eq!(f.decode_magnitude(mag as u8), *want, "mag={mag}");
            // Sign bit flips the value.
            assert_eq!(f.decode((8 | mag) as u8), -*want);
        }
    }

    #[test]
    fn fp6_e2m3_grid() {
        let f = fp6();
        let vals = f.values();
        assert_eq!(vals.len(), 32);
        assert_eq!(vals[0], 0.0);
        assert_eq!(vals[1], 0.125); // min subnormal
        assert_eq!(*vals.last().unwrap(), 7.5);
        // Values quantized to 4.0 in FP4 map to one of 5 FP6 candidates
        // {3.5, 3.75, 4.0, 4.5, 5.0} (paper §4.4.1).
        for v in [3.5, 3.75, 4.0, 4.5, 5.0] {
            assert!(vals.contains(&v), "missing {v}");
        }
    }

    #[test]
    fn rne_ties_to_even() {
        let f = fp4();
        // 2.5 is halfway between 2.0 and 3.0; mantissa codes are 0 (even) and 1.
        assert_eq!(f.quantize(2.5), 2.0);
        // 3.5 halfway between 3.0 and 4.0; 4.0 has even mantissa.
        assert_eq!(f.quantize(3.5), 4.0);
        // 0.25 halfway between 0 and 0.5 -> 0 (even).
        assert_eq!(f.quantize(0.25), 0.0);
        assert_eq!(f.quantize(0.75), 1.0);
    }

    #[test]
    fn saturation() {
        let f = fp4();
        assert_eq!(f.quantize(7.0), 6.0);
        assert_eq!(f.quantize(-1e9), -6.0);
        assert_eq!(f.quantize(f32::INFINITY), 6.0);
    }

    #[test]
    fn encode_decode_roundtrip_all_codes() {
        for f in [
            fp4(),
            fp6(),
            Minifloat::new(3, 2, SpecialValues::None).unwrap(),
            Minifloat::new(4, 3, SpecialValues::NanOnly).unwrap(),
            Minifloat::new(5, 2, SpecialValues::Ieee).unwrap(),
        ] {
            for code in 0..1u16 << f.total_bits() {
                let v = f.decode(code as u8);
                if v.is_nan() {
                    continue;
                }
                if v.is_infinite() {
                    assert_eq!(f.decode(f.encode(v)), v);
                    continue;
                }
                let back = f.decode(f.encode(v));
                // -0.0 == 0.0 per IEEE comparison, which is what we want.
                assert_eq!(back, v, "format {f} code {code}");
            }
        }
    }

    #[test]
    fn e4m3_nan_and_max() {
        let f = Minifloat::new(4, 3, SpecialValues::NanOnly).unwrap();
        assert!(f.decode(0x7f).is_nan());
        assert_eq!(f.max_value(), 448.0);
        assert_eq!(f.quantize(500.0), 448.0);
    }

    #[test]
    fn e5m2_inf_nan() {
        let f = Minifloat::new(5, 2, SpecialValues::Ieee).unwrap();
        assert_eq!(f.decode(0x7c), f32::INFINITY);
        assert!(f.decode(0x7d).is_nan());
        assert_eq!(f.decode(0xfc), f32::NEG_INFINITY);
        assert_eq!(f.max_value(), 57344.0);
    }

    #[test]
    fn magnitude_bits_inverse_of_decode() {
        let f = fp6();
        for mag in 0..32u8 {
            let v = f.decode_magnitude(mag);
            assert_eq!(f.magnitude_bits_of(v), mag);
        }
    }

    #[test]
    fn max_pow2_matches_paper_p() {
        // P = 4 for FP4 (paper §2.2).
        assert_eq!(fp4().max_pow2(), 4.0);
        assert_eq!(fp6().max_pow2(), 4.0);
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(Minifloat::new(0, 3, SpecialValues::None).is_err());
        assert!(Minifloat::new(6, 3, SpecialValues::None).is_err());
        assert!(Minifloat::new(1, 1, SpecialValues::Ieee).is_err());
    }

    #[test]
    fn quantize_is_nearest() {
        // Exhaustive nearest-neighbour check against the value table.
        let f = fp4();
        let vals = f.values();
        let mut x = 0.0f32;
        while x < 8.0 {
            let q = f.quantize_magnitude(x);
            let best = vals
                .iter()
                .copied()
                .min_by(|a, b| (a - x).abs().partial_cmp(&(b - x).abs()).unwrap())
                .unwrap();
            assert!(
                (q - x).abs() <= (best - x).abs() + 1e-7,
                "x={x} q={q} best={best}"
            );
            x += 0.01;
        }
    }
}
