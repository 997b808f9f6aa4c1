//! # m2x-formats
//!
//! Software number-format substrate for the M2XFP reproduction.
//!
//! This crate implements, from scratch, every scalar encoding used by the
//! M2XFP paper (ASPLOS '26) and the formats it compares against:
//!
//! * [`Minifloat`] — a generic sign/exponent/mantissa codec that instantiates
//!   FP4 (E2M1), FP6 (E2M3, E3M2), FP8 (E4M3, E5M2) and the odd variants used
//!   by baseline formats (E3M3, ...).
//! * [`e8m0`] — the OCP power-of-two shared-scale type.
//! * [`half`] — software FP16/BF16 conversion (round-to-nearest-even).
//! * [`int`] — symmetric integer codecs (INT3/INT4/INT8) for SMX/MXINT/QuaRot.
//! * [`codebook`] — arbitrary value-grid quantizers used by ANT / M-ANT /
//!   BlockDialect style formats.
//! * [`packing`] — the nibble and 2-bit accessors of the M2XFP streams.
//! * [`tables`] — the FP4→UINT monotone lookup table of the Top-1 Decode Unit.
//!
//! All encoders use round-to-nearest-even with saturation, matching the OCP
//! Microscaling specification's conversion semantics.
//!
//! ```
//! use m2x_formats::fp4;
//!
//! let f = fp4();
//! assert_eq!(f.max_value(), 6.0);
//! assert_eq!(f.quantize(3.4), 3.0); // RNE onto the E2M1 grid
//! ```

pub mod codebook;
pub mod e8m0;
pub mod half;
pub mod int;
pub mod minifloat;
pub mod packing;
pub mod tables;

pub use codebook::Codebook;
pub use e8m0::E8M0;
pub use minifloat::{Minifloat, SpecialValues};

use std::sync::OnceLock;

macro_rules! static_format {
    ($(#[$doc:meta])* $name:ident, $e:expr, $m:expr, $special:expr) => {
        $(#[$doc])*
        pub fn $name() -> &'static Minifloat {
            static CELL: OnceLock<Minifloat> = OnceLock::new();
            // m2x-lint: allow(panic) static format specs are compile-time constants validated by unit tests
            CELL.get_or_init(|| Minifloat::new($e, $m, $special).expect("valid spec"))
        }
    };
}

static_format!(
    /// FP4 E2M1: the OCP MXFP4 element type. Values ±{0, 0.5, 1, 1.5, 2, 3, 4, 6}.
    fp4, 2, 1, SpecialValues::None
);
static_format!(
    /// FP6 E2M3: the OCP MXFP6 element type used by M2XFP's top-1 re-rounding.
    fp6_e2m3, 2, 3, SpecialValues::None
);
static_format!(
    /// FP6 E3M2: the alternative OCP MXFP6 element type.
    fp6_e3m2, 3, 2, SpecialValues::None
);
static_format!(
    /// FP8 E4M3: OCP variant with a single NaN code; max finite value 448.
    fp8_e4m3, 4, 3, SpecialValues::NanOnly
);
static_format!(
    /// FP8 E5M2: IEEE-like variant with inf/NaN; max finite value 57344.
    fp8_e5m2, 5, 2, SpecialValues::Ieee
);
static_format!(
    /// FP6 E3M3 used by the MXFP6(E3M3) variant in Fig. 1 of the paper.
    fp6_e3m3, 3, 3, SpecialValues::None
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statics_have_expected_maxima() {
        assert_eq!(fp4().max_value(), 6.0);
        assert_eq!(fp6_e2m3().max_value(), 7.5);
        assert_eq!(fp6_e3m2().max_value(), 28.0);
        assert_eq!(fp8_e4m3().max_value(), 448.0);
        assert_eq!(fp8_e5m2().max_value(), 57344.0);
    }

    #[test]
    fn fp4_value_set_matches_paper() {
        let vals = fp4().values();
        assert_eq!(vals, vec![0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]);
    }
}
