//! Equivalent bit width (EBW) accounting — paper Eq. 2:
//!
//! ```text
//! EBW = B_elem + (B_meta + B_scale) / k
//! ```
//!
//! where `k` is the group size, `B_elem` the element bits, `B_meta` the
//! metadata bits per group and `B_scale` the shared-scale bits. EBW is the
//! x-axis of the Pareto plots (Figs. 4, 6, 7) and the basis of the paper's
//! "effective 4.5-bit" claim for M2XFP.

/// Bit budget of a group-quantized format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitBudget {
    /// Bits per element (4 for FP4).
    pub elem_bits: f64,
    /// Shared-scale bits per group (8 for E8M0 and FP8).
    pub scale_bits: f64,
    /// Metadata bits per group.
    pub meta_bits: f64,
    /// Group size `k`.
    pub group_size: usize,
}

impl BitBudget {
    /// Equivalent bit width per Eq. 2.
    pub fn ebw(&self) -> f64 {
        self.elem_bits + (self.meta_bits + self.scale_bits) / self.group_size as f64
    }

    /// Budget for a metadata strategy spending `meta_bits_per_subgroup` on
    /// each of the `k / subgroup_size` subgroups.
    pub fn with_subgroup_meta(
        group_size: usize,
        subgroup_size: usize,
        meta_bits_per_subgroup: f64,
    ) -> Self {
        let n_sub = (group_size / subgroup_size) as f64;
        BitBudget {
            elem_bits: 4.0,
            scale_bits: 8.0,
            meta_bits: meta_bits_per_subgroup * n_sub,
            group_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m2xfp_is_4_5_bits_with_quarter_bit_meta() {
        // The production geometry: group 32, subgroup 8, 2 bits each.
        let b = BitBudget::with_subgroup_meta(32, 8, 2.0);
        assert!((b.ebw() - 4.5).abs() < 1e-12);
        // "only 0.25 bits of metadata per element" (paper §1).
        assert!((b.meta_bits / b.group_size as f64 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn subgroup_sweep_monotone() {
        // Smaller subgroups -> more metadata -> higher EBW.
        let mut last = 0.0;
        for sg in [32, 16, 8, 4, 2] {
            let e = BitBudget::with_subgroup_meta(32, sg, 2.0).ebw();
            assert!(e > last);
            last = e;
        }
        // Elem-EM at subgroup 2 with 2-bit meta: 4 + (32 + 8)/32 = 5.25,
        // the right edge of Figs. 6-7.
        assert!((last - 5.25).abs() < 1e-12);
    }

    #[test]
    fn smx_style_budget() {
        // SMX4: group 16, pair-level 1 bit: EBW = 3(INT3 elem) + (8+8)/16.
        let b = BitBudget {
            elem_bits: 3.0,
            scale_bits: 8.0,
            meta_bits: 8.0,
            group_size: 16,
        };
        assert!((b.ebw() - 4.0).abs() < 1e-12);
    }
}
