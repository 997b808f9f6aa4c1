//! The AVX2 micro-kernel of the packed qGEMM — the crate's only `unsafe`
//! code. `std::arch` intrinsics need a `#[target_feature]` context, which
//! is an `unsafe fn` on the crate's MSRV, and vector loads take raw
//! pointers.
//!
//! Per 16-column [`WeightPlane`](super::WeightPlane) panel, two activation
//! rows at a time: each k-quad of a row is broadcast as one i32 and
//! multiplied (`_mm256_maddubs_epi16`, unsigned weight bytes times signed
//! activations) against the panel's k-quad row, two registers for the 16
//! columns; `_mm256_madd_epi16` by one then sums each column's two pair
//! sums into its i32 lane. A group therefore ends with its 16 biased i32
//! column dots in two registers per row, with no horizontal reduction;
//! subtracting the weight bias's 84·Σx8 leaves the exact dots. The f64
//! epilogue then rebuilds each column's `2^(b − 127)` from its E8M0 byte
//! and adds `dot as f64 * (xs * ws)` per column in ascending group order,
//! with the same operand values as the portable kernel, so the bits agree.

#![allow(unsafe_code)]

use super::{Operands, FIXED_POINT_UNIT, PANEL, QUAD, WEIGHT_BIAS};
use std::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_pd, _mm256_castsi256_pd,
    _mm256_castsi256_si128, _mm256_cvtepi32_pd, _mm256_cvtepu8_epi64, _mm256_extracti128_si256,
    _mm256_loadu_si256, _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_mul_pd, _mm256_set1_epi16,
    _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setzero_pd, _mm256_setzero_si256,
    _mm256_slli_epi64, _mm256_storeu_pd, _mm256_sub_epi32, _mm_cvtsi32_si128,
};

/// Runs the AVX2 kernel over the output rows `row0..` that `chunk` holds.
///
/// # Panics
///
/// Panics when the CPU lacks AVX2 (the dispatcher only routes here after
/// [`KernelPath::detect`](super::KernelPath::detect) found it).
// m2x-lint: hot
pub(super) fn kernel_rows(op: &Operands<'_>, row0: usize, chunk: &mut [f32]) {
    assert!(
        std::is_x86_feature_detected!("avx2"),
        "the AVX2 kernel needs an AVX2 CPU"
    );
    // SAFETY: the CPU reports AVX2, asserted above.
    unsafe { rows_avx2(op, row0, chunk) }
}

/// One activation row of a kernel call: its decoded plane row, per-group
/// sums and per-group scales.
type ActRow<'a> = (&'a [i8], &'a [i32], &'a [f64]);

/// For each panel: the rows in blocks of two, then a last odd row.
///
/// # Safety
///
/// The CPU must support AVX2.
// SAFETY: the caller proves AVX2; every load sits in `panel_dots`.
#[target_feature(enable = "avx2")]
// m2x-lint: hot
unsafe fn rows_avx2(op: &Operands<'_>, row0: usize, chunk: &mut [f32]) {
    let (gpr, gsq, n) = (op.gpr, op.gsq, op.n);
    let kp = gpr * gsq;
    let nrows = chunk.len() / n;
    let x = |i: usize| -> ActRow<'_> {
        let g0 = i * gpr;
        (
            &op.x8[i * kp..(i + 1) * kp],
            &op.xsum[g0..g0 + gpr],
            &op.xscale[g0..g0 + gpr],
        )
    };
    let panels = op
        .w8
        .chunks_exact(gpr * gsq * PANEL)
        .zip(op.wexp.chunks_exact(gpr * PANEL));
    for (pn, (wp, wep)) in panels.enumerate() {
        let j0 = pn * PANEL;
        let cols = PANEL.min(n - j0);
        let mut store = |li: usize, acc: &[f64; PANEL]| {
            for (o, &a) in chunk[li * n + j0..li * n + j0 + cols].iter_mut().zip(acc) {
                *o = a as f32;
            }
        };
        let mut li = 0;
        while li + 2 <= nrows {
            let [a0, a1] = panel_dots([x(row0 + li), x(row0 + li + 1)], wp, wep, gsq);
            store(li, &a0);
            store(li + 1, &a1);
            li += 2;
        }
        if li < nrows {
            let [a0] = panel_dots([x(row0 + li)], wp, wep, gsq);
            store(li, &a0);
        }
    }
}

/// One panel's 16 output sums for `R` activation rows.
///
/// # Safety
///
/// The CPU must support AVX2.
// m2x-lint: hot
// SAFETY: the caller proves AVX2; the asserts below bound every load.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn panel_dots<const R: usize>(
    x: [ActRow<'_>; R],
    wp: &[u8],
    wep: &[u8],
    gsq: usize,
) -> [[f64; PANEL]; R] {
    let gpr = wep.len() / PANEL;
    assert!(gsq % QUAD == 0, "groups must span whole k-quads");
    assert!(wp.len() == gpr * gsq * PANEL && wep.len() == gpr * PANEL);
    for (xr, xsum, xsr) in &x {
        assert!(xr.len() == gpr * gsq && xsum.len() == gpr && xsr.len() == gpr);
    }
    let ones = _mm256_set1_epi16(1);
    let exp_bias = _mm256_set1_epi64x(896);
    let mut acc = [[_mm256_setzero_pd(); 4]; R];
    for g in 0..gpr {
        let mut dot: [[__m256i; 2]; R] = [[_mm256_setzero_si256(); 2]; R];
        for q in 0..gsq / QUAD {
            let k = g * gsq + QUAD * q;
            // SAFETY: 4q + 4 <= gsq, so the k-quad row's 64 bytes end at
            // (k + 4)·16 <= (g + 1)·gsq·16 <= wp.len() (asserted above).
            let wrow = wp.as_ptr().add(k * PANEL);
            let w0 = _mm256_loadu_si256(wrow.cast());
            let w1 = _mm256_loadu_si256(wrow.add(QUAD * PANEL / 2).cast());
            for (d, (xr, _, _)) in dot.iter_mut().zip(&x) {
                // SAFETY: the quad ends at k + 4 <= (g + 1)·gsq <= xr.len()
                // (asserted above); x86 is little-endian, so element k + t
                // lands in byte t of each i32 lane, as maddubs pairs it
                // with the column's weight k + t.
                let xb = _mm256_set1_epi32(xr.as_ptr().add(k).cast::<i32>().read_unaligned());
                let p0 = _mm256_madd_epi16(_mm256_maddubs_epi16(w0, xb), ones);
                let p1 = _mm256_madd_epi16(_mm256_maddubs_epi16(w1, xb), ones);
                d[0] = _mm256_add_epi32(d[0], p0);
                d[1] = _mm256_add_epi32(d[1], p1);
            }
        }
        // 2^(b − 127) per column from the E8M0 bytes: the f64 exponent
        // field is b + 896.
        let mut wsv = [_mm256_setzero_pd(); 4];
        for (c, w) in wsv.iter_mut().enumerate() {
            // SAFETY: the 4 bytes end at g·16 + 4c + 4 <= (g + 1)·16 <=
            // wep.len() (asserted above).
            let b = wep
                .as_ptr()
                .add(g * PANEL + 4 * c)
                .cast::<i32>()
                .read_unaligned();
            let e = _mm256_add_epi64(_mm256_cvtepu8_epi64(_mm_cvtsi32_si128(b)), exp_bias);
            *w = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(e));
        }
        for ((a, d), (_, xsum, xsr)) in acc.iter_mut().zip(&dot).zip(&x) {
            let bias = _mm256_set1_epi32(WEIGHT_BIAS * xsum[g]);
            let d = [_mm256_sub_epi32(d[0], bias), _mm256_sub_epi32(d[1], bias)];
            // exp2(xe)·2^-6·exp2(we): exact powers of two, as in the
            // portable kernel.
            let xs = _mm256_set1_pd(xsr[g] * FIXED_POINT_UNIT);
            let dots = [
                _mm256_castsi256_si128(d[0]),
                _mm256_extracti128_si256::<1>(d[0]),
                _mm256_castsi256_si128(d[1]),
                _mm256_extracti128_si256::<1>(d[1]),
            ];
            for ((aq, &dq), &wq) in a.iter_mut().zip(&dots).zip(&wsv) {
                let term = _mm256_mul_pd(_mm256_cvtepi32_pd(dq), _mm256_mul_pd(xs, wq));
                *aq = _mm256_add_pd(*aq, term);
            }
        }
    }
    let mut out = [[0.0f64; PANEL]; R];
    for (o, a) in out.iter_mut().zip(&acc) {
        for (q, &aq) in a.iter().enumerate() {
            // SAFETY: the 4 lanes end at 4q + 4 <= 16 = o.len().
            _mm256_storeu_pd(o.as_mut_ptr().add(4 * q), aq);
        }
    }
    out
}
