//! The AVX2 micro-kernel of the packed qGEMM — the crate's only `unsafe`
//! code. `std::arch` intrinsics need a `#[target_feature]` context, which
//! is an `unsafe fn` on the crate's MSRV, and vector loads take raw
//! pointers.
//!
//! Per 16-column [`WeightPlane`](super::WeightPlane) panel, two activation
//! rows at a time: each k-pair of a row is broadcast as one i32 and
//! multiply-added (`_mm256_madd_epi16`) against the panel's interleaved
//! k-pair row, two registers for the 16 columns. A group therefore ends
//! with its 16 exact i32 column dots in two registers per row, with no
//! horizontal reduction. The f64 epilogue then adds
//! `dot as f64 * (xs * ws)` per column in ascending group order, with the
//! same operand values as the portable kernel, so the bits agree.

#![allow(unsafe_code)]

use super::{Operands, FIXED_POINT_UNIT, PANEL};
use std::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_add_pd, _mm256_castsi256_si128, _mm256_cvtepi32_pd,
    _mm256_extracti128_si256, _mm256_loadu_pd, _mm256_loadu_si256, _mm256_madd_epi16,
    _mm256_mul_pd, _mm256_set1_epi32, _mm256_set1_pd, _mm256_setzero_pd, _mm256_setzero_si256,
    _mm256_storeu_pd,
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

/// For each panel: the rows in blocks of two, then a last odd row.
///
/// # Safety
///
/// The CPU must support AVX2.
// SAFETY: the caller proves AVX2; every load sits in `panel_dots`.
#[target_feature(enable = "avx2")]
// m2x-lint: hot
unsafe fn rows_avx2(op: &Operands<'_>, row0: usize, chunk: &mut [f32]) {
    let (gpr, gsp, n) = (op.gpr, op.gsp, op.n);
    let kp = gpr * gsp;
    let nrows = chunk.len() / n;
    let x = |i: usize| {
        (
            &op.x8[i * kp..(i + 1) * kp],
            &op.xscale[i * gpr..(i + 1) * gpr],
        )
    };
    let panels = op
        .w16
        .chunks_exact(gpr * gsp * PANEL)
        .zip(op.wscale.chunks_exact(gpr * PANEL));
    for (pn, (wp, wsp)) in panels.enumerate() {
        let j0 = pn * PANEL;
        let cols = PANEL.min(n - j0);
        let mut store = |li: usize, acc: &[f64; PANEL]| {
            for (o, &a) in chunk[li * n + j0..li * n + j0 + cols].iter_mut().zip(acc) {
                *o = a as f32;
            }
        };
        let mut li = 0;
        while li + 2 <= nrows {
            let [a0, a1] = panel_dots([x(row0 + li), x(row0 + li + 1)], wp, wsp, gsp);
            store(li, &a0);
            store(li + 1, &a1);
            li += 2;
        }
        if li < nrows {
            let [a0] = panel_dots([x(row0 + li)], wp, wsp, gsp);
            store(li, &a0);
        }
    }
}

/// One panel's 16 output sums for `R` activation rows, each row given as
/// its decoded plane row and per-group scales.
///
/// # Safety
///
/// The CPU must support AVX2.
// m2x-lint: hot
// SAFETY: the caller proves AVX2; the asserts below bound every load.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn panel_dots<const R: usize>(
    x: [(&[i16], &[f64]); R],
    wp: &[i16],
    wsp: &[f64],
    gsp: usize,
) -> [[f64; PANEL]; R] {
    let gpr = wsp.len() / PANEL;
    assert!(gsp % 2 == 0, "groups must span whole k-pairs");
    assert!(wp.len() == gpr * gsp * PANEL && wsp.len() == gpr * PANEL);
    for (xr, xsr) in &x {
        assert!(xr.len() == gpr * gsp && xsr.len() == gpr);
    }
    let mut acc = [[_mm256_setzero_pd(); 4]; R];
    for g in 0..gpr {
        let mut dot: [[__m256i; 2]; R] = [[_mm256_setzero_si256(); 2]; R];
        for p in 0..gsp / 2 {
            let k = g * gsp + 2 * p;
            // SAFETY: 2p + 2 <= gsp, so the k-pair row's 32 elements end at
            // (k + 2)·16 <= (g + 1)·gsp·16 <= wp.len() (asserted above).
            let wrow = wp.as_ptr().add(k * PANEL);
            let w0 = _mm256_loadu_si256(wrow.cast());
            let w1 = _mm256_loadu_si256(wrow.add(PANEL).cast());
            for (d, (xr, _)) in dot.iter_mut().zip(&x) {
                // SAFETY: the pair ends at k + 2 <= (g + 1)·gsp <= xr.len()
                // (asserted above); x86 is little-endian, so element k
                // lands in the low half of each i32 lane, as madd expects.
                let xb = _mm256_set1_epi32(xr.as_ptr().add(k).cast::<i32>().read_unaligned());
                d[0] = _mm256_add_epi32(d[0], _mm256_madd_epi16(xb, w0));
                d[1] = _mm256_add_epi32(d[1], _mm256_madd_epi16(xb, w1));
            }
        }
        // SAFETY: the 16 scales end at (g + 1)·16 <= wsp.len() (asserted
        // above).
        let ws = wsp.as_ptr().add(g * PANEL);
        let wsv = [
            _mm256_loadu_pd(ws),
            _mm256_loadu_pd(ws.add(4)),
            _mm256_loadu_pd(ws.add(8)),
            _mm256_loadu_pd(ws.add(12)),
        ];
        for ((a, d), (_, xsr)) in acc.iter_mut().zip(&dot).zip(&x) {
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
