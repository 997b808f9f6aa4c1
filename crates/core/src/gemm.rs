//! Bit-exact quantized GEMM mirroring the M2XFP processing element
//! (paper §5.4, Fig. 11, Eq. 5).
//!
//! The PE pipeline is: FP4×FP4 products accumulated in a fixed-point
//! register, an auxiliary MAC adding the ΔX extra-mantissa correction for
//! each subgroup's top-1 activation, a shift-add subgroup scale refinement
//! `P·{1.0,1.25,1.5,1.75}`, and a final E8M0 dequantize-and-accumulate.
//!
//! Everything is exact integer arithmetic in units of 1/64 (activations are
//! multiples of 1/8 after FP6 refinement, weights multiples of 1/2, the
//! multiplier contributes a /4), so [`qgemm`], the packed kernels and the
//! floating-point reference [`qgemm_reference`] all agree **exactly**,
//! which the tests and property tests assert.
//!
//! The packed kernel has two operands and one body, all bit-identical to
//! the oracles:
//!
//! * [`GemmScratch::load`] decodes a [`PackedActTensor`] into the
//!   activation operand, held in a caller-owned scratch that is reused in
//!   place; a [`WeightPlane`] is the weight operand, decoded once per
//!   weight tensor with its weights in 16-column panels (see its type
//!   docs).
//! * [`qgemm_into`] runs the kernel over a loaded scratch and a plane into
//!   a caller-held output, parallelized over output row chunks with scoped
//!   threads ([`m2x_tensor::matrix::par_row_chunks`]; one worker runs
//!   inline). Each group ends as 16 exact i32 column dots; the f64
//!   epilogue then applies the scale products once per group. Once the
//!   scratch is warm, load plus kernel make no heap allocation.
//! * [`qgemm_packed_planed_scratch`] (load, then the kernel, into a fresh
//!   [`Matrix`]), [`qgemv_packed`] (its one-row form) and
//!   [`qgemm_packed`] (decode the plane from raw [`PackedWeightTensor`]
//!   streams, then the same) are wrappers with no logic of their own.
//!
//! Two oracles pin them: [`qgemm`], the readable per-group pipeline over
//! the grouped tensors, decoding through the integer LUTs of
//! `m2x_formats::tables` (no float decode round-trip anywhere), and
//! [`qgemm_reference`], the f64 product of the dequantized tensors.
//!
//! Two kernels read the panel layout, and [`KernelPath::detect`] picks one
//! at run time: an AVX2 micro-kernel (`_mm256_maddubs_epi16` over the
//! k-quads, the crate's only `unsafe` code) where the CPU has AVX2, and a
//! safe portable kernel everywhere else (and under Miri, where std reports
//! no CPU features). Both add `dot as f64 * (xs * ws)` per group in
//! ascending group order with the same operand values, so their output
//! bits are identical.

use crate::activation::{self, ActGroup};
use crate::format::{ActTensor, PackedActTensor, PackedWeightTensor, WeightTensor};
use crate::weight::{self, WeightGroup};
use m2x_formats::packing::{nibble_at, two_bits_at};
use m2x_formats::tables::{top1_index, EXTRA_X8, FP4_X2, FP4_X8};
use m2x_formats::E8M0;
use m2x_tensor::matrix::par_row_chunks;
use m2x_tensor::Matrix;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Exact value of 1/64: the PE's fixed-point unit (1/8 activation × 1/2
/// weight × 1/4 multiplier).
const FIXED_POINT_UNIT: f64 = 1.0 / 64.0;

/// Output columns per [`WeightPlane`] panel: one panel k-quad row is 16
/// columns of 4 weight bytes, two 256-bit registers.
const PANEL: usize = 16;

/// Reduction elements per k-quad: the 4 bytes one i32 lane of
/// `_mm256_maddubs_epi16` then `_mm256_madd_epi16` sums (the per-block
/// integer dot of OCP MX, and what AVX-VNNI `vpdpbusd` reads).
const QUAD: usize = 4;

/// The bias that makes every [`WeightPlane`] byte unsigned: a weight ×2
/// with its multiplier folded in lies in −84..=84 (12 × 7), so its byte,
/// the value plus 84, lies in 0..=168. A group's biased dot exceeds the
/// true one by 84·Σx8, which the kernels subtract.
const WEIGHT_BIAS: i32 = 84;

/// An activation group decoded to integers: values ×8, plus the shared
/// exponent.
#[derive(Debug, Clone)]
struct ActInts {
    x8: Vec<i64>,
    exp: i32,
}

/// A weight group decoded to integers: values ×2, per-subgroup multiplier
/// codes, plus the shared exponent.
#[derive(Debug, Clone)]
struct WeightInts {
    w2: Vec<i64>,
    mult: Vec<u8>,
    exp: i32,
}

fn decode_act_ints(t: &ActTensor) -> Vec<ActInts> {
    let sg_size = t.config().subgroup_size;
    t.groups()
        .iter()
        .map(|g| {
            let mut x8: Vec<i64> = g.codes.iter().map(|&c| FP4_X8[c as usize] as i64).collect();
            // Each subgroup's top-1 takes its metadata-refined value.
            for (sg_idx, sg_codes) in g.codes.chunks(sg_size).enumerate() {
                let local = top1_index(sg_codes);
                x8[sg_idx * sg_size + local] =
                    EXTRA_X8[sg_codes[local] as usize][g.meta[sg_idx] as usize] as i64;
            }
            ActInts {
                x8,
                exp: g.scale.exponent(),
            }
        })
        .collect()
}

fn decode_weight_ints(t: &WeightTensor) -> Vec<WeightInts> {
    t.groups()
        .iter()
        .map(|g| WeightInts {
            w2: g.codes.iter().map(|&c| FP4_X2[c as usize] as i64).collect(),
            mult: g.sg_em.clone(),
            exp: g.scale.exponent(),
        })
        .collect()
}

/// Quantized GEMM `Y[M,N] = X[M,K] · W^T[N,K]` through the exact PE
/// pipeline.
///
/// # Panics
///
/// Panics when the reduction dimensions or group geometries disagree.
pub fn qgemm(x: &ActTensor, w: &WeightTensor) -> Matrix {
    let (m, k) = x.shape();
    let (n, k2) = w.shape();
    assert_eq!(k, k2, "reduction dimension mismatch");
    assert_eq!(
        (x.config().group_size, x.config().subgroup_size),
        (w.config().group_size, w.config().subgroup_size),
        "group geometry mismatch"
    );
    let sg_size = x.config().subgroup_size;
    let gpr = x.groups_per_row();

    let xi = decode_act_ints(x);
    let wi = decode_weight_ints(w);

    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for g in 0..gpr {
                let xg = &xi[i * gpr + g];
                let wg = &wi[j * gpr + g];
                // Fixed-point accumulation in units of 1/64 (the PE's 32-bit
                // fixed-point register; i64 here so no overflow handling is
                // needed at any group size).
                let mut acc64: i64 = 0;
                for (s, (xs, ws)) in xg.x8.chunks(sg_size).zip(wg.w2.chunks(sg_size)).enumerate() {
                    let mut sacc: i64 = 0; // units of 1/16
                    for (&a, &b) in xs.iter().zip(ws) {
                        sacc += a * b;
                    }
                    // Subgroup scale refinement: ×(4 + code)/4, realized in
                    // hardware as shift-adds.
                    acc64 += sacc * (4 + wg.mult[s] as i64);
                }
                // Dequantize: exponent alignment only (E8M0 scales).
                acc += acc64 as f64 * ((xg.exp + wg.exp - 6) as f64).exp2();
            }
            out[(i, j)] = acc as f32;
        }
    }
    out
}

/// Minimum MAC count that justifies one additional GEMM worker thread.
/// Below ~8 MiMAC per extra worker the scoped-thread spawn/join overhead
/// and the cache interference of splitting a small output exceed the
/// parallel win (the recorded `BENCH_m2xfp.json` anomaly where the
/// threaded kernel lost to the pinned single-thread run), so small and
/// medium GEMMs stay single-threaded.
const GEMM_MACS_PER_THREAD: usize = 8 << 20;

/// Worker count [`qgemm_packed`] auto-selects for an `M×K×N` problem: one
/// thread per `GEMM_MACS_PER_THREAD` MACs, capped at the output row count
/// (row chunks are the parallel grain) and at the available cores
/// ([`crate::capped_workers`]), never below one.
pub fn gemm_threads(m: usize, k: usize, n: usize) -> usize {
    let macs = m.saturating_mul(k).saturating_mul(n);
    crate::capped_workers((macs / GEMM_MACS_PER_THREAD).min(m))
}

/// The packed kernel over raw weight streams: decodes a [`WeightPlane`]
/// (per call; see its docs) and runs [`qgemm_packed_planed_scratch`] with
/// [`gemm_threads`] workers and a fresh scratch. Bit-exact against
/// [`qgemm`] and [`qgemm_reference`].
///
/// # Panics
///
/// Panics when the reduction dimensions or group geometries disagree.
pub fn qgemm_packed(x: &PackedActTensor, w: &PackedWeightTensor) -> Matrix {
    let (m, k) = x.shape();
    let n = w.shape().0;
    let plane = WeightPlane::decode(w);
    qgemm_packed_planed_scratch(x, &plane, gemm_threads(m, k, n), &mut GemmScratch::new())
}

/// The packed kernel's activation operand: the decoded fixed-point
/// activation plane (`x8`, i8 values ×8 with |x8| ≤ 56), each group's
/// element sum (`xsum`) and per-group scales (`xscale`), filled by
/// [`GemmScratch::load`] and read by [`qgemm_into`].
///
/// The decode hot loop of a serving session calls a GEMM once per
/// projection per layer per step; holding one `GemmScratch` per session
/// (or per engine thread) makes those calls allocation-free after
/// warm-up — `load` clears and refills the buffers in place, never
/// reallocating once they have grown to the largest operand. One load can
/// feed several kernel calls (the attention score GEMM runs one per KV
/// page on the same Q block).
///
/// **Panic safety:** a loaded operand is valid until the next `load`, and
/// every caller loads in the same function that runs the kernel, so no
/// call ever reads what an earlier call left behind. A scratch abandoned
/// mid-call by a panic (e.g. one caught by a serving engine's
/// `catch_unwind` isolation) can therefore be reused as-is and still
/// computes bit-identical results; [`GemmScratch::reset`] merely discards
/// the stale contents eagerly.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    x8: Vec<i8>,
    /// Σ x8 per (row, group): the share of each biased group dot that the
    /// weight bias adds ([`WEIGHT_BIAS`]).
    xsum: Vec<i32>,
    xscale: Vec<f64>,
    /// `(rows, cols)` of the loaded operand.
    shape: (usize, usize),
    /// `(group_size, subgroup_size)` of the loaded operand; `(0, 0)`,
    /// which no plane has, when nothing is loaded.
    geometry: (usize, usize),
}

impl GemmScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the buffers (capacity kept) and forgets the loaded
    /// operand, so a kernel call before the next [`Self::load`] panics.
    /// Correctness never requires this — see the type docs — but a
    /// recovery path that wants to drop data a caught panic left behind
    /// can call it cheaply.
    pub fn reset(&mut self) {
        self.x8.clear();
        self.xsum.clear();
        self.xscale.clear();
        self.shape = (0, 0);
        self.geometry = (0, 0);
    }

    /// Decodes `x` into the kernel's activation operand and records its
    /// shape and group geometry: i8 LUT lookups straight from the code
    /// bytes (no float round-trip), one slot per group rounded up to whole
    /// k-quads, then each subgroup's top-1 takes its refined value, and
    /// each group keeps its element sum. Padding with zeros keeps ragged
    /// trailing groups exact: zero codes contribute nothing to any
    /// product or sum.
    // m2x-lint: hot
    pub fn load(&mut self, x: &PackedActTensor) {
        let gs = x.config().group_size;
        let gsq = quad_width(gs);
        let sgs = x.config().subgroup_size;
        let spg = gs / sgs;
        let gpr = x.groups_per_row();
        let m = x.shape().0;
        self.x8.clear();
        self.x8.resize(m * gpr * gsq, 0);
        self.xsum.clear();
        self.xsum.resize(m * gpr, 0);
        self.xscale.clear();
        self.xscale.resize(m * gpr, 0.0);
        let meta = x.meta();
        let groups = self
            .x8
            .chunks_exact_mut(gsq)
            .zip(x.codes().chunks_exact(gs.div_ceil(2)))
            .zip(self.xsum.iter_mut().zip(self.xscale.iter_mut()));
        for (g, ((xg, bytes), (sum, xs))) in groups.enumerate() {
            let xg = &mut xg[..x.group_len(g)];
            for (pair, &b) in xg.chunks_mut(2).zip(bytes) {
                for (o, code) in pair.iter_mut().zip([b & 0xF, b >> 4]) {
                    *o = FP4_X8[usize::from(code)];
                }
            }
            for (sg, sx) in xg.chunks_mut(sgs).enumerate() {
                // The subgroup's top-1, as `top1_index` picks it: |FP4_X8|
                // rises with a code's magnitude bits, so the first element
                // with the largest decoded magnitude is the top-1 code.
                let top_mag = sx.iter().map(|v| v.abs()).max().unwrap_or(0);
                let top = sx.iter().position(|v| v.abs() == top_mag).unwrap_or(0);
                let code = nibble_at(bytes, sg * sgs + top);
                let extra = two_bits_at(meta, g * spg + sg);
                // |EXTRA_X8| <= 56, so the refined value fits an i8.
                sx[top] = EXTRA_X8[usize::from(code)][usize::from(extra)] as i8;
            }
            *sum = xg.iter().map(|&v| i32::from(v)).sum();
            *xs = e8m0_value(scale_bits(x.group_scale(g)));
        }
        self.shape = x.shape();
        self.geometry = (gs, sgs);
    }
}

/// The bits of a group's E8M0 scale. Panics on the NaN byte (0xFF), which
/// has no power of two, as `E8M0::exponent` does.
fn scale_bits(s: E8M0) -> u8 {
    assert!(!s.is_nan(), "E8M0 NaN has no exponent");
    s.to_bits()
}

/// `2^(b − 127)`, the value of the E8M0 scale byte `b` (never the NaN
/// byte, which [`scale_bits`] refuses), built from its bits: the f64
/// exponent field is `b − 127 + 1023`, so the value is exact and far
/// inside f64's normal range.
fn e8m0_value(b: u8) -> f64 {
    f64::from_bits((u64::from(b) + 896) << 52)
}

/// Group width in the kernel planes: the group size rounded up to whole
/// k-quads, so every group starts on a quad boundary.
fn quad_width(group_size: usize) -> usize {
    group_size.div_ceil(QUAD) * QUAD
}

/// Which kernel runs the packed GEMMs over a [`WeightPlane`]. Every path
/// computes the same bits; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Safe Rust; runs on every target, and is what Miri runs.
    Portable,
    /// The `_mm256_maddubs_epi16` micro-kernel; x86-64 CPUs with AVX2 only.
    Avx2,
}

impl KernelPath {
    /// Every path, portable first.
    pub const ALL: [KernelPath; 2] = [KernelPath::Portable, KernelPath::Avx2];

    /// The path the production kernels take on this CPU: AVX2 where
    /// `is_x86_feature_detected!` reports it (std caches the CPUID
    /// answer, so a call makes no syscall), the portable kernel otherwise.
    pub fn detect() -> Self {
        if KernelPath::Avx2.is_supported() {
            KernelPath::Avx2
        } else {
            KernelPath::Portable
        }
    }

    /// Whether this CPU can run the path.
    pub fn is_supported(self) -> bool {
        match self {
            KernelPath::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelPath::Avx2 => false,
        }
    }

    /// Lower-case name, as the bench report prints it.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Portable => "portable",
            KernelPath::Avx2 => "avx2",
        }
    }
}

/// The operands of one kernel call: the decoded activation plane (`kp =
/// gpr · gsq` i8 per row) with its per-group sums and scales, and a
/// [`WeightPlane`]'s panels.
#[derive(Clone, Copy)]
struct Operands<'a> {
    x8: &'a [i8],
    xsum: &'a [i32],
    xscale: &'a [f64],
    w8: &'a [u8],
    wexp: &'a [u8],
    n: usize,
    gpr: usize,
    /// Group width in the planes ([`quad_width`]).
    gsq: usize,
}

/// Runs `path`'s kernel over the output rows `row0..` that `chunk` holds.
// m2x-lint: hot
fn run_kernel(path: KernelPath, op: &Operands<'_>, row0: usize, chunk: &mut [f32]) {
    if op.gpr == 0 {
        // K = 0: every dot product is empty.
        chunk.fill(0.0);
        return;
    }
    match path {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => avx2::kernel_rows(op, row0, chunk),
        _ => portable_rows(op, row0, chunk),
    }
}

/// The portable kernel over the output rows `row0..` that `chunk` holds:
/// for each panel, one activation row at a time, each group's 16 column
/// dots accumulate as `[i32; 16]` lane sums over the k-quads, less the
/// weight bias's 84·Σx8, then the f64 epilogue adds
/// `dot as f64 * (xs * ws)` per column. The group sums are exact integers
/// and the scale products exact powers of two, so this equals the AVX2
/// kernel and the f64 reference bit for bit. It runs only where AVX2 is
/// missing, and under Miri.
// m2x-lint: hot
fn portable_rows(op: &Operands<'_>, row0: usize, chunk: &mut [f32]) {
    let (gpr, gsq, n) = (op.gpr, op.gsq, op.n);
    let kp = gpr * gsq;
    let blk = gsq * PANEL;
    let panels = op
        .w8
        .chunks_exact(gpr * blk)
        .zip(op.wexp.chunks_exact(gpr * PANEL));
    for (pn, (wp, wep)) in panels.enumerate() {
        let j0 = pn * PANEL;
        let cols = PANEL.min(n - j0);
        for (li, orow) in chunk.chunks_exact_mut(n).enumerate() {
            let i = row0 + li;
            let xrow = &op.x8[i * kp..(i + 1) * kp];
            let xsr = op.xsum[i * gpr..(i + 1) * gpr]
                .iter()
                .zip(&op.xscale[i * gpr..(i + 1) * gpr]);
            let mut acc = [0.0f64; PANEL];
            let groups = wp.chunks_exact(blk).zip(wep.chunks_exact(PANEL));
            for ((wg, weg), (xg, (&xsum, &xs))) in groups.zip(xrow.chunks_exact(gsq).zip(xsr)) {
                let mut lanes = [0i32; PANEL];
                for (wquad, xq) in wg.chunks_exact(QUAD * PANEL).zip(xg.chunks_exact(QUAD)) {
                    let xq = [0, 1, 2, 3].map(|t| i32::from(xq[t]));
                    for (l, w) in lanes.iter_mut().zip(wquad.chunks_exact(QUAD)) {
                        *l += (0..QUAD).map(|t| i32::from(w[t]) * xq[t]).sum::<i32>();
                    }
                }
                // exp2(xe)·2^-6·exp2(we): exact powers of two, so the
                // product is the same in any order.
                let (bias, xs) = (WEIGHT_BIAS * xsum, xs * FIXED_POINT_UNIT);
                for ((a, &l), &we) in acc.iter_mut().zip(&lanes).zip(weg) {
                    *a += f64::from(l - bias) * (xs * e8m0_value(we));
                }
            }
            for (o, a) in orow[j0..j0 + cols].iter_mut().zip(acc) {
                *o = a as f32;
            }
        }
    }
}

/// A [`PackedWeightTensor`] LUT-decoded into the kernels' fixed-point
/// panel form, 8.25 bits per weight: FP4 decode ×2 with the subgroup's
/// ×(4 + mult) shift-add refinement folded into every element
/// (distributivity: Σ_s (4+mult_s)·Σ_t x·w == Σ_t x·(w·(4+mult)) — exact
/// in integers), stored as the unsigned byte value + 84 (0..=168), plus
/// one E8M0 scale byte per (group, column). Folding eliminates the
/// subgroup bookkeeping from the kernels, turning each group into one flat
/// u8×i8→i32 dot product; a `_mm256_maddubs_epi16` pair sum is at most
/// 2·168·56 = 18,816 < 2^15, so it cannot saturate.
///
/// **Layout.** Rows of `W` (output columns) are grouped into 16-column
/// panels. For each (panel, group) the plane holds one block of
/// `quad_width(group_size) / 4` k-quad rows; a k-quad row holds the 16
/// columns' 4 consecutive values column by column
/// (`[c0k0, c0k1, c0k2, c0k3, c1k0, …, c15k3]`, 64 bytes), so one
/// broadcast activation quad multiply-adds against a whole panel row.
/// `wexp` holds the E8M0 byte per (panel, group, column), which the
/// epilogue turns into `2^(b − 127)` exactly. Bytes past the last row,
/// past a ragged trailing group or in a group's quad padding hold the
/// bias (a zero weight) and scale byte 0, and their activations are zero.
///
/// Weights are static across inference calls, so decode once (e.g. at layer
/// construction) and reuse via [`qgemm_into`] — [`qgemm_packed`]
/// re-decodes per call, which wastes an O(N·K) pass when the same weights
/// are multiplied repeatedly.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightPlane {
    n: usize,
    k: usize,
    group_size: usize,
    subgroup_size: usize,
    /// Value ×2 with the subgroup multiplier folded in, plus
    /// [`WEIGHT_BIAS`], in panels.
    w8: Vec<u8>,
    /// E8M0 scale byte per (panel, group, column).
    wexp: Vec<u8>,
}

/// Decodes `w`'s rows into plane rows `row0..` of the panels in
/// `w8`/`wexp` (the fold-the-multiplier LUT decode of [`WeightPlane`]):
/// the shared body of [`WeightPlane::decode`] and [`WeightPlane::append`].
/// The vectors grow by whole panels of padding bytes, so lanes no row has
/// reached hold a zero weight; rows decode independently, so decoding rows
/// in several calls is bit-identical to decoding them in one.
///
/// # Panics
///
/// Panics on an E8M0 NaN scale byte.
fn decode_weight_rows_into(
    w: &PackedWeightTensor,
    row0: usize,
    w8: &mut Vec<u8>,
    wexp: &mut Vec<u8>,
) {
    let gs = w.config().group_size;
    let gsq = quad_width(gs);
    let sgs = w.config().subgroup_size;
    let spg = gs / sgs;
    let gpr = w.groups_per_row();
    let panels = (row0 + w.shape().0).div_ceil(PANEL);
    w8.resize(panels * gpr * gsq * PANEL, WEIGHT_BIAS as u8);
    wexp.resize(panels * gpr * PANEL, 0);
    let wmeta = w.meta();
    for g in 0..w.group_count() {
        let row = row0 + g / gpr;
        let (block, lane) = ((row / PANEL) * gpr + g % gpr, row % PANEL);
        let out = &mut w8[block * gsq * PANEL..(block + 1) * gsq * PANEL];
        let len = w.group_len(g);
        for sg in 0..len.div_ceil(sgs) {
            let mult = 4 + i32::from(two_bits_at(wmeta, g * spg + sg));
            for i in sg * sgs..len.min((sg + 1) * sgs) {
                let at = (i / QUAD) * QUAD * PANEL + QUAD * lane + i % QUAD;
                let v = i32::from(FP4_X2[usize::from(w.code_at(g, i))]) * mult;
                // |v| <= 84, so the biased byte lies in 0..=168.
                out[at] = (v + WEIGHT_BIAS) as u8;
            }
        }
        wexp[block * PANEL + lane] = scale_bits(w.group_scale(g));
    }
}

impl WeightPlane {
    /// Decodes the packed streams (walked in place, one pass).
    ///
    /// # Panics
    ///
    /// Panics on an E8M0 NaN scale byte, which has no power of two.
    pub fn decode(w: &PackedWeightTensor) -> Self {
        let (n, k) = w.shape();
        let mut w8 = Vec::new();
        let mut wexp = Vec::new();
        decode_weight_rows_into(w, 0, &mut w8, &mut wexp);
        WeightPlane {
            n,
            k,
            group_size: w.config().group_size,
            subgroup_size: w.config().subgroup_size,
            w8,
            wexp,
        }
    }

    /// Matrix shape `(rows, cols)` = `(N, K)` of the decoded weights.
    pub fn shape(&self) -> (usize, usize) {
        (self.n, self.k)
    }

    /// Decode-on-append: decodes `delta`'s rows **directly into** the
    /// lanes after the existing rows, extending the plane by one panel per
    /// 16 rows — O(delta) work, not O(total), and no temporary plane per
    /// call (the KV cache calls this once per head per decode step). Rows
    /// decode independently, so the grown plane is identical to
    /// [`Self::decode`] of the row-concatenated tensor, which the tests pin
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when `delta`'s width or group geometry differs.
    pub fn append(&mut self, delta: &PackedWeightTensor) {
        assert_eq!(
            self.k,
            delta.shape().1,
            "appended plane rows have a different width"
        );
        assert_eq!(
            (self.group_size, self.subgroup_size),
            (delta.config().group_size, delta.config().subgroup_size),
            "appended plane rows use a different group geometry"
        );
        decode_weight_rows_into(delta, self.n, &mut self.w8, &mut self.wexp);
        self.n += delta.shape().0;
    }

    /// Drops all rows while keeping the decoded-plane allocations — the KV
    /// page-frame recycling path. The cleared plane equals
    /// [`Self::decode`] of an empty tensor with the same geometry
    /// (equality ignores capacity).
    pub fn clear_rows(&mut self) {
        self.w8.clear();
        self.wexp.clear();
        self.n = 0;
    }

    /// Heap bytes of the kernel operand: `ceil(n/16)·16 · gpr ·
    /// (quad_width + 1)`, one byte per weight (groups padded to whole
    /// k-quads, a partial last panel padded to 16 columns) plus one scale
    /// byte per (group, column) — 8.25 bits per weight at group 32. The
    /// working state a packed-bytes KV accounting misses.
    pub fn decoded_bytes(&self) -> usize {
        self.w8.len() + self.wexp.len()
    }
}

/// The packed qGEMM `Y[M,N] = X[M,K] · W^T[N,K]` over the operand `x`
/// that [`GemmScratch::load`] filled and a pre-decoded [`WeightPlane`],
/// writing the row-major `M×N` result into `out` with `threads` workers
/// over output row chunks (one worker runs inline, with no spawn). Every
/// worker count computes identical bits, bit-exact against
/// [`qgemm_reference`]. With a warm scratch and a caller-held `out`, the
/// call makes **zero heap allocations**, which `tests/alloc_gate.rs` pins
/// with a counting global allocator.
///
/// # Panics
///
/// Panics when the reduction dimensions or group geometries disagree
/// (including a scratch with nothing loaded), or when `out.len() != M·N`.
// m2x-lint: hot
pub fn qgemm_into(x: &GemmScratch, w: &WeightPlane, threads: usize, out: &mut [f32]) {
    qgemm_into_on(KernelPath::detect(), x, w, threads, out);
}

/// [`qgemm_into`] on a chosen [`KernelPath`] — the one way tests reach
/// each kernel; production code takes [`KernelPath::detect`]. The kernel
/// body every packed entry point runs.
///
/// # Panics
///
/// Panics when this CPU cannot run `path`, and as [`qgemm_into`] does.
#[doc(hidden)]
// m2x-lint: hot
pub fn qgemm_into_on(
    path: KernelPath,
    x: &GemmScratch,
    w: &WeightPlane,
    threads: usize,
    out: &mut [f32],
) {
    assert!(
        path.is_supported(),
        "this CPU cannot run the {} kernel",
        path.name()
    );
    assert_eq!(x.shape.1, w.k, "reduction dimension mismatch");
    assert_eq!(
        x.geometry,
        (w.group_size, w.subgroup_size),
        "group geometry mismatch"
    );
    assert_eq!(out.len(), x.shape.0 * w.n, "output length mismatch");
    if out.is_empty() {
        return;
    }
    let op = Operands {
        x8: &x.x8,
        xsum: &x.xsum,
        xscale: &x.xscale,
        w8: &w.w8,
        wexp: &w.wexp,
        n: w.n,
        gpr: w.k.div_ceil(w.group_size),
        gsq: quad_width(w.group_size),
    };
    par_row_chunks(out, w.n, threads, |row0, chunk| {
        run_kernel(path, &op, row0, chunk);
    });
}

/// Loads `x` into `scratch`, then runs [`qgemm_into`] into a fresh `M×N`
/// matrix — the form inference layers call repeatedly without paying the
/// weight decode on every forward. Zero-row and zero-column inputs return
/// the corresponding empty matrix.
///
/// # Panics
///
/// Panics when the reduction dimensions or group geometries disagree.
// m2x-lint: hot
pub fn qgemm_packed_planed_scratch(
    x: &PackedActTensor,
    w: &WeightPlane,
    threads: usize,
    scratch: &mut GemmScratch,
) -> Matrix {
    scratch.load(x);
    let mut out = Matrix::zeros(x.shape().0, w.n);
    qgemm_into(scratch, w, threads, out.as_mut_slice());
    out
}

/// [`qgemm_packed_planed_scratch`] for the one-row decode shape, on one
/// worker: serving hits it once per projection per layer per decode step,
/// where a scoped-thread spawn/join would dwarf the kernel.
///
/// # Panics
///
/// Panics when `x` has more than one row, or when the reduction dimensions
/// or group geometries disagree.
// m2x-lint: hot
pub fn qgemv_packed(x: &PackedActTensor, w: &WeightPlane, scratch: &mut GemmScratch) -> Matrix {
    assert_eq!(x.shape().0, 1, "qgemv_packed expects exactly one row");
    qgemm_packed_planed_scratch(x, w, 1, scratch)
}

/// Floating-point reference: dequantizes both tensors in f64 and
/// multiplies in f64. All quantized values are small dyadic rationals, so
/// this is exact and must equal [`qgemm`] bit-for-bit after the final f32
/// rounding — ±inf included, since no element passes through f32 at its
/// full scale.
pub fn qgemm_reference(x: &ActTensor, w: &WeightTensor) -> Matrix {
    let (xc, wc) = (x.config().group_config(), w.config().group_config());
    let xd = dequantize_f64(x.groups(), |g| {
        let unit = ActGroup {
            scale: E8M0::ONE,
            ..g.clone()
        };
        (g.scale, activation::dequantize_group(&unit, xc))
    });
    let wd = dequantize_f64(w.groups(), |g| {
        let unit = WeightGroup {
            scale: E8M0::ONE,
            ..g.clone()
        };
        (g.scale, weight::dequantize_group(&unit, wc))
    });
    let (m, k) = x.shape();
    let n = w.shape().0;
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for (a, b) in xd[i * k..(i + 1) * k].iter().zip(&wd[j * k..(j + 1) * k]) {
                acc += a * b;
            }
            out[(i, j)] = acc as f32;
        }
    }
    out
}

/// A grouped tensor's elements in f64, row-major: each is its group's
/// unit-scale value (exact in f32) times the group's `2^e`, so a scale
/// byte near the top of the E8M0 range (0xFD, 0xFE) cannot overflow f32
/// before the oracle's products.
fn dequantize_f64<G>(groups: &[G], unit: impl Fn(&G) -> (E8M0, Vec<f32>)) -> Vec<f64> {
    let mut out = Vec::new();
    for g in groups {
        let (scale, values) = unit(g);
        let s = f64::from(scale.exponent()).exp2();
        out.extend(values.iter().map(|&v| f64::from(v) * s));
    }
    out
}

/// The Eq. 5 decomposition for one subgroup: `W×X' = W×X + W×ΔX`, where `X`
/// is the FP4 baseline (values ×8) and `ΔX` the extra-mantissa correction
/// applied at `top_idx`. Returns (baseline, correction) partial sums in
/// units of 1/16.
pub fn pe_subgroup_decomposed(
    x8_base: &[i64],
    w2: &[i64],
    top_idx: usize,
    delta8: i64,
) -> (i64, i64) {
    let base: i64 = x8_base.iter().zip(w2).map(|(&a, &b)| a * b).sum();
    let corr = delta8 * w2[top_idx];
    (base, corr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::M2xfpConfig;

    fn mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let t = (r * cols + c) as f32 + seed;
            (t * 0.713).sin() * 2.5 + (t * 0.137).cos() * 0.5
        })
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

    #[test]
    fn fixed_point_matches_reference_exactly() {
        let cfg = M2xfpConfig::default();
        let x = ActTensor::quantize(&mat(5, 64, 0.0), cfg);
        let w = WeightTensor::quantize(&mat(7, 64, 9.0), cfg);
        let a = qgemm(&x, &w);
        let b = qgemm_reference(&x, &w);
        for i in 0..5 {
            for j in 0..7 {
                assert_eq!(
                    a[(i, j)].to_bits(),
                    b[(i, j)].to_bits(),
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn packed_matches_reference_exactly() {
        // The dispatched route and every kernel path this CPU runs (the
        // portable one always), on an odd row count and a partial second
        // panel.
        let cfg = M2xfpConfig::default();
        let xm = mat(5, 96, 0.0);
        let wm = mat(19, 96, 9.0);
        let want = qgemm_reference(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        let xp = PackedActTensor::quantize_parallel(&xm, cfg);
        let wp = PackedWeightTensor::quantize_parallel(&wm, cfg);
        let plane = WeightPlane::decode(&wp);
        let mut scratch = GemmScratch::new();
        for threads in [1, 2, 4] {
            let dispatched = qgemm_packed_planed_scratch(&xp, &plane, threads, &mut scratch);
            let mut runs = vec![("dispatched", dispatched)];
            for path in KernelPath::ALL.into_iter().filter(|p| p.is_supported()) {
                let y = qgemm_on(path, &xp, &plane, threads, &mut scratch);
                runs.push((path.name(), y));
            }
            for (name, got) in &runs {
                for i in 0..5 {
                    for j in 0..19 {
                        assert_eq!(
                            got[(i, j)].to_bits(),
                            want[(i, j)].to_bits(),
                            "{name} threads={threads} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_matches_reference_on_ragged_k() {
        // K = 80 = 32 + 32 + 16: exercises ragged trailing groups and the
        // zero-padded tail subgroups of the packed kernel.
        let cfg = M2xfpConfig::default();
        let xm = mat(3, 80, 1.0);
        let wm = mat(4, 80, 2.0);
        let want = qgemm_reference(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        let got = qgemm_packed(
            &PackedActTensor::quantize_parallel(&xm, cfg),
            &PackedWeightTensor::quantize_parallel(&wm, cfg),
        );
        assert_eq!(got, want);
    }

    #[test]
    fn planed_kernel_matches_per_call_decode() {
        // A cached WeightPlane reused across calls gives the same bits as
        // the per-call decode path.
        let cfg = M2xfpConfig::default();
        let wm = mat(5, 80, 4.0);
        let wp = PackedWeightTensor::quantize_parallel(&wm, cfg);
        let plane = WeightPlane::decode(&wp);
        assert_eq!(plane.shape(), (5, 80));
        let mut scratch = GemmScratch::new();
        for seed in [0.0, 6.0] {
            let xp = PackedActTensor::quantize_parallel(&mat(3, 80, seed), cfg);
            assert_eq!(
                qgemm_packed_planed_scratch(&xp, &plane, 2, &mut scratch),
                qgemm_packed(&xp, &wp),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn one_load_feeds_several_planes() {
        // The attention pattern: one loaded operand multiplied against
        // several planes gives each plane's per-call bits, and a reset
        // scratch refuses to run until the next load.
        let cfg = M2xfpConfig::default();
        let xp = PackedActTensor::quantize_parallel(&mat(3, 64, 1.0), cfg);
        let mut scratch = GemmScratch::new();
        scratch.load(&xp);
        let mut y = Matrix::zeros(0, 0);
        for n in [5usize, 17, 2] {
            let wp = PackedWeightTensor::quantize_parallel(&mat(n, 64, n as f32), cfg);
            y = Matrix::zeros(3, n);
            qgemm_into(&scratch, &WeightPlane::decode(&wp), 1, y.as_mut_slice());
            assert_eq!(y, qgemm_packed(&xp, &wp), "n={n}");
        }
        scratch.reset();
        let w = WeightPlane::decode(&PackedWeightTensor::quantize_parallel(
            &mat(2, 64, 0.0),
            cfg,
        ));
        let unloaded = std::panic::catch_unwind(move || {
            qgemm_into(&scratch, &w, 1, y.as_mut_slice());
        });
        assert!(unloaded.is_err());
    }

    #[test]
    fn appended_plane_matches_full_decode() {
        // Growing a plane row-chunk by row-chunk (the KV-cache pattern) is
        // identical to decoding the fully grown tensor — bit for bit on the
        // raw w8/wexp state via PartialEq — including ragged K, chunks
        // that start mid-panel and cross 16-row panel boundaries, and a
        // metadata granularity whose per-group run is not byte-aligned
        // (subgroup 16 → 4 bits/group). The append decodes straight into
        // the panel lanes; no intermediate plane exists to diverge.
        for cfg in [
            M2xfpConfig::default(),
            M2xfpConfig {
                subgroup_size: 16,
                ..M2xfpConfig::default()
            },
        ] {
            for cols in [64usize, 80] {
                let full = mat(35, cols, 3.0);
                let want = WeightPlane::decode(&PackedWeightTensor::quantize_parallel(&full, cfg));
                let mut grown = WeightPlane::decode(&PackedWeightTensor::quantize_parallel(
                    &Matrix::zeros(0, cols),
                    cfg,
                ));
                let mut row = 0usize;
                for chunk in [2usize, 13, 3, 17] {
                    let delta = Matrix::from_fn(chunk, cols, |r, c| full[(row + r, c)]);
                    grown.append(&PackedWeightTensor::quantize_parallel(&delta, cfg));
                    row += chunk;
                }
                assert_eq!(grown, want, "cols={cols} sg={}", cfg.subgroup_size);
                // A cleared plane regrows to the same state (the KV
                // page-frame recycling path).
                let mut regrown = grown.clone();
                regrown.clear_rows();
                regrown.append(&PackedWeightTensor::quantize_parallel(&full, cfg));
                assert_eq!(regrown, want, "regrown cols={cols}");
                // And the kernel consumes the grown plane bit-identically.
                let xp = PackedActTensor::quantize_parallel(&mat(3, cols, 1.0), cfg);
                assert_eq!(
                    qgemm_packed_planed_scratch(&xp, &grown, 1, &mut GemmScratch::new()),
                    qgemm_packed_planed_scratch(&xp, &want, 1, &mut GemmScratch::new()),
                );
            }
        }
    }

    #[test]
    fn decoded_bytes_are_one_byte_per_padded_weight_plus_a_scale_byte() {
        // ceil(n/16)·16 · gpr · (quad_width + 1): partial panels, ragged
        // trailing groups and group sizes that are not whole k-quads
        // (5 → 8, 6 → 8, 12 → 12), plus 8.25 bits per weight at the
        // production group of 32.
        for (gs, sgs) in [(5usize, 5usize), (6, 3), (12, 4), (32, 8), (64, 16)] {
            let cfg = M2xfpConfig {
                group_size: gs,
                subgroup_size: sgs,
                ..M2xfpConfig::default()
            };
            for (n, k) in [(1usize, 5usize), (16, 64), (17, 41), (35, 96)] {
                let w = PackedWeightTensor::quantize_parallel(&mat(n, k, 1.0), cfg);
                let want = n.div_ceil(PANEL) * PANEL * k.div_ceil(gs) * (quad_width(gs) + 1);
                assert_eq!(
                    WeightPlane::decode(&w).decoded_bytes(),
                    want,
                    "gs={gs} n={n} k={k}"
                );
            }
        }
        let w = PackedWeightTensor::quantize_parallel(&mat(64, 256, 2.0), M2xfpConfig::default());
        let bits = WeightPlane::decode(&w).decoded_bytes() as f64 * 8.0 / (64.0 * 256.0);
        assert_eq!(bits, 8.25);
    }

    #[test]
    fn scale_bytes_rebuild_their_powers_of_two() {
        // Every E8M0 byte but NaN reads back as 2^(b − 127) exactly, and
        // the NaN byte, which has no power of two, is refused as
        // `E8M0::exponent` refuses it.
        for b in 0..=0xFEu8 {
            let s = E8M0::from_bits(b);
            assert_eq!(
                e8m0_value(scale_bits(s)),
                f64::from(s.exponent()).exp2(),
                "{b:#x}"
            );
        }
        assert!(std::panic::catch_unwind(|| scale_bits(E8M0::NAN)).is_err());
    }

    #[test]
    fn gemv_matches_reference_bitwise() {
        // The decode fast path (reused scratch) and the one-shot route
        // agree with the f64 reference on the m == 1 serving shape,
        // including partial panels and ragged K.
        let cfg = M2xfpConfig::default();
        let mut scratch = GemmScratch::new();
        for (n, cols) in [(1usize, 64usize), (5, 80), (7, 96), (13, 41)] {
            let xm = mat(1, cols, 2.0);
            let wm = mat(n, cols, 8.0);
            let want = qgemm_reference(
                &ActTensor::quantize(&xm, cfg),
                &WeightTensor::quantize(&wm, cfg),
            );
            let xp = PackedActTensor::quantize_parallel(&xm, cfg);
            let wp = PackedWeightTensor::quantize_parallel(&wm, cfg);
            let plane = WeightPlane::decode(&wp);
            // The same scratch is reused across shapes on purpose.
            let gemv = qgemv_packed(&xp, &plane, &mut scratch);
            assert_eq!(gemv, want, "gemv n={n} cols={cols}");
            assert_eq!(qgemm_packed(&xp, &wp), want, "routed n={n} cols={cols}");
        }
    }

    #[test]
    fn degenerate_shapes_return_empty_matrices() {
        // (0, k), (m, 0) and (0, 0) shapes produce empty outputs on every
        // kernel instead of relying on incidental chunk arithmetic.
        let cfg = M2xfpConfig::default();
        let x0 = PackedActTensor::quantize_parallel(&Matrix::zeros(0, 64), cfg);
        let xm = PackedActTensor::quantize_parallel(&mat(3, 64, 0.0), cfg);
        let w0 = PackedWeightTensor::quantize_parallel(&Matrix::zeros(0, 64), cfg);
        let wn = PackedWeightTensor::quantize_parallel(&mat(4, 64, 9.0), cfg);
        let plane0 = WeightPlane::decode(&w0);
        let planen = WeightPlane::decode(&wn);
        let mut scratch = GemmScratch::new();
        let dims = |y: &Matrix| (y.rows(), y.cols());
        for threads in [1, 2] {
            let mut planed = |x: &PackedActTensor, w: &WeightPlane| {
                dims(&qgemm_packed_planed_scratch(x, w, threads, &mut scratch))
            };
            // (0, k) × (n, k) → 0 × n.
            assert_eq!(planed(&x0, &planen), (0, 4));
            // (m, k) × (0, k) → m × 0.
            assert_eq!(planed(&xm, &plane0), (3, 0));
            // (0, k) × (0, k) → 0 × 0.
            assert_eq!(planed(&x0, &plane0), (0, 0));
        }
        assert_eq!(dims(&qgemm_packed(&x0, &wn)), (0, 4));
        assert_eq!(dims(&qgemm_packed(&xm, &w0)), (3, 0));
        let x1 = PackedActTensor::quantize_parallel(&mat(1, 64, 5.0), cfg);
        assert_eq!(dims(&qgemv_packed(&x1, &plane0, &mut scratch)), (1, 0));
        // K = 0 gives zeros on every path.
        let xk0 = PackedActTensor::quantize_parallel(&Matrix::zeros(3, 0), cfg);
        let wk0 = WeightPlane::decode(&PackedWeightTensor::quantize_parallel(
            &Matrix::zeros(4, 0),
            cfg,
        ));
        for path in KernelPath::ALL.into_iter().filter(|p| p.is_supported()) {
            let y = qgemm_on(path, &xk0, &wk0, 1, &mut scratch);
            assert_eq!(y, Matrix::zeros(3, 4), "{path:?}");
        }
        // The grouped kernels agree on the shapes.
        let g0 = ActTensor::quantize(&Matrix::zeros(0, 64), cfg);
        let gw = WeightTensor::quantize(&Matrix::zeros(0, 64), cfg);
        assert_eq!(dims(&qgemm(&g0, &gw)), (0, 0));
        assert_eq!(dims(&qgemm_reference(&g0, &gw)), (0, 0));
    }

    #[test]
    fn scratch_reuse_is_bit_stable() {
        // Calling through one scratch repeatedly (the decode hot loop)
        // yields the same bits as fresh scratches every call.
        let cfg = M2xfpConfig::default();
        let wp = PackedWeightTensor::quantize_parallel(&mat(6, 96, 3.0), cfg);
        let plane = WeightPlane::decode(&wp);
        let mut scratch = GemmScratch::new();
        for seed in [0.0f32, 2.0, 4.0, 6.0] {
            let xp = PackedActTensor::quantize_parallel(&mat(1, 96, seed), cfg);
            let reused = qgemv_packed(&xp, &plane, &mut scratch);
            let fresh = qgemv_packed(&xp, &plane, &mut GemmScratch::new());
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn quantized_gemm_close_to_full_precision() {
        let cfg = M2xfpConfig::default();
        let xm = mat(4, 128, 1.0);
        let wm = mat(6, 128, 2.0);
        let y_ref = xm.matmul(&wm.transpose());
        let y_q = qgemm(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        let e = m2x_tensor::stats::nmse(y_ref.as_slice(), y_q.as_slice());
        assert!(e < 0.02, "relative output error too large: {e}");
        assert!(e > 0.0);
    }

    #[test]
    fn eq5_decomposition_is_exact() {
        // W×X' = W×X + W×ΔX for every subgroup of a quantized tensor.
        let cfg = M2xfpConfig::default();
        let xm = mat(3, 64, 3.0);
        let x = ActTensor::quantize(&xm, cfg);
        let sg_size = cfg.subgroup_size;
        for g in x.groups() {
            for (sg_idx, sg_codes) in g.codes.chunks(sg_size).enumerate() {
                let local = top1_index(sg_codes);
                let x8_base: Vec<i64> = sg_codes
                    .iter()
                    .map(|&c| FP4_X8[c as usize] as i64)
                    .collect();
                let refined8 = EXTRA_X8[sg_codes[local] as usize][g.meta[sg_idx] as usize] as i64;
                let mag = refined8.abs() as f32 / 8.0;
                let delta8 = refined8 - x8_base[local];
                // The refined magnitude is one of the bias-clamp candidates
                // for this FP4 magnitude (bit distance in [-1, +2]).
                let cands = m2x_formats::tables::fp6_candidates(sg_codes[local] & 7);
                assert!(cands.contains(&mag), "refined {mag} not in {cands:?}");
                // Any weight vector: decomposed == direct.
                let w2: Vec<i64> = (0..sg_codes.len() as i64).map(|i| (i % 25) - 12).collect();
                let mut x8_full = x8_base.clone();
                x8_full[local] = refined8;
                let direct: i64 = x8_full.iter().zip(&w2).map(|(&a, &b)| a * b).sum();
                let (base, corr) = pe_subgroup_decomposed(&x8_base, &w2, local, delta8);
                assert_eq!(base + corr, direct);
            }
        }
    }

    #[test]
    fn zero_inputs_give_zero_output() {
        let cfg = M2xfpConfig::default();
        let x = ActTensor::quantize(&Matrix::zeros(2, 32), cfg);
        let w = WeightTensor::quantize(&Matrix::zeros(3, 32), cfg);
        let y = qgemm(&x, &w);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
        let yp = qgemm_packed(
            &PackedActTensor::quantize_parallel(&Matrix::zeros(2, 32), cfg),
            &PackedWeightTensor::quantize_parallel(&Matrix::zeros(3, 32), cfg),
        );
        assert!(yp.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn multi_group_reduction() {
        // K = 3 groups; exercises the per-group exponent alignment.
        let cfg = M2xfpConfig::default();
        let xm = mat(2, 96, 5.0).map(|v| v * 100.0); // larger dynamic range
        let wm = mat(2, 96, 7.0).map(|v| v * 0.01);
        let a = qgemm(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        let b = qgemm_reference(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        assert_eq!(a, b);
        let c = qgemm_packed(
            &PackedActTensor::quantize_parallel(&xm, cfg),
            &PackedWeightTensor::quantize_parallel(&wm, cfg),
        );
        assert_eq!(c, b);
    }
}
