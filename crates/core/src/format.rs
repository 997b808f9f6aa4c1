//! Packed M2XFP tensors with the three-stream memory layout of §5.2.
//!
//! An [`ActTensor`] holds activations quantized row-wise by Algorithm 1; a
//! [`WeightTensor`] holds Sg-EM-quantized weights (stored transposed,
//! `[N, K]`, so its rows run along the GEMM reduction dimension). Both can
//! be serialized to the paper's byte layout — the packed 4-bit elements in
//! one contiguous region, 8-bit scales in another and 2-bit subgroup
//! metadata in a third (per group of 32 at subgroup 8: 128 + 8 + 8 bits)
//! — and parsed back losslessly.

use crate::activation::{self, ActGroup};
use crate::weight::{self, WeightGroup};
use crate::{Error, M2xfpConfig};
use m2x_formats::packing::{nibble_at, pack_nibbles_into, set_two_bits, two_bits_at};
use m2x_formats::tables::{EXTRA_X8, FP4_ABS_KEY, FP4_VALUES};
use m2x_formats::E8M0;
use m2x_tensor::Matrix;

/// Minimum element count that justifies one additional quantization worker
/// thread: below this the scoped-thread spawn overhead outweighs the
/// per-group search work, so small tensors stay single-threaded.
const QUANT_ELEMS_PER_THREAD: usize = 1 << 17;

/// Worker count the parallel quantizers auto-select for a tensor of
/// `elems` elements: one thread per [`QUANT_ELEMS_PER_THREAD`] elements,
/// capped at the available cores ([`crate::capped_workers`]), never
/// below one.
fn quantize_threads(elems: usize) -> usize {
    crate::capped_workers(elems / QUANT_ELEMS_PER_THREAD)
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn check_aligned(tensor: &str, cols: usize, cfg: &M2xfpConfig) -> Result<(), Error> {
    if cols % cfg.group_size != 0 {
        return Err(Error::Misaligned {
            tensor: tensor.to_string(),
            len: cols,
            group_size: cfg.group_size,
        });
    }
    Ok(())
}

/// A matrix of activations quantized to M2XFP (Elem-EM-top1).
#[derive(Debug, Clone, PartialEq)]
pub struct ActTensor {
    rows: usize,
    cols: usize,
    cfg: M2xfpConfig,
    groups: Vec<ActGroup>,
}

impl ActTensor {
    /// Quantizes a matrix row-wise (groups along columns).
    pub fn quantize(m: &Matrix, cfg: M2xfpConfig) -> Self {
        let gc = cfg.group_config();
        let groups = m
            .row_groups(cfg.group_size)
            .map(|g| activation::quantize_group(g, gc, cfg.scale_rule))
            .collect();
        ActTensor {
            rows: m.rows(),
            cols: m.cols(),
            cfg,
            groups,
        }
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The configuration used at quantization time.
    pub fn config(&self) -> &M2xfpConfig {
        &self.cfg
    }

    /// The quantized groups, row-major.
    pub fn groups(&self) -> &[ActGroup] {
        &self.groups
    }

    /// Groups per row.
    pub fn groups_per_row(&self) -> usize {
        self.cols.div_ceil(self.cfg.group_size)
    }

    /// Dequantizes back to `f32`.
    pub fn dequantize(&self) -> Matrix {
        let gc = self.cfg.group_config();
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for g in &self.groups {
            data.extend(activation::dequantize_group(g, gc));
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Serializes to the three-stream layout, as [`PackedActTensor`] holds
    /// it: the nibble-packed codes, one scale byte per group, then the
    /// 2-bit metadata fields (LSB-first) — 16 + 1 + 1 bytes per group at
    /// the paper's 32/8 geometry.
    ///
    /// # Errors
    ///
    /// Fails when `cols` is not a multiple of the group size (hardware
    /// layouts require aligned rows).
    pub fn pack(&self) -> Result<Vec<u8>, Error> {
        check_aligned("activation tensor", self.cols, &self.cfg)?;
        Ok(PackedActTensor::from_grouped(self).s.to_bytes())
    }

    /// Parses a packed buffer produced by [`Self::pack`].
    ///
    /// # Errors
    ///
    /// Fails on misaligned shapes, a buffer of the wrong length or a NaN
    /// scale byte.
    pub fn unpack(buf: &[u8], rows: usize, cols: usize, cfg: M2xfpConfig) -> Result<Self, Error> {
        check_aligned("activation tensor", cols, &cfg)?;
        let s = PackedStreams::from_bytes("activation tensor", buf, rows, cols, cfg)?;
        Ok(PackedActTensor { s }.to_grouped())
    }
}

/// A matrix of weights quantized to M2XFP (Sg-EM-2bit), stored transposed
/// (`[N, K]`): each row is one output channel, grouped along `K`.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightTensor {
    rows: usize,
    cols: usize,
    cfg: M2xfpConfig,
    groups: Vec<WeightGroup>,
}

impl WeightTensor {
    /// Quantizes a (transposed) weight matrix row-wise.
    pub fn quantize(w_t: &Matrix, cfg: M2xfpConfig) -> Self {
        let gc = cfg.group_config();
        let groups = w_t
            .row_groups(cfg.group_size)
            .map(|g| weight::quantize_group(g, gc, cfg.scale_rule, cfg.adaptive_weight_scale))
            .collect();
        WeightTensor {
            rows: w_t.rows(),
            cols: w_t.cols(),
            cfg,
            groups,
        }
    }

    /// [`Self::quantize`] through the float-codec reference search
    /// ([`weight::quantize_group_reference`]) — the bit-exactness oracle
    /// for the LUT/parallel paths. Slow; use only in tests and benches.
    pub fn quantize_reference(w_t: &Matrix, cfg: M2xfpConfig) -> Self {
        let gc = cfg.group_config();
        let groups = w_t
            .row_groups(cfg.group_size)
            .map(|g| {
                weight::quantize_group_reference(g, gc, cfg.scale_rule, cfg.adaptive_weight_scale)
            })
            .collect();
        WeightTensor {
            rows: w_t.rows(),
            cols: w_t.cols(),
            cfg,
            groups,
        }
    }

    /// Matrix shape `(rows, cols)` = `(N, K)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The configuration used at quantization time.
    pub fn config(&self) -> &M2xfpConfig {
        &self.cfg
    }

    /// The quantized groups, row-major.
    pub fn groups(&self) -> &[WeightGroup] {
        &self.groups
    }

    /// Groups per row.
    pub fn groups_per_row(&self) -> usize {
        self.cols.div_ceil(self.cfg.group_size)
    }

    /// Dequantizes back to `f32` (still transposed).
    pub fn dequantize(&self) -> Matrix {
        let gc = self.cfg.group_config();
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for g in &self.groups {
            data.extend(weight::dequantize_group(g, gc));
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Serializes to the three-stream layout. See [`ActTensor::pack`].
    ///
    /// # Errors
    ///
    /// Fails when `cols` is not a multiple of the group size.
    pub fn pack(&self) -> Result<Vec<u8>, Error> {
        check_aligned("weight tensor", self.cols, &self.cfg)?;
        Ok(PackedWeightTensor::from_grouped(self).s.to_bytes())
    }

    /// Parses a packed buffer produced by [`Self::pack`].
    ///
    /// # Errors
    ///
    /// Fails on misaligned shapes, a buffer of the wrong length or a NaN
    /// scale byte.
    pub fn unpack(buf: &[u8], rows: usize, cols: usize, cfg: M2xfpConfig) -> Result<Self, Error> {
        check_aligned("weight tensor", cols, &cfg)?;
        let s = PackedStreams::from_bytes("weight tensor", buf, rows, cols, cfg)?;
        Ok(PackedWeightTensor { s }.to_grouped())
    }
}

/// Flat three-stream storage shared by [`PackedActTensor`] and
/// [`PackedWeightTensor`]: one nibble-packed code buffer, one scale byte per
/// group, one 2-bit metadata field per subgroup — the actual §5.2 memory
/// layout, structure-of-arrays instead of a `Vec` of per-group structs.
///
/// Groups are stored row-major. Every group occupies a fixed
/// `group_size/2`-byte slot in the code stream and `subgroups_per_group`
/// 2-bit slots in the metadata stream; a ragged trailing group leaves its
/// slack nibbles/fields zero (code 0 is +0, which keeps decoder-side top-1
/// searches identical to the encoder's, since ties resolve to the lowest
/// index).
#[derive(Debug, Clone, PartialEq)]
struct PackedStreams {
    rows: usize,
    cols: usize,
    cfg: M2xfpConfig,
    codes: Vec<u8>,
    scales: Vec<u8>,
    meta: Vec<u8>,
}

impl PackedStreams {
    /// Quantizes straight into the three streams with `threads` scoped
    /// workers, each owning a contiguous, disjoint run of groups.
    ///
    /// Every worker writes its own sub-slices of the code, scale and
    /// metadata streams (split with `split_at_mut`, so no synchronization
    /// and no `unsafe`), with one scratch pair per worker — the per-group
    /// encode loop stays allocation-free. Chunk boundaries are aligned so
    /// each worker's 2-bit metadata run starts on a byte boundary; output
    /// bytes are identical for every thread count because each group is
    /// encoded independently and deterministically.
    fn quantize_parallel(
        m: &Matrix,
        cfg: M2xfpConfig,
        threads: usize,
        encode: impl Fn(&[f32], &mut [u8], &mut [u8]) -> E8M0 + Sync,
    ) -> Self {
        let gs = cfg.group_size;
        let sgs = cfg.subgroup_size;
        let gpr = m.cols().div_ceil(gs);
        let groups = m.rows() * gpr;
        let cpg = gs.div_ceil(2);
        let spg = gs / sgs;
        let mut codes = vec![0u8; groups * cpg];
        let mut scales = vec![0u8; groups];
        let mut meta = vec![0u8; (groups * spg * 2).div_ceil(8)];

        // One worker: encodes groups [g0, g0 + n) into chunk-local slices
        // (`scales` carries the chunk length).
        let work = |g0: usize, codes: &mut [u8], scales: &mut [u8], meta: &mut [u8]| {
            let mut code_scratch = vec![0u8; gs];
            let mut meta_scratch = vec![0u8; spg];
            for lg in 0..scales.len() {
                let g = g0 + lg;
                let row = m.row(g / gpr);
                let j = g % gpr;
                let x = &row[j * gs..row.len().min((j + 1) * gs)];
                let nsub = x.len().div_ceil(sgs);
                let scale = encode(x, &mut code_scratch[..x.len()], &mut meta_scratch[..nsub]);
                scales[lg] = scale.to_bits();
                pack_nibbles_into(
                    &code_scratch[..x.len()],
                    &mut codes[lg * cpg..(lg + 1) * cpg],
                );
                for (jj, &mv) in meta_scratch[..nsub].iter().enumerate() {
                    set_two_bits(meta, lg * spg + jj, mv);
                }
            }
        };

        let threads = threads.max(1).min(groups.max(1));
        if threads <= 1 {
            work(0, &mut codes, &mut scales, &mut meta);
        } else {
            // Smallest chunk granularity whose metadata run is whole bytes:
            // `align` groups span `align·spg` 2-bit fields.
            let align = 4 / gcd(spg, 4);
            let per = groups.div_ceil(threads).div_ceil(align) * align;
            std::thread::scope(|s| {
                let work = &work;
                let mut crem: &mut [u8] = &mut codes;
                let mut srem: &mut [u8] = &mut scales;
                let mut mrem: &mut [u8] = &mut meta;
                let mut g0 = 0usize;
                while g0 < groups {
                    let g1 = (g0 + per).min(groups);
                    let ng = g1 - g0;
                    let (c, cr) = crem.split_at_mut(ng * cpg);
                    crem = cr;
                    let (sc, sr) = srem.split_at_mut(ng);
                    srem = sr;
                    let mbytes = if g1 == groups {
                        mrem.len()
                    } else {
                        ng * spg * 2 / 8
                    };
                    let (mt, mr) = mrem.split_at_mut(mbytes);
                    mrem = mr;
                    s.spawn(move || work(g0, c, sc, mt));
                    g0 = g1;
                }
            });
        }
        PackedStreams {
            rows: m.rows(),
            cols: m.cols(),
            cfg,
            codes,
            scales,
            meta,
        }
    }

    fn from_groups<'a>(
        rows: usize,
        cols: usize,
        cfg: M2xfpConfig,
        groups: impl Iterator<Item = (&'a [u8], E8M0, &'a [u8])>,
    ) -> Self {
        let gs = cfg.group_size;
        let gpr = cols.div_ceil(gs);
        let ngroups = rows * gpr;
        let cpg = gs.div_ceil(2);
        let spg = gs / cfg.subgroup_size;
        let mut codes = vec![0u8; ngroups * cpg];
        let mut scales = vec![0u8; ngroups];
        let mut meta = vec![0u8; (ngroups * spg * 2).div_ceil(8)];
        let mut count = 0usize;
        for (g, (gcodes, scale, gmeta)) in groups.enumerate() {
            scales[g] = scale.to_bits();
            pack_nibbles_into(gcodes, &mut codes[g * cpg..(g + 1) * cpg]);
            for (j, &mv) in gmeta.iter().enumerate() {
                set_two_bits(&mut meta, g * spg + j, mv);
            }
            count += 1;
        }
        assert_eq!(count, ngroups, "group count does not match the shape");
        PackedStreams {
            rows,
            cols,
            cfg,
            codes,
            scales,
            meta,
        }
    }

    /// The streams as they are held, `codes ++ scales ++ meta`: the byte
    /// layout of [`ActTensor::pack`] and [`WeightTensor::pack`].
    fn to_bytes(&self) -> Vec<u8> {
        [&self.codes[..], &self.scales, &self.meta].concat()
    }

    /// Splits a [`Self::to_bytes`] buffer of a `rows × cols` tensor (whole
    /// groups per row) back into the three streams, rejecting a scale byte
    /// that holds the E8M0 NaN code.
    fn from_bytes(
        tensor: &str,
        buf: &[u8],
        rows: usize,
        cols: usize,
        cfg: M2xfpConfig,
    ) -> Result<Self, Error> {
        let gs = cfg.group_size;
        let spg = gs / cfg.subgroup_size;
        // (code, scale, total) bytes; `None` when the sizes overflow, which
        // no buffer can match.
        let sizes = rows.checked_mul(cols / gs).and_then(|groups| {
            let codes = groups.checked_mul(gs.div_ceil(2))?;
            let meta = groups.checked_mul(2 * spg)?.div_ceil(8);
            Some((codes, groups, codes.checked_add(groups)?.checked_add(meta)?))
        });
        let Some((codes, scales, _)) = sizes.filter(|s| s.2 == buf.len()) else {
            return Err(Error::BufferLength {
                tensor: tensor.to_string(),
                expected: sizes.map_or(usize::MAX, |s| s.2),
                got: buf.len(),
            });
        };
        let (codes, rest) = buf.split_at(codes);
        let (scales, meta) = rest.split_at(scales);
        if let Some(group) = scales.iter().position(|&b| E8M0::from_bits(b).is_nan()) {
            return Err(Error::NanScale {
                tensor: tensor.to_string(),
                group,
            });
        }
        Ok(PackedStreams {
            rows,
            cols,
            cfg,
            codes: codes.to_vec(),
            scales: scales.to_vec(),
            meta: meta.to_vec(),
        })
    }

    fn groups_per_row(&self) -> usize {
        self.cols.div_ceil(self.cfg.group_size)
    }

    fn group_count(&self) -> usize {
        self.rows * self.groups_per_row()
    }

    /// Elements in group `g` (short for a ragged trailing group).
    fn group_len(&self, g: usize) -> usize {
        let gs = self.cfg.group_size;
        let gpr = self.groups_per_row();
        let tail = self.cols - (gpr - 1) * gs;
        if g % gpr == gpr - 1 {
            tail
        } else {
            gs
        }
    }

    fn code_at(&self, g: usize, i: usize) -> u8 {
        let cpg = self.cfg.group_size.div_ceil(2);
        nibble_at(&self.codes, g * cpg * 2 + i)
    }

    fn meta_at(&self, g: usize, sg: usize) -> u8 {
        let spg = self.cfg.group_size / self.cfg.subgroup_size;
        two_bits_at(&self.meta, g * spg + sg)
    }

    fn scale_at(&self, g: usize) -> E8M0 {
        E8M0::from_bits(self.scales[g])
    }

    /// Appends another stream set's groups below the existing rows. Both
    /// sides must share `cols` and the configuration; groups quantize
    /// independently, so the result is byte-identical to quantizing the
    /// row-concatenated matrix in one pass.
    fn append(&mut self, more: PackedStreams) {
        assert_eq!(self.cols, more.cols, "appended rows have a different width");
        assert_eq!(self.cfg, more.cfg, "appended rows use a different config");
        let spg = self.cfg.group_size / self.cfg.subgroup_size;
        let old_groups = self.group_count();
        let add_groups = more.group_count();
        self.codes.extend_from_slice(&more.codes);
        self.scales.extend_from_slice(&more.scales);
        if (old_groups * spg) % 4 == 0 {
            // The existing metadata run ends on a byte boundary (always
            // true for the production 4-subgroup config): bytes concatenate.
            self.meta.extend_from_slice(&more.meta);
        } else {
            // Odd 2-bit offset: re-pack the appended fields bitwise.
            let new_len = ((old_groups + add_groups) * spg * 2).div_ceil(8);
            self.meta.resize(new_len, 0);
            for i in 0..add_groups * spg {
                set_two_bits(
                    &mut self.meta,
                    old_groups * spg + i,
                    two_bits_at(&more.meta, i),
                );
            }
        }
        self.rows += more.rows;
    }

    /// Drops all rows while keeping the three stream allocations — the
    /// page-frame reuse pattern. A cleared stream set compares equal to a
    /// freshly quantized empty matrix (equality ignores capacity), so a
    /// recycled buffer is indistinguishable from a new one.
    fn clear_rows(&mut self) {
        self.codes.clear();
        self.scales.clear();
        self.meta.clear();
        self.rows = 0;
    }
}

macro_rules! packed_accessors {
    () => {
        /// Matrix shape `(rows, cols)`.
        pub fn shape(&self) -> (usize, usize) {
            (self.s.rows, self.s.cols)
        }

        /// The configuration used at quantization time.
        pub fn config(&self) -> &M2xfpConfig {
            &self.s.cfg
        }

        /// Groups per row.
        pub fn groups_per_row(&self) -> usize {
            self.s.groups_per_row()
        }

        /// Total number of groups.
        pub fn group_count(&self) -> usize {
            self.s.group_count()
        }

        /// Elements in group `g` (short for a ragged trailing group).
        pub fn group_len(&self, g: usize) -> usize {
            self.s.group_len(g)
        }

        /// The nibble-packed FP4 code stream (`group_size/2` bytes per
        /// group, slack nibbles zero).
        pub fn codes(&self) -> &[u8] {
            &self.s.codes
        }

        /// The E8M0 scale stream (one byte per group).
        pub fn scales(&self) -> &[u8] {
            &self.s.scales
        }

        /// The 2-bit metadata stream (one field per subgroup, LSB-first).
        pub fn meta(&self) -> &[u8] {
            &self.s.meta
        }

        /// FP4 code of element `i` of group `g`.
        pub fn code_at(&self, g: usize, i: usize) -> u8 {
            self.s.code_at(g, i)
        }

        /// 2-bit metadata of subgroup `sg` of group `g`.
        pub fn meta_at(&self, g: usize, sg: usize) -> u8 {
            self.s.meta_at(g, sg)
        }

        /// Shared scale of group `g`.
        pub fn group_scale(&self, g: usize) -> E8M0 {
            self.s.scale_at(g)
        }

        /// Total packed footprint in bytes across the three streams.
        pub fn packed_bytes(&self) -> usize {
            self.s.codes.len() + self.s.scales.len() + self.s.meta.len()
        }
    };
}

/// Activations in the flat three-stream layout (§5.2): the representation
/// [`crate::gemm::qgemm_packed`] consumes directly.
///
/// Unlike [`ActTensor`] (a `Vec` of heap-allocated per-group structs kept
/// for interop and the streaming-engine model), this type holds exactly
/// three contiguous buffers and quantizes through the allocation-free
/// [`activation::quantize_group_into`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackedActTensor {
    s: PackedStreams,
}

impl PackedActTensor {
    /// Quantizes a matrix row-wise (Algorithm 1) straight into the packed
    /// streams — no per-group heap allocation — fanned out over scoped
    /// worker threads (auto worker count, same policy as
    /// [`PackedWeightTensor::quantize_parallel`]: one worker below 2^18
    /// elements); byte-identical output for every worker count.
    pub fn quantize_parallel(m: &Matrix, cfg: M2xfpConfig) -> Self {
        let gc = cfg.group_config();
        PackedActTensor {
            s: PackedStreams::quantize_parallel(
                m,
                cfg,
                quantize_threads(m.len()),
                |x, codes, meta| {
                    activation::quantize_group_into(x, gc, cfg.scale_rule, codes, meta)
                },
            ),
        }
    }

    packed_accessors!();

    /// Converts the grouped representation into packed streams.
    pub fn from_grouped(t: &ActTensor) -> Self {
        let (rows, cols) = t.shape();
        PackedActTensor {
            s: PackedStreams::from_groups(
                rows,
                cols,
                *t.config(),
                t.groups()
                    .iter()
                    .map(|g| (&g.codes[..], g.scale, &g.meta[..])),
            ),
        }
    }

    /// Expands the packed streams back into the grouped representation.
    pub fn to_grouped(&self) -> ActTensor {
        let sgs = self.s.cfg.subgroup_size;
        let groups = (0..self.group_count())
            .map(|g| {
                let len = self.group_len(g);
                ActGroup {
                    codes: (0..len).map(|i| self.code_at(g, i)).collect(),
                    scale: self.group_scale(g),
                    meta: (0..len.div_ceil(sgs)).map(|j| self.meta_at(g, j)).collect(),
                }
            })
            .collect();
        ActTensor {
            rows: self.s.rows,
            cols: self.s.cols,
            cfg: self.s.cfg,
            groups,
        }
    }

    /// Dequantizes back to `f32`, walking the packed streams directly —
    /// bit-identical to the grouped [`ActTensor::dequantize`], with the
    /// output as the only allocation. Every element decodes through
    /// `FP4_VALUES` except each subgroup's top-1 (largest magnitude, lowest
    /// index on ties), which the 2-bit metadata refines through
    /// `EXTRA_X8`; the sign is applied to the refined magnitude, as the
    /// float codec does, so a refined zero under a negative code stays
    /// `-0.0`.
    pub fn dequantize(&self) -> Matrix {
        let gs = self.s.cfg.group_size;
        let sgs = self.s.cfg.subgroup_size;
        let gpr = self.groups_per_row();
        let mut data = vec![0.0f32; self.s.rows * self.s.cols];
        for g in 0..self.group_count() {
            let len = self.group_len(g);
            let scale = self.group_scale(g).value();
            let base = (g / gpr) * self.s.cols + (g % gpr) * gs;
            for (sg, out) in data[base..base + len].chunks_mut(sgs).enumerate() {
                let i0 = sg * sgs;
                let mut top = (0, self.code_at(g, i0));
                for (i, o) in out.iter_mut().enumerate() {
                    let c = self.code_at(g, i0 + i);
                    if FP4_ABS_KEY[c as usize] > FP4_ABS_KEY[top.1 as usize] {
                        top = (i, c);
                    }
                    *o = FP4_VALUES[c as usize] * scale;
                }
                let (i, c) = top;
                let mag = f32::from(EXTRA_X8[(c & 7) as usize][self.meta_at(g, sg) as usize]) / 8.0;
                let refined = if c & 8 != 0 { -mag } else { mag };
                out[i] = refined * scale;
            }
        }
        Matrix::from_vec(self.s.rows, self.s.cols, data)
    }
}

/// Weights in the flat three-stream layout (§5.2), stored transposed
/// (`[N, K]`) like [`WeightTensor`]. The metadata stream holds the 2-bit
/// Sg-EM multiplier codes.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedWeightTensor {
    s: PackedStreams,
}

impl PackedWeightTensor {
    /// The production offline weight-quantization entry point: the
    /// integer-LUT Sg-EM search ([`weight::quantize_group_into`]) fanned
    /// out over scoped worker threads, encoding straight into the three
    /// streams with no intermediate [`WeightGroup`].
    ///
    /// The worker count scales with the tensor size (small tensors stay
    /// single-threaded to avoid spawn overhead) and is capped at the
    /// available cores. Output is byte-identical for every thread count
    /// and bit-identical to the legacy float search
    /// ([`WeightTensor::quantize_reference`]), which the property tests
    /// assert.
    pub fn quantize_parallel(w_t: &Matrix, cfg: M2xfpConfig) -> Self {
        Self::quantize_parallel_threaded(w_t, cfg, quantize_threads(w_t.len()))
    }

    /// [`Self::quantize_parallel`] with an explicit worker count.
    pub fn quantize_parallel_threaded(w_t: &Matrix, cfg: M2xfpConfig, threads: usize) -> Self {
        let gc = cfg.group_config();
        PackedWeightTensor {
            s: PackedStreams::quantize_parallel(w_t, cfg, threads, |w, codes, sg_em| {
                weight::quantize_group_into(
                    w,
                    gc,
                    cfg.scale_rule,
                    cfg.adaptive_weight_scale,
                    codes,
                    sg_em,
                )
            }),
        }
    }

    /// An empty tensor (zero rows) of the given width — the seed state of a
    /// growable store such as a KV cache; fill it with
    /// [`Self::append_packed`].
    pub fn empty(cols: usize, cfg: M2xfpConfig) -> Self {
        Self::quantize_parallel_threaded(&Matrix::zeros(0, cols), cfg, 1)
    }

    /// Appends rows that are **already quantized** (same width and config)
    /// below the existing rows — the incremental entry point behind the
    /// KV cache, which quantizes each token's rows once and appends them
    /// to the packed store and a decoded execution plane. Groups quantize
    /// independently, so the streams stay byte-identical to quantizing the
    /// full row-concatenated matrix in one pass (asserted by the tests).
    ///
    /// # Errors
    ///
    /// Fails on a width or configuration mismatch.
    pub fn append_packed(&mut self, other: PackedWeightTensor) -> Result<(), Error> {
        if other.s.cols != self.s.cols {
            return Err(Error::WidthMismatch {
                tensor: "packed weight tensor".to_string(),
                expected: self.s.cols,
                got: other.s.cols,
            });
        }
        if other.s.cfg != self.s.cfg {
            return Err(Error::config(
                "appended packed rows were quantized with a different config",
            ));
        }
        self.s.append(other.s);
        Ok(())
    }

    /// Drops all rows while keeping the stream allocations — the KV
    /// page-frame recycling path. The cleared tensor equals
    /// [`Self::empty`] of the same width, so a reused frame can leave no
    /// trace of its previous occupant.
    pub fn clear_rows(&mut self) {
        self.s.clear_rows();
    }

    packed_accessors!();

    /// Converts the grouped representation into packed streams.
    pub fn from_grouped(t: &WeightTensor) -> Self {
        let (rows, cols) = t.shape();
        PackedWeightTensor {
            s: PackedStreams::from_groups(
                rows,
                cols,
                *t.config(),
                t.groups()
                    .iter()
                    .map(|g| (&g.codes[..], g.scale, &g.sg_em[..])),
            ),
        }
    }

    /// Expands the packed streams back into the grouped representation.
    pub fn to_grouped(&self) -> WeightTensor {
        let sgs = self.s.cfg.subgroup_size;
        let groups = (0..self.group_count())
            .map(|g| {
                let len = self.group_len(g);
                WeightGroup {
                    codes: (0..len).map(|i| self.code_at(g, i)).collect(),
                    scale: self.group_scale(g),
                    sg_em: (0..len.div_ceil(sgs)).map(|j| self.meta_at(g, j)).collect(),
                }
            })
            .collect();
        WeightTensor {
            rows: self.s.rows,
            cols: self.s.cols,
            cfg: self.s.cfg,
            groups,
        }
    }

    /// Dequantizes back to `f32` (still transposed), walking the packed
    /// streams directly — bit-identical to the grouped
    /// [`WeightTensor::dequantize`], without reconstructing per-group
    /// structs.
    pub fn dequantize(&self) -> Matrix {
        let gs = self.s.cfg.group_size;
        let sgs = self.s.cfg.subgroup_size;
        let gpr = self.groups_per_row();
        let mut data = vec![0.0f32; self.s.rows * self.s.cols];
        for g in 0..self.group_count() {
            let len = self.group_len(g);
            let scale = self.group_scale(g).value();
            let base = (g / gpr) * self.s.cols + (g % gpr) * gs;
            for sg in 0..len.div_ceil(sgs) {
                let eff = weight::SG_MULTIPLIERS[self.meta_at(g, sg) as usize] * scale;
                for i in sg * sgs..len.min((sg + 1) * sgs) {
                    data[base + i] = FP4_VALUES[self.code_at(g, i) as usize] * eff;
                }
            }
        }
        Matrix::from_vec(self.s.rows, self.s.cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.61).sin() * 4.0 + ((r + c) as f32 * 0.05).cos()
        })
    }

    #[test]
    fn act_roundtrip_through_pack() {
        let cfg = M2xfpConfig::default();
        let m = sample(3, 64);
        let t = ActTensor::quantize(&m, cfg);
        let packed = t.pack().unwrap();
        // 6 groups: 6·(16+1+1) bytes.
        assert_eq!(packed.len(), 108);
        let t2 = ActTensor::unpack(&packed, 3, 64, cfg).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t.dequantize(), t2.dequantize());
    }

    #[test]
    fn weight_roundtrip_through_pack() {
        let cfg = M2xfpConfig::default();
        let m = sample(4, 32);
        let t = WeightTensor::quantize(&m, cfg);
        let packed = t.pack().unwrap();
        assert_eq!(packed.len(), 4 * 18);
        let t2 = WeightTensor::unpack(&packed, 4, 32, cfg).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn pack_rejects_misaligned_rows() {
        let cfg = M2xfpConfig::default();
        let m = sample(2, 40);
        assert!(ActTensor::quantize(&m, cfg).pack().is_err());
    }

    #[test]
    fn unpack_rejects_wrong_length() {
        let cfg = M2xfpConfig::default();
        assert!(ActTensor::unpack(&[0u8; 10], 1, 32, cfg).is_err());
    }

    #[test]
    fn dequantize_matches_group_path() {
        let cfg = M2xfpConfig::default();
        let m = sample(2, 96);
        let t = ActTensor::quantize(&m, cfg);
        let dq = t.dequantize();
        let gc = cfg.group_config();
        let direct: Vec<f32> = m
            .row_groups(cfg.group_size)
            .flat_map(|g| crate::activation::fake_quantize_group(g, gc, cfg.scale_rule))
            .collect();
        assert_eq!(dq.as_slice(), &direct[..]);
    }

    #[test]
    fn footprint_is_4_5_bits_per_element() {
        let cfg = M2xfpConfig::default();
        let m = sample(8, 128);
        let t = ActTensor::quantize(&m, cfg);
        let packed = t.pack().unwrap();
        let bits_per_elem = packed.len() as f64 * 8.0 / (8.0 * 128.0);
        assert!((bits_per_elem - 4.5).abs() < 1e-12);
    }

    #[test]
    fn packed_act_matches_grouped_path() {
        let cfg = M2xfpConfig::default();
        for cols in [32, 64, 96, 50, 70] {
            let m = sample(3, cols);
            let grouped = ActTensor::quantize(&m, cfg);
            let packed = PackedActTensor::quantize_parallel(&m, cfg);
            assert_eq!(
                PackedActTensor::from_grouped(&grouped),
                packed,
                "cols={cols}"
            );
            assert_eq!(packed.to_grouped(), grouped, "cols={cols}");
            assert_eq!(packed.dequantize(), grouped.dequantize(), "cols={cols}");
        }
    }

    #[test]
    fn packed_weight_matches_grouped_path() {
        let cfg = M2xfpConfig::default();
        for cols in [32, 96, 41] {
            let m = sample(4, cols);
            let grouped = WeightTensor::quantize(&m, cfg);
            let packed = PackedWeightTensor::quantize_parallel(&m, cfg);
            assert_eq!(PackedWeightTensor::from_grouped(&grouped), packed);
            assert_eq!(packed.to_grouped(), grouped, "cols={cols}");
            assert_eq!(packed.dequantize(), grouped.dequantize(), "cols={cols}");
        }
    }

    #[test]
    fn parallel_weight_search_identical_across_threads_and_oracle() {
        // The threaded LUT search must be byte-identical to the float-codec
        // oracle for every thread count, including ragged trailing groups
        // and subgroup sizes whose metadata runs are not byte-aligned per
        // group (spg = 2 → 4 bits/group).
        for cfg in [
            M2xfpConfig::default(),
            M2xfpConfig {
                subgroup_size: 16,
                ..M2xfpConfig::default()
            },
            M2xfpConfig {
                adaptive_weight_scale: false,
                ..M2xfpConfig::default()
            },
        ] {
            for cols in [32, 96, 41] {
                let m = sample(5, cols);
                let oracle =
                    PackedWeightTensor::from_grouped(&WeightTensor::quantize_reference(&m, cfg));
                for threads in [1, 2, 3, 8] {
                    let p = PackedWeightTensor::quantize_parallel_threaded(&m, cfg, threads);
                    assert_eq!(p, oracle, "cols={cols} threads={threads}");
                }
                assert_eq!(PackedWeightTensor::quantize_parallel(&m, cfg), oracle);
            }
        }
    }

    #[test]
    fn parallel_act_quantize_identical_across_threads_and_grouped() {
        // Explicit worker counts (these inputs sit far below the auto
        // policy's one-worker threshold), ragged trailing groups, and a
        // subgroup size whose per-group metadata run is not byte-aligned
        // (spg = 2 → 4 bits/group), against the grouped quantizer.
        for sgs in [8, 16] {
            let cfg = M2xfpConfig {
                subgroup_size: sgs,
                ..M2xfpConfig::default()
            };
            let gc = cfg.group_config();
            for cols in [32, 64, 45] {
                let m = sample(7, cols);
                let want = PackedActTensor::from_grouped(&ActTensor::quantize(&m, cfg));
                for threads in [1, 2, 3, 8] {
                    let s = PackedStreams::quantize_parallel(&m, cfg, threads, |x, codes, meta| {
                        activation::quantize_group_into(x, gc, cfg.scale_rule, codes, meta)
                    });
                    let got = PackedActTensor { s };
                    assert_eq!(got, want, "sg={sgs} cols={cols} threads={threads}");
                }
                assert_eq!(PackedActTensor::quantize_parallel(&m, cfg), want);
            }
        }
    }

    #[test]
    fn packed_weight_direct_dequantize_matches_grouped() {
        let cfg = M2xfpConfig::default();
        for cols in [32, 41, 96] {
            let m = sample(3, cols);
            let p = PackedWeightTensor::quantize_parallel(&m, cfg);
            let grouped = p.to_grouped().dequantize();
            let direct = p.dequantize();
            for (a, b) in direct.as_slice().iter().zip(grouped.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cols={cols}");
            }
        }
    }

    #[test]
    fn append_packed_matches_one_shot_quantization() {
        // Incremental growth (the KV-cache pattern) must be byte-identical
        // to quantizing the concatenated matrix, including configurations
        // whose per-group metadata run is not byte-aligned (spg = 2, so an
        // odd row count leaves the next append at an odd 4-bit offset).
        for cfg in [
            M2xfpConfig::default(),
            M2xfpConfig {
                subgroup_size: 16,
                ..M2xfpConfig::default()
            },
        ] {
            let full = sample(7, 32);
            let want = PackedWeightTensor::quantize_parallel(&full, cfg);
            let mut grown = PackedWeightTensor::empty(32, cfg);
            for chunk in [1usize, 2, 1, 3] {
                let start = grown.shape().0;
                let rows = Matrix::from_fn(chunk, 32, |r, c| full[(start + r, c)]);
                let delta = PackedWeightTensor::quantize_parallel(&rows, cfg);
                grown.append_packed(delta).unwrap();
            }
            assert_eq!(grown, want, "sg={}", cfg.subgroup_size);
            let wide = PackedWeightTensor::empty(33, cfg);
            assert!(matches!(
                grown.append_packed(wide),
                Err(Error::WidthMismatch {
                    expected: 32,
                    got: 33,
                    ..
                })
            ));
        }
    }

    #[test]
    fn packed_length_is_the_held_streams_at_every_subgroup_size() {
        // The serialized layout is the held streams (2 bits per subgroup,
        // not one byte per group): 3 × 32 at subgroup 16 is 48 + 3 + 2
        // bytes. The round trip itself is property-tested.
        for sgs in [2, 4, 8, 16, 32] {
            let cfg = M2xfpConfig {
                subgroup_size: sgs,
                ..M2xfpConfig::default()
            };
            let bytes = WeightTensor::quantize(&sample(3, 32), cfg).pack().unwrap();
            assert_eq!(bytes.len(), 51 + (6 * 32 / sgs).div_ceil(8), "sg={sgs}");
            let short = WeightTensor::unpack(&bytes[1..], 3, 32, cfg).unwrap_err();
            assert_eq!(
                short.to_string(),
                format!(
                    "weight tensor: buffer is {} bytes, layout requires {}",
                    bytes.len() - 1,
                    bytes.len()
                )
            );
        }
        // Sizes that overflow usize match no buffer.
        let err = ActTensor::unpack(&[0; 18], usize::MAX, 64, M2xfpConfig::default());
        assert!(matches!(err, Err(Error::BufferLength { got: 18, .. })));
    }

    #[test]
    fn packed_streams_have_paper_footprint() {
        // Aligned shapes: 16 B codes + 1 B scale + 1 B meta per group of 32.
        let cfg = M2xfpConfig::default();
        let t = PackedActTensor::quantize_parallel(&sample(8, 128), cfg);
        assert_eq!(t.codes().len(), 8 * 4 * 16);
        assert_eq!(t.scales().len(), 8 * 4);
        assert_eq!(t.meta().len(), 8 * 4);
        let bits = t.packed_bytes() as f64 * 8.0 / (8.0 * 128.0);
        assert!((bits - 4.5).abs() < 1e-12);
    }

    #[test]
    fn packed_ragged_trailing_group_roundtrips() {
        let cfg = M2xfpConfig::default();
        let m = sample(2, 45); // 32 + 13 per row
        let t = PackedActTensor::quantize_parallel(&m, cfg);
        assert_eq!(t.group_len(0), 32);
        assert_eq!(t.group_len(1), 13);
        assert_eq!(t.to_grouped(), ActTensor::quantize(&m, cfg));
        // Slack nibbles of the ragged group stay zero.
        for i in 13..32 {
            assert_eq!(t.code_at(1, i), 0);
        }
    }

    #[test]
    fn short_groups_still_dequantize() {
        // Unaligned shapes can't pack but must still round-trip in memory.
        let cfg = M2xfpConfig::default();
        let m = sample(2, 50);
        let t = ActTensor::quantize(&m, cfg);
        assert_eq!(t.dequantize().cols(), 50);
        let w = WeightTensor::quantize(&m, cfg);
        assert_eq!(w.dequantize().cols(), 50);
    }
}
