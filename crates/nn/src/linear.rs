//! A ready-to-use quantized linear layer — the API a downstream user would
//! deploy: weights held in the packed M2XFP representation next to the
//! [`WeightPlane`] decoded from them once at construction, and every
//! forward pass running the packed integer kernel directly (online
//! activation encode, then one [`qgemm_packed_planed_scratch`] call for
//! any row count). The grouped [`qgemm`] and
//! f64 [`qgemm_reference`](m2xfp::gemm::qgemm_reference) kernels stay as
//! the oracles the tests pin this path against.
//!
//! [`qgemm`]: m2xfp::gemm::qgemm

use m2x_tensor::Matrix;
use m2xfp::format::{PackedActTensor, PackedWeightTensor, WeightTensor};
use m2xfp::gemm::{gemm_threads, qgemm_packed_planed_scratch, GemmScratch, WeightPlane};
use m2xfp::{Error, M2xfpConfig};

/// `Q_a(x) · Wᵀ` against a decoded weight plane: online activation encode
/// (auto-threaded above the work threshold), then the packed kernel with
/// [`gemm_threads`] workers (one, run inline, for decode-sized work),
/// reusing the caller's scratch. The one engine path every layer forward
/// takes.
pub(crate) fn packed_forward(
    x: &Matrix,
    plane: &WeightPlane,
    cfg: M2xfpConfig,
    scratch: &mut GemmScratch,
) -> Matrix {
    let (n, k) = plane.shape();
    let xq = PackedActTensor::quantize_parallel(x, cfg);
    qgemm_packed_planed_scratch(&xq, plane, gemm_threads(x.rows(), k, n), scratch)
}

/// A linear layer `y = x·Wᵀ` with M2XFP-quantized weights.
///
/// ```
/// use m2x_nn::linear::QuantizedLinear;
/// use m2x_tensor::Matrix;
/// use m2xfp::M2xfpConfig;
///
/// // W: 8 output features, 64 inputs (stored transposed, [out, in]).
/// let w = Matrix::from_fn(8, 64, |r, c| ((r * 64 + c) as f32 * 0.1).sin());
/// let layer = QuantizedLinear::from_weights(&w, M2xfpConfig::default())?;
/// let x = Matrix::from_fn(4, 64, |r, c| ((r + c) as f32 * 0.2).cos());
/// let y = layer.forward(&x)?;
/// assert_eq!((y.rows(), y.cols()), (4, 8));
/// # Ok::<(), m2xfp::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLinear {
    /// The canonical three-stream weight bits.
    packed: PackedWeightTensor,
    /// The kernel operand decoded from `packed` once, so repeated
    /// forwards skip the O(N·K) decode.
    plane: WeightPlane,
}

impl QuantizedLinear {
    /// Quantizes a transposed weight matrix `[out_features, in_features]`
    /// and decodes its kernel plane.
    ///
    /// # Errors
    ///
    /// Fails when `in_features` is not a multiple of the group size (the
    /// hardware layout requires aligned rows).
    pub fn from_weights(w_t: &Matrix, cfg: M2xfpConfig) -> Result<Self, Error> {
        if w_t.cols() % cfg.group_size != 0 {
            return Err(Error::Misaligned {
                tensor: "linear weights".to_string(),
                len: w_t.cols(),
                group_size: cfg.group_size,
            });
        }
        // The threaded integer-LUT Sg-EM search — layer construction is the
        // offline weight-quantization moment, the path the paper's §6
        // end-to-end setting exercises per layer — followed by the one-time
        // decode into the kernel's plane.
        let packed = PackedWeightTensor::quantize_parallel(w_t, cfg);
        let plane = WeightPlane::decode(&packed);
        Ok(QuantizedLinear { packed, plane })
    }

    fn check_width(&self, x: &Matrix) -> Result<(), Error> {
        if x.cols() != self.in_features() {
            return Err(Error::WidthMismatch {
                tensor: "quantized linear".to_string(),
                expected: self.in_features(),
                got: x.cols(),
            });
        }
        Ok(())
    }

    /// The configuration the weights were quantized with.
    pub fn config(&self) -> &M2xfpConfig {
        self.packed.config()
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.packed.shape().0
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.packed.shape().1
    }

    /// The grouped weight representation, reconstructed from the packed
    /// streams.
    pub fn weights(&self) -> WeightTensor {
        self.packed.to_grouped()
    }

    /// The three-stream packed weight representation.
    pub fn packed_weights(&self) -> &PackedWeightTensor {
        &self.packed
    }

    /// W4A4 forward pass: quantizes `x` online (Elem-EM-top1) and runs the
    /// bit-exact PE GEMM against the decoded weight plane.
    ///
    /// # Errors
    ///
    /// Fails on an input width mismatch.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, Error> {
        self.forward_scratch(x, &mut GemmScratch::default())
    }

    /// [`Self::forward`] with a caller-held reusable [`GemmScratch`] — the
    /// decode hot-loop entry point: the activation scratch is reused
    /// across calls instead of allocated fresh. Bit-identical to
    /// [`Self::forward`].
    ///
    /// # Errors
    ///
    /// Fails on an input width mismatch.
    pub fn forward_scratch(&self, x: &Matrix, scratch: &mut GemmScratch) -> Result<Matrix, Error> {
        self.check_width(x)?;
        Ok(packed_forward(x, &self.plane, *self.config(), scratch))
    }

    /// Storage footprint of the packed weights in bytes: the three streams
    /// as held (17.5 B per 32-element group at subgroup 16, 18 B at 8).
    pub fn weight_bytes(&self) -> usize {
        self.packed.packed_bytes()
    }

    /// Heap bytes of the kernel operand decoded from the packed weights
    /// ([`WeightPlane::decoded_bytes`]: 8.25 bits per weight at group 32),
    /// resident next to them.
    pub(crate) fn operand_bytes(&self) -> usize {
        self.plane.decoded_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2x_tensor::stats::nmse;
    use m2x_tensor::Xoshiro;
    use m2xfp::format::ActTensor;
    use m2xfp::gemm::{qgemm, qgemm_reference};

    fn layer(out: usize, inp: usize, seed: u64) -> (QuantizedLinear, Matrix) {
        let mut r = Xoshiro::seed(seed);
        let w = Matrix::from_fn(out, inp, |_, _| r.laplace(0.5));
        let x = Matrix::from_fn(6, inp, |_, _| r.laplace(1.0));
        (
            QuantizedLinear::from_weights(&w, M2xfpConfig::default()).unwrap(),
            x,
        )
    }

    #[test]
    fn forward_tracks_full_precision() {
        let mut r = Xoshiro::seed(1);
        let w = Matrix::from_fn(16, 128, |_, _| r.laplace(0.5));
        let x = Matrix::from_fn(6, 128, |_, _| r.laplace(1.0));
        let l = QuantizedLinear::from_weights(&w, M2xfpConfig::default()).unwrap();
        let y_ref = x.matmul(&w.transpose());
        let y = l.forward(&x).unwrap();
        let e = nmse(y_ref.as_slice(), y.as_slice());
        assert!(e > 0.0 && e < 0.05, "nmse {e}");
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}");
        }
    }

    #[test]
    fn forward_matches_grouped_and_reference_kernels_bitwise() {
        // The packed engine path agrees with the grouped PE pipeline and
        // the f64 oracle on the layer's own weight bits, on the GEMV
        // (one row) and the batched shape.
        let (l, x) = layer(16, 96, 7);
        let cfg = *l.config();
        for rows in [1usize, 6] {
            let x = Matrix::from_fn(rows, 96, |r, c| x[(r, c)]);
            let xa = ActTensor::quantize(&x, cfg);
            let y = l.forward(&x).unwrap();
            assert_bits_eq(&y, &qgemm(&xa, &l.weights()), "grouped");
            assert_bits_eq(&y, &qgemm_reference(&xa, &l.weights()), "reference");
        }
    }

    #[test]
    fn forward_scratch_matches_forward_bitwise() {
        // The scratch-reusing entry point (one kernel call at every row
        // count) is bit-identical to the allocating forward, with one
        // scratch reused across shapes.
        let (l, x) = layer(7, 96, 9);
        let mut scratch = GemmScratch::new();
        for rows in [1usize, 4, 1] {
            let x = Matrix::from_fn(rows, 96, |r, c| x[(r, c)]);
            let a = l.forward(&x).unwrap();
            let b = l.forward_scratch(&x, &mut scratch).unwrap();
            assert_bits_eq(&a, &b, &format!("rows={rows}"));
        }
    }

    #[test]
    fn scratch_reused_after_caught_panic_is_bit_identical() {
        // A serving engine isolates step panics with `catch_unwind` and
        // keeps stepping the surviving requests with the same scratch. The
        // scratch contract (see `GemmScratch`) is that a panic can only
        // leave *stale* data behind, never data a later call reads: a
        // forward through a scratch abandoned mid-use — with and without an
        // explicit `reset()` — must match a fresh-scratch forward bitwise.
        let (l, x) = layer(6, 96, 3);
        let x = Matrix::from_fn(2, 96, |r, c| x[(r, c)]);
        let want = l.forward_scratch(&x, &mut GemmScratch::new()).unwrap();

        let mut scratch = GemmScratch::new();
        // Dirty the scratch with a different shape, then abandon a call
        // mid-flight via a panic unwinding across it.
        let (_, other) = layer(6, 96, 4);
        l.forward_scratch(&other, &mut scratch).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = l.forward_scratch(&other, &mut scratch);
            panic!("injected fault");
        }));
        assert!(caught.is_err());
        let after_panic = l.forward_scratch(&x, &mut scratch).unwrap();
        assert_bits_eq(&want, &after_panic, "after panic");
        scratch.reset();
        let after_reset = l.forward_scratch(&x, &mut scratch).unwrap();
        assert_bits_eq(&want, &after_reset, "after reset");
    }

    #[test]
    fn shape_errors_reported() {
        let (l, _) = layer(8, 64, 3);
        let bad = Matrix::zeros(2, 65);
        assert!(l.forward(&bad).is_err());
        let w_bad = Matrix::zeros(8, 65);
        let err = QuantizedLinear::from_weights(&w_bad, M2xfpConfig::default()).unwrap_err();
        assert!(err.to_string().contains("linear weights"), "{err}");
    }

    #[test]
    fn weight_footprint_is_4_5_bits() {
        let (l, _) = layer(8, 64, 4);
        let bits = l.weight_bytes() as f64 * 8.0 / (8.0 * 64.0);
        assert!((bits - 4.5).abs() < 1e-12);
        assert_eq!(l.weights().pack().unwrap().len(), l.weight_bytes());
    }

    #[test]
    fn weight_bytes_are_the_held_streams_at_every_subgroup_size() {
        // 8 × 64 is 16 groups: 16 B codes + 1 B scale + 2 bits per subgroup
        // each, so 17.5 B per group at subgroup 16 and 19 B at subgroup 4.
        let w = Matrix::from_fn(8, 64, |r, c| ((r * 64 + c) as f32 * 0.3).sin());
        for (sgs, bytes) in [(4, 16 * 19), (8, 16 * 18), (16, 16 * 35 / 2)] {
            let cfg = M2xfpConfig {
                subgroup_size: sgs,
                ..M2xfpConfig::default()
            };
            let l = QuantizedLinear::from_weights(&w, cfg).unwrap();
            assert_eq!(l.weight_bytes(), bytes, "sg={sgs}");
            assert_eq!(l.weights().pack().unwrap().len(), bytes, "sg={sgs}");
        }
    }

    #[test]
    fn accessors() {
        let (l, _) = layer(8, 64, 5);
        assert_eq!(l.out_features(), 8);
        assert_eq!(l.in_features(), 64);
        assert_eq!(l.config(), &M2xfpConfig::default());
    }
}
