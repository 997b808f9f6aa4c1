//! Output checks: `run_solo` oracles, stream hashes, and the quality
//! metric against the f32 reference forward.

use m2x_nn::model::{ModelWeights, StepScratch};
use m2x_serve::{feedback_token, run_solo};
use m2x_tensor::Matrix;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash of an empty output stream.
pub const EMPTY_HASH: u64 = FNV_OFFSET;

/// Folds one output row's exact bits into a stream hash (FNV-1a).
pub fn hash_row(mut h: u64, row: &[f32]) -> u64 {
    for v in row {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Stream hash of every row of `m`.
pub fn hash_rows(m: &Matrix) -> u64 {
    (0..m.rows()).fold(EMPTY_HASH, |h, r| hash_row(h, m.row(r)))
}

/// A prompt and the decode steps to run on it.
pub type Item = (Arc<Matrix>, usize);

/// Runs `f` over `items` on two threads, keeping the order.
fn on_two_threads<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let (even, odd) = std::thread::scope(|sc| {
        let h = sc.spawn(|| items.iter().skip(1).step_by(2).map(&f).collect::<Vec<_>>());
        let even: Vec<_> = items.iter().step_by(2).map(&f).collect();
        (even, h.join().expect("oracle thread panicked"))
    });
    let mut out = Vec::with_capacity(items.len());
    let (mut e, mut o) = (even.into_iter(), odd.into_iter());
    for i in 0..items.len() {
        let next = if i % 2 == 0 { e.next() } else { o.next() };
        out.push(next.expect("one result per item")?);
    }
    Ok(out)
}

/// The `run_solo` decode rows of each `(prompt, decode)` pair.
pub fn solo_outputs(weights: &Arc<ModelWeights>, items: &[Item]) -> Result<Vec<Matrix>, String> {
    on_two_threads(items, |(p, d)| {
        run_solo(weights, p, *d).map_err(|e| format!("run_solo: {e}"))
    })
}

/// One request replayed alone through the engine step: the model's input
/// rows (prompt plus fed-back tokens) and its output rows (prompt outputs
/// plus decode outputs).
pub struct SoloTrace {
    /// `[prompt + decode, hidden]` inputs.
    pub inputs: Matrix,
    /// `[prompt + decode, hidden]` outputs.
    pub outputs: Matrix,
    /// Hash of the decode output rows.
    pub decode_hash: u64,
}

/// Traces each `(prompt, decode)` pair alone (two threads).
pub fn solo_traces(weights: &Arc<ModelWeights>, items: &[Item]) -> Result<Vec<SoloTrace>, String> {
    on_two_threads(items, |(prompt, decode)| {
        let mut session = weights.new_session();
        let mut scratch = StepScratch::new();
        let mut step = |x: &Matrix| -> Result<Matrix, String> {
            let mut out = weights
                .step_sessions_scratch(
                    &mut [&mut session],
                    std::slice::from_ref(x),
                    1,
                    &mut scratch,
                )
                .map_err(|e| format!("engine step: {e}"))?;
            out.pop()
                .ok_or_else(|| "engine step returned no output".to_string())
        };
        let mut inputs = (**prompt).clone();
        let mut outputs = step(prompt)?;
        let mut decode_hash = EMPTY_HASH;
        for _ in 0..*decode {
            let tok = feedback_token(&outputs);
            let y = step(&tok)?;
            decode_hash = hash_row(decode_hash, y.row(0));
            inputs.push_rows(&tok);
            outputs.push_rows(&y);
        }
        Ok(SoloTrace {
            inputs,
            outputs,
            decode_hash,
        })
    })
}

/// Normalized RMS error of the traced outputs against the f32 reference
/// forward on the same input rows: `sqrt(Σ(q − r)² / Σ r²)` over every
/// output row of every trace. `reference` must keep its f32 weights.
pub fn quality(reference: &ModelWeights, traces: &[SoloTrace]) -> Result<f64, String> {
    let (mut err, mut energy) = (0.0f64, 0.0f64);
    for t in traces {
        let r = reference
            .reference_forward_batch(&t.inputs)
            .map_err(|e| format!("reference forward: {e}"))?;
        for (q, r) in t.outputs.as_slice().iter().zip(r.as_slice()) {
            let (q, r) = (f64::from(*q), f64::from(*r));
            err += (q - r) * (q - r);
            energy += r * r;
        }
    }
    if energy == 0.0 {
        return Err("reference outputs are all zero".into());
    }
    Ok((err / energy).sqrt())
}
