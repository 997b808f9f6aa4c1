//! Timing and comparison helpers shared by the bench sections.
//!
//! A ratio of two best-of times measured in separate blocks moves with
//! any change of host speed between the blocks (steal on a shared host, a
//! frequency step), and a 25% gate then fails on unchanged code. So the
//! sides of every gated ratio are timed back to back inside each rep
//! ([`Interleaved`]), which side runs first alternates from rep to rep,
//! and the ratio reported is the median of the per-rep ratios.

use m2x_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Per-rep sample times, in seconds, of `N` sides timed back to back.
#[derive(Debug, Clone)]
pub struct Interleaved<const N: usize> {
    samples: Vec<[f64; N]>,
}

impl<const N: usize> Interleaved<N> {
    /// Runs `reps` reps (at least one). Each side runs one sample and
    /// returns its time in seconds; even reps run the sides in order, odd
    /// reps in reverse.
    pub fn run(reps: usize, mut sides: [&mut dyn FnMut() -> f64; N]) -> Self {
        let samples = (0..reps.max(1))
            .map(|rep| {
                let mut t = [0.0; N];
                for k in 0..N {
                    let i = if rep % 2 == 0 { k } else { N - 1 - k };
                    t[i] = sides[i]();
                }
                t
            })
            .collect();
        Interleaved { samples }
    }

    /// Fastest sample of side `i` — the advisory `*_s` time.
    pub fn best(&self, i: usize) -> f64 {
        self.samples
            .iter()
            .map(|s| s[i])
            .fold(f64::INFINITY, f64::min)
    }

    /// Median over reps of `ratio` applied to each rep's sample times.
    pub fn median(&self, ratio: impl Fn(&[f64; N]) -> f64) -> f64 {
        let mut r: Vec<f64> = self.samples.iter().map(ratio).collect();
        r.sort_by(f64::total_cmp);
        let n = r.len();
        if n % 2 == 1 {
            r[n / 2]
        } else {
            (r[n / 2 - 1] + r[n / 2]) / 2.0
        }
    }
}

/// Wall time of one `f` call, in seconds.
pub fn time_once<O>(f: impl FnOnce() -> O) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Fastest wall time of `reps` (at least one) calls of `f`, in seconds,
/// with the last call's output — for times no gated ratio is built from.
pub fn best_of<O>(reps: usize, mut f: impl FnMut() -> O) -> (f64, O) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(black_box(f()));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out.expect("reps.max(1) calls f at least once"))
}

/// Mean wall time of one `f` call over a loop of at least `min_s`
/// seconds, for calls too short to time alone.
pub fn time_per_call(min_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t0.elapsed().as_secs_f64() < min_s {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(calls)
}

/// Nearest-rank percentile `p` (in `0..=1`) of an ascending slice; 0 when
/// the slice is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Same shape and the same bits in every element: the bit-identity every
/// `*_exact` flag checks (`-0.0` differs from `0.0`, a NaN matches only
/// its own bits).
pub fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternates_order_and_takes_the_median_ratio() {
        // Each side logs when it ran; side a takes 2 s and side b 1 s in
        // every rep except one outlier rep, which the median ignores.
        let log = std::cell::RefCell::new(Vec::new());
        let mut rep_a = 0;
        let mut a = || {
            log.borrow_mut().push('a');
            rep_a += 1;
            if rep_a == 2 {
                10.0
            } else {
                2.0
            }
        };
        let mut b = || {
            log.borrow_mut().push('b');
            1.0
        };
        let t = Interleaved::run(3, [&mut a, &mut b]);
        assert_eq!(log.into_inner(), ['a', 'b', 'b', 'a', 'a', 'b']);
        assert_eq!(t.median(|s| s[0] / s[1]), 2.0);
        assert_eq!((t.best(0), t.best(1)), (2.0, 1.0));
        // An even rep count averages the two middle ratios.
        let mut c = || 3.0;
        let mut d = || 1.0;
        let mut n = 0.0;
        let mut e = || {
            n += 1.0;
            n
        };
        let even = Interleaved::run(2, [&mut c, &mut d, &mut e]);
        assert_eq!(even.median(|s| s[0] / s[2]), (3.0 + 1.5) / 2.0);
        assert!(time_per_call(0.0, || {}) >= 0.0);
    }

    #[test]
    fn best_of_percentile_and_bits_eq() {
        let mut calls = 0;
        let (t, out) = best_of(0, || {
            calls += 1;
            calls
        });
        assert!(t >= 0.0);
        assert_eq!((calls, out), (1, 1), "reps 0 still times one call");
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        assert!(bits_eq(&a, &a.clone()));
        assert!(!bits_eq(&a, &a.map(|v| if v == 0.0 { -0.0 } else { v })));
        assert!(!bits_eq(&a, &Matrix::from_fn(1, 4, |_, c| c as f32)));
    }
}
