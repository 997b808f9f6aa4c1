//! The two workloads and their seeded, fixed-work request lists.
//!
//! Every workload runs the LLaMA3-8B profile scaled to hidden 256 × 2
//! layers with 32-token KV pages. A run's work is a request list, not a
//! duration: the prompt and decode lengths are spread evenly over the
//! workload's range in one fixed order, the same for every seed, and the
//! seed only picks the prompt contents. Two seeds therefore ask for the
//! same work in the same schedule with disjoint inputs, so the spread
//! between runs is the host's, not the request mix's.

use m2x_nn::profile::ModelProfile;
use m2x_nn::synth::activation_matrix;
use m2x_tensor::Matrix;
use std::sync::Arc;

/// Hidden width of the scaled model.
pub const HIDDEN: usize = 256;
/// Transformer layers of the scaled model.
pub const LAYERS: usize = 2;
/// KV page size in tokens.
pub const PAGE_TOKENS: usize = 32;
/// Fewest measured requests in a run: p90 of the time to first token
/// needs ten samples beyond it.
pub const MIN_REQUESTS: usize = 100;

/// Distinct prompts `chat` draws its requests from.
const CHAT_POOL: usize = 16;
/// Longest `chat` decode; the pool oracles run this many steps.
pub const CHAT_MAX_DECODE: usize = 64;
/// Tokens of the system prefix every `prefix` prompt starts with.
pub const PREFIX_ROWS: usize = 4 * PAGE_TOKENS;
/// `prefix` requests fed to the quality metric.
const SAMPLE: usize = 8;

/// The profile every workload's model is scaled from.
pub fn profile() -> ModelProfile {
    ModelProfile::llama3_8b()
}

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short prompts, long streamed decodes over the gateway socket.
    Chat,
    /// A shared 4-page system prefix plus short unique suffixes.
    Prefix,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "chat" => Ok(Workload::Chat),
            "prefix" => Ok(Workload::Prefix),
            other => Err(format!("unknown workload {other:?} (chat or prefix)")),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chat => "chat",
            Workload::Prefix => "prefix",
        }
    }

    /// Requests the closed-loop load generator keeps outstanding.
    pub fn outstanding(self) -> usize {
        match self {
            Workload::Chat => 2,
            Workload::Prefix => 8,
        }
    }

    /// Measured requests for a run of about `seconds` on one CPU of a quiet
    /// 2-vCPU host, never fewer than [`MIN_REQUESTS`].
    pub fn request_count(self, seconds: u64) -> usize {
        let per_s = match self {
            Workload::Chat => 10.0,
            Workload::Prefix => 8.0,
        };
        ((seconds as f64 * per_s).ceil() as usize).max(MIN_REQUESTS)
    }
}

/// One generation request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Leading prompt rows shared with other requests (`prefix`'s system
    /// prefix), held once for the whole list.
    pub head: Option<Arc<Matrix>>,
    /// The request's own prompt rows, after `head`.
    pub tail: Arc<Matrix>,
    /// Decode steps to generate.
    pub decode: usize,
    /// Index into [`Plan::pool`] for `chat` requests.
    pub pool: Option<usize>,
}

impl Request {
    /// The prompt rows (`[tokens, HIDDEN]`): `head`, then `tail`. Built on
    /// demand, so the request list stays small next to the server's own
    /// memory in `peak_rss_mb`.
    pub fn prompt(&self) -> Matrix {
        let Some(head) = &self.head else {
            return (*self.tail).clone();
        };
        let mut rows = Vec::with_capacity(head.as_slice().len() + self.tail.as_slice().len());
        rows.extend_from_slice(head.as_slice());
        rows.extend_from_slice(self.tail.as_slice());
        Matrix::from_vec(self.prompt_rows(), self.tail.cols(), rows)
    }

    /// Prompt length in tokens.
    pub fn prompt_rows(&self) -> usize {
        self.head.as_ref().map_or(0, |h| h.rows()) + self.tail.rows()
    }
}

/// A workload's inputs for one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Sent alone before the measured window; for `prefix` it is the
    /// request that puts the shared prefix into the page pool.
    pub warmup: Request,
    /// The measured requests, in submission order.
    pub requests: Vec<Request>,
    /// `chat`'s distinct prompts; empty for `prefix`.
    pub pool: Vec<Arc<Matrix>>,
    /// `prefix` requests whose rows feed the quality metric (`chat` uses
    /// its pool prompts at full decode length instead).
    pub quality_sample: Vec<usize>,
}

/// SplitMix64: small, seedable, and stable across toolchains.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Seed of the fixed request order (not the run seed: see the module
/// docs).
const ORDER_SEED: u64 = 0x0BDE_5EED;

/// `n` lengths spread evenly over `lo..=hi`, in an order drawn from `rng`.
fn spread(n: usize, lo: usize, hi: usize, rng: &mut SplitMix) -> Vec<usize> {
    let width = hi - lo + 1;
    let mut v: Vec<usize> = (0..n).map(|i| lo + i * width / n.max(1)).collect();
    rng.shuffle(&mut v);
    v
}

/// Synthesis stream of prompt `index` under `tag` for `seed`: distinct for
/// every (seed, tag, index), so no two prompts share a row.
fn stream(seed: u64, tag: u64, index: usize) -> usize {
    let mut m = SplitMix::new(
        seed ^ tag.rotate_left(48) ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407),
    );
    m.next_u64() as usize
}

/// LLM-like prompt rows: the profile's heavy-tailed activations with
/// outlier channels, squashed into the range the serving loop feeds back.
fn synth_all(specs: &[(usize, usize)]) -> Vec<Matrix> {
    let p = profile();
    let one = |&(s, rows): &(usize, usize)| {
        activation_matrix(&p, s, rows, HIDDEN).map(|v| (v * 0.25).tanh())
    };
    // Two threads: prompt synthesis happens before any timing starts.
    let half = specs.len().div_ceil(2);
    let (a, b) = specs.split_at(half);
    std::thread::scope(|sc| {
        let h = sc.spawn(|| b.iter().map(one).collect::<Vec<_>>());
        let mut out: Vec<Matrix> = a.iter().map(one).collect();
        out.extend(h.join().expect("prompt synthesis thread panicked"));
        out
    })
}

const TAG_CHAT: u64 = 1;
const TAG_SUFFIX: u64 = 3;
const TAG_PREFIX: u64 = 4;
const TAG_WARMUP: u64 = 5;

impl Plan {
    /// The request list of `workload` for `seed` with `n` measured
    /// requests.
    pub fn build(workload: Workload, seed: u64, n: usize) -> Plan {
        let mut rng = SplitMix::new(ORDER_SEED);
        match workload {
            Workload::Chat => {
                let rows = spread(CHAT_POOL, 8, 32, &mut rng);
                let specs: Vec<(usize, usize)> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| (stream(seed, TAG_CHAT, i), r))
                    .collect();
                let pool: Vec<Arc<Matrix>> = synth_all(&specs).into_iter().map(Arc::new).collect();
                let decode = spread(n, 16, CHAT_MAX_DECODE, &mut rng);
                // Every pool prompt is used equally often.
                let mut picks: Vec<usize> = (0..n).map(|i| i % CHAT_POOL).collect();
                rng.shuffle(&mut picks);
                let requests = picks
                    .iter()
                    .zip(decode)
                    .map(|(&p, d)| Request {
                        head: None,
                        tail: Arc::clone(&pool[p]),
                        decode: d,
                        pool: Some(p),
                    })
                    .collect();
                Plan {
                    workload,
                    warmup: Request {
                        head: None,
                        tail: Arc::clone(&pool[0]),
                        decode: 16,
                        pool: Some(0),
                    },
                    requests,
                    pool,
                    quality_sample: Vec::new(),
                }
            }
            Workload::Prefix => {
                // Suffixes stop one token short of a page: a 32-token suffix
                // would fill a fifth page that the pool freezes and retains,
                // and those unique pages would push the shared prefix out of
                // the pool's retention FIFO.
                let suffix = spread(n, 8, PAGE_TOKENS - 1, &mut rng);
                let decode = spread(n, 16, 48, &mut rng);
                let mut specs: Vec<(usize, usize)> = suffix
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| (stream(seed, TAG_SUFFIX, i), r))
                    .collect();
                specs.push((stream(seed, TAG_WARMUP, 0), 16));
                specs.push((stream(seed, TAG_PREFIX, 0), PREFIX_ROWS));
                let mut parts = synth_all(&specs);
                let prefix = Arc::new(parts.pop().expect("prefix rows"));
                let request = |suffix: Matrix, decode: usize| Request {
                    head: Some(Arc::clone(&prefix)),
                    tail: Arc::new(suffix),
                    decode,
                    pool: None,
                };
                let warmup = request(parts.pop().expect("warm-up suffix"), 16);
                let requests = parts
                    .into_iter()
                    .zip(decode)
                    .map(|(s, d)| request(s, d))
                    .collect();
                Plan {
                    workload,
                    warmup,
                    requests,
                    pool: Vec::new(),
                    quality_sample: sample(n, &mut rng),
                }
            }
        }
    }

    /// Total prompt tokens of the measured requests.
    pub fn prompt_tokens(&self) -> usize {
        self.requests.iter().map(Request::prompt_rows).sum()
    }
}

/// A seeded sample of `SAMPLE` distinct indices below `n`, ascending.
fn sample(n: usize, rng: &mut SplitMix) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    idx.truncate(SAMPLE.min(n));
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn first_rows(p: &Plan) -> HashSet<Vec<u32>> {
        p.requests
            .iter()
            .chain(std::iter::once(&p.warmup))
            .map(|r| r.prompt().row(0).iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_list() {
        for w in [Workload::Chat, Workload::Prefix] {
            let (a, b) = (Plan::build(w, 7, 12), Plan::build(w, 7, 12));
            assert_eq!(a.requests.len(), 12);
            for (x, y) in a.requests.iter().zip(&b.requests) {
                assert_eq!(x.decode, y.decode);
                assert_eq!(bits(&x.prompt()), bits(&y.prompt()));
            }
            assert_eq!(a.quality_sample, b.quality_sample);
        }
    }

    #[test]
    fn different_seeds_give_disjoint_prompts_and_the_same_schedule() {
        for w in [Workload::Chat, Workload::Prefix] {
            let (a, b) = (Plan::build(w, 1, 12), Plan::build(w, 2, 12));
            assert!(first_rows(&a).is_disjoint(&first_rows(&b)), "{}", w.name());
            // Fixed work: the same lengths in the same order, whatever
            // the seed.
            let lens = |p: &Plan| -> Vec<(usize, usize)> {
                p.requests
                    .iter()
                    .map(|r| (r.prompt_rows(), r.decode))
                    .collect()
            };
            assert_eq!(lens(&a), lens(&b), "{}", w.name());
            assert_eq!(a.quality_sample, b.quality_sample);
        }
    }

    #[test]
    fn lengths_stay_in_their_ranges() {
        let pre = Plan::build(Workload::Prefix, 3, 40);
        let shared = pre.warmup.prompt();
        for r in &pre.requests {
            let p = r.prompt();
            assert!((PREFIX_ROWS + 8..PREFIX_ROWS + PAGE_TOKENS).contains(&p.rows()));
            assert_eq!(p.rows(), r.prompt_rows());
            assert!((16..=48).contains(&r.decode));
            assert_eq!(
                bits(&p)[..PREFIX_ROWS * HIDDEN],
                bits(&shared)[..PREFIX_ROWS * HIDDEN]
            );
        }
        // The suffixes are unique: no two prompts share their first
        // suffix row.
        let suffix_rows: HashSet<Vec<u32>> = pre
            .requests
            .iter()
            .map(|r| r.tail.row(0).iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(suffix_rows.len(), 40);
        let chat = Plan::build(Workload::Chat, 3, 40);
        assert!(chat.pool.iter().all(|p| (8..=32).contains(&p.rows())));
        assert!(chat.requests.iter().all(|r| (16..=64).contains(&r.decode)));
    }
}
