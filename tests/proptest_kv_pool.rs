//! Property tests on the paged KV-cache pool under prefix sharing: for
//! any interleaving of admissions, cancels, deadline expiries and
//! completions over prompts with overlapping prefixes — across admission
//! windows and worker-thread counts — the pool must be invisible in the
//! output:
//!
//! * every request that finishes is **bit-identical** to running it alone
//!   on a fresh session, even when its prompt prefix was served off
//!   frozen pages another request wrote and further requests are
//!   appending next to it (copy-on-write, never in place);
//! * frozen prefix pages are never mutated by any holder
//!   ([`KvPagePool::verify_frozen`] re-hashes the retained chain after
//!   the churn — a single flipped byte in a shared page fails it);
//! * quiescence leaks nothing: zero open sessions **and** zero pool
//!   pages in use after the server drains — every page is back on the
//!   free list no matter which order requests joined and left.

use m2xfp_repro::nn::model::{ModelBuilder, ModelWeights};
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::nn::synth::activation_matrix;
use m2xfp_repro::serve::{run_solo, RequestOptions, RequestOutcome, ServeConfig, Server};
use m2xfp_repro::tensor::Matrix;
use m2xfp_repro::testkit::cases;
use std::sync::Arc;

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

fn prompt(tokens: usize, seed: usize, hidden: usize) -> Matrix {
    activation_matrix(&ModelProfile::llama3_8b(), seed, tokens, hidden).map(|v| (v * 0.25).tanh())
}

fn tiny_weights(layers: usize) -> Arc<ModelWeights> {
    Arc::new(
        ModelBuilder::scaled(&ModelProfile::llama3_8b(), 64, layers)
            .build_weights()
            .unwrap(),
    )
}

/// Stitches `suffix` onto a clone of `prefix`.
fn with_suffix(prefix: &Matrix, suffix: &Matrix) -> Matrix {
    let mut p = prefix.clone();
    p.push_rows(suffix);
    p
}

/// The headline property (see module docs): arbitrary admit / cancel /
/// deadline / complete interleavings over one shared prefix stay bitwise
/// solo-identical, never corrupt a frozen page, and leak nothing.
#[test]
fn prefix_churn_stays_bit_identical_and_returns_every_page() {
    cases(5, |g| {
        let weights = tiny_weights(1 + g.below(2));
        let pool = Arc::clone(weights.kv_pool());
        let page = pool.page_tokens();
        // One or two whole pages of shared prefix: both the single-page
        // chain and the multi-page chain walk must hold the property.
        let prefix = prompt(page * (1 + g.below(2)), g.case * 211, 64);
        let n_requests = 3 + g.below(4);
        let reqs: Vec<(Matrix, usize)> = (0..n_requests)
            .map(|i| {
                let suffix = prompt(1 + g.below(4), g.case * 211 + 1 + i, 64);
                (with_suffix(&prefix, &suffix), 1 + g.below(5))
            })
            .collect();
        // Solo oracles on fresh sessions. `run_solo` never consults the
        // prefix index, so the oracle stays independent even though its
        // sessions draw pages from the same pool.
        let solo: Vec<Matrix> = reqs
            .iter()
            .map(|(p, d)| run_solo(&weights, p, *d).unwrap())
            .collect();

        let max_batch = 2 + g.below(3);
        let server = Server::start(
            Arc::clone(&weights),
            ServeConfig {
                max_batch,
                worker_threads: [1, 3][g.below(2)],
                ..ServeConfig::default()
            },
        );
        // Seed: the first sharer runs alone, so its prefix pages are
        // frozen and registered before any adopter looks them up.
        let first = server.submit(reqs[0].0.clone(), reqs[0].1).unwrap();
        let c = server.wait(first).unwrap().finished().unwrap();
        assert_bits_eq(&c.decoded, &solo[0], &format!("case {}: seeder", g.case));

        // Random interleaving: each remaining sharer becomes a normal
        // adopter, a cancelled long-runner, or a dead-on-arrival deadline
        // — victims adopt the same frozen pages before leaving, so their
        // departure churns refcounts under the survivors.
        let mut adopters: Vec<(usize, u64)> = Vec::new();
        let mut victims: Vec<(usize, u64)> = Vec::new();
        let mut long_runners = 0usize;
        for (i, (p, d)) in reqs.iter().enumerate().skip(1) {
            match g.below(4) {
                // Long-runners hold batch slots until cancelled; keep at
                // least one slot free so waited adopters always admit.
                0 if long_runners + 1 < max_batch => {
                    long_runners += 1;
                    victims.push((i, server.submit(p.clone(), 10_000).unwrap()));
                }
                1 => victims.push((
                    i,
                    server
                        .submit_with(
                            p.clone(),
                            *d,
                            RequestOptions {
                                deadline_steps: Some(0),
                                ..RequestOptions::default()
                            },
                        )
                        .unwrap(),
                )),
                _ => adopters.push((i, server.submit(p.clone(), *d).unwrap())),
            }
        }
        // Force a mid-wave drain on a random prefix of the adopters, then
        // cancel the long-runners while the rest are still in flight.
        let early = g.below(adopters.len() + 1);
        for &(i, id) in &adopters[..early] {
            let c = server.wait(id).unwrap().finished().unwrap();
            assert_bits_eq(
                &c.decoded,
                &solo[i],
                &format!("case {}: early adopter {i}", g.case),
            );
        }
        for &(_, id) in &victims {
            let _ = server.cancel(id);
        }
        for &(i, id) in &adopters[early..] {
            let c = server.wait(id).unwrap().finished().unwrap();
            assert_bits_eq(
                &c.decoded,
                &solo[i],
                &format!("case {}: adopter {i}", g.case),
            );
        }
        for (i, id) in victims {
            match server.wait(id).unwrap() {
                // A cancel can race completion; a finished victim must
                // still carry solo bits.
                RequestOutcome::Finished(c) => {
                    assert_bits_eq(
                        &c.decoded,
                        &solo[i],
                        &format!("case {}: finished victim {i}", g.case),
                    );
                }
                RequestOutcome::Cancelled { .. } | RequestOutcome::DeadlineExceeded { .. } => {}
                other => panic!("case {}: victim outcome {}", g.case, other.kind()),
            }
        }

        // Every completed adopter actually served its prefix off the
        // shared frozen pages — the bit-identity above is not vacuous.
        let stats = server.stats();
        assert!(
            stats.kv_pool.prefix_hits >= adopters.len() as u64,
            "case {}: {} adopters but only {} prefix hits",
            g.case,
            adopters.len(),
            stats.kv_pool.prefix_hits
        );
        // No holder mutated a frozen page in place: the retained chain
        // still matches the content hashes recorded at freeze time.
        assert!(
            pool.verify_frozen(),
            "case {}: a frozen shared page was mutated",
            g.case
        );

        // Quiescence: all sessions gone, every page back on the free list.
        drop(server);
        assert_eq!(
            weights.open_sessions(),
            0,
            "case {}: sessions leaked",
            g.case
        );
        assert_eq!(
            pool.stats().pages_in_use,
            0,
            "case {}: pool pages leaked",
            g.case
        );
    });
}

/// Two request families with *different* (overlapping-length) prefixes
/// interleaved through the same pool: lookups must never cross-match, and
/// both families stay bitwise solo-identical while sharing the free list.
#[test]
fn distinct_prefix_families_never_cross_contaminate() {
    cases(4, |g| {
        let weights = tiny_weights(1);
        let pool = Arc::clone(weights.kv_pool());
        let page = pool.page_tokens();
        // Family B's prefix agrees with A's for a random number of rows
        // (an overlapping-but-diverging prefix), then differs.
        let a_prefix = prompt(page, g.case * 307, 64);
        let shared_rows = g.below(page);
        let b_tail = prompt(page - shared_rows, g.case * 307 + 5000, 64);
        let mut b_prefix = Matrix::from_fn(shared_rows, 64, |r, c| a_prefix[(r, c)]);
        b_prefix.push_rows(&b_tail);
        assert_ne!(a_prefix, b_prefix, "families must diverge");

        let n_per = 2 + g.below(2);
        let mut mk = |prefix: &Matrix, fam: usize| -> Vec<(Matrix, usize)> {
            (0..n_per)
                .map(|i| {
                    let suffix = prompt(1 + g.below(3), g.case * 307 + fam * 100 + i, 64);
                    (with_suffix(prefix, &suffix), 1 + g.below(4))
                })
                .collect()
        };
        let reqs: Vec<(Matrix, usize)> = mk(&a_prefix, 1)
            .into_iter()
            .chain(mk(&b_prefix, 2))
            .collect();
        let solo: Vec<Matrix> = reqs
            .iter()
            .map(|(p, d)| run_solo(&weights, p, *d).unwrap())
            .collect();

        let server = Server::start(
            Arc::clone(&weights),
            ServeConfig {
                max_batch: 2 + g.below(2),
                worker_threads: [1, 3][g.below(2)],
                ..ServeConfig::default()
            },
        );
        // Seed one member of each family so both prefixes are frozen,
        // then interleave the rest A/B alternating.
        let seed_a = server.submit(reqs[0].0.clone(), reqs[0].1).unwrap();
        let c = server.wait(seed_a).unwrap().finished().unwrap();
        assert_bits_eq(&c.decoded, &solo[0], &format!("case {}: seed A", g.case));
        let seed_b = server.submit(reqs[n_per].0.clone(), reqs[n_per].1).unwrap();
        let c = server.wait(seed_b).unwrap().finished().unwrap();
        assert_bits_eq(
            &c.decoded,
            &solo[n_per],
            &format!("case {}: seed B", g.case),
        );

        let rest: Vec<usize> = (1..n_per).flat_map(|i| [i, n_per + i]).collect();
        let ids: Vec<(usize, u64)> = rest
            .iter()
            .map(|&i| (i, server.submit(reqs[i].0.clone(), reqs[i].1).unwrap()))
            .collect();
        for (i, id) in ids {
            let c = server.wait(id).unwrap().finished().unwrap();
            assert_bits_eq(
                &c.decoded,
                &solo[i],
                &format!("case {}: family member {i}", g.case),
            );
        }

        assert!(pool.verify_frozen(), "case {}: frozen page mutated", g.case);
        drop(server);
        assert_eq!(
            weights.open_sessions(),
            0,
            "case {}: sessions leaked",
            g.case
        );
        assert_eq!(
            pool.stats().pages_in_use,
            0,
            "case {}: pages leaked",
            g.case
        );
    });
}
