//! Prefix sharing on the paged KV-cache pool: N requests that start with
//! the same long prompt prefix (a shared system prompt, say) are served
//! off **one** frozen copy of that prefix's KV pages instead of N.
//!
//! The first request to finish prefilling a page-aligned prefix freezes
//! those pages and registers them in the pool's prefix index. Every later
//! request whose prompt starts with the same rows adopts the frozen pages
//! by refcount — skipping the prefill work for the shared span — and
//! appends its own suffix/decode state into fresh pages next to them
//! (copy-on-write: a shared page is never written in place). The contract
//! this example double-checks is the repo-wide one: sharing must leave
//! **no trace** — every adopted request's token stream is bit-identical
//! to running it alone on a fresh session.
//!
//! Run with: `cargo run --release --example prefix_cache`

use m2xfp_repro::nn::model::ModelBuilder;
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::nn::synth::activation_matrix;
use m2xfp_repro::serve::{run_solo, ServeConfig, Server};
use m2xfp_repro::tensor::Matrix;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let profile = ModelProfile::llama3_8b();
    let hidden = 128;
    let weights = Arc::new(
        ModelBuilder::scaled(&profile, hidden, 2)
            .build_weights()
            .expect("group-aligned dims"),
    );
    let pool = weights.kv_pool();
    let page = pool.page_tokens();

    // ── 1. N prompts sharing a two-page prefix, each with its own tail ──
    let n_requests = 6;
    let decode_steps = 8;
    let prefix = activation_matrix(&profile, 42, 2 * page, hidden).map(|v| (v * 0.25).tanh());
    let prompts: Vec<Matrix> = (0..n_requests)
        .map(|i| {
            let suffix = activation_matrix(&profile, 100 + i, 6, hidden).map(|v| (v * 0.25).tanh());
            let mut p = prefix.clone();
            p.push_rows(&suffix);
            p
        })
        .collect();
    println!(
        "{n_requests} requests share a {}-token prefix ({} KV pages of {} tokens) + distinct \
         6-token tails",
        prefix.rows(),
        prefix.rows() / page,
        page
    );

    // ── 2. Solo oracles: each request alone on a fresh session ──
    let solo: Vec<Matrix> = prompts
        .iter()
        .map(|p| run_solo(&weights, p, decode_steps).expect("solo run"))
        .collect();

    // ── 3. Serve them. The first registers the frozen prefix; the rest
    //       adopt it. Submitting the seeder alone makes adoption
    //       deterministic rather than racing the prefill. ──
    let mut server = Server::start(
        Arc::clone(&weights),
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    let t0 = Instant::now();
    let first = server
        .submit(prompts[0].clone(), decode_steps)
        .expect("submit");
    let seed_out = server
        .wait(first)
        .expect("typed outcome")
        .finished()
        .expect("no faults here");
    let ids: Vec<u64> = prompts[1..]
        .iter()
        .map(|p| server.submit(p.clone(), decode_steps).expect("submit"))
        .collect();
    // While the adopters are in flight they hold the same frozen pages —
    // the pool's shared-page gauge must see it. Poll rather than assert a
    // single racy sample: each adopter keeps its handles until it
    // finishes.
    // (`kv_pool.prefix_hits` counts adopted *pages*: two per adopter here.)
    let mut shared_seen = 0u64;
    while server.stats().kv_pool.prefix_hits < 2 * (n_requests - 1) as u64 {
        std::thread::yield_now();
    }
    shared_seen = shared_seen.max(server.stats().kv_pool.shared_pages);
    let outs: Vec<Matrix> = ids
        .iter()
        .map(|id| {
            shared_seen = shared_seen.max(server.stats().kv_pool.shared_pages);
            server
                .wait(*id)
                .expect("typed outcome")
                .finished()
                .expect("no faults here")
                .decoded
        })
        .collect();
    let wall = t0.elapsed();

    // ── 4. The checks: sharing really happened, and left no trace ──
    let stats = server.shutdown();
    assert_eq!(
        stats.kv_pool.prefix_hits,
        2 * (n_requests - 1) as u64,
        "every adopter adopts both frozen prefix pages"
    );
    assert!(
        shared_seen >= 1,
        "adopters must have held the frozen pages concurrently"
    );
    let bits_eq = |a: &Matrix, b: &Matrix| {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    };
    assert!(bits_eq(&seed_out.decoded, &solo[0]), "seeder diverged");
    for (i, out) in outs.iter().enumerate() {
        assert!(
            bits_eq(out, &solo[i + 1]),
            "adopter {i} diverged from its solo run"
        );
    }
    let ps = pool.stats();
    println!(
        "prefix index: {} hits / {} misses | pages: {} fresh allocs, {} free-list reuses, \
         {} CoW forks | peak {} in use, {} shared at peak sampling",
        ps.prefix_hits,
        ps.prefix_misses,
        ps.page_allocs,
        ps.page_reuses,
        ps.cow_clones,
        ps.peak_pages,
        shared_seen
    );
    println!(
        "all {n_requests} outputs bit-identical to solo runs ({} decode steps each) in {:.2?}",
        decode_steps, wall
    );
    assert_eq!(weights.open_sessions(), 0, "sessions leaked");
    assert_eq!(pool.stats().pages_in_use, 0, "pool pages leaked");
    println!("quiesced: 0 open sessions, 0 pool pages in use — every page back on the free list");
}
