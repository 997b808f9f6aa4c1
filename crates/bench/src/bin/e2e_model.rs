//! Whole-model end-to-end driver — the paper's §6 setting: quantize every
//! linear of a synthetic transformer to M2XFP (threaded integer-LUT Sg-EM
//! search), then run batched inference through the engine API
//! (`QuantizedModel`), cross-check the packed kernels against the grouped
//! and f64 oracles bit for bit over the model's seven projection shapes,
//! time the prefill→decode serving loop (decode rides the appendable-plane
//! KV path: O(1) per head per step, no cache re-decode), and report
//! per-layer + whole-model throughput/NRMSE as JSON
//! (`results/BENCH_e2e_model.json`, gate-compatible schema).
//!
//! Environment:
//! * `M2X_E2E_HIDDEN` — hidden dimension (default 256; group-aligned).
//! * `M2X_E2E_LAYERS` — transformer layers (default 4).
//! * `M2X_E2E_TOKENS` — prefill batch in tokens (default 32).
//! * `M2X_E2E_DECODE` — timed decode steps (default 8).
//! * `M2X_E2E_REPS`   — measurement repetitions, best-of (default 3).

use m2x_bench::e2e::{run, E2eConfig};
use m2x_bench::report::results_dir;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let cfg = E2eConfig {
        hidden: env_usize("M2X_E2E_HIDDEN", 256),
        layers: env_usize("M2X_E2E_LAYERS", 4),
        tokens: env_usize("M2X_E2E_TOKENS", 32),
        decode_steps: env_usize("M2X_E2E_DECODE", 8),
        reps: env_usize("M2X_E2E_REPS", 3),
    };
    eprintln!(
        "e2e_model: hidden={} layers={} tokens={} decode={} reps={}",
        cfg.hidden, cfg.layers, cfg.tokens, cfg.decode_steps, cfg.reps
    );

    let r = run(cfg);
    eprintln!(
        "quantize {:.3}s ({} weight bytes) | forward_batch {:.4}s = {:.2} GMAC/s \
         | projections packed {:.6}s vs grouped {:.6}s ({:.2}x) | decode {:.1} tok/s \
         | NRMSE {:.4} | backends_exact {}",
        r.quantize_s,
        r.weight_bytes,
        r.forward_packed_s,
        r.gmacs,
        r.proj_packed_s,
        r.proj_grouped_s,
        r.speedup_packed,
        r.decode_tokens_per_s,
        r.nrmse,
        r.backends_exact,
    );
    for (i, e) in r.per_layer_nmse.iter().enumerate() {
        eprintln!("  layer {i}: residual-stream NMSE {e:.6}");
    }

    let json = r.to_json();
    println!("{json}");
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_e2e_model.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    assert!(
        r.backends_exact,
        "a packed projection diverged from the grouped or f64 oracle"
    );
}
