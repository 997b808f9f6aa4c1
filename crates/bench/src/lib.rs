//! # m2x-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (run `cargo run --release -p m2x-bench --bin <experiment>`),
//! plus the bench emitter and the CI gate over its reports.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig02_scale_error` | Fig. 2 — FP16 vs E8M0 scale rounding error |
//! | `fig03_max_preservation` | Fig. 3 — max-value preservation study |
//! | `fig04_granularity` | Fig. 4 — perplexity vs EBW across group sizes |
//! | `fig06_dse_fixed` | Fig. 6 — DSE under fixed shared scale |
//! | `fig07_dse_adaptive` | Fig. 7 — DSE with adaptive shared scale |
//! | `table2_zero_shot` | Tbl. 2 — zero-shot accuracy |
//! | `table3_perplexity` | Tbl. 3 — Wikitext perplexity vs accelerators |
//! | `table4_reasoning` | Tbl. 4 — reasoning benchmarks |
//! | `table5_area_power` | Tbl. 5 + §6.3 PE-tile areas |
//! | `table6_m2nvfp4` | Tbl. 6 — metadata on NVFP4 |
//! | `table7_algorithms` | Tbl. 7 — QuaRot/DuQuant/MR-GPTQ |
//! | `table8_scale_rules` | Tbl. 8 — shared-scale computation rules |
//! | `fig13_perf_energy` | Fig. 13 — normalized latency & energy |
//! | `headline_claims` | §1/§6 headline numbers |
//! | `ablate_clamp` | §4.4.1 bias-clamp encoding ablation |
//! | `ablate_adaptive` | §4.2.3 adaptive-scale ablation |
//! | `run_all` | everything above, into `results/` |
//! | `bench_m2xfp_json` | the bench emitter: kernels through the gateway, one JSON schema (`--profile ci\|record`) |
//! | `ci_perf_gate` | the CI gate: a `ci` report against the committed baseline, by naming rule |

pub mod e2e;
pub mod eval;
pub mod experiments;
pub mod extensions;
pub mod gateway_load;
pub mod paper;
pub mod report;
pub mod serving;
pub mod timing;
