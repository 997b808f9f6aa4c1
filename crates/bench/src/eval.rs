//! Shared evaluation plumbing: a memoized (model, format) → measured-error
//! cache so `run_all` never repeats a W4A4 evaluation, plus the standard
//! evaluation size used by every table.

use m2x_nn::profile::ModelProfile;
use m2x_nn::propagate::{evaluate, EvalConfig, W4a4Stats};
use m2x_serve::sync::lock_poisoned;
use m2xfp::TensorQuantizer;
use std::collections::HashMap;
use std::sync::Mutex;

/// The evaluation size used by all experiment binaries (release builds).
pub fn standard_cfg() -> EvalConfig {
    EvalConfig {
        tokens: 48,
        max_k: 768,
        max_n: 384,
        layer_samples: 2,
        threads: 8,
    }
}

/// A memoizing evaluator.
#[derive(Default)]
pub struct Evaluator {
    cache: Mutex<HashMap<(String, String), W4a4Stats>>,
    cfg: Option<EvalConfig>,
}

impl Evaluator {
    /// Creates an evaluator with the standard configuration.
    pub fn new() -> Self {
        Evaluator {
            cache: Mutex::new(HashMap::new()),
            cfg: None,
        }
    }

    /// Overrides the evaluation configuration (tests use smaller sizes).
    pub fn with_cfg(cfg: EvalConfig) -> Self {
        Evaluator {
            cache: Mutex::new(HashMap::new()),
            cfg: Some(cfg),
        }
    }

    fn cfg(&self) -> EvalConfig {
        self.cfg.unwrap_or_else(standard_cfg)
    }

    /// Measured W4A4 error of `(model, format)`, memoized.
    pub fn error(&self, model: &ModelProfile, q: &dyn TensorQuantizer) -> W4a4Stats {
        let key = (model.name.to_string(), q.name());
        if let Some(hit) = lock_poisoned(&self.cache).get(&key) {
            return hit.clone();
        }
        let e = evaluate(model, q, &self.cfg());
        lock_poisoned(&self.cache).insert(key, e.clone());
        e
    }

    /// Measured NRMSE (√ of MAC-weighted output NMSE) of one layer.
    pub fn nrmse(&self, model: &ModelProfile, q: &dyn TensorQuantizer) -> f64 {
        self.error(model, q).nrmse()
    }

    /// Layer error compounded through the model's depth — the quantity the
    /// quality proxies consume (see `m2x_nn::metrics::compound_error`).
    pub fn compounded(&self, model: &ModelProfile, q: &dyn TensorQuantizer) -> f64 {
        m2x_nn::metrics::compound_error(self.nrmse(model, q), model.layers)
    }

    /// Perplexity proxy for `q` on `model` (anchored per DESIGN.md §1).
    ///
    /// # Panics
    ///
    /// Panics when the model has no published Tbl. 3 anchor.
    pub fn ppl(&self, model: &ModelProfile, q: &dyn TensorQuantizer) -> f64 {
        let anchor = m2x_nn::metrics::ppl_anchor(model.name)
            .unwrap_or_else(|| panic!("no ppl anchor for {}", model.name));
        let e0 = self.compounded(model, &m2x_baselines::MxQuantizer::mxfp4());
        let e = self.compounded(model, q);
        m2x_nn::metrics::ppl_proxy(anchor, e0, e)
    }

    /// Perplexity proxy from an externally measured error (for formats that
    /// do not fit the [`TensorQuantizer`] trait, e.g. MR-GPTQ).
    pub fn ppl_from_error(&self, model: &ModelProfile, nrmse: f64) -> f64 {
        let anchor = m2x_nn::metrics::ppl_anchor(model.name)
            .unwrap_or_else(|| panic!("no ppl anchor for {}", model.name));
        let e0 = self.compounded(model, &m2x_baselines::MxQuantizer::mxfp4());
        let e = m2x_nn::metrics::compound_error(nrmse, model.layers);
        m2x_nn::metrics::ppl_proxy(anchor, e0, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2x_baselines::MxQuantizer;

    #[test]
    fn cache_returns_identical_results() {
        let ev = Evaluator::with_cfg(EvalConfig::tiny());
        let p = ModelProfile::llama2_7b();
        let q = MxQuantizer::mxfp4();
        let a = ev.error(&p, &q);
        let b = ev.error(&p, &q);
        assert_eq!(a.mean_nmse, b.mean_nmse);
    }

    #[test]
    fn mxfp4_ppl_reproduces_anchor_exactly() {
        let ev = Evaluator::with_cfg(EvalConfig::tiny());
        let p = ModelProfile::llama2_7b();
        let ppl = ev.ppl(&p, &MxQuantizer::mxfp4());
        assert!((ppl - 7.15).abs() < 1e-9, "got {ppl}");
    }

    #[test]
    fn better_format_predicts_lower_ppl() {
        let ev = Evaluator::with_cfg(EvalConfig::tiny());
        let p = ModelProfile::llama3_8b();
        let m2 = ev.ppl(&p, &m2xfp::quantizer::M2xfpQuantizer::default());
        let mx = ev.ppl(&p, &MxQuantizer::mxfp4());
        assert!(m2 < mx, "m2xfp {m2} vs mxfp4 {mx}");
        // And above FP16.
        assert!(m2 > 6.14);
    }
}
