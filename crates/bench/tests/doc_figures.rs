//! The record figures that README.md and docs/ARCHITECTURE.md quote are
//! the committed record's leaves, rounded as printed: re-recording
//! `results/BENCH_m2xfp.json` without updating the docs fails here.

use m2x_gateway::json::parse;

const README: &str = include_str!("../../../README.md");
const ARCHITECTURE: &str = include_str!("../../../docs/ARCHITECTURE.md");
const RECORD: &str = include_str!("../../../results/BENCH_m2xfp.json");

/// Per document, `(text just before a figure, record leaf)`. The figure is
/// the number after that text, past spaces, line breaks, `(` and `**`.
const QUOTES: [(&str, &[(&str, &str)]); 2] = [
    (
        README,
        &[
            ("* packed qGEMM", "qgemm.speedup_1thread"),
            (
                "`qgemm.speedup_1thread`;",
                "qgemm.packed_threaded_gmac_per_s",
            ),
            ("quantize+qGEMM path", "quantize_plus_qgemm.speedup_1thread"),
            ("shape at 4096²):", "decode_kernel.gemv_melem_per_s"),
            ("through `qgemv_packed` —", "decode_kernel.speedup_gemv"),
            (
                "online activation encode:",
                "quantize_act.packed_melem_per_s",
            ),
            ("offline Sg-EM weight search:", "quantize_weights.packed_s"),
            ("integer-LUT search vs", "quantize_weights.grouped_s"),
            ("reference search (", "quantize_weights.speedup_packed"),
            ("the packed layer forward is", "e2e_model.speedup_packed"),
            ("whole-model NRMSE", "e2e_model.nrmse"),
            ("residual-stream NMSE", "e2e_model.per_layer.layer_0"),
            ("over the four layers),", "e2e_model.gmacs"),
            ("GMAC/s batched forward,", "e2e_model.decode_tokens_per_s"),
            ("completes the batch", "serve.speedup_batch"),
            ("sequential\nsessions (", "serve.decode_tok_per_s"),
            ("aggregate batched,", "serve.solo_decode_tok_per_s"),
        ],
    ),
    (
        ARCHITECTURE,
        &[
            ("4096² GEMV at", "decode_kernel.gemv_melem_per_s"),
            ("Melem/s,", "decode_kernel.speedup_gemv"),
            ("packed forward at", "e2e_model.speedup_packed"),
            ("grouped pipeline (", "e2e_model.gmacs"),
        ],
    ),
];

/// The number printed right after `anchor`, which must occur once in `doc`.
fn quoted_figure<'a>(doc: &'a str, anchor: &str) -> &'a str {
    assert_eq!(doc.matches(anchor).count(), 1, "anchor {anchor:?}");
    let rest = &doc[doc.find(anchor).unwrap() + anchor.len()..];
    let rest = rest.trim_start_matches([' ', '\n', '(', '*']);
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end].trim_end_matches('.')
}

#[test]
fn quoted_figures_match_the_record() {
    let record = parse(RECORD).expect("the committed record parses");
    for (doc, quotes) in QUOTES {
        for &(anchor, leaf) in quotes {
            let figure = quoted_figure(doc, anchor);
            let decimals = figure.split_once('.').map_or(0, |(_, frac)| frac.len());
            let value = leaf
                .split('.')
                .try_fold(&record, |v, key| v.get(key))
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("no number at {leaf}"));
            assert_eq!(
                figure,
                format!("{value:.decimals$}"),
                "the docs quote {figure} after {anchor:?}, the record's {leaf} is {value}"
            );
        }
    }
}
