//! # m2x-lint — in-repo static analysis for the M2XFP engine stack
//!
//! A std-only, hand-rolled Rust source scanner (line/token level, no
//! external parser) that walks every workspace crate and enforces the
//! invariants the serving stack's correctness claims rest on:
//!
//! | rule | invariant |
//! |------|-----------|
//! | R1 `hot-alloc` | functions tagged `// m2x-lint: hot` contain no allocating constructs |
//! | R2 `panic` | engine/gateway code never `unwrap`s/`panic`s; locks are poison-tolerant |
//! | R3 `unsafe` | every `unsafe` carries an adjacent `// SAFETY:` comment |
//!
//! Run it with `cargo run -p m2x-lint` from anywhere in the workspace; it
//! exits non-zero if any finding is produced. The marker grammar and the
//! rationale for each rule are catalogued in `docs/INVARIANTS.md`.
//!
//! ## Scope policy
//!
//! *Engine crates* (`core`, `nn`, `serve`, `gateway`, `formats`, `tensor`,
//! `telemetry`, `lint` itself, and the umbrella `src/`) get all three rule
//! families.
//! *Research/tooling crates* (`bench`, `baselines`, `accel`) are exempt
//! from R2 — experiment drivers may `expect()` on their own config — but
//! still get R1 (hot tags) and R3. Test code
//! (`#[cfg(test)]` regions, `tests/`, `benches/`, `examples/` trees) is
//! exempt from R1/R2 but never from R3: unsafe in tests still needs its
//! safety argument.

pub mod rules;
pub mod scan;

pub use rules::{scan_file, FileOpts, Finding, Rule};
pub use scan::{strip_source, Line};

use std::path::{Path, PathBuf};

/// Crates whose non-test code must be panic-free (R2).
const ENGINE_CRATES: &[&str] = &[
    "core",
    "nn",
    "serve",
    "gateway",
    "formats",
    "tensor",
    "telemetry",
    "lint",
];

/// Summary of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Walk the workspace rooted at `root` and apply all rule families.
///
/// Scans `src/` plus every `crates/*/{src,tests,benches,examples}` tree.
/// Unreadable files become `Rule::Io` findings rather than panics, so the
/// linter itself honours R2.
pub fn scan_workspace(root: &Path) -> Report {
    let mut report = Report::default();
    let mut targets: Vec<(PathBuf, FileOpts)> = Vec::new();

    // Umbrella crate: engine scope (it re-exports the public API and hosts
    // the testkit used by every other crate's tests).
    collect_tree(root.join("src"), engine_opts(false), &mut targets);
    collect_tree(root.join("tests"), engine_opts(true), &mut targets);

    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        crates.sort();
        for krate in crates {
            let name = krate
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let engine = ENGINE_CRATES.contains(&name.as_str());
            collect_tree(
                krate.join("src"),
                FileOpts {
                    panic_discipline: engine,
                    test_file: false,
                },
                &mut targets,
            );
            for test_tree in ["tests", "benches", "examples"] {
                collect_tree(
                    krate.join(test_tree),
                    FileOpts {
                        panic_discipline: false,
                        test_file: true,
                    },
                    &mut targets,
                );
            }
        }
    }

    targets.sort_by(|a, b| a.0.cmp(&b.0));
    for (path, opts) in targets {
        match std::fs::read_to_string(&path) {
            Ok(src) => {
                report.files_scanned += 1;
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                report.findings.extend(scan_file(&rel, &src, opts));
            }
            Err(e) => report.findings.push(Finding {
                file: path,
                line: 0,
                rule: Rule::Io,
                message: format!("cannot read: {e}"),
            }),
        }
    }
    report
}

fn engine_opts(test_file: bool) -> FileOpts {
    FileOpts {
        panic_discipline: !test_file,
        test_file,
    }
}

/// Recursively collect `.rs` files under `dir` (silently skipped if the
/// directory does not exist — not every crate has every tree).
fn collect_tree(dir: PathBuf, opts: FileOpts, out: &mut Vec<(PathBuf, FileOpts)>) {
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_tree(p, opts, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push((p, opts));
        }
    }
}

/// Locate the workspace root: walk upward from `start` until a
/// `Cargo.toml` containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
