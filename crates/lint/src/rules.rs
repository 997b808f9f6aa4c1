//! The three rule families, layered on top of [`crate::scan`]'s stripped
//! lines.
//!
//! * **R1 hot-path allocation discipline** — a function tagged
//!   `// m2x-lint: hot` may not contain allocating constructs anywhere in
//!   its body unless the offending line carries (or is directly preceded
//!   by) `// m2x-lint: allow(alloc) <reason>`.
//! * **R2 panic discipline** — engine/gateway code outside test regions
//!   may not `unwrap()`/`expect(`/`panic!`/`todo!`/`unimplemented!`, and
//!   `.lock()` must go through a poison-tolerant helper rather than
//!   `.lock().unwrap()`. Escape hatch: `// m2x-lint: allow(panic) <reason>`.
//! * **R3 unsafe audit** — every `unsafe` keyword needs a `// SAFETY:`
//!   comment on the same line or within the three lines above it.
//!
//! Structural tracking (brace depth, `#[cfg(test)]` regions, hot-function
//! bodies) is a single forward pass over stripped lines; see
//! [`scan_file`].

use crate::scan::strip_source;
use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule family produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R1: allocation in a `// m2x-lint: hot` function.
    HotAlloc,
    /// R2: panicking construct in engine/gateway code.
    PanicDiscipline,
    /// R3: `unsafe` without an adjacent `// SAFETY:` comment.
    UnsafeSafety,
    /// Malformed or dangling `// m2x-lint:` marker.
    Marker,
    /// A file or directory the scanner could not read.
    Io,
}

impl Rule {
    /// Stable short code used in reports (`R1`..`R3`, `M`, `IO`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::HotAlloc => "R1-hot-alloc",
            Rule::PanicDiscipline => "R2-panic",
            Rule::UnsafeSafety => "R3-unsafe",
            Rule::Marker => "marker",
            Rule::Io => "io",
        }
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file findings such as io).
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.code(),
            self.message
        )
    }
}

/// Per-file rule switches, decided by the workspace walker from the path.
#[derive(Debug, Clone, Copy)]
pub struct FileOpts {
    /// Enforce R2 (panic discipline). Engine crates only; research/bench
    /// tooling and test-support paths run with this off.
    pub panic_discipline: bool,
    /// The whole file is test code (`tests/`, `benches/`, `examples/`):
    /// R1/R2 are off, but R3 (unsafe audit) still applies.
    pub test_file: bool,
}

/// Allocation patterns banned inside `// m2x-lint: hot` functions.
/// Matched against stripped code, so prose and string contents never fire.
const ALLOC_PATTERNS: &[(&str, bool)] = &[
    // (pattern, require non-ident char before)
    ("Vec::new", true),
    ("Vec::from", true),
    ("Vec::with_capacity", true),
    ("vec!", true),
    (".to_vec", false),
    (".collect(", false),
    (".collect::", false),
    ("Box::new", true),
    ("format!", true),
    ("String::new", true),
    ("String::from", true),
    (".to_string(", false),
    (".to_owned(", false),
    (".clone()", false),
];

/// Panicking constructs banned by R2 outside test code.
const PANIC_PATTERNS: &[(&str, bool)] = &[
    (".unwrap()", false),
    (".expect(", false),
    ("panic!", true),
    ("todo!", true),
    ("unimplemented!", true),
];

/// `pat` occurs in `code` with (optionally) a non-identifier char before it.
fn has_pattern(code: &str, pat: &str, boundary_before: bool) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let at = start + pos;
        if !boundary_before {
            return true;
        }
        let prev = code[..at].chars().next_back();
        if !matches!(prev, Some(c) if c.is_alphanumeric() || c == '_') {
            return true;
        }
        start = at + pat.len();
    }
    false
}

/// `unsafe` as a standalone keyword (not `unsafe_code` etc.).
fn has_unsafe_keyword(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find("unsafe") {
        let at = start + pos;
        let prev_ok = code[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let next_ok = code[at + 6..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if prev_ok && next_ok {
            return true;
        }
        start = at + 6;
    }
    false
}

/// A parsed `// m2x-lint:` marker.
#[derive(Debug, PartialEq, Eq)]
enum Marker {
    Hot,
    AllowAlloc,
    AllowPanic,
    /// Recognised prefix, bad directive or missing reason; payload is the
    /// complaint.
    Malformed(String),
}

/// Extract the `m2x-lint:` marker (if any) from a line's comment text.
///
/// A marker must *start* the comment (`// m2x-lint: ...`): prose that
/// merely mentions the grammar — docs, quoted examples — never counts.
/// Doc comments (`///`, `//!`) cannot carry markers either; their third
/// char lands in the comment text and breaks the prefix match, which is
/// intended: markers are instructions to the linter, not documentation.
fn parse_marker(comment: &str) -> Option<Marker> {
    let rest = comment.trim_start().strip_prefix("m2x-lint:")?;
    let rest = rest.trim();
    if rest == "hot" || rest.starts_with("hot ") {
        return Some(Marker::Hot);
    }
    for (prefix, ok, name) in [
        ("allow(alloc)", Marker::AllowAlloc, "allow(alloc)"),
        ("allow(panic)", Marker::AllowPanic, "allow(panic)"),
    ] {
        if let Some(reason) = rest.strip_prefix(prefix) {
            if reason.trim().is_empty() {
                return Some(Marker::Malformed(format!(
                    "`{name}` marker requires a reason: `// m2x-lint: {name} <why>`"
                )));
            }
            return Some(ok);
        }
    }
    Some(Marker::Malformed(format!(
        "unknown m2x-lint directive `{rest}` (expected `hot`, `allow(alloc) <reason>` or `allow(panic) <reason>`)"
    )))
}

/// An active structural region, closed when brace depth returns to
/// `close_depth`.
struct Region {
    kind: RegionKind,
    close_depth: usize,
}

enum RegionKind {
    /// `#[cfg(test)]` / `#[test]` item: R1/R2 are suspended inside.
    Test,
    /// Body of a `// m2x-lint: hot` function; payload is the fn name.
    Hot(String),
}

/// Scan one file's source text. `path` is used only for reporting.
pub fn scan_file(path: &Path, src: &str, opts: FileOpts) -> Vec<Finding> {
    let lines = strip_source(src);
    let mut findings = Vec::new();
    let mut regions: Vec<Region> = Vec::new();
    let mut depth = 0usize;
    // Attribute/marker state that attaches to an upcoming item.
    let mut pending_test = false;
    let mut pending_hot: Option<usize> = None; // marker line (1-based)
    let mut hot_fn_seen = false;
    let mut hot_fn_name = String::new();
    // allow(...) markers apply to their own line and the next code line.
    let mut allow_alloc_next = false;
    let mut allow_panic_next = false;

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        // --- marker parsing -------------------------------------------------
        let mut allow_alloc_here = allow_alloc_next && !line.code.trim().is_empty();
        let mut allow_panic_here = allow_panic_next && !line.code.trim().is_empty();
        if allow_alloc_here {
            allow_alloc_next = false;
        }
        if allow_panic_here {
            allow_panic_next = false;
        }
        match parse_marker(&line.comment) {
            Some(Marker::Hot) => {
                if pending_hot.is_some() {
                    findings.push(Finding {
                        file: path.to_path_buf(),
                        line: lineno,
                        rule: Rule::Marker,
                        message:
                            "dangling `m2x-lint: hot` marker: previous one never attached to a fn"
                                .into(),
                    });
                }
                pending_hot = Some(lineno);
                hot_fn_seen = false;
            }
            Some(Marker::AllowAlloc) => {
                if line.code.trim().is_empty() {
                    allow_alloc_next = true;
                } else {
                    allow_alloc_here = true;
                }
            }
            Some(Marker::AllowPanic) => {
                if line.code.trim().is_empty() {
                    allow_panic_next = true;
                } else {
                    allow_panic_here = true;
                }
            }
            Some(Marker::Malformed(msg)) => {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule: Rule::Marker,
                    message: msg,
                });
            }
            None => {}
        }

        // --- attribute / item tracking --------------------------------------
        if line.code.contains("#[cfg(test)]")
            || line.code.contains("#[cfg(all(test")
            || line.code.contains("#[cfg(any(test")
            || line.code.contains("#[test]")
        {
            pending_test = true;
        }
        if pending_hot.is_some() && !hot_fn_seen && has_pattern(&line.code, "fn ", true) {
            hot_fn_seen = true;
            hot_fn_name = fn_name_on_line(&line.code);
        }

        // --- rule state for this line ---------------------------------------
        let in_test = opts.test_file
            || regions.iter().any(|r| matches!(r.kind, RegionKind::Test))
            || pending_test;
        let hot_name = regions.iter().rev().find_map(|r| match &r.kind {
            RegionKind::Hot(name) => Some(name.clone()),
            _ => None,
        });
        // A single-line hot fn (`// m2x-lint: hot` above `fn f() { .. }`)
        // opens and closes its region mid-line; treat the fn line itself as
        // hot so nothing slips through.
        let hot_name = hot_name.or_else(|| {
            if pending_hot.is_some() && hot_fn_seen {
                Some(hot_fn_name.clone())
            } else {
                None
            }
        });

        // --- R1: allocation in hot fn ---------------------------------------
        if let Some(name) = &hot_name {
            if !in_test && !allow_alloc_here {
                for (pat, boundary) in ALLOC_PATTERNS {
                    if has_pattern(&line.code, pat, *boundary) {
                        findings.push(Finding {
                            file: path.to_path_buf(),
                            line: lineno,
                            rule: Rule::HotAlloc,
                            message: format!(
                                "allocating construct `{pat}` in hot function `{name}` (annotate `// m2x-lint: allow(alloc) <reason>` if intended)"
                            ),
                        });
                    }
                }
            }
        }

        // --- R2: panic discipline -------------------------------------------
        if opts.panic_discipline && !in_test && !allow_panic_here {
            if line.code.contains(".lock().unwrap()") || line.code.contains(".lock().expect(") {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule: Rule::PanicDiscipline,
                    message: "`.lock().unwrap()` — use the poison-tolerant helper (`lock_poisoned`-style `unwrap_or_else(PoisonError::into_inner)`)".into(),
                });
            } else {
                for (pat, boundary) in PANIC_PATTERNS {
                    if has_pattern(&line.code, pat, *boundary) {
                        findings.push(Finding {
                            file: path.to_path_buf(),
                            line: lineno,
                            rule: Rule::PanicDiscipline,
                            message: format!(
                                "panicking construct `{pat}` in engine code (return an error, or annotate `// m2x-lint: allow(panic) <reason>`)"
                            ),
                        });
                    }
                }
            }
        }

        // --- R3: unsafe audit ------------------------------------------------
        if has_unsafe_keyword(&line.code) {
            let safety_near = line.comment.contains("SAFETY")
                || lines[i.saturating_sub(3)..i]
                    .iter()
                    .any(|l| l.comment.contains("SAFETY"));
            if !safety_near {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule: Rule::UnsafeSafety,
                    message: "`unsafe` without an adjacent `// SAFETY:` comment".into(),
                });
            }
        }

        // --- brace walk: open/close regions ----------------------------------
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending_test {
                        regions.push(Region {
                            kind: RegionKind::Test,
                            close_depth: depth,
                        });
                        pending_test = false;
                    }
                    if pending_hot.is_some() && hot_fn_seen {
                        regions.push(Region {
                            kind: RegionKind::Hot(std::mem::take(&mut hot_fn_name)),
                            close_depth: depth,
                        });
                        pending_hot = None;
                        hot_fn_seen = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while regions.last().is_some_and(|r| r.close_depth >= depth) {
                        regions.pop();
                    }
                }
                ';' => {
                    // `#[cfg(test)] use ...;` / `#[cfg(test)] mod tests;`
                    // never open a brace: drop the pending attribute so it
                    // can't leak onto the next unrelated item. Same for a
                    // hot marker landing on a trait method declaration.
                    if pending_test && depth_has_no_open_pending(&regions, depth) {
                        pending_test = false;
                    }
                    if hot_fn_seen {
                        pending_hot = None;
                        hot_fn_seen = false;
                    }
                }
                _ => {}
            }
        }
    }
    if let Some(tag_line) = pending_hot {
        findings.push(Finding {
            file: path.to_path_buf(),
            line: tag_line,
            rule: Rule::Marker,
            message: "`m2x-lint: hot` marker never attached to a function body".into(),
        });
    }
    findings
}

/// `;` handling helper: pending attributes are only cancelled when we are
/// not inside a brace we just opened on this construct. With line-level
/// granularity the simple rule "cancel if no region was opened at this
/// depth" is exact enough for attribute-on-item Rust.
fn depth_has_no_open_pending(regions: &[Region], depth: usize) -> bool {
    regions.last().is_none_or(|r| r.close_depth < depth)
}

/// Best-effort fn-name extraction from a (stripped) line for messages.
fn fn_name_on_line(code: &str) -> String {
    if let Some(pos) = code.find("fn ") {
        let rest = &code[pos + 3..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            return name;
        }
    }
    "<fn>".into()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINE: FileOpts = FileOpts {
        panic_discipline: true,
        test_file: false,
    };
    const TOOLING: FileOpts = FileOpts {
        panic_discipline: false,
        test_file: false,
    };

    fn scan(src: &str, opts: FileOpts) -> Vec<Finding> {
        scan_file(Path::new("fixture.rs"), src, opts)
    }

    // ---- R1 fixtures ----

    #[test]
    fn r1_flags_alloc_in_hot_fn() {
        let src = "\
// m2x-lint: hot
fn kernel(xs: &[f32]) -> Vec<f32> {
    let out = Vec::new();
    out
}
";
        let f = scan(src, TOOLING);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotAlloc);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("kernel"));
    }

    #[test]
    fn r1_ignores_alloc_outside_hot_fn() {
        let src = "\
fn cold() -> Vec<f32> {
    let v = vec![0.0; 4];
    v.clone()
}
// m2x-lint: hot
fn hot(acc: &mut f32, xs: &[f32]) {
    for x in xs { *acc += x; }
}
fn cold_again() -> String {
    format!(\"{}\", 1)
}
";
        assert!(scan(src, TOOLING).is_empty());
    }

    #[test]
    fn r1_allow_marker_suppresses_with_reason() {
        let src = "\
// m2x-lint: hot
fn hot() {
    // m2x-lint: allow(alloc) one-off output buffer, amortised by caller
    let out = Vec::with_capacity(8);
    drop(out);
}
";
        assert!(scan(src, TOOLING).is_empty());
    }

    #[test]
    fn r1_allow_marker_without_reason_is_itself_a_finding() {
        let src = "\
// m2x-lint: hot
fn hot() {
    // m2x-lint: allow(alloc)
    let out = Vec::new();
    drop(out);
}
";
        let f = scan(src, TOOLING);
        assert!(f.iter().any(|f| f.rule == Rule::Marker), "{f:?}");
        assert!(f.iter().any(|f| f.rule == Rule::HotAlloc), "{f:?}");
    }

    #[test]
    fn r1_hot_region_ends_at_fn_close() {
        let src = "\
// m2x-lint: hot
fn hot() {
    let x = 1;
    if x > 0 {
        noop();
    }
}
fn after() -> Vec<u8> { Vec::new() }
";
        assert!(scan(src, TOOLING).is_empty());
    }

    #[test]
    fn r1_same_line_fn_body_is_covered() {
        let src = "\
// m2x-lint: hot
fn hot() { let v = vec![1]; drop(v); }
";
        let f = scan(src, TOOLING);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotAlloc);
    }

    #[test]
    fn r1_alloc_in_comment_or_string_is_ignored() {
        let src = "\
// m2x-lint: hot
fn hot() {
    // a note that says Vec::new is banned here
    let s = \"Vec::new, vec![, .clone()\";
    let _ = s;
}
";
        assert!(scan(src, TOOLING).is_empty());
    }

    #[test]
    fn dangling_hot_marker_is_reported() {
        let src = "// m2x-lint: hot\nconst X: usize = 3;\n";
        let f = scan(src, TOOLING);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::Marker);
    }

    // ---- R2 fixtures ----

    #[test]
    fn r2_flags_unwrap_expect_panic() {
        let src = "\
fn run(x: Option<u32>) -> u32 {
    let v = x.unwrap();
    let w = x.expect(\"needed\");
    if v + w == 0 { panic!(\"boom\"); }
    v
}
";
        let f = scan(src, ENGINE);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|f| f.rule == Rule::PanicDiscipline));
    }

    #[test]
    fn r2_lock_unwrap_gets_specific_message() {
        let src = "fn stats(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n";
        let f = scan(src, ENGINE);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("poison-tolerant"));
    }

    #[test]
    fn r2_unwrap_or_else_is_fine() {
        let src = "\
use std::sync::PoisonError;
fn stats(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(PoisonError::into_inner)
}
fn fallback(x: Option<u32>) -> u32 { x.unwrap_or(0) }
fn fallback2(x: Option<u32>) -> u32 { x.unwrap_or_default() }
";
        assert!(scan(src, ENGINE).is_empty());
    }

    #[test]
    fn r2_skips_cfg_test_modules() {
        let src = "\
fn engine() -> u32 { 7 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
        std::panic::catch_unwind(|| panic!(\"ok in tests\")).unwrap_err();
    }
}
";
        assert!(scan(src, ENGINE).is_empty());
    }

    #[test]
    fn r2_resumes_after_test_module_closes() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
fn engine(x: Option<u32>) -> u32 { x.unwrap() }
";
        let f = scan(src, ENGINE);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn r2_cfg_test_on_use_statement_does_not_leak() {
        let src = "\
#[cfg(test)]
use std::collections::HashMap;
fn engine(x: Option<u32>) -> u32 { x.unwrap() }
";
        let f = scan(src, ENGINE);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn r2_allow_panic_with_reason() {
        let src = "\
fn engine() {
    // m2x-lint: allow(panic) fault-injection trigger, test-only config
    panic!(\"injected\");
}
";
        assert!(scan(src, ENGINE).is_empty());
    }

    #[test]
    fn r2_off_for_tooling_crates() {
        let src = "fn main() { std::fs::read(\"x\").unwrap(); }\n";
        assert!(scan(src, TOOLING).is_empty());
    }

    // ---- R3 fixtures ----

    #[test]
    fn r3_flags_unsafe_without_safety() {
        let src = "\
fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}
";
        let f = scan(src, ENGINE);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnsafeSafety);
    }

    #[test]
    fn r3_safety_comment_satisfies() {
        let src = "\
fn peek(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}
";
        assert!(scan(src, ENGINE).is_empty());
    }

    #[test]
    fn r3_applies_even_in_test_files() {
        let opts = FileOpts {
            panic_discipline: false,
            test_file: true,
        };
        let src = "#[test]\nfn t() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let f = scan(src, opts);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnsafeSafety);
    }

    #[test]
    fn r3_forbid_unsafe_code_attr_is_not_unsafe() {
        let src = "#![forbid(unsafe_code)]\nfn f() {}\n";
        assert!(scan(src, ENGINE).is_empty());
    }

    // ---- pattern helpers ----

    #[test]
    fn boundary_check_rejects_identifier_suffixes() {
        assert!(!has_pattern("my_vec![3]", "vec!", true));
        assert!(has_pattern("vec![3]", "vec!", true));
        assert!(has_pattern("let v = vec![3];", "vec!", true));
        assert!(!has_pattern("MyVec::new()", "Vec::new", true));
        assert!(has_pattern("Vec::new()", "Vec::new", true));
        assert!(!has_unsafe_keyword("#![forbid(unsafe_code)]"));
        assert!(has_unsafe_keyword("unsafe { x }"));
        assert!(has_unsafe_keyword("pub unsafe fn f()"));
    }
}
