//! Plain-text table rendering, the bench emitter's JSON tables, and
//! result persistence.
//!
//! Every experiment binary prints its tables to stdout and mirrors them to
//! `results/<experiment>.txt` so `run_all` leaves a complete record.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(line, "{:<w$}", c, w = widths[i]);
                } else {
                    let _ = write!(line, "  {:>w$}", c, w = widths[i]);
                }
            }
            line
        };
        let header_line = fmt_row(&self.header, &widths);
        out.push_str(&header_line);
        out.push('\n');
        out.push_str(&"-".repeat(header_line.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 4 significant-ish decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// A report being assembled by an experiment binary.
#[derive(Debug, Default)]
pub struct Report {
    name: String,
    body: String,
}

impl Report {
    /// Starts a report for `name` (the experiment id).
    pub fn new(name: &str, title: &str) -> Self {
        let mut r = Report {
            name: name.to_string(),
            body: String::new(),
        };
        r.line(&format!("== {title} =="));
        r.line("");
        r
    }

    /// Appends a text line.
    pub fn line(&mut self, s: &str) {
        self.body.push_str(s);
        self.body.push('\n');
    }

    /// Appends a titled table.
    pub fn table(&mut self, title: &str, t: &Table) {
        self.line(title);
        self.body.push_str(&t.render());
        self.line("");
    }

    /// Prints to stdout and writes `results/<name>.txt`. Returns the path.
    pub fn emit(&self) -> PathBuf {
        print!("{}", self.body);
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.txt", self.name));
        if let Err(e) = fs::write(&path, &self.body) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        path
    }

    /// The accumulated body (for tests).
    pub fn body(&self) -> &str {
        &self.body
    }
}

/// One value of a bench emitter report. Every section runner builds its
/// section as one (name, value) table where the values are computed, so
/// each leaf is named once; objects nest and nothing is an array, which is
/// the shape `ci_perf_gate` flattens.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A measurement this host cannot take.
    Null,
    Bool(bool),
    /// A number, rendered with the given count of decimals.
    Num(f64, usize),
    Str(&'static str),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from its (name, value) table, in table order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// JSON text, one field per line, nested objects indented two spaces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x, decimals) => {
                let _ = write!(out, "{x:.decimals$}");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{s}\"");
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (name, value)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}\n{:w$}\"{name}\": ", "", w = indent + 2);
                    value.write(out, indent + 2);
                }
                if !fields.is_empty() {
                    let _ = write!(out, "\n{:indent$}", "");
                }
                out.push('}');
            }
        }
    }

    /// Every non-object leaf with its dotted path (`serve.batch_exact`).
    pub fn leaves(&self) -> Vec<(String, &Json)> {
        let mut out = Vec::new();
        self.collect_leaves("", &mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, path: &str, out: &mut Vec<(String, &'a Json)>) {
        match self {
            Json::Obj(fields) => {
                for (name, value) in fields {
                    let key = if path.is_empty() {
                        name.clone()
                    } else {
                        format!("{path}.{name}")
                    };
                    value.collect_leaves(&key, out);
                }
            }
            leaf => out.push((path.to_string(), leaf)),
        }
    }

    /// The leaf at dotted `path`, as [`Json::leaves`] names it.
    pub fn get(&self, path: &str) -> Option<&Json> {
        self.leaves()
            .into_iter()
            .find_map(|(key, value)| (key == path).then_some(value))
    }

    /// The number at dotted `path`, if that leaf is one.
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.get(path) {
            Some(Json::Num(x, _)) => Some(*x),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<Option<bool>> for Json {
    fn from(b: Option<bool>) -> Self {
        b.map_or(Json::Null, Json::Bool)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64, 0)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64, 0)
    }
}

/// `results/` at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench -> ../../results
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

/// Asserts that a section table's leaf keys are the committed CI
/// baseline's keys for that section, in order. `ci_perf_gate` does not
/// compare advisory leaves, so this is what catches a renamed or dropped
/// one.
#[cfg(test)]
pub(crate) fn assert_baseline_keys(section: &str, table: &Json) {
    use m2x_gateway::json::{parse, Json as Parsed};
    fn keys(v: &Parsed, path: &str, out: &mut Vec<String>) {
        match v {
            Parsed::Obj(fields) => {
                for (name, v) in fields {
                    keys(v, &format!("{path}{name}."), out);
                }
            }
            _ => out.push(path.trim_end_matches('.').to_string()),
        }
    }
    let baseline = parse(include_str!("../../../results/BENCH_ci_baseline.json"))
        .expect("the committed baseline parses");
    let mut want = Vec::new();
    keys(
        baseline.get(section).expect("section in the baseline"),
        "",
        &mut want,
    );
    let got: Vec<String> = table.leaves().into_iter().map(|(k, _)| k).collect();
    assert_eq!(got, want, "`{section}` keys differ from the CI baseline's");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["Method", "LLaMA2", "LLaMA3"]);
        t.row(vec!["FP16", "5.47", "6.14"]);
        t.row(vec!["M2XFP", "5.77", "6.84"]);
        let s = t.render();
        assert!(s.contains("Method"));
        assert!(s.lines().count() == 4);
        // All data lines equal length.
        let lens: Vec<usize> = s.lines().map(|l| l.len()).collect();
        assert_eq!(lens[0], lens[2]);
        assert_eq!(lens[2], lens[3]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("test", "Test");
        r.line("hello");
        assert!(r.body().contains("== Test =="));
        assert!(r.body().contains("hello"));
    }

    #[test]
    fn json_renders_nested_tables_and_lists_leaves() {
        let j = Json::obj([
            ("bench", Json::Str("x")),
            ("cfg", Json::obj([("k", 256usize.into())])),
            ("exact", true.into()),
            ("zero_alloc", None.into()),
            ("speedup_1thread", Json::Num(8.0196, 3)),
        ]);
        assert_eq!(
            j.render(),
            "{\n  \"bench\": \"x\",\n  \"cfg\": {\n    \"k\": 256\n  },\n  \"exact\": true,\n  \
             \"zero_alloc\": null,\n  \"speedup_1thread\": 8.020\n}\n"
        );
        let keys: Vec<String> = j.leaves().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            ["bench", "cfg.k", "exact", "zero_alloc", "speedup_1thread"]
        );
        assert_eq!(j.get("cfg.k"), Some(&Json::Num(256.0, 0)));
        assert_eq!(j.num("speedup_1thread"), Some(8.0196));
        assert_eq!((j.get("cfg"), j.num("exact")), (None, None));
    }

    #[test]
    fn float_formats() {
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f4(2.0), "2.0000");
    }
}
