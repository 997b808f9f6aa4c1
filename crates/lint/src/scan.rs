//! Line-level source stripping: the scanner's front end.
//!
//! Rust source is reduced to per-line records in one pass: code with
//! comment text removed and string/char literal *contents* blanked (so
//! rule patterns never fire on prose), and the comment text itself (where
//! the `// m2x-lint:` markers and `// SAFETY:` audits live).
//!
//! The stripper is deliberately not a parser: it tracks exactly the
//! lexical state needed to answer "is this byte code, comment, or
//! literal?" — nested block comments, raw strings (`r#"..."#` at any hash
//! depth), byte strings, char literals vs lifetimes, escapes — and nothing
//! more. Everything structural (brace depth, `#[cfg(test)]` regions, hot
//! function bodies) is layered on the stripped code lines in `rules`.

/// One source line after stripping.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Source text with comments removed and literal contents blanked.
    /// String literals collapse to `""`, char literals to `' '`; structure
    /// (`.expect(`, braces, `;`) survives, prose does not.
    pub code: String,
    /// Concatenated comment text of the line (line and block comments).
    pub comment: String,
}

/// Lexical state carried across characters (and lines).
enum State {
    Code,
    LineComment,
    /// Nesting depth (Rust block comments nest).
    BlockComment(u32),
    /// Inside `"..."`; `true` while skipping one escaped char.
    Str(bool),
    /// Inside `r##"..."##`; payload is the hash count.
    RawStr(u32),
    /// Inside `'...'`; `true` while skipping one escaped char.
    CharLit(bool),
}

/// Strips `src` into per-line records. Never fails: unterminated literals
/// or comments simply run to end of input (the rules layer only sees
/// blanked text for them, which is the safe direction for a linter).
pub fn strip_source(src: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut line = Line::default();
    let mut state = State::Code;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Line comments end at the newline; every other state persists.
            if let State::LineComment = state {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                match (c, next) {
                    ('/', Some('/')) => {
                        state = State::LineComment;
                        i += 2;
                    }
                    ('/', Some('*')) => {
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    ('"', _) => {
                        state = State::Str(false);
                        i += 1;
                    }
                    ('r', Some('"' | '#')) if is_raw_string_start(&chars, i) => {
                        let mut hashes = 0u32;
                        let mut j = i + 1;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        // is_raw_string_start guarantees the quote is here.
                        state = State::RawStr(hashes);
                        i = j + 1;
                    }
                    ('b', Some('"')) => {
                        line.code.push('b');
                        state = State::Str(false);
                        i += 2;
                    }
                    ('b', Some('r')) if raw_quote_after(&chars, i + 1).is_some() => {
                        // `br"..."` / `br#"..."#` — the boundary check that
                        // guards bare `r` does not apply here; the `b` is
                        // the prefix, not an identifier tail.
                        let hashes = raw_quote_after(&chars, i + 1).unwrap_or(0);
                        line.code.push_str("br");
                        state = State::RawStr(hashes);
                        i = i + 3 + hashes as usize;
                    }
                    ('\'', _) => {
                        if is_char_literal(&chars, i) {
                            state = State::CharLit(false);
                            line.code.push_str("' ");
                            i += 1;
                        } else {
                            // A lifetime: emit the tick, stay in code.
                            line.code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        line.code.push(c);
                        i += 1;
                    }
                }
            }
            State::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                match (c, next) {
                    ('/', Some('*')) => {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    }
                    ('*', Some('/')) => {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        i += 2;
                    }
                    _ => {
                        line.comment.push(c);
                        i += 1;
                    }
                }
            }
            State::Str(escaped) => {
                if escaped {
                    state = State::Str(false);
                } else if c == '\\' {
                    state = State::Str(true);
                } else if c == '"' {
                    line.code.push_str("\"\"");
                    state = State::Code;
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    line.code.push_str("\"\"");
                    state = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
            State::CharLit(escaped) => {
                if escaped {
                    state = State::CharLit(false);
                } else if c == '\\' {
                    state = State::CharLit(true);
                } else if c == '\'' {
                    state = State::Code;
                }
                i += 1;
            }
        }
    }
    // A trailing unterminated comment: keep whatever accumulated.
    if !line.code.is_empty() || !line.comment.is_empty() {
        lines.push(line);
    }
    lines
}

/// `chars[i] == 'r'`: is this the start of a raw string literal
/// (`r"` or `r#...#"`), as opposed to an identifier ending in `r`?
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // The previous char must not be part of an identifier (e.g. `ptr"x"`
    // cannot happen, but `for r in` must not trigger on `r"` lookalikes).
    if i > 0 {
        let p = chars[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// `chars[j]` is expected to be the `r` of a `br` prefix: returns the hash
/// count if an opening `#*"` follows, i.e. this really is a raw string.
fn raw_quote_after(chars: &[char], j: usize) -> Option<u32> {
    if chars.get(j) != Some(&'r') {
        return None;
    }
    let mut hashes = 0u32;
    let mut k = j + 1;
    while chars.get(k) == Some(&'#') {
        hashes += 1;
        k += 1;
    }
    (chars.get(k) == Some(&'"')).then_some(hashes)
}

/// At a `"` inside a raw string with `hashes` hashes: does it close the
/// literal (i.e. is it followed by exactly the right number of `#`)?
fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// At a `'` in code: char literal (`'a'`, `'\n'`, `'\u{1F600}'`) vs
/// lifetime (`'a`, `'static`). A tick followed by an escape is always a
/// char literal; otherwise it is one exactly when the very next char is
/// closed by a tick right after it.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped_and_captured() {
        let lines = strip_source("let x = 1; // trailing note\n/* block */ let y = 2;\n");
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert_eq!(lines[0].comment.trim(), "trailing note");
        assert_eq!(lines[1].code.trim(), "let y = 2;");
        assert_eq!(lines[1].comment.trim(), "block");
    }

    #[test]
    fn nested_block_comments() {
        let lines = strip_source("a /* one /* two */ still */ b\n");
        assert_eq!(lines[0].code.replace(' ', ""), "ab");
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let lines = strip_source("code1 /* start\nmiddle unwrap()\nend */ code2\n");
        assert_eq!(lines[0].code.trim(), "code1");
        assert_eq!(lines[1].code, "");
        assert!(lines[1].comment.contains("unwrap"));
        assert_eq!(lines[2].code.trim(), "code2");
    }

    #[test]
    fn string_contents_are_blanked() {
        let lines = strip_source("emit(\"panic! inside a string\");\n");
        assert_eq!(lines[0].code, "emit(\"\");");
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let lines = strip_source("let s = \"a \\\" b\"; s.unwrap();\n");
        assert_eq!(lines[0].code, "let s = \"\"; s.unwrap();");
    }

    #[test]
    fn raw_strings_at_hash_depth() {
        let lines = strip_source("let s = r#\"quote \" inside\"#; done();\n");
        assert_eq!(lines[0].code, "let s = \"\"; done();");
        let lines = strip_source("let s = r\"plain raw\";\n");
        assert_eq!(lines[0].code, "let s = \"\";");
    }

    #[test]
    fn byte_and_byte_raw_strings() {
        let lines = strip_source("w(b\"bytes\"); w(br#\"raw bytes\"#);\n");
        assert_eq!(lines[0].code, "w(b\"\"); w(br\"\");");
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let lines = strip_source("fn f<'a>(x: &'a str) { let c = '\\''; let d = 'x'; }\n");
        assert!(lines[0].code.contains("fn f<'a>(x: &'a str)"));
        assert!(!lines[0].code.contains("'x'"));
        // A quote char inside a char literal must not open a string.
        let lines = strip_source("let q = '\"'; still_code();\n");
        assert!(lines[0].code.contains("still_code"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let lines = strip_source("for r in 0..n { tr\"x\"; }\n");
        // `tr"x"` parses as ident then a plain string — not a raw string.
        assert_eq!(lines[0].code, "for r in 0..n { tr\"\"; }");
    }

    #[test]
    fn multiline_string_blanks_up_to_its_closing_line() {
        let lines = strip_source("let s = \"one\ntwo\";\nafter();\n");
        assert_eq!(lines[0].code, "let s = ");
        assert_eq!(lines[1].code, "\"\";");
        assert_eq!(lines[2].code, "after();");
    }
}
