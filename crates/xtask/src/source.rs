//! Lexical model of a Rust source file for the lint passes.
//!
//! The passes match *tokens in code*, so this module strips everything
//! that is not code before matching: line comments, (nested) block
//! comments, string literals (including raw strings with `#` guards),
//! and char literals. Stripped spans are replaced with spaces so byte
//! columns survive. The scanner also tracks two pieces of per-line
//! context the passes need:
//!
//! * whether the line sits inside a `#[cfg(test)]` (or `#[test]`) item,
//!   tracked by brace depth — the passes that exempt test code skip
//!   those lines;
//! * `xtask-allow: <pass>` escape-hatch comments. An allow written on a
//!   code line suppresses findings on that line; an allow on a
//!   comment-only line carries forward to the next code line (so a
//!   justification may span several comment lines).

/// One source line after lexical analysis.
#[derive(Clone, Debug)]
pub struct Line {
    /// The line exactly as written.
    pub raw: String,
    /// The line with comments and literal contents blanked out.
    pub code: String,
    /// True when the line is inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
    /// Pass names allowed (suppressed) on this line.
    pub allows: Vec<String>,
}

impl Line {
    /// Whether `pass` is suppressed on this line.
    pub fn allows(&self, pass: &str) -> bool {
        self.allows.iter().any(|a| a == pass)
    }
}

/// A fully scanned source file.
#[derive(Clone, Debug, Default)]
pub struct SourceFile {
    /// Lines in order; index + 1 is the 1-based line number.
    pub lines: Vec<Line>,
}

/// Lexer state that persists across lines.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Code,
    /// Inside `/* */`, which nests in Rust; the payload is the depth.
    BlockComment(u32),
    /// Inside a normal `"` string.
    Str,
    /// Inside a raw string closed by `"` followed by this many `#`s.
    RawStr(u32),
}

/// Scans a file into [`Line`]s.
pub fn scan(text: &str) -> SourceFile {
    let mut lines = Vec::new();
    let mut mode = Mode::Code;
    let mut depth: i64 = 0;
    // Depth at which the current test item's braces close.
    let mut test_until: Option<i64> = None;
    // A `#[cfg(test)]`/`#[test]` attribute was seen; the next `{` opens
    // the test item.
    let mut pending_test = false;
    // Allows from preceding comment-only lines.
    let mut pending_allows: Vec<String> = Vec::new();

    for raw in text.lines() {
        let mut code = String::with_capacity(raw.len());
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0;
        // Attribute + item on one line (`#[cfg(test)] mod t { .. }`):
        // arm the flag before the brace scan sees the `{`.
        let trimmed = raw.trim_start();
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[test]") {
            pending_test = true;
        }
        // Findings on the attribute line itself (and until the item
        // closes) count as test code.
        let mut in_test = test_until.is_some() || pending_test;

        while i < bytes.len() {
            let c = bytes[i];
            match mode {
                Mode::BlockComment(d) => {
                    if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        mode = Mode::BlockComment(d + 1);
                        code.push_str("  ");
                        i += 2;
                    } else if c == '*' && bytes.get(i + 1) == Some(&'/') {
                        mode = if d == 1 {
                            Mode::Code
                        } else {
                            Mode::BlockComment(d - 1)
                        };
                        code.push_str("  ");
                        i += 2;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Mode::Str => {
                    if c == '\\' {
                        code.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        mode = Mode::Code;
                        code.push('"');
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if c == '"' {
                        let h = hashes as usize;
                        let closed = (0..h).all(|k| bytes.get(i + 1 + k) == Some(&'#'));
                        if closed {
                            mode = Mode::Code;
                            code.push('"');
                            for _ in 0..h {
                                code.push(' ');
                            }
                            i += 1 + h;
                            continue;
                        }
                    }
                    code.push(' ');
                    i += 1;
                }
                Mode::Code => {
                    if c == '/' && bytes.get(i + 1) == Some(&'/') {
                        // Line comment: drop the rest of the line.
                        break;
                    } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        mode = Mode::BlockComment(1);
                        code.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        mode = Mode::Str;
                        code.push('"');
                        i += 1;
                    } else if c == 'r'
                        && !prev_is_ident(&bytes, i)
                        && raw_string_hashes(&bytes, i + 1).is_some()
                    {
                        if let Some(h) = raw_string_hashes(&bytes, i + 1) {
                            mode = Mode::RawStr(h);
                            code.push('r');
                            for _ in 0..(h as usize + 1) {
                                code.push(' ');
                            }
                            i += h as usize + 2;
                        }
                    } else if c == 'b' && bytes.get(i + 1) == Some(&'"') {
                        mode = Mode::Str;
                        code.push_str("b\"");
                        i += 2;
                    } else if c == '\'' {
                        // Char literal vs. lifetime: a literal is `'x'`
                        // or `'\...'`; a lifetime is `'ident` with no
                        // nearby closing quote.
                        if bytes.get(i + 1) == Some(&'\\') {
                            // Escaped char: skip to the closing quote.
                            let mut j = i + 2;
                            while j < bytes.len() && bytes[j] != '\'' {
                                j += 1;
                            }
                            for _ in i..=j.min(bytes.len() - 1) {
                                code.push(' ');
                            }
                            i = j + 1;
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            code.push_str("   ");
                            i += 3;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        if c == '{' {
                            if pending_test {
                                // Keep the outermost test region: a
                                // `#[test]` fn inside a `#[cfg(test)]`
                                // mod must not shrink it.
                                if test_until.is_none() {
                                    test_until = Some(depth);
                                }
                                pending_test = false;
                                in_test = true;
                            }
                            depth += 1;
                        } else if c == '}' {
                            depth -= 1;
                            if let Some(d) = test_until {
                                if depth <= d {
                                    test_until = None;
                                }
                            }
                        }
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }

        if code.contains("#[cfg(test)]") || code.contains("#[test]") {
            pending_test = true;
            in_test = true;
        } else if pending_test && test_until.is_none() && code.contains(';') {
            // `#[cfg(test)] mod tests;` — out-of-line test module; the
            // attribute does not govern the following item.
            pending_test = false;
        }

        // Allow comments live in the raw text (they are comments).
        let own_allows = parse_allows(raw);
        let code_is_blank = code.trim().is_empty();
        let mut allows = own_allows;
        if !code_is_blank {
            allows.append(&mut pending_allows);
        } else {
            // Comment/blank line: carry its allows (and any already
            // pending) forward to the next code line, but let them also
            // apply here (harmless).
            for a in &allows {
                if !pending_allows.contains(a) {
                    pending_allows.push(a.clone());
                }
            }
            allows = pending_allows.clone();
        }

        lines.push(Line {
            raw: raw.to_string(),
            code,
            in_test,
            allows,
        });
    }

    SourceFile { lines }
}

fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(bytes[i - 1])
}

/// If `bytes[start..]` is `#*"` (a raw-string opener after `r`), returns
/// the number of `#`s.
fn raw_string_hashes(bytes: &[char], start: usize) -> Option<u32> {
    let mut h = 0u32;
    let mut j = start;
    while bytes.get(j) == Some(&'#') {
        h += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&'"') {
        Some(h)
    } else {
        None
    }
}

/// Extracts pass names from an `xtask-allow: a, b` marker in a line.
fn parse_allows(raw: &str) -> Vec<String> {
    let Some(pos) = raw.find("xtask-allow:") else {
        return Vec::new();
    };
    let rest = &raw[pos + "xtask-allow:".len()..];
    let mut allows = Vec::new();
    for tok in rest.split([',', ' ', '\t']) {
        if tok.is_empty() {
            continue;
        }
        if tok.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
            allows.push(tok.to_string());
        } else {
            break; // prose after the pass list
        }
    }
    allows
}

/// The first `at` where `needle` starts at an identifier boundary and
/// the text after it, `code[at + needle.len()..]`, passes `after`.
pub fn find_ident(code: &str, needle: &str, after: impl Fn(&str) -> bool) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(needle) {
        let at = from + rel;
        let before_ok = !code[..at].chars().next_back().is_some_and(is_ident_char);
        if before_ok && after(&code[at + needle.len()..]) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// The first `at` where `needle` stands at an identifier boundary on
/// both sides.
pub fn ident_match(code: &str, needle: &str) -> Option<usize> {
    find_ident(code, needle, |rest| {
        !rest.chars().next().is_some_and(is_ident_char)
    })
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped() {
        let f = scan("let x = \"panic!\"; // panic!\nlet y = 1; /* todo! */ let z = 2;\n");
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[0].code.contains("let x ="));
        assert!(!f.lines[1].code.contains("todo!"));
        assert!(f.lines[1].code.contains("let z = 2;"));
    }

    #[test]
    fn raw_strings_and_chars_are_stripped() {
        let f = scan("let s = r#\"unwrap()\"#;\nlet c = '\"'; let l: &'static str = \"x\";\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        // The `'` of the char literal must not swallow the rest of the line.
        assert!(f.lines[1].code.contains("let l:"));
        assert!(!f.lines[1].code.contains("x\""));
    }

    #[test]
    fn multiline_block_comments_and_strings() {
        let f = scan("/* a\nunwrap()\n*/ let x = 1;\nlet s = \"a\nunwrap()\nb\"; let t = 2;\n");
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("let x = 1;"));
        assert!(!f.lines[4].code.contains("unwrap"));
        assert!(f.lines[5].code.contains("let t = 2;"));
    }

    #[test]
    fn cfg_test_blocks_are_tracked() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() {}\n";
        let f = scan(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test, "attribute line");
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test, "closing brace");
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn test_attribute_covers_following_fn() {
        let src = "#[test]\nfn t() {\n    x.unwrap();\n}\nfn real() {}\n";
        let f = scan(src);
        assert!(f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn nested_test_attr_does_not_end_outer_cfg_test_mod() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        x();\n    }\n    fn helper() { y.unwrap(); }\n}\nfn real() {}\n";
        let f = scan(src);
        assert!(f.lines[6].in_test, "helper after inner #[test] fn");
        assert!(!f.lines[8].in_test);
    }

    #[test]
    fn allow_on_same_line_and_carried_from_comment() {
        let src = "eprintln!(\"a\"); // xtask-allow: observability\n// xtask-allow: determinism — seeded upstream\n// more prose\nlet b = thread_rng();\nlet c = 0;\n";
        let f = scan(src);
        assert!(f.lines[0].allows("observability"));
        assert!(f.lines[3].allows("determinism"), "carried across comments");
        assert!(
            !f.lines[4].allows("determinism"),
            "consumed by first code line"
        );
    }

    #[test]
    fn ident_match_respects_boundaries() {
        assert!(ident_match("x.unwrap()", "unwrap").is_some());
        assert!(ident_match("x.unwrap_or(0)", "unwrap()").is_none());
        assert!(ident_match("let unwrapped = 1;", "unwrap").is_none());
        assert!(ident_match("thread_rng()", "thread_rng").is_some());
        assert!(ident_match("my_thread_rng()", "thread_rng").is_none());
    }
}
