//! A line-oriented Rust source scanner.
//!
//! Rules never look at raw source: they look at [`Line::code`], which is
//! the line with every comment removed and every string / char literal
//! hollowed out (`"…"` stays as an empty `""`), so a substring check for
//! `failpoint::fail_if(` cannot fire on prose, doc examples, or log
//! messages. The scanner also tracks brace depth and `#[cfg(test)]`
//! regions, because the rules need both.
//!
//! It is *not* a parser. It understands exactly as much Rust as the
//! rules need: line and (nested) block comments, plain and raw string
//! literals (`r"…"`, `r#"…"#`, byte variants), char literals vs
//! lifetimes, and braces. That is enough to make the rules precise on
//! this workspace while staying dependency-free.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The line with comments stripped and literal contents hollowed out.
    pub code: String,
    /// Brace depth at the start of the line.
    pub depth: usize,
    /// Is this line inside a `#[cfg(test)]` item (test module or fn)?
    pub in_test: bool,
}

/// A fully scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// The scanned lines, in order.
    pub lines: Vec<Line>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

impl SourceFile {
    /// Scan `text` into stripped lines.
    pub fn scan(text: &str) -> SourceFile {
        let bytes: Vec<char> = text.chars().collect();
        let mut lines = Vec::new();
        let mut code = String::new();
        let mut number = 1usize;
        let mut depth = 0usize;
        let mut line_start_depth = 0usize;
        let mut mode = Mode::Code;
        // `#[cfg(test)]` handling: once the attribute is seen, the next
        // brace opened at the same item level starts a test region that
        // lasts until its matching close. `recent` is a rolling window of
        // stripped code used to spot the attribute without tokenizing.
        let mut recent = String::new();
        let mut cfg_test_pending = false;
        let mut test_stack: Vec<usize> = Vec::new();
        let mut line_started_in_test = false;

        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            if c == '\n' {
                let in_test = line_started_in_test || !test_stack.is_empty();
                lines.push(Line {
                    number,
                    code: std::mem::take(&mut code),
                    depth: line_start_depth,
                    in_test,
                });
                number += 1;
                line_start_depth = depth;
                line_started_in_test = !test_stack.is_empty();
                if mode == Mode::LineComment {
                    mode = Mode::Code;
                }
                i += 1;
                continue;
            }
            match mode {
                Mode::Code => match c {
                    '/' if next == Some('/') => {
                        mode = Mode::LineComment;
                        i += 2;
                        continue;
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment(1);
                        i += 2;
                        continue;
                    }
                    '"' => {
                        mode = Mode::Str;
                        code.push('"');
                    }
                    'r' | 'b' => {
                        // Raw / byte string starts: r", r#", br", b".
                        let mut j = i + 1;
                        if c == 'b' && bytes.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let raw_ok = (c == 'r' || bytes.get(i + 1) == Some(&'r') || hashes == 0)
                            && bytes.get(j) == Some(&'"');
                        // Identifiers like `br0adcast` must not trigger:
                        // require the quote right after optional hashes,
                        // and no identifier char right before.
                        let prev_ident =
                            i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_');
                        if raw_ok && !prev_ident {
                            if c == 'b' && bytes.get(i + 1) != Some(&'r') && hashes == 0 {
                                // b"…": plain byte string.
                                code.push_str("b\"");
                                mode = Mode::Str;
                                i += 2;
                                continue;
                            }
                            code.push_str("r\"");
                            mode = Mode::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                        code.push(c);
                    }
                    '\'' => {
                        // Char literal vs lifetime: a literal is '\x', or
                        // 'c' with a closing quote two ahead.
                        let is_char = next == Some('\\')
                            || (bytes.get(i + 2) == Some(&'\'') && next.is_some_and(|n| n != '\''));
                        if is_char {
                            code.push_str("' '");
                            mode = Mode::Char;
                            i += 1;
                            continue;
                        }
                        code.push('\'');
                    }
                    '{' => {
                        if cfg_test_pending {
                            test_stack.push(depth);
                            cfg_test_pending = false;
                        }
                        depth += 1;
                        code.push('{');
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if test_stack.last() == Some(&depth) {
                            test_stack.pop();
                        }
                        code.push('}');
                    }
                    ';' => {
                        // `#[cfg(test)] mod tests;` — the gated item is an
                        // out-of-line module, nothing to bracket here.
                        cfg_test_pending = false;
                        code.push(';');
                    }
                    _ => code.push(c),
                },
                Mode::LineComment => {}
                Mode::BlockComment(n) => {
                    if c == '/' && next == Some('*') {
                        mode = Mode::BlockComment(n + 1);
                        i += 2;
                        continue;
                    }
                    if c == '*' && next == Some('/') {
                        mode = if n == 1 {
                            Mode::Code
                        } else {
                            Mode::BlockComment(n - 1)
                        };
                        i += 2;
                        continue;
                    }
                }
                Mode::Str => match c {
                    // An escape consumes the next char — except a
                    // `\<newline>` continuation, whose newline must
                    // reach the line handler above or every later
                    // line number shifts by one.
                    '\\' if next != Some('\n') => {
                        i += 2;
                        continue;
                    }
                    '"' => {
                        code.push('"');
                        mode = Mode::Code;
                    }
                    _ => {}
                },
                Mode::RawStr(hashes) => {
                    if c == '"' {
                        let mut j = i + 1;
                        let mut seen = 0u32;
                        while seen < hashes && bytes.get(j) == Some(&'#') {
                            seen += 1;
                            j += 1;
                        }
                        if seen == hashes {
                            code.push('"');
                            mode = Mode::Code;
                            i = j;
                            continue;
                        }
                    }
                }
                Mode::Char => match c {
                    '\\' => {
                        i += 2;
                        continue;
                    }
                    '\'' => mode = Mode::Code,
                    _ => {}
                },
            }
            // Track the attribute in stripped code only (mode == Code
            // pushes above), so `"cfg(test)"` in a string never matches.
            if mode == Mode::Code && c.is_ascii() {
                recent.push(c);
                if recent.len() > 32 {
                    let cut = recent.len() - 32;
                    recent.drain(..cut);
                }
                if recent.ends_with("cfg(test)") {
                    cfg_test_pending = true;
                }
            }
            i += 1;
        }
        if !code.is_empty() {
            lines.push(Line {
                number,
                code,
                depth: line_start_depth,
                in_test: line_started_in_test || !test_stack.is_empty(),
            });
        }
        SourceFile { lines }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = "let x = \"call .unwrap() here\"; // and .unwrap() there\n";
        let file = SourceFile::scan(src);
        assert_eq!(file.lines.len(), 1);
        assert_eq!(file.lines[0].code.trim(), "let x = \"\";");
    }

    #[test]
    fn raw_strings_are_hollowed_out() {
        let src = "let f = r#\"fn bad() { x.unwrap(); }\"#;\nlet y = 1;\n";
        let file = SourceFile::scan(src);
        assert!(!file.lines[0].code.contains("unwrap"));
        assert_eq!(file.lines[1].code, "let y = 1;");
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\nlet y = '\\n';\n";
        let file = SourceFile::scan(src);
        assert!(file.lines[0].code.contains("&'a str"));
        assert!(!file.lines[1].code.contains('n'));
    }

    #[test]
    fn string_continuations_keep_line_numbers_aligned() {
        // A `\`-continued string spans two source lines; the newline
        // inside it must still advance the line counter, or every
        // rule that maps scanned lines back to raw source drifts.
        let src = "let s = \"first half \\\n    second half\";\nx.unwrap();\n";
        let file = SourceFile::scan(src);
        assert_eq!(file.lines.len(), 3);
        assert_eq!(file.lines[2].number, 3);
        assert!(file.lines[2].code.contains(".unwrap()"));
        assert!(!file.lines[1].code.contains("second"));
    }

    #[test]
    fn cfg_test_regions_are_tracked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n";
        let file = SourceFile::scan(src);
        let by_line: Vec<bool> = file.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(by_line, vec![false, false, true, true, true, false]);
    }

    #[test]
    fn out_of_line_test_module_does_not_leak() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() { let x = 1; }\n";
        let file = SourceFile::scan(src);
        assert!(file.lines.iter().all(|l| !l.in_test));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let file = SourceFile::scan(src);
        assert_eq!(file.lines[0].code.trim(), "let x = 1;");
    }
}
