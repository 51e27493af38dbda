//! A line-oriented Rust source scanner for the `analyze` lint pass: a
//! small lexer that separates code from comments and string literals
//! (so tokens inside either never trip a rule), plus region analyses —
//! `#[cfg(test)]` / `#[test]` item extents and named-function body
//! extents — built on brace depth over the code channel.
//!
//! Deliberately not a full parser. Most rules read one line at a time,
//! but rustfmt splits long method chains and argument lists over
//! several lines, so a rule that must see a whole statement (the
//! `Relaxed` rule) rejoins the lines it spans. The allowlist absorbs any
//! corner the heuristics miss.

use std::collections::HashSet;

/// One source line, split into channels by the lexer.
pub struct Line {
    /// The original text (allowlist matching runs on this).
    pub raw: String,
    /// Code only: comments and string-literal contents blanked out.
    pub code: String,
    /// Comment text only (line, block, and doc comments).
    pub comment: String,
    /// Inside a `#[cfg(test)]` / `#[cfg(all(test, ..))]` / `#[test]`
    /// item, the attribute line itself included.
    pub in_test_region: bool,
}

pub struct FileScan {
    pub lines: Vec<Line>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

impl FileScan {
    pub fn new(source: &str) -> Self {
        let mut lines = lex(source);
        mark_test_regions(&mut lines);
        FileScan { lines }
    }

    /// Whether the line's code channel has the `unsafe` keyword.
    pub fn has_unsafe_token(&self, idx: usize) -> bool {
        contains_word(&self.lines[idx].code, "unsafe")
    }

    /// Line indices (0-based) inside the bodies of the named functions.
    pub fn function_body_lines(&self, names: &[&str]) -> HashSet<usize> {
        let mut out = HashSet::new();
        for (idx, line) in self.lines.iter().enumerate() {
            for at in names.iter().flat_map(|n| fn_decls(&line.code, n)) {
                if let Some(body) = self.body_from(idx, at) {
                    out.extend(body);
                }
            }
        }
        out
    }

    /// Whether a code line outside the test regions names `ident` as a
    /// whole word (comments and string literals never count).
    pub fn names(&self, ident: &str) -> bool {
        self.lines
            .iter()
            .any(|l| !l.in_test_region && contains_word(&l.code, ident))
    }

    /// The names among `names` that no line of the file declares.
    pub fn undeclared_fns<'n>(&self, names: &[&'n str]) -> Vec<&'n str> {
        names
            .iter()
            .copied()
            .filter(|n| self.lines.iter().all(|l| fn_decls(&l.code, n).is_empty()))
            .collect()
    }

    /// The lines of the function declared at column `col` of line `idx`,
    /// through its body's closing brace, or `None` for a bodyless
    /// declaration (trait method, extern): a `;` before the body's `{`
    /// and outside any `(..)` or `[..]` (an array type such as
    /// `[u8; 4]` in the signature) ends the declaration.
    fn body_from(&self, idx: usize, col: usize) -> Option<std::ops::RangeInclusive<usize>> {
        let mut depth = 0u32;
        let mut nest = 0u32;
        let mut opened = false;
        for (j, l) in self.lines.iter().enumerate().skip(idx) {
            let code = if j == idx {
                &l.code[col..]
            } else {
                &l.code[..]
            };
            for c in code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth = depth.saturating_sub(1),
                    '(' | '[' if !opened => nest += 1,
                    ')' | ']' if !opened => nest = nest.saturating_sub(1),
                    ';' if !opened && nest == 0 => return None,
                    _ => {}
                }
                if opened && depth == 0 {
                    return Some(idx..=j);
                }
            }
        }
        opened.then(|| idx..=self.lines.len() - 1)
    }
}

/// Byte offsets in `code` of every `fn name` declaration. Exact-name
/// match: `fn record(` must not claim `fn record_all(`.
fn fn_decls(code: &str, name: &str) -> Vec<usize> {
    let decl = format!("fn {name}");
    code.match_indices(&decl)
        .map(|(at, _)| at)
        .filter(|&at| matches!(code[at + decl.len()..].chars().next(), Some('(' | '<')))
        .collect()
}

/// Keyword search that respects identifier boundaries (`unsafe` must
/// not match `unsafe_code`).
fn contains_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(at) = code[start..].find(word) {
        let abs = start + at;
        let before_ok = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = !code[abs + word.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

fn lex(source: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut state = State::Normal;
    for raw in source.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        // A line comment never survives a newline.
        if state == State::LineComment {
            state = State::Normal;
        }
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Normal => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        comment.extend(&chars[i..]);
                        i = chars.len();
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        code.push('"');
                        i += 1;
                    }
                    'r' | 'b'
                        if raw_string_hashes(&chars[i..]).is_some()
                            // Identifier chars before `r"` mean this `r`
                            // is the tail of a name, not a prefix.
                            && (i == 0
                                || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')) =>
                    {
                        let hashes = raw_string_hashes(&chars[i..]).expect("checked above");
                        state = State::RawStr(hashes);
                        // Skip prefix + hashes + opening quote.
                        let prefix = chars[i..]
                            .iter()
                            .take_while(|&&c| c == 'r' || c == 'b' || c == '#')
                            .count();
                        code.push('"');
                        i += prefix + 1;
                    }
                    '\'' => {
                        // Char literal vs lifetime: a literal closes
                        // within a few chars or starts with a backslash.
                        if next == Some('\\') {
                            // Escaped char literal: consume to the
                            // closing quote.
                            code.push('\'');
                            i += 1;
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                            i += 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            code.push('\'');
                            i += 3;
                        } else {
                            // A lifetime — keep the tick, lex on.
                            code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                },
                State::LineComment => unreachable!("consumed to end of line above"),
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Normal
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                State::Str => match c {
                    '\\' => i += 2,
                    '"' => {
                        state = State::Normal;
                        code.push('"');
                        i += 1;
                    }
                    _ => i += 1,
                },
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw_string(&chars[i + 1..], hashes) {
                        state = State::Normal;
                        code.push('"');
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        lines.push(Line {
            raw: raw.to_string(),
            code,
            comment,
            in_test_region: false,
        });
    }
    lines
}

/// If `chars` starts a raw string literal (`r"`, `r#"`, `br"` …),
/// returns its hash count.
fn raw_string_hashes(chars: &[char]) -> Option<u32> {
    let mut i = 0;
    if chars.get(i) == Some(&'b') {
        i += 1;
    }
    if chars.get(i) != Some(&'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    (chars.get(i) == Some(&'"')).then_some(hashes)
}

fn closes_raw_string(after_quote: &[char], hashes: u32) -> bool {
    (0..hashes as usize).all(|k| after_quote.get(k) == Some(&'#'))
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` items: from the
/// attribute line to the close of the item's brace block. An attribute on
/// something with no block of its own (a statement, a field, `mod x;`)
/// marks through its `;`, or through the brace that closes the block
/// around it, and no further.
fn mark_test_regions(lines: &mut [Line]) {
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim().to_string();
        let is_test_attr = code.starts_with("#[cfg(test)]")
            || code.starts_with("#[cfg(all(test")
            || code.starts_with("#[test]")
            || code.starts_with("#[cfg(all(test,");
        if !is_test_attr {
            i += 1;
            continue;
        }
        // Mark from the attribute through the attached item's block.
        let mut depth = 0u32;
        let mut nest = 0u32;
        let mut opened = false;
        let mut j = i;
        'item: while j < lines.len() {
            lines[j].in_test_region = true;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' if !opened => break 'item,
                    '}' => depth -= 1,
                    '(' | '[' if !opened => nest += 1,
                    ')' | ']' if !opened => nest = nest.saturating_sub(1),
                    ';' if !opened && nest == 0 => break 'item,
                    _ => {}
                }
                if opened && depth == 0 {
                    break 'item;
                }
            }
            j += 1;
        }
        i = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_leave_the_code_channel() {
        let scan = FileScan::new(
            "let s = \"unsafe { x.unwrap() }\"; // SAFETY: not really code\n\
             /* unsafe in a block comment */ let t = 1;\n",
        );
        assert!(!scan.has_unsafe_token(0));
        assert!(!scan.lines[0].code.contains("unwrap"));
        assert!(scan.lines[0].comment.contains("SAFETY:"));
        assert!(!scan.has_unsafe_token(1));
        assert!(scan.lines[1].code.contains("let t"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let scan = FileScan::new("let s = r#\"panic!(\"inside\")\"#; f();\n");
        assert!(!scan.lines[0].code.contains("panic!"));
        assert!(scan.lines[0].code.contains("f();"));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let scan = FileScan::new("fn f<'a>(x: &'a str) -> &'a str { unsafe { g(x) } }\n");
        assert!(scan.has_unsafe_token(0));
    }

    #[test]
    fn unsafe_word_boundary() {
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(!contains_word("unsafe_code", "unsafe"));
        assert!(!contains_word("deny_unsafe", "unsafe"));
    }

    #[test]
    fn test_regions_cover_the_attached_block() {
        let scan = FileScan::new(
            "fn hot() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { assert!(true); }\n\
             }\n\
             fn also_hot() {}\n",
        );
        assert!(!scan.lines[0].in_test_region);
        assert!(scan.lines[1].in_test_region);
        assert!(scan.lines[4].in_test_region);
        assert!(scan.lines[5].in_test_region);
        assert!(!scan.lines[6].in_test_region);
    }

    #[test]
    fn a_test_attribute_on_a_statement_or_field_marks_only_it() {
        let scan = FileScan::new(
            "struct S {\n\
                 #[cfg(test)]\n\
                 count: u32,\n\
             }\n\
             fn hot(s: &S) {\n\
                 #[cfg(test)]\n\
                 s.count.fetch_add(1, Relaxed);\n\
                 let v = vec![1];\n\
                 for x in v {}\n\
             }\n",
        );
        let marked: Vec<bool> = scan.lines.iter().map(|l| l.in_test_region).collect();
        assert_eq!(
            marked,
            [false, true, true, true, false, true, true, false, false, false]
        );
    }

    #[test]
    fn function_bodies_are_located_by_name() {
        let scan = FileScan::new(
            "impl R {\n\
                 pub fn record(&self) {\n\
                     touch();\n\
                 }\n\
                 pub fn record_all(&self) {\n\
                     other();\n\
                 }\n\
             }\n",
        );
        let body = scan.function_body_lines(&["record"]);
        assert!(body.contains(&1) && body.contains(&2) && body.contains(&3));
        assert!(!body.contains(&5), "matched the wrong function by prefix");
    }

    #[test]
    fn bodyless_declaration_skips_only_itself() {
        let scan = FileScan::new(
            "trait X {\n\
                 fn foo(&self);\n\
             }\n\
             fn bar() {\n\
                 let v = vec![1];\n\
             }\n",
        );
        let body = scan.function_body_lines(&["foo", "bar"]);
        assert!(!body.contains(&1), "a bodyless declaration has no body");
        assert!(body.contains(&3) && body.contains(&4) && body.contains(&5));
        let one_line = FileScan::new("trait X { fn foo(&self); } fn bar() { let v = vec![1]; }\n");
        assert!(one_line.function_body_lines(&["foo", "bar"]).contains(&0));
        assert!(one_line.function_body_lines(&["foo"]).is_empty());
    }

    #[test]
    fn semicolon_in_a_signature_array_type_is_not_a_declaration_end() {
        let scan = FileScan::new(
            "fn rec(&self, b: [u8; 4]) {\n\
                 let v = vec![1];\n\
             }\n",
        );
        let body = scan.function_body_lines(&["rec"]);
        assert!(body.contains(&0) && body.contains(&1) && body.contains(&2));
        let one_line = FileScan::new("fn rec(&self, b: [u8; 4]) { let v = vec![1]; }\n");
        assert!(one_line.function_body_lines(&["rec"]).contains(&0));
    }

    #[test]
    fn undeclared_names_are_reported() {
        let scan = FileScan::new("fn kept() {}\nfn kept_too<T>() {}\n");
        assert_eq!(scan.undeclared_fns(&["kept", "kept_too", "gone"]), ["gone"]);
    }
}
