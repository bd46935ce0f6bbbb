//! `mvcc-lint`: repo-invariant enforcement by source scanning.
//!
//! A hand-rolled line/token-level scanner (no external parser — the
//! build container is offline) that walks every `.rs` file in the
//! workspace and enforces the invariants the analysis layer depends on:
//!
//! | rule            | invariant                                                        |
//! |-----------------|------------------------------------------------------------------|
//! | `raw-lock`      | no raw `std::sync`/`parking_lot` lock construction outside the tracked shims — untracked locks are invisible to lockdep and the hb checker |
//! | `clock`         | no `Instant::now`/`SystemTime::now` outside `crates/telemetry` and bench code — wall-clock reads on the hot path broke determinism twice before PR 7 centralized them |
//! | `unwrap`        | no `.unwrap()`/`.expect()` in non-test library code — library panics tear down pipeline worker threads holding lane locks |
//! | `static-mut`    | no `static mut` anywhere — unsynchronized globals defeat both analyses |
//! | `unsafe-safety` | every `unsafe` appearance carries a `// SAFETY:` comment within five lines above |
//!
//! Before matching, each line is split into *code* and *comment* text by
//! a small state machine that strips string literals (including raw
//! strings), char literals, line comments, and nested block comments —
//! so prose that mentions `Mutex` never trips the gate, and the
//! `// SAFETY:`/escape detection reads only real comments.  A violation
//! is suppressed by `// lint: allow(<rule>)` on the same line or the
//! line directly above; every sanctioned exception is thereby visible
//! at the site it excuses.
//!
//! Context is derived from the path: files under `tests/`, `benches/`,
//! or `examples/` (and `#[cfg(test)]` regions inside library files,
//! tracked by brace counting) are *test* context; `src/bin/` and
//! `src/main.rs` are *bin* context; everything else is library.  The
//! `unwrap` rule applies to library context only; `raw-lock` and
//! `clock` to library and bin; `static-mut` and `unsafe-safety`
//! everywhere.  `vendor/`, `target/`, and `fixtures/` directories are
//! never scanned.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rule identifiers accepted by `// lint: allow(<rule>)`.
pub const RULES: [&str; 5] = ["raw-lock", "clock", "unwrap", "static-mut", "unsafe-safety"];

/// What kind of code a file (or region) is, for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Context {
    /// Non-test, non-binary library source.
    Library,
    /// Binary targets: `src/bin/*`, `src/main.rs`, `build.rs`.
    Bin,
    /// Test code: `tests/`, `benches/`, `examples/` trees.
    Test,
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the violation is in.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description with the offending excerpt.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A source line split into executable text and comment text.
#[derive(Debug, Default, Clone)]
struct LineInfo {
    code: String,
    comment: String,
}

/// Splits `source` into per-line code/comment text, stripping string
/// and char literals from the code channel.  Handles nested block
/// comments, raw strings (`r#"..."#`), byte strings, and the
/// char-literal-vs-lifetime ambiguity (`'a'` vs `'a`).
fn split_lines(source: &str) -> Vec<LineInfo> {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = LineInfo::default();
    let mut state = State::Normal;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push(' ');
                    state = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && !prev_is_ident(&cur.code)
                    && raw_str_hashes(&chars, i).is_some()
                {
                    let (hashes, skip) = raw_str_hashes(&chars, i).unwrap_or((0, 1));
                    cur.code.push(' ');
                    state = State::RawStr(hashes);
                    i += skip;
                } else if c == '\'' {
                    // Char literal or lifetime?  A literal is `'\...'`
                    // or `'X'`; anything else is a lifetime.
                    if chars.get(i + 1) == Some(&'\\') {
                        i += 2;
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                        cur.code.push(' ');
                        i += 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        cur.code.push(' ');
                        i += 3;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Skip the escaped character — except a newline
                    // (string continuation), which must stay visible to
                    // the line counter at the top of the loop or every
                    // diagnostic below it drifts up a line.
                    if chars.get(i + 1) == Some(&'\n') {
                        i += 1;
                    } else {
                        i += 2;
                    }
                } else if c == '"' {
                    state = State::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    state = State::Normal;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If position `i` (at `r`/`b`) starts a raw or byte string, returns
/// `(hash_count, chars_to_skip_to_content)`.
fn raw_str_hashes(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i + 1;
    if chars.get(i) == Some(&'b') && chars.get(j) == Some(&'r') {
        j += 1;
    } else if chars.get(i) == Some(&'b') && chars.get(j) == Some(&'"') {
        return Some((0, 2));
    }
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') && (hashes > 0 || j > i + 1 || chars.get(i) == Some(&'r')) {
        if chars.get(i) == Some(&'r') && j == i + 1 && hashes == 0 {
            return Some((0, 2));
        }
        if hashes > 0 || chars.get(i) == Some(&'b') {
            return Some((hashes, j - i + 1));
        }
    }
    None
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// True when `needle` occurs in `haystack` with no identifier character
/// on either side (so `Mutex::new(` does not match inside
/// `TrackedMutex::new(`, `Mutex` does not match inside `MutexGuard`,
/// and `unsafe` does not match inside `unsafe_code`).
fn token_match(haystack: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let needle_ends_ident = needle.chars().next_back().is_some_and(is_ident);
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !haystack[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !needle_ends_ident
            || !haystack[at + needle.len()..]
                .chars()
                .next()
                .is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// True when the comment text of `line` (or the line above) carries the
/// `lint: allow(<rule>)` escape for `rule`.
fn allowed(lines: &[LineInfo], line: usize, rule: &str) -> bool {
    let tag = format!("lint: allow({rule})");
    lines[line].comment.contains(&tag) || (line > 0 && lines[line - 1].comment.contains(&tag))
}

/// Per-line test-region flags for `#[cfg(test)]` items in library
/// files, tracked by brace counting from the attribute.
fn cfg_test_regions(lines: &[LineInfo]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut pending = false;
    let mut depth: i64 = 0;
    let mut in_region = false;
    for (idx, line) in lines.iter().enumerate() {
        if !in_region && line.code.contains("#[cfg(test)]") {
            pending = true;
        }
        if in_region || pending {
            flags[idx] = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        pending = false;
                        in_region = true;
                        depth = 1;
                    } else if in_region {
                        depth += 1;
                    }
                }
                '}' if in_region => {
                    depth -= 1;
                    if depth == 0 {
                        in_region = false;
                    }
                }
                _ => {}
            }
        }
    }
    flags
}

/// Derives the scanning [`Context`] from a file path.
pub(crate) fn context_for(path: &Path) -> Context {
    let s = path.to_string_lossy().replace('\\', "/");
    let in_tree =
        |tree: &str| s.contains(&format!("/{tree}/")) || s.starts_with(&format!("{tree}/"));
    if in_tree("tests") || in_tree("benches") || in_tree("examples") {
        return Context::Test;
    }
    if s.contains("/src/bin/") || s.ends_with("/src/main.rs") || s.ends_with("build.rs") {
        return Context::Bin;
    }
    Context::Library
}

/// True when the `clock` rule exempts this path (the telemetry crate
/// owns the clock; the bench crate measures with it).
fn clock_exempt(path: &Path) -> bool {
    let s = path.to_string_lossy().replace('\\', "/");
    s.contains("crates/telemetry/") || s.contains("crates/bench/")
}

/// Scans one file's source, returning every violation.
pub fn scan_file(path: &Path, source: &str) -> Vec<Violation> {
    let file_ctx = context_for(path);
    let lines = split_lines(source);
    let test_region = if file_ctx == Context::Library {
        cfg_test_regions(&lines)
    } else {
        vec![false; lines.len()]
    };
    let clock_ok = clock_exempt(path);
    let mut out = Vec::new();
    let mut emit = |line: usize, rule: &'static str, message: String| {
        if !allowed(&lines, line, rule) {
            out.push(Violation {
                path: path.to_path_buf(),
                line: line + 1,
                rule,
                message,
            });
        }
    };
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let ctx = if test_region[idx] {
            Context::Test
        } else {
            file_ctx
        };
        let excerpt = || code.trim().to_string();

        // static-mut and unsafe-safety apply in every context.
        if token_match(code, "static mut") {
            emit(
                idx,
                "static-mut",
                format!(
                "`static mut` is forbidden (unsynchronized global state defeats the analyses): {}",
                excerpt()
            ),
            );
        }
        if token_match(code, "unsafe") {
            let documented =
                (idx.saturating_sub(5)..=idx).any(|j| lines[j].comment.contains("SAFETY:"));
            if !documented {
                emit(
                    idx,
                    "unsafe-safety",
                    format!(
                        "`unsafe` without a `// SAFETY:` comment within five lines above: {}",
                        excerpt()
                    ),
                );
            }
        }
        if ctx == Context::Test {
            continue;
        }

        // raw-lock: library + bin.
        let raw_lock = token_match(code, "parking_lot::")
            || token_match(code, "Mutex::new(")
            || token_match(code, "RwLock::new(")
            || token_match(code, "Condvar")
            || (code.contains("std::sync::")
                && (token_match(code, "Mutex") || token_match(code, "RwLock")));
        if raw_lock {
            emit(
                idx,
                "raw-lock",
                format!(
                    "raw lock construction/import outside the tracked shims (use \
                 mvcc_analysis::lockdep::TrackedMutex/TrackedRwLock): {}",
                    excerpt()
                ),
            );
        }

        // clock: library + bin, telemetry/bench exempt.
        if !clock_ok && (token_match(code, "Instant::now") || token_match(code, "SystemTime::now"))
        {
            emit(
                idx,
                "clock",
                format!(
                    "clock read outside crates/telemetry and bench code: {}",
                    excerpt()
                ),
            );
        }

        // unwrap: library only.
        if ctx == Context::Library && (code.contains(".unwrap()") || code.contains(".expect(")) {
            emit(
                idx,
                "unwrap",
                format!(
                    "`.unwrap()`/`.expect()` in non-test library code (panics tear down \
                 worker threads holding locks): {}",
                    excerpt()
                ),
            );
        }
    }
    out
}

/// Directory names never descended into.
fn skip_dir(name: &str) -> bool {
    matches!(
        name,
        "vendor" | "target" | ".git" | "fixtures" | "node_modules" | ".github"
    )
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !skip_dir(&name) {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Scans every `.rs` file under `root` (skipping `vendor/`, `target/`,
/// `fixtures/`, and VCS metadata), returning all violations in
/// deterministic path order.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    let mut violations = Vec::new();
    for file in files {
        let source = fs::read_to_string(&file)?;
        violations.extend(scan_file(&file, &source));
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Violation> {
        scan_file(Path::new(path), src)
    }

    #[test]
    fn raw_lock_in_library_is_flagged_and_allow_escapes() {
        let v = scan(
            "crates/x/src/lib.rs",
            "use std::sync::Mutex;\nfn f() { let _m = Mutex::new(0); }\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "raw-lock"));
        let v = scan(
            "crates/x/src/lib.rs",
            "// lint: allow(raw-lock)\nuse std::sync::Mutex;\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn string_continuations_do_not_shift_line_numbers() {
        // Regression: the lexer used to consume `\` + newline as one
        // escape pair inside string literals, so every multi-line string
        // continuation above a site shifted its reported line up by one
        // — and `// lint: allow(...)` escapes stopped lining up.
        let lib = "fn f() -> &'static str {\n    \"a \\\n     b \\\n     c\"\n}\nfn g() { None::<u32>.unwrap(); }\n";
        let v = scan("crates/x/src/lib.rs", lib);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6, "{v:?}");
    }

    #[test]
    fn tracked_shims_do_not_match() {
        let v = scan(
            "crates/x/src/lib.rs",
            "fn f() { let _m = TrackedMutex::new(class, 0); }\n\
             fn g(x: &std::sync::MutexGuard<u32>) {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn comments_and_strings_never_trip_rules() {
        let v = scan(
            "crates/x/src/lib.rs",
            "// the old code used Mutex::new( and Instant::now here\n\
             /* static mut was\n   considered */\n\
             fn f() -> &'static str { \"Mutex::new( .unwrap() Instant::now\" }\n\
             fn g() -> &'static str { r#\"static mut inside raw \"quoted\" text\"# }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn clock_rule_exempts_telemetry_and_tests() {
        let src = "fn f() { let _t = Instant::now(); }\n";
        assert_eq!(scan("crates/engine/src/lib.rs", src).len(), 1);
        assert!(scan("crates/telemetry/src/clock.rs", src).is_empty());
        assert!(scan("crates/engine/tests/t.rs", src).is_empty());
        assert!(scan("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_rule_spares_tests_bins_and_cfg_test_regions() {
        let src = "fn f() { None::<u32>.unwrap(); }\n";
        assert_eq!(scan("crates/x/src/lib.rs", src).len(), 1);
        assert!(scan("crates/x/src/bin/tool.rs", src).is_empty());
        assert!(scan("crates/x/tests/t.rs", src).is_empty());
        let lib = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { None::<u32>.unwrap(); }\n}\nfn h() { None::<u32>.expect(\"x\"); }\n";
        let v = scan("crates/x/src/lib.rs", lib);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn static_mut_and_unsafe_rules_apply_everywhere() {
        let v = scan("crates/x/tests/t.rs", "static mut X: u32 = 0;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "static-mut");
        let v = scan(
            "crates/x/src/lib.rs",
            "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unsafe-safety");
        let v = scan(
            "crates/x/src/lib.rs",
            "// SAFETY: provably unreachable by the match above\nfn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let v = scan(
            "crates/x/src/lib.rs",
            "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() -> char { 'x' }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn violations_render_with_file_line_and_rule() {
        let v = scan(
            "crates/x/src/lib.rs",
            "fn f() { let _ = Instant::now(); }\n",
        );
        let rendered = v[0].to_string();
        assert!(rendered.contains("crates/x/src/lib.rs:1"), "{rendered}");
        assert!(rendered.contains("[clock]"), "{rendered}");
    }
}
