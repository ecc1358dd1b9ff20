//! Workspace invariant linter: the concurrency rules this repo used
//! to keep in prose ("poison never propagates", "no per-call thread
//! spawns", "virtual time only in the simulator"), machine-checked.
//!
//! This is a *source* linter, std-only like the rest of the offline
//! toolchain: no syn, no regex, no proc-macro expansion. It walks the
//! workspace `.rs` files through a small lexer that blanks out string
//! literals and comments (preserving byte offsets), then matches each
//! rule against the remaining code text. That is deliberately cruder
//! than a type-aware lint — and exactly crude enough: every invariant
//! below is about *which identifiers appear where*, which survives
//! lexing but not formatting games.
//!
//! # Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-raw-mutex` | `std::sync::Mutex`/`Condvar` appear only inside `xai-sync`; everything else takes `OrderedMutex`/`OrderedCondvar` so the lock hierarchy stays total |
//! | `no-lock-unwrap` | no `.lock().unwrap()` / `.lock().expect(` — poison recovery is the policy, and `lock_recover()` is the API |
//! | `no-thread-spawn` | `thread::spawn`/`thread::scope` only inside `xai-parallel` (and tests): serving paths must ride the resident pool, never spawn per call |
//! | `no-wall-clock` | `Instant::now`/`SystemTime` only in the sanctioned clock sources, bench bins and the criterion shim — protecting `SimServer`'s virtual-time determinism |
//! | `no-unbounded-retry` | a `while`/`for` header keyed on a retry/attempt identifier must reference a budget/limit binding in the same header — retry loops are bounded by construction, never by hope |
//! | `safety-comment` | every `unsafe` keyword is preceded by a `// SAFETY:` (or `# Safety` doc) comment within five lines |
//! | `no-nan-panic` | outside tests, no `partial_cmp(…)` is followed by `.unwrap()` / `.expect(` — across line breaks, as rustfmt splits a chain: a NaN makes it `None`, so a ranking panics on one (`total_cmp` or a NaN-aware order instead) |
//!
//! A violation can be waived in place with
//! `// lint:allow(<rule>): <reason>` on the offending line or the
//! line above; the reason is mandatory. Unknown rule names in an
//! allow comment are themselves diagnostics, so waivers can't rot
//! silently.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

/// The rule identifiers, in reporting order.
pub const RULES: [&str; 7] = [
    "no-raw-mutex",
    "no-lock-unwrap",
    "no-thread-spawn",
    "no-wall-clock",
    "no-unbounded-retry",
    "safety-comment",
    "no-nan-panic",
];

/// One finding: `path:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule's identifier (an entry of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation of the invariant.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A `LockClass` registration found in source, for `--list-locks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockClassDecl {
    /// The class name literal.
    pub name: String,
    /// The rank expression as written (`10`, `u32::MAX`, …).
    pub rank_text: String,
    /// Numeric rank for sorting (`u32::MAX` parses as the max).
    pub rank: u32,
    /// Workspace-relative declaring file.
    pub path: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// One source line after lexing: code with strings/comments blanked
/// to spaces (byte offsets preserved), plus the comment text.
struct LexedLine {
    code: String,
    comment: String,
}

/// Lexer state carried across lines.
enum LexState {
    /// Ordinary code.
    Normal,
    /// Inside `/* … */`, with nesting depth.
    Block(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string literal closed by `"` + this many `#`s.
    RawStr(u32),
}

/// Lexes `source` line by line, blanking string-literal and comment
/// bytes to spaces so rule matching never fires inside prose or
/// pattern text, while keeping every byte offset stable.
fn lex(source: &str) -> Vec<LexedLine> {
    let mut state = LexState::Normal;
    let mut out = Vec::new();
    for line in source.lines() {
        let bytes = line.as_bytes();
        let mut code = vec![b' '; bytes.len()];
        let mut comment = String::new();
        let mut i = 0;
        while i < bytes.len() {
            match state {
                LexState::Block(depth) => {
                    if bytes[i..].starts_with(b"*/") {
                        state = if depth > 1 {
                            LexState::Block(depth - 1)
                        } else {
                            LexState::Normal
                        };
                        i += 2;
                    } else if bytes[i..].starts_with(b"/*") {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(bytes[i] as char);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if bytes[i] == b'\\' {
                        i += 2;
                    } else if bytes[i] == b'"' {
                        state = LexState::Normal;
                        code[i] = b'"';
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if bytes[i] == b'"' {
                        let h = hashes as usize;
                        if bytes[i + 1..].len() >= h
                            && bytes[i + 1..i + 1 + h].iter().all(|&b| b == b'#')
                        {
                            state = LexState::Normal;
                            i += 1 + h;
                        } else {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
                LexState::Normal => {
                    if bytes[i..].starts_with(b"//") {
                        comment.push_str(&line[i..]);
                        break;
                    } else if bytes[i..].starts_with(b"/*") {
                        state = LexState::Block(1);
                        i += 2;
                    } else if bytes[i] == b'"' {
                        code[i] = b'"';
                        state = LexState::Str;
                        i += 1;
                    } else if bytes[i] == b'r'
                        && i + 1 < bytes.len()
                        && (bytes[i + 1] == b'"' || bytes[i + 1] == b'#')
                        && !prev_is_word(bytes, i)
                    {
                        let mut j = i + 1;
                        let mut hashes = 0u32;
                        while j < bytes.len() && bytes[j] == b'#' {
                            hashes += 1;
                            j += 1;
                        }
                        if j < bytes.len() && bytes[j] == b'"' {
                            state = LexState::RawStr(hashes);
                            i = j + 1;
                        } else {
                            // `r#ident` raw identifier, not a string.
                            code[i] = bytes[i];
                            i += 1;
                        }
                    } else if bytes[i] == b'\'' {
                        // Distinguish char literals from lifetimes:
                        // a lifetime's tick is never closed by a tick.
                        if let Some(len) = char_literal_len(&bytes[i..]) {
                            i += len;
                        } else {
                            code[i] = b'\'';
                            i += 1;
                        }
                    } else {
                        code[i] = bytes[i];
                        i += 1;
                    }
                }
            }
        }
        // An unterminated plain string at end of line was actually a
        // mismatched quote in code; Rust strings do continue across
        // lines, so keep the state.
        out.push(LexedLine {
            code: String::from_utf8_lossy(&code).into_owned(),
            comment,
        });
    }
    out
}

fn prev_is_word(bytes: &[u8], i: usize) -> bool {
    i > 0 && is_word(bytes[i - 1])
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Length of a char/byte literal starting at `bytes[0] == b'\''`, or
/// `None` if this tick starts a lifetime.
fn char_literal_len(bytes: &[u8]) -> Option<usize> {
    debug_assert_eq!(bytes.first(), Some(&b'\''));
    if bytes.len() < 3 {
        return None;
    }
    if bytes[1] == b'\\' {
        // Escaped char: find the closing tick.
        let mut j = 2;
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        return (j < bytes.len()).then_some(j + 1);
    }
    // Multi-byte UTF-8 scalar or ASCII followed by a closing tick.
    let width = match bytes[1] {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    };
    (bytes.len() > 1 + width && bytes[1 + width] == b'\'').then_some(width + 2)
}

/// Whether `needle` occurs in `hay` delimited by non-word characters
/// on both sides (so `Mutex` never fires inside `OrderedMutex` or
/// `MutexGuard`, and `unsafe` never fires inside `unsafe_code`).
fn find_word(hay: &str, needle: &str) -> bool {
    let hb = hay.as_bytes();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_word(hb[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= hb.len() || !is_word(hb[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Parses every `lint:allow(rule): reason` occurrence in a comment.
/// A malformed waiver (unknown rule, missing reason) is reported so
/// escapes cannot rot silently.
fn parse_allows(comment: &str) -> (Vec<&'static str>, Option<String>) {
    let mut allows = Vec::new();
    let mut error = None;
    let trimmed = comment.trim_start();
    // Doc comments *describe* the waiver syntax; only plain `//`
    // comments can invoke it.
    if trimmed.starts_with("///") || trimmed.starts_with("//!") {
        return (allows, error);
    }
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            error = Some("malformed lint:allow (missing `)`)".to_string());
            break;
        };
        let rule = rest[..close].trim();
        rest = &rest[close + 1..];
        match RULES.iter().find(|r| **r == rule) {
            None => error = Some(format!("lint:allow names unknown rule `{rule}`")),
            Some(r) => {
                let reason = rest
                    .strip_prefix(':')
                    .map(str::trim)
                    .filter(|s| !s.is_empty());
                if reason.is_none() {
                    error = Some(format!(
                        "lint:allow({rule}) needs a `: <reason>` justification"
                    ));
                } else {
                    allows.push(*r);
                }
            }
        }
    }
    (allows, error)
}

fn has_safety_marker(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

/// Per-file, per-rule exemptions derived from the workspace layout.
struct Exemptions {
    raw_mutex: bool,
    thread_spawn: bool,
    wall_clock: bool,
    nan_panic: bool,
}

fn path_exemptions(rel: &str) -> Exemptions {
    let p = rel.replace('\\', "/");
    // Integration tests, bench bins and the shims may spawn helper
    // threads and read wall clocks: the spawn/time invariants protect
    // *serving* paths, not harnesses.
    let tests = p.starts_with("tests/") || p.contains("/tests/");
    let harness = tests
        || p.contains("/benches/")
        || p.contains("crates/bench/")
        || p.contains("crates/criterion-shim/");
    Exemptions {
        raw_mutex: p.contains("crates/sync/"),
        thread_spawn: p.contains("crates/parallel/") || harness,
        wall_clock: harness
            || p.ends_with("crates/tpu/src/batch.rs")
            || p.ends_with("crates/serve/src/clock.rs"),
        nan_panic: tests,
    }
}

/// Whether a `partial_cmp(…)` call opening on line `idx` is followed by
/// `.unwrap()` or `.expect(` — on the same line or, as rustfmt splits a
/// method chain, a later one.
fn unwraps_a_partial_cmp(lexed: &[LexedLine], idx: usize) -> bool {
    let code = &lexed[idx].code;
    let calls = code.match_indices("partial_cmp(");
    let mut calls = calls.filter(|&(at, _)| !prev_is_word(code.as_bytes(), at));
    calls.any(|(at, call)| {
        let later = lexed[idx + 1..]
            .iter()
            .flat_map(|l| std::iter::once('\n').chain(l.code.chars()));
        let mut tail = code[at + call.len()..].chars().chain(later);
        let mut depth = 1;
        for c in tail.by_ref() {
            depth += usize::from(c == '(');
            depth -= usize::from(c == ')');
            if depth == 0 {
                break;
            }
        }
        let next: String = tail.skip_while(|c| c.is_whitespace()).take(9).collect();
        next.starts_with(".unwrap()") || next.starts_with(".expect(")
    })
}

/// Lints one file's `source`, reporting diagnostics under `rel` (the
/// workspace-relative path used both for display and for path-based
/// exemptions).
pub fn lint_source(rel: &str, source: &str) -> Vec<Diagnostic> {
    let exempt = path_exemptions(rel);
    let lexed = lex(source);
    let mut diags = Vec::new();
    // Everything from the first `#[cfg(test)]` marker to end of file
    // counts as test code: unit-test `mod tests` blocks close the
    // file in this workspace.
    let test_region_start = lexed
        .iter()
        .position(|l| l.code.contains("#[cfg(test)]"))
        .unwrap_or(usize::MAX);

    let mut pending_allows: Vec<&'static str> = Vec::new();
    for (idx, line) in lexed.iter().enumerate() {
        let lineno = idx + 1;
        let in_test = idx >= test_region_start;
        let (mut allows, allow_err) = parse_allows(&line.comment);
        if let Some(msg) = allow_err {
            diags.push(Diagnostic {
                path: rel.to_string(),
                line: lineno,
                rule: "no-lock-unwrap",
                message: msg,
            });
        }
        let comment_only = line.code.trim().is_empty();
        if comment_only {
            // A standalone allow comment waives the next code line.
            pending_allows.append(&mut allows);
            continue;
        }
        allows.append(&mut pending_allows);
        let allowed = |rule: &str| allows.contains(&rule);

        let mut report = |rule: &'static str, message: String| {
            if !allowed(rule) {
                diags.push(Diagnostic {
                    path: rel.to_string(),
                    line: lineno,
                    rule,
                    message,
                });
            }
        };

        let code = &line.code;
        if !exempt.raw_mutex && (find_word(code, "Mutex") || find_word(code, "Condvar")) {
            report(
                "no-raw-mutex",
                "std::sync primitives are confined to xai-sync; take an \
                 OrderedMutex/OrderedCondvar with a LockClass instead"
                    .to_string(),
            );
        }
        if code.contains(".lock().unwrap()") || code.contains(".lock().expect(") {
            report(
                "no-lock-unwrap",
                "panicking on poison re-propagates a crashed holder; use \
                 lock_recover() (or justify with lint:allow)"
                    .to_string(),
            );
        }
        if !exempt.thread_spawn
            && !in_test
            && (code.contains("thread::spawn") || code.contains("thread::scope"))
        {
            report(
                "no-thread-spawn",
                "serving paths ride the resident xai-parallel pool; \
                 per-call spawning breaks the zero-spawn pin"
                    .to_string(),
            );
        }
        if !exempt.wall_clock
            && !in_test
            && (code.contains("Instant::now") || find_word(code, "SystemTime"))
        {
            report(
                "no-wall-clock",
                "wall clocks live behind TimeSource/QueueTime; reading one \
                 here breaks SimServer's virtual-time determinism"
                    .to_string(),
            );
        }
        if !in_test {
            // A loop *keyed on* a retry/attempt identifier with no
            // budget/limit word in the same header retries on hope:
            // the fault layer's contract is that every retry loop is
            // bounded by construction (`FaultPlan::retry_budget`,
            // `ServeConfig::retry_budget`, a deadline…).
            let lower = code.to_lowercase();
            let loop_header = find_word(&lower, "while") || find_word(&lower, "for");
            let retry_keyed = lower.contains("retr") || lower.contains("attempt");
            let bounded = ["budget", "limit", "max", "bound", "cap", "deadline"]
                .iter()
                .any(|w| lower.contains(w));
            if loop_header && retry_keyed && !bounded {
                report(
                    "no-unbounded-retry",
                    "a retry loop must reference its budget/limit in the \
                     loop header; unbounded retry turns one fault into a \
                     livelock"
                        .to_string(),
                );
            }
        }
        if !exempt.nan_panic && !in_test && unwraps_a_partial_cmp(&lexed, idx) {
            report(
                "no-nan-panic",
                "`partial_cmp` is `None` for a NaN, so unwrapping it panics \
                 on one; order with `total_cmp` or a NaN-aware comparator"
                    .to_string(),
            );
        }
        if find_word(code, "unsafe") {
            // Accept a SAFETY marker on this line or anywhere in the
            // contiguous comment/attribute block directly above it —
            // `/// # Safety` contracts are often longer than a line.
            let mut documented = has_safety_marker(&line.comment);
            let mut j = idx;
            while !documented && j > 0 {
                j -= 1;
                let above = &lexed[j];
                let code_above = above.code.trim();
                if !code_above.is_empty() && !code_above.starts_with("#[") {
                    break;
                }
                documented = has_safety_marker(&above.comment);
            }
            if !documented {
                report(
                    "safety-comment",
                    "every `unsafe` needs a `// SAFETY:` comment (or a \
                     `# Safety` doc section) directly above it"
                        .to_string(),
                );
            }
        }
    }
    diags
}

/// Recursively collects the workspace's `.rs` files under `root`,
/// skipping build output, VCS internals and the linter's own test
/// fixtures (which exist to *fail*).
fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "lint_fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every workspace file under `root`, returning all diagnostics
/// in path order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        diags.extend(lint_source(&rel, &source));
    }
    Ok(diags)
}

/// Extracts every non-test `LockClass::new("name", rank)` declaration
/// under `root`, sorted by rank then name — the source of truth for
/// the docs' lock-hierarchy table.
pub fn collect_lock_classes(root: &Path) -> std::io::Result<Vec<LockClassDecl>> {
    let mut decls = Vec::new();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        let lexed = lex(&source);
        let test_region_start = lexed
            .iter()
            .position(|l| l.code.contains("#[cfg(test)]"))
            .unwrap_or(usize::MAX);
        for (idx, raw) in source.lines().enumerate() {
            if idx >= test_region_start {
                break;
            }
            if !lexed[idx].code.contains("LockClass::new(") {
                continue;
            }
            if let Some(decl) = parse_lock_class(raw) {
                decls.push(LockClassDecl {
                    path: rel.clone(),
                    line: idx + 1,
                    ..decl
                });
            }
        }
    }
    decls.sort_by(|a, b| a.rank.cmp(&b.rank).then_with(|| a.name.cmp(&b.name)));
    Ok(decls)
}

/// Parses `LockClass::new("name", rank)` out of a raw source line.
fn parse_lock_class(raw: &str) -> Option<LockClassDecl> {
    let after = &raw[raw.find("LockClass::new(")? + "LockClass::new(".len()..];
    let after = after.trim_start();
    let after = after.strip_prefix('"')?;
    let name_end = after.find('"')?;
    let name = after[..name_end].to_string();
    let rest = after[name_end + 1..].trim_start().strip_prefix(',')?;
    let rank_text: String = rest
        .trim_start()
        .chars()
        .take_while(|c| *c != ')')
        .collect::<String>()
        .trim()
        .to_string();
    let rank = if rank_text == "u32::MAX" {
        u32::MAX
    } else {
        rank_text.replace('_', "").parse().ok()?
    };
    Some(LockClassDecl {
        name,
        rank_text,
        rank,
        path: String::new(),
        line: 0,
    })
}

/// Renders the lock hierarchy as the markdown table embedded in
/// ARCHITECTURE.md (`xai-lint --list-locks`).
pub fn render_lock_table(decls: &[LockClassDecl]) -> String {
    let mut out = String::from("| Rank | Lock class | Declared in |\n|---:|---|---|\n");
    for d in decls {
        let rank = if d.rank == u32::MAX {
            "max".to_string()
        } else {
            d.rank.to_string()
        };
        out.push_str(&format!(
            "| {} | `{}` | `{}:{}` |\n",
            rank, d.name, d.path, d.line
        ));
    }
    out
}

/// Counts the public items of one source file: each `pub` `fn`,
/// `struct`, `enum`, `trait`, `type`, `const` or `static` outside the
/// file's `#[cfg(test)]` region. Restricted visibility (`pub(crate)`,
/// `pub(super)`), `pub mod`, `pub use` and struct fields do not count;
/// neither does anything inside a string literal or a comment.
fn count_pub_items(source: &str) -> usize {
    lex(source)
        .iter()
        .take_while(|line| !line.code.contains("#[cfg(test)]"))
        .filter(|line| {
            let mut tokens = line.code.split_whitespace();
            tokens.next() == Some("pub")
                && matches!(
                    tokens.next(),
                    Some("fn" | "struct" | "enum" | "trait" | "type" | "const" | "static")
                )
        })
        .count()
}

/// The public-item count of each product crate under `root`, as the
/// markdown table `xai-lint --list-pub` prints: one row per
/// `crates/<name>/src` tree in path order, then the total. The
/// tooling crates (`crates/bench`, `crates/lint`) and the vendored
/// `*-shim` stand-ins are not product crates and get no row.
pub fn pub_item_table(root: &Path) -> std::io::Result<String> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let mut parts = rel.split('/');
        let (Some("crates"), Some(name), Some("src")) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if matches!(name, "bench" | "lint") || name.ends_with("-shim") {
            continue;
        }
        let n = count_pub_items(&std::fs::read_to_string(&file)?);
        let krate = format!("crates/{name}");
        match counts.last_mut() {
            Some((k, total)) if *k == krate => *total += n,
            _ => counts.push((krate, n)),
        }
    }
    let mut out = String::from("| Crate | pub items |\n|---|---:|\n");
    for (krate, n) in &counts {
        out.push_str(&format!("| `{krate}` | {n} |\n"));
    }
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    out.push_str(&format!("| total | {total} |\n"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        lint_source(rel, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_ordered_code_passes() {
        let src = "use xai_sync::{LockClass, OrderedMutex};\n\
                   static C: LockClass = LockClass::new(\"x\", 1);\n\
                   fn f(m: &OrderedMutex<u32>) -> u32 { *m.lock_recover() }\n";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn raw_mutex_fires_outside_sync_only() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(rules_hit("crates/demo/src/lib.rs", src), ["no-raw-mutex"]);
        assert!(rules_hit("crates/sync/src/lib.rs", src).is_empty());
    }

    #[test]
    fn wrapper_types_do_not_trip_the_word_match() {
        let src = "fn f(g: OrderedMutexGuard<u32>, h: MutexGuardLike) {}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// the old Mutex<T> did thread::spawn at Instant::now\n\
                   /* unsafe Condvar */\n\
                   const P: &str = \".lock().unwrap()\";\n\
                   const Q: &str = r#\"SystemTime unsafe\"#;\n";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lock_unwrap_fires_and_allow_waives_with_reason() {
        let src = "fn f() { s.lock().unwrap(); }\n";
        assert_eq!(rules_hit("crates/demo/src/lib.rs", src), ["no-lock-unwrap"]);
        let waived = "// lint:allow(no-lock-unwrap): pinning poison propagation\n\
                      fn f() { s.lock().unwrap(); }\n";
        assert!(rules_hit("crates/demo/src/lib.rs", waived).is_empty());
        let same_line = "fn f() { s.lock().unwrap(); } // lint:allow(no-lock-unwrap): pin\n";
        assert!(rules_hit("crates/demo/src/lib.rs", same_line).is_empty());
    }

    #[test]
    fn allow_without_reason_or_unknown_rule_is_itself_flagged() {
        let src = "fn f() { s.lock().unwrap(); } // lint:allow(no-lock-unwrap)\n";
        let diags = lint_source("crates/demo/src/lib.rs", src);
        assert!(diags.iter().any(|d| d.message.contains("justification")));
        let src = "// lint:allow(made-up-rule): whatever\nfn f() {}\n";
        let diags = lint_source("crates/demo/src/lib.rs", src);
        assert!(diags.iter().any(|d| d.message.contains("unknown rule")));
    }

    #[test]
    fn thread_spawn_scoping() {
        let src = "fn f() { std::thread::spawn(|| ()); }\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            ["no-thread-spawn"]
        );
        assert!(rules_hit("crates/parallel/src/pool.rs", src).is_empty());
        assert!(rules_hit("crates/demo/tests/load.rs", src).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| ()); }\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", in_tests).is_empty());
    }

    #[test]
    fn wall_clock_scoping() {
        let src = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(rules_hit("crates/demo/src/lib.rs", src), ["no-wall-clock"]);
        assert!(rules_hit("crates/tpu/src/batch.rs", src).is_empty());
        assert!(rules_hit("crates/serve/src/clock.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/bin/load.rs", src).is_empty());
    }

    #[test]
    fn unbounded_retry_scoping() {
        let bad = "fn f() { while retries_left { go(); } }\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", bad),
            ["no-unbounded-retry"]
        );
        let bad_for = "fn f() { for attempt in attempts_iter() { go(); } }\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", bad_for),
            ["no-unbounded-retry"]
        );
        // A budget/limit word in the same header bounds the loop.
        let bounded = "fn f() { while retries < budget { go(); } }\n\
                       fn g() { for attempt in 0..max_attempts { go(); } }\n";
        assert!(rules_hit("crates/demo/src/lib.rs", bounded).is_empty());
        // Loops not keyed on retry identifiers never fire.
        let plain = "fn f() { while pending { go(); } loop { break; } }\n";
        assert!(rules_hit("crates/demo/src/lib.rs", plain).is_empty());
        // The waiver works like every other rule's.
        let waived = "// lint:allow(no-unbounded-retry): bounded by caller\n\
                      fn f() { while retrying() { go(); } }\n";
        assert!(rules_hit("crates/demo/src/lib.rs", waived).is_empty());
        // Test code is harness territory.
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn f() { while retrying() { go(); } }\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", in_tests).is_empty());
    }

    #[test]
    fn safety_comment_requirement() {
        let bare = "fn f() { unsafe { g() } }\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", bare),
            ["safety-comment"]
        );
        let documented = "// SAFETY: g is sound here because reasons.\n\
                          fn f() { unsafe { g() } }\n";
        assert!(rules_hit("crates/demo/src/lib.rs", documented).is_empty());
        // Lint-level identifiers never trip the keyword match.
        let attr = "#![forbid(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n";
        assert!(rules_hit("crates/demo/src/lib.rs", attr).is_empty());
    }

    #[test]
    fn nan_panic_scoping() {
        let split = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| {\n        a.partial_cmp(b)\n            .expect(\"finite\")\n    });\n}\n";
        let hits = lint_source("crates/demo/src/lib.rs", split);
        assert_eq!(
            hits.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
            [("no-nan-panic", 3)]
        );
        let one_line = "fn f(a: f64, b: f64) { a.partial_cmp(&(b + 1.0)).unwrap(); }\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", one_line),
            ["no-nan-panic"]
        );
        // A fallback for `None` never panics; nor does a total order.
        let handled =
            "fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap_or(Equal); a.total_cmp(&b); }\n";
        assert!(rules_hit("crates/demo/src/lib.rs", handled).is_empty());
        let other_name = "fn f(a: Key, b: Key) { a.key_partial_cmp(&b).unwrap(); }\n";
        assert!(rules_hit("crates/demo/src/lib.rs", other_name).is_empty());
        assert!(rules_hit("crates/demo/tests/load.rs", one_line).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{one_line}}}\n");
        assert!(rules_hit("crates/demo/src/lib.rs", &in_tests).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_lex_cleanly() {
        let src = "fn f<'a>(x: &'a str) -> char { let q = '\"'; let t = '\\''; q }\n\
                   fn g() { s.lock().unwrap(); }\n";
        assert_eq!(rules_hit("crates/demo/src/lib.rs", src), ["no-lock-unwrap"]);
    }

    #[test]
    fn lock_class_table_extraction() {
        let decl = parse_lock_class("static A: LockClass = LockClass::new(\"serve::state\", 10);")
            .expect("parses");
        assert_eq!(decl.name, "serve::state");
        assert_eq!(decl.rank, 10);
        let max = parse_lock_class("LockClass::new(\"sync::scratch\", u32::MAX);").expect("parses");
        assert_eq!(max.rank, u32::MAX);
        let table = render_lock_table(&[LockClassDecl {
            name: "a".into(),
            rank_text: "1".into(),
            rank: 1,
            path: "x.rs".into(),
            line: 3,
        }]);
        assert!(table.contains("| 1 | `a` | `x.rs:3` |"));
    }
}
