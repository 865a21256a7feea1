//! `cargo xtask` — workspace invariant lints.
//!
//! `cargo xtask lint` enforces the structural rules the concurrency core's
//! correctness argument depends on but the compiler cannot check:
//!
//! 1. **`unsafe` stays where it is audited.** Only the allowlisted files
//!    (`crates/concurrent/src/rcu.rs`, `crates/common/src/prefetch.rs`)
//!    may contain `unsafe`; every other crate root must carry
//!    `#![forbid(unsafe_code)]` (the two crates owning allowlisted files
//!    carry `#![deny(unsafe_code)]` with a per-module allow instead).
//! 2. **Every `unsafe` site is justified.** Each `unsafe` block/impl must
//!    be immediately preceded by a `// SAFETY:` comment.
//! 3. **Synchronization goes through the shims.** No file outside
//!    `crates/common/src/sync.rs` and `crates/check/` may name
//!    `std::sync::atomic` or `parking_lot` directly — otherwise the model
//!    checker silently loses sight of those operations.
//! 4. **Write-ahead ordering is textual.** Inside any one function body, no
//!    `DurabilitySink` call (`.log_write(`, `.log_writes(`,
//!    `.checkpoint(`, `.replace_shards(`) may appear after a snapshot
//!    publication (`.publish(`) — the durability contract is "durable
//!    before published", and a sink call textually after the publish is
//!    almost certainly a write acknowledged to readers before it could be
//!    recovered.
//! 5. **No libm rounding on a lookup path.** Non-test code of the index
//!    crates (`crates/{lipp,alex,sali,pgm,btree}/src`), of the model modules
//!    (`csv_common::{linear,quadratic,pla}`) and of the overlay map every
//!    served lookup probes (`csv_concurrent::pmap`) may not call `.round()`,
//!    `.floor()`, `.ceil()` or `.trunc()`: on the portable x86-64 baseline
//!    each is a call into libm through the PLT, and `round` cost a quarter
//!    of every lookup unnoticed for thirteen PRs. Slots come from
//!    `csv_common::linear::round_to_slot`, sizes from `ceil_to_usize`.
//!
//! The linter is deliberately text-based (the offline container has no
//! `syn`): comments and string literals are masked out before scanning, so
//! the rules see only code, and line numbers stay exact.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files allowed to contain `unsafe` (workspace-relative, `/`-separated).
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/concurrent/src/rcu.rs",
    "crates/common/src/prefetch.rs",
];

/// Files (or directory prefixes) allowed to name `std::sync::atomic` /
/// `parking_lot` directly: the sync shims themselves and the model
/// checker under them.
const SYNC_ALLOWLIST: &[&str] = &["crates/common/src/sync.rs", "crates/check/"];

/// Crates whose root carries `#![deny(unsafe_code)]` + a scoped module
/// allow instead of the blanket forbid, because they own an allowlisted
/// unsafe file.
const DENY_CRATES: &[&str] = &["crates/common/", "crates/concurrent/"];

/// The publication call that ends a function's right to touch the sink.
const PUBLISH_CALL: &str = ".publish(";

/// `DurabilitySink` call sites (method-call syntax, so trait *definitions*
/// and similarly named free functions don't match).
const SINK_CALLS: &[&str] = &[
    ".log_write(",
    ".log_writes(",
    ".checkpoint(",
    ".replace_shards(",
];

/// Files (or directory prefixes) whose non-test code may not call a libm
/// rounding function: everything a point lookup or a node build runs.
const NO_LIBM_ROUNDING: &[&str] = &[
    "crates/lipp/src/",
    "crates/alex/src/",
    "crates/sali/src/",
    "crates/pgm/src/",
    "crates/btree/src/",
    "crates/common/src/linear.rs",
    "crates/common/src/quadratic.rs",
    "crates/common/src/pla.rs",
    "crates/concurrent/src/pmap.rs",
];

/// The float methods that lower to libm calls on baseline x86-64.
const LIBM_ROUNDING_CALLS: &[&str] = &[".round()", ".floor()", ".ceil()", ".trunc()"];

#[derive(Debug, PartialEq, Eq)]
struct Violation {
    path: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Replaces the contents of comments, string literals and char literals
/// with spaces (newlines preserved), so scans see code only and byte
/// offsets / line numbers stay exact.
fn mask_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                // Ordinary string: skip to the unescaped closing quote.
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        out[i] = b' ';
                        i += 1;
                        if i < bytes.len() && bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                        continue;
                    }
                    if bytes[i] != b'\n' {
                        out[i] = b' ';
                    }
                    i += 1;
                }
                i += 1;
            }
            b'r' if bytes.get(i + 1) == Some(&b'"') || bytes.get(i + 1) == Some(&b'#') => {
                // Raw string r"..." / r#"..."# / r##"..."##.
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0usize;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    j += 1;
                    'raw: while j < bytes.len() {
                        if bytes[j] == b'"' {
                            let mut k = j + 1;
                            let mut closing = 0usize;
                            while bytes.get(k) == Some(&b'#') && closing < hashes {
                                closing += 1;
                                k += 1;
                            }
                            if closing == hashes {
                                j = k;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    for slot in out.iter_mut().take(j).skip(start) {
                        if *slot != b'\n' {
                            *slot = b' ';
                        }
                    }
                    i = j;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes ('x', '\n', '\u{...}'); a lifetime never closes.
                let mut j = i + 1;
                if bytes.get(j) == Some(&b'\\') {
                    j += 2;
                    while j < bytes.len() && bytes[j] != b'\'' && j - i < 12 {
                        j += 1;
                    }
                } else {
                    // One (possibly multi-byte) character.
                    j += 1;
                    while j < bytes.len() && bytes[j] & 0xC0 == 0x80 {
                        j += 1;
                    }
                }
                if bytes.get(j) == Some(&b'\'') {
                    for slot in out.iter_mut().take(j + 1).skip(i) {
                        if *slot != b'\n' {
                            *slot = b' ';
                        }
                    }
                    i = j + 1;
                } else {
                    i += 1; // a lifetime; leave it
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("masking only writes ASCII spaces over valid UTF-8")
}

fn line_of(src: &str, offset: usize) -> usize {
    src[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

/// Byte offsets of every match of `needle` in `haystack` that is not
/// immediately surrounded by identifier characters (a crude word
/// boundary).
fn word_matches(haystack: &str, needle: &str) -> Vec<usize> {
    let ident = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    let bytes = haystack.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !ident(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

/// Whether the contiguous `//` comment block directly above `line`
/// (1-indexed) contains a `SAFETY:` marker.
fn has_safety_comment_above(src: &str, line: usize) -> bool {
    let lines: Vec<&str> = src.lines().collect();
    let mut idx = line.saturating_sub(1); // 0-indexed line of the unsafe
    while idx > 0 {
        let above = lines[idx - 1].trim_start();
        if above.starts_with("//") {
            if above.contains("SAFETY:") {
                return true;
            }
            idx -= 1;
        } else {
            return false;
        }
    }
    false
}

/// Is this file one of the given workspace-relative allowlist entries (a
/// trailing-`/` entry allowlists the whole directory)?
fn allowlisted(rel_path: &str, allowlist: &[&str]) -> bool {
    allowlist.iter().any(|entry| {
        if entry.ends_with('/') {
            rel_path.starts_with(entry)
        } else {
            rel_path == *entry
        }
    })
}

/// Whether `rel_path` is a crate target root (where `#![forbid]` lives).
fn is_target_root(rel_path: &str) -> bool {
    rel_path.ends_with("/src/lib.rs")
        || rel_path.ends_with("/src/main.rs")
        || (rel_path.contains("/src/bin/") && rel_path.ends_with(".rs"))
}

/// Extracts the byte ranges of every `fn` body in masked source: from the
/// `{` that opens the body to its matching `}`.
fn fn_body_ranges(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut ranges = Vec::new();
    for at in word_matches(masked, "fn") {
        // The body opens at the first `{` after the signature (no
        // signature in this workspace puts a `{` ahead of the body).
        let Some(open_rel) = masked[at..].find('{') else {
            continue;
        };
        let open = at + open_rel;
        let mut depth = 0usize;
        let mut end = None;
        for (i, &b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(end) = end {
            ranges.push((open, end));
        }
    }
    ranges
}

/// Byte ranges of the items under a `#[cfg(test)]` attribute in masked
/// source: from the attribute to the `}` closing the item's first brace
/// block (a `mod tests { … }` or a single test-only fn), or to the `;` of
/// an item that has no block (`mod reference;`, a `use`) — a `;` outside
/// every bracket, so that `fn f() -> [u8; 4] { … }` is covered whole.
fn cfg_test_ranges(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut ranges = Vec::new();
    for (at, _) in masked.match_indices("#[cfg(test)]") {
        let mut depth = 0usize;
        for (i, &b) in bytes.iter().enumerate().skip(at) {
            match b {
                b';' if depth == 0 => {
                    ranges.push((at, i));
                    break;
                }
                b'{' | b'[' | b'(' => depth += 1,
                b']' | b')' => depth = depth.saturating_sub(1),
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        ranges.push((at, i));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    ranges
}

/// Lints one file's source. `rel_path` is workspace-relative with `/`
/// separators.
fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    let masked = mask_comments_and_strings(src);

    // Rules 1 + 2: unsafe containment and SAFETY justification.
    for at in word_matches(&masked, "unsafe") {
        let line = line_of(&masked, at);
        if !allowlisted(rel_path, UNSAFE_ALLOWLIST) {
            violations.push(Violation {
                path: rel_path.to_string(),
                line,
                rule: "unsafe-allowlist",
                message: "`unsafe` outside the audited allowlist (rcu.rs, prefetch.rs)".into(),
            });
        }
        if !has_safety_comment_above(src, line) {
            violations.push(Violation {
                path: rel_path.to_string(),
                line,
                rule: "safety-comment",
                message: "`unsafe` site without a `// SAFETY:` comment directly above".into(),
            });
        }
    }

    // Rule 3: synchronization primitives only via the shims.
    if !allowlisted(rel_path, SYNC_ALLOWLIST) {
        for needle in ["std::sync::atomic", "core::sync::atomic", "parking_lot"] {
            for at in word_matches(&masked, needle) {
                violations.push(Violation {
                    path: rel_path.to_string(),
                    line: line_of(&masked, at),
                    rule: "sync-shims",
                    message: format!(
                        "direct `{needle}` use; import from `csv_common::sync` so the model \
                         checker sees the operation"
                    ),
                });
            }
        }
    }

    // Rule 1 (root half): unsafe hygiene attributes on crate roots.
    if is_target_root(rel_path) {
        let denying = DENY_CRATES.iter().any(|c| rel_path.starts_with(c));
        let required = if denying {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        if !masked.contains(required) {
            violations.push(Violation {
                path: rel_path.to_string(),
                line: 1,
                rule: "unsafe-attr",
                message: format!("crate root is missing `{required}`"),
            });
        }
    }

    // Rule 4: no sink calls after a publication in the same fn body.
    for (open, end) in fn_body_ranges(&masked) {
        let body = &masked[open..end];
        let Some(first_publish) = body.find(PUBLISH_CALL) else {
            continue;
        };
        for call in SINK_CALLS {
            for (i, _) in body.match_indices(*call) {
                if i > first_publish {
                    violations.push(Violation {
                        path: rel_path.to_string(),
                        line: line_of(&masked, open + i),
                        rule: "publish-ordering",
                        message: format!(
                            "`{call}` after a publication in the same fn body: sink calls \
                             must complete before the snapshot publishes (write-ahead)"
                        ),
                    });
                }
            }
        }
    }

    // Rule 5: no libm rounding in the non-test code of a lookup path.
    if allowlisted(rel_path, NO_LIBM_ROUNDING) {
        let test_code = cfg_test_ranges(&masked);
        for call in LIBM_ROUNDING_CALLS {
            for (at, _) in masked.match_indices(*call) {
                if test_code.iter().any(|&(from, to)| from <= at && at <= to) {
                    continue;
                }
                violations.push(Violation {
                    path: rel_path.to_string(),
                    line: line_of(&masked, at),
                    rule: "libm-rounding",
                    message: format!(
                        "`{call}` is a libm call on baseline x86-64; use \
                         `csv_common::linear::{{round_to_slot, ceil_to_usize}}` or a truncating cast"
                    ),
                });
            }
        }
    }

    violations
}

/// Recursively collects `.rs` files under `dir` (skipping `target/`).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `<root>/crates` (vendored stubs under
/// `<root>/vendor` are third-party API shims, not workspace code).
fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut violations = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .expect("collected under root")
            .to_string_lossy()
            .replace('\\', "/");
        violations.extend(lint_source(&rel, &src));
    }
    Ok(violations)
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1);
    match mode.as_deref() {
        Some("lint") => {
            let violations = match lint_workspace(&workspace_root()) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("xtask lint: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if violations.is_empty() {
                println!("xtask lint: workspace clean");
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn masking_hides_comments_strings_and_chars_but_keeps_lines() {
        let src = "let a = \"unsafe\"; // unsafe here\nlet b = 'x'; /* unsafe\nstill */ let c = r#\"unsafe\"#;\n";
        let masked = mask_comments_and_strings(src);
        assert_eq!(masked.lines().count(), src.lines().count());
        assert!(!masked.contains("unsafe"));
        assert!(masked.contains("let a"));
        assert!(masked.contains("let c"));
    }

    #[test]
    fn masking_leaves_lifetimes_alone() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        assert_eq!(mask_comments_and_strings(src), src);
    }

    #[test]
    fn unsafe_outside_the_allowlist_is_flagged() {
        let src = "// SAFETY: justified\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let violations = lint_source("crates/core/src/smooth.rs", src);
        assert_eq!(rules(&violations), vec!["unsafe-allowlist"]);
        // The same source in an allowlisted file is clean.
        assert!(lint_source("crates/concurrent/src/rcu.rs", src).is_empty());
    }

    #[test]
    fn unsafe_without_a_safety_comment_is_flagged_even_in_the_allowlist() {
        let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let violations = lint_source("crates/concurrent/src/rcu.rs", src);
        assert_eq!(rules(&violations), vec!["safety-comment"]);
    }

    #[test]
    fn the_word_unsafe_in_comments_and_strings_does_not_count() {
        let src = "// this code is unsafe in spirit\nlet s = \"unsafe\";\n";
        assert!(lint_source("crates/core/src/lib.rs", src)
            .iter()
            .all(|v| v.rule == "unsafe-attr"));
    }

    #[test]
    fn direct_atomic_and_parking_lot_imports_are_flagged() {
        let src = "use std::sync::atomic::AtomicUsize;\nuse parking_lot::Mutex;\n";
        let violations = lint_source("crates/core/src/smooth.rs", src);
        assert_eq!(rules(&violations), vec!["sync-shims", "sync-shims"]);
        // The shims themselves and the checker may.
        assert!(lint_source("crates/common/src/sync.rs", src).is_empty());
        assert!(lint_source("crates/check/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn crate_roots_must_carry_the_unsafe_attr() {
        let bare = "pub mod a;\n";
        let violations = lint_source("crates/core/src/lib.rs", bare);
        assert_eq!(rules(&violations), vec!["unsafe-attr"]);
        assert!(lint_source(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod a;\n"
        )
        .is_empty());
        // Crates owning allowlisted unsafe files deny instead of forbid.
        let violations = lint_source("crates/concurrent/src/lib.rs", bare);
        assert_eq!(rules(&violations), vec!["unsafe-attr"]);
        assert!(lint_source(
            "crates/concurrent/src/lib.rs",
            "#![deny(unsafe_code)]\npub mod a;\n"
        )
        .is_empty());
        // Non-roots don't need the attribute.
        assert!(lint_source("crates/core/src/smooth.rs", bare).is_empty());
    }

    #[test]
    fn sink_calls_after_a_publish_are_flagged() {
        let bad = "fn write(&self) {\n    shard.snap.publish(Arc::new(next));\n    sink.log_write(k, v, None);\n}\n";
        let violations = lint_source("crates/concurrent/src/sharded.rs", bad);
        assert_eq!(rules(&violations), vec!["publish-ordering"]);
        assert_eq!(violations[0].line, 3);
        let good = "fn write(&self) {\n    sink.log_write(k, v, None);\n    shard.snap.publish(Arc::new(next));\n}\n";
        assert!(lint_source("crates/concurrent/src/sharded.rs", good).is_empty());
    }

    #[test]
    fn publish_ordering_is_scoped_per_fn_body() {
        // A publish in one fn does not poison a sink call in the next.
        let src =
            "fn a(&self) { self.cell.publish(next); }\nfn b(&self) { sink.checkpoint(&c); }\n";
        assert!(lint_source("crates/concurrent/src/sharded.rs", src).is_empty());
    }

    #[test]
    fn sink_method_definitions_do_not_count_as_call_sites() {
        let src = "fn apply(&self) {\n    self.cell.publish(next);\n    log_write(k);\n}\nfn checkpoint() {}\n";
        assert!(lint_source("crates/concurrent/src/maintenance.rs", src).is_empty());
    }

    #[test]
    fn libm_rounding_on_a_lookup_path_is_flagged() {
        let src = "fn slot(p: f64) -> usize {\n    p.round() as usize\n}\nfn cap(n: f64) -> usize { n.ceil() as usize }\n";
        for path in ["crates/lipp/src/node.rs", "crates/common/src/pla.rs"] {
            let violations = lint_source(path, src);
            assert_eq!(rules(&violations), vec!["libm-rounding", "libm-rounding"]);
            let lines: Vec<usize> = violations.iter().map(|v| v.line).collect();
            assert_eq!(lines, vec![2, 4]);
        }
        for call in ["floor", "trunc"] {
            let src = format!("fn f(x: f64) -> f64 {{ x.{call}() }}\n");
            let violations = lint_source("crates/btree/src/node.rs", &src);
            assert_eq!(rules(&violations), vec!["libm-rounding"]);
        }
    }

    #[test]
    fn libm_rounding_elsewhere_or_in_test_code_is_not_flagged() {
        let src = "fn slot(p: f64) -> usize { p.round() as usize }\n";
        // Outside the lookup path: the smoothing core, the other common modules.
        assert!(lint_source("crates/core/src/single.rs", src).is_empty());
        assert!(lint_source("crates/common/src/latency.rs", src).is_empty());
        // The retained reference under `#[cfg(test)]`, comments, other names.
        let src = "/// Not `p.round()`.\nfn slot(p: f64) -> usize { round_to_slot(p, 8) }\n\
                   fn around(x: &Cursor) -> u32 { x.round_trips() }\n\
                   #[cfg(test)]\nmod tests {\n    fn reference(p: f64) -> usize { p.round() as usize }\n\
                   #[test]\n    fn t() { assert_eq!(1.5f64.floor(), 1.0); }\n}\n";
        assert!(lint_source("crates/common/src/linear.rs", src).is_empty());
        // A block-less test item covers itself only, and code after the
        // test module is production code again.
        let src = "#[cfg(test)]\nmod tests { fn r(p: f64) -> f64 { p.round() } }\nfn late(p: f64) -> f64 { p.trunc() }\n\
                   #[cfg(test)]\nmod reference;\nfn later(p: f64) -> f64 { p.ceil() }\n\
                   #[cfg(test)]\nfn pair(p: f64) -> [f64; 2] { [p.floor(), p.ceil()] }\n";
        let violations = lint_source("crates/pgm/src/index.rs", src);
        assert_eq!(rules(&violations), vec!["libm-rounding", "libm-rounding"]);
        let mut lines: Vec<usize> = violations.iter().map(|v| v.line).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![3, 6]);
    }

    /// The real workspace must be clean — this is the regression guard
    /// that keeps the invariants true as the codebase grows.
    #[test]
    fn the_workspace_is_clean() {
        let violations = lint_workspace(&workspace_root()).expect("workspace readable");
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
