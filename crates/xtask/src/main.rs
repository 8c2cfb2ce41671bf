//! Workspace maintenance tasks, run as `cargo run -p xtask -- <task>`.
//!
//! Three tasks:
//!
//! - **`metrics-doc [--check]`** renders `METRICS.md` at the workspace
//!   root from the streaming pipeline's metric catalog
//!   (`anomex_stream::metrics::CATALOG`) — the committed reference for
//!   every counter, gauge and histogram the pipeline can record. With
//!   `--check` (the CI mode) it verifies the committed file matches
//!   instead of writing, so the doc can never drift from the code.
//! - **`audit-unsafe [--check]`**, the unsafe audit described next.
//! - **`ab <base-root> <change-root> --workload W --pairs N [--seed S]`**
//!   runs two checkouts' built repo benchmarks in alternating pairs and
//!   prints per-metric medians, quartiles, per-pair ratios and win
//!   counts (see [`ab`]).
//!
//! The **unsafe audit** is a comment- and
//! string-aware scan of every `.rs` file in the workspace that
//!
//! - fails (exit 1) on any `unsafe` keyword without an adjacent
//!   justification — a `// SAFETY:` comment block directly above (or
//!   inline before) the keyword, or a `# Safety` doc section for
//!   `unsafe fn` declarations — and
//! - regenerates `UNSAFE_INVENTORY.md` at the workspace root, the
//!   committed ledger of every unsafe site and its one-line
//!   justification.
//!
//! `--check` (the CI mode) additionally refuses to touch the tree: it
//! verifies the committed inventory matches the regenerated one and
//! fails on drift, so the ledger can never go stale.
//!
//! The audit complements the compiler-enforced half of the policy
//! (workspace lints `unsafe_op_in_unsafe_fn` and clippy's
//! `undocumented_unsafe_blocks`, both deny): the clippy lint only sees
//! lintable crate targets, while this scan covers every source file in
//! the tree — vendored crates, test support, build scripts — with one
//! uniform adjacency rule and a reviewable inventory as output.

// This file *talks about* SAFETY comments constantly (it implements
// the audit), which trips the lint that polices stray ones.
#![allow(clippy::unnecessary_safety_comment)]

mod ab;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit-unsafe") => {
            let check_only = args.iter().any(|a| a == "--check");
            if let Some(unknown) = args[1..].iter().find(|a| *a != "--check") {
                eprintln!("xtask: unknown audit-unsafe flag `{unknown}` (only --check)");
                return ExitCode::FAILURE;
            }
            audit_unsafe(check_only)
        }
        Some("metrics-doc") => {
            let check_only = args.iter().any(|a| a == "--check");
            if let Some(unknown) = args[1..].iter().find(|a| *a != "--check") {
                eprintln!("xtask: unknown metrics-doc flag `{unknown}` (only --check)");
                return ExitCode::FAILURE;
            }
            metrics_doc(check_only)
        }
        Some("ab") => ab::main(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (try `audit-unsafe`, `metrics-doc` or `ab`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "xtask: no task given (try `audit-unsafe [--check]`, `metrics-doc [--check]` or \
                 `ab <base-root> <change-root> --workload W --pairs N`)"
            );
            ExitCode::FAILURE
        }
    }
}

/// Render `METRICS.md` from the pipeline's metric catalog; `--check`
/// verifies the committed file instead of writing it.
fn metrics_doc(check_only: bool) -> ExitCode {
    let doc = render_metrics_doc(anomex_stream::metrics::CATALOG);
    let path = workspace_root().join("METRICS.md");
    if check_only {
        let committed = std::fs::read_to_string(&path).unwrap_or_default();
        if committed != doc {
            eprintln!(
                "xtask: METRICS.md is stale — regenerate it with \
                 `cargo run -p xtask -- metrics-doc` and commit the result"
            );
            return ExitCode::FAILURE;
        }
    } else if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("xtask: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "metrics-doc: {} metric(s) documented{}",
        anomex_stream::metrics::CATALOG.len(),
        if check_only { " (METRICS.md up to date)" } else { " (METRICS.md written)" },
    );
    ExitCode::SUCCESS
}

fn render_metrics_doc(catalog: &[anomex_obs::MetricDef]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Pipeline Metrics");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Every metric the streaming pipeline can record, grouped by \
         stage — generated from `anomex_stream::metrics::CATALOG` by \
         `cargo run -p xtask -- metrics-doc` and verified in CI with \
         `--check`. Names containing `*` are templates instantiated per \
         dynamic member (one per registered detector). Counters are \
         always live; gauges, histograms and stage timers record only \
         while `MetricsConfig::enabled` is on."
    );
    let mut stage = "";
    for def in catalog {
        if def.stage != stage {
            stage = def.stage;
            let _ = writeln!(out);
            let _ = writeln!(out, "## `{stage}`");
            let _ = writeln!(out);
            let _ = writeln!(out, "| Metric | Kind | Unit | Description |");
            let _ = writeln!(out, "|---|---|---|---|");
        }
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            def.name,
            def.kind.as_str(),
            def.unit,
            def.help.replace('|', "\\|"),
        );
    }
    out
}

/// One `unsafe` keyword occurrence in real code (not comments/strings).
struct UnsafeSite {
    /// Workspace-relative path, `/`-separated.
    path: String,
    /// 1-based line of the `unsafe` keyword.
    line: usize,
    /// What the keyword introduces: `block`, `impl`, `fn`, `trait`.
    form: &'static str,
    /// First line of the adjacent justification, if any.
    justification: Option<String>,
}

fn audit_unsafe(check_only: bool) -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    files.sort();

    let mut sites = Vec::new();
    for path in &files {
        let source = match std::fs::read_to_string(root.join(path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        scan_file(path, &source, &mut sites);
    }

    let undocumented: Vec<&UnsafeSite> =
        sites.iter().filter(|s| s.justification.is_none()).collect();
    for site in &undocumented {
        eprintln!(
            "xtask: {}:{}: `unsafe` {} without an adjacent `// SAFETY:` comment{}",
            site.path,
            site.line,
            site.form,
            if site.form == "fn" { " or `# Safety` doc section" } else { "" },
        );
    }

    let inventory = render_inventory(&sites, files.len());
    let inventory_path = root.join("UNSAFE_INVENTORY.md");
    if check_only {
        let committed = std::fs::read_to_string(&inventory_path).unwrap_or_default();
        if committed != inventory {
            eprintln!(
                "xtask: UNSAFE_INVENTORY.md is stale — regenerate it with \
                 `cargo run -p xtask -- audit-unsafe` and commit the result"
            );
            return ExitCode::FAILURE;
        }
    } else if let Err(e) = std::fs::write(&inventory_path, &inventory) {
        eprintln!("xtask: cannot write {}: {e}", inventory_path.display());
        return ExitCode::FAILURE;
    }

    if !undocumented.is_empty() {
        eprintln!("xtask: audit-unsafe FAILED: {} undocumented site(s)", undocumented.len());
        return ExitCode::FAILURE;
    }
    let distinct_files =
        sites.iter().map(|s| s.path.as_str()).collect::<std::collections::BTreeSet<_>>().len();
    println!(
        "audit-unsafe: {} unsafe site(s) across {} file(s), all justified{}",
        sites.len(),
        distinct_files,
        if check_only { " (inventory up to date)" } else { " (inventory written)" },
    );
    ExitCode::SUCCESS
}

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> workspace root; fall back to cwd for direct
    // binary invocation outside cargo.
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).ancestors().nth(2).expect("xtask depth").to_path_buf(),
        None => std::env::current_dir().expect("cwd"),
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `target` (build output) and dot-dirs are not source.
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).expect("under root");
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// Scan one file for `unsafe` keywords, comment- and string-aware.
fn scan_file(path: &str, source: &str, sites: &mut Vec<UnsafeSite>) {
    let code = blank_comments_and_strings(source);
    let lines: Vec<&str> = source.lines().collect();
    let bytes = code.as_bytes();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if code[i..].starts_with("unsafe")
            && (i == 0 || !is_ident_byte(bytes[i - 1]))
            && !is_ident_byte(*bytes.get(i + 6).unwrap_or(&b' '))
        {
            let form = classify(&code[i + 6..]);
            let justification = find_justification(&lines, line - 1, form);
            sites.push(UnsafeSite { path: path.to_string(), line, form, justification });
            i += 6;
            continue;
        }
        i += 1;
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// What does the keyword introduce? Looks at the next token in the
/// already-blanked code.
fn classify(rest: &str) -> &'static str {
    let rest = rest.trim_start();
    if rest.starts_with("impl") {
        "impl"
    } else if rest.starts_with("fn") || rest.starts_with("extern") {
        // `unsafe extern "C" fn` is still a declaration form.
        "fn"
    } else if rest.starts_with("trait") {
        "trait"
    } else {
        "block"
    }
}

/// The adjacency rule: a justification is a `SAFETY:` marker in a
/// comment on the `unsafe` line itself, or anywhere in the contiguous
/// comment block directly above it (attribute lines may sit between).
/// `unsafe fn` declarations may alternatively carry a `# Safety`
/// section in their doc comment.
fn find_justification(lines: &[&str], unsafe_line: usize, form: &'static str) -> Option<String> {
    let marker = |s: &str| {
        s.find("SAFETY:").map(|at| s[at..].trim_end_matches(['*', '/', ' ']).trim().to_string())
    };
    if let Some(j) = lines.get(unsafe_line).and_then(|l| marker(l)) {
        return Some(j);
    }
    let mut i = unsafe_line;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim();
        let is_attr = t.starts_with("#[") || t.starts_with("#![");
        let is_comment =
            t.starts_with("//") || t.starts_with("/*") || t.starts_with('*') || t.ends_with("*/");
        if is_comment {
            if let Some(j) = marker(t) {
                return Some(j);
            }
            if form == "fn" && t.contains("# Safety") {
                return Some("`# Safety` doc section".to_string());
            }
            continue;
        }
        if is_attr || t.is_empty() {
            // Attributes sit between a comment and its item; blank
            // lines only end the lookback at real code.
            continue;
        }
        break;
    }
    None
}

/// Replace the contents of comments, string literals and char literals
/// with spaces, preserving newlines (so byte offsets map to the same
/// line numbers). Handles nested block comments, escapes, and raw
/// strings with arbitrary `#` fences.
fn blank_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'\n' => {
                out[i] = b'\n';
                i += 1;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        out[i] = b'\n';
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => i = skip_string(b, &mut out, i),
            b'r' | b'b' if starts_raw_or_byte_literal(b, i) => {
                let mut j = i + 1;
                if b[i] == b'b' && b.get(j) == Some(&b'r') {
                    j += 1;
                }
                if b.get(j) == Some(&b'\'') {
                    // b'x' byte literal.
                    i = skip_char(b, &mut out, j);
                } else {
                    let mut fences = 0usize;
                    while b.get(j) == Some(&b'#') {
                        fences += 1;
                        j += 1;
                    }
                    if b.get(j) != Some(&b'"') {
                        // Not actually a raw string (e.g. `r#ident`).
                        out[i] = b[i];
                        i += 1;
                        continue;
                    }
                    j += 1;
                    // Scan to `"` followed by `fences` hashes.
                    loop {
                        match b.get(j) {
                            None => break,
                            Some(b'\n') => {
                                out[j] = b'\n';
                                j += 1;
                            }
                            Some(b'"') => {
                                let mut k = j + 1;
                                let mut seen = 0usize;
                                while seen < fences && b.get(k) == Some(&b'#') {
                                    seen += 1;
                                    k += 1;
                                }
                                j = k;
                                if seen == fences {
                                    break;
                                }
                            }
                            Some(_) => j += 1,
                        }
                    }
                    i = j;
                }
            }
            b'\'' => i = skip_char_or_lifetime(b, &mut out, i),
            c => {
                out[i] = c;
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("blanking preserves UTF-8: non-ASCII only inside blanked spans")
}

fn starts_raw_or_byte_literal(b: &[u8], i: usize) -> bool {
    // Only when not part of a longer identifier (e.g. `for`, `grab`).
    if i > 0 && is_ident_byte(b[i - 1]) {
        return false;
    }
    match b[i] {
        b'r' => matches!(b.get(i + 1), Some(b'"') | Some(b'#')),
        b'b' => match b.get(i + 1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => matches!(b.get(i + 2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Skip a `"..."` string starting at the opening quote; returns the
/// index just past the closing quote.
fn skip_string(b: &[u8], out: &mut [u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                out[i] = b'\n';
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a `'x'` char literal starting at the quote; returns the index
/// just past the closing quote.
fn skip_char(b: &[u8], out: &mut [u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                out[i] = b'\n';
                i += 1;
            }
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// `'` is ambiguous: a char literal (`'x'`, `'\n'`) or a lifetime
/// (`'a`, `'static`). A lifetime is `'` + identifier with no closing
/// quote right after.
fn skip_char_or_lifetime(b: &[u8], out: &mut [u8], i: usize) -> usize {
    let next = b.get(i + 1).copied().unwrap_or(b' ');
    if next == b'\\' || b.get(i + 2) == Some(&b'\'') {
        return skip_char(b, out, i);
    }
    if is_ident_byte(next) {
        // A lifetime; it cannot contain the reserved word `unsafe`, so
        // leaving it blanked-as-space vs kept makes no difference —
        // just step past the quote.
        return i + 1;
    }
    skip_char(b, out, i)
}

fn render_inventory(sites: &[UnsafeSite], files_scanned: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Unsafe Inventory");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Every `unsafe` site in the workspace and its justification, \
         regenerated by `cargo run -p xtask -- audit-unsafe` and verified \
         in CI with `--check`. {} site(s) across {} scanned `.rs` file(s).",
        sites.len(),
        files_scanned,
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "| Site | Form | Justification |");
    let _ = writeln!(out, "|---|---|---|");
    for s in sites {
        let mut j = s.justification.as_deref().unwrap_or("**MISSING**").to_string();
        if j.len() > 100 {
            let mut cut = 100;
            while !j.is_char_boundary(cut) {
                cut -= 1;
            }
            j.truncate(cut);
            j.push('…');
        }
        let _ =
            writeln!(out, "| `{}:{}` | {} | {} |", s.path, s.line, s.form, j.replace('|', "\\|"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites_of(src: &str) -> Vec<(usize, &'static str, bool)> {
        let mut sites = Vec::new();
        scan_file("test.rs", src, &mut sites);
        sites.into_iter().map(|s| (s.line, s.form, s.justification.is_some())).collect()
    }

    #[test]
    fn finds_block_with_inline_and_preceding_safety() {
        let src = "fn f() {\n    // SAFETY: fine\n    unsafe { g() }\n}\n\
                   fn h() { /* SAFETY: ok */ unsafe { g() } }\n";
        assert_eq!(sites_of(src), vec![(3, "block", true), (5, "block", true)]);
    }

    #[test]
    fn flags_undocumented_block_and_impl() {
        let src = "fn f() {\n    unsafe { g() }\n}\nunsafe impl Send for X {}\n";
        assert_eq!(sites_of(src), vec![(2, "block", false), (4, "impl", false)]);
    }

    #[test]
    fn ignores_unsafe_in_comments_and_strings() {
        let src = "// unsafe here\n/* unsafe\n   unsafe */\nconst S: &str = \"unsafe\";\n\
                   const R: &str = r#\"unsafe \"quoted\" unsafe\"#;\nconst C: char = 'u';\n";
        assert_eq!(sites_of(src), vec![]);
    }

    #[test]
    fn safety_block_reaches_through_attributes_and_doc_lines() {
        let src = "// SAFETY: the real reason,\n// spread over two lines.\n\
                   #[allow(dead_code)]\nunsafe impl Sync for X {}\n";
        assert_eq!(sites_of(src), vec![(4, "impl", true)]);
    }

    #[test]
    fn unsafe_fn_accepts_safety_doc_section() {
        let src = "/// Does things.\n///\n/// # Safety\n/// Caller must hold the lock.\n\
                   pub unsafe fn f() {}\n";
        assert_eq!(sites_of(src), vec![(5, "fn", true)]);
    }

    #[test]
    fn code_resets_the_lookback() {
        let src = "// SAFETY: for the other one\nfn g() {}\nunsafe impl Send for X {}\n";
        assert_eq!(sites_of(src), vec![(3, "impl", false)]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a u8) -> &'a u8 { x }\nfn g() {\n    unsafe { h() }\n}\n";
        assert_eq!(sites_of(src), vec![(3, "block", false)]);
    }
}
