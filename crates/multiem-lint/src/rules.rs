//! The lint rules. Each rule encodes one invariant the serve stack relies
//! on but the compiler cannot check. Rules operate on the blanked code
//! channel from [`crate::scan`], so string literals and comments never
//! produce false hits, and `#[cfg(test)]` regions are skipped.

use crate::diag::Diagnostic;
use crate::scan::{FnSpan, ScannedFile};
use crate::workspace::FileInfo;

pub struct RuleSpec {
    pub id: &'static str,
    /// One-line invariant statement (used by `--list-rules` and docs).
    pub summary: &'static str,
}

pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        id: "lock-order",
        summary: "shard locks are acquired before WAL locks (declared order: shard → wal); \
                  taking a shard lock after a WAL lock in the same function is an inversion",
    },
    RuleSpec {
        id: "no-panic-hot-path",
        summary: "unwrap()/expect()/panic!/todo!/unimplemented!/unreachable! are forbidden \
                  outside tests in serve hot-path files (every non-bin file of \
                  multiem-serve/src but lib.rs)",
    },
    RuleSpec {
        id: "no-locks-on-fast-path",
        summary: "functions marked `// lint:fast-path`, and every function of a file whose module \
                  doc starts a line with `//! lint:fast-path` (serve's views.rs: the routes its \
                  route table answers inline on a connection's reader thread), must not take \
                  blocking locks",
    },
    RuleSpec {
        id: "relaxed-needs-justification",
        summary: "every non-test Ordering::Relaxed carries a `relaxed-ok:` comment explaining \
                  why relaxed ordering is sound for that access",
    },
    RuleSpec {
        id: "fsync-before-rename",
        summary: "a rename() used as a durability commit point must be preceded by \
                  sync_all()/sync_data() in the same function",
    },
    RuleSpec {
        id: "no-raw-eprintln",
        summary: "library code logs through the structured logger, not eprintln! \
                  (bins and tests exempt)",
    },
    RuleSpec {
        id: "forbid-unsafe-attr",
        summary:
            "every crate root (lib.rs, main.rs, src/bin/*.rs) declares #![forbid(unsafe_code)]",
    },
];

pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|r| r.id).collect()
}

/// Run every applicable rule over one scanned file; returns raw hits
/// (before `lint:allow` processing).
pub fn check_file(info: &FileInfo, scanned: &ScannedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    forbid_unsafe_attr(info, scanned, &mut out);
    no_panic_hot_path(info, scanned, &mut out);
    no_raw_eprintln(info, scanned, &mut out);
    relaxed_needs_justification(info, scanned, &mut out);
    fsync_before_rename(info, scanned, &mut out);
    lock_order(info, scanned, &mut out);
    no_locks_on_fast_path(info, scanned, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Token helpers (byte-oriented; bytes >= 0x80 are treated as identifier
// continuation so multi-byte idents never split a word boundary).

fn ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80
}

/// Start offsets of `word` in `line` with identifier boundaries on both sides.
fn find_word(line: &str, word: &str) -> Vec<usize> {
    let b = line.as_bytes();
    let w = word.as_bytes();
    let mut out = Vec::new();
    if w.is_empty() {
        return out;
    }
    let mut i = 0;
    while i + w.len() <= b.len() {
        if &b[i..i + w.len()] == w
            && (i == 0 || !ident_byte(b[i - 1]))
            && (i + w.len() == b.len() || !ident_byte(b[i + w.len()]))
        {
            out.push(i);
            i += w.len();
        } else {
            i += 1;
        }
    }
    out
}

fn next_non_space(b: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < b.len() {
        if b[i] != b' ' {
            return Some((i, b[i]));
        }
        i += 1;
    }
    None
}

fn prev_non_space(b: &[u8], i: usize) -> Option<(usize, u8)> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if b[j] != b' ' {
            return Some((j, b[j]));
        }
    }
    None
}

/// Offsets where `.name(` occurs (a method call). Returns (word_start, dot_pos).
fn method_calls(line: &str, name: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    find_word(line, name)
        .into_iter()
        .filter_map(|p| {
            let (dot, dc) = prev_non_space(b, p)?;
            let (_, after) = next_non_space(b, p + name.len())?;
            (dc == b'.' && after == b'(').then_some((p, dot))
        })
        .collect()
}

/// Like [`method_calls`], but additionally requires an empty argument list
/// (`.read()`), which separates `RwLock::read()` from `io::Read::read(buf)`.
fn empty_method_calls(line: &str, name: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    method_calls(line, name)
        .into_iter()
        .filter(|&(p, _)| {
            next_non_space(b, p + name.len())
                .and_then(|(open, _)| next_non_space(b, open + 1))
                .is_some_and(|(_, c)| c == b')')
        })
        .collect()
}

/// Offsets where `name(` occurs as a plain call (free function or method —
/// no receiver requirement).
fn calls(line: &str, name: &str) -> Vec<usize> {
    let b = line.as_bytes();
    find_word(line, name)
        .into_iter()
        .filter(|&p| next_non_space(b, p + name.len()).is_some_and(|(_, c)| c == b'('))
        .collect()
}

/// Offsets where `name!` occurs (macro invocation).
fn macro_uses(line: &str, name: &str) -> Vec<usize> {
    let b = line.as_bytes();
    find_word(line, name)
        .into_iter()
        .filter(|&p| b.get(p + name.len()) == Some(&b'!'))
        .collect()
}

/// The receiver-chain text ending at the `.` at byte `dot` — e.g. for
/// `self.wals[i].lock()` with the final dot, returns `self.wals[i]`.
/// Balanced `(...)`/`[...]` groups are included. When the chain starts at
/// column 0 (rustfmt split the method onto its own line), the previous
/// non-empty line's trailing chain is prepended.
fn receiver_chain(scanned: &ScannedFile, line_no: usize, dot: usize) -> String {
    let line = scanned.code_line(line_no);
    let b = line.as_bytes();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        let c = b[j - 1];
        if c == b')' || c == b']' {
            let (open, close) = if c == b')' {
                (b'(', b')')
            } else {
                (b'[', b']')
            };
            let mut depth = 0usize;
            let mut k = j;
            let mut matched = false;
            while k > 0 {
                k -= 1;
                if b[k] == close {
                    depth += 1;
                } else if b[k] == open {
                    depth -= 1;
                    if depth == 0 {
                        matched = true;
                        break;
                    }
                }
            }
            if !matched {
                break;
            }
            j = k;
        } else if ident_byte(c) || c == b'.' || c == b':' || c == b'?' {
            j -= 1;
        } else {
            break;
        }
    }
    let mut chain = line[j..dot].to_string();
    if line[..j].trim().is_empty() && line_no > 1 {
        // Method on its own line: pull the previous line's tail into the chain.
        let prev = scanned.code_line(line_no - 1).trim_end();
        chain = format!("{prev}{chain}");
    }
    chain
}

// ---------------------------------------------------------------------------
// Rules

fn forbid_unsafe_attr(info: &FileInfo, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !info.is_crate_root {
        return;
    }
    let has_attr = scanned
        .code
        .iter()
        .any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"));
    if !has_attr {
        out.push(Diagnostic::error(
            "forbid-unsafe-attr",
            &info.rel,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`",
        ));
    }
}

fn no_panic_hot_path(info: &FileInfo, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !info.hot_path {
        return;
    }
    for line_no in 1..=scanned.line_count() {
        if scanned.is_test_line(line_no) {
            continue;
        }
        let line = scanned.code_line(line_no);
        for method in ["unwrap", "expect"] {
            for _ in method_calls(line, method) {
                out.push(Diagnostic::error(
                    "no-panic-hot-path",
                    &info.rel,
                    line_no,
                    format!("`.{method}()` can panic a worker thread on the hot path; return an error or restructure"),
                ));
            }
        }
        for mac in ["panic", "todo", "unimplemented", "unreachable"] {
            for _ in macro_uses(line, mac) {
                out.push(Diagnostic::error(
                    "no-panic-hot-path",
                    &info.rel,
                    line_no,
                    format!(
                        "`{mac}!` is forbidden on the hot path; return an error or restructure"
                    ),
                ));
            }
        }
    }
}

fn no_raw_eprintln(info: &FileInfo, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if info.is_bin {
        return;
    }
    for line_no in 1..=scanned.line_count() {
        if scanned.is_test_line(line_no) {
            continue;
        }
        for _ in macro_uses(scanned.code_line(line_no), "eprintln") {
            out.push(Diagnostic::error(
                "no-raw-eprintln",
                &info.rel,
                line_no,
                "library code must log through the structured logger, not `eprintln!`",
            ));
        }
    }
}

fn relaxed_needs_justification(info: &FileInfo, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for line_no in 1..=scanned.line_count() {
        if scanned.is_test_line(line_no) {
            continue;
        }
        let line = scanned.code_line(line_no);
        if !line.contains("Ordering::Relaxed") && find_word(line, "Relaxed").is_empty() {
            continue;
        }
        // `Relaxed` must appear as a path segment or bare import of the
        // atomic ordering; a plain identifier named Relaxed counts too —
        // better a rare false positive than a missed atomic.
        let justified = [line_no, line_no.saturating_sub(1)]
            .iter()
            .any(|&l| l >= 1 && has_justification(scanned.comment_line(l), "relaxed-ok:"));
        if !justified {
            out.push(Diagnostic::error(
                "relaxed-needs-justification",
                &info.rel,
                line_no,
                "Ordering::Relaxed needs a `// relaxed-ok: <why this ordering is sound>` comment \
                 on this line or the line above",
            ));
        }
    }
}

/// Does the comment contain `marker` followed by non-empty text?
fn has_justification(comment: &str, marker: &str) -> bool {
    comment
        .find(marker)
        .is_some_and(|p| !comment[p + marker.len()..].trim().is_empty())
}

fn fsync_before_rename(info: &FileInfo, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for f in &scanned.functions {
        let mut synced_at: Option<(usize, usize)> = None;
        for line_no in f.header_line..=f.body_end {
            if scanned.is_test_line(line_no) {
                continue;
            }
            let line = scanned.code_line(line_no);
            for name in ["sync_all", "sync_data"] {
                if let Some(&p) = calls(line, name).first() {
                    if synced_at.is_none() {
                        synced_at = Some((line_no, p));
                    }
                }
            }
            for p in calls(line, "rename") {
                let ok = synced_at.is_some_and(|(sl, sp)| (sl, sp) < (line_no, p));
                if !ok {
                    out.push(Diagnostic::error(
                        "fsync-before-rename",
                        &info.rel,
                        line_no,
                        format!(
                            "`rename` in `{}` is not preceded by sync_all()/sync_data(); \
                             a crash can commit the rename with unsynced contents",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}

/// A lock event inside a function body, ordered by (line, column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LockEvent {
    line: usize,
    col: usize,
}

fn lock_order(info: &FileInfo, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for f in &scanned.functions {
        let mut first_wal: Option<LockEvent> = None;
        for line_no in f.body_start..=f.body_end {
            if scanned.is_test_line(line_no) {
                continue;
            }
            let line = scanned.code_line(line_no);

            // WAL acquisitions: `.lock()` on a receiver mentioning `wal`.
            for (p, dot) in method_calls(line, "lock") {
                let chain = receiver_chain(scanned, line_no, dot).to_ascii_lowercase();
                if chain.contains("wal") && first_wal.is_none() {
                    first_wal = Some(LockEvent {
                        line: line_no,
                        col: p,
                    });
                }
            }

            // Shard acquisitions: write_shard()/read_shard() helpers, or
            // `.read()`/`.write()` on a receiver mentioning shard/store.
            let mut shard_events: Vec<LockEvent> = Vec::new();
            for helper in ["write_shard", "read_shard"] {
                for p in calls(line, helper) {
                    shard_events.push(LockEvent {
                        line: line_no,
                        col: p,
                    });
                }
            }
            for method in ["read", "write"] {
                for (p, dot) in empty_method_calls(line, method) {
                    let chain = receiver_chain(scanned, line_no, dot).to_ascii_lowercase();
                    if chain.contains("shard") || chain.contains("store") {
                        shard_events.push(LockEvent {
                            line: line_no,
                            col: p,
                        });
                    }
                }
            }

            for ev in shard_events {
                if let Some(wal) = first_wal {
                    if wal < ev {
                        out.push(Diagnostic::error(
                            "lock-order",
                            &info.rel,
                            ev.line,
                            format!(
                                "shard lock acquired after a WAL lock in `{}` (WAL lock at line {}); \
                                 declared order is shard → wal",
                                f.name, wal.line
                            ),
                        ));
                    }
                }
            }
        }
    }
}

fn no_locks_on_fast_path(info: &FileInfo, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    let whole_file = file_is_fast_path(scanned);
    for f in &scanned.functions {
        if !whole_file && !is_fast_path_marked(scanned, f) {
            continue;
        }
        for line_no in f.body_start..=f.body_end {
            if scanned.is_test_line(line_no) {
                continue;
            }
            let line = scanned.code_line(line_no);
            let mut hits = 0usize;
            hits += method_calls(line, "lock").len();
            hits += empty_method_calls(line, "read").len();
            hits += empty_method_calls(line, "write").len();
            hits += method_calls(line, "wait").len();
            hits += method_calls(line, "wait_timeout").len();
            hits += calls(line, "lock_unpoisoned").len();
            for _ in 0..hits {
                out.push(Diagnostic::error(
                    "no-locks-on-fast-path",
                    &info.rel,
                    line_no,
                    format!(
                        "`{}` is marked lint:fast-path and must stay lock-free; \
                         use try_* with a published-value fallback instead",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// A file is fast-path-marked when a line of its module doc *starts* with
/// the marker (`//! lint:fast-path ...`): every function in it is then held
/// to the rule, so one added later cannot forget its own marker. Prose that
/// merely mentions the marker mid-sentence is inert.
fn file_is_fast_path(scanned: &ScannedFile) -> bool {
    (1..=scanned.line_count()).any(|l| {
        let doc = scanned.comment_line(l).strip_prefix('!');
        doc.is_some_and(|text| text.trim_start().starts_with("lint:fast-path"))
    })
}

/// A function is fast-path-marked when a `lint:fast-path` comment sits on
/// its header line, within the four lines above it, or on the body-open line.
fn is_fast_path_marked(scanned: &ScannedFile, f: &FnSpan) -> bool {
    let from = f.header_line.saturating_sub(4).max(1);
    (from..=f.body_start).any(|l| scanned.comment_line(l).contains("lint:fast-path"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use crate::workspace::FileInfo;

    fn hot() -> FileInfo {
        FileInfo::synthetic("crates/multiem-serve/src/server.rs", false, false, true)
    }

    fn plain() -> FileInfo {
        FileInfo::synthetic("crates/multiem-core/src/matcher.rs", false, false, false)
    }

    fn rules_hit(info: &FileInfo, src: &str) -> Vec<(String, usize)> {
        let s = scan(src);
        check_file(info, &s)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn unwrap_flagged_only_on_hot_path() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        assert_eq!(
            rules_hit(&hot(), src),
            vec![("no-panic-hot-path".to_string(), 2)]
        );
        assert!(rules_hit(&plain(), src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0).max(x.unwrap_or_default())\n}\n";
        assert!(rules_hit(&hot(), src).is_empty());
    }

    #[test]
    fn panics_in_tests_are_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() {\n        panic!(\"boom\");\n    }\n}\n";
        assert!(rules_hit(&hot(), src).is_empty());
    }

    #[test]
    fn macro_panics_flagged() {
        let src = "fn f() {\n    todo!()\n}\nfn g() {\n    unreachable!()\n}\n";
        let hits = rules_hit(&hot(), src);
        assert_eq!(
            hits.iter()
                .filter(|(r, _)| r == "no-panic-hot-path")
                .count(),
            2
        );
    }

    #[test]
    fn eprintln_flagged_in_lib_not_bin() {
        let src = "fn f() {\n    eprintln!(\"oops\");\n}\n";
        assert_eq!(
            rules_hit(&plain(), src),
            vec![("no-raw-eprintln".to_string(), 2)]
        );
        let bin = FileInfo::synthetic("crates/multiem-serve/src/bin/serve.rs", true, true, false);
        let hits = rules_hit(&bin, src);
        assert!(
            !hits.iter().any(|(r, _)| r == "no-raw-eprintln"),
            "{hits:?}"
        );
    }

    #[test]
    fn relaxed_requires_comment() {
        let bad = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert_eq!(
            rules_hit(&plain(), bad),
            vec![("relaxed-needs-justification".to_string(), 2)]
        );
        let ok_same = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic counter\n}\n";
        assert!(rules_hit(&plain(), ok_same).is_empty());
        let ok_above = "fn f(c: &AtomicU64) {\n    // relaxed-ok: monotonic counter\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(rules_hit(&plain(), ok_above).is_empty());
        let empty_reason =
            "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed); // relaxed-ok:\n}\n";
        assert_eq!(rules_hit(&plain(), empty_reason).len(), 1);
    }

    #[test]
    fn rename_without_sync_flagged() {
        let bad = "fn commit(tmp: &Path, dst: &Path) -> io::Result<()> {\n    std::fs::rename(tmp, dst)\n}\n";
        assert_eq!(
            rules_hit(&plain(), bad),
            vec![("fsync-before-rename".to_string(), 2)]
        );
        let good = "fn commit(f: &File, tmp: &Path, dst: &Path) -> io::Result<()> {\n    f.sync_all()?;\n    std::fs::rename(tmp, dst)\n}\n";
        assert!(rules_hit(&plain(), good).is_empty());
    }

    #[test]
    fn sync_after_rename_does_not_count() {
        let bad = "fn commit(f: &File, tmp: &Path, dst: &Path) -> io::Result<()> {\n    std::fs::rename(tmp, dst)?;\n    f.sync_all()\n}\n";
        assert_eq!(
            rules_hit(&plain(), bad),
            vec![("fsync-before-rename".to_string(), 2)]
        );
    }

    #[test]
    fn wal_then_shard_is_an_inversion() {
        let bad = "fn f(&self) {\n    let w = self.wals[0].lock();\n    let s = self.shards[0].store.read();\n}\n";
        assert_eq!(
            rules_hit(&plain(), bad),
            vec![("lock-order".to_string(), 3)]
        );
        let good = "fn f(&self) {\n    let s = self.shards[0].store.read();\n    let w = self.wals[0].lock();\n}\n";
        assert!(rules_hit(&plain(), good).is_empty());
        // `ShardWriter::commit`'s shape: the WAL is an optional field bound
        // by a pattern, the shard lock a helper of the store passed in.
        let bad = "fn commit(&self, store: &S) {\n    if let Some(wal) = &self.wal {\n        let mut durable = wal.lock();\n    }\n    let mut guard = store.write_shard(self.shard);\n}\n";
        assert_eq!(
            rules_hit(&plain(), bad),
            vec![("lock-order".to_string(), 5)]
        );
        let good = "fn commit(&self, store: &S) {\n    let mut guard = store.write_shard(self.shard);\n    if let Some(wal) = &self.wal {\n        let mut durable = wal.lock();\n    }\n}\n";
        assert!(rules_hit(&plain(), good).is_empty());
    }

    #[test]
    fn shard_helpers_count_as_shard_locks() {
        let bad = "fn f(&self) {\n    let w = self.wal_handle().lock();\n    let s = self.write_shard(0);\n}\n";
        assert_eq!(
            rules_hit(&plain(), bad),
            vec![("lock-order".to_string(), 3)]
        );
    }

    #[test]
    fn read_with_args_is_io_not_lock() {
        let src = "fn f(&self, file: &mut File, buf: &mut [u8]) {\n    let w = self.wals[0].lock();\n    file.read(buf);\n}\n";
        assert!(rules_hit(&plain(), src).is_empty());
    }

    #[test]
    fn fast_path_marker_bans_locks() {
        let bad = "// lint:fast-path\nfn metrics(&self) -> String {\n    let g = self.state.lock();\n    String::new()\n}\n";
        assert_eq!(
            rules_hit(&plain(), bad),
            vec![("no-locks-on-fast-path".to_string(), 3)]
        );
        let good = "// lint:fast-path\nfn metrics(&self) -> String {\n    if let Some(g) = self.state.try_read() {\n        return render(&g);\n    }\n    String::new()\n}\n";
        assert!(rules_hit(&plain(), good).is_empty());
        let unmarked =
            "fn metrics(&self) -> String {\n    let g = self.state.lock();\n    String::new()\n}\n";
        assert!(rules_hit(&plain(), unmarked).is_empty());
    }

    #[test]
    fn file_level_fast_path_marker_covers_every_function() {
        let marked = "//! lint:fast-path — every route here answers on the I/O threads.\n\
            fn healthz(&self) -> String {\n    String::new()\n}\n\
            fn added_later(&self) -> String {\n    let g = self.state.lock();\n    String::new()\n}\n\
            #[cfg(test)]\nmod tests {\n    fn helper(m: &Mutex<u8>) {\n        let g = m.lock();\n    }\n}\n";
        assert_eq!(
            rules_hit(&plain(), marked),
            vec![("no-locks-on-fast-path".to_string(), 6)]
        );
        // Prose that mentions the marker does not mark the file (the gap
        // keeps it clear of the per-function rule's four-line reach).
        let prose = "//! The `lint:fast-path` marker is looked up in comments.\n\n\n\n\n\n\
            fn f(&self) {\n    let g = self.state.lock();\n}\n";
        assert!(rules_hit(&plain(), prose).is_empty());
    }

    #[test]
    fn crate_root_needs_forbid_unsafe() {
        let root = FileInfo::synthetic("crates/multiem-core/src/lib.rs", true, false, false);
        let bad = "pub mod matcher;\n";
        assert_eq!(
            rules_hit(&root, bad),
            vec![("forbid-unsafe-attr".to_string(), 1)]
        );
        let good = "#![forbid(unsafe_code)]\npub mod matcher;\n";
        assert!(rules_hit(&root, good).is_empty());
        assert!(rules_hit(&plain(), bad).is_empty());
    }
}
