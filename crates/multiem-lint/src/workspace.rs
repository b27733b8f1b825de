//! Workspace discovery and file classification.
//!
//! The linter walks every workspace member's `src/` tree (plus the root
//! package's `src/`), classifying each `.rs` file so rules can scope
//! themselves: crate roots (`lib.rs`, `main.rs`, `src/bin/*.rs`), binary
//! sources, and the serve hot-path set.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators (stable across OSes).
    pub rel: String,
    /// True for `lib.rs`, `main.rs`, and `src/bin/*.rs` — files that must
    /// carry `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// True for binary sources (`main.rs`, `src/bin/*.rs`): CLI tools may
    /// print to stderr directly.
    pub is_bin: bool,
    /// True for the serve hot-path set guarded by `no-panic-hot-path`.
    pub hot_path: bool,
}

impl FileInfo {
    /// Classification used by fixture tests, where the role is declared in
    /// the fixture header instead of derived from the path.
    pub fn synthetic(rel: &str, is_crate_root: bool, is_bin: bool, hot_path: bool) -> Self {
        FileInfo {
            path: PathBuf::from(rel),
            rel: rel.to_string(),
            is_crate_root,
            is_bin,
            hot_path,
        }
    }
}

/// Find the workspace root by walking up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Parse `members = [...]` entries from the root manifest. Tolerates one
/// entry per line or several per line; ignores comments.
fn workspace_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_members = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("");
        if !in_members {
            if let Some(rest) = line.split_once("members").map(|(_, r)| r) {
                if rest.trim_start().starts_with('=') {
                    in_members = true;
                }
            }
        }
        if in_members {
            for piece in line.split('"').skip(1).step_by(2) {
                members.push(piece.to_string());
            }
            if line.contains(']') {
                break;
            }
        }
    }
    members
}

/// Enumerate every lintable `.rs` file under the workspace's member `src/`
/// trees, classified. Sorted by relative path for deterministic output.
pub fn discover(root: &Path) -> io::Result<Vec<FileInfo>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut src_dirs: Vec<PathBuf> = Vec::new();
    // The root package's own sources, if any.
    if root.join("src").is_dir() {
        src_dirs.push(root.join("src"));
    }
    for member in workspace_members(&manifest) {
        let src = root.join(&member).join("src");
        if src.is_dir() {
            src_dirs.push(src);
        }
    }

    let mut files = Vec::new();
    for src in &src_dirs {
        let mut stack = vec![src.clone()];
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    files.push(classify(root, src, path));
                }
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn classify(root: &Path, src: &Path, path: PathBuf) -> FileInfo {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(&path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    let within_src = path.strip_prefix(src).unwrap_or(&path);
    let within = within_src
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");

    let is_bin = within == "main.rs" || within.starts_with("bin/");
    let is_crate_root = within == "lib.rs"
        || within == "main.rs"
        || (within.starts_with("bin/") && within.matches('/').count() == 1);
    // The one file of `crates/multiem-serve/src/` off the hot path for the
    // `no-panic-hot-path` rule is the crate root (re-exports only). Every
    // other non-bin file of the crate is on it — so a module split out of
    // `server.rs` stays covered without being named.
    let hot_path = rel.starts_with("crates/multiem-serve/src/") && !is_bin && within != "lib.rs";

    FileInfo {
        path,
        rel,
        is_crate_root,
        is_bin,
        hot_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_members_list() {
        let manifest =
            "[workspace]\nmembers = [\n    \"crates/a\", # comment\n    \"crates/b\",\n]\n";
        assert_eq!(workspace_members(manifest), vec!["crates/a", "crates/b"]);
    }

    #[test]
    fn classifies_roots_bins_and_hot_files() {
        let root = Path::new("/ws");
        let src = root.join("crates/multiem-serve/src");
        let f = classify(root, &src, src.join("lib.rs"));
        assert!(f.is_crate_root && !f.is_bin && !f.hot_path);
        for module in ["server.rs", "routes.rs", "views.rs"] {
            let f = classify(root, &src, src.join(module));
            assert!(!f.is_crate_root && !f.is_bin && f.hot_path, "{module}");
        }
        let f = classify(root, &src, src.join("obs/registry.rs"));
        assert!(f.hot_path);
        let f = classify(root, &src, src.join("bin/serve.rs"));
        assert!(f.is_crate_root && f.is_bin && !f.hot_path);
        let other = root.join("crates/multiem-core/src");
        let f = classify(root, &other, other.join("matcher.rs"));
        assert!(!f.is_crate_root && !f.is_bin && !f.hot_path);
    }
}
