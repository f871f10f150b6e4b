//! `hare-lint` — the workspace invariant checker.
//!
//! The hare codebase rests on invariants rustc never checks: motif
//! counts must be bit-identical across thread counts and engines, hot
//! kernels must not allocate, `hare-serve` request paths must not
//! panic, and `unsafe` must be argued. This crate is a zero-dependency
//! lexical linter that enforces those invariants mechanically; see
//! `docs/LINTS.md` for the rulebook and [`rules`] for the scanners.
//!
//! Layering: [`lexer`] turns a source file into a masked view
//! (comments/literals blanked), [`rules`] scans that view per rule
//! family, and `main.rs` is the CLI (`--deny` for CI, `--json` for
//! machines).

pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rules::{Finding, ScopeSet};

/// Counting/estimation modules bound by the determinism (D) rules.
const DETERMINISM_SCOPE: [&str; 9] = [
    "crates/core/src/fused.rs",
    "crates/core/src/hare.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/fingerprint.rs",
    "crates/core/src/sample.rs",
    "crates/core/src/windowed.rs",
    "crates/core/src/stream_sample.rs",
    "crates/core/src/ooc.rs",
    "crates/core/src/query.rs",
];

/// `hare-serve` request-path modules bound by the panic-safety (P)
/// rules: a panic here kills a pool worker mid-request. The core query
/// layer and the SNAP text parser are among them: they validate outside
/// input (query parameters, uploaded edge text) on that path.
const PANIC_SCOPE: [&str; 8] = [
    "crates/core/src/query.rs",
    "crates/temporal-graph/src/io.rs",
    "crates/serve/src/api.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/sessions.rs",
    "crates/serve/src/catalog.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/nodes.rs",
];

/// Rule scopes for a repo-relative path (forward slashes). The A family
/// is not path-scoped — modules opt in with a `//! hare-lint: no-alloc`
/// header — and U applies everywhere.
#[must_use]
pub fn scopes_for(rel: &str) -> ScopeSet {
    ScopeSet {
        // `crates/obs/src/` carries the probe seams the D-scoped
        // kernels call into: the same wall-clock/iteration-order rules
        // apply there, with the one timing implementation opting out
        // via its `//! hare-lint: timing` header.
        determinism: DETERMINISM_SCOPE.contains(&rel)
            || rel.starts_with("crates/temporal-graph/src/")
            || rel.starts_with("crates/obs/src/"),
        panic_safety: PANIC_SCOPE.contains(&rel),
        force_no_alloc: false,
    }
}

/// Lint one file with path-derived scopes.
#[must_use]
pub fn lint_file(rel: &str, src: &str) -> Vec<Finding> {
    rules::lint_source(rel, src, scopes_for(rel))
}

/// Walk the workspace under `root` and lint every `.rs` file. Skips
/// `target/`, VCS metadata, and the linter's own bad-on-purpose golden
/// fixtures. Output is sorted by path then line, so runs are
/// byte-reproducible.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        findings.extend(lint_file(&rel_str, &src));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.kind).cmp(&(&b.path, b.line, b.kind)));
    Ok(findings)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::RuleKind;

    #[test]
    fn scopes_follow_paths() {
        assert!(scopes_for("crates/core/src/fused.rs").determinism);
        assert!(scopes_for("crates/core/src/ooc.rs").determinism);
        assert!(scopes_for("crates/core/src/stream_sample.rs").determinism);
        // The executor sets every parallel driver's reduction order.
        assert!(scopes_for("crates/core/src/exec.rs").determinism);
        assert!(scopes_for("crates/core/src/fingerprint.rs").determinism);
        assert!(scopes_for("crates/temporal-graph/src/graph.rs").determinism);
        assert!(scopes_for("crates/temporal-graph/src/ooc.rs").determinism);
        assert!(!scopes_for("crates/core/src/lib.rs").determinism);
        assert!(scopes_for("crates/obs/src/probe.rs").determinism);
        assert!(scopes_for("crates/obs/src/metrics.rs").determinism);
        // timing.rs is D-scoped too — its wall-clock use is legal only
        // because the module opts out via `//! hare-lint: timing`.
        assert!(scopes_for("crates/obs/src/timing.rs").determinism);
        assert!(scopes_for("crates/serve/src/api.rs").panic_safety);
        assert!(scopes_for("crates/serve/src/nodes.rs").panic_safety);
        assert!(scopes_for("crates/core/src/query.rs").panic_safety);
        assert!(scopes_for("crates/core/src/query.rs").determinism);
        assert!(scopes_for("crates/temporal-graph/src/io.rs").panic_safety);
        assert!(scopes_for("crates/temporal-graph/src/io.rs").determinism);
        assert!(!scopes_for("crates/temporal-graph/src/graph.rs").panic_safety);
        assert!(!scopes_for("crates/serve/src/main.rs").panic_safety);
    }

    #[test]
    fn determinism_scope_flags_std_hash_and_wall_clock() {
        let src = "use std::collections::HashMap;\nfn t() { let s = std::time::Instant::now(); }\n";
        let f = lint_file("crates/core/src/fused.rs", src);
        assert!(f.iter().any(|f| f.kind == RuleKind::DStdHash));
        assert!(f.iter().any(|f| f.kind == RuleKind::DWallClock));
        // Same code outside the scope: clean.
        assert!(lint_file("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn map_iteration_resolves_nearest_declaration() {
        // Same name `slot_of`: a Vec in one fn (iteration fine), an
        // FxHashMap in another (iteration flagged).
        let src = "fn a() {\n    let mut slot_of = vec![0u32; 8];\n    for s in slot_of.iter_mut() { *s = 1; }\n}\nfn b() {\n    let mut slot_of: FxHashMap<u32, u32> = FxHashMap::default();\n    for (k, v) in slot_of.iter() { let _ = (k, v); }\n}\n";
        let f = lint_file("crates/core/src/sample.rs", src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|f| f.kind == RuleKind::DMapIter)
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![7], "only the FxHashMap iteration is flagged");
    }

    #[test]
    fn map_iteration_sees_self_fields_and_for_loops() {
        let src = "struct S {\n    index: FxHashMap<u32, u32>,\n    lanes: Vec<u32>,\n}\nimpl S {\n    fn f(&self) {\n        for k in self.index.keys() {\n            let _ = k;\n        }\n        for (k, v) in &self.index {\n            let _ = (k, v);\n        }\n        for l in &self.lanes {\n            let _ = l;\n        }\n        self.index.get(&0);\n    }\n}\n";
        let f = lint_file("crates/temporal-graph/src/g.rs", src);
        let iters: Vec<usize> = f
            .iter()
            .filter(|f| f.kind == RuleKind::DMapIter)
            .map(|f| f.line)
            .collect();
        assert_eq!(
            iters,
            vec![7, 10],
            "keys() and for-in flagged; Vec and get() not"
        );
    }

    #[test]
    fn no_alloc_header_gates_allocation_rules() {
        let with = "//! hare-lint: no-alloc\nfn f() { let v: Vec<u32> = Vec::new(); let _ = v; }\n";
        let without = "fn f() { let v: Vec<u32> = Vec::new(); let _ = v; }\n";
        assert!(lint_file("crates/core/src/x.rs", with)
            .iter()
            .any(|f| f.kind == RuleKind::AAlloc));
        assert!(lint_file("crates/core/src/x.rs", without).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_with_reason_only() {
        let good = "//! hare-lint: no-alloc\nfn f() {\n    // hare-lint: allow(alloc, reason = \"setup path, runs once\")\n    let v: Vec<u32> = Vec::new();\n    let _ = v;\n}\n";
        let bad = "//! hare-lint: no-alloc\nfn f() {\n    // hare-lint: allow(alloc)\n    let v: Vec<u32> = Vec::new();\n    let _ = v;\n}\n";
        assert!(lint_file("crates/core/src/x.rs", good).is_empty());
        let f = lint_file("crates/core/src/x.rs", bad);
        assert!(f.iter().any(|f| f.kind == RuleKind::BadDirective));
        assert!(
            f.iter().any(|f| f.kind == RuleKind::AAlloc),
            "bad allow does not suppress"
        );
    }

    #[test]
    fn panic_scope_flags_unwrap_and_literal_index() {
        let src = "fn h(r: &[u64]) -> u64 { let x = r[0]; r.first().unwrap() + x }\nfn i(b: &[u8], i: usize) -> u8 { b[i] }\n";
        let f = lint_file("crates/serve/src/api.rs", src);
        assert!(f.iter().any(|f| f.kind == RuleKind::PPanic && f.line == 1));
        assert!(f.iter().any(|f| f.kind == RuleKind::PIndex && f.line == 1));
        assert!(
            !f.iter().any(|f| f.line == 2),
            "variable index is out of scope (len-guarded patterns are common)"
        );
    }

    #[test]
    fn cfg_test_regions_are_exempt_except_unsafe() {
        let src = "//! hare-lint: no-alloc\nfn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let v = vec![1];\n        v.first().unwrap();\n        unsafe { std::hint::unreachable_unchecked() }\n    }\n}\n";
        let f = lint_file("crates/serve/src/api.rs", src);
        assert!(!f
            .iter()
            .any(|f| matches!(f.kind, RuleKind::AAlloc | RuleKind::PPanic)));
        assert!(
            f.iter().any(|f| f.kind == RuleKind::UUnsafe),
            "unsafe needs SAFETY even in tests"
        );
    }

    #[test]
    fn safety_comment_satisfies_unsafe_rule() {
        let commented = "fn f() {\n    // SAFETY: the pointer is valid for the lifetime of `buf`.\n    unsafe { do_it() }\n}\n";
        let bare = "fn f() {\n    unsafe { do_it() }\n}\n";
        assert!(lint_file("crates/core/src/x.rs", commented).is_empty());
        assert_eq!(lint_file("crates/core/src/x.rs", bare).len(), 1);
    }

    #[test]
    fn timing_header_permits_wall_clock() {
        let src =
            "//! hare-lint: timing\nfn t() { let s = std::time::Instant::now(); let _ = s; }\n";
        assert!(lint_file("crates/core/src/fused.rs", src).is_empty());
    }
}
