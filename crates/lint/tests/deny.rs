//! End-to-end tests of the `hare-lint` binary: the acceptance bar is
//! that a deliberately-introduced violation from each rule family
//! (D/A/P/U) makes `--deny` exit non-zero with a `file:line`
//! diagnostic, and that the real repository passes `--deny` with no
//! finding at all.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hare-lint")
}

/// A throwaway workspace directory, removed on drop.
struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str) -> TempWorkspace {
        let root = std::env::temp_dir().join(format!("hare-lint-e2e-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        TempWorkspace { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(bin())
            .arg("--root")
            .arg(&self.root)
            .args(args)
            .output()
            .expect("spawn hare-lint")
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn clean_workspace_passes_deny() {
    let ws = TempWorkspace::new("clean");
    ws.write(
        "crates/core/src/fused.rs",
        "fn kernel(out: &mut [u64]) {\n    if let Some(first) = out.first_mut() {\n        *first += 1;\n    }\n}\n",
    );
    let out = ws.run(&["--deny"]);
    assert!(out.status.success(), "clean workspace must pass --deny");
}

#[test]
fn each_rule_family_fails_deny_with_file_line() {
    // One violation per family, each in a path its scope covers.
    let cases: [(&str, &str, &str, &str); 4] = [
        (
            "D",
            "crates/core/src/fused.rs",
            "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n",
            "D-std-hash",
        ),
        (
            "A",
            "crates/core/src/anywhere.rs",
            "//! hare-lint: no-alloc\nfn f() -> Vec<u64> {\n    Vec::new()\n}\n",
            "A-alloc",
        ),
        (
            "P",
            "crates/serve/src/api.rs",
            "fn f(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n",
            "P-panic",
        ),
        (
            "U",
            "crates/core/src/raw.rs",
            "fn f(p: *const u64) -> u64 {\n    unsafe { *p }\n}\n",
            "U-unsafe-comment",
        ),
    ];
    for (family, rel, src, rule) in cases {
        let ws = TempWorkspace::new(&format!("family-{family}"));
        ws.write(rel, src);
        let out = ws.run(&["--deny"]);
        assert!(
            !out.status.success(),
            "family {family}: --deny must fail on a {rule} violation"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let diagnostic_line = stdout
            .lines()
            .find(|l| l.contains(rule))
            .unwrap_or_else(|| panic!("family {family}: no {rule} diagnostic in:\n{stdout}"));
        // file:line format, e.g. `crates/core/src/fused.rs:1: [D-std-hash] ...`
        assert!(
            diagnostic_line.starts_with(&format!("{rel}:")),
            "family {family}: diagnostic must lead with file:line, got: {diagnostic_line}"
        );
        let after_path = &diagnostic_line[rel.len() + 1..];
        let line_no: String = after_path
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        assert!(
            !line_no.is_empty(),
            "family {family}: diagnostic must carry a line number: {diagnostic_line}"
        );
    }
}

#[test]
fn json_output_is_machine_readable() {
    let ws = TempWorkspace::new("json");
    ws.write(
        "crates/serve/src/api.rs",
        "fn f(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n",
    );
    let out = ws.run(&["--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"rule\": \"P-panic\""), "{stdout}");
    assert!(
        stdout.contains("\"path\": \"crates/serve/src/api.rs\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"line\": 2"), "{stdout}");
    assert!(stdout.contains("\"fresh\": 1"), "{stdout}");
}

/// The real repository must stay clean: this is the same check CI's
/// lint job runs, kept as a test so `cargo test` catches a regression
/// before the workflow does.
#[test]
fn repository_is_clean_under_deny() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root");
    let out = Command::new(bin())
        .arg("--root")
        .arg(repo_root)
        .arg("--deny")
        .output()
        .expect("spawn hare-lint");
    assert!(
        out.status.success(),
        "hare-lint --deny failed on the repository:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
