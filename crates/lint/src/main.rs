//! `hare-lint` CLI.
//!
//! ```text
//! hare-lint [--root DIR] [--deny] [--json]
//! ```
//!
//! Exit codes: `0` clean (or informational run), `1` `--deny` with any
//! finding, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use hare_lint::rules::Finding;
use hare_lint::scan_workspace;

struct Opts {
    root: PathBuf,
    deny: bool,
    json: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut root = PathBuf::from(".");
    let mut deny = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(args.next().ok_or("--root needs a directory argument")?);
            }
            "--deny" => deny = true,
            "--json" => json = true,
            "--help" | "-h" => return Err("usage: hare-lint [--root DIR] [--deny] [--json]".into()),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(Opts { root, deny, json })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let findings = match scan_workspace(&opts.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("hare-lint: scanning {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    if opts.json {
        println!("{}", render_json(&findings));
    } else {
        render_text(&findings);
    }

    if opts.deny && !findings.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn render_text(findings: &[Finding]) {
    for f in findings {
        println!("{}:{}: [{}] {}", f.path, f.line, f.kind.code(), f.message);
        println!("    {}", f.snippet);
    }
    eprintln!("hare-lint: {} findings", findings.len());
}

fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \
             \"snippet\": {}}}",
            json_str(f.kind.code()),
            json_str(&f.path),
            f.line,
            json_str(&f.message),
            json_str(&f.snippet)
        ));
    }
    out.push_str(&format!("\n  ],\n  \"fresh\": {}\n}}", findings.len()));
    out
}

/// Minimal JSON string escaping (the only JSON we emit, so no serde).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
