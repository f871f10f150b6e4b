//! # hare-bench
//!
//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the paper's evaluation (§V):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `exp_table2`  | Table II — dataset statistics |
//! | `exp_fig9`    | Fig. 9 — WikiTalk degree skew & per-node cost |
//! | `exp_fig10`   | Fig. 10 — FAST vs EX count matrices |
//! | `exp_table3`  | Table III — single-thread runtimes & speedups |
//! | `exp_fig11`   | Fig. 11 — runtime vs #threads |
//! | `exp_fig12a`  | Fig. 12(a) — runtime vs δ |
//! | `exp_fig12b`  | Fig. 12(b) — runtime vs degree threshold |
//!
//! Every one of them accepts `--max-edges N` (dataset scale cap; the
//! scale factor actually applied is printed per row), `--delta N`, and
//! `--json` (machine-readable result rows on stdout). Run with
//! `cargo run --release -p hare-bench --bin <name> -- [flags]`.
//!
//! One more binary, `exp_obs`, holds the wall-clock gates that cannot
//! be deterministic tests: the probe seams' overhead, HARE's throughput
//! when oversubscribed, and the `hare-serve` cache-hit speed-up (its
//! module docs list the thresholds). The repository's performance
//! record is the `perfbench` harness, declared in `BENCHMARK.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;

use std::time::Instant;

/// Time a closure, returning its result and elapsed seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Format a count the way Fig. 10 does (`14.3K`, `65.7M`, `1.08B`).
#[must_use]
pub fn human_count(n: u64) -> String {
    let nf = n as f64;
    if nf >= 1e9 {
        format!("{:.2}B", nf / 1e9)
    } else if nf >= 1e6 {
        format!("{:.1}M", nf / 1e6)
    } else if nf >= 1e3 {
        format!("{:.1}K", nf / 1e3)
    } else {
        n.to_string()
    }
}

/// Format seconds with sensible precision for runtime tables.
#[must_use]
pub fn human_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

/// Minimal flag parser shared by the experiment binaries. Supports
/// `--flag value` and `--flag=value` forms plus boolean switches.
#[derive(Debug, Default, Clone)]
pub struct Args {
    raw: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse the process arguments (skipping the program name).
    #[must_use]
    pub fn parse() -> Args {
        Args::from_iter(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // not a FromIterator: parses flags
    pub fn from_iter(iter: impl IntoIterator<Item = String>) -> Args {
        let mut raw = Vec::new();
        let mut items = iter.into_iter().peekable();
        while let Some(item) = items.next() {
            let Some(stripped) = item.strip_prefix("--") else {
                eprintln!("ignoring positional argument {item:?}");
                continue;
            };
            if let Some((k, v)) = stripped.split_once('=') {
                raw.push((k.to_string(), Some(v.to_string())));
            } else {
                let value = match items.peek() {
                    Some(next) if !next.starts_with("--") => items.next(),
                    _ => None,
                };
                raw.push((stripped.to_string(), value));
            }
        }
        Args { raw }
    }

    /// `true` if the switch is present.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|(k, _)| k == name)
    }

    /// The value of `--name`, if given with a value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.raw
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parsed numeric flag with default.
    #[must_use]
    pub fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Comma-separated list flag with default.
    #[must_use]
    pub fn get_list<T: std::str::FromStr + Clone>(&self, name: &str, default: &[T]) -> Vec<T> {
        match self.get(name) {
            Some(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
            None => default.to_vec(),
        }
    }
}

/// Standard workload selection shared by the experiment binaries.
pub struct Workloads {
    /// Scale cap: datasets are generated with at most this many edges.
    pub max_edges: usize,
    /// δ in seconds.
    pub delta: i64,
    /// Emit JSON rows instead of only the human table.
    pub json: bool,
}

impl Workloads {
    /// Read the common flags (`--max-edges`, `--delta`, `--json`).
    #[must_use]
    pub fn from_args(args: &Args, default_max_edges: usize, default_delta: i64) -> Workloads {
        Workloads {
            max_edges: args.get_num("max-edges", default_max_edges),
            delta: args.get_num("delta", default_delta),
            json: args.flag("json"),
        }
    }

    /// Generate one dataset under the scale cap; returns the graph and
    /// the applied scale factor.
    #[must_use]
    pub fn generate(
        &self,
        spec: &hare_datasets::DatasetSpec,
    ) -> (temporal_graph::TemporalGraph, usize) {
        let scale = spec.scale_for(self.max_edges);
        (spec.generate(scale), scale)
    }

    /// Resolve `--datasets a,b,c` against the registry; defaults to the
    /// given list of names.
    #[must_use]
    pub fn datasets(&self, args: &Args, default: &[&str]) -> Vec<hare_datasets::DatasetSpec> {
        let names: Vec<String> = match args.get("datasets") {
            Some(v) => v.split(',').map(|s| s.trim().to_string()).collect(),
            None => default.iter().map(|s| s.to_string()).collect(),
        };
        names
            .iter()
            .filter_map(|n| {
                let d = hare_datasets::by_name(n);
                if d.is_none() {
                    eprintln!("unknown dataset {n:?}, skipping");
                }
                d
            })
            .collect()
    }
}

/// Emit one machine-readable result row (JSON object on its own line).
pub fn emit_json(fields: &[(&str, serde_json::Value)]) {
    let mut map = serde_json::Map::new();
    for (k, v) in fields {
        map.insert((*k).to_string(), v.clone());
    }
    println!("{}", serde_json::Value::Object(map));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_forms() {
        let a = Args::from_iter(
            [
                "--delta",
                "600",
                "--json",
                "--max-edges=5000",
                "--list",
                "1,2,3",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(a.get_num("delta", 0i64), 600);
        assert!(a.flag("json"));
        assert_eq!(a.get_num("max-edges", 0usize), 5000);
        assert_eq!(a.get_list::<u32>("list", &[]), vec![1, 2, 3]);
        assert_eq!(a.get_num("missing", 42i32), 42);
        assert!(!a.flag("absent"));
    }

    #[test]
    fn args_boolean_followed_by_flag() {
        let a = Args::from_iter(["--json", "--delta", "5"].iter().map(|s| s.to_string()));
        assert!(a.flag("json"));
        assert_eq!(a.get_num("delta", 0i64), 5);
    }

    #[test]
    fn human_formats() {
        assert_eq!(human_count(950), "950");
        assert_eq!(human_count(14_300), "14.3K");
        assert_eq!(human_count(65_700_000), "65.7M");
        assert_eq!(human_count(1_080_000_000), "1.08B");
        assert_eq!(human_secs(0.00123), "1.23ms");
        assert_eq!(human_secs(1.5), "1.50s");
        assert_eq!(human_secs(120.0), "120s");
    }

    #[test]
    fn workload_generation_respects_cap() {
        let args = Args::from_iter(std::iter::empty());
        let w = Workloads::from_args(&args, 10_000, 600);
        let spec = hare_datasets::by_name("SuperUser").unwrap();
        let (g, scale) = w.generate(&spec);
        assert!(g.num_edges() <= 10_000 + 100);
        assert!(scale >= 144);
    }

    #[test]
    fn timing_returns_result() {
        let (v, secs) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
