//! # hare-bench
//!
//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §4 for the index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `exp_perf`    | Perf trajectory snapshot (`BENCH_<n>.json` per PR) |
//! | `exp_approx`  | Accuracy-vs-speedup sweep of the sampling estimator |
//! | `exp_stream`  | Bounded-memory streaming estimator battery (`BENCH_STREAM_<n>.json`) |
//! | `exp_serve`   | `hare-serve` latency/throughput (cold vs cache hit) |
//! | `exp_obs`     | Probe-seam overhead battery (`BENCH_OBS_<n>.json`) |
//! | `exp_table2`  | Table II — dataset statistics |
//! | `exp_fig9`    | Fig. 9 — WikiTalk degree skew & per-node cost |
//! | `exp_fig10`   | Fig. 10 — FAST vs EX count matrices |
//! | `exp_table3`  | Table III — single-thread runtimes & speedups |
//! | `exp_fig11`   | Fig. 11 — runtime vs #threads |
//! | `exp_fig12a`  | Fig. 12(a) — runtime vs δ |
//! | `exp_fig12b`  | Fig. 12(b) — runtime vs degree threshold |
//!
//! Every binary accepts `--max-edges N` (dataset scale cap; the scale
//! factor actually applied is printed per row), `--delta N`, and
//! `--json` (machine-readable result rows on stdout). Run with
//! `cargo run --release -p hare-bench --bin <name> -- [flags]`.
//!
//! ## Perf snapshot schema (`exp_perf`)
//!
//! `exp_perf` re-times the workloads covered by the criterion suites and
//! writes one JSON document (default `BENCH_3.json`; override with
//! `--out`). Schema `hare-bench/perf/v2`:
//!
//! ```json
//! {
//!   "schema": "hare-bench/perf/v2",
//!   "delta": 600,
//!   "quick": false,
//!   "benches": [
//!     { "name": "full_collegemsg_s1/fast/600", "threads": 1,
//!       "mean_s": 0.00102, "min_s": 0.00097,
//!       "median_s": 0.00101, "samples": 10, "rss_bytes": 24903680 }
//!   ],
//!   "scaling": [
//!     { "threads": 2, "effective_threads": 1, "min_s": 0.081,
//!       "median_s": 0.083, "throughput_eps": 2469135.8 }
//!   ],
//!   "ooc": {
//!     "budget_bytes": 800001, "full_lane_bytes": 6400000,
//!     "peak_resident_lane_bytes": 793728, "chunks": 11,
//!     "forced_cuts": 0, "min_s": 0.112
//!   }
//! }
//! ```
//!
//! * `name` — `<workload>_s<scale>/<algorithm>/<delta>` (registry
//!   dataset, `toy_fig1`, or `synthetic_e<edges>` for the generated
//!   large-graph workload), `s<scale>` the dataset's scale divisor.
//! * `mean_s` / `min_s` / `median_s` — per-iteration wall-clock seconds
//!   over `samples` timed iterations after one untimed warm-up.
//! * `threads` — the *requested* HARE thread count (1 for sequential
//!   kernels); `rss_bytes` — process resident set right after the row's
//!   samples ([`resident_set_bytes`]; `null` off-procfs platforms).
//! * `scaling` — the HARE thread sweep (`--threads 1,2,4,8`) on the
//!   synthetic graph. `effective_threads` is what the clamp actually
//!   granted, and `throughput_eps` (edges/second, from min-of-samples)
//!   must stay within 10% of the `threads = 1` row — oversubscribed
//!   configs never regress below sequential (asserted in-binary).
//! * `ooc` — the out-of-core row: the same synthetic graph written to a
//!   `HARELG01` lane file and streamed under `budget_bytes` on a
//!   two-worker pool (the workers share the budget). In-binary
//!   asserts pin `forced_cuts == 0`, `peak_resident_lane_bytes <=
//!   budget_bytes`, and bit-identical counts to in-RAM FAST.
//! * `quick` — `true` when run with `--quick` (CI perf-smoke: 3 samples,
//!   CollegeMsg at scale 8, 40k-edge synthetic; the sweep and the
//!   out-of-core row still run).
//!
//! One snapshot is committed at the repo root per perf-focused PR
//! (`BENCH_<pr>.json`), so the absolute trajectory of the hot paths is
//! reviewable over time. The binary also asserts count shapes (Fig. 1
//! toy M65; HARE/FAST/windowed/compressed-lane/out-of-core agreement)
//! so a CI run fails on correctness regressions too.
//!
//! ## Approximate-counting snapshot schema (`exp_approx`)
//!
//! `exp_approx` sweeps the interval-sampling estimator's window keep
//! probability `p` on CollegeMsg and writes one JSON document (default
//! `BENCH_APPROX.json`; override with `--out`). Schema
//! `hare-bench/approx/v1`:
//!
//! ```json
//! {
//!   "schema": "hare-bench/approx/v1",
//!   "dataset": "CollegeMsg", "scale": 1, "delta": 600,
//!   "window_factor": 10, "confidence": 0.95,
//!   "samples": 10, "seeds": 25, "quick": false,
//!   "exact_mean_s": 0.00102, "exact_total": 40075,
//!   "rows": [
//!     { "prob": 0.3, "mean_s": 0.00084, "speedup": 1.21,
//!       "mean_rel_err": 0.345, "max_rel_err": 0.614,
//!       "coverage": 0.793,
//!       "windows_sampled": 795, "windows_total": 2776 }
//!   ]
//! }
//! ```
//!
//! * `exact_mean_s` — mean wall-clock seconds of exact FAST over
//!   `samples` timed iterations (after one untimed warm-up); each row's
//!   `mean_s` is the same measurement for the estimator at that `prob`,
//!   and `speedup` is their ratio.
//! * `mean_rel_err` / `max_rel_err` — mean/max over `seeds` sampling
//!   seeds of the mean relative error across motifs with non-zero exact
//!   count ([`hare::sample::SampledCounts::mean_relative_error`]).
//! * `coverage` — mean over seeds of the fraction of non-zero motifs
//!   whose confidence interval covers the exact count
//!   ([`hare::sample::SampledCounts::covered_fraction`]).
//! * `windows_sampled` / `windows_total` — kept vs total windows for
//!   the timing seed.
//!
//! The estimator's derivation (unbiasedness, variance, the boundary
//! correction) lives in `docs/ESTIMATORS.md`. The binary asserts that
//! `prob = 1.0` rows reproduce the exact counts bit-identically and
//! that coverage never collapses (a broken variance estimate or rescale
//! fails CI).
//!
//! ## Streaming-estimator snapshot schema (`exp_stream`)
//!
//! `exp_stream` replays CollegeMsg through
//! [`hare::stream_sample::StreamingEstimator`] under a ladder of byte
//! budgets (fractions of the full retained footprint) and scores the
//! final tick against the exact sliding-window engine over 50 seeds
//! per budget (8 with `--quick`). Schema `hare-bench/stream/v1`
//! (default `BENCH_STREAM.json`; override with `--out`):
//!
//! ```json
//! {
//!   "schema": "hare-bench/stream/v1",
//!   "dataset": "CollegeMsg", "scale": 1, "delta": 600,
//!   "window": 16651257, "window_factor": 8, "confidence": 0.95,
//!   "seeds": 50, "quick": false,
//!   "edges": 20296, "footprint_bytes": 324736, "exact_total": 40075,
//!   "rows": [
//!     { "frac": 8, "budget_bytes": 40592, "mean_s": 0.0102,
//!       "final_prob": 0.5, "max_retained_bytes": 40592,
//!       "mean_rel_err": 0.0054,
//!       "coverage": 0.93, "coverage_supported": 1.0,
//!       "support_min_count": 30, "mean_total": 40034.2 }
//!   ]
//! }
//! ```
//!
//! * `frac` — the budget is `footprint_bytes / frac`, so `frac = 1` is
//!   the never-binding roomy budget and larger fractions squeeze
//!   harder; `max_retained_bytes` — the largest accounted footprint
//!   observed after any push across all seeds (asserted `<=` budget
//!   after every single push, not just at ticks).
//! * `final_prob` — mean over seeds of the coin-tier `p` at the final
//!   tick; `mean_rel_err` — mean over seeds of the mean relative error
//!   across motifs with non-zero exact count.
//! * `coverage` — fraction of (seed × non-zero motif) cells whose 95%
//!   CI covers the exact count; `coverage_supported` restricts to
//!   motifs with exact count ≥ `support_min_count`, where the normal
//!   intervals' CLT assumption has enough mass to bite.
//! * In-binary asserts: the roomy budget reproduces the exact counts
//!   with degenerate intervals, every push stays under budget, the
//!   `frac = 8` supported coverage clears 0.90 (0.5 with `--quick`),
//!   and the mean total drifts < 15% from exact. One snapshot is
//!   committed per streaming-focused PR (`BENCH_STREAM_<pr>.json`).
//!
//! ## Service snapshot schema (`exp_serve`)
//!
//! `exp_serve` starts an in-process `hare-serve` on an ephemeral port
//! and measures `GET /count` end to end (TCP connect → full body).
//! Schema `hare-bench/serve/v1` (default `BENCH_SERVE.json`; override
//! with `--out`):
//!
//! ```json
//! {
//!   "schema": "hare-bench/serve/v1",
//!   "dataset": "CollegeMsg", "scale": 1, "delta": 600,
//!   "quick": false, "samples": 30,
//!   "cold_exact_s":  { "median_s": 0.0019, "mean_s": 0.0020, "min_s": 0.0017 },
//!   "cache_hit_s":   { "median_s": 0.00004, "mean_s": 0.00004, "min_s": 0.00003 },
//!   "hit_speedup": 52.8,
//!   "throughput": [
//!     { "clients": 1, "requests": 200, "total_s": 0.011, "rps": 17844.0 }
//!   ],
//!   "server": { "workers": 8, "cache_hits": 2632, "cache_misses": 32, "rejected": 0 }
//! }
//! ```
//!
//! * `cold_exact_s` — per-request latency with the result cache cleared
//!   before every sample (the query recomputes); `cache_hit_s` — the
//!   same query answered from the LRU cache. `hit_speedup` is the ratio
//!   of medians, asserted ≥ 10× in full (non-`--quick`) runs.
//! * `throughput` — wall-clock requests/second with N concurrent
//!   clients hammering the cache-hit path (`--requests` each).
//! * The binary also asserts the serving contracts before timing:
//!   served bytes equal the library-rendered `hare::report` body, cache
//!   hits return identical bytes, and `p = 1.0` approximate estimates
//!   equal the exact counts — so CI fails on correctness drift.
//!
//! ## Observability-overhead snapshot schema (`exp_obs`)
//!
//! `exp_obs` times the same CollegeMsg FAST workload in three modes —
//! unprobed, [`hare::NoopProbe`], and the wall-clock
//! [`hare::WallClockProbe`] — interleaved round-robin, after asserting
//! the three count matrices are bit-identical. Schema
//! `hare-bench/obs/v1` (default `BENCH_OBS.json`; override with
//! `--out`):
//!
//! ```json
//! {
//!   "schema": "hare-bench/obs/v1",
//!   "dataset": "CollegeMsg", "scale": 1, "delta": 600,
//!   "quick": false, "samples": 30,
//!   "workload": "full_collegemsg_s1/fast/600",
//!   "baseline": { "file": "BENCH_PERF_8.json",
//!                 "name": "full_collegemsg_s1/fast/600",
//!                 "min_s": 0.00115, "median_s": 0.00127 },
//!   "rows": [
//!     { "mode": "unprobed", "mean_s": 0.00121, "min_s": 0.00115,
//!       "median_s": 0.00119, "samples": 30,
//!       "overhead_vs_unprobed": 0.0 }
//!   ],
//!   "phases": [ { "phase": "scan", "total_us": 1100, "spans": 1 } ],
//!   "rss_bytes": 4898816
//! }
//! ```
//!
//! * `overhead_vs_unprobed` — `min_s / unprobed.min_s - 1`, computed on
//!   min-of-samples (the least-interrupted iteration). Full runs gate
//!   the no-op probe at ≤ 2% and the timing probe at ≤ 5%; `--quick`
//!   (the CI obs-smoke configuration) still asserts bit-identity but
//!   skips the overhead gates, which need release-built quiet hardware.
//! * `baseline` — the PR 8 perf snapshot's FAST row for the same
//!   workload when `--baseline` (default `BENCH_PERF_8.json`) is on
//!   disk; recorded for trajectory context, never gated on (absolute
//!   seconds from another session are not comparable).
//! * `phases` — the timing probe's per-phase totals from the
//!   correctness pass (`scan`/`fold` for in-RAM FAST).

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

/// The process's current resident set size in bytes, read from
/// `/proc/self/status` (`VmRSS`). Returns `None` on platforms without
/// procfs — snapshot rows record `null` there rather than guessing.
#[must_use]
pub fn resident_set_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
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
