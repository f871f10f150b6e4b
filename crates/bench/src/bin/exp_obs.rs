//! Wall-clock gates: the checks that need a timer, and so cannot be a
//! deterministic test.
//!
//! 1. **Probe overhead.** The same CollegeMsg workload is timed in three
//!    modes: the unprobed [`hare::count_motifs`],
//!    [`hare::count_motifs_probed`] with [`hare::NoopProbe`] (must
//!    monomorphize away), and the same with the wall-clock
//!    [`hare::WallClockProbe`]. Before any timing, the binary asserts the
//!    three count matrices are **bit-identical** — a probe that perturbs
//!    counts fails regardless of its speed. Full runs gate the overhead
//!    on min-of-samples: ≤ 2% for the no-op probe, ≤ 5% for the timing
//!    probe.
//! 2. **Oversubscription.** HARE at 1, 2, 4 and 8 threads on a
//!    hub-skewed synthetic graph (40 000 edges with `--quick`, 200 000
//!    otherwise; δ = 2000): every thread count's throughput, from
//!    min-of-samples, stays at or above 0.9× HARE/1's.
//! 3. **Cache hit** (full runs only). An in-process `hare-serve` answers
//!    `GET /count` cold (its result cache cleared first) and from its
//!    cache; the median hit is at least 10× faster than the median cold
//!    answer.
//!
//! ```text
//! cargo run --release -p hare-bench --bin exp_obs -- \
//!     [--samples N] [--scale N] [--delta N] [--quick]
//! ```
//!
//! `--quick` drops to 5 samples on CollegeMsg at scale 8 and the
//! 40 000-edge synthetic graph, and skips the probe-overhead and
//! cache-hit gates, which are only meaningful on release-built,
//! lightly-loaded hardware. The bit-identity and oversubscription gates
//! run in both modes.

use std::time::Instant;

use hare_bench::time;
use hare_serve::http::client;
use hare_serve::{Server, ServerConfig};

/// Relative overhead ceilings for full (non-`--quick`) runs, checked on
/// min-of-samples: the no-op probe must vanish in the monomorphized
/// kernel, and the timing probe only pays a few `Instant::now` calls per
/// run (the seams sit at phase granularity, not per-edge).
const NOOP_OVERHEAD_CEILING: f64 = 0.02;
const TIMING_OVERHEAD_CEILING: f64 = 0.05;

/// Times `slots` modes in interleaved rounds, returning each mode's
/// samples. Every round runs each mode once, starting at a rotated
/// position, so slow drift in background load on a shared box and fixed
/// per-round effects (cache state after the round boundary, periodic
/// daemons) hit every mode equally. A fixed sample count can strand one
/// mode's estimate above its true value purely because interference
/// bursts missed the others, so after `samples` rounds more are added,
/// at most 3 × `samples`, until `converged` holds; the caller then
/// gates, and fails on a real gap rather than on a short run. `run`
/// returns the seconds it measured, so untimed set-up stays out.
fn interleave(
    slots: usize,
    samples: usize,
    mut run: impl FnMut(usize) -> f64,
    converged: impl Fn(&[Vec<f64>]) -> bool,
) -> Vec<Vec<f64>> {
    for slot in 0..slots {
        run(slot); // warm-up (untimed)
    }
    let mut times = vec![Vec::with_capacity(samples); slots];
    let mut round = 0;
    while round < samples || (round < 4 * samples && !converged(&times)) {
        for k in 0..slots {
            let slot = (round + k) % slots;
            times[slot].push(run(slot));
        }
        round += 1;
    }
    times
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Gate 1: probes leave the counts bit-identical and, in full runs, cost
/// at most their overhead ceilings.
fn probe_overhead(quick: bool, samples: usize, scale: usize, delta: i64) {
    let g = hare_datasets::by_name("CollegeMsg")
        .expect("registry")
        .generate(scale);
    let unprobed = hare::count_motifs(&g, delta);
    let nooped = hare::count_motifs_probed(&g, delta, &hare::NoopProbe);
    let timing_probe = hare::WallClockProbe::new();
    let timed = hare::count_motifs_probed(&g, delta, &timing_probe);
    assert_eq!(
        unprobed.matrix, nooped.matrix,
        "NoopProbe perturbed the count matrix"
    );
    assert_eq!(
        unprobed.matrix, timed.matrix,
        "WallClockProbe perturbed the count matrix"
    );
    assert!(
        !timing_probe.snapshot().is_empty(),
        "timing probe recorded no phase spans on a real workload"
    );

    let modes = ["unprobed", "noop_probe", "timing_probe"];
    let times = interleave(
        modes.len(),
        samples,
        |slot| {
            time(|| match slot {
                0 => {
                    std::hint::black_box(hare::count_motifs(&g, delta));
                }
                1 => {
                    std::hint::black_box(hare::count_motifs_probed(&g, delta, &hare::NoopProbe));
                }
                _ => {
                    let probe = hare::WallClockProbe::new();
                    std::hint::black_box(hare::count_motifs_probed(&g, delta, &probe));
                }
            })
            .1
        },
        // The probed modes run the very same monomorphized kernel, so
        // their true minima match the unprobed floor (plus a handful of
        // clock reads for the timing probe).
        |t| {
            min(&t[1]) <= (1.0 + NOOP_OVERHEAD_CEILING) * min(&t[0])
                && min(&t[2]) <= (1.0 + TIMING_OVERHEAD_CEILING) * min(&t[0])
        },
    );

    let floor = min(&times[0]);
    println!("CollegeMsg/{scale}  delta={delta}  FAST under the probe seams");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "mode", "mean", "min", "median", "samples", "overhead"
    );
    for (mode, ts) in modes.iter().zip(&times) {
        println!(
            "{mode:<16} {:>10} {:>10} {:>10} {:>8} {:>9.2}%",
            hare_bench::human_secs(mean(ts)),
            hare_bench::human_secs(min(ts)),
            hare_bench::human_secs(median(ts)),
            ts.len(),
            (min(ts) / floor - 1.0) * 100.0,
        );
    }
    if !quick {
        for (slot, ceiling) in [(1, NOOP_OVERHEAD_CEILING), (2, TIMING_OVERHEAD_CEILING)] {
            let overhead = min(&times[slot]) / floor - 1.0;
            assert!(
                overhead <= ceiling,
                "{} overhead {:.2}% exceeds {:.0}% ceiling",
                modes[slot],
                overhead * 100.0,
                ceiling * 100.0
            );
        }
    }
}

/// Gate 2: no thread count falls more than 10% below HARE/1's throughput.
fn oversubscription(samples: usize, edges: usize) {
    let g = temporal_graph::gen::scaling_workload(edges);
    assert!(
        2 * g.num_edges() >= hare::hare::SEQ_FALLBACK_EVENTS,
        "synthetic workload too small to exercise the scheduler"
    );
    let delta = 2_000;
    let threads = [1usize, 2, 4, 8];
    let engines: Vec<hare::Hare> = threads
        .iter()
        .map(|&t| hare::Hare::with_threads(t))
        .collect();
    let times = interleave(
        engines.len(),
        samples,
        |slot| time(|| std::hint::black_box(engines[slot].count_all(&g, delta))).1,
        // The clamp and the sequential fallback put every config's true
        // floor at or below HARE/1's, so the oversubscribed minima
        // converge to it from above.
        |t| t.iter().all(|ts| min(ts) <= min(&t[0])),
    );

    // Throughput from min-of-samples: the most repeatable figure on a
    // shared box (the least-interrupted iteration).
    let throughput = |ts: &[f64]| g.num_edges() as f64 / min(ts);
    let base = throughput(&times[0]);
    println!("\nsynthetic_e{edges}  delta={delta}  HARE thread sweep");
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>14}",
        "threads", "effective", "min", "samples", "edges/s"
    );
    for ((engine, &t), ts) in engines.iter().zip(&threads).zip(&times) {
        println!(
            "{t:>8} {:>10} {:>10} {:>8} {:>14.0}",
            engine.effective_threads(),
            hare_bench::human_secs(min(ts)),
            ts.len(),
            throughput(ts)
        );
    }
    // A >10% shortfall is the old oversubscription regression, not noise.
    for (&t, ts) in threads.iter().zip(&times) {
        let thr = throughput(ts);
        assert!(
            thr >= 0.9 * base,
            "HARE/{t} throughput {thr:.0} e/s fell >10% below HARE/1 {base:.0} e/s"
        );
    }
}

/// Gate 3: a result-cache hit is at least 10× faster than a cold count.
fn cache_hit(samples: usize, scale: usize, delta: i64) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        preload: vec![("CollegeMsg".into(), scale)],
        ..ServerConfig::default()
    })
    .expect("bind server");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn();
    let target = format!("/count?dataset=CollegeMsg&delta={delta}");
    // One request, cold (the cache cleared first, untimed) or a hit.
    let request = |cold: bool| {
        if cold {
            let clear = client::post(addr, "/cache/clear", "").expect("clear");
            assert_eq!(clear.status, 200);
        }
        let t0 = Instant::now();
        let resp = client::get(addr, &target).expect("GET /count");
        let s = t0.elapsed().as_secs_f64();
        assert_eq!(resp.status, 200, "{}", resp.text());
        s
    };
    let times = interleave(
        2,
        samples,
        // Each timed request follows an untimed one of its own kind, so
        // neither pays for the state the other left behind (a hit read
        // right after a cold count is slower).
        |slot| {
            request(slot == 0);
            request(slot == 0)
        },
        // Exactly `samples` rounds: the gate reads medians, and adding
        // rounds until the gate's own statistic passes would bias it.
        |_| true,
    );
    let (cold, hit) = (median(&times[0]), median(&times[1]));
    let speedup = cold / hit;
    println!(
        "\nCollegeMsg/{scale}  delta={delta}  GET /count: cold {} | cache hit {} | {speedup:.1}x",
        hare_bench::human_secs(cold),
        hare_bench::human_secs(hit),
    );
    assert!(
        speedup >= 10.0,
        "cache-hit latency only {speedup:.1}x below cold"
    );
    handle.shutdown_and_wait().expect("clean shutdown");
}

fn main() {
    let args = hare_bench::Args::parse();
    let quick = args.flag("quick");
    let samples: usize = args.get_num("samples", if quick { 5 } else { 30 });
    let delta: i64 = args.get_num("delta", 600);
    let scale: usize = args.get_num("scale", if quick { 8 } else { 1 });

    probe_overhead(quick, samples, scale, delta);
    oversubscription(samples, if quick { 40_000 } else { 200_000 });
    if !quick {
        cache_hit(samples, scale, delta);
    }
}
