//! Timing summaries, process memory, and the result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The value at quantile `q` of `sorted` (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// How many samples lie strictly beyond quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Samples needed so that at least 10 lie beyond the 90th percentile.
pub const MIN_P90_SAMPLES: usize = 100;

/// Latency summary of one request class: p50 and p90 with sample count.
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        let s = sorted(samples.to_vec());
        Latency {
            n: s.len(),
            p50: quantile(&s, 0.5),
            p90: quantile(&s, 0.9),
        }
    }

    /// Whether p90 has at least 10 samples beyond it.
    pub fn p90_reportable(&self) -> bool {
        beyond(self.n, 0.9) >= 10
    }
}

/// Peak resident set of a live process, from `/proc/<pid>/status`.
pub fn peak_rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// One finished program run.
pub struct Job {
    pub wall: f64,
    pub ok_exit: bool,
    pub stdout: String,
}

/// Run `cmd` to completion, capturing stdout, and time it from spawn to
/// reaped exit.
pub fn run_job(cmd: &mut Command) -> Job {
    let start = Instant::now();
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::null()).output();
    let wall = start.elapsed().as_secs_f64();
    match out {
        Ok(out) => Job {
            wall,
            ok_exit: out.status.success(),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        },
        Err(_) => Job {
            wall,
            ok_exit: false,
            stdout: String::new(),
        },
    }
}

/// The flag that runs this binary as [`peak_rss_helper`].
pub const PEAK_RSS_FLAG: &str = "--peak-rss-of";

/// Run `cmd` under this binary's [`PEAK_RSS_FLAG`] mode, not timed:
/// its standard output and the program's own peak RSS in bytes, or
/// `None` if it failed.
///
/// A child's `ru_maxrss` also counts the address space it was spawned
/// from, and a job spawned by the harness would report the harness's
/// peak (26.7 or 37.7 MB, by the harness's own allocations, for a
/// program that peaks near 16 MB). The helper is a fresh, small process,
/// so the job it spawns reports its own peak.
pub fn peak_rss_job(cmd: &Command) -> Option<(String, u64)> {
    let helper = std::env::current_exe().ok()?;
    let out = Command::new(helper)
        .arg(PEAK_RSS_FLAG)
        .arg(cmd.get_program())
        .args(cmd.get_args())
        .stdin(Stdio::null())
        .output()
        .ok()?;
    let peak = String::from_utf8_lossy(&out.stderr).trim().parse().ok()?;
    out.status
        .success()
        .then(|| (String::from_utf8_lossy(&out.stdout).into_owned(), peak))
}

/// `perfbench --peak-rss-of PROGRAM ARGS...`: run the program with this
/// process's standard output, reap it with `wait4`, and print its peak
/// RSS in bytes on standard error. Succeeds when the program does.
pub fn peak_rss_helper(argv: &[String]) -> bool {
    let Some((program, args)) = argv.split_first() else {
        return false;
    };
    let Ok(child) = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
    else {
        return false;
    };
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` (a `struct rusage`: two timevals and
    // fourteen longs on 64-bit Linux) are live and writable for the
    // call, and the pid is our unreaped child, which std never waits for
    // after this.
    let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    eprintln!("{}", u64::try_from(usage.maxrss).unwrap_or(0) * 1024);
    // Exited, not signalled, with code 0.
    rc > 0 && status == 0
}

/// Wait for `child` up to `limit`, killing it if it does not exit.
pub fn reap(child: &mut Child, limit: Duration) -> bool {
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) if start.elapsed() < limit => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

/// Metric values by name, each with its unit.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }

    /// An aligned `name value unit` table for humans.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.0 {
            let _ = writeln!(out, "  {name:<36} {:>16} {unit}", num(*value));
        }
        out
    }
}

/// A JSON number with all its digits (non-finite values become null).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Outcome tally of every checked operation in a run.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Write `text` to `path`, creating parent directories.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// JSON string literal with the escapes the inputs here can need.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread confined to one core until dropped, when its
/// previous cores are restored. Threads and processes it starts
/// meanwhile inherit the one core and keep it.
pub struct Pinned {
    saved: [u64; 16],
    pub core: usize,
}

/// A `cpu_set_t` of 1 024 bits.
const MASK_BYTES: usize = 128;

/// Confine the calling thread to the lowest-numbered core it may run
/// on; `None` if the affinity could not be read or set.
pub fn pin_to_one_core() -> Option<Pinned> {
    let mut saved = [0u64; 16];
    // SAFETY: `saved` is a writable buffer of `MASK_BYTES` bytes for the
    // whole call, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, MASK_BYTES, saved.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = saved.iter().position(|&w| w != 0)?;
    let core = word * 64 + saved[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (core % 64);
    // SAFETY: as above; `one` is only read.
    (unsafe { sched_setaffinity(0, MASK_BYTES, one.as_ptr()) } == 0)
        .then_some(Pinned { saved, core })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `saved` is a readable buffer of `MASK_BYTES` bytes.
        unsafe { sched_setaffinity(0, MASK_BYTES, self.saved.as_ptr()) };
    }
}
