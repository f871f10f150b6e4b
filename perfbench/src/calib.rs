//! Machine-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by ±20 % over
//! tens of seconds: the same `hare-count` job, run back to back for two
//! and a half minutes on a 2-vCPU VM, took 85 ms in one quarter-minute
//! and 124 ms in another, and its CPU time moved with its wall time, so
//! the slowdown is the machine's (clock, shared caches, memory), not
//! steal or scheduling. Runs a few minutes apart then differ by more than
//! any program change worth catching.
//!
//! So between program operations the harness times a fixed unit of its
//! own work ([`unit`]: generate, sort and scatter 512 Ki integers) that
//! shares no code with the programs, and states every timing in
//! reference seconds: measured seconds × the unit's reference seconds ÷
//! the time of the unit run beside it ([`Speed::scale`], each batch job
//! with the unit after it) or the median time of the units run nearest
//! to it ([`Speed::to_ref`], each request with the units of its second
//! or two). A program change moves the program's timings and not the
//! unit's, so it shows in full; a machine slowdown moves both and
//! cancels. In the probe above, the median job time over the median unit
//! time of 20-s windows had a quartile spread of 3 % where the job time
//! alone had 10 %.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::measure::median;

/// Seconds one [`unit`] takes on the reference machine (a 2-vCPU VM of
/// a shared x86-64 host, median of quiet runs). Only the scale of the
/// reported figures depends on it, not their spread.
pub const REF_UNIT_S: f64 = 0.02;

/// Integers per unit: 4 MiB of keys and 2 MiB of counters, the size of
/// the graphs the batch jobs build.
const UNIT_LEN: usize = 1 << 19;

/// Run one calibration unit and return its wall seconds.
pub fn unit() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..UNIT_LEN)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect();
    keys.sort_unstable();
    let mut counters = vec![0u32; UNIT_LEN];
    let mut acc = 0u64;
    for (i, &k) in keys.iter().enumerate() {
        let j = k as usize & (UNIT_LEN - 1);
        counters[j] = counters[j].wrapping_add(i as u32);
        acc = acc.wrapping_add(u64::from(counters[(k >> 40) as usize & (UNIT_LEN - 1)]));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Seconds one [`Echo::unit`] takes on the reference machine, harness
/// and echo thread on one core.
pub const REF_LOOPBACK_S: f64 = 0.01;

/// Exchanges per loopback unit.
const LOOPBACK_EXCHANGES: usize = 200;

/// A loopback listener on its own thread that answers every connection
/// with a fixed 2 000-byte reply and closes it: the kernel work of a
/// request (connect, accept, small read and write, close) without the
/// daemon.
pub struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    pub fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let reply = [b'x'; 2_000];
            let mut request = [0u8; 256];
            for conn in listener.incoming() {
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(mut conn) = conn {
                    let _ = conn.read(&mut request);
                    let _ = conn.write_all(&reply);
                }
            }
        });
        Ok(Echo {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// Run one loopback unit and return its wall seconds.
    pub fn unit(&self) -> f64 {
        let start = Instant::now();
        let mut reply = Vec::with_capacity(4_096);
        for _ in 0..LOOPBACK_EXCHANGES {
            reply.clear();
            if let Ok(mut s) = TcpStream::connect(self.addr) {
                let _ = s.set_nodelay(true);
                let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
                let _ = s.read_to_end(&mut reply);
            }
        }
        black_box(reply.len());
        start.elapsed().as_secs_f64()
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Units whose median gives the machine's speed at a moment: this many
/// run nearest to it, a second or two of a run.
const NEAREST: usize = 9;

/// The calibration units timed through one run.
pub struct Speed {
    /// Seconds of one unit on the reference machine.
    ref_s: f64,
    /// The clock that `now`, samples and `to_ref` share.
    origin: Instant,
    /// (run time at the unit's midpoint, unit seconds), in run order.
    units: Vec<(f64, f64)>,
    echo: Option<Echo>,
}

impl Speed {
    /// Compute units only: for the batch jobs and the daemon's set-up.
    pub fn compute(origin: Instant) -> Speed {
        Speed {
            ref_s: REF_UNIT_S,
            origin,
            units: Vec::new(),
            echo: None,
        }
    }

    /// A compute unit plus a loopback unit each time: for the daemon's
    /// request path, which is mostly kernel work. The echo thread runs
    /// where the calling thread may run.
    pub fn with_loopback(origin: Instant) -> std::io::Result<Speed> {
        Ok(Speed {
            ref_s: REF_UNIT_S + REF_LOOPBACK_S,
            origin,
            units: Vec::new(),
            echo: Some(Echo::start()?),
        })
    }

    /// Seconds since the run's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run and record one unit; returns its seconds.
    pub fn sample(&mut self) -> f64 {
        let at = self.now();
        let loopback = self.echo.as_ref().map_or(0.0, Echo::unit);
        let secs = unit() + loopback;
        self.units.push((at + secs / 2.0, secs));
        secs
    }

    /// `secs` in reference seconds, scaled by one unit of `unit_secs`
    /// run beside it.
    pub fn scale(&self, secs: f64, unit_secs: f64) -> f64 {
        secs * self.ref_s / unit_secs
    }

    /// `secs` measured from run time `at`, in reference seconds: scaled
    /// by the median of the `NEAREST` units run nearest to its midpoint,
    /// so a slow spell inside a run is scaled by units timed in it.
    pub fn to_ref(&self, at: f64, secs: f64) -> f64 {
        let mid = at + secs / 2.0;
        let n = self.units.len();
        let i = self.units.partition_point(|u| u.0 < mid);
        let lo = i.saturating_sub(NEAREST / 2).min(n.saturating_sub(NEAREST));
        let near: Vec<f64> = self.units[lo..(lo + NEAREST).min(n)]
            .iter()
            .map(|u| u.1)
            .collect();
        secs * self.ref_s / median(&near)
    }

    /// Median seconds of a unit over the run.
    pub fn unit_s(&self) -> f64 {
        median(&self.units.iter().map(|u| u.1).collect::<Vec<_>>())
    }

    /// The calibration record of a run: reference and median unit
    /// seconds, and how many units ran.
    pub fn write_meta(&self, meta: &mut crate::Meta) {
        meta.num("calib_ref_unit_s", self.ref_s);
        meta.int("calib_units", self.units.len() as u64);
        meta.num("calib_unit_s", self.unit_s());
    }
}
