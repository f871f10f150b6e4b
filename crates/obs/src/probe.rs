//! The kernel profiling seam: a monomorphized [`Probe`] trait the
//! counting engines are generic over.
//!
//! Kernels wrap their phase boundaries in `probe.span(phase, || ...)`.
//! With the default [`NoopProbe`] the call monomorphizes to a direct
//! invocation of the closure — no branch, no clock, no allocation — so
//! probe-generic kernels stay inside the D-determinism lint scope and
//! cost nothing in production. The wall-clock implementation
//! ([`crate::timing::WallClockProbe`]) lives behind the
//! `hare-lint: timing` opt-out and is only instantiated by explicitly
//! observability-facing entry points (`hare-count --profile`,
//! `?trace=1`, `exp_obs`).

/// A named phase boundary inside a counting engine.
///
/// The variants map 1:1 onto the seams the kernels expose (see
/// `docs/OBSERVABILITY.md` for which engine reports which):
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The δ-window scan over event lanes (all engines).
    Scan,
    /// Folding per-node/per-window accumulators into final counters.
    Fold,
    /// Out-of-core chunk loading (`hare::ooc`): planning the chunk cuts
    /// against the source's time index; the chunks' loads and arena
    /// builds run inside the parallel [`Phase::Scan`].
    ChunkLoad,
    /// Budget-pressure eviction work (`hare::stream_sample`).
    Evict,
    /// Turning retained state into estimates/CIs (sampling engines).
    Summarise,
}

impl Phase {
    /// Every phase, in stable rendering order.
    pub const ALL: [Phase; 5] = [
        Phase::Scan,
        Phase::Fold,
        Phase::ChunkLoad,
        Phase::Evict,
        Phase::Summarise,
    ];

    /// Stable lower-case name used in traces, tables, and metrics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Scan => "scan",
            Phase::Fold => "fold",
            Phase::ChunkLoad => "chunk_load",
            Phase::Evict => "evict",
            Phase::Summarise => "summarise",
        }
    }

    /// Dense index into per-phase arrays (`0..Phase::ALL.len()`).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Observation hooks threaded through the counting kernels.
///
/// Implementations MUST be result-transparent: `span` returns exactly
/// what the closure returns, and the closure runs exactly once.
/// Kernels rely on this — counts are bit-identical across probe
/// implementations (differentially tested).
pub trait Probe {
    /// Run `f`, attributing its duration to `phase`. The default does
    /// no observation at all and compiles down to a plain call.
    #[inline(always)]
    fn span<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let _ = phase;
        f()
    }
}

/// The zero-cost probe: every span is a direct closure call.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_span_is_transparent() {
        let p = NoopProbe;
        let mut ran = 0;
        let out = p.span(Phase::Scan, || {
            ran += 1;
            42_u64
        });
        assert_eq!(out, 42);
        assert_eq!(ran, 1);
    }

    #[test]
    fn phase_names_are_stable_and_indexed() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["scan", "fold", "chunk_load", "evict", "summarise"]);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
