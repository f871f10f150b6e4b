//! Delta-encoded, bit-packed timestamp lanes.
//!
//! The timestamp lane is the one lane every δ-window scan streams end to
//! end, so it dominates the resident footprint of a big graph
//! (8 bytes/event raw). Within one node run `S_u` timestamps are sorted,
//! which makes them ideal for delta-from-anchor compression: store the
//! run's first timestamp (*anchor*) once, then each event as
//! `ts[i] - anchor` packed at a fixed bit width chosen per run
//! (`bits(ts[last] - anchor)`). Unlike varint streams, fixed-width
//! packing keeps **O(1) random access** — `NodeEvents::partition_point`
//! and the HARE intra-node range splits still binary-search a run
//! without decoding it — while bursty real-world runs (bounded time
//! span, thousands of events) typically drop from 64 to 10–25 bits per
//! timestamp.
//!
//! Three layers:
//!
//! * [`PackedTs`] — whole-graph storage: one bit-packed words arena plus
//!   per-run `(anchor, width, bit_start)` metadata, one run per node
//!   (the out-of-core edge stream reuses it with one run per block of
//!   edges).
//! * [`PackedRun`] — the borrowed per-node view; decodes one timestamp
//!   with a shift/mask pair (no branches beyond the word-boundary
//!   blend).
//! * [`TsLane`] / [`TsRead`] — what kernels actually consume.
//!   [`TsLane`] is the enum the graph hands out (raw slice or packed
//!   run); hot kernels match on it **once per node** and run a scan
//!   monomorphised over [`TsRead`], so the raw path compiles to plain
//!   slice indexing with zero dispatch in the inner loop.
//!
//! hare-lint: no-alloc

use crate::types::Timestamp;

/// Storage layout of a graph's timestamp lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneLayout {
    /// Uncompressed: 8 bytes per event, zero decode cost. The default.
    #[default]
    Raw,
    /// Delta-from-anchor bit-packed per node run ([`PackedTs`]),
    /// decoded on the fly by the kernels. Bit-identical counts; lower
    /// resident footprint on bursty graphs.
    Compressed,
}

impl std::fmt::Display for LaneLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneLayout::Raw => write!(f, "raw"),
            LaneLayout::Compressed => write!(f, "compressed"),
        }
    }
}

/// Read-only random access to one node's timestamp run. Hot kernels are
/// generic over this so each lane representation gets its own
/// monomorphised scan (the raw path keeps compiling to slice loads).
pub trait TsRead: Copy {
    /// Number of timestamps in the run.
    fn len(&self) -> usize;
    /// The `i`-th timestamp. Panics (or returns garbage in release for
    /// the packed path) if `i >= len()`; callers stay in bounds.
    fn at(&self, i: usize) -> Timestamp;
    /// `true` if the run is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TsRead for &[Timestamp] {
    #[inline]
    fn len(&self) -> usize {
        <[Timestamp]>::len(self)
    }

    #[inline]
    fn at(&self, i: usize) -> Timestamp {
        self[i]
    }
}

/// Borrowed view over one node's bit-packed timestamp run.
#[derive(Debug, Clone, Copy)]
pub struct PackedRun<'a> {
    /// Packed words arena (shared by all runs; padded with one tail word
    /// so the two-word blend in [`TsRead::at`] never reads out of
    /// bounds).
    words: &'a [u64],
    /// Absolute bit offset of this run's first delta within `words`.
    bit_start: u64,
    /// First timestamp of the run; all deltas are relative to it.
    anchor: Timestamp,
    /// Bits per delta (0 ⇒ every timestamp equals the anchor).
    width: u32,
    /// `width` low bits set (0 for `width == 0`).
    mask: u64,
    /// Number of timestamps in the run.
    len: usize,
}

impl PackedRun<'_> {
    /// Sub-run over `range` (deltas stay anchored to the full run's
    /// first timestamp, so no re-encoding is needed).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[inline]
    #[must_use]
    pub fn slice(self, range: std::ops::Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= self.len);
        PackedRun {
            bit_start: self.bit_start + range.start as u64 * u64::from(self.width),
            len: range.end - range.start,
            ..self
        }
    }

    /// The value whose delta starts at absolute bit `bit`.
    #[inline]
    fn value_at_bit(&self, bit: u64) -> Timestamp {
        let word = (bit >> 6) as usize;
        let shift = (bit & 63) as u32;
        let lo = self.words[word] >> shift;
        // High part from the next word; `(x << (63 - s)) << 1` is
        // `x << (64 - s)` for `s > 0` and exactly 0 for `s == 0`, so the
        // blend is branch-free and never shifts by 64.
        let hi = (self.words[word + 1] << (63 - shift)) << 1;
        self.anchor
            .wrapping_add(((lo | hi) & self.mask) as Timestamp)
    }

    /// Decode `out.len()` values from position `start` on into `out`:
    /// the sequential form of [`TsRead::at`], with no multiply per value.
    ///
    /// # Panics
    /// Panics if the values run past the words arena.
    #[inline]
    pub(crate) fn unpack(&self, start: usize, out: &mut [Timestamp]) {
        debug_assert!(start + out.len() <= self.len);
        if self.width == 0 {
            out.fill(self.anchor);
            return;
        }
        let width = u64::from(self.width);
        let mut bit = self.bit_start + start as u64 * width;
        for slot in out {
            *slot = self.value_at_bit(bit);
            bit += width;
        }
    }
}

impl TsRead for PackedRun<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn at(&self, i: usize) -> Timestamp {
        debug_assert!(i < self.len);
        if self.width == 0 {
            return self.anchor;
        }
        self.value_at_bit(self.bit_start + i as u64 * u64::from(self.width))
    }
}

/// One node's timestamp lane as handed out by the graph: either a
/// borrowed raw slice or a bit-packed run. Kernels match once per node
/// and stay monomorphised over [`TsRead`] inside the scan.
#[derive(Debug, Clone, Copy)]
pub enum TsLane<'a> {
    /// Uncompressed lane: a plain sorted slice.
    Raw(&'a [Timestamp]),
    /// Compressed lane: delta-from-anchor fixed-width packed run.
    Packed(PackedRun<'a>),
}

impl<'a> TsLane<'a> {
    /// Number of timestamps.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            TsLane::Raw(s) => s.len(),
            TsLane::Packed(p) => p.len,
        }
    }

    /// `true` if the lane holds no timestamps.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th timestamp.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds (raw path; the packed path panics
    /// in debug builds).
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> Timestamp {
        match self {
            TsLane::Raw(s) => s[i],
            TsLane::Packed(p) => p.at(i),
        }
    }

    /// Sub-lane over a contiguous range.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[inline]
    #[must_use]
    pub fn slice(self, range: std::ops::Range<usize>) -> TsLane<'a> {
        match self {
            TsLane::Raw(s) => TsLane::Raw(&s[range]),
            TsLane::Packed(p) => TsLane::Packed(p.slice(range)),
        }
    }

    /// The underlying raw slice, if this lane is uncompressed.
    #[inline]
    #[must_use]
    pub fn as_raw(&self) -> Option<&'a [Timestamp]> {
        match self {
            TsLane::Raw(s) => Some(s),
            TsLane::Packed(_) => None,
        }
    }

    /// Iterate the timestamps in order.
    pub fn iter(self) -> impl Iterator<Item = Timestamp> + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// `slice::partition_point` over the timestamps: index of the first
    /// timestamp for which `pred` is false (true-prefix required).
    #[inline]
    #[must_use]
    pub fn partition_point(&self, mut pred: impl FnMut(Timestamp) -> bool) -> usize {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Runs of bit-packed values: per-run `(anchor, width, bit_start)`
/// metadata over one shared words arena, decoded on the fly through
/// [`PackedRun`]. Each run is stored as `value − anchor` at one bit
/// width, the anchor being the run's smallest value; for a sorted run
/// that is its first. The graph keeps one run per node, encoded at
/// once; the out-of-core edge stream ([`crate::ooc::PackedEdges`])
/// keeps one per block of edges, appended as the blocks fill.
#[derive(Debug, Clone)]
pub struct PackedTs {
    anchors: Vec<Timestamp>,
    widths: Vec<u8>,
    bit_starts: Vec<u64>,
    /// Ends with one zero pad word, so the decode blend can always read
    /// `word + 1`.
    words: Vec<u64>,
    /// Bits used by the runs so far.
    end_bit: u64,
}

/// Bits needed for `span` (0 for 0).
#[inline]
fn width_of(span: u64) -> u32 {
    64 - span.leading_zeros()
}

impl PackedTs {
    /// No runs yet.
    pub(crate) fn new() -> PackedTs {
        // hare-lint: allow(alloc, reason = "one-time lane encoding, not the scan path")
        let (anchors, widths, bit_starts, words) = (Vec::new(), Vec::new(), Vec::new(), vec![0]);
        PackedTs {
            anchors,
            widths,
            bit_starts,
            words,
            end_bit: 0,
        }
    }

    /// Encode the raw timestamp lane `ts` (CSR runs delimited by
    /// `node_offsets`, each run sorted ascending) into one run per node.
    pub(crate) fn encode(node_offsets: &[usize], ts: &[Timestamp]) -> PackedTs {
        let runs = || node_offsets.windows(2).map(|w| &ts[w[0]..w[1]]);
        // Size the arena up front: a sorted run spans first to last.
        let bits: u64 = runs()
            .filter_map(|r| Some((r.len(), r.last()?.wrapping_sub(r[0]) as u64)))
            .map(|(len, span)| len as u64 * u64::from(width_of(span)))
            .sum();
        let mut packed = PackedTs::new();
        let num_runs = node_offsets.len().saturating_sub(1);
        packed.anchors.reserve_exact(num_runs);
        packed.widths.reserve_exact(num_runs);
        packed.bit_starts.reserve_exact(num_runs);
        packed.words.reserve_exact((bits as usize).div_ceil(64));
        for run in runs() {
            packed.push_run(run, true);
        }
        packed
    }

    /// Append one run holding `values` in order: its anchor is their
    /// minimum and its width fits their span (both 0 when empty).
    /// `sorted` says the values ascend, so their ends are the bounds.
    pub(crate) fn push_run(&mut self, values: &[Timestamp], sorted: bool) {
        debug_assert!(!sorted || values.windows(2).all(|w| w[0] <= w[1]));
        let bounds = if sorted {
            values.first().zip(values.last())
        } else {
            values.iter().min().zip(values.iter().max())
        };
        let (anchor, width) = match bounds {
            Some((&min, &max)) => (min, width_of(max.wrapping_sub(min) as u64)),
            None => (0, 0),
        };
        self.anchors.push(anchor);
        self.widths.push(width as u8);
        self.bit_starts.push(self.end_bit);
        let start = self.end_bit;
        self.end_bit += values.len() as u64 * u64::from(width);
        if width == 0 {
            return;
        }
        // Fill the words in order through an accumulator that starts
        // with the bits the previous run left in its last word; the
        // word after the run stays the zero pad.
        let first = (start >> 6) as usize;
        let words = (self.end_bit as usize).div_ceil(64) + 1;
        // hare-lint: allow(alloc, reason = "one-time lane encoding, not the scan path")
        self.words.resize(words, 0);
        let out = &mut self.words[first..];
        let mut acc = out[0];
        let mut filled = (start & 63) as u32;
        let mut k = 0;
        for &v in values {
            let delta = v.wrapping_sub(anchor) as u64;
            acc |= delta << filled;
            filled += width;
            if filled >= 64 {
                out[k] = acc;
                k += 1;
                filled -= 64;
                // The bits that did not fit: `delta >> (width - filled)`,
                // 0 when none are left over (and never a shift by 64).
                acc = (delta >> 1) >> (width - filled - 1);
            }
        }
        out[k] = acc;
    }

    /// Release the spare capacity left by appending.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.anchors.shrink_to_fit();
        self.widths.shrink_to_fit();
        self.bit_starts.shrink_to_fit();
        self.words.shrink_to_fit();
    }

    /// Each run's anchor: its smallest value (0 if empty).
    #[inline]
    pub(crate) fn anchors(&self) -> &[Timestamp] {
        &self.anchors
    }

    /// The packed run `u` (`len` from the caller's own offsets).
    #[inline]
    pub(crate) fn run(&self, u: usize, len: usize) -> PackedRun<'_> {
        let width = u32::from(self.widths[u]);
        PackedRun {
            words: &self.words,
            bit_start: self.bit_starts[u],
            anchor: self.anchors[u],
            width,
            mask: if width == 0 {
                0
            } else {
                u64::MAX >> (64 - width)
            },
            len,
        }
    }

    /// Heap bytes held by the packed runs (metadata + words arena):
    /// 17 bytes per run plus 8 per word, the pad word included.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.anchors.len() * std::mem::size_of::<Timestamp>()
            + self.widths.len()
            + self.bit_starts.len() * 8
            + self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(offsets: &[usize], ts: &[Timestamp]) {
        let packed = PackedTs::encode(offsets, ts);
        for u in 0..offsets.len() - 1 {
            let (lo, hi) = (offsets[u], offsets[u + 1]);
            let run = packed.run(u, hi - lo);
            for (i, &want) in ts[lo..hi].iter().enumerate() {
                assert_eq!(run.at(i), want, "node {u} index {i}");
            }
        }
    }

    #[test]
    fn packed_roundtrips_simple_runs() {
        roundtrip(&[0, 3, 3, 7], &[5, 9, 1000, -4, -4, 0, 1 << 40]);
    }

    #[test]
    fn packed_roundtrips_extreme_spans() {
        // Anchor at i64::MIN with a full-width delta exercises the
        // wrapping encode/decode and 64-bit widths.
        roundtrip(&[0, 2], &[i64::MIN, i64::MAX]);
        roundtrip(&[0, 1], &[i64::MIN]);
        roundtrip(&[0, 4], &[-100, -100, -100, -100]);
    }

    #[test]
    fn packed_roundtrips_dense_small_widths() {
        // Widths 1..=17 across many word boundaries.
        for width_bits in 1..=17u32 {
            let span = (1i64 << width_bits) - 1;
            let ts: Vec<Timestamp> = (0..200).map(|i| 50 + (i * 7) % (span + 1)).collect();
            let mut sorted = ts.clone();
            sorted.sort_unstable();
            roundtrip(&[0, sorted.len()], &sorted);
        }
    }

    #[test]
    fn lane_accessors_agree_between_raw_and_packed() {
        let ts: Vec<Timestamp> = vec![3, 3, 8, 21, 22, 22, 40];
        let offsets = [0, ts.len()];
        let packed = PackedTs::encode(&offsets, &ts);
        let raw = TsLane::Raw(&ts);
        let lane = TsLane::Packed(packed.run(0, ts.len()));
        assert_eq!(raw.len(), lane.len());
        assert!(!lane.is_empty());
        assert!(lane.as_raw().is_none());
        assert_eq!(raw.as_raw(), Some(ts.as_slice()));
        for i in 0..ts.len() {
            assert_eq!(lane.get(i), raw.get(i));
        }
        assert_eq!(
            lane.iter().collect::<Vec<_>>(),
            raw.iter().collect::<Vec<_>>()
        );
        for cut in [-1, 0, 3, 8, 22, 23, 99] {
            assert_eq!(
                lane.partition_point(|t| t < cut),
                raw.partition_point(|t| t < cut),
                "cut={cut}"
            );
        }
        let sub = lane.slice(2..5);
        let sub_raw = raw.slice(2..5);
        assert_eq!(sub.len(), 3);
        for i in 0..3 {
            assert_eq!(sub.get(i), sub_raw.get(i));
        }
    }

    #[test]
    fn empty_runs_and_empty_graph() {
        let packed = PackedTs::encode(&[0, 0, 0], &[]);
        assert_eq!(packed.run(0, 0).len, 0);
        assert_eq!(packed.run(1, 0).len, 0);
        let none = PackedTs::encode(&[0], &[]);
        assert!(none.heap_bytes() >= 8); // the pad word
        let empty = PackedTs::encode(&[], &[]);
        assert_eq!(empty.anchors.len(), 0);
    }

    #[test]
    fn heap_bytes_reflect_compression() {
        // 10k events spanning 1<<20 ticks: ~20 bits/event packed vs 64 raw.
        let ts: Vec<Timestamp> = (0..10_000).map(|i| (i * 97) % (1 << 20)).collect();
        let mut sorted = ts;
        sorted.sort_unstable();
        let offsets = [0, sorted.len()];
        let packed = PackedTs::encode(&offsets, &sorted);
        let raw_bytes = sorted.len() * 8;
        assert!(
            packed.heap_bytes() < raw_bytes / 2,
            "packed {} vs raw {raw_bytes}",
            packed.heap_bytes()
        );
    }
}
