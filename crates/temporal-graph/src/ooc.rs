//! Out-of-core edge storage: the `HARELG01` lane file, and the
//! bit-packed in-RAM stream [`PackedEdges`].
//!
//! A lane file holds one chronological edge stream in delta-compressed
//! blocks plus a sparse time index, so a counting driver can pull any
//! time range `[lo, hi)` off disk without materialising the rest of the
//! graph. This is the substrate under `hare::ooc`'s chunked
//! `count_motifs`/`NodeProfiles`: the driver plans timestamp cuts
//! against the index, loads δ-haloed chunks on parallel workers, and
//! keeps their resident lane arenas together under a caller-set byte
//! budget.
//!
//! ## File layout
//!
//! ```text
//! header   magic "HARELG01" · num_nodes u64 · num_edges u64
//! blocks   ≤ 4096 edges each:
//!            first edge   zigzag-varint t (absolute) · varint src · varint dst
//!            later edges  varint Δt (≥ 0, from previous edge) · varint src · varint dst
//! index    per block: offset u64 · first_t i64 · first_edge u64   (24 bytes fixed)
//! footer   index_offset u64 · num_blocks u64 · magic "HARELG01"
//! ```
//!
//! Blocks decode standalone (their first timestamp is absolute), so a
//! range read touches only the blocks that can intersect it: binary
//! search the index by `first_t`, then scan forward. Reads go through
//! positioned `pread` (`std::os::unix::fs::FileExt::read_exact_at`) so
//! one immutable [`LaneFile`] handle can serve concurrent readers; on
//! non-unix targets a seek+read fallback over `&File` is used. `mmap`
//! is deliberately not used — it would need a platform crate the
//! workspace does not vendor, and block-granular `pread` already gives
//! the bounded-resident-set behaviour the driver needs.
//!
//! ## In RAM
//!
//! [`PackedEdges`] holds the same kind of stream in RAM, for a text
//! file counted out of core (`hare-count --input F --chunk-budget B`):
//! fixed-width bit-packed blocks instead of varints, so a `count_until`
//! probe decodes single timestamps rather than whole blocks.

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use crate::lanes::{PackedTs, TsLane, TsRead};
use crate::types::{NodeId, TemporalEdge, Timestamp};

/// Magic bytes opening and closing a lane file (format version 01).
pub const MAGIC: &[u8; 8] = b"HARELG01";

/// Edges per compressed block. Small enough that a boundary block decode
/// is cheap, large enough that the resident index stays tiny (24 bytes
/// per 4096 edges ≈ 6 KB per billion edges… per 1M edges).
pub const BLOCK_EDGES: usize = 4096;

fn write_varint(out: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(corrupt("varint runs past the block"));
        };
        *pos += 1;
        if shift >= 64 {
            return Err(corrupt("varint wider than 64 bits"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

const fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("lane file: {msg}"))
}

/// Positioned read: `pread` on unix (no seek state, safe under
/// concurrent readers), seek+read elsewhere.
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::Read;
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// Streaming writer for a `HARELG01` lane file. Push edges in
/// chronological order (ties allowed), then [`LaneFileWriter::finish`].
/// Never holds more than one block of state, so graphs of any size can
/// be spilled with constant memory.
#[derive(Debug)]
pub struct LaneFileWriter {
    out: BufWriter<File>,
    num_nodes: u64,
    num_edges: u64,
    bytes_written: u64,
    block_fill: usize,
    prev_t: Timestamp,
    index: Vec<(u64, Timestamp, u64)>,
}

impl LaneFileWriter {
    /// Create the file and write the header. `num_nodes` fixes the node
    /// id space of every graph later cut from this file.
    pub fn create(path: &Path, num_nodes: usize) -> io::Result<LaneFileWriter> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        out.write_all(&(num_nodes as u64).to_le_bytes())?;
        // Edge count is back-patched by `finish`.
        out.write_all(&0u64.to_le_bytes())?;
        Ok(LaneFileWriter {
            out,
            num_nodes: num_nodes as u64,
            num_edges: 0,
            bytes_written: 24,
            block_fill: 0,
            prev_t: 0,
            index: Vec::new(),
        })
    }

    /// Append one edge.
    ///
    /// # Errors
    /// Returns [`io::ErrorKind::InvalidInput`] if the edge is a
    /// self-loop, references a node outside the declared id space, or
    /// goes backwards in time (checked on every push, block starts
    /// included); nothing is written for a rejected edge. Write failures
    /// surface as the underlying I/O error.
    pub fn push(&mut self, e: TemporalEdge) -> io::Result<()> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if e.is_self_loop() {
            return invalid(format!("self-loop {e} not allowed"));
        }
        if u64::from(e.src) >= self.num_nodes || u64::from(e.dst) >= self.num_nodes {
            return invalid(format!(
                "edge {e} references a node >= num_nodes ({})",
                self.num_nodes
            ));
        }
        if self.num_edges > 0 && e.t < self.prev_t {
            return invalid(format!(
                "edges must be pushed in time order: t={} after t={}",
                e.t, self.prev_t
            ));
        }
        let mut scratch = Vec::with_capacity(16);
        if self.block_fill == 0 {
            self.index.push((self.bytes_written, e.t, self.num_edges));
            write_varint(&mut scratch, zigzag(e.t))?;
        } else {
            write_varint(&mut scratch, (e.t - self.prev_t) as u64)?;
        }
        write_varint(&mut scratch, u64::from(e.src))?;
        write_varint(&mut scratch, u64::from(e.dst))?;
        self.out.write_all(&scratch)?;
        self.bytes_written += scratch.len() as u64;
        self.prev_t = e.t;
        self.num_edges += 1;
        self.block_fill = (self.block_fill + 1) % BLOCK_EDGES;
        Ok(())
    }

    /// Write the index and footer, back-patch the edge count, and flush.
    pub fn finish(mut self) -> io::Result<()> {
        let index_offset = self.bytes_written;
        for &(offset, first_t, first_edge) in &self.index {
            self.out.write_all(&offset.to_le_bytes())?;
            self.out.write_all(&first_t.to_le_bytes())?;
            self.out.write_all(&first_edge.to_le_bytes())?;
        }
        self.out.write_all(&index_offset.to_le_bytes())?;
        self.out
            .write_all(&(self.index.len() as u64).to_le_bytes())?;
        self.out.write_all(MAGIC)?;
        let mut file = self.out.into_inner()?;
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&self.num_edges.to_le_bytes())?;
        file.sync_all()
    }
}

/// Write a whole edge slice (already chronological) as a lane file.
pub fn write_lane_file(path: &Path, num_nodes: usize, edges: &[TemporalEdge]) -> io::Result<()> {
    let mut w = LaneFileWriter::create(path, num_nodes)?;
    for &e in edges {
        w.push(e)?;
    }
    w.finish()
}

#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    offset: u64,
    first_t: Timestamp,
    first_edge: u64,
}

/// Read handle over a `HARELG01` lane file: the sparse index stays
/// resident (24 bytes per [`BLOCK_EDGES`] edges); edge blocks are read
/// on demand with positioned reads.
#[derive(Debug)]
pub struct LaneFile {
    file: File,
    num_nodes: usize,
    num_edges: u64,
    index: Vec<BlockMeta>,
    index_offset: u64,
    max_t: Option<Timestamp>,
}

impl LaneFile {
    /// Open and validate a lane file, loading its index.
    pub fn open(path: &Path) -> io::Result<LaneFile> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < 48 {
            return Err(corrupt("too short for header + footer"));
        }
        let mut header = [0u8; 24];
        read_exact_at(&file, &mut header, 0)?;
        if &header[0..8] != MAGIC {
            return Err(corrupt("bad header magic"));
        }
        let num_nodes = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let num_edges = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let mut footer = [0u8; 24];
        read_exact_at(&file, &mut footer, file_len - 24)?;
        if &footer[16..24] != MAGIC {
            return Err(corrupt("bad footer magic"));
        }
        let index_offset = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let num_blocks = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
        let expected_blocks = (num_edges as usize).div_ceil(BLOCK_EDGES);
        if num_blocks as usize != expected_blocks
            || index_offset
                .checked_add(num_blocks * 24)
                .is_none_or(|end| end + 24 != file_len)
        {
            return Err(corrupt("index bounds inconsistent with edge count"));
        }
        let mut raw = vec![0u8; num_blocks as usize * 24];
        read_exact_at(&file, &mut raw, index_offset)?;
        let index: Vec<BlockMeta> = raw
            .chunks_exact(24)
            .map(|c| BlockMeta {
                offset: u64::from_le_bytes(c[0..8].try_into().expect("8 bytes")),
                first_t: i64::from_le_bytes(c[8..16].try_into().expect("8 bytes")),
                first_edge: u64::from_le_bytes(c[16..24].try_into().expect("8 bytes")),
            })
            .collect();
        if index.windows(2).any(|w| {
            w[0].offset >= w[1].offset
                || w[0].first_t > w[1].first_t
                || w[0].first_edge >= w[1].first_edge
        }) {
            return Err(corrupt("index not monotone"));
        }
        let mut lf = LaneFile {
            file,
            num_nodes: usize::try_from(num_nodes).map_err(|_| corrupt("num_nodes overflow"))?,
            num_edges,
            index,
            index_offset,
            max_t: None,
        };
        lf.max_t = match lf.index.len() {
            0 => None,
            n => lf.decode_block(n - 1)?.last().map(|e| e.t),
        };
        Ok(lf)
    }

    /// Node id space declared at write time.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of edges in the file.
    #[must_use]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Earliest timestamp, or `None` for an empty file.
    #[must_use]
    pub fn min_time(&self) -> Option<Timestamp> {
        self.index.first().map(|b| b.first_t)
    }

    /// Latest timestamp, or `None` for an empty file.
    #[must_use]
    pub fn max_time(&self) -> Option<Timestamp> {
        self.max_t
    }

    /// Decode one whole block into edges.
    fn decode_block(&self, b: usize) -> io::Result<Vec<TemporalEdge>> {
        let meta = self.index[b];
        let end = self
            .index
            .get(b + 1)
            .map_or(self.index_offset, |m| m.offset);
        let mut raw = vec![0u8; (end - meta.offset) as usize];
        read_exact_at(&self.file, &mut raw, meta.offset)?;
        let n = (self.num_edges - meta.first_edge).min(BLOCK_EDGES as u64) as usize;
        let mut edges = Vec::with_capacity(n);
        let mut pos = 0usize;
        let mut t = 0 as Timestamp;
        for i in 0..n {
            t = if i == 0 {
                unzigzag(read_varint(&raw, &mut pos)?)
            } else {
                t.checked_add_unsigned(read_varint(&raw, &mut pos)?)
                    .ok_or_else(|| corrupt("timestamp delta overflow"))?
            };
            let src = u32::try_from(read_varint(&raw, &mut pos)?)
                .map_err(|_| corrupt("node id overflow"))?;
            let dst = u32::try_from(read_varint(&raw, &mut pos)?)
                .map_err(|_| corrupt("node id overflow"))?;
            edges.push(TemporalEdge::new(src, dst, t));
        }
        Ok(edges)
    }

    /// Number of edges with timestamp strictly before `t`. Exact: at
    /// most one boundary block is decoded; full blocks are answered from
    /// the index.
    pub fn count_until(&self, t: Timestamp) -> io::Result<u64> {
        let b = self.index.partition_point(|m| m.first_t < t);
        if b == 0 {
            return Ok(0);
        }
        // Blocks before b-1 are entirely < t (their edges are bounded by
        // block b-1's absolute first timestamp, which is < t). Block b-1
        // may straddle t; blocks from b on start at >= t.
        let boundary = self.decode_block(b - 1)?;
        let within = boundary.partition_point(|e| e.t < t) as u64;
        Ok(self.index[b - 1].first_edge + within)
    }

    /// All edges with timestamp in `[lo, hi)`, in chronological (file)
    /// order. Decodes only the blocks that can intersect the range.
    pub fn load_range(&self, lo: Timestamp, hi: Timestamp) -> io::Result<Vec<TemporalEdge>> {
        let mut out = Vec::new();
        if lo >= hi {
            return Ok(out);
        }
        let start = self
            .index
            .partition_point(|m| m.first_t < lo)
            .saturating_sub(1);
        for b in start..self.index.len() {
            if self.index[b].first_t >= hi {
                break;
            }
            let block = self.decode_block(b)?;
            for e in block {
                if e.t >= hi {
                    return Ok(out);
                }
                if e.t >= lo {
                    out.push(e);
                }
            }
        }
        Ok(out)
    }
}

/// Edges per block of a [`PackedEdges`] stream: each block is one run
/// of its timestamp lane and one of its id lane.
pub const PACKED_BLOCK_EDGES: usize = 1024;

/// A chronological edge stream held in RAM, bit-packed in blocks of
/// [`PACKED_BLOCK_EDGES`] edges, plus the degree rank of its nodes. It
/// is what `hare-count --input F --chunk-budget B` counts from, read by
/// [`crate::io::read_packed_edges`] with no edge list built.
///
/// Each block stores:
/// - its timestamps as `t − anchor` at one bit width, the anchor being
///   the block's first timestamp;
/// - its `src, dst` pairs as `id − anchor` at one bit width, the anchor
///   being the block's smallest id.
///
/// Both lanes are [`PackedTs`] runs, so any timestamp decodes in O(1):
/// [`PackedEdges::count_until`] binary-searches the block anchors and
/// then one block's timestamps, decoding nothing else, and
/// [`PackedEdges::load_range`] decodes only the edges it returns. The
/// resident size is [`PackedEdges::heap_bytes`]; a `HARELG01` file
/// stores the same stream with per-byte varints, which would make every
/// `count_until` decode a whole block.
#[derive(Debug, Clone)]
pub struct PackedEdges {
    ts: PackedTs,
    ids: PackedTs,
    len: usize,
    node_rank: Box<[u32]>,
}

impl PackedEdges {
    /// Pack a chronological, self-loop-free edge list over the node
    /// space `0..num_nodes`. The node rank is [`crate::stats::degree_rank`]
    /// over the list's degrees, so it equals the rank of the graph built
    /// from the same edges.
    ///
    /// # Panics
    /// Panics, like [`crate::TemporalGraph::from_chronological_edges`],
    /// if the edges are not sorted by timestamp, hold a self-loop or
    /// reference a node `>= num_nodes`.
    #[must_use]
    pub fn from_edges(num_nodes: usize, edges: &[TemporalEdge]) -> PackedEdges {
        assert!(
            edges.windows(2).all(|w| w[0].t <= w[1].t),
            "edges must be sorted by timestamp"
        );
        let mut degree = vec![0u32; num_nodes];
        let mut w = PackedEdgesWriter::new();
        for &e in edges {
            assert!(!e.is_self_loop(), "self-loop {e} not allowed");
            assert!(
                (e.src as usize) < num_nodes && (e.dst as usize) < num_nodes,
                "edge {e} references a node >= num_nodes ({num_nodes})"
            );
            degree[e.src as usize] += 1;
            degree[e.dst as usize] += 1;
            w.push(e);
        }
        w.finish(&degree)
    }

    /// Node id space (`max id + 1`) of the stream.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.node_rank.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the stream holds no edge.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One distinct rank per node: ascending `(degree, id)` over the
    /// whole stream, like [`crate::TemporalGraph::node_rank`].
    #[must_use]
    pub fn node_rank(&self) -> &[u32] {
        &self.node_rank
    }

    /// Edges in block `b`.
    fn block_len(&self, b: usize) -> usize {
        (self.len - b * PACKED_BLOCK_EDGES).min(PACKED_BLOCK_EDGES)
    }

    /// Earliest timestamp, or `None` when empty.
    #[must_use]
    pub fn min_time(&self) -> Option<Timestamp> {
        self.ts.anchors().first().copied()
    }

    /// Latest timestamp, or `None` when empty.
    #[must_use]
    pub fn max_time(&self) -> Option<Timestamp> {
        let b = self.ts.anchors().len().checked_sub(1)?;
        let n = self.block_len(b);
        Some(self.ts.run(b, n).at(n - 1))
    }

    /// Number of edges with timestamp strictly before `t`: a binary
    /// search over the block anchors, then over one block's timestamps.
    #[must_use]
    pub fn count_until(&self, t: Timestamp) -> usize {
        // Blocks before `b` end at or before block `b`'s anchor, which
        // is `< t`; blocks after it start at `>= t`.
        let after = self.ts.anchors().partition_point(|&a| a < t);
        let Some(b) = after.checked_sub(1) else {
            return 0;
        };
        let lane = TsLane::Packed(self.ts.run(b, self.block_len(b)));
        b * PACKED_BLOCK_EDGES + lane.partition_point(|x| x < t)
    }

    /// All edges with timestamp in `[lo, hi)`, in stream order; empty
    /// when `lo >= hi`. Decodes only those edges.
    #[must_use]
    pub fn load_range(&self, lo: Timestamp, hi: Timestamp) -> Vec<TemporalEdge> {
        if lo >= hi {
            return Vec::new();
        }
        self.decode(self.count_until(lo)..self.count_until(hi))
    }

    /// Edges `range` (stream positions), decoded block by block.
    fn decode(&self, range: std::ops::Range<usize>) -> Vec<TemporalEdge> {
        let mut out = Vec::with_capacity(range.len());
        let mut ts = [0 as Timestamp; PACKED_BLOCK_EDGES];
        let mut ids = [0 as Timestamp; 2 * PACKED_BLOCK_EDGES];
        let mut i = range.start;
        while i < range.end {
            let b = i / PACKED_BLOCK_EDGES;
            let n = self.block_len(b);
            let first = i - b * PACKED_BLOCK_EDGES;
            let last = (range.end - b * PACKED_BLOCK_EDGES).min(n);
            let (ts, ids) = (&mut ts[..last - first], &mut ids[..2 * (last - first)]);
            self.ts.run(b, n).unpack(first, ts);
            self.ids.run(b, 2 * n).unpack(2 * first, ids);
            out.extend(
                ts.iter()
                    .zip(ids.chunks_exact(2))
                    .map(|(&t, e)| TemporalEdge::new(e[0] as NodeId, e[1] as NodeId, t)),
            );
            i = b * PACKED_BLOCK_EDGES + last;
        }
        out
    }

    /// Heap bytes held by the stream: the two lanes' runs and words
    /// ([`PackedTs`]: 17 bytes per block and lane, plus each lane's
    /// words and its pad word) and 4 bytes of rank per node.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.ts.heap_bytes() + self.ids.heap_bytes() + self.node_rank.len() * 4
    }
}

/// Appends chronological edges to a [`PackedEdges`] stream one block at
/// a time; the block being filled is the only unpacked state.
#[derive(Debug)]
pub(crate) struct PackedEdgesWriter {
    ts: PackedTs,
    ids: PackedTs,
    /// Edges in the packed blocks.
    packed: usize,
    /// The block being filled: its timestamps, and its `src, dst` pairs.
    block_ts: Vec<Timestamp>,
    block_ids: Vec<Timestamp>,
}

impl PackedEdgesWriter {
    pub(crate) fn new() -> PackedEdgesWriter {
        PackedEdgesWriter {
            ts: PackedTs::new(),
            ids: PackedTs::new(),
            packed: 0,
            block_ts: Vec::with_capacity(PACKED_BLOCK_EDGES),
            block_ids: Vec::with_capacity(2 * PACKED_BLOCK_EDGES),
        }
    }

    /// Append `e`, which must not be earlier than the edge before it.
    #[inline]
    pub(crate) fn push(&mut self, e: TemporalEdge) {
        debug_assert!(self.block_ts.last().is_none_or(|&t| t <= e.t));
        self.block_ts.push(e.t);
        self.block_ids
            .extend([Timestamp::from(e.src), Timestamp::from(e.dst)]);
        if self.block_ts.len() == PACKED_BLOCK_EDGES {
            self.flush();
        }
    }

    /// Pack the block being filled.
    fn flush(&mut self) {
        if self.block_ts.is_empty() {
            return;
        }
        self.ts.push_run(&self.block_ts, true);
        self.ids.push_run(&self.block_ids, false);
        self.packed += self.block_ts.len();
        self.block_ts.clear();
        self.block_ids.clear();
    }

    /// The stream, ranked by the degrees `degree[u]` of its nodes.
    pub(crate) fn finish(mut self, degree: &[u32]) -> PackedEdges {
        self.flush();
        self.ts.shrink_to_fit();
        self.ids.shrink_to_fit();
        PackedEdges {
            ts: self.ts,
            ids: self.ids,
            len: self.packed,
            node_rank: crate::stats::degree_rank(degree.len(), |u| degree[u] as usize),
        }
    }

    /// Every edge pushed so far, unpacked again.
    pub(crate) fn into_edges(self) -> Vec<TemporalEdge> {
        let stream = self.finish(&[]);
        stream.decode(0..stream.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hare-lane-{}-{name}.hlg", std::process::id()));
        p
    }

    fn sample_edges(n: usize) -> Vec<TemporalEdge> {
        let mut edges: Vec<TemporalEdge> = (0..n)
            .map(|i| {
                TemporalEdge::new(
                    (i % 13) as u32,
                    ((i * 5 + 1) % 13) as u32,
                    ((i as i64 * 37) % 1000) - 200,
                )
            })
            .filter(|e| !e.is_self_loop())
            .collect();
        edges.sort_by_key(|e| e.t);
        edges
    }

    #[test]
    fn roundtrip_all_edges() {
        let edges = sample_edges(10_000);
        let path = temp_path("roundtrip");
        write_lane_file(&path, 13, &edges).unwrap();
        let lf = LaneFile::open(&path).unwrap();
        assert_eq!(lf.num_nodes(), 13);
        assert_eq!(lf.num_edges(), edges.len() as u64);
        assert_eq!(lf.min_time(), Some(edges[0].t));
        assert_eq!(lf.max_time(), Some(edges.last().unwrap().t));
        let all = lf.load_range(Timestamp::MIN, Timestamp::MAX).unwrap();
        assert_eq!(all, edges);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn count_until_matches_linear_scan() {
        let edges = sample_edges(9_500); // straddles block boundaries
        let path = temp_path("count");
        write_lane_file(&path, 13, &edges).unwrap();
        let lf = LaneFile::open(&path).unwrap();
        for t in [-500, -200, -1, 0, 1, 137, 500, 799, 800, 2000] {
            let want = edges.iter().filter(|e| e.t < t).count() as u64;
            assert_eq!(lf.count_until(t).unwrap(), want, "t={t}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_range_matches_linear_scan() {
        let edges = sample_edges(9_000);
        let path = temp_path("range");
        write_lane_file(&path, 13, &edges).unwrap();
        let lf = LaneFile::open(&path).unwrap();
        for (lo, hi) in [(-300, -100), (-100, 100), (0, 1), (100, 100), (700, 1200)] {
            let want: Vec<TemporalEdge> = edges
                .iter()
                .copied()
                .filter(|e| e.t >= lo && e.t < hi)
                .collect();
            assert_eq!(lf.load_range(lo, hi).unwrap(), want, "[{lo},{hi})");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_roundtrips() {
        let path = temp_path("empty");
        write_lane_file(&path, 5, &[]).unwrap();
        let lf = LaneFile::open(&path).unwrap();
        assert_eq!(lf.num_edges(), 0);
        assert_eq!(lf.min_time(), None);
        assert_eq!(lf.max_time(), None);
        assert_eq!(lf.count_until(100).unwrap(), 0);
        assert!(lf.load_range(0, 100).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_files_are_rejected() {
        let path = temp_path("corrupt");
        std::fs::write(&path, b"HARELG01 but not really a lane file").unwrap();
        assert!(LaneFile::open(&path).is_err());
        std::fs::write(&path, b"short").unwrap();
        assert!(LaneFile::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_unsorted_pushes() {
        let path = temp_path("unsorted");
        let mut w = LaneFileWriter::create(&path, 4).unwrap();
        w.push(TemporalEdge::new(0, 1, 10)).unwrap();
        let err = w.push(TemporalEdge::new(1, 2, 5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("time order"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_invalid_edges_without_writing_them() {
        let path = temp_path("invalid");
        let mut w = LaneFileWriter::create(&path, 4).unwrap();
        for bad in [TemporalEdge::new(2, 2, 1), TemporalEdge::new(0, 4, 1)] {
            let err = w.push(bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad}");
        }
        w.push(TemporalEdge::new(0, 1, 1)).unwrap();
        w.finish().unwrap();
        let lf = LaneFile::open(&path).unwrap();
        assert_eq!(lf.num_edges(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// A backwards edge at a block start used to slip past the order
    /// check: the index stays monotone, so the file opened fine and
    /// `count_until` answered from the wrong block.
    #[test]
    fn writer_checks_time_order_at_block_starts() {
        let path = temp_path("block-start");
        let mut w = LaneFileWriter::create(&path, 4).unwrap();
        w.push(TemporalEdge::new(0, 1, 0)).unwrap();
        for _ in 0..BLOCK_EDGES - 1 {
            w.push(TemporalEdge::new(1, 2, 100)).unwrap();
        }
        let err = w.push(TemporalEdge::new(2, 3, 50)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        w.finish().unwrap();
        let lf = LaneFile::open(&path).unwrap();
        assert_eq!(lf.num_edges(), BLOCK_EDGES as u64);
        assert_eq!(lf.count_until(60).unwrap(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    mod packed {
        use super::*;
        use crate::graph::MAX_NODES;
        use crate::util::splitmix64_mix;
        use proptest::prelude::*;

        /// `n` chronological edges drawn from `seed`. Time shapes: 0 a
        /// handful of negative and zero timestamps (ties spanning block
        /// boundaries), 1 a skewed range either side of zero, 2 the
        /// whole `i64` span with both ends present. Id shapes: 0 eight
        /// small ids, 1 ids up to `MAX_NODES − 1` with both ends present.
        fn edges(n: usize, time_shape: u8, id_shape: u8, seed: u64) -> Vec<TemporalEdge> {
            let mut h = seed;
            let mut next = || {
                h = splitmix64_mix(h, 1);
                h
            };
            let mut times: Vec<Timestamp> = (0..n)
                .map(|_| match time_shape {
                    0 => -3 + (next() % 4) as Timestamp,
                    1 => -(1 << 40) + (next() % (1 << 41)) as Timestamp,
                    _ => next() as Timestamp,
                })
                .collect();
            if time_shape == 2 && n >= 2 {
                times[0] = Timestamp::MIN;
                times[1] = Timestamp::MAX;
            }
            times.sort_unstable();
            let ids = if id_shape == 0 { 8 } else { MAX_NODES as u64 };
            times
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let src = match (id_shape, i % 97) {
                        (1, 0) => 0,
                        (1, 1) => ids - 1,
                        _ => next() % ids,
                    };
                    let dst = (src + 1 + next() % (ids - 1)) % ids;
                    TemporalEdge::new(src as NodeId, dst as NodeId, t)
                })
                .collect()
        }

        /// `edges` through the stream writer (no rank: the id space may
        /// be the whole packed-lane node space).
        fn pack(edges: &[TemporalEdge]) -> PackedEdges {
            let mut w = PackedEdgesWriter::new();
            for &e in edges {
                w.push(e);
            }
            w.finish(&[])
        }

        fn oracle_range(edges: &[TemporalEdge], lo: Timestamp, hi: Timestamp) -> Vec<TemporalEdge> {
            edges
                .iter()
                .filter(|e| lo <= e.t && e.t < hi)
                .copied()
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// `count_until` and `load_range` answer like a plain list
            /// for every stored timestamp, its neighbours, both ends of
            /// `i64` and drawn ranges, `lo >= hi` included.
            #[test]
            fn packed_stream_matches_a_vec_oracle(
                n in 0usize..2_600,
                shape in (0u8..3, 0u8..2),
                seed in 0u64..u64::MAX,
            ) {
                let edges = edges(n, shape.0, shape.1, seed);
                let stream = pack(&edges);
                prop_assert_eq!(stream.len(), n);
                prop_assert_eq!(stream.min_time(), edges.first().map(|e| e.t));
                prop_assert_eq!(stream.max_time(), edges.last().map(|e| e.t));
                prop_assert_eq!(stream.load_range(Timestamp::MIN, Timestamp::MAX), oracle_range(&edges, Timestamp::MIN, Timestamp::MAX));
                let mut probes = vec![Timestamp::MIN, Timestamp::MAX, 0, -1, 1];
                for e in edges.iter().step_by(7) {
                    probes.extend([e.t, e.t.saturating_sub(1), e.t.saturating_add(1)]);
                }
                for &t in &probes {
                    let want = edges.partition_point(|e| e.t < t);
                    prop_assert!(stream.count_until(t) == want, "count_until({}) != {}", t, want);
                }
                let mut h = seed;
                for _ in 0..40 {
                    h = splitmix64_mix(h, 2);
                    let lo = probes[(h % probes.len() as u64) as usize];
                    let hi = probes[((h >> 32) % probes.len() as u64) as usize];
                    let got = stream.load_range(lo, hi);
                    prop_assert!(got == oracle_range(&edges, lo, hi), "load_range({}, {})", lo, hi);
                    if lo >= hi {
                        prop_assert!(got.is_empty());
                    }
                }
            }
        }

        #[test]
        fn empty_stream_answers_nothing() {
            for stream in [pack(&[]), PackedEdges::from_edges(3, &[])] {
                assert!(stream.is_empty());
                assert_eq!((stream.min_time(), stream.max_time()), (None, None));
                assert_eq!(stream.count_until(Timestamp::MAX), 0);
                assert!(stream.load_range(Timestamp::MIN, Timestamp::MAX).is_empty());
            }
        }

        /// The stream's heap bytes follow its formula exactly: per block
        /// and lane 17 bytes of run metadata; per lane its packed bits in
        /// words plus a pad word; 4 bytes of rank per node.
        #[test]
        fn packed_edges_footprint_is_pinned() {
            let formula = |edges: &[TemporalEdge], num_nodes: usize| -> usize {
                let lane = |width: &dyn Fn(&[TemporalEdge]) -> u64, per_edge: u64| {
                    let bits: u64 = edges
                        .chunks(PACKED_BLOCK_EDGES)
                        .map(|b| b.len() as u64 * per_edge * width(b))
                        .sum();
                    let blocks = edges.len().div_ceil(PACKED_BLOCK_EDGES);
                    17 * blocks + 8 * ((bits as usize).div_ceil(64) + 1)
                };
                let bits = |span: i64| u64::from(64 - (span as u64).leading_zeros());
                let ts = lane(&|b| bits(b[b.len() - 1].t - b[0].t), 1);
                let ids = lane(
                    &|b| {
                        let ids = || b.iter().flat_map(|e| [e.src, e.dst]);
                        bits(i64::from(ids().max().unwrap() - ids().min().unwrap()))
                    },
                    2,
                );
                ts + ids + 4 * num_nodes
            };
            // 2 500 edges at t = 3i among 10 nodes: blocks of 12, 12 and
            // 11 timestamp bits and 4 id bits.
            let edges: Vec<TemporalEdge> = (0..2_500u32)
                .map(|i| TemporalEdge::new(i % 10, (i + 1) % 10, 3 * i64::from(i)))
                .collect();
            let stream = PackedEdges::from_edges(10, &edges);
            assert_eq!(stream.heap_bytes(), formula(&edges, 10));
            assert_eq!(stream.heap_bytes(), 6_358);
            // Just over one block, with a self-contained tail.
            let g = crate::gen::erdos_renyi_temporal(300, 1_025, 1 << 30, 4);
            let stream = PackedEdges::from_edges(g.num_nodes(), g.edges());
            assert_eq!(stream.heap_bytes(), formula(g.edges(), g.num_nodes()));
            assert_eq!(PackedEdges::from_edges(0, &[]).heap_bytes(), 2 * 8);
        }

        #[test]
        fn packed_rank_is_the_graphs() {
            for g in [
                crate::gen::paper_fig1_toy(),
                crate::gen::hub_burst(50, 3_000, 40_000, 2),
            ] {
                let stream = PackedEdges::from_edges(g.num_nodes(), g.edges());
                assert_eq!(stream.node_rank(), g.node_rank());
                assert_eq!(stream.num_nodes(), g.num_nodes());
            }
        }

        #[test]
        #[should_panic(expected = "sorted by timestamp")]
        fn packed_edges_reject_unsorted_edges() {
            let _ = PackedEdges::from_edges(
                3,
                &[TemporalEdge::new(0, 1, 9), TemporalEdge::new(1, 2, 3)],
            );
        }
    }
}
