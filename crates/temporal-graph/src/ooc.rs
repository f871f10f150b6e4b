//! Out-of-core edge storage: the `HARELG01` lane file.
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

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use crate::types::{TemporalEdge, Timestamp};

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
}
