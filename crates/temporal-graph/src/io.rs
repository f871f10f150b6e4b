//! Loading and saving temporal graphs in the SNAP-style text format.
//!
//! The paper's 16 datasets ship as plain text, one edge per line:
//! `src dst timestamp`, whitespace- or comma-separated, with optional
//! comment lines. This module parses that shape tolerantly (extra trailing
//! columns ignored — e.g. the Bitcoin trust datasets carry a rating column
//! between the endpoints and the timestamp, selectable via
//! [`LoadOptions::timestamp_column`]). External node ids are remapped to
//! a dense `0..n` in order of first appearance by one [`Interner`].
//!
//! # Two routes to a graph
//!
//! [`read_edges`] returns the raw `(src, dst, t)` triples in file order,
//! and [`graph_from_raw`] builds a graph from them. [`read_graph`] (and
//! [`load_graph`], its file-path form) is the lean route to the same
//! graph: each line's ids are interned as soon as it is scanned, so no
//! triple list is built, the stable sort by time is skipped when the
//! file is already chronological. [`read_chronological_edges`] stops
//! before the build with the sorted edge list, and [`read_packed_edges`]
//! packs the same edges into a bit-packed [`PackedEdges`] stream as they
//! are read, for out-of-core counting with no edge list at all. The
//! lean readers share one ingest (interning, self-loop drop, limit
//! checks). Both routes
//! give the same edges, node count and fingerprint, and the same
//! [`LoadError`] on a bad line. Only the lean route checks the graph's
//! id spaces, returning [`LoadError::Limit`] where [`graph_from_raw`]
//! would panic.
//!
//! # Accepted grammar
//!
//! The input is cut into lines at `\n`; the last line needs no `\n`.
//! Every line, comments included, must be valid UTF-8, else reading
//! fails with [`LoadError::Io`] of kind `InvalidData`. Line numbers in
//! errors count every line from 1, comments and blank lines included.
//!
//! ```text
//! line    = blank | comment | record
//! blank   = ws*
//! comment = ws* ("#" | "%") <anything>
//! record  = sep* field (sep+ field)* sep*
//! sep     = ws | ","
//! ws      = any char for which char::is_whitespace holds: ASCII \t \n
//!           \x0B \x0C \r and space, and Unicode White_Space such as
//!           U+0085 and U+00A0 (so a \r before \n is a separator)
//! field   = a run of chars that are not sep
//! node    = "+"? digit+            in 0..=u64::MAX  (u64::from_str)
//! time    = ("+" | "-")? digit+    in i64 range     (i64::from_str)
//! ```
//!
//! A record needs at least `max(3, timestamp_column + 1)` fields. Field 0
//! is the source node, field 1 the destination node and field
//! `timestamp_column` the timestamp; every other field is ignored.
//! Leading zeros are accepted. A line that breaks these rules stops the
//! read with [`LoadError::Parse`], whose message renders the failing
//! field's `str::parse` error.
//!
//! The reader scans `fill_buf` blocks in place: lines made only of
//! ASCII bytes are split and their digits accumulated without
//! allocating, eight digits per step, and only a line that straddles
//! two blocks is copied (into one reused buffer), so besides its output
//! the reader holds one block plus one line whatever the input size. A
//! line holding any non-ASCII byte, and a line that fails, takes a
//! `str` path that validates UTF-8 and splits on `char::is_whitespace`
//! and `,`.

// hare-lint: allow(std-hash, reason = "Interner's keyed map against hash flooding; ids follow first appearance, never map order")
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::path::Path;

use crate::graph::{TemporalGraph, MAX_EDGES, MAX_NODES};
use crate::ooc::{PackedEdges, PackedEdgesWriter};
use crate::types::{NodeId, TemporalEdge, Timestamp};

/// Error produced while loading a graph file.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line could not be parsed. Carries the 1-based line number
    /// and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// The record on this line would take the graph past one of its id
    /// spaces: 2^31 − 1 distinct nodes (the packed lanes) or 2^32 − 1
    /// edges (`u32` edge ids).
    Limit {
        /// 1-based line number of the record that did not fit.
        line: usize,
        /// Which limit, and its value.
        message: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            LoadError::Limit { line, message } => {
                write!(f, "limit exceeded on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Parse { .. } | LoadError::Limit { .. } => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Options controlling text-format parsing.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Zero-based column of the timestamp field. Default 2
    /// (`src dst t ...`); the Bitcoin trust datasets use 3.
    pub timestamp_column: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            timestamp_column: 2,
        }
    }
}

/// One parsed record: external source id, destination id, timestamp.
type RawEdge = (u64, u64, Timestamp);

/// The error `BufRead::lines` reports for a line that is not UTF-8.
fn invalid_utf8() -> LoadError {
    LoadError::Io(std::io::Error::new(
        ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// `char::is_whitespace`, restricted to ASCII bytes.
#[inline]
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

#[inline]
fn is_ascii_sep(b: u8) -> bool {
    is_ascii_ws(b) || b == b','
}

/// What the byte-level fast path made of the line at the start of a
/// buffer.
enum Scan {
    /// A record, and the bytes it took up to and including its `\n`.
    Edge(RawEdge, usize),
    /// A blank or comment line, and its length including the `\n`.
    Skip(usize),
    /// Not decided here: the line holds a non-ASCII byte, a sign or digit
    /// run the fast path does not take, or an error. [`parse_text_line`]
    /// decides it.
    Slow,
    /// The buffer ends before the line's `\n`.
    Incomplete,
}

/// How many of the eight bytes of `word` (in memory order) are ASCII
/// digits before the first that is not (8 if all are).
#[inline]
fn leading_digits(word: u64) -> usize {
    const LO: u64 = 0x0F0F_0F0F_0F0F_0F0F;
    const HI: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    // A digit byte is `0x3_` with a low nibble of at most 9; any other
    // byte leaves a nonzero byte in `bad`.
    let bad = ((word & HI) ^ 0x3030_3030_3030_3030)
        | ((word & LO).wrapping_add(0x0606_0606_0606_0606) & HI);
    // Bit 7 of each byte: is that byte of `bad` nonzero?
    let nonzero =
        (((bad & 0x7F7F_7F7F_7F7F_7F7F) + 0x7F7F_7F7F_7F7F_7F7F) | bad) & 0x8080_8080_8080_8080;
    (nonzero.trailing_zeros() / 8) as usize
}

/// The value of the first `n` (1..=8) bytes of `word`, all ASCII
/// digits, most significant first: the digit values are shifted to the
/// top of the word, below zeros that read as leading zeros, and summed
/// pairwise in three multiplies.
#[inline]
fn digits_value(word: u64, n: usize) -> u64 {
    let x = (word & 0x0F0F_0F0F_0F0F_0F0F) << (8 * (8 - n));
    let x = (x.wrapping_mul(10) + (x >> 8)) & 0x00FF_00FF_00FF_00FF;
    let x = (x.wrapping_mul(100) + (x >> 16)) & 0x0000_FFFF_0000_FFFF;
    (x.wrapping_mul(10_000) + (x >> 32)) & 0xFFFF_FFFF
}

/// `10^n` for `n` in `0..=8`.
const POW10: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// Up to 19 digits at `buf[*i..]`, which cannot overflow a `u64`;
/// `None` for no digits or more than 19 (the `str` path takes those).
/// Leaves `*i` on the first byte after the run. Reads eight digits at a
/// time while eight bytes are left, then one at a time.
#[inline]
fn scan_digits(buf: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    let mut v: u64 = 0;
    while let Some(word) = buf.get(*i..*i + 8) {
        let word = u64::from_le_bytes(word.try_into().ok()?);
        let n = leading_digits(word);
        if n == 0 {
            break;
        }
        // Wraps only past 19 digits, which are refused below.
        v = v.wrapping_mul(POW10[n]).wrapping_add(digits_value(word, n));
        *i += n;
        if n < 8 {
            return (1..=19).contains(&(*i - start)).then_some(v);
        }
    }
    while let Some(&b) = buf.get(*i) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        v = v.wrapping_mul(10).wrapping_add(u64::from(d));
        *i += 1;
    }
    (1..=19).contains(&(*i - start)).then_some(v)
}

/// The field at `buf[*i..]` as timestamp: `-`? then up to 19 digits,
/// within `i64`.
#[inline]
fn scan_time(buf: &[u8], i: &mut usize) -> Option<Timestamp> {
    if buf.get(*i) == Some(&b'-') {
        *i += 1;
        0i64.checked_sub_unsigned(scan_digits(buf, i)?)
    } else {
        Timestamp::try_from(scan_digits(buf, i)?).ok()
    }
}

/// Where the line at `buf[i..]` ends: `Skip`/`Edge` need its length,
/// so this finds the `\n`, bailing to the `str` path on a non-ASCII
/// byte first.
#[inline]
fn ascii_line_end(buf: &[u8], i: usize) -> Result<usize, Scan> {
    match buf[i..].iter().position(|&b| b == b'\n' || !b.is_ascii()) {
        Some(n) if buf[i + n] == b'\n' => Ok(i + n + 1),
        Some(_) => Err(Scan::Slow),
        None => Err(Scan::Incomplete),
    }
}

/// Parse the line at the start of `buf` in one pass over its bytes when
/// it is pure ASCII and plainly well formed: unsigned node ids, a
/// timestamp with at most a `-` in a column of its own, no digit run
/// longer than 19. Everything else is [`Scan::Slow`], for the `str` path
/// to accept or reject.
#[inline]
fn scan_line(buf: &[u8], ts_col: usize) -> Scan {
    if ts_col < 2 {
        return Scan::Slow;
    }
    let mut i = 0;
    loop {
        match buf.get(i) {
            None => return Scan::Incomplete,
            Some(b'\n') => return Scan::Skip(i + 1),
            Some(b'#' | b'%') => {
                return ascii_line_end(buf, i).map_or_else(|scan| scan, Scan::Skip);
            }
            Some(&b) if is_ascii_ws(b) => i += 1,
            Some(_) => break,
        }
    }
    let (mut src, mut dst, mut t) = (0, 0, 0);
    let mut field = 0;
    loop {
        // `buf[i]` starts field number `field`.
        let ok = match field {
            0 => scan_digits(buf, &mut i).map(|v| src = v),
            1 => scan_digits(buf, &mut i).map(|v| dst = v),
            _ if field == ts_col => scan_time(buf, &mut i).map(|v| t = v),
            _ => {
                while buf
                    .get(i)
                    .is_some_and(|&b| b.is_ascii() && !is_ascii_sep(b))
                {
                    i += 1;
                }
                Some(())
            }
        };
        if ok.is_none() {
            return Scan::Slow;
        }
        // The field must end at a separator or the end of the line.
        match buf.get(i) {
            None => return Scan::Incomplete,
            Some(b'\n') if field == ts_col => return Scan::Edge((src, dst, t), i + 1),
            Some(b'\n') => return Scan::Slow, // too few fields
            Some(&b) if is_ascii_sep(b) => i += 1,
            Some(_) => return Scan::Slow,
        }
        if field == ts_col {
            // The rest of the line is ignored, but must be ASCII.
            return match ascii_line_end(buf, i) {
                Ok(end) => Scan::Edge((src, dst, t), end),
                Err(scan) => scan,
            };
        }
        loop {
            match buf.get(i) {
                None => return Scan::Incomplete,
                Some(b'\n') => return Scan::Slow, // too few fields
                Some(&b) if is_ascii_sep(b) => i += 1,
                Some(_) => break,
            }
        }
        field += 1;
    }
}

fn is_comment(line: &str) -> bool {
    matches!(line.trim_start().chars().next(), Some('#' | '%') | None)
}

fn split_fields(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| c.is_whitespace() || c == ',')
        .filter(|s| !s.is_empty())
}

/// The `str` path for one line: UTF-8 validation, the full
/// `char::is_whitespace`/`,` split, `str::parse`, and every error
/// message. Returns `None` for blank and comment lines.
fn parse_text_line(
    line: &[u8],
    lineno: usize,
    opts: &LoadOptions,
) -> Result<Option<RawEdge>, LoadError> {
    let line = std::str::from_utf8(line).map_err(|_| invalid_utf8())?;
    if is_comment(line) {
        return Ok(None);
    }
    let ts_col = opts.timestamp_column;
    let (mut src, mut dst, mut raw_t, mut found) = ("", "", "", 0usize);
    for (i, f) in split_fields(line).enumerate() {
        match i {
            0 => src = f,
            1 => dst = f,
            _ => {}
        }
        if i == ts_col {
            raw_t = f;
        }
        found = i + 1;
    }
    // In u128 so that no column index overflows the count.
    let need = (ts_col as u128 + 1).max(3);
    if (found as u128) < need {
        return Err(LoadError::Parse {
            line: lineno,
            message: format!("expected at least {need} fields, found {found}"),
        });
    }
    let parse_node = |s: &str| -> Result<u64, LoadError> {
        s.parse::<u64>().map_err(|e| LoadError::Parse {
            line: lineno,
            message: format!("bad node id {s:?}: {e}"),
        })
    };
    let src = parse_node(src)?;
    let dst = parse_node(dst)?;
    let t = raw_t.parse::<Timestamp>().map_err(|e| LoadError::Parse {
        line: lineno,
        message: format!("bad timestamp {raw_t:?}: {e}"),
    })?;
    Ok(Some((src, dst, t)))
}

/// Parse the line at the start of `buf`, handing a record to `sink`
/// with its line number and counting the line in `lineno`. Returns the
/// line's length including its `\n`, or `None` (and counts nothing)
/// when `buf` ends before the `\n`, which cannot happen when `buf` ends
/// in one.
#[inline]
fn take_line(
    buf: &[u8],
    lineno: &mut usize,
    opts: &LoadOptions,
    sink: &mut impl FnMut(RawEdge, usize) -> Result<(), LoadError>,
) -> Result<Option<usize>, LoadError> {
    let len = match scan_line(buf, opts.timestamp_column) {
        Scan::Edge(e, len) => {
            sink(e, *lineno + 1)?;
            len
        }
        Scan::Skip(len) => len,
        Scan::Incomplete => return Ok(None),
        Scan::Slow => {
            let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            if let Some(e) = parse_text_line(&buf[..nl], *lineno + 1, opts)? {
                sink(e, *lineno + 1)?;
            }
            nl + 1
        }
    };
    *lineno += 1;
    Ok(Some(len))
}

/// Scan every record of `reader` in file order into `sink`, with its
/// 1-based line number. The first error, the reader's or the sink's,
/// stops the scan.
fn scan_records<R: BufRead>(
    mut reader: R,
    opts: &LoadOptions,
    mut sink: impl FnMut(RawEdge, usize) -> Result<(), LoadError>,
) -> Result<(), LoadError> {
    // A line the end of a block cut off, completed from the next block.
    let mut carry: Vec<u8> = Vec::new();
    let mut lineno = 0;
    loop {
        let block = match reader.fill_buf() {
            Ok(block) => block,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if block.is_empty() {
            break;
        }
        let mut pos = 0;
        if !carry.is_empty() {
            match block.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    carry.extend_from_slice(&block[..=nl]);
                    take_line(&carry, &mut lineno, opts, &mut sink)?;
                    carry.clear();
                    pos = nl + 1;
                }
                None => carry.extend_from_slice(block),
            }
        }
        while carry.is_empty() && pos < block.len() {
            match take_line(&block[pos..], &mut lineno, opts, &mut sink)? {
                Some(len) => pos += len,
                None => carry.extend_from_slice(&block[pos..]),
            }
        }
        let n = block.len();
        reader.consume(n);
    }
    if !carry.is_empty() {
        carry.push(b'\n');
        take_line(&carry, &mut lineno, opts, &mut sink)?;
    }
    Ok(())
}

/// Parse edges from any reader, in file order. See the module docs for
/// the grammar and [`load_edges`] for the file-path wrapper.
pub fn read_edges<R: BufRead>(
    reader: R,
    opts: &LoadOptions,
) -> Result<Vec<(u64, u64, Timestamp)>, LoadError> {
    let mut out = Vec::new();
    scan_records(reader, opts, |e, _| {
        out.push(e);
        Ok(())
    })?;
    Ok(out)
}

/// Read buffer size of the file-path loaders: a few dozen `read` calls
/// per megabyte instead of the default 8 KiB buffer's 128.
const FILE_BUF: usize = 64 << 10;

/// Open a text file for the readers, with the loaders' read buffer.
pub fn open(path: impl AsRef<Path>) -> Result<BufReader<std::fs::File>, LoadError> {
    Ok(BufReader::with_capacity(
        FILE_BUF,
        std::fs::File::open(path)?,
    ))
}

/// Load raw `(src, dst, t)` triples from a text file.
pub fn load_edges(
    path: impl AsRef<Path>,
    opts: &LoadOptions,
) -> Result<Vec<(u64, u64, Timestamp)>, LoadError> {
    read_edges(open(path)?, opts)
}

/// Load a [`TemporalGraph`] from a text file: [`read_graph`] over the
/// loaders' read buffer.
pub fn load_graph(path: impl AsRef<Path>, opts: &LoadOptions) -> Result<TemporalGraph, LoadError> {
    read_graph(open(path)?, opts)
}

/// Read a [`TemporalGraph`] from any reader: the graph
/// [`graph_from_raw`] builds from [`read_edges`]' triples, read in one
/// pass with no triple list (see the module docs).
pub fn read_graph<R: BufRead>(reader: R, opts: &LoadOptions) -> Result<TemporalGraph, LoadError> {
    let (num_nodes, edges) = read_chronological_edges(reader, opts)?;
    Ok(TemporalGraph::from_sorted_edges(num_nodes, edges))
}

/// [`read_graph`]'s edge list and node count, before the build: the
/// list [`chronological_edges`] makes of [`read_edges`]' triples.
pub fn read_chronological_edges<R: BufRead>(
    reader: R,
    opts: &LoadOptions,
) -> Result<(usize, Vec<TemporalEdge>), LoadError> {
    let mut ingest = Ingest::new(Interner::new(), MAX_EDGES, Vec::new());
    scan_records(reader, opts, |e, line| ingest.push(e, line))?;
    Ok(ingest.finish())
}

/// [`read_chronological_edges`]' edges and node count as a bit-packed
/// [`PackedEdges`] stream, ranked by the degrees counted while reading:
/// the input `hare-count --chunk-budget` counts from. Same ids, order,
/// self-loop drop and [`LoadError`]s as the list.
///
/// While the input stays chronological, each edge is packed as soon as
/// it is read, so no edge list is built. At the first edge out of time
/// order the stream falls back to the list's route: the edges so far
/// are unpacked into a list, the rest appended, and the whole list
/// stably sorted (input position breaks ties) and packed at the end.
/// That fallback holds the list and saves no memory.
pub fn read_packed_edges<R: BufRead>(
    reader: R,
    opts: &LoadOptions,
) -> Result<PackedEdges, LoadError> {
    let mut ingest = Ingest::new(Interner::new(), MAX_EDGES, PackedSink::default());
    scan_records(reader, opts, |e, line| ingest.push(e, line))?;
    Ok(ingest.finish_packed())
}

/// Build a graph from raw 64-bit-id triples (the in-memory equivalent of
/// [`load_graph`]): the graph over [`chronological_edges`]. No field of
/// `_opts` affects the build: it is taken so that callers pass the
/// options they parsed with.
///
/// # Panics
/// Panics past the graph's id spaces (see [`LoadError::Limit`], which
/// [`read_graph`] returns instead).
#[must_use]
pub fn graph_from_raw(raw: Vec<(u64, u64, Timestamp)>, _opts: &LoadOptions) -> TemporalGraph {
    let (num_nodes, edges) = chronological_edges(raw);
    TemporalGraph::from_sorted_edges(num_nodes, edges)
}

/// The chronological edge list of [`graph_from_raw`]'s graph, and its
/// node count. External ids are remapped to a dense `0..n` in order of
/// first appearance ([`Interner`]); self-loops are dropped without
/// taking an id (so `num_nodes` is stable across save/load round
/// trips); edges are stably sorted by timestamp, so input order breaks
/// ties.
///
/// # Panics
/// Panics past the graph's id spaces, like [`graph_from_raw`].
#[must_use]
pub fn chronological_edges(raw: Vec<(u64, u64, Timestamp)>) -> (usize, Vec<TemporalEdge>) {
    let mut ingest = Ingest::new(Interner::new(), MAX_EDGES, Vec::with_capacity(raw.len()));
    for (i, e) in raw.into_iter().enumerate() {
        if let Err(e) = ingest.push(e, i + 1) {
            // hare-lint: allow(panic, reason = "in-memory triples past the id spaces: the documented panic of this entry point")
            panic!("{e}");
        }
    }
    ingest.finish()
}

/// Dense node ids for external 64-bit ids, handed out `0, 1, 2, …` in
/// order of first appearance: the one id remap of the reader, of
/// `GraphBuilder::compact_ids` and of `hare-count`'s streaming input.
///
/// While ids stay dense — below `max(2^16, 8 × ids handed out)` — an id
/// is found by one load from a direct table; the table grows as more
/// ids are handed out, so ids `0..n` in any order never leave it. A
/// sparse id goes to a hash map keyed per process (std's `RandomState`),
/// so crafted ids cannot make its probes collide. Which store holds an
/// id never shows in the ids handed out.
#[derive(Debug)]
pub struct Interner {
    /// `table[x]` is the id of external id `x`, or [`VACANT`]. Every
    /// key of `sparse` is at least `table.len()`.
    table: Vec<NodeId>,
    // hare-lint: allow(std-hash, reason = "keyed per process against hash flooding; ids are assigned in first-appearance order, never in map order")
    sparse: HashMap<u64, NodeId>,
    len: usize,
    max_nodes: usize,
}

/// An empty [`Interner::table`] slot.
const VACANT: NodeId = NodeId::MAX;

/// The direct table always covers ids below this…
const DENSE_FLOOR: usize = 1 << 16;

/// …and below this multiple of the ids handed out.
const DENSE_FACTOR: usize = 8;

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    /// An empty interner over the whole packed-lane node space
    /// (2^31 − 1 ids).
    #[must_use]
    pub fn new() -> Interner {
        Interner::with_max_nodes(MAX_NODES)
    }

    /// An empty interner that hands out at most `max_nodes` ids.
    pub(crate) fn with_max_nodes(max_nodes: usize) -> Interner {
        Interner {
            table: Vec::new(),
            // hare-lint: allow(std-hash, reason = "keyed per process against hash flooding; never iterated for output")
            sparse: HashMap::new(),
            len: 0,
            max_nodes,
        }
    }

    /// The dense id of external id `x`, handing out the next one if `x`
    /// is new; `None` if `x` is new and the node space is full.
    #[inline]
    pub fn intern(&mut self, x: u64) -> Option<NodeId> {
        match usize::try_from(x).ok().and_then(|i| self.table.get(i)) {
            Some(&id) if id != VACANT => Some(id),
            _ => self.intern_slow(x),
        }
    }

    /// [`Interner::intern`] past the table's filled slots, kept out of
    /// line so the hit path stays small.
    #[inline(never)]
    fn intern_slow(&mut self, x: u64) -> Option<NodeId> {
        let cap = DENSE_FLOOR.max(self.len.saturating_mul(DENSE_FACTOR));
        match usize::try_from(x) {
            Ok(i) if i < cap => {
                if i >= self.table.len() {
                    let len = (i + 1).max(2 * self.table.len()).max(1024).min(cap);
                    self.grow(len);
                }
                if self.table[i] == VACANT {
                    self.table[i] = self.next_id()?;
                }
                Some(self.table[i])
            }
            _ => match self.sparse.get(&x) {
                Some(&id) => Some(id),
                None => {
                    let id = self.next_id()?;
                    self.sparse.insert(x, id);
                    Some(id)
                }
            },
        }
    }

    /// Grow the table to `len` slots, moving in the sparse ids it now
    /// covers.
    fn grow(&mut self, len: usize) {
        self.table.resize(len, VACANT);
        if !self.sparse.is_empty() {
            let table = &mut self.table;
            // hare-lint: allow(map-iter, reason = "each entry moves to its own table slot; visit order cannot show")
            self.sparse.retain(|&x, &mut id| {
                match usize::try_from(x).ok().and_then(|i| table.get_mut(i)) {
                    Some(slot) => {
                        *slot = id;
                        false
                    }
                    None => true,
                }
            });
        }
    }

    fn next_id(&mut self) -> Option<NodeId> {
        if self.len >= self.max_nodes {
            return None;
        }
        self.len += 1;
        NodeId::try_from(self.len - 1).ok()
    }

    /// Ids handed out so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no id has been handed out.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The error for a record on `line` that would make more than `max`
/// of `what`.
#[cold]
fn limit_error(line: usize, max: usize, what: &str) -> LoadError {
    LoadError::Limit {
        line,
        message: format!("more than {max} {what}"),
    }
}

/// Where an [`Ingest`] puts the edges it interns, in input order.
trait Sink {
    /// Take `e`; `in_order` says whether it and every edge before it
    /// came in time order.
    fn push(&mut self, e: TemporalEdge, in_order: bool);
}

impl Sink for Vec<TemporalEdge> {
    #[inline]
    fn push(&mut self, e: TemporalEdge, _in_order: bool) {
        Vec::push(self, e);
    }
}

/// [`read_packed_edges`]' sink: packs edges while they come in time
/// order, and holds them in `fallback` from the first that does not.
#[derive(Default)]
struct PackedSink {
    packed: Option<PackedEdgesWriter>,
    fallback: Vec<TemporalEdge>,
    /// Per-node degree over every edge taken, for the stream's rank.
    degree: Vec<u32>,
}

impl Sink for PackedSink {
    #[inline]
    fn push(&mut self, e: TemporalEdge, in_order: bool) {
        for u in [e.src as usize, e.dst as usize] {
            if u >= self.degree.len() {
                // Ids are handed out densely, so this adds one slot.
                self.degree.resize(u + 1, 0);
            }
            self.degree[u] += 1;
        }
        if in_order {
            self.packed
                .get_or_insert_with(PackedEdgesWriter::new)
                .push(e);
        } else {
            if let Some(packed) = self.packed.take() {
                self.fallback = packed.into_edges();
            }
            self.fallback.push(e);
        }
    }
}

/// Interned edges in input order, on their way to a chronological list
/// or stream.
struct Ingest<S> {
    ids: Interner,
    sink: S,
    /// Edges taken so far.
    len: usize,
    max_edges: usize,
    /// Whether the timestamps so far never decrease, and the last one.
    sorted: bool,
    last_t: Timestamp,
}

impl<S: Sink> Ingest<S> {
    fn new(ids: Interner, max_edges: usize, sink: S) -> Ingest<S> {
        Ingest {
            ids,
            sink,
            len: 0,
            max_edges,
            sorted: true,
            last_t: Timestamp::MIN,
        }
    }

    /// Intern and append one record from `line`, dropping a self-loop
    /// before its ids are interned.
    #[inline]
    fn push(&mut self, (s, d, t): RawEdge, line: usize) -> Result<(), LoadError> {
        if s == d {
            return Ok(());
        }
        let (Some(s), Some(d)) = (self.ids.intern(s), self.ids.intern(d)) else {
            let what = "distinct node ids (the packed-lane node space)";
            return Err(limit_error(line, self.ids.max_nodes, what));
        };
        if self.len >= self.max_edges {
            return Err(limit_error(
                line,
                self.max_edges,
                "edges (the u32 edge-id space)",
            ));
        }
        self.sorted &= t >= self.last_t;
        self.last_t = t;
        self.len += 1;
        self.sink.push(TemporalEdge::new(s, d, t), self.sorted);
        Ok(())
    }
}

impl Ingest<Vec<TemporalEdge>> {
    /// The node count and the edges, stably sorted by time unless they
    /// came in that order.
    fn finish(self) -> (usize, Vec<TemporalEdge>) {
        let mut edges = self.sink;
        if !self.sorted {
            edges.sort_by_key(|e| e.t); // stable: input order breaks ties
        }
        (self.ids.len(), edges)
    }
}

impl Ingest<PackedSink> {
    /// The packed stream over every node, sorting the fallback list
    /// first if the input left time order.
    fn finish_packed(self) -> PackedEdges {
        let PackedSink {
            packed,
            mut fallback,
            mut degree,
        } = self.sink;
        degree.resize(self.ids.len(), 0);
        let packed = packed.unwrap_or_else(|| {
            fallback.sort_by_key(|e| e.t); // stable: input order breaks ties
            let mut w = PackedEdgesWriter::new();
            for e in fallback {
                w.push(e);
            }
            w
        });
        packed.finish(&degree)
    }
}

/// Write a graph back out as `src dst t` lines (chronological order).
pub fn write_edges(graph: &TemporalGraph, mut w: impl Write) -> std::io::Result<()> {
    for e in graph.edges() {
        writeln!(w, "{} {} {}", e.src, e.dst, e.t)?;
    }
    Ok(())
}

/// Save a graph to a text file in the same format [`load_graph`] reads.
pub fn save_graph(graph: &TemporalGraph, path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edges(graph, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Result<Vec<(u64, u64, Timestamp)>, LoadError> {
        read_edges(Cursor::new(text), &LoadOptions::default())
    }

    #[test]
    fn parses_whitespace_separated() {
        let edges = parse("1 2 100\n2 3 200\n").unwrap();
        assert_eq!(edges, vec![(1, 2, 100), (2, 3, 200)]);
    }

    #[test]
    fn parses_comma_separated() {
        let edges = parse("1,2,100\n").unwrap();
        assert_eq!(edges, vec![(1, 2, 100)]);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let edges = parse("# header\n% other\n\n1 2 3\n").unwrap();
        assert_eq!(edges, vec![(1, 2, 3)]);
    }

    #[test]
    fn ignores_trailing_columns() {
        let edges = parse("1 2 100 extra stuff\n").unwrap();
        assert_eq!(edges, vec![(1, 2, 100)]);
    }

    #[test]
    fn timestamp_column_override_for_bitcoin_format() {
        let opts = LoadOptions {
            timestamp_column: 3,
        };
        // src dst rating time
        let edges = read_edges(Cursor::new("6 2 4 1289241911\n"), &opts).unwrap();
        assert_eq!(edges, vec![(6, 2, 1289241911)]);
    }

    #[test]
    fn float_timestamps_are_rejected() {
        // `nan`, `inf` and fractions are not timestamps: reading them as
        // floats would map `nan` to 0 and `inf` to i64::MAX.
        for t in ["100.75", "nan", "inf", "1e3"] {
            let err = parse(&format!("1 2 {t}\n")).unwrap_err();
            let want = format!(
                "parse error on line 1: bad timestamp {t:?}: invalid digit found in string"
            );
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn out_of_range_timestamp_column_is_a_parse_error() {
        for col in [usize::MAX, usize::MAX / 2] {
            let opts = LoadOptions {
                timestamp_column: col,
            };
            let err = read_edges(Cursor::new("1 2 3\n"), &opts).unwrap_err();
            let need = col as u128 + 1;
            assert_eq!(
                err.to_string(),
                format!("parse error on line 1: expected at least {need} fields, found 3")
            );
        }
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse("1 2 3\noops 2 3\n").unwrap_err();
        match err {
            LoadError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("oops"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn error_on_too_few_fields() {
        let err = parse("1 2\n").unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn error_on_bad_timestamp() {
        let err = parse("1 2 tomorrow\n").unwrap_err();
        assert!(err.to_string().contains("tomorrow"));
    }

    #[test]
    fn empty_input_yields_no_edges_and_an_empty_graph() {
        let edges = parse("").unwrap();
        assert!(edges.is_empty());
        // Comment-only input is just as empty.
        let edges = parse("# nothing\n% here\n\n").unwrap();
        assert!(edges.is_empty());
        let g = graph_from_raw(edges, &LoadOptions::default());
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn non_monotone_input_parses_in_file_order_and_builds_sorted() {
        // The reader preserves delivery order (streaming callers need
        // it); the builder then normalises to chronological order.
        let raw = parse("1 2 300\n2 3 100\n1 3 200\n").unwrap();
        assert_eq!(raw, vec![(1, 2, 300), (2, 3, 100), (1, 3, 200)]);
        let g = graph_from_raw(raw, &LoadOptions::default());
        let times: Vec<_> = g.edges().iter().map(|e| e.t).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn error_on_bad_node_id() {
        let err = parse("alice 2 3\n").unwrap_err();
        assert!(err.to_string().contains("alice"), "{err}");
        let err = parse("1 -7 3\n").unwrap_err();
        assert!(err.to_string().contains("-7"), "{err}");
    }

    #[test]
    fn graph_roundtrip_through_text() {
        let g = graph_from_raw(
            vec![(100, 200, 5), (200, 300, 1), (100, 200, 5)],
            &LoadOptions::default(),
        );
        let mut buf = Vec::new();
        write_edges(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let g2 = graph_from_raw(
            read_edges(Cursor::new(text.as_str()), &LoadOptions::default()).unwrap(),
            &LoadOptions::default(),
        );
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.num_nodes(), g2.num_nodes());
        // Chronological order is preserved.
        let t1: Vec<_> = g.edges().iter().map(|e| e.t).collect();
        let t2: Vec<_> = g2.edges().iter().map(|e| e.t).collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn compact_ids_remaps_sparse_ids() {
        // External ids are always compacted to 0..n in first-seen order.
        let g = graph_from_raw(vec![(1_000_000_000_000, 7, 1)], &LoadOptions::default());
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    fn word_digit_helpers_match_a_byte_loop() {
        let check = |bytes: [u8; 8]| {
            let word = u64::from_le_bytes(bytes);
            let want = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
            assert_eq!(leading_digits(word), want, "{bytes:?}");
            if want > 0 {
                let text = std::str::from_utf8(&bytes[..want]).unwrap();
                assert_eq!(digits_value(word, want), text.parse::<u64>().unwrap());
            }
        };
        // Every byte value at every position after a run of digits.
        for k in 0..8 {
            for b in 0..=255u8 {
                let mut bytes = *b"90817263";
                bytes[k] = b;
                check(bytes);
            }
        }
        // Mixed words, mostly digits.
        let mut h = 1;
        for case in 0..20_000 {
            h = crate::util::splitmix64_mix(h, case);
            check(std::array::from_fn(|k| {
                let r = (h >> (8 * k)) as u8;
                if r.is_multiple_of(4) {
                    r
                } else {
                    b'0' + r % 10
                }
            }));
        }
    }

    /// Read `text` through a fresh [`Ingest`] into `sink`, with the
    /// given limits.
    fn ingest_into<S: Sink>(
        text: &str,
        ids: Interner,
        max_edges: usize,
        sink: S,
    ) -> (Ingest<S>, Result<(), LoadError>) {
        let mut ingest = Ingest::new(ids, max_edges, sink);
        let res = scan_records(Cursor::new(text), &LoadOptions::default(), |e, line| {
            ingest.push(e, line)
        });
        (ingest, res)
    }

    /// [`ingest_into`] an edge list.
    fn ingest_text(
        text: &str,
        ids: Interner,
        max_edges: usize,
    ) -> (Ingest<Vec<TemporalEdge>>, Result<(), LoadError>) {
        ingest_into(text, ids, max_edges, Vec::new())
    }

    #[test]
    fn sparse_ids_stay_out_of_the_direct_table() {
        let text = "1099511627776 9000000000000000000 5\n\
                    9000000000000000000 1099511627776 6\n\
                    1099511627776 9000000000000000001 7\n";
        let (ingest, res) = ingest_text(text, Interner::new(), MAX_EDGES);
        res.unwrap();
        assert!(ingest.ids.table.is_empty());
        assert_eq!(ingest.ids.sparse.len(), 3);
        let (num_nodes, edges) = ingest.finish();
        assert_eq!(num_nodes, 3);
        assert_eq!(
            edges,
            [
                TemporalEdge::new(0, 1, 5),
                TemporalEdge::new(1, 0, 6),
                TemporalEdge::new(0, 2, 7),
            ]
        );
    }

    #[test]
    fn node_and_edge_limits_are_typed_errors() {
        // Line 4 is a self-loop, which takes no id; line 5 brings the
        // fourth distinct node.
        let text = "1 2 5\n# comment\n2 3 6\n7 7 7\n4 1 8\n";
        let (_, res) = ingest_text(text, Interner::with_max_nodes(3), MAX_EDGES);
        assert_eq!(
            res.unwrap_err().to_string(),
            "limit exceeded on line 5: more than 3 distinct node ids (the packed-lane node space)"
        );
        let (_, res) = ingest_text(text, Interner::with_max_nodes(4), MAX_EDGES);
        res.unwrap();
        let (ingest, res) = ingest_text(text, Interner::new(), 1);
        assert!(
            matches!(&res, Err(LoadError::Limit { line: 3, message }) if message.contains("edge-id")),
            "{res:?}"
        );
        assert_eq!(ingest.len, 1);
        assert_eq!(ingest.sink.len(), 1);
        // The packed stream's reader stops on the same lines with the
        // same errors.
        for (max_nodes, max_edges) in [(3, MAX_EDGES), (4, MAX_EDGES), (MAX_NODES, 1)] {
            let list = ingest_text(text, Interner::with_max_nodes(max_nodes), max_edges).1;
            let ids = Interner::with_max_nodes(max_nodes);
            let (ingest, stream) = ingest_into(text, ids, max_edges, PackedSink::default());
            assert_eq!(
                stream.map_err(|e| e.to_string()),
                list.map_err(|e| e.to_string()),
                "max_nodes={max_nodes} max_edges={max_edges}"
            );
            if max_nodes == 4 {
                assert_eq!(ingest.finish_packed().len(), 3);
            }
        }
    }

    /// The packed reader holds the edges, node count and degree rank of
    /// the list and graph readers: packed while read when the input is
    /// chronological, sorted and packed at the end when it is not.
    #[test]
    fn packed_reader_matches_the_list_and_graph_readers() {
        let rows: Vec<(u64, u64, Timestamp)> = (0..3_000u64)
            .map(|i| (i % 37 * 1_000, (i * 7 + 3) % 41, (i / 5) as Timestamp - 200))
            .collect();
        let sorted: String = rows
            .iter()
            .map(|(s, d, t)| format!("{s} {d} {t}\n"))
            .collect();
        let mut shuffled = rows.clone();
        // In order for two whole blocks and more, then not.
        shuffled.swap(2_100, 2_999);
        shuffled.swap(2_050, 2_500);
        let shuffled: String = shuffled
            .iter()
            .map(|(s, d, t)| format!("{s} {d} {t}\n"))
            .collect();
        for (text, in_order) in [(&sorted, true), (&shuffled, false)] {
            let opts = LoadOptions::default();
            let (ingest, res) =
                ingest_into(text, Interner::new(), MAX_EDGES, PackedSink::default());
            res.unwrap();
            assert_eq!(ingest.sink.packed.is_some(), in_order);
            assert_eq!(ingest.sink.fallback.is_empty(), in_order);
            let stream = read_packed_edges(text.as_bytes(), &opts).unwrap();
            let (num_nodes, edges) = read_chronological_edges(text.as_bytes(), &opts).unwrap();
            let g = read_graph(text.as_bytes(), &opts).unwrap();
            assert_eq!(stream.num_nodes(), num_nodes);
            assert_eq!(stream.load_range(Timestamp::MIN, Timestamp::MAX), edges);
            assert_eq!(stream.node_rank(), g.node_rank());
        }
    }

    #[test]
    fn chronological_input_is_not_sorted_again() {
        let (ingest, res) = ingest_text("1 2 5\n2 3 5\n3 1 9\n", Interner::new(), 10);
        res.unwrap();
        assert!(ingest.sorted);
        let (ingest, res) = ingest_text("1 2 5\n2 3 4\n3 1 9\n", Interner::new(), 10);
        res.unwrap();
        assert!(!ingest.sorted);
        let times: Vec<_> = ingest.finish().1.iter().map(|e| e.t).collect();
        assert_eq!(times, [4, 5, 9]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The interner hands out the ids a first-seen hash map does,
        /// whichever store an id lands in: ids start sparse (above the
        /// table's floor), the table grows over them as more ids are
        /// handed out, and a few ids stay far out of its reach.
        #[test]
        fn interner_matches_a_first_seen_map(seed in 0u64..u64::MAX, len in 0usize..30_000) {
            let mut interner = Interner::new();
            let mut want: crate::util::FxHashMap<u64, NodeId> = Default::default();
            let mut h = seed;
            for _ in 0..len {
                h = crate::util::splitmix64_mix(h, 1);
                let x = if h % 50 == 0 { (h >> 8) << 40 } else { (h >> 8) % 400_000 };
                let next = want.len() as NodeId;
                let id = *want.entry(x).or_insert(next);
                proptest::prop_assert_eq!(interner.intern(x), Some(id));
            }
            proptest::prop_assert_eq!(interner.len(), want.len());
            proptest::prop_assert!(interner.table.len() <= DENSE_FLOOR.max(8 * want.len()));
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("tgraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.txt");
        let g = graph_from_raw(vec![(0, 1, 1), (1, 2, 2)], &LoadOptions::default());
        save_graph(&g, &path).unwrap();
        let g2 = load_graph(&path, &LoadOptions::default()).unwrap();
        assert_eq!(g2.num_edges(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_graph(
            "/nonexistent/definitely/missing.txt",
            &LoadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
    }

    /// The line-based parser this module used before the block scanner,
    /// kept as the oracle the scanner is compared against: one `String`
    /// per line from `BufRead::lines`, fields collected into a `Vec`,
    /// every number read by `str::parse`.
    fn read_edges_by_lines<R: BufRead>(
        reader: R,
        opts: &LoadOptions,
    ) -> Result<Vec<(u64, u64, Timestamp)>, LoadError> {
        let mut out = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if is_comment(&line) {
                continue;
            }
            let lineno = idx + 1;
            let fields: Vec<&str> = split_fields(&line).collect();
            if fields.len() < opts.timestamp_column + 1 || fields.len() < 3 {
                return Err(LoadError::Parse {
                    line: lineno,
                    message: format!(
                        "expected at least {} fields, found {}",
                        (opts.timestamp_column + 1).max(3),
                        fields.len()
                    ),
                });
            }
            let parse_node = |s: &str| -> Result<u64, LoadError> {
                s.parse::<u64>().map_err(|e| LoadError::Parse {
                    line: lineno,
                    message: format!("bad node id {s:?}: {e}"),
                })
            };
            let src = parse_node(fields[0])?;
            let dst = parse_node(fields[1])?;
            let raw_t = fields[opts.timestamp_column];
            let t = raw_t.parse::<Timestamp>().map_err(|e| LoadError::Parse {
                line: lineno,
                message: format!("bad timestamp {raw_t:?}: {e}"),
            })?;
            out.push((src, dst, t));
        }
        Ok(out)
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::io::Read;

        /// Equal `Ok` vectors, or errors of the same variant (and I/O
        /// kind) with byte-identical `Display`.
        fn same_outcome(
            got: &Result<Vec<(u64, u64, Timestamp)>, LoadError>,
            want: &Result<Vec<(u64, u64, Timestamp)>, LoadError>,
        ) -> bool {
            match (got, want) {
                (Ok(a), Ok(b)) => a == b,
                (Err(LoadError::Io(a)), Err(LoadError::Io(b))) => {
                    a.kind() == b.kind() && a.to_string() == b.to_string()
                }
                (Err(a @ LoadError::Parse { .. }), Err(b @ LoadError::Parse { .. })) => {
                    a.to_string() == b.to_string()
                }
                _ => false,
            }
        }

        /// Compare scanner and oracle on `bytes` read as one block and
        /// through every buffer capacity 1..=64, so each line straddles
        /// refills somewhere.
        fn check(bytes: &[u8], ts_col: usize) -> Result<(), String> {
            let opts = LoadOptions {
                timestamp_column: ts_col,
            };
            let want = read_edges_by_lines(Cursor::new(bytes), &opts);
            for cap in 0..=64 {
                let got = if cap == 0 {
                    read_edges(bytes, &opts)
                } else {
                    read_edges(BufReader::with_capacity(cap, Cursor::new(bytes)), &opts)
                };
                if !same_outcome(&got, &want) {
                    return Err(format!(
                        "input {:?} (timestamp column {ts_col}, capacity {cap}): \
                         scanner {got:?}, oracle {want:?}",
                        String::from_utf8_lossy(bytes)
                    ));
                }
            }
            Ok(())
        }

        #[test]
        fn scanner_matches_oracle_on_listed_cases() {
            let cases: &[&[u8]] = &[
                b"",
                b"\n",
                b"1 2 3",
                b"1 2 3\n4 5 6",
                b"1 2 3\r\n4 5 6\r\n",
                b"1 2 3\r",
                b"1\t2\t3\n1,2,3\n1, 2 ,3\n,1,,2,,3,\n",
                b"1\x0B2\x0C3\n\x0B\x0C\r\n",
                "1\u{85}2\u{A0}3\n\u{A0}1 2 3\n".as_bytes(),
                "\u{85}# comment after NEL\n1 2 3\n".as_bytes(),
                "1 2 3 \u{2003}extra\n".as_bytes(),
                b"  # indented comment\n\t% tabbed comment\n1 2 3\n",
                b" , # not a comment\n",
                b"+1 +2 +3\n1 2 -3\n0001 002 -0003\n",
                b"1 2 +\n",
                b"1 2 -\n",
                b"+ 2 3\n",
                b"1 2 +-3\n",
                b"1 -2 3\n",
                b"-0 1 2\n",
                b"1234567890123456789 12345678901234567890 1234567890123456789\n",
                b"18446744073709551615 0 9223372036854775807\n",
                b"18446744073709551616 0 0\n",
                b"0 99999999999999999999 0\n",
                b"0 1 -9223372036854775808\n",
                b"0 1 -9223372036854775809\n",
                b"0 1 9223372036854775808\n",
                b"0 1 -18446744073709551616\n",
                b"0 1 100.75\n",
                b"0 1\n",
                b"0\n",
                b",,,\n",
                b"1 2 3\nx y z\n",
                b"1 2 3\n4 5 \xFF\n",
                b"# \xFF inside a comment\n1 2 3\n",
                b"1 2 3 \xC3\n",
                b"1 2 \xFF 4\n",
                "1 2 \u{e9}x 4 5\n".as_bytes(),
                "1 2 x\u{85}4 5\n".as_bytes(),
                b"\xC3\xA9 2 3\n",
                b"1 2 3\n\x80\n1 2 x\n",
                b"1 2 x\n\x80\n",
                b"1 2 3\n4 5 6 trailing,columns here\n",
                b"1 2 3\n\n\n% \n7 8 9",
                b"1\x002 3\n",
            ];
            for &case in cases {
                for ts_col in 0..5 {
                    check(case, ts_col).unwrap();
                }
            }
        }

        /// A reader that fails with an I/O error after `ok` bytes.
        struct FailAfter {
            inner: Cursor<Vec<u8>>,
            ok: usize,
        }

        impl Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.ok == 0 {
                    return Err(std::io::Error::other("disk on fire"));
                }
                let n = buf.len().min(self.ok);
                let n = self.inner.read(&mut buf[..n])?;
                self.ok -= n;
                Ok(n)
            }
        }

        #[test]
        fn scanner_matches_oracle_on_read_failures() {
            let text = b"1 2 3\n4 5 6\n7 x 9\n10 11 12\n".to_vec();
            for ok in 0..text.len() {
                for cap in [1, 3, 8] {
                    let opts = LoadOptions::default();
                    let reader = |cap| {
                        BufReader::with_capacity(
                            cap,
                            FailAfter {
                                inner: Cursor::new(text.clone()),
                                ok,
                            },
                        )
                    };
                    let got = read_edges(reader(cap), &opts);
                    let want = read_edges_by_lines(reader(cap), &opts);
                    assert!(
                        same_outcome(&got, &want),
                        "ok={ok} cap={cap}: {got:?} vs {want:?}"
                    );
                }
            }
        }

        // Pieces the generated lines are made of; repeated entries
        // weight the draw towards lines that parse.
        const NODES: &[&str] = &[
            "0",
            "1",
            "7",
            "42",
            "123456",
            "1",
            "7",
            "42",
            "+5",
            "007",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "1234567890123456789",
            "12345678901234567890",
            "-1",
            "+",
            "x",
            "é",
            "4.5",
        ];
        const TIMES: &[&str] = &[
            "0",
            "86400",
            "1217567877",
            "-3",
            "86400",
            "1217567877",
            "+12",
            "-0",
            "0005",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "-",
            "+-1",
            "1e3",
            "nan",
            "٣",
        ];
        const SEPS: &[&str] = &[
            " ", " ", "\t", ",", " ", "\t", ", ", "  ", "\x0B", "\x0C", "\r", "\u{85}", "\u{A0}",
            " ,",
        ];
        const TAILS: &[&str] = &[
            "",
            "",
            "",
            "",
            " 5",
            ",extra",
            " x y z",
            "\t\u{A0}",
            " \u{3000}9",
            " ,",
            " 1.5",
            "\r",
        ];
        const OTHER_LINES: &[&[u8]] = &[
            b"# comment",
            b"% comment",
            b"   # indented",
            b"\t%",
            b"",
            b"  ",
            b"\r",
            b"# \xFF bad",
            b"1 2 \xFF",
            b"\xE2\x82",
            b"1 2",
            b",,,",
        ];

        fn pick<T: Copy>(table: &[T], i: usize) -> T {
            table[i % table.len()]
        }

        /// Six piece indices per line: source, separator, destination,
        /// separator, timestamp, tail (which also picks the line's shape).
        type LineRecipe = ((usize, usize), (usize, usize), (usize, usize));

        fn render(lines: &[LineRecipe], crlf: bool) -> Vec<u8> {
            let mut out = Vec::new();
            for (n, &((a, b), (c, d), (e, f))) in lines.iter().enumerate() {
                if n > 0 {
                    out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
                }
                if f % 8 == 0 {
                    out.extend_from_slice(pick(OTHER_LINES, a + e));
                    continue;
                }
                if f % 8 == 1 {
                    out.extend_from_slice(pick(SEPS, e).as_bytes());
                }
                for piece in [
                    pick(NODES, a),
                    pick(SEPS, b),
                    pick(NODES, c),
                    pick(SEPS, d),
                    pick(TIMES, e),
                    pick(TAILS, f),
                ] {
                    out.extend_from_slice(piece.as_bytes());
                }
            }
            out
        }

        /// The lean route against the raw one on `bytes`: [`read_graph`]
        /// and [`read_chronological_edges`], through read buffers of 1 to
        /// 8192 bytes, must give
        /// `graph_from_raw(read_edges(..))`'s edges, node count and
        /// fingerprint, or its error with the same line and message.
        fn check_graph(bytes: &[u8], ts_col: usize) -> Result<(), String> {
            let opts = LoadOptions {
                timestamp_column: ts_col,
            };
            let raw = read_edges(bytes, &opts);
            let want = raw.as_ref().map(|raw| graph_from_raw(raw.clone(), &opts));
            let same = |got: &Result<(usize, &[TemporalEdge], u64), String>| match (&want, got) {
                (Ok(w), Ok((n, edges, fp))) => {
                    w.num_nodes() == *n && w.edges() == *edges && w.fingerprint() == *fp
                }
                (Err(w), Err(g)) => w.to_string() == *g,
                _ => false,
            };
            for cap in [1, 7, 64, 8192] {
                let reader = || BufReader::with_capacity(cap, Cursor::new(bytes));
                let got = read_graph(reader(), &opts);
                let got = got
                    .as_ref()
                    .map(|g| (g.num_nodes(), g.edges(), g.fingerprint()));
                let got = got.map_err(ToString::to_string);
                let list = read_chronological_edges(reader(), &opts);
                let list = list.as_ref().map(|(n, edges)| (*n, &edges[..], 0));
                let list = list.map_err(ToString::to_string);
                let list_ok = match (&list, &raw) {
                    (Ok((n, edges, _)), Ok(raw)) => {
                        let (wn, wedges) = chronological_edges(raw.clone());
                        *n == wn && *edges == &wedges[..]
                    }
                    (Err(g), Err(w)) => *g == w.to_string(),
                    _ => false,
                };
                if !same(&got) || !list_ok {
                    return Err(format!(
                        "input {:?} (timestamp column {ts_col}, capacity {cap}): lean {got:?} / {list:?}, raw {:?}",
                        String::from_utf8_lossy(bytes),
                        want.as_ref()
                            .map(|g| (g.num_nodes(), g.edges(), g.fingerprint())),
                    ));
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]

            /// Generated SNAP-style text (valid or not) reads to the same
            /// graph, or the same error, by the lean route as by the raw
            /// one.
            #[test]
            fn lean_reader_matches_raw_route_on_generated_text(
                lines in proptest::collection::vec(
                    ((0usize..1000, 0usize..1000), (0usize..1000, 0usize..1000), (0usize..1000, 0usize..1000)),
                    0..24,
                ),
                shape in (0usize..2, 0usize..2, 0usize..5),
            ) {
                let (crlf, valid, ts_col) = shape;
                let lines: Vec<LineRecipe> = if valid == 1 {
                    lines.iter().map(|&((a, b), (c, d), (e, f))| ((a % 8, b % 8), (c % 8, d % 8), (e % 8, 1 + f % 3))).collect()
                } else {
                    lines
                };
                let bytes = render(&lines, crlf == 1);
                if let Err(msg) = check_graph(&bytes, ts_col) {
                    prop_assert!(false, "{}", msg);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]

            /// Generated SNAP-style text parses to the oracle's exact
            /// result at every buffer capacity and timestamp column.
            #[test]
            fn scanner_matches_oracle_on_generated_text(
                lines in proptest::collection::vec(
                    ((0usize..1000, 0usize..1000), (0usize..1000, 0usize..1000), (0usize..1000, 0usize..1000)),
                    0..12,
                ),
                shape in (0usize..2, 0usize..2, 0usize..5),
            ) {
                let (crlf, final_newline, ts_col) = shape;
                let mut bytes = render(&lines, crlf == 1);
                if final_newline == 1 {
                    bytes.push(b'\n');
                }
                if let Err(msg) = check(&bytes, ts_col) {
                    prop_assert!(false, "{}", msg);
                }
            }

            /// Mostly-valid files: lines whose pieces are drawn only
            /// from the parseable head of each table, so the comparison
            /// runs deep into the file before any error.
            #[test]
            fn scanner_matches_oracle_on_valid_text(
                lines in proptest::collection::vec(
                    ((0usize..8, 0usize..8), (0usize..8, 0usize..8), (0usize..8, 1usize..4)),
                    0..40,
                ),
                ts_col in 0usize..3,
            ) {
                let bytes = render(&lines, false);
                if let Err(msg) = check(&bytes, ts_col) {
                    prop_assert!(false, "{}", msg);
                }
            }
        }
    }

    mod fuzz {
        use super::*;
        use crate::builder::GraphBuilder;
        use crate::util::FxHashMap;
        use proptest::prelude::*;

        /// [`graph_from_raw`] as it was written before
        /// [`chronological_edges`] was factored out of it: ids interned
        /// in first-seen order, self-loops pushed as `0 → 0` for the
        /// builder to drop, then [`GraphBuilder::build`]'s stable sort.
        fn graph_by_builder(raw: &[(u64, u64, Timestamp)]) -> TemporalGraph {
            let mut b = GraphBuilder::with_capacity(raw.len());
            let mut remap: FxHashMap<u64, NodeId> = FxHashMap::default();
            for &(s, d, t) in raw {
                if s == d {
                    b.add_edge(0, 0, t);
                    continue;
                }
                let next = remap.len() as NodeId;
                let s = *remap.entry(s).or_insert(next);
                let next = remap.len() as NodeId;
                let d = *remap.entry(d).or_insert(next);
                b.add_edge(s, d, t);
            }
            b.build()
        }

        proptest! {
            /// The parser never panics on arbitrary input — it either
            /// yields edges or a structured error.
            #[test]
            fn reader_never_panics(text in "\\PC*") {
                let _ = read_edges(Cursor::new(text.as_str()), &LoadOptions::default());
            }

            /// The edge list the out-of-core route counts builds the very
            /// graph [`graph_from_raw`] does: same content fingerprint,
            /// same node rank, same node count. The rows are out of time
            /// order, tie on few timestamps, hold self-loops, and spread
            /// their ids over the whole 64-bit range.
            #[test]
            fn chronological_edges_rebuild_graph_from_raw(
                rows in proptest::collection::vec((0u64..16, 0u64..16, -5i64..12), 0..90),
                spread in 1u64..u64::MAX / 16,
            ) {
                let raw: Vec<(u64, u64, Timestamp)> = rows
                    .iter()
                    .map(|&(s, d, t)| (s * spread, d * spread, t))
                    .collect();
                let want = graph_by_builder(&raw);
                let (num_nodes, edges) = chronological_edges(raw.clone());
                prop_assert!(edges.windows(2).all(|w| w[0].t <= w[1].t));
                let got = TemporalGraph::from_chronological_edges(num_nodes, edges.clone());
                let public = graph_from_raw(raw, &LoadOptions::default());
                for g in [&got, &public] {
                    prop_assert_eq!(g.num_nodes(), want.num_nodes());
                    prop_assert_eq!(g.edges(), want.edges());
                    prop_assert_eq!(g.fingerprint(), want.fingerprint());
                    prop_assert_eq!(g.node_rank(), want.node_rank());
                }
                prop_assert_eq!(&edges[..], want.edges());
            }

            /// Arbitrary well-formed triples survive a full round trip
            /// (parse → build → write → parse → build) with identical
            /// graph shape.
            #[test]
            fn roundtrip_preserves_graph(
                rows in proptest::collection::vec((0u64..50, 0u64..50, -1000i64..1000), 0..60)
            ) {
                let text: String = rows
                    .iter()
                    .map(|(s, d, t)| format!("{s} {d} {t}\n"))
                    .collect();
                let raw = read_edges(Cursor::new(text.as_str()), &LoadOptions::default()).unwrap();
                let g1 = graph_from_raw(raw, &LoadOptions::default());
                let mut buf = Vec::new();
                write_edges(&g1, &mut buf).unwrap();
                let raw2 = read_edges(Cursor::new(std::str::from_utf8(&buf).unwrap()), &LoadOptions::default()).unwrap();
                let g2 = graph_from_raw(raw2, &LoadOptions::default());
                prop_assert_eq!(g1.num_edges(), g2.num_edges());
                prop_assert_eq!(g1.num_nodes(), g2.num_nodes());
                let t1: Vec<_> = g1.edges().iter().map(|e| e.t).collect();
                let t2: Vec<_> = g2.edges().iter().map(|e| e.t).collect();
                prop_assert_eq!(t1, t2);
            }
        }
    }
}
