//! Loading and saving temporal graphs in the SNAP-style text format.
//!
//! The paper's 16 datasets ship as plain text, one edge per line:
//! `src dst timestamp`, whitespace- or comma-separated, with optional
//! comment lines. This module parses that shape tolerantly (extra trailing
//! columns ignored — e.g. the Bitcoin trust datasets carry a rating column
//! between the endpoints and the timestamp, selectable via
//! [`LoadOptions::timestamp_column`]). External node ids are remapped to
//! a dense `0..n` in order of first appearance by [`graph_from_raw`].
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
//! The reader scans `fill_buf` blocks in place: lines made only of ASCII
//! bytes are split and their digits accumulated without allocating, and
//! only a line that straddles two blocks is copied (into one reused
//! buffer), so besides its output the reader holds one block plus one
//! line whatever the input size. A line holding any non-ASCII byte, and a line that fails,
//! takes a `str` path that validates UTF-8 and splits on
//! `char::is_whitespace` and `,`.

use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::path::Path;

use crate::graph::TemporalGraph;
use crate::types::{NodeId, TemporalEdge, Timestamp};
use crate::util::FxHashMap;

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
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Parse { .. } => None,
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

/// Up to 19 digits at `buf[*i..]`, which cannot overflow a `u64`;
/// `None` for no digits or more than 19 (the `str` path takes those).
/// Leaves `*i` on the first byte after the run.
#[inline]
fn scan_digits(buf: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    let mut v: u64 = 0;
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

/// Parse the line at the start of `buf` into `out`, counting it in
/// `lineno`. Returns the line's length including its `\n`, or `None`
/// (and counts nothing) when `buf` ends before the `\n`, which cannot
/// happen when `buf` ends in one.
#[inline]
fn take_line(
    buf: &[u8],
    lineno: &mut usize,
    opts: &LoadOptions,
    out: &mut Vec<RawEdge>,
) -> Result<Option<usize>, LoadError> {
    let len = match scan_line(buf, opts.timestamp_column) {
        Scan::Edge(e, len) => {
            out.push(e);
            len
        }
        Scan::Skip(len) => len,
        Scan::Incomplete => return Ok(None),
        Scan::Slow => {
            let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            out.extend(parse_text_line(&buf[..nl], *lineno + 1, opts)?);
            nl + 1
        }
    };
    *lineno += 1;
    Ok(Some(len))
}

/// Parse edges from any reader, in file order. See the module docs for
/// the grammar and [`load_edges`] for the file-path wrapper.
pub fn read_edges<R: BufRead>(
    mut reader: R,
    opts: &LoadOptions,
) -> Result<Vec<(u64, u64, Timestamp)>, LoadError> {
    let mut out = Vec::new();
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
                    take_line(&carry, &mut lineno, opts, &mut out)?;
                    carry.clear();
                    pos = nl + 1;
                }
                None => carry.extend_from_slice(block),
            }
        }
        while carry.is_empty() && pos < block.len() {
            match take_line(&block[pos..], &mut lineno, opts, &mut out)? {
                Some(len) => pos += len,
                None => carry.extend_from_slice(&block[pos..]),
            }
        }
        let n = block.len();
        reader.consume(n);
    }
    if !carry.is_empty() {
        carry.push(b'\n');
        take_line(&carry, &mut lineno, opts, &mut out)?;
    }
    Ok(out)
}

/// Load raw `(src, dst, t)` triples from a text file.
pub fn load_edges(
    path: impl AsRef<Path>,
    opts: &LoadOptions,
) -> Result<Vec<(u64, u64, Timestamp)>, LoadError> {
    let file = std::fs::File::open(path)?;
    read_edges(BufReader::new(file), opts)
}

/// Load a [`TemporalGraph`] from a text file (see [`graph_from_raw`]
/// for the id remap).
pub fn load_graph(path: impl AsRef<Path>, opts: &LoadOptions) -> Result<TemporalGraph, LoadError> {
    let raw = load_edges(path, opts)?;
    Ok(graph_from_raw(raw, opts))
}

/// Build a graph from raw 64-bit-id triples (the in-memory equivalent of
/// [`load_graph`]): the graph over [`chronological_edges`]. No field of
/// `_opts` affects the build: it is taken so that callers pass the
/// options they parsed with.
#[must_use]
pub fn graph_from_raw(raw: Vec<(u64, u64, Timestamp)>, _opts: &LoadOptions) -> TemporalGraph {
    let (num_nodes, edges) = chronological_edges(raw);
    TemporalGraph::from_sorted_edges(num_nodes, edges)
}

/// The chronological edge list of [`graph_from_raw`]'s graph, and its
/// node count. External ids are remapped to a dense `0..n` in order of
/// first appearance; self-loops are dropped without taking an id (so
/// `num_nodes` is stable across save/load round trips); edges are
/// stably sorted by timestamp, so input order breaks ties. Counting
/// straight from this list (see `hare::InMemorySource::new`) needs no
/// graph build at all.
#[must_use]
pub fn chronological_edges(raw: Vec<(u64, u64, Timestamp)>) -> (usize, Vec<TemporalEdge>) {
    let mut edges = Vec::with_capacity(raw.len());
    let mut remap: FxHashMap<u64, NodeId> = FxHashMap::default();
    let intern = |x: u64, remap: &mut FxHashMap<u64, NodeId>| -> NodeId {
        let next = remap.len() as NodeId;
        *remap.entry(x).or_insert(next)
    };
    for (s, d, t) in raw {
        if s == d {
            continue;
        }
        let s = intern(s, &mut remap);
        let d = intern(d, &mut remap);
        edges.push(TemporalEdge::new(s, d, t));
    }
    edges.sort_by_key(|e| e.t); // stable: input order breaks ties
    (remap.len(), edges)
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
