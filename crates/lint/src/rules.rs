//! The rule families and their scanners.
//!
//! Four families, lettered as in `docs/LINTS.md`:
//!
//! * **D — determinism**: counting/estimation modules must not depend on
//!   hash-map iteration order (std `HashMap`/`HashSet` are banned
//!   outright — `RandomState` reorders per process — and *iterating*
//!   any hash map, Fx included, is flagged), nor read wall clocks.
//! * **A — hot-path allocation**: modules opted in with a
//!   `//! hare-lint: no-alloc` header must not allocate outside
//!   `#[cfg(test)]` regions or explicitly `allow`ed lines.
//! * **P — panic-safety**: request-path modules of `hare-serve` must
//!   not `unwrap`/`expect`/`panic!` (a panicking handler costs a
//!   request; a poisoned lock must be recovered, not re-thrown) nor
//!   index slices with bare integer literals.
//! * **U — unsafe hygiene**: every `unsafe` must carry a nearby
//!   `// SAFETY:` comment.
//!
//! Escape hatch: `// hare-lint: allow(<tag>, reason = "...")` on the
//! offending line or the line above; the reason is mandatory. Malformed
//! directives are themselves findings (`lint-directive`).

use crate::lexer::{lex, Lexed};

/// Which rule family (and sub-rule) produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleKind {
    /// D: std `HashMap`/`HashSet` (random iteration order) in a
    /// determinism-scoped module.
    DStdHash,
    /// D: iterating a hash map / hash set in a determinism-scoped module.
    DMapIter,
    /// D: wall-clock reads in a determinism-scoped module.
    DWallClock,
    /// A: allocation in a `no-alloc` module.
    AAlloc,
    /// P: panicking call in a request-path module.
    PPanic,
    /// P: bare integer-literal slice index in a request-path module.
    PIndex,
    /// U: `unsafe` without a `// SAFETY:` comment.
    UUnsafe,
    /// A malformed `hare-lint:` directive.
    BadDirective,
}

impl RuleKind {
    /// Stable machine-readable code (used in text and JSON output).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            RuleKind::DStdHash => "D-std-hash",
            RuleKind::DMapIter => "D-map-iter",
            RuleKind::DWallClock => "D-wall-clock",
            RuleKind::AAlloc => "A-alloc",
            RuleKind::PPanic => "P-panic",
            RuleKind::PIndex => "P-index",
            RuleKind::UUnsafe => "U-unsafe-comment",
            RuleKind::BadDirective => "lint-directive",
        }
    }

    /// The `allow(...)` tag that suppresses this rule (`None` for
    /// directive errors, which cannot be allowed away).
    #[must_use]
    pub fn allow_tag(self) -> Option<&'static str> {
        match self {
            RuleKind::DStdHash => Some("std-hash"),
            RuleKind::DMapIter => Some("map-iter"),
            RuleKind::DWallClock => Some("wall-clock"),
            RuleKind::AAlloc => Some("alloc"),
            RuleKind::PPanic => Some("panic"),
            RuleKind::PIndex => Some("index"),
            RuleKind::UUnsafe => Some("unsafe"),
            RuleKind::BadDirective => None,
        }
    }

    /// Every allow tag the directive parser accepts.
    pub const ALLOW_TAGS: [&'static str; 7] = [
        "std-hash",
        "map-iter",
        "wall-clock",
        "alloc",
        "panic",
        "index",
        "unsafe",
    ];
}

/// One finding: a rule violation at a file:line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub kind: RuleKind,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
}

/// Which rule families apply to a file (derived from its path, plus the
/// `no-alloc`/`timing` module headers found during the scan).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScopeSet {
    /// D rules apply.
    pub determinism: bool,
    /// P rules apply.
    pub panic_safety: bool,
    /// Treat the module as `no-alloc` even without the header (fixture
    /// and self-test mode).
    pub force_no_alloc: bool,
}

/// Parsed `hare-lint:` directives of one file.
struct Directives {
    no_alloc: bool,
    timing: bool,
    /// `(line, tag)` pairs; an allow covers its own line and the next.
    allows: Vec<(usize, String)>,
    /// Malformed directives: `(line, message)`.
    bad: Vec<(usize, String)>,
}

/// If a comment line is a directive, return the text after
/// `hare-lint:`. The directive must be the line's whole content (after
/// the comment sigil) — prose *mentioning* `hare-lint:` mid-sentence,
/// like this linter's own docs, is not a directive.
fn directive_text(comment_line: &str) -> Option<&str> {
    let t = comment_line.trim_start();
    let t = t
        .strip_prefix("//!")
        .or_else(|| t.strip_prefix("///"))
        .or_else(|| t.strip_prefix("//"))
        .or_else(|| t.strip_prefix("/*!"))
        .or_else(|| t.strip_prefix("/**"))
        .or_else(|| t.strip_prefix("/*"))
        .unwrap_or(t);
    // Block-comment continuation stars.
    let t = t.trim_start().trim_start_matches('*').trim_start();
    t.strip_prefix("hare-lint:").map(str::trim)
}

fn parse_directives(lx: &Lexed) -> Directives {
    let mut d = Directives {
        no_alloc: false,
        timing: false,
        allows: Vec::new(),
        bad: Vec::new(),
    };
    for c in &lx.comments {
        for (line_off, text) in c.text.lines().enumerate() {
            let Some(rest) = directive_text(text) else {
                continue;
            };
            let line = c.line + line_off;
            if let Some(args) = rest.strip_prefix("allow(") {
                match parse_allow(args) {
                    Ok(tag) => d.allows.push((line, tag)),
                    Err(msg) => d.bad.push((line, msg)),
                }
            } else if rest.starts_with("no-alloc") {
                if c.inner_doc {
                    d.no_alloc = true;
                } else {
                    d.bad.push((
                        line,
                        "`hare-lint: no-alloc` must be a `//!` module header".into(),
                    ));
                }
            } else if rest.starts_with("timing") {
                if c.inner_doc {
                    d.timing = true;
                } else {
                    d.bad.push((
                        line,
                        "`hare-lint: timing` must be a `//!` module header".into(),
                    ));
                }
            } else {
                d.bad.push((
                    line,
                    format!(
                        "unknown hare-lint directive {:?}; expected no-alloc, timing, \
                         or allow(<tag>, reason = \"...\")",
                        rest.split_whitespace().next().unwrap_or("")
                    ),
                ));
            }
        }
    }
    d
}

/// Parse the inside of `allow(<tag>, reason = "...")`; returns the tag.
fn parse_allow(args: &str) -> Result<String, String> {
    let Some((tag, rest)) = args.split_once(',') else {
        return Err("allow(...) needs a reason: allow(<tag>, reason = \"...\")".into());
    };
    let tag = tag.trim().to_string();
    if !RuleKind::ALLOW_TAGS.contains(&tag.as_str()) {
        return Err(format!(
            "unknown allow tag {tag:?}; known: {}",
            RuleKind::ALLOW_TAGS.join(", ")
        ));
    }
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("reason") else {
        return Err("allow(...) needs `reason = \"...\"` after the tag".into());
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('=') else {
        return Err("allow(...) needs `reason = \"...\"` after the tag".into());
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('"') else {
        return Err("allow(...) reason must be a quoted string".into());
    };
    let Some(end) = rest.find('"') else {
        return Err("allow(...) reason string is unterminated".into());
    };
    if rest[..end].trim().is_empty() {
        return Err("allow(...) reason must not be empty".into());
    }
    Ok(tag)
}

/// Lint one file's source. `rel` is the repo-relative path used in
/// findings; `scopes` selects the path-dependent rule families.
#[must_use]
pub fn lint_source(rel: &str, src: &str, scopes: ScopeSet) -> Vec<Finding> {
    let lx = lex(src);
    let directives = parse_directives(&lx);
    let raw_lines: Vec<&str> = src.lines().collect();
    let no_alloc = scopes.force_no_alloc || directives.no_alloc;

    let mut out = Vec::new();
    let mut ctx = Ctx {
        rel,
        lx: &lx,
        raw_lines: &raw_lines,
        directives: &directives,
        out: &mut out,
    };

    for (line, msg) in &directives.bad {
        ctx.push_raw(RuleKind::BadDirective, *line, msg.clone());
    }
    if scopes.determinism {
        scan_std_hash(&mut ctx);
        scan_map_iteration(&mut ctx);
        if !directives.timing {
            scan_wall_clock(&mut ctx);
        }
    }
    if no_alloc {
        scan_allocations(&mut ctx);
    }
    if scopes.panic_safety {
        scan_panics(&mut ctx);
        scan_literal_indexing(&mut ctx);
    }
    scan_unsafe(&mut ctx);

    out.sort_by_key(|a| (a.line, a.kind));
    out
}

struct Ctx<'a> {
    rel: &'a str,
    lx: &'a Lexed,
    raw_lines: &'a [&'a str],
    directives: &'a Directives,
    out: &'a mut Vec<Finding>,
}

impl Ctx<'_> {
    fn allowed(&self, kind: RuleKind, line: usize) -> bool {
        let Some(tag) = kind.allow_tag() else {
            return false;
        };
        self.directives
            .allows
            .iter()
            .any(|(l, t)| t == tag && (*l == line || *l + 1 == line))
    }

    /// Push a finding unless the line is in a test region or allowed.
    fn push(&mut self, kind: RuleKind, line: usize, message: String) {
        if self.lx.is_test_line(line) || self.allowed(kind, line) {
            return;
        }
        self.push_raw(kind, line, message);
    }

    /// Push without the test-region filter (U and directive errors).
    fn push_raw(&mut self, kind: RuleKind, line: usize, message: String) {
        let snippet = self
            .raw_lines
            .get(line.saturating_sub(1))
            .map_or(String::new(), |l| l.trim().to_string());
        self.out.push(Finding {
            kind,
            path: self.rel.to_string(),
            line,
            message,
            snippet,
        });
    }

    /// Masked text of 1-based `line`.
    fn masked_line(&self, line: usize) -> &str {
        let start = self.lx.line_starts[line - 1];
        let end = self
            .lx
            .line_starts
            .get(line)
            .map_or(self.lx.masked.len(), |e| e - 1);
        &self.lx.masked[start..end.max(start)]
    }

    fn num_lines(&self) -> usize {
        self.lx.line_starts.len()
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of every occurrence of `needle` in `hay`.
fn occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut v = Vec::new();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        v.push(from + rel);
        from += rel + needle.len().max(1);
    }
    v
}

// ---------------------------------------------------------------- D --

fn scan_std_hash(ctx: &mut Ctx<'_>) {
    for line in 1..=ctx.num_lines() {
        let text = ctx.masked_line(line);
        let std_path = text.contains("std::collections::")
            && (text.contains("HashMap") || text.contains("HashSet"));
        let bare_ctor = ["HashMap::new(", "HashSet::new(", "HashMap::with_capacity("]
            .iter()
            .any(|t| text.contains(t));
        if std_path || bare_ctor {
            ctx.push(
                RuleKind::DStdHash,
                line,
                "std HashMap/HashSet iterates in RandomState order (differs per process); \
                 use temporal_graph::util::FxHashMap or a sorted structure"
                    .to_string(),
            );
        }
    }
}

fn scan_wall_clock(ctx: &mut Ctx<'_>) {
    for line in 1..=ctx.num_lines() {
        let text = ctx.masked_line(line);
        for token in ["Instant::now(", "SystemTime::now(", "UNIX_EPOCH"] {
            if text.contains(token) {
                ctx.push(
                    RuleKind::DWallClock,
                    line,
                    format!(
                        "wall-clock read ({}) in a determinism-scoped module; tag the \
                         module `//! hare-lint: timing` if it is timing infrastructure",
                        token.trim_end_matches('(')
                    ),
                );
                break;
            }
        }
    }
}

const MAP_ITER_METHODS: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// A `let` binding (or a struct field) whose declared type or
/// initialiser lexically mentions a hash map/set.
struct Decl {
    offset: usize,
    name: String,
    is_map: bool,
}

fn scan_map_iteration(ctx: &mut Ctx<'_>) {
    let masked = ctx.lx.masked.as_str();
    let decls = collect_let_decls(masked);
    let map_fields = collect_map_fields(masked);

    let mut hits: Vec<(usize, String)> = Vec::new(); // (offset, receiver)
    for method in MAP_ITER_METHODS {
        for at in occurrences(masked, method) {
            let Some(path) = receiver_path(masked.as_bytes(), at) else {
                continue;
            };
            if receiver_is_map(&path, at, &decls, &map_fields) {
                hits.push((at, path.join(".")));
            }
        }
    }
    // `for x in &map` / `for x in map` loops.
    for at in word_occurrences(masked, "for") {
        let Some(hit) = for_loop_map_receiver(masked, at, &decls, &map_fields) else {
            continue;
        };
        hits.push((at, hit));
    }

    hits.sort();
    hits.dedup();
    for (at, receiver) in hits {
        let line = ctx.lx.line_of(at);
        ctx.push(
            RuleKind::DMapIter,
            line,
            format!(
                "iterating hash map/set `{receiver}` — iteration order is not part of \
                 the determinism contract; sort the keys first or use a vector"
            ),
        );
    }
}

fn collect_let_decls(masked: &str) -> Vec<Decl> {
    let bytes = masked.as_bytes();
    let mut decls = Vec::new();
    for at in word_occurrences(masked, "let") {
        let mut j = at + 3;
        while bytes.get(j).is_some_and(u8::is_ascii_whitespace) {
            j += 1;
        }
        if masked[j..].starts_with("mut") && bytes.get(j + 3).is_some_and(u8::is_ascii_whitespace) {
            j += 4;
            while bytes.get(j).is_some_and(u8::is_ascii_whitespace) {
                j += 1;
            }
        }
        let start = j;
        while bytes.get(j).copied().is_some_and(is_ident) {
            j += 1;
        }
        if j == start {
            continue; // destructuring pattern, not a simple binding
        }
        let name = masked[start..j].to_string();
        // Classify by the rest of the statement (bounded scan).
        let end = masked[j..]
            .find(';')
            .map_or(masked.len(), |e| j + e)
            .min(j + 400);
        let tail = &masked[j..end];
        let is_map = tail.contains("HashMap") || tail.contains("HashSet");
        decls.push(Decl {
            offset: at,
            name,
            is_map,
        });
    }
    decls
}

fn collect_map_fields(masked: &str) -> Vec<String> {
    let mut fields = Vec::new();
    for line in masked.lines() {
        let t = line.trim();
        if !(t.contains("HashMap<") || t.contains("HashSet<")) {
            continue;
        }
        let t = t
            .strip_prefix("pub(crate) ")
            .or_else(|| t.strip_prefix("pub(super) "))
            .or_else(|| t.strip_prefix("pub "))
            .unwrap_or(t);
        if ["let ", "use ", "fn ", "type ", "impl ", "for ", "where "]
            .iter()
            .any(|kw| t.starts_with(kw))
        {
            continue;
        }
        let Some((name, _)) = t.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if !name.is_empty() && name.bytes().all(is_ident) {
            fields.push(name.to_string());
        }
    }
    fields
}

/// Walk backwards from the `.` of a method call to extract a simple
/// receiver path (`self.map`, `slot_of`). Chained calls (`f().iter()`)
/// and indexed receivers return `None`.
fn receiver_path(bytes: &[u8], dot: usize) -> Option<Vec<String>> {
    let mut segments = Vec::new();
    let mut j = dot;
    loop {
        while j > 0 && bytes[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        if j == 0 {
            break;
        }
        if !is_ident(bytes[j - 1]) {
            return None; // `)`, `]`, `?` ... not a simple path
        }
        let end = j;
        while j > 0 && is_ident(bytes[j - 1]) {
            j -= 1;
        }
        segments.push(String::from_utf8_lossy(&bytes[j..end]).into_owned());
        while j > 0 && bytes[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        if j > 0 && bytes[j - 1] == b'.' {
            j -= 1;
            continue;
        }
        break;
    }
    if segments.is_empty() {
        return None;
    }
    segments.reverse();
    Some(segments)
}

fn receiver_is_map(path: &[String], at: usize, decls: &[Decl], map_fields: &[String]) -> bool {
    match path {
        [single] => {
            // Nearest preceding `let` of the same name decides (handles
            // shadowing: the same name may be a Vec in one fn and a map
            // in another).
            let decl = decls.iter().rfind(|d| d.name == *single && d.offset < at);
            match decl {
                Some(d) => d.is_map,
                None => map_fields.iter().any(|f| f == single),
            }
        }
        [obj, field] if obj == "self" => map_fields.iter().any(|f| f == field),
        _ => false,
    }
}

/// Occurrences of `word` with identifier boundaries on both sides.
fn word_occurrences(hay: &str, word: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    occurrences(hay, word)
        .into_iter()
        .filter(|&at| {
            let before_ok = at == 0 || !is_ident(bytes[at - 1]);
            let after = at + word.len();
            let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
            before_ok && after_ok
        })
        .collect()
}

/// If the `for` loop starting at `at` iterates a hash map/set receiver,
/// return a display name for it.
fn for_loop_map_receiver(
    masked: &str,
    at: usize,
    decls: &[Decl],
    map_fields: &[String],
) -> Option<String> {
    let window_end = (at + 240).min(masked.len());
    let window = &masked[at..window_end];
    let brace = window.find('{')?;
    let in_at = window[..brace].find(" in ")?;
    let expr = window[in_at + 4..brace].trim();
    let expr = expr
        .strip_prefix("&mut ")
        .or_else(|| expr.strip_prefix('&'))
        .unwrap_or(expr)
        .trim();
    if expr.is_empty() || !expr.bytes().all(|b| is_ident(b) || b == b'.') {
        return None; // calls, slices, ranges: not a bare map path
    }
    let path: Vec<String> = expr.split('.').map(str::to_string).collect();
    if receiver_is_map(&path, at, decls, map_fields) {
        Some(expr.to_string())
    } else {
        None
    }
}

// ---------------------------------------------------------------- A --

const ALLOC_TOKENS: [&str; 15] = [
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    "Box::new(",
    ".collect()",
    ".collect::<",
    "format!(",
    ".to_string()",
    ".to_owned()",
    ".to_vec()",
    "String::new(",
    "String::from(",
    "String::with_capacity(",
    ".resize(",
    ".resize_with(",
];

fn scan_allocations(ctx: &mut Ctx<'_>) {
    for line in 1..=ctx.num_lines() {
        let text = ctx.masked_line(line);
        for token in ALLOC_TOKENS {
            if text.contains(token) {
                ctx.push(
                    RuleKind::AAlloc,
                    line,
                    format!(
                        "`{}` allocates in a `no-alloc` module; hoist it out of the hot \
                         path or annotate `// hare-lint: allow(alloc, reason = \"...\")`",
                        token.trim_end_matches(['(', '<', ':'])
                    ),
                );
                break; // one finding per line
            }
        }
    }
}

// ---------------------------------------------------------------- P --

const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

fn scan_panics(ctx: &mut Ctx<'_>) {
    for line in 1..=ctx.num_lines() {
        let text = ctx.masked_line(line);
        for token in PANIC_TOKENS {
            if text.contains(token) {
                ctx.push(
                    RuleKind::PPanic,
                    line,
                    format!(
                        "`{}` can panic a request worker; return an error response, and \
                         recover poisoned locks with unwrap_or_else(PoisonError::into_inner)",
                        token.trim_end_matches('(').trim_start_matches('.')
                    ),
                );
                break;
            }
        }
    }
}

fn scan_literal_indexing(ctx: &mut Ctx<'_>) {
    let masked = ctx.lx.masked.as_str();
    let bytes = masked.as_bytes();
    for at in occurrences(masked, "[") {
        // Receiver must be an identifier (rules out array types/literals
        // and attributes).
        if at == 0 || !is_ident(bytes[at - 1]) {
            continue;
        }
        let close = masked[at..].find(']').map(|e| at + e);
        let Some(close) = close else { continue };
        let inner = masked[at + 1..close].trim();
        let is_literal_index =
            !inner.is_empty() && inner.bytes().all(|b| b.is_ascii_digit() || b == b'_');
        if !is_literal_index {
            continue; // ranges, variables, string keys: out of scope
        }
        let line = ctx.lx.line_of(at);
        ctx.push(
            RuleKind::PIndex,
            line,
            format!(
                "bare literal index `[{inner}]` panics when out of bounds; \
                 use .get({inner}) and handle None"
            ),
        );
    }
}

// ---------------------------------------------------------------- U --

fn scan_unsafe(ctx: &mut Ctx<'_>) {
    // Lines covered by a SAFETY comment: the comment's own lines plus a
    // short reach below it (attribute lines may sit between). A run of
    // `//` comments on consecutive lines is one logical comment, so a
    // multi-line SAFETY argument covers past its last line, not its
    // first.
    let mut safety_cover: Vec<(usize, usize)> = Vec::new();
    let mut block: Option<(usize, usize, bool)> = None; // (first, last, has_safety)
    for c in &ctx.lx.comments {
        let lines = c.text.lines().count().max(1);
        let last = c.line + lines - 1;
        let has = c.text.contains("SAFETY:");
        match &mut block {
            Some((_, block_last, block_has)) if c.line <= *block_last + 1 => {
                *block_last = last.max(*block_last);
                *block_has |= has;
            }
            _ => {
                if let Some((first, last, true)) = block.take() {
                    safety_cover.push((first, last + 3));
                }
                block = Some((c.line, last, has));
            }
        }
    }
    if let Some((first, last, true)) = block {
        safety_cover.push((first, last + 3));
    }
    for at in word_occurrences(&ctx.lx.masked, "unsafe") {
        let line = ctx.lx.line_of(at);
        let covered = safety_cover
            .iter()
            .any(|&(lo, hi)| line >= lo && line <= hi);
        if covered {
            continue;
        }
        if ctx.allowed(RuleKind::UUnsafe, line) {
            continue;
        }
        // Deliberately NOT test-filtered: unsafe in tests needs a safety
        // argument too.
        ctx.push_raw(
            RuleKind::UUnsafe,
            line,
            "unsafe without a `// SAFETY:` comment explaining why the invariants hold".to_string(),
        );
    }
}
