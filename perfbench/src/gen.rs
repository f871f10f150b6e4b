//! Seeded inputs. Every graph comes from the repository's calibrated
//! dataset generators (`hare_datasets`, Table II shapes) with the
//! generator seed taken from `--seed`, so the same seed always yields
//! the same bytes.
//!
//! * WikiTalk (TalkPages family): extreme hub skew.
//! * Email-Eu (Messaging family): few nodes, dense δ-windows.
//! * CollegeMsg (Messaging family): the small graph of cold reads and
//!   the session ingest stream.

use temporal_graph::io::write_edges;
use temporal_graph::TemporalGraph;

/// The Table II stand-in `name` at `1/scale` of its size, generated
/// from `seed` instead of the registry's fixed seed.
pub fn dataset(name: &str, scale: usize, seed: u64) -> TemporalGraph {
    let spec = hare_datasets::by_name(name).expect("a registered dataset name");
    let mut cfg = spec.gen_config(scale);
    cfg.seed = spec.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    cfg.generate()
}

/// SNAP text of `g`, `src dst t` per line, as `io::save_graph` writes it.
pub fn snap_text(g: &TemporalGraph) -> String {
    let mut out = Vec::with_capacity(g.num_edges() * 24);
    write_edges(g, &mut out).expect("writing to memory");
    String::from_utf8(out).expect("ASCII edge list")
}

/// A session ingest stream of unbounded length: the edges of a
/// generated CollegeMsg graph with timestamps remapped to be strictly
/// increasing (so arrival order never decides tie order), repeated end
/// to end with each copy shifted past the previous one. Batches are cut
/// from it on demand, so a long run stores no edge lists.
pub struct SessionStream {
    base: Vec<(u32, u32, i64)>,
    period: i64,
}

/// Edges per session push.
pub const PUSH_BATCH: usize = 32;

impl SessionStream {
    pub fn new(seed: u64) -> SessionStream {
        let g = dataset("CollegeMsg", 1, seed);
        let mut t = 0;
        let base: Vec<(u32, u32, i64)> = g
            .edges()
            .iter()
            .map(|e| {
                t = e.t.max(t + 1);
                (e.src, e.dst, t)
            })
            .collect();
        let period = t + 1;
        SessionStream { base, period }
    }

    /// Push batch number `b`.
    pub fn batch(&self, b: usize) -> Vec<(u32, u32, i64)> {
        (b * PUSH_BATCH..(b + 1) * PUSH_BATCH)
            .map(|k| {
                let (s, d, t) = self.base[k % self.base.len()];
                (s, d, t + (k / self.base.len()) as i64 * self.period)
            })
            .collect()
    }
}
