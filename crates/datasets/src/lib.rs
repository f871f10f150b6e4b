//! # hare-datasets
//!
//! Registry of the sixteen real-world temporal networks of the paper's
//! Table II, each backed by a **calibrated synthetic generator**
//! (the repository ships no copy of the real files; the generators
//! match the workload properties that drive
//! every algorithm's cost — |E|, degree skew, δ-window density, pair
//! multiplicity and wedge closure — at the paper's node/edge/time-span
//! scale).
//!
//! Large datasets are generated at a reduced scale by default so the full
//! benchmark suite fits a laptop-class machine; the scale factor is part
//! of the spec and is reported by every experiment binary. Passing
//! `scale = 1` reproduces the paper's full |E| (given enough RAM/time).
//!
//! If you have the real SNAP/NetworkRepository files, load them with
//! [`temporal_graph::io::load_graph`] instead — every harness in
//! `hare-bench` accepts either source.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use temporal_graph::gen::GenConfig;
use temporal_graph::{TemporalGraph, Timestamp};

/// Workload family, controlling the generator's shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Person-to-person messaging (email, SMS, wall posts): strong
    /// reciprocity, bursty conversations.
    Messaging,
    /// Web-of-trust / transaction networks: low reciprocity, mild skew.
    Transaction,
    /// Q&A forums: moderate skew, reply bursts.
    Forum,
    /// Talk/edit networks: extreme hub skew (Fig. 9's WikiTalk shape).
    TalkPages,
    /// User-to-item interactions (ratings, clicks, MOOC actions): no
    /// reciprocity, strong item popularity skew.
    Interaction,
}

impl Family {
    fn shape(self) -> (f64, f64, f64, f64, f64) {
        // (zipf_exponent, mean_burst_len, reciprocate_prob,
        //  triangle_prob, time_cluster_prob)
        // A higher Zipf exponent concentrates more traffic on the top
        // ranks (heavier hubs); TalkPages is calibrated to the extreme
        // skew of Fig. 9 (top node carries a few percent of all edges).
        // time_cluster_prob controls how strongly activity bunches in
        // time, which drives the δ-window motif densities of Fig. 10.
        match self {
            Family::Messaging => (0.80, 1.6, 0.40, 0.20, 0.92),
            Family::Transaction => (0.75, 1.2, 0.10, 0.10, 0.75),
            Family::Forum => (0.85, 1.4, 0.30, 0.15, 0.88),
            Family::TalkPages => (1.05, 1.3, 0.15, 0.10, 0.85),
            Family::Interaction => (0.95, 1.2, 0.02, 0.05, 0.80),
        }
    }
}

/// Specification of one Table II dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// `|V|` reported in Table II.
    pub paper_nodes: usize,
    /// `|E|` reported in Table II.
    pub paper_edges: usize,
    /// Time span in days reported in Table II.
    pub paper_span_days: f64,
    /// Workload family → generator shape.
    pub family: Family,
    /// Deterministic seed (distinct per dataset).
    pub seed: u64,
}

impl DatasetSpec {
    /// Scale factor needed to keep the generated graph at or below
    /// `max_edges` (1 = full size).
    #[must_use]
    pub fn scale_for(&self, max_edges: usize) -> usize {
        self.paper_edges.div_ceil(max_edges).max(1)
    }

    /// Generator configuration at `1/scale` of the paper's size. Node and
    /// edge counts shrink together (mean degree preserved) and the time
    /// span is kept, so the δ-window density matches the full dataset.
    #[must_use]
    pub fn gen_config(&self, scale: usize) -> GenConfig {
        assert!(scale >= 1, "scale must be >= 1");
        let (zipf, burst, recip, tri, cluster) = self.family.shape();
        let edges = (self.paper_edges / scale).max(100);
        let nodes = (self.paper_nodes / scale).clamp(10, edges.max(10));
        GenConfig {
            nodes,
            edges,
            time_span: (self.paper_span_days * 86_400.0) as Timestamp,
            zipf_exponent: zipf,
            mean_burst_len: burst,
            reciprocate_prob: recip,
            burst_gap: 150,
            triangle_prob: tri,
            time_cluster_prob: cluster,
            seed: self.seed,
        }
    }

    /// Generate the stand-in graph at the given scale.
    #[must_use]
    pub fn generate(&self, scale: usize) -> TemporalGraph {
        self.gen_config(scale).generate()
    }
}

/// All sixteen datasets of Table II, in the paper's order.
#[must_use]
pub fn all() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "Email-Eu",
            paper_nodes: 986,
            paper_edges: 332_334,
            paper_span_days: 803.0,
            family: Family::Messaging,
            seed: 0xD5_01,
        },
        DatasetSpec {
            name: "CollegeMsg",
            paper_nodes: 1_899,
            paper_edges: 20_296,
            paper_span_days: 193.0,
            family: Family::Messaging,
            seed: 0xD5_02,
        },
        DatasetSpec {
            name: "Bitcoinotc",
            paper_nodes: 5_881,
            paper_edges: 35_592,
            paper_span_days: 1_903.0,
            family: Family::Transaction,
            seed: 0xD5_03,
        },
        DatasetSpec {
            name: "Bitcoinalpha",
            paper_nodes: 3_783,
            paper_edges: 24_186,
            paper_span_days: 1_901.0,
            family: Family::Transaction,
            seed: 0xD5_04,
        },
        DatasetSpec {
            name: "Act-mooc",
            paper_nodes: 7_143,
            paper_edges: 411_749,
            paper_span_days: 29.0,
            family: Family::Interaction,
            seed: 0xD5_05,
        },
        DatasetSpec {
            name: "SMS-A",
            paper_nodes: 44_090,
            paper_edges: 544_817,
            paper_span_days: 338.0,
            family: Family::Messaging,
            seed: 0xD5_06,
        },
        DatasetSpec {
            name: "FBWall",
            paper_nodes: 45_813,
            paper_edges: 855_542,
            paper_span_days: 1_591.0,
            family: Family::Messaging,
            seed: 0xD5_07,
        },
        DatasetSpec {
            name: "MathOverflow",
            paper_nodes: 24_818,
            paper_edges: 506_550,
            paper_span_days: 2_350.0,
            family: Family::Forum,
            seed: 0xD5_08,
        },
        DatasetSpec {
            name: "AskUbuntu",
            paper_nodes: 159_316,
            paper_edges: 964_437,
            paper_span_days: 2_613.0,
            family: Family::Forum,
            seed: 0xD5_09,
        },
        DatasetSpec {
            name: "SuperUser",
            paper_nodes: 194_085,
            paper_edges: 1_443_339,
            paper_span_days: 2_773.0,
            family: Family::Forum,
            seed: 0xD5_0A,
        },
        DatasetSpec {
            name: "Rec-MovieLens",
            paper_nodes: 283_228,
            paper_edges: 27_753_444,
            paper_span_days: 1_128.0,
            family: Family::Interaction,
            seed: 0xD5_0B,
        },
        DatasetSpec {
            name: "WikiTalk",
            paper_nodes: 1_140_149,
            paper_edges: 7_833_140,
            paper_span_days: 2_320.0,
            family: Family::TalkPages,
            seed: 0xD5_0C,
        },
        DatasetSpec {
            name: "StackOverflow",
            paper_nodes: 2_601_977,
            paper_edges: 63_497_050,
            paper_span_days: 2_774.0,
            family: Family::Forum,
            seed: 0xD5_0D,
        },
        DatasetSpec {
            name: "IA-online-ads",
            paper_nodes: 15_336_555,
            paper_edges: 15_995_634,
            paper_span_days: 2_461.0,
            family: Family::Interaction,
            seed: 0xD5_0E,
        },
        DatasetSpec {
            name: "Soc-bitcoin",
            paper_nodes: 24_575_382,
            paper_edges: 122_948_162,
            paper_span_days: 2_584.0,
            family: Family::Transaction,
            seed: 0xD5_0F,
        },
        DatasetSpec {
            name: "RedditComments",
            paper_nodes: 8_036_164,
            paper_edges: 613_289_746,
            paper_span_days: 3_686.0,
            family: Family::Messaging,
            seed: 0xD5_10,
        },
    ]
}

/// Look a dataset up by (case-insensitive) name.
#[must_use]
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    all()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

/// The subset used in the paper's per-figure panels: the twelve datasets
/// of Fig. 11 (everything except the four largest).
#[must_use]
pub fn fig11_set() -> Vec<DatasetSpec> {
    let names = [
        "StackOverflow",
        "WikiTalk",
        "MathOverflow",
        "SuperUser",
        "FBWall",
        "AskUbuntu",
        "SMS-A",
        "Act-mooc",
        "IA-online-ads",
        "Rec-MovieLens",
        "Soc-bitcoin",
        "RedditComments",
    ];
    names.iter().map(|n| by_name(n).unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_graph::stats::GraphStats;

    #[test]
    fn registry_has_sixteen_datasets_with_unique_names_and_seeds() {
        let specs = all();
        assert_eq!(specs.len(), 16);
        let names: std::collections::HashSet<_> = specs.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 16);
        let seeds: std::collections::HashSet<_> = specs.iter().map(|d| d.seed).collect();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("wikitalk").is_some());
        assert!(by_name("WIKITALK").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn scale_for_caps_edges() {
        let d = by_name("RedditComments").unwrap();
        let s = d.scale_for(1_000_000);
        assert!(d.paper_edges / s <= 1_000_000);
        assert_eq!(by_name("CollegeMsg").unwrap().scale_for(1_000_000), 1);
    }

    #[test]
    fn generated_graph_matches_scaled_spec() {
        let d = by_name("CollegeMsg").unwrap();
        let g = d.generate(1);
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.num_edges, d.paper_edges);
        assert!(stats.num_nodes <= d.paper_nodes);
        // Span should be within the configured budget.
        assert!(stats.time_span <= (d.paper_span_days * 86_400.0) as i64);
    }

    #[test]
    fn scaling_preserves_mean_degree_roughly() {
        let d = by_name("SuperUser").unwrap();
        let g1 = d.generate(20);
        let g2 = d.generate(40);
        let m1 = GraphStats::compute(&g1).mean_degree;
        let m2 = GraphStats::compute(&g2).mean_degree;
        assert!(
            (m1 - m2).abs() / m1 < 0.35,
            "mean degree drifted: {m1} vs {m2}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let d = by_name("Bitcoinotc").unwrap();
        let a = d.generate(4);
        let b = d.generate(4);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn talkpages_family_is_most_skewed() {
        // Compare the two families at identical size so only the shape
        // parameters differ: the hub's share of edges must be clearly
        // larger for TalkPages.
        let top_share = |family: Family| {
            let cfg = GenConfig {
                nodes: 4_000,
                edges: 30_000,
                time_span: 10_000_000,
                seed: 77,
                zipf_exponent: family.shape().0,
                ..GenConfig::default()
            };
            let g = cfg.generate();
            let s = GraphStats::compute(&g);
            s.max_degree as f64 / (2.0 * s.num_edges as f64)
        };
        assert!(top_share(Family::TalkPages) > 1.5 * top_share(Family::Forum));
    }

    #[test]
    fn fig11_set_has_twelve() {
        assert_eq!(fig11_set().len(), 12);
    }
}
