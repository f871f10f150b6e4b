//! Per-node profile endpoints: `GET /nodes/{id}/motifs` and
//! `GET /nodes/top`.
//!
//! Both serve the `hare::fingerprint` query family through the same
//! handler as `/count` ([`crate::api::plan`]): the body is built by
//! `hare::report`, carries no timing, is cached under
//! [`hare::query::Plan::engine_key`], and is byte-identical to the
//! matching `hare-count --nodes --json --no-timing` output (per-node
//! lines for `/nodes/{id}/motifs`, the single ranking line for
//! `/nodes/top`). This module only maps each route's own parameters
//! onto a [`Plan`].

use hare::query::Plan;
use temporal_graph::NodeId;

use crate::api::{error_response, param, ApiResponse};
use crate::http::Request;

/// `GET /nodes/{id}/motifs?dataset=NAME&delta=SECONDS[&threads=N]` —
/// one node's sparse motif profile. Unknown node ids are 404 (from the
/// plan's execution); a known node with no participation gets its
/// (empty) profile.
pub(crate) fn node_plan(id: &str) -> Result<Plan, Box<ApiResponse>> {
    match id.parse::<NodeId>() {
        Ok(node) => Ok(Plan::Node { node }),
        Err(_) => Err(Box::new(error_response(
            400,
            &format!("node id must be an integer, got {id:?}"),
        ))),
    }
}

/// `GET /nodes/top?dataset=NAME&delta=SECONDS[&motif=M][&k=K][&threads=N]`
/// — the top-k ranking: by one motif's participation when `motif` is
/// given (count descending, node id ascending on ties), otherwise by
/// z-score anomaly against the graph-wide profile distribution.
pub(crate) fn top_plan(req: &Request) -> Result<Plan, Box<ApiResponse>> {
    let k: usize = param(req, "k", Some(10))?;
    match req.query_param("motif") {
        Some(raw) => match raw.parse() {
            Ok(motif) => Ok(Plan::TopByMotif { motif, k }),
            Err(e) => Err(Box::new(error_response(
                400,
                &format!("parameter 'motif': {e}"),
            ))),
        },
        None => Ok(Plan::TopByZscore { k }),
    }
}

#[cfg(test)]
mod tests {
    use crate::http::client;
    use crate::{Server, ServerConfig, ServerHandle};

    /// A server with the paper's Fig. 1 toy uploaded as dataset "fig1".
    /// Uploads intern ids by first appearance, so the paper's nodes map
    /// to e=0, d=1, a=2, c=3, b=4 — the single M65 pair at δ=10 sits on
    /// nodes 0 (v_e) and 1 (v_d).
    fn fig1_server() -> ServerHandle {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            query_threads: 1,
            ..ServerConfig::default()
        })
        .expect("bind")
        .spawn();
        let edges = "4 3 1\n0 2 4\n4 2 6\n0 2 8\n3 0 9\n3 2 10\n0 1 11\n3 4 14\n0 2 15\n2 3 17\n4 3 18\n3 4 21\n";
        let body = serde_json::json!({"name": "fig1", "edges": edges}).to_string();
        let resp = client::post(server.addr(), "/datasets", &body).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        server
    }

    #[test]
    fn node_motifs_serves_sparse_profile() {
        let server = fig1_server();
        let resp = client::get(server.addr(), "/nodes/1/motifs?dataset=fig1&delta=10").unwrap();
        let body = resp.text();
        assert_eq!(resp.status, 200, "{body}");
        assert!(
            body.starts_with(r#"{"node":1,"delta":10,"total":"#),
            "{body}"
        );
        assert!(body.contains(r#"{"motif":"M65","count":1}"#), "{body}");
        assert!(!body.contains(r#""count":0"#), "{body}");
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn node_motifs_rejects_bad_and_unknown_ids() {
        let server = fig1_server();
        let resp = client::get(server.addr(), "/nodes/abc/motifs?dataset=fig1&delta=10").unwrap();
        assert_eq!(resp.status, 400, "{}", resp.text());
        let resp = client::get(server.addr(), "/nodes/999/motifs?dataset=fig1&delta=10").unwrap();
        assert_eq!(resp.status, 404, "{}", resp.text());
        assert!(resp.text().contains("no such node"), "{}", resp.text());
        let resp = client::get(server.addr(), "/nodes/3/motifs?dataset=nope&delta=10").unwrap();
        assert_eq!(resp.status, 404);
        let resp = client::get(server.addr(), "/nodes/3/motifs?dataset=fig1").unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("delta"), "{}", resp.text());
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn top_nodes_ranks_by_motif_and_zscore() {
        let server = fig1_server();
        let resp = client::get(
            server.addr(),
            "/nodes/top?dataset=fig1&delta=10&motif=M65&k=2",
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.text(),
            "{\"delta\":10,\"rank\":\"motif\",\"motif\":\"M65\",\"k\":2,\"nodes\":[{\"node\":0,\"count\":1},{\"node\":1,\"count\":1}]}\n"
        );
        let resp = client::get(server.addr(), "/nodes/top?dataset=fig1&delta=10&k=3").unwrap();
        assert_eq!(resp.status, 200);
        assert!(
            resp.text()
                .starts_with(r#"{"delta":10,"rank":"zscore","k":3,"nodes":["#),
            "{}",
            resp.text()
        );
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn top_nodes_rejects_bad_parameters() {
        let server = fig1_server();
        let resp =
            client::get(server.addr(), "/nodes/top?dataset=fig1&delta=10&motif=M99").unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("motif"), "{}", resp.text());
        let resp = client::get(server.addr(), "/nodes/top?dataset=fig1&delta=10&k=0").unwrap();
        assert_eq!(resp.status, 400);
        let resp = client::get(server.addr(), "/nodes/top?dataset=fig1&delta=10&k=-1").unwrap();
        assert_eq!(resp.status, 400);
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn node_bodies_are_cached_under_distinct_keys() {
        let server = fig1_server();
        let paths = [
            "/nodes/3/motifs?dataset=fig1&delta=10",
            "/nodes/4/motifs?dataset=fig1&delta=10",
            "/nodes/top?dataset=fig1&delta=10&motif=M65&k=2",
            "/nodes/top?dataset=fig1&delta=10&k=2",
        ];
        let get = |p: &str| client::get(server.addr(), p).unwrap().text();
        let first: Vec<String> = paths.iter().map(|p| get(p)).collect();
        let second: Vec<String> = paths.iter().map(|p| get(p)).collect();
        assert_eq!(first, second, "cached bodies are byte-identical");
        assert_ne!(first[0], first[1], "distinct nodes, distinct bodies");
        let stats = client::get(server.addr(), "/stats")
            .unwrap()
            .json()
            .unwrap();
        assert_eq!(stats["cache"]["hits"].as_u64(), Some(4), "{stats}");
        assert_eq!(stats["cache"]["misses"].as_u64(), Some(4), "{stats}");
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn wrong_verb_on_nodes_paths_is_405() {
        let server = fig1_server();
        let resp = client::post(server.addr(), "/nodes/top?dataset=fig1&delta=10", "{}").unwrap();
        assert_eq!(resp.status, 405, "{}", resp.text());
        server.shutdown_and_wait().unwrap();
    }
}
