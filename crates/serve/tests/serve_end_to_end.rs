//! End-to-end suite for the `hare-serve` binary.
//!
//! Spawns the real daemon on an ephemeral port (parsing the startup
//! line for the address) and pins the service's differential contract:
//! **every response body is byte-identical to the stdout of the
//! equivalent `hare-count --json --no-timing` invocation** — for exact
//! queries, `--only` subsets, seeded approximate queries (including
//! `p = 1.0`), uploaded datasets, and flushed streaming sessions; also
//! under concurrent load with the result cache in play. Plus: the
//! backpressure 429 path, structured 4xx errors, and the
//! graceful-shutdown drain guarantee.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use hare_serve::http::client;

/// A running `hare-serve` child, killed on drop.
struct ServeProc {
    child: Child,
    addr: String,
}

impl ServeProc {
    /// Spawn with `--port 0 --enable-shutdown` plus `extra` flags and
    /// wait for the startup line to learn the bound address.
    fn spawn(extra: &[&str]) -> ServeProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hare-serve"))
            .args(["--port", "0", "--enable-shutdown"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn hare-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("startup line");
        let v: serde_json::Value = serde_json::from_str(line.trim())
            .unwrap_or_else(|e| panic!("startup line is not JSON ({e}): {line:?}"));
        let addr = v["listening"]
            .as_str()
            .unwrap_or_else(|| panic!("no listening address in {line:?}"))
            .to_string();
        ServeProc { child, addr }
    }

    fn get(&self, target: &str) -> client::Response {
        client::get(self.addr.as_str(), target).expect("GET")
    }

    fn post(&self, target: &str, body: &str) -> client::Response {
        client::post(self.addr.as_str(), target, body).expect("POST")
    }

    /// POST /shutdown and wait (bounded) for a clean exit.
    fn shutdown_and_wait(mut self) {
        let resp = self.post("/shutdown", "");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "server exited with {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("server did not exit within 60s of POST /shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        // Disarm the drop kill.
        std::mem::forget(self);
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Locate (building if needed) the `hare-count` binary — the reference
/// implementation for every differential assertion.
fn hare_count_bin() -> PathBuf {
    let dir = Path::new(env!("CARGO_BIN_EXE_hare-serve"))
        .parent()
        .expect("target dir")
        .to_path_buf();
    let exe = dir.join(format!("hare-count{}", std::env::consts::EXE_SUFFIX));
    if exe.exists() {
        return exe;
    }
    // Workspace `cargo test` builds it; a lone `cargo test -p hare-serve`
    // may not have — build it in the same profile, offline.
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.args(["build", "-p", "hare-cli", "--offline"]);
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let status = cmd.status().expect("spawn cargo build -p hare-cli");
    assert!(status.success(), "building hare-cli failed");
    assert!(exe.exists(), "hare-count not found at {}", exe.display());
    exe
}

fn hare_count(args: &[&str]) -> Output {
    let out = Command::new(hare_count_bin())
        .args(args)
        .output()
        .expect("spawn hare-count");
    assert!(
        out.status.success(),
        "hare-count {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn exact_count_bodies_are_byte_identical_to_cli() {
    let server = ServeProc::spawn(&["--preload", "CollegeMsg:8", "--threads", "2"]);
    for only in ["all", "pairs", "stars", "triangles"] {
        let resp = server.get(&format!("/count?dataset=CollegeMsg&delta=600&only={only}"));
        assert_eq!(resp.status, 200, "{}", resp.text());
        let cli = hare_count(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "8",
            "--delta",
            "600",
            "--only",
            only,
            "--json",
            "--no-timing",
        ]);
        assert_eq!(
            resp.body,
            cli.stdout,
            "only={only}: serve body != CLI stdout\nserve: {}\ncli:   {}",
            resp.text(),
            String::from_utf8_lossy(&cli.stdout)
        );
    }
    server.shutdown_and_wait();
}

#[test]
fn approx_bodies_are_byte_identical_to_cli_including_p1() {
    let server = ServeProc::spawn(&["--preload", "CollegeMsg:8", "--threads", "1"]);
    for (prob, seed) in [("1.0", "42"), ("0.5", "7")] {
        let resp = server.get(&format!(
            "/count?dataset=CollegeMsg&delta=600&engine=approx&prob={prob}&ci=0.95&seed={seed}"
        ));
        assert_eq!(resp.status, 200, "{}", resp.text());
        let cli = hare_count(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "8",
            "--delta",
            "600",
            "--approx",
            "--prob",
            prob,
            "--ci",
            "0.95",
            "--seed",
            seed,
            "--json",
            "--no-timing",
        ]);
        assert_eq!(
            resp.body, cli.stdout,
            "prob={prob} seed={seed}: serve body != CLI stdout"
        );
    }
    // p = 1.0 estimates must equal the exact counts cell for cell.
    let approx = server
        .get("/count?dataset=CollegeMsg&delta=600&engine=approx&prob=1.0")
        .json()
        .unwrap();
    let exact = server
        .get("/count?dataset=CollegeMsg&delta=600")
        .json()
        .unwrap();
    let exact_cells = exact["counts"].as_array().unwrap();
    for (cell, exact_cell) in approx["counts"].as_array().unwrap().iter().zip(exact_cells) {
        assert_eq!(cell["motif"], exact_cell["motif"]);
        assert_eq!(
            cell["estimate"].as_f64().unwrap(),
            exact_cell["count"].as_u64().unwrap() as f64,
            "{}",
            cell["motif"]
        );
    }
    server.shutdown_and_wait();
}

#[test]
fn uploaded_dataset_matches_cli_input_file() {
    let edges = "0 1 10\n1 2 12\n2 0 14\n3 4 99999\n";
    let dir = std::env::temp_dir().join(format!("hare_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("edges.txt");
    std::fs::write(&path, edges).unwrap();

    let server = ServeProc::spawn(&[]);
    let body = serde_json::json!({"name": "upload", "edges": edges}).to_string();
    let reg = server.post("/datasets", &body);
    assert_eq!(reg.status, 201, "{}", reg.text());

    let resp = server.get("/count?dataset=upload&delta=600");
    let cli = hare_count(&[
        "--input",
        path.to_str().unwrap(),
        "--delta",
        "600",
        "--json",
        "--no-timing",
    ]);
    assert_eq!(
        resp.body, cli.stdout,
        "uploaded dataset differs from --input run"
    );

    // The dataset listing reflects the registration.
    let listing = server.get("/datasets").json().unwrap();
    let sets = listing["datasets"].as_array().unwrap();
    assert_eq!(sets.len(), 1);
    assert_eq!(sets[0]["name"].as_str(), Some("upload"));
    assert_eq!(sets[0]["source"].as_str(), Some("upload"));

    std::fs::remove_file(&path).ok();
    server.shutdown_and_wait();
}

#[test]
fn concurrent_clients_get_identical_bodies_and_cache_hits() {
    let server = ServeProc::spawn(&["--preload", "CollegeMsg:8", "--workers", "4"]);
    let target = "/count?dataset=CollegeMsg&delta=600";
    // Warm the cache so the concurrent wave is all hits.
    let warm = server.get(target);
    assert_eq!(warm.status, 200);

    let addr = server.addr.clone();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || client::get(addr.as_str(), target).expect("GET"))
        })
        .collect();
    let cli = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--json",
        "--no-timing",
    ]);
    for handle in clients {
        let resp = handle.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body, cli.stdout,
            "concurrent response differs from CLI stdout"
        );
    }

    let stats = server.get("/stats").json().unwrap();
    let hits = stats["cache"]["hits"].as_u64().unwrap();
    assert!(hits >= 8, "expected >= 8 cache hits, saw {hits}");
    assert_eq!(stats["cache"]["entries"].as_u64(), Some(1));
    server.shutdown_and_wait();
}

#[test]
fn streaming_session_flush_matches_cli_final_tick() {
    // Out-of-order arrivals within slack, one late drop, one self-loop:
    // the flushed session must reproduce the CLI's final tick bytes.
    let edges = "0 1 100\n5 5 200\n1 2 95\n2 0 103\n3 4 10\n";
    let dir = std::env::temp_dir().join(format!("hare_serve_stream_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.txt");
    std::fs::write(&path, edges).unwrap();

    let cli = hare_count(&[
        "--input",
        path.to_str().unwrap(),
        "--delta",
        "20",
        "--window",
        "50",
        "--slack",
        "10",
        "--json",
    ]);
    let cli_stdout = String::from_utf8(cli.stdout).unwrap();
    let final_tick = cli_stdout.lines().last().expect("at least one tick");

    let server = ServeProc::spawn(&[]);
    let created = server.post("/sessions", r#"{"delta":20,"window":50,"slack":10}"#);
    assert_eq!(created.status, 201, "{}", created.text());
    let id = created.json().unwrap()["session"].as_u64().unwrap();

    let push = server.post(
        &format!("/sessions/{id}/edges"),
        r#"{"edges":[[0,1,100],[5,5,200],[1,2,95],[2,0,103],[3,4,10]]}"#,
    );
    assert_eq!(push.status, 200);
    let pv = push.json().unwrap();
    assert_eq!(pv["accepted"].as_u64(), Some(3));
    assert_eq!(pv["late_dropped"].as_u64(), Some(1));
    assert_eq!(pv["self_loops_dropped"].as_u64(), Some(1));

    let flushed = server.post(&format!("/sessions/{id}/flush"), "");
    assert_eq!(flushed.status, 200);
    assert_eq!(
        flushed.text().trim_end(),
        final_tick,
        "flushed session != CLI final tick"
    );

    std::fs::remove_file(&path).ok();
    server.shutdown_and_wait();
}

#[test]
fn budgeted_session_flush_matches_cli_memory_budget_final_tick() {
    // Same stream as the exact session test, now through the
    // bounded-memory estimator: a roomy budget (everything retained,
    // exact path) and a 2-edge budget (adaptive halving engaged). The
    // flushed session must reproduce the CLI's final tick bytes in both
    // regimes. Session engines are seeded with the library default
    // (0x5EED = 24301), so the CLI run pins the same seed.
    let edges = "0 1 100\n5 5 200\n1 2 95\n2 0 103\n3 4 10\n";
    let dir = std::env::temp_dir().join(format!("hare_serve_budget_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.txt");
    std::fs::write(&path, edges).unwrap();

    let server = ServeProc::spawn(&[]);
    for budget in ["1048576", "32"] {
        let cli = hare_count(&[
            "--input",
            path.to_str().unwrap(),
            "--delta",
            "20",
            "--window",
            "50",
            "--slack",
            "10",
            "--memory-budget",
            budget,
            "--seed",
            "24301",
            "--json",
        ]);
        let cli_stdout = String::from_utf8(cli.stdout).unwrap();
        let final_tick = cli_stdout.lines().last().expect("at least one tick");

        let created = server.post(
            "/sessions",
            &format!(r#"{{"delta":20,"window":50,"slack":10,"memory_budget":{budget}}}"#),
        );
        assert_eq!(created.status, 201, "{}", created.text());
        let cv = created.json().unwrap();
        assert_eq!(cv["memory_budget"].as_u64(), budget.parse().ok());
        let id = cv["session"].as_u64().unwrap();

        let push = server.post(
            &format!("/sessions/{id}/edges"),
            r#"{"edges":[[0,1,100],[5,5,200],[1,2,95],[2,0,103],[3,4,10]]}"#,
        );
        assert_eq!(push.status, 200);
        let pv = push.json().unwrap();
        assert_eq!(pv["accepted"].as_u64(), Some(3));
        assert_eq!(pv["late_dropped"].as_u64(), Some(1));
        assert_eq!(pv["self_loops_dropped"].as_u64(), Some(1));
        assert_eq!(pv["memory_budget"].as_u64(), budget.parse().ok());

        let flushed = server.post(&format!("/sessions/{id}/flush"), "");
        assert_eq!(flushed.status, 200);
        assert_eq!(
            flushed.text().trim_end(),
            final_tick,
            "budget={budget}: flushed session != CLI final tick"
        );
        // Polling after flush reproduces the same estimator-shaped body.
        let polled = server.get(&format!("/sessions/{id}"));
        assert_eq!(polled.status, 200);
        assert_eq!(polled.body, flushed.body, "poll after flush drifted");
    }

    std::fs::remove_file(&path).ok();
    server.shutdown_and_wait();
}

#[test]
fn session_memory_pool_backpressures_and_rejects_bad_budgets() {
    let server = ServeProc::spawn(&["--session-memory-budget", "1000"]);
    // Invalid budgets are structured 400s.
    for bad in [
        r#"{"delta":10,"window":10,"memory_budget":0}"#,
        r#"{"delta":10,"window":10,"memory_budget":-5}"#,
        r#"{"delta":10,"window":10,"memory_budget":"lots"}"#,
    ] {
        let resp = server.post("/sessions", bad);
        assert_eq!(resp.status, 400, "{bad}: {}", resp.text());
        let v = resp.json().unwrap();
        assert!(
            v["error"]["message"]
                .as_str()
                .unwrap()
                .contains("memory_budget"),
            "{bad}: {}",
            resp.text()
        );
    }
    // Exact sessions never draw from the pool.
    let exact = server.post("/sessions", r#"{"delta":10,"window":10}"#);
    assert_eq!(exact.status, 201, "{}", exact.text());
    // 600 fits; the second 600 exhausts the 1000-byte pool.
    let first = server.post(
        "/sessions",
        r#"{"delta":10,"window":10,"memory_budget":600}"#,
    );
    assert_eq!(first.status, 201, "{}", first.text());
    let over = server.post(
        "/sessions",
        r#"{"delta":10,"window":10,"memory_budget":600}"#,
    );
    assert_eq!(over.status, 429, "{}", over.text());
    let ov = over.json().unwrap();
    assert!(
        ov["error"]["message"]
            .as_str()
            .unwrap()
            .contains("memory pool exhausted"),
        "{}",
        over.text()
    );
    let stats = server.get("/stats").json().unwrap();
    assert_eq!(stats["sessions"]["memory_pool"].as_u64(), Some(1000));
    assert_eq!(stats["sessions"]["memory_reserved"].as_u64(), Some(600));
    // Closing the budgeted session returns its bytes to the pool.
    let id = first.json().unwrap()["session"].as_u64().unwrap();
    let closed = client::request(
        server.addr.as_str(),
        "DELETE",
        &format!("/sessions/{id}"),
        None,
    )
    .expect("DELETE");
    assert_eq!(closed.status, 200);
    let retry = server.post(
        "/sessions",
        r#"{"delta":10,"window":10,"memory_budget":1000}"#,
    );
    assert_eq!(retry.status, 201, "{}", retry.text());
    server.shutdown_and_wait();
}

#[test]
fn node_profile_bodies_are_byte_identical_to_cli() {
    // `hare-count --nodes --json` emits one line per participating
    // node; each `/nodes/{id}/motifs` body must be byte-identical to
    // that node's line.
    let server = ServeProc::spawn(&["--preload", "CollegeMsg:8", "--threads", "1"]);
    let cli = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--nodes",
        "--json",
        "--no-timing",
    ]);
    let stdout = String::from_utf8(cli.stdout).unwrap();
    let mut checked = 0;
    for line in stdout.lines().take(5).chain(stdout.lines().last()) {
        let v: serde_json::Value = serde_json::from_str(line).expect("CLI line is JSON");
        let node = v["node"].as_u64().expect("node id");
        let resp = server.get(&format!(
            "/nodes/{node}/motifs?dataset=CollegeMsg&delta=600"
        ));
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(
            resp.text().trim_end(),
            line,
            "node {node}: serve body != CLI per-node record"
        );
        checked += 1;
    }
    assert!(checked >= 2, "CollegeMsg:8 should have participating nodes");

    // A valid but non-participating node (if any exists beyond the CLI's
    // sparse output) serves an empty profile rather than an error; an
    // out-of-range id is a 404.
    let resp = server.get("/nodes/999999/motifs?dataset=CollegeMsg&delta=600");
    assert_eq!(resp.status, 404, "{}", resp.text());
    assert!(resp.text().contains("no such node"), "{}", resp.text());
    server.shutdown_and_wait();
}

#[test]
fn top_nodes_bodies_match_cli_and_hit_cache() {
    let server = ServeProc::spawn(&["--preload", "CollegeMsg:8", "--threads", "1"]);
    // Ranked by one motif.
    let target = "/nodes/top?dataset=CollegeMsg&delta=600&motif=M66&k=5";
    let first = server.get(target);
    assert_eq!(first.status, 200, "{}", first.text());
    let cli = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--nodes",
        "--rank-motif",
        "M66",
        "--top-k",
        "5",
        "--json",
        "--no-timing",
    ]);
    assert_eq!(first.body, cli.stdout, "top-k body != CLI stdout");

    // Ranked by z-score anomaly (no motif parameter).
    let ztarget = "/nodes/top?dataset=CollegeMsg&delta=600&k=5";
    let zfirst = server.get(ztarget);
    assert_eq!(zfirst.status, 200, "{}", zfirst.text());
    let zcli = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--nodes",
        "--top-k",
        "5",
        "--json",
        "--no-timing",
    ]);
    assert_eq!(zfirst.body, zcli.stdout, "z-score body != CLI stdout");

    // Repeats are cache hits with byte-identical bodies; /stats counters
    // reconcile exactly (2 misses above, 2 hits here).
    let second = server.get(target);
    let zsecond = server.get(ztarget);
    assert_eq!(second.body, first.body);
    assert_eq!(zsecond.body, zfirst.body);
    let stats = server.get("/stats").json().unwrap();
    assert_eq!(stats["cache"]["misses"].as_u64(), Some(2), "{stats}");
    assert_eq!(stats["cache"]["hits"].as_u64(), Some(2), "{stats}");
    assert_eq!(stats["cache"]["entries"].as_u64(), Some(2), "{stats}");
    server.shutdown_and_wait();
}

#[test]
fn malformed_requests_return_structured_errors() {
    let server = ServeProc::spawn(&["--preload", "CollegeMsg:16"]);
    let cases: &[(&str, u16, &str)] = &[
        ("/count", 400, "dataset"),
        ("/count?dataset=CollegeMsg", 400, "delta"),
        ("/count?dataset=nope&delta=600", 404, "not in the catalog"),
        ("/count?dataset=CollegeMsg&delta=abc", 400, "delta"),
        (
            "/count?dataset=CollegeMsg&delta=600&only=wedges",
            400,
            "only",
        ),
        (
            "/count?dataset=CollegeMsg&delta=600&prob=0.5",
            400,
            "engine=approx",
        ),
        (
            "/count?dataset=CollegeMsg&delta=600&engine=approx&prob=1.5",
            400,
            "prob",
        ),
        (
            "/count?dataset=CollegeMsg&delta=600&engine=warp",
            400,
            "engine",
        ),
        // One delta >= 0 rule for every query endpoint.
        ("/count?dataset=CollegeMsg&delta=-5", 400, "delta"),
        (
            "/count?dataset=CollegeMsg&delta=-5&engine=approx",
            400,
            "delta",
        ),
        ("/nodes/top?dataset=CollegeMsg&delta=-5", 400, "delta"),
        ("/nodes/1/motifs?dataset=CollegeMsg&delta=-5", 400, "delta"),
        ("/sessions/99", 404, "no such session"),
        ("/sessions/zzz", 400, "integer"),
        ("/definitely/not/here", 404, "no such endpoint"),
    ];
    for &(target, want_status, want_fragment) in cases {
        let resp = server.get(target);
        assert_eq!(resp.status, want_status, "{target}: {}", resp.text());
        let v = resp
            .json()
            .unwrap_or_else(|e| panic!("{target}: error body is not JSON ({e}): {}", resp.text()));
        assert_eq!(v["error"]["code"].as_u64(), Some(u64::from(want_status)));
        let msg = v["error"]["message"].as_str().unwrap();
        assert!(
            msg.contains(want_fragment),
            "{target}: message {msg:?} lacks {want_fragment:?}"
        );
    }
    // ...and for ingest sessions, exact or budgeted.
    for body in [
        r#"{"delta":-5,"window":10}"#,
        r#"{"delta":-5,"window":10,"memory_budget":4096}"#,
    ] {
        let resp = server.post("/sessions", body);
        assert_eq!(resp.status, 400, "{body}: {}", resp.text());
        let msg = resp.json().unwrap()["error"]["message"].to_string();
        assert!(msg.contains("delta"), "{body}: {msg}");
    }
    // Uploads with a timestamp column that is not a non-negative
    // integer, or that no line can have, are 400s, never a 500.
    for (body, want_fragment) in [
        (
            r#"{"name":"u","edges":"0 1 5\n","timestamp_col":"3"}"#,
            "timestamp_col",
        ),
        (
            r#"{"name":"u","edges":"0 1 5\n","timestamp_col":-1}"#,
            "timestamp_col",
        ),
        (
            r#"{"name":"u","edges":"0 1 5\n","timestamp_col":2.5}"#,
            "timestamp_col",
        ),
        (
            r#"{"name":"u","edges":"0 1 5\n","timestamp_col":true}"#,
            "timestamp_col",
        ),
        (
            r#"{"name":"u","edges":"0 1 5\n","timestamp_col":18446744073709551615}"#,
            "expected at least 18446744073709551616 fields, found 3",
        ),
        (
            r#"{"name":"u","edges":"0 1 5\n","timestamp_col":9223372036854775807}"#,
            "expected at least 9223372036854775808 fields, found 3",
        ),
    ] {
        let resp = server.post("/datasets", body);
        assert_eq!(resp.status, 400, "{body}: {}", resp.text());
        let msg = resp.json().unwrap()["error"]["message"].to_string();
        assert!(msg.contains(want_fragment), "{body}: {msg}");
    }
    // Bad JSON bodies on the POST endpoints.
    for target in ["/datasets", "/sessions"] {
        let resp = server.post(target, "{not json");
        assert_eq!(resp.status, 400, "{target}: {}", resp.text());
        assert!(resp.json().unwrap()["error"]["message"].as_str().is_some());
    }
    // A request that is not HTTP at all still gets a structured 400.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(server.addr.as_str()).unwrap();
        raw.write_all(b"this is not http\r\n\r\n").unwrap();
        let mut text = String::new();
        raw.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    }
    // Wrong verb on a known resource.
    let resp = server.post("/count?dataset=CollegeMsg&delta=600", "");
    assert_eq!(resp.status, 405);
    server.shutdown_and_wait();
}

#[test]
fn queue_overflow_answers_429_backpressure() {
    // One worker, queue of one, cache off: a burst of slow queries
    // (δ = the full time span makes every window maximal, ~0.5s each in
    // a debug build) can occupy at most two slots; the rest must be
    // answered 429 by the acceptor immediately.
    let server = ServeProc::spawn(&[
        "--workers",
        "1",
        "--queue",
        "1",
        "--cache",
        "0",
        "--preload",
        "CollegeMsg:1",
    ]);
    let slow = "/count?dataset=CollegeMsg&delta=16000000&threads=1";
    let addr = server.addr.clone();
    let burst: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || client::get(addr.as_str(), slow).expect("GET"))
        })
        .collect();

    let (mut ok, mut rejected) = (0u32, 0u32);
    for handle in burst {
        let resp = handle.join().unwrap();
        match resp.status {
            200 => {
                assert_eq!(resp.json().unwrap()["counts"].as_array().unwrap().len(), 36);
                ok += 1;
            }
            429 => {
                let v = resp.json().unwrap();
                assert_eq!(v["error"]["code"].as_u64(), Some(429));
                rejected += 1;
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    // At most worker + queue requests can be accepted at once; with an
    // 8-wide simultaneous burst against a ~0.5s query, some must have
    // been rejected — and accepted ones must all have completed.
    assert!(ok >= 1, "no request completed");
    assert!(rejected >= 1, "no request was backpressured");

    let stats = server.get("/stats").json().unwrap();
    assert_eq!(
        stats["queue"]["rejected"].as_u64(),
        Some(u64::from(rejected)),
        "metrics disagree with observed 429s"
    );
    server.shutdown_and_wait();
}

/// One parsed Prometheus sample: metric name, sorted label pairs, value.
type MetricSample = (String, Vec<(String, String)>, f64);

/// Parse the text exposition line by line, panicking on any line that
/// is neither a `# HELP`/`# TYPE` comment nor a well-formed sample.
/// Returns `(name -> declared type, samples)`.
fn parse_exposition(body: &str) -> (std::collections::HashMap<String, String>, Vec<MetricSample>) {
    let mut types = std::collections::HashMap::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name").to_string();
            let kind = it.next().expect("TYPE kind").to_string();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "unknown metric type: {line}"
            );
            types.insert(name, kind);
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment form: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let rest = rest.strip_suffix('}').expect("closing brace");
                let mut labels: Vec<(String, String)> = rest
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(|pair| {
                        let (k, v) = pair.split_once('=').expect("label pair");
                        let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
                        (k.to_string(), v.expect("quoted label value").to_string())
                    })
                    .collect();
                labels.sort();
                (name.to_string(), labels)
            }
        };
        // Histogram children belong to the family's TYPE declaration.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| types.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(&name);
        assert!(
            types.contains_key(family),
            "sample {name} has no preceding # TYPE"
        );
        samples.push((name, labels, value));
    }
    (types, samples)
}

/// The value of `name` with the given label subset (all must match).
fn sample_value(samples: &[MetricSample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|(n, l, _)| {
            n == name
                && labels
                    .iter()
                    .all(|(k, v)| l.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|&(_, _, v)| v)
}

#[test]
fn metrics_exposition_is_valid_and_reflects_traffic() {
    let server = ServeProc::spawn(&["--preload", "CollegeMsg:8"]);
    // Traffic the scrape must account for: a cache miss, a cache hit,
    // a 404, and a /stats read.
    assert_eq!(
        server.get("/count?dataset=CollegeMsg&delta=600").status,
        200
    );
    assert_eq!(
        server.get("/count?dataset=CollegeMsg&delta=600").status,
        200
    );
    assert_eq!(server.get("/definitely/not/here").status, 404);
    assert_eq!(server.get("/stats").status, 200);

    let first = server.get("/metrics");
    assert_eq!(first.status, 200);
    let (types, samples) = parse_exposition(first.text().trim_end());

    // The inventory documented in docs/OBSERVABILITY.md is present.
    for (name, kind) in [
        ("hare_cache_hits_total", "counter"),
        ("hare_cache_misses_total", "counter"),
        ("hare_cache_evictions_total", "counter"),
        ("hare_cache_entries", "gauge"),
        ("hare_queue_in_flight", "gauge"),
        ("hare_requests_completed_total", "counter"),
        ("hare_requests_rejected_total", "counter"),
        ("hare_sessions_open", "gauge"),
        ("hare_ooc_peak_resident_lane_bytes", "gauge"),
        ("hare_http_requests_total", "counter"),
        ("hare_http_request_duration_us", "histogram"),
    ] {
        assert_eq!(types.get(name).map(String::as_str), Some(kind), "{name}");
    }

    // Counters reconcile with the traffic above.
    assert_eq!(
        sample_value(&samples, "hare_cache_hits_total", &[]),
        Some(1.0)
    );
    assert_eq!(
        sample_value(&samples, "hare_cache_misses_total", &[]),
        Some(1.0)
    );
    // A worker marks "completed" only *after* its response is written,
    // so any number of the four preceding done-transitions may still be
    // pending at scrape time (and the /metrics request itself always
    // is). The counter must converge to all four, so poll for it.
    let mut completed = sample_value(&samples, "hare_requests_completed_total", &[]).unwrap();
    let mut extra_scrapes = 0.0;
    for _ in 0..100 {
        if completed >= 4.0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (_, resampled) = parse_exposition(server.get("/metrics").text().trim_end());
        extra_scrapes += 1.0;
        completed = sample_value(&resampled, "hare_requests_completed_total", &[]).unwrap();
    }
    assert!(completed >= 4.0, "completed = {completed}");
    let count_2xx = sample_value(
        &samples,
        "hare_http_requests_total",
        &[("path", "/count"), ("status", "2xx")],
    );
    assert_eq!(count_2xx, Some(2.0));
    let other_4xx = sample_value(
        &samples,
        "hare_http_requests_total",
        &[("path", "other"), ("status", "4xx")],
    );
    assert_eq!(other_4xx, Some(1.0));

    // Histogram coherence: per label set, bucket counts are cumulative
    // (non-decreasing in `le`, which the exposition orders ascending)
    // and the +Inf bucket equals the `_count` sample.
    let mut by_path: std::collections::HashMap<String, (Vec<f64>, Option<f64>)> =
        std::collections::HashMap::new();
    for (name, labels, value) in &samples {
        let path = labels
            .iter()
            .find(|(k, _)| k == "path")
            .map(|(_, v)| v.clone());
        if name == "hare_http_request_duration_us_bucket" {
            by_path
                .entry(path.expect("path label"))
                .or_default()
                .0
                .push(*value);
        } else if name == "hare_http_request_duration_us_count" {
            by_path.entry(path.expect("path label")).or_default().1 = Some(*value);
        }
    }
    assert!(by_path.len() >= 10, "one histogram per endpoint group");
    for (path, (buckets, count)) in &by_path {
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "{path}: buckets not cumulative: {buckets:?}"
        );
        assert_eq!(
            buckets.last().copied(),
            *count,
            "{path}: +Inf bucket != _count"
        );
    }
    let count_observed = by_path["/count"].1.unwrap();
    assert_eq!(count_observed, 2.0, "/count latency observations");

    // A second scrape never regresses any counter (monotonicity), and
    // the /metrics endpoint accounts for its own scrapes.
    let second = server.get("/metrics");
    let (_, resamples) = parse_exposition(second.text().trim_end());
    for (name, labels, value) in &samples {
        if types.get(name.as_str()).map(String::as_str) != Some("counter") {
            continue;
        }
        let labels: Vec<(&str, &str)> = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let later = sample_value(&resamples, name, &labels)
            .unwrap_or_else(|| panic!("{name}{labels:?} vanished between scrapes"));
        assert!(
            later >= *value,
            "{name}{labels:?} regressed: {later} < {value}"
        );
    }
    // The endpoint accounts for its own scrapes, one behind: a scrape's
    // body renders before that scrape is observed, so this scrape
    // reports exactly the ones before it (first + any poll rounds).
    let scrapes = sample_value(
        &resamples,
        "hare_http_requests_total",
        &[("path", "/metrics"), ("status", "2xx")],
    );
    assert_eq!(scrapes, Some(1.0 + extra_scrapes));

    // The exposition is served with the Prometheus text content type
    // (the test client drops headers, so read the raw stream).
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(server.addr.as_str()).unwrap();
        raw.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        raw.read_to_string(&mut text).unwrap();
        assert!(
            text.contains("Content-Type: text/plain; version=0.0.4"),
            "{}",
            text.lines().take(8).collect::<Vec<_>>().join("\n")
        );
    }
    server.shutdown_and_wait();
}

#[test]
fn metrics_latency_histogram_observes_slow_requests() {
    // A maximal-δ query takes ~0.5s in a debug build: its latency must
    // land in the /count histogram's sum (microseconds), separating it
    // from the fast endpoints.
    let server = ServeProc::spawn(&["--preload", "CollegeMsg:1"]);
    let slow = server.get("/count?dataset=CollegeMsg&delta=16000000&threads=1");
    assert_eq!(slow.status, 200);
    let resp = server.get("/metrics");
    let (_, samples) = parse_exposition(resp.text().trim_end());
    let sum = sample_value(
        &samples,
        "hare_http_request_duration_us_sum",
        &[("path", "/count")],
    )
    .unwrap();
    let count = sample_value(
        &samples,
        "hare_http_request_duration_us_count",
        &[("path", "/count")],
    )
    .unwrap();
    assert_eq!(count, 1.0);
    assert!(
        sum >= 10_000.0,
        "slow query's latency missing from histogram sum: {sum}µs"
    );
    server.shutdown_and_wait();
}

#[test]
fn trace_param_reports_phases_without_perturbing_the_body() {
    let server = ServeProc::spawn(&["--preload", "CollegeMsg:8"]);
    let plain = server.get("/count?dataset=CollegeMsg&delta=600");
    assert_eq!(plain.status, 200);
    let traced = server.get("/count?dataset=CollegeMsg&delta=600&trace=1");
    assert_eq!(traced.status, 200, "{}", traced.text());
    let v = traced.json().unwrap();
    assert_eq!(
        v["result"],
        plain.json().unwrap(),
        "traced result drifted from the plain body"
    );
    let phases = v["trace"]["phases"].as_array().unwrap();
    assert!(!phases.is_empty(), "{}", traced.text());
    for phase in phases {
        let name = phase["phase"].as_str().unwrap();
        assert!(
            ["scan", "fold", "chunk_load", "evict", "summarise"].contains(&name),
            "unknown phase {name:?}"
        );
        assert!(phase["spans"].as_u64().unwrap() >= 1);
        assert!(phase["duration_us"].as_u64().is_some());
    }
    assert!(v["trace"]["trace_id"].as_u64().is_some());
    server.shutdown_and_wait();
}

#[test]
fn access_log_records_requests_with_cache_disposition() {
    // The daemon logs by default (the library default is quiet; the
    // binary flips it on unless --no-access-log). One JSON line per
    // request lands on stderr: method, path, status, latency_us, and
    // the cache disposition for /count.
    let mut server = ServeProc::spawn(&["--preload", "CollegeMsg:8"]);
    let stderr = server.child.stderr.take().expect("piped stderr");
    assert_eq!(
        server.get("/count?dataset=CollegeMsg&delta=600").status,
        200
    );
    assert_eq!(
        server.get("/count?dataset=CollegeMsg&delta=600").status,
        200
    );
    assert_eq!(server.get("/nope").status, 404);
    server.shutdown_and_wait();

    let mut text = String::new();
    use std::io::Read as _;
    BufReader::new(stderr).read_to_string(&mut text).unwrap();
    let records: Vec<serde_json::Value> = text
        .lines()
        .filter_map(|l| serde_json::from_str(l).ok())
        .filter(|v: &serde_json::Value| v["method"].as_str().is_some())
        .collect();
    let count_records: Vec<&serde_json::Value> = records
        .iter()
        .filter(|v| v["path"].as_str() == Some("/count"))
        .collect();
    assert_eq!(count_records.len(), 2, "{text}");
    assert_eq!(count_records[0]["cache"].as_str(), Some("miss"), "{text}");
    assert_eq!(count_records[1]["cache"].as_str(), Some("hit"), "{text}");
    for v in &count_records {
        assert_eq!(v["status"].as_u64(), Some(200));
        assert!(v["latency_us"].as_u64().is_some());
    }
    let not_found = records
        .iter()
        .find(|v| v["path"].as_str() == Some("/nope"))
        .unwrap_or_else(|| panic!("404 not logged:\n{text}"));
    assert_eq!(not_found["status"].as_u64(), Some(404));
}

#[cfg(unix)]
#[test]
fn sigterm_shuts_down_cleanly() {
    let mut server = ServeProc::spawn(&[]);
    assert_eq!(server.get("/").status, 200);
    let pid = server.child.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("spawn kill");
    assert!(status.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match server.child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "SIGTERM exit was {status}");
                break;
            }
            None if Instant::now() > deadline => panic!("server ignored SIGTERM for 30s"),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    std::mem::forget(server);
}

#[test]
fn shutdown_drains_in_flight_and_queued_requests() {
    // Two workers: one takes a slow query, the other handles /shutdown.
    // The slow query must complete with a full valid body — shutdown
    // drains, it does not drop.
    let server = ServeProc::spawn(&["--workers", "2", "--preload", "CollegeMsg:1"]);
    let addr = server.addr.clone();
    let slow = std::thread::spawn(move || {
        client::get(
            addr.as_str(),
            "/count?dataset=CollegeMsg&delta=16000000&threads=1",
        )
        .expect("GET")
    });
    // Let the ~0.5s query reach a worker, then shut down mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown_and_wait();

    let resp = slow.join().unwrap();
    assert_eq!(resp.status, 200, "in-flight request dropped by shutdown");
    let v = resp.json().expect("drained response is complete JSON");
    assert_eq!(v["counts"].as_array().unwrap().len(), 36);
    assert_eq!(v["delta"].as_i64(), Some(16000000));
}
