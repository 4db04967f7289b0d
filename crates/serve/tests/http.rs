//! Observability-plane integration tests: real HTTP/SSE clients against a
//! running [`serve::Server`] while scripted SSH attackers keep it busy.
//!
//! The load-bearing claims checked here:
//!   * `/api/stats` reports the *same* taxonomy and credential ranking a
//!     post-hoc [`TaxonomyAccumulator`] / [`TopPasswordsAccumulator`] pass
//!     over the spilled store produces — live and batch analysis agree.
//!   * `/events` delivers one well-formed `session` frame per closed
//!     session, parseable by the crate's own [`sse::FrameParser`].
//!   * A dashboard polling `/api/stats` throughout a 200-client barrage
//!     never causes a single shed connection on the honeypot plane.

use serve::sse::FrameParser;
use serve::stats::{ApiSnapshot, TOP_CREDENTIALS};
use serve::{ServeConfig, Server, ServerHandle};
use sshwire::{ClientScript, SshClient};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-http-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Plays one scripted SSH session over a real socket.
fn drive_ssh(addr: SocketAddr, script: ClientScript) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    stream.set_nodelay(true).ok();
    let mut client = SshClient::new(script, b"http-test-nonce".to_vec());
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(60);
    while !client.is_closed() {
        assert!(Instant::now() < deadline, "client dialogue stalled");
        let out = client.take_output();
        if !out.is_empty() {
            stream.write_all(&out).expect("client write");
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => client.input(&buf[..n]).expect("client protocol"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("client read failed: {e}"),
        }
    }
    let out = client.take_output();
    if !out.is_empty() {
        let _ = stream.write_all(&out);
    }
}

/// One plain HTTP/1.1 GET with `Connection: close`; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("http connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("http write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("http read");
    let text = String::from_utf8(raw).expect("http response is utf-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, body.to_string())
}

/// Spins until the live snapshot has folded in `n` sessions.
fn wait_for_sessions(handle: &ServerHandle, n: u64) -> Arc<ApiSnapshot> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = handle.api_snapshot().expect("aggregator running");
        if snap.taxonomy.total_sessions >= n {
            return snap;
        }
        assert!(
            Instant::now() < deadline,
            "snapshot stuck at {} of {n} sessions",
            snap.taxonomy.total_sessions
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The equivalence oracle: replays the sealed store through the same core
/// accumulators batch `analyze` uses and insists the live snapshot already
/// said exactly that.
fn assert_snapshot_matches_store(snap: &ApiSnapshot, dir: &Path) {
    use honeylab_core::logins::TopPasswordsAccumulator;
    use honeylab_core::taxonomy::TaxonomyAccumulator;

    let store = sessiondb::Store::open(dir).expect("open sealed store");
    let mut taxonomy = TaxonomyAccumulator::default();
    let mut credentials = TopPasswordsAccumulator::new(TOP_CREDENTIALS);
    let mut rows = 0u64;
    for rec in store.scan().records() {
        let rec = rec.expect("intact CRCs");
        taxonomy.push(&rec);
        credentials.push(&rec);
        rows += 1;
    }
    assert!(rows > 0, "store holds the spilled sessions");
    assert_eq!(
        snap.taxonomy,
        taxonomy.finish(),
        "live taxonomy must equal the post-hoc pass over the store"
    );
    // TopPasswords has no PartialEq; its v1 JSON rendering is the wire
    // contract anyway, so compare that.
    assert_eq!(
        honeylab_core::api::passwords_json(&snap.credentials).pretty(),
        honeylab_core::api::passwords_json(&credentials.finish()).pretty(),
        "live credential ranking must equal the post-hoc pass"
    );
}

#[test]
fn api_stats_equal_post_hoc_analysis_over_the_store() {
    let dir = temp_store("equivalence");
    let cfg = ServeConfig {
        store_dir: Some(dir.clone()),
        workers: 4,
        http_port: Some(0),
        stats_interval: None,
        rows_per_segment: 5, // several sealed segments from 12 sessions
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let ssh = handle.addrs().ssh.expect("ssh addr");
    let http = handle.addrs().http.expect("http addr");

    let n = 12u64;
    std::thread::scope(|scope| {
        for i in 0..n {
            scope.spawn(move || {
                let script = ClientScript::new(
                    "root",
                    &["wrong-guess", "admin"],
                    &[&format!("echo live-{i}"), "uname -a"],
                );
                drive_ssh(ssh, script);
            });
        }
    });
    let snap = wait_for_sessions(&handle, n);

    // The HTTP plane serves the very same snapshot object.
    let (status, body) = http_get(http, "/api/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"honeylab_api\": \"v1\""), "{body}");
    assert!(body.contains("\"kind\": \"stats\""), "{body}");
    assert!(body.contains(&format!("\"total_sessions\": {n}")), "{body}");
    let (status, body) = http_get(http, "/api/sessions/recent");
    assert_eq!(status, 200);
    assert_eq!(body.matches("\"class\"").count(), n as usize);
    let (status, body) = http_get(http, "/api/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    let (status, _) = http_get(http, "/api/no-such-thing");
    assert_eq!(status, 404);

    handle.trigger_shutdown();
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, n);
    assert_eq!(report.ingest.accepted, n);

    assert_snapshot_matches_store(&snap, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sse_feed_streams_one_frame_per_session() {
    let cfg = ServeConfig {
        workers: 2,
        http_port: Some(0),
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let ssh = handle.addrs().ssh.expect("ssh addr");
    let http = handle.addrs().http.expect("http addr");

    // Subscribe before any session exists.
    let mut stream = TcpStream::connect(http).expect("sse connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    stream
        .write_all(b"GET /events HTTP/1.1\r\nHost: test\r\nAccept: text/event-stream\r\n\r\n")
        .expect("sse request");

    // Read the response head first; everything after it is SSE frames.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    let deadline = Instant::now() + Duration::from_secs(10);
    while !head.ends_with(b"\r\n\r\n") {
        assert!(Instant::now() < deadline, "SSE headers never completed");
        match stream.read(&mut byte) {
            Ok(0) => panic!("server closed the SSE stream during headers"),
            Ok(_) => head.extend_from_slice(&byte),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("SSE read failed: {e}"),
        }
    }
    let head = String::from_utf8(head).expect("utf-8 headers");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Content-Type: text/event-stream"), "{head}");

    let n = 3usize;
    for i in 0..n {
        let script = ClientScript::new("root", &["admin"], &[&format!("echo sse-{i}")]);
        drive_ssh(ssh, script);
    }

    // Every closed session must arrive as a parseable `session` frame
    // carrying a v1 `session_event` envelope.
    let mut parser = FrameParser::default();
    let mut sessions = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(20);
    while sessions.len() < n {
        assert!(
            Instant::now() < deadline,
            "only {} of {n} SSE session frames arrived",
            sessions.len()
        );
        match stream.read(&mut buf) {
            Ok(0) => panic!("server closed the SSE stream early"),
            Ok(read) => {
                for ev in parser.push(&buf[..read]) {
                    if ev.event == "session" {
                        sessions.push(ev.data);
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("SSE read failed: {e}"),
        }
    }
    // Live frames are compact-rendered (one `data:` line per frame).
    for (i, data) in sessions.iter().enumerate() {
        assert!(
            data.contains("\"honeylab_api\":\"v1\""),
            "frame {i}: {data}"
        );
        assert!(data.contains("\"kind\":\"session\""), "frame {i}: {data}");
        assert!(data.contains("\"protocol\":\"ssh\""), "frame {i}: {data}");
    }

    // Drain must hang up on the subscriber, not strand it.
    handle.trigger_shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "SSE stream survived the drain");
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break, // reset is as good as EOF here
        }
    }
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, n as u64);
}

/// The acceptance bar from the issue: 200 concurrent attackers with a
/// dashboard polling throughout, zero shed, and the final live totals
/// exactly equal to batch analysis of the store.
#[test]
fn polling_dashboard_causes_zero_shed_under_200_clients() {
    const CLIENTS: usize = 200;
    let dir = temp_store("dashboard-load");
    let cfg = ServeConfig {
        store_dir: Some(dir.clone()),
        workers: 4,
        http_port: Some(0),
        stats_interval: None,
        max_connections: CLIENTS + 50,
        per_ip_limit: CLIENTS + 50,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let ssh = handle.addrs().ssh.expect("ssh addr");
    let http = handle.addrs().http.expect("http addr");

    // The dashboard: hammer /api/stats on its own connections for the
    // whole duration of the barrage.
    let stop = Arc::new(AtomicBool::new(false));
    let polls = Arc::new(AtomicU64::new(0));
    let dashboard = {
        let stop = Arc::clone(&stop);
        let polls = Arc::clone(&polls);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = http_get(http, "/api/stats");
                assert_eq!(status, 200);
                assert!(body.contains("\"honeylab_api\": \"v1\""));
                polls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // All attackers arrive together.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut clients = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let barrier = Arc::clone(&barrier);
        clients.push(std::thread::spawn(move || {
            let script =
                ClientScript::new("root", &["admin"], &[&format!("echo load-{i}"), "uname -a"]);
            barrier.wait();
            drive_ssh(ssh, script);
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    let snap = wait_for_sessions(&handle, CLIENTS as u64);

    stop.store(true, Ordering::Relaxed);
    dashboard.join().expect("dashboard thread");
    assert!(
        polls.load(Ordering::Relaxed) >= 10,
        "the dashboard really polled during the run"
    );

    handle.trigger_shutdown();
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, CLIENTS as u64);
    assert_eq!(
        report.snapshot.shed_capacity, 0,
        "zero shed with dashboard attached"
    );
    assert_eq!(report.snapshot.shed_per_ip, 0);
    assert_eq!(report.snapshot.wire_errors, 0);
    assert_eq!(report.ingest.accepted, CLIENTS as u64);

    // Live == batch, at full load.
    assert_snapshot_matches_store(&snap, &dir);
    // And the windows saw the admissions the gate counted.
    let w1h = &snap.windows[2];
    assert_eq!(w1h.label, "1h");
    assert_eq!(w1h.admitted, CLIENTS as u64);
    assert_eq!(w1h.shed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dashboard peer cannot hold the server open: one that pipelines
/// 50,000 requests and stops reading is closed by the drain, and `join`
/// returns while the peer still holds its end.
#[test]
fn a_peer_that_never_reads_cannot_hold_the_server_open() {
    let cfg = ServeConfig {
        workers: 1,
        http_port: Some(0),
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let http = handle.addrs().http.expect("http addr");
    let mut peer = TcpStream::connect(http).expect("http connect");
    let mut first = peer.try_clone().expect("clone peer");
    let writer = std::thread::spawn(move || {
        let pipeline = b"GET /api/stats HTTP/1.1\r\nHost: test\r\n\r\n".repeat(50_000);
        // Blocks once the server stops reading; fails once it closes.
        let _ = peer.write_all(&pipeline);
        peer
    });
    // One byte of the first response shows the server is answering
    // this peer; after it the peer never reads again.
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    first.read_exact(&mut [0u8; 1]).expect("the server answers");

    handle.trigger_shutdown();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let joiner = std::thread::spawn(move || {
        let _ = done_tx.send(handle.join());
    });
    let report = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("join returned within 10 s of the drain request")
        .expect("join");
    joiner.join().expect("joiner thread");
    assert_eq!(report.snapshot.completed, 0);
    assert_eq!(report.snapshot.panics_caught, 0);
    let peer = writer.join().expect("writer thread");
    drop((peer, first));
}
