//! The session-record schema (paper §3.2).
//!
//! This is the contract between the sensors and the analysis pipeline: for
//! each session the honeypot records timing, endpoints, the client SSH
//! version, every login attempt, every command (tagged known/unknown),
//! every URI seen in commands, and a SHA-256 for every file created or
//! modified. Nothing else crosses the boundary — in particular, file
//! *contents* never do.

use hutil::DateTime;
use netsim::Ipv4Addr;

/// Which service the client spoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP/22.
    Ssh,
    /// TCP/23.
    Telnet,
}

/// How the session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEndReason {
    /// Client tore the connection down.
    ClientClose,
    /// The honeypot's 3-minute idle timer fired.
    Timeout,
}

/// One credential attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoginAttempt {
    /// Username as supplied.
    pub username: String,
    /// Password as supplied.
    pub password: String,
    /// Whether the honeypot accepted it.
    pub success: bool,
}

/// One executed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandRecord {
    /// The raw input line.
    pub input: String,
    /// Whether the shell emulated it ("known") or merely recorded it.
    pub known: bool,
}

/// What happened to a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileOp {
    /// File came into existence; hash of its content.
    Created {
        /// SHA-256 (hex) of the content.
        sha256: String,
    },
    /// Content replaced/extended; hash of the new content.
    Modified {
        /// SHA-256 (hex) of the new content.
        sha256: String,
    },
    /// File removed.
    Deleted,
    /// A command tried to execute the file. `sha256` is present when the
    /// file existed (created/downloaded earlier in the session) and absent
    /// when it was never captured — the paper's "file missing" case, caused
    /// by transfer methods Cowrie does not emulate (scp/rsync/SFTP).
    ExecAttempt {
        /// Hash if the file existed at exec time.
        sha256: Option<String>,
    },
    /// A download command ran but the remote store had nothing for the URI
    /// (dead dropper). No file was created.
    DownloadFailed,
}

/// A file event inside a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEvent {
    /// Absolute path after shell resolution.
    pub path: String,
    /// The operation.
    pub op: FileOp,
    /// For files written by a download command: the URI they came from
    /// (Cowrie stores retrieved files keyed by URL). `None` for local
    /// writes (echo/cat/dd/…).
    pub source_uri: Option<String>,
}

/// Everything one honeypot records about one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// Collector-assigned id (dense, in arrival order).
    pub session_id: u64,
    /// Which sensor.
    pub honeypot_id: u16,
    /// Sensor address.
    pub honeypot_ip: Ipv4Addr,
    /// Client address.
    pub client_ip: Ipv4Addr,
    /// Client source port.
    pub client_port: u16,
    /// Service.
    pub protocol: Protocol,
    /// TCP handshake completion time.
    pub start: DateTime,
    /// Session end (close or timeout).
    pub end: DateTime,
    /// Why it ended.
    pub end_reason: SessionEndReason,
    /// Client identification string (SSH only).
    pub client_version: Option<String>,
    /// Login attempts in order.
    pub logins: Vec<LoginAttempt>,
    /// Commands in order (empty unless a login succeeded).
    pub commands: Vec<CommandRecord>,
    /// URIs extracted from commands.
    pub uris: Vec<String>,
    /// File events in order.
    pub file_events: Vec<FileEvent>,
}

impl SessionRecord {
    /// Did any login attempt succeed?
    pub fn login_succeeded(&self) -> bool {
        self.logins.iter().any(|l| l.success)
    }

    /// The accepted password, if any.
    pub fn accepted_password(&self) -> Option<&str> {
        self.logins
            .iter()
            .find(|l| l.success)
            .map(|l| l.password.as_str())
    }

    /// The username that logged in, if any.
    pub fn accepted_username(&self) -> Option<&str> {
        self.logins
            .iter()
            .find(|l| l.success)
            .map(|l| l.username.as_str())
    }

    /// Whether any command altered honeypot state (file create/modify/
    /// delete — the Fig. 1 split).
    pub fn changes_state(&self) -> bool {
        self.file_events.iter().any(|e| {
            matches!(
                e.op,
                FileOp::Created { .. } | FileOp::Modified { .. } | FileOp::Deleted
            )
        })
    }

    /// The paper's Fig. 1 notion of "changing the state": file mutations
    /// *or* attempted executions (Fig. 3 groups both under sessions that
    /// change the honeypot's initial state).
    pub fn paper_state_changing(&self) -> bool {
        self.changes_state() || self.attempts_exec()
    }

    /// Whether any command attempted to execute a file (Fig. 3b/4).
    pub fn attempts_exec(&self) -> bool {
        self.file_events
            .iter()
            .any(|e| matches!(e.op, FileOp::ExecAttempt { .. }))
    }

    /// Hashes of files whose execution was attempted and that existed
    /// ("file exists" in Fig. 4a).
    pub fn exec_hashes(&self) -> impl Iterator<Item = &str> {
        self.file_events.iter().filter_map(|e| match &e.op {
            FileOp::ExecAttempt { sha256: Some(h) } => Some(h.as_str()),
            _ => None,
        })
    }

    /// Whether some exec attempt referenced a file the honeypot never saw
    /// ("file missing" in Fig. 4b).
    pub fn has_missing_exec(&self) -> bool {
        self.file_events
            .iter()
            .any(|e| matches!(e.op, FileOp::ExecAttempt { sha256: None }))
    }

    /// All hashes of files created or modified during the session.
    pub fn dropped_hashes(&self) -> impl Iterator<Item = &str> {
        self.file_events.iter().filter_map(|e| match &e.op {
            FileOp::Created { sha256 } | FileOp::Modified { sha256 } => Some(sha256.as_str()),
            _ => None,
        })
    }

    /// The single command string for classification: Cowrie logs each line;
    /// the paper classifies per session on the concatenation.
    pub fn command_text(&self) -> String {
        let mut s = String::new();
        self.command_text_into(&mut s);
        s
    }

    /// [`SessionRecord::command_text`] written over `out`, so a caller
    /// that classifies session after session reuses one buffer.
    pub fn command_text_into(&self, out: &mut String) {
        out.clear();
        for (i, c) in self.commands.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&c.input);
        }
    }

    /// Session duration in seconds.
    pub fn duration_secs(&self) -> i64 {
        self.end.secs_since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hutil::Date;

    fn base() -> SessionRecord {
        SessionRecord {
            session_id: 1,
            honeypot_id: 0,
            honeypot_ip: Ipv4Addr::from_octets(100, 0, 0, 1),
            client_ip: Ipv4Addr::from_octets(10, 0, 0, 1),
            client_port: 51234,
            protocol: Protocol::Ssh,
            start: Date::new(2022, 3, 1).at(12, 0, 0),
            end: Date::new(2022, 3, 1).at(12, 0, 40),
            end_reason: SessionEndReason::ClientClose,
            client_version: Some("SSH-2.0-Go".into()),
            logins: vec![LoginAttempt {
                username: "root".into(),
                password: "admin".into(),
                success: true,
            }],
            commands: vec![],
            uris: vec![],
            file_events: vec![],
        }
    }

    #[test]
    fn login_accessors() {
        let r = base();
        assert!(r.login_succeeded());
        assert_eq!(r.accepted_password(), Some("admin"));
        assert_eq!(r.accepted_username(), Some("root"));
        assert_eq!(r.duration_secs(), 40);
    }

    #[test]
    fn state_change_requires_file_mutation() {
        let mut r = base();
        assert!(!r.changes_state());
        r.file_events.push(FileEvent {
            path: "/tmp/x".into(),
            op: FileOp::ExecAttempt { sha256: None },
            source_uri: None,
        });
        assert!(
            !r.changes_state(),
            "exec attempt alone is not a state change"
        );
        r.file_events.push(FileEvent {
            path: "/tmp/y".into(),
            op: FileOp::Created {
                sha256: "ab".repeat(32),
            },
            source_uri: None,
        });
        assert!(r.changes_state());
    }

    #[test]
    fn exec_hash_partition() {
        let mut r = base();
        r.file_events = vec![
            FileEvent {
                path: "/tmp/a".into(),
                op: FileOp::ExecAttempt {
                    sha256: Some("aa".into()),
                },
                source_uri: None,
            },
            FileEvent {
                path: "/tmp/b".into(),
                op: FileOp::ExecAttempt { sha256: None },
                source_uri: None,
            },
        ];
        assert!(r.attempts_exec());
        assert!(r.has_missing_exec());
        assert_eq!(r.exec_hashes().collect::<Vec<_>>(), vec!["aa"]);
    }

    #[test]
    fn command_text_joins_lines() {
        let mut r = base();
        r.commands = vec![
            CommandRecord {
                input: "mkdir /tmp".into(),
                known: true,
            },
            CommandRecord {
                input: "cd /tmp".into(),
                known: true,
            },
        ];
        assert_eq!(r.command_text(), "mkdir /tmp\ncd /tmp");
    }
}
