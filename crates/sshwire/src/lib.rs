//! `sshwire` — a minimal SSH-2 protocol implementation.
//!
//! The honeynet's sensors speak enough SSH for brute-forcing bots to log in
//! and run commands. This crate implements that slice of RFC 4253/4252/4254
//! over an in-memory byte transport:
//!
//! * identification-string exchange (`SSH-2.0-…`),
//! * binary packet protocol framing ([`packet`]),
//! * algorithm negotiation and a *stub* key exchange ([`msg`], documented
//!   below),
//! * password user authentication with per-attempt accept/reject,
//! * a single `session` channel carrying `exec` requests and their output.
//!
//! Both machines work in place. A packet is verified where it lies in
//! the bytes the caller passed to `input`, decoded into a [`Message`]
//! that borrows from it, and handled before it is consumed; only what a
//! version line or packet leaves incomplete is copied aside. Outgoing
//! messages are encoded and sealed straight onto the machine's output
//! queue.
//!
//! **Scope note.** The study's analysis never depends on confidentiality —
//! honeypots *want* to read attacker traffic — so the key exchange derives
//! its "shared secret" from the exchanged nonces with SHA-256 instead of
//! real Diffie-Hellman, and packets stay unencrypted with a SHA-256-based
//! integrity tag. Framing, message order, state machines and failure modes
//! follow the RFCs, which is what the honeypot and session taxonomy rely
//! on. This substitution is recorded in DESIGN.md.

pub mod client;
pub mod msg;
pub mod packet;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{ClientEvent, ClientScript, SshClient};
pub use msg::Message;
pub use server::{AuthOutcome, ServerHandler, SshServer};
pub use transport::{run_dialogue, DialogueLog};

/// Protocol version identifier this implementation sends.
pub const CLIENT_VERSION_DEFAULT: &str = "SSH-2.0-Go";
/// Server identification mimicking a stock OpenSSH, as Cowrie does.
pub const SERVER_VERSION_DEFAULT: &str = "SSH-2.0-OpenSSH_8.2p1 Ubuntu-4ubuntu0.5";

/// Errors surfaced by the protocol state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SshError {
    /// Peer's identification line was not `SSH-2.0-*`.
    BadVersionExchange(String),
    /// A packet violated framing rules (length, padding, tag).
    Framing(String),
    /// A message arrived that is invalid in the current state.
    Protocol(String),
    /// Malformed message payload.
    Decode(String),
    /// The peer disconnected mid-dialogue.
    Disconnected,
}

impl std::fmt::Display for SshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SshError::BadVersionExchange(s) => write!(f, "bad version exchange: {s}"),
            SshError::Framing(s) => write!(f, "framing error: {s}"),
            SshError::Protocol(s) => write!(f, "protocol violation: {s}"),
            SshError::Decode(s) => write!(f, "malformed payload: {s}"),
            SshError::Disconnected => write!(f, "peer disconnected"),
        }
    }
}

impl std::error::Error for SshError {}
