//! Client-side SSH state machine: a scripted bot.
//!
//! Real attack traffic is generated by automation that follows a fixed
//! script — try credentials from a list, then (maybe) run commands. The
//! [`ClientScript`] captures exactly that, and [`SshClient`] plays it over
//! the wire protocol.

use crate::msg::{KexInit, Message};
use crate::packet::{feed, split_line, PacketCodec};
use crate::server::derive_session_key;
use crate::wire::{get_u32, put_string};
use crate::SshError;
use bytes::Bytes;

/// What a scripted client should attempt.
#[derive(Debug, Clone)]
pub struct ClientScript {
    /// Identification string, e.g. `SSH-2.0-Go` or `SSH-2.0-libssh2_1.8.0`.
    pub version: String,
    /// Login name (the honeynet only admits `root` plus Cowrie defaults).
    pub username: String,
    /// Passwords to try in order; the client stops at the first success.
    pub passwords: Vec<String>,
    /// Commands to execute (one `exec` channel each) once authenticated.
    /// Leave empty to model an *intrusion* (login, no commands).
    pub commands: Vec<String>,
    /// If true the client disconnects immediately after auth succeeds,
    /// before opening any channel (the `3245gs5662d34` behaviour).
    pub hangup_after_auth: bool,
}

impl ClientScript {
    /// A typical loader-bot script.
    pub fn new(username: &str, passwords: &[&str], commands: &[&str]) -> Self {
        Self {
            version: crate::CLIENT_VERSION_DEFAULT.to_string(),
            username: username.to_string(),
            passwords: passwords.iter().map(|s| s.to_string()).collect(),
            commands: commands.iter().map(|s| s.to_string()).collect(),
            hangup_after_auth: false,
        }
    }
}

/// Observable milestones of a client dialogue, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// Server identification received.
    ServerVersion(String),
    /// Key exchange finished; transport keys in effect.
    KeysEstablished,
    /// One auth attempt failed.
    AuthFailed {
        /// Password that was rejected.
        password: String,
    },
    /// Authentication succeeded.
    AuthSucceeded {
        /// Accepted password.
        password: String,
    },
    /// All scripted passwords were rejected.
    AuthExhausted,
    /// Output received for the `i`-th scripted command.
    CommandOutput {
        /// Index into [`ClientScript::commands`].
        index: usize,
        /// Raw output bytes.
        output: Vec<u8>,
        /// Exit status reported by the server.
        status: Option<u32>,
    },
    /// Dialogue finished and the client disconnected.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    VersionExchange,
    Kex,
    AwaitKexReply,
    AwaitNewKeys,
    AwaitServiceAccept,
    Auth,
    OpenChannel,
    RunCommand,
    Closed,
}

/// Client endpoint; same byte-in/byte-out discipline as the server.
pub struct SshClient {
    script: ClientScript,
    phase: Phase,
    tx: PacketCodec,
    rx: PacketCodec,
    /// The incomplete line or packet the last input ended with.
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    client_nonce: Vec<u8>,
    session_key: Option<[u8; 32]>,
    next_password: usize,
    current_command: usize,
    current_output: Vec<u8>,
    current_status: Option<u32>,
    channel_open: bool,
    events: Vec<ClientEvent>,
}

impl SshClient {
    /// Creates a client that will play `script`; `client_nonce` is the
    /// deterministic key-exchange contribution.
    pub fn new(script: ClientScript, client_nonce: Vec<u8>) -> Self {
        let mut c = Self {
            script,
            phase: Phase::VersionExchange,
            tx: PacketCodec::new(),
            rx: PacketCodec::new(),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            client_nonce,
            session_key: None,
            next_password: 0,
            current_command: 0,
            current_output: Vec::new(),
            current_status: None,
            channel_open: false,
            events: Vec::new(),
        };
        c.outbuf.extend_from_slice(c.script.version.as_bytes());
        c.outbuf.extend_from_slice(b"\r\n");
        c
    }

    /// Milestones observed so far.
    pub fn events(&self) -> &[ClientEvent] {
        &self.events
    }

    /// Consumes the client, returning the full event list.
    pub fn into_events(self) -> Vec<ClientEvent> {
        self.events
    }

    /// Whether the dialogue is over.
    pub fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// Drains bytes queued for the server.
    pub fn take_output(&mut self) -> Bytes {
        Bytes::from(std::mem::take(&mut self.outbuf))
    }

    /// Feeds raw bytes from the server. A closed client drops its input.
    pub fn input(&mut self, data: &[u8]) -> Result<(), SshError> {
        if self.phase == Phase::Closed {
            return Ok(());
        }
        let mut pending = std::mem::take(&mut self.inbuf);
        let r = feed(&mut pending, data, |bytes| self.consume(bytes));
        if r.is_err() {
            self.phase = Phase::Closed;
        }
        if self.phase != Phase::Closed {
            self.inbuf = pending;
        }
        r
    }

    /// Seals `msg` onto the output queue.
    fn send(&mut self, msg: &Message<'_>) {
        self.tx.seal(&mut self.outbuf, |b| msg.encode_into(b));
    }

    fn finish(&mut self) {
        self.send(&Message::Disconnect {
            code: 11,
            description: "bye",
        });
        self.events.push(ClientEvent::Done);
        self.phase = Phase::Closed;
    }

    /// Handles every complete line or packet at the front of `buf`;
    /// returns how many bytes that used (all of them once closed).
    fn consume(&mut self, buf: &[u8]) -> Result<usize, SshError> {
        let mut used = 0;
        loop {
            let rest = &buf[used..];
            match self.phase {
                Phase::Closed => return Ok(buf.len()),
                Phase::VersionExchange => {
                    let Some((line, len)) = split_line(rest) else {
                        return Ok(used);
                    };
                    used += len;
                    let line = String::from_utf8_lossy(line).into_owned();
                    if !line.starts_with("SSH-2.0-") {
                        return Err(SshError::BadVersionExchange(line));
                    }
                    self.events.push(ClientEvent::ServerVersion(line));
                    self.send(&Message::KexInit(KexInit::default_with_cookie([0xA5; 16])));
                    // The message borrows `client_nonce`, so it is sealed
                    // through the two fields `send` would take with `self`.
                    let init = Message::KexdhInit {
                        e: &self.client_nonce,
                    };
                    self.tx.seal(&mut self.outbuf, |b| init.encode_into(b));
                    self.phase = Phase::Kex;
                }
                _ => {
                    let Some((payload, len)) = self.rx.open(rest)? else {
                        return Ok(used);
                    };
                    self.handle(Message::decode(payload)?)?;
                    used += len;
                }
            }
        }
    }

    fn try_next_password(&mut self) {
        if self.next_password >= self.script.passwords.len() {
            self.events.push(ClientEvent::AuthExhausted);
            self.finish();
            return;
        }
        // Borrows the script: sealed as in the version exchange.
        let request = Message::UserauthRequest {
            username: &self.script.username,
            service: "ssh-connection",
            password: Some(&self.script.passwords[self.next_password]),
        };
        self.tx.seal(&mut self.outbuf, |b| request.encode_into(b));
        self.next_password += 1;
    }

    fn open_channel_or_finish(&mut self) {
        if self.current_command >= self.script.commands.len() {
            self.finish();
            return;
        }
        self.send(&Message::ChannelOpen {
            kind: "session",
            sender: self.current_command as u32,
            window: 1 << 20,
            max_packet: 32_768,
        });
        self.phase = Phase::OpenChannel;
    }

    fn handle(&mut self, msg: Message<'_>) -> Result<(), SshError> {
        match (self.phase, msg) {
            (_, Message::Disconnect { .. }) => {
                self.phase = Phase::Closed;
                Ok(())
            }
            (Phase::Kex, Message::KexInit(_)) => {
                self.phase = Phase::AwaitKexReply;
                Ok(())
            }
            (Phase::AwaitKexReply, Message::KexdhReply { f, .. }) => {
                let key = derive_session_key(&self.client_nonce, f);
                self.session_key = Some(key);
                self.send(&Message::NewKeys);
                self.tx.enable_integrity(key);
                self.phase = Phase::AwaitNewKeys;
                Ok(())
            }
            (Phase::AwaitNewKeys, Message::NewKeys) => {
                let key = self.session_key.expect("session key set in AwaitKexReply");
                self.rx.enable_integrity(key);
                self.events.push(ClientEvent::KeysEstablished);
                self.send(&Message::ServiceRequest("ssh-userauth"));
                self.phase = Phase::AwaitServiceAccept;
                Ok(())
            }
            (Phase::AwaitServiceAccept, Message::ServiceAccept(_)) => {
                self.phase = Phase::Auth;
                self.try_next_password();
                Ok(())
            }
            (Phase::Auth, Message::UserauthFailure { .. }) => {
                let failed = self.script.passwords[self.next_password - 1].clone();
                self.events
                    .push(ClientEvent::AuthFailed { password: failed });
                self.try_next_password();
                Ok(())
            }
            (Phase::Auth, Message::UserauthSuccess) => {
                let pw = self.script.passwords[self.next_password - 1].clone();
                self.events
                    .push(ClientEvent::AuthSucceeded { password: pw });
                if self.script.hangup_after_auth {
                    self.finish();
                } else {
                    self.open_channel_or_finish();
                }
                Ok(())
            }
            (Phase::OpenChannel, Message::ChannelOpenConfirmation { sender, .. }) => {
                self.channel_open = true;
                self.current_output.clear();
                self.current_status = None;
                let mut command = Vec::new();
                put_string(
                    &mut command,
                    self.script.commands[self.current_command].as_bytes(),
                );
                self.send(&Message::ChannelRequest {
                    recipient: sender,
                    kind: "exec",
                    want_reply: true,
                    payload: &command,
                });
                self.phase = Phase::RunCommand;
                Ok(())
            }
            (Phase::OpenChannel, Message::ChannelOpenFailure { .. }) => {
                self.finish();
                Ok(())
            }
            (Phase::RunCommand, Message::ChannelSuccess { .. }) => Ok(()),
            (Phase::RunCommand, Message::ChannelFailure { .. }) => {
                self.finish();
                Ok(())
            }
            (Phase::RunCommand, Message::ChannelData { data, .. }) => {
                self.current_output.extend_from_slice(data);
                Ok(())
            }
            (Phase::RunCommand, Message::ChannelRequest { kind, payload, .. }) => {
                if kind == "exit-status" {
                    let mut p = payload;
                    self.current_status = Some(get_u32(&mut p)?);
                }
                Ok(())
            }
            (Phase::RunCommand, Message::ChannelEof { .. }) => Ok(()),
            (Phase::RunCommand, Message::ChannelClose { recipient: _ }) => {
                self.channel_open = false;
                self.events.push(ClientEvent::CommandOutput {
                    index: self.current_command,
                    output: std::mem::take(&mut self.current_output),
                    status: self.current_status,
                });
                self.current_command += 1;
                self.open_channel_or_finish();
                Ok(())
            }
            (phase, other) => Err(SshError::Protocol(format!(
                "client: unexpected {other:?} in {phase:?}"
            ))),
        }
    }
}
