//! Server-side SSH state machine (the honeypot's wire frontend).

use crate::msg::{KexInit, Message};
use crate::packet::{feed, split_line, PacketCodec};
use crate::wire::get_string;
use crate::SshError;
use bytes::Bytes;
use hutil::Sha256;

/// Verdict for one authentication attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthOutcome {
    /// Attempt accepted; the session proceeds to the connection layer.
    Accept,
    /// Attempt rejected; the client may retry.
    Reject,
}

/// Callbacks through which the honeypot drives policy: who may log in and
/// what executing a command produces.
pub trait ServerHandler {
    /// Decides one auth attempt. `password` is `None` for the `none` probe.
    fn auth(&mut self, username: &str, password: Option<&str>) -> AuthOutcome;

    /// Executes `command`, returning emulated output and an exit status.
    fn exec(&mut self, command: &str) -> (Vec<u8>, u32);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    VersionExchange,
    Kex,
    KexDh,
    AwaitNewKeys,
    Auth,
    Connected,
    Closed,
}

/// Longest identification line a peer may send, CR LF included
/// (RFC 4253 §4.2). Past it, without a line end, the connection fails.
pub const MAX_VERSION_LINE: usize = 255;

/// The server endpoint. Feed raw bytes with [`SshServer::input`], drain
/// output with [`SshServer::take_output`] or
/// [`SshServer::drain_output_into`].
///
/// Input is decoded where it lies: only what a version line or packet
/// leaves incomplete is buffered, and once the machine is closed its
/// input is dropped. Output is sealed straight onto one queue.
pub struct SshServer<H: ServerHandler> {
    handler: H,
    phase: Phase,
    tx: PacketCodec,
    rx: PacketCodec,
    /// The incomplete version line or packet the last input ended with.
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    peer_version: Option<String>,
    kex_cookie: [u8; 16],
    /// The key-exchange contribution; spent (and emptied) by the reply.
    server_nonce: Vec<u8>,
    session_key: Option<[u8; 32]>,
    /// Username that successfully authenticated, if any.
    authenticated_user: Option<String>,
    /// Auth attempts as (username, password-or-None, accepted).
    auth_log: Vec<(String, Option<String>, bool)>,
    /// Executed commands in order.
    exec_log: Vec<String>,
    open_channel: Option<u32>,
}

impl<H: ServerHandler> SshServer<H> {
    /// Creates a server with deterministic key-exchange material. The
    /// identification string `version` goes out at once (RFC 4253 §4.2).
    pub fn new(handler: H, version: &str, kex_cookie: [u8; 16], server_nonce: Vec<u8>) -> Self {
        let mut outbuf = Vec::with_capacity(version.len() + 2);
        outbuf.extend_from_slice(version.as_bytes());
        outbuf.extend_from_slice(b"\r\n");
        Self {
            handler,
            phase: Phase::VersionExchange,
            tx: PacketCodec::new(),
            rx: PacketCodec::new(),
            inbuf: Vec::new(),
            outbuf,
            peer_version: None,
            kex_cookie,
            server_nonce,
            session_key: None,
            authenticated_user: None,
            auth_log: Vec::new(),
            exec_log: Vec::new(),
            open_channel: None,
        }
    }

    /// The peer's identification string once received.
    pub fn peer_version(&self) -> Option<&str> {
        self.peer_version.as_deref()
    }

    /// Auth attempts seen so far: `(username, password, accepted)`.
    pub fn auth_log(&self) -> &[(String, Option<String>, bool)] {
        &self.auth_log
    }

    /// Commands executed so far.
    pub fn exec_log(&self) -> &[String] {
        &self.exec_log
    }

    /// The authenticated username, if auth succeeded.
    pub fn authenticated_user(&self) -> Option<&str> {
        self.authenticated_user.as_deref()
    }

    /// Whether the connection reached its terminal state.
    pub fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// Drains bytes queued for the peer. The queue keeps its allocation.
    pub fn take_output(&mut self) -> Bytes {
        let out = Bytes::from(&self.outbuf[..]);
        self.outbuf.clear();
        out
    }

    /// Appends the bytes queued for the peer to `out` and empties the
    /// queue, keeping its allocation for the next round. Returns how
    /// many bytes moved.
    pub fn drain_output_into(&mut self, out: &mut Vec<u8>) -> usize {
        let n = self.outbuf.len();
        out.extend_from_slice(&self.outbuf);
        self.outbuf.clear();
        n
    }

    /// Consumes the handler, for post-dialogue inspection.
    pub fn into_handler(self) -> H {
        self.handler
    }

    /// Feeds raw bytes from the peer, advancing the state machine as far as
    /// possible. On error the connection is closed (as a real server would
    /// tear it down). A closed machine drops its input.
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

    /// Handles every complete version line or packet at the front of
    /// `buf`. Returns how many bytes that used: all of them once the
    /// machine is closed, since a closed machine drops its input.
    fn consume(&mut self, buf: &[u8]) -> Result<usize, SshError> {
        let mut used = 0;
        loop {
            let rest = &buf[used..];
            match self.phase {
                Phase::Closed => return Ok(buf.len()),
                Phase::VersionExchange => {
                    let window = &rest[..rest.len().min(MAX_VERSION_LINE)];
                    let Some((line, len)) = split_line(window) else {
                        if rest.len() >= MAX_VERSION_LINE {
                            return Err(SshError::BadVersionExchange(format!(
                                "no line end within {MAX_VERSION_LINE} bytes"
                            )));
                        }
                        return Ok(used);
                    };
                    let line = String::from_utf8_lossy(line).into_owned();
                    if !line.starts_with("SSH-2.0-") {
                        return Err(SshError::BadVersionExchange(line));
                    }
                    used += len;
                    self.peer_version = Some(line);
                    // Kick off negotiation.
                    self.send(&Message::KexInit(KexInit::default_with_cookie(
                        self.kex_cookie,
                    )));
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

    /// Seals `msg` onto the output queue.
    fn send(&mut self, msg: &Message<'_>) {
        self.tx.seal(&mut self.outbuf, |b| msg.encode_into(b));
    }

    fn disconnect(&mut self, code: u32, why: &str) {
        self.send(&Message::Disconnect {
            code,
            description: why,
        });
        self.phase = Phase::Closed;
    }

    fn handle(&mut self, msg: Message<'_>) -> Result<(), SshError> {
        match (self.phase, msg) {
            // A client may disconnect at any point.
            (_, Message::Disconnect { .. }) => {
                self.phase = Phase::Closed;
                Ok(())
            }
            (Phase::Kex, Message::KexInit(_peer)) => {
                self.phase = Phase::KexDh;
                Ok(())
            }
            (Phase::KexDh, Message::KexdhInit { e }) => {
                let nonce = std::mem::take(&mut self.server_nonce);
                let key = derive_session_key(e, &nonce);
                self.session_key = Some(key);
                self.send(&Message::KexdhReply {
                    host_key: b"sim-ed25519-hostkey",
                    f: &nonce,
                    signature: b"sim-signature",
                });
                self.send(&Message::NewKeys);
                // NEWKEYS takes effect for *subsequent* outgoing packets.
                self.tx.enable_integrity(key);
                self.phase = Phase::AwaitNewKeys;
                Ok(())
            }
            (Phase::AwaitNewKeys, Message::NewKeys) => {
                let key = self.session_key.expect("session key before peer NEWKEYS");
                self.rx.enable_integrity(key);
                self.phase = Phase::Auth;
                Ok(())
            }
            (Phase::Auth, Message::ServiceRequest(name)) => {
                if name != "ssh-userauth" {
                    return Err(SshError::Protocol(format!("unexpected service {name}")));
                }
                self.send(&Message::ServiceAccept(name));
                Ok(())
            }
            (
                Phase::Auth,
                Message::UserauthRequest {
                    username,
                    service,
                    password,
                },
            ) => {
                if service != "ssh-connection" {
                    return Err(SshError::Protocol(format!("unexpected service {service}")));
                }
                let outcome = self.handler.auth(username, password);
                let accepted = outcome == AuthOutcome::Accept;
                self.auth_log
                    .push((username.to_string(), password.map(str::to_string), accepted));
                if accepted {
                    self.authenticated_user = Some(username.to_string());
                    self.send(&Message::UserauthSuccess);
                    self.phase = Phase::Connected;
                } else {
                    self.send(&Message::UserauthFailure {
                        methods: "password",
                    });
                }
                Ok(())
            }
            (Phase::Connected, Message::ChannelOpen { kind, sender, .. }) => {
                if kind != "session" || self.open_channel.is_some() {
                    self.send(&Message::ChannelOpenFailure {
                        recipient: sender,
                        code: 2,
                    });
                    return Ok(());
                }
                self.open_channel = Some(sender);
                self.send(&Message::ChannelOpenConfirmation {
                    recipient: sender,
                    sender: 0,
                    window: 1 << 20,
                    max_packet: 32_768,
                });
                Ok(())
            }
            (
                Phase::Connected,
                Message::ChannelRequest {
                    recipient: _,
                    kind,
                    want_reply,
                    payload,
                },
            ) => {
                let Some(client_chan) = self.open_channel else {
                    return Err(SshError::Protocol("request without open channel".into()));
                };
                if kind != "exec" {
                    if want_reply {
                        self.send(&Message::ChannelFailure {
                            recipient: client_chan,
                        });
                    }
                    return Ok(());
                }
                let mut p = payload;
                let command = String::from_utf8_lossy(get_string(&mut p)?).into_owned();
                if want_reply {
                    self.send(&Message::ChannelSuccess {
                        recipient: client_chan,
                    });
                }
                let (output, status) = self.handler.exec(&command);
                self.exec_log.push(command);
                if !output.is_empty() {
                    self.send(&Message::ChannelData {
                        recipient: client_chan,
                        data: &output,
                    });
                }
                // exit-status, EOF, close — the usual server-side teardown.
                self.send(&Message::ChannelRequest {
                    recipient: client_chan,
                    kind: "exit-status",
                    want_reply: false,
                    payload: &status.to_be_bytes(),
                });
                self.send(&Message::ChannelEof {
                    recipient: client_chan,
                });
                self.send(&Message::ChannelClose {
                    recipient: client_chan,
                });
                // One exec per session channel: the channel is done once the
                // close goes out, freeing the slot for the client's next open.
                self.open_channel = None;
                Ok(())
            }
            (Phase::Connected, Message::ChannelClose { .. }) => {
                self.open_channel = None;
                Ok(())
            }
            (Phase::Connected, Message::ChannelEof { .. }) => Ok(()),
            (phase, other) => {
                self.disconnect(2, "protocol error");
                Err(SshError::Protocol(format!(
                    "unexpected {other:?} in {phase:?}"
                )))
            }
        }
    }
}

/// Both sides derive the integrity key from the exchanged nonces.
pub(crate) fn derive_session_key(client_nonce: &[u8], server_nonce: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"sim-kex-v1");
    h.update(client_nonce);
    h.update(server_nonce);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NullHandler;
    impl ServerHandler for NullHandler {
        fn auth(&mut self, _u: &str, _p: Option<&str>) -> AuthOutcome {
            AuthOutcome::Reject
        }
        fn exec(&mut self, _c: &str) -> (Vec<u8>, u32) {
            (Vec::new(), 0)
        }
    }

    #[test]
    fn sends_version_banner_immediately() {
        let mut s = SshServer::new(NullHandler, "SSH-2.0-Test", [0; 16], vec![1, 2, 3]);
        let out = s.take_output();
        assert_eq!(&out[..], b"SSH-2.0-Test\r\n");
    }

    #[test]
    fn rejects_non_ssh2_banner() {
        let mut s = SshServer::new(NullHandler, "SSH-2.0-Test", [0; 16], vec![1]);
        let err = s.input(b"SSH-1.5-old\r\n").unwrap_err();
        assert!(matches!(err, SshError::BadVersionExchange(_)));
        assert!(s.is_closed());
    }

    #[test]
    fn version_line_is_capped_at_255_bytes() {
        // 64 KiB without a line end, fed 1 KiB at a time: the first
        // chunk already passes the cap, and the connection fails there.
        let mut s = SshServer::new(NullHandler, "SSH-2.0-Test", [0; 16], vec![1]);
        let chunk = [b'A'; 1024];
        let err = s.input(&chunk).unwrap_err();
        assert!(matches!(err, SshError::BadVersionExchange(_)));
        assert!(s.is_closed());
        for _ in 1..64 {
            assert!(s.input(&chunk).is_ok(), "a closed machine ignores input");
        }
        assert!(s.inbuf.is_empty(), "a closed machine buffers nothing");

        // Likewise when the line fails after part of it was buffered.
        let mut s = SshServer::new(NullHandler, "SSH-2.0-Test", [0; 16], vec![1]);
        s.input(&chunk[..200]).unwrap();
        assert_eq!(s.inbuf.len(), 200, "an incomplete line waits");
        assert!(s.input(&chunk[..200]).is_err());
        for _ in 0..64 {
            s.input(&[b'A'; 16 * 1024]).unwrap();
        }
        assert_eq!(s.inbuf.capacity(), 0, "a closed machine buffers nothing");

        // Byte by byte, the failure comes with the 255th byte, not before.
        let mut s = SshServer::new(NullHandler, "SSH-2.0-Test", [0; 16], vec![1]);
        for fed in 1..MAX_VERSION_LINE {
            assert!(s.input(b"A").is_ok(), "failed after {fed} bytes");
        }
        assert!(s.input(b"A").is_err());

        // A line of exactly 255 bytes, CR LF included, still parses; one
        // byte more does not.
        let line = |len: usize| {
            let mut l = b"SSH-2.0-".to_vec();
            l.resize(len - 2, b'x');
            l.extend_from_slice(b"\r\n");
            l
        };
        let mut s = SshServer::new(NullHandler, "SSH-2.0-Test", [0; 16], vec![1]);
        s.input(&line(MAX_VERSION_LINE)).unwrap();
        assert_eq!(s.peer_version().map(str::len), Some(MAX_VERSION_LINE - 2));
        let mut s = SshServer::new(NullHandler, "SSH-2.0-Test", [0; 16], vec![1]);
        assert!(s.input(&line(MAX_VERSION_LINE + 1)).is_err());
    }

    struct EchoHandler;
    impl ServerHandler for EchoHandler {
        fn auth(&mut self, _u: &str, _p: Option<&str>) -> AuthOutcome {
            AuthOutcome::Accept
        }
        fn exec(&mut self, c: &str) -> (Vec<u8>, u32) {
            (format!("{c}\n").into_bytes(), 0)
        }
    }

    #[test]
    fn wire_buffers_forget_consumed_bytes_over_a_long_dialogue() {
        use crate::client::{ClientScript, SshClient};
        let commands: Vec<String> = (0..1000).map(|i| format!("echo {i}")).collect();
        let cmds: Vec<&str> = commands.iter().map(String::as_str).collect();
        let mut client = SshClient::new(ClientScript::new("root", &["pw"], &cmds), vec![9]);
        let mut s = SshServer::new(EchoHandler, "SSH-2.0-Test", [0; 16], vec![1]);
        let mut to_client = Vec::new();
        let mut moved = 0usize;
        loop {
            let to_server = client.take_output();
            to_client.clear();
            s.drain_output_into(&mut to_client);
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            moved += to_server.len() + to_client.len();
            s.input(&to_server).unwrap();
            client.input(&to_client).unwrap();
        }
        assert_eq!(s.exec_log().len(), 1000);
        assert!(
            moved > 10 * crate::packet::MAX_PACKET,
            "moved only {moved} bytes"
        );
        let held = s.inbuf.capacity() + s.outbuf.capacity();
        assert!(
            held < crate::packet::MAX_PACKET,
            "wire buffers hold {held} bytes after moving {moved}"
        );
    }

    #[test]
    fn session_key_is_symmetric_in_inputs_only() {
        let k1 = derive_session_key(b"a", b"b");
        let k2 = derive_session_key(b"a", b"b");
        let k3 = derive_session_key(b"b", b"a");
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
    }
}
