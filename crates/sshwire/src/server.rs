//! Server-side SSH state machine (the honeypot's wire frontend).

use crate::msg::{KexInit, Message};
use crate::packet::PacketCodec;
use crate::wire::{get_string, get_u32, put_string, put_u32};
use crate::SshError;
use bytes::{Bytes, BytesMut};
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
pub struct SshServer<H: ServerHandler> {
    handler: H,
    phase: Phase,
    tx: PacketCodec,
    rx: PacketCodec,
    inbuf: BytesMut,
    outbuf: BytesMut,
    version: String,
    peer_version: Option<String>,
    kex_cookie: [u8; 16],
    server_nonce: Vec<u8>,
    client_nonce: Option<Vec<u8>>,
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
    /// Creates a server with deterministic key-exchange material.
    pub fn new(handler: H, version: &str, kex_cookie: [u8; 16], server_nonce: Vec<u8>) -> Self {
        let mut s = Self {
            handler,
            phase: Phase::VersionExchange,
            tx: PacketCodec::new(),
            rx: PacketCodec::new(),
            inbuf: BytesMut::new(),
            outbuf: BytesMut::new(),
            version: version.to_string(),
            peer_version: None,
            kex_cookie,
            server_nonce,
            client_nonce: None,
            session_key: None,
            authenticated_user: None,
            auth_log: Vec::new(),
            exec_log: Vec::new(),
            open_channel: None,
        };
        // Identification string goes out immediately (RFC 4253 §4.2).
        s.outbuf.extend_from_slice(s.version.as_bytes());
        s.outbuf.extend_from_slice(b"\r\n");
        s
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

    /// Drains bytes queued for the peer.
    pub fn take_output(&mut self) -> Bytes {
        self.outbuf.split().freeze()
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
    /// tear it down).
    pub fn input(&mut self, data: &[u8]) -> Result<(), SshError> {
        self.inbuf.extend_from_slice(data);
        let r = self.pump();
        if r.is_err() {
            self.phase = Phase::Closed;
        }
        r
    }

    fn pump(&mut self) -> Result<(), SshError> {
        loop {
            match self.phase {
                Phase::Closed => return Ok(()),
                Phase::VersionExchange => {
                    let window = &self.inbuf[..self.inbuf.len().min(MAX_VERSION_LINE)];
                    if !window.contains(&b'\n') {
                        if self.inbuf.len() >= MAX_VERSION_LINE {
                            return Err(SshError::BadVersionExchange(format!(
                                "no line end within {MAX_VERSION_LINE} bytes"
                            )));
                        }
                        return Ok(());
                    }
                    let line = take_line(&mut self.inbuf).expect("line end found above");
                    if !line.starts_with("SSH-2.0-") {
                        return Err(SshError::BadVersionExchange(line));
                    }
                    self.peer_version = Some(line);
                    // Kick off negotiation.
                    self.send(Message::KexInit(KexInit::default_with_cookie(
                        self.kex_cookie,
                    )));
                    self.phase = Phase::Kex;
                }
                _ => {
                    let Some(payload) = self.rx.open(&mut self.inbuf)? else {
                        return Ok(());
                    };
                    let msg = Message::decode(payload)?;
                    self.handle(msg)?;
                }
            }
        }
    }

    fn send(&mut self, msg: Message) {
        let payload = msg.encode();
        let wire = self.tx.seal(&payload);
        self.outbuf.extend_from_slice(&wire);
        // NEWKEYS takes effect for *subsequent* outgoing packets.
        if matches!(msg, Message::NewKeys) {
            let key = self.session_key.expect("session key before NEWKEYS");
            self.tx.enable_integrity(key);
        }
    }

    fn disconnect(&mut self, code: u32, why: &str) {
        self.send(Message::Disconnect {
            code,
            description: why.to_string(),
        });
        self.phase = Phase::Closed;
    }

    fn handle(&mut self, msg: Message) -> Result<(), SshError> {
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
                self.client_nonce = Some(e.to_vec());
                let key = derive_session_key(&e, &self.server_nonce);
                self.session_key = Some(key);
                let nonce = Bytes::from(self.server_nonce.clone());
                self.send(Message::KexdhReply {
                    host_key: Bytes::from_static(b"sim-ed25519-hostkey"),
                    f: nonce,
                    signature: Bytes::from_static(b"sim-signature"),
                });
                self.send(Message::NewKeys);
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
                self.send(Message::ServiceAccept(name));
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
                let outcome = self.handler.auth(&username, password.as_deref());
                let accepted = outcome == AuthOutcome::Accept;
                self.auth_log.push((username.clone(), password, accepted));
                if accepted {
                    self.authenticated_user = Some(username);
                    self.send(Message::UserauthSuccess);
                    self.phase = Phase::Connected;
                } else {
                    self.send(Message::UserauthFailure {
                        methods: vec!["password".into()],
                    });
                }
                Ok(())
            }
            (Phase::Connected, Message::ChannelOpen { kind, sender, .. }) => {
                if kind != "session" || self.open_channel.is_some() {
                    self.send(Message::ChannelOpenFailure {
                        recipient: sender,
                        code: 2,
                    });
                    return Ok(());
                }
                self.open_channel = Some(sender);
                self.send(Message::ChannelOpenConfirmation {
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
                        self.send(Message::ChannelFailure {
                            recipient: client_chan,
                        });
                    }
                    return Ok(());
                }
                let mut p = payload;
                let cmd_raw = get_string(&mut p)?;
                let command = String::from_utf8_lossy(&cmd_raw).into_owned();
                self.exec_log.push(command.clone());
                if want_reply {
                    self.send(Message::ChannelSuccess {
                        recipient: client_chan,
                    });
                }
                let (output, status) = self.handler.exec(&command);
                if !output.is_empty() {
                    self.send(Message::ChannelData {
                        recipient: client_chan,
                        data: Bytes::from(output),
                    });
                }
                // exit-status, EOF, close — the usual server-side teardown.
                let mut st = BytesMut::new();
                put_u32(&mut st, status);
                self.send(Message::ChannelRequest {
                    recipient: client_chan,
                    kind: "exit-status".into(),
                    want_reply: false,
                    payload: st.freeze(),
                });
                self.send(Message::ChannelEof {
                    recipient: client_chan,
                });
                self.send(Message::ChannelClose {
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

/// Extracts one `\n`-terminated line (stripping `\r`) from `buf`.
pub(crate) fn take_line(buf: &mut BytesMut) -> Option<String> {
    let pos = buf.iter().position(|&b| b == b'\n')?;
    let line = buf.split_to(pos + 1);
    let mut s = String::from_utf8_lossy(&line[..pos]).into_owned();
    if s.ends_with('\r') {
        s.pop();
    }
    Some(s)
}

// Re-used by the client for exec payload construction.
pub(crate) fn exec_payload(command: &str) -> Bytes {
    let mut b = BytesMut::new();
    put_string(&mut b, command.as_bytes());
    b.freeze()
}

pub(crate) fn parse_exit_status(payload: &Bytes) -> Result<u32, SshError> {
    let mut p = payload.clone();
    get_u32(&mut p)
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
    fn take_line_handles_crlf_and_partial() {
        let mut b = BytesMut::from(&b"SSH-2.0-x\r\nrest"[..]);
        assert_eq!(take_line(&mut b).as_deref(), Some("SSH-2.0-x"));
        assert_eq!(&b[..], b"rest");
        assert_eq!(take_line(&mut b), None);
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
