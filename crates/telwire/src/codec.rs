//! IAC framing (RFC 854): separating Telnet commands from data bytes.

use crate::TelnetError;

/// Interpret As Command.
pub const IAC: u8 = 255;
/// Option negotiation verbs.
pub const WILL: u8 = 251;
/// See [`WILL`].
pub const WONT: u8 = 252;
/// See [`WILL`].
pub const DO: u8 = 253;
/// See [`WILL`].
pub const DONT: u8 = 254;
/// Subnegotiation begin/end.
pub const SB: u8 = 250;
/// See [`SB`].
pub const SE: u8 = 240;

/// Longest `IAC SB …` the codec buffers while waiting for its `IAC SE`.
/// Real subnegotiations (NAWS, TTYPE) are a few bytes; past this bound
/// an unterminated one is an attack on the parser, not a dialogue.
pub const MAX_SUBNEGOTIATION: usize = 4096;

/// Option codes the honeynet dialogue uses.
pub mod opt {
    /// RFC 857 — server echoes input.
    pub const ECHO: u8 = 1;
    /// RFC 858 — suppress go-ahead (character mode).
    pub const SGA: u8 = 3;
    /// RFC 1091 — terminal type.
    pub const TTYPE: u8 = 24;
    /// RFC 1073 — window size.
    pub const NAWS: u8 = 31;
}

/// A parsed unit of the Telnet stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Plain data bytes (IAC-unescaped).
    Data(Vec<u8>),
    /// `IAC WILL/WONT/DO/DONT <option>`.
    Negotiate {
        /// The verb (one of WILL/WONT/DO/DONT).
        verb: u8,
        /// The option code.
        option: u8,
    },
    /// `IAC SB <option> … IAC SE`.
    Subnegotiation {
        /// The option code.
        option: u8,
        /// Raw payload between SB and SE.
        payload: Vec<u8>,
    },
    /// Any other two-byte IAC command (NOP, AYT, …).
    Command(u8),
}

/// Incremental IAC parser. Feed bytes, drain events.
#[derive(Debug, Default)]
pub struct TelnetCodec {
    buf: Vec<u8>,
}

impl TelnetCodec {
    /// New, empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes held back by the last [`TelnetCodec::drain`]: an unfinished
    /// command or subnegotiation, at most [`MAX_SUBNEGOTIATION`].
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Appends raw bytes from the wire.
    pub fn input(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Extracts as many complete events as possible. Data bytes are
    /// coalesced into one `Data` event per call segment.
    pub fn drain(&mut self) -> Result<Vec<Event>, TelnetError> {
        let mut events = Vec::new();
        let mut data = Vec::new();
        let mut i = 0;
        let buf = std::mem::take(&mut self.buf);
        while i < buf.len() {
            let b = buf[i];
            if b != IAC {
                data.push(b);
                i += 1;
                continue;
            }
            // An IAC at the very end may be a partial command: stash it.
            let Some(&next) = buf.get(i + 1) else {
                self.buf = buf[i..].to_vec();
                break;
            };
            match next {
                IAC => {
                    // Escaped 255 data byte.
                    data.push(IAC);
                    i += 2;
                }
                WILL | WONT | DO | DONT => {
                    let Some(&option) = buf.get(i + 2) else {
                        self.buf = buf[i..].to_vec();
                        break;
                    };
                    flush_data(&mut events, &mut data);
                    events.push(Event::Negotiate { verb: next, option });
                    i += 3;
                }
                SB => {
                    // Scan for IAC SE.
                    let Some(&option) = buf.get(i + 2) else {
                        self.buf = buf[i..].to_vec();
                        break;
                    };
                    let mut j = i + 3;
                    let mut payload = Vec::new();
                    let mut terminated = false;
                    while j < buf.len() {
                        if buf[j] == IAC {
                            match buf.get(j + 1) {
                                Some(&SE) => {
                                    terminated = true;
                                    j += 2;
                                    break;
                                }
                                Some(&IAC) => {
                                    payload.push(IAC);
                                    j += 2;
                                }
                                Some(_) => {
                                    return Err(TelnetError::Protocol(
                                        "bad byte inside subnegotiation".into(),
                                    ))
                                }
                                None => break,
                            }
                        } else {
                            payload.push(buf[j]);
                            j += 1;
                        }
                    }
                    if !terminated {
                        if buf.len() - i > MAX_SUBNEGOTIATION {
                            return Err(TelnetError::Protocol(format!(
                                "subnegotiation exceeds {MAX_SUBNEGOTIATION} bytes"
                            )));
                        }
                        self.buf = buf[i..].to_vec();
                        break;
                    }
                    flush_data(&mut events, &mut data);
                    events.push(Event::Subnegotiation { option, payload });
                    i = j;
                }
                cmd => {
                    flush_data(&mut events, &mut data);
                    events.push(Event::Command(cmd));
                    i += 2;
                }
            }
        }
        flush_data(&mut events, &mut data);
        Ok(events)
    }
}

fn flush_data(events: &mut Vec<Event>, data: &mut Vec<u8>) {
    if !data.is_empty() {
        events.push(Event::Data(std::mem::take(data)));
    }
}

/// Encodes data bytes for the wire, escaping 255.
pub fn escape_data(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for &b in data {
        out.push(b);
        if b == IAC {
            out.push(IAC);
        }
    }
    out
}

/// Encodes `IAC <verb> <option>`.
pub fn negotiate(verb: u8, option: u8) -> [u8; 3] {
    [IAC, verb, option]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_data_passes_through() {
        let mut c = TelnetCodec::new();
        c.input(b"root\r\n");
        assert_eq!(c.drain().unwrap(), vec![Event::Data(b"root\r\n".to_vec())]);
    }

    #[test]
    fn negotiation_parsing() {
        let mut c = TelnetCodec::new();
        c.input(&[IAC, WILL, opt::ECHO, b'h', b'i', IAC, DO, opt::SGA]);
        assert_eq!(
            c.drain().unwrap(),
            vec![
                Event::Negotiate {
                    verb: WILL,
                    option: opt::ECHO
                },
                Event::Data(b"hi".to_vec()),
                Event::Negotiate {
                    verb: DO,
                    option: opt::SGA
                },
            ]
        );
    }

    #[test]
    fn escaped_255_is_data() {
        let mut c = TelnetCodec::new();
        c.input(&[b'a', IAC, IAC, b'b']);
        assert_eq!(c.drain().unwrap(), vec![Event::Data(vec![b'a', 255, b'b'])]);
    }

    #[test]
    fn partial_iac_waits_for_more() {
        let mut c = TelnetCodec::new();
        c.input(&[b'x', IAC]);
        assert_eq!(c.drain().unwrap(), vec![Event::Data(b"x".to_vec())]);
        c.input(&[WILL]);
        assert_eq!(c.drain().unwrap(), vec![]);
        c.input(&[opt::ECHO]);
        assert_eq!(
            c.drain().unwrap(),
            vec![Event::Negotiate {
                verb: WILL,
                option: opt::ECHO
            }]
        );
    }

    #[test]
    fn subnegotiation_roundtrip() {
        let mut c = TelnetCodec::new();
        c.input(&[IAC, SB, opt::TTYPE, 0, b'x', b't', IAC, SE, b'!']);
        assert_eq!(
            c.drain().unwrap(),
            vec![
                Event::Subnegotiation {
                    option: opt::TTYPE,
                    payload: vec![0, b'x', b't']
                },
                Event::Data(b"!".to_vec()),
            ]
        );
    }

    #[test]
    fn unterminated_subnegotiation_is_buffered() {
        let mut c = TelnetCodec::new();
        c.input(&[IAC, SB, opt::NAWS, 0, 80]);
        assert_eq!(c.drain().unwrap(), vec![]);
        c.input(&[0, 24, IAC, SE]);
        assert_eq!(
            c.drain().unwrap(),
            vec![Event::Subnegotiation {
                option: opt::NAWS,
                payload: vec![0, 80, 0, 24]
            }]
        );
    }

    #[test]
    fn oversized_unterminated_subnegotiation_is_an_error() {
        let mut c = TelnetCodec::new();
        c.input(&[IAC, SB, opt::TTYPE]);
        let chunk = [b'x'; 1024];
        let mut failed_after = None;
        for k in 1..=64 {
            c.input(&chunk);
            if c.drain().is_err() {
                failed_after = Some(k * chunk.len());
                break;
            }
        }
        let fed = failed_after.expect("a 64 KiB unterminated SB must error out");
        assert!(
            fed <= MAX_SUBNEGOTIATION + chunk.len(),
            "errored only after {fed} bytes"
        );

        // A well-formed SB just under the cap still parses.
        let mut c = TelnetCodec::new();
        let payload = vec![b'y'; MAX_SUBNEGOTIATION - 8];
        c.input(&[IAC, SB, opt::TTYPE]);
        for part in payload.chunks(1024) {
            c.input(part);
            assert_eq!(c.drain().unwrap(), vec![]);
        }
        c.input(&[IAC, SE]);
        assert_eq!(
            c.drain().unwrap(),
            vec![Event::Subnegotiation {
                option: opt::TTYPE,
                payload
            }]
        );
    }

    #[test]
    fn bare_command() {
        let mut c = TelnetCodec::new();
        c.input(&[IAC, 241]); // NOP
        assert_eq!(c.drain().unwrap(), vec![Event::Command(241)]);
    }

    #[test]
    fn escape_data_roundtrips() {
        let data = vec![1u8, 255, 2, 255, 255, 3];
        let mut c = TelnetCodec::new();
        c.input(&escape_data(&data));
        assert_eq!(c.drain().unwrap(), vec![Event::Data(data)]);
    }
}
