//! Server (honeypot) side of the Telnet dialogue.
//!
//! State machine: negotiate → `login:` → `Password:` → shell loop.
//! Failed logins re-prompt up to a retry budget, as real telnetd does and
//! IoT brute-forcers expect.

use crate::codec::{self, opt, Event, TelnetCodec, DO, DONT, MAX_SUBNEGOTIATION, WILL, WONT};
use crate::TelnetError;

/// Policy hooks the honeypot provides.
pub trait TelnetHandler {
    /// Decides one credential pair.
    fn auth(&mut self, username: &str, password: &str) -> bool;
    /// Executes a command line, returning emulated output.
    fn exec(&mut self, command: &str) -> String;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitLogin,
    AwaitPassword,
    Shell,
    Closed,
}

/// Maximum credential attempts before the server drops the connection
/// (matching the common `login: incorrect` triple-try behaviour).
const MAX_AUTH_TRIES: usize = 3;

/// Longest line a peer may send (CR and LF not counted): the same 4 KiB
/// bound as a pending subnegotiation. Past it the input fails.
pub const MAX_LINE: usize = MAX_SUBNEGOTIATION;

/// The Telnet server endpoint.
///
/// An error closes the machine, and once closed (by an error, `exit`, or
/// a third failed login) it drops its input: it answers nothing more and
/// holds no buffered bytes.
pub struct TelnetServer<H: TelnetHandler> {
    handler: H,
    codec: TelnetCodec,
    outbuf: Vec<u8>,
    phase: Phase,
    line: Vec<u8>,
    pending_user: Option<String>,
    auth_tries: usize,
    auth_log: Vec<(String, String, bool)>,
    exec_log: Vec<String>,
    hostname: String,
}

impl<H: TelnetHandler> TelnetServer<H> {
    /// Creates the server; the banner and negotiation go out immediately.
    pub fn new(handler: H, hostname: &str) -> Self {
        let mut s = Self {
            handler,
            codec: TelnetCodec::new(),
            outbuf: Vec::new(),
            phase: Phase::AwaitLogin,
            line: Vec::new(),
            pending_user: None,
            auth_tries: 0,
            auth_log: Vec::new(),
            exec_log: Vec::new(),
            hostname: hostname.to_string(),
        };
        // Classic telnetd opening: WILL ECHO, WILL SGA, DO NAWS.
        s.outbuf
            .extend_from_slice(&codec::negotiate(WILL, opt::ECHO));
        s.outbuf
            .extend_from_slice(&codec::negotiate(WILL, opt::SGA));
        s.outbuf.extend_from_slice(&codec::negotiate(DO, opt::NAWS));
        s.send_str(&format!("\r\n{} login: ", s.hostname.clone()));
        s
    }

    /// Auth attempts so far.
    pub fn auth_log(&self) -> &[(String, String, bool)] {
        &self.auth_log
    }

    /// Commands executed so far.
    pub fn exec_log(&self) -> &[String] {
        &self.exec_log
    }

    /// Whether the server dropped the connection.
    pub fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// Drains bytes queued for the client.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.outbuf)
    }

    /// Appends the bytes queued for the client to `out` and empties the
    /// queue, keeping its allocation for the next round. Returns how
    /// many bytes moved.
    pub fn drain_output_into(&mut self, out: &mut Vec<u8>) -> usize {
        let n = self.outbuf.len();
        out.extend_from_slice(&self.outbuf);
        self.outbuf.clear();
        n
    }

    /// Consumes the server, returning the handler.
    pub fn into_handler(self) -> H {
        self.handler
    }

    fn send_str(&mut self, s: &str) {
        self.outbuf
            .extend_from_slice(&codec::escape_data(s.as_bytes()));
    }

    /// Bytes held from the peer: the unfinished line, and the unfinished
    /// command or subnegotiation the codec keeps. Each stays within
    /// 4 KiB ([`MAX_LINE`], [`MAX_SUBNEGOTIATION`]); a closed machine
    /// holds none.
    pub fn buffered(&self) -> (usize, usize) {
        (self.line.len(), self.codec.buffered())
    }

    /// Feeds client bytes. On error the machine closes; a closed machine
    /// drops its input.
    pub fn input(&mut self, data: &[u8]) -> Result<(), TelnetError> {
        if self.phase == Phase::Closed {
            return Ok(());
        }
        let r = self.feed(data);
        if r.is_err() {
            self.phase = Phase::Closed;
        }
        if self.phase == Phase::Closed {
            self.codec = TelnetCodec::new();
            self.line = Vec::new();
        }
        r
    }

    /// Handles every complete event in `data` until the machine closes.
    fn feed(&mut self, data: &[u8]) -> Result<(), TelnetError> {
        self.codec.input(data);
        for ev in self.codec.drain()? {
            if self.phase == Phase::Closed {
                break;
            }
            match ev {
                Event::Negotiate { verb, option } => self.negotiate(verb, option),
                Event::Data(bytes) => self.data(&bytes)?,
                Event::Subnegotiation { .. } | Event::Command(_) => {}
            }
        }
        Ok(())
    }

    fn negotiate(&mut self, verb: u8, option: u8) {
        // Accept nothing beyond what we offered; refuse everything else.
        match (verb, option) {
            (DO, opt::ECHO | opt::SGA) | (WONT, _) | (DONT, _) => {}
            (DO, other) => self
                .outbuf
                .extend_from_slice(&codec::negotiate(WONT, other)),
            (WILL, opt::NAWS) => {}
            (WILL, other) => self
                .outbuf
                .extend_from_slice(&codec::negotiate(DONT, other)),
            _ => {}
        }
    }

    fn data(&mut self, bytes: &[u8]) -> Result<(), TelnetError> {
        for &b in bytes {
            match b {
                b'\r' => {}
                b'\n' => {
                    let line = String::from_utf8_lossy(&self.line).into_owned();
                    self.line.clear();
                    self.on_line(line.trim_end());
                    if self.phase == Phase::Closed {
                        return Ok(());
                    }
                }
                _ if self.line.len() >= MAX_LINE => {
                    return Err(TelnetError::Protocol(format!(
                        "line exceeds {MAX_LINE} bytes"
                    )));
                }
                _ => self.line.push(b),
            }
        }
        Ok(())
    }

    fn on_line(&mut self, line: &str) {
        match self.phase {
            Phase::AwaitLogin => {
                self.pending_user = Some(line.to_string());
                self.send_str("Password: ");
                self.phase = Phase::AwaitPassword;
            }
            Phase::AwaitPassword => {
                let user = self.pending_user.take().unwrap_or_default();
                let ok = self.handler.auth(&user, line);
                self.auth_log.push((user, line.to_string(), ok));
                if ok {
                    let host = self.hostname.clone();
                    self.send_str(&format!(
                        "\r\nBusyBox v1.22.1 built-in shell (ash)\r\n\r\n{host}:~# "
                    ));
                    self.phase = Phase::Shell;
                } else {
                    self.auth_tries += 1;
                    if self.auth_tries >= MAX_AUTH_TRIES {
                        self.send_str("\r\nLogin incorrect\r\n");
                        self.phase = Phase::Closed;
                    } else {
                        let host = self.hostname.clone();
                        self.send_str(&format!("\r\nLogin incorrect\r\n{host} login: "));
                        self.phase = Phase::AwaitLogin;
                    }
                }
            }
            Phase::Shell => {
                if line.is_empty() {
                    let host = self.hostname.clone();
                    self.send_str(&format!("{host}:~# "));
                    return;
                }
                if line == "exit" || line == "logout" {
                    self.phase = Phase::Closed;
                    return;
                }
                self.exec_log.push(line.to_string());
                let out = self.handler.exec(line);
                let host = self.hostname.clone();
                self.send_str(&out);
                self.send_str(&format!("{host}:~# "));
            }
            // `data` stops at the line that closes the machine.
            Phase::Closed => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct P;
    impl TelnetHandler for P {
        fn auth(&mut self, u: &str, p: &str) -> bool {
            u == "root" && p == "admin"
        }
        fn exec(&mut self, c: &str) -> String {
            format!("<{c}>\r\n")
        }
    }

    fn srv() -> TelnetServer<P> {
        TelnetServer::new(P, "svr04")
    }

    #[test]
    fn banner_negotiates_and_prompts() {
        let mut s = srv();
        let out = s.take_output();
        assert!(out
            .windows(3)
            .any(|w| w == codec::negotiate(WILL, opt::ECHO)));
        assert!(String::from_utf8_lossy(&out).contains("login: "));
    }

    #[test]
    fn login_flow_and_shell() {
        let mut s = srv();
        s.take_output();
        s.input(b"root\r\n").unwrap();
        assert!(String::from_utf8_lossy(&s.take_output()).contains("Password: "));
        s.input(b"admin\r\n").unwrap();
        let shell = String::from_utf8_lossy(&s.take_output()).into_owned();
        assert!(shell.contains("BusyBox"), "{shell}");
        s.input(b"uname -a\r\n").unwrap();
        assert!(String::from_utf8_lossy(&s.take_output()).contains("<uname -a>"));
        assert_eq!(s.exec_log(), ["uname -a"]);
        s.input(b"exit\r\n").unwrap();
        assert!(s.is_closed());
    }

    #[test]
    fn three_failures_drop_the_connection() {
        let mut s = srv();
        for _ in 0..3 {
            s.input(b"root\r\nwrong\r\n").unwrap();
        }
        assert!(s.is_closed());
        assert_eq!(s.auth_log().len(), 3);
        assert!(s.auth_log().iter().all(|(_, _, ok)| !ok));
    }

    #[test]
    fn refuses_unoffered_options() {
        let mut s = srv();
        s.take_output();
        s.input(&[codec::IAC, DO, 99]).unwrap();
        let out = s.take_output();
        assert!(out.windows(3).any(|w| w == codec::negotiate(WONT, 99)));
    }

    #[test]
    fn line_is_capped_at_max_line() {
        // 64 KiB without a line end, fed 1 KiB at a time: fine up to the
        // cap, an error with the first chunk past it.
        let mut s = srv();
        let chunk = [b'a'; 1024];
        let mut fed = 0;
        let err = loop {
            assert!(fed < 64 * 1024, "64 KiB without a line end accepted");
            fed += chunk.len();
            if let Err(e) = s.input(&chunk) {
                break e;
            }
        };
        assert!(matches!(err, TelnetError::Protocol(_)));
        assert!(
            fed > MAX_LINE && fed <= MAX_LINE + chunk.len(),
            "errored after {fed} bytes"
        );

        // A line of exactly the cap still parses.
        let mut s = srv();
        let mut input = vec![b'u'; MAX_LINE];
        input.extend_from_slice(b"\r\npw\r\n");
        s.input(&input).unwrap();
        assert_eq!(s.auth_log().len(), 1);
        assert_eq!(s.auth_log()[0].0.len(), MAX_LINE);
    }

    #[test]
    fn drain_output_into_appends_and_empties_the_queue() {
        let mut s = srv();
        let banner = srv().take_output();
        let mut out = b"held".to_vec();
        assert_eq!(s.drain_output_into(&mut out), banner.len());
        assert_eq!(&out[4..], &banner[..]);
        assert!(s.take_output().is_empty());
    }

    #[test]
    fn a_closed_machine_drops_its_input() {
        // Closed by `exit`: the rest of that input and every later byte
        // are dropped, negotiation included.
        let mut s = srv();
        s.input(b"root\r\nadmin\r\n").unwrap();
        s.take_output();
        let mut input = b"exit\r\nuname -a\r\n".to_vec();
        input.extend_from_slice(&[codec::IAC, DO, 99]);
        s.input(&input).unwrap();
        assert!(s.is_closed());
        assert!(s.take_output().is_empty(), "a closed machine answered");
        s.input(&[codec::IAC, DO, 99]).unwrap();
        s.input(b"id\r\n").unwrap();
        assert!(s.take_output().is_empty(), "a closed machine answered");
        assert!(s.exec_log().is_empty());
        assert_eq!(s.buffered(), (0, 0));

        // Closed by an error: the over-long line fails once, and the
        // machine then drops input instead of parsing on.
        let mut s = srv();
        s.take_output();
        assert!(s.input(&[b'a'; MAX_LINE + 1]).is_err());
        assert!(s.is_closed());
        assert!(s.input(b"\r\nroot\r\n").is_ok());
        s.input(&[codec::IAC, DO, 99]).unwrap();
        assert!(s.take_output().is_empty(), "a closed machine answered");
        assert!(s.auth_log().is_empty());
        assert_eq!(s.buffered(), (0, 0));
    }

    #[test]
    fn iac_inside_credentials_is_handled() {
        let mut s = srv();
        s.take_output();
        // A password containing an escaped 0xFF byte.
        let mut input = b"root\r\n".to_vec();
        input.extend_from_slice(&[b'p', codec::IAC, codec::IAC, b'w', b'\r', b'\n']);
        s.input(&input).unwrap();
        assert_eq!(s.auth_log().len(), 1);
        assert_eq!(s.auth_log()[0].0, "root");
        assert!(s.auth_log()[0].1.contains('w'));
    }
}
