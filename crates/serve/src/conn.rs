//! One live connection: a non-blocking socket pumped through a sans-IO
//! protocol state machine, finishing as a [`SessionRecord`].
//!
//! A [`Conn`] never blocks: each [`Conn::pump`] call flushes whatever the
//! state machine has queued, reads whatever the socket has buffered, and
//! returns. A worker shard owns a set of `Conn`s and pumps them round-robin,
//! so hundreds of concurrent sessions multiplex onto a handful of threads.

use crate::{GatePermit, ServeStats};
use honeypot::shell::RemoteStore;
use honeypot::wire::{WireHandler, WireSessionMeta};
use honeypot::{Protocol, SessionEndReason, SessionRecord};
use hutil::DateTime;
use sshwire::SshServer;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telwire::TelnetServer;

/// The download store shared by every connection of a server.
pub type SharedStore = Arc<dyn RemoteStore + Send + Sync>;

/// Protocol state machine behind a connection.
enum Machine<'s> {
    Ssh(SshServer<WireHandler<'s>>),
    Telnet(TelnetServer<WireHandler<'s>>),
}

/// Why [`Conn::pump`] declared the connection finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ending {
    /// Clean close: client hung up or the dialogue completed.
    Client,
    /// Idle or total-session deadline expired.
    Timeout,
    /// Socket or protocol error (recorded as a client close).
    Error,
}

/// A live connection owned by one worker shard.
pub struct Conn<'s> {
    stream: TcpStream,
    machine: Machine<'s>,
    /// Bytes produced by the machine, not yet accepted by the socket.
    pending_out: Vec<u8>,
    /// Admission slot; dropping the connection — on any path, including
    /// a caught panic — releases it. Held purely for its `Drop`.
    _permit: GatePermit,
    client_ip: netsim::Ipv4Addr,
    client_port: u16,
    start_unix: i64,
    started: Instant,
    last_activity: Instant,
    ending: Option<Ending>,
}

/// Identity stamped into records; owned by each worker shard.
#[derive(Debug, Clone, Copy)]
pub struct SensorIdentity {
    /// Sensor id for the records.
    pub honeypot_id: u16,
    /// Sensor address for the records.
    pub honeypot_ip: netsim::Ipv4Addr,
}

impl<'s> Conn<'s> {
    /// Wraps an accepted SSH socket. The stream must already be
    /// non-blocking.
    pub fn ssh(
        stream: TcpStream,
        permit: GatePermit,
        client_port: u16,
        handler: WireHandler<'s>,
        start_unix: i64,
        conn_seq: u64,
    ) -> Self {
        // Each connection gets a distinct cookie/nonce derived from its
        // sequence number; live serving needs uniqueness, not secrecy
        // (the honeypot's crypto is decorative by design).
        let mut cookie = [0u8; 16];
        cookie[..8].copy_from_slice(&conn_seq.to_le_bytes());
        cookie[8..].copy_from_slice(&(!conn_seq).to_le_bytes());
        let server = SshServer::new(
            handler,
            sshwire::SERVER_VERSION_DEFAULT,
            cookie,
            conn_seq.to_le_bytes().to_vec(),
        );
        Self::new(
            stream,
            Machine::Ssh(server),
            permit,
            client_port,
            start_unix,
        )
    }

    /// Wraps an accepted Telnet socket.
    pub fn telnet(
        stream: TcpStream,
        permit: GatePermit,
        client_port: u16,
        handler: WireHandler<'s>,
        start_unix: i64,
    ) -> Self {
        let server = TelnetServer::new(handler, "svr04");
        Self::new(
            stream,
            Machine::Telnet(server),
            permit,
            client_port,
            start_unix,
        )
    }

    fn new(
        stream: TcpStream,
        machine: Machine<'s>,
        permit: GatePermit,
        client_port: u16,
        start_unix: i64,
    ) -> Self {
        let now = Instant::now();
        Self {
            stream,
            machine,
            pending_out: Vec::new(),
            client_ip: permit.ip(),
            _permit: permit,
            client_port,
            start_unix,
            started: now,
            last_activity: now,
            ending: None,
        }
    }

    fn machine_output(&mut self) -> usize {
        // One copy, straight into pending_out (which may be a pooled
        // buffer); the machine keeps its queue's allocation, so a pump
        // round allocates nothing.
        match &mut self.machine {
            Machine::Ssh(s) => s.drain_output_into(&mut self.pending_out),
            Machine::Telnet(t) => t.drain_output_into(&mut self.pending_out),
        }
    }

    fn machine_input(&mut self, data: &[u8]) -> Result<(), ()> {
        match &mut self.machine {
            Machine::Ssh(s) => s.input(data).map_err(|_| ()),
            Machine::Telnet(t) => t.input(data).map_err(|_| ()),
        }
    }

    fn machine_closed(&self) -> bool {
        match &self.machine {
            Machine::Ssh(s) => s.is_closed(),
            Machine::Telnet(t) => t.is_closed(),
        }
    }

    /// One non-blocking service round: flush queued output, ingest
    /// available input, check deadlines. Returns `true` once the
    /// connection is finished and ready for [`Conn::finish`].
    pub fn pump(
        &mut self,
        now: Instant,
        idle_timeout: Duration,
        session_timeout: Duration,
        stats: &ServeStats,
    ) -> bool {
        let mut buf = [0u8; 4096];
        self.pump_buf(&mut buf, now, idle_timeout, session_timeout, stats)
    }

    /// [`Conn::pump`] with a caller-supplied read buffer, so a reactor
    /// shard can share one scratch buffer across all its connections
    /// instead of burning 4 KiB of stack (or a fresh allocation) per
    /// pump.
    pub(crate) fn pump_buf(
        &mut self,
        buf: &mut [u8],
        now: Instant,
        idle_timeout: Duration,
        session_timeout: Duration,
        stats: &ServeStats,
    ) -> bool {
        if self.ending.is_some() {
            return true;
        }
        // Loop until neither direction makes progress, so a whole
        // handshake round-trip completes in one pump when the bytes are
        // already buffered.
        loop {
            let mut progress = self.machine_output() > 0;

            // Writer half: drain pending_out into the socket.
            while !self.pending_out.is_empty() {
                match self.stream.write(&self.pending_out) {
                    Ok(0) => {
                        self.ending = Some(Ending::Error);
                        return true;
                    }
                    Ok(n) => {
                        self.pending_out.drain(..n);
                        stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                        self.last_activity = now;
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.ending = Some(Ending::Error);
                        return true;
                    }
                }
            }

            // Reader half: feed whatever the socket has to the machine.
            match self.stream.read(&mut *buf) {
                Ok(0) => {
                    self.ending = Some(Ending::Client);
                    return true;
                }
                Ok(n) => {
                    stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    self.last_activity = now;
                    progress = true;
                    if self.machine_input(&buf[..n]).is_err() {
                        stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                        self.ending = Some(Ending::Error);
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.ending = Some(Ending::Error);
                    return true;
                }
            }

            if !progress {
                break;
            }
        }

        if self.machine_closed() && self.pending_out.is_empty() {
            self.ending = Some(Ending::Client);
            return true;
        }
        if now.duration_since(self.started) >= session_timeout
            || now.duration_since(self.last_activity) >= idle_timeout
        {
            self.ending = Some(Ending::Timeout);
            return true;
        }
        false
    }

    /// Source address of this connection.
    pub fn client_ip(&self) -> netsim::Ipv4Addr {
        self.client_ip
    }

    /// Whether output is queued for the socket — the reactor arms write
    /// interest only while this is true.
    pub(crate) fn wants_write(&self) -> bool {
        !self.pending_out.is_empty()
    }

    /// The connection's next deadline: whichever of the idle and
    /// total-session timeouts comes first. The reactor's timer wheel
    /// re-checks this on fire, so activity pushes the deadline without
    /// rescheduling.
    pub(crate) fn deadline(&self, idle_timeout: Duration, session_timeout: Duration) -> Instant {
        let idle = self.last_activity + idle_timeout;
        let session = self.started + session_timeout;
        idle.min(session)
    }

    /// Donates a pooled buffer as the `pending_out` backing store.
    /// Call right after construction, before any pump.
    pub(crate) fn adopt_out_buffer(&mut self, mut buf: Vec<u8>) {
        debug_assert!(self.pending_out.is_empty());
        buf.clear();
        self.pending_out = buf;
    }

    /// Reclaims the `pending_out` backing store for the pool. The
    /// connection must be finished (or about to be dropped).
    pub(crate) fn reclaim_out_buffer(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.pending_out)
    }

    /// Raw fd for poller registration.
    pub(crate) fn raw_fd(&self) -> i32 {
        crate::reactor::sock_fd(&self.stream)
    }

    /// Force-closes an in-flight connection (drain timeout during
    /// shutdown); the session is recorded as timed out.
    pub fn abort(&mut self) {
        if self.ending.is_none() {
            self.ending = Some(Ending::Timeout);
        }
    }

    /// Converts the finished connection into its [`SessionRecord`]
    /// through [`WireHandler::into_record`], with wall-clock timing.
    pub fn finish(self, sensor: SensorIdentity, stats: &ServeStats) -> SessionRecord {
        let Conn {
            stream,
            machine,
            _permit: permit,
            client_ip,
            client_port,
            start_unix,
            started,
            ending,
            ..
        } = self;
        // Close the socket and hand the admission slot back before the
        // session counts as completed: whoever sees `completed` move
        // must also see the slot free.
        drop(stream);
        drop(permit);
        let elapsed = started.elapsed().as_secs() as i64;
        let end = DateTime::from_unix(start_unix + elapsed.max(0));
        let end_reason = match ending.unwrap_or(Ending::Client) {
            Ending::Timeout => {
                stats.timed_out.fetch_add(1, Ordering::Relaxed);
                SessionEndReason::Timeout
            }
            Ending::Client | Ending::Error => SessionEndReason::ClientClose,
        };
        let (protocol, client_version, handler) = match machine {
            Machine::Ssh(server) => (
                Protocol::Ssh,
                server.peer_version().map(str::to_string),
                server.into_handler(),
            ),
            Machine::Telnet(server) => (Protocol::Telnet, None, server.into_handler()),
        };
        let meta = WireSessionMeta {
            honeypot_id: sensor.honeypot_id,
            honeypot_ip: sensor.honeypot_ip,
            client_ip,
            client_port,
            start: DateTime::from_unix(start_unix),
        };
        let record = handler.into_record(&meta, protocol, client_version, end, end_reason);
        stats.completed.fetch_add(1, Ordering::Release);
        record
    }

    /// Converts a connection whose pump *panicked* into a minimal failed
    /// session record. The protocol machine may be poisoned mid-update,
    /// so this touches only plain fields — no auth log, no shell
    /// observations — and does not count toward `completed`. Dropping
    /// `self` releases the admission permit.
    pub fn into_failed(self, sensor: SensorIdentity) -> SessionRecord {
        let elapsed = self.started.elapsed().as_secs() as i64;
        SessionRecord {
            session_id: 0, // the collector assigns dense ids
            honeypot_id: sensor.honeypot_id,
            honeypot_ip: sensor.honeypot_ip,
            client_ip: self.client_ip,
            client_port: self.client_port,
            protocol: match self.machine {
                Machine::Ssh(_) => Protocol::Ssh,
                Machine::Telnet(_) => Protocol::Telnet,
            },
            start: DateTime::from_unix(self.start_unix),
            end: DateTime::from_unix(self.start_unix + elapsed.max(0)),
            end_reason: SessionEndReason::ClientClose,
            client_version: None,
            logins: Vec::new(),
            commands: Vec::new(),
            uris: Vec::new(),
            file_events: Vec::new(),
        }
    }
}

/// Wall-clock seconds since the Unix epoch.
pub fn now_unix() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}
