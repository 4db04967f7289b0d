//! One live connection: a non-blocking socket pumped through a sans-IO
//! protocol state machine, finishing as a [`SessionRecord`].
//!
//! A [`Conn`] never blocks. The reactor shard that owns it pumps it when
//! the poller reports its socket ready or its deadline passes: the pump
//! flushes what the machine has queued, reads only if the socket was
//! reported readable, and stops reading at the first short read, at the
//! peer's EOF, once the machine closes, or once
//! [`crate::reactor::MAX_PENDING_OUT`] bytes wait unsent. A closed
//! machine's connection only drains its output, and then ends.
//! Readiness is level-triggered, so bytes that arrive later are
//! reported on the next wait, and no read is spent learning that the
//! socket is empty.

use crate::reactor::{conn_interest, Interest, Outbox};
use crate::{GatePermit, ServeStats};
use honeypot::shell::RemoteStore;
use honeypot::wire::{WireHandler, WireSessionMeta};
use honeypot::{Protocol, SessionEndReason, SessionRecord};
use hutil::DateTime;
use sshwire::SshServer;
use std::io::Read;
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
    out: Outbox,
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
    /// non-blocking (as [`crate::reactor::accept`] returns it).
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
            out: Outbox::default(),
            client_ip: permit.ip(),
            _permit: permit,
            client_port,
            start_unix,
            started: now,
            last_activity: now,
            ending: None,
        }
    }

    fn machine_output(&mut self) {
        // One copy, straight into the outbox (which may hold a pooled
        // buffer); the machine keeps its queue's allocation, so a pump
        // round allocates nothing.
        let machine = &mut self.machine;
        self.out.queue_with(|buf| {
            match machine {
                Machine::Ssh(s) => s.drain_output_into(buf),
                Machine::Telnet(t) => t.drain_output_into(buf),
            };
        });
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

    /// One non-blocking service round. Queued output goes to the socket
    /// first. If the poller reported the socket `readable`, the pump then
    /// reads into `buf`, feeds the machine and flushes what it answered,
    /// until a read does not fill `buf` (the socket is drained), the peer
    /// closes, the machine closes, or the unsent output reaches
    /// [`crate::reactor::MAX_PENDING_OUT`]. Deadlines are checked last.
    /// Returns `true` once the connection is finished and ready for
    /// [`Conn::finish`].
    ///
    /// `buf` is the shard's one read buffer, shared by every connection
    /// it owns.
    pub(crate) fn pump(
        &mut self,
        buf: &mut [u8],
        mut readable: bool,
        now: Instant,
        idle_timeout: Duration,
        session_timeout: Duration,
        stats: &ServeStats,
    ) -> bool {
        if self.ending.is_some() {
            return true;
        }
        loop {
            self.machine_output();
            let unsent = self.out.unsent();
            let flushed = self.out.flush(&mut self.stream);
            let written = unsent - self.out.unsent();
            if written > 0 {
                stats.bytes_out.fetch_add(written as u64, Ordering::Relaxed);
                self.last_activity = now;
            }
            if flushed.is_err() {
                self.ending = Some(Ending::Error);
                return true;
            }
            // A closed machine only drains its output: reading more
            // would feed it nothing and keep an idle peer alive.
            if !readable || self.out.full() || self.machine_closed() {
                break;
            }
            match self.stream.read(&mut *buf) {
                Ok(0) => {
                    self.ending = Some(Ending::Client);
                    return true;
                }
                Ok(n) => {
                    // A read that leaves room in the buffer took all the
                    // socket had.
                    readable = n == buf.len();
                    stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    self.last_activity = now;
                    if self.machine_input(&buf[..n]).is_err() {
                        stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                        self.ending = Some(Ending::Error);
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => readable = false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.ending = Some(Ending::Error);
                    return true;
                }
            }
        }

        if self.machine_closed() && self.out.unsent() == 0 {
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

    /// What the poller should report for this connection: writable only
    /// while output is queued, and not readable while the unsent output
    /// is at the cap or the machine is closed and draining it (the pump
    /// reads neither, and a level-triggered readable socket would wake
    /// the shard for nothing).
    pub(crate) fn interest(&self) -> Interest {
        if self.out.full() || self.machine_closed() {
            Interest::WRITE
        } else {
            conn_interest(self.out.unsent() > 0)
        }
    }

    /// The connection's next deadline: whichever of the idle and
    /// total-session timeouts comes first. It only ever moves later
    /// (activity advances `last_activity`; `started` is fixed), so a value
    /// read earlier stays a lower bound: the shard keeps one per slot and
    /// reads this again only once that bound has passed.
    pub(crate) fn deadline(&self, idle_timeout: Duration, session_timeout: Duration) -> Instant {
        let idle = self.last_activity + idle_timeout;
        let session = self.started + session_timeout;
        idle.min(session)
    }

    /// Donates a pooled buffer as the outbox's backing store. Call right
    /// after construction, before any pump.
    pub(crate) fn adopt_out_buffer(&mut self, buf: Vec<u8>) {
        debug_assert_eq!(self.out.unsent(), 0);
        self.out = Outbox::with_buffer(buf);
    }

    /// Reclaims the outbox's backing store for the pool. The connection
    /// must be finished (or about to be dropped).
    pub(crate) fn reclaim_out_buffer(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out).into_buffer()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::MAX_PENDING_OUT;
    use crate::Gate;
    use honeypot::shell::NullStore;
    use honeypot::AuthPolicy;
    use std::io::Write;
    use std::net::{Shutdown, TcpListener};

    /// The shard's read buffer size.
    const READ_BUF: usize = 16 * 1024;

    /// A connected pair on loopback: (client, nonblocking server side).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        (client, server)
    }

    /// Waits until `n` bytes sent by the peer are queued on `server`.
    fn wait_queued(server: &TcpStream, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut peek = vec![0u8; n + 1];
        while server.peek(&mut peek).unwrap_or(0) < n {
            assert!(Instant::now() < deadline, "the peer's bytes never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn permit(stats: &Arc<ServeStats>) -> GatePermit {
        Arc::new(Gate::new(4, 4))
            .admit(netsim::Ipv4Addr(0x7F00_0001), stats)
            .expect("admitted")
    }

    fn ssh<'s>(server: TcpStream, store: &'s NullStore, stats: &Arc<ServeStats>) -> Conn<'s> {
        let handler = WireHandler::new(AuthPolicy::default(), store);
        Conn::ssh(server, permit(stats), 40_000, handler, now_unix(), 1)
    }

    fn telnet<'s>(server: TcpStream, store: &'s NullStore, stats: &Arc<ServeStats>) -> Conn<'s> {
        let handler = WireHandler::new(AuthPolicy::default(), store);
        Conn::telnet(server, permit(stats), 40_000, handler, now_unix())
    }

    fn pump(conn: &mut Conn<'_>, buf: &mut [u8], readable: bool, stats: &ServeStats) -> bool {
        let long = Duration::from_secs(60);
        conn.pump(buf, readable, Instant::now(), long, long, stats)
    }

    #[test]
    fn the_intake_pump_writes_the_banner_and_reads_nothing() {
        let (mut client, server) = socket_pair();
        let early = b"SSH-2.0-early\r\n";
        client.write_all(early).unwrap();
        wait_queued(&server, early.len());
        let (store, stats) = (NullStore, Arc::new(ServeStats::default()));
        let mut conn = ssh(server, &store, &stats);
        let mut buf = vec![0u8; READ_BUF];

        assert!(!pump(&mut conn, &mut buf, false, &stats));
        assert_eq!(stats.bytes_in.load(Ordering::Relaxed), 0, "nothing read");
        let mut banner = [0u8; 64];
        let n = client.read(&mut banner).unwrap();
        assert!(banner[..n].starts_with(b"SSH-2.0-"), "{:?}", &banner[..n]);
        assert_eq!(stats.bytes_out.load(Ordering::Relaxed), n as u64);

        // The bytes that were already there wait for a readable report.
        assert!(!pump(&mut conn, &mut buf, true, &stats));
        assert_eq!(stats.bytes_in.load(Ordering::Relaxed), early.len() as u64);
    }

    #[test]
    fn data_then_fin_takes_two_pumps_and_the_second_sees_the_eof() {
        let (mut client, server) = socket_pair();
        let hello = b"SSH-2.0-client\r\n";
        client.write_all(hello).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        wait_queued(&server, hello.len());
        std::thread::sleep(Duration::from_millis(50)); // the FIN follows
        let (store, stats) = (NullStore, Arc::new(ServeStats::default()));
        let mut conn = ssh(server, &store, &stats);
        let mut buf = vec![0u8; READ_BUF];
        assert!(!pump(&mut conn, &mut buf, false, &stats), "intake");

        // A short read drains the socket: the pump stops before the EOF.
        assert!(!pump(&mut conn, &mut buf, true, &stats), "unfinished");
        assert_eq!(stats.bytes_in.load(Ordering::Relaxed), hello.len() as u64);
        // The EOF keeps the socket readable, so the poller reports it.
        let mut poller = crate::reactor::Poller::new().unwrap();
        poller.register(conn.raw_fd(), 0, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert!(events.iter().any(|e| e.readable), "the EOF is reported");
        assert!(pump(&mut conn, &mut buf, true, &stats), "the EOF ends it");
        assert_eq!(stats.bytes_in.load(Ordering::Relaxed), hello.len() as u64);
        assert_eq!(conn.ending, Some(Ending::Client));
    }

    #[test]
    fn full_reads_keep_reading_so_one_pump_takes_a_whole_first_flight() {
        let (mut client, server) = socket_pair();
        let mut flight = b"root\r\nhunter2\r\necho ".to_vec();
        flight.resize(298, b'a');
        flight.extend_from_slice(b"\r\n");
        assert_eq!(flight.len(), 300);
        client.write_all(&flight).unwrap();
        wait_queued(&server, flight.len());
        let (store, stats) = (NullStore, Arc::new(ServeStats::default()));
        let mut conn = telnet(server, &store, &stats);
        let mut buf = [0u8; 16];
        assert!(!pump(&mut conn, &mut buf, false, &stats), "intake");

        assert!(!pump(&mut conn, &mut buf, true, &stats));
        assert_eq!(
            stats.bytes_in.load(Ordering::Relaxed),
            300,
            "18 full reads and a short one"
        );
    }

    /// Fills the kernel's buffers toward a peer that never reads, through
    /// a second handle on the server's socket, so that whatever the
    /// server sends next stays unsent.
    fn clog(server: &mut TcpStream) {
        let junk = [0u8; 64 * 1024];
        let mut refusals = 0;
        while refusals < 3 {
            match server.write(&junk) {
                Ok(_) => refusals = 0,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    refusals += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("clogging the socket: {e}"),
            }
        }
    }

    #[test]
    fn a_peer_that_never_reads_is_not_read_once_its_machine_closes() {
        let mut disconnect = Vec::new();
        sshwire::packet::PacketCodec::new().seal(&mut disconnect, |b| {
            sshwire::Message::Disconnect {
                code: 11,
                description: "bye",
            }
            .encode_into(b)
        });
        // One flight ends the dialogue cleanly, the other with a packet
        // whose length field is absurd; both peers then keep writing.
        for (closer, bad) in [(disconnect, false), (vec![0xff; 8], true)] {
            let (mut client, server) = socket_pair();
            let mut clogger = server.try_clone().unwrap();
            let writer = std::thread::spawn(move || {
                let _ = client.write_all(b"SSH-2.0-client\r\n");
                let _ = client.write_all(&closer);
                let noise = [b'A'; 4096];
                for _ in 0..1_000 {
                    if client.write_all(&noise).is_err() {
                        break; // the server side closed: the test is over
                    }
                }
                client // held open, never read
            });
            let (store, stats) = (NullStore, Arc::new(ServeStats::default()));
            let mut conn = ssh(server, &store, &stats);
            let mut buf = vec![0u8; READ_BUF];
            clog(&mut clogger);
            assert!(!pump(&mut conn, &mut buf, false, &stats), "intake");
            wait_queued(&clogger, 2 * READ_BUF);

            clog(&mut clogger);
            let finished = pump(&mut conn, &mut buf, true, &stats);
            let read = stats.bytes_in.load(Ordering::Relaxed);
            assert!(read <= READ_BUF as u64, "read {read} bytes past the close");
            if bad {
                assert!(finished, "a bad packet ends the connection");
                assert_eq!(stats.wire_errors.load(Ordering::Relaxed), 1);
                assert_eq!(conn.ending, Some(Ending::Error));
            } else {
                assert!(!finished, "the closed machine's output is unsent");
                assert!(conn.out.unsent() > 0);
                assert_eq!(conn.interest(), Interest::WRITE, "reading has stopped");
                // Even when the poller reports it readable, nothing more
                // is read, so only the idle deadline ends it.
                assert!(!pump(&mut conn, &mut buf, true, &stats));
                assert_eq!(stats.bytes_in.load(Ordering::Relaxed), read);
                let idle = Duration::from_secs(60);
                let later = Instant::now() + idle;
                assert!(conn.pump(&mut buf, true, later, idle, idle * 10, &stats));
                assert_eq!(conn.ending, Some(Ending::Timeout));
                assert_eq!(stats.bytes_in.load(Ordering::Relaxed), read);
            }
            drop(conn);
            drop(clogger);
            writer.join().unwrap();
        }
    }

    /// What the Telnet machine answers to one `line` after a login.
    fn telnet_answer(line: &[u8]) -> usize {
        let store = NullStore;
        let handler = WireHandler::new(AuthPolicy::default(), &store);
        let mut machine = TelnetServer::new(handler, "svr04");
        machine.input(b"root\r\nhunter2\r\n").unwrap();
        machine.take_output();
        machine.input(line).unwrap();
        machine.take_output().len()
    }

    #[test]
    fn a_peer_that_pipelines_commands_and_never_reads_holds_at_most_the_cap_plus_one_read() {
        let mut line = b"echo ".to_vec();
        line.resize(198, b'x');
        line.extend_from_slice(b"\r\n");
        // One read holds at most this many line ends.
        let one_read = (READ_BUF / line.len() + 2) * telnet_answer(&line);

        let (mut client, server) = socket_pair();
        let writer = std::thread::spawn(move || {
            let _ = client.write_all(b"root\r\nhunter2\r\n");
            for _ in 0..200_000 {
                if client.write_all(&line).is_err() {
                    break; // the server side closed: the test is over
                }
            }
            client // held open, never read
        });
        let (store, stats) = (NullStore, Arc::new(ServeStats::default()));
        let mut conn = telnet(server, &store, &stats);
        let mut buf = vec![0u8; READ_BUF];
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut capped = 0;
        while capped < 50 {
            assert!(Instant::now() < deadline, "the cap was never reached");
            assert!(
                !pump(&mut conn, &mut buf, true, &stats),
                "the peer is still there"
            );
            assert!(
                conn.out.unsent() <= MAX_PENDING_OUT + one_read,
                "{} bytes queued for a peer that never reads",
                conn.out.unsent()
            );
            if conn.out.full() {
                capped += 1;
                assert_eq!(conn.interest(), Interest::WRITE, "reading has stopped");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(conn);
        writer.join().unwrap();
    }
}
