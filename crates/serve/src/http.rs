//! The HTTP/1.1 observability front-end (`--http-port`).
//!
//! The listener and every connection live on the aggregator thread's
//! readiness poller (`HttpPlane`): between drains of its session
//! channel the aggregator accepts, reads and answers whatever is ready,
//! and it pumps each SSE stream in the pass that rendered its frames.
//! A connection reads only when the poller reported it readable, and
//! stops at the first read that does not fill its buffer, as a shard's
//! connections do: no read is spent learning that a socket is empty.
//! No HTTP library — the parser below speaks exactly the subset this
//! plane serves (`GET`, header block, optional keep-alive/pipelining)
//! and rejects everything else with a bounded buffer, which is the only
//! defensible posture for a socket that sits on the same host as a
//! honeypot.
//!
//! # Endpoints (all `honeylab-api v1` documents)
//!
//! | path                    | kind              |
//! |-------------------------|-------------------|
//! | `GET /api/stats`        | `stats`           |
//! | `GET /api/sessions/recent` | `sessions_recent` |
//! | `GET /api/credentials/top` | `credentials_top` |
//! | `GET /api/health`       | `health`          |
//! | `GET /events`           | SSE stream of `session` / `recovery` events |
//! | `GET /`                 | `index`           |
//!
//! # Isolation contract
//!
//! Handlers render from the [`ApiSnapshot`] most recently published by
//! the aggregator, which hands it to the plane on its own thread, and
//! never touch accumulators, serving threads, or any lock an accept
//! path could contend on. A
//! stalled dashboard client therefore costs the honeypot nothing but
//! one fd and at most [`reactor::MAX_PENDING_OUT`] bytes (plus one
//! response or frame) of queued output.

use crate::broadcast::{EventBus, Subscription};
use crate::reactor::{self, conn_interest, sock_fd, Event, Interest, Outbox, Poller};
use crate::sse;
use crate::stats::ApiSnapshot;
use hutil::{api_envelope, Json};
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on one request head (request line + headers). Anything
/// larger is answered `431` and the connection closed.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Concurrent HTTP connections; beyond this, accepts are shed at the
/// door exactly like the honeypot listeners shed.
pub const MAX_HTTP_CONNECTIONS: usize = 1024;

/// Idle timeout for request/keep-alive connections, closing ones that
/// cannot flush included (SSE streams are exempt — they idle by design
/// and carry keep-alive comments instead).
const HTTP_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Comment-frame cadence on an idle SSE stream.
const SSE_KEEPALIVE: Duration = Duration::from_secs(15);

// --- request parsing -----------------------------------------------------

/// One parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, as sent.
    pub method: String,
    /// Request target (path + optional query).
    pub target: String,
    /// `true` unless the client asked for `Connection: close` (or spoke
    /// HTTP/1.0 without `keep-alive`).
    pub keep_alive: bool,
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The head exceeded [`MAX_REQUEST_BYTES`] without terminating.
    TooLarge,
    /// The bytes are not an HTTP/1.x request head.
    Malformed,
}

/// Incremental request-head parser with a bounded buffer. Feed chunks
/// with [`RequestParser::push`], then drain complete requests with
/// [`RequestParser::next_request`] — pipelined requests in one chunk
/// come out one at a time, torn requests wait for their remaining
/// bytes.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers a chunk.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Takes the next complete request head, if the buffer holds one.
    pub fn next_request(&mut self) -> Result<Option<Request>, ParseError> {
        let Some(head_len) = find_head_end(&self.buf) else {
            if self.buf.len() > MAX_REQUEST_BYTES {
                return Err(ParseError::TooLarge);
            }
            return Ok(None);
        };
        if head_len > MAX_REQUEST_BYTES {
            return Err(ParseError::TooLarge);
        }
        let head: Vec<u8> = self.buf.drain(..head_len).collect();
        let text = std::str::from_utf8(&head).map_err(|_| ParseError::Malformed)?;
        parse_head(text).map(Some)
    }
}

/// Finds the end of the head (`\r\n\r\n`, tolerating bare `\n\n`),
/// returning its length including the terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

fn parse_head(text: &str) -> Result<Request, ParseError> {
    let mut lines = text.lines();
    let request_line = lines.next().ok_or(ParseError::Malformed)?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(ParseError::Malformed)?;
    let target = parts.next().ok_or(ParseError::Malformed)?;
    let version = parts.next().ok_or(ParseError::Malformed)?;
    if parts.next().is_some() || !target.starts_with('/') {
        return Err(ParseError::Malformed);
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::Malformed),
    };
    let mut keep_alive = http11;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed);
        };
        if name.eq_ignore_ascii_case("connection") {
            let v = value.trim();
            if v.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if v.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
        // A GET head carries no body; Content-Length/TE are ignored
        // (non-GET methods are rejected at routing with 405 and the
        // connection closed, so a smuggled body can never desync).
    }
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        keep_alive,
    })
}

// --- responses -----------------------------------------------------------

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    }
}

/// Serialises one JSON response (pretty-rendered body, explicit length).
pub fn json_response(status: u16, doc: &Json, keep_alive: bool) -> Vec<u8> {
    let body = doc.pretty();
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nAccess-Control-Allow-Origin: *\r\nConnection: {}\r\n\r\n",
        status,
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// The v1 error document (envelope kind `"error"`).
pub fn error_json(status: u16, message: &str) -> Json {
    api_envelope(
        "error",
        Json::obj([
            ("status", Json::u64(u64::from(status))),
            ("message", Json::str(message)),
        ]),
    )
}

/// The `GET /` endpoint listing (envelope kind `"index"`).
pub fn index_json() -> Json {
    api_envelope(
        "index",
        Json::obj([(
            "endpoints",
            Json::arr(
                [
                    "/api/stats",
                    "/api/sessions/recent",
                    "/api/credentials/top",
                    "/api/health",
                    "/events",
                ]
                .into_iter()
                .map(Json::str),
            ),
        )]),
    )
}

/// What routing decided to do with one request.
enum Routed {
    /// Plain JSON response.
    Json { status: u16, doc: Json },
    /// Upgrade this connection to an SSE stream.
    EventStream,
}

/// Routes one request against the current snapshot.
fn route(req: &Request, snap: &ApiSnapshot) -> Routed {
    if !req.method.eq_ignore_ascii_case("GET") {
        return Routed::Json {
            status: 405,
            doc: error_json(405, "only GET is served"),
        };
    }
    let path = req.target.split('?').next().unwrap_or("/");
    let doc = match path {
        "/" => index_json(),
        "/api/stats" => snap.stats_json(),
        "/api/sessions/recent" => snap.recent_json(),
        "/api/credentials/top" => snap.credentials_json(),
        "/api/health" => snap.health_json(),
        "/events" => return Routed::EventStream,
        _ => {
            return Routed::Json {
                status: 404,
                doc: error_json(404, "unknown endpoint"),
            }
        }
    };
    Routed::Json { status: 200, doc }
}

// --- the connection pump -------------------------------------------------

enum Mode {
    /// Parsing requests / writing responses.
    Request,
    /// Streaming SSE frames from a subscription.
    Events(Subscription),
    /// Flush the write buffer, then close.
    Closing,
}

struct HttpConn {
    stream: TcpStream,
    parser: RequestParser,
    out: Outbox,
    mode: Mode,
    last_activity: Instant,
    last_sse_write: Instant,
    /// The last pump ran out of budget with work left; writable interest
    /// brings the connection back on a later pass.
    yielded: bool,
    armed: Interest,
}

impl HttpConn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            parser: RequestParser::new(),
            out: Outbox::default(),
            mode: Mode::Request,
            last_activity: Instant::now(),
            last_sse_write: Instant::now(),
            yielded: false,
            armed: Interest::READ,
        }
    }

    /// Whether the connection takes more input, requests or frames: not
    /// once it is closing, and not while its unsent output is at the cap.
    /// A peer that pipelines requests and never reads holds at most the
    /// cap plus one response; a stalled SSE subscriber loses frames in
    /// its bounded subscription instead (counted in `dropped_frames`).
    fn takes_work(&self) -> bool {
        !matches!(self.mode, Mode::Closing) && !self.out.full()
    }

    /// What the poller should report for this connection.
    fn interest(&self) -> Interest {
        if self.takes_work() {
            conn_interest(self.out.unsent() > 0 || self.yielded)
        } else {
            Interest::WRITE
        }
    }

    /// Pushes buffered output to the socket until it would block.
    fn flush(&mut self) -> std::io::Result<()> {
        let unsent = self.out.unsent();
        let flushed = self.out.flush(&mut self.stream);
        if self.out.unsent() < unsent {
            self.last_activity = Instant::now();
        }
        flushed
    }

    /// Answers parsed requests, or moves queued SSE frames to the output,
    /// while the output is under the cap. A stalled subscriber's frames
    /// stay in its bounded subscription, where the excess drops.
    fn fill(&mut self, snapshot: &ApiSnapshot, bus: &EventBus) {
        while self.takes_work() {
            match &self.mode {
                Mode::Request => match self.parser.next_request() {
                    Ok(None) => return,
                    Ok(Some(req)) => match route(&req, snapshot) {
                        Routed::Json { status, doc } => {
                            let keep = req.keep_alive && status == 200;
                            self.out.queue(&json_response(status, &doc, keep));
                            if !keep {
                                self.mode = Mode::Closing;
                            }
                        }
                        Routed::EventStream => {
                            self.out.queue(
                                b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nAccess-Control-Allow-Origin: *\r\nConnection: close\r\n\r\n",
                            );
                            self.out.queue(sse::keep_alive().as_bytes());
                            self.mode = Mode::Events(bus.subscribe());
                            self.last_sse_write = Instant::now();
                        }
                    },
                    Err(err) => {
                        let (status, msg) = match err {
                            ParseError::TooLarge => (431, "request head too large"),
                            ParseError::Malformed => (400, "malformed request"),
                        };
                        self.out
                            .queue(&json_response(status, &error_json(status, msg), false));
                        self.mode = Mode::Closing;
                    }
                },
                Mode::Events(sub) => {
                    let Some(frame) = sub.try_next() else { return };
                    self.out.queue(frame.as_bytes());
                    self.last_sse_write = Instant::now();
                }
                Mode::Closing => return,
            }
        }
    }

    /// One pump: answer what is parsed and, if the poller reported the
    /// socket `readable`, read until a read does not fill the buffer (the
    /// socket is drained), the peer closes, the output reaches the cap or
    /// the budget is spent; then write. `true` = finished, remove the
    /// connection.
    fn pump(
        &mut self,
        snapshot: &ApiSnapshot,
        bus: &EventBus,
        mut readable: bool,
        draining: bool,
    ) -> bool {
        if draining && matches!(self.mode, Mode::Events(_)) {
            // Shutdown ends SSE streams now (flushed or not — the
            // subscriber will reconnect against the next process).
            return true;
        }
        let mut buf = [0u8; 4096];
        self.yielded = true;
        for _ in 0..PUMP_BUDGET {
            self.fill(snapshot, bus);
            if readable && self.takes_work() {
                match self.stream.read(&mut buf) {
                    Ok(0) => return true, // peer closed
                    Ok(n) => {
                        // A read that leaves room in the buffer took all
                        // the socket had.
                        readable = n == buf.len();
                        self.last_activity = Instant::now();
                        // Bytes on an SSE stream are ignored (clients
                        // send nothing after the request).
                        if matches!(self.mode, Mode::Request) {
                            self.parser.push(&buf[..n]);
                        }
                        continue;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => readable = false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return true,
                }
            }
            // Shutdown: answer what was already parsed, then close rather
            // than idling a keep-alive connection through the drain.
            if draining && matches!(self.mode, Mode::Request) {
                self.mode = Mode::Closing;
            }
            let capped = !self.takes_work();
            if self.flush().is_err() {
                return true;
            }
            // Go round again only if writing made room for work that
            // waited on the cap.
            if !(capped && self.takes_work()) {
                self.yielded = false;
                break;
            }
        }
        matches!(self.mode, Mode::Closing) && self.out.unsent() == 0
    }
}

// --- the plane on the aggregator's poller --------------------------------

/// Reads or write rounds one pump may take before the aggregator moves
/// on; a peer with work left is resumed on a later pass.
const PUMP_BUDGET: usize = 16;

/// The listener's poller token; connections register under their slot
/// index.
const LISTENER: u64 = u64::MAX;

/// The observability plane as the aggregator thread runs it: the
/// listener and every connection on one readiness poller. Without
/// `--http-port` the poller watches nothing and [`HttpPlane::wait`] is a
/// plain sleep.
pub(crate) struct HttpPlane {
    poller: Poller,
    events: Vec<Event>,
    listener: Option<TcpListener>,
    /// Whether the listener is registered; an accept error unregisters
    /// it until the next sweep.
    listening: bool,
    conns: Vec<Option<HttpConn>>,
    free: Vec<usize>,
    live: usize,
    draining: bool,
    /// What requests are answered from: the aggregator's latest publish.
    snapshot: Arc<ApiSnapshot>,
    bus: Arc<EventBus>,
}

impl HttpPlane {
    /// A plane serving `listener` (nonblocking), if any, from `snapshot`
    /// until the first [`HttpPlane::sweep`], and streaming from `bus`.
    pub(crate) fn new(
        poller: Poller,
        listener: Option<TcpListener>,
        snapshot: Arc<ApiSnapshot>,
        bus: Arc<EventBus>,
    ) -> Self {
        let mut plane = HttpPlane {
            poller,
            events: Vec::new(),
            listener,
            listening: false,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            draining: false,
            snapshot,
            bus,
        };
        plane.listen();
        plane
    }

    /// Registers the listener if it is not already.
    fn listen(&mut self) {
        if let (Some(l), false) = (&self.listener, self.listening) {
            self.listening = self
                .poller
                .register(sock_fd(l), LISTENER, Interest::READ)
                .is_ok();
        }
    }

    /// Blocks until a socket is ready or `timeout` passes.
    pub(crate) fn wait(&mut self, timeout: Duration) {
        if self.poller.wait(timeout, &mut self.events).is_err() {
            self.events.clear();
        }
    }

    /// Accepts and pumps whatever the last [`HttpPlane::wait`] reported.
    pub(crate) fn serve_ready(&mut self) {
        for k in 0..self.events.len() {
            let ev = self.events[k];
            match ev.token {
                LISTENER => self.accept(),
                token => self.pump(token as usize, ev.readable),
            }
        }
    }

    /// Pumps every SSE stream, so frames leave in the pass that rendered
    /// them.
    pub(crate) fn pump_streams(&mut self) {
        for i in 0..self.conns.len() {
            if matches!(&self.conns[i], Some(c) if matches!(c.mode, Mode::Events(_))) {
                self.pump(i, false);
            }
        }
    }

    /// The publish-tick sweep: requests are answered from `snapshot` from
    /// now on, request connections idle past [`HTTP_IDLE_TIMEOUT`] close
    /// (flushed or not), quiet SSE streams get a keep-alive comment, and
    /// a listener an accept error paused is registered again.
    pub(crate) fn sweep(&mut self, snapshot: Arc<ApiSnapshot>, now: Instant) {
        self.snapshot = snapshot;
        if !self.draining {
            self.listen();
        }
        for i in 0..self.conns.len() {
            let Some(conn) = self.conns[i].as_mut() else {
                continue;
            };
            if matches!(conn.mode, Mode::Events(_)) {
                if now.duration_since(conn.last_sse_write) >= SSE_KEEPALIVE && conn.takes_work() {
                    conn.out.queue(sse::keep_alive().as_bytes());
                    conn.last_sse_write = now;
                    self.pump(i, false);
                }
            } else if now.duration_since(conn.last_activity) >= HTTP_IDLE_TIMEOUT {
                self.close(i);
            }
        }
    }

    /// Shutdown: the listener closes, SSE streams end, and request
    /// connections close once their parsed requests are answered.
    pub(crate) fn drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(sock_fd(&listener));
        }
        for i in 0..self.conns.len() {
            self.pump(i, false);
        }
    }

    /// Accepts one connection per listener readiness, as the shards do;
    /// a backlog that holds more reports the listener again.
    fn accept(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        let stream = match reactor::accept(listener) {
            Ok((stream, _peer)) => stream,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock
                        | ErrorKind::Interrupted
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::ConnectionReset
                ) =>
            {
                return
            }
            Err(_) => {
                // Descriptor exhaustion and the like: a readable listener
                // would spin the poller, so stop watching it until the
                // next sweep.
                let _ = self.poller.deregister(sock_fd(listener));
                self.listening = false;
                return;
            }
        };
        if self.live >= MAX_HTTP_CONNECTIONS {
            return; // shed at the door
        }
        let i = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self
            .poller
            .register(sock_fd(&stream), i as u64, Interest::READ)
            .is_err()
        {
            self.free.push(i);
            return;
        }
        self.conns[i] = Some(HttpConn::new(stream));
        self.live += 1;
    }

    /// Pumps slot `i`, reading only if it was reported `readable`, and
    /// re-arms or closes it. The pump runs under `catch_unwind`, as a
    /// shard's connection pumps do: a bug on the dashboard path drops one
    /// connection, not the aggregator.
    fn pump(&mut self, i: usize, readable: bool) {
        let Some(conn) = self.conns.get_mut(i).and_then(Option::as_mut) else {
            return;
        };
        let (snapshot, bus, draining) = (&*self.snapshot, &*self.bus, self.draining);
        let pumped = || conn.pump(snapshot, bus, readable, draining);
        let finished = catch_unwind(AssertUnwindSafe(pumped)).unwrap_or(true);
        if finished {
            return self.close(i);
        }
        let want = conn.interest();
        if want != conn.armed {
            let _ = self
                .poller
                .reregister(sock_fd(&conn.stream), i as u64, want);
            conn.armed = want;
        }
    }

    /// Drops slot `i`'s connection; closing its socket takes it out of
    /// an epoll set.
    fn close(&mut self, i: usize) {
        if let Some(conn) = self.conns[i].take() {
            self.poller.forget(sock_fd(&conn.stream));
            self.free.push(i);
            self.live -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::MAX_PENDING_OUT;
    use std::io::Write;

    fn parse_all(parser: &mut RequestParser) -> Vec<Request> {
        let mut out = Vec::new();
        while let Ok(Some(req)) = parser.next_request() {
            out.push(req);
        }
        out
    }

    #[test]
    fn parses_a_plain_get() {
        let mut p = RequestParser::new();
        p.push(b"GET /api/stats HTTP/1.1\r\nHost: localhost\r\n\r\n");
        let reqs = parse_all(&mut p);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].target, "/api/stats");
        assert!(reqs[0].keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let mut p = RequestParser::new();
        p.push(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\nGET / HTTP/1.0\r\n\r\n");
        let reqs = parse_all(&mut p);
        assert_eq!(reqs.len(), 2);
        assert!(!reqs[0].keep_alive);
        assert!(!reqs[1].keep_alive);
    }

    #[test]
    fn torn_requests_reassemble_at_every_split_point() {
        let raw = b"GET /api/health HTTP/1.1\r\nHost: h\r\nAccept: */*\r\n\r\n";
        for split in 1..raw.len() - 1 {
            let mut p = RequestParser::new();
            p.push(&raw[..split]);
            assert_eq!(p.next_request(), Ok(None), "torn at {split}");
            p.push(&raw[split..]);
            let req = p.next_request().unwrap().expect("complete");
            assert_eq!(req.target, "/api/health");
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = RequestParser::new();
        p.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n");
        let targets: Vec<String> = parse_all(&mut p).into_iter().map(|r| r.target).collect();
        assert_eq!(targets, vec!["/a", "/b", "/c"]);
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut p = RequestParser::new();
        p.push(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; MAX_REQUEST_BYTES + 64];
        p.push(&filler);
        assert_eq!(p.next_request(), Err(ParseError::TooLarge));
        // A terminated-but-huge head is equally rejected.
        let mut p = RequestParser::new();
        p.push(b"GET / HTTP/1.1\r\nX-Pad: ");
        p.push(&filler);
        p.push(b"\r\n\r\n");
        assert_eq!(p.next_request(), Err(ParseError::TooLarge));
    }

    #[test]
    fn malformed_heads_are_rejected_not_panicked() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nnocolon\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let mut p = RequestParser::new();
            p.push(bad);
            assert_eq!(p.next_request(), Err(ParseError::Malformed), "{bad:?}");
        }
    }

    /// Deterministic torn-chunk fuzz: a pipelined request stream fed at
    /// every chunk size from 1 byte up always yields the same requests.
    #[test]
    fn chunking_never_changes_the_parse() {
        let stream =
            b"GET /api/stats HTTP/1.1\r\nHost: x\r\n\r\nGET /events HTTP/1.1\r\nAccept: text/event-stream\r\n\r\nGET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let mut reference = RequestParser::new();
        reference.push(stream);
        let expect = parse_all(&mut reference);
        assert_eq!(expect.len(), 3);
        for chunk in 1..=stream.len() {
            let mut p = RequestParser::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                p.push(piece);
                got.extend(parse_all(&mut p));
            }
            assert_eq!(got, expect, "chunk size {chunk}");
        }
    }

    #[test]
    fn routing_serves_every_endpoint_and_404s_the_rest() {
        let snap = ApiSnapshot::sample();
        let get = |target: &str| Request {
            method: "GET".into(),
            target: target.into(),
            keep_alive: true,
        };
        for (target, kind) in [
            ("/", "index"),
            ("/api/stats", "stats"),
            ("/api/sessions/recent", "sessions_recent"),
            ("/api/credentials/top", "credentials_top"),
            ("/api/health", "health"),
            ("/api/stats?pretty=1", "stats"),
        ] {
            match route(&get(target), &snap) {
                Routed::Json { status, doc } => {
                    assert_eq!(status, 200, "{target}");
                    assert_eq!(doc.get("kind").and_then(Json::as_str), Some(kind));
                }
                Routed::EventStream => panic!("{target} should not stream"),
            }
        }
        assert!(matches!(route(&get("/events"), &snap), Routed::EventStream));
        match route(&get("/api/nope"), &snap) {
            Routed::Json { status, .. } => assert_eq!(status, 404),
            _ => panic!("404 expected"),
        }
        let post = Request {
            method: "POST".into(),
            ..get("/api/stats")
        };
        match route(&post, &snap) {
            Routed::Json { status, .. } => assert_eq!(status, 405),
            _ => panic!("405 expected"),
        }
    }

    /// A connected pair on loopback: (client, nonblocking server side).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    /// A short read drains the socket, so the pump that answers a request
    /// does not also spend a read on the FIN behind it; the FIN keeps the
    /// socket readable, and the next readable pump sees the EOF.
    #[test]
    fn a_request_then_fin_takes_two_pumps_and_the_second_sees_the_eof() {
        use std::net::Shutdown;
        let snapshot = ApiSnapshot::sample();
        let bus = EventBus::new();
        let (mut client, server) = socket_pair();
        let req = b"GET /api/health HTTP/1.1\r\nHost: t\r\n\r\n";
        client.write_all(req).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.peek(&mut [0u8; 64]).unwrap_or(0) < req.len() {
            assert!(Instant::now() < deadline, "the request never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50)); // the FIN follows
        let mut conn = HttpConn::new(server);

        assert!(!conn.pump(&snapshot, &bus, true, false), "unfinished");
        assert_eq!(conn.out.unsent(), 0, "the answer is written");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut answer = [0u8; 15];
        client.read_exact(&mut answer).unwrap();
        assert_eq!(&answer, b"HTTP/1.1 200 OK");
        // The EOF keeps the socket readable, so the poller reports it.
        let mut poller = Poller::new().unwrap();
        poller
            .register(sock_fd(&conn.stream), 0, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert!(events.iter().any(|e| e.readable), "the EOF is reported");
        assert!(conn.pump(&snapshot, &bus, true, false), "the EOF ends it");
    }

    #[test]
    fn a_pipelining_peer_that_never_reads_holds_at_most_the_cap_plus_one_response() {
        let snapshot = ApiSnapshot::sample();
        let bus = EventBus::new();
        let one_response = json_response(200, &snapshot.stats_json(), true).len();
        let (mut client, server) = socket_pair();
        let writer = std::thread::spawn(move || {
            let req = b"GET /api/stats HTTP/1.1\r\nHost: t\r\n\r\n";
            for _ in 0..20_000 {
                if client.write_all(req).is_err() {
                    break; // the server side closed: the test is over
                }
            }
            client // held open, never read
        });
        let mut conn = HttpConn::new(server);
        for _ in 0..300 {
            assert!(
                !conn.pump(&snapshot, &bus, true, false),
                "the peer is still there"
            );
            assert!(
                conn.out.unsent() <= MAX_PENDING_OUT + one_response,
                "{} bytes queued for a peer that never reads",
                conn.out.unsent()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            conn.out.unsent() >= MAX_PENDING_OUT,
            "the cap was reached, so the bound above was tested"
        );
        assert_eq!(conn.interest(), Interest::WRITE, "reading has stopped");
        drop(conn);
        writer.join().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_stalled_subscriber_drops_frames_instead_of_queueing_them() {
        use std::os::unix::io::AsRawFd;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_RCVBUF: i32 = 8;

        let snapshot = ApiSnapshot::sample();
        let bus = EventBus::new();
        let (mut client, server) = socket_pair();
        let rcvbuf: i32 = 4096;
        let rc = unsafe { setsockopt(client.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, 4) };
        assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
        client.write_all(b"GET /events HTTP/1.1\r\n\r\n").unwrap();
        let mut conn = HttpConn::new(server);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(conn.mode, Mode::Events(_)) {
            assert!(Instant::now() < deadline, "never subscribed");
            assert!(!conn.pump(&snapshot, &bus, true, false));
            std::thread::sleep(Duration::from_millis(1));
        }
        let frame = sse::frame("session", &"x".repeat(1000));
        for _ in 0..10_000 {
            bus.publish(frame.clone());
            assert!(
                !conn.pump(&snapshot, &bus, true, false),
                "the subscriber is still there"
            );
            assert!(
                conn.out.unsent() <= MAX_PENDING_OUT + frame.len(),
                "{} bytes queued for a subscriber that never reads",
                conn.out.unsent()
            );
        }
        assert!(
            bus.dropped_frames() > 0,
            "the excess dropped and was counted"
        );
        drop(client);
    }

    #[test]
    fn json_response_frames_content_length_exactly() {
        let doc = error_json(404, "unknown endpoint");
        let bytes = json_response(404, &doc, false);
        let text = String::from_utf8(bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 404 Not Found"));
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        assert_eq!(Json::parse(body).unwrap(), doc);
    }
}
