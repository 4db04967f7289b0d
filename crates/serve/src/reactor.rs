//! Readiness-driven reactor primitives: a dependency-free poller
//! (epoll on Linux, poll(2) on other unixes) that several shards can
//! share listening sockets through, the one `accept` every listener
//! goes through, and the bounded per-connection outbox. Deadlines are
//! not kept here: a shard keeps one per connection slot beside its
//! connection table (see [`crate::server`]).
//!
//! Like [`crate::signal`], the OS surface is a tiny hand-declared FFI
//! shim — no libc crate, no mio. `epoll_wait` returns only ready fds,
//! so an idle connection costs its shard nothing per wait.

use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or hung up / errored).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read+write interest — armed while output is queued.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Write-only interest — a connection that has stopped reading
    /// until its queued output drains.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`]. Error/hangup conditions
/// are folded into `readable`: the next pump discovers the EOF or the
/// socket error itself, which is the same path a clean close takes.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable, hung up, or errored.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

// ---------------------------------------------------------------------------
// Linux: epoll via raw FFI (mirroring the `serve::signal` shim).
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;

    const EPOLL_CLOEXEC: i32 = 0o200_0000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLEXCLUSIVE: u32 = 1 << 28;

    /// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel
    /// ABI really is unaligned there), naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// An epoll instance. Registration is O(1) in the kernel; `wait`
    /// returns only ready fds, so an idle shard costs nothing per
    /// connection.
    pub struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask(interest), token)
        }

        /// `EPOLLEXCLUSIVE` wakes one waiting poller per readiness event
        /// instead of all of them. Kernels before 4.5 reject the flag and
        /// get a plain read registration.
        pub fn register_exclusive(&mut self, fd: i32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLEXCLUSIVE, token)
                .or_else(|_| self.register(fd, token, Interest::READ))
        }

        pub fn reregister(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask(interest), token)
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Closing a descriptor removes it from every epoll set, so a
        /// connection about to close needs no `EPOLL_CTL_DEL`.
        pub fn forget(&mut self, _fd: i32) {}

        pub fn wait(&mut self, timeout: super::Duration, out: &mut Vec<Event>) -> io::Result<()> {
            out.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n =
                unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                });
            }
            if n as usize == self.buf.len() {
                // Saturated the event buffer: grow so a burst does not
                // take multiple wait calls to observe.
                let len = self.buf.len() * 2;
                self.buf.resize(len, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Other unixes: poll(2). O(n) per wait, but still readiness-driven —
// no per-connection naps, and the same Poller surface.
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Pollfd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut Pollfd, nfds: u32, timeout: i32) -> i32;
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.readable {
            m |= POLLIN;
        }
        if interest.writable {
            m |= POLLOUT;
        }
        m
    }

    pub struct Poller {
        fds: Vec<Pollfd>,
        tokens: Vec<u64>,
        index: HashMap<i32, usize>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
                index: HashMap::new(),
            })
        }

        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            if self.index.contains_key(&fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd registered",
                ));
            }
            self.index.insert(fd, self.fds.len());
            self.fds.push(Pollfd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        /// poll(2) has no exclusive wakeup: every poller watching the fd
        /// wakes, and the losers' `accept` sees `EAGAIN`.
        pub fn register_exclusive(&mut self, fd: i32, token: u64) -> io::Result<()> {
            self.register(fd, token, Interest::READ)
        }

        pub fn reregister(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let &i = self
                .index
                .get(&fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[i].events = mask(interest);
            self.tokens[i] = token;
            Ok(())
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            let i = self
                .index
                .remove(&fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            if i < self.fds.len() {
                self.index.insert(self.fds[i].fd, i);
            }
            Ok(())
        }

        /// poll(2) watches whatever is in the table, closed or not: a
        /// connection about to close must leave it.
        pub fn forget(&mut self, fd: i32) {
            let _ = self.deregister(fd);
        }

        pub fn wait(&mut self, timeout: super::Duration, out: &mut Vec<Event>) -> io::Result<()> {
            out.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u32, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
                let bits = pfd.revents;
                if bits == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: bits & POLLOUT != 0,
                });
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Non-unix: no readiness API without a dependency. Constructing a
// Poller reports Unsupported, and `Server::start` refuses to serve.
// ---------------------------------------------------------------------------

#[cfg(not(unix))]
mod sys {
    use super::{Event, Interest};
    use std::io;

    pub struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no readiness API on this platform",
            ))
        }

        pub fn register(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }

        pub fn register_exclusive(&mut self, _fd: i32, _token: u64) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }

        pub fn reregister(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }

        pub fn deregister(&mut self, _fd: i32) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }

        pub fn forget(&mut self, _fd: i32) {
            unreachable!("Poller::new never succeeds off unix")
        }

        pub fn wait(&mut self, _timeout: super::Duration, _out: &mut Vec<Event>) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }
    }
}

pub use sys::Poller;

/// The descriptor a socket registers with a [`Poller`] under.
#[cfg(unix)]
pub fn sock_fd(socket: &impl std::os::unix::io::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

/// No descriptors without a readiness API; the stub poller is never
/// constructed, so nothing registers one.
#[cfg(not(unix))]
pub fn sock_fd<S>(_socket: &S) -> i32 {
    -1
}

// ---------------------------------------------------------------------------
// Listening and accepting. On Linux, `TCP_NODELAY` set on a listener is
// copied into every socket accepted from it, and `accept4` hands the
// socket back nonblocking: an accepted connection costs one syscall, not
// three. Other hosts keep std's `accept` and the two per-socket calls.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod listen_sys {
    use std::io;
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::{AsRawFd, FromRawFd};

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const IPPROTO_TCP: i32 = 6;
    const TCP_NODELAY: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o200_0000;

    /// The kernel's `struct sockaddr_storage`: 128 bytes, 8-aligned.
    #[repr(C, align(8))]
    struct SockaddrStorage([u8; 128]);

    extern "C" {
        fn accept4(fd: i32, addr: *mut SockaddrStorage, len: *mut u32, flags: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }

    pub fn prepare(listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let on: i32 = 1;
        // SAFETY: the descriptor is the listener's own open socket, and
        // `on` outlives the call, with its size passed as the length.
        let rc = unsafe {
            setsockopt(
                listener.as_raw_fd(),
                IPPROTO_TCP,
                TCP_NODELAY,
                &on,
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        let mut addr = SockaddrStorage([0; 128]);
        let mut len = std::mem::size_of::<SockaddrStorage>() as u32;
        // SAFETY: `addr` and `len` are a sockaddr_storage and its size,
        // both alive for the call; the kernel writes at most `len` bytes.
        let fd = unsafe {
            accept4(
                listener.as_raw_fd(),
                &mut addr,
                &mut len,
                SOCK_NONBLOCK | SOCK_CLOEXEC,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Owned from here: an unparsable address closes the socket.
        // SAFETY: accept4 just returned this descriptor, open and owned by
        // nothing else.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        let a = &addr.0;
        let port = u16::from_be_bytes([a[2], a[3]]);
        let peer = match u16::from_ne_bytes([a[0], a[1]]) {
            AF_INET => SocketAddr::V4(SocketAddrV4::new(
                Ipv4Addr::new(a[4], a[5], a[6], a[7]),
                port,
            )),
            AF_INET6 => {
                let mut ip = [0u8; 16];
                ip.copy_from_slice(&a[8..24]);
                let flowinfo = u32::from_ne_bytes([a[4], a[5], a[6], a[7]]);
                let scope = u32::from_ne_bytes([a[24], a[25], a[26], a[27]]);
                SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::from(ip), port, flowinfo, scope))
            }
            family => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("accepted a socket of address family {family}"),
                ))
            }
        };
        Ok((stream, peer))
    }
}

#[cfg(not(target_os = "linux"))]
mod listen_sys {
    use std::io;
    use std::net::{SocketAddr, TcpListener, TcpStream};

    pub fn prepare(listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)
    }

    pub fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, peer) = listener.accept()?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok((stream, peer))
    }
}

/// Readies a bound listener for [`accept`]: nonblocking, and on Linux
/// with `TCP_NODELAY`, which every accepted socket inherits.
pub fn prepare_listener(listener: &TcpListener) -> io::Result<()> {
    listen_sys::prepare(listener)
}

/// Accepts one connection from a listener readied by
/// [`prepare_listener`]. The socket comes back nonblocking, close-on-exec
/// and with Nagle off, together with its peer's address.
pub fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
    listen_sys::accept(listener)
}

// ---------------------------------------------------------------------------
// Per-connection output.
// ---------------------------------------------------------------------------

/// Unsent output at which a connection stops reading (and so stops
/// feeding its protocol machine, parser or SSE subscription) until its
/// peer catches up. A peer that sends and never reads holds at most this
/// plus what one read, request or frame produced.
pub const MAX_PENDING_OUT: usize = 64 * 1024;

/// One connection's queued output. The written prefix is dropped once it
/// outweighs the rest, so a peer that reads slowly but steadily cannot
/// grow the buffer past twice what is unsent (amortised O(1) per byte),
/// and a partial write moves nothing.
#[derive(Default)]
pub(crate) struct Outbox {
    buf: Vec<u8>,
    pos: usize,
}

impl Outbox {
    /// An empty outbox over a reused allocation.
    pub(crate) fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Outbox { buf, pos: 0 }
    }

    /// The backing allocation, for reuse by a later connection.
    pub(crate) fn into_buffer(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes queued but not yet written.
    pub(crate) fn unsent(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the unsent output has reached [`MAX_PENDING_OUT`].
    pub(crate) fn full(&self) -> bool {
        self.unsent() >= MAX_PENDING_OUT
    }

    /// Queues `bytes` behind what is still unsent.
    pub(crate) fn queue(&mut self, bytes: &[u8]) {
        self.queue_with(|buf| buf.extend_from_slice(bytes));
    }

    /// Lets `fill` append to the queue in place (a protocol machine
    /// draining its own output queue straight in).
    pub(crate) fn queue_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        if self.pos > 0 && self.pos >= self.unsent() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        fill(&mut self.buf);
    }

    /// Writes queued bytes until the socket would block or the queue is
    /// empty. The bytes written so far stay written on an error; callers
    /// that count them compare [`Outbox::unsent`] before and after.
    pub(crate) fn flush(&mut self, socket: &mut impl Write) -> io::Result<()> {
        while self.unsent() > 0 {
            match socket.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Interest for a connection: always readable, writable only while
/// output is queued (level-triggered, so writable interest on an idle
/// socket would busy-spin the poller).
pub fn conn_interest(wants_write: bool) -> Interest {
    if wants_write {
        Interest::READ_WRITE
    } else {
        Interest::READ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[cfg(unix)]
    #[test]
    fn poller_reports_socket_readiness_and_interest_changes() {
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let fd = server.as_raw_fd();

        let mut poller = Poller::new().unwrap();
        poller.register(fd, 7, Interest::READ).unwrap();
        let mut events = Vec::new();

        // Quiet socket: no events.
        poller.wait(Duration::from_millis(20), &mut events).unwrap();
        assert!(events.is_empty());

        // Peer writes: readable fires.
        client.write_all(b"hello").unwrap();
        client.flush().unwrap();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Arm write interest: an unblocked socket is instantly writable.
        poller.reregister(fd, 7, Interest::READ_WRITE).unwrap();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(fd).unwrap();
        poller.wait(Duration::from_millis(20), &mut events).unwrap();
        assert!(events.is_empty(), "deregistered fd must not report");
    }

    /// Accepts the one queued connection, waiting for its handshake.
    #[cfg(unix)]
    fn accept_queued(listener: &TcpListener) -> (TcpStream, SocketAddr) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match accept(listener) {
                Ok(conn) => return conn,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "the connect never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("accept failed: {e}"),
            }
        }
    }

    /// A socket from [`accept`] is nonblocking, knows its peer, and has
    /// Nagle off: on Linux because the listener's `TCP_NODELAY` was
    /// copied into it, so a kernel that stopped copying it fails here.
    #[cfg(unix)]
    #[test]
    fn accepted_sockets_are_nonblocking_nodelay_and_carry_the_peer_address() {
        use std::io::Read;
        for addr in ["127.0.0.1:0", "[::1]:0"] {
            // A host without IPv6 loopback checks v4 alone.
            let Ok(listener) = TcpListener::bind(addr) else {
                assert_ne!(addr, "127.0.0.1:0", "v4 loopback must bind");
                continue;
            };
            prepare_listener(&listener).unwrap();
            let empty = accept(&listener).unwrap_err();
            assert_eq!(
                empty.kind(),
                ErrorKind::WouldBlock,
                "{addr}: an empty backlog"
            );

            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut stream, peer) = accept_queued(&listener);
            assert_eq!(peer, client.local_addr().unwrap(), "{addr}");
            assert_eq!(stream.peer_addr().unwrap(), peer, "{addr}");
            assert!(stream.nodelay().unwrap(), "{addr}: Nagle is back on");
            let idle = stream.read(&mut [0u8; 16]).unwrap_err();
            assert_eq!(
                idle.kind(),
                ErrorKind::WouldBlock,
                "{addr}: a blocking socket"
            );
        }
    }

    /// Two pollers share one listener, as shards do. A connection that
    /// arrived before a poller registered (a respawned shard's backlog)
    /// is reported at once, and deregistering stops the reports.
    #[cfg(unix)]
    #[test]
    fn shared_listener_reports_its_backlog_to_every_registration() {
        use std::os::unix::io::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let fd = listener.as_raw_fd();
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        let mut pollers = [Poller::new().unwrap(), Poller::new().unwrap()];
        for poller in &mut pollers {
            poller.register_exclusive(fd, 3).unwrap();
            poller.wait(Duration::from_secs(5), &mut events).unwrap();
            assert!(events.iter().any(|e| e.token == 3 && e.readable));
        }
        pollers[0].deregister(fd).unwrap();
        pollers[0]
            .wait(Duration::from_millis(20), &mut events)
            .unwrap();
        assert!(events.is_empty(), "deregistered listener must not report");
        assert!(listener.accept().is_ok(), "the backlog is still there");
    }
}
