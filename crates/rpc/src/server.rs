//! The socket front end: one [`dai_engine::Engine`], many connections,
//! one event loop — and responses written by whichever thread finishes
//! them.
//!
//! A [`Server`] binds a TCP or Unix socket and routes decoded
//! [`WireRequest`] frames into the engine it wraps. Connections are not
//! threads: a single readiness event loop (epoll, hand-rolled — no
//! dependency, matching the rest of the stack) owns the **read side** of
//! every nonblocking socket. A readiness event buys one bounded `read`
//! into the connection's buffer (epoll is level-triggered: what did not
//! fit raises another event, so nothing reads "until `EAGAIN`"); the
//! loop parses the complete frames and dispatches them — queries as
//! [`dai_engine::Ticket`]s, session-table and introspection requests
//! answered on the spot — and never blocks on the engine.
//!
//! The **write side** is shared. Each connection has an outbox — reply
//! slots in request-arrival order, encoded-but-unsent bytes, owned
//! sessions, epoll interest — behind one mutex, beside the stream. A
//! ticket's hook ([`dai_engine::Ticket::on_complete`]) runs on the
//! engine worker that produced the answer, and that worker converts,
//! frames and writes it itself, through the one function (`Link::deliver`) the loop also uses
//! for its immediate answers and for `EPOLLOUT`. Nothing is handed back
//! to the loop: a request costs it one wake-up (the arrival) and one
//! `read`, and the worker one `write`. `epoll_ctl` is callable from any
//! thread, so whichever thread changes what a connection waits for (a
//! short write → `EPOLLOUT`; a stall → no `EPOLLIN`) settles the
//! interest before it releases the outbox. One thread at a time writes
//! a socket (the outbox's `writing` flag), with the mutex *released*:
//! the peer it wakes may send its next request at once, and the loop
//! must be able to queue it. Every frame carries a request id, so one
//! connection carries **many in-flight requests** answered as they
//! complete.
//!
//! Only the loop accepts, reads, dispatches and closes: a worker that
//! leaves a connection finished or broken shuts the socket down, and the
//! loop closes it on the `EPOLLHUP`. The **self-pipe** wakes the loop
//! for shutdown and for a worker that un-stalled a connection (below) —
//! frames already parsed into the read buffer raise no readiness event,
//! so the loop has to be told to look. Never per request.
//!
//! ## Pipelined coalescing
//!
//! Adjacent `Query` frames against the same `(session, function)` that
//! arrive in one read are submitted through
//! [`dai_engine::Engine::submit_query_batch`] as **one** batch — one
//! session-lock acquisition, one union-cone evaluation — while each
//! frame keeps its own request id and gets its own response: one engine
//! drain answers the run, and the member that completes last frames all
//! of its responses and sends them in one `write`. A client that pipelines per-query frames over one socket reproduces the
//! in-process coalesced lock profile without ever building an explicit
//! batch. Runs break at any non-query frame, so an interleaved `Edit`
//! keeps its submission-order fencing semantics.
//!
//! ## Backpressure
//!
//! Per-connection buffers are bounded in both directions. The read
//! buffer is allocated once (64 KiB) and grows only for a single frame
//! larger than itself. A connection whose unsent backlog passes the soft
//! cap, or that owes `MAX_INFLIGHT` replies — queued slots plus the run
//! being collected — is **stalled**: its buffered frames stop being
//! dispatched and its socket stops being read, so the peer's sends stall
//! and memory stays put. Every delivery re-checks the caps; the one that
//! finds them clear un-stalls the connection and gets the loop to resume
//! it. If the backlog still passes the hard cap (responses already owed
//! can be large), further responses are replaced with a structured
//! [`WireError::Overloaded`] carrying the same request id — the peer
//! always learns the fate of every request, and the server never buffers
//! unboundedly for a slow reader.
//!
//! ## Session ownership
//!
//! Sessions a connection opens ([`WireRequest::Open`]) or restores
//! ([`WireRequest::Load`]) are **owned by that connection**: when it
//! disconnects, they are closed — a crashed IDE does not leak sessions
//! into a long-lived server. [`WireRequest::Handoff`] releases a session
//! to the engine (the explicit handoff), after which it survives the
//! connection. (A `Load` whose connection dies before the restore
//! completes also leaves the session engine-owned, as if handed off.)
//!
//! ## Hostile bytes
//!
//! Malformed traffic is answered in protocol, not with a dropped
//! connection: a damaged frame (checksum mismatch), an oversized
//! declared length (rejected from the header alone), an undecodable
//! payload, or a frame with the wrong protocol version each produce one
//! structured [`WireError`] response — with the offending frame's
//! request id echoed when one was readable — and parsing continues at
//! the next frame boundary. Only transport EOF/errors end a connection,
//! and ending a connection never takes the server down.

use dai_engine::{Engine, EngineError, Request, Response, SessionId, Ticket};
use dai_persist::frame::{
    checksum_with, FrameHeader, FRAME_HEADER_LEN, FRAME_ID_LEN, FRAME_TRAILER_LEN,
};
use dai_persist::PersistDomain;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::c_int;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::proto::{
    decode_message, encode_message, WireError, WireRequest, WireResponse, WireState, MAX_FRAME_LEN,
    PROTOCOL_VERSION, TAG_REQUEST, TAG_RESPONSE,
};

/// Write-queue backlog (bytes) above which a connection stops being
/// read: the peer's own sends stall instead of the server buffering.
pub const SOFT_WRITE_CAP: usize = 1 << 20;

/// Write-queue backlog (bytes) above which further responses are
/// replaced with [`WireError::Overloaded`] (the id still answers). The
/// backlog can legitimately exceed the *soft* cap by responses already
/// owed, so the hard cap bounds worst-case memory per connection at
/// roughly `HARD_WRITE_CAP + MAX_FRAME_LEN`.
pub const HARD_WRITE_CAP: usize = 8 << 20;

/// In-flight request cap per connection; reads stall above it.
pub const MAX_INFLIGHT: usize = 1024;

/// Request id used on responses to frames whose own id could not be
/// read (wrong tag, an old id-less version). Clients allocate ids from 1.
const UNATTRIBUTED_ID: u64 = 0;

// ---------------------------------------------------------------------
// epoll via the platform libc that std already links: no new deps.
// ---------------------------------------------------------------------

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// An owned epoll instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits for readiness, retrying `EINTR`. Returns the filled prefix.
    fn wait<'a>(&self, events: &'a mut [EpollEvent]) -> std::io::Result<&'a [EpollEvent]> {
        loop {
            let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, -1) };
            if rc >= 0 {
                return Ok(&events[..rc as usize]);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

// ---------------------------------------------------------------------
// Addresses, listeners, streams.
// ---------------------------------------------------------------------

/// A parsed bind/connect address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A TCP socket address (host:port).
    Tcp(String),
    /// A Unix domain socket path.
    Unix(String),
}

impl Addr {
    /// Parses `"tcp:HOST:PORT"`, `"unix:PATH"`, a bare `/path` (unix), or
    /// a bare `HOST:PORT` (tcp).
    ///
    /// # Errors
    ///
    /// A human-readable description of an unrecognizable address.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            return Ok(Addr::Tcp(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("unix:") {
            return Ok(Addr::Unix(rest.to_string()));
        }
        if s.starts_with('/') || s.starts_with('.') {
            return Ok(Addr::Unix(s.to_string()));
        }
        if s.contains(':') {
            return Ok(Addr::Tcp(s.to_string()));
        }
        Err(format!(
            "unrecognized address `{s}` (use tcp:HOST:PORT, unix:PATH, HOST:PORT, or /path)"
        ))
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(a) => write!(f, "tcp:{a}"),
            Addr::Unix(p) => write!(f, "unix:{p}"),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        })
    }
}

pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    pub(crate) fn connect(addr: &Addr) -> std::io::Result<Stream> {
        let stream = match addr {
            Addr::Tcp(a) => Stream::Tcp(TcpStream::connect(a)?),
            Addr::Unix(p) => Stream::Unix(UnixStream::connect(p)?),
        };
        tune_stream(&stream);
        Ok(stream)
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true),
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// Per-socket transport tuning, applied to accepted *and* dialed
/// streams: `TCP_NODELAY`, so the small request/response frames
/// pipelining is made of leave immediately instead of sitting out a
/// Nagle round-trip. Unix sockets need (and take) no tuning.
pub(crate) fn tune_stream(stream: &Stream) {
    if let Stream::Tcp(s) = stream {
        let _ = s.set_nodelay(true);
    }
}

// Reads and writes go through a shared reference, as on the std streams
// underneath: the loop reads a connection while a worker writes it.
impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match **self {
            Stream::Tcp(ref s) => (&mut &*s).read(buf),
            Stream::Unix(ref s) => (&mut &*s).read(buf),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match **self {
            Stream::Tcp(ref s) => (&mut &*s).write(buf),
            Stream::Unix(ref s) => (&mut &*s).write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(()) // sockets have no userspace buffer
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Server handle.
// ---------------------------------------------------------------------

/// Server-side configuration for [`Server::bind_with`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// When set, every hello must present this token
    /// ([`WireRequest::Hello`]'s `auth` field); mismatch or absence
    /// answers [`WireError::Unauthorized`]. Compared constant-time.
    pub auth_token: Option<String>,
}

/// What serving has cost in system calls and wake-ups, and how full the
/// per-connection queues have been ([`Server::io_stats`]; the `Metrics`
/// response carries the same values as `dai_rpc_*` lines). Counted per
/// server, not in the process-wide registry: test binaries run several
/// servers in one process, and a budget is checked against one's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// `read` calls on connection sockets.
    pub reads: u64,
    /// `write` calls on connection sockets.
    pub writes: u64,
    /// Returns from `epoll_wait`.
    pub wakeups: u64,
    /// Pokes of the self-pipe (shutdown, un-stalls).
    pub pipe_writes: u64,
    /// The most reply slots any one connection has owed at once.
    pub inflight_high_water: u64,
    /// The most unsent response bytes any one connection has held at once.
    pub backlog_high_water: u64,
}

impl IoStats {
    /// The values as Prometheus gauge lines, in the registry's format.
    fn render(&self) -> String {
        [
            ("dai_rpc_socket_reads", self.reads),
            ("dai_rpc_socket_writes", self.writes),
            ("dai_rpc_loop_wakeups", self.wakeups),
            ("dai_rpc_pipe_writes", self.pipe_writes),
            ("dai_rpc_inflight_high_water", self.inflight_high_water),
            ("dai_rpc_backlog_high_water", self.backlog_high_water),
        ]
        .iter()
        .map(|(name, value)| format!("# TYPE {name} gauge\n{name} {value}\n"))
        .collect()
    }
}

/// The live side of [`IoStats`]. All `Relaxed`: each is a statistic that
/// publishes nothing else.
#[derive(Default)]
struct IoCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    wakeups: AtomicU64,
    pipe_writes: AtomicU64,
    inflight_high_water: AtomicU64,
    backlog_high_water: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Raises a high-water mark (the load keeps "no new high" off the RMW).
fn raise(mark: &AtomicU64, value: usize) {
    if value as u64 > mark.load(Ordering::Relaxed) {
        mark.fetch_max(value as u64, Ordering::Relaxed);
    }
}

impl IoCounters {
    fn snapshot(&self) -> IoStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        IoStats {
            reads: get(&self.reads),
            writes: get(&self.writes),
            wakeups: get(&self.wakeups),
            pipe_writes: get(&self.pipe_writes),
            inflight_high_water: get(&self.inflight_high_water),
            backlog_high_water: get(&self.backlog_high_water),
        }
    }
}

/// What the loop shares with every thread that completes a response.
struct Hub<D> {
    ep: Epoll,
    /// Write end of the self-pipe.
    waker: UnixStream,
    /// Connections a completing thread un-stalled: pushed before the
    /// self-pipe is poked, taken by the loop after it reads the pipe.
    unstalled: Mutex<Vec<u64>>,
    encode_cache: Mutex<EncodeCache<D>>,
    io: IoCounters,
}

impl<D> Hub<D> {
    /// Pokes the self-pipe. A full (or closed, post-shutdown) pipe is
    /// fine: a byte is already in flight, or nobody is listening anymore.
    fn wake(&self) {
        bump(&self.io.pipe_writes);
        let _ = (&self.waker).write(&[1u8]);
    }
}

/// A bound socket server serving one engine to many connections.
pub struct Server<D: PersistDomain> {
    engine: Arc<Engine<D>>,
    addr: Addr,
    stop: Arc<AtomicBool>,
    hub: Arc<Hub<D>>,
    event_loop: Option<JoinHandle<()>>,
}

impl<D: PersistDomain> Server<D> {
    /// Binds `addr` and starts the event loop against `engine`. For
    /// `tcp:host:0` the kernel assigns the port; read the result from
    /// [`Server::addr`]. A pre-existing Unix socket path is replaced.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from binding or epoll setup.
    pub fn bind(addr: &Addr, engine: Arc<Engine<D>>) -> std::io::Result<Server<D>> {
        Server::bind_with(addr, engine, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit [`ServerConfig`] (auth token).
    ///
    /// # Errors
    ///
    /// As [`Server::bind`].
    pub fn bind_with(
        addr: &Addr,
        engine: Arc<Engine<D>>,
        config: ServerConfig,
    ) -> std::io::Result<Server<D>> {
        let (listener, bound) = match addr {
            Addr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let actual = Addr::Tcp(l.local_addr()?.to_string());
                (Listener::Tcp(l), actual)
            }
            Addr::Unix(p) => {
                // Replace a stale socket file from a previous run.
                let _ = std::fs::remove_file(p);
                (Listener::Unix(UnixListener::bind(p)?), addr.clone())
            }
        };
        listener.set_nonblocking()?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let hub = Arc::new(Hub {
            ep: Epoll::new()?,
            waker: waker_tx,
            unstalled: Mutex::new(Vec::new()),
            encode_cache: Mutex::new(EncodeCache {
                map: HashMap::default(),
            }),
            io: IoCounters::default(),
        });
        hub.ep.add(listener.raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        hub.ep.add(waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut event_loop = EventLoop {
            listener,
            waker_rx,
            stop: Arc::clone(&stop),
            conns: HashMap::new(),
            next_conn: 0,
            dispatch: Dispatch {
                engine: Arc::clone(&engine),
                hub: Arc::clone(&hub),
                auth_token: config.auth_token,
            },
        };
        let handle = std::thread::Builder::new()
            .name("dai-rpc-loop".to_string())
            .spawn(move || event_loop.run())
            .expect("spawn rpc event loop");
        Ok(Server {
            engine,
            addr: bound,
            stop,
            hub,
            event_loop: Some(handle),
        })
    }

    /// The bound address (with the kernel-assigned port for `tcp:…:0`),
    /// in the form [`Addr::parse`] and clients accept.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<Engine<D>> {
        &self.engine
    }

    /// What serving has cost so far ([`IoStats`]); deltas price traffic.
    pub fn io_stats(&self) -> IoStats {
        self.hub.io.snapshot()
    }

    /// Stops the event loop, closes every connection (sessions still
    /// owned by connections are closed with them), and removes a Unix
    /// socket file. In-flight requests resolve engine-side; their
    /// responses are dropped with the connections.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.hub.wake();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        if let Addr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl<D: PersistDomain> Drop for Server<D> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------
// The write side: one outbox per connection, shared by every thread
// that completes a response.
// ---------------------------------------------------------------------

/// One owed reply, in request-arrival order.
struct Slot {
    seq: u64,
    id: u64,
    /// Filled and waiting for the next flush. Boxed: a response dwarfs
    /// the rest of the slot, and most queued slots at any instant are
    /// still unfilled.
    reply: Option<Box<WireResponse>>,
}

/// Everything about a connection that the thread finishing a response
/// needs, behind [`Link::out`].
#[derive(Default)]
struct Outbox {
    /// Owed replies, ascending in `seq`.
    slots: VecDeque<Slot>,
    /// Framed responses no thread has taken to the socket yet.
    wbuf: Vec<u8>,
    /// Framed bytes the socket has not accepted: `wbuf` plus whatever
    /// the writing thread holds.
    backlog: usize,
    /// A thread is between taking `wbuf` and reporting what the socket
    /// took of it; everyone else appends and leaves.
    writing: bool,
    /// The socket refused bytes; only an `EPOLLOUT` event (the loop)
    /// writes again, so workers do not retry what cannot succeed.
    blocked: bool,
    owned: HashSet<SessionId>,
    interest: u32,
    /// The loop stopped dispatching this connection's frames (set in
    /// [`Outbox::room`]); cleared by the delivery that finds the caps
    /// clear, which then owes the loop a pump.
    stalled: bool,
    /// The peer closed its sending side *and* the loop has dispatched
    /// every complete frame it had buffered.
    peer_eof: bool,
    dead: bool,
    /// The loop closed the connection; late completions drop their
    /// answer.
    closed: bool,
}

impl Outbox {
    /// How many more frames the loop may dispatch before asking again,
    /// given the `run` members it has parsed but not yet queued; zero
    /// marks the connection stalled.
    fn room(&mut self, run: usize) -> usize {
        let owed = self.slots.len() + run;
        self.stalled = self.backlog > SOFT_WRITE_CAP || owed >= MAX_INFLIGHT;
        if self.stalled {
            0
        } else {
            MAX_INFLIGHT - owed
        }
    }

    /// Frames every filled reply into the write buffer, in whatever
    /// order they completed (out-of-order completion is the point).
    fn flush_ready(&mut self) {
        let mut slots = std::mem::take(&mut self.slots);
        slots.retain_mut(|slot| match slot.reply.take() {
            Some(response) => {
                self.encode_response(slot.id, *response);
                false
            }
            None => true,
        });
        self.slots = slots;
    }

    /// Appends one response frame to the write buffer, applying the two
    /// response-side guards: the overload hard cap and the
    /// oversized-response replacement.
    fn encode_response(&mut self, id: u64, mut response: WireResponse) {
        if self.backlog > HARD_WRITE_CAP {
            // The peer reads too slowly for the responses it keeps
            // requesting: drop the payload, keep the id answered.
            response = WireResponse::Error(WireError::Overloaded);
        }
        let _encode_span = dai_trace::span!("rpc.encode");
        let mut payload = encode_message(&response);
        if payload.len() > MAX_FRAME_LEN {
            payload = encode_message(&WireResponse::Error(WireError::Protocol(format!(
                "response of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame bound",
                payload.len()
            ))));
        }
        let before = self.wbuf.len();
        dai_persist::frame::write_frame_id(
            &mut self.wbuf,
            TAG_RESPONSE,
            PROTOCOL_VERSION,
            Some(id),
            &payload,
        );
        self.backlog += self.wbuf.len() - before;
    }
}

/// The two follow-ups a delivery leaves to the loop thread.
#[derive(Default)]
struct Verdict {
    /// Broken, or the peer is gone and nothing is owed: close it.
    finished: bool,
    /// This delivery took the connection out of the stalled state: the
    /// loop must resume dispatching its buffered frames.
    unstalled: bool,
}

/// A connection as the completing threads see it: the stream and the
/// outbox. The loop keeps the read side in its own [`Conn`].
struct Link<D> {
    /// The connection's id: its epoll token and its name in
    /// [`Hub::unstalled`].
    id: u64,
    stream: Stream,
    out: Mutex<Outbox>,
    hub: Arc<Hub<D>>,
}

impl<D: PersistDomain> Link<D> {
    fn out(&self) -> MutexGuard<'_, Outbox> {
        self.out.lock().expect("outbox poisoned")
    }

    /// Queues reply slots (ascending `seq`, above every queued one).
    fn queue(&self, slots: impl IntoIterator<Item = Slot>) {
        let mut out = self.out();
        out.slots.extend(slots);
        raise(&self.hub.io.inflight_high_water, out.slots.len());
    }

    /// The one way a response reaches the socket, from any thread: fill
    /// the named slots, frame whatever is ready, write what the socket
    /// takes, re-check the backpressure caps and settle epoll interest.
    /// `writable` says an `EPOLLOUT` event caused the call.
    fn deliver(
        &self,
        fills: impl IntoIterator<Item = (u64, WireResponse)>,
        writable: bool,
    ) -> Verdict {
        let mut out = self.out();
        for (seq, response) in fills {
            let at = out.slots.partition_point(|slot| slot.seq < seq);
            if let Some(slot) = out.slots.get_mut(at).filter(|slot| slot.seq == seq) {
                slot.reply = Some(Box::new(response));
            }
        }
        out.flush_ready();
        raise(&self.hub.io.backlog_high_water, out.backlog);
        out.blocked &= !writable;
        // One writer at a time, and with the outbox unlocked: the peer
        // this write wakes may send its next request at once, and the
        // loop must be able to queue that request's slot meanwhile.
        if !out.writing && !out.blocked {
            out.writing = true;
            while !out.wbuf.is_empty() && !out.dead && !out.closed {
                let mut chunk = std::mem::take(&mut out.wbuf);
                drop(out);
                let sent = self.write_once(&chunk);
                out = self.out();
                let Ok(sent) = sent else {
                    out.dead = true;
                    break;
                };
                out.backlog -= sent;
                if sent < chunk.len() {
                    // A short write: the socket is full. Keep the rest
                    // ahead of what arrived meanwhile.
                    out.blocked = true;
                    chunk.drain(..sent);
                    chunk.append(&mut out.wbuf);
                    out.wbuf = chunk;
                    break;
                }
                if out.wbuf.is_empty() {
                    chunk.clear();
                    out.wbuf = chunk; // keep the allocation
                }
            }
            out.writing = false;
        }
        if out.closed {
            return Verdict::default();
        }
        let unstalled = out.stalled && out.room(0) > 0;
        let mut finished = out.dead || (out.peer_eof && out.slots.is_empty() && out.backlog == 0);
        if !finished {
            let mut interest = 0;
            if !out.stalled && !out.peer_eof {
                interest |= EPOLLIN | EPOLLRDHUP;
            }
            if out.blocked {
                interest |= EPOLLOUT;
            }
            if interest != out.interest {
                let fd = self.stream.raw_fd();
                finished = self.hub.ep.modify(fd, interest, self.id).is_err();
                out.interest = interest;
            }
        }
        Verdict {
            finished,
            unstalled,
        }
    }

    /// One `write` call: how many bytes the socket took (0: it is full).
    fn write_once(&self, bytes: &[u8]) -> std::io::Result<usize> {
        loop {
            bump(&self.hub.io.writes);
            return match (&self.stream).write(bytes) {
                Ok(0) => Err(std::io::ErrorKind::WriteZero.into()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                other => other,
            };
        }
    }

    /// [`Link::deliver`] for a thread that is not (or may not be) the
    /// loop: what only the loop may do is passed on to it — a finished
    /// connection by shutting the socket down (the loop sees `EPOLLHUP`
    /// and closes it), an un-stall through the self-pipe.
    fn complete(&self, fills: Vec<(u64, WireResponse)>) {
        let verdict = self.deliver(fills, false);
        if verdict.finished {
            self.stream.shutdown();
        }
        if verdict.unstalled {
            self.hub
                .unstalled
                .lock()
                .expect("un-stall list poisoned")
                .push(self.id);
            self.hub.wake();
        }
    }

    /// Maps a completed engine response onto its wire form. `Loaded`
    /// responses register session ownership here — completion time —
    /// since the restore runs async to the loop; a connection closed in
    /// the meantime leaves the session engine-owned.
    fn response_to_wire(&self, result: Reply<D>, cache: &mut EncodeCache<D>) -> WireResponse {
        match result {
            Err(e) => WireResponse::Error(WireError::from_engine(&e)),
            Ok(Response::State(d)) => WireResponse::State(cache.encode(&d)),
            Ok(Response::Edited(outcome)) => WireResponse::Edited(outcome),
            Ok(Response::Snapshot(snap)) => WireResponse::Snapshot(snap),
            Ok(Response::Saved(outcome)) => WireResponse::Saved(outcome),
            Ok(Response::Loaded { session, outcome }) => {
                let mut out = self.out();
                if !out.closed {
                    out.owned.insert(session);
                }
                WireResponse::Loaded {
                    session: session.0,
                    outcome,
                }
            }
            Ok(Response::Stats(stats)) => WireResponse::Stats(*stats),
        }
    }
}

/// What a ticket completes with.
type Reply<D> = Result<Response<D>, EngineError>;

/// The tickets behind one request frame (`one_frame`: a query batch or
/// sweep, answered by one `States` response in slot `seq`) or behind a
/// coalescing run of query frames (each member its own response, in
/// slots `seq`, `seq + 1`, …; a lone ticket is a run of one). Members
/// park their results here; the one that completes last converts them
/// all — the encode cache locked once — and delivers them together.
struct Group<D> {
    link: Arc<Link<D>>,
    one_frame: bool,
    seq: u64,
    /// Members still out, and the results so far in member order.
    parked: Mutex<(usize, Vec<Option<Reply<D>>>)>,
}

impl<D: PersistDomain> Group<D> {
    /// Registers the group's completion hook on every ticket. Call only
    /// after the slots are queued and the outbox is unlocked: a ticket
    /// that is already resolved runs its hook here, inline.
    fn arm(link: &Arc<Link<D>>, tickets: Vec<Ticket<D>>, one_frame: bool, seq: u64) {
        let group = Arc::new(Group {
            link: Arc::clone(link),
            one_frame,
            seq,
            parked: Mutex::new((tickets.len(), tickets.iter().map(|_| None).collect())),
        });
        for (member, ticket) in tickets.into_iter().enumerate() {
            let group = Arc::clone(&group);
            ticket.on_complete(move |result| group.park(member, result));
        }
    }

    /// Runs on whichever thread filled the member's reply slot.
    fn park(&self, member: usize, result: Reply<D>) {
        let results = {
            let mut parked = self.parked.lock().expect("ticket group poisoned");
            parked.1[member] = Some(result);
            parked.0 -= 1;
            if parked.0 > 0 {
                return;
            }
            std::mem::take(&mut parked.1)
        };
        let results = results
            .into_iter()
            .map(|r| r.expect("every member parked its result"));
        let fills = {
            let mut cache = self
                .link
                .hub
                .encode_cache
                .lock()
                .expect("encode cache poisoned");
            let cache = &mut *cache;
            if self.one_frame {
                let members = results
                    .map(|r| {
                        r.and_then(Response::state_or_invariant)
                            .map(|d| cache.encode(&d))
                            .map_err(|e| WireError::from_engine(&e))
                    })
                    .collect();
                vec![(self.seq, WireResponse::States(members))]
            } else {
                (self.seq..)
                    .zip(results.map(|r| self.link.response_to_wire(r, cache)))
                    .collect()
            }
        };
        self.link.complete(fills);
    }
}

/// Memoizes [`WireState::encode`] per state identity (see
/// [`PersistDomain::encode_identity`]). The engine's memo tables hand
/// the *same* shared state handle back on warm repeats, so a warm
/// sweep's per-member encodes collapse into map hits. Each entry pins a
/// clone of its state: address-derived identity tokens are only unique
/// while the allocation lives, so the cache keeps it alive. Shared by
/// every completing thread behind [`Hub::encode_cache`].
///
/// Domains without a cheap identity (`encode_identity() == None`)
/// bypass the cache entirely.
struct EncodeCache<D> {
    map: HashMap<u64, (D, Vec<u8>), dai_memo::FxBuild>,
}

impl<D: PersistDomain> EncodeCache<D> {
    /// Entry bound; the whole map is dropped when it fills, which also
    /// releases every pinned state (no stale tokens can survive).
    const CAP: usize = 4096;

    fn encode(&mut self, d: &D) -> WireState {
        let Some(key) = d.encode_identity() else {
            return WireState::encode(d);
        };
        if let Some((_pin, bytes)) = self.map.get(&key) {
            return WireState(bytes.clone());
        }
        let state = WireState::encode(d);
        if self.map.len() >= Self::CAP {
            self.map.clear();
        }
        self.map.insert(key, (d.clone(), state.0.clone()));
        state
    }
}

// ---------------------------------------------------------------------
// The read side: the event loop.
// ---------------------------------------------------------------------

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// The read buffer every connection starts with (see `process_rbuf`).
const READ_BUF: usize = 64 * 1024;

/// A connection as the loop sees it: the read buffer and what parsing
/// needs to remember. Nothing here is visible to another thread.
struct Conn<D> {
    link: Arc<Link<D>>,
    /// Allocated (and zeroed) once; `rbuf[rpos..rend]` is unparsed.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    hello_done: bool,
    next_seq: u64,
    /// `read` returned 0.
    eof: bool,
}

impl<D: PersistDomain> Conn<D> {
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Queues an already-answered slot; the pump's delivery frames it.
    fn push_ready(&mut self, id: u64, response: WireResponse) {
        let seq = self.take_seq();
        self.link.queue([Slot {
            seq,
            id,
            reply: Some(Box::new(response)),
        }]);
    }

    /// Queues the slot of one request frame and hooks its tickets: a
    /// lone ticket, or (`one_frame`) the members of a batch or sweep.
    fn push_tickets(&mut self, id: u64, tickets: Vec<Ticket<D>>, one_frame: bool) {
        if tickets.is_empty() {
            return self.push_ready(id, WireResponse::States(Vec::new()));
        }
        let seq = self.take_seq();
        self.link.queue([Slot {
            seq,
            id,
            reply: None,
        }]);
        let _arm_span = dai_trace::span!("rpc.arm", tickets.len());
        Group::arm(&self.link, tickets, one_frame, seq);
    }
}

/// One frame parsed off the front of a connection's read buffer.
enum Parsed {
    /// Not enough buffered bytes for the next boundary yet.
    Incomplete,
    /// A complete frame (damaged payloads arrive as `payload_ok: false`).
    Frame {
        header: FrameHeader,
        id: Option<u64>,
        payload_ok: bool,
        consumed: usize,
    },
    /// A header whose declared length exceeds the bound; only the
    /// header (and id, when the layout has one) is consumed.
    Oversized {
        header: FrameHeader,
        id: Option<u64>,
        consumed: usize,
    },
}

/// Whether a frame's `(tag, version)` pair carries the id field. Only
/// [`PROTOCOL_VERSION`] is served, but an older peer's id-less frame is
/// still consumed whole, so its `UnsupportedVersion` answer leaves the
/// stream at a frame boundary.
fn frame_has_id(header: &FrameHeader) -> bool {
    (header.tag == TAG_REQUEST || header.tag == TAG_RESPONSE) && header.version >= 4
}

/// Splits one request frame off `buf` without copying the payload (the
/// payload is decoded in place; only its verification result travels).
fn parse_frame(buf: &[u8]) -> Parsed {
    if buf.len() < FRAME_HEADER_LEN {
        return Parsed::Incomplete;
    }
    let header = FrameHeader::decode(
        buf[..FRAME_HEADER_LEN]
            .try_into()
            .expect("checked header length"),
    );
    let id_len = if frame_has_id(&header) {
        FRAME_ID_LEN
    } else {
        0
    };
    let pre = FRAME_HEADER_LEN + id_len;
    if buf.len() < pre {
        return Parsed::Incomplete;
    }
    let id = (id_len > 0)
        .then(|| u64::from_le_bytes(buf[FRAME_HEADER_LEN..pre].try_into().expect("8 id bytes")));
    if header.len > MAX_FRAME_LEN as u64 {
        return Parsed::Oversized {
            header,
            id,
            consumed: pre,
        };
    }
    let len = header.len as usize;
    let Some(total) = pre.checked_add(len + FRAME_TRAILER_LEN) else {
        return Parsed::Incomplete;
    };
    if buf.len() < total {
        return Parsed::Incomplete;
    }
    let payload = &buf[pre..pre + len];
    let sum = u64::from_le_bytes(buf[pre + len..total].try_into().expect("8 checksum bytes"));
    Parsed::Frame {
        header,
        id,
        payload_ok: checksum_with(payload, id) == sum,
        consumed: total,
    }
}

/// A run of adjacent same-`(session, function)` query frames being
/// collected for one coalesced batch submission. Members took
/// consecutive sequence numbers from `first_seq`: every other kind of
/// frame flushes the run before it takes its own.
struct QueryRun {
    session: u64,
    func: String,
    first_seq: u64,
    members: Vec<(dai_lang::Loc, u64)>, // (loc, id)
}

struct EventLoop<D: PersistDomain> {
    listener: Listener,
    waker_rx: UnixStream,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn<D>>,
    next_conn: u64,
    dispatch: Dispatch<D>,
}

impl<D: PersistDomain> EventLoop<D> {
    fn run(&mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        while let Ok(ready) = self.dispatch.hub.ep.wait(&mut events) {
            bump(&self.dispatch.hub.io.wakeups);
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in ready {
                match ev.data {
                    TOKEN_LISTENER => self.accept_all(),
                    TOKEN_WAKER => self.resume_unstalled(),
                    conn_id => self.on_event(conn_id, ev.events),
                }
            }
        }
        // Shutdown: close every connection and the sessions it owns.
        for (_, conn) in self.conns.drain() {
            self.dispatch.close(conn);
        }
    }

    fn accept_all(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking().is_err() {
                continue;
            }
            tune_stream(&stream);
            let conn_id = self.next_conn;
            self.next_conn += 1;
            let interest = EPOLLIN | EPOLLRDHUP;
            let hub = Arc::clone(&self.dispatch.hub);
            if hub.ep.add(stream.raw_fd(), interest, conn_id).is_err() {
                continue;
            }
            let conn = Conn {
                link: Arc::new(Link {
                    id: conn_id,
                    stream,
                    out: Mutex::new(Outbox {
                        interest,
                        ..Outbox::default()
                    }),
                    hub,
                }),
                rbuf: vec![0u8; READ_BUF],
                rpos: 0,
                rend: 0,
                hello_done: false,
                next_seq: 0,
                eof: false,
            };
            self.conns.insert(conn_id, conn);
        }
    }

    /// The self-pipe fired: shutdown (the caller checks `stop`), or
    /// workers un-stalled connections whose buffered frames only this
    /// thread can dispatch.
    fn resume_unstalled(&mut self) {
        let mut buf = [0u8; 64];
        let _ = (&self.waker_rx).read(&mut buf);
        let hub = &self.dispatch.hub;
        let ids = std::mem::take(&mut *hub.unstalled.lock().expect("un-stall list poisoned"));
        for conn_id in ids {
            self.on_event(conn_id, 0);
        }
    }

    /// One readiness event (`kinds == 0`: an un-stall) on one connection.
    fn on_event(&mut self, conn_id: u64, kinds: u32) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let finished = kinds & (EPOLLERR | EPOLLHUP) != 0
            || (kinds & (EPOLLIN | EPOLLRDHUP) != 0 && self.dispatch.read_once(conn).is_err())
            || self.dispatch.pump(conn, kinds & EPOLLOUT != 0);
        if finished {
            let conn = self.conns.remove(&conn_id).expect("fetched above");
            self.dispatch.close(conn);
        }
    }
}

/// The parse → dispatch half of the loop, apart from the table of
/// connections so that a handler can hold one `&mut Conn`.
struct Dispatch<D: PersistDomain> {
    engine: Arc<Engine<D>>,
    hub: Arc<Hub<D>>,
    auth_token: Option<String>,
}

impl<D: PersistDomain> Dispatch<D> {
    /// The one `read` a readiness event buys, into the free tail of the
    /// buffer (which [`Dispatch::process_rbuf`] keeps non-empty unless
    /// the connection is stalled). `Err`: a transport failure.
    fn read_once(&self, conn: &mut Conn<D>) -> std::io::Result<()> {
        if conn.eof || conn.rend == conn.rbuf.len() {
            return Ok(());
        }
        loop {
            bump(&self.hub.io.reads);
            match (&conn.link.stream).read(&mut conn.rbuf[conn.rend..]) {
                Ok(0) => conn.eof = true,
                Ok(n) => conn.rend += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            return Ok(());
        }
    }

    /// Makes every kind of progress available on one connection:
    /// dispatch buffered requests, then one delivery — frame the
    /// immediate answers, write, settle epoll interest. Returns whether
    /// the connection is finished and must be closed.
    fn pump(&self, conn: &mut Conn<D>, mut writable: bool) -> bool {
        loop {
            if self.process_rbuf(conn) && conn.eof {
                conn.link.out().peer_eof = true;
            }
            let verdict = conn.link.deliver([], writable);
            if verdict.finished || !verdict.unstalled {
                return verdict.finished;
            }
            // That delivery cleared the stall `process_rbuf` stopped at.
            writable = false;
        }
    }

    /// Parses complete frames out of the read buffer and dispatches
    /// them, coalescing adjacent same-key query frames into one engine
    /// batch. Returns `false` when it stopped at a stall with frames
    /// possibly left, `true` when it ran out of complete frames.
    fn process_rbuf(&self, conn: &mut Conn<D>) -> bool {
        let mut run: Option<QueryRun> = None;
        let mut room = 0;
        let drained = loop {
            if room == 0 {
                // Asked once per `room` frames, not per frame: the slots
                // only drain meanwhile, so the answer stays a lower bound.
                room = conn
                    .link
                    .out()
                    .room(run.as_ref().map_or(0, |r| r.members.len()));
                if room == 0 {
                    break false;
                }
            }
            match parse_frame(&conn.rbuf[conn.rpos..conn.rend]) {
                Parsed::Incomplete => break true,
                Parsed::Oversized {
                    header,
                    id,
                    consumed,
                } => {
                    conn.rpos += consumed;
                    self.flush_run(conn, &mut run);
                    let err = WireError::Protocol(format!(
                        "declared frame length {} exceeds the {MAX_FRAME_LEN}-byte bound",
                        header.len
                    ));
                    conn.push_ready(id.unwrap_or(UNATTRIBUTED_ID), WireResponse::Error(err));
                }
                Parsed::Frame {
                    header,
                    id,
                    payload_ok,
                    consumed,
                } => self.dispatch_frame(conn, header, id, payload_ok, consumed, &mut run),
            }
            room -= 1;
        };
        self.flush_run(conn, &mut run);
        // Keep the free tail: move what is left (a partial frame, or a
        // stall's leftovers) to the front, and grow only for a single
        // frame that fills the whole buffer without completing.
        conn.rbuf.copy_within(conn.rpos..conn.rend, 0);
        conn.rend -= conn.rpos;
        conn.rpos = 0;
        if drained && conn.rend == conn.rbuf.len() {
            conn.rbuf.resize(2 * conn.rend, 0);
        }
        drained
    }

    /// Handles one complete frame: protocol checks, hello gating, then
    /// request routing. Query frames extend (or start) the coalescing
    /// run; everything else flushes it first, preserving submission
    /// order across the engine's edit fences.
    fn dispatch_frame(
        &self,
        conn: &mut Conn<D>,
        header: FrameHeader,
        id: Option<u64>,
        payload_ok: bool,
        consumed: usize,
        run: &mut Option<QueryRun>,
    ) {
        let payload_start =
            conn.rpos + FRAME_HEADER_LEN + if id.is_some() { FRAME_ID_LEN } else { 0 };
        let payload_range = payload_start..payload_start + header.len as usize;
        let id = id.unwrap_or(UNATTRIBUTED_ID);
        conn.rpos += consumed;

        let refusal = if header.tag != TAG_REQUEST {
            Some(WireError::Protocol(format!(
                "unexpected frame tag {:?} (want {:?})",
                header.tag, TAG_REQUEST
            )))
        } else if header.version != PROTOCOL_VERSION {
            Some(WireError::UnsupportedVersion {
                got: header.version,
                want: PROTOCOL_VERSION,
            })
        } else {
            (!payload_ok).then(|| WireError::Protocol("frame checksum mismatch".to_string()))
        };
        let request = match refusal {
            Some(err) => Err(err),
            None => {
                let payload = &conn.rbuf[payload_range];
                let _decode_span = dai_trace::span!("rpc.decode", payload.len());
                decode_message::<WireRequest>(payload)
                    .map_err(|e| WireError::Protocol(format!("undecodable request payload: {e}")))
            }
        };
        let _dispatch_span = dai_trace::span!("rpc.dispatch");
        match request {
            Err(err) => {
                self.flush_run(conn, run);
                conn.push_ready(id, WireResponse::Error(err));
            }
            Ok(request) if !conn.hello_done => {
                self.flush_run(conn, run);
                let response = self.handle_hello(conn, request);
                conn.push_ready(id, response);
            }
            Ok(WireRequest::Query { session, func, loc }) => {
                // Extend the coalescing run, or flush and start another.
                if !run
                    .as_ref()
                    .is_some_and(|r| r.session == session && r.func == func)
                {
                    self.flush_run(conn, run);
                }
                let seq = conn.take_seq();
                run.get_or_insert_with(|| QueryRun {
                    session,
                    func,
                    first_seq: seq,
                    members: Vec::new(),
                })
                .members
                .push((loc, id));
            }
            Ok(other) => {
                self.flush_run(conn, run);
                self.handle_request(conn, id, other);
            }
        }
    }

    /// Submits a collected query run as **one** coalesced engine batch;
    /// every member keeps its own reply slot (and id), so each query
    /// frame still gets its own response.
    fn flush_run(&self, conn: &mut Conn<D>, run: &mut Option<QueryRun>) {
        let Some(r) = run.take() else {
            return;
        };
        let locs: Vec<dai_lang::Loc> = r.members.iter().map(|(loc, _)| *loc).collect();
        let tickets = self
            .engine
            .submit_query_batch(SessionId(r.session), &r.func, &locs);
        conn.link
            .queue((r.first_seq..).zip(r.members).map(|(seq, (_, id))| Slot {
                seq,
                id,
                reply: None,
            }));
        Group::arm(&conn.link, tickets, false, r.first_seq);
    }

    /// The gate every connection starts behind: the first decoded
    /// message must be a hello naming the right domain (and presenting
    /// the auth token, when the server requires one).
    fn handle_hello(&self, conn: &mut Conn<D>, request: WireRequest) -> WireResponse {
        match request {
            WireRequest::Hello { domain, auth } => {
                if domain != D::domain_tag() {
                    return WireResponse::Error(WireError::DomainMismatch {
                        client: domain,
                        server: D::domain_tag(),
                    });
                }
                if let Some(want) = &self.auth_token {
                    let ok = auth
                        .as_deref()
                        .is_some_and(|got| constant_time_eq(got.as_bytes(), want.as_bytes()));
                    if !ok {
                        return WireResponse::Error(WireError::Unauthorized);
                    }
                }
                conn.hello_done = true;
                WireResponse::HelloOk {
                    domain,
                    protocol: PROTOCOL_VERSION,
                }
            }
            other => WireResponse::Error(WireError::Protocol(format!(
                "first message must be a hello, got {}",
                request_name(&other)
            ))),
        }
    }

    /// Routes one post-hello, non-`Query` request. Engine-backed
    /// requests become tickets (the loop never blocks on them); the
    /// session-table and introspection requests answer immediately.
    fn handle_request(&self, conn: &mut Conn<D>, id: u64, request: WireRequest) {
        let engine = &self.engine;
        let mut ticketed =
            |request: Request| conn.push_tickets(id, vec![engine.submit(request)], false);
        match request {
            WireRequest::Hello { .. } => {
                let err = "hello already exchanged on this connection".to_string();
                conn.push_ready(id, WireResponse::Error(WireError::Protocol(err)));
            }
            WireRequest::Query { .. } => unreachable!("query frames travel the coalescing run"),
            WireRequest::QueryBatch {
                session,
                func,
                locs,
            } => {
                // One wire frame → one deliberate coalesced batch.
                let tickets = engine.submit_query_batch(SessionId(session), &func, &locs);
                conn.push_tickets(id, tickets, true);
            }
            WireRequest::Sweep { session, targets } => {
                // One wire frame → the engine's sweep path: one
                // coalesced batch per contiguous function run.
                let tickets = {
                    let _submit_span = dai_trace::span!("rpc.submit");
                    engine.submit_query_sweep(SessionId(session), &targets)
                };
                conn.push_tickets(id, tickets, true);
            }
            WireRequest::Edit { session, edit } => {
                let session = SessionId(session);
                ticketed(Request::Edit { session, edit });
            }
            WireRequest::Snapshot { session } => {
                let session = SessionId(session);
                ticketed(Request::Snapshot { session });
            }
            WireRequest::Save { session, path } => {
                let session = SessionId(session);
                ticketed(Request::Save { session, path });
            }
            // Ownership of the restored session is recorded at completion
            // time (see `Link::response_to_wire`).
            WireRequest::Load { path } => ticketed(Request::Load { path }),
            WireRequest::Stats => ticketed(Request::Stats),
            WireRequest::Open { name, source } => {
                let response = match engine.open_session_src(name, &source) {
                    Ok(sid) => {
                        conn.link.out().owned.insert(sid);
                        WireResponse::Opened { session: sid.0 }
                    }
                    Err(e) => WireResponse::Error(WireError::from_engine(&e)),
                };
                conn.push_ready(id, response);
            }
            WireRequest::Close { session } => {
                let sid = SessionId(session);
                conn.link.out().owned.remove(&sid);
                let response = WireResponse::Closed {
                    existed: engine.close_session(sid),
                };
                conn.push_ready(id, response);
            }
            WireRequest::Handoff { session } => {
                let owned = conn.link.out().owned.remove(&SessionId(session));
                conn.push_ready(id, WireResponse::Released { owned });
            }
            WireRequest::Trace { op } => {
                let dump = match op {
                    dai_engine::TraceOp::Enable => {
                        engine.set_tracing(true);
                        Default::default()
                    }
                    dai_engine::TraceOp::Disable => {
                        engine.set_tracing(false);
                        Default::default()
                    }
                    dai_engine::TraceOp::Dump => engine.drain_trace(),
                };
                conn.push_ready(id, WireResponse::Trace(dump));
            }
            WireRequest::Metrics => {
                let response = WireResponse::Metrics {
                    text: engine.metrics_text() + &self.hub.io.snapshot().render(),
                };
                conn.push_ready(id, response);
            }
            WireRequest::Explain { session, targets } => {
                // One wire frame → one attributed sweep, served
                // synchronously under the session lock (see
                // `Engine::explain_sweep`). The capture is quick and
                // deliberate; it is the one request the loop waits out.
                let response = match dai_engine::Service::explain(
                    engine.as_ref(),
                    SessionId(session),
                    &targets,
                ) {
                    Ok(report) => WireResponse::Explain(report),
                    Err(e) => WireResponse::Error(WireError::from_engine(&e)),
                };
                conn.push_ready(id, response);
            }
            WireRequest::Subscribe { after, max } => {
                // Served straight off the leader's journal file: the
                // frames ship verbatim (disk format == wire format), so
                // the loop only pays one bounded read, not an engine
                // round trip.
                let response = match engine.journal() {
                    None => WireResponse::Error(WireError::Rejected {
                        kind: "no-journal".to_string(),
                        message: "server has no journal attached (nothing to replicate)"
                            .to_string(),
                    }),
                    Some(journal) => match journal.frames_since(after, max) {
                        Ok(batch) => WireResponse::Stream {
                            head_seq: journal.last_seq(),
                            last_seq: batch.last_seq,
                            count: batch.count,
                            frames: batch.bytes,
                        },
                        Err(e) => WireResponse::Error(WireError::Persist(e.to_string())),
                    },
                };
                conn.push_ready(id, response);
            }
        }
    }

    /// Closes a connection: marks the outbox closed (completions still
    /// in flight drop their answers), forgets the socket, and closes
    /// the sessions the connection still owns.
    fn close(&self, conn: Conn<D>) {
        let owned = {
            let mut out = conn.link.out();
            out.closed = true;
            out.slots.clear();
            out.wbuf = Vec::new();
            std::mem::take(&mut out.owned)
        };
        self.hub.ep.del(conn.link.stream.raw_fd());
        for session in owned {
            self.engine.close_session(session);
        }
        conn.link.stream.shutdown();
    }
}

/// Constant-time byte equality: every byte pair is visited regardless
/// of where the first mismatch sits, so response timing does not leak
/// how much of a guessed token matched. Length is folded in rather than
/// early-returned for the same reason.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = (a.len() ^ b.len()) as u8;
    let n = a.len().max(b.len());
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= x ^ y;
    }
    diff == 0
}

fn request_name(r: &WireRequest) -> &'static str {
    match r {
        WireRequest::Hello { .. } => "hello",
        WireRequest::Open { .. } => "open",
        WireRequest::Close { .. } => "close",
        WireRequest::Query { .. } => "query",
        WireRequest::QueryBatch { .. } => "query-batch",
        WireRequest::Sweep { .. } => "sweep",
        WireRequest::Edit { .. } => "edit",
        WireRequest::Snapshot { .. } => "snapshot",
        WireRequest::Save { .. } => "save",
        WireRequest::Load { .. } => "load",
        WireRequest::Stats => "stats",
        WireRequest::Handoff { .. } => "handoff",
        WireRequest::Trace { .. } => "trace",
        WireRequest::Metrics => "metrics",
        WireRequest::Explain { .. } => "explain",
        WireRequest::Subscribe { .. } => "subscribe",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_stream_sets_nodelay_on_both_ends() {
        // The helper runs on accepted server-side streams and dialed
        // client-side streams alike; assert the option actually lands.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dialed = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "fresh socket starts Nagled");
        let server_side = Stream::Tcp(accepted);
        tune_stream(&server_side);
        let Stream::Tcp(accepted) = &server_side else {
            unreachable!()
        };
        assert!(
            accepted.nodelay().unwrap(),
            "accepted stream must be NODELAY"
        );
        drop(dialed);
        // The client constructor path (`Stream::connect`) tunes too.
        let connected = Stream::connect(&Addr::Tcp(addr.to_string())).unwrap();
        let Stream::Tcp(s) = &connected else {
            unreachable!()
        };
        assert!(s.nodelay().unwrap(), "dialed stream must be NODELAY");
    }

    #[test]
    fn constant_time_eq_matches_plain_equality() {
        let cases: [(&[u8], &[u8]); 6] = [
            (b"", b""),
            (b"a", b"a"),
            (b"a", b"b"),
            (b"secret", b"secret"),
            (b"secret", b"secret2"),
            (b"", b"x"),
        ];
        for (a, b) in cases {
            assert_eq!(constant_time_eq(a, b), a == b, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn frame_id_presence_follows_tag_and_version() {
        for (tag, version, want) in [
            (TAG_REQUEST, 4, true),
            (TAG_RESPONSE, 5, true),
            (TAG_REQUEST, 3, false),
            (*b"SESS", 4, false),
        ] {
            let h = FrameHeader {
                tag,
                version,
                len: 0,
            };
            assert_eq!(frame_has_id(&h), want, "{tag:?} v{version}");
        }
    }
}
