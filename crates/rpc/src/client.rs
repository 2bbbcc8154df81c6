//! The typed blocking client: a [`Client<D>`] is a socket connection
//! that implements [`Service<D>`], so code written against the service
//! trait — the REPL's sweep printer, the benches, the equality tests —
//! runs over a socket without changing a line.
//!
//! The client is *typed* where the wire is not: the wire carries opaque
//! state blobs, and `Client<D>` decodes them under `D` after the hello
//! exchange has pinned the server to the same domain tag — a connection
//! to a server analyzing a different domain fails at [`Client::connect`]
//! with a structured [`WireError::DomainMismatch`], never with a
//! misdecoded state.
//!
//! ## Pipelining
//!
//! Every request frame carries a fresh request id, and the response's
//! echoed id is verified. Service calls serialize on an internal lock —
//! one in-flight request per connection — so a shared `&Client` is safe
//! from many threads. A whole sweep is still one frame
//! ([`Service::query_sweep`]); and [`Client::pipeline_queries`] writes
//! **many single-query
//! frames back-to-back** before reading any response, which the server's
//! event loop coalesces into one engine batch (one session-lock
//! acquisition, one union cone) while answering each id individually —
//! the in-process lock profile, reproduced by pipelining alone.
//!
//! If a call panics mid-frame (poisoning the connection lock), later
//! calls do not cascade the panic: they fail with a structured
//! [`EngineError::Remote`] (code `disconnected`), because the stream
//! position is unknowable and the connection is unrecoverable.

use dai_core::driver::ProgramEdit;
use dai_engine::{
    EditOutcome, EngineError, EngineStats, ExplainReport, PersistOutcome, Service, SessionId,
    SessionSnapshot, TraceDump, TraceOp,
};
use dai_lang::Loc;
use dai_persist::frame::{read_frame_expecting, write_frame_id, FrameReadError, StreamFrame};
use dai_persist::PersistDomain;
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard};

use crate::proto::{
    decode_message, encode_message, WireError, WireRequest, WireResponse, WireState, MAX_FRAME_LEN,
    PROTOCOL_VERSION, TAG_REQUEST, TAG_RESPONSE,
};
use crate::server::{Addr, Stream};

/// Client-side connection options for [`Client::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct ClientOptions {
    /// The auth token to present in the hello, for servers configured to
    /// require one.
    pub auth: Option<String>,
}

struct ClientInner {
    /// Responses are read through one buffer — unbuffered, a frame's
    /// four fields are four `read` calls, and a burst's answers arrive
    /// many to a read; requests are written straight to the stream.
    stream: BufReader<Stream>,
    /// The next request id (ids start at 1 — id 0 is the server's
    /// "unattributable frame" sentinel).
    next_id: u64,
}

impl ClientInner {
    /// Appends one request frame under a fresh id, returning the id.
    fn frame(&mut self, out: &mut Vec<u8>, payload: &[u8]) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        write_frame_id(out, TAG_REQUEST, PROTOCOL_VERSION, Some(id), payload);
        id
    }

    fn send(&mut self, frames: &[u8]) -> Result<(), EngineError> {
        self.stream
            .get_mut()
            .write_all(frames)
            .map_err(transport_err)
    }

    fn recv(&mut self) -> Result<(u64, WireResponse), EngineError> {
        read_response(&mut self.stream)
    }
}

/// A blocking connection to a [`crate::Server`] for domain `D`.
pub struct Client<D: PersistDomain> {
    inner: Mutex<ClientInner>,
    /// Memoizes state-blob decoding: the server's warm answers repeat
    /// byte-for-byte (its own encode cache hands back identical blobs),
    /// so repeated demands decode once and then clone. Keyed by blob
    /// bytes, so this is a pure memoization of [`WireState::decode`] —
    /// a hit and a fresh decode are indistinguishable.
    decode_cache: Mutex<HashMap<Vec<u8>, D, dai_memo::FxBuild>>,
    _domain: PhantomData<fn() -> D>,
}

/// [`Client::decode_cache`] entry bound; the map is dropped whole when
/// it fills.
const DECODE_CACHE_CAP: usize = 4096;

/// Response read-buffer size: a 200-frame burst's answers in one read.
const READ_BUF: usize = 64 * 1024;

fn transport_err(detail: impl std::fmt::Display) -> EngineError {
    EngineError::Remote {
        code: "transport",
        message: detail.to_string(),
    }
}

/// The structured failure every call on a poisoned connection gets: a
/// prior call panicked mid-frame, so the stream position is unknowable.
fn poisoned_err() -> EngineError {
    EngineError::Remote {
        code: "disconnected",
        message: "connection unusable: a prior call on it panicked mid-frame".to_string(),
    }
}

/// Duplicates a failure for fan-out to several member results
/// (`EngineError` is not `Clone`; the remote variants carry strings).
fn refail(e: &EngineError) -> EngineError {
    match e {
        EngineError::Remote { code, message } => EngineError::Remote {
            code,
            message: message.clone(),
        },
        other => transport_err(other),
    }
}

impl<D: PersistDomain> Client<D> {
    /// Connects to `addr` (any form [`Addr::parse`] accepts) and performs
    /// the hello exchange, pinning the connection to `D`'s domain tag.
    ///
    /// # Errors
    ///
    /// Transport failures as [`EngineError::Remote`] (code `transport`);
    /// a server speaking another protocol version (code `version`),
    /// requiring an auth token (code `unauthorized`), or analyzing
    /// another domain (code `domain`) as the mapped wire error.
    pub fn connect(addr: &str) -> Result<Client<D>, EngineError> {
        let addr = Addr::parse(addr).map_err(transport_err)?;
        Client::connect_addr(&addr)
    }

    /// [`Client::connect`] over an already-parsed address.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_addr(addr: &Addr) -> Result<Client<D>, EngineError> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// [`Client::connect_addr`] with explicit [`ClientOptions`] (auth
    /// token).
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_with(addr: &Addr, options: ClientOptions) -> Result<Client<D>, EngineError> {
        let stream = Stream::connect(addr).map_err(transport_err)?;
        let mut inner = ClientInner {
            stream: BufReader::with_capacity(READ_BUF, stream),
            next_id: 1,
        };
        let hello = WireRequest::Hello {
            domain: D::domain_tag(),
            auth: options.auth,
        };
        match call_on(&mut inner, &hello)? {
            WireResponse::HelloOk { .. } => Ok(Client {
                inner: Mutex::new(inner),
                decode_cache: Mutex::new(HashMap::default()),
                _domain: PhantomData,
            }),
            WireResponse::Error(e) => Err(e.into_engine()),
            other => Err(transport_err(format!(
                "unexpected hello response {other:?}"
            ))),
        }
    }

    fn lock_inner(&self) -> Result<MutexGuard<'_, ClientInner>, EngineError> {
        self.inner.lock().map_err(|_| poisoned_err())
    }

    /// Sends one request frame and reads one response frame.
    fn call(&self, request: &WireRequest) -> Result<WireResponse, EngineError> {
        let mut inner = self.lock_inner()?;
        call_on(&mut inner, request)
    }

    /// As [`Client::call`], but a `WireResponse::Error` becomes `Err`.
    fn call_ok(&self, request: &WireRequest) -> Result<WireResponse, EngineError> {
        match self.call(request)? {
            WireResponse::Error(e) => Err(e.into_engine()),
            other => Ok(other),
        }
    }

    fn decode_state(&self, blob: &WireState) -> Result<D, EngineError> {
        let mut cache = match self.decode_cache.lock() {
            Ok(g) => g,
            // A panic mid-decode leaves no partial entry worth keeping;
            // just decode uncached from then on.
            Err(_) => return Self::decode_state_uncached(blob),
        };
        if let Some(d) = cache.get(blob.0.as_slice()) {
            return Ok(d.clone());
        }
        let d = Self::decode_state_uncached(blob)?;
        if cache.len() >= DECODE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(blob.0.clone(), d.clone());
        Ok(d)
    }

    fn decode_state_uncached(blob: &WireState) -> Result<D, EngineError> {
        blob.decode::<D>().map_err(|e| EngineError::Remote {
            code: "protocol",
            message: format!("state blob does not decode under {}: {e}", D::domain_tag()),
        })
    }

    fn states_of(&self, request: &WireRequest, expected: usize) -> Vec<Result<D, EngineError>> {
        match self.call_ok(request) {
            Ok(WireResponse::States(members)) if members.len() == expected => members
                .into_iter()
                .map(|m| match m {
                    Ok(blob) => self.decode_state(&blob),
                    Err(e) => Err(e.into_engine()),
                })
                .collect(),
            Ok(other) => {
                let err =
                    || transport_err(format!("expected {expected} member answers, got {other:?}"));
                (0..expected).map(|_| Err(err())).collect()
            }
            Err(e) => (0..expected).map(|_| Err(refail(&e))).collect(),
        }
    }

    /// Demands many locations of one function as **pipelined single-query
    /// frames**: every frame is written before any response is read, and
    /// answers are matched back by request id (the server may complete
    /// them out of order). The server coalesces the adjacent frames into
    /// one engine batch, so this reproduces [`Service::query_batch`]'s
    /// lock/cone profile from plain `Query` frames.
    ///
    /// Answers come back in `locs` order, each member succeeding or
    /// failing on its own.
    pub fn pipeline_queries(
        &self,
        session: SessionId,
        func: &str,
        locs: &[Loc],
    ) -> Vec<Result<D, EngineError>> {
        if locs.is_empty() {
            return Vec::new();
        }
        let mut inner = match self.lock_inner() {
            Ok(g) => g,
            Err(e) => return locs.iter().map(|_| Err(refail(&e))).collect(),
        };
        // Write every request frame back-to-back, then read the answers.
        let mut out = Vec::new();
        let mut ids = Vec::with_capacity(locs.len());
        for &loc in locs {
            let request = WireRequest::Query {
                session: session.0,
                func: func.to_string(),
                loc,
            };
            ids.push(inner.frame(&mut out, &encode_message(&request)));
        }
        if let Err(e) = inner.send(&out) {
            return locs.iter().map(|_| Err(refail(&e))).collect();
        }
        let mut by_id: HashMap<u64, Result<D, EngineError>> = HashMap::new();
        for _ in 0..locs.len() {
            match inner.recv() {
                Ok((id, response)) => {
                    let member = match response {
                        WireResponse::State(blob) => self.decode_state(&blob),
                        WireResponse::Error(e) => Err(e.into_engine()),
                        other => Err(transport_err(format!("unexpected response {other:?}"))),
                    };
                    by_id.insert(id, member);
                }
                Err(e) => return fill_by_id(&ids, by_id, &e),
            }
        }
        fill_by_id(&ids, by_id, &transport_err("response id never arrived"))
    }

    /// Demands `depth` whole sweeps as **pipelined sweep frames**: all
    /// `depth` frames are written before any response is read, so
    /// syscall and scheduling round-trip costs amortize across the
    /// in-flight window — the shape a client repeating a sweep (or
    /// issuing several independent ones) should use for throughput.
    ///
    /// Returns one answer vector per sweep, in issue order.
    pub fn pipeline_sweeps(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
        depth: usize,
    ) -> Vec<Vec<Result<D, EngineError>>> {
        let depth = depth.max(1);
        let sweep_err = |e: &EngineError| -> Vec<Result<D, EngineError>> {
            targets.iter().map(|_| Err(refail(e))).collect()
        };
        let mut inner = match self.lock_inner() {
            Ok(g) => g,
            Err(e) => return (0..depth).map(|_| sweep_err(&e)).collect(),
        };
        let request = WireRequest::Sweep {
            session: session.0,
            targets: targets.to_vec(),
        };
        let payload = encode_message(&request);
        let mut out = Vec::with_capacity(depth * (payload.len() + 32));
        let ids: Vec<u64> = (0..depth)
            .map(|_| inner.frame(&mut out, &payload))
            .collect();
        if let Err(e) = inner.send(&out) {
            return (0..depth).map(|_| sweep_err(&e)).collect();
        }
        let mut by_id: HashMap<u64, Vec<Result<D, EngineError>>> = HashMap::new();
        for _ in 0..depth {
            match inner.recv() {
                Ok((id, WireResponse::States(members))) => {
                    let answers = members
                        .into_iter()
                        .map(|m| match m {
                            Ok(blob) => self.decode_state(&blob),
                            Err(e) => Err(e.into_engine()),
                        })
                        .collect();
                    by_id.insert(id, answers);
                }
                Ok((id, WireResponse::Error(e))) => {
                    by_id.insert(id, sweep_err(&e.into_engine()));
                }
                Ok((id, other)) => {
                    let e = transport_err(format!("unexpected response {other:?}"));
                    by_id.insert(id, sweep_err(&e));
                }
                Err(e) => {
                    return ids
                        .iter()
                        .map(|id| by_id.remove(id).unwrap_or_else(|| sweep_err(&e)))
                        .collect();
                }
            }
        }
        let missing = transport_err("response id never arrived");
        ids.iter()
            .map(|id| by_id.remove(id).unwrap_or_else(|| sweep_err(&missing)))
            .collect()
    }

    /// Releases `session` from this connection's server-side ownership,
    /// so it survives this connection (the explicit handoff). Returns
    /// `true` when this connection owned it.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn handoff(&self, session: SessionId) -> Result<bool, EngineError> {
        match self.call_ok(&WireRequest::Handoff { session: session.0 })? {
            WireResponse::Released { owned } => Ok(owned),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    /// Sends one trace op to the server. Every op answers with a dump;
    /// enable/disable answer an empty one.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn trace(&self, op: TraceOp) -> Result<TraceDump, EngineError> {
        match self.call_ok(&WireRequest::Trace { op })? {
            WireResponse::Trace(dump) => Ok(dump),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    /// Turns the server's runtime trace recording on.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn trace_enable(&self) -> Result<(), EngineError> {
        self.trace(TraceOp::Enable).map(|_| ())
    }

    /// Turns the server's runtime trace recording off.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn trace_disable(&self) -> Result<(), EngineError> {
        self.trace(TraceOp::Disable).map(|_| ())
    }

    /// Drains the server's recorded trace.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn trace_dump(&self) -> Result<TraceDump, EngineError> {
        self.trace(TraceOp::Dump)
    }

    /// The server's Prometheus metrics exposition (live engine stats
    /// are published into gauges before rendering).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn metrics(&self) -> Result<String, EngineError> {
        match self.call_ok(&WireRequest::Metrics)? {
            WireResponse::Metrics { text } => Ok(text),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    /// Pulls journal frames for replication: every frame with sequence
    /// number strictly greater than `after`, at most `max` per call,
    /// verbatim off the server's journal (disk format == wire format).
    /// [`crate::Replica`] drives this in a loop; call it directly to
    /// tail a leader by hand.
    ///
    /// # Errors
    ///
    /// `rejected` (kind `no-journal`) when the server has no journal
    /// attached; transport failures.
    pub fn subscribe(&self, after: u64, max: u32) -> Result<StreamBatch, EngineError> {
        match self.call_ok(&WireRequest::Subscribe { after, max })? {
            WireResponse::Stream {
                head_seq,
                last_seq,
                count,
                frames,
            } => Ok(StreamBatch {
                head_seq,
                last_seq,
                count,
                frames,
            }),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }
}

/// One [`Client::subscribe`] answer: a batch of journal frames plus the
/// leader's head sequence number at answer time (lag = `head_seq` minus
/// the last applied sequence).
#[derive(Debug, Clone)]
pub struct StreamBatch {
    /// The leader's journal head when the batch was cut.
    pub head_seq: u64,
    /// Sequence number of the final frame in `frames` (0 when empty).
    pub last_seq: u64,
    /// Number of frames in `frames`.
    pub count: u32,
    /// The frames, concatenated verbatim as they sit on the leader's
    /// disk.
    pub frames: Vec<u8>,
}

/// Orders pipelined answers back into request order, filling the ids a
/// failure cut off with copies of that failure.
fn fill_by_id<D>(
    ids: &[u64],
    mut by_id: HashMap<u64, Result<D, EngineError>>,
    missing: &EngineError,
) -> Vec<Result<D, EngineError>> {
    ids.iter()
        .map(|id| by_id.remove(id).unwrap_or_else(|| Err(refail(missing))))
        .collect()
}

/// One round trip on a locked connection: write the request frame under
/// a fresh id, read one response frame, verify the id echo, decode.
fn call_on(inner: &mut ClientInner, request: &WireRequest) -> Result<WireResponse, EngineError> {
    let payload = encode_message(request);
    // The server rejects oversized frames from the header alone and
    // would then parse the payload bytes we sent as garbage frames —
    // never put such a frame on the wire in the first place.
    if payload.len() > MAX_FRAME_LEN {
        return Err(EngineError::Remote {
            code: "protocol",
            message: format!(
                "request of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame bound",
                payload.len()
            ),
        });
    }
    let mut out = Vec::with_capacity(payload.len() + 32);
    let id = inner.frame(&mut out, &payload);
    inner.send(&out)?;
    let (got_id, response) = inner.recv()?;
    if got_id != id {
        return Err(transport_err(format!(
            "response id {got_id} does not echo request id {id}"
        )));
    }
    Ok(response)
}

/// Reads and decodes one response frame, returning its echoed id.
fn read_response(stream: &mut impl Read) -> Result<(u64, WireResponse), EngineError> {
    let frame: StreamFrame =
        read_frame_expecting(stream, MAX_FRAME_LEN, |_| true).map_err(|e| match e {
            FrameReadError::Eof | FrameReadError::Truncated => {
                transport_err("server closed the connection")
            }
            other => transport_err(other),
        })?;
    if frame.header.tag != TAG_RESPONSE {
        return Err(transport_err(format!(
            "unexpected response frame tag {:?}",
            frame.header.tag
        )));
    }
    if frame.header.version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion {
            got: frame.header.version,
            want: PROTOCOL_VERSION,
        }
        .into_engine());
    }
    let payload = frame
        .payload
        .ok_or_else(|| transport_err("response frame checksum mismatch"))?;
    let response = decode_message::<WireResponse>(&payload)
        .map_err(|e| transport_err(format!("undecodable response: {e}")))?;
    Ok((frame.id.expect("every frame is read with its id"), response))
}

impl<D: PersistDomain> Service<D> for Client<D> {
    fn open(&self, name: &str, source: &str) -> Result<SessionId, EngineError> {
        match self.call_ok(&WireRequest::Open {
            name: name.to_string(),
            source: source.to_string(),
        })? {
            WireResponse::Opened { session } => Ok(SessionId(session)),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    fn close(&self, session: SessionId) -> Result<bool, EngineError> {
        match self.call_ok(&WireRequest::Close { session: session.0 })? {
            WireResponse::Closed { existed } => Ok(existed),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    fn query(&self, session: SessionId, func: &str, loc: Loc) -> Result<D, EngineError> {
        match self.call_ok(&WireRequest::Query {
            session: session.0,
            func: func.to_string(),
            loc,
        })? {
            WireResponse::State(blob) => self.decode_state(&blob),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    fn query_batch(
        &self,
        session: SessionId,
        func: &str,
        locs: &[Loc],
    ) -> Vec<Result<D, EngineError>> {
        self.states_of(
            &WireRequest::QueryBatch {
                session: session.0,
                func: func.to_string(),
                locs: locs.to_vec(),
            },
            locs.len(),
        )
    }

    fn query_sweep(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Vec<Result<D, EngineError>> {
        self.states_of(
            &WireRequest::Sweep {
                session: session.0,
                targets: targets.to_vec(),
            },
            targets.len(),
        )
    }

    fn edit(&self, session: SessionId, edit: &ProgramEdit) -> Result<EditOutcome, EngineError> {
        match self.call_ok(&WireRequest::Edit {
            session: session.0,
            edit: edit.clone(),
        })? {
            WireResponse::Edited(outcome) => Ok(outcome),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    fn snapshot(&self, session: SessionId) -> Result<SessionSnapshot, EngineError> {
        match self.call_ok(&WireRequest::Snapshot { session: session.0 })? {
            WireResponse::Snapshot(snap) => Ok(snap),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    fn save(&self, session: SessionId, path: &str) -> Result<PersistOutcome, EngineError> {
        match self.call_ok(&WireRequest::Save {
            session: session.0,
            path: path.to_string(),
        })? {
            WireResponse::Saved(outcome) => Ok(outcome),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    fn load(&self, path: &str) -> Result<(SessionId, PersistOutcome), EngineError> {
        match self.call_ok(&WireRequest::Load {
            path: path.to_string(),
        })? {
            WireResponse::Loaded { session, outcome } => Ok((SessionId(session), outcome)),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    fn stats(&self) -> Result<EngineStats, EngineError> {
        match self.call_ok(&WireRequest::Stats)? {
            WireResponse::Stats(stats) => Ok(stats),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }

    fn explain(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Result<ExplainReport, EngineError> {
        match self.call_ok(&WireRequest::Explain {
            session: session.0,
            targets: targets.to_vec(),
        })? {
            WireResponse::Explain(report) => Ok(report),
            other => Err(transport_err(format!("unexpected response {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use dai_domains::IntervalDomain;
    use dai_engine::Engine;
    use std::sync::Arc;

    /// A socket whose receive buffer already holds everything: each
    /// `read` hands over as much as fits, and is counted.
    struct CountingReader {
        data: std::io::Cursor<Vec<u8>>,
        calls: usize,
    }

    impl Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.data.read(buf)
        }
    }

    /// Unbuffered, a response frame is four reads (header, id, payload,
    /// checksum); through the client's reader, three frames that arrived
    /// together are one.
    #[test]
    fn three_responses_delivered_at_once_cost_one_read() {
        let mut bytes = Vec::new();
        for id in 1..=3u64 {
            let payload = encode_message(&WireResponse::Opened { session: id });
            write_frame_id(
                &mut bytes,
                TAG_RESPONSE,
                PROTOCOL_VERSION,
                Some(id),
                &payload,
            );
        }
        let socket = CountingReader {
            data: std::io::Cursor::new(bytes),
            calls: 0,
        };
        let mut stream = BufReader::with_capacity(READ_BUF, socket);
        for id in 1..=3u64 {
            match read_response(&mut stream).unwrap() {
                (got, WireResponse::Opened { session }) => {
                    assert_eq!((got, session), (id, id));
                }
                other => panic!("frame {id} misread: {other:?}"),
            }
        }
        assert_eq!(stream.get_ref().calls, 1, "three frames, one read");
    }

    /// A panic while a thread holds the client's stream lock must not
    /// cascade: later calls on the client get a structured
    /// `disconnected` error, not a poisoned-mutex panic of their own.
    #[test]
    fn poisoned_stream_lock_degrades_to_a_structured_error() {
        let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
        let path = std::env::temp_dir()
            .join(format!("dai-rpc-poison-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let server = Server::bind(&Addr::Unix(path), engine).unwrap();
        let client: Arc<Client<IntervalDomain>> =
            Arc::new(Client::connect(&server.addr().to_string()).unwrap());

        // Poison the lock: a thread panics while holding it, as a panic
        // mid-frame would.
        let victim = Arc::clone(&client);
        let panicked = std::thread::Builder::new()
            .name("poisoner".into())
            .spawn(move || {
                let _guard = victim.inner.lock().unwrap();
                panic!("mid-frame panic");
            })
            .unwrap()
            .join();
        assert!(panicked.is_err(), "the poisoner must have panicked");

        match client.open("after-poison", "function f() { return 1; }") {
            Err(EngineError::Remote { code, message }) => {
                assert_eq!(code, "disconnected");
                assert!(message.contains("panicked"), "{message}");
            }
            other => panic!("expected a structured disconnect, got {other:?}"),
        }
        server.shutdown();
    }
}
