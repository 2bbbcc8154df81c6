//! The wire protocol: versioned, domain-erased request/response messages
//! and the structured error they fail with.
//!
//! Every message is **one** [`dai_persist::frame`] frame — the same
//! tag + version + length + payload + FxHash64-checksum layout snapshot
//! sections use on disk, with a `u64` request id after the length
//! ([`dai_persist::frame::write_frame_id`]):
//!
//! ```text
//! [u8;4]  tag        "RPCQ" (request) | "RPCS" (response)
//! u16     version    PROTOCOL_VERSION
//! u64     length     payload length
//! u64     id         request id (echoed on the response)
//! bytes   payload    one Persist-encoded WireRequest / WireResponse
//! u64     checksum   FxHash64 over payload + length + id
//! ```
//!
//! ## Domain erasure
//!
//! The messages are not generic over the abstract domain: states travel
//! as **opaque byte blobs** ([`WireState`]) holding the domain's
//! [`Persist`] encoding, and the domain is *named* — once per connection
//! — in the [`WireRequest::Hello`] exchange. A server for domain `D`
//! rejects a hello naming any other tag with
//! [`WireError::DomainMismatch`], so blobs can never be misdecoded under
//! the wrong domain; after the hello, neither side re-sends the tag.
//!
//! ## Version and request ids
//!
//! The frame header's `version` field carries the protocol version, and
//! the server accepts exactly [`PROTOCOL_VERSION`]. Any other version
//! answers [`WireError::UnsupportedVersion`] naming the version the
//! server speaks; the frame is still consumed whole (a version below 4
//! is read in the old id-less layout), so the connection stays in sync
//! and a corrected hello may follow. The server echoes each request's
//! id on its response, so one connection can keep many requests in
//! flight and match answers out of order.
//!
//! ## Error codes
//!
//! [`WireError::code`] gives every failure a stable, machine-readable
//! code (documented in `crates/rpc/README.md`); remote clients map codes
//! with in-process counterparts back onto [`dai_engine::EngineError`]
//! variants and the rest onto [`dai_engine::EngineError::Remote`].

use dai_core::driver::ProgramEdit;
use dai_engine::{
    EditOutcome, EngineError, EngineStats, ExplainReport, PersistOutcome, SessionSnapshot,
    TraceDump, TraceOp,
};
use dai_lang::Loc;
use dai_persist::{Persist, PersistError, Reader, Writer};

/// The wire protocol version spoken by this build. Bumped when message
/// layouts change; the frame header carries it on every message.
/// Version 2: `QueryStats` gained the compiled/interpreted transfer
/// counters. Version 3: the `Explain` request/response pair, and
/// `EngineStats` gained the explain totals. Version 4: the request-id
/// frame field (multiplexed pipelining), the hello auth token, and the
/// `unauthorized`/`overload` error codes.
pub const PROTOCOL_VERSION: u16 = 4;

/// Frame tag of client → server messages.
pub const TAG_REQUEST: [u8; 4] = *b"RPCQ";

/// Frame tag of server → client messages.
pub const TAG_RESPONSE: [u8; 4] = *b"RPCS";

/// Upper bound on a frame payload either side will read. A header
/// declaring more fails fast ([`WireError::Protocol`]) without the
/// payload being allocated or consumed — one lying header cannot make a
/// peer allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// An abstract state as it travels: the domain's [`Persist`] encoding,
/// opaque to the transport. The domain it decodes under was pinned by
/// the connection's hello exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireState(pub Vec<u8>);

impl WireState {
    /// Encodes a state.
    pub fn encode<D: Persist>(state: &D) -> WireState {
        let mut w = Writer::new();
        state.put(&mut w);
        WireState(w.into_bytes())
    }

    /// Decodes the blob under `D`, requiring every byte to be consumed.
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the blob does not decode (or has trailing
    /// bytes) under `D` — a domain-mismatch symptom the hello exchange
    /// exists to prevent.
    pub fn decode<D: Persist>(&self) -> Result<D, PersistError> {
        let mut r = Reader::new(&self.0);
        let d = D::get(&mut r)?;
        if !r.is_exhausted() {
            return Err(PersistError::Corrupt(format!(
                "abstract state blob has {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(d)
    }
}

impl Persist for WireState {
    fn put(&self, w: &mut Writer) {
        w.u64(self.0.len() as u64);
        w.bytes(&self.0);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.len_prefix()?;
        Ok(WireState(r.take(n)?.to_vec()))
    }
}

/// One client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// The mandatory first message on a connection: names the abstract
    /// domain the client will decode states under, and optionally
    /// presents an auth token.
    Hello {
        /// The client's [`dai_persist::PersistDomain::domain_tag`].
        domain: String,
        /// The auth token, when the server is configured to require one
        /// (compared constant-time server-side; a mismatch or absence
        /// answers [`WireError::Unauthorized`]).
        auth: Option<String>,
    },
    /// Open a session by parsing `source` server-side.
    Open {
        /// Session name.
        name: String,
        /// Program source text.
        source: String,
    },
    /// Close a session.
    Close {
        /// Target session.
        session: u64,
    },
    /// Demand the state at one location.
    Query {
        /// Target session.
        session: u64,
        /// Function name.
        func: String,
        /// Program location.
        loc: Loc,
    },
    /// Demand a batch of locations against one function — lands in the
    /// engine's coalescing path as **one** batch.
    QueryBatch {
        /// Target session.
        session: u64,
        /// Function name.
        func: String,
        /// Program locations.
        locs: Vec<Loc>,
    },
    /// Demand a whole `(function, location)` sweep — lands in
    /// `Engine::submit_query_sweep`, one coalesced batch per contiguous
    /// function run, so the wire preserves the in-process lock/cone
    /// profile.
    Sweep {
        /// Target session.
        session: u64,
        /// Sweep targets (sort for one batch per function).
        targets: Vec<(String, Loc)>,
    },
    /// Apply a program edit (fences later-submitted queries engine-side).
    Edit {
        /// Target session.
        session: u64,
        /// The edit.
        edit: ProgramEdit,
    },
    /// Export the session's deterministic DOT snapshot.
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Persist a session to a path on the serving host.
    Save {
        /// Target session.
        session: u64,
        /// Destination path (server filesystem).
        path: String,
    },
    /// Restore a snapshot file (server filesystem) into a fresh session.
    Load {
        /// Source path (server filesystem).
        path: String,
    },
    /// Read engine-wide statistics.
    Stats,
    /// Release a session from this connection's ownership so it survives
    /// the connection: the explicit handoff. Without it, sessions a
    /// connection opened or loaded are closed when the connection ends.
    Handoff {
        /// The session to release.
        session: u64,
    },
    /// Control the server's trace recorder: flip the runtime switch or
    /// drain the recorded spans/events. Every op is answered with
    /// [`WireResponse::Trace`] (an empty dump for enable/disable).
    Trace {
        /// What to do.
        op: TraceOp,
    },
    /// Read the server's metrics registry as Prometheus text (the
    /// engine's live stats are published into gauges first).
    Metrics,
    /// Serve a `(function, location)` sweep with cost attribution and
    /// return the capture ([`WireResponse::Explain`]): per-cell outcomes
    /// and wall times, the demanded cone's work/span parallelism, lock
    /// wait vs. held time. The answers themselves are not returned —
    /// use [`WireRequest::Sweep`] to keep them.
    Explain {
        /// Target session.
        session: u64,
        /// Sweep targets (sort for one batch per function).
        targets: Vec<(String, Loc)>,
    },
    /// Pull journal frames for replication: every frame with sequence
    /// number strictly greater than `after`, at most `max` of them,
    /// verbatim as they sit on the leader's disk. Answered with
    /// [`WireResponse::Stream`]; a server with no journal attached
    /// answers [`WireError::Rejected`] (kind `no-journal`).
    Subscribe {
        /// Return only frames with `seq > after` (0 pulls from genesis).
        after: u64,
        /// Batch bound: at most this many frames per response.
        max: u32,
    },
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// The hello was accepted; the connection is established.
    HelloOk {
        /// The server's domain tag (equal to the client's, by check).
        domain: String,
        /// The server's protocol version.
        protocol: u16,
    },
    /// A session was opened.
    Opened {
        /// The new session's id.
        session: u64,
    },
    /// A close completed.
    Closed {
        /// `false` when the id was unknown.
        existed: bool,
    },
    /// A single query's answer.
    State(WireState),
    /// A batch or sweep's answers, one per member in request order; each
    /// member succeeds or fails individually.
    States(Vec<Result<WireState, WireError>>),
    /// An edit was applied.
    Edited(EditOutcome),
    /// A snapshot export.
    Snapshot(SessionSnapshot),
    /// A save completed.
    Saved(PersistOutcome),
    /// A load completed.
    Loaded {
        /// The restored session's id.
        session: u64,
        /// What was restored and dropped.
        outcome: PersistOutcome,
    },
    /// Engine statistics (the full [`EngineStats`], batch and persist
    /// counters included).
    Stats(EngineStats),
    /// A handoff completed.
    Released {
        /// `true` when this connection owned the session (it no longer
        /// does); `false` when it was already engine-owned.
        owned: bool,
    },
    /// The request failed.
    Error(WireError),
    /// A trace op completed; [`WireRequest::Trace`] with
    /// [`TraceOp::Dump`] carries the drained records, enable/disable an
    /// empty dump.
    Trace(TraceDump),
    /// The metrics exposition.
    Metrics {
        /// Prometheus text exposition.
        text: String,
    },
    /// An explain capture (already domain-erased — cell names and the
    /// domain tag are strings, so it travels whole).
    Explain(ExplainReport),
    /// A replication batch: `count` journal frames, byte-for-byte as the
    /// leader's journal holds them (the disk format *is* the wire
    /// format). `head_seq` is the leader's journal head at answer time,
    /// so a follower computes its lag as `head_seq - applied_seq`;
    /// `last_seq` is the last frame in this batch (0 when empty).
    Stream {
        /// The leader's journal head sequence number.
        head_seq: u64,
        /// Sequence number of the final frame in `frames` (0 if none).
        last_seq: u64,
        /// Number of frames in `frames`.
        count: u32,
        /// The frames, concatenated verbatim.
        frames: Vec<u8>,
    },
}

/// A structured wire failure. Every variant has a stable [`code`]
/// (see `crates/rpc/README.md` for the full table).
///
/// [`code`]: WireError::code
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer's bytes violated the protocol: damaged frame (checksum
    /// mismatch), oversized declared length, undecodable or trailing
    /// payload bytes, or a first message that was not a hello.
    Protocol(String),
    /// The frame's protocol version is not the one this peer speaks.
    UnsupportedVersion {
        /// The version received.
        got: u16,
        /// The version spoken here.
        want: u16,
    },
    /// The hello named a different domain than the server analyzes.
    DomainMismatch {
        /// The client's domain tag.
        client: String,
        /// The server's domain tag.
        server: String,
    },
    /// Unknown session id.
    NoSuchSession(u64),
    /// Unknown function within the session.
    NoSuchFunction(String),
    /// The request was structurally valid but rejected (failed edit,
    /// unparseable source, session not saveable, …).
    Rejected {
        /// A sub-code naming the rejection kind ("cfg", "parse",
        /// "not-replayable", "daig").
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// A persistence failure (save/load I/O or snapshot codec).
    Persist(String),
    /// The serving engine dropped the request (worker failure).
    Disconnected,
    /// The hello's auth token was missing or wrong (the server is
    /// configured to require one).
    Unauthorized,
    /// The connection's write queue hit its hard bound — the peer reads
    /// too slowly for the responses it keeps requesting. The response
    /// this error replaces is dropped; the request id still gets an
    /// answer.
    Overloaded,
}

impl WireError {
    /// The stable, machine-readable error code.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::Protocol(_) => "protocol",
            WireError::UnsupportedVersion { .. } => "version",
            WireError::DomainMismatch { .. } => "domain",
            WireError::NoSuchSession(_) => "no-session",
            WireError::NoSuchFunction(_) => "no-function",
            WireError::Rejected { .. } => "rejected",
            WireError::Persist(_) => "persist",
            WireError::Disconnected => "disconnected",
            WireError::Unauthorized => "unauthorized",
            WireError::Overloaded => "overload",
        }
    }

    /// Maps an engine failure into its wire form.
    pub fn from_engine(e: &EngineError) -> WireError {
        match e {
            EngineError::NoSuchSession(id) => WireError::NoSuchSession(id.0),
            EngineError::NoSuchFunction(f) => WireError::NoSuchFunction(f.clone()),
            EngineError::Daig(d) => WireError::Rejected {
                kind: "daig".to_string(),
                message: d.to_string(),
            },
            EngineError::Cfg(c) => WireError::Rejected {
                kind: "cfg".to_string(),
                message: c.to_string(),
            },
            EngineError::Parse(m) => WireError::Rejected {
                kind: "parse".to_string(),
                message: m.clone(),
            },
            EngineError::NotReplayable(name) => WireError::Rejected {
                kind: "not-replayable".to_string(),
                message: name.clone(),
            },
            EngineError::ReadOnly(id) => WireError::Rejected {
                kind: "read-only".to_string(),
                message: format!("session s{} is a replica (read-only)", id.0),
            },
            EngineError::Persist(p) => WireError::Persist(p.to_string()),
            EngineError::Disconnected => WireError::Disconnected,
            // A server is never itself a remote client, but the mapping
            // must be total: pass the code through as a protocol error.
            EngineError::Remote { code, message } => {
                WireError::Protocol(format!("relayed remote failure [{code}]: {message}"))
            }
        }
    }

    /// Maps a wire failure back onto the engine error a local caller
    /// would have seen: variants with in-process counterparts map
    /// exactly; the transport-only ones become
    /// [`EngineError::Remote`] with this error's [`WireError::code`].
    pub fn into_engine(self) -> EngineError {
        match self {
            WireError::NoSuchSession(id) => EngineError::NoSuchSession(dai_engine::SessionId(id)),
            WireError::NoSuchFunction(f) => EngineError::NoSuchFunction(f),
            WireError::Disconnected => EngineError::Disconnected,
            other => EngineError::Remote {
                code: other.code(),
                message: other.to_string(),
            },
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
            WireError::UnsupportedVersion { got, want } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this side speaks {want})"
                )
            }
            WireError::DomainMismatch { client, server } => write!(
                f,
                "domain mismatch: client decodes `{client}`, server analyzes `{server}`"
            ),
            WireError::NoSuchSession(id) => write!(f, "no such session s{id}"),
            WireError::NoSuchFunction(name) => write!(f, "no such function `{name}`"),
            WireError::Rejected { kind, message } => write!(f, "rejected ({kind}): {message}"),
            WireError::Persist(m) => write!(f, "persistence failure: {m}"),
            WireError::Disconnected => write!(f, "engine dropped the request (worker failure)"),
            WireError::Unauthorized => write!(f, "hello auth token missing or wrong"),
            WireError::Overloaded => {
                write!(
                    f,
                    "connection write queue full (slow reader); response dropped"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl Persist for WireError {
    fn put(&self, w: &mut Writer) {
        match self {
            WireError::Protocol(m) => {
                w.u8(0);
                m.put(w);
            }
            WireError::UnsupportedVersion { got, want } => {
                w.u8(1);
                w.u16(*got);
                w.u16(*want);
            }
            WireError::DomainMismatch { client, server } => {
                w.u8(2);
                client.put(w);
                server.put(w);
            }
            WireError::NoSuchSession(id) => {
                w.u8(3);
                w.u64(*id);
            }
            WireError::NoSuchFunction(f) => {
                w.u8(4);
                f.put(w);
            }
            WireError::Rejected { kind, message } => {
                w.u8(5);
                kind.put(w);
                message.put(w);
            }
            WireError::Persist(m) => {
                w.u8(6);
                m.put(w);
            }
            WireError::Disconnected => w.u8(7),
            WireError::Unauthorized => w.u8(8),
            WireError::Overloaded => w.u8(9),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => WireError::Protocol(String::get(r)?),
            1 => WireError::UnsupportedVersion {
                got: r.u16()?,
                want: r.u16()?,
            },
            2 => WireError::DomainMismatch {
                client: String::get(r)?,
                server: String::get(r)?,
            },
            3 => WireError::NoSuchSession(r.u64()?),
            4 => WireError::NoSuchFunction(String::get(r)?),
            5 => WireError::Rejected {
                kind: String::get(r)?,
                message: String::get(r)?,
            },
            6 => WireError::Persist(String::get(r)?),
            7 => WireError::Disconnected,
            8 => WireError::Unauthorized,
            9 => WireError::Overloaded,
            t => return Err(PersistError::Corrupt(format!("unknown wire-error tag {t}"))),
        })
    }
}

impl Persist for WireRequest {
    fn put(&self, w: &mut Writer) {
        match self {
            WireRequest::Hello { domain, auth } => {
                w.u8(0);
                domain.put(w);
                auth.put(w);
            }
            WireRequest::Open { name, source } => {
                w.u8(1);
                name.put(w);
                source.put(w);
            }
            WireRequest::Close { session } => {
                w.u8(2);
                w.u64(*session);
            }
            WireRequest::Query { session, func, loc } => {
                w.u8(3);
                w.u64(*session);
                func.put(w);
                loc.put(w);
            }
            WireRequest::QueryBatch {
                session,
                func,
                locs,
            } => {
                w.u8(4);
                w.u64(*session);
                func.put(w);
                locs.put(w);
            }
            WireRequest::Sweep { session, targets } => {
                w.u8(5);
                w.u64(*session);
                targets.put(w);
            }
            WireRequest::Edit { session, edit } => {
                w.u8(6);
                w.u64(*session);
                edit.put(w);
            }
            WireRequest::Snapshot { session } => {
                w.u8(7);
                w.u64(*session);
            }
            WireRequest::Save { session, path } => {
                w.u8(8);
                w.u64(*session);
                path.put(w);
            }
            WireRequest::Load { path } => {
                w.u8(9);
                path.put(w);
            }
            WireRequest::Stats => w.u8(10),
            WireRequest::Handoff { session } => {
                w.u8(11);
                w.u64(*session);
            }
            WireRequest::Trace { op } => {
                w.u8(12);
                op.put(w);
            }
            WireRequest::Metrics => w.u8(13),
            WireRequest::Explain { session, targets } => {
                w.u8(14);
                w.u64(*session);
                targets.put(w);
            }
            WireRequest::Subscribe { after, max } => {
                w.u8(15);
                w.u64(*after);
                w.u32(*max);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => WireRequest::Hello {
                domain: String::get(r)?,
                auth: Option::<String>::get(r)?,
            },
            1 => WireRequest::Open {
                name: String::get(r)?,
                source: String::get(r)?,
            },
            2 => WireRequest::Close { session: r.u64()? },
            3 => WireRequest::Query {
                session: r.u64()?,
                func: String::get(r)?,
                loc: Loc::get(r)?,
            },
            4 => WireRequest::QueryBatch {
                session: r.u64()?,
                func: String::get(r)?,
                locs: Vec::<Loc>::get(r)?,
            },
            5 => WireRequest::Sweep {
                session: r.u64()?,
                targets: Vec::<(String, Loc)>::get(r)?,
            },
            6 => WireRequest::Edit {
                session: r.u64()?,
                edit: ProgramEdit::get(r)?,
            },
            7 => WireRequest::Snapshot { session: r.u64()? },
            8 => WireRequest::Save {
                session: r.u64()?,
                path: String::get(r)?,
            },
            9 => WireRequest::Load {
                path: String::get(r)?,
            },
            10 => WireRequest::Stats,
            11 => WireRequest::Handoff { session: r.u64()? },
            12 => WireRequest::Trace {
                op: TraceOp::get(r)?,
            },
            13 => WireRequest::Metrics,
            14 => WireRequest::Explain {
                session: r.u64()?,
                targets: Vec::<(String, Loc)>::get(r)?,
            },
            15 => WireRequest::Subscribe {
                after: r.u64()?,
                max: r.u32()?,
            },
            t => {
                return Err(PersistError::Corrupt(format!(
                    "unknown wire-request tag {t}"
                )))
            }
        })
    }
}

impl Persist for WireResponse {
    fn put(&self, w: &mut Writer) {
        match self {
            WireResponse::HelloOk { domain, protocol } => {
                w.u8(0);
                domain.put(w);
                w.u16(*protocol);
            }
            WireResponse::Opened { session } => {
                w.u8(1);
                w.u64(*session);
            }
            WireResponse::Closed { existed } => {
                w.u8(2);
                existed.put(w);
            }
            WireResponse::State(s) => {
                w.u8(3);
                s.put(w);
            }
            WireResponse::States(members) => {
                w.u8(4);
                w.u64(members.len() as u64);
                for m in members {
                    match m {
                        Ok(s) => {
                            w.u8(1);
                            s.put(w);
                        }
                        Err(e) => {
                            w.u8(0);
                            e.put(w);
                        }
                    }
                }
            }
            WireResponse::Edited(o) => {
                w.u8(5);
                o.put(w);
            }
            WireResponse::Snapshot(s) => {
                w.u8(6);
                s.put(w);
            }
            WireResponse::Saved(o) => {
                w.u8(7);
                o.put(w);
            }
            WireResponse::Loaded { session, outcome } => {
                w.u8(8);
                w.u64(*session);
                outcome.put(w);
            }
            WireResponse::Stats(s) => {
                w.u8(9);
                s.put(w);
            }
            WireResponse::Released { owned } => {
                w.u8(10);
                owned.put(w);
            }
            WireResponse::Error(e) => {
                w.u8(11);
                e.put(w);
            }
            WireResponse::Trace(dump) => {
                w.u8(12);
                dump.put(w);
            }
            WireResponse::Metrics { text } => {
                w.u8(13);
                text.put(w);
            }
            WireResponse::Explain(report) => {
                w.u8(14);
                report.put(w);
            }
            WireResponse::Stream {
                head_seq,
                last_seq,
                count,
                frames,
            } => {
                w.u8(15);
                w.u64(*head_seq);
                w.u64(*last_seq);
                w.u32(*count);
                w.u64(frames.len() as u64);
                w.bytes(frames);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => WireResponse::HelloOk {
                domain: String::get(r)?,
                protocol: r.u16()?,
            },
            1 => WireResponse::Opened { session: r.u64()? },
            2 => WireResponse::Closed {
                existed: bool::get(r)?,
            },
            3 => WireResponse::State(WireState::get(r)?),
            4 => {
                let n = r.u64()?;
                if n > r.remaining() as u64 {
                    return Err(PersistError::Corrupt(format!(
                        "member count {n} exceeds remaining input"
                    )));
                }
                let mut members = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    members.push(match r.u8()? {
                        0 => Err(WireError::get(r)?),
                        1 => Ok(WireState::get(r)?),
                        t => {
                            return Err(PersistError::Corrupt(format!(
                                "unknown member-result tag {t}"
                            )))
                        }
                    });
                }
                WireResponse::States(members)
            }
            5 => WireResponse::Edited(EditOutcome::get(r)?),
            6 => WireResponse::Snapshot(SessionSnapshot::get(r)?),
            7 => WireResponse::Saved(PersistOutcome::get(r)?),
            8 => WireResponse::Loaded {
                session: r.u64()?,
                outcome: PersistOutcome::get(r)?,
            },
            9 => WireResponse::Stats(EngineStats::get(r)?),
            10 => WireResponse::Released {
                owned: bool::get(r)?,
            },
            11 => WireResponse::Error(WireError::get(r)?),
            12 => WireResponse::Trace(TraceDump::get(r)?),
            13 => WireResponse::Metrics {
                text: String::get(r)?,
            },
            14 => WireResponse::Explain(ExplainReport::get(r)?),
            15 => {
                let head_seq = r.u64()?;
                let last_seq = r.u64()?;
                let count = r.u32()?;
                let n = r.len_prefix()?;
                WireResponse::Stream {
                    head_seq,
                    last_seq,
                    count,
                    frames: r.take(n)?.to_vec(),
                }
            }
            t => {
                return Err(PersistError::Corrupt(format!(
                    "unknown wire-response tag {t}"
                )))
            }
        })
    }
}

/// Encodes a message payload.
pub fn encode_message<M: Persist>(msg: &M) -> Vec<u8> {
    let mut w = Writer::new();
    msg.put(&mut w);
    w.into_bytes()
}

/// Decodes a message payload, requiring the payload to be exactly one
/// message (trailing bytes are a protocol violation, not padding).
///
/// # Errors
///
/// [`PersistError`] on truncated, invalid, or trailing bytes.
pub fn decode_message<M: Persist>(payload: &[u8]) -> Result<M, PersistError> {
    let mut r = Reader::new(payload);
    let msg = M::get(&mut r)?;
    if !r.is_exhausted() {
        return Err(PersistError::Corrupt(format!(
            "message has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dai_domains::IntervalDomain;
    use dai_lang::Symbol;

    fn roundtrip<M: Persist + PartialEq + std::fmt::Debug>(msg: &M) {
        let bytes = encode_message(msg);
        let back: M = decode_message(&bytes).expect("decodes");
        assert_eq!(&back, msg);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(&WireRequest::Hello {
            domain: "octagon".to_string(),
            auth: None,
        });
        roundtrip(&WireRequest::Hello {
            domain: "octagon".to_string(),
            auth: Some("s3cret".to_string()),
        });
        roundtrip(&WireRequest::Open {
            name: "s".to_string(),
            source: "function main() { return 1; }".to_string(),
        });
        roundtrip(&WireRequest::Query {
            session: 3,
            func: "main".to_string(),
            loc: Loc(7),
        });
        roundtrip(&WireRequest::QueryBatch {
            session: 3,
            func: "main".to_string(),
            locs: vec![Loc(0), Loc(1), Loc(2)],
        });
        roundtrip(&WireRequest::Sweep {
            session: 9,
            targets: vec![
                ("f0".to_string(), Loc(0)),
                ("f0".to_string(), Loc(1)),
                ("main".to_string(), Loc(0)),
            ],
        });
        roundtrip(&WireRequest::Edit {
            session: 1,
            edit: ProgramEdit::Relabel {
                func: Symbol::new("main"),
                edge: dai_lang::EdgeId(2),
                stmt: dai_lang::Stmt::Assign("x".into(), dai_lang::parse_expr("5").unwrap()),
            },
        });
        roundtrip(&WireRequest::Stats);
        roundtrip(&WireRequest::Handoff { session: 4 });
        for op in [TraceOp::Enable, TraceOp::Disable, TraceOp::Dump] {
            roundtrip(&WireRequest::Trace { op });
        }
        roundtrip(&WireRequest::Metrics);
        roundtrip(&WireRequest::Explain {
            session: 9,
            targets: vec![("main".to_string(), Loc(0)), ("main".to_string(), Loc(1))],
        });
        roundtrip(&WireRequest::Subscribe {
            after: 17,
            max: 256,
        });
    }

    #[test]
    fn responses_roundtrip() {
        let state = WireState::encode(&IntervalDomain::top());
        roundtrip(&WireResponse::HelloOk {
            domain: "interval".to_string(),
            protocol: PROTOCOL_VERSION,
        });
        roundtrip(&WireResponse::State(state.clone()));
        roundtrip(&WireResponse::States(vec![
            Ok(state),
            Err(WireError::NoSuchFunction("g".to_string())),
        ]));
        roundtrip(&WireResponse::Error(WireError::UnsupportedVersion {
            got: 9,
            want: PROTOCOL_VERSION,
        }));
        roundtrip(&WireResponse::Released { owned: true });
        roundtrip(&WireResponse::Trace(TraceDump::default()));
        roundtrip(&WireResponse::Trace(TraceDump {
            records: vec![dai_trace::Record {
                label: 0,
                thread: 0,
                kind: dai_trace::RecordKind::Span,
                start_ns: 5,
                end_ns: 25,
                arg: 3,
            }],
            labels: vec!["engine.cone_walk".to_string()],
            threads: vec!["dai-worker-0".to_string()],
            dropped: 2,
            dropped_by_thread: vec![2],
        }));
        roundtrip(&WireResponse::Metrics {
            text: "# TYPE dai_engine_queries gauge\ndai_engine_queries 5\n".to_string(),
        });
        roundtrip(&WireResponse::Stream {
            head_seq: 40,
            last_seq: 38,
            count: 3,
            frames: vec![0xAB; 64],
        });
        roundtrip(&WireResponse::Stream {
            head_seq: 0,
            last_seq: 0,
            count: 0,
            frames: Vec::new(),
        });
        roundtrip(&WireResponse::Explain(ExplainReport::default()));
        roundtrip(&WireResponse::Explain(ExplainReport {
            domain: "interval".to_string(),
            transfer: "compiled".to_string(),
            cells: vec![dai_engine::CellCost {
                cell: "main:l2:sigma".to_string(),
                outcome: dai_engine::CellOutcome::Computed,
                compiled: true,
                wall_ns: 320,
                finish_ns: 320,
            }],
            fixes: vec![dai_engine::FixCost {
                cell: "main:l1.fix:sigma".to_string(),
                iters: 2,
                unrolls: 1,
                wall_ns: 80,
                converged: true,
            }],
            work_ns: 400,
            span_ns: 320,
            lock_wait_ns: 3,
            lock_held_ns: 500,
            eval_ns: 450,
        }));
    }

    #[test]
    fn state_blobs_roundtrip_and_reject_trailing_bytes() {
        use dai_domains::AbstractDomain;
        let d = IntervalDomain::top().transfer(&dai_lang::Stmt::Assign(
            "x".into(),
            dai_lang::parse_expr("5").unwrap(),
        ));
        let blob = WireState::encode(&d);
        assert_eq!(blob.decode::<IntervalDomain>().unwrap(), d);
        let mut padded = blob.0.clone();
        padded.push(0);
        assert!(WireState(padded).decode::<IntervalDomain>().is_err());
    }

    #[test]
    fn error_codes_are_stable_and_distinct() {
        let errs = [
            WireError::Protocol(String::new()),
            WireError::UnsupportedVersion { got: 0, want: 1 },
            WireError::DomainMismatch {
                client: String::new(),
                server: String::new(),
            },
            WireError::NoSuchSession(0),
            WireError::NoSuchFunction(String::new()),
            WireError::Rejected {
                kind: String::new(),
                message: String::new(),
            },
            WireError::Persist(String::new()),
            WireError::Disconnected,
            WireError::Unauthorized,
            WireError::Overloaded,
        ];
        let codes: std::collections::HashSet<_> = errs.iter().map(|e| e.code()).collect();
        assert_eq!(codes.len(), errs.len());
        assert_eq!(WireError::Unauthorized.code(), "unauthorized");
        assert_eq!(WireError::Overloaded.code(), "overload");
    }

    #[test]
    fn hello_auth_is_a_tagged_option_decoded_strictly() {
        for auth in [None, Some("s3cret".to_string())] {
            let hello = WireRequest::Hello {
                domain: "octagon".to_string(),
                auth,
            };
            let bytes = encode_message(&hello);
            assert_eq!(decode_message::<WireRequest>(&bytes).unwrap(), hello);
            // Every proper prefix — the bare domain one included — is
            // refused, never read as a hello without a token.
            for cut in 0..bytes.len() {
                assert!(decode_message::<WireRequest>(&bytes[..cut]).is_err());
            }
        }
        // An auth tag other than `None`/`Some` is refused.
        let mut w = Writer::new();
        w.u8(0);
        "octagon".to_string().put(&mut w);
        w.u8(2);
        assert!(decode_message::<WireRequest>(&w.into_bytes()).is_err());
    }

    #[test]
    fn engine_error_mapping_preserves_session_and_function() {
        use dai_engine::SessionId;
        let e = WireError::from_engine(&EngineError::NoSuchSession(SessionId(9)));
        assert_eq!(e, WireError::NoSuchSession(9));
        assert!(matches!(
            e.into_engine(),
            EngineError::NoSuchSession(SessionId(9))
        ));
        let e = WireError::from_engine(&EngineError::NoSuchFunction("g".to_string()));
        assert!(matches!(e.into_engine(), EngineError::NoSuchFunction(f) if f == "g"));
        // Transport-only errors surface as Remote with their code.
        let remote = WireError::DomainMismatch {
            client: "interval".to_string(),
            server: "octagon".to_string(),
        }
        .into_engine();
        assert!(matches!(remote, EngineError::Remote { code: "domain", .. }));
    }

    #[test]
    fn corrupt_messages_error_not_panic() {
        for bytes in [&[250u8][..], &[], &[4, 1]] {
            assert!(decode_message::<WireRequest>(bytes).is_err());
            assert!(decode_message::<WireResponse>(bytes).is_err());
        }
        // Trailing bytes are rejected.
        let mut bytes = encode_message(&WireRequest::Stats);
        bytes.push(0);
        assert!(decode_message::<WireRequest>(&bytes).is_err());
    }
}
