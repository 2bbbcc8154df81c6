//! End-to-end contract of the `dai-rpc` wire API: a socket client must
//! be indistinguishable — answer for answer, DOT byte for DOT byte —
//! from the in-process engine, and no hostile bytes may take the server
//! (or even just the connection) down.
//!
//! * **equality** — on the Fig. 10 synthetic octagon workload (and a
//!   loopy single-function program), every `(function, location)` answer
//!   and the final session DOT obtained through a socket `Client`
//!   byte-match the in-process `Engine` path, under both
//!   `ResolverChoice::Intra` and `Interproc`, with two concurrent client
//!   connections;
//! * **ownership** — sessions die with their connection unless handed
//!   off explicitly; a session saved, handed off and closed on one
//!   server loads on another with the same answers;
//! * **hostility** — truncations, bit flips, bad checksums, wrong
//!   protocol versions, and oversized declared lengths each produce a
//!   structured `WireError` (or a clean connection close for
//!   unresyncable cuts), never a panic, and the server keeps serving —
//!   mirroring `persistence.rs`'s every-truncation-prefix sweep.

use dai_core::driver::ProgramEdit;
use dai_domains::{IntervalDomain, OctagonDomain};
use dai_engine::{
    Engine, EngineConfig, EngineError, ResolverChoice, Service, SessionId, SessionSnapshot,
};
use dai_lang::Loc;
use dai_persist::frame::{
    read_frame, read_frame_expecting, write_frame, write_frame_id, FrameHeader, FrameReadError,
};
use dai_persist::{PersistDomain, FRAME_HEADER_LEN};
use dai_rpc::{
    Addr, Client, Server, WireError, WireRequest, WireResponse, MAX_FRAME_LEN, PROTOCOL_VERSION,
    TAG_REQUEST,
};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use dai_bench::workload::Workload;
use proptest::prelude::*;

const LOOPY: &str = "function f(n) { var i = 0; var s = 0; \
                     while (i < 9) { s = s + i; i = i + 1; } \
                     return s; }";

/// A unique scratch path for sockets and snapshots.
fn scratch(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "dai-rpc-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// Replays `grow` Workload edits through a scratch engine, returning the
/// deterministic (source, edit script, sorted sweep targets).
fn fig10_script(grow: usize, seed: u64) -> (String, Vec<ProgramEdit>, Vec<(String, Loc)>) {
    let source = Workload::initial_source();
    let engine: Engine<OctagonDomain> = Engine::new(1);
    let session = engine.open_session_src("gen", &source).unwrap();
    let mut gen = Workload::new(seed);
    let mut edits = Vec::new();
    for _ in 0..grow {
        let program = engine.program_of(session).unwrap();
        let edit = gen.next_edit(&program);
        Service::<OctagonDomain>::edit(&engine, session, &edit).unwrap();
        edits.push(edit);
    }
    let program = engine.program_of(session).unwrap();
    let mut targets = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();
    (source, edits, targets)
}

/// Opens a session named `name`, replays `edits`, sweeps `targets`, and
/// snapshots — the whole client lifecycle, over any service.
fn run_session<D: PersistDomain, S: Service<D>>(
    service: &S,
    name: &str,
    source: &str,
    edits: &[ProgramEdit],
    targets: &[(String, Loc)],
) -> (Vec<Result<D, String>>, SessionSnapshot) {
    let session = service.open(name, source).unwrap();
    for edit in edits {
        service.edit(session, edit).unwrap();
    }
    let answers = service
        .query_sweep(session, targets)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    let snapshot = service.snapshot(session).unwrap();
    (answers, snapshot)
}

fn engine_with(resolver: ResolverChoice) -> Arc<Engine<OctagonDomain>> {
    Arc::new(Engine::with_config(EngineConfig {
        workers: 1,
        resolver,
        ..EngineConfig::default()
    }))
}

/// The acceptance gate: socket answers and DOT bytes == in-process, with
/// two concurrent connections, under the given resolver.
fn socket_matches_in_process(resolver: ResolverChoice, tag: &str) {
    let (source, edits, targets) = fig10_script(10, 379422);
    // In-process reference.
    let (reference, reference_snap) = run_session(
        engine_with(resolver).as_ref(),
        "e2e",
        &source,
        &edits,
        &targets,
    );
    assert!(
        reference.iter().all(|r| r.is_ok()),
        "reference sweep answers"
    );
    // One server, two concurrent client connections doing the identical
    // lifecycle against their own sessions.
    let server = Server::bind(&Addr::Unix(scratch(tag)), engine_with(resolver)).unwrap();
    let addr = server.addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let source = source.clone();
            let edits = edits.clone();
            let targets = targets.clone();
            // Named so any trace records they produce resolve to a real
            // thread name, never the recorder's `thread-{id}` fallback.
            std::thread::Builder::new()
                .name(format!("e2e-client-{i}"))
                .spawn(move || {
                    let client: Client<OctagonDomain> = Client::connect(&addr).unwrap();
                    run_session(&client, "e2e", &source, &edits, &targets)
                })
                .expect("spawn e2e client thread")
        })
        .collect();
    for worker in workers {
        let (answers, snap) = worker.join().unwrap();
        assert_eq!(answers, reference, "socket sweep answers differ");
        assert_eq!(
            snap, reference_snap,
            "socket session DOT is not byte-identical"
        );
    }
    server.shutdown();
}

#[test]
fn fig10_socket_equals_in_process_intra() {
    socket_matches_in_process(ResolverChoice::Intra, "intra");
}

#[test]
fn fig10_socket_equals_in_process_interproc() {
    socket_matches_in_process(
        ResolverChoice::Interproc {
            policy: dai_core::interproc::ContextPolicy::CallString(1),
        },
        "interproc",
    );
}

#[test]
fn loopy_program_roundtrips_with_unrolling() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(2));
    let server = Server::bind(&Addr::Unix(scratch("loopy")), Arc::clone(&engine)).unwrap();
    let client: Client<IntervalDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("loopy", LOOPY).unwrap();
    let program = engine.program_of(session).unwrap();
    let cfg = program.by_name("f").unwrap();
    let targets: Vec<(String, Loc)> = cfg.locs().iter().map(|&l| ("f".to_string(), l)).collect();
    let remote: Vec<IntervalDomain> = client
        .query_sweep(session, &targets)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    // In-process oracle on a fresh engine.
    let oracle_engine: Engine<IntervalDomain> = Engine::new(1);
    let oracle_session = oracle_engine.open_session_src("loopy", LOOPY).unwrap();
    for ((_, loc), got) in targets.iter().zip(&remote) {
        let want = oracle_engine.query(oracle_session, "f", *loc).unwrap();
        assert_eq!(*got, want, "socket answer differs at {loc}");
    }
    // The DOTs byte-match too (both sessions demanded the same cones).
    let remote_snap = client.snapshot(session).unwrap();
    let local_snap = Service::<IntervalDomain>::snapshot(&oracle_engine, oracle_session).unwrap();
    assert_eq!(remote_snap, local_snap);
    server.shutdown();
}

#[test]
fn sessions_die_with_their_connection_unless_handed_off() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("ownership")), Arc::clone(&engine)).unwrap();
    let addr = server.addr().to_string();
    let exit_of = |session: SessionId| {
        engine
            .program_of(session)
            .unwrap()
            .by_name("f")
            .unwrap()
            .exit()
    };

    // Without handoff: the session is closed when its connection ends.
    let client: Client<IntervalDomain> = Client::connect(&addr).unwrap();
    let orphan = client.open("orphan", LOOPY).unwrap();
    assert!(client.query(orphan, "f", exit_of(orphan)).is_ok());
    drop(client);
    // The connection handler closes owned sessions as it unwinds; poll
    // until the close lands (the disconnect is asynchronous).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match engine.program_of(orphan) {
            Err(EngineError::NoSuchSession(_)) => break,
            Ok(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            other => panic!("orphaned session not closed: {other:?}"),
        }
    }

    // With handoff: the session survives and another connection uses it.
    let client: Client<IntervalDomain> = Client::connect(&addr).unwrap();
    let kept = client.open("kept", LOOPY).unwrap();
    let exit = exit_of(kept);
    let before = client.query(kept, "f", exit).unwrap();
    assert!(client.handoff(kept).unwrap(), "first handoff owns");
    assert!(!client.handoff(kept).unwrap(), "second handoff is a no-op");
    drop(client);
    let client2: Client<IntervalDomain> = Client::connect(&addr).unwrap();
    assert_eq!(client2.query(kept, "f", exit).unwrap(), before);
    // Closing an adopted session works from any connection.
    assert!(client2.close(kept).unwrap());
    server.shutdown();
}

#[test]
fn a_session_saved_on_one_server_loads_on_another_with_the_same_sweep() {
    let (source, edits, targets) = fig10_script(5, 77);
    let servers: Vec<_> = (0..2)
        .map(|i| {
            let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
            Server::bind(&Addr::Unix(scratch(&format!("mover-{i}"))), engine).unwrap()
        })
        .collect();
    let clients: Vec<Client<IntervalDomain>> = servers
        .iter()
        .map(|s| Client::connect(&s.addr().to_string()).unwrap())
        .collect();
    let sweep = |client: &Client<IntervalDomain>, session| {
        client
            .query_sweep(session, &targets)
            .into_iter()
            .map(|r| r.unwrap())
            .collect::<Vec<_>>()
    };
    let served = |server: &Server<IntervalDomain>| server.engine().stats().queries;

    let mover = clients[0].open("mover", &source).unwrap();
    for edit in &edits {
        clients[0].edit(mover, edit).unwrap();
    }
    let before = sweep(&clients[0], mover);
    // Every query sent over a socket is served by that socket's engine.
    assert_eq!(served(&servers[0]), targets.len() as u64);
    assert_eq!(served(&servers[1]), 0);

    // Save on the owner, hand off and close there, load on the other.
    let snap = scratch("mover.daip");
    clients[0].save(mover, &snap).unwrap();
    assert!(clients[0].handoff(mover).unwrap());
    assert!(clients[0].close(mover).unwrap());
    assert!(matches!(
        servers[0].engine().program_of(mover),
        Err(EngineError::NoSuchSession(_))
    ));
    let (moved, _) = clients[1].load(&snap).unwrap();
    assert_eq!(
        sweep(&clients[1], moved),
        before,
        "answers changed across servers"
    );
    assert_eq!(served(&servers[0]), targets.len() as u64);
    assert_eq!(served(&servers[1]), targets.len() as u64);

    let _ = std::fs::remove_file(&snap);
    drop(clients);
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn wire_stats_carry_batch_and_persist_counters() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("stats")), engine).unwrap();
    let client: Client<IntervalDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("stats", LOOPY).unwrap();
    let targets: Vec<(String, Loc)> = {
        let snap_engine = server.engine();
        let program = snap_engine.program_of(session).unwrap();
        let cfg = program.by_name("f").unwrap();
        cfg.locs().iter().map(|&l| ("f".to_string(), l)).collect()
    };
    let before = client.stats().unwrap();
    for r in client.query_sweep(session, &targets) {
        r.unwrap();
    }
    let after = client.stats().unwrap();
    // The remote client can assert coalescing happened: one batch, one
    // lock, one union-cone walk, every member coalesced.
    assert_eq!(after.session_locks - before.session_locks, 1);
    assert_eq!(after.batch.batches - before.batch.batches, 1);
    assert_eq!(
        after.batch.coalesced_queries - before.batch.coalesced_queries,
        targets.len() as u64
    );
    assert_eq!(
        after.batch.union_cone_walks - before.batch.union_cone_walks,
        1
    );
    // And that persistence happened: saves/loads travel in the stats.
    let snap_path = scratch("stats-snapshot.daip");
    let saved = client.save(session, &snap_path).unwrap();
    assert!(saved.bytes > 0 && saved.funcs == 1);
    let (restored, outcome) = client.load(&snap_path).unwrap();
    assert!(outcome.is_warm(), "{outcome:?}");
    assert_ne!(restored, session);
    let after_persist = client.stats().unwrap();
    assert_eq!(after_persist.saves - after.saves, 1);
    assert_eq!(after_persist.loads - after.loads, 1);
    // The restored session answers over the wire too.
    let (f, loc) = targets.last().unwrap().clone();
    assert_eq!(
        client.query(restored, &f, loc).unwrap(),
        client.query(session, &f, loc).unwrap()
    );
    let _ = std::fs::remove_file(&snap_path);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Hostile frames.
// ---------------------------------------------------------------------

/// A protocol-4 request frame carrying `id`.
fn request_frame(id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame_id(&mut out, TAG_REQUEST, PROTOCOL_VERSION, Some(id), payload);
    out
}

/// A raw (frame-level) connection, for crafting hostile bytes a typed
/// `Client` cannot send and for pipelining them between valid in-flight
/// requests. The hello goes out as id 1 and `assert_alive`'s probe as
/// id 2.
struct RawConn {
    stream: UnixStream,
}

impl RawConn {
    /// Connects without the hello exchange.
    fn open(path: &str) -> RawConn {
        RawConn {
            stream: UnixStream::connect(path).expect("server socket accepts"),
        }
    }

    /// Connects and completes the hello exchange.
    fn connect(path: &str) -> RawConn {
        let mut conn = RawConn::open(path);
        conn.hello();
        conn
    }

    fn hello(&mut self) {
        let hello = dai_rpc::proto::encode_message(&WireRequest::Hello {
            domain: IntervalDomain::domain_tag(),
            auth: None,
        });
        self.send_request(1, &hello);
        match self.read_answer() {
            (1, WireResponse::HelloOk { .. }) => {}
            other => panic!("hello failed: {other:?}"),
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
        self.stream.flush().expect("flush");
    }

    fn send_request(&mut self, id: u64, payload: &[u8]) {
        self.send_raw(&request_frame(id, payload));
    }

    /// Reads one response and its id, or `None` when the server closed
    /// the connection instead.
    fn read_frame(&mut self) -> Option<(u64, WireResponse)> {
        match read_frame_expecting(&mut self.stream, MAX_FRAME_LEN, |_| true) {
            Ok(frame) => {
                let payload = frame.payload.expect("server frames are well-formed");
                let response = dai_rpc::proto::decode_message::<WireResponse>(&payload).unwrap();
                Some((frame.id.expect("read with its id"), response))
            }
            Err(FrameReadError::Eof) | Err(FrameReadError::Truncated) => None,
            Err(e) => panic!("client-side read failed oddly: {e}"),
        }
    }

    fn read_response(&mut self) -> Option<WireResponse> {
        self.read_frame().map(|(_, response)| response)
    }

    fn read_answer(&mut self) -> (u64, WireResponse) {
        self.read_frame().expect("server keeps the connection")
    }

    /// Sends a valid `Stats` request and asserts it is answered — the
    /// probe that the connection survived whatever came before.
    fn assert_alive(&mut self) {
        let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
        self.send_request(2, &payload);
        match self.read_answer() {
            (2, WireResponse::Stats(_)) => {}
            other => panic!("connection did not survive: {other:?}"),
        }
    }
}

fn hostile_server() -> (Server<IntervalDomain>, String) {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("hostile")), engine).unwrap();
    let path = match server.addr() {
        Addr::Unix(p) => p.clone(),
        other => panic!("expected unix addr, got {other}"),
    };
    (server, path)
}

#[test]
fn bad_checksum_answers_wire_error_and_connection_survives() {
    let (server, path) = hostile_server();
    let mut conn = RawConn::connect(&path);
    let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
    let mut frame = request_frame(5, &payload);
    // Flip one payload byte (past the id): the checksum must catch it.
    frame[FRAME_HEADER_LEN + 8] ^= 0xFF;
    conn.send_raw(&frame);
    match conn.read_response() {
        Some(WireResponse::Error(e)) => assert_eq!(e.code(), "protocol", "{e}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    conn.assert_alive();
    server.shutdown();
}

#[test]
fn wrong_protocol_version_answers_structured_error_and_survives() {
    let (server, path) = hostile_server();
    let mut conn = RawConn::open(&path);
    let hello = dai_rpc::proto::encode_message(&WireRequest::Hello {
        domain: IntervalDomain::domain_tag(),
        auth: None,
    });
    let stats = dai_rpc::proto::encode_message(&WireRequest::Stats);
    // Too old: versions 3 and 2 predate the id field, so their frames
    // travel (and are consumed) in the id-less layout. A v3 hello is
    // refused like any other old frame.
    for (version, payload) in [(3, &hello), (2, &stats)] {
        let mut frame = Vec::new();
        write_frame(&mut frame, TAG_REQUEST, version, payload);
        conn.send_raw(&frame);
        match conn.read_response() {
            Some(WireResponse::Error(WireError::UnsupportedVersion { got, want })) => {
                assert_eq!((got, want), (version, PROTOCOL_VERSION));
            }
            other => panic!("version {version}: expected version error, got {other:?}"),
        }
    }
    // Too new: a ≥ 4 version means the id frame layout, and the whole
    // frame (id included) must be consumed so the stream stays in sync.
    let mut frame = Vec::new();
    write_frame_id(
        &mut frame,
        TAG_REQUEST,
        PROTOCOL_VERSION + 41,
        Some(7),
        &stats,
    );
    conn.send_raw(&frame);
    match conn.read_answer() {
        (7, WireResponse::Error(WireError::UnsupportedVersion { got, want })) => {
            assert_eq!(got, PROTOCOL_VERSION + 41);
            assert_eq!(want, PROTOCOL_VERSION);
        }
        other => panic!("expected version error, got {other:?}"),
    }
    // Still at a frame boundary: a corrected v4 hello on the same
    // connection succeeds.
    conn.hello();
    conn.assert_alive();
    server.shutdown();
}

#[test]
fn oversized_declared_length_rejected_before_allocation_and_survives() {
    let (server, path) = hostile_server();
    let mut conn = RawConn::connect(&path);
    // A header declaring a multi-terabyte payload, with nothing behind
    // its id: the server must answer from the header and id alone
    // (allocating nothing) and stay in sync for the next real frame.
    let header = FrameHeader {
        tag: TAG_REQUEST,
        version: PROTOCOL_VERSION,
        len: 1 << 42,
    };
    conn.send_raw(&header.encode());
    conn.send_raw(&5u64.to_le_bytes());
    match conn.read_response() {
        Some(WireResponse::Error(e)) => {
            assert_eq!(e.code(), "protocol");
            assert!(e.to_string().contains("exceeds"), "{e}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    conn.assert_alive();
    server.shutdown();
}

#[test]
fn undecodable_and_misdirected_payloads_answer_wire_errors() {
    let (server, path) = hostile_server();
    let mut conn = RawConn::connect(&path);
    // Garbage payload under a valid frame (checksum fine, bytes absurd).
    conn.send_request(5, &[0xFE, 0xDC, 0xBA]);
    match conn.read_response() {
        Some(WireResponse::Error(e)) => assert_eq!(e.code(), "protocol", "{e}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // Trailing bytes after a valid request are a violation, not padding.
    let mut padded = dai_rpc::proto::encode_message(&WireRequest::Stats);
    padded.extend_from_slice(b"padding");
    conn.send_request(6, &padded);
    match conn.read_response() {
        Some(WireResponse::Error(e)) => assert_eq!(e.code(), "protocol", "{e}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // A response-tagged frame sent at the server.
    let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
    let mut frame = Vec::new();
    write_frame_id(&mut frame, *b"RPCS", PROTOCOL_VERSION, Some(7), &payload);
    conn.send_raw(&frame);
    match conn.read_response() {
        Some(WireResponse::Error(e)) => assert_eq!(e.code(), "protocol", "{e}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    conn.assert_alive();
    server.shutdown();
}

#[test]
fn client_refuses_to_send_oversized_frames_and_stays_usable() {
    // A request whose encoding exceeds the frame bound must be rejected
    // client-side *before* hitting the wire — the server would answer
    // from the header alone and then misparse the payload bytes as
    // garbage frames, desynchronizing the connection.
    let (server, path) = hostile_server();
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    let huge = "x".repeat(MAX_FRAME_LEN + 1);
    match client.open("huge", &huge) {
        Err(EngineError::Remote { code, message }) => {
            assert_eq!(code, "protocol");
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected a client-side bound rejection, got {other:?}"),
    }
    // Nothing was sent: the connection is still in sync.
    let session = client.open("after", LOOPY).unwrap();
    assert!(client.close(session).unwrap());
    server.shutdown();
}

#[test]
fn requests_before_hello_are_rejected_in_protocol() {
    let (server, path) = hostile_server();
    let mut conn = RawConn::open(&path);
    conn.send_request(9, &dai_rpc::proto::encode_message(&WireRequest::Stats));
    let (id, response) = conn.read_answer();
    assert_eq!(id, 9, "rejection echoes the request id");
    match response {
        WireResponse::Error(e) => {
            assert_eq!(e.code(), "protocol");
            assert!(e.to_string().contains("hello"), "{e}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn domain_mismatch_is_a_structured_error() {
    let (server, path) = hostile_server(); // serves IntervalDomain
    let err = match Client::<OctagonDomain>::connect(&format!("unix:{path}")) {
        Err(e) => e,
        Ok(_) => panic!("octagon client connected to an interval server"),
    };
    match err {
        EngineError::Remote { code, message } => {
            assert_eq!(code, "domain");
            assert!(
                message.contains("octagon") && message.contains("interval"),
                "{message}"
            );
        }
        other => panic!("expected domain mismatch, got {other}"),
    }
    // The rejection did not hurt the server: the right domain connects.
    let ok = Client::<IntervalDomain>::connect(&format!("unix:{path}"));
    assert!(ok.is_ok());
    server.shutdown();
}

#[test]
fn every_truncation_prefix_is_handled_cleanly() {
    // The socket mirror of persistence.rs's every-truncation-prefix
    // sweep: for each proper prefix of a valid request frame, a fresh
    // connection sends the prefix and hangs up; the server must neither
    // panic nor stop serving. (A cut frame has no resync point, so the
    // clean outcome for the cut connection is a close — the guarantee
    // under test is server survival plus clean teardown, exactly like a
    // truncated snapshot file degrading instead of crashing.)
    let (server, path) = hostile_server();
    let payload = dai_rpc::proto::encode_message(&WireRequest::Query {
        session: 1,
        func: "f".to_string(),
        loc: Loc(3),
    });
    let frame = request_frame(5, &payload);
    for cut in 0..frame.len() {
        let mut conn = RawConn::connect(&path);
        conn.send_raw(&frame[..cut]);
        conn.stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        // Drain whatever the server does (a response would only arrive
        // for a prefix that happens to be a complete frame; EOF is the
        // expected outcome) until it closes our read side.
        while conn.read_response().is_some() {}
    }
    // After the whole sweep, the server still serves typed clients.
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    let session = client.open("after-sweep", LOOPY).unwrap();
    let exit = server
        .engine()
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .exit();
    assert!(client.query(session, "f", exit).is_ok());
    server.shutdown();
}

/// The pure-decode half of the hostile sweep: whatever bytes arrive,
/// message decoding returns a structured error rather than panicking or
/// over-allocating. This is the layer the socket tests drive end to
/// end; fuzzing it directly covers orders of magnitude more inputs per
/// second than a connection per case would.
fn decode_never_panics(bytes: &[u8]) {
    let _ = dai_rpc::proto::decode_message::<WireRequest>(bytes);
    let _ = dai_rpc::proto::decode_message::<WireResponse>(bytes);
    let _ = dai_persist::split_frame(bytes);
    let _ = dai_persist::decode_trace_frame(bytes);
    let _ = read_frame(&mut &bytes[..], MAX_FRAME_LEN);
    let _ = read_frame_expecting(&mut &bytes[..], MAX_FRAME_LEN, |_| true);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn fuzzed_frames_decode_to_errors_not_panics(seed in 0u64..1_000_000) {
        // Deterministic pseudo-random mutations of a real frame: flips,
        // truncations, and splices at seed-chosen positions, plus raw
        // seed-derived garbage.
        let payload = dai_rpc::proto::encode_message(&WireRequest::Sweep {
            session: seed,
            targets: vec![("main".to_string(), Loc(seed as u32 % 17))],
        });
        let frame = request_frame(seed, &payload);
        let a = (seed as usize) % frame.len();
        let b = (seed as usize / 7) % frame.len();
        decode_never_panics(&frame[..a]);
        let mut flipped = frame.clone();
        flipped[a] ^= (seed % 255) as u8 + 1;
        decode_never_panics(&flipped);
        let mut spliced = frame[..a].to_vec();
        spliced.extend_from_slice(&frame[b..]);
        decode_never_panics(&spliced);
        let garbage: Vec<u8> = (0..(seed % 64)).map(|i| (seed >> (i % 8)) as u8).collect();
        decode_never_panics(&garbage);
    }
}

// ---------------------------------------------------------------------
// Trace & metrics over the wire.
// ---------------------------------------------------------------------

/// A seed-derived trace dump: the generator shared by the roundtrip
/// proptests below. Index tables are kept consistent with the records
/// (the persist codec rejects out-of-range label/thread indices).
fn arbitrary_dump(seed: u64) -> dai_engine::TraceDump {
    let labels = vec![
        "engine.session_lock".to_string(),
        "engine.cone_walk".to_string(),
        "engine.cells".to_string(),
    ];
    let threads = vec!["dai-worker-0".to_string(), "dai-rpc-conn-3".to_string()];
    let records = (0..(seed % 9))
        .map(|i| {
            let start = seed.rotate_left(i as u32).wrapping_mul(i + 1);
            dai_trace::Record {
                label: (i % labels.len() as u64) as u32,
                thread: (i % threads.len() as u64) as u32,
                kind: if (seed >> i) & 1 == 0 {
                    dai_trace::RecordKind::Span
                } else {
                    dai_trace::RecordKind::Event
                },
                start_ns: start,
                end_ns: start.saturating_add(seed % 1_000),
                arg: seed ^ i,
            }
        })
        .collect();
    let dropped = seed % 5;
    dai_engine::TraceDump {
        records,
        labels,
        threads,
        dropped,
        dropped_by_thread: vec![dropped / 2, dropped - dropped / 2],
    }
}

#[test]
fn trace_and_metrics_roundtrip_over_socket() {
    let (server, path) = hostile_server();
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    client.trace_enable().unwrap();
    let session = client.open("traced", LOOPY).unwrap();
    let exit = server
        .engine()
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .exit();
    client.query(session, "f", exit).unwrap();
    let dump = client.trace_dump().unwrap();
    client.trace_disable().unwrap();
    // Index tables stayed consistent across the wire.
    for r in &dump.records {
        assert!(
            (r.label as usize) < dump.labels.len(),
            "label index in range"
        );
        assert!(
            (r.thread as usize) < dump.threads.len(),
            "thread index in range"
        );
    }
    if dai_trace::TraceConfig::probes_compiled() {
        assert!(!dump.records.is_empty(), "a traced query left no records");
        assert!(
            dump.labels.iter().any(|l| l == "engine.session_lock"),
            "query path spans missing from {:?}",
            dump.labels
        );
    } else {
        assert!(dump.records.is_empty(), "no-probe build recorded spans");
    }
    // Metrics exposition carries the engine counters for the query above.
    let text = client.metrics().unwrap();
    assert!(text.contains("# TYPE dai_engine_queries gauge"), "{text}");
    assert!(
        text.contains("dai_engine_batch_serve_seconds_bucket"),
        "{text}"
    );
    server.shutdown();
}

#[test]
fn trace_and_metrics_requests_survive_truncations_and_flips() {
    // The hostile sweeps of the two new wire messages: every proper
    // prefix of a valid frame (fresh connection each, clean close), and
    // every payload byte flip (one connection, structured error each
    // time, connection survives to the next request).
    let (server, path) = hostile_server();
    let payloads = [
        dai_rpc::proto::encode_message(&WireRequest::Trace {
            op: dai_engine::TraceOp::Dump,
        }),
        dai_rpc::proto::encode_message(&WireRequest::Metrics),
    ];
    for payload in &payloads {
        let frame = request_frame(5, payload);
        for cut in 0..frame.len() {
            let mut conn = RawConn::connect(&path);
            conn.send_raw(&frame[..cut]);
            conn.stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            while conn.read_response().is_some() {}
        }
        // Payload flips are checksum-caught, so one connection takes the
        // whole sweep: error, resync, next flip.
        let mut conn = RawConn::connect(&path);
        for i in FRAME_HEADER_LEN..frame.len() {
            let mut flipped = frame.clone();
            flipped[i] ^= 0xFF;
            conn.send_raw(&flipped);
            match conn.read_response() {
                Some(WireResponse::Error(e)) => assert_eq!(e.code(), "protocol", "{e}"),
                other => panic!("flip at {i}: expected protocol error, got {other:?}"),
            }
        }
        conn.assert_alive();
        // Header flips can desync; sweep them on fresh connections like
        // the general byte-flip test.
        for i in 0..FRAME_HEADER_LEN {
            let mut flipped = frame.clone();
            flipped[i] ^= 0xFF;
            let mut conn = RawConn::connect(&path);
            conn.send_raw(&flipped);
            conn.stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            while conn.read_response().is_some() {}
        }
    }
    // The server outlived both sweeps.
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    assert!(client.metrics().is_ok());
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn trace_wire_messages_roundtrip(seed in 0u64..1_000_000) {
        let dump = arbitrary_dump(seed);
        // Wire response roundtrip.
        let encoded = dai_rpc::proto::encode_message(&WireResponse::Trace(dump.clone()));
        match dai_rpc::proto::decode_message::<WireResponse>(&encoded) {
            Ok(WireResponse::Trace(back)) => prop_assert_eq!(&back, &dump),
            other => panic!("bad decode: {other:?}"),
        }
        // Request roundtrips for all three ops and the metrics pair.
        use dai_engine::TraceOp;
        for op in [TraceOp::Enable, TraceOp::Disable, TraceOp::Dump] {
            let bytes = dai_rpc::proto::encode_message(&WireRequest::Trace { op });
            prop_assert!(matches!(
                dai_rpc::proto::decode_message::<WireRequest>(&bytes),
                Ok(WireRequest::Trace { op: got }) if got == op
            ));
        }
        let bytes = dai_rpc::proto::encode_message(&WireRequest::Metrics);
        prop_assert!(matches!(
            dai_rpc::proto::decode_message::<WireRequest>(&bytes),
            Ok(WireRequest::Metrics)
        ));
        let text = format!("# TYPE x counter\nx {seed}\n");
        let bytes = dai_rpc::proto::encode_message(&WireResponse::Metrics { text: text.clone() });
        match dai_rpc::proto::decode_message::<WireResponse>(&bytes) {
            Ok(WireResponse::Metrics { text: got }) => prop_assert_eq!(got, text),
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn trace_binary_frame_roundtrips_and_rejects_mutations(seed in 0u64..1_000_000) {
        let dump = arbitrary_dump(seed);
        let frame = dai_persist::encode_trace_frame(&dump);
        let back = dai_persist::decode_trace_frame(&frame)
            .unwrap_or_else(|e| panic!("own frame rejected: {e}"));
        prop_assert_eq!(&back, &dump);
        // Every proper prefix is a structured error, never a panic.
        for cut in 0..frame.len() {
            prop_assert!(dai_persist::decode_trace_frame(&frame[..cut]).is_err());
        }
        // Every single-byte flip is checksum- (or header-) caught.
        for i in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[i] ^= 0xFF;
            prop_assert!(dai_persist::decode_trace_frame(&flipped).is_err());
        }
    }
}

// ---------------------------------------------------------------------
// Explain over the wire.
// ---------------------------------------------------------------------

#[test]
fn explain_over_socket_is_byte_identical_to_in_process() {
    let (server, path) = hostile_server();
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    let session = client.open("explain", LOOPY).unwrap();
    let targets: Vec<(String, Loc)> = {
        let program = server.engine().program_of(session).unwrap();
        let cfg = program.by_name("f").unwrap();
        cfg.locs().iter().map(|&l| ("f".to_string(), l)).collect()
    };
    let remote = client.explain(session, &targets).unwrap();
    // The engine keeps the report it just served; the socket copy must
    // equal it — and re-encode to the identical EXPL frame bytes, the
    // same binary form `explain --json` artifacts use on disk.
    let local = server
        .engine()
        .last_explain()
        .expect("the engine kept the report it served");
    assert_eq!(remote, local);
    assert_eq!(
        dai_persist::encode_explain_frame(&remote),
        dai_persist::encode_explain_frame(&local),
        "socket-fetched report does not re-encode byte-identically"
    );
    // A real capture travelled: a cold loopy sweep computes cells, runs
    // a fix, and its accounting matches the engine's own counters.
    assert!(!remote.cells.is_empty(), "no cells attributed");
    assert!(!remote.fixes.is_empty(), "loopy sweep ran no fixpoint");
    assert!(remote.parallelism() >= 1.0);
    let stats = client.stats().unwrap();
    remote
        .check_accounting(&stats.query_stats)
        .expect("wire report disagrees with engine counters");
    server.shutdown();
}

#[test]
fn explain_on_an_interprocedural_server_is_a_structured_error() {
    let engine = engine_with(ResolverChoice::Interproc {
        policy: dai_core::interproc::ContextPolicy::CallString(1),
    });
    let server = Server::bind(&Addr::Unix(scratch("explain-inter")), engine).unwrap();
    let client: Client<OctagonDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("explain-inter", LOOPY).unwrap();
    let program = server.engine().program_of(session).unwrap();
    let exit = program.by_name("f").unwrap().exit();
    let err = client
        .explain(session, &[("f".to_string(), exit)])
        .expect_err("explain must refuse the interprocedural backend");
    assert!(
        err.to_string().contains("intraprocedural"),
        "unexpected error: {err}"
    );
    // The refusal is in protocol: the connection still serves queries.
    assert!(client.query(session, "f", exit).is_ok());
    server.shutdown();
}

#[test]
fn explain_requests_survive_truncations_and_flips() {
    // The hostile sweep of the explain wire message, mirroring the
    // trace/metrics sweeps above: every proper prefix on a fresh
    // connection (clean close), every payload byte flip on one
    // connection (structured error each time, connection survives).
    let (server, path) = hostile_server();
    let payload = dai_rpc::proto::encode_message(&WireRequest::Explain {
        session: 1,
        targets: vec![("f".to_string(), Loc(2))],
    });
    let frame = request_frame(5, &payload);
    for cut in 0..frame.len() {
        let mut conn = RawConn::connect(&path);
        conn.send_raw(&frame[..cut]);
        conn.stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        while conn.read_response().is_some() {}
    }
    let mut conn = RawConn::connect(&path);
    for i in FRAME_HEADER_LEN..frame.len() {
        let mut flipped = frame.clone();
        flipped[i] ^= 0xFF;
        conn.send_raw(&flipped);
        match conn.read_response() {
            Some(WireResponse::Error(e)) => assert_eq!(e.code(), "protocol", "{e}"),
            other => panic!("flip at {i}: expected protocol error, got {other:?}"),
        }
    }
    conn.assert_alive();
    // The server outlived the sweep and still explains.
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    let session = client.open("after-hostile", LOOPY).unwrap();
    let exit = server
        .engine()
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .exit();
    assert!(client.explain(session, &[("f".to_string(), exit)]).is_ok());
    server.shutdown();
}

#[test]
fn every_single_byte_flip_is_handled_cleanly() {
    // Bit-flip sweep over a whole valid frame: each position is flipped
    // on its own fresh connection. Depending on the position the server
    // sees a bad tag, a bad version, a lying length, a checksum
    // mismatch, or an undecodable payload — every one must end in a
    // structured error or a clean close, and the server must survive
    // them all.
    let (server, path) = hostile_server();
    let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
    let frame = request_frame(5, &payload);
    for i in 0..frame.len() {
        let mut flipped = frame.clone();
        flipped[i] ^= 0xFF;
        let mut conn = RawConn::connect(&path);
        conn.send_raw(&flipped);
        conn.stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        // Either a structured response (error, or Stats when the flip
        // landed somewhere harmless… it never is, but the contract is
        // "no panic, no hang") or a clean close.
        while conn.read_response().is_some() {}
    }
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    assert!(Service::<IntervalDomain>::stats(&client).is_ok());
    server.shutdown();
}

// ---------------------------------------------------------------------
// Protocol 4: multiplexed pipelining, auth, shutdown churn.
// ---------------------------------------------------------------------

#[test]
fn hostile_pipelining_keeps_stream_in_sync_and_answers_every_id() {
    // The v4 hostile sweep: valid pipelined queries with an
    // oversized-declared frame and a checksum-damaged frame spliced
    // between them, all written in ONE burst. The stream must stay at
    // frame boundaries, every id — hostile or not — must be answered,
    // and the connection must survive to serve the next request.
    let (server, path) = hostile_server();
    let mut conn = RawConn::connect(&path);

    // A real session to query, set up over the same raw connection.
    let open = dai_rpc::proto::encode_message(&WireRequest::Open {
        name: "hp".to_string(),
        source: LOOPY.to_string(),
    });
    conn.send_request(2, &open);
    let session = match conn.read_answer() {
        (2, WireResponse::Opened { session }) => session,
        other => panic!("open failed: {other:?}"),
    };
    let locs: Vec<Loc> = {
        let program = server.engine().program_of(SessionId(session)).unwrap();
        program.by_name("f").unwrap().locs()
    };

    let query = |loc: Loc| {
        dai_rpc::proto::encode_message(&WireRequest::Query {
            session,
            func: "f".to_string(),
            loc,
        })
    };
    let mut burst = Vec::new();
    // id 10: valid query.
    dai_persist::frame::write_frame_id(
        &mut burst,
        TAG_REQUEST,
        PROTOCOL_VERSION,
        Some(10),
        &query(locs[0]),
    );
    // id 11: header declaring a multi-terabyte payload — the server must
    // reject from the header+id alone and resume at the next byte.
    let lying = FrameHeader {
        tag: TAG_REQUEST,
        version: PROTOCOL_VERSION,
        len: 1 << 42,
    };
    burst.extend_from_slice(&lying.encode());
    burst.extend_from_slice(&11u64.to_le_bytes());
    // id 12: valid query.
    dai_persist::frame::write_frame_id(
        &mut burst,
        TAG_REQUEST,
        PROTOCOL_VERSION,
        Some(12),
        &query(locs[1 % locs.len()]),
    );
    // id 13: checksum-damaged frame (payload byte flipped after framing).
    let damaged_from = burst.len();
    dai_persist::frame::write_frame_id(
        &mut burst,
        TAG_REQUEST,
        PROTOCOL_VERSION,
        Some(13),
        &query(locs[0]),
    );
    burst[damaged_from + FRAME_HEADER_LEN + 8] ^= 0xFF;
    // id 14: valid query.
    dai_persist::frame::write_frame_id(
        &mut burst,
        TAG_REQUEST,
        PROTOCOL_VERSION,
        Some(14),
        &query(locs[2 % locs.len()]),
    );
    conn.send_raw(&burst);

    // Five ids in flight; answers may arrive in any order.
    let mut answers = std::collections::HashMap::new();
    for _ in 0..5 {
        let (id, response) = conn.read_answer();
        assert!(
            answers.insert(id, response).is_none(),
            "id {id} answered twice"
        );
    }
    for id in [10u64, 12, 14] {
        match answers.remove(&id) {
            Some(WireResponse::State(_)) => {}
            other => panic!("id {id}: expected a state, got {other:?}"),
        }
    }
    match answers.remove(&11) {
        Some(WireResponse::Error(e)) => {
            assert_eq!(e.code(), "protocol");
            assert!(e.to_string().contains("exceeds"), "{e}");
        }
        other => panic!("id 11: expected the oversize rejection, got {other:?}"),
    }
    match answers.remove(&13) {
        Some(WireResponse::Error(e)) => {
            assert_eq!(e.code(), "protocol");
            assert!(e.to_string().contains("checksum"), "{e}");
        }
        other => panic!("id 13: expected the checksum rejection, got {other:?}"),
    }
    assert!(answers.is_empty(), "unexpected extra answers: {answers:?}");

    // The connection survived the whole splice.
    let stats = dai_rpc::proto::encode_message(&WireRequest::Stats);
    conn.send_request(20, &stats);
    match conn.read_answer() {
        (20, WireResponse::Stats(_)) => {}
        other => panic!("connection did not survive: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn pipelined_per_query_frames_reproduce_the_coalesced_lock_profile() {
    // The tentpole's acceptance check: a client that pipelines plain
    // per-query frames over one socket gets the engine's coalesced
    // profile — session locks ≈ batches, not ≈ queries — because the
    // server's event loop batches adjacent same-function query frames
    // into one `submit_query_batch` call.
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("pipeline")), Arc::clone(&engine)).unwrap();
    let client: Client<IntervalDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("pipeline", LOOPY).unwrap();
    let locs: Vec<Loc> = engine
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .locs();
    let before = client.stats().unwrap();
    let answers = client.pipeline_queries(session, "f", &locs);
    let after = client.stats().unwrap();

    // Every pipelined id answered, and correctly: the answers match the
    // serial oracle on a fresh engine.
    assert_eq!(answers.len(), locs.len());
    let oracle: Engine<IntervalDomain> = Engine::new(1);
    let oracle_session = oracle.open_session_src("oracle", LOOPY).unwrap();
    for (loc, got) in locs.iter().zip(&answers) {
        let want = oracle.query(oracle_session, "f", *loc).unwrap();
        assert_eq!(
            got.as_ref().unwrap(),
            &want,
            "pipelined answer differs at {loc}"
        );
    }

    // The lock profile is the batched one. The burst may land in more
    // than one read drain (the loop can wake mid-write), so don't pin
    // "exactly one batch" — the assertions that matter are one lock per
    // drain and drains ≪ queries.
    let locks = after.session_locks - before.session_locks;
    let batches = after.batch.batches - before.batch.batches;
    let coalesced = after.batch.coalesced_queries - before.batch.coalesced_queries;
    let singleton = after.batch.singleton_queries - before.batch.singleton_queries;
    assert_eq!(
        coalesced + singleton,
        locs.len() as u64,
        "every query served"
    );
    assert_eq!(locks, batches + singleton, "one session lock per drain");
    assert!(
        locks * 4 <= locs.len() as u64,
        "pipelined frames did not coalesce: {locks} session locks for {} queries",
        locs.len()
    );
    server.shutdown();
}

#[test]
fn auth_token_gates_the_hello_exchange() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = dai_rpc::Server::bind_with(
        &Addr::Unix(scratch("auth")),
        engine,
        dai_rpc::ServerConfig {
            auth_token: Some("s3cret".to_string()),
        },
    )
    .unwrap();
    let addr = Addr::parse(&server.addr().to_string()).unwrap();

    // Missing and wrong tokens: structured `unauthorized`, no session.
    for bad in [None, Some("wrong".to_string())] {
        let got =
            Client::<IntervalDomain>::connect_with(&addr, dai_rpc::ClientOptions { auth: bad });
        match got {
            Err(EngineError::Remote { code, .. }) => assert_eq!(code, "unauthorized"),
            other => panic!("expected unauthorized, got {:?}", other.err()),
        }
    }

    // The right token connects and serves.
    let client = Client::<IntervalDomain>::connect_with(
        &addr,
        dai_rpc::ClientOptions {
            auth: Some("s3cret".to_string()),
        },
    )
    .unwrap();
    let session = client.open("authed", LOOPY).unwrap();
    assert!(client.close(session).unwrap());

    // A rejected hello leaves the connection usable for a retry — the
    // server answers in protocol rather than hanging up.
    server.shutdown();
}

#[test]
fn shutdown_survives_a_connection_churn_storm() {
    // Connections being opened, used, and dropped *while the server is
    // shutting down* must neither panic (the old per-connection handler
    // table had a join/remove race here) nor hang the shutdown.
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("churn")), engine).unwrap();
    let addr = server.addr().to_string();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churners: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("churn-{i}"))
                .spawn(move || {
                    let mut connected = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // Failures are expected once shutdown begins; the
                        // invariant is no panic and no hang.
                        if let Ok(client) = Client::<IntervalDomain>::connect(&addr) {
                            connected += 1;
                            if connected.is_multiple_of(2) {
                                let _ = client.open("churn", LOOPY);
                            }
                        }
                    }
                    connected
                })
                .expect("spawn churner")
        })
        .collect();
    // Let the storm build, then shut down in the middle of it.
    std::thread::sleep(std::time::Duration::from_millis(100));
    server.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total = 0;
    for churner in churners {
        total += churner.join().expect("churner must not panic");
    }
    assert!(total > 0, "the storm never connected at all");
}

// ---------------------------------------------------------------------
// The wire's budget: what a request costs, backpressure, and responses
// written by the threads that finish them.
// ---------------------------------------------------------------------

#[test]
fn a_warm_request_costs_one_read_one_write_and_one_wakeup() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("budget")), Arc::clone(&engine)).unwrap();
    let client: Client<IntervalDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("budget", LOOPY).unwrap();
    let locs: Vec<Loc> = engine
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .locs();
    let cycle = |n: usize| -> Vec<Loc> { locs.iter().copied().cycle().take(n).collect() };
    let targets: Vec<(String, Loc)> = cycle(500)
        .into_iter()
        .map(|loc| ("f".to_string(), loc))
        .collect();
    // Warm every cell, so what is counted below is the wire alone.
    for answer in client.query_sweep(session, &targets) {
        answer.unwrap();
    }
    // What `work` (`trips` round trips) cost the server; the per-trip
    // figures are what `--nocapture` shows of the budget pinned below.
    let spent = |what: &str, trips: u32, work: &dyn Fn()| {
        let before = server.io_stats();
        work();
        let after = server.io_stats();
        let io = dai_rpc::IoStats {
            reads: after.reads - before.reads,
            writes: after.writes - before.writes,
            wakeups: after.wakeups - before.wakeups,
            pipe_writes: after.pipe_writes - before.pipe_writes,
            ..after
        };
        let per = |n: u64| n as f64 / f64::from(trips);
        println!(
            "{what}: reads {:.2} writes {:.2} loop wake-ups {:.2} self-pipe writes {:.2}",
            per(io.reads),
            per(io.writes),
            per(io.wakeups),
            per(io.pipe_writes),
        );
        io
    };

    // 200 warm single queries: the request's arrival wakes the loop once
    // and is read once; the worker that answers writes the response.
    let singles = spent("warm single query, per round trip", 200, &|| {
        for loc in cycle(200) {
            client.query(session, "f", loc).unwrap();
        }
    });
    assert!(singles.reads <= 220, "{singles:?}");
    assert!(singles.writes <= 220, "{singles:?}");
    assert!(singles.wakeups <= 220, "{singles:?}");
    assert_eq!(singles.pipe_writes, 0, "{singles:?}");

    // A 200-frame burst: read in a few gulps, coalesced into a few runs,
    // each run's responses sent by its last member in one write.
    let burst = spent("one 200-frame pipelined burst", 1, &|| {
        for answer in client.pipeline_queries(session, "f", &cycle(200)) {
            answer.unwrap();
        }
    });
    assert!(burst.reads <= 8, "{burst:?}");
    assert!(burst.writes <= 8, "{burst:?}");
    assert_eq!(burst.pipe_writes, 0, "{burst:?}");

    // A 500-member sweep: one frame in, one frame out.
    let sweep = spent("one 500-member sweep", 1, &|| {
        for answer in client.query_sweep(session, &targets) {
            answer.unwrap();
        }
    });
    assert!(sweep.writes <= 2, "{sweep:?}");
    assert_eq!(sweep.pipe_writes, 0, "{sweep:?}");

    // The same counters ride the metrics exposition.
    let text = client.metrics().unwrap();
    for name in [
        "dai_rpc_socket_reads",
        "dai_rpc_socket_writes",
        "dai_rpc_loop_wakeups",
        "dai_rpc_pipe_writes",
        "dai_rpc_inflight_high_water",
        "dai_rpc_backlog_high_water",
    ] {
        assert!(text.contains(&format!("# TYPE {name} gauge")), "{text}");
    }
    server.shutdown();
}

extern "C" {
    fn mkfifo(path: *const std::os::raw::c_char, mode: u32) -> i32;
}

/// Spins (yielding) until `done` holds; a test's way of waiting for a
/// server-side state it can observe but not be told about.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "never saw: {what}");
        std::thread::yield_now();
    }
}

#[test]
fn a_peer_that_does_not_read_is_bounded_and_still_answered_in_full() {
    use dai_rpc::server::{HARD_WRITE_CAP, MAX_INFLIGHT, SOFT_WRITE_CAP};
    let (server, path) = hostile_server();
    let mut conn = RawConn::connect(&path);
    // `big` answers with a state of several hundred intervals (≈ 10 KB
    // on the wire), `small` with one.
    let mut source = String::from("function big(n) { ");
    for v in 0..400 {
        source.push_str(&format!("var v{v} = {v}; "));
    }
    source.push_str("return v0; } function small(n) { var x = 1; return x; }");
    conn.send_request(
        2,
        &dai_rpc::proto::encode_message(&WireRequest::Open {
            name: "bp".to_string(),
            source,
        }),
    );
    let session = match conn.read_answer() {
        (2, WireResponse::Opened { session }) => session,
        other => panic!("open failed: {other:?}"),
    };
    let exit_of = |func: &str| {
        let program = server.engine().program_of(SessionId(session)).unwrap();
        program.by_name(func).unwrap().exit()
    };
    let burst = |func: &str, first_id: u64, count: usize| {
        let payload = dai_rpc::proto::encode_message(&WireRequest::Query {
            session,
            func: func.to_string(),
            loc: exit_of(func),
        });
        let mut bytes = Vec::new();
        for id in first_id..first_id + count as u64 {
            dai_persist::frame::write_frame_id(
                &mut bytes,
                TAG_REQUEST,
                PROTOCOL_VERSION,
                Some(id),
                &payload,
            );
        }
        bytes
    };
    // Reads until every id of the burst has been answered exactly once,
    // by a state or by `Overloaded` (and `also`, if given, by an error);
    // returns (overloaded, largest state frame).
    let drain = |conn: &mut RawConn, first_id: u64, count: usize, mut also: Option<u64>| {
        let mut seen = std::collections::HashSet::new();
        let (mut overloaded, mut largest) = (0usize, 0usize);
        while seen.len() < count || also.is_some() {
            let (id, response) = conn.read_answer();
            if also == Some(id) {
                assert!(matches!(response, WireResponse::Error(_)), "{response:?}");
                also = None;
                continue;
            }
            assert!(
                (first_id..first_id + count as u64).contains(&id),
                "stray id {id}"
            );
            assert!(seen.insert(id), "id {id} answered twice");
            match response {
                WireResponse::State(blob) => largest = largest.max(blob.0.len() + 64),
                WireResponse::Error(e) if e.code() == "overload" => overloaded += 1,
                other => panic!("id {id}: {other:?}"),
            }
        }
        (overloaded, largest)
    };

    // Phase 1 — small answers behind a barrier. A `Load` from a fifo
    // holds the engine's one worker (and so every query submitted after
    // it) until the test opens the other end, so
    // the burst piles up to exactly `MAX_INFLIGHT` owed replies. The
    // burst is a few frames longer than that and fits the server's read
    // buffer (64 KiB) whole: when the stall begins, the surplus frames
    // sit parsed-but-undispatched in that buffer and nothing is left in
    // the socket to raise another readiness event. Releasing the barrier
    // completes the load on a worker; that worker un-stalls the
    // connection, and only its poke of the loop gets the surplus served.
    conn.stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let fifo = scratch("barrier");
    let c_path = std::ffi::CString::new(fifo.clone()).unwrap();
    // SAFETY: `c_path` is a live NUL-terminated string for the call.
    assert_eq!(unsafe { mkfifo(c_path.as_ptr(), 0o600) }, 0, "mkfifo");
    conn.send_request(
        3,
        &dai_rpc::proto::encode_message(&WireRequest::Load { path: fifo.clone() }),
    );
    let surplus = MAX_INFLIGHT + 8;
    let bytes = burst("small", 100_000, surplus);
    assert!(
        bytes.len() < 64 * 1024,
        "the burst must fit one read buffer"
    );
    {
        conn.send_raw(&bytes);
        wait_until("MAX_INFLIGHT owed replies", || {
            server.io_stats().inflight_high_water == MAX_INFLIGHT as u64
        });
        assert_eq!(server.io_stats().pipe_writes, 0, "no un-stall yet");
        // Open and close the writing end: the load reads EOF and fails.
        drop(std::fs::OpenOptions::new().write(true).open(&fifo).unwrap());
        let (overloaded, _) = drain(&mut conn, 100_000, surplus, Some(3));
        assert_eq!(overloaded, 0, "small answers never overload");
    }
    let _ = std::fs::remove_file(&fifo);
    let io = server.io_stats();
    assert_eq!(io.inflight_high_water, MAX_INFLIGHT as u64, "{io:?}");
    assert!(
        io.pipe_writes > 0,
        "the un-stall happened off the loop and must have poked it: {io:?}"
    );

    // Phase 2 — large answers, nobody reading, until the backlog has
    // passed the soft cap; then everything is read. (The writer is its
    // own thread: the server stops reading long before the burst is in.)
    let writer = conn.stream.try_clone().unwrap();
    let bytes = burst("big", 1_000, 4 * MAX_INFLIGHT);
    let (overloaded, largest) = std::thread::scope(|scope| {
        scope.spawn(move || (&writer).write_all(&bytes).expect("burst sent"));
        wait_until("a backlog past the soft cap", || {
            server.io_stats().backlog_high_water > SOFT_WRITE_CAP as u64
        });
        drain(&mut conn, 1_000, 4 * MAX_INFLIGHT, None)
    });
    let io = server.io_stats();
    assert_eq!(io.inflight_high_water, MAX_INFLIGHT as u64, "{io:?}");
    // Past the hard cap only `Overloaded` notices are queued — a few
    // dozen bytes each, and at most one per owed reply.
    assert!(
        io.backlog_high_water <= (HARD_WRITE_CAP + largest + MAX_INFLIGHT * 64) as u64,
        "{io:?} (largest frame {largest}, {overloaded} overloaded)"
    );

    // And the connection serves a fresh query afterwards.
    conn.send_request(
        7,
        &dai_rpc::proto::encode_message(&WireRequest::Query {
            session,
            func: "small".to_string(),
            loc: exit_of("small"),
        }),
    );
    match conn.read_answer() {
        (7, WireResponse::State(_)) => {}
        other => panic!("connection did not survive: {other:?}"),
    }
    server.shutdown();
}

/// One step of a stress connection's script; `Edit` sets the constant a
/// function starts from (`a` in `f`, `b` in `g`).
#[derive(Clone)]
enum Step {
    Query(&'static str, Loc),
    Edit(&'static str, i64),
}

#[test]
fn responses_written_by_four_workers_match_an_in_process_replay() {
    // Four connections, each pipelining bursts over two functions of its
    // own session with its own edits in between, against an engine with
    // four workers: answers are framed and written by whichever worker
    // finishes them, several per connection at once. Every id must be
    // answered exactly once and every answer must equal what an
    // in-process engine gives for the same script.
    const SOURCE: &str = "function f(n) { var a = 1; var i = 0; var s = 0; \
                          while (i < 9) { s = s + a; i = i + 1; } return s; } \
                          function g(n) { var b = 2; var t = b + 1; return t; }";
    const ROUNDS: i64 = 12;
    let edit_of = |engine: &Engine<IntervalDomain>, session: SessionId, func: &str, k: i64| {
        let var = if func == "f" { "a" } else { "b" };
        let program = engine.program_of(session).unwrap();
        let edge = program
            .by_name(func)
            .unwrap()
            .edges()
            .find(|e| e.stmt.to_string().starts_with(&format!("{var} = ")))
            .expect("the constant's edge")
            .id;
        ProgramEdit::Relabel {
            func: dai_lang::Symbol::new(func),
            edge,
            stmt: dai_lang::Stmt::Assign(var.into(), dai_lang::parse_expr(&k.to_string()).unwrap()),
        }
    };

    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::with_config(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    }));
    let server = Server::bind(&Addr::Unix(scratch("stress")), Arc::clone(&engine)).unwrap();
    let path = match server.addr() {
        Addr::Unix(p) => p.clone(),
        other => panic!("expected unix addr, got {other}"),
    };

    // A round: edit `f`, ask for all of `f`; edit `g`, ask for all of
    // `g`, then all of `f` again. Every query follows the last edit of
    // its own function (the engine fences it behind that edit) and the
    // other function's edit cannot change its answer, so the replay is
    // determined — while the second `f` run is stamped one fence later
    // than the first and may meet it in the engine's queue, where the
    // fence splits them.
    let script_of = |conn: i64, locs_f: &[Loc], locs_g: &[Loc]| -> Vec<Vec<Step>> {
        (0..ROUNDS)
            .map(|round| {
                let mut burst = vec![Step::Edit("f", 10 * conn + round)];
                burst.extend(locs_f.iter().map(|&l| Step::Query("f", l)));
                burst.push(Step::Edit("g", 100 * conn + round));
                burst.extend(locs_g.iter().map(|&l| Step::Query("g", l)));
                burst.extend(locs_f.iter().map(|&l| Step::Query("f", l)));
                burst
            })
            .collect()
    };

    std::thread::scope(|scope| {
        for conn_no in 0..4i64 {
            let (engine, path) = (&engine, &path);
            scope.spawn(move || {
                let mut conn = RawConn::open(path);
                conn.stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                    .unwrap();
                let mut next_id = 1u64;
                // Frames one request under the next id.
                let mut frame = |out: &mut Vec<u8>, request: &WireRequest| -> u64 {
                    let id = next_id;
                    next_id += 1;
                    out.extend(request_frame(id, &dai_rpc::proto::encode_message(request)));
                    id
                };
                let mut out = Vec::new();
                frame(
                    &mut out,
                    &WireRequest::Hello {
                        domain: IntervalDomain::domain_tag(),
                        auth: None,
                    },
                );
                frame(
                    &mut out,
                    &WireRequest::Open {
                        name: format!("stress-{conn_no}"),
                        source: SOURCE.to_string(),
                    },
                );
                conn.send_raw(&out);
                assert!(matches!(conn.read_answer().1, WireResponse::HelloOk { .. }));
                let session = match conn.read_answer().1 {
                    WireResponse::Opened { session } => SessionId(session),
                    other => panic!("open failed: {other:?}"),
                };
                let program = engine.program_of(session).unwrap();
                let locs_f = program.by_name("f").unwrap().locs();
                let locs_g = program.by_name("g").unwrap().locs();
                drop(program);

                // The reference: the same script, one request at a time,
                // on an engine of this thread's own.
                let oracle: Engine<IntervalDomain> = Engine::new(1);
                let oracle_session = oracle.open_session_src("oracle", SOURCE).unwrap();

                for burst in script_of(conn_no, &locs_f, &locs_g) {
                    let mut out = Vec::new();
                    let mut ids = Vec::new();
                    let mut want = Vec::new();
                    for step in &burst {
                        match step {
                            Step::Edit(func, k) => {
                                let edit = edit_of(&oracle, oracle_session, func, *k);
                                Service::<IntervalDomain>::edit(&oracle, oracle_session, &edit)
                                    .unwrap();
                                want.push(None);
                                ids.push(frame(
                                    &mut out,
                                    &WireRequest::Edit {
                                        session: session.0,
                                        edit,
                                    },
                                ));
                            }
                            Step::Query(func, loc) => {
                                want.push(Some(oracle.query(oracle_session, func, *loc).unwrap()));
                                ids.push(frame(
                                    &mut out,
                                    &WireRequest::Query {
                                        session: session.0,
                                        func: func.to_string(),
                                        loc: *loc,
                                    },
                                ));
                            }
                        }
                    }
                    conn.send_raw(&out);
                    let mut answered = std::collections::HashSet::new();
                    for _ in 0..burst.len() {
                        let (id, response) = conn.read_answer();
                        let at = ids.iter().position(|&i| i == id).expect("a known id");
                        assert!(answered.insert(at), "request {at} answered twice");
                        match (&want[at], response) {
                            (None, WireResponse::Edited(_)) => {}
                            (Some(want), WireResponse::State(blob)) => {
                                let got = blob.decode::<IntervalDomain>().unwrap();
                                assert_eq!(&got, want, "conn {conn_no}, request {at}");
                            }
                            (_, other) => panic!("conn {conn_no}, request {at}: {other:?}"),
                        }
                    }
                }
            });
        }
    });
    server.shutdown();
}
