//! A fresh service stack per repetition: engine, memo table, server,
//! journal file, client connections, sessions opened and primed.

use crate::exec::{replay, Outcome, Rung, ServiceBackend};
use crate::gen::{all_targets, Op, Script};
use crate::probe;
use crate::trace::SpanLog;
use crate::workloads::{Spec, Transport};
use dai_engine::{Engine, EngineConfig, EngineError, JournalConfig, Service, SessionId};
use dai_persist::PersistDomain;
use dai_rpc::{Addr, Client, Server};
use std::path::Path;
use std::sync::{Arc, Barrier};

/// The journal and socket of the running stack, relative to the scratch
/// directory the process works in: a Unix socket path is limited to about
/// a hundred bytes, and the checkout may sit anywhere.
pub const JOURNAL_FILE: &str = "stack.daij";
const SOCKET_FILE: &str = "stack.sock";

pub struct Stack<D: PersistDomain> {
    pub engine: Arc<Engine<D>>,
    server: Option<Server<D>>,
    /// One connection per scripted client; empty in process.
    pub clients: Vec<Client<D>>,
    pub sessions: Vec<SessionId>,
}

pub fn engine_config(spec: &Spec) -> EngineConfig {
    EngineConfig {
        workers: spec.workers,
        resolver: spec.resolver,
        ..EngineConfig::default()
    }
}

/// The client each session belongs to: the one whose script names it.
pub fn session_owners(script: &Script) -> Vec<usize> {
    let mut owners = vec![0; script.sources.len()];
    for (client, ops) in script.clients.iter().enumerate() {
        for op in ops {
            match op {
                Op::Edit { session, .. }
                | Op::Query { session, .. }
                | Op::Sweep { session, .. }
                | Op::Burst { session, .. }
                | Op::Save { session } => owners[*session] = client,
                Op::Compact => {}
            }
        }
    }
    owners
}

fn invariant(message: String) -> EngineError {
    EngineError::Daig(dai_core::DaigError::Invariant(message))
}

/// Opens, grows and primes session `index` through `service`.
fn open_session<D: PersistDomain>(
    service: &impl Service<D>,
    script: &Script,
    index: usize,
) -> Result<SessionId, EngineError> {
    let id = service.open(&format!("bench-{index}"), &script.sources[index])?;
    for (_, edit) in script.grow.iter().filter(|(s, _)| *s == index) {
        service.edit(id, edit)?;
    }
    // Prime: one cold whole-program sweep, so the timed window starts
    // from a fully demanded program as an editor session would.
    for (i, answer) in service
        .query_sweep(id, &all_targets(&script.initials[index]))
        .into_iter()
        .enumerate()
    {
        answer
            .map_err(|e| invariant(format!("prime sweep of session {index}, member {i}: {e}")))?;
    }
    Ok(id)
}

impl<D: PersistDomain> Stack<D> {
    /// Starts the stack for `transport` in the current directory.
    pub fn start(
        spec: &Spec,
        script: &Script,
        transport: Transport,
    ) -> Result<Stack<D>, EngineError> {
        let engine: Arc<Engine<D>> = Arc::new(Engine::with_config(engine_config(spec)));
        if transport == Transport::SocketJournal {
            let _ = std::fs::remove_file(JOURNAL_FILE);
            // Compaction happens where the script says, with the floor to
            // itself; see `gen::durable_script` for why not on its own.
            let config = JournalConfig {
                compact_every: 0,
                ..JournalConfig::default()
            };
            engine.open_journal(JOURNAL_FILE, config)?;
        }
        let owners = session_owners(script);
        let mut stack = Stack {
            engine: Arc::clone(&engine),
            server: None,
            clients: Vec::new(),
            sessions: Vec::new(),
        };
        if transport == Transport::InProcess {
            for index in 0..script.sources.len() {
                stack.sessions.push(open_session(&*engine, script, index)?);
            }
            return Ok(stack);
        }
        let addr = Addr::Unix(SOCKET_FILE.to_string());
        let server =
            Server::bind(&addr, engine).map_err(|e| invariant(format!("binding {addr}: {e}")))?;
        stack.server = Some(server);
        for _ in 0..script.clients.len() {
            stack.clients.push(Client::connect_addr(&addr)?);
        }
        for (index, &owner) in owners.iter().enumerate() {
            let id = open_session(&stack.clients[owner], script, index)?;
            stack.sessions.push(id);
        }
        Ok(stack)
    }

    /// Replays every client's script, one thread per client when there are
    /// several, and returns each client's outcome and span log.
    pub fn run(
        &self,
        script: &Script,
        keep: &[Vec<(usize, usize)>],
        dir: &Path,
        traced: Option<(Rung, usize)>,
    ) -> Vec<(Outcome<D>, Option<SpanLog>)> {
        let barrier = Barrier::new(script.clients.len());
        let meet = (script.clients.len() > 1).then_some(&barrier);
        let one = |client: usize| {
            if let Some((_, cap)) = traced {
                probe::reset(Some(SpanLog::new(cap)));
            }
            let rung = traced.map(|(rung, _)| rung);
            let ops = &script.clients[client];
            let outcome = match self.clients.get(client) {
                Some(connection) => replay(
                    &mut ServiceBackend {
                        service: connection,
                        sessions: &self.sessions,
                        burst: |c, s, f, l| c.pipeline_queries(s, f, l),
                        engine: &self.engine,
                        compactor: client == 0,
                        barrier: meet,
                        dir,
                    },
                    ops,
                    &keep[client],
                    rung,
                ),
                None => replay(
                    &mut ServiceBackend {
                        service: &*self.engine,
                        sessions: &self.sessions,
                        burst: |e, s, f, l| e.query_batch(s, f, l),
                        engine: &self.engine,
                        compactor: client == 0,
                        barrier: meet,
                        dir,
                    },
                    ops,
                    &keep[client],
                    rung,
                ),
            };
            (outcome, probe::take().1)
        };
        if script.clients.len() == 1 {
            return vec![one(0)];
        }
        // All clients leave the barrier together, so their windows overlap
        // from the first operation.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..script.clients.len())
                .map(|client| {
                    let (one, barrier) = (&one, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        one(client)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// The served address, when there is a server.
    pub fn addr(&self) -> Option<&Addr> {
        self.server.as_ref().map(Server::addr)
    }

    /// Closes connections, stops the server and joins its thread.
    pub fn stop(mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
