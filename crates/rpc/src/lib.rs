//! # dai-rpc — the engine's network front door
//!
//! The paper's demanded-analysis model is interactive by design: a
//! long-lived service answers a client's query/edit stream with
//! incremental, demand-driven work. `dai-engine` already speaks that
//! shape in-process; this crate puts it behind a wire protocol so the
//! same engine serves IDE-like clients over TCP or Unix sockets:
//!
//! * [`proto`] — the versioned, **domain-erased** message set
//!   ([`WireRequest`]/[`WireResponse`]/[`WireError`]): abstract states
//!   travel as opaque [`Persist`]-encoded blobs, the domain is *named*
//!   (once, in the hello exchange) rather than baked into the types, and
//!   every message is one `dai_persist::frame` frame — the identical
//!   tag/version/length/checksum layout snapshot sections use on disk;
//! * [`server`] — one [`dai_engine::Engine`], many connections, **one
//!   event loop**: nonblocking sockets read by a hand-rolled epoll loop,
//!   per-connection bounded buffers (slow readers stall or get a
//!   structured `overload` error, never unbounded memory), decoded
//!   queries dispatched as engine tickets whose completion hooks frame
//!   and write the response on the worker that finished it — so one
//!   connection can pipeline many requests (every frame carries a
//!   request id; responses may complete out of order), adjacent
//!   same-function query frames coalesce into one engine batch, and a
//!   warm request costs the server one wake-up, one read and one write
//!   ([`Server::io_stats`]).
//!   Sessions are owned per connection (closed on disconnect) with
//!   explicit handoff, and a sweep frame lands in
//!   `Engine::submit_query_sweep`, so query coalescing and edit/load
//!   fencing survive the wire;
//! * [`client`] — a typed blocking [`Client<D>`] implementing the same
//!   [`dai_engine::Service`] trait as the engine itself: swap
//!   `&Engine<D>` for `&Client<D>` and code runs remotely. Hello auth
//!   tokens and id-matched pipelining ([`Client::pipeline_queries`])
//!   live here;
//! * [`replica`] — streaming replication: a [`Replica`] tails a
//!   leader's `dai-journal` over [`Client::subscribe`] (the journal's
//!   disk format *is* the wire format) and applies it into a local
//!   follower engine whose replicated sessions are read-only — a
//!   lagging follower is simply the leader as of an earlier frame, so
//!   its answers are sound (see `crates/journal/README.md`);
//! * [`router`] — session sharding: a [`Router`] is a third [`Service`]
//!   implementor that consistent-hashes session names across N
//!   [`ShardBackend`]s (engines or clients), forwards every call to the
//!   owning shard, counts routed query members per shard, and migrates
//!   sessions live between shards via save → release → close → load.
//!
//! The wire protocol (frame layout, hello exchange, error codes) is
//! documented in `crates/rpc/README.md`.
//!
//! ## Quickstart
//!
//! ```
//! use dai_engine::{Engine, Service};
//! use dai_domains::IntervalDomain;
//! use dai_rpc::{Addr, Client, Server};
//! use std::sync::Arc;
//!
//! let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
//! let server = Server::bind(&Addr::Tcp("127.0.0.1:0".into()), Arc::clone(&engine))?;
//! let client: Client<IntervalDomain> = Client::connect(&server.addr().to_string())?;
//! let session = client.open("demo", "function main() { var x = 1; return x; }")?;
//! let exit = engine.program_of(session)?.by_name("main").unwrap().exit();
//! let state = client.query(session, "main", exit)?;
//! assert!(state.interval_of("x").contains(1));
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod proto;
pub mod replica;
pub mod router;
pub mod server;

pub use client::{Client, ClientOptions, StreamBatch};
pub use proto::{
    WireError, WireRequest, WireResponse, WireState, MAX_FRAME_LEN, PROTOCOL_VERSION, TAG_REQUEST,
    TAG_RESPONSE,
};
pub use replica::{Replica, SyncOutcome, DEFAULT_PULL_BATCH};
pub use router::{Router, ShardBackend};
pub use server::{Addr, IoStats, Server, ServerConfig};

#[allow(unused_imports)]
use dai_persist::Persist; // referenced by crate docs
