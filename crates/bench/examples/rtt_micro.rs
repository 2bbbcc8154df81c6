//! Round-trip floor of the socket path, and what each round trip costs
//! the server in system calls and wake-ups (`Server::io_stats` deltas).
//! Scratch measurement, not part of CI:
//! `cargo run --release --offline -p dai-bench --example rtt_micro`.
use dai_domains::OctagonDomain;
use dai_engine::{Engine, Service};
use dai_lang::Loc;
use dai_rpc::{Addr, Client, IoStats, Server};
use std::sync::Arc;
use std::time::Instant;

/// Runs `work` (`trips` round trips); prints time and calls per trip.
fn measure(server: &Server<OctagonDomain>, what: &str, trips: u32, work: impl FnOnce()) {
    let before = server.io_stats();
    let t0 = Instant::now();
    work();
    let elapsed = t0.elapsed();
    let after = server.io_stats();
    let per = |get: fn(&IoStats) -> u64| (get(&after) - get(&before)) as f64 / f64::from(trips);
    println!(
        "{what}: {:?}; reads {:.2} writes {:.2} loop wake-ups {:.2} self-pipe writes {:.2}",
        elapsed / trips,
        per(|io| io.reads),
        per(|io| io.writes),
        per(|io| io.wakeups),
        per(|io| io.pipe_writes),
    );
}

fn main() {
    let engine: Arc<Engine<OctagonDomain>> = Arc::new(Engine::new(1));
    let path = std::env::temp_dir().join(format!("dai-rtt-{}.sock", std::process::id()));
    let server = Server::bind(&Addr::Unix(path.to_string_lossy().into_owned()), engine).unwrap();
    let client: Client<OctagonDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("rtt", "function f() { return 1; }").unwrap();
    let query = || std::hint::black_box(client.query(session, "f", Loc(0)).ok());
    (0..100).for_each(|_| drop(query())); // warm up
    let reps = 2000u32;
    measure(&server, "stats, per round trip", reps, || {
        (0..reps).for_each(|_| drop(std::hint::black_box(client.stats().unwrap())));
    });
    measure(&server, "warm single query, per round trip", reps, || {
        (0..reps).for_each(|_| drop(query()));
    });
    measure(&server, "one 200-frame pipelined burst", 1, || {
        std::hint::black_box(client.pipeline_queries(session, "f", &[Loc(0); 200]));
    });
    measure(&server, "one 500-member sweep", 1, || {
        std::hint::black_box(client.query_sweep(session, &vec![("f".to_string(), Loc(0)); 500]));
    });
    server.shutdown();
}
