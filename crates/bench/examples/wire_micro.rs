//! Scratch micro-profiler for the RPC wire path (not part of CI).
use dai_bench::workload::Workload;
use dai_domains::OctagonDomain;
use dai_engine::{Engine, Service};
use dai_lang::Loc;
use dai_persist::{checksum_with, Writer};
use dai_rpc::proto::{decode_message, encode_message};
use dai_rpc::{WireResponse, WireState};
use std::time::Instant;

fn main() {
    let source = Workload::initial_source();
    let engine: Engine<OctagonDomain> = Engine::new(1);
    let session = engine.open_session_src("micro", &source).unwrap();
    let mut gen = Workload::new(379422);
    for _ in 0..40 {
        let program = engine.program_of(session).unwrap();
        let edit = gen.next_edit(&program);
        Service::<OctagonDomain>::edit(&engine, session, &edit).unwrap();
    }
    let program = engine.program_of(session).unwrap();
    let mut targets: Vec<(String, Loc)> = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();
    let answers: Vec<OctagonDomain> = engine
        .query_sweep(session, &targets)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    println!("{} answers", answers.len());

    let reps = 200u32;
    let t0 = Instant::now();
    let mut total = 0usize;
    for _ in 0..reps {
        let states: Vec<Result<WireState, dai_rpc::WireError>> =
            answers.iter().map(|d| Ok(WireState::encode(d))).collect();
        total = states.iter().map(|s| s.as_ref().unwrap().0.len()).sum();
        std::hint::black_box(&states);
    }
    println!(
        "encode states: {:?}/sweep, {} bytes",
        t0.elapsed() / reps,
        total
    );

    let states: Vec<Result<WireState, dai_rpc::WireError>> =
        answers.iter().map(|d| Ok(WireState::encode(d))).collect();
    let response = WireResponse::States(states);

    let t0 = Instant::now();
    let mut payload = Vec::new();
    for _ in 0..reps {
        payload = encode_message(&response);
        std::hint::black_box(&payload);
    }
    println!(
        "encode response msg: {:?}/sweep, {} bytes",
        t0.elapsed() / reps,
        payload.len()
    );

    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(checksum_with(&payload, Some(7)));
    }
    println!("checksum: {:?}/sweep", t0.elapsed() / reps);

    let t0 = Instant::now();
    for _ in 0..reps {
        let r: WireResponse = decode_message(&payload).unwrap();
        std::hint::black_box(&r);
    }
    println!("decode response msg: {:?}/sweep", t0.elapsed() / reps);

    let decoded: WireResponse = decode_message(&payload).unwrap();
    let WireResponse::States(states) = &decoded else {
        unreachable!()
    };
    let t0 = Instant::now();
    for _ in 0..reps {
        let ds: Vec<OctagonDomain> = states
            .iter()
            .map(|s| s.as_ref().unwrap().decode().unwrap())
            .collect();
        std::hint::black_box(&ds);
    }
    println!("decode states: {:?}/sweep", t0.elapsed() / reps);

    let dbm: Vec<i64> = (0..21_000).map(|i| i as i64).collect();
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut w = Writer::new();
        for &c in &dbm {
            w.i64(c);
        }
        std::hint::black_box(&w);
    }
    println!("raw 21k i64 put loop: {:?}", t0.elapsed() / reps);

    let req = dai_rpc::WireRequest::Sweep {
        session: 1,
        targets: targets.clone(),
    };
    let t0 = Instant::now();
    for _ in 0..reps {
        let p = encode_message(&req);
        let r: dai_rpc::WireRequest = decode_message(&p).unwrap();
        std::hint::black_box(&r);
    }
    println!("request roundtrip: {:?}/sweep", t0.elapsed() / reps);

    // Duplicate analysis: how many distinct blobs does one sweep carry?
    let mut distinct: Vec<&[u8]> = Vec::new();
    let mut dup = 0usize;
    let mut prev_dup = 0usize;
    let all: Vec<WireState> = answers.iter().map(WireState::encode).collect();
    for (i, s) in all.iter().enumerate() {
        if i > 0 && all[i - 1].0 == s.0 {
            prev_dup += 1;
        }
        if distinct.contains(&s.0.as_slice()) {
            dup += 1;
        } else {
            distinct.push(&s.0);
        }
    }
    println!(
        "{} blobs: {} distinct, {} dups ({} equal to immediate predecessor)",
        all.len(),
        distinct.len(),
        dup,
        prev_dup
    );

    // Entry distribution across all answer DBMs.
    let (mut inf, mut small, mut zero, mut big, mut total_e) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for a in &answers {
        if let OctagonDomain::Oct(o) = a {
            // The packed half, as the wire carries it.
            for &c in o.packed() {
                total_e += 1;
                if c == i64::MAX {
                    inf += 1;
                } else if c == 0 {
                    zero += 1;
                } else if (-120..=120).contains(&c) {
                    small += 1;
                } else {
                    big += 1;
                }
            }
        }
    }
    println!(
        "dbm entries: {total_e} total, {inf} INF, {zero} zero, {small} small(+-120), {big} big"
    );
}
