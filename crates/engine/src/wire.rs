//! [`Persist`] codecs for the engine's public response payloads, so a
//! wire protocol (`dai-rpc`) can carry [`EngineStats`],
//! [`PersistOutcome`], [`EditOutcome`], and [`SessionSnapshot`] without
//! redefining them. Crucially, [`EngineStats`] travels *whole* —
//! [`BatchStats`], the saves/loads counters, `session_locks`, query and
//! memo work — so a remote client can assert that coalescing and
//! persistence actually happened on the server, with the same
//! accounting checks the in-process tests use.

use dai_persist::{Persist, PersistError, Reader, Writer};

use crate::engine::{
    BatchStats, EngineStats, ExplainStats, PersistOutcome, ReplicationStats, SessionId,
};
use crate::session::{EditOutcome, SessionSnapshot};

impl Persist for SessionId {
    fn put(&self, w: &mut Writer) {
        w.u64(self.0);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SessionId(r.u64()?))
    }
}

impl Persist for EditOutcome {
    fn put(&self, w: &mut Writer) {
        w.u64(self.new_locs as u64);
        w.u64(self.new_edges as u64);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(EditOutcome {
            new_locs: r.u64()? as usize,
            new_edges: r.u64()? as usize,
        })
    }
}

impl Persist for PersistOutcome {
    fn put(&self, w: &mut Writer) {
        w.u64(self.bytes as u64);
        w.u64(self.funcs as u64);
        w.u64(self.funcs_dropped as u64);
        self.truncated.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(PersistOutcome {
            bytes: r.u64()? as usize,
            funcs: r.u64()? as usize,
            funcs_dropped: r.u64()? as usize,
            truncated: bool::get(r)?,
        })
    }
}

impl Persist for BatchStats {
    fn put(&self, w: &mut Writer) {
        w.u64(self.batches);
        w.u64(self.coalesced_queries);
        w.u64(self.singleton_queries);
        w.u64(self.union_cone_cells);
        w.u64(self.union_cone_walks);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(BatchStats {
            batches: r.u64()?,
            coalesced_queries: r.u64()?,
            singleton_queries: r.u64()?,
            union_cone_cells: r.u64()?,
            union_cone_walks: r.u64()?,
        })
    }
}

impl Persist for ExplainStats {
    fn put(&self, w: &mut Writer) {
        w.u64(self.reports);
        w.u64(self.cells);
        w.u64(self.fixes);
        w.u64(self.work_ns);
        w.u64(self.span_ns);
        w.u64(self.computed_ns);
        w.u64(self.memo_matched_ns);
        w.u64(self.fix_ns);
        self.domains.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ExplainStats {
            reports: r.u64()?,
            cells: r.u64()?,
            fixes: r.u64()?,
            work_ns: r.u64()?,
            span_ns: r.u64()?,
            computed_ns: r.u64()?,
            memo_matched_ns: r.u64()?,
            fix_ns: r.u64()?,
            domains: Vec::<(String, u64)>::get(r)?,
        })
    }
}

impl Persist for ReplicationStats {
    fn put(&self, w: &mut Writer) {
        self.journal_attached.put(w);
        w.u64(self.journal_last_seq);
        w.u64(self.journal_frames);
        w.u64(self.applied_seq);
        w.u64(self.applied_frames);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ReplicationStats {
            journal_attached: bool::get(r)?,
            journal_last_seq: r.u64()?,
            journal_frames: r.u64()?,
            applied_seq: r.u64()?,
            applied_frames: r.u64()?,
        })
    }
}

impl Persist for EngineStats {
    fn put(&self, w: &mut Writer) {
        w.u64(self.workers as u64);
        w.u64(self.sessions as u64);
        w.u64(self.queries);
        w.u64(self.edits);
        w.u64(self.snapshots);
        w.u64(self.saves);
        w.u64(self.loads);
        w.u64(self.session_locks);
        self.batch.put(w);
        self.query_stats.put(w);
        self.explain.put(w);
        self.memo.put(w);
        self.replication.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(EngineStats {
            workers: r.u64()? as usize,
            sessions: r.u64()? as usize,
            queries: r.u64()?,
            edits: r.u64()?,
            snapshots: r.u64()?,
            saves: r.u64()?,
            loads: r.u64()?,
            session_locks: r.u64()?,
            batch: BatchStats::get(r)?,
            query_stats: dai_core::query::QueryStats::get(r)?,
            explain: ExplainStats::get(r)?,
            memo: dai_memo::MemoStats::get(r)?,
            replication: ReplicationStats::get(r)?,
        })
    }
}

impl Persist for SessionSnapshot {
    fn put(&self, w: &mut Writer) {
        self.session.put(w);
        self.functions.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SessionSnapshot {
            session: String::get(r)?,
            functions: Vec::<(String, String)>::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::get(&mut r).expect("decodes");
        assert!(r.is_exhausted(), "{} trailing bytes", r.remaining());
        assert_eq!(&back, v);
    }

    #[test]
    fn response_payloads_roundtrip() {
        roundtrip(&SessionId(42));
        roundtrip(&EditOutcome {
            new_locs: 3,
            new_edges: 5,
        });
        roundtrip(&PersistOutcome {
            bytes: 1024,
            funcs: 4,
            funcs_dropped: 1,
            truncated: true,
        });
        roundtrip(&BatchStats {
            batches: 5,
            coalesced_queries: 60,
            singleton_queries: 7,
            union_cone_cells: 1234,
            union_cone_walks: 5,
        });
        roundtrip(&SessionSnapshot {
            session: "s".to_string(),
            functions: vec![("main".to_string(), "digraph daig {}\n".to_string())],
        });
    }

    #[test]
    fn engine_stats_roundtrip_carries_batch_and_persist_counters() {
        let stats = EngineStats {
            workers: 2,
            sessions: 3,
            queries: 100,
            edits: 10,
            snapshots: 1,
            saves: 4,
            loads: 2,
            session_locks: 17,
            batch: BatchStats {
                batches: 5,
                coalesced_queries: 90,
                singleton_queries: 10,
                union_cone_cells: 400,
                union_cone_walks: 5,
            },
            query_stats: dai_core::query::QueryStats {
                computed: 50,
                memo_matched: 20,
                reused: 30,
                unrolls: 4,
                fix_converged: 6,
                cone_walks: 5,
                cone_cells: 400,
                transfers_compiled: 45,
                transfers_interp: 5,
            },
            explain: ExplainStats {
                reports: 2,
                cells: 90,
                fixes: 3,
                work_ns: 123_456,
                span_ns: 45_000,
                computed_ns: 100_000,
                memo_matched_ns: 20_000,
                fix_ns: 3_456,
                domains: vec![("interval".to_string(), 2)],
            },
            memo: dai_memo::MemoStats {
                hits: 20,
                misses: 50,
                insertions: 50,
                evictions: 0,
            },
            replication: ReplicationStats {
                journal_attached: true,
                journal_last_seq: 42,
                journal_frames: 17,
                applied_seq: 40,
                applied_frames: 15,
            },
        };
        roundtrip(&stats);
    }
}
