//! The transport-agnostic service surface of the analysis engine.
//!
//! [`Service`] is the one verb set every consumer of demanded analysis
//! programs against — open a session from source, demand states (singly,
//! as a per-function batch, or as a whole sweep), edit, snapshot, persist,
//! read statistics — with the raw [`crate::Request`]/[`crate::Response`]
//! stream hidden behind it. Two implementations exist:
//!
//! * [`Engine`] — in-process: methods route into the request stream and
//!   its coalescing queue exactly as before;
//! * `dai_rpc::Client` — remote: the same methods encode one wire frame
//!   per call (a sweep is **one** frame, landing in
//!   [`Engine::submit_query_sweep`] server-side so query coalescing and
//!   edit/load fencing survive the wire).
//!
//! Code written against `&impl Service<D>` — the REPL's sweep printer,
//! the benches, the equality tests — runs unchanged over either, which is
//! what makes "socket answers == in-process answers" a one-liner to
//! assert.

use dai_core::driver::ProgramEdit;
use dai_core::explain::ExplainReport;
use dai_lang::Loc;

use crate::engine::{
    Engine, EngineError, EngineStats, PersistOutcome, Request, Response, SessionId, Ticket,
};
use crate::session::{EditOutcome, SessionSnapshot};
use dai_persist::PersistDomain;

/// A demanded-analysis service: the engine's public verbs, independent of
/// whether they execute in-process or across a socket.
///
/// All methods take `&self`: implementations serialize internally (the
/// engine through its request stream, a remote client through its
/// connection lock), so one service handle can be shared across threads.
pub trait Service<D> {
    /// Opens a session by parsing `source`, returning its id. Sessions
    /// opened through a service are always source-backed (saveable).
    ///
    /// # Errors
    ///
    /// [`EngineError::Parse`] / [`EngineError::Cfg`] when the source does
    /// not compile; transport failures for remote implementations.
    fn open(&self, name: &str, source: &str) -> Result<SessionId, EngineError>;

    /// Closes a session, returning `false` if the id was unknown.
    ///
    /// # Errors
    ///
    /// Transport failures for remote implementations.
    fn close(&self, session: SessionId) -> Result<bool, EngineError>;

    /// Demands the abstract state at `loc` of `func`.
    ///
    /// # Errors
    ///
    /// Unknown targets, evaluation failures, or transport failures.
    fn query(&self, session: SessionId, func: &str, loc: Loc) -> Result<D, EngineError>;

    /// Demands a batch of locations against one function — served as a
    /// single coalesced batch (one session-lock acquisition, one
    /// union-cone evaluation). Members succeed or fail individually, in
    /// `locs` order.
    fn query_batch(
        &self,
        session: SessionId,
        func: &str,
        locs: &[Loc],
    ) -> Vec<Result<D, EngineError>>;

    /// Demands a whole `(function, location)` sweep, coalescing each
    /// contiguous run of equal function names into one batch (sort
    /// `targets` for exactly one batch per function). Answers come back
    /// in `targets` order, each member succeeding or failing on its own.
    fn query_sweep(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Vec<Result<D, EngineError>>;

    /// Applies a program edit.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cfg`] for rejected edits (the session is unchanged).
    fn edit(&self, session: SessionId, edit: &ProgramEdit) -> Result<EditOutcome, EngineError>;

    /// Exports the session's deterministic DOT snapshot.
    ///
    /// # Errors
    ///
    /// Unknown session, or transport failures.
    fn snapshot(&self, session: SessionId) -> Result<SessionSnapshot, EngineError>;

    /// Persists the session to `path` (a path on the *serving* host for
    /// remote implementations).
    ///
    /// # Errors
    ///
    /// [`EngineError::NotReplayable`] / persistence failures.
    fn save(&self, session: SessionId, path: &str) -> Result<PersistOutcome, EngineError>;

    /// Restores a snapshot file into a fresh session.
    ///
    /// # Errors
    ///
    /// Persistence failures; the restored id is fresh on success.
    fn load(&self, path: &str) -> Result<(SessionId, PersistOutcome), EngineError>;

    /// Reads service-wide statistics (including [`crate::BatchStats`] and
    /// the saves/loads counters, so callers can assert coalescing and
    /// persistence happened — locally or across the wire).
    ///
    /// # Errors
    ///
    /// Transport failures for remote implementations.
    fn stats(&self) -> Result<EngineStats, EngineError>;

    /// Serves a `(function, location)` sweep with cost attribution and
    /// returns the capture: per-cell outcomes and wall times, the cone's
    /// work/span parallelism, lock wait vs. held time. The sweep is
    /// served synchronously under one session-lock acquisition; the
    /// answers themselves are discarded (use [`Service::query_sweep`] to
    /// keep them).
    ///
    /// # Errors
    ///
    /// Unknown session, an interprocedural-backend session (attribution
    /// requires the intraprocedural backend), or transport failures.
    fn explain(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Result<ExplainReport, EngineError>;
}

/// Maps a ticket's response to the queried state, sharing
/// [`Engine::query`]'s non-state guard.
fn state_of<D: dai_domains::AbstractDomain>(ticket: Ticket<D>) -> Result<D, EngineError> {
    ticket.wait().and_then(Response::state_or_invariant)
}

fn expect_response<D: dai_domains::AbstractDomain, T>(
    got: Result<Response<D>, EngineError>,
    what: &str,
    extract: impl FnOnce(Response<D>) -> Option<T>,
) -> Result<T, EngineError> {
    got.and_then(|r| {
        let desc = format!("{r:?}");
        extract(r).ok_or_else(|| {
            EngineError::Daig(dai_core::DaigError::Invariant(format!(
                "{what} answered with {desc}"
            )))
        })
    })
}

impl<D: PersistDomain> Service<D> for Engine<D> {
    fn open(&self, name: &str, source: &str) -> Result<SessionId, EngineError> {
        self.open_session_src(name, source)
    }

    fn close(&self, session: SessionId) -> Result<bool, EngineError> {
        Ok(self.close_session(session))
    }

    fn query(&self, session: SessionId, func: &str, loc: Loc) -> Result<D, EngineError> {
        Engine::query(self, session, func, loc)
    }

    fn query_batch(
        &self,
        session: SessionId,
        func: &str,
        locs: &[Loc],
    ) -> Vec<Result<D, EngineError>> {
        Engine::query_batch(self, session, func, locs)
    }

    fn query_sweep(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Vec<Result<D, EngineError>> {
        self.submit_query_sweep(session, targets)
            .into_iter()
            .map(state_of)
            .collect()
    }

    fn edit(&self, session: SessionId, edit: &ProgramEdit) -> Result<EditOutcome, EngineError> {
        expect_response(
            self.request(Request::Edit {
                session,
                edit: edit.clone(),
            }),
            "edit",
            Response::into_edited,
        )
    }

    fn snapshot(&self, session: SessionId) -> Result<SessionSnapshot, EngineError> {
        expect_response(
            self.request(Request::Snapshot { session }),
            "snapshot",
            Response::into_snapshot,
        )
    }

    fn save(&self, session: SessionId, path: &str) -> Result<PersistOutcome, EngineError> {
        expect_response(
            self.request(Request::Save {
                session,
                path: path.to_string(),
            }),
            "save",
            Response::into_saved,
        )
    }

    fn load(&self, path: &str) -> Result<(SessionId, PersistOutcome), EngineError> {
        expect_response(
            self.request(Request::Load {
                path: path.to_string(),
            }),
            "load",
            Response::into_loaded,
        )
    }

    fn stats(&self) -> Result<EngineStats, EngineError> {
        Ok(Engine::stats(self))
    }

    fn explain(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Result<ExplainReport, EngineError> {
        self.explain_sweep(session, targets)
    }
}
