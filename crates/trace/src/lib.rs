//! Observability for the demanded-analysis stack, hand-rolled on `std`
//! alone (the workspace is offline; this crate sits *below* `dai-core`
//! so every layer can probe itself).
//!
//! Three pieces:
//!
//! * **[`recorder`]** — a lock-light span/event recorder. Each thread
//!   writes fixed-size [`Record`]s into its own ring buffer (guarded by
//!   a mutex only the owner touches between drains, so pushes are
//!   uncontended); labels and thread names are interned once; time is
//!   nanoseconds from one process-wide monotonic epoch. A collector
//!   [`drain`]s every ring into a [`TraceDump`]. Probes are gated twice:
//!   an [`TraceConfig`] runtime switch (one relaxed atomic load when
//!   off) and the `probes` cargo feature (probe sites compile to inert
//!   stubs when disabled, for a zero-cost baseline build).
//! * **[`metrics`](mod@metrics)** — a registry of named counters, gauges, and
//!   fixed-bucket latency histograms with Prometheus-style text
//!   exposition ([`Metrics::render_prometheus`]).
//! * **[`chrome`]** — a Chrome `trace_event` JSON exporter (open dumps
//!   in `chrome://tracing` or Perfetto) plus a re-parsing validator, so
//!   an exported trace can be checked without leaving the test suite.
//!
//! Binary persistence for [`TraceDump`] lives in `dai-persist` (which
//! depends on this crate), sharing the frame layout snapshots and RPC
//! messages use.
//!
//! # Probing
//!
//! ```
//! let _guard = dai_trace::span!("engine.cone_walk", 17);
//! dai_trace::event!("engine.unroll", 3);
//! ```
//!
//! Each `span!`/`event!` site holds a `static` [`Site`] whose label is
//! interned on first hit; when tracing is disabled the site costs one
//! atomic load (or nothing at all without the `probes` feature).

pub mod chrome;
pub mod metrics;
pub mod recorder;
pub mod render;

pub use chrome::{chrome_trace_json, validate_chrome_trace, ChromeSummary};
pub use metrics::{metrics, Counter, Gauge, Histogram, Metrics, LATENCY_BUCKETS_NS};
pub use recorder::{
    config, drain, enabled, label, now_ns, site_event, site_span, Label, Record, RecordKind, Site,
    SpanGuard, TraceConfig, TraceDump, TraceOp, RING_CAPACITY,
};
pub use render::render_table;

/// Opens a span at this site; the returned guard records on drop.
///
/// `span!("name")` or `span!("name", arg)` — `arg` is any integer,
/// carried verbatim in the record (a count, a size, an id).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, 0u64)
    };
    ($name:expr, $arg:expr) => {{
        static SITE: $crate::Site = $crate::Site::new($name);
        $crate::site_span(&SITE, $arg as u64)
    }};
}

/// Records an instantaneous event at this site.
///
/// `event!("name")` or `event!("name", arg)`.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event!($name, 0u64)
    };
    ($name:expr, $arg:expr) => {{
        static SITE: $crate::Site = $crate::Site::new($name);
        $crate::site_event(&SITE, $arg as u64)
    }};
}
