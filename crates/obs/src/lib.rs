//! Deterministic observability for the IoBT platform.
//!
//! The runtime, simulator, synthesis engine and adaptation services emit
//! structured [`TraceEvent`]s through a shared [`Recorder`] handle. Three
//! properties distinguish this layer from a conventional logger:
//!
//! * **Sim-time stamping.** Every record carries the *simulation* clock
//!   (integer microseconds) plus a monotone sequence number — never the
//!   wall clock. Two runs of the same seed therefore produce
//!   byte-identical traces (lint rule R2 applies to this crate).
//! * **Deterministic aggregation.** The [`MetricsRegistry`] keeps
//!   counters, gauges and fixed-bucket histograms in ordered maps, and
//!   folds into a [`MetricsDigest`] that is `PartialEq`-comparable and
//!   fingerprintable across runs.
//! * **Near-zero cost when off.** A disabled [`Recorder`] is a `None`
//!   handle: every recording site is a single branch. The [`NullSink`]
//!   keeps metrics but discards trace records.
//!
//! Sinks are pluggable: [`NullSink`] (metrics only), [`RingSink`]
//! (bounded in-memory buffer for tests and post-mortems) and
//! [`JsonlSink`] (one JSON object per line, stable key order). Sampling
//! is per-subsystem and deterministic (`every_nth`), and gates only the
//! sink — metrics always observe every event.
//!
//! ```
//! use iobt_obs::{Recorder, Subsystem, TraceEvent};
//!
//! let (rec, ring) = Recorder::memory(1024);
//! rec.set_time_us(1_500_000);
//! rec.record(TraceEvent::MsgSent { from: 3, to: 9 });
//! assert_eq!(ring.len(), 1);
//! assert_eq!(rec.metrics_digest().counter("netsim.msg_sent"), Some(1));
//! assert_eq!(Subsystem::Netsim.as_str(), "netsim");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fnv;
pub mod metrics;
pub mod recorder;
pub mod sink;

pub use event::{DropCause, Subsystem, TraceEvent, TraceRecord};
pub use fnv::{fnv1a, FNV_OFFSET};
pub use metrics::{Histogram, HistogramSnapshot, MetricsDigest, MetricsRegistry};
pub use recorder::{Recorder, RecorderCheckpoint, SamplingConfig};
pub use sink::{JsonlSink, NullSink, RingHandle, RingSink, SharedBytes, TraceSink};

/// Convenience re-exports mirroring the other subsystem crates.
pub mod prelude {
    pub use crate::event::{DropCause, Subsystem, TraceEvent, TraceRecord};
    pub use crate::metrics::{Histogram, HistogramSnapshot, MetricsDigest, MetricsRegistry};
    pub use crate::recorder::{Recorder, RecorderCheckpoint, SamplingConfig};
    pub use crate::sink::{JsonlSink, NullSink, RingHandle, RingSink, SharedBytes, TraceSink};
}
