//! # anomex-stream
//!
//! The continuous-operation layer over the batch crates: NetFlow
//! packets or [`FlowRecord`]s stream in, sharded workers window them by
//! event time, closed windows feed the detectors incrementally, and
//! every alarm is mined against the in-memory window shards the moment
//! it fires — turning the paper's post-hoc "query the archive after an
//! alarm" workflow into a live pipeline, the way operational systems
//! (SENATUS, Facebook's Fast Dimensional Analysis) couple detection and
//! root-cause mining online.
//!
//! - [`pipeline`] — [`launch`] the assembled pipeline: ingest handle in,
//!   [`StreamReport`] channel out, bounded queues (backpressure) between.
//! - [`ingest`] — the chunked, multi-handle intake front-end: one
//!   record chunk per shard, handed over the lock-free channel as one
//!   message, watermarks sent only when they close a window, and
//!   [`IngestHandle::split`] for multi-socket deployments under one
//!   shared min-over-handles watermark.
//! - [`window`] — event-time tumbling windows, watermarks with bounded
//!   out-of-orderness, deterministic cross-shard merge.
//! - [`detector`] — the detector registry and the running ensemble
//!   bank: any number of `Detector` implementations per stream, alarms
//!   merged per window with per-detector attribution.
//! - [`report`] — continuous extraction over retained windows.
//! - [`fault`] — deterministic fault injection (`fault-inject`
//!   feature) and the supervision layer: every worker runs under
//!   `catch_unwind`, pools restart or fail over to the inline path,
//!   and degraded operation is reported, never silent.
//!
//! Fed the same records, the streaming pipeline raises the same alarms
//! and mines the same itemsets as the batch pipeline — even when
//! records arrive out of order within the configured lateness bound
//! (`tests/stream_equivalence.rs` at the workspace root proves it).
//!
//! ## Example
//!
//! ```
//! use anomex_stream::prelude::*;
//! use anomex_detect::kl::KlConfig;
//! use anomex_flow::prelude::*;
//!
//! let span = TimeRange::new(0, 8 * 60_000);
//! let config = StreamConfig {
//!     shards: 2,
//!     span: Some(span),
//!     detectors: DetectorRegistry::kl(KlConfig { interval_ms: 60_000, ..KlConfig::default() }),
//!     ..StreamConfig::default()
//! };
//! let (mut ingest, reports) = launch(config);
//! // Benign-ish traffic, then a small port scan in the final minute.
//! for t in 0..8u64 {
//!     for i in 0..120u32 {
//!         ingest.push(
//!             FlowRecord::builder()
//!                 .time(t * 60_000 + i as u64 * 400, t * 60_000 + i as u64 * 400 + 50)
//!                 .src(std::net::Ipv4Addr::from(0x0A000000 + (i % 30)), 1024 + (i % 200) as u16)
//!                 .dst(std::net::Ipv4Addr::from(0xAC100001 + (i % 5)), 80)
//!                 .volume(3, 1500)
//!                 .build(),
//!         );
//!     }
//! }
//! for p in 1..=900u32 {
//!     ingest.push(
//!         FlowRecord::builder()
//!             .time(7 * 60_000 + p as u64 % 60_000, 7 * 60_000 + p as u64 % 60_000 + 1)
//!             .src("10.66.66.66".parse().unwrap(), 55_548)
//!             .dst("172.16.0.99".parse().unwrap(), p as u16)
//!             .volume(1, 44)
//!             .build(),
//!     );
//! }
//! let stats = ingest.finish();
//! assert_eq!(stats.windows, 8);
//! let reports: Vec<StreamReport> = reports.iter().collect();
//! assert_eq!(reports.len(), 1, "the scan window alarms");
//! assert_eq!(reports[0].alarm().unwrap().window.from_ms, 7 * 60_000);
//! ```
//!
//! [`FlowRecord`]: anomex_flow::record::FlowRecord
//! [`launch`]: pipeline::launch
//! [`StreamReport`]: report::StreamReport

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affinity;
pub mod detector;
pub mod fault;
pub mod ingest;
pub mod metrics;
pub mod pipeline;
pub mod report;
mod sync;
pub mod watermark;
pub mod window;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::detector::{
        DetectorBank, DetectorCounters, DetectorPool, DetectorRegistry, DetectorSpec, EnsembleAlarm,
    };
    pub use crate::fault::{FaultPlan, FaultSite};
    pub use crate::ingest::IngestHandle;
    pub use crate::metrics::{MetricValue, MetricsConfig, MetricsReport, MetricsSnapshot, CATALOG};
    pub use crate::pipeline::{
        launch, OverloadPolicy, PipelineHealth, ShardShed, StreamConfig, StreamStats,
    };
    pub use crate::report::{
        AlarmReport, ContinuousExtractor, DictCounters, ExtractionPool, FaultKind, FaultNotice,
        StreamReport,
    };
    pub use crate::window::{
        ClosedWindow, ShardWindows, WindowConfig, WindowManager, WindowRecords, WindowShard,
    };
}

pub use prelude::*;
