//! # anomex-detect
//!
//! The two upstream anomaly detectors of the paper's evaluations, plus the
//! alarm interface the extractor consumes.
//!
//! - [`interval`] — traces cut into fixed intervals, each summarized by
//!   volume totals and per-feature hashed bin counts, plus exact value
//!   distributions and entropy when a detector reads them.
//! - [`kl`] — the histogram/Kullback-Leibler detector of Kind et al.
//!   (IEEE TNSM 2009), used in the paper's SWITCH evaluation.
//! - [`linalg`] + [`pca`] — the entropy-PCA subspace method of Lakhina
//!   et al. (SIGCOMM 2005) with the Jackson–Mudholkar Q-limit: the
//!   published algorithm behind the commercial NetReflex detector of the
//!   paper's GEANT deployment.
//! - [`alarm`] — the detector-agnostic alarm record (time interval +
//!   fine-grained feature meta-data) that makes the extraction system
//!   integrable "with any anomaly detection system that provides these
//!   data".
//! - [`detector`] — the unified [`Detector`] trait both incremental
//!   states implement: intervals in, alarms out, batch detection as a
//!   thin loop over the same state, and a [`Reads`] declaration of
//!   which parts of a summary the detector needs.
//! - [`threshold`] — the adaptive-threshold state behind the KL
//!   detector: exact full-history or O(1) Welford running moments.
//!
//! Detectors are deliberately *not* perfect oracles: their meta-data can
//! be partial or polluted, which is exactly the regime the extraction
//! technique was designed for.
//!
//! ## Example
//!
//! ```
//! use anomex_detect::prelude::*;
//! use anomex_flow::prelude::*;
//!
//! // Eight quiet 1-minute intervals: no alarms.
//! let flows: Vec<FlowRecord> = (0..8 * 100u64)
//!     .map(|i| {
//!         FlowRecord::builder()
//!             .time(i * 600, i * 600 + 100)
//!             .src(std::net::Ipv4Addr::from(0x0A000000 + (i % 16) as u32), 1024)
//!             .dst(std::net::Ipv4Addr::from(0xAC100001), 80)
//!             .volume(2, 1000)
//!             .build()
//!     })
//!     .collect();
//! let mut detector = KlDetector::new(KlConfig { interval_ms: 60_000, ..KlConfig::default() });
//! let alarms = detector.detect(&flows, TimeRange::new(0, 480_000));
//! assert!(alarms.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alarm;
pub mod detector;
pub mod interval;
pub mod kl;
pub mod linalg;
pub mod pca;
pub mod threshold;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::alarm::{Alarm, Severity};
    pub use crate::detector::{Detector, Reads};
    pub use crate::interval::{IntervalSeries, IntervalStat, SummarySpec, ValueDist};
    pub use crate::kl::{KlConfig, KlDetector, KlOnline, KlScore};
    pub use crate::linalg::{jacobi_eigen, Matrix};
    pub use crate::pca::{PcaConfig, PcaDetector, PcaDiagnostics, PcaMode, PcaSliding, DIMS};
    pub use crate::threshold::{ThresholdMode, ThresholdState};
}

pub use prelude::*;
