//! Deterministic fault injection and the supervision plumbing built on
//! it.
//!
//! A [`FaultPlan`] names *injection points*: pipeline sites
//! ([`FaultSite`]) armed to misbehave on their Nth occurrence — a
//! worker panic at the Nth task, a shard ring that reports full, a
//! packet that fails to decode, an intake handle whose event-time
//! frontier suddenly jumps (flooding later records behind the
//! watermark). Plans are plain data, so a test can replay the same
//! failure schedule run after run and assert exact recovery
//! accounting.
//!
//! The whole machinery sits behind the `fault-inject` cargo feature.
//! Without it, [`FaultPlan`] is a zero-sized struct, every check
//! compiles to a constant `false`, and the production binary contains
//! no injection code at all — `fault_plan_is_noop_without_feature`
//! pins that. With it, plans are armed at
//! [`launch`](crate::pipeline::launch) into an [`ActiveFaults`] shared
//! by every worker; each site keeps a relaxed occurrence counter, so
//! firing is deterministic in *occurrence order* (the Nth task of a
//! FIFO worker, the Nth ring message to a specific shard) even though threads
//! interleave freely.
//!
//! Supervision itself ([`Supervision`]) is **not** feature-gated:
//! workers always run under `catch_unwind`, restarts and failovers are
//! always available — the feature only controls whether faults can be
//! *provoked* on purpose.

use std::sync::Arc;

use anomex_obs::Counter;

/// A pipeline site a [`FaultPlan`] can arm.
///
/// Occurrence counting is per *site value*: `ShardPanic(0)` and
/// `ShardPanic(1)` count independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic the given shard worker at the start of its Nth drained
    /// batch.
    ShardPanic(usize),
    /// Panic the given detector-pool worker on its Nth dispatched
    /// window.
    DetectorPanic(usize),
    /// Panic the extraction worker on its Nth dispatched window.
    ExtractPanic,
    /// Fail the Nth NetFlow packet decode on an intake handle.
    DecodeError,
    /// Report the given shard's ring as saturated on the Nth ring
    /// message (a chunk or a watermark) sent to it; the message is shed
    /// (exercises [`OverloadPolicy::Shed`] deterministically).
    ///
    /// [`OverloadPolicy::Shed`]: crate::pipeline::OverloadPolicy::Shed
    RingFull(usize),
    /// Jump the intake handle's event-time frontier forward by the
    /// planned amount on its Nth pushed record — every record older
    /// than the new watermark then floods in late.
    LateFlood,
}

#[cfg(feature = "fault-inject")]
mod armed {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One armed injection point: fire at the `at`-th occurrence of
    /// `site` (1-based), once or on every occurrence from there on.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct FaultPoint {
        pub(super) site: FaultSite,
        pub(super) at: u64,
        pub(super) repeat: bool,
        /// Site parameter (today: the `LateFlood` frontier jump, ms).
        pub(super) param: u64,
    }

    /// A deterministic schedule of injection points (`fault-inject`
    /// build). Plain data: clone it, keep it in a test table, replay
    /// it — the same plan over the same input yields the same faults.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        pub(super) points: Vec<FaultPoint>,
    }

    impl FaultPlan {
        /// An empty plan (injects nothing).
        pub fn new() -> FaultPlan {
            FaultPlan::default()
        }

        /// Arm `site` to fire exactly once, at its `at`-th occurrence
        /// (1-based).
        #[must_use]
        pub fn once(mut self, site: FaultSite, at: u64) -> FaultPlan {
            self.points.push(FaultPoint { site, at: at.max(1), repeat: false, param: 0 });
            self
        }

        /// Arm `site` to fire on every occurrence from the `at`-th on
        /// (1-based) — the "panics repeatedly" schedules that drive
        /// quarantine and pool failover.
        #[must_use]
        pub fn repeat_from(mut self, site: FaultSite, at: u64) -> FaultPlan {
            self.points.push(FaultPoint { site, at: at.max(1), repeat: true, param: 0 });
            self
        }

        /// Arm a late-arrival flood: on the handle's `at`-th pushed
        /// record, jump its event-time frontier `advance_ms` forward.
        #[must_use]
        pub fn late_flood(mut self, at: u64, advance_ms: u64) -> FaultPlan {
            self.points.push(FaultPoint {
                site: FaultSite::LateFlood,
                at: at.max(1),
                repeat: false,
                param: advance_ms,
            });
            self
        }

        /// A small pseudo-random plan derived from `seed` (xorshift —
        /// no process entropy, so the same seed always arms the same
        /// points). Used by the chaos suite to sweep many distinct but
        /// reproducible failure schedules.
        pub fn seeded(seed: u64, shards: usize, detector_workers: usize) -> FaultPlan {
            let mut state = seed | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut plan = FaultPlan::new();
            let n_points = 1 + (next() % 3) as usize;
            for _ in 0..n_points {
                let at = 1 + next() % 6;
                let site = match next() % 4 {
                    0 if shards > 0 => FaultSite::ShardPanic((next() % shards as u64) as usize),
                    1 if detector_workers > 0 => {
                        FaultSite::DetectorPanic((next() % detector_workers as u64) as usize)
                    }
                    2 => FaultSite::ExtractPanic,
                    _ => FaultSite::DecodeError,
                };
                plan =
                    if next() % 3 == 0 { plan.repeat_from(site, at) } else { plan.once(site, at) };
            }
            plan
        }

        /// True when the plan arms nothing.
        pub fn is_empty(&self) -> bool {
            self.points.is_empty()
        }
    }

    /// A launched plan: one relaxed occurrence counter per armed
    /// point, shared by every pipeline thread.
    #[derive(Debug)]
    pub(crate) struct ActiveFaults {
        points: Vec<(FaultPoint, AtomicU64)>,
        injected: Counter,
    }

    impl ActiveFaults {
        pub(crate) fn new(plan: &FaultPlan, injected: Counter) -> Arc<ActiveFaults> {
            Arc::new(ActiveFaults {
                points: plan.points.iter().map(|p| (*p, AtomicU64::new(0))).collect(),
                injected,
            })
        }

        /// Count one occurrence of `site`; true when an armed point
        /// fires on it. Counting is atomic, so concurrent sites (one
        /// counter per distinct site value) stay exact.
        pub(crate) fn fire(&self, site: FaultSite) -> bool {
            let mut fired = false;
            for (point, seen) in &self.points {
                if point.site != site {
                    continue;
                }
                let occurrence = seen.fetch_add(1, Ordering::Relaxed) + 1;
                if occurrence == point.at || (point.repeat && occurrence > point.at) {
                    self.injected.inc();
                    fired = true;
                }
            }
            fired
        }

        /// Count one [`FaultSite::LateFlood`] occurrence; the frontier
        /// jump (ms) when it fires.
        pub(crate) fn late_flood(&self) -> Option<u64> {
            let mut advance = None;
            for (point, seen) in &self.points {
                if point.site != FaultSite::LateFlood {
                    continue;
                }
                let occurrence = seen.fetch_add(1, Ordering::Relaxed) + 1;
                if occurrence == point.at || (point.repeat && occurrence > point.at) {
                    self.injected.inc();
                    advance = Some(advance.unwrap_or(0).max(point.param));
                }
            }
            advance
        }
    }
}

#[cfg(feature = "fault-inject")]
pub(crate) use armed::ActiveFaults;
#[cfg(feature = "fault-inject")]
pub use armed::FaultPlan;

#[cfg(not(feature = "fault-inject"))]
mod noop {
    use super::*;

    /// A deterministic schedule of injection points. **This build has
    /// the `fault-inject` feature off**: the plan is zero-sized, every
    /// builder is a no-op and every check compiles to `false` — the
    /// production pipeline contains no injection code.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultPlan;

    impl FaultPlan {
        /// An empty plan (injects nothing).
        pub fn new() -> FaultPlan {
            FaultPlan
        }

        /// No-op without the `fault-inject` feature.
        #[must_use]
        pub fn once(self, _site: FaultSite, _at: u64) -> FaultPlan {
            self
        }

        /// No-op without the `fault-inject` feature.
        #[must_use]
        pub fn repeat_from(self, _site: FaultSite, _at: u64) -> FaultPlan {
            self
        }

        /// No-op without the `fault-inject` feature.
        #[must_use]
        pub fn late_flood(self, _at: u64, _advance_ms: u64) -> FaultPlan {
            self
        }

        /// No-op without the `fault-inject` feature (always empty).
        pub fn seeded(_seed: u64, _shards: usize, _detector_workers: usize) -> FaultPlan {
            FaultPlan
        }

        /// Always true without the `fault-inject` feature.
        pub fn is_empty(&self) -> bool {
            true
        }
    }

    /// Zero-sized stand-in; [`fire`](ActiveFaults::fire) is a constant
    /// `false` the optimizer erases.
    #[derive(Debug)]
    pub(crate) struct ActiveFaults;

    impl ActiveFaults {
        pub(crate) fn new(_plan: &FaultPlan, _injected: Counter) -> Arc<ActiveFaults> {
            Arc::new(ActiveFaults)
        }

        #[inline(always)]
        pub(crate) fn fire(&self, _site: FaultSite) -> bool {
            false
        }

        #[inline(always)]
        pub(crate) fn late_flood(&self) -> Option<u64> {
            None
        }
    }
}

#[cfg(not(feature = "fault-inject"))]
pub(crate) use noop::ActiveFaults;
#[cfg(not(feature = "fault-inject"))]
pub use noop::FaultPlan;

/// The poisoned-result sentinel a supervised worker sends (instead of a
/// result) when its task panicked, just before the thread exits. The
/// supervisor receiving one knows the front in-flight task failed and
/// the worker is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorkerPoisoned;

/// Restarts a supervised pool grants itself before failing over to the
/// inline path. Small on purpose: a fault that keeps recurring is a
/// deterministic bug, and the inline path (with per-slot isolation) is
/// the safer place to limp along in.
pub(crate) const MAX_POOL_RESTARTS: u32 = 3;

/// Times one extraction task may panic its worker before the window is
/// quarantined (skipped and reported) instead of retried.
pub(crate) const MAX_TASK_ATTEMPTS: u32 = 2;

/// Exponential backoff before the `n`-th restart (1-based): 5, 10, 20,
/// 40 ... capped at 160 ms. Keeps a crash-looping worker from spinning
/// the control thread while staying short enough for tests.
pub(crate) fn restart_backoff(restart: u32) {
    let ms = 5u64 << (restart.saturating_sub(1)).min(5);
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// The supervision handle bundle a pool (or the inline bank) reports
/// recovery through: the armed fault plan plus the `fault.*` /
/// `degraded.*` counters. Cloned from `PipelineMetrics` at launch;
/// [`standalone`](Supervision::standalone) for pools built outside a
/// pipeline (unit tests, direct library use).
#[derive(Debug, Clone)]
pub(crate) struct Supervision {
    pub(crate) faults: Arc<ActiveFaults>,
    /// `fault.worker_panics`: panics caught by any supervisor.
    pub(crate) worker_panics: Counter,
    /// `degraded.*.restarts`: workers (or inline slots) rebuilt fresh.
    pub(crate) restarts: Counter,
    /// `degraded.*.failovers`: pools that fell back to the inline path.
    pub(crate) failovers: Counter,
    /// `degraded.quarantined_windows`: windows skipped after repeated
    /// extraction panics.
    pub(crate) quarantined: Counter,
    /// Restart budget before failover ([`MAX_POOL_RESTARTS`] by
    /// default).
    pub(crate) max_restarts: u32,
}

impl Supervision {
    /// Supervision with live standalone counters and no armed faults —
    /// for pools constructed outside a pipeline launch.
    pub(crate) fn standalone() -> Supervision {
        Supervision {
            faults: ActiveFaults::new(&FaultPlan::new(), Counter::standalone()),
            worker_panics: Counter::standalone(),
            restarts: Counter::standalone(),
            failovers: Counter::standalone(),
            quarantined: Counter::standalone(),
            max_restarts: MAX_POOL_RESTARTS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn fault_plan_is_noop_without_feature() {
        // The default build carries no injection code: the plan is
        // zero-sized and armed checks are constant-false.
        assert_eq!(std::mem::size_of::<FaultPlan>(), 0);
        let plan = FaultPlan::new()
            .once(FaultSite::ExtractPanic, 1)
            .repeat_from(FaultSite::ShardPanic(0), 1)
            .late_flood(1, 60_000);
        assert!(plan.is_empty());
        let active = ActiveFaults::new(&plan, Counter::standalone());
        assert!(!active.fire(FaultSite::ExtractPanic));
        assert_eq!(active.late_flood(), None);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn armed_points_fire_on_exact_occurrences() {
        let injected = Counter::standalone();
        let plan = FaultPlan::new()
            .once(FaultSite::DetectorPanic(1), 3)
            .repeat_from(FaultSite::ExtractPanic, 2)
            .late_flood(2, 45_000);
        assert!(!plan.is_empty());
        let active = ActiveFaults::new(&plan, injected.clone());
        // `once` at the 3rd occurrence, per site value.
        assert!(!active.fire(FaultSite::DetectorPanic(1)));
        assert!(!active.fire(FaultSite::DetectorPanic(0)), "other worker never armed");
        assert!(!active.fire(FaultSite::DetectorPanic(1)));
        assert!(active.fire(FaultSite::DetectorPanic(1)));
        assert!(!active.fire(FaultSite::DetectorPanic(1)), "once means once");
        // `repeat_from` fires from the 2nd occurrence on.
        assert!(!active.fire(FaultSite::ExtractPanic));
        assert!(active.fire(FaultSite::ExtractPanic));
        assert!(active.fire(FaultSite::ExtractPanic));
        // Late flood hands back its parameter exactly once here.
        assert_eq!(active.late_flood(), None);
        assert_eq!(active.late_flood(), Some(45_000));
        assert_eq!(active.late_flood(), None);
        assert_eq!(injected.get(), 4, "every firing counts on fault.injected");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn seeded_plans_are_reproducible_and_distinct() {
        let a = FaultPlan::seeded(7, 2, 2);
        let b = FaultPlan::seeded(7, 2, 2);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty());
        let all_same = (0..16u64).all(|s| FaultPlan::seeded(s, 2, 2) == a);
        assert!(!all_same, "seeds must actually vary the schedule");
    }
}
