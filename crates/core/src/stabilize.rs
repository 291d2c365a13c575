//! Self-stabilization: periodic invariant checks and corrections (§4.2.1).
//!
//! "Since it is very difficult to anticipate all possible failures and to
//! detect and recover them on the spot, MyAlertBuddy incorporates
//! self-stabilization mechanisms that periodically check system invariants
//! and correct violations." The paper's deployment checked the
//! AreYouWorking callback every 3 minutes, the communication-client sanity
//! APIs every minute, and unprocessed dialog boxes every 20 seconds.

use simba_sim::{SimDuration, SimTime};
use simba_telemetry::{Event, Telemetry};

/// The three periodic check cadences (paper defaults in [`Default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilizationConfig {
    /// Cadence of the deep health check run inside the AreYouWorking
    /// callback (process/thread progress, resource consumption).
    pub health_interval: SimDuration,
    /// Cadence of the Email/IM Manager sanity-check API calls.
    pub sanity_interval: SimDuration,
    /// Cadence of the unprocessed-dialog-box scan.
    pub dialog_interval: SimDuration,
    /// Memory ceiling for the MyAlertBuddy process itself.
    pub memory_limit_kb: u64,
    /// An alert sitting unprocessed longer than this means a lost
    /// new-message event; the backlog sweep picks it up.
    pub max_unprocessed_age: SimDuration,
}

impl Default for StabilizationConfig {
    fn default() -> Self {
        StabilizationConfig {
            health_interval: SimDuration::from_mins(3),
            sanity_interval: SimDuration::from_mins(1),
            dialog_interval: SimDuration::from_secs(20),
            memory_limit_kb: 150_000,
            max_unprocessed_age: SimDuration::from_mins(5),
        }
    }
}

/// A snapshot of MyAlertBuddy internals examined by the health check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSnapshot {
    /// IMs received but not yet routed.
    pub unprocessed_ims: usize,
    /// Age of the oldest unprocessed IM.
    pub oldest_unprocessed_age: SimDuration,
    /// Emails received but not yet routed.
    pub unprocessed_emails: usize,
    /// Resident memory of the MyAlertBuddy process in KB.
    pub memory_kb: u64,
    /// When the main loop last made observable progress.
    pub last_progress_at: SimTime,
    /// Whether all worker threads are alive.
    pub threads_alive: bool,
}

/// A violated invariant, with enough detail to pick a correction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Messages are sitting unprocessed past the age limit (lost event).
    StaleBacklog {
        /// How many messages are waiting.
        count: usize,
        /// Age of the oldest.
        oldest_age: SimDuration,
    },
    /// The process has grown past the memory ceiling.
    MemoryBloat(
        /// Current resident KB.
        u64,
    ),
    /// No observable progress for longer than one health interval.
    NoProgress(
        /// Time since last progress.
        SimDuration,
    ),
    /// A worker thread died.
    DeadThread,
}

impl Violation {
    /// Short stable name used in `stabilize.violation` telemetry events.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::StaleBacklog { .. } => "stale_backlog",
            Violation::MemoryBloat(_) => "memory_bloat",
            Violation::NoProgress(_) => "no_progress",
            Violation::DeadThread => "dead_thread",
        }
    }
}

/// The correction the checker prescribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correction {
    /// Sweep and process the backlog now (recoverable in place).
    ProcessBacklog,
    /// Gracefully terminate and let the MDC restart (rejuvenation): for
    /// violations "that cannot be rectified" in place.
    Rejuvenate,
}

impl Correction {
    /// Short stable name used in telemetry events.
    pub fn name(self) -> &'static str {
        match self {
            Correction::ProcessBacklog => "process_backlog",
            Correction::Rejuvenate => "rejuvenate",
        }
    }
}

/// Checks a snapshot against the configured invariants.
///
/// Returns `(violation, correction)` pairs; an empty vector means all
/// invariants hold.
pub fn check_invariants(
    config: &StabilizationConfig,
    snapshot: &HealthSnapshot,
    now: SimTime,
) -> Vec<(Violation, Correction)> {
    let mut out = Vec::new();

    if (snapshot.unprocessed_ims > 0 || snapshot.unprocessed_emails > 0)
        && snapshot.oldest_unprocessed_age > config.max_unprocessed_age
    {
        out.push((
            Violation::StaleBacklog {
                count: snapshot.unprocessed_ims + snapshot.unprocessed_emails,
                oldest_age: snapshot.oldest_unprocessed_age,
            },
            Correction::ProcessBacklog,
        ));
    }

    if snapshot.memory_kb > config.memory_limit_kb {
        out.push((Violation::MemoryBloat(snapshot.memory_kb), Correction::Rejuvenate));
    }

    let stalled = now.since(snapshot.last_progress_at);
    if stalled > config.health_interval {
        out.push((Violation::NoProgress(stalled), Correction::Rejuvenate));
    }

    if !snapshot.threads_alive {
        out.push((Violation::DeadThread, Correction::Rejuvenate));
    }

    out
}

/// [`check_invariants`] plus telemetry: one `stabilize.check` event per
/// sweep and one `stabilize.violation` event (and counter bump) per
/// violated invariant.
pub fn check_invariants_observed(
    config: &StabilizationConfig,
    snapshot: &HealthSnapshot,
    now: SimTime,
    telemetry: &Telemetry,
) -> Vec<(Violation, Correction)> {
    let out = check_invariants(config, snapshot, now);
    if telemetry.enabled() {
        telemetry.metrics().counter("stabilize.checks").incr();
        telemetry.emit(
            Event::new("stabilize.check", now.as_millis()).with("violations", out.len()),
        );
        for (violation, correction) in &out {
            telemetry.metrics().counter("stabilize.violations").incr();
            telemetry.emit(
                Event::new("stabilize.violation", now.as_millis())
                    .with("kind", violation.kind())
                    .with("correction", correction.name()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn healthy(now: SimTime) -> HealthSnapshot {
        HealthSnapshot {
            unprocessed_ims: 0,
            oldest_unprocessed_age: SimDuration::ZERO,
            unprocessed_emails: 0,
            memory_kb: 40_000,
            last_progress_at: now,
            threads_alive: true,
        }
    }

    #[test]
    fn healthy_snapshot_has_no_violations() {
        let cfg = StabilizationConfig::default();
        assert!(check_invariants(&cfg, &healthy(t(100)), t(100)).is_empty());
    }

    #[test]
    fn stale_backlog_demands_processing() {
        let cfg = StabilizationConfig::default();
        let snap = HealthSnapshot {
            unprocessed_ims: 3,
            oldest_unprocessed_age: SimDuration::from_mins(10),
            ..healthy(t(1000))
        };
        let v = check_invariants(&cfg, &snap, t(1000));
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], (Violation::StaleBacklog { count: 3, .. }, Correction::ProcessBacklog)));
    }

    #[test]
    fn fresh_backlog_is_tolerated() {
        let cfg = StabilizationConfig::default();
        let snap = HealthSnapshot {
            unprocessed_ims: 3,
            oldest_unprocessed_age: SimDuration::from_secs(5),
            ..healthy(t(1000))
        };
        assert!(check_invariants(&cfg, &snap, t(1000)).is_empty());
    }

    #[test]
    fn memory_bloat_and_dead_thread_rejuvenate() {
        let cfg = StabilizationConfig::default();
        let snap = HealthSnapshot {
            memory_kb: 999_999,
            threads_alive: false,
            ..healthy(t(50))
        };
        let v = check_invariants(&cfg, &snap, t(50));
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|(_, c)| *c == Correction::Rejuvenate));
    }

    #[test]
    fn no_progress_detected() {
        let cfg = StabilizationConfig::default();
        let snap = HealthSnapshot {
            last_progress_at: t(0),
            ..healthy(t(0))
        };
        let v = check_invariants(&cfg, &snap, t(600));
        assert!(matches!(v[0].0, Violation::NoProgress(d) if d == SimDuration::from_secs(600)));
    }

    #[test]
    fn schedule_cadences_match_paper_defaults() {
        let cfg = StabilizationConfig::default();
        assert_eq!(cfg.health_interval, SimDuration::from_mins(3));
        assert_eq!(cfg.sanity_interval, SimDuration::from_mins(1));
        assert_eq!(cfg.dialog_interval, SimDuration::from_secs(20));
    }
}
