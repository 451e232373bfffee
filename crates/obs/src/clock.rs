//! Monotonic clocks.
//!
//! Every time measurement in the workspace flows through the [`Clock`]
//! trait so that (a) tests can substitute a [`ManualClock`] and stay
//! deterministic, and (b) the *only* raw `Instant::now()` call site in
//! the crates that feed a digest is the single one in this module, which
//! carries the one `#[expect(clippy::disallowed_methods)]` there.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic clock: time elapsed since some fixed (per-clock) origin.
///
/// Implementations must be monotonic — successive `now()` calls never go
/// backwards — but the origin is arbitrary, so values from different
/// clocks are not comparable.
pub trait Clock: Send + Sync {
    /// Time elapsed since this clock's origin.
    fn now(&self) -> Duration;
}

/// The single raw wall-clock read of the workspace; everything else
/// measures time as a difference of [`Clock::now`] values.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned raw monotonic-clock read")]
fn raw_instant() -> Instant {
    // All other crates measure time through the Clock trait, and the
    // values only ever feed wall-clock budgets and telemetry, never the
    // seeded generation math.
    Instant::now()
}

/// The process-wide origin shared by every [`RealClock`].
fn process_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(raw_instant)
}

/// The real monotonic clock, measured from a process-wide origin (so two
/// `RealClock` values are mutually comparable).
#[derive(Debug, Clone, Copy, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn now(&self) -> Duration {
        raw_instant().saturating_duration_since(process_origin())
    }
}

/// Current time on the process-wide [`RealClock`].
///
/// This is the workspace's replacement for ad-hoc `Instant::now()` pairs:
/// take two readings and subtract.
pub fn monotonic() -> Duration {
    RealClock.now()
}

/// A hand-cranked clock for deterministic tests: time only moves when the
/// test calls [`ManualClock::advance`].
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        let add = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(add, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute offset from its origin.
    pub fn set(&self, d: Duration) {
        let val = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.store(val, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(250));
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(500));
        c.set(Duration::from_secs(2));
        assert_eq!(c.now(), Duration::from_secs(2));
    }

    #[test]
    fn monotonic_shares_one_origin() {
        let a = monotonic();
        let b = monotonic();
        assert!(b >= a);
    }
}
