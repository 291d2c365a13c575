//! Virtual time: [`SimTime`] instants and [`SimDuration`] spans.
//!
//! Both are millisecond-granular. A millisecond is fine-grained enough for
//! every latency the paper reports (the smallest is "less than one second")
//! while keeping arithmetic exact — no floating-point clock drift across
//! platforms, which matters for the determinism guarantee.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, in milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as a "run to completion" bound.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ms` milliseconds after the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Creates an instant `mins` minutes after the epoch.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60_000)
    }

    /// Creates an instant `hours` hours after the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600_000)
    }

    /// Creates an instant `days` days after the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * 86_400_000)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Millisecond offset within the current simulated 24-hour day.
    ///
    /// Used by the rejuvenation scheduler ("every night at 11:30 PM").
    pub const fn millis_of_day(self) -> u64 {
        self.0 % 86_400_000
    }

    /// Index of the simulated day this instant falls in (day 0 starts at the epoch).
    pub const fn day_index(self) -> u64 {
        self.0 / 86_400_000
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span; a bound that is never reached.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Creates a duration of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000)
    }

    /// Creates a duration from fractional seconds, rounding to milliseconds.
    ///
    /// Negative or non-finite inputs clamp to zero — distribution samplers
    /// use this to guard against pathological draws.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1_000.0).round().min(u64::MAX as f64) as u64)
    }

    /// Length in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Length in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Length in whole minutes (truncating).
    pub const fn as_mins(self) -> u64 {
        self.0 / 60_000
    }

    /// Saturating multiplication by an integer factor.
    pub const fn saturating_mul(self, factor: u64) -> Self {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        let (d, rem) = (ms / 86_400_000, ms % 86_400_000);
        let (h, rem) = (rem / 3_600_000, rem % 3_600_000);
        let (m, rem) = (rem / 60_000, rem % 60_000);
        let (s, ms) = (rem / 1_000, rem % 1_000);
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 60_000 {
            write!(f, "{:.1}min", self.0 as f64 / 60_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_mins(1), SimTime::from_secs(60));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimTime::from_days(1), SimTime::from_hours(24));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_millis(), 10_500);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
        // Saturating: earlier.since(later) is zero, not underflow.
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(2), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration::from_millis(1_500));
    }

    #[test]
    fn day_arithmetic_for_rejuvenation_schedule() {
        // 11:30 PM on day 3.
        let t = SimTime::from_days(3) + SimDuration::from_hours(23) + SimDuration::from_mins(30);
        assert_eq!(t.day_index(), 3);
        assert_eq!(t.millis_of_day(), (23 * 60 + 30) * 60_000);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_days(2) + SimDuration::from_hours(3) + SimDuration::from_millis(42);
        assert_eq!(t.to_string(), "d2+03:00:00.042");
        assert_eq!(SimDuration::from_millis(900).to_string(), "900ms");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_mins(90).to_string(), "90.0min");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
