//! The virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, manually-advanced millisecond clock.
///
/// Subscription expirations in both spec families are wall-clock
/// concepts (absolute times or durations). Running experiments against
/// real time would make them slow and flaky; instead every component
/// reads this clock, and tests/benches advance it explicitly.
#[derive(Debug, Clone, Default)]
pub struct SimClock(Arc<AtomicU64>);

impl SimClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Advance the clock by `ms` milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.0.fetch_add(ms, Ordering::SeqCst);
    }

    /// Set the clock to an absolute time (must not go backwards).
    pub fn set_ms(&self, ms: u64) {
        self.0.fetch_max(ms, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance_ms(250);
        assert_eq!(c.now_ms(), 250);
        c.advance_ms(50);
        assert_eq!(c.now_ms(), 300);
    }

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.advance_ms(10);
        assert_eq!(c2.now_ms(), 10);
    }

    #[test]
    fn set_never_goes_backwards() {
        let c = SimClock::new();
        c.set_ms(100);
        c.set_ms(50);
        assert_eq!(c.now_ms(), 100);
    }
}
