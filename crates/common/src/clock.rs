//! The one injectable monotonic clock.
//!
//! The metrics registry, the event bus and the maintenance scheduler each
//! own a [`Clock`]. They are separate instances on purpose: publishing an
//! event must never advance a manual metrics clock mid-operation. Each
//! owner reads its clock in its own unit (µs for metrics and events, ms
//! for the scheduler); an installed override is returned verbatim in that
//! unit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Clock override: returns a timestamp on an arbitrary monotonic scale,
/// in the unit of the clock it is installed on.
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// A monotonic clock with an optional override. Without an override a
/// reading costs one atomic load plus `Instant::elapsed`.
pub struct Clock {
    origin: Instant,
    has_override: AtomicBool,
    over: RwLock<Option<ClockFn>>,
}

impl Default for Clock {
    /// A real clock whose origin is now.
    fn default() -> Self {
        Clock {
            origin: Instant::now(),
            has_override: AtomicBool::new(false),
            over: RwLock::new(None),
        }
    }
}

impl Clock {
    /// Install an override, or restore the real clock with `None`.
    pub fn set(&self, f: Option<ClockFn>) {
        let mut guard = self.over.write().expect("clock lock poisoned");
        self.has_override.store(f.is_some(), Ordering::Release);
        *guard = f;
    }

    /// Microseconds since the origin, or the override's reading.
    #[inline]
    pub fn now_micros(&self) -> u64 {
        self.read(|d| d.as_micros() as u64)
    }

    /// Milliseconds since the origin, or the override's reading.
    #[inline]
    pub fn now_millis(&self) -> u64 {
        self.read(|d| d.as_millis() as u64)
    }

    #[inline]
    fn read(&self, real: impl FnOnce(Duration) -> u64) -> u64 {
        if self.has_override.load(Ordering::Acquire) {
            if let Some(f) = self.over.read().expect("clock lock poisoned").as_ref() {
                return f();
            }
        }
        real(self.origin.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn counting(start: u64) -> ClockFn {
        let t = Arc::new(AtomicU64::new(start));
        Arc::new(move || t.fetch_add(1, Ordering::Relaxed))
    }

    #[test]
    fn override_is_returned_verbatim_in_either_unit() {
        let c = Clock::default();
        c.set(Some(Arc::new(|| 1_234_567)));
        assert_eq!(c.now_micros(), 1_234_567);
        assert_eq!(c.now_millis(), 1_234_567);
    }

    #[test]
    fn none_restores_the_real_monotonic_clock() {
        let c = Clock::default();
        c.set(Some(Arc::new(|| u64::MAX)));
        assert_eq!(c.now_micros(), u64::MAX);
        c.set(None);
        let a = c.now_micros();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now_micros();
        assert!(a < u64::MAX / 2, "override still installed: {a}");
        assert!(b >= a + 2_000, "real clock did not advance: {a} -> {b}");
        assert!(c.now_millis() < 60_000, "millis not from the real origin");
    }

    #[test]
    fn two_clocks_are_independent() {
        let a = Clock::default();
        let b = Clock::default();
        a.set(Some(counting(100)));
        b.set(Some(counting(500)));
        assert_eq!(a.now_micros(), 100);
        for _ in 0..10 {
            b.now_micros();
        }
        assert_eq!(a.now_micros(), 101, "reading b advanced a");
        assert_eq!(b.now_millis(), 510);
        b.set(None);
        assert_eq!(a.now_micros(), 102, "clearing b touched a");
    }
}
