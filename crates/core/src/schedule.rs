//! When a server seals and ticks: one fixed grid per server, for every
//! driver.
//!
//! Algorithm 3 (lines 10–11) leaves the pacing of `disseminate()` to the
//! caller. In `shim(P)` every message of `P` costs one DAG hop, and a hop
//! waits for the receiver's next seal, so the seal schedule sets the
//! latency a user sees. Servers whose seals fall at the same instants
//! make every hop wait a full period; staggered ones let a block reach a
//! peer shortly before that peer seals. Server `i` of `n` therefore seals
//! at `i·period/n + k·period` and ticks one millisecond after each of its
//! seal phases. The simulator and the TCP node both read their timers off
//! [`Schedule`], so neither invents its own.

use dagbft_crypto::ServerId;

use crate::TimeMs;

/// The fixed grid of instants `phase + k·period`, `k ≥ 0`.
///
/// # Examples
///
/// ```
/// use dagbft_core::Schedule;
/// use dagbft_crypto::ServerId;
///
/// let seal = Schedule::for_server(ServerId::new(1), 4, 50);
/// assert_eq!(seal.first(), 12);
/// assert_eq!(seal.next_after(12), 62);
/// // A driver that wakes late skips the slots it missed.
/// assert_eq!(seal.next_after(200), 212);
/// assert_eq!(seal.tick(100).first(), 13);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    phase: TimeMs,
    period: TimeMs,
}

impl Schedule {
    /// The grid `phase + k·period`. A period of 0 is taken as 1 ms: a
    /// zero period would fire at one instant forever.
    fn new(phase: TimeMs, period: TimeMs) -> Self {
        Schedule {
            phase,
            period: period.max(1),
        }
    }

    /// Server `me`'s seal grid among `n` servers: phase `me·period/n`,
    /// so the `n` servers' seals are spread evenly over one period.
    pub fn for_server(me: ServerId, n: usize, period: TimeMs) -> Self {
        let period = period.max(1);
        let phase = me.index() as u128 * u128::from(period) / n.max(1) as u128;
        Schedule::new(phase as TimeMs, period)
    }

    /// The tick grid that goes with this seal grid: one millisecond after
    /// the seal phase, every `period`.
    pub fn tick(&self, period: TimeMs) -> Self {
        Schedule::new(self.phase + 1, period)
    }

    /// The grid's first instant, its phase.
    pub fn first(&self) -> TimeMs {
        self.phase
    }

    /// The first grid instant strictly after `now`. A caller that wakes
    /// several periods late gets the next slot, not one per slot missed.
    pub fn next_after(&self, now: TimeMs) -> TimeMs {
        match now.checked_sub(self.phase) {
            None => self.phase,
            Some(since) => {
                let slots = since / self.period + 1;
                self.phase.saturating_add(slots.saturating_mul(self.period))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seal(me: u32) -> Schedule {
        Schedule::for_server(ServerId::new(me), 4, 50)
    }

    #[test]
    fn four_servers_seal_a_quarter_period_apart() {
        let phases: Vec<TimeMs> = (0..4).map(|me| seal(me).first()).collect();
        assert_eq!(phases, vec![0, 12, 25, 37]);
    }

    #[test]
    fn next_after_is_later_and_on_the_grid() {
        for me in 0..4 {
            let grid = seal(me);
            for now in 0..400 {
                let next = grid.next_after(now);
                assert!(next > now);
                assert!(next >= grid.first());
                assert_eq!((next - grid.first()) % 50, 0);
                assert!(next - now <= 50);
            }
        }
    }

    #[test]
    fn a_late_wake_yields_the_next_slot_not_one_per_missed_slot() {
        let grid = seal(1);
        // Slot 12 fired; the next look is three periods and a bit later.
        let woke = 12 + 3 * 50 + 7;
        assert_eq!(grid.next_after(woke), 12 + 4 * 50);
    }

    #[test]
    fn the_tick_runs_one_millisecond_after_the_seal_phase() {
        for me in 0..4 {
            let tick = seal(me).tick(100);
            assert_eq!(tick.first(), seal(me).first() + 1);
            assert_eq!(tick.next_after(tick.first()), tick.first() + 100);
        }
    }

    #[test]
    fn a_zero_period_is_one_millisecond() {
        let grid = Schedule::for_server(ServerId::new(3), 4, 0);
        assert_eq!(grid, Schedule::new(0, 1));
        assert_eq!(grid.next_after(0), 1);
        assert_eq!(grid.next_after(41), 42);
        assert_eq!(grid.tick(0).next_after(1), 2);
    }

    #[test]
    fn a_huge_period_does_not_overflow() {
        let grid = Schedule::for_server(ServerId::new(3), 4, TimeMs::MAX);
        assert_eq!(grid.first(), TimeMs::MAX / 4 * 3 + 2);
        assert_eq!(grid.next_after(grid.first()), TimeMs::MAX);
    }
}
