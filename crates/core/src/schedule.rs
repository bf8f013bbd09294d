//! When a server seals: one fixed grid per server, for every driver.
//!
//! Algorithm 3 (lines 10–11) leaves the pacing of `disseminate()` to the
//! caller. In `shim(P)` every message of `P` costs one DAG hop, and a hop
//! waits for the receiver's next seal, so the seal schedule sets the
//! latency a user sees. Servers whose seals fall at the same instants
//! make every hop wait a full period; staggered ones let a block reach a
//! peer shortly before that peer seals. Server `i` of `n` therefore may
//! seal at `i·period/n + k·period`, slot `k` of its grid. The grid is a
//! server's only timer. In every slot it is woken in, it first sends again
//! every `FWD` request whose retry wait is over, and then seals only if
//! the slot has something to say: a buffered request, a message for it in
//! a block it has not yet cited, or a heartbeat, about every
//! [`crate::shim::HEARTBEAT_MS`], picked by the slot's index
//! ([`Schedule::slot`]). The shim owns the timer ([`crate::Shim::wake`]);
//! the simulator and the TCP node only wake it, so neither keeps a grid.

use dagbft_crypto::ServerId;

use crate::TimeMs;

/// The fixed grid of instants `phase + k·period`, `k ≥ 0`, and a timer
/// on it ([`Schedule::fire`]).
///
/// # Examples
///
/// ```
/// use dagbft_core::Schedule;
/// use dagbft_crypto::ServerId;
///
/// let mut seal = Schedule::for_server(ServerId::new(1), 4, 50);
/// assert!(!seal.fire(0)); // arms the timer on slot 12
/// assert!(seal.fire(12));
/// assert!(seal.fire(200)); // late: fires once, skips the slots it missed
/// assert_eq!(seal.deadline(), Some(212));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    phase: TimeMs,
    period: TimeMs,
    deadline: Option<TimeMs>,
}

impl Schedule {
    /// The grid `phase + k·period`. A period of 0 is taken as 1 ms: a
    /// zero period would fire at one instant forever.
    fn new(phase: TimeMs, period: TimeMs) -> Self {
        Schedule {
            phase,
            period: period.max(1),
            deadline: None,
        }
    }

    /// Server `me`'s seal grid among `n` servers: phase `me·period/n`,
    /// so the `n` servers' seals are spread evenly over one period.
    pub fn for_server(me: ServerId, n: usize, period: TimeMs) -> Self {
        let period = period.max(1);
        let phase = me.index() as u128 * u128::from(period) / n.max(1) as u128;
        Schedule::new(phase as TimeMs, period)
    }

    /// The first grid instant strictly after `now`: one slot, however
    /// many a late caller missed.
    fn next_after(&self, now: TimeMs) -> TimeMs {
        self.at_or_after(now.saturating_add(1))
    }

    /// The first grid instant at or after `now`.
    fn at_or_after(&self, now: TimeMs) -> TimeMs {
        let slots = now.saturating_sub(self.phase).div_ceil(self.period);
        self.phase.saturating_add(slots.saturating_mul(self.period))
    }

    /// The index `k` of the last grid instant `phase + k·period` at or
    /// before `at` (0 before the first): the slot a wake at `at` runs in.
    pub fn slot(&self, at: TimeMs) -> u64 {
        at.saturating_sub(self.phase) / self.period
    }

    /// When the timer fires next, `None` until [`Schedule::fire`] arms it.
    pub fn deadline(&self) -> Option<TimeMs> {
        self.deadline
    }

    /// Whether the timer is due at `now`, re-armed on the next slot if so.
    /// Unarmed, it first arms on the first slot at or after `now`, so a
    /// server reborn after a crash resumes on the instants its lost life
    /// would have used.
    pub fn fire(&mut self, now: TimeMs) -> bool {
        let due = self.deadline.unwrap_or_else(|| self.at_or_after(now));
        let fired = now >= due;
        self.deadline = Some(if fired { self.next_after(now) } else { due });
        fired
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
        let phases: Vec<TimeMs> = (0..4).map(|me| seal(me).at_or_after(0)).collect();
        assert_eq!(phases, vec![0, 12, 25, 37]);
    }

    #[test]
    fn next_after_is_later_and_on_the_grid() {
        for me in 0..4 {
            let grid = seal(me);
            for now in 0..400 {
                let next = grid.next_after(now);
                assert!(next > now);
                assert!(next >= grid.phase);
                assert_eq!((next - grid.phase) % 50, 0);
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
    fn a_zero_period_is_one_millisecond() {
        let grid = Schedule::for_server(ServerId::new(3), 4, 0);
        assert_eq!(grid, Schedule::new(0, 1));
        assert_eq!(grid.next_after(0), 1);
        assert_eq!(grid.next_after(41), 42);
    }

    #[test]
    fn a_huge_period_does_not_overflow() {
        let grid = Schedule::for_server(ServerId::new(3), 4, TimeMs::MAX);
        assert_eq!(grid.phase, TimeMs::MAX / 4 * 3 + 2);
        assert_eq!(grid.next_after(grid.phase), TimeMs::MAX);
    }

    #[test]
    fn at_or_after_is_the_first_slot_not_before_now() {
        let grid = seal(1);
        assert_eq!(grid.at_or_after(0), 12);
        assert_eq!(grid.at_or_after(12), 12);
        assert_eq!(grid.at_or_after(13), 62);
        assert_eq!(seal(0).at_or_after(0), 0);
        assert_eq!(seal(0).at_or_after(100), 100);
    }

    #[test]
    fn a_slot_index_counts_grid_instants_from_the_phase() {
        let grid = seal(1);
        let slots: Vec<u64> = [0, 11, 12, 61, 62, 112, 12 + 3 * 50 + 7, 412]
            .map(|at| grid.slot(at))
            .into();
        assert_eq!(slots, vec![0, 0, 0, 0, 1, 2, 3, 8]);
    }

    #[test]
    fn a_timer_fires_once_per_slot_it_is_woken_in() {
        let mut grid = seal(2);
        let fired: Vec<TimeMs> = (0..200).filter(|now| grid.fire(*now)).collect();
        assert_eq!(fired, vec![25, 75, 125, 175]);
        // Armed late, it fires at the first slot at or after the arming.
        let mut grid = seal(2);
        assert!(grid.fire(75));
        assert_eq!(grid.deadline(), Some(125));
    }
}
