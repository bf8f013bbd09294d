//! Deterministic discrete-event scheduler.
//!
//! A binary heap of timestamped events ordered by time, then priority
//! class, then a monotonic tiebreaker: two events at the same instant pop
//! in class order ([`EventQueue::schedule_first`], then
//! [`EventQueue::schedule_timer`], then [`EventQueue::schedule`]) and in
//! insertion order within a class — one of the ingredients (with seeded
//! randomness) that makes every simulation run bit-for-bit reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dagbft_core::TimeMs;

/// A scheduled entry: `payload` due at `time`.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: TimeMs,
    class: u8,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.class == other.class && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event pops first.
        (other.time, other.class, other.seq).cmp(&(self.time, self.class, self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event queue ordered by time, then priority class,
/// then insertion.
///
/// # Examples
///
/// ```
/// use dagbft_sim::sched::EventQueue;
///
/// let mut queue = EventQueue::new();
/// queue.schedule(10, "b");
/// queue.schedule(5, "a");
/// queue.schedule(10, "c");
/// assert_eq!(queue.pop(), Some((5, "a")));
/// assert_eq!(queue.pop(), Some((10, "b"))); // same time: insertion order
/// assert_eq!(queue.pop(), Some((10, "c")));
/// assert_eq!(queue.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: TimeMs,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> TimeMs {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// Events scheduled in the past are delivered at the current clock
    /// instead (time never goes backwards).
    pub fn schedule(&mut self, time: TimeMs, payload: E) {
        self.schedule_class(time, 2, payload);
    }

    /// Schedules `payload` at `time`, between the
    /// [`EventQueue::schedule_first`] and the plain entries at that instant:
    /// a server's wake re-armed for `t + 1` still runs before deliveries
    /// due at `t + 1` that were scheduled earlier.
    pub fn schedule_timer(&mut self, time: TimeMs, payload: E) {
        self.schedule_class(time, 1, payload);
    }

    /// Schedules `payload` at `time`, ahead of every other entry at the
    /// same instant regardless of insertion order.
    ///
    /// Used for request injections: a request submitted at time `t` must
    /// be visible to a dissemination firing at the same `t`, even though
    /// the timer was armed earlier — otherwise a boundary-time injection
    /// silently slips a whole interval.
    pub fn schedule_first(&mut self, time: TimeMs, payload: E) {
        self.schedule_class(time, 0, payload);
    }

    fn schedule_class(&mut self, time: TimeMs, class: u8, payload: E) {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time,
            class,
            seq,
            payload,
        });
    }

    /// Pops the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(TimeMs, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// The due time of the next event without popping it.
    pub fn peek_time(&self) -> Option<TimeMs> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest event only if `pred` accepts it — how the
    /// runner gathers a run of same-instant deliveries to one server
    /// without disturbing any other event's order.
    pub fn pop_if(&mut self, pred: impl FnOnce(TimeMs, &E) -> bool) -> Option<(TimeMs, E)> {
        let head = self.heap.peek()?;
        if !pred(head.time, &head.payload) {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut queue = EventQueue::new();
        queue.schedule(30, 3);
        queue.schedule(10, 1);
        queue.schedule(20, 2);
        let order: Vec<i32> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion() {
        let mut queue = EventQueue::new();
        for i in 0..100 {
            queue.schedule(7, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_and_rejects_past() {
        let mut queue = EventQueue::new();
        queue.schedule(100, "late");
        assert_eq!(queue.pop().unwrap().0, 100);
        assert_eq!(queue.now(), 100);
        // Scheduling "in the past" clamps to now.
        queue.schedule(50, "past");
        assert_eq!(queue.pop().unwrap(), (100, "past"));
    }

    #[test]
    fn schedule_first_wins_same_instant_ties() {
        let mut queue = EventQueue::new();
        queue.schedule(10, "timer");
        queue.schedule_first(10, "injection");
        queue.schedule(5, "earlier");
        assert_eq!(queue.pop(), Some((5, "earlier")));
        // Despite later insertion, the injection precedes the timer.
        assert_eq!(queue.pop(), Some((10, "injection")));
        assert_eq!(queue.pop(), Some((10, "timer")));
    }

    #[test]
    fn timers_run_between_first_entries_and_plain_ones() {
        let mut queue = EventQueue::new();
        queue.schedule(10, "delivery");
        queue.schedule_timer(10, "wake");
        queue.schedule_first(10, "injection");
        queue.schedule_timer(10, "second wake");
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["injection", "wake", "second wake", "delivery"]);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut queue = EventQueue::new();
        queue.schedule(5, ());
        assert_eq!(queue.peek_time(), Some(5));
        assert_eq!(queue.now(), 0);
        assert_eq!(queue.len(), 1);
        assert!(!queue.is_empty());
    }
}
