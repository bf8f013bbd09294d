//! Network models: latency distributions, loss, and partitions.
//!
//! The paper's only network assumption for building block DAGs is
//! Assumption 1 (reliable delivery between correct servers, eventually).
//! The default model delivers every message with a sampled latency. Lossy
//! and partitioned models *violate per-send delivery* but preserve the
//! assumption at the protocol level because gossip's `FWD` mechanism
//! (Algorithm 1, lines 10–13) re-requests missing blocks — experiment E10
//! measures exactly that recovery.

use std::collections::BTreeSet;

use dagbft_core::TimeMs;
use rand::rngs::StdRng;
use rand::Rng;

/// A message latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Latency {
    /// Every message takes exactly this long.
    Constant(TimeMs),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Minimum latency.
        min: TimeMs,
        /// Maximum latency (inclusive).
        max: TimeMs,
    },
}

impl Latency {
    /// Samples one latency value.
    pub fn sample(&self, rng: &mut StdRng) -> TimeMs {
        match *self {
            Latency::Constant(value) => value,
            Latency::Uniform { min, max } => rng.gen_range(min..=max),
        }
    }
}

impl Default for Latency {
    fn default() -> Self {
        Latency::Uniform { min: 5, max: 30 }
    }
}

/// A temporary network partition: messages between group `a` and group `b`
/// are dropped during `[from, until)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut (server indices).
    pub a: BTreeSet<usize>,
    /// The other side of the cut.
    pub b: BTreeSet<usize>,
    /// Partition start (inclusive).
    pub from: TimeMs,
    /// Partition end (exclusive) — the heal time.
    pub until: TimeMs,
}

impl Partition {
    fn cuts(&self, from: usize, to: usize, now: TimeMs) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        (self.a.contains(&from) && self.b.contains(&to))
            || (self.b.contains(&from) && self.a.contains(&to))
    }
}

/// The complete network model used by the simulator.
///
/// # Examples
///
/// ```
/// use dagbft_sim::{Latency, NetworkModel};
///
/// let net = NetworkModel::default().with_drop_rate(0.1);
/// assert_eq!(net.drop_rate, 0.1);
/// let _ = Latency::Constant(10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Point-to-point latency distribution.
    pub latency: Latency,
    /// Independent per-message drop probability in `[0, 1)`.
    pub drop_rate: f64,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            latency: Latency::default(),
            drop_rate: 0.0,
            partitions: Vec::new(),
        }
    }
}

impl NetworkModel {
    /// A perfectly reliable network with constant latency — useful for
    /// deterministic examples and latency math in tests.
    pub fn reliable_constant(latency: TimeMs) -> Self {
        NetworkModel {
            latency: Latency::Constant(latency),
            drop_rate: 0.0,
            partitions: Vec::new(),
        }
    }

    /// Sets the per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1)` — a rate of 1 would drop every
    /// send forever, violating Assumption 1 beyond what `FWD` can repair.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "drop rate must be in [0, 1)");
        self.drop_rate = rate;
        self
    }

    /// Adds a partition window.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Decides whether a message from `from` to `to` sent at `now` is lost.
    pub fn drops(&self, rng: &mut StdRng, from: usize, to: usize, now: TimeMs) -> bool {
        if self.partitions.iter().any(|p| p.cuts(from, to, now)) {
            return true;
        }
        self.drop_rate > 0.0 && rng.gen_bool(self.drop_rate)
    }

    /// Samples the delivery delay for one message.
    pub fn delay(&self, rng: &mut StdRng) -> TimeMs {
        self.latency.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn constant_latency() {
        let mut rng = rng();
        assert_eq!(Latency::Constant(7).sample(&mut rng), 7);
    }

    #[test]
    fn uniform_latency_in_range() {
        let mut rng = rng();
        let latency = Latency::Uniform { min: 3, max: 9 };
        for _ in 0..200 {
            let sample = latency.sample(&mut rng);
            assert!((3..=9).contains(&sample));
        }
    }

    #[test]
    fn reliable_never_drops() {
        let net = NetworkModel::reliable_constant(5);
        let mut rng = rng();
        for _ in 0..100 {
            assert!(!net.drops(&mut rng, 0, 1, 0));
        }
    }

    #[test]
    fn drop_rate_statistics() {
        let net = NetworkModel::default().with_drop_rate(0.5);
        let mut rng = rng();
        let dropped = (0..10_000).filter(|_| net.drops(&mut rng, 0, 1, 0)).count();
        assert!((4_000..6_000).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    #[should_panic(expected = "drop rate")]
    fn full_drop_rate_rejected() {
        let _ = NetworkModel::default().with_drop_rate(1.0);
    }

    #[test]
    fn partition_cuts_both_directions_within_window() {
        let partition = Partition {
            a: [0, 1].into_iter().collect(),
            b: [2].into_iter().collect(),
            from: 100,
            until: 200,
        };
        let net = NetworkModel::default().with_partition(partition);
        let mut rng = rng();
        assert!(net.drops(&mut rng, 0, 2, 150));
        assert!(net.drops(&mut rng, 2, 1, 150));
        assert!(!net.drops(&mut rng, 0, 1, 150)); // same side
        assert!(!net.drops(&mut rng, 0, 2, 99)); // before
        assert!(!net.drops(&mut rng, 0, 2, 200)); // healed
    }

    #[test]
    fn deterministic_given_seed() {
        let net = NetworkModel::default().with_drop_rate(0.3);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|_| (net.drops(&mut rng, 0, 1, 0), net.delay(&mut rng)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
