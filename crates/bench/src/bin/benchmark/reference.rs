//! A fixed piece of arithmetic of the benchmark's own, timed beside the
//! measured work, to tell how fast the machine is at that moment.
//!
//! This host's speed changes by up to 2× for a minute at a time — most
//! of all for multiplier-bound code such as signature checks — so the
//! same deterministic `Simulation::run()` reads 0.35 s in one run of the
//! benchmark and 0.55 s in the next. No estimator inside one run removes
//! that; a yardstick timed next to every repeat removes most of it. The
//! kernel keeps the multiplier busy every cycle, as point arithmetic
//! does (a chain of dependent multiplications, bound by latency instead,
//! was tried and slowed down only half as much as the workloads did).
//! Nothing in the program under test can move it.

use std::time::Instant;

/// Independent multiply chains: enough to keep the multiplier busy every
/// cycle, few enough to stay in registers.
const CHAINS: usize = 8;

/// Rounds per call of [`seconds`]. A hundredth of the full count in an
/// unoptimised build: only the smoke tests run there, they assert no
/// timing, and the full kernel would take them 0.2 s a call.
const ROUNDS: usize = if cfg!(debug_assertions) {
    75_000
} else {
    7_500_000
};

/// What [`seconds`] reads on this host in a calm minute: 25 ms. Only
/// fixes the scale of paced timings.
const NOMINAL_S: f64 = ROUNDS as f64 / 3.0e8;

/// Seconds the machine takes, right now, for the reference kernel:
/// `ROUNDS` rounds of one 64 × 64 → 128-bit multiplication on each chain,
/// high half folded into low. The loop is a few dozen instructions, so
/// where the linker happens to place it matters little (a kernel of four
/// field multiplications a round, ~400 instructions, ran 27 % slower in
/// one of two builds of the same source), and it is never inlined, so it
/// is the same machine code wherever it is called from.
#[inline(never)]
pub fn seconds() -> f64 {
    let mut chains: [u64; CHAINS] =
        std::array::from_fn(|i| 0x9e37_79b9_7f4a_7c15 ^ (i as u64) << 7);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for x in &mut chains {
            let wide = u128::from(*x) * 0xd6e8_feb8_6659_fd93;
            *x = (wide as u64) ^ ((wide >> 64) as u64) | 1;
        }
    }
    std::hint::black_box(chains);
    start.elapsed().as_secs_f64()
}

/// Puts wall-clock timings of consecutive pieces of work on the clock of
/// a machine at nominal speed: each is divided by how much slower than
/// nominal the kernel ran just before and just after it.
pub struct Pacer {
    /// The machine's pace (1 = nominal, 2 = half speed) when last taken.
    pace: f64,
}

impl Pacer {
    pub fn start() -> Pacer {
        Pacer {
            pace: seconds() / NOMINAL_S,
        }
    }

    /// `wall_s`, just measured, at nominal speed.
    pub fn at_nominal(&mut self, wall_s: f64) -> f64 {
        let before = std::mem::replace(&mut self.pace, seconds() / NOMINAL_S);
        wall_s / ((before + self.pace) / 2.0)
    }
}
