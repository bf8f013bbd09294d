//! Workload inputs: made from the seed here, handed to the program as
//! plain requests. The program never sees the seed or a workload's name.

use rand::{rngs::StdRng, RngCore, SeedableRng};

use crate::adapter::{self, Request};

/// The seed used when none is given, and the one the pinned hashes cover.
pub const DEFAULT_SEED: u64 = 7;

/// How a workload's requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// One request every `1 / rate` seconds exactly — the live generator's
    /// schedule, so its offered load is the same on every seed.
    Paced,
    /// Independent users: a Poisson process conditioned on its count —
    /// each arrival uniform over the `requests / rate` seconds, drawn from
    /// the seed — except that the last request closes the window. The
    /// schedule differs by seed (so simulated latencies are not one
    /// constant) while its length, and with it the number of blocks a run
    /// seals, is the same on every seed.
    Poisson,
}

/// The shape of one workload's traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traffic {
    pub servers: usize,
    pub requests: usize,
    pub rate_per_s: f64,
    pub arrivals: Arrivals,
}

/// The requests of `traffic` for `seed`: zipfian transfers, handed to the
/// servers round-robin on the traffic's schedule.
pub fn generate(traffic: Traffic, seed: u64) -> Vec<Request> {
    let transfers = adapter::zipf_transfers(traffic.requests, seed);
    // A stream of its own for the schedule, so the transfers of a seed do
    // not depend on how arrivals are drawn.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ced_a11e_d00d_f00d);
    let gap_us = 1e6 / traffic.rate_per_s;
    let span_us = gap_us * traffic.requests as f64;
    let mut due_us: Vec<u64> = (0..traffic.requests)
        .map(|index| match traffic.arrivals {
            Arrivals::Paced => (index as f64 * gap_us) as u64,
            Arrivals::Poisson if index + 1 == traffic.requests => (span_us - gap_us) as u64,
            Arrivals::Poisson => {
                // 53 high bits → uniform in [0, 1).
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                (u * (span_us - gap_us)) as u64
            }
        })
        .collect();
    due_us.sort_unstable();
    transfers
        .into_iter()
        .zip(due_us)
        .enumerate()
        .map(|(index, (transfer, due_us))| Request {
            due_us,
            server: index % traffic.servers,
            transfer,
        })
        .collect()
}

/// SHA-256 over the canonical listing of `requests`, as hex.
pub fn digest(requests: &[Request]) -> String {
    let mut bytes = Vec::with_capacity(requests.len() * 32);
    for request in requests {
        bytes.extend_from_slice(&request.due_us.to_le_bytes());
        bytes.extend_from_slice(&(request.server as u32).to_le_bytes());
        bytes.extend_from_slice(&request.transfer.from.0.to_le_bytes());
        bytes.extend_from_slice(&request.transfer.to.0.to_le_bytes());
        bytes.extend_from_slice(&request.transfer.amount.to_le_bytes());
        bytes.extend_from_slice(&request.transfer.seq.to_le_bytes());
    }
    adapter::sha256_hex(&bytes)
}

/// Checks `requests` against the hash pinned for the default seed, so an
/// edit to the transfer generator or the vendored `rand` cannot change
/// the traffic unnoticed. Other seeds and sizes have no pin and pass.
pub fn check_pinned(
    pinned: &str,
    seed: u64,
    full_size: bool,
    requests: &[Request],
) -> Result<(), String> {
    if seed != DEFAULT_SEED || !full_size {
        return Ok(());
    }
    let actual = digest(requests);
    if actual == pinned {
        Ok(())
    } else {
        Err(format!(
            "inputs for seed {seed} hash to {actual}, pinned {pinned}: the generator changed"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAFFIC: Traffic = Traffic {
        servers: 4,
        requests: 200,
        rate_per_s: 500.0,
        arrivals: Arrivals::Poisson,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate(TRAFFIC, 7);
        assert_eq!(a, generate(TRAFFIC, 7));
        assert_eq!(digest(&a), digest(&generate(TRAFFIC, 7)));
        assert_ne!(digest(&a), digest(&generate(TRAFFIC, 8)));
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(a.iter().enumerate().all(|(i, r)| r.server == i % 4));
        // 200 arrivals at 500/s: the last closes the 0.4 s window.
        assert_eq!(a.last().unwrap().due_us, 398_000);
    }

    #[test]
    fn paced_arrivals_are_evenly_spaced() {
        let paced = generate(
            Traffic {
                arrivals: Arrivals::Paced,
                rate_per_s: 100.0,
                ..TRAFFIC
            },
            7,
        );
        assert!(paced
            .iter()
            .enumerate()
            .all(|(i, r)| r.due_us == i as u64 * 10_000));
    }

    #[test]
    fn pin_guards_only_the_default_seed_at_full_size() {
        let requests = generate(TRAFFIC, DEFAULT_SEED);
        assert!(check_pinned("0", DEFAULT_SEED, true, &requests).is_err());
        assert!(check_pinned("0", DEFAULT_SEED, false, &requests).is_ok());
        assert!(check_pinned("0", 8, true, &requests).is_ok());
        assert!(check_pinned(&digest(&requests), DEFAULT_SEED, true, &requests).is_ok());
    }
}
