//! Zipfian payments workload generator.
//!
//! The paper motivates block DAGs with payment systems: every transfer
//! rides its own BRB instance labeled by [`Transfer::label`], so a
//! realistic workload drives the embedding across *many* distinct labels
//! at once — 10⁵–10⁶ of them — with a skewed (zipfian) account
//! popularity, the shape every real payment trace has: a few hot
//! accounts dominate while a long tail stays cold.
//!
//! [`ZipfSampler`] draws account ranks from a precomputed CDF (exact, no
//! rejection), and [`zipf_transfers`] turns a stream of draws into
//! sequenced, settleable [`Transfer`]s: per-sender sequence numbers
//! increase densely, so each transfer's `(from, seq)` label is fresh and
//! the distinct-label count equals the transfer count by construction.
//! The benchmark's `sim_*` and `live_steady` workloads feed these
//! transfers through the DAG (`src/bin/benchmark/inputs.rs`).

use std::collections::BTreeSet;

use dagbft_core::Label;
use dagbft_protocols::{AccountId, Transfer};
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// An exact zipfian sampler over ranks `0..n` with exponent `s`:
/// `P(rank = k) ∝ 1 / (k + 1)^s`. Built once (`O(n)` table), sampled by
/// binary search on the CDF (`O(log n)` per draw) — no rejection loop,
/// so the draw count is deterministic per seed.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with exponent `exponent`
    /// (`exponent = 0.0` degenerates to uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `exponent` is negative/non-finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut impl RngCore) -> usize {
        // 53 high bits → uniform in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Shape of a zipfian payments workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of accounts (the zipf domain).
    pub accounts: usize,
    /// Number of transfers to generate — equals the number of distinct
    /// BRB labels the workload opens.
    pub transfers: usize,
    /// Zipf exponent for the paying account (1.0 ≈ classic web/payment
    /// skew; 0.0 = uniform).
    pub exponent: f64,
    /// RNG seed; the workload is a pure function of this config.
    pub seed: u64,
}

/// Generates `config.transfers` sequenced transfers with zipfian-hot
/// senders and receivers. Sequence numbers are dense per sender, so
/// every transfer's `(from, seq)` label is distinct and the workload is
/// settleable (amount 1, generous initial balances — see
/// [`initial_balances`]).
pub fn zipf_transfers(config: &WorkloadConfig) -> Vec<Transfer> {
    let zipf = ZipfSampler::new(config.accounts, config.exponent);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut next_seq = vec![0u32; config.accounts];
    let mut transfers = Vec::with_capacity(config.transfers);
    for _ in 0..config.transfers {
        let from = zipf.sample(&mut rng);
        let mut to = zipf.sample(&mut rng);
        if to == from {
            // Self-transfers are rejected by the ledger; shift to the
            // neighboring rank instead of re-rolling so the draw count
            // stays fixed per seed.
            to = (to + 1) % config.accounts;
        }
        let seq = next_seq[from];
        next_seq[from] += 1;
        transfers.push(Transfer {
            from: AccountId(from as u32),
            to: AccountId(to as u32),
            amount: 1,
            seq,
        });
    }
    transfers
}

/// Initial balances making every generated workload fully settleable:
/// each account starts with `transfers` units, an upper bound on what it
/// can ever owe (amounts are 1).
pub fn initial_balances(config: &WorkloadConfig) -> Vec<(AccountId, u64)> {
    (0..config.accounts)
        .map(|account| (AccountId(account as u32), config.transfers as u64))
        .collect()
}

/// Number of distinct BRB labels the transfers open — the workload's
/// instance count. Equal to `transfers.len()` for any
/// [`zipf_transfers`] output (dense per-sender sequencing).
pub fn distinct_labels(transfers: &[Transfer]) -> usize {
    transfers
        .iter()
        .map(Transfer::label)
        .collect::<BTreeSet<Label>>()
        .len()
}

/// Fraction of transfers *sent* by the `top` hottest accounts — the
/// skew observable (`top = accounts / 100` with exponent 1.0 typically
/// captures well over a third of the traffic at 10⁵ scale).
pub fn hot_sender_share(transfers: &[Transfer], accounts: usize, top: usize) -> f64 {
    if transfers.is_empty() {
        return 0.0;
    }
    let mut sent = vec![0u64; accounts];
    for transfer in transfers {
        sent[transfer.from.0 as usize] += 1;
    }
    sent.sort_unstable_by(|a, b| b.cmp(a));
    let hot: u64 = sent.iter().take(top).sum();
    hot as f64 / transfers.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_protocols::Ledger;

    fn config() -> WorkloadConfig {
        WorkloadConfig {
            accounts: 1000,
            transfers: 20_000,
            exponent: 1.0,
            seed: 42,
        }
    }

    #[test]
    fn labels_are_distinct_and_workload_deterministic() {
        let transfers = zipf_transfers(&config());
        assert_eq!(transfers.len(), 20_000);
        assert_eq!(distinct_labels(&transfers), 20_000);
        assert_eq!(transfers, zipf_transfers(&config()), "pure in the seed");
    }

    #[test]
    fn zipf_skew_concentrates_on_hot_accounts() {
        let transfers = zipf_transfers(&config());
        let hot = hot_sender_share(&transfers, 1000, 10);
        assert!(hot > 0.25, "top 1% of senders carry {hot:.3} of traffic");
        let uniform = zipf_transfers(&WorkloadConfig {
            exponent: 0.0,
            ..config()
        });
        let flat = hot_sender_share(&uniform, 1000, 10);
        assert!(flat < hot / 2.0, "uniform share {flat:.3} vs zipf {hot:.3}");
    }

    #[test]
    fn workload_settles_completely() {
        let cfg = WorkloadConfig {
            accounts: 50,
            transfers: 500,
            exponent: 1.0,
            seed: 7,
        };
        let transfers = zipf_transfers(&cfg);
        let mut ledger = Ledger::new(initial_balances(&cfg));
        let supply = ledger.total_supply();
        let leftover = ledger.settle(transfers);
        assert!(leftover.is_empty(), "{} transfers stuck", leftover.len());
        assert_eq!(ledger.total_supply(), supply);
        assert_eq!(ledger.applied().len(), 500);
    }

    #[test]
    fn sampler_covers_domain_and_orders_by_rank() {
        let zipf = ZipfSampler::new(16, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u64; 16];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "tail ranks never drawn");
        assert!(counts[0] > counts[8], "rank 0 must dominate mid-tail");
    }
}
