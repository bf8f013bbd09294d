//! Curve25519 arithmetic for the ed25519 signature scheme, implemented
//! from scratch.
//!
//! The environment provides no cryptographic crates, so the whole stack
//! is in-tree: [`fe`] (the field GF(2^255 − 19), 5×51-bit limbs with
//! lazy carries, a dedicated squaring and addition-chain inversion),
//! [`scalar`] (integers mod the basepoint order `L`, and the signed
//! recodings the multiplications walk), [`point`] (the twisted Edwards
//! curve in extended coordinates with cached addends, RFC 8032 strict
//! compression/decompression, fixed-base and double-base scalar
//! multiplication over tables of odd multiples), and [`msm`]
//! (multi-scalar multiplication: Straus for small batches, Pippenger
//! above a width threshold — the engine behind amortized batch signature
//! verification).
//!
//! Every point addition and doubling bumps a thread-local counter
//! ([`PointOps`], [`ops_snapshot`]): curve-level costs are *counted*, not
//! timed, so the floor `batch_is_cheaper_than_serial` asserts ("batched
//! verification halves serial's cost at wave width ≥32") is
//! machine-independent.
//!
//! The arithmetic is portable `u64`/`u128` — no intrinsics, no `unsafe`
//! — and costs what the textbook formulas cost; bit-by-bit references
//! live beside it as `#[cfg(test)]` oracles. It is *not*
//! constant-time: it reproduces a protocol simulation, not a production
//! wallet, and secret-dependent timing is out of scope.

pub mod fe;
pub mod msm;
pub mod point;
pub mod scalar;

use std::cell::Cell;

/// A count of elliptic-curve group operations (doublings and additions).
///
/// The unit of account for machine-independent signature benchmarks: one
/// doubling and one addition cost roughly the same handful of field
/// multiplications, so `doubles + adds` tracks real verification work
/// without depending on the host CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointOps {
    /// Point doublings performed.
    pub doubles: u64,
    /// Point additions performed.
    pub adds: u64,
}

impl PointOps {
    /// Total group operations.
    pub fn total(&self) -> u64 {
        self.doubles + self.adds
    }
}

impl std::ops::Sub for PointOps {
    type Output = PointOps;

    fn sub(self, earlier: PointOps) -> PointOps {
        PointOps {
            doubles: self.doubles - earlier.doubles,
            adds: self.adds - earlier.adds,
        }
    }
}

thread_local! {
    static DOUBLES: Cell<u64> = const { Cell::new(0) };
    static ADDS: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of this thread's cumulative point-operation counters.
///
/// Benchmarks diff two snapshots around the work under measurement; the
/// counters only ever grow and are never reset.
pub fn ops_snapshot() -> PointOps {
    PointOps {
        doubles: DOUBLES.with(Cell::get),
        adds: ADDS.with(Cell::get),
    }
}

pub(crate) fn count_double() {
    DOUBLES.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_add() {
    ADDS.with(|c| c.set(c.get() + 1));
}

/// Strategies the differential tests of the submodules share.
#[cfg(test)]
pub(crate) mod testing {
    use proptest::prelude::*;

    use super::scalar::Scalar;

    /// 32 uniformly random bytes.
    pub(crate) fn any_bytes32() -> impl Strategy<Value = [u8; 32]> {
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| {
            let mut bytes = [0u8; 32];
            for (chunk, word) in bytes.chunks_exact_mut(8).zip([a, b, c, d]) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            bytes
        })
    }

    /// A uniformly random 256-bit integer, reduced mod L.
    pub(crate) fn any_scalar() -> impl Strategy<Value = Scalar> {
        any_bytes32().prop_map(|bytes| Scalar::from_bytes_mod_order(&bytes))
    }
}
