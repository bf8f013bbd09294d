//! Curve25519 arithmetic for the ed25519 signature scheme, implemented
//! from scratch.
//!
//! The environment provides no cryptographic crates, so the whole stack
//! is in-tree: [`fe`] (the field GF(2^255 − 19), 5×51-bit limbs with
//! lazy carries, a dedicated squaring and addition-chain inversion),
//! [`scalar`] (integers mod the basepoint order `L`, and the signed
//! recodings the multiplications walk), [`point`] (the twisted Edwards
//! curve in extended coordinates with cached addends, RFC 8032 strict
//! compression/decompression, and fixed-base scalar multiplication over
//! per-point tables of odd multiples).
//!
//! Every point addition and doubling bumps a thread-local counter
//! ([`PointOps`], [`ops_snapshot`]): curve-level costs are *counted*, not
//! timed, so the floors the ed25519 tests assert (a signature costs 32
//! additions, a check ≤ 105 operations) are machine-independent. The
//! basepoint's table is built on a process's first `[s]B` and counted on
//! the thread that asked for it, so a counting test computes one `[s]B`
//! before its first snapshot.
//!
//! The arithmetic is portable `u64`/`u128` — no intrinsics, no `unsafe`
//! — and costs what the textbook formulas cost; bit-by-bit references
//! live beside it as `#[cfg(test)]` oracles. It is *not*
//! constant-time: it reproduces a protocol simulation, not a production
//! wallet, and secret-dependent timing is out of scope.

pub mod fe;
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

    use super::point::Point;
    use super::scalar::Scalar;

    /// The eight torsion points, as multiples of a generator of order 8:
    /// entry `i` has order 8 / gcd(i, 8).
    pub(crate) fn torsion_points() -> Vec<Point> {
        let generator = Point::decompress(&[
            0xc7, 0x17, 0x6a, 0x70, 0x3d, 0x4d, 0xd8, 0x4f, 0xba, 0x3c, 0x0b, 0x76, 0x0d, 0x10,
            0x67, 0x0f, 0x2a, 0x20, 0x53, 0xfa, 0x2c, 0x39, 0xcc, 0xc6, 0x4e, 0xc7, 0xfd, 0x77,
            0x92, 0xac, 0x03, 0x7a,
        ])
        .expect("the order-8 encoding is on the curve");
        assert!(generator.is_small_order());
        assert!(
            !generator.double().double().is_identity(),
            "order exactly 8"
        );
        let mut points = vec![Point::IDENTITY];
        for i in 1..8 {
            points.push(points[i - 1].add(&generator));
        }
        points
    }

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

    /// 0, 1, 2, L − 1, L − 2, 2^252, 2^128 − 1 and 2^128. The even ones
    /// (0, 2, L − 1, 2^252, 2^128) take the odd recoding's `+L` path.
    pub(crate) fn edge_scalars() -> Vec<Scalar> {
        let minus_one = Scalar::ONE.neg();
        vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u128(2),
            minus_one,
            minus_one.add(&minus_one),
            Scalar([0, 0, 0, 1 << 60]),
            Scalar::from_u128(u128::MAX),
            Scalar([0, 0, 1, 0]),
        ]
    }
}
