//! Multi-scalar multiplication: Σ \[sᵢ\]Pᵢ in one pass.
//!
//! Two engines, picked by batch size:
//!
//! * **Straus** (interleaved signed windows): one shared doubling chain
//!   for the whole batch — ~253 doublings total instead of ~253 *per
//!   point* — plus, per point, a table of its eight odd multiples in
//!   cached form (8 operations) and one addition per non-zero digit of
//!   its scalar's width-5 non-adjacent form (~43 for a full-width scalar,
//!   ~22 for a 128-bit batch coefficient). Wins from the first point and
//!   dominates at wave-sized batches.
//! * **Pippenger** (bucket method): per window, points land in buckets by
//!   digit and a running sum recombines them, so per-point cost falls to
//!   one addition per window. The fixed bucket overhead amortizes only
//!   past [`PIPPENGER_THRESHOLD_POINTS`]; below it Straus is cheaper.
//!
//! Cost here is *counted* (thread-local [`super::PointOps`]) rather than
//! timed, which is what makes the batch-verification floor
//! (`ed25519.rs`, `batch_is_cheaper_than_serial`) machine-independent.

use super::point::{Cached, Completed, OddMultiples, Point};
use super::scalar::Scalar;

/// Batch size (in points, not signatures) above which Pippenger's bucket
/// overhead amortizes below Straus's per-point table+window cost: counted
/// in group operations, Straus is still ahead at 257 points and 5–6 %
/// behind at 385, for full-width and for batch-shaped (every other scalar
/// 128-bit) inputs alike. A k-signature batch verification is an MSM over
/// 2k + 1 points, so this corresponds to a wave width of ~160 blocks.
pub const PIPPENGER_THRESHOLD_POINTS: usize = 320;

/// The engine [`msm`] picks for a batch of `points` points.
pub fn msm_engine(points: usize) -> &'static str {
    if points >= PIPPENGER_THRESHOLD_POINTS {
        "pippenger"
    } else {
        "straus"
    }
}

/// Σ \[sᵢ\]Pᵢ, dispatching on batch size.
///
/// # Panics
///
/// If `scalars` and `points` differ in length.
pub fn msm(scalars: &[Scalar], points: &[Point]) -> Point {
    assert_eq!(scalars.len(), points.len(), "msm input length mismatch");
    if scalars.len() >= PIPPENGER_THRESHOLD_POINTS {
        pippenger(scalars, points)
    } else {
        straus(scalars, points)
    }
}

/// Straus: interleaved width-5 signed windows over one shared doubling
/// chain, each doubling skipping `T` unless an addition follows it.
pub fn straus(scalars: &[Scalar], points: &[Point]) -> Point {
    assert_eq!(scalars.len(), points.len(), "msm input length mismatch");
    let tables: Vec<OddMultiples<Cached, 8>> = points.iter().map(OddMultiples::new).collect();
    let nafs: Vec<[i8; 256]> = scalars.iter().map(|s| s.non_adjacent_form(5)).collect();

    let Some(top) = (0..256).rev().find(|&i| nafs.iter().any(|naf| naf[i] != 0)) else {
        return Point::IDENTITY;
    };
    let mut acc = Completed::IDENTITY;
    for i in (0..=top).rev() {
        acc = acc.double();
        for (table, naf) in tables.iter().zip(&nafs) {
            if naf[i] != 0 {
                acc = acc.to_point().add_cached(&table.select(naf[i]));
            }
        }
    }
    acc.to_point()
}

/// Pippenger: per-window bucket accumulation with a running-sum
/// recombination. Window width grows with batch size.
pub fn pippenger(scalars: &[Scalar], points: &[Point]) -> Point {
    assert_eq!(scalars.len(), points.len(), "msm input length mismatch");
    if scalars.is_empty() {
        return Point::IDENTITY;
    }
    // Cheapest width by counted group operations at 129 … 2049 points.
    let width = match scalars.len() {
        0..=63 => 4,
        64..=159 => 5,
        160..=383 => 6,
        384..=1023 => 7,
        _ => 8,
    };
    let windows = 256usize.div_ceil(width);
    // Every point is an addend once per window: cache it once.
    let addends: Vec<Cached> = points.iter().map(|point| point.to_cached()).collect();
    let mut acc: Option<Point> = None;

    for window in (0..windows).rev() {
        if let Some(point) = acc.as_mut() {
            for _ in 0..width {
                *point = point.double();
            }
        }
        let mut buckets: Vec<Option<Point>> = vec![None; (1 << width) - 1];
        for ((scalar, point), addend) in scalars.iter().zip(points).zip(&addends) {
            let digit = scalar.window_digit(window, width);
            if digit != 0 {
                let bucket = &mut buckets[digit - 1];
                *bucket = Some(match bucket {
                    Some(existing) => existing.add_cached(addend).to_point(),
                    None => *point,
                });
            }
        }
        // Σ d·bucket_d via the running sum: walking buckets from the
        // highest digit down, each bucket joins `running` once and
        // `running` joins `total` once per remaining step.
        let mut running: Option<Point> = None;
        let mut total: Option<Point> = None;
        for bucket in buckets.into_iter().rev() {
            if let Some(point) = bucket {
                running = Some(match running {
                    Some(sum) => sum.add(&point),
                    None => point,
                });
            }
            if let Some(sum) = &running {
                total = Some(match total {
                    Some(existing) => existing.add(sum),
                    None => *sum,
                });
            }
        }
        if let Some(window_total) = total {
            acc = Some(match acc {
                Some(point) => point.add(&window_total),
                None => window_total,
            });
        }
    }
    acc.unwrap_or(Point::IDENTITY)
}

#[cfg(test)]
mod tests {
    use super::super::ops_snapshot;
    use super::*;

    /// Deterministic "random" scalars from a cheap LCG over bytes.
    fn test_scalars(n: usize, seed: u8) -> Vec<Scalar> {
        (0..n)
            .map(|i| {
                let mut bytes = [0u8; 32];
                let mut state = seed.wrapping_add(i as u8) | 1;
                for byte in bytes.iter_mut() {
                    state = state.wrapping_mul(167).wrapping_add(13);
                    *byte = state;
                }
                Scalar::from_bytes_mod_order(&bytes)
            })
            .collect()
    }

    fn test_points(n: usize) -> Vec<Point> {
        // Distinct multiples of B.
        (0..n)
            .map(|i| Point::mul_base(&Scalar::from_u128(2 * i as u128 + 3)))
            .collect()
    }

    fn naive(scalars: &[Scalar], points: &[Point]) -> Point {
        let mut acc = Point::IDENTITY;
        for (scalar, point) in scalars.iter().zip(points) {
            acc = acc.add(&point.mul(scalar));
        }
        acc
    }

    #[test]
    fn empty_msm_is_identity() {
        assert!(msm(&[], &[]).is_identity());
        assert!(straus(&[], &[]).is_identity());
        assert!(pippenger(&[], &[]).is_identity());
    }

    #[test]
    fn both_engines_match_naive_sum() {
        for n in [1usize, 2, 5, 7, 17, 33] {
            let scalars = test_scalars(n, 7);
            let points = test_points(n);
            let expected = naive(&scalars, &points).compress();
            assert_eq!(straus(&scalars, &points).compress(), expected, "n = {n}");
            assert_eq!(pippenger(&scalars, &points).compress(), expected, "n = {n}");
            assert_eq!(msm(&scalars, &points).compress(), expected, "n = {n}");
        }
    }

    #[test]
    fn straus_matches_naive_sum_on_edge_scalars_and_torsion() {
        // 0, 1, L − 1, 2^252 and a 128-bit batch coefficient, over
        // prime-order points and one carrying an order-4 component.
        let minus_one = Scalar::ONE.neg();
        let scalars = [
            Scalar::ZERO,
            Scalar::ONE,
            minus_one,
            Scalar([0, 0, 0, 1 << 60]),
            Scalar::from_u128(u128::MAX),
            minus_one,
            test_scalars(1, 41)[0],
        ];
        let mut points = test_points(7);
        let order_four = Point::decompress(&[0u8; 32]).expect("y = 0 is on the curve");
        points[5] = points[5].add(&order_four);
        points[6] = order_four;
        for n in [1usize, 2, 7] {
            assert_eq!(
                straus(&scalars[..n], &points[..n]).compress(),
                naive(&scalars[..n], &points[..n]).compress(),
                "n = {n}"
            );
        }
        assert!(straus(&[Scalar::ZERO; 2], &points[..2]).is_identity());
    }

    #[test]
    fn engines_agree_on_zero_scalars() {
        let mut scalars = test_scalars(6, 3);
        scalars[0] = Scalar::ZERO;
        scalars[4] = Scalar::ZERO;
        let points = test_points(6);
        assert_eq!(
            straus(&scalars, &points).compress(),
            pippenger(&scalars, &points).compress()
        );
    }

    #[test]
    fn engine_dispatch_threshold() {
        assert_eq!(msm_engine(1), "straus");
        assert_eq!(msm_engine(PIPPENGER_THRESHOLD_POINTS - 1), "straus");
        assert_eq!(msm_engine(PIPPENGER_THRESHOLD_POINTS), "pippenger");
    }

    #[test]
    fn straus_amortizes_doublings() {
        // The whole point of the batch path: 16 points cost far fewer
        // group operations through one Straus pass than through 16
        // independent scalar multiplications.
        let scalars = test_scalars(16, 11);
        let points = test_points(16);

        let before = ops_snapshot();
        let batched = straus(&scalars, &points);
        let mid = ops_snapshot();
        let serial = naive(&scalars, &points);
        let after = ops_snapshot();

        assert_eq!(batched.compress(), serial.compress());
        let batched_ops = (mid - before).total();
        let serial_ops = (after - mid).total();
        assert!(
            batched_ops * 2 < serial_ops,
            "straus {batched_ops} ops vs serial {serial_ops}"
        );
        // And the shared chain pays one full-width doubling run, plus the
        // doubling each point's odd-multiples table starts from.
        assert!((mid - before).doubles <= 253 + 16);
    }

    #[test]
    fn pippenger_beats_straus_past_threshold() {
        let n = PIPPENGER_THRESHOLD_POINTS + 64;
        let scalars = test_scalars(n, 29);
        let points = test_points(n);

        let before = ops_snapshot();
        let s = straus(&scalars, &points);
        let mid = ops_snapshot();
        let p = pippenger(&scalars, &points);
        let after = ops_snapshot();

        assert_eq!(s.compress(), p.compress());
        assert!(
            (after - mid).total() < (mid - before).total(),
            "pippenger {:?} not below straus {:?}",
            after - mid,
            mid - before
        );
    }
}
