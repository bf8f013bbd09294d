//! The ed25519 curve −x² + y² = 1 + d·x²y² over GF(2^255 − 19), in
//! extended twisted-Edwards coordinates (X : Y : Z : T), XY = ZT.
//!
//! Formulas are the standard unified add / dedicated double for a = −1
//! curves (the same shapes ref10 uses), split where the work splits:
//!
//! * an addition takes its second operand in *cached* form
//!   (`Cached`: Y+X, Y−X, Z, 2dT; `AffineCached` when Z = 1), so a
//!   table entry is prepared once and costs 8 (7) multiplications per use,
//!   and negating it is a swap;
//! * additions and doublings return a `Completed` point — the four
//!   factors before the final cross-multiplication — so a doubling that
//!   feeds another doubling never computes `T` (3 multiplications and 4
//!   squarings instead of 4 and 4);
//! * every scalar multiplication looks its addends up in one table type,
//!   `OddMultiples`, by signed odd digit.
//!
//! Decompression is strict RFC 8032 §5.1.3: non-canonical `y`, and
//! `x = 0` with the sign bit set, are rejected at parse time. Every
//! addition and doubling bumps the thread-local [`super::PointOps`]
//! counters.

use std::sync::OnceLock;

use super::fe::{Fe, SQRT_M1};
use super::scalar::Scalar;
use super::{count_add, count_double};

/// The curve constant d = −121665/121666.
pub(crate) const D: Fe = Fe([
    929_955_233_495_203,
    466_365_720_129_213,
    1_662_059_464_998_953,
    2_033_849_074_728_123,
    1_442_794_654_840_575,
]);

/// 2·d, which the cached forms fold into their `T` coordinate.
const D2: Fe = Fe([
    1_859_910_466_990_425,
    932_731_440_258_426,
    1_072_319_116_312_658,
    1_815_898_335_770_999,
    633_789_495_995_903,
]);

/// The RFC 8032 basepoint B (y = 4/5, x even).
static BASEPOINT: Point = Point {
    x: Fe([
        1_738_742_601_995_546,
        1_146_398_526_822_698,
        2_070_867_633_025_821,
        562_264_141_797_630,
        587_772_402_128_613,
    ]),
    y: Fe([
        1_801_439_850_948_184,
        1_351_079_888_211_148,
        450_359_962_737_049,
        900_719_925_474_099,
        1_801_439_850_948_198,
    ]),
    z: Fe::ONE,
    t: Fe([
        1_841_354_044_333_475,
        16_398_895_984_059,
        755_974_180_946_558,
        900_171_276_175_154,
        1_821_297_809_914_039,
    ]),
};

/// The RFC 8032 basepoint B.
pub fn basepoint() -> &'static Point {
    &BASEPOINT
}

/// A curve point in extended coordinates. Every coordinate is a reduced
/// [`Fe`] (never a bare [`Fe::add`] result), so the formulas below may
/// add two of them and still multiply.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared to be the second operand of additions:
/// (Y+X, Y−X, Z, 2dT).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// [`Cached`] for a point normalised to Z = 1, (y+x, y−x, 2dxy): one
/// multiplication fewer per addition, at the price of an inversion to
/// build — the form of the static basepoint tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AffineCached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

/// What [`OddMultiples::select`] needs of a table entry.
pub(crate) trait Addend: Copy {
    /// The same form of the negated point.
    fn neg(&self) -> Self;
}

impl Addend for Cached {
    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl Addend for AffineCached {
    fn neg(&self) -> AffineCached {
        AffineCached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

/// A sum or a double before its final cross-multiplication: the point
/// (E·F : G·H : F·G : E·H).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completed {
    e: Fe,
    f: Fe,
    g: Fe,
    h: Fe,
}

impl Completed {
    /// The neutral element, as the start of a doubling chain.
    pub(crate) const IDENTITY: Completed = Completed {
        e: Fe::ZERO,
        f: Fe::ONE,
        g: Fe::ONE,
        h: Fe::ONE,
    };

    /// The point in extended coordinates (4 multiplications).
    pub(crate) fn to_point(self) -> Point {
        Point {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
            t: self.e.mul(&self.h),
        }
    }

    /// Doubles without materialising `T`, which doubling does not read
    /// (3 multiplications + 4 squarings): the step of a doubling chain.
    pub(crate) fn double(&self) -> Completed {
        double_xyz(
            &self.e.mul(&self.f),
            &self.g.mul(&self.h),
            &self.f.mul(&self.g),
        )
    }
}

/// Dedicated doubling of (X : Y : Z), 4 squarings.
fn double_xyz(x: &Fe, y: &Fe, z: &Fe) -> Completed {
    count_double();
    let xx = x.square();
    let yy = y.square();
    let zz = z.square();
    let h = yy.add(&xx);
    let g = yy.sub(&xx);
    Completed {
        e: x.add(y).square().sub(&h),
        f: zz.add(&zz).sub(&g),
        g,
        h,
    }
}

impl Point {
    /// The neutral element (0, 1).
    pub const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// Unified point addition.
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.to_cached()).to_point()
    }

    /// The cached-addend form of this point (1 multiplication).
    pub(crate) fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&D2),
        }
    }

    /// `self + other` (4 multiplications, before [`Completed::to_point`]).
    pub(crate) fn add_cached(&self, other: &Cached) -> Completed {
        let zz = self.z.mul(&other.z);
        self.add_parts(&other.y_plus_x, &other.y_minus_x, &other.t2d, &zz)
    }

    /// `self + other` for an addend with Z = 1 (3 multiplications, before
    /// [`Completed::to_point`]).
    pub(crate) fn add_affine(&self, other: &AffineCached) -> Completed {
        self.add_parts(&other.y_plus_x, &other.y_minus_x, &other.xy2d, &self.z)
    }

    /// The unified addition formula over the addend's cached parts and
    /// `zz`, the product of the two Z coordinates.
    fn add_parts(&self, y_plus_x: &Fe, y_minus_x: &Fe, t2d: &Fe, zz: &Fe) -> Completed {
        count_add();
        let a = self.y.sub(&self.x).mul(y_minus_x);
        let b = self.y.add(&self.x).mul(y_plus_x);
        let c = self.t.mul(t2d);
        let dd = zz.add(zz);
        Completed {
            e: b.sub(&a),
            f: dd.sub(&c),
            g: dd.add(&c),
            h: b.add(&a),
        }
    }

    /// Dedicated doubling.
    pub fn double(&self) -> Point {
        double_xyz(&self.x, &self.y, &self.z).to_point()
    }

    /// Additive inverse.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// True for the neutral element.
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.sub(&self.z).is_zero()
    }

    /// Multiplies by the cofactor 8 (three doublings) — the projection
    /// that kills the torsion component before an identity check, making
    /// batch and serial verification agree on adversarial points.
    pub fn mul_by_cofactor(&self) -> Point {
        double_xyz(&self.x, &self.y, &self.z)
            .double()
            .double()
            .to_point()
    }

    /// True for the eight points of order dividing 8 (the torsion
    /// subgroup): exactly the points cofactored verification cannot
    /// distinguish from the identity.
    pub fn is_small_order(&self) -> bool {
        self.mul_by_cofactor().is_identity()
    }

    /// True if the point lies in the prime-order subgroup (\[L\]P = 𝒪) —
    /// the "mixed-order" check applied to public keys at registration.
    pub fn is_torsion_free(&self) -> bool {
        // Double-and-add over the bits of L itself (L is one more than
        // the largest representable Scalar, so this cannot go through a
        // scalar recoding).
        const L_LIMBS: [u64; 4] = [
            0x5812631a5cf5d3ed,
            0x14def9dea2f79cd6,
            0x0000000000000000,
            0x1000000000000000,
        ];
        let addend = self.to_cached();
        let mut acc = Completed::IDENTITY;
        for i in (0..253).rev() {
            acc = acc.double();
            if (L_LIMBS[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.to_point().add_cached(&addend);
            }
        }
        acc.to_point().is_identity()
    }

    /// Scalar multiplication by plain double-and-add over [`Point::add`]
    /// and [`Point::double`]: the oracle every table-driven routine is
    /// tested against.
    #[cfg(test)]
    pub(crate) fn mul(&self, scalar: &Scalar) -> Point {
        let mut acc = Point::IDENTITY;
        for i in (0..256).rev() {
            acc = acc.double();
            if (scalar.0[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// `[scalar]B` with no doublings: the scalar is recoded into 64 odd
    /// signed radix-16 digits (`Scalar::to_odd_radix16`) and digit `i`
    /// selects its addend from a lazily built table of the eight odd
    /// multiples of 16^i·B in affine cached form — 64 additions of 7
    /// multiplications each, the fixed-base speedup signing and key
    /// generation lean on.
    pub fn mul_base(scalar: &Scalar) -> Point {
        static WINDOWS: OnceLock<Vec<OddMultiples<AffineCached, 8>>> = OnceLock::new();
        let windows = WINDOWS.get_or_init(|| {
            let mut multiples = Vec::with_capacity(64 * 8);
            let mut window_base = BASEPOINT;
            for _ in 0..64 {
                multiples.extend(odd_multiples::<8>(&window_base));
                // Next window's base: 2^4 × the current one.
                window_base = window_base.double().double().double().double();
            }
            affine_cached(&multiples)
                .chunks_exact(8)
                .map(|window| OddMultiples(window.try_into().expect("chunks of 8")))
                .collect()
        });
        let mut acc = Point::IDENTITY;
        for (window, digit) in windows.iter().zip(scalar.to_odd_radix16()) {
            acc = acc.add_affine(&window.select(digit)).to_point();
        }
        acc
    }

    /// `[a_scalar]·a_point + [b_scalar]·B` in one variable-time
    /// signed-window pass — the verification equation's two
    /// multiplications on one shared doubling chain: width-5 NAF digits
    /// of `a_scalar` select among eight odd multiples of `a_point` built
    /// per call, width-8 NAF digits of `b_scalar` among a process-wide
    /// table of the 64 odd multiples B, 3B, …, 127B in affine cached form.
    /// About 253 doublings, 8 table-building operations and 43 + 29
    /// additions.
    pub fn double_base_mul(a_scalar: &Scalar, a_point: &Point, b_scalar: &Scalar) -> Point {
        static BASE_TABLE: OnceLock<OddMultiples<AffineCached, 64>> = OnceLock::new();
        let base_table = BASE_TABLE.get_or_init(|| {
            let multiples = affine_cached(&odd_multiples::<64>(&BASEPOINT));
            OddMultiples(multiples.try_into().expect("64 in, 64 out"))
        });
        let a_table = OddMultiples::<Cached, 8>::new(a_point);
        let a_naf = a_scalar.non_adjacent_form(5);
        let b_naf = b_scalar.non_adjacent_form(8);

        let Some(top) = (0..256).rev().find(|&i| a_naf[i] != 0 || b_naf[i] != 0) else {
            return Point::IDENTITY;
        };
        let mut acc = Completed::IDENTITY;
        for i in (0..=top).rev() {
            acc = acc.double();
            if a_naf[i] != 0 {
                acc = acc.to_point().add_cached(&a_table.select(a_naf[i]));
            }
            if b_naf[i] != 0 {
                acc = acc.to_point().add_affine(&base_table.select(b_naf[i]));
            }
        }
        acc.to_point()
    }

    /// Compresses to the 32-byte RFC 8032 encoding: `y` with the sign of
    /// `x` in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut bytes = y.to_bytes();
        if x.is_negative() {
            bytes[31] |= 0x80;
        }
        bytes
    }

    /// Strict RFC 8032 §5.1.3 decompression.
    ///
    /// Rejects non-canonical `y` (the masked value must be < p), square
    /// roots that do not exist (the encoding is not on the curve), and
    /// the non-canonical "negative zero" (`x = 0` with sign bit 1).
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7 == 1;
        let y = Fe::from_bytes(bytes);
        let mut masked = *bytes;
        masked[31] &= 0x7f;
        if y.to_bytes() != masked {
            return None; // non-canonical y
        }

        let yy = y.square();
        let u = yy.sub(&Fe::ONE);
        let v = yy.mul(&D).add(&Fe::ONE);
        // Candidate root x = u·v³·(u·v⁷)^((p−5)/8).
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vxx = v.mul(&x.square());
        if vxx.eq_fe(&u) {
            // x is the root.
        } else if vxx.eq_fe(&u.neg()) {
            x = x.mul(&SQRT_M1);
        } else {
            return None; // not a square: off the curve
        }
        if x.is_zero() && sign {
            return None; // non-canonical sign of zero
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }
}

/// The odd multiples [P, 3P, 5P, …, (2N − 1)P] of a point in extended
/// coordinates: one doubling and N − 1 additions.
fn odd_multiples<const N: usize>(point: &Point) -> [Point; N] {
    let step = point.double().to_cached();
    let mut multiples = [*point; N];
    for i in 1..N {
        multiples[i] = multiples[i - 1].add_cached(&step).to_point();
    }
    multiples
}

/// The odd multiples [P, 3P, 5P, …, (2N − 1)P] of a point as addends:
/// the one lookup table behind [`Point::mul_base`],
/// [`Point::double_base_mul`] and [`super::msm::straus`], indexed by
/// signed odd digit.
pub(crate) struct OddMultiples<A, const N: usize>([A; N]);

impl<A: Addend, const N: usize> OddMultiples<A, N> {
    /// The addend `[digit]P` for an odd `digit`, |digit| < 2N.
    pub(crate) fn select(&self, digit: i8) -> A {
        debug_assert!(digit & 1 == 1, "even digit {digit}");
        let entry = self.0[usize::from(digit.unsigned_abs()) / 2];
        if digit < 0 {
            entry.neg()
        } else {
            entry
        }
    }
}

impl<const N: usize> OddMultiples<Cached, N> {
    /// The table of `point`: N group operations and N multiplications.
    pub(crate) fn new(point: &Point) -> Self {
        OddMultiples(odd_multiples::<N>(point).map(Point::to_cached))
    }
}

/// Normalises points to Z = 1 and caches them, with one shared inversion
/// (Montgomery's trick: invert the product of all Z, then peel one factor
/// off per point, last to first).
fn affine_cached(points: &[Point]) -> Vec<AffineCached> {
    // before[i] = Z₀·…·Z_{i−1}.
    let mut before = Vec::with_capacity(points.len());
    let mut product = Fe::ONE;
    for point in points {
        before.push(product);
        product = product.mul(&point.z);
    }
    let mut inverse = product.invert(); // of Z₀·…·Zᵢ, as i walks down
    let mut entries: Vec<AffineCached> = points
        .iter()
        .zip(&before)
        .rev()
        .map(|(point, before)| {
            let zinv = inverse.mul(before);
            inverse = inverse.mul(&point.z);
            let x = point.x.mul(&zinv);
            let y = point.y.mul(&zinv);
            AffineCached {
                y_plus_x: y.add(&x),
                y_minus_x: y.sub(&x),
                xy2d: x.mul(&y).mul(&D2),
            }
        })
        .collect();
    entries.reverse();
    entries
}

#[cfg(test)]
mod tests {
    use super::super::testing::any_scalar;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants_satisfy_their_defining_equations() {
        // d = −121665/121666, 2d = d + d.
        assert!(D
            .mul(&Fe::from_u64(121_666))
            .add(&Fe::from_u64(121_665))
            .is_zero());
        assert!(D2.eq_fe(&D.add(&D)));
        // B is the point the RFC 8032 encoding names, normalised, T = XY.
        let mut encoding = [0x66u8; 32];
        encoding[0] = 0x58;
        let b = Point::decompress(&encoding).expect("basepoint encoding is canonical");
        assert!(BASEPOINT.x.eq_fe(&b.x) && BASEPOINT.y.eq_fe(&b.y));
        assert!(BASEPOINT.z.eq_fe(&Fe::ONE));
        assert!(BASEPOINT.t.eq_fe(&BASEPOINT.x.mul(&BASEPOINT.y)));
        for constant in [D, D2, BASEPOINT.x, BASEPOINT.y, BASEPOINT.t] {
            assert!(constant.0.iter().all(|&limb| limb < 1 << 51));
        }
    }

    #[test]
    fn basepoint_is_canonical_and_torsion_free() {
        let b = basepoint();
        // y = 4/5.
        let four_fifths = Fe::from_u64(4).mul(&Fe::from_u64(5).invert());
        assert!(b.y.mul(&b.z.invert()).eq_fe(&four_fifths));
        // Round-trips through compression.
        let mut expected = [0x66u8; 32];
        expected[0] = 0x58;
        assert_eq!(b.compress(), expected);
        // Lies in the prime-order subgroup and is not small-order.
        assert!(b.is_torsion_free());
        assert!(!b.is_small_order());
    }

    #[test]
    fn identity_laws() {
        let b = basepoint();
        assert!(Point::IDENTITY.is_identity());
        assert!(Point::IDENTITY.is_small_order());
        assert!(Point::IDENTITY.is_torsion_free());
        // B + 𝒪 = B, B − B = 𝒪.
        assert_eq!(b.add(&Point::IDENTITY).compress(), b.compress());
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn add_double_agree() {
        let b = basepoint();
        assert_eq!(b.add(b).compress(), b.double().compress());
        let four = b.double().double();
        assert_eq!(b.add(b).add(b).add(b).compress(), four.compress());
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let b = basepoint();
        let mut acc = *b;
        for k in 2u64..=20 {
            acc = acc.add(b);
            let via_mul = b.mul(&Scalar::from_u128(u128::from(k)));
            assert_eq!(via_mul.compress(), acc.compress(), "k = {k}");
            assert_eq!(
                Point::mul_base(&Scalar::from_u128(u128::from(k))).compress(),
                acc.compress(),
                "base k = {k}"
            );
        }
    }

    #[test]
    fn mul_distributes_over_scalar_add() {
        let a = Scalar::from_bytes_mod_order(&[0x35; 32]);
        let b = Scalar::from_bytes_mod_order(&[0x62; 32]);
        let left = Point::mul_base(&a.add(&b));
        let right = Point::mul_base(&a).add(&Point::mul_base(&b));
        assert_eq!(left.compress(), right.compress());
    }

    #[test]
    fn order_annihilates_basepoint_multiples() {
        // [L]([k]B) = 𝒪 for any k — the subgroup really has order L.
        for k in [1u128, 2, 7, 1 << 77] {
            let p = Point::mul_base(&Scalar::from_u128(k));
            assert!(p.is_torsion_free(), "k = {k}");
        }
    }

    #[test]
    fn decompress_rejects_non_canonical_y() {
        // y = p (≡ 0, but encoded non-canonically).
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xed;
        bytes[31] = 0x7f;
        assert!(Point::decompress(&bytes).is_none());
        // The canonical encoding of y = 0 decompresses fine (an order-4
        // point).
        let zero_y = [0u8; 32];
        let p = Point::decompress(&zero_y).expect("y = 0 is on the curve");
        assert!(p.is_small_order());
        assert!(!p.is_torsion_free());
    }

    #[test]
    fn decompress_rejects_negative_zero_x() {
        // y = 1 is the identity (x = 0); with the sign bit set the
        // encoding is non-canonical and must be rejected.
        let mut bytes = [0u8; 32];
        bytes[0] = 1;
        assert!(Point::decompress(&bytes).is_some());
        bytes[31] |= 0x80;
        assert!(Point::decompress(&bytes).is_none());
    }

    #[test]
    fn decompress_rejects_off_curve_y() {
        // Scan a few y values; at least one must be off-curve, and
        // decompress(compress(P)) must be P for those on it.
        let mut rejected = 0;
        for y in 2u8..30 {
            let mut bytes = [0u8; 32];
            bytes[0] = y;
            match Point::decompress(&bytes) {
                Some(p) => assert_eq!(p.compress(), bytes),
                None => rejected += 1,
            }
        }
        assert!(rejected > 0, "every candidate y decompressed");
    }

    #[test]
    fn ops_counters_track_work() {
        let before = super::super::ops_snapshot();
        let _ = basepoint().double();
        let _ = basepoint().add(basepoint());
        let after = super::super::ops_snapshot();
        let delta = after - before;
        assert_eq!(delta.doubles, 1);
        assert_eq!(delta.adds, 1);
        assert_eq!(delta.total(), 2);
    }

    /// 0, 1, 2, L − 1, L − 2, 2^252 and 2^128 − 1.
    fn edge_scalars() -> Vec<Scalar> {
        let minus_one = Scalar::ONE.neg();
        vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u128(2),
            minus_one,
            minus_one.add(&minus_one),
            Scalar([0, 0, 0, 1 << 60]),
            Scalar::from_u128(u128::MAX),
        ]
    }

    /// The eight torsion points, as multiples of a generator of order 8.
    fn torsion_points() -> Vec<Point> {
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

    /// Prime-order, mixed-order and pure-torsion points.
    fn double_base_points() -> Vec<Point> {
        let prime_order = [
            *basepoint(),
            Point::mul_base(&Scalar::from_u128(0xfeed_f00d)),
            Point::mul_base(&Scalar::ONE.neg()),
        ];
        let torsion = torsion_points();
        let mut points = prime_order.to_vec();
        points.extend(torsion.iter().skip(1).map(|t| prime_order[1].add(t)));
        points.extend(torsion);
        points
    }

    fn assert_double_base_matches_oracle(a_scalar: &Scalar, a_point: &Point, b_scalar: &Scalar) {
        let expected = a_point.mul(a_scalar).add(&basepoint().mul(b_scalar));
        assert_eq!(
            Point::double_base_mul(a_scalar, a_point, b_scalar).compress(),
            expected.compress(),
            "[{a_scalar:?}]{:?} + [{b_scalar:?}]B",
            a_point.compress()
        );
    }

    #[test]
    fn mul_base_matches_oracle_on_edge_scalars() {
        for scalar in edge_scalars() {
            assert_eq!(
                Point::mul_base(&scalar).compress(),
                basepoint().mul(&scalar).compress(),
                "{scalar:?}"
            );
        }
        assert!(Point::mul_base(&Scalar::ZERO).is_identity());
    }

    #[test]
    fn double_base_matches_oracle_on_edge_scalars_and_adversarial_points() {
        let edges = edge_scalars();
        for a_point in double_base_points() {
            for (i, a_scalar) in edges.iter().enumerate() {
                // Every pairing for the first point, a rotating one after.
                for (j, b_scalar) in edges.iter().enumerate() {
                    if a_point.compress() == basepoint().compress() || (i + j) % edges.len() == 1 {
                        assert_double_base_matches_oracle(a_scalar, &a_point, b_scalar);
                    }
                }
            }
        }
        assert!(Point::double_base_mul(&Scalar::ZERO, basepoint(), &Scalar::ZERO).is_identity());
    }

    #[test]
    fn select_negates_by_swapping() {
        let p = Point::mul_base(&Scalar::from_u128(77));
        let table = OddMultiples::<Cached, 8>::new(&p);
        let affine = OddMultiples::<AffineCached, 8>(
            affine_cached(&odd_multiples::<8>(&p))
                .try_into()
                .expect("8 in, 8 out"),
        );
        for digit in (-15i8..=15).step_by(2) {
            let magnitude = Scalar::from_u128(u128::from(digit.unsigned_abs()));
            let scalar = if digit < 0 {
                magnitude.neg()
            } else {
                magnitude
            };
            let expected = basepoint().add(&p.mul(&scalar)).compress();
            let via_cached = basepoint().add_cached(&table.select(digit)).to_point();
            let via_affine = basepoint().add_affine(&affine.select(digit)).to_point();
            assert_eq!(via_cached.compress(), expected, "digit {digit}");
            assert_eq!(via_affine.compress(), expected, "digit {digit}");
        }
    }

    #[test]
    fn doubling_chain_without_t_matches_full_doublings() {
        let p = Point::mul_base(&Scalar::from_u128(5));
        let chained = Completed::IDENTITY
            .to_point()
            .add_cached(&p.to_cached())
            .double()
            .double()
            .double()
            .to_point();
        assert_eq!(chained.compress(), p.double().double().double().compress());
        assert_eq!(chained.compress(), p.mul_by_cofactor().compress());
        // T is materialised consistently: XY = ZT.
        assert!(chained.x.mul(&chained.y).eq_fe(&chained.z.mul(&chained.t)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn mul_base_matches_oracle(scalar in any_scalar()) {
            prop_assert_eq!(
                Point::mul_base(&scalar).compress(),
                basepoint().mul(&scalar).compress()
            );
        }

        #[test]
        fn double_base_matches_oracle(
            a_scalar in any_scalar(),
            b_scalar in any_scalar(),
            point_scalar in any_scalar(),
            torsion in 0usize..8,
        ) {
            let a_point = Point::mul_base(&point_scalar).add(&torsion_points()[torsion]);
            assert_double_base_matches_oracle(&a_scalar, &a_point, &b_scalar);
        }
    }
}
