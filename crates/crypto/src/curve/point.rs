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
//! * every scalar multiplication looks its addends up among odd
//!   multiples [P, 3P, 5P, …] by signed odd digit (`select`);
//! * a point of order L whose multiples are wanted many times carries a
//!   `FixedBase`: 256/w windows of odd multiples, so a multiplication is
//!   256/w additions with no doubling chain. The basepoint's table is
//!   radix 2⁸ (32 additions), a registered public key's radix 16 (64),
//!   and `[s]B − [k]A` in a signature check is 96.
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
/// build — the form of [`FixedBase`] entries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AffineCached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

/// What [`select`] needs of a table entry.
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

    /// `[scalar]B` from the basepoint's `FixedBase` table, built on
    /// first use: 32 additions and no doublings, the fixed-base speedup
    /// signing, key generation and every signature check lean on.
    pub fn mul_base(scalar: &Scalar) -> Point {
        static TABLE: OnceLock<FixedBase> = OnceLock::new();
        TABLE
            .get_or_init(|| FixedBase::new(&BASEPOINT, BASEPOINT_TABLE_WIDTH))
            .mul(scalar)
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

/// Fills `out` with the odd multiples [P, 3P, 5P, …] of `point` in
/// extended coordinates: one doubling and `out.len() − 1` additions.
fn odd_multiples(point: &Point, out: &mut [Point]) {
    let step = point.double().to_cached();
    out[0] = *point;
    for i in 1..out.len() {
        out[i] = out[i - 1].add_cached(&step).to_point();
    }
}

/// The addend `[digit]P` from P's odd multiples [P, 3P, 5P, …], for an
/// odd `digit` with |digit| < 2·`multiples.len()`: the one lookup behind
/// [`OddMultiples`] and [`FixedBase`].
fn select<A: Addend>(multiples: &[A], digit: i16) -> A {
    debug_assert!(digit & 1 == 1, "even digit {digit}");
    let entry = multiples[usize::from(digit.unsigned_abs()) / 2];
    if digit < 0 {
        entry.neg()
    } else {
        entry
    }
}

/// The odd multiples [P, 3P, 5P, …, (2N − 1)P] of a point as cached
/// addends: the per-point table of [`super::msm::straus`], indexed by
/// signed odd digit.
#[derive(Clone)]
pub(crate) struct OddMultiples<const N: usize>([Cached; N]);

impl<const N: usize> OddMultiples<N> {
    /// The table of `point`: N group operations and N multiplications.
    pub(crate) fn new(point: &Point) -> Self {
        let mut multiples = [*point; N];
        odd_multiples(point, &mut multiples);
        OddMultiples(multiples.map(Point::to_cached))
    }

    /// The addend `[digit]P` for an odd `digit`, |digit| < 2N.
    pub(crate) fn select(&self, digit: i8) -> Cached {
        select(&self.0, digit.into())
    }
}

/// The window width of the basepoint's [`FixedBase`]: 32 windows of 128
/// odd multiples, 480 KiB built once per process, so `[s]B` is 32
/// additions — half a signature check's table work and all of a
/// signature's.
const BASEPOINT_TABLE_WIDTH: usize = 8;

/// How many entries a [`FixedBase`] build normalises with one shared
/// inversion: a radix-16 table's 512 in one, the basepoint's 4 096 in
/// eight, so the build's transient stays under 200 KiB.
const NORMALISE_BATCH: usize = 512;

/// A fixed-base table of a point P of order L at window width w (4 or
/// 8): for each of the 256/w radix-2^w windows i, the 2^(w − 1) odd
/// multiples of 2^(w·i)·P in affine cached form — 512 entries of three
/// field elements (60 KiB) at w = 4, 4 096 (480 KiB) at w = 8.
///
/// A multiplication recodes its scalar into 256/w odd signed digits
/// (`Scalar::to_odd_radix`) and adds one entry per window: 256/w
/// additions of 7 multiplications each and no doublings. The recoding
/// turns an even scalar k into k + L, which is the same multiple only
/// because \[L\]P = 𝒪 — so a table is built only for a torsion-free point:
/// the basepoint, and an ed25519 public key once its strict parse passed.
#[derive(Clone)]
pub(crate) struct FixedBase {
    point: Point,
    width: usize,
    /// Window-major: window i's odd multiples of 2^(w·i)·P.
    entries: Vec<AffineCached>,
}

impl FixedBase {
    /// The width-`width` table of `point`, which must lie in the
    /// prime-order subgroup (see the type's docs): 256/w × (2^(w − 1) + w)
    /// group operations — 768 at w = 4, 4 352 at w = 8 — and one
    /// inversion per [`NORMALISE_BATCH`] entries.
    pub(crate) fn new(point: &Point, width: usize) -> FixedBase {
        assert!(matches!(width, 4 | 8), "table width {width}");
        let per_window = 1 << (width - 1);
        let windows = 256 / width;
        let windows_per_batch = (NORMALISE_BATCH / per_window).min(windows);
        let mut batch = vec![*point; windows_per_batch * per_window];
        let mut entries = Vec::with_capacity(windows * per_window);
        let mut window_base = *point;
        for _ in 0..windows / windows_per_batch {
            for window in batch.chunks_exact_mut(per_window) {
                odd_multiples(&window_base, window);
                // Next window's base: 2^width × the current one.
                for _ in 0..width {
                    window_base = window_base.double();
                }
            }
            entries.extend(affine_cached(&batch));
        }
        FixedBase {
            point: *point,
            width,
            entries,
        }
    }

    /// The point P this table multiplies.
    pub(crate) fn point(&self) -> &Point {
        &self.point
    }

    /// `[scalar]P`.
    pub(crate) fn mul(&self, scalar: &Scalar) -> Point {
        self.add_mul(&Point::IDENTITY, scalar)
    }

    /// `acc + [scalar]P`: one addition per window.
    pub(crate) fn add_mul(&self, acc: &Point, scalar: &Scalar) -> Point {
        let windows = self.entries.chunks_exact(1 << (self.width - 1));
        let mut acc = *acc;
        for (window, digit) in windows.zip(scalar.to_odd_radix(self.width)) {
            acc = acc.add_affine(&select(window, digit)).to_point();
        }
        acc
    }
}

impl std::fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A summary: the entries are thousands of field elements.
        write!(
            f,
            "FixedBase({} windows × {})",
            256 / self.width,
            1 << (self.width - 1)
        )
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
    use super::super::testing::{any_scalar, edge_scalars, torsion_points};
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

    /// The widths tables are built at: a key's and the basepoint's.
    const TABLE_WIDTHS: [usize; 2] = [4, BASEPOINT_TABLE_WIDTH];

    fn assert_fixed_base_matches_oracle(point: &Point, scalars: &[Scalar]) {
        let acc = Point::mul_base(&Scalar::from_u128(0xacc));
        for width in TABLE_WIDTHS {
            let table = FixedBase::new(point, width);
            for scalar in scalars {
                let expected = point.mul(scalar);
                assert_eq!(
                    table.mul(scalar).compress(),
                    expected.compress(),
                    "width {width}: [{scalar:?}]{:?}",
                    point.compress()
                );
                assert_eq!(
                    table.add_mul(&acc, scalar).compress(),
                    acc.add(&expected).compress(),
                    "width {width}: acc + [{scalar:?}]{:?}",
                    point.compress()
                );
            }
        }
    }

    #[test]
    fn fixed_base_matches_oracle_on_edge_scalars() {
        let prime_order = [
            *basepoint(),
            Point::mul_base(&Scalar::from_u128(0xfeed_f00d)),
            Point::mul_base(&Scalar::ONE.neg()),
        ];
        for point in prime_order {
            assert_fixed_base_matches_oracle(&point, &edge_scalars());
        }
    }

    /// Why only torsion-free points get a table: for P = Q + T with T of
    /// order 4, an even scalar's `+L` recoding adds \[L\]T = T ≠ 𝒪.
    #[test]
    fn fixed_base_of_a_mixed_order_point_is_wrong_on_even_scalars() {
        let mixed = Point::mul_base(&Scalar::from_u128(0xfeed_f00d)).add(&torsion_points()[2]);
        assert!(!mixed.is_torsion_free());
        let odd = Scalar::from_u128(3);
        let even = Scalar::from_u128(4);
        for width in TABLE_WIDTHS {
            let table = FixedBase::new(&mixed, width);
            assert_eq!(table.mul(&odd).compress(), mixed.mul(&odd).compress());
            assert_ne!(table.mul(&even).compress(), mixed.mul(&even).compress());
        }
    }

    #[test]
    fn fixed_base_debug_is_a_summary() {
        let rendered = format!("{:?}", FixedBase::new(basepoint(), 4));
        assert_eq!(rendered, "FixedBase(64 windows × 8)");
        let rendered = format!("{:?}", FixedBase::new(basepoint(), 8));
        assert_eq!(rendered, "FixedBase(32 windows × 128)");
    }

    /// A multiplication is one addition per window and no doubling; a
    /// build is 256/w × (2^(w − 1) + w) operations, which for the
    /// basepoint land on whichever thread first asks for `[s]B`.
    #[test]
    fn fixed_base_costs_one_addition_per_window() {
        for (width, build_ops) in [(4, 768), (8, 4352)] {
            let before = super::super::ops_snapshot();
            let table = FixedBase::new(basepoint(), width);
            let built = super::super::ops_snapshot();
            let _ = table.mul(&Scalar::ONE.neg());
            let after = super::super::ops_snapshot();
            assert_eq!((built - before).total(), build_ops, "width {width}");
            let mul = after - built;
            assert_eq!((mul.adds, mul.doubles), (256 / width as u64, 0));
        }
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
    fn select_negates_by_swapping() {
        let p = Point::mul_base(&Scalar::from_u128(77));
        let table = OddMultiples::<8>::new(&p);
        let mut multiples = [p; 8];
        odd_multiples(&p, &mut multiples);
        let affine = affine_cached(&multiples);
        for digit in (-15i8..=15).step_by(2) {
            let magnitude = Scalar::from_u128(u128::from(digit.unsigned_abs()));
            let scalar = if digit < 0 {
                magnitude.neg()
            } else {
                magnitude
            };
            let expected = basepoint().add(&p.mul(&scalar)).compress();
            let via_cached = basepoint().add_cached(&table.select(digit)).to_point();
            let via_affine = basepoint()
                .add_affine(&select(&affine, digit.into()))
                .to_point();
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
        fn fixed_base_matches_oracle(
            scalar in any_scalar(),
            point_scalar in any_scalar(),
            even in any::<bool>(),
        ) {
            // Half the cases clear bit 0 so the `+L` recoding runs.
            let scalar = if even { Scalar([scalar.0[0] & !1, scalar.0[1], scalar.0[2], scalar.0[3]]) } else { scalar };
            assert_fixed_base_matches_oracle(&Point::mul_base(&point_scalar), &[scalar]);
        }
    }
}
