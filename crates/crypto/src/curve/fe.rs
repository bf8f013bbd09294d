//! The field GF(p), p = 2^255 − 19, in 5 × 51-bit limbs.
//!
//! Portable `u64`/`u128` arithmetic, no platform intrinsics, with the
//! carries done lazily: products of two 54-bit limbs leave room in a
//! `u128` for the ×19 wraparound and the five-term column sums, so
//! [`Fe::add`] never carries, [`Fe::sub`] carries each limb once into its
//! neighbour, and [`Fe::mul`] / [`Fe::square`] run one carry chain over
//! the wide columns. Inversion and the square-root exponentiation share
//! the 2^250 − 1 addition chain (254 squarings + 11–12 multiplications).

/// A field element, as five base-2^51 limbs, little-endian.
///
/// Limb invariant. An element is *reduced* when every limb is below
/// 2^52; [`Fe::from_bytes`], [`Fe::mul`], [`Fe::square`], [`Fe::sub`] and
/// [`Fe::neg`] return reduced elements. [`Fe::add`] does not carry: its
/// result is bounded by the sum of its inputs' bounds. `mul`, `square`
/// and `sub` accept limbs up to 2^54 — the sum of four reduced elements —
/// and `debug_assert!` it, so no caller may chain more than that many
/// additions before one of the three. Equality must go through
/// [`Fe::to_bytes`] — limb representations are not unique.
#[derive(Debug, Clone, Copy)]
pub struct Fe(pub(crate) [u64; 5]);

const MASK: u64 = (1 << 51) - 1;

/// The largest limb [`Fe::mul`], [`Fe::square`] and [`Fe::sub`] accept.
const MAX_INPUT_LIMB: u64 = 1 << 54;

/// 16·p in 51-bit limbs: added before subtracting to keep limbs
/// non-negative (the subtrahend's limbs are ≤ 2^54 < the corresponding
/// limb of 16·p).
const SIXTEEN_P: [u64; 5] = [(MASK - 18) << 4, MASK << 4, MASK << 4, MASK << 4, MASK << 4];

/// √−1 = 2^((p−1)/4). Decompression multiplies by it when the candidate
/// root squares to −u/v instead of u/v.
pub(crate) const SQRT_M1: Fe = Fe([
    1_718_705_420_411_056,
    234_908_883_556_509,
    2_233_514_472_574_048,
    2_117_202_627_021_982,
    765_476_049_583_133,
]);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// A small integer as a field element.
    pub fn from_u64(value: u64) -> Fe {
        Fe([value & MASK, value >> 51, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes, ignoring bit 255 (the sign bit in
    /// point encodings). The result is *not* guaranteed canonical —
    /// callers that must reject non-canonical encodings compare
    /// [`Fe::to_bytes`] of the result against the masked input.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |range: std::ops::Range<usize>| -> u64 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[range]);
            u64::from_le_bytes(word)
        };
        Fe([
            load(0..8) & MASK,
            (load(6..14) >> 3) & MASK,
            (load(12..20) >> 6) & MASK,
            (load(19..27) >> 1) & MASK,
            (load(24..32) >> 12) & MASK,
        ])
    }

    /// Canonical 32-byte little-endian encoding (fully reduced mod p;
    /// bit 255 is zero).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut limbs = self.0;
        carry_chain(&mut limbs);
        // q = 1 iff limbs ≥ p, detected by whether adding 19 carries all
        // the way out of bit 255.
        let mut q = (limbs[0].wrapping_add(19)) >> 51;
        q = (limbs[1].wrapping_add(q)) >> 51;
        q = (limbs[2].wrapping_add(q)) >> 51;
        q = (limbs[3].wrapping_add(q)) >> 51;
        q = (limbs[4].wrapping_add(q)) >> 51;
        // Subtract q·p = q·(2^255 − 19): add 19q then drop bit 255.
        limbs[0] = limbs[0].wrapping_add(19 * q);
        let mut carry = limbs[0] >> 51;
        limbs[0] &= MASK;
        for limb in limbs.iter_mut().skip(1) {
            *limb = limb.wrapping_add(carry);
            carry = *limb >> 51;
            *limb &= MASK;
        }
        // `carry` here is exactly q's bit 255, discarded mod 2^255.

        let mut out = [0u8; 32];
        let words = [
            limbs[0] | (limbs[1] << 51),
            (limbs[1] >> 13) | (limbs[2] << 38),
            (limbs[2] >> 26) | (limbs[3] << 25),
            (limbs[3] >> 39) | (limbs[4] << 12),
        ];
        for (i, word) in words.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Sum, limb by limb with no carry: the result's limbs are bounded by
    /// the sum of the inputs' bounds (see the invariant on [`Fe`]).
    pub fn add(&self, other: &Fe) -> Fe {
        Fe(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }

    /// Difference, computed as `self + 16p − other` to stay non-negative
    /// and then carried once per limb.
    pub fn sub(&self, other: &Fe) -> Fe {
        self.debug_assert_input();
        other.debug_assert_input();
        weak_reduce(std::array::from_fn(|i| {
            self.0[i] + SIXTEEN_P[i] - other.0[i]
        }))
    }

    /// Additive inverse.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Product, with the 2^255 ≡ 19 wraparound folded into the
    /// schoolbook columns.
    pub fn mul(&self, other: &Fe) -> Fe {
        self.debug_assert_input();
        other.debug_assert_input();
        let a = self.0;
        let b = other.0;

        // 19·2^54 < 2^59, and a column is at most 77 products of two
        // 54-bit limbs (one plain, four ×19): below 2^115.
        let b1_19 = 19 * b[1];
        let b2_19 = 19 * b[2];
        let b3_19 = 19 * b[3];
        let b4_19 = 19 * b[4];

        carry_wide([
            m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// Square: the 25 limb products of [`Fe::mul`] collapse to 15, each
    /// cross term computed once and doubled.
    pub fn square(&self) -> Fe {
        self.debug_assert_input();
        let a = self.0;
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];

        carry_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19)),
            m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19)),
            m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn square_times(&self, k: u32) -> Fe {
        let mut acc = *self;
        for _ in 0..k {
            acc = acc.square();
        }
        acc
    }

    /// `(self^(2^250 − 1), self^11)`: the addition chain inversion and
    /// the square-root exponentiation share. Exponents in the comments.
    fn pow_2_250_minus_1(&self) -> (Fe, Fe) {
        let x2 = self.square(); // 2
        let x9 = x2.square_times(2).mul(self); // 9
        let x11 = x9.mul(&x2); // 11
        let ones5 = x11.square().mul(&x9); // 2^5 − 1
        let ones10 = ones5.square_times(5).mul(&ones5); // 2^10 − 1
        let ones20 = ones10.square_times(10).mul(&ones10); // 2^20 − 1
        let ones40 = ones20.square_times(20).mul(&ones20); // 2^40 − 1
        let ones50 = ones40.square_times(10).mul(&ones10); // 2^50 − 1
        let ones100 = ones50.square_times(50).mul(&ones50); // 2^100 − 1
        let ones200 = ones100.square_times(100).mul(&ones100); // 2^200 − 1
        let ones250 = ones200.square_times(50).mul(&ones50); // 2^250 − 1
        (ones250, x11)
    }

    /// Multiplicative inverse (of zero: zero), via Fermat:
    /// `self^(p − 2)`, p − 2 = 2^255 − 21 = (2^250 − 1)·2^5 + 11.
    pub fn invert(&self) -> Fe {
        let (ones250, x11) = self.pow_2_250_minus_1();
        ones250.square_times(5).mul(&x11)
    }

    /// `self^((p − 5) / 8)` — the core of the square-root computation in
    /// point decompression (RFC 8032 §5.1.3).
    /// (p − 5) / 8 = 2^252 − 3 = (2^250 − 1)·2^2 + 1.
    pub fn pow_p58(&self) -> Fe {
        let (ones250, _) = self.pow_2_250_minus_1();
        ones250.square_times(2).mul(self)
    }

    /// `self^exp` for a 32-byte little-endian exponent, by bit-by-bit
    /// square-and-multiply over [`Fe::mul`] alone: the oracle the
    /// addition chains, [`Fe::square`] and the constants are tested
    /// against.
    #[cfg(test)]
    fn pow_bytes_le(&self, exp: &[u8; 32]) -> Fe {
        let mut acc = Fe::ONE;
        for byte in exp.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.mul(&acc);
                if (byte >> bit) & 1 == 1 {
                    acc = acc.mul(self);
                }
            }
        }
        acc
    }

    /// True if the canonical encoding is all zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// The "sign" of a field element per RFC 8032: the low bit of its
    /// canonical encoding.
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Canonical-encoding equality.
    pub fn eq_fe(&self, other: &Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    fn debug_assert_input(&self) {
        debug_assert!(
            self.0.iter().all(|&limb| limb <= MAX_INPUT_LIMB),
            "limb above 2^54: {:?}",
            self.0
        );
    }
}

fn m(x: u64, y: u64) -> u128 {
    u128::from(x) * u128::from(y)
}

/// Carries the five wide columns of a product into a reduced element:
/// one chain up the columns, the top carry folded back ×19 into limb 0,
/// and limb 0's spill handed to limb 1 (which stays below 2^51 + 2^13).
/// Columns are below 2^115, so the top carry is below 2^64/19.
fn carry_wide(mut c: [u128; 5]) -> Fe {
    const WIDE_MASK: u128 = MASK as u128;
    c[1] += c[0] >> 51;
    c[2] += c[1] >> 51;
    c[3] += c[2] >> 51;
    c[4] += c[3] >> 51;
    let mut limbs = c.map(|column| (column & WIDE_MASK) as u64);
    limbs[0] += 19 * (c[4] >> 51) as u64;
    limbs[1] += limbs[0] >> 51;
    limbs[0] &= MASK;
    Fe(limbs)
}

/// Carries every limb once into its neighbour, all five in parallel (the
/// top one ×19 into limb 0): limbs below 2^64 in, a reduced element out.
fn weak_reduce(limbs: [u64; 5]) -> Fe {
    Fe([
        (limbs[0] & MASK) + 19 * (limbs[4] >> 51),
        (limbs[1] & MASK) + (limbs[0] >> 51),
        (limbs[2] & MASK) + (limbs[1] >> 51),
        (limbs[3] & MASK) + (limbs[2] >> 51),
        (limbs[4] & MASK) + (limbs[3] >> 51),
    ])
}

/// The serial carry chain [`Fe::to_bytes`] starts from: every limb below
/// 2^51 afterwards, except a spill of a few units into limb 1.
fn carry_chain(limbs: &mut [u64; 5]) {
    let mut carry = limbs[0] >> 51;
    limbs[0] &= MASK;
    for limb in limbs.iter_mut().skip(1) {
        *limb += carry;
        carry = *limb >> 51;
        *limb &= MASK;
    }
    limbs[0] += 19 * carry;
    let spill = limbs[0] >> 51;
    limbs[0] &= MASK;
    limbs[1] += spill;
}

#[cfg(test)]
mod tests {
    use super::super::testing::any_bytes32;
    use super::*;
    use proptest::prelude::*;

    fn fe(value: u64) -> Fe {
        Fe::from_u64(value)
    }

    /// p − 1 as bytes, the largest canonical encoding.
    fn p_minus_one_bytes() -> [u8; 32] {
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xec;
        bytes[31] = 0x7f;
        bytes
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(fe(2).add(&fe(3)).to_bytes(), fe(5).to_bytes());
        assert_eq!(fe(7).mul(&fe(6)).to_bytes(), fe(42).to_bytes());
        assert_eq!(fe(10).sub(&fe(4)).to_bytes(), fe(6).to_bytes());
        assert!(fe(0).is_zero());
        assert!(!fe(1).is_zero());
    }

    #[test]
    fn wraparound_identities() {
        // p ≡ 0: encode p's byte pattern and check it reduces to zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        assert!(Fe::from_bytes(&p_bytes).is_zero());
        // −1 + 1 ≡ 0.
        let minus_one = Fe::from_bytes(&p_minus_one_bytes());
        assert!(minus_one.add(&Fe::ONE).is_zero());
        // (−1)·(−1) ≡ 1.
        assert!(minus_one.mul(&minus_one).eq_fe(&Fe::ONE));
    }

    #[test]
    fn to_bytes_is_canonical() {
        // 2^255 − 19 + 5 encodes the same as 5.
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xed + 5;
        bytes[31] = 0x7f;
        assert_eq!(Fe::from_bytes(&bytes).to_bytes(), fe(5).to_bytes());
        // Round-trip of a canonical value is the identity.
        let canon = p_minus_one_bytes();
        assert_eq!(Fe::from_bytes(&canon).to_bytes(), canon);
    }

    #[test]
    fn inverse_and_distributivity() {
        let a = fe(123_456_789);
        assert!(a.mul(&a.invert()).eq_fe(&Fe::ONE));
        let b = fe(987_654_321);
        let c = fe(31_337);
        // a(b + c) = ab + ac across limb-representation differences.
        let left = a.mul(&b.add(&c));
        let right = a.mul(&b).add(&a.mul(&c));
        assert!(left.eq_fe(&right));
    }

    #[test]
    fn sqrt_m1_is_two_to_the_quarter_order() {
        let minus_one = Fe::ZERO.sub(&Fe::ONE);
        assert!(SQRT_M1.mul(&SQRT_M1).eq_fe(&minus_one));
        // (p − 1) / 4 = 2^253 − 5.
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfb;
        exp[31] = 0x1f;
        assert!(fe(2).pow_bytes_le(&exp).eq_fe(&SQRT_M1));
    }

    #[test]
    fn negation_and_sign() {
        let a = fe(2);
        assert!(a.neg().add(&a).is_zero());
        // 2 is even, p − 2 is odd.
        assert!(!a.is_negative());
        assert!(a.neg().is_negative());
    }

    #[test]
    fn mul_matches_naive_double_and_add() {
        // Cross-check limb multiplication against repeated addition for a
        // few moderate operands.
        for (x, reps) in [(97u64, 1000u64), (123_456, 777), (1 << 40, 513)] {
            let base = fe(x);
            let mut sum = Fe::ZERO;
            for _ in 0..reps {
                sum = sum.add(&base);
            }
            assert!(base.mul(&fe(reps)).eq_fe(&sum), "{x} × {reps}");
        }
    }

    /// p − 2 and (p − 5) / 8, the exponents of `invert` and `pow_p58`.
    fn chain_exponents() -> ([u8; 32], [u8; 32]) {
        let mut p_minus_two = [0xffu8; 32];
        p_minus_two[0] = 0xeb;
        p_minus_two[31] = 0x7f;
        let mut p58 = [0xffu8; 32];
        p58[0] = 0xfd;
        p58[31] = 0x0f;
        (p_minus_two, p58)
    }

    /// The same value with every limb below 2^51.
    fn tight(x: &Fe) -> Fe {
        Fe::from_bytes(&x.to_bytes())
    }

    /// `square`, `invert` and `pow_p58` against `mul` and `pow_bytes_le`.
    fn assert_matches_oracles(x: &Fe) {
        let (p_minus_two, p58) = chain_exponents();
        assert!(x.square().eq_fe(&x.mul(x)), "square of {x:?}");
        assert!(
            x.invert().eq_fe(&x.pow_bytes_le(&p_minus_two)),
            "invert {x:?}"
        );
        assert!(x.pow_p58().eq_fe(&x.pow_bytes_le(&p58)), "pow_p58 {x:?}");
        if x.is_zero() {
            assert!(x.invert().is_zero());
        } else {
            assert!(x.mul(&x.invert()).eq_fe(&Fe::ONE));
        }
    }

    /// `mul`, `square`, `sub` and `neg` give a loose representation the
    /// answers they give the tight one.
    fn assert_loose_matches_tight(loose: &Fe, other: &Fe) {
        let t = tight(loose);
        assert!(loose.eq_fe(&t));
        assert!(loose.mul(other).eq_fe(&t.mul(other)));
        assert!(other.mul(loose).eq_fe(&t.mul(other)));
        assert!(loose.mul(loose).eq_fe(&t.mul(&t)));
        assert!(loose.square().eq_fe(&t.mul(&t)));
        assert!(loose.sub(other).eq_fe(&t.sub(other)));
        assert!(other.sub(loose).eq_fe(&other.sub(&t)));
        assert!(loose.neg().add(&t).is_zero());
        for out in [loose.mul(other), loose.square(), loose.sub(other)] {
            assert!(out.0.iter().all(|&limb| limb < 1 << 52), "{out:?}");
        }
    }

    #[test]
    fn extreme_elements_match_oracles() {
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let mut all_ones = [0xffu8; 32]; // 2^255 − 1 ≡ 18, non-canonical
        all_ones[31] = 0x7f;
        for x in [
            Fe::ZERO,
            Fe::ONE,
            Fe::from_bytes(&p_minus_one_bytes()),
            Fe::from_bytes(&p_bytes), // ≡ 0, non-canonical
            Fe::from_bytes(&all_ones),
            Fe([MASK; 5]),
            Fe([(1 << 52) - 1; 5]),
            Fe([MAX_INPUT_LIMB; 5]),
            Fe([MAX_INPUT_LIMB, 0, MAX_INPUT_LIMB, 0, MAX_INPUT_LIMB]),
        ] {
            assert_matches_oracles(&x);
            assert_loose_matches_tight(&x, &Fe([MAX_INPUT_LIMB; 5]));
            assert_loose_matches_tight(&x, &fe(3));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "limb above 2^54")]
    fn a_fifth_unreduced_addition_trips_the_limb_bound() {
        let x = Fe([(1 << 52) - 1; 5]);
        let five = x.add(&x).add(&x).add(&x).add(&x);
        let _ = five.square();
    }

    fn any_fe() -> impl Strategy<Value = Fe> {
        any_bytes32().prop_map(|bytes| Fe::from_bytes(&bytes))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_elements_match_oracles(x in any_fe()) {
            assert_matches_oracles(&x);
        }

        /// add → add → add carries nothing; sub, mul and square must take
        /// the sum of four reduced elements as it is.
        #[test]
        fn unreduced_sums_match_their_reduced_value(
            a in any_fe(), b in any_fe(), c in any_fe(), d in any_fe()
        ) {
            // Reduced but not tight: products and differences.
            let (a, b) = (a.mul(&c), b.sub(&d));
            let loose = a.add(&b).add(&c.add(&d));
            assert_loose_matches_tight(&loose, &a.add(&b));
            assert_loose_matches_tight(&loose.sub(&a).add(&loose.mul(&b)), &loose);
            assert_matches_oracles(&loose);
        }
    }
}
