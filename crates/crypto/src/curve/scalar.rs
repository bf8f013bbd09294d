//! Integers modulo the ed25519 basepoint order
//! L = 2^252 + 27742317777372353535851937790883648493.
//!
//! Four `u64` limbs, wide products reduced by Barrett reduction: a
//! signature reduces three 512-bit values and a check one, so reduction
//! sits on every signature's path. Binary long division, a bit at a
//! time, is the `#[cfg(test)]` oracle. Canonicality (`s < L`, RFC 8032's
//! strict check on the wire) is a first-class operation.

/// The group order `L`, as little-endian `u64` limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// μ = ⌊2^512 / L⌋, the Barrett constant of [`reduce_wide`], as
/// little-endian `u64` limbs (260 bits).
const MU: [u64; 5] = [
    0xed9ce5a30a2c131b,
    0x2106215d086329a7,
    0xffffffffffffffeb,
    0xffffffffffffffff,
    0x000000000000000f,
];

/// An integer mod L, always fully reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

impl Scalar {
    /// Zero.
    pub const ZERO: Scalar = Scalar([0; 4]);
    /// One.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Parses a canonical little-endian encoding, rejecting `s ≥ L`
    /// (RFC 8032 strict verification — malleable encodings never reach
    /// the arithmetic).
    pub fn from_bytes_canonical(bytes: &[u8; 32]) -> Option<Scalar> {
        let limbs = load_limbs(bytes);
        if less_than(&limbs, &L) {
            Some(Scalar(limbs))
        } else {
            None
        }
    }

    /// Parses 32 little-endian bytes, reducing mod L.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&load_limbs(bytes));
        reduce_wide(&wide)
    }

    /// Parses 64 little-endian bytes (a SHA-512 output), reducing mod L.
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut wide = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            wide[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        reduce_wide(&wide)
    }

    /// A 128-bit value as a scalar (batch-verification coefficients).
    pub fn from_u128(value: u128) -> Scalar {
        Scalar([value as u64, (value >> 64) as u64, 0, 0])
    }

    /// Canonical little-endian encoding.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Sum mod L.
    pub fn add(&self, other: &Scalar) -> Scalar {
        let mut limbs = self.0;
        // Both inputs < L < 2^253, so the sum fits 254 bits, and takes at
        // most one subtraction of L.
        add_in_place(&mut limbs, &other.0);
        if !less_than(&limbs, &L) {
            sub_in_place(&mut limbs, &L);
        }
        Scalar(limbs)
    }

    /// Additive inverse mod L.
    pub fn neg(&self) -> Scalar {
        if self.0 == [0; 4] {
            return Scalar::ZERO;
        }
        let mut limbs = L;
        sub_in_place(&mut limbs, &self.0);
        Scalar(limbs)
    }

    /// Product mod L.
    pub fn mul(&self, other: &Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        mul_into(&self.0, &other.0, &mut wide);
        reduce_wide(&wide)
    }

    /// True for the zero scalar.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// The width-`width` non-adjacent form: signed digits, little-endian,
    /// each zero or odd with |digit| < 2^(width − 1), any two non-zero
    /// digits at least `width` positions apart, and Σ digitᵢ·2^i equal to
    /// the scalar. About one digit in `width + 1` is non-zero, which is
    /// what a signed-window multiplication pays an addition for.
    pub fn non_adjacent_form(&self, width: usize) -> [i8; 256] {
        debug_assert!((2..=8).contains(&width));
        // A reduced scalar is below 2^253, so the last carry lands below
        // position 256.
        debug_assert!(self.0[3] >> 62 == 0);
        let mut naf = [0i8; 256];
        let mut pos = 0;
        let mut carry = 0;
        while pos < 256 {
            let window = carry + bits(&self.0, pos, width);
            if window & 1 == 0 {
                // Covers window == 2^width (carry into an all-ones
                // window): the carry rides on.
                pos += 1;
                continue;
            }
            if window < 1 << (width - 1) {
                carry = 0;
                naf[pos] = window as i8;
            } else {
                carry = 1;
                naf[pos] = (window as i16 - (1 << width)) as i8;
            }
            pos += width;
        }
        naf
    }

    /// 256/`width` signed radix-2^`width` digits, little-endian, all odd
    /// (±1, ±3, …, ±(2^width − 1); the top one positive), with
    /// Σ digitᵢ·2^(width·i) equal to the scalar if it is odd and to the
    /// scalar plus L if it is even — the same multiple of any point of
    /// order L, which is the only use: a [`super::point::FixedBase`]
    /// holds odd multiples only, and no digit is ever zero.
    ///
    /// `width` must divide 256 and be at most 8.
    pub(crate) fn to_odd_radix(self, width: usize) -> impl Iterator<Item = i16> {
        debug_assert!(width <= 8 && 256 % width == 0, "width {width}");
        let mut k = self.0;
        if k[0] & 1 == 0 {
            add_in_place(&mut k, &L); // odd, and below 2L < 2^254
        }
        // With k odd, digit i below the top is 2·(bits wi+1 … wi+w of k)
        // − (2^w − 1). The doubled windows are bits 1 … w(n−1) of k in
        // place; the −(2^w − 1)s sum to −(2^(w(n−1)) − 1), which restores
        // bit 0 and borrows 2^(w(n−1)) from the top digit: bits w(n−1)
        // and up, whose low bit the window below has already counted if
        // it was set and the borrow sets if it was not. k < 2^256, so the
        // top digit is below 2^w too.
        let top = 256 / width - 1;
        let offset = (1i16 << width) - 1;
        (0..=top).map(move |i| {
            if i < top {
                2 * bits(&k, width * i + 1, width) as i16 - offset
            } else {
                bits(&k, width * top, width) as i16 | 1
            }
        })
    }

    /// Digit `index` of the base-2^width decomposition (width ≤ 16) —
    /// the bucket selector for Pippenger windows.
    pub fn window_digit(&self, index: usize, width: usize) -> usize {
        bits(&self.0, index * width, width) as usize
    }
}

/// Bits `start .. start + width` of a 256-bit integer (width ≤ 16; bits
/// past 255 read as zero).
fn bits(limbs: &[u64; 4], start: usize, width: usize) -> u64 {
    debug_assert!(width <= 16);
    if start >= 256 {
        return 0;
    }
    let limb = start / 64;
    let shift = start % 64;
    let mut value = limbs[limb] >> shift;
    if shift + width > 64 && limb + 1 < 4 {
        value |= limbs[limb + 1] << (64 - shift);
    }
    value & ((1 << width) - 1)
}

fn load_limbs(bytes: &[u8; 32]) -> [u64; 4] {
    let mut limbs = [0u64; 4];
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    limbs
}

fn less_than(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

fn add_in_place(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut carry = 0u64;
    for i in 0..4 {
        let (sum, o1) = a[i].overflowing_add(b[i]);
        let (sum, o2) = sum.overflowing_add(carry);
        a[i] = sum;
        carry = u64::from(o1) + u64::from(o2);
    }
    debug_assert_eq!(carry, 0, "addition overflow");
}

fn sub_in_place(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = 0u64;
    for i in 0..4 {
        let (diff, b1) = a[i].overflowing_sub(b[i]);
        let (diff, b2) = diff.overflowing_sub(borrow);
        a[i] = diff;
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
}

/// Schoolbook product of two little-endian limb strings into `out`, which
/// is `a.len() + b.len()` limbs long.
fn mul_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    out.fill(0);
    for (i, &a_limb) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &b_limb) in b.iter().enumerate() {
            let acc = out[i + j] as u128 + (a_limb as u128) * (b_limb as u128) + carry;
            out[i + j] = acc as u64;
            carry = acc >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
}

/// Reduces a 512-bit value x mod L by Barrett reduction (base 2^64, four
/// limbs): the quotient estimate q = ⌊⌊x / 2^192⌋·μ / 2^320⌋ falls short
/// of ⌊x / L⌋ by at most 2, so x − q·L lies below 3L < 2^255 — exact when
/// computed mod 2^256 — and takes at most two subtractions of L.
fn reduce_wide(wide: &[u64; 8]) -> Scalar {
    let mut q_mu = [0u64; 10];
    mul_into(&wide[3..], &MU, &mut q_mu);
    let mut q_l = [0u64; 9];
    mul_into(&q_mu[5..], &L, &mut q_l);
    let mut r = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (diff, b1) = wide[i].overflowing_sub(q_l[i]);
        let (diff, b2) = diff.overflowing_sub(u64::from(borrow));
        r[i] = diff;
        borrow = b1 || b2;
    }
    for _ in 0..2 {
        if !less_than(&r, &L) {
            sub_in_place(&mut r, &L);
        }
    }
    debug_assert!(less_than(&r, &L));
    Scalar(r)
}

/// Reduces a 512-bit value mod L by binary long division: scan bits from
/// the top, shifting into an accumulator that is reduced whenever it
/// reaches L — the oracle [`reduce_wide`] is tested against.
#[cfg(test)]
fn reduce_wide_by_division(wide: &[u64; 8]) -> Scalar {
    let mut acc = [0u64; 4];
    for i in (0..512).rev() {
        // acc = (acc << 1) | bit_i; acc < 2L < 2^254 so the shift never
        // overflows 256 bits.
        let mut carry = (wide[i / 64] >> (i % 64)) & 1;
        for limb in acc.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
        debug_assert_eq!(carry, 0);
        if !less_than(&acc, &L) {
            sub_in_place(&mut acc, &L);
        }
    }
    Scalar(acc)
}

#[cfg(test)]
mod tests {
    use super::super::testing::{any_bytes32, any_scalar, edge_scalars};
    use super::*;
    use proptest::prelude::*;

    fn l_minus_one() -> Scalar {
        let mut limbs = L;
        sub_in_place(&mut limbs, &[1, 0, 0, 0]);
        Scalar(limbs)
    }

    #[test]
    fn canonical_boundary() {
        // L − 1 parses; L and L + 1 do not.
        assert!(Scalar::from_bytes_canonical(&l_minus_one().to_bytes()).is_some());
        let l_bytes = Scalar(L).to_bytes();
        assert!(Scalar::from_bytes_canonical(&l_bytes).is_none());
        let mut l_plus = L;
        l_plus[0] += 1;
        assert!(Scalar::from_bytes_canonical(&Scalar(l_plus).to_bytes()).is_none());
        // …but mod-order parsing folds them back.
        assert_eq!(Scalar::from_bytes_mod_order(&l_bytes), Scalar::ZERO);
    }

    #[test]
    fn add_wraps_at_l() {
        let a = l_minus_one();
        assert_eq!(a.add(&Scalar::ONE), Scalar::ZERO);
        assert_eq!(a.add(&Scalar::ZERO), a);
        // (L − 1) + (L − 1) = L − 2 mod L.
        let mut expect = L;
        sub_in_place(&mut expect, &[2, 0, 0, 0]);
        assert_eq!(a.add(&a), Scalar(expect));
    }

    #[test]
    fn neg_is_additive_inverse() {
        for value in [0u128, 1, 2, 0xffff_ffff_ffff_ffff, 1 << 100] {
            let s = Scalar::from_u128(value);
            assert_eq!(s.add(&s.neg()), Scalar::ZERO, "{value}");
        }
        assert_eq!(Scalar::ZERO.neg(), Scalar::ZERO);
    }

    #[test]
    fn mul_small_values_and_identities() {
        let six = Scalar::from_u128(6);
        let seven = Scalar::from_u128(7);
        assert_eq!(six.mul(&seven), Scalar::from_u128(42));
        assert_eq!(six.mul(&Scalar::ONE), six);
        assert_eq!(six.mul(&Scalar::ZERO), Scalar::ZERO);
        // (L − 1)² = 1 mod L (since L − 1 ≡ −1).
        assert_eq!(l_minus_one().mul(&l_minus_one()), Scalar::ONE);
    }

    #[test]
    fn wide_reduction_matches_mul() {
        // 2^256 mod L via from_bytes_wide equals ((2^128 mod L)²) mod L.
        let mut wide_bytes = [0u8; 64];
        wide_bytes[32] = 1; // 2^256
        let direct = Scalar::from_bytes_wide(&wide_bytes);
        let half = {
            let mut bytes = [0u8; 64];
            bytes[16] = 1; // 2^128
            Scalar::from_bytes_wide(&bytes)
        };
        assert_eq!(direct, half.mul(&half));
    }

    /// The 512-bit value `high`·2^256 + `low`.
    fn wide_of(low: [u64; 4], high: [u64; 4]) -> [u64; 8] {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&low);
        wide[4..].copy_from_slice(&high);
        wide
    }

    /// `q`·L + `r` as a 512-bit value, for a `q` whose product with L
    /// leaves room for `r`.
    fn multiple_of_l_plus(q: &[u64; 5], r: &[u64; 4]) -> [u64; 8] {
        let mut product = [0u64; 9];
        mul_into(q, &L, &mut product);
        assert_eq!(product[8], 0, "q·L fits 512 bits");
        let mut carry = 0u128;
        for (i, limb) in product.iter_mut().enumerate().take(8) {
            let acc = *limb as u128 + r.get(i).copied().map_or(0, u128::from) + carry;
            *limb = acc as u64;
            carry = acc >> 64;
        }
        assert_eq!(carry, 0, "q·L + r fits 512 bits");
        product[..8].try_into().expect("eight limbs")
    }

    fn assert_reduces_like_division(wide: &[u64; 8]) {
        assert_eq!(
            reduce_wide(wide),
            reduce_wide_by_division(wide),
            "{wide:016x?}"
        );
    }

    #[test]
    fn mu_is_the_barrett_quotient() {
        // μ·L < 2^512 < (μ + 1)·L (L is odd), i.e. 2^512 − μ·L lies in
        // (0, L).
        let mut mu_l = [0u64; 9];
        mul_into(&MU, &L, &mut mu_l);
        assert_eq!(mu_l[8], 0, "μ·L < 2^512");
        let mut gap = [0u64; 8]; // 2^512 − μ·L, which is mod 2^512 the negation
        let mut borrow = false;
        for (limb, &subtrahend) in gap.iter_mut().zip(&mu_l) {
            let (diff, b1) = 0u64.overflowing_sub(subtrahend);
            let (diff, b2) = diff.overflowing_sub(u64::from(borrow));
            *limb = diff;
            borrow = b1 || b2;
        }
        assert!(gap[4..].iter().all(|&limb| limb == 0), "gap < 2^256");
        let gap: [u64; 4] = gap[..4].try_into().expect("four limbs");
        assert!(less_than(&gap, &L), "gap < L: {gap:016x?}");
        assert!(gap != [0; 4]);
    }

    #[test]
    fn barrett_matches_long_division_on_edge_inputs() {
        let below_l = l_minus_one().0;
        let mut l_plus_one = L;
        l_plus_one[0] += 1;
        let mut mu_minus_one = MU;
        mu_minus_one[0] -= 1;
        let edges = [
            wide_of([0; 4], [0; 4]),
            wide_of([1, 0, 0, 0], [0; 4]),
            wide_of(below_l, [0; 4]),
            wide_of(L, [0; 4]),
            wide_of(l_plus_one, [0; 4]),
            wide_of([0, 0, 0, 1 << 60], [0; 4]),
            wide_of([0; 4], [1, 0, 0, 0]),
            wide_of([u64::MAX; 4], [0; 4]),
            wide_of([u64::MAX; 4], [u64::MAX; 4]),
            wide_of([0; 4], L),
            // q·L + r at the top of the range: μ = ⌊2^512 / L⌋ is the
            // largest quotient there is.
            multiple_of_l_plus(&MU, &[0; 4]),
            multiple_of_l_plus(&MU, &[1, 0, 0, 0]),
            multiple_of_l_plus(&mu_minus_one, &below_l),
            multiple_of_l_plus(&mu_minus_one, &[0; 4]),
        ];
        for wide in &edges {
            assert_reduces_like_division(wide);
        }
        assert_eq!(reduce_wide(&edges[3]), Scalar::ZERO);
        assert_eq!(reduce_wide(&edges[4]), Scalar::ONE);
        assert_eq!(reduce_wide(&edges[10]), Scalar::ZERO);
        assert_eq!(reduce_wide(&edges[12]), l_minus_one());
    }

    #[test]
    fn barrett_matches_long_division_on_random_inputs() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xba77e77);
        for _ in 0..100_000 {
            let mut wide = [0u64; 8];
            for limb in wide.iter_mut() {
                *limb = rng.next_u64();
            }
            assert_reduces_like_division(&wide);
        }
    }

    proptest! {
        #[test]
        fn scalar_arithmetic_matches_long_division(
            a in any_bytes32(),
            b in any_bytes32(),
        ) {
            // Keygen's clamped scalars: 2^254 ≤ s < 2^255, a multiple of 8.
            let mut clamped = a;
            clamped[0] &= 248;
            clamped[31] &= 127;
            clamped[31] |= 64;
            for bytes in [a, b, clamped] {
                let limbs = load_limbs(&bytes);
                prop_assert_eq!(
                    Scalar::from_bytes_mod_order(&bytes),
                    reduce_wide_by_division(&wide_of(limbs, [0; 4]))
                );
            }
            let x = Scalar::from_bytes_mod_order(&a);
            let y = Scalar::from_bytes_mod_order(&clamped);
            let mut product = [0u64; 8];
            mul_into(&x.0, &y.0, &mut product);
            prop_assert_eq!(x.mul(&y), reduce_wide_by_division(&product));
            let mut wide_bytes = [0u8; 64];
            wide_bytes[..32].copy_from_slice(&a);
            wide_bytes[32..].copy_from_slice(&b);
            prop_assert_eq!(
                Scalar::from_bytes_wide(&wide_bytes),
                reduce_wide_by_division(&wide_of(load_limbs(&a), load_limbs(&b)))
            );
        }
    }

    /// Σ digitᵢ·2^(i·radix_bits) mod 2^256 — exact for the recodings
    /// under test, whose sums are non-negative and below 2^256.
    fn recompose(digits: &[i16], radix_bits: usize) -> [u64; 4] {
        let mut acc = [0u64; 4];
        for &digit in digits.iter().rev() {
            for i in (0..4).rev() {
                let below = if i == 0 {
                    0
                } else {
                    acc[i - 1] >> (64 - radix_bits)
                };
                acc[i] = (acc[i] << radix_bits) | below;
            }
            // Sign-extend the digit to 256 bits and add, wrapping.
            let extension = if digit < 0 { u64::MAX } else { 0 };
            let mut carry = false;
            for (i, limb) in acc.iter_mut().enumerate() {
                let word = if i == 0 {
                    digit as i64 as u64
                } else {
                    extension
                };
                let (sum, o1) = limb.overflowing_add(word);
                let (sum, o2) = sum.overflowing_add(u64::from(carry));
                *limb = sum;
                carry = o1 || o2;
            }
        }
        acc
    }

    fn assert_naf_recodes(limbs: [u64; 4], width: usize) {
        let naf = Scalar(limbs).non_adjacent_form(width);
        assert_eq!(recompose(&naf.map(i16::from), 1), limbs, "width {width}");
        for (i, &digit) in naf.iter().enumerate() {
            if digit == 0 {
                continue;
            }
            assert!(digit & 1 == 1, "even digit {digit} at {i}");
            assert!(
                i32::from(digit).abs() < 1 << (width - 1),
                "digit {digit} at {i}"
            );
            let gap = &naf[i + 1..(i + width).min(256)];
            assert!(gap.iter().all(|&d| d == 0), "adjacent digits after {i}");
        }
    }

    /// The widths `FixedBase` tables are built at: the keys' and the
    /// basepoint's.
    const ODD_RADIX_WIDTHS: [usize; 2] = [4, 8];

    fn assert_odd_radix_recodes(scalar: Scalar, width: usize) {
        let digits: Vec<i16> = scalar.to_odd_radix(width).collect();
        let mut expected = scalar.0;
        if expected[0] & 1 == 0 {
            add_in_place(&mut expected, &L);
        }
        assert_eq!(digits.len(), 256 / width);
        assert_eq!(recompose(&digits, width), expected, "width {width}");
        let max = (1 << width) - 1;
        assert!(
            digits
                .iter()
                .all(|d| d & 1 == 1 && (-max..=max).contains(d)),
            "width {width}: {digits:?}"
        );
    }

    /// 0, 1, L − 1, 2^252 and 2^253 − 1: no digits, one digit, the
    /// largest reduced scalar, a lone top bit, and the longest carry run
    /// the 256 positions can hold.
    const EDGE_LIMBS: [[u64; 4]; 5] = [
        [0; 4],
        [1, 0, 0, 0],
        [L[0] - 1, L[1], L[2], L[3]],
        [0, 0, 0, 1 << 60],
        [u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 3],
    ];

    #[test]
    fn recodings_recompose_on_edge_scalars() {
        for limbs in EDGE_LIMBS {
            assert_naf_recodes(limbs, 5);
            assert_naf_recodes(limbs, 8);
        }
        for scalar in edge_scalars() {
            for width in ODD_RADIX_WIDTHS {
                assert_odd_radix_recodes(scalar, width);
            }
        }
    }

    proptest! {
        #[test]
        fn recodings_recompose_on_random_scalars(scalar in any_scalar()) {
            assert_naf_recodes(scalar.0, 5);
            assert_naf_recodes(scalar.0, 8);
            for width in ODD_RADIX_WIDTHS {
                assert_odd_radix_recodes(scalar, width);
            }
        }
    }

    #[test]
    fn window_digits_recompose() {
        let s = l_minus_one();
        for width in [4usize, 6, 8, 12] {
            let windows = 256usize.div_ceil(width);
            let mut acc = Scalar::ZERO;
            let base = Scalar::from_u128(1 << width);
            for w in (0..windows).rev() {
                acc = acc.mul(&base);
                acc = acc.add(&Scalar::from_u128(s.window_digit(w, width) as u128));
            }
            assert_eq!(acc, s, "width {width}");
        }
    }
}
