//! RFC 8032 ed25519 over the in-tree [`crate::curve`] arithmetic.
//!
//! Verification is *cofactored* — `[8]([s]B − [k]A − R) = 𝒪`.
//! Every valid key carries a radix-16 `FixedBase` table, built once
//! where the key is validated ([`keygen`], [`PublicKey::from_bytes`]),
//! and the basepoint one at radix 2⁸, so `[s]B − [k]A` is 32 additions
//! from the basepoint's table and 64 from the key's, with no doubling
//! chain: 103 group operations per check, 60 KiB per key and 480 KiB
//! for the basepoint. Signing is the basepoint's 32 additions.

use crate::curve::point::{FixedBase, Point};
use crate::curve::scalar::Scalar;
use crate::{sha512, Sha512};

/// The window width of a public key's `FixedBase`: 64 radix-16 windows
/// of eight odd multiples, 60 KiB and 768 group operations per key. A
/// key's table is built and held once per key, the basepoint's once per
/// process, so only the basepoint's is radix 2⁸.
const KEY_TABLE_WIDTH: usize = 4;

/// An ed25519 keypair's secret half, expanded per RFC 8032 §5.1.5.
#[derive(Clone)]
pub struct SecretKey {
    /// The clamped signing scalar (reduced mod L — equivalent under a
    /// basepoint of order L).
    scalar: Scalar,
    /// The second half of the SHA-512 key expansion, the deterministic
    /// nonce prefix.
    prefix: [u8; 32],
    /// The compressed public key, bound into every signature hash.
    public_bytes: [u8; 32],
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Ed25519SecretKey(…)")
    }
}

/// An ed25519 public key: the compressed encoding plus, when the
/// encoding is valid, the point's fixed-base table for verification.
#[derive(Debug, Clone)]
pub struct PublicKey {
    bytes: [u8; 32],
    /// `None` when the encoding is rejected (off-curve, non-canonical,
    /// small-order, or carrying torsion) — such a key verifies nothing.
    /// The table's recoding is sound only for torsion-free points, so
    /// only a key that passed the strict parse gets one.
    table: Option<FixedBase>,
}

impl PublicKey {
    /// Parses a compressed public key, applying the strict checks once:
    /// canonical encoding, on-curve, not small-order, and torsion-free
    /// (`[L]A = 𝒪`, the "mixed-order" rejection), then builds the valid
    /// key's table. Returns a key handle either way; an invalid key
    /// simply never verifies.
    pub fn from_bytes(bytes: [u8; 32]) -> PublicKey {
        let table = Point::decompress(&bytes)
            .filter(|p| !p.is_small_order() && p.is_torsion_free())
            .map(|p| FixedBase::new(&p, KEY_TABLE_WIDTH));
        PublicKey { bytes, table }
    }

    /// The compressed encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// True if the encoding passed the strict parse.
    pub fn is_valid(&self) -> bool {
        self.table.is_some()
    }
}

/// Derives a keypair from a 32-byte seed (RFC 8032 §5.1.5).
pub fn keygen(seed: &[u8; 32]) -> (SecretKey, PublicKey) {
    let h = sha512(seed);
    let mut scalar_bytes: [u8; 32] = h[..32].try_into().expect("32-byte half");
    scalar_bytes[0] &= 248;
    scalar_bytes[31] &= 127;
    scalar_bytes[31] |= 64;
    let scalar = Scalar::from_bytes_mod_order(&scalar_bytes);
    let prefix: [u8; 32] = h[32..].try_into().expect("32-byte half");
    let public_point = Point::mul_base(&scalar);
    let public_bytes = public_point.compress();
    (
        SecretKey {
            scalar,
            prefix,
            public_bytes,
        },
        // [scalar]B lies in B's prime-order subgroup: torsion-free.
        PublicKey {
            bytes: public_bytes,
            table: Some(FixedBase::new(&public_point, KEY_TABLE_WIDTH)),
        },
    )
}

/// Signs `message` (RFC 8032 §5.1.6): 64 bytes, `R ‖ s`.
pub fn sign(secret: &SecretKey, message: &[u8]) -> [u8; 64] {
    let mut nonce_hash = Sha512::new();
    nonce_hash.update(&secret.prefix);
    nonce_hash.update(message);
    let r = Scalar::from_bytes_wide(&nonce_hash.finalize());
    let r_bytes = Point::mul_base(&r).compress();

    let k = challenge(&r_bytes, &secret.public_bytes, message);
    let s = k.mul(&secret.scalar).add(&r);

    let mut signature = [0u8; 64];
    signature[..32].copy_from_slice(&r_bytes);
    signature[32..].copy_from_slice(&s.to_bytes());
    signature
}

/// The challenge scalar k = SHA-512(R ‖ A ‖ M) mod L.
fn challenge(r_bytes: &[u8; 32], public_bytes: &[u8; 32], message: &[u8]) -> Scalar {
    let mut hash = Sha512::new();
    hash.update(r_bytes);
    hash.update(public_bytes);
    hash.update(message);
    Scalar::from_bytes_wide(&hash.finalize())
}

/// Cofactored verification, `[8]([s]B − [k]A − R) = 𝒪` from the two
/// fixed-base tables, behind the strict parse: a valid key, `s`
/// canonical (< L), `R` canonically encoded, on-curve, and not
/// small-order.
pub fn verify(public: &PublicKey, message: &[u8], signature: &[u8; 64]) -> bool {
    let Some(key) = public.table.as_ref() else {
        return false;
    };
    let r_bytes: [u8; 32] = signature[..32].try_into().expect("32-byte half");
    let s_bytes: [u8; 32] = signature[32..].try_into().expect("32-byte half");
    let Some(s) = Scalar::from_bytes_canonical(&s_bytes) else {
        return false;
    };
    let Some(r_point) = Point::decompress(&r_bytes).filter(|r| !r.is_small_order()) else {
        return false;
    };
    let k = challenge(&r_bytes, &public.bytes, message);
    key.add_mul(&Point::mul_base(&s), &k.neg())
        .add(&r_point.neg())
        .mul_by_cofactor()
        .is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::point::basepoint;
    use crate::curve::testing::torsion_points;

    /// L, little-endian.
    const L_BYTES: [u8; 32] = [
        0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde,
        0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x10,
    ];

    fn hex_bytes<const N: usize>(hex: &str) -> [u8; N] {
        let mut out = [0u8; N];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex");
        }
        out
    }

    /// RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test_1() {
        let seed =
            hex_bytes::<32>("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
        let (secret, public) = keygen(&seed);
        assert_eq!(
            public.as_bytes(),
            &hex_bytes::<32>("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let signature = sign(&secret, b"");
        assert_eq!(
            signature,
            hex_bytes::<64>(
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
            )
        );
        assert!(verify(&public, b"", &signature));
        assert!(!verify(&public, b"x", &signature));
    }

    /// RFC 8032 §7.1 TEST 2 (one-byte message).
    #[test]
    fn rfc8032_test_2() {
        let seed =
            hex_bytes::<32>("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
        let (secret, public) = keygen(&seed);
        assert_eq!(
            public.as_bytes(),
            &hex_bytes::<32>("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let signature = sign(&secret, &[0x72]);
        assert_eq!(
            signature,
            hex_bytes::<64>(
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
            )
        );
        assert!(verify(&public, &[0x72], &signature));
    }

    /// RFC 8032 §7.1 TEST 3 (two-byte message).
    #[test]
    fn rfc8032_test_3() {
        let seed =
            hex_bytes::<32>("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
        let (secret, public) = keygen(&seed);
        assert_eq!(
            public.as_bytes(),
            &hex_bytes::<32>("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025")
        );
        let signature = sign(&secret, &[0xaf, 0x82]);
        assert_eq!(
            signature,
            hex_bytes::<64>(
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
            )
        );
        assert!(verify(&public, &[0xaf, 0x82], &signature));
    }

    fn test_keys(n: usize) -> Vec<(SecretKey, PublicKey)> {
        (0..n)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[0] = i as u8;
                seed[1] = 0xa5;
                keygen(&seed)
            })
            .collect()
    }

    #[test]
    fn non_canonical_s_rejected() {
        let (secret, public) = &test_keys(1)[0];
        let mut signature = sign(secret, b"msg");
        assert!(verify(public, b"msg", &signature));
        // s + L is the classic malleation; strict verification rejects
        // it outright.
        let s_plus_l = plus_l(&signature[32..].try_into().unwrap());
        signature[32..].copy_from_slice(&s_plus_l);
        assert!(!verify(public, b"msg", &signature));
    }

    /// `s + L` over little-endian bytes, for an `s < L`.
    fn plus_l(s: &[u8; 32]) -> [u8; 32] {
        let mut s_plus_l = [0u8; 32];
        let mut carry = 0u16;
        for (i, out) in s_plus_l.iter_mut().enumerate() {
            let sum = u16::from(s[i]) + u16::from(L_BYTES[i]) + carry;
            *out = sum as u8;
            carry = sum >> 8;
        }
        assert_eq!(carry, 0, "s + L fits 256 bits");
        s_plus_l
    }

    #[test]
    fn small_order_and_invalid_keys_never_verify() {
        let (secret, _) = &test_keys(1)[0];
        let signature = sign(secret, b"msg");
        // y = 0 encodes an order-4 point: strict key parse rejects it.
        let small = PublicKey::from_bytes([0u8; 32]);
        assert!(!small.is_valid());
        assert!(!verify(&small, b"msg", &signature));
        // An off-curve encoding is invalid too.
        let mut off = [0u8; 32];
        off[0] = 2;
        loop {
            if Point::decompress(&off).is_none() {
                break;
            }
            off[0] += 1;
        }
        assert!(!PublicKey::from_bytes(off).is_valid());
    }

    /// The six shapes a forgery takes against one key, each with its
    /// verdict: only the valid signature under its own key verifies.
    #[test]
    fn verify_gives_each_named_shape_its_verdict() {
        let keys = test_keys(2);
        let (secret, public) = &keys[0];
        let valid = sign(secret, b"msg");

        let mut forged = valid;
        forged[40] ^= 0x10;
        // R = the order-4 point y = 0: canonical, on-curve, small-order.
        let mut small_order_r = valid;
        small_order_r[..32].copy_from_slice(&[0u8; 32]);
        // s = L: the same scalar as 0, non-canonically encoded.
        let mut non_canonical_s = valid;
        non_canonical_s[32..].copy_from_slice(&L_BYTES);
        let invalid_key = PublicKey::from_bytes([0u8; 32]);
        assert!(!invalid_key.is_valid());
        let (_, other_public) = &keys[1];

        let cases: [(&str, &PublicKey, &[u8; 64], bool); 6] = [
            ("valid", public, &valid, true),
            ("forged", public, &forged, false),
            ("small-order R", public, &small_order_r, false),
            ("non-canonical s", public, &non_canonical_s, false),
            ("invalid key", &invalid_key, &valid, false),
            ("wrong key", other_public, &valid, false),
        ];
        for (name, public, signature, expected) in cases {
            assert_eq!(verify(public, b"msg", signature), expected, "{name}");
        }
    }

    /// Machine-independent floor: a serial check is 32 + 64 table
    /// additions, one for `−R` and three doublings each for `R`'s
    /// small-order check and the cofactor — no doubling chain.
    /// (`test_keys` has built the basepoint's table on this thread.)
    #[test]
    fn serial_verify_costs_at_most_105_operations() {
        for (secret, public) in test_keys(4) {
            let signature = sign(&secret, b"serial");
            let before = crate::curve::ops_snapshot();
            assert!(verify(&public, b"serial", &signature));
            let ops = crate::curve::ops_snapshot() - before;
            assert!(ops.total() <= 105, "{ops:?}");
            assert_eq!(ops.doubles, 6, "{ops:?}");
        }
    }

    /// Machine-independent floor: a signature is `[r]B` from the
    /// basepoint's radix-2⁸ table — 32 additions and no doubling.
    #[test]
    fn sign_costs_32_additions() {
        for (secret, _) in test_keys(4) {
            let before = crate::curve::ops_snapshot();
            let _ = sign(&secret, b"sign");
            let ops = crate::curve::ops_snapshot() - before;
            assert_eq!((ops.adds, ops.doubles), (32, 0), "{ops:?}");
        }
    }

    /// Test-only cofactored verification spelled out with the
    /// double-and-add oracle `Point::mul`, behind the same strict parse.
    fn oracle_verify(public: &[u8; 32], message: &[u8], signature: &[u8; 64]) -> bool {
        let Some(a) =
            Point::decompress(public).filter(|a| !a.is_small_order() && a.is_torsion_free())
        else {
            return false;
        };
        let r_bytes: [u8; 32] = signature[..32].try_into().expect("32-byte half");
        let s_bytes: [u8; 32] = signature[32..].try_into().expect("32-byte half");
        let Some(s) = Scalar::from_bytes_canonical(&s_bytes) else {
            return false;
        };
        let Some(r) = Point::decompress(&r_bytes).filter(|r| !r.is_small_order()) else {
            return false;
        };
        let k = challenge(&r_bytes, public, message);
        basepoint()
            .mul(&s)
            .add(&a.mul(&k).neg())
            .add(&r.neg())
            .mul_by_cofactor()
            .is_identity()
    }

    /// A signature by secret scalar `a` under the claimed key `public`,
    /// whose `R` carries the torsion component `r_torsion`: with
    /// `public` = \[a\]B + T and T of small order, the cofactored equation
    /// holds and only the strict parse can reject it.
    fn crafted_signature(
        a: &Scalar,
        public: &[u8; 32],
        r_torsion: &Point,
        message: &[u8],
    ) -> [u8; 64] {
        let nonce = Scalar::from_bytes_wide(&sha512(message));
        let r_bytes = Point::mul_base(&nonce).add(r_torsion).compress();
        let s = challenge(&r_bytes, public, message).mul(a).add(&nonce);
        let mut signature = [0u8; 64];
        signature[..32].copy_from_slice(&r_bytes);
        signature[32..].copy_from_slice(&s.to_bytes());
        signature
    }

    /// y = p + 1 ≡ 1 with the sign bit clear: the identity, encoded
    /// non-canonically.
    fn non_canonical_y() -> [u8; 32] {
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xee;
        bytes[31] = 0x7f;
        bytes
    }

    /// The adversarial shapes `tests/proptest_sig.rs` generates, around
    /// `secret`'s honest key: `key` 0–3 claims the honest, a small-order,
    /// a mixed-order (honest + `torsion`) or a non-canonical-`y` key;
    /// `tamper` 0–4 keeps the signature (whose `R` carries `torsion`),
    /// adds L to `s`, swaps `R` for a small-order or non-canonical-`y`
    /// encoding, or flips a bit of `s`.
    fn adversarial_case(
        secret: &SecretKey,
        key: usize,
        torsion: usize,
        tamper: usize,
        message: &[u8],
    ) -> ([u8; 32], [u8; 64]) {
        let torsion_point = torsion_points()[torsion];
        let (public, a) = match key {
            0 => (secret.public_bytes, secret.scalar),
            1 => (torsion_points()[2].compress(), Scalar::ZERO),
            2 => {
                let mixed = Point::mul_base(&secret.scalar).add(&torsion_point);
                (mixed.compress(), secret.scalar)
            }
            _ => (non_canonical_y(), secret.scalar),
        };
        let mut signature = crafted_signature(&a, &public, &torsion_point, message);
        match tamper {
            0 => {}
            1 => {
                let s_plus_l = plus_l(&signature[32..].try_into().expect("32-byte half"));
                signature[32..].copy_from_slice(&s_plus_l);
            }
            2 => signature[..32].copy_from_slice(&torsion_points()[4].compress()),
            3 => signature[..32].copy_from_slice(&non_canonical_y()),
            _ => signature[40] ^= 0x08,
        }
        (public, signature)
    }

    fn assert_verify_matches_oracle(
        public: [u8; 32],
        message: &[u8],
        signature: &[u8; 64],
    ) -> bool {
        let expected = oracle_verify(&public, message, signature);
        let key = PublicKey::from_bytes(public);
        assert_eq!(verify(&key, message, signature), expected);
        expected
    }

    /// Every key shape × every tamper, with R's torsion component none,
    /// of order 8 and of order 2: the only accepted signatures claim the
    /// honest key and are untampered — torsion in R included, since the
    /// check is cofactored.
    #[test]
    fn verify_matches_the_oracle_on_every_adversarial_shape() {
        let (secret, _) = &test_keys(1)[0];
        for key in 0..4 {
            for tamper in 0..5 {
                for torsion in [0, 1, 4] {
                    let (public, signature) = adversarial_case(secret, key, torsion, tamper, b"m");
                    let accepted = assert_verify_matches_oracle(public, b"m", &signature);
                    let honest = key == 0 || (key == 2 && torsion == 0);
                    assert_eq!(
                        accepted,
                        honest && tamper == 0,
                        "key {key}, tamper {tamper}, torsion {torsion}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn verify_matches_the_oracle_on_adversarial_inputs(
            key in 0usize..4,
            torsion in 0usize..8,
            tamper in 0usize..5,
            message in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..32),
        ) {
            let (secret, _) = &test_keys(1)[0];
            let (public, signature) = adversarial_case(secret, key, torsion, tamper, &message);
            assert_verify_matches_oracle(public, &message, &signature);
        }
    }

    /// The table is built where the key is validated, so a key that fails
    /// the strict parse has none.
    #[test]
    fn only_strictly_parsed_keys_carry_a_table() {
        let (secret, honest) = &test_keys(1)[0];
        assert!(honest.table.is_some());
        assert!(PublicKey::from_bytes(*honest.as_bytes()).table.is_some());
        let honest_point = Point::mul_base(&secret.scalar);
        let rejected = [
            ("small-order", torsion_points()[2].compress()),
            (
                "mixed-order",
                honest_point.add(&torsion_points()[1]).compress(),
            ),
            ("non-canonical y", non_canonical_y()),
            ("off-curve", {
                let mut bytes = [0u8; 32];
                bytes[0] = 2;
                while Point::decompress(&bytes).is_some() {
                    bytes[0] += 1;
                }
                bytes
            }),
        ];
        for (name, bytes) in rejected {
            let key = PublicKey::from_bytes(bytes);
            assert!(key.table.is_none() && !key.is_valid(), "{name}");
        }
    }
}
