//! Property tests for the signature layer:
//!
//! * strict-encoding rejection — non-canonical ed25519 scalar and point
//!   encodings (`s ≥ L`, `y ≥ p`), small-order keys, and mixed-order
//!   (torsion-carrying) keys never verify;
//! * verdicts ⟺ tamper pattern — under arbitrary per-item tampering,
//!   the registry's verifier rejects exactly the tampered items.

use dagbft_crypto::curve::point::Point;
use dagbft_crypto::curve::scalar::Scalar;
use dagbft_crypto::ed25519;
use dagbft_crypto::{sha256, KeyRegistry, ServerId, Signature, SignedDigest};
use proptest::prelude::*;

/// L, little-endian: the ed25519 group order.
const L_BYTES: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10,
];

/// p = 2²⁵⁵ − 19, little-endian: the field order.
const P_BYTES: [u8; 32] = [
    0xed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
];

/// `a + b` over little-endian 32-byte integers; panics on 256-bit overflow.
fn add_le(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    let mut out = [0u8; 32];
    let mut carry = 0u16;
    for i in 0..32 {
        let sum = u16::from(a[i]) + u16::from(b[i]) + carry;
        out[i] = sum as u8;
        carry = sum >> 8;
    }
    assert_eq!(carry, 0, "sum fits 256 bits");
    out
}

fn keypair(seed_byte: u8) -> (ed25519::SecretKey, ed25519::PublicKey) {
    let mut seed = [0u8; 32];
    seed[0] = seed_byte;
    seed[1] = 0x5a;
    ed25519::keygen(&seed)
}

/// A small-order point: y = 0 encodes a point of order 4 (x = ±√−1).
fn small_order_point() -> Point {
    let point = Point::decompress(&[0u8; 32]).expect("y = 0 is on the curve");
    assert!(point.is_small_order());
    point
}

proptest! {
    /// Malleated signatures with s' = s + L (the same value mod L,
    /// non-canonically encoded) are rejected outright, for any message.
    #[test]
    fn non_canonical_s_rejected(message in proptest::collection::vec(any::<u8>(), 0..64), key in 0u8..8) {
        let (secret, public) = keypair(key);
        let mut signature = ed25519::sign(&secret, &message);
        prop_assert!(ed25519::verify(&public, &message, &signature));
        let s: [u8; 32] = signature[32..].try_into().unwrap();
        // s < L always, and L + s < 2²⁵⁶, so the malleation is encodable.
        signature[32..].copy_from_slice(&add_le(&s, &L_BYTES));
        prop_assert!(!ed25519::verify(&public, &message, &signature));
    }

    /// Non-canonical y encodings (y ≥ p) never decompress, so neither
    /// keys nor signature R components carrying them verify.
    #[test]
    fn non_canonical_y_rejected(offset in 0u8..19, sign_bit in any::<bool>()) {
        // y = p + offset ≡ offset (mod p), encoded non-canonically.
        let mut bytes = add_le(&P_BYTES, &{
            let mut small = [0u8; 32];
            small[0] = offset;
            small
        });
        if sign_bit {
            bytes[31] |= 0x80;
        }
        prop_assert!(Point::decompress(&bytes).is_none());
        prop_assert!(!ed25519::PublicKey::from_bytes(bytes).is_valid());
        // As a signature's R component it fails the strict parse too.
        let (secret, public) = keypair(1);
        let mut signature = ed25519::sign(&secret, b"m");
        signature[..32].copy_from_slice(&bytes);
        prop_assert!(!ed25519::verify(&public, b"m", &signature));
    }

    /// Keys that are small-order or carry a torsion component
    /// (mixed-order: a torsion-free point plus a small-order point)
    /// fail the strict parse and never verify anything.
    #[test]
    fn small_and_mixed_order_keys_rejected(key in 0u8..8, message in proptest::collection::vec(any::<u8>(), 0..32)) {
        let (secret, public) = keypair(key);
        let signature = ed25519::sign(&secret, &message);

        let small = small_order_point();
        let small_key = ed25519::PublicKey::from_bytes(small.compress());
        prop_assert!(!small_key.is_valid());
        prop_assert!(!ed25519::verify(&small_key, &message, &signature));

        // A + T for honest A and order-4 T: on-curve, canonical, not
        // small-order — only the torsion check catches it.
        let honest = Point::decompress(public.as_bytes()).expect("honest key decompresses");
        let mixed = honest.add(&small);
        prop_assert!(!mixed.is_small_order());
        prop_assert!(!mixed.is_torsion_free());
        let mixed_key = ed25519::PublicKey::from_bytes(mixed.compress());
        prop_assert!(!mixed_key.is_valid());
        prop_assert!(!ed25519::verify(&mixed_key, &message, &signature));
    }

    /// Scalars parse canonically iff they are < L.
    #[test]
    fn scalar_canonical_parse_boundary(low in any::<u64>()) {
        let mut below = [0u8; 32];
        below[..8].copy_from_slice(&low.to_le_bytes());
        prop_assert!(Scalar::from_bytes_canonical(&below).is_some());
        let above = add_le(&L_BYTES, &below);
        prop_assert!(Scalar::from_bytes_canonical(&above).is_none());
    }
}

/// How one item gets tampered with, chosen per item by proptest.
#[derive(Debug, Clone, Copy)]
enum Tamper {
    None,
    /// Replace the signature with all zeroes.
    Null,
    /// Flip one bit in the R half.
    FlipR,
    /// Flip one bit in the s half.
    FlipS,
    /// Claim the wrong builder for an honest signature.
    WrongClaim,
}

fn tamper_strategy() -> impl Strategy<Value = Tamper> {
    // Honest entries listed three times to bias toward mostly-valid
    // items, the realistic shape of a stream of blocks.
    prop_oneof![
        Just(Tamper::None),
        Just(Tamper::None),
        Just(Tamper::None),
        Just(Tamper::Null),
        Just(Tamper::FlipR),
        Just(Tamper::FlipS),
        Just(Tamper::WrongClaim),
    ]
}

/// Signs digest `i` for server `i` in `registry` and applies `pattern`.
fn tampered_items(registry: &KeyRegistry, pattern: &[Tamper]) -> Vec<SignedDigest> {
    pattern
        .iter()
        .enumerate()
        .map(|(i, tamper)| {
            let id = ServerId::new(i as u32);
            let digest = sha256((i as u64).to_le_bytes());
            let honest = registry.signer(id).unwrap().sign(digest.as_bytes());
            let (claimed, signature) = match tamper {
                Tamper::None => (id, honest),
                Tamper::Null => (id, Signature::NULL),
                Tamper::FlipR => {
                    let mut bytes = *honest.as_bytes();
                    bytes[3] ^= 0x40;
                    (id, Signature::from_bytes(bytes))
                }
                Tamper::FlipS => {
                    let mut bytes = *honest.as_bytes();
                    bytes[35] ^= 0x04;
                    (id, Signature::from_bytes(bytes))
                }
                Tamper::WrongClaim => (ServerId::new(((i + 1) % pattern.len()) as u32), honest),
            };
            SignedDigest {
                claimed,
                digest,
                signature,
            }
        })
        .collect()
}

proptest! {
    // ed25519 checks are slow enough that a handful of cases per run is
    // plenty; the per-item tamper choice still covers the product space
    // across runs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The verdict vector under arbitrary per-item tampering is forced by
    /// the tampering alone: exactly the untampered items verify.
    #[test]
    fn serial_verdicts_are_the_tamper_pattern(pattern in proptest::collection::vec(tamper_strategy(), 2..10)) {
        let registry = KeyRegistry::generate(pattern.len(), 7);
        let verifier = registry.verifier();
        let verdicts: Vec<bool> = tampered_items(&registry, &pattern)
            .iter()
            .map(|item| verifier.verify(item.claimed, item.digest.as_bytes(), &item.signature))
            .collect();
        let expected: Vec<bool> = pattern
            .iter()
            .map(|tamper| matches!(tamper, Tamper::None))
            .collect();
        prop_assert_eq!(verdicts, expected);
    }
}
