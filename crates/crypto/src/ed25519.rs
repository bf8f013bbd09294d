//! RFC 8032 ed25519 over the in-tree [`crate::curve`] arithmetic, with
//! genuinely amortized batch verification.
//!
//! Serial verification is *cofactored* — `[8]([s]B − [k]A − R) = 𝒪`,
//! with `[s]B − [k]A` one signed-window double-base pass
//! ([`Point::double_base_mul`]) — and batch verification checks one
//! random-linear-combination equation
//!
//! ```text
//! [8]( [Σ zᵢsᵢ]B − Σ [zᵢ]Rᵢ − Σ [zᵢkᵢ]Aᵢ ) = 𝒪
//! ```
//!
//! via a single multi-scalar multiplication ([`crate::curve::msm`]:
//! Straus for wave-sized batches, Pippenger past the width threshold).
//! Cofactoring both sides makes the two paths agree on *every* input,
//! adversarial torsion points included, so batch-accept ⟺ every item
//! serial-accepts (up to the 2⁻¹²⁸ linear-combination slack). A batch of
//! one *is* the serial equation and is verified as such.
//!
//! The coefficients `zᵢ` are derived deterministically from the whole
//! batch transcript (SHA-512, Fiat–Shamir style) rather than sampled:
//! whole-simulation runs must stay reproducible, and the 128-bit
//! soundness bound does not rely on secrecy, only on the zᵢ being fixed
//! before the equation is evaluated. When the combined equation fails,
//! a binary split pinpoints the forged items: subranges whose equation
//! holds are accepted wholesale, failing singletons resolve to their
//! exact serial verdict — which is how "exactly the tampered block
//! rejected, dependents stranded" survives any batch grouping.

use crate::curve::msm::msm;
use crate::curve::point::Point;
use crate::curve::scalar::Scalar;
use crate::{sha512, Sha512};

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
/// encoding is valid, the decompressed point cached for verification.
#[derive(Debug, Clone)]
pub struct PublicKey {
    bytes: [u8; 32],
    /// `None` when the encoding is rejected (off-curve, non-canonical,
    /// small-order, or carrying torsion) — such a key verifies nothing.
    point: Option<Point>,
}

impl PublicKey {
    /// Parses a compressed public key, applying the strict checks once:
    /// canonical encoding, on-curve, not small-order, and torsion-free
    /// (`[L]A = 𝒪`, the "mixed-order" rejection). Returns a key handle
    /// either way; an invalid key simply never verifies.
    pub fn from_bytes(bytes: [u8; 32]) -> PublicKey {
        let point =
            Point::decompress(&bytes).filter(|p| !p.is_small_order() && p.is_torsion_free());
        PublicKey { bytes, point }
    }

    /// The compressed encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// True if the encoding passed the strict parse.
    pub fn is_valid(&self) -> bool {
        self.point.is_some()
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
        PublicKey {
            bytes: public_bytes,
            point: Some(public_point),
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

/// A signature parsed into its verification inputs.
struct ParsedSignature {
    r_point: Point,
    r_bytes: [u8; 32],
    s: Scalar,
}

/// Strict parse: `s` canonical (< L), `R` canonically encoded, on-curve,
/// and not small-order.
fn parse_signature(public: &PublicKey, signature: &[u8; 64]) -> Option<ParsedSignature> {
    public.point?;
    let r_bytes: [u8; 32] = signature[..32].try_into().expect("32-byte half");
    let s_bytes: [u8; 32] = signature[32..].try_into().expect("32-byte half");
    let s = Scalar::from_bytes_canonical(&s_bytes)?;
    let r_point = Point::decompress(&r_bytes).filter(|r| !r.is_small_order())?;
    Some(ParsedSignature {
        r_point,
        r_bytes,
        s,
    })
}

/// Cofactored serial verification: `[8]([s]B − [k]A − R) = 𝒪`.
pub fn verify(public: &PublicKey, message: &[u8], signature: &[u8; 64]) -> bool {
    let Some(parsed) = parse_signature(public, signature) else {
        return false;
    };
    let a_point = public.point.expect("parse checked key validity");
    let k = challenge(&parsed.r_bytes, &public.bytes, message);
    verify_equation(&parsed, &a_point, &k)
}

fn verify_equation(parsed: &ParsedSignature, a_point: &Point, k: &Scalar) -> bool {
    // [k](−A) + [s]B + (−R), cofactored.
    Point::double_base_mul(k, &a_point.neg(), &parsed.s)
        .add(&parsed.r_point.neg())
        .mul_by_cofactor()
        .is_identity()
}

/// One batch item: the claim "`signature` was produced over `message`
/// by the holder of `public`".
pub struct BatchItem<'a> {
    /// The claimed signer's public key.
    pub public: &'a PublicKey,
    /// The signed message.
    pub message: &'a [u8],
    /// The signature under test.
    pub signature: &'a [u8; 64],
}

/// An item that survived the strict parse, with its challenge scalar and
/// linear-combination coefficient precomputed.
struct PreparedItem {
    index: usize,
    a_point: Point,
    parsed: ParsedSignature,
    k: Scalar,
    z: Scalar,
}

/// Verifies a whole batch through one multi-scalar multiplication,
/// returning per-item verdicts in input order.
///
/// Items failing the strict parse (invalid key, non-canonical `s` or
/// `R`, small-order `R`) are rejected up front without touching the
/// equation. The rest are combined with deterministic 128-bit
/// coefficients; if the combined equation fails, a binary split isolates
/// the forged items so the verdict vector always equals the serial one.
pub fn verify_batch(items: &[BatchItem<'_>]) -> Vec<bool> {
    if let [item] = items {
        // With z odd the singleton combined equation *is* the cofactored
        // serial check, so skip the transcript, z and the third point.
        return vec![verify(item.public, item.message, item.signature)];
    }
    let mut verdicts = vec![false; items.len()];
    let mut prepared = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let Some(parsed) = parse_signature(item.public, item.signature) else {
            continue;
        };
        let k = challenge(&parsed.r_bytes, &item.public.bytes, item.message);
        prepared.push(PreparedItem {
            index,
            a_point: item.public.point.expect("parse checked key validity"),
            parsed,
            k,
            z: Scalar::ZERO, // assigned below from the batch transcript
        });
    }

    // Deterministic coefficients, Fiat–Shamir style over the whole batch:
    // fixed before the equation is evaluated, reproducible across runs.
    let mut transcript = Sha512::new();
    transcript.update(b"dagbft.ed25519.batch.v1");
    for item in items {
        transcript.update(item.public.as_bytes());
        transcript.update(item.signature);
        transcript.update(&(item.message.len() as u64).to_le_bytes());
        transcript.update(item.message);
    }
    let transcript_digest = transcript.finalize();
    for item in prepared.iter_mut() {
        let mut hash = Sha512::new();
        hash.update(&transcript_digest);
        hash.update(&(item.index as u64).to_le_bytes());
        let mut z_bytes: [u8; 16] = hash.finalize()[..16].try_into().expect("16 bytes");
        // Odd ⇒ non-zero mod L ⇒ a singleton equation is exactly the
        // cofactored serial check.
        z_bytes[0] |= 1;
        item.z = Scalar::from_u128(u128::from_le_bytes(z_bytes));
    }

    resolve_range(&prepared, &mut verdicts);
    verdicts
}

/// Accepts `range` wholesale if its combined equation holds; otherwise
/// splits in half and recurses, bottoming out at exact singleton checks.
fn resolve_range(range: &[PreparedItem], verdicts: &mut [bool]) {
    if range.is_empty() {
        return;
    }
    if range_equation_holds(range) {
        for item in range {
            verdicts[item.index] = true;
        }
        return;
    }
    if range.len() == 1 {
        // A failing singleton equation with z ≢ 0 (mod L) *is* the
        // cofactored serial verdict; the verdict stays false.
        return;
    }
    let (left, right) = range.split_at(range.len() / 2);
    resolve_range(left, verdicts);
    resolve_range(right, verdicts);
}

fn range_equation_holds(range: &[PreparedItem]) -> bool {
    let mut scalars = Vec::with_capacity(2 * range.len() + 1);
    let mut points = Vec::with_capacity(2 * range.len() + 1);
    let mut b_coefficient = Scalar::ZERO;
    for item in range {
        b_coefficient = b_coefficient.add(&item.z.mul(&item.parsed.s));
        scalars.push(item.z);
        points.push(item.parsed.r_point.neg());
        scalars.push(item.z.mul(&item.k));
        points.push(item.a_point.neg());
    }
    scalars.push(b_coefficient);
    points.push(*crate::curve::point::basepoint());
    msm(&scalars, &points).mul_by_cofactor().is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = Scalar::from_bytes_canonical(&signature[32..].try_into().unwrap()).unwrap();
        let mut s_plus_l = [0u8; 32];
        let mut carry = 0u16;
        for (i, out) in s_plus_l.iter_mut().enumerate() {
            let sum = u16::from(s.to_bytes()[i]) + u16::from(L_BYTES[i]) + carry;
            *out = sum as u8;
            carry = sum >> 8;
        }
        assert_eq!(carry, 0, "s + L fits 256 bits");
        signature[32..].copy_from_slice(&s_plus_l);
        assert!(!verify(public, b"msg", &signature));
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

    #[test]
    fn batch_accepts_all_valid() {
        let keys = test_keys(8);
        let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 5]).collect();
        let signatures: Vec<[u8; 64]> = keys
            .iter()
            .zip(&messages)
            .map(|((secret, _), message)| sign(secret, message))
            .collect();
        let items: Vec<BatchItem<'_>> = keys
            .iter()
            .zip(&messages)
            .zip(&signatures)
            .map(|(((_, public), message), signature)| BatchItem {
                public,
                message,
                signature,
            })
            .collect();
        assert_eq!(verify_batch(&items), vec![true; 8]);
    }

    #[test]
    fn batch_pinpoints_forgeries_exactly() {
        let keys = test_keys(9);
        let messages: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 3]).collect();
        let mut signatures: Vec<[u8; 64]> = keys
            .iter()
            .zip(&messages)
            .map(|((secret, _), message)| sign(secret, message))
            .collect();
        // Forge item 2 (flip a bit in R), null item 5, swap item 7's
        // signature with item 8's.
        signatures[2][0] ^= 1;
        signatures[5] = [0u8; 64];
        signatures.swap(7, 8);
        let items: Vec<BatchItem<'_>> = keys
            .iter()
            .zip(&messages)
            .zip(&signatures)
            .map(|(((_, public), message), signature)| BatchItem {
                public,
                message,
                signature,
            })
            .collect();
        let expected: Vec<bool> = items
            .iter()
            .map(|item| verify(item.public, item.message, item.signature))
            .collect();
        assert_eq!(
            expected,
            vec![true, true, false, true, true, false, true, false, false]
        );
        assert_eq!(verify_batch(&items), expected);
    }

    /// A batch of one short-circuits to [`verify`]; the same item inside a
    /// pair goes through the combined equation. All three entries must
    /// agree, adversarial items included.
    #[test]
    fn batch_of_one_is_the_serial_verdict() {
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

        let (companion_secret, companion_public) = &keys[1];
        let companion_signature = sign(companion_secret, b"other");
        let companion = || BatchItem {
            public: companion_public,
            message: b"other",
            signature: &companion_signature,
        };

        let cases: [(&str, &PublicKey, &[u8; 64], bool); 6] = [
            ("valid", public, &valid, true),
            ("forged", public, &forged, false),
            ("small-order R", public, &small_order_r, false),
            ("non-canonical s", public, &non_canonical_s, false),
            ("invalid key", &invalid_key, &valid, false),
            ("wrong key", companion_public, &valid, false),
        ];
        for (name, public, signature, expected) in cases {
            let item = || BatchItem {
                public,
                message: b"msg",
                signature,
            };
            assert_eq!(verify(public, b"msg", signature), expected, "{name}");
            assert_eq!(verify_batch(&[item()]), vec![expected], "{name}");
            assert_eq!(
                verify_batch(&[item(), companion()]),
                vec![expected, true],
                "{name}"
            );
        }
    }

    /// The machine-independent cost floors, in curve group operations
    /// (thread-local counters, so parallel tests do not disturb them): a
    /// serial verification fits the one-pass double-base multiplication
    /// (~337 operations; the generic MSM over the same two points takes
    /// ~360), and one wave-wide MSM at least halves the operations per
    /// item, on the Straus and on the Pippenger side of the threshold.
    #[test]
    fn batch_is_cheaper_than_serial() {
        use crate::curve::msm::msm_engine;
        use crate::curve::ops_snapshot;
        const SERIAL_OPS_CEILING: u64 = 350;
        let message = b"wave";
        // Build the lazy basepoint tables outside the counted regions.
        let (secret, public) = keygen(&[7; 32]);
        assert!(verify(&public, message, &sign(&secret, message)));

        let mut engines = Vec::new();
        for width in [32usize, 128, 256] {
            let keys = test_keys(width);
            let signatures: Vec<[u8; 64]> = keys
                .iter()
                .map(|(secret, _)| sign(secret, message))
                .collect();
            let items: Vec<BatchItem<'_>> = keys
                .iter()
                .zip(&signatures)
                .map(|((_, public), signature)| BatchItem {
                    public,
                    message,
                    signature,
                })
                .collect();

            let before = ops_snapshot();
            let verdicts = verify_batch(&items);
            let mid = ops_snapshot();
            for item in &items {
                assert!(verify(item.public, item.message, item.signature));
            }
            let after = ops_snapshot();

            assert_eq!(verdicts, vec![true; width]);
            let batch_ops = (mid - before).total();
            let serial_ops = (after - mid).total();
            assert!(
                serial_ops <= SERIAL_OPS_CEILING * width as u64,
                "width {width}: {serial_ops} group operations for {width} serial verifications"
            );
            assert!(
                2 * batch_ops < serial_ops,
                "width {width}: batch {batch_ops} vs serial {serial_ops}"
            );
            // A batch of k signatures is one MSM over 2k + 1 points.
            engines.push(msm_engine(2 * width + 1));
        }
        assert_eq!(engines, ["straus", "straus", "pippenger"]);
    }
}
