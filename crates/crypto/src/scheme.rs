//! The scheme-agnostic signature abstraction.
//!
//! [`SignatureScheme`] is the seam [`crate::KeyRegistry`],
//! [`crate::Signer`], [`crate::Verifier`], and [`crate::BatchVerifier`]
//! are generic over. Two implementations ship:
//!
//! * [`HmacScheme`] — the original HMAC-SHA256 stand-in (pairwise
//!   symmetric keys). Deterministic, cheap, and exactly as unforgeable
//!   as HMAC: the oracle the determinism and equivalence tests
//!   cross-check real schemes against.
//! * [`Ed25519Scheme`] — real RFC 8032 ed25519 over the in-tree
//!   [`crate::curve`], whose `verify_batch` folds a whole wave into one
//!   random-linear-combination multi-scalar multiplication.
//!
//! [`AnyScheme`] is the runtime-dispatched sum of the two, and the
//! default type parameter everywhere: existing call sites stay
//! non-generic and pick a scheme with a [`SchemeKind`] knob, while
//! scheme-specific code can instantiate `KeyRegistry<Ed25519Scheme>`
//! directly.

use rand::rngs::StdRng;
use rand::Rng;

use crate::ed25519;
use crate::sig::{Signature, SignedDigest};
use crate::HmacKey;

/// A signature scheme: key generation, signing, and (batch)
/// verification over 64-byte wire signatures.
///
/// Implementations must be deterministic given the same keys and
/// messages — whole-simulation reproducibility hangs on it.
pub trait SignatureScheme: Clone + Send + Sync + std::fmt::Debug + 'static {
    /// Per-server signing key material.
    type SecretKey: Clone + Send + Sync + std::fmt::Debug;
    /// Per-server verification key material.
    type PublicKey: Clone + Send + Sync + std::fmt::Debug;

    /// Short scheme identifier ("hmac", "ed25519") for benchmarks and
    /// fingerprints.
    fn name(&self) -> &'static str;

    /// Derives one keypair from the registry's seeded generator.
    fn keygen(&self, rng: &mut StdRng) -> (Self::SecretKey, Self::PublicKey);

    /// Signs `message`.
    fn sign(&self, secret: &Self::SecretKey, message: &[u8]) -> Signature;

    /// Checks `signature` over `message` under `public`.
    fn verify(&self, public: &Self::PublicKey, message: &[u8], signature: &Signature) -> bool;

    /// Verifies a batch in one pass, returning per-item verdicts in
    /// input order; `publics` is indexed by `SignedDigest::claimed`, and
    /// out-of-range claims verify to `false`. The default is the serial
    /// loop; schemes with real amortization override it.
    fn verify_batch(&self, publics: &[Self::PublicKey], items: &[SignedDigest]) -> Vec<bool> {
        items
            .iter()
            .map(|item| match publics.get(item.claimed.index()) {
                Some(public) => self.verify(public, item.digest.as_bytes(), &item.signature),
                None => false,
            })
            .collect()
    }
}

/// Which concrete scheme an [`AnyScheme`] registry runs — the
/// configuration knob simulations and clusters expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchemeKind {
    /// HMAC-SHA256 stand-in: the cheap deterministic oracle.
    #[default]
    Hmac,
    /// RFC 8032 ed25519 with multi-scalar batch verification.
    Ed25519,
}

impl SchemeKind {
    /// Short identifier, matching [`SignatureScheme::name`].
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Hmac => "hmac",
            SchemeKind::Ed25519 => "ed25519",
        }
    }
}

/// HMAC key material: the precomputed schedule of one 32-byte key.
#[derive(Clone)]
pub struct HmacKeyPair {
    schedule: HmacKey,
}

impl std::fmt::Debug for HmacKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "HmacKeyPair(…)")
    }
}

/// The HMAC-SHA256 stand-in scheme (see `DESIGN.md` §3): "signatures"
/// are MAC tags under pairwise symmetric keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HmacScheme;

impl SignatureScheme for HmacScheme {
    type SecretKey = HmacKeyPair;
    type PublicKey = HmacKeyPair;

    fn name(&self) -> &'static str {
        "hmac"
    }

    fn keygen(&self, rng: &mut StdRng) -> (HmacKeyPair, HmacKeyPair) {
        let mut raw = [0u8; 32];
        rng.fill(&mut raw);
        let pair = HmacKeyPair {
            schedule: HmacKey::new(&raw),
        };
        (pair.clone(), pair)
    }

    fn sign(&self, secret: &HmacKeyPair, message: &[u8]) -> Signature {
        Signature::from_tag(secret.schedule.mac(message))
    }

    fn verify(&self, public: &HmacKeyPair, message: &[u8], signature: &Signature) -> bool {
        signature.matches_tag(&public.schedule.mac(message))
    }

    fn verify_batch(&self, publics: &[HmacKeyPair], items: &[SignedDigest]) -> Vec<bool> {
        items
            .iter()
            .map(|item| match publics.get(item.claimed.index()) {
                Some(public) => item
                    .signature
                    .matches_tag(&public.schedule.mac32(item.digest.as_bytes())),
                None => false,
            })
            .collect()
    }
}

/// RFC 8032 ed25519 (see [`crate::ed25519`]): strict verification,
/// cached decompressed public keys, and one multi-scalar multiplication
/// per verified batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ed25519Scheme;

impl SignatureScheme for Ed25519Scheme {
    type SecretKey = ed25519::SecretKey;
    type PublicKey = ed25519::PublicKey;

    fn name(&self) -> &'static str {
        "ed25519"
    }

    fn keygen(&self, rng: &mut StdRng) -> (ed25519::SecretKey, ed25519::PublicKey) {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        ed25519::keygen(&seed)
    }

    fn sign(&self, secret: &ed25519::SecretKey, message: &[u8]) -> Signature {
        Signature::from_bytes(ed25519::sign(secret, message))
    }

    fn verify(&self, public: &ed25519::PublicKey, message: &[u8], signature: &Signature) -> bool {
        ed25519::verify(public, message, signature.as_bytes())
    }

    fn verify_batch(&self, publics: &[ed25519::PublicKey], items: &[SignedDigest]) -> Vec<bool> {
        // Items claiming unknown identities fail outright and stay out
        // of the combined equation.
        let mut verdicts = vec![false; items.len()];
        let known: Vec<(usize, ed25519::BatchItem<'_>)> = items
            .iter()
            .enumerate()
            .filter_map(|(index, item)| {
                publics.get(item.claimed.index()).map(|public| {
                    (
                        index,
                        ed25519::BatchItem {
                            public,
                            message: item.digest.as_bytes(),
                            signature: item.signature.as_bytes(),
                        },
                    )
                })
            })
            .collect();
        let batch: Vec<ed25519::BatchItem<'_>> = known
            .iter()
            .map(|(_, item)| ed25519::BatchItem {
                public: item.public,
                message: item.message,
                signature: item.signature,
            })
            .collect();
        for ((index, _), verdict) in known.iter().zip(ed25519::verify_batch(&batch)) {
            verdicts[*index] = verdict;
        }
        verdicts
    }
}

/// Runtime-dispatched sum of the shipped schemes — the default type
/// parameter of [`crate::KeyRegistry`] and its handles, so scheme
/// selection is a run-time [`SchemeKind`] knob rather than a generic
/// parameter rippling through gossip, shim, and transport.
#[derive(Debug, Clone)]
pub enum AnyScheme {
    /// The HMAC-SHA256 stand-in.
    Hmac(HmacScheme),
    /// RFC 8032 ed25519.
    Ed25519(Ed25519Scheme),
}

impl AnyScheme {
    /// The scheme a [`SchemeKind`] selects.
    pub fn from_kind(kind: SchemeKind) -> AnyScheme {
        match kind {
            SchemeKind::Hmac => AnyScheme::Hmac(HmacScheme),
            SchemeKind::Ed25519 => AnyScheme::Ed25519(Ed25519Scheme),
        }
    }
}

/// Secret key material for [`AnyScheme`].
#[derive(Debug, Clone)]
pub enum AnySecretKey {
    /// HMAC key material.
    Hmac(HmacKeyPair),
    /// ed25519 key material.
    Ed25519(ed25519::SecretKey),
}

/// Public key material for [`AnyScheme`].
#[derive(Debug, Clone)]
pub enum AnyPublicKey {
    /// HMAC key material (symmetric: the same key verifies).
    Hmac(HmacKeyPair),
    /// ed25519 compressed key with cached decompression.
    Ed25519(ed25519::PublicKey),
}

impl SignatureScheme for AnyScheme {
    type SecretKey = AnySecretKey;
    type PublicKey = AnyPublicKey;

    fn name(&self) -> &'static str {
        match self {
            AnyScheme::Hmac(scheme) => scheme.name(),
            AnyScheme::Ed25519(scheme) => scheme.name(),
        }
    }

    fn keygen(&self, rng: &mut StdRng) -> (AnySecretKey, AnyPublicKey) {
        match self {
            AnyScheme::Hmac(scheme) => {
                let (secret, public) = scheme.keygen(rng);
                (AnySecretKey::Hmac(secret), AnyPublicKey::Hmac(public))
            }
            AnyScheme::Ed25519(scheme) => {
                let (secret, public) = scheme.keygen(rng);
                (AnySecretKey::Ed25519(secret), AnyPublicKey::Ed25519(public))
            }
        }
    }

    fn sign(&self, secret: &AnySecretKey, message: &[u8]) -> Signature {
        match (self, secret) {
            (AnyScheme::Hmac(scheme), AnySecretKey::Hmac(secret)) => scheme.sign(secret, message),
            (AnyScheme::Ed25519(scheme), AnySecretKey::Ed25519(secret)) => {
                scheme.sign(secret, message)
            }
            _ => unreachable!("secret key from a different scheme's registry"),
        }
    }

    fn verify(&self, public: &AnyPublicKey, message: &[u8], signature: &Signature) -> bool {
        match (self, public) {
            (AnyScheme::Hmac(scheme), AnyPublicKey::Hmac(public)) => {
                scheme.verify(public, message, signature)
            }
            (AnyScheme::Ed25519(scheme), AnyPublicKey::Ed25519(public)) => {
                scheme.verify(public, message, signature)
            }
            _ => false,
        }
    }

    fn verify_batch(&self, publics: &[AnyPublicKey], items: &[SignedDigest]) -> Vec<bool> {
        match self {
            AnyScheme::Hmac(scheme) => {
                let keys: Vec<HmacKeyPair> = publics
                    .iter()
                    .map(|key| match key {
                        AnyPublicKey::Hmac(pair) => pair.clone(),
                        AnyPublicKey::Ed25519(_) => {
                            unreachable!("public key from a different scheme's registry")
                        }
                    })
                    .collect();
                scheme.verify_batch(&keys, items)
            }
            AnyScheme::Ed25519(scheme) => {
                let keys: Vec<ed25519::PublicKey> = publics
                    .iter()
                    .map(|key| match key {
                        AnyPublicKey::Ed25519(public) => public.clone(),
                        AnyPublicKey::Hmac(_) => {
                            unreachable!("public key from a different scheme's registry")
                        }
                    })
                    .collect();
                scheme.verify_batch(&keys, items)
            }
        }
    }
}
