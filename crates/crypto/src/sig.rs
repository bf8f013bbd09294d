//! Signing handles over a trusted key registry, under one of two
//! signature schemes.
//!
//! The paper assumes a secure signature scheme whose failure probability
//! is zero (§2). [`KeyRegistry`] performs the trusted setup — one keypair
//! per server, deterministically seeded so whole-simulation runs stay
//! reproducible — and hands out [`Signer`] handles (one per server,
//! carrying only that server's key) and [`Verifier`]/[`BatchVerifier`]
//! handles (able to check any server's signature). A registry draws all
//! its keys from the one scheme a [`SchemeKind`] picks when it is
//! generated: RFC 8032 [ed25519](crate::ed25519), or the HMAC-SHA256
//! stand-in the determinism and equivalence tests cross-check it against.
//!
//! The economic property the paper leans on — *batch signatures*, one
//! signature per block instead of one per protocol message (§4) — is
//! preserved, and [`CryptoMetrics`] counts sign/verify operations so the
//! benchmarks can report it (experiment E6).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{ed25519, Digest, HmacKey, ServerId};

/// A 64-byte wire signature, produced by [`Signer::sign`].
///
/// The layout is scheme-defined: ed25519 fills all 64 bytes (`R ‖ s`,
/// RFC 8032); the HMAC stand-in stores its 32-byte tag followed by
/// zeroes. One fixed wire size keeps block encodings scheme-independent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature([u8; 64]);

impl Signature {
    /// A placeholder signature (all zeroes); never verifies.
    pub const NULL: Signature = Signature([0u8; 64]);

    /// Wire size of a signature in bytes.
    pub const SIZE: usize = 64;

    /// Wraps raw signature bytes.
    pub fn from_bytes(bytes: [u8; 64]) -> Signature {
        Signature(bytes)
    }

    /// A signature carrying a 32-byte MAC tag (zero-padded).
    pub fn from_tag(tag: Digest) -> Signature {
        let mut bytes = [0u8; 64];
        bytes[..32].copy_from_slice(tag.as_bytes());
        Signature(bytes)
    }

    /// The raw signature bytes.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }

    /// True iff this signature is exactly `tag` zero-padded — the HMAC
    /// accept test, without materializing a temporary [`Signature`].
    pub(crate) fn matches_tag(&self, tag: &Digest) -> bool {
        self.0[..32] == tag.as_bytes()[..] && self.0[32..] == [0u8; 32]
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature(")?;
        for byte in &self.0[..6] {
            write!(f, "{byte:02x}")?;
        }
        write!(f, "…)")
    }
}

impl WireEncode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl WireDecode for Signature {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Signature(<[u8; 64]>::decode(reader)?))
    }
}

/// Counters for cryptographic operations, shared by all handles derived from
/// one [`KeyRegistry`].
///
/// Experiment E6 (signature batching) reads these to compare the embedding
/// against the direct point-to-point baseline.
#[derive(Debug, Default)]
pub struct CryptoMetrics {
    signs: AtomicU64,
    verifies: AtomicU64,
    batches: AtomicU64,
    batched_verifies: AtomicU64,
    largest_batch: AtomicU64,
    bursts: AtomicU64,
    burst_verifies: AtomicU64,
    largest_burst: AtomicU64,
}

impl CryptoMetrics {
    /// Number of signing operations performed so far.
    pub fn signs(&self) -> u64 {
        self.signs.load(Ordering::Relaxed)
    }

    /// Number of verification operations performed so far (batched items
    /// included: a batch of `k` signatures counts `k` verifications, so
    /// this total is identical whichever path performed the work).
    pub fn verifies(&self) -> u64 {
        self.verifies.load(Ordering::Relaxed)
    }

    /// Number of [`BatchVerifier::verify_batch`] passes performed so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Number of verifications performed *inside* batches — the share of
    /// [`CryptoMetrics::verifies`] that went through the amortized path.
    pub fn batched_verifies(&self) -> u64 {
        self.batched_verifies.load(Ordering::Relaxed)
    }

    /// Size of the largest batch verified so far.
    pub fn largest_batch(&self) -> u64 {
        self.largest_batch.load(Ordering::Relaxed)
    }

    /// Number of admission bursts accounted so far — one per
    /// multi-message ingest call that verified at least one signature,
    /// spanning every wave the call produced.
    pub fn bursts(&self) -> u64 {
        self.bursts.load(Ordering::Relaxed)
    }

    /// Number of verifications performed inside bursts — the share of
    /// [`CryptoMetrics::batched_verifies`] that multi-message ingest
    /// could widen past per-message waves.
    pub fn burst_verifies(&self) -> u64 {
        self.burst_verifies.load(Ordering::Relaxed)
    }

    /// Signature count of the largest burst accounted so far.
    pub fn largest_burst(&self) -> u64 {
        self.largest_burst.load(Ordering::Relaxed)
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.signs.store(0, Ordering::Relaxed);
        self.verifies.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batched_verifies.store(0, Ordering::Relaxed);
        self.largest_batch.store(0, Ordering::Relaxed);
        self.bursts.store(0, Ordering::Relaxed);
        self.burst_verifies.store(0, Ordering::Relaxed);
        self.largest_burst.store(0, Ordering::Relaxed);
    }

    fn record_batch(&self, items: u64) {
        self.verifies.fetch_add(items, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_verifies.fetch_add(items, Ordering::Relaxed);
        self.largest_batch.fetch_max(items, Ordering::Relaxed);
    }

    fn record_burst(&self, items: u64) {
        self.bursts.fetch_add(1, Ordering::Relaxed);
        self.burst_verifies.fetch_add(items, Ordering::Relaxed);
        self.largest_burst.fetch_max(items, Ordering::Relaxed);
    }
}

/// Which signature scheme a [`KeyRegistry`]'s keys belong to — the
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
    /// Short identifier ("hmac", "ed25519") for benchmarks and
    /// fingerprints.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Hmac => "hmac",
            SchemeKind::Ed25519 => "ed25519",
        }
    }
}

/// One registry's key material, all of one scheme and indexed by server.
/// Per-key caches (HMAC key schedules, decompressed ed25519 points) are
/// built once here and shared by every handle. `Debug` prints no secret:
/// [`HmacKey`] and [`ed25519::SecretKey`] redact themselves.
#[derive(Debug)]
enum Keys {
    /// Pairwise symmetric keys: the key that signs also verifies.
    Hmac(Vec<HmacKey>),
    Ed25519 {
        secrets: Vec<ed25519::SecretKey>,
        publics: Vec<ed25519::PublicKey>,
    },
}

impl Keys {
    /// One key (pair) per server, each from the next 32 bytes of `rng`.
    fn generate(kind: SchemeKind, n: usize, rng: &mut StdRng) -> Keys {
        let seeds = (0..n).map(|_| {
            let mut seed = [0u8; 32];
            rng.fill(&mut seed);
            seed
        });
        match kind {
            SchemeKind::Hmac => Keys::Hmac(seeds.map(|seed| HmacKey::new(&seed)).collect()),
            SchemeKind::Ed25519 => {
                let (secrets, publics) = seeds.map(|seed| ed25519::keygen(&seed)).unzip();
                Keys::Ed25519 { secrets, publics }
            }
        }
    }

    fn kind(&self) -> SchemeKind {
        match self {
            Keys::Hmac(_) => SchemeKind::Hmac,
            Keys::Ed25519 { .. } => SchemeKind::Ed25519,
        }
    }

    fn len(&self) -> usize {
        match self {
            Keys::Hmac(keys) => keys.len(),
            Keys::Ed25519 { secrets, .. } => secrets.len(),
        }
    }

    /// Signs for `id`, which the [`Signer`] holding it was checked against.
    fn sign(&self, id: ServerId, message: &[u8]) -> Signature {
        match self {
            Keys::Hmac(keys) => Signature::from_tag(keys[id.index()].mac(message)),
            Keys::Ed25519 { secrets, .. } => {
                Signature::from_bytes(ed25519::sign(&secrets[id.index()], message))
            }
        }
    }

    /// Unknown claimants verify to `false`.
    fn verify(&self, claimed: ServerId, message: &[u8], signature: &Signature) -> bool {
        match self {
            Keys::Hmac(keys) => keys
                .get(claimed.index())
                .is_some_and(|key| signature.matches_tag(&key.mac(message))),
            Keys::Ed25519 { publics, .. } => publics
                .get(claimed.index())
                .is_some_and(|public| ed25519::verify(public, message, signature.as_bytes())),
        }
    }

    /// Per-item verdicts in input order, equal to the serial ones.
    fn verify_batch(&self, items: &[SignedDigest]) -> Vec<bool> {
        match self {
            Keys::Hmac(keys) => items
                .iter()
                .map(|item| {
                    keys.get(item.claimed.index()).is_some_and(|key| {
                        item.signature
                            .matches_tag(&key.mac32(item.digest.as_bytes()))
                    })
                })
                .collect(),
            Keys::Ed25519 { publics, .. } => {
                // Items claiming unknown identities fail outright and stay
                // out of the combined equation.
                let (known, batch): (Vec<usize>, Vec<ed25519::BatchItem<'_>>) = items
                    .iter()
                    .enumerate()
                    .filter_map(|(index, item)| {
                        let public = publics.get(item.claimed.index())?;
                        let batch_item = ed25519::BatchItem {
                            public,
                            message: item.digest.as_bytes(),
                            signature: item.signature.as_bytes(),
                        };
                        Some((index, batch_item))
                    })
                    .unzip();
                let mut verdicts = vec![false; items.len()];
                for (index, verdict) in known.into_iter().zip(ed25519::verify_batch(&batch)) {
                    verdicts[index] = verdict;
                }
                verdicts
            }
        }
    }
}

#[derive(Debug)]
struct RegistryInner {
    keys: Keys,
    metrics: CryptoMetrics,
}

/// Trusted key setup for a fixed server set.
///
/// Generates one keypair per server under the chosen [`SchemeKind`]; hands
/// out [`Signer`] handles (one per server, carrying only that server's
/// key) and [`Verifier`] handles (able to check any server's signature).
///
/// # Examples
///
/// ```
/// use dagbft_crypto::{KeyRegistry, ServerId};
///
/// let registry = KeyRegistry::generate(4, 42);
/// let signer = registry.signer(ServerId::new(3)).unwrap();
/// let sig = signer.sign(b"hello");
/// assert!(registry.verifier().verify(ServerId::new(3), b"hello", &sig));
/// ```
#[derive(Debug, Clone)]
pub struct KeyRegistry {
    inner: Arc<RegistryInner>,
}

impl KeyRegistry {
    /// Generates HMAC stand-in keys for `n` servers from a deterministic
    /// seed — the historical default, kept as the cheap oracle scheme.
    /// For the real thing, use [`KeyRegistry::generate_ed25519`].
    pub fn generate(n: usize, seed: u64) -> Self {
        Self::generate_kind(SchemeKind::Hmac, n, seed)
    }

    /// Generates real ed25519 keys for `n` servers from a deterministic
    /// seed.
    pub fn generate_ed25519(n: usize, seed: u64) -> Self {
        Self::generate_kind(SchemeKind::Ed25519, n, seed)
    }

    /// Generates keys for `n` servers under the scheme `kind` selects, from
    /// a deterministic seed — which keeps whole-simulation runs
    /// reproducible.
    pub fn generate_kind(kind: SchemeKind, n: usize, seed: u64) -> Self {
        let keys = Keys::generate(kind, n, &mut StdRng::seed_from_u64(seed));
        KeyRegistry {
            inner: Arc::new(RegistryInner {
                keys,
                metrics: CryptoMetrics::default(),
            }),
        }
    }

    /// The scheme this registry's keys belong to.
    pub fn kind(&self) -> SchemeKind {
        self.inner.keys.kind()
    }

    /// Short scheme identifier ("hmac", "ed25519") for benchmarks and
    /// fingerprints.
    pub fn scheme_name(&self) -> &'static str {
        self.kind().name()
    }

    /// Number of servers with keys in this registry.
    pub fn len(&self) -> usize {
        self.inner.keys.len()
    }

    /// Returns `true` if the registry holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the signing handle for `id`, or `None` for unknown servers.
    pub fn signer(&self, id: ServerId) -> Option<Signer> {
        if id.index() >= self.len() {
            return None;
        }
        Some(Signer {
            id,
            registry: self.inner.clone(),
        })
    }

    /// Returns a verification handle over all servers' keys.
    pub fn verifier(&self) -> Verifier {
        Verifier {
            registry: self.inner.clone(),
        }
    }

    /// Returns a batch-verification handle (see [`BatchVerifier`]).
    pub fn batch_verifier(&self) -> BatchVerifier {
        BatchVerifier {
            registry: self.inner.clone(),
        }
    }

    /// Shared operation counters for all handles of this registry.
    pub fn metrics(&self) -> &CryptoMetrics {
        &self.inner.metrics
    }
}

/// Signing handle for a single server.
///
/// Holds only that server's key: simulated byzantine servers receive
/// their own [`Signer`] and therefore cannot forge others' signatures.
#[derive(Debug, Clone)]
pub struct Signer {
    id: ServerId,
    registry: Arc<RegistryInner>,
}

impl Signer {
    /// The identity this handle signs for.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.registry.metrics.signs.fetch_add(1, Ordering::Relaxed);
        self.registry.keys.sign(self.id, message)
    }
}

/// Verification handle over the whole server set.
///
/// Holds the per-server verification key material with its caches built
/// (HMAC key schedules, decompressed ed25519 points), so each
/// verification resumes from cached state instead of re-deriving it.
#[derive(Debug, Clone)]
pub struct Verifier {
    registry: Arc<RegistryInner>,
}

impl Verifier {
    /// Checks that `signature` is `sign(claimed, message)`.
    ///
    /// Returns `false` for unknown identities or forged signatures.
    pub fn verify(&self, claimed: ServerId, message: &[u8], signature: &Signature) -> bool {
        self.registry
            .metrics
            .verifies
            .fetch_add(1, Ordering::Relaxed);
        self.registry.keys.verify(claimed, message, signature)
    }

    /// Returns a batch handle over the same registry (and counters).
    pub fn batch(&self) -> BatchVerifier {
        BatchVerifier {
            registry: self.registry.clone(),
        }
    }
}

/// One signed 32-byte digest awaiting batch verification: the claim
/// "`signature` is `sign(claimed, digest)`".
///
/// For blocks this is exactly Definition 3.3 (i): `claimed` is `B.n`,
/// `digest` the cached `ref(B)` (the hash of the block's signing
/// preimage), `signature` `B.σ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedDigest {
    /// The identity claimed to have produced the signature.
    pub claimed: ServerId,
    /// The signed message — a 32-byte digest (`ref(B)` for blocks).
    pub digest: Digest,
    /// The signature under test.
    pub signature: Signature,
}

/// Batched verification over the whole server set: one pass over a slice
/// of [`SignedDigest`]s, with per-item verdicts in input order.
///
/// Under ed25519 the pass is genuinely amortized — one random-linear-
/// combination multi-scalar multiplication for the whole batch, with a
/// binary split pinpointing forged items on failure — so a batch of `k`
/// costs far fewer group operations than `k` serial verifications. The
/// HMAC stand-in keeps the same shape over its 32-byte MAC fast path.
/// Batch passes and sizes are counted in [`CryptoMetrics`] (experiment
/// E6's batching argument, PAPER §4).
///
/// # Examples
///
/// ```
/// use dagbft_crypto::{KeyRegistry, ServerId, SignedDigest};
///
/// let registry = KeyRegistry::generate_ed25519(2, 42);
/// let signer = registry.signer(ServerId::new(1)).unwrap();
/// let digest = dagbft_crypto::sha256(b"block preimage");
/// let signature = signer.sign(digest.as_bytes());
/// let batch = registry.batch_verifier();
/// let verdicts = batch.verify_batch(&[SignedDigest {
///     claimed: ServerId::new(1),
///     digest,
///     signature,
/// }]);
/// assert_eq!(verdicts, vec![true]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchVerifier {
    registry: Arc<RegistryInner>,
}

impl BatchVerifier {
    /// Verifies every item in one pass, returning per-item verdicts in
    /// input order. Unknown identities verify to `false`. The verdicts
    /// are always exactly the serial ones, whatever the batch grouping —
    /// which is what makes admission independent of how wide its
    /// verification waves happen to be.
    ///
    /// An empty batch performs (and records) nothing.
    pub fn verify_batch(&self, items: &[SignedDigest]) -> Vec<bool> {
        if items.is_empty() {
            return Vec::new();
        }
        self.registry.metrics.record_batch(items.len() as u64);
        self.registry.keys.verify_batch(items)
    }

    /// Accounts one admission *burst* of `items` verifications. The
    /// items themselves were already verified (and counted) through
    /// [`BatchVerifier::verify_batch`] passes — possibly several waves;
    /// this records that they belonged to one multi-message ingest call,
    /// so experiments can tell burst-widened verification apart from
    /// per-message waves. Zero-item bursts are not recorded.
    pub fn note_burst(&self, items: u64) {
        if items > 0 {
            self.registry.metrics.record_burst(items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> KeyRegistry {
        KeyRegistry::generate(4, 1)
    }

    fn all_registries() -> Vec<KeyRegistry> {
        vec![
            KeyRegistry::generate(4, 1),
            KeyRegistry::generate_ed25519(4, 1),
        ]
    }

    #[test]
    fn sign_verify_roundtrip_all_schemes() {
        for registry in all_registries() {
            let name = registry.scheme_name();
            let signer = registry.signer(ServerId::new(0)).unwrap();
            let sig = signer.sign(b"m");
            assert!(
                registry.verifier().verify(ServerId::new(0), b"m", &sig),
                "{name}"
            );
            assert!(
                !registry.verifier().verify(ServerId::new(1), b"m", &sig),
                "{name}: wrong identity"
            );
            assert!(
                !registry.verifier().verify(ServerId::new(0), b"m2", &sig),
                "{name}: wrong message"
            );
        }
    }

    #[test]
    fn null_signature_never_verifies() {
        for registry in all_registries() {
            assert!(
                !registry
                    .verifier()
                    .verify(ServerId::new(0), b"m", &Signature::NULL),
                "{}",
                registry.scheme_name()
            );
        }
    }

    #[test]
    fn unknown_server_rejected() {
        let registry = registry();
        assert!(registry.signer(ServerId::new(10)).is_none());
        let signer = registry.signer(ServerId::new(0)).unwrap();
        let sig = signer.sign(b"m");
        assert!(!registry.verifier().verify(ServerId::new(10), b"m", &sig));
    }

    #[test]
    fn scheme_kind_selects_scheme() {
        let hmac = KeyRegistry::generate_kind(SchemeKind::Hmac, 2, 7);
        let ed = KeyRegistry::generate_kind(SchemeKind::Ed25519, 2, 7);
        assert_eq!(hmac.kind(), SchemeKind::Hmac);
        assert_eq!(ed.kind(), SchemeKind::Ed25519);
        assert_eq!(hmac.scheme_name(), "hmac");
        assert_eq!(ed.scheme_name(), "ed25519");
        assert_eq!(SchemeKind::default(), SchemeKind::Hmac);
        assert_eq!(SchemeKind::Ed25519.name(), "ed25519");
        // Same seed, different schemes: incompatible signatures.
        let hmac_sig = hmac.signer(ServerId::new(0)).unwrap().sign(b"x");
        assert!(!ed.verifier().verify(ServerId::new(0), b"x", &hmac_sig));
    }

    #[test]
    fn metrics_count_operations() {
        let registry = registry();
        let signer = registry.signer(ServerId::new(0)).unwrap();
        let verifier = registry.verifier();
        assert_eq!(registry.metrics().signs(), 0);
        let sig = signer.sign(b"m");
        verifier.verify(ServerId::new(0), b"m", &sig);
        verifier.verify(ServerId::new(0), b"m", &sig);
        assert_eq!(registry.metrics().signs(), 1);
        assert_eq!(registry.metrics().verifies(), 2);
        registry.metrics().reset();
        assert_eq!(registry.metrics().verifies(), 0);
    }

    #[test]
    fn batch_verify_matches_single_verdicts_all_schemes() {
        for registry in all_registries() {
            let name = registry.scheme_name();
            let verifier = registry.verifier();
            let batch = registry.batch_verifier();
            let mut items = Vec::new();
            for i in 0..4u32 {
                let signer = registry.signer(ServerId::new(i)).unwrap();
                let digest = crate::sha256(i.to_le_bytes());
                let signature = signer.sign(digest.as_bytes());
                items.push(SignedDigest {
                    claimed: ServerId::new(i),
                    digest,
                    signature,
                });
            }
            // Tamper item 2 (wrong signature) and item 3 (wrong claimed id).
            items[2].signature = Signature::NULL;
            items[3].claimed = ServerId::new(0);
            let verdicts = batch.verify_batch(&items);
            let singles: Vec<bool> = items
                .iter()
                .map(|item| verifier.verify(item.claimed, item.digest.as_bytes(), &item.signature))
                .collect();
            assert_eq!(verdicts, singles, "{name}");
            assert_eq!(verdicts, vec![true, true, false, false], "{name}");
        }
    }

    #[test]
    fn batch_verify_unknown_identity_false() {
        for registry in all_registries() {
            let name = registry.scheme_name();
            let batch = registry.verifier().batch();
            let digest = crate::sha256(b"x");
            let unknown = SignedDigest {
                claimed: ServerId::new(99),
                digest,
                signature: Signature::NULL,
            };
            assert_eq!(batch.verify_batch(&[unknown]), vec![false], "{name}");
            // Among known claimants the unknown one alone fails: under
            // ed25519 it is left out of the combined equation.
            let signed_by = |i: u32| SignedDigest {
                claimed: ServerId::new(i),
                digest,
                signature: registry
                    .signer(ServerId::new(i))
                    .unwrap()
                    .sign(digest.as_bytes()),
            };
            let forged = SignedDigest {
                claimed: ServerId::new(99),
                ..signed_by(0)
            };
            let mixed = [signed_by(1), forged, signed_by(2)];
            assert_eq!(
                batch.verify_batch(&mixed),
                vec![true, false, true],
                "{name}"
            );
        }
    }

    #[test]
    fn batch_metrics_count_passes_and_items() {
        let registry = registry();
        let batch = registry.batch_verifier();
        let signer = registry.signer(ServerId::new(0)).unwrap();
        let digest = crate::sha256(b"m");
        let signature = signer.sign(digest.as_bytes());
        let item = SignedDigest {
            claimed: ServerId::new(0),
            digest,
            signature,
        };
        assert!(batch.verify_batch(&[]).is_empty());
        assert_eq!(registry.metrics().batches(), 0, "empty batches not counted");
        batch.verify_batch(&[item; 3]);
        batch.verify_batch(&[item; 2]);
        assert_eq!(registry.metrics().batches(), 2);
        assert_eq!(registry.metrics().batched_verifies(), 5);
        assert_eq!(registry.metrics().largest_batch(), 3);
        // Batched items count toward the one shared verification total.
        assert_eq!(registry.metrics().verifies(), 5);
        registry.metrics().reset();
        assert_eq!(registry.metrics().batches(), 0);
        assert_eq!(registry.metrics().largest_batch(), 0);
    }

    #[test]
    fn burst_accounting_tracks_multi_wave_units() {
        let registry = registry();
        let batch = registry.batch_verifier();
        let signer = registry.signer(ServerId::new(0)).unwrap();
        let digest = crate::sha256(b"m");
        let signature = signer.sign(digest.as_bytes());
        let item = SignedDigest {
            claimed: ServerId::new(0),
            digest,
            signature,
        };
        // Two waves verified, then accounted as one burst of 5.
        batch.verify_batch(&[item; 3]);
        batch.verify_batch(&[item; 2]);
        batch.note_burst(5);
        batch.note_burst(0); // empty bursts are not recorded
        batch.note_burst(2);
        assert_eq!(registry.metrics().bursts(), 2);
        assert_eq!(registry.metrics().burst_verifies(), 7);
        assert_eq!(registry.metrics().largest_burst(), 5);
        // Burst accounting never double-counts verifications.
        assert_eq!(registry.metrics().verifies(), 5);
        registry.metrics().reset();
        assert_eq!(registry.metrics().bursts(), 0);
        assert_eq!(registry.metrics().largest_burst(), 0);
    }

    #[test]
    fn deterministic_generation_all_schemes() {
        for (a, b) in all_registries().into_iter().zip(all_registries()) {
            let sig_a = a.signer(ServerId::new(0)).unwrap().sign(b"x");
            let sig_b = b.signer(ServerId::new(0)).unwrap().sign(b"x");
            assert_eq!(sig_a, sig_b, "{}", a.scheme_name());
        }
        let c = KeyRegistry::generate(2, 10);
        let d = KeyRegistry::generate(2, 9);
        let sig_c = c.signer(ServerId::new(0)).unwrap().sign(b"x");
        let sig_d = d.signer(ServerId::new(0)).unwrap().sign(b"x");
        assert_ne!(sig_c, sig_d);
    }

    #[test]
    fn signature_wire_roundtrip_and_debug() {
        let registry = KeyRegistry::generate_ed25519(1, 3);
        let sig = registry.signer(ServerId::new(0)).unwrap().sign(b"wire");
        let mut encoded = Vec::new();
        sig.encode(&mut encoded);
        assert_eq!(encoded.len(), Signature::SIZE);
        let mut reader = Reader::new(&encoded);
        let decoded = Signature::decode(&mut reader).unwrap();
        assert_eq!(decoded, sig);
        // Debug shows a short prefix, never the NULL/“full bytes” form.
        let rendered = format!("{sig:?}");
        assert!(rendered.starts_with("Signature("));
        assert!(rendered.len() < 30);
    }
}
