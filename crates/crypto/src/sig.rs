//! Signing handles over a trusted key registry of RFC 8032
//! [ed25519](crate::ed25519) keys.
//!
//! The paper assumes a secure signature scheme whose failure probability
//! is zero (§2). [`KeyRegistry`] performs the trusted setup — one keypair
//! per server, deterministically seeded so whole-simulation runs stay
//! reproducible — and hands out [`Signer`] handles (one per server, able
//! to sign only as that server) and [`Verifier`]/[`BatchVerifier`]
//! handles (able to check any server's signature from its public key).
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

use crate::{ed25519, Digest, ServerId};

/// A 64-byte ed25519 wire signature (`R ‖ s`, RFC 8032), produced by
/// [`Signer::sign`].
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

    /// The raw signature bytes.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
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

/// The signature scheme a [`KeyRegistry`]'s keys belong to: ed25519 is
/// the only one.
///
/// Kept only because the benchmark adapter
/// (`crates/bench/src/bin/benchmark/adapter.rs`) names it; it goes once
/// that adapter stops naming it (`ROADMAP.md` item 9(g)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// RFC 8032 ed25519 with multi-scalar batch verification.
    Ed25519,
}

/// One registry's key material, indexed by server. Each public key's
/// fixed-base table is built once here and shared by every handle.
/// `Debug` prints no secret and no table: [`ed25519::SecretKey`] redacts
/// itself, and a table prints a one-line summary.
#[derive(Debug)]
struct RegistryInner {
    secrets: Vec<ed25519::SecretKey>,
    publics: Vec<ed25519::PublicKey>,
    metrics: CryptoMetrics,
}

/// Trusted key setup for a fixed server set.
///
/// Generates one ed25519 keypair per server; hands out [`Signer`] handles
/// (one per server, able to sign only as that server) and [`Verifier`]
/// handles (able to check any server's signature from its public key).
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
    /// Generates ed25519 keys for `n` servers from a deterministic seed —
    /// which keeps whole-simulation runs reproducible. Each keypair comes
    /// from the next 32 bytes the seeded RNG draws.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (secrets, publics) = (0..n)
            .map(|_| {
                let mut key_seed = [0u8; 32];
                rng.fill(&mut key_seed);
                ed25519::keygen(&key_seed)
            })
            .unzip();
        KeyRegistry {
            inner: Arc::new(RegistryInner {
                secrets,
                publics,
                metrics: CryptoMetrics::default(),
            }),
        }
    }

    /// [`KeyRegistry::generate`]; `SchemeKind` has one value.
    ///
    /// Kept only because the benchmark adapter
    /// (`crates/bench/src/bin/benchmark/adapter.rs`) calls it; it goes
    /// once that adapter stops naming it (`ROADMAP.md` item 9(g)).
    pub fn generate_kind(_: SchemeKind, n: usize, seed: u64) -> Self {
        Self::generate(n, seed)
    }

    /// Number of servers with keys in this registry.
    pub fn len(&self) -> usize {
        self.inner.publics.len()
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
/// It can sign only as [`Signer::id`]: simulated byzantine servers
/// receive their own [`Signer`] and therefore cannot forge others'
/// signatures.
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
        let secret = &self.registry.secrets[self.id.index()];
        Signature::from_bytes(ed25519::sign(secret, message))
    }
}

/// Verification handle over the whole server set.
///
/// Checks against every server's public key, whose fixed-base table the
/// registry built once, so each verification starts from the cached
/// table instead of re-deriving it.
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
        self.registry
            .publics
            .get(claimed.index())
            .is_some_and(|public| ed25519::verify(public, message, signature.as_bytes()))
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
/// A batch of at least `ed25519::BATCH_MIN_WIDTH` (15) items is genuinely
/// amortized — one random-linear-combination multi-scalar multiplication
/// for the whole batch, with a binary split pinpointing forged items on
/// failure — and a narrower one is checked item by item, where that costs
/// fewer group operations.
/// Batch passes and sizes are counted in [`CryptoMetrics`] (experiment
/// E6's batching argument, PAPER §4).
///
/// # Examples
///
/// ```
/// use dagbft_crypto::{KeyRegistry, ServerId, SignedDigest};
///
/// let registry = KeyRegistry::generate(2, 42);
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
        // Items claiming unknown identities fail outright and stay out of
        // the combined equation.
        let (known, batch): (Vec<usize>, Vec<ed25519::BatchItem<'_>>) = items
            .iter()
            .enumerate()
            .filter_map(|(index, item)| {
                let public = self.registry.publics.get(item.claimed.index())?;
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

    #[test]
    fn sign_verify_roundtrip() {
        let registry = registry();
        let signer = registry.signer(ServerId::new(0)).unwrap();
        let sig = signer.sign(b"m");
        let verifier = registry.verifier();
        assert!(verifier.verify(ServerId::new(0), b"m", &sig));
        assert!(
            !verifier.verify(ServerId::new(1), b"m", &sig),
            "wrong identity"
        );
        assert!(
            !verifier.verify(ServerId::new(0), b"m2", &sig),
            "wrong message"
        );
    }

    #[test]
    fn null_signature_never_verifies() {
        assert!(!registry()
            .verifier()
            .verify(ServerId::new(0), b"m", &Signature::NULL));
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
        // The one scheme there is: `generate_kind` draws the very keys
        // `generate` does.
        let kind = KeyRegistry::generate_kind(SchemeKind::Ed25519, 2, 7);
        let plain = KeyRegistry::generate(2, 7);
        let sig = kind.signer(ServerId::new(1)).unwrap().sign(b"x");
        assert_eq!(sig, plain.signer(ServerId::new(1)).unwrap().sign(b"x"));
        assert!(plain.verifier().verify(ServerId::new(1), b"x", &sig));
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
    fn batch_verify_matches_single_verdicts() {
        let registry = registry();
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
        assert_eq!(verdicts, singles);
        assert_eq!(verdicts, vec![true, true, false, false]);
    }

    #[test]
    fn batch_verify_unknown_identity_false() {
        let registry = registry();
        let batch = registry.verifier().batch();
        let digest = crate::sha256(b"x");
        let unknown = SignedDigest {
            claimed: ServerId::new(99),
            digest,
            signature: Signature::NULL,
        };
        assert_eq!(batch.verify_batch(&[unknown]), vec![false]);
        // Among known claimants the unknown one alone fails: it is left
        // out of the combined equation.
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
        assert_eq!(batch.verify_batch(&mixed), vec![true, false, true]);
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
    fn deterministic_generation() {
        let sig_a = registry().signer(ServerId::new(0)).unwrap().sign(b"x");
        let sig_b = registry().signer(ServerId::new(0)).unwrap().sign(b"x");
        assert_eq!(sig_a, sig_b);
        let c = KeyRegistry::generate(2, 10);
        let d = KeyRegistry::generate(2, 9);
        let sig_c = c.signer(ServerId::new(0)).unwrap().sign(b"x");
        let sig_d = d.signer(ServerId::new(0)).unwrap().sign(b"x");
        assert_ne!(sig_c, sig_d);
    }

    #[test]
    fn signature_wire_roundtrip_and_debug() {
        let registry = KeyRegistry::generate(1, 3);
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

    /// `Shim` and `Gossip` print their registry through `Signer`,
    /// `Verifier` and `BatchVerifier`: each key's fixed-base table must
    /// print as a summary, not its 1 536 field elements.
    #[test]
    fn registry_debug_stays_short() {
        let registry = KeyRegistry::generate(16, 1);
        let rendered = format!("{registry:?}");
        assert_eq!(rendered.matches("FixedBase(64 windows × 8)").count(), 16);
        // ~250 bytes a key pair; one table's entries would print > 100 KB.
        assert!(rendered.len() < 4096, "{} bytes", rendered.len());
    }
}
