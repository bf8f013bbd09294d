//! Blocks — the single message type of the block DAG protocol.
//!
//! Implements Definition 3.1: a block has (i) the identity `n` of the server
//! that built it, (ii) a sequence number `k`, (iii) a list of hashes of
//! predecessor blocks `preds`, (iv) a list of labeled requests `rs`, and
//! (v) a signature `σ = sign(n, ref(B))`, where `ref` is a cryptographic
//! hash over `n`, `k`, `preds` and `rs` — but not `σ`.
//!
//! Because `ref(B)` must be known to build a block referencing `B`,
//! reference cycles are impossible (Lemma 3.2): temporal order is a static,
//! cryptographic property.
//!
//! # The encode-once wire path
//!
//! The canonical encoding is a first-class artifact: a block computes its
//! wire bytes exactly once — at [`Block::build`] time, or by *slicing* the
//! received buffer at decode time — and caches them as shared [`Bytes`].
//! `ref(B)`, signature verification, [`Block::wire_len`], and every send
//! reuse that one buffer; [`Block::clone`] is a reference-count bump (the
//! block body lives behind an `Arc`), so broadcasting to `n − 1` peers
//! costs one canonical encode total instead of `n − 1`.
//! [`Block::canonical_encodes`] counts the encodes actually performed,
//! which `tests/encode_once.rs` uses to pin the encode-once claim.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_crypto::{sha256, Digest, ServerId, Signature, Signer, Verifier};

use crate::error::InvalidBlockError;
use crate::label::Label;

/// Number of canonical block encodings performed since process start
/// (field-by-field serializations — cache hits don't count).
static CANONICAL_ENCODES: AtomicU64 = AtomicU64::new(0);
/// Total bytes produced by those canonical encodings.
static CANONICAL_ENCODE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A block reference `ref(B)`: the SHA-256 digest of the block's canonical
/// encoding without the signature (Definition 3.1).
///
/// Collision resistance justifies using a block and its reference
/// interchangeably, as the paper does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockRef(Digest);

impl BlockRef {
    /// Wraps a digest as a block reference.
    pub fn from_digest(digest: Digest) -> Self {
        BlockRef(digest)
    }

    /// The underlying digest.
    pub fn digest(&self) -> Digest {
        self.0
    }

    /// The raw digest bytes — also the exact canonical wire encoding of a
    /// reference, so transports can write it without re-encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        self.0.as_bytes()
    }

    /// Compact prefix for display in traces and rendered DAGs.
    pub fn short_hex(&self) -> String {
        self.0.short_hex()
    }
}

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.short_hex())
    }
}

impl fmt::Debug for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.short_hex())
    }
}

impl WireEncode for BlockRef {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl WireDecode for BlockRef {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BlockRef(Digest::decode(reader)?))
    }
}

/// A block's sequence number `k ∈ ℕ₀` (Definition 3.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqNum(u64);

impl SeqNum {
    /// The genesis sequence number, `k = 0`.
    pub const ZERO: SeqNum = SeqNum(0);

    /// Creates a sequence number.
    pub fn new(k: u64) -> Self {
        SeqNum(k)
    }

    /// The numeric value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The next sequence number, `k + 1`.
    pub fn next(&self) -> SeqNum {
        SeqNum(self.0 + 1)
    }

    /// The preceding sequence number, or `None` for genesis.
    pub fn prev(&self) -> Option<SeqNum> {
        self.0.checked_sub(1).map(SeqNum)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl WireEncode for SeqNum {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl WireDecode for SeqNum {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SeqNum(u64::decode(reader)?))
    }
}

/// A labeled request `(ℓ, r) ∈ L × Rqsts` carried inside a block.
///
/// The payload is the *opaque* wire encoding of `P::Request`; keeping it
/// opaque makes `gossip` independent of the embedded protocol, exactly as in
/// the paper's Figure 1 where only `interpret(G, P)` knows `P`. When a block
/// is decoded from a shared receive buffer, the payload is a zero-copy slice
/// of that buffer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabeledRequest {
    /// The protocol instance the request addresses.
    pub label: Label,
    /// Canonical encoding of the request `r ∈ Rqsts_P`.
    pub payload: Bytes,
}

impl LabeledRequest {
    /// Encodes a typed request for inclusion in a block.
    pub fn encode<R: WireEncode>(label: Label, request: &R) -> Self {
        LabeledRequest {
            label,
            payload: Bytes::from(dagbft_codec::encode_to_vec(request)),
        }
    }
}

impl WireEncode for LabeledRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.encode(out);
        self.payload.encode(out);
    }
}

impl WireDecode for LabeledRequest {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(LabeledRequest {
            label: Label::decode(reader)?,
            payload: Bytes::decode(reader)?,
        })
    }
}

/// The immutable body of a [`Block`], shared behind an `Arc`.
#[derive(Debug)]
struct BlockInner {
    builder: ServerId,
    seq: SeqNum,
    preds: Vec<BlockRef>,
    requests: Vec<LabeledRequest>,
    signature: Signature,
    /// Cached `ref(B)`, computed on first use. Builders fill it eagerly
    /// (they sign it); decoded blocks leave it empty and hash lazily at
    /// first reference.
    block_ref: OnceLock<BlockRef>,
    /// Cached canonical wire encoding, *including* the trailing signature.
    /// The signing preimage (Definition 3.1's hash input) is the prefix
    /// `wire[..wire.len() − Signature::SIZE]`.
    wire: Bytes,
}

/// A block `B ∈ Blks` (Definition 3.1).
///
/// Blocks are immutable once built; the reference `ref(B)` *and* the
/// canonical wire bytes are computed at construction (or sliced from the
/// input at decode) time and cached. `Clone` is a reference-count bump.
///
/// # Examples
///
/// ```
/// use dagbft_core::Block;
/// use dagbft_crypto::{KeyRegistry, ServerId};
///
/// let registry = KeyRegistry::generate(2, 1);
/// let signer = registry.signer(ServerId::new(0)).unwrap();
/// let genesis = Block::build(ServerId::new(0), dagbft_core::SeqNum::ZERO, vec![], vec![], &signer);
/// assert!(genesis.is_genesis());
/// assert_eq!(genesis.builder(), ServerId::new(0));
/// // The cached wire image is the canonical encoding.
/// assert_eq!(genesis.wire_bytes().len(), genesis.wire_len());
/// ```
#[derive(Clone)]
pub struct Block {
    inner: Arc<BlockInner>,
}

impl Block {
    /// Builds and signs a block (Algorithm 1, line 15: `σ := sign(s, B)`).
    ///
    /// This is the **one** canonical encode in a block's lifetime: the
    /// signing preimage is serialized once, hashed into `ref(B)`, extended
    /// with the signature, and cached as the block's wire image.
    pub fn build(
        builder: ServerId,
        seq: SeqNum,
        preds: Vec<BlockRef>,
        requests: Vec<LabeledRequest>,
        signer: &Signer,
    ) -> Block {
        debug_assert_eq!(signer.id(), builder, "blocks are signed by their builder");
        let preimage = Self::encode_preimage(builder, seq, &preds, &requests);
        let block_ref = BlockRef(sha256(&preimage));
        let signature = signer.sign(block_ref.digest().as_bytes());
        Self::assemble(
            builder, seq, preds, requests, signature, block_ref, preimage,
        )
    }

    /// Assembles a block with an arbitrary signature, for adversarial tests
    /// that need ill-signed blocks.
    pub fn build_with_signature(
        builder: ServerId,
        seq: SeqNum,
        preds: Vec<BlockRef>,
        requests: Vec<LabeledRequest>,
        signature: Signature,
    ) -> Block {
        let preimage = Self::encode_preimage(builder, seq, &preds, &requests);
        let block_ref = BlockRef(sha256(&preimage));
        Self::assemble(
            builder, seq, preds, requests, signature, block_ref, preimage,
        )
    }

    fn assemble(
        builder: ServerId,
        seq: SeqNum,
        preds: Vec<BlockRef>,
        requests: Vec<LabeledRequest>,
        signature: Signature,
        block_ref: BlockRef,
        mut wire: Vec<u8>,
    ) -> Block {
        signature.encode(&mut wire);
        let cached = OnceLock::new();
        cached.set(block_ref).expect("fresh cell");
        Block {
            inner: Arc::new(BlockInner {
                builder,
                seq,
                preds,
                requests,
                signature,
                block_ref: cached,
                wire: Bytes::from(wire),
            }),
        }
    }

    /// Serializes the `ref` preimage — `n`, `k`, `preds`, `rs`, and *not*
    /// `σ` (Definition 3.1: this keeps `sign(B.n, ref(B))` well defined).
    /// The only place block fields are turned into bytes.
    fn encode_preimage(
        builder: ServerId,
        seq: SeqNum,
        preds: &[BlockRef],
        requests: &[LabeledRequest],
    ) -> Vec<u8> {
        let mut preimage = Vec::new();
        builder.encode(&mut preimage);
        seq.encode(&mut preimage);
        preds.encode(&mut preimage);
        requests.encode(&mut preimage);
        CANONICAL_ENCODES.fetch_add(1, Ordering::Relaxed);
        CANONICAL_ENCODE_BYTES.fetch_add(
            preimage.len() as u64 + Signature::SIZE as u64,
            Ordering::Relaxed,
        );
        preimage
    }

    /// Number of canonical (field-by-field) block encodings performed by
    /// this process so far. Sends that reuse the cached wire image do not
    /// count — `tests/encode_once.rs` asserts exactly one per block
    /// regardless of broadcast fan-out.
    pub fn canonical_encodes() -> u64 {
        CANONICAL_ENCODES.load(Ordering::Relaxed)
    }

    /// Total bytes produced by canonical block encodings so far.
    pub fn canonical_encode_bytes() -> u64 {
        CANONICAL_ENCODE_BYTES.load(Ordering::Relaxed)
    }

    /// The identity `n` of the server that built this block.
    pub fn builder(&self) -> ServerId {
        self.inner.builder
    }

    /// The sequence number `k`.
    pub fn seq(&self) -> SeqNum {
        self.inner.seq
    }

    /// References to predecessor blocks, in inclusion order.
    pub fn preds(&self) -> &[BlockRef] {
        &self.inner.preds
    }

    /// The labeled requests `rs` carried by this block.
    pub fn requests(&self) -> &[LabeledRequest] {
        &self.inner.requests
    }

    /// The signature `σ = sign(n, ref(B))`.
    pub fn signature(&self) -> &Signature {
        &self.inner.signature
    }

    /// The block reference `ref(B)`, hashed on first use and cached.
    ///
    /// For built blocks this is always already cached (building signs
    /// it); for decoded blocks the first caller pays one SHA-256 over
    /// the signing preimage — which burst admission schedules on the
    /// gossip verify-pool workers so the receive thread rarely does.
    pub fn block_ref(&self) -> BlockRef {
        *self
            .inner
            .block_ref
            .get_or_init(|| BlockRef(sha256(self.signing_preimage())))
    }

    /// The cached canonical wire encoding (including the signature).
    /// Cloning the returned [`Bytes`] shares the buffer — this is what
    /// every send of the block puts on the wire.
    pub fn wire_bytes(&self) -> &Bytes {
        &self.inner.wire
    }

    /// The cached signing preimage — the canonical encoding of `n`, `k`,
    /// `preds`, `rs` that `ref(B)` hashes — as a zero-copy slice of the
    /// wire image.
    pub fn signing_preimage(&self) -> Bytes {
        let wire = &self.inner.wire;
        wire.slice(..wire.len() - Signature::SIZE)
    }

    /// Returns `true` for genesis blocks (`k = 0`), which cannot — and need
    /// not — have a parent.
    pub fn is_genesis(&self) -> bool {
        self.inner.seq == SeqNum::ZERO
    }

    /// Verifies `σ` against the claimed builder (Definition 3.3 (i)).
    pub fn verify_signature(&self, verifier: &Verifier) -> bool {
        verifier.verify(
            self.inner.builder,
            self.block_ref().digest().as_bytes(),
            &self.inner.signature,
        )
    }

    /// The block's signature claim as a batch-verification item: "`σ` is
    /// `sign(B.n, ref(B))`". With `ref(B)` cached (the common case — see
    /// [`Block::block_ref`]), assembling a verification wave copies 3
    /// small values per block and never touches the wire bytes.
    pub fn signed_digest(&self) -> dagbft_crypto::SignedDigest {
        dagbft_crypto::SignedDigest {
            claimed: self.inner.builder,
            digest: self.block_ref().digest(),
            signature: self.inner.signature,
        }
    }

    /// Finds this block's parent among its predecessors: the unique distinct
    /// predecessor built by the same server with sequence number `k − 1`.
    ///
    /// `meta` resolves a reference to the `(builder, seq)` of an
    /// already-known block; unresolvable references are skipped (callers
    /// ensure all predecessors are known before validity is decided).
    ///
    /// # Errors
    ///
    /// * [`InvalidBlockError::MissingParent`] — non-genesis block with no
    ///   parent among the resolvable predecessors.
    /// * [`InvalidBlockError::MultipleParents`] — two distinct candidate
    ///   parents (an equivocation *within* the block's own history).
    pub fn parent_via<F>(&self, meta: F) -> Result<Option<BlockRef>, InvalidBlockError>
    where
        F: Fn(&BlockRef) -> Option<(ServerId, SeqNum)>,
    {
        let Some(expected_seq) = self.inner.seq.prev() else {
            return Ok(None); // Genesis: 0 is minimal in ℕ₀, no parent possible.
        };
        let mut parent: Option<BlockRef> = None;
        for pred in &self.inner.preds {
            let Some((builder, seq)) = meta(pred) else {
                continue;
            };
            if builder == self.inner.builder && seq == expected_seq {
                match parent {
                    None => parent = Some(*pred),
                    Some(existing) if existing == *pred => {}
                    Some(existing) => {
                        return Err(InvalidBlockError::MultipleParents {
                            builder: self.inner.builder,
                            parents: (existing, *pred),
                        })
                    }
                }
            }
        }
        match parent {
            Some(parent) => Ok(Some(parent)),
            None => Err(InvalidBlockError::MissingParent {
                builder: self.inner.builder,
                seq: self.inner.seq,
            }),
        }
    }

    /// Size of this block on the wire, in bytes. O(1): served from the
    /// cached wire image, never by re-encoding.
    pub fn wire_len(&self) -> usize {
        self.inner.wire.len()
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        // The wire image is canonical: byte equality ⟺ field equality
        // (including the signature). Pointer equality short-circuits the
        // common shared-Arc case.
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.wire == other.inner.wire
    }
}

impl Eq for Block {}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Block({}/{} {} preds={} rs={})",
            self.inner.builder,
            self.inner.seq,
            self.block_ref(),
            self.inner.preds.len(),
            self.inner.requests.len()
        )
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}{}",
            self.inner.builder,
            self.inner.seq,
            self.block_ref()
        )
    }
}

impl WireEncode for Block {
    fn encode(&self, out: &mut Vec<u8>) {
        // Encode-once: replay the cached canonical image.
        out.extend_from_slice(&self.inner.wire);
    }
}

impl WireDecode for Block {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let start = reader.position();
        let builder = ServerId::decode(reader)?;
        let seq = SeqNum::decode(reader)?;
        let preds = Vec::<BlockRef>::decode(reader)?;
        let requests = Vec::<LabeledRequest>::decode(reader)?;
        let signature = Signature::decode(reader)?;
        let end = reader.position();
        // The codec is canonical (fixed-width integers, length-prefixed
        // sequences), so the consumed input *is* the canonical encoding:
        // retain it as the cached wire image (a zero-copy slice of the
        // receive buffer when the reader is shared) and defer hashing
        // `ref(B)` out of it until first use — burst admission moves that
        // hash onto pool workers. A tampered byte lands in the hash — the
        // cache can never vouch for bytes the signature doesn't.
        let wire = reader.bytes_between(start, end);
        Ok(Block {
            inner: Arc::new(BlockInner {
                builder,
                seq,
                preds,
                requests,
                signature,
                block_ref: OnceLock::new(),
                wire,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_codec::{decode_from_bytes, decode_from_slice, encode_to_vec};
    use dagbft_crypto::KeyRegistry;

    fn registry() -> KeyRegistry {
        KeyRegistry::generate(4, 11)
    }

    fn signer(registry: &KeyRegistry, id: u32) -> Signer {
        registry.signer(ServerId::new(id)).unwrap()
    }

    #[test]
    fn ref_excludes_signature() {
        let registry = registry();
        let block = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![],
            &signer(&registry, 0),
        );
        // Same content, different (null) signature: identical reference.
        let forged = Block::build_with_signature(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![],
            Signature::NULL,
        );
        assert_eq!(block.block_ref(), forged.block_ref());
        assert_ne!(block.signature(), forged.signature());
    }

    #[test]
    fn ref_covers_all_content_fields() {
        let registry = registry();
        let signer0 = signer(&registry, 0);
        let base = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer0);

        let different_seq =
            Block::build(ServerId::new(0), SeqNum::new(1), vec![], vec![], &signer0);
        assert_ne!(base.block_ref(), different_seq.block_ref());

        let signer1 = signer(&registry, 1);
        let different_builder =
            Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        assert_ne!(base.block_ref(), different_builder.block_ref());

        let with_pred = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![base.block_ref()],
            vec![],
            &signer0,
        );
        assert_ne!(base.block_ref(), with_pred.block_ref());

        let with_request = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(Label::new(1), &42u64)],
            &signer0,
        );
        assert_ne!(base.block_ref(), with_request.block_ref());
    }

    #[test]
    fn signature_verifies_for_builder_only() {
        let registry = registry();
        let block = Block::build(
            ServerId::new(2),
            SeqNum::ZERO,
            vec![],
            vec![],
            &signer(&registry, 2),
        );
        assert!(block.verify_signature(&registry.verifier()));

        // A block claiming builder 3 but signed by 2 must not verify.
        let forged = Block::build_with_signature(
            ServerId::new(3),
            SeqNum::ZERO,
            vec![],
            vec![],
            *block.signature(),
        );
        assert!(!forged.verify_signature(&registry.verifier()));
    }

    #[test]
    fn wire_roundtrip_preserves_ref() {
        let registry = registry();
        let signer0 = signer(&registry, 0);
        let genesis = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer0);
        let block = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![genesis.block_ref()],
            vec![LabeledRequest::encode(Label::new(7), &"hello".to_owned())],
            &signer0,
        );
        let bytes = encode_to_vec(&block);
        assert_eq!(bytes.len(), block.wire_len());
        let decoded: Block = decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decoded.block_ref(), block.block_ref());
        assert!(decoded.verify_signature(&registry.verifier()));
    }

    #[test]
    fn cached_wire_image_is_canonical_and_shared() {
        let registry = registry();
        let signer0 = signer(&registry, 0);
        let block = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(Label::new(3), &7u64)],
            &signer0,
        );
        // The cache equals a fresh field-by-field encoding.
        assert_eq!(
            block.wire_bytes().as_ref(),
            encode_to_vec(&block).as_slice()
        );
        // Clones share the buffer (and the whole body) — no copies.
        let clone = block.clone();
        assert!(clone
            .wire_bytes()
            .shares_allocation_with(block.wire_bytes()));
        // The signing preimage is the wire image minus the signature.
        let preimage = block.signing_preimage();
        assert_eq!(preimage.len(), block.wire_len() - Signature::SIZE);
        assert!(preimage.shares_allocation_with(block.wire_bytes()));
        assert_eq!(BlockRef(sha256(&preimage)), block.block_ref());
    }

    #[test]
    fn decode_from_shared_buffer_slices_not_copies() {
        let registry = registry();
        let signer0 = signer(&registry, 0);
        let block = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(Label::new(1), &vec![9u8; 64])],
            &signer0,
        );
        let buffer = Bytes::from(encode_to_vec(&block));
        let decoded: Block = decode_from_bytes(&buffer).unwrap();
        assert_eq!(decoded, block);
        // The decoded block's wire image and request payloads are slices of
        // the receive buffer — the zero-copy path.
        assert!(decoded.wire_bytes().shares_allocation_with(&buffer));
        assert!(decoded.requests()[0]
            .payload
            .shares_allocation_with(&buffer));
    }

    #[test]
    fn canonical_encode_counter_ignores_sends() {
        // The counter is process-global and other unit tests build blocks
        // on parallel threads, so assert *deltas with slack*: a build adds
        // at least one encode, and a large batch of re-encodes adds far
        // fewer than one encode each (none from this thread; at most a few
        // dozen from concurrent builds elsewhere).
        const REENCODES: u64 = 100_000;
        let registry = registry();
        let signer0 = signer(&registry, 0);
        let before_build = Block::canonical_encodes();
        let block = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer0);
        assert!(Block::canonical_encodes() > before_build);
        let before_sends = Block::canonical_encodes();
        // Re-encoding (what every send does) replays the cache: no new
        // canonical encode, regardless of fan-out.
        for _ in 0..REENCODES {
            let _ = encode_to_vec(&block);
        }
        assert!(
            Block::canonical_encodes() - before_sends < REENCODES,
            "re-encoding must serve the cache, not re-serialize"
        );
        assert!(Block::canonical_encode_bytes() > 0);
    }

    #[test]
    fn parent_detection_genesis() {
        let registry = registry();
        let genesis = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![],
            &signer(&registry, 0),
        );
        assert_eq!(genesis.parent_via(|_| None).unwrap(), None);
    }

    #[test]
    fn parent_detection_single_parent() {
        let registry = registry();
        let signer0 = signer(&registry, 0);
        let genesis = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer0);
        let other = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![],
            &signer(&registry, 1),
        );
        let child = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![genesis.block_ref(), other.block_ref()],
            vec![],
            &signer0,
        );
        let meta = |r: &BlockRef| {
            [&genesis, &other]
                .iter()
                .find(|b| b.block_ref() == *r)
                .map(|b| (b.builder(), b.seq()))
        };
        assert_eq!(child.parent_via(meta).unwrap(), Some(genesis.block_ref()));
    }

    #[test]
    fn parent_detection_missing() {
        let registry = registry();
        let orphan = Block::build(
            ServerId::new(0),
            SeqNum::new(5),
            vec![],
            vec![],
            &signer(&registry, 0),
        );
        assert!(matches!(
            orphan.parent_via(|_| None),
            Err(InvalidBlockError::MissingParent { .. })
        ));
    }

    #[test]
    fn parent_detection_two_distinct_parents_rejected() {
        let registry = registry();
        let signer0 = signer(&registry, 0);
        // Two equivocating k=0 blocks by server 0.
        let genesis_a = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer0);
        let genesis_b = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(Label::new(0), &1u8)],
            &signer0,
        );
        let child = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![genesis_a.block_ref(), genesis_b.block_ref()],
            vec![],
            &signer0,
        );
        let meta = |r: &BlockRef| {
            [&genesis_a, &genesis_b]
                .iter()
                .find(|b| b.block_ref() == *r)
                .map(|b| (b.builder(), b.seq()))
        };
        assert!(matches!(
            child.parent_via(meta),
            Err(InvalidBlockError::MultipleParents { .. })
        ));
    }

    #[test]
    fn duplicate_parent_reference_is_one_parent() {
        let registry = registry();
        let signer0 = signer(&registry, 0);
        let genesis = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer0);
        let child = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![genesis.block_ref(), genesis.block_ref()],
            vec![],
            &signer0,
        );
        let meta =
            |r: &BlockRef| (*r == genesis.block_ref()).then(|| (genesis.builder(), genesis.seq()));
        assert_eq!(child.parent_via(meta).unwrap(), Some(genesis.block_ref()));
    }

    #[test]
    fn lemma_3_2_no_mutual_references() {
        // Cryptographic argument: to build B1 with ref(B2) ∈ B1.preds we
        // need ref(B2) first, and vice versa. We test the observable
        // consequence: any two constructible blocks can never reference each
        // other, because a block's own ref depends on its preds list.
        let registry = registry();
        let signer0 = signer(&registry, 0);
        let b1 = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer0);
        let b2 = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![b1.block_ref()],
            vec![],
            &signer(&registry, 1),
        );
        assert!(b2.preds().contains(&b1.block_ref()));
        assert!(!b1.preds().contains(&b2.block_ref()));
        // Rebuilding b1 to include b2 changes its ref — it is a different
        // block, so the original b2 no longer references "it".
        let b1_prime = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![b2.block_ref()],
            vec![],
            &signer0,
        );
        assert_ne!(b1_prime.block_ref(), b1.block_ref());
    }

    #[test]
    fn display_and_debug_are_informative() {
        let registry = registry();
        let block = Block::build(
            ServerId::new(1),
            SeqNum::new(3),
            vec![],
            vec![],
            &signer(&registry, 1),
        );
        let debug = format!("{block:?}");
        assert!(debug.contains("s1"));
        assert!(debug.contains("k3"));
        let display = format!("{block}");
        assert!(display.contains("s1/k3#"));
    }
}
