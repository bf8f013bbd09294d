//! Accountability: cryptographic proofs of equivocation.
//!
//! §6 of the paper notes that "nothing precludes our proposed framework to
//! be adapted to hold equivocating servers accountable" (citing PeerReview
//! and Polygraph). The block DAG makes this almost free: an equivocation
//! *is* two validly signed blocks with the same `(builder, seq)` and
//! different content — self-contained, transferable evidence that convicts
//! the builder to any third party holding the servers' public keys.
//!
//! [`EquivocationProof`] packages that evidence; [`collect_proofs`]
//! extracts every provable equivocation from a DAG.

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_crypto::{ServerId, Verifier};

use crate::block::Block;
use crate::dag::BlockDag;

/// Self-contained, transferable proof that a server equivocated.
///
/// Valid iff both blocks verify against the accused builder's key, share
/// `(builder, seq)`, and differ in content (hence in `ref`). Forging a
/// proof against a correct server requires forging its signature.
///
/// # Examples
///
/// ```
/// use dagbft_core::accountability::EquivocationProof;
/// use dagbft_core::{Block, LabeledRequest, Label, SeqNum};
/// use dagbft_crypto::{KeyRegistry, ServerId};
///
/// let registry = KeyRegistry::generate(2, 1);
/// let signer = registry.signer(ServerId::new(0)).unwrap();
/// let a = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer);
/// let b = Block::build(
///     ServerId::new(0), SeqNum::ZERO, vec![],
///     vec![LabeledRequest::encode(Label::new(1), &1u8)], &signer,
/// );
/// let proof = EquivocationProof::new(a, b).unwrap();
/// assert!(proof.verify(&registry.verifier()));
/// assert_eq!(proof.accused(), ServerId::new(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivocationProof {
    /// One version (the one with the smaller reference, canonically).
    first: Block,
    /// The conflicting version.
    second: Block,
}

impl EquivocationProof {
    /// Packages two conflicting blocks as a proof.
    ///
    /// Returns `None` if the blocks do not conflict (different builders or
    /// sequence numbers, or identical content). Signature validity is
    /// checked by [`EquivocationProof::verify`], not here — construction
    /// is infallible bookkeeping, verification is the trust decision.
    pub fn new(a: Block, b: Block) -> Option<Self> {
        if a.builder() != b.builder() || a.seq() != b.seq() || a.block_ref() == b.block_ref() {
            return None;
        }
        // Canonical order makes proofs comparable and their encodings
        // deterministic regardless of discovery order.
        if a.block_ref() < b.block_ref() {
            Some(EquivocationProof {
                first: a,
                second: b,
            })
        } else {
            Some(EquivocationProof {
                first: b,
                second: a,
            })
        }
    }

    /// The convicted builder.
    pub fn accused(&self) -> ServerId {
        self.first.builder()
    }

    /// The two conflicting blocks.
    pub fn blocks(&self) -> (&Block, &Block) {
        (&self.first, &self.second)
    }

    /// Checks the proof: both blocks signed by the accused, same sequence
    /// number, different content.
    pub fn verify(&self, verifier: &Verifier) -> bool {
        self.first.builder() == self.second.builder()
            && self.first.seq() == self.second.seq()
            && self.first.block_ref() != self.second.block_ref()
            && self.first.verify_signature(verifier)
            && self.second.verify_signature(verifier)
    }
}

impl WireEncode for EquivocationProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.first.encode(out);
        self.second.encode(out);
    }
}

impl WireDecode for EquivocationProof {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let first = Block::decode(reader)?;
        let second = Block::decode(reader)?;
        EquivocationProof::new(first, second).ok_or(DecodeError::Invalid {
            reason: "blocks do not form an equivocation",
        })
    }
}

/// Extracts a proof for every `(server, seq)` at which `dag` holds more
/// than one block. Pairs beyond the first conflicting two are redundant
/// for conviction and are skipped.
pub fn collect_proofs(dag: &BlockDag) -> Vec<EquivocationProof> {
    let mut proofs = Vec::new();
    let servers: Vec<ServerId> = dag.known_servers().copied().collect();
    for server in servers {
        for (_, refs) in dag.equivocations(server) {
            if let [first, second, ..] = refs.as_slice() {
                let a = dag.get(first).expect("indexed block present").clone();
                let b = dag.get(second).expect("indexed block present").clone();
                if let Some(proof) = EquivocationProof::new(a, b) {
                    proofs.push(proof);
                }
            }
        }
    }
    proofs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{LabeledRequest, SeqNum};
    use crate::Label;
    use dagbft_codec::{decode_from_slice, encode_to_vec};
    use dagbft_crypto::KeyRegistry;

    fn conflicting_pair(registry: &KeyRegistry) -> (Block, Block) {
        let signer = registry.signer(ServerId::new(0)).unwrap();
        let a = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer);
        let b = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(Label::new(1), &1u8)],
            &signer,
        );
        (a, b)
    }

    #[test]
    fn valid_proof_verifies() {
        let registry = KeyRegistry::generate(2, 1);
        let (a, b) = conflicting_pair(&registry);
        let proof = EquivocationProof::new(a, b).unwrap();
        assert!(proof.verify(&registry.verifier()));
        assert_eq!(proof.accused(), ServerId::new(0));
    }

    #[test]
    fn canonical_order_independent_of_discovery() {
        let registry = KeyRegistry::generate(2, 1);
        let (a, b) = conflicting_pair(&registry);
        let forward = EquivocationProof::new(a.clone(), b.clone()).unwrap();
        let backward = EquivocationProof::new(b, a).unwrap();
        assert_eq!(forward, backward);
        assert_eq!(encode_to_vec(&forward), encode_to_vec(&backward));
    }

    #[test]
    fn non_conflicting_blocks_rejected() {
        let registry = KeyRegistry::generate(2, 1);
        let signer0 = registry.signer(ServerId::new(0)).unwrap();
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        let a = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer0);
        // Different builder.
        let c = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        assert!(EquivocationProof::new(a.clone(), c).is_none());
        // Different seq.
        let d = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![a.block_ref()],
            vec![],
            &signer0,
        );
        assert!(EquivocationProof::new(a.clone(), d).is_none());
        // Identical block.
        assert!(EquivocationProof::new(a.clone(), a).is_none());
    }

    #[test]
    fn forged_signature_fails_verification() {
        let registry = KeyRegistry::generate(2, 1);
        let (a, b) = conflicting_pair(&registry);
        // Re-sign "b" with the wrong key: same content, bogus signature.
        let forged = Block::build_with_signature(
            b.builder(),
            b.seq(),
            b.preds().to_vec(),
            b.requests().to_vec(),
            dagbft_crypto::Signature::NULL,
        );
        let proof = EquivocationProof::new(a, forged).unwrap();
        assert!(!proof.verify(&registry.verifier()));
    }

    #[test]
    fn wire_roundtrip_and_tamper_rejection() {
        let registry = KeyRegistry::generate(2, 1);
        let (a, b) = conflicting_pair(&registry);
        let proof = EquivocationProof::new(a.clone(), b).unwrap();
        let bytes = encode_to_vec(&proof);
        let decoded: EquivocationProof = decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, proof);
        assert!(decoded.verify(&registry.verifier()));

        // A "proof" of two identical blocks must not decode.
        let mut twice = Vec::new();
        a.encode(&mut twice);
        a.encode(&mut twice);
        assert!(decode_from_slice::<EquivocationProof>(&twice).is_err());
    }

    #[test]
    fn collect_from_dag() {
        let registry = KeyRegistry::generate(2, 1);
        let (a, b) = conflicting_pair(&registry);
        let honest = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![],
            &registry.signer(ServerId::new(1)).unwrap(),
        );
        let mut dag = BlockDag::new();
        dag.insert(a).unwrap();
        dag.insert(b).unwrap();
        dag.insert(honest).unwrap();
        let proofs = collect_proofs(&dag);
        assert_eq!(proofs.len(), 1);
        assert_eq!(proofs[0].accused(), ServerId::new(0));
        assert!(proofs[0].verify(&registry.verifier()));
    }

    #[test]
    fn clean_dag_yields_no_proofs() {
        let registry = KeyRegistry::generate(2, 1);
        let signer = registry.signer(ServerId::new(0)).unwrap();
        let a = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer);
        let b = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![a.block_ref()],
            vec![],
            &signer,
        );
        let mut dag = BlockDag::new();
        dag.insert(a).unwrap();
        dag.insert(b).unwrap();
        assert!(collect_proofs(&dag).is_empty());
    }
}
