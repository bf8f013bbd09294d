//! The block DAG `G ∈ Dags` (Definition 3.4).
//!
//! A block DAG is a directed acyclic graph whose vertices are *valid* blocks
//! and whose edges are exactly the predecessor references: if
//! `B ∈ B'.preds` then `B ∈ G` and `(B, B') ∈ E`. Insertion follows the
//! restrictive Definition 2.1 — a new block may only be inserted when all
//! its predecessors are already present, which makes the DAG acyclic *by
//! construction* (Lemma 2.2 (3), Lemma A.3) and insertion idempotent
//! (Lemma A.2).
//!
//! The structure additionally maintains the per-server chain index used to
//! detect equivocations (two valid blocks by the same builder with the same
//! sequence number — Figure 3). It keeps no successor index: the edges are
//! the blocks' `preds`, and the few queries that walk successors
//! ([`BlockDag::children_of`], [`BlockDag::tips`]) derive them from the
//! `preds` when called.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use dagbft_crypto::ServerId;

use crate::block::{Block, BlockRef, SeqNum};
use crate::error::DagError;

/// A server's local block DAG.
///
/// # Examples
///
/// ```
/// use dagbft_core::{Block, BlockDag, SeqNum};
/// use dagbft_crypto::{KeyRegistry, ServerId};
///
/// let registry = KeyRegistry::generate(2, 3);
/// let signer = registry.signer(ServerId::new(0)).unwrap();
/// let genesis = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer);
///
/// let mut dag = BlockDag::new();
/// assert!(dag.insert(genesis.clone())?);
/// assert!(!dag.insert(genesis)?); // idempotent (Lemma A.2)
/// assert_eq!(dag.len(), 1);
/// # Ok::<(), dagbft_core::DagError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockDag {
    blocks: HashMap<BlockRef, Block>,
    /// Insertion order; a topological order by construction.
    order: Vec<BlockRef>,
    /// Per-server chains: `n → k → refs` (more than one ref at a `k` is an
    /// equivocation).
    chains: HashMap<ServerId, BTreeMap<SeqNum, Vec<BlockRef>>>,
    edge_count: usize,
}

impl BlockDag {
    /// Creates the empty block DAG `∅`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blocks `|V_G|`.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` for the empty DAG.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of edges `|E_G|` (counting duplicate references once).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `B ∈ G`.
    pub fn contains(&self, block: &BlockRef) -> bool {
        self.blocks.contains_key(block)
    }

    /// Looks up a block by reference.
    pub fn get(&self, block: &BlockRef) -> Option<&Block> {
        self.blocks.get(block)
    }

    /// Resolves `(builder, seq)` metadata for a reference, as needed by
    /// parent determination (Definition 3.3 (ii)).
    pub fn meta(&self, block: &BlockRef) -> Option<(ServerId, SeqNum)> {
        self.blocks.get(block).map(|b| (b.builder(), b.seq()))
    }

    /// Inserts a block whose predecessors are all present
    /// (`G.insert(B)` of Definition 3.4).
    ///
    /// Returns `Ok(true)` if the block was new, `Ok(false)` if it was
    /// already present (insertion is idempotent, Lemma A.2). Validity of the
    /// block itself (signature, parent rule) is the caller's concern — the
    /// [`crate::gossip::Gossip`] layer validates before inserting, mirroring
    /// the paper's separation between `valid(s, B)` and `G.insert(B)`.
    ///
    /// # Errors
    ///
    /// [`DagError::MissingPredecessors`] if any `B' ∈ B.preds` is absent;
    /// inserting anyway would violate Definition 3.4 (ii).
    pub fn insert(&mut self, block: Block) -> Result<bool, DagError> {
        let block_ref = block.block_ref();
        if self.contains(&block_ref) {
            return Ok(false);
        }
        let missing: Vec<BlockRef> = block
            .preds()
            .iter()
            .filter(|p| !self.contains(p))
            .copied()
            .collect();
        if !missing.is_empty() {
            return Err(DagError::MissingPredecessors {
                block: block_ref,
                missing,
            });
        }

        // Definition 2.1: add the vertex and only edges into it. The vertex
        // is fresh, so acyclicity is preserved (Lemma 2.2 (3)).
        self.edge_count += distinct(block.preds()).len();
        self.chains
            .entry(block.builder())
            .or_default()
            .entry(block.seq())
            .or_default()
            .push(block_ref);
        self.order.push(block_ref);
        self.blocks.insert(block_ref, block);
        Ok(true)
    }

    /// Distinct predecessors of a block, sorted (duplicate references
    /// collapse to one edge).
    pub fn preds_of(&self, block: &BlockRef) -> Vec<BlockRef> {
        self.blocks
            .get(block)
            .map_or_else(Vec::new, |b| distinct(b.preds()))
    }

    /// Blocks that reference `block` directly (`block ⇀ child`), in
    /// insertion order. Derived from the `preds` of the blocks inserted
    /// after it: a scan of the DAG, for tests and tools.
    pub fn children_of<'a>(&'a self, block: &'a BlockRef) -> impl Iterator<Item = &'a BlockRef> {
        self.order
            .iter()
            .skip_while(move |r| *r != block)
            .skip(1)
            .filter(move |r| self.blocks[*r].preds().contains(block))
    }

    /// Blocks in insertion order — a topological order, since every block is
    /// inserted after its predecessors.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.order.iter().map(move |r| &self.blocks[r])
    }

    /// References in insertion (topological) order.
    pub fn refs(&self) -> impl Iterator<Item = &BlockRef> {
        self.order.iter()
    }

    /// Blocks with no successors — the current frontier, in insertion
    /// order: every block no block's `preds` names.
    pub fn tips(&self) -> Vec<BlockRef> {
        let cited: HashSet<&BlockRef> = self.iter().flat_map(Block::preds).collect();
        self.order
            .iter()
            .filter(|r| !cited.contains(r))
            .copied()
            .collect()
    }

    /// Genesis blocks (`k = 0`) present in the DAG.
    pub fn genesis_blocks(&self) -> impl Iterator<Item = &Block> {
        self.iter().filter(|b| b.is_genesis())
    }

    /// `a ⇀⁺ b`: `b` is reachable from `a` along one or more edges —
    /// `a` is an ancestor of `b`, found by walking `preds` back from `b`.
    pub fn reaches(&self, a: &BlockRef, b: &BlockRef) -> bool {
        self.contains(a) && self.contains(b) && self.ancestors(b).contains(a)
    }

    /// `a ⇀* b`: reflexive-transitive reachability.
    pub fn reaches_reflexive(&self, a: &BlockRef, b: &BlockRef) -> bool {
        (a == b && self.contains(a)) || self.reaches(a, b)
    }

    /// All ancestors of `block` (blocks `B` with `B ⇀⁺ block`).
    pub fn ancestors(&self, block: &BlockRef) -> BTreeSet<BlockRef> {
        let mut result = BTreeSet::new();
        let mut queue: VecDeque<BlockRef> = self.preds_of(block).into();
        while let Some(current) = queue.pop_front() {
            if result.insert(current) {
                queue.extend(self.preds_of(&current));
            }
        }
        result
    }

    /// The subgraph relation `G ≤ G'` of §2.
    ///
    /// For content-addressed block DAGs the edge sets are functions of the
    /// member blocks, so `V ⊆ V'` already implies the edge conditions; this
    /// method still checks them, serving as an executable statement of the
    /// definition.
    pub fn le(&self, other: &BlockDag) -> bool {
        for r in self.refs() {
            if !other.contains(r) {
                return false;
            }
        }
        // Both edge sets are derived from identical block content, so
        // E = E' ∩ (V × V) reduces to: every edge of `other` between blocks
        // of `self` exists in `self` — guaranteed when both contain the same
        // blocks — and vice versa. Verify the non-trivial direction: an
        // edge `pred ⇀ kid` of `other` is `pred ∈ kid.preds` there.
        self.iter().all(|kid| {
            other.blocks[&kid.block_ref()]
                .preds()
                .iter()
                .all(|pred| !self.contains(pred) || kid.preds().contains(pred))
        })
    }

    /// The joint DAG `G ∪ G'` (§3): the union of vertices with the union of
    /// edges. Since edges are derived from block content, this is simply the
    /// union of block sets inserted in a valid order.
    pub fn union(&self, other: &BlockDag) -> BlockDag {
        let mut joined = self.clone();
        // Repeatedly insert blocks whose preds are satisfied; terminates
        // because `other` is itself a DAG in topological insertion order.
        for block in other.iter() {
            // Order guarantees preds already inserted.
            let _ = joined.insert(block.clone());
        }
        joined
    }

    /// Highest sequence number of a server's blocks, if any.
    pub fn height_of(&self, server: ServerId) -> Option<SeqNum> {
        self.chains
            .get(&server)
            .and_then(|chain| chain.keys().next_back())
            .copied()
    }

    /// Blocks built by `server` at sequence number `seq`.
    pub fn blocks_at(&self, server: ServerId, seq: SeqNum) -> &[BlockRef] {
        self.chains
            .get(&server)
            .and_then(|chain| chain.get(&seq))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Sequence numbers at which `server` has produced more than one valid
    /// block — proof of equivocation (Figure 3).
    pub fn equivocations(&self, server: ServerId) -> Vec<(SeqNum, Vec<BlockRef>)> {
        self.chains
            .get(&server)
            .map(|chain| {
                chain
                    .iter()
                    .filter(|(_, refs)| refs.len() > 1)
                    .map(|(seq, refs)| (*seq, refs.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All servers that have at least one block in the DAG.
    pub fn known_servers(&self) -> impl Iterator<Item = &ServerId> {
        self.chains.keys()
    }

    /// Verifies the structural invariants of Definition 3.4; used by tests
    /// and debug assertions.
    ///
    /// Checks that (a) every predecessor of every block is present, and (b)
    /// the graph is acyclic (every block was inserted after its
    /// predecessors, so insertion order witnesses a topological order).
    pub fn check_invariants(&self) -> bool {
        let mut position: HashMap<BlockRef, usize> = HashMap::new();
        for (index, r) in self.order.iter().enumerate() {
            position.insert(*r, index);
        }
        for block in self.iter() {
            let my_pos = position[&block.block_ref()];
            for pred in block.preds() {
                if !self.contains(pred) {
                    return false;
                }
                if position[pred] >= my_pos {
                    return false; // would imply a cycle or bad order
                }
            }
        }
        true
    }

    /// Renders the DAG in Graphviz `dot` syntax, one rank per server —
    /// useful for visually comparing against the paper's Figures 2–4.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph blockdag {\n  rankdir=LR;\n");
        for block in self.iter() {
            out.push_str(&format!(
                "  \"{}\" [label=\"{}/{}\"];\n",
                block.block_ref(),
                block.builder(),
                block.seq()
            ));
        }
        for block in self.iter() {
            for pred in self.preds_of(&block.block_ref()) {
                out.push_str(&format!("  \"{}\" -> \"{}\";\n", pred, block.block_ref()));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The distinct references among `preds`, sorted: duplicate references
/// collapse to one edge.
fn distinct(preds: &[BlockRef]) -> Vec<BlockRef> {
    let mut distinct = preds.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_crypto::{KeyRegistry, Signer};

    fn setup(n: usize) -> (KeyRegistry, Vec<Signer>) {
        let registry = KeyRegistry::generate(n, 5);
        let signers = (0..n)
            .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
            .collect();
        (registry, signers)
    }

    fn genesis(signer: &Signer) -> Block {
        Block::build(signer.id(), SeqNum::ZERO, vec![], vec![], signer)
    }

    /// Builds the paper's Figure 2: B1 = s1/k0, B2 = s2/k0,
    /// B3 = s1/k1 with preds [B1, B2].
    fn figure_2() -> (BlockDag, Block, Block, Block) {
        let (_, signers) = setup(2);
        let b1 = genesis(&signers[0]);
        let b2 = genesis(&signers[1]);
        let b3 = Block::build(
            signers[0].id(),
            SeqNum::new(1),
            vec![b1.block_ref(), b2.block_ref()],
            vec![],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        dag.insert(b1.clone()).unwrap();
        dag.insert(b2.clone()).unwrap();
        dag.insert(b3.clone()).unwrap();
        (dag, b1, b2, b3)
    }

    #[test]
    fn figure_2_structure() {
        let (dag, b1, b2, b3) = figure_2();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.edge_count(), 2);
        assert!(dag.reaches(&b1.block_ref(), &b3.block_ref()));
        assert!(dag.reaches(&b2.block_ref(), &b3.block_ref()));
        assert!(!dag.reaches(&b1.block_ref(), &b2.block_ref()));
        assert_eq!(dag.tips(), vec![b3.block_ref()]);
        assert!(dag.check_invariants());
        // parent(B3) = B1.
        let parent = b3.parent_via(|r| dag.meta(r)).unwrap();
        assert_eq!(parent, Some(b1.block_ref()));
    }

    #[test]
    fn figure_3_equivocation_detected() {
        let (dag, b1, b2, _b3) = figure_2();
        let (_, signers) = setup(2);
        // B4: same builder and seq as B3 but different content.
        let b4 = Block::build(
            signers[0].id(),
            SeqNum::new(1),
            vec![b1.block_ref(), b2.block_ref()],
            vec![crate::block::LabeledRequest::encode(
                crate::Label::new(1),
                &1u8,
            )],
            &signers[0],
        );
        let mut dag = dag;
        dag.insert(b4.clone()).unwrap();
        let equivocations = dag.equivocations(signers[0].id());
        assert_eq!(equivocations.len(), 1);
        assert_eq!(equivocations[0].0, SeqNum::new(1));
        assert_eq!(equivocations[0].1.len(), 2);
        assert!(dag.equivocations(signers[1].id()).is_empty());
    }

    #[test]
    fn insert_missing_preds_rejected() {
        let (_, signers) = setup(2);
        let b1 = genesis(&signers[0]);
        let b3 = Block::build(
            signers[0].id(),
            SeqNum::new(1),
            vec![b1.block_ref()],
            vec![],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        let err = dag.insert(b3).unwrap_err();
        assert!(matches!(err, DagError::MissingPredecessors { .. }));
    }

    #[test]
    fn insert_idempotent_lemma_a2() {
        let (_, signers) = setup(1);
        let b = genesis(&signers[0]);
        let mut dag = BlockDag::new();
        assert!(dag.insert(b.clone()).unwrap());
        let edges = dag.edge_count();
        let len = dag.len();
        assert!(!dag.insert(b).unwrap());
        assert_eq!(dag.len(), len);
        assert_eq!(dag.edge_count(), edges);
    }

    #[test]
    fn duplicate_references_collapse_to_one_edge() {
        let (_, signers) = setup(1);
        let b0 = genesis(&signers[0]);
        let b1 = Block::build(
            signers[0].id(),
            SeqNum::new(1),
            vec![b0.block_ref(), b0.block_ref(), b0.block_ref()],
            vec![],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        dag.insert(b0.clone()).unwrap();
        dag.insert(b1.clone()).unwrap();
        assert_eq!(dag.edge_count(), 1);
        assert_eq!(dag.preds_of(&b1.block_ref()), vec![b0.block_ref()]);
    }

    #[test]
    fn ancestors_and_reachability() {
        let (dag, b1, b2, b3) = figure_2();
        let ancestors = dag.ancestors(&b3.block_ref());
        assert!(ancestors.contains(&b1.block_ref()));
        assert!(ancestors.contains(&b2.block_ref()));
        assert_eq!(ancestors.len(), 2);
        assert!(dag.reaches_reflexive(&b3.block_ref(), &b3.block_ref()));
        assert!(dag.ancestors(&b1.block_ref()).is_empty());
    }

    #[test]
    fn le_and_union_joint_dag() {
        let (dag_full, b1, _b2, _b3) = figure_2();
        let mut dag_partial = BlockDag::new();
        dag_partial
            .insert(dag_full.get(&b1.block_ref()).unwrap().clone())
            .unwrap();
        assert!(dag_partial.le(&dag_full));
        assert!(!dag_full.le(&dag_partial));

        let joined = dag_partial.union(&dag_full);
        assert_eq!(joined.len(), dag_full.len());
        assert!(dag_full.le(&joined));
        assert!(dag_partial.le(&joined));
        assert!(joined.check_invariants());
    }

    #[test]
    fn chains_and_height() {
        let (dag, _b1, _b2, b3) = figure_2();
        assert_eq!(dag.height_of(b3.builder()), Some(SeqNum::new(1)));
        assert_eq!(
            dag.blocks_at(b3.builder(), SeqNum::new(1)),
            &[b3.block_ref()]
        );
        assert_eq!(dag.height_of(ServerId::new(9)), None);
        assert!(dag.blocks_at(ServerId::new(9), SeqNum::ZERO).is_empty());
    }

    #[test]
    fn iteration_order_is_topological() {
        let (dag, ..) = figure_2();
        let mut seen = BTreeSet::new();
        for block in dag.iter() {
            for pred in block.preds() {
                assert!(seen.contains(pred), "pred before child");
            }
            seen.insert(block.block_ref());
        }
    }

    #[test]
    fn genesis_blocks_listed() {
        let (dag, b1, b2, _) = figure_2();
        let genesis_refs: BTreeSet<BlockRef> =
            dag.genesis_blocks().map(|b| b.block_ref()).collect();
        assert_eq!(
            genesis_refs,
            [b1.block_ref(), b2.block_ref()].into_iter().collect()
        );
    }

    #[test]
    fn dot_rendering_mentions_every_block() {
        let (dag, b1, b2, b3) = figure_2();
        let dot = dag.to_dot();
        for block in [&b1, &b2, &b3] {
            assert!(dot.contains(&block.block_ref().to_string()));
        }
        assert!(dot.contains("->"));
    }
}
