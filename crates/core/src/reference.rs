//! The naive clone-per-block interpreter, retained as a test/bench oracle.
//!
//! This module is the *literal* transcription of Algorithm 2: line 4's
//! `PIs := B_parent.PIs` is implemented as a deep clone of the whole
//! instance map, and every block retains its own full copy. That is
//! O(blocks × active labels × instance size) in memory and clone work —
//! exactly the cost the interpreter in [`crate::interpret`] eliminates by
//! moving one view along each chain and storing per-block deltas.
//!
//! It stays in the tree for two reasons:
//!
//! * **equivalence testing** — `crates/core/tests/reference_equivalence.rs`
//!   proptests that random DAGs (including equivocations and malformed
//!   requests) yield bit-identical per-block states, indications, and
//!   stats under both interpreters (Lemma 4.2 holds for either, so any
//!   divergence is an implementation bug, not a semantic choice);
//! * **benchmark baselines** — `interpret_offline` measures the win over
//!   this implementation on identical workloads.
//!
//! Production code paths (`Shim`, the simulator) must use
//! [`crate::interpret::Interpreter`]; nothing outside tests and benches
//! should instantiate [`ReferenceInterpreter`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dagbft_codec::decode_from_slice;

use crate::block::BlockRef;
use crate::dag::BlockDag;
use crate::interpret::{Indication, InterpretError, InterpretStats};
use crate::label::Label;
use crate::protocol::{DeterministicProtocol, Envelope, Outbox, ProtocolConfig};

/// Interpretation state attached to one block under the naive interpreter:
/// a full private copy of `B.PIs`, plus the `B.Ms[out/in, ·]` buffers.
#[derive(Debug, Clone)]
pub struct ReferenceBlockState<P: DeterministicProtocol> {
    /// `B.PIs[ℓ]`: a full, private copy per block.
    pis: BTreeMap<Label, P>,
    /// `B.Ms[out, ℓ]`.
    outs: BTreeMap<Label, BTreeSet<Envelope<P::Message>>>,
    /// `B.Ms[in, ℓ]`.
    ins: BTreeMap<Label, BTreeSet<Envelope<P::Message>>>,
    /// Labels requested at this block or any ancestor.
    active: BTreeSet<Label>,
}

impl<P: DeterministicProtocol> ReferenceBlockState<P> {
    /// The simulated instance of `label`, if started.
    pub fn instance(&self, label: Label) -> Option<&P> {
        self.pis.get(&label)
    }

    /// Labels with a started instance at this block.
    pub fn instance_labels(&self) -> impl Iterator<Item = &Label> {
        self.pis.keys()
    }

    /// Out-going messages `B.Ms[out, ℓ]` produced at this block.
    pub fn out_messages(&self, label: Label) -> impl Iterator<Item = &Envelope<P::Message>> {
        self.outs.get(&label).into_iter().flatten()
    }

    /// In-coming messages `B.Ms[in, ℓ]` delivered at this block.
    pub fn in_messages(&self, label: Label) -> impl Iterator<Item = &Envelope<P::Message>> {
        self.ins.get(&label).into_iter().flatten()
    }

    /// Labels for which this block produced out-going messages.
    pub fn out_labels(&self) -> impl Iterator<Item = &Label> {
        self.outs.keys()
    }
}

/// The clone-per-block `interpret(G, P)` oracle.
///
/// Semantically identical to [`crate::interpret::Interpreter`] (both
/// realize Algorithm 2); differs only in state representation and in
/// `eligible` performing the full O(V·E) rescan the original code used.
#[derive(Debug)]
pub struct ReferenceInterpreter<P: DeterministicProtocol> {
    config: ProtocolConfig,
    states: HashMap<BlockRef, ReferenceBlockState<P>>,
    order: Vec<BlockRef>,
    indications: Vec<Indication<P::Indication>>,
    stats: InterpretStats,
}

impl<P: DeterministicProtocol> ReferenceInterpreter<P> {
    /// Creates a reference interpreter for the given configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        ReferenceInterpreter {
            config,
            states: HashMap::new(),
            order: Vec::new(),
            indications: Vec::new(),
            stats: InterpretStats::default(),
        }
    }

    /// `I[B]`: whether `block` has been interpreted.
    pub fn is_interpreted(&self, block: &BlockRef) -> bool {
        self.states.contains_key(block)
    }

    /// Number of interpreted blocks.
    pub fn interpreted_count(&self) -> usize {
        self.states.len()
    }

    /// Work counters.
    pub fn stats(&self) -> &InterpretStats {
        &self.stats
    }

    /// Interpretation state attached to `block`, if interpreted.
    pub fn state(&self, block: &BlockRef) -> Option<&ReferenceBlockState<P>> {
        self.states.get(block)
    }

    /// Blocks interpreted so far, in interpretation order.
    pub fn interpreted_order(&self) -> &[BlockRef] {
        &self.order
    }

    /// The blocks currently eligible, by full DAG rescan.
    pub fn eligible(&self, dag: &BlockDag) -> Vec<BlockRef> {
        dag.refs()
            .filter(|r| !self.is_interpreted(r))
            .filter(|r| dag.preds_of(r).iter().all(|p| self.is_interpreted(p)))
            .copied()
            .collect()
    }

    /// Interprets every block of `dag` that is or becomes eligible, to a
    /// fixed point, by repeated rescans. Returns the number interpreted.
    pub fn step(&mut self, dag: &BlockDag) -> usize {
        let mut total = 0;
        loop {
            let eligible = self.eligible(dag);
            if eligible.is_empty() {
                return total;
            }
            for block_ref in eligible {
                self.interpret_block(dag, &block_ref)
                    .expect("eligible block interprets");
                total += 1;
            }
        }
    }

    /// Interprets a single eligible block (Algorithm 2, lines 4–12), with
    /// line 4 as a literal deep clone of the parent's `PIs`.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::interpret::Interpreter::interpret_block`].
    pub fn interpret_block(
        &mut self,
        dag: &BlockDag,
        block_ref: &BlockRef,
    ) -> Result<(), InterpretError> {
        let block = dag
            .get(block_ref)
            .ok_or(InterpretError::UnknownBlock { block: *block_ref })?;
        if self.is_interpreted(block_ref) {
            return Err(InterpretError::AlreadyInterpreted { block: *block_ref });
        }
        let preds = dag.preds_of(block_ref);
        let pending: Vec<BlockRef> = preds
            .iter()
            .filter(|p| !self.is_interpreted(p))
            .copied()
            .collect();
        if !pending.is_empty() {
            return Err(InterpretError::NotEligible { pending });
        }

        let me = block.builder();

        // Line 4: PIs := deep copy of the parent's PIs.
        let parent = block
            .parent_via(|r| dag.meta(r))
            .expect("blocks in the DAG satisfy the parent rule");
        let mut pis: BTreeMap<Label, P> = match parent {
            Some(parent_ref) => self.states[&parent_ref].pis.clone(),
            None => BTreeMap::new(),
        };

        let mut active: BTreeSet<Label> = BTreeSet::new();
        for pred in &preds {
            active.extend(self.states[pred].active.iter().copied());
        }

        let mut outs: BTreeMap<Label, BTreeSet<Envelope<P::Message>>> = BTreeMap::new();
        let mut ins: BTreeMap<Label, BTreeSet<Envelope<P::Message>>> = BTreeMap::new();
        let mut touched: BTreeSet<Label> = BTreeSet::new();
        let config = self.config;

        // Lines 5–6: feed the block's own requests to B.n's instances.
        for labeled in block.requests() {
            let label = labeled.label;
            match decode_from_slice::<P::Request>(&labeled.payload) {
                Ok(request) => {
                    let instance = pis
                        .entry(label)
                        .or_insert_with(|| P::new(&config, label, me));
                    let mut outbox = Outbox::new();
                    instance.on_request(request, &mut outbox);
                    let envelopes: Vec<_> = outbox.into_envelopes(me).collect();
                    self.stats.messages_materialized += envelopes.len() as u64;
                    outs.entry(label).or_default().extend(envelopes);
                    active.insert(label);
                    touched.insert(label);
                    self.stats.requests_processed += 1;
                }
                Err(_) => {
                    self.stats.malformed_requests += 1;
                }
            }
        }

        // Lines 7–11: collect and deliver in-messages in the order <_M.
        for label in active.iter().copied() {
            let mut inbox: BTreeSet<Envelope<P::Message>> = BTreeSet::new();
            for pred in &preds {
                if let Some(out) = self.states[pred].outs.get(&label) {
                    inbox.extend(out.iter().filter(|e| e.receiver == me).cloned());
                }
            }
            if inbox.is_empty() {
                continue;
            }
            let instance = pis
                .entry(label)
                .or_insert_with(|| P::new(&config, label, me));
            for envelope in &inbox {
                let mut outbox = Outbox::new();
                instance.on_message(envelope.sender, envelope.message.clone(), &mut outbox);
                let envelopes: Vec<_> = outbox.into_envelopes(me).collect();
                self.stats.messages_materialized += envelopes.len() as u64;
                outs.entry(label).or_default().extend(envelopes);
                self.stats.messages_delivered += 1;
            }
            touched.insert(label);
            ins.insert(label, inbox);
        }

        // Lines 13–14: surface indications from the instances driven here.
        for label in &touched {
            if let Some(instance) = pis.get_mut(label) {
                for indication in instance.drain_indications() {
                    self.stats.indications += 1;
                    self.indications.push(Indication {
                        label: *label,
                        indication,
                        server: me,
                    });
                }
            }
        }

        // Line 12: I[B] := true.
        self.states.insert(
            *block_ref,
            ReferenceBlockState {
                pis,
                outs,
                ins,
                active,
            },
        );
        self.order.push(*block_ref);
        self.stats.blocks_interpreted += 1;
        Ok(())
    }

    /// Removes and returns the indications raised since the last drain.
    pub fn drain_indications(&mut self) -> Vec<Indication<P::Indication>> {
        std::mem::take(&mut self.indications)
    }
}
