//! A full settlement node: `shim(BRB)` wired to the replicated [`Ledger`].
//!
//! This is the deployable form of the FastPay-style payment system the
//! paper's introduction motivates: one [`SettlementNode`] per server, each
//! broadcasting transfer orders on per-transfer BRB instances and settling
//! whatever BRB delivers. It packages the glue the examples and tests
//! would otherwise repeat: optimistic local validation on submit, delivery
//! draining, and fixed-point settlement of out-of-order arrivals.

use std::collections::BTreeSet;

use dagbft_core::{shim::SetupError, NetCommand, NetMessage, Shim, ShimConfig, TimeMs};
use dagbft_crypto::{KeyRegistry, ServerId};

use crate::brb::{Brb, BrbIndication, BrbRequest};
use crate::payments::{Ledger, Transfer, TransferError};

/// A server of the payment system: block DAG underneath, ledger on top.
///
/// # Examples
///
/// See the settlement tests; the node is driven exactly like a [`Shim`]
/// (deliver messages, wake at [`Shim::next_wake`]), plus
/// [`SettlementNode::submit`] and [`SettlementNode::ledger`].
#[derive(Debug)]
pub struct SettlementNode {
    shim: Shim<Brb<Transfer>>,
    ledger: Ledger,
    /// Delivered transfers waiting for funds or sequence predecessors.
    unsettled: BTreeSet<Transfer>,
}

impl SettlementNode {
    /// Creates a node with the given initial account balances.
    ///
    /// # Errors
    ///
    /// [`SetupError::UnknownServer`] if `registry` lacks a key for `me`.
    pub fn new<I: IntoIterator<Item = (crate::payments::AccountId, u64)>>(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        initial: I,
    ) -> Result<Self, SetupError> {
        Ok(SettlementNode {
            shim: Shim::new(me, config, registry)?,
            ledger: Ledger::new(initial),
            unsettled: BTreeSet::new(),
        })
    }

    /// The server identity.
    pub fn me(&self) -> ServerId {
        self.shim.me()
    }

    /// The local replicated ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Transfers delivered by BRB but not yet applicable.
    pub fn unsettled(&self) -> impl Iterator<Item = &Transfer> {
        self.unsettled.iter()
    }

    /// Read access to the underlying shim (DAG, stats).
    pub fn shim(&self) -> &Shim<Brb<Transfer>> {
        &self.shim
    }

    /// Submits a transfer order: validates it against the local ledger
    /// view (optimistically — concurrent transfers may still invalidate
    /// it) and broadcasts it on its dedicated BRB instance.
    ///
    /// # Errors
    ///
    /// The local [`Ledger::validate`] error; nothing is broadcast then.
    pub fn submit(&mut self, transfer: Transfer) -> Result<(), TransferError> {
        self.ledger.validate(&transfer)?;
        self.shim
            .request(transfer.label(), BrbRequest::Broadcast(transfer));
        Ok(())
    }

    /// Delivers a network message and settles any resulting transfers.
    pub fn on_message(
        &mut self,
        from: ServerId,
        message: NetMessage,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        let commands = self.shim.on_message_burst([(from, message)], now);
        self.settle_deliveries();
        commands
    }

    /// Runs the shim's due timers and settles any deliveries.
    pub fn wake(&mut self, now: TimeMs) -> Vec<NetCommand> {
        let commands = self.shim.wake(now);
        self.settle_deliveries();
        commands
    }

    /// Disseminates the current block and settles any deliveries.
    pub fn disseminate(&mut self, now: TimeMs) -> Vec<NetCommand> {
        let commands = self.shim.disseminate(now);
        self.settle_deliveries();
        commands
    }

    fn settle_deliveries(&mut self) {
        let mut batch: Vec<Transfer> = self.unsettled.iter().cloned().collect();
        for (_, indication) in self.shim.poll_indications() {
            let BrbIndication::Deliver(transfer) = indication;
            batch.push(transfer);
        }
        self.unsettled = self.ledger.settle(batch).into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payments::AccountId;
    use dagbft_core::ProtocolConfig;

    fn cluster(n: usize) -> Vec<SettlementNode> {
        let registry = KeyRegistry::generate(n, 31);
        let config = ShimConfig::new(ProtocolConfig::for_n(n));
        let initial = [(AccountId(1), 100u64), (AccountId(2), 50)];
        (0..n)
            .map(|i| {
                SettlementNode::new(ServerId::new(i as u32), config, &registry, initial).unwrap()
            })
            .collect()
    }

    /// Synchronous full-mesh delivery of all commands.
    fn pump(nodes: &mut [SettlementNode], origin: usize, commands: Vec<NetCommand>, now: TimeMs) {
        let mut queue: Vec<(usize, NetCommand)> =
            commands.into_iter().map(|c| (origin, c)).collect();
        while let Some((from, command)) = queue.pop() {
            match command {
                NetCommand::Broadcast { message } => {
                    for (target, node) in nodes.iter_mut().enumerate() {
                        if target != from {
                            let more =
                                node.on_message(ServerId::new(from as u32), message.clone(), now);
                            queue.extend(more.into_iter().map(|c| (target, c)));
                        }
                    }
                }
                NetCommand::SendTo { to, message } => {
                    let more =
                        nodes[to.index()].on_message(ServerId::new(from as u32), message, now);
                    queue.extend(more.into_iter().map(|c| (to.index(), c)));
                }
            }
        }
    }

    fn rounds(nodes: &mut [SettlementNode], count: usize) {
        for round in 0..count {
            for origin in 0..nodes.len() {
                let commands = nodes[origin].disseminate(round as u64);
                pump(nodes, origin, commands, round as u64);
            }
        }
    }

    #[test]
    fn transfer_settles_on_every_node() {
        let mut nodes = cluster(4);
        nodes[0]
            .submit(Transfer {
                from: AccountId(1),
                to: AccountId(2),
                amount: 30,
                seq: 0,
            })
            .unwrap();
        rounds(&mut nodes, 4);
        for node in &nodes {
            assert_eq!(node.ledger().balance(AccountId(1)), 70, "{}", node.me());
            assert_eq!(node.ledger().balance(AccountId(2)), 80);
            assert_eq!(node.ledger().total_supply(), 150);
        }
    }

    #[test]
    fn a_cluster_driven_only_by_wake_settles_on_every_node() {
        let mut nodes = cluster(4);
        nodes[2]
            .submit(Transfer {
                from: AccountId(2),
                to: AccountId(1),
                amount: 20,
                seq: 0,
            })
            .unwrap();
        for now in 0..1_000 {
            for origin in 0..nodes.len() {
                let commands = nodes[origin].wake(now);
                pump(&mut nodes, origin, commands, now);
            }
        }
        for node in &nodes {
            assert_eq!(node.ledger().balance(AccountId(1)), 120, "{}", node.me());
            assert_eq!(node.ledger().balance(AccountId(2)), 30);
            assert_eq!(node.unsettled().count(), 0);
        }
        // Each node was woken once per 50 ms slot of its own grid, and
        // sealed only in the slots with something to say: the request,
        // two slots with messages for it, and heartbeat slots 0, 8 and 16
        // (one of which brings server 3 messages too).
        let seals: Vec<u64> = nodes
            .iter()
            .map(|node| {
                let stats = node.shim().seal_stats();
                assert_eq!(stats.slots(), 20, "{}", node.me());
                assert_eq!(node.shim().gossip().next_seq().value(), stats.seals());
                stats.seals()
            })
            .collect();
        assert_eq!(seals, vec![5, 5, 5, 4]);
    }

    #[test]
    fn submit_rejects_invalid_locally() {
        let mut nodes = cluster(2);
        let err = nodes[0]
            .submit(Transfer {
                from: AccountId(1),
                to: AccountId(2),
                amount: 1_000,
                seq: 0,
            })
            .unwrap_err();
        assert!(matches!(err, TransferError::InsufficientFunds { .. }));
        // Nothing was broadcast.
        assert_eq!(nodes[0].shim().pending_requests(), 0);
    }

    #[test]
    fn chained_funds_settle_via_unsettled_buffer() {
        let mut nodes = cluster(4);
        // acct3 has nothing; it receives 40 from acct1 and then pays 25 on.
        nodes[0]
            .submit(Transfer {
                from: AccountId(1),
                to: AccountId(3),
                amount: 40,
                seq: 0,
            })
            .unwrap();
        rounds(&mut nodes, 4);
        // Now every node knows acct3 holds 40; node 1 submits the spend.
        nodes[1]
            .submit(Transfer {
                from: AccountId(3),
                to: AccountId(2),
                amount: 25,
                seq: 0,
            })
            .unwrap();
        rounds(&mut nodes, 4);
        for node in &nodes {
            assert_eq!(node.ledger().balance(AccountId(3)), 15);
            assert_eq!(node.ledger().balance(AccountId(2)), 75);
            assert_eq!(node.unsettled().count(), 0);
        }
    }

    #[test]
    fn replicas_agree_exactly() {
        let mut nodes = cluster(4);
        nodes[0]
            .submit(Transfer {
                from: AccountId(1),
                to: AccountId(2),
                amount: 10,
                seq: 0,
            })
            .unwrap();
        nodes[1]
            .submit(Transfer {
                from: AccountId(2),
                to: AccountId(1),
                amount: 5,
                seq: 0,
            })
            .unwrap();
        rounds(&mut nodes, 5);
        let reference = nodes[0].ledger().clone();
        for node in &nodes[1..] {
            assert_eq!(node.ledger(), &reference);
        }
    }
}
