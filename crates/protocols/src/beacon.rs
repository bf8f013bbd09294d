//! A randomness beacon — the paper's §7 de-randomization recipe, applied.
//!
//! The embedding requires `P` to be deterministic; §7 sketches the way
//! out for protocols that *want* randomness: "in case randomness is merely
//! at the discretion of a server … de-randomize the protocol by relying on
//! the server including in their created block any coin flips used".
//!
//! This module is that recipe as a concrete protocol: each server draws a
//! coin **outside** the protocol (at the user/shim layer, where
//! non-determinism is allowed) and submits it as the request
//! [`BeaconRequest::Contribute`] — so the coin travels *inside a block*
//! and the protocol itself stays a pure state machine. Once shares from
//! **all** `n` servers are collected, every server deterministically
//! derives the same beacon output and winner.
//!
//! Honest scope notes (both flagged by the paper):
//!
//! * **liveness** needs all `n` contributions — a silent server stalls the
//!   round (tolerating `f` requires threshold cryptography, "a joint
//!   shared randomness protocol", which §7 cites as reference 17 and leaves out);
//! * the output is **biasable** by the last contributor, who can see the
//!   other coins in the DAG before choosing its own — fine for
//!   load-balancing-grade randomness, not for adversarial lotteries.

use std::collections::BTreeMap;

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
use dagbft_crypto::{sha256, ServerId};

/// Requests: contribute a locally drawn coin to this beacon round.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BeaconRequest {
    /// `contribute(coin)` — the coin was drawn outside the protocol and is
    /// inscribed in the contributor's block.
    Contribute(u64),
}

impl WireEncode for BeaconRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BeaconRequest::Contribute(coin) => {
                out.push(0);
                coin.encode(out);
            }
        }
    }
}

impl WireDecode for BeaconRequest {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(BeaconRequest::Contribute(u64::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "BeaconRequest",
                value,
            }),
        }
    }
}

/// Messages: a server's share, broadcast to everyone.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BeaconMessage {
    /// The sender's coin for this round.
    Share(u64),
}

/// Indications: the agreed beacon output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BeaconOutput {
    /// The 64-bit beacon value (prefix of a hash over all shares).
    pub value: u64,
    /// `value mod n`, as a ready-made leader/lottery winner.
    pub winner: ServerId,
}

/// One process instance of the beacon.
///
/// # Examples
///
/// ```
/// use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
/// use dagbft_crypto::ServerId;
/// use dagbft_protocols::beacon::{Beacon, BeaconRequest};
///
/// let config = ProtocolConfig::for_n(4);
/// let mut instance = Beacon::new(&config, Label::new(1), ServerId::new(0));
/// let mut outbox = Outbox::new(config);
/// instance.on_request(BeaconRequest::Contribute(0xfeed), &mut outbox);
/// assert_eq!(outbox.len(), 4); // the share goes to everyone
/// ```
#[derive(Debug, Clone)]
pub struct Beacon {
    contributed: bool,
    shares: BTreeMap<ServerId, u64>,
    output: Option<BeaconOutput>,
}

impl Beacon {
    /// Shares collected so far.
    pub fn share_count(&self) -> usize {
        self.shares.len()
    }

    /// The beacon output, once every server contributed.
    pub fn output(&self) -> Option<&BeaconOutput> {
        self.output.as_ref()
    }

    fn try_finalize(&mut self, outbox: &mut Outbox<BeaconMessage, BeaconOutput>) {
        let n = outbox.config().n;
        if self.output.is_some() || self.shares.len() < n {
            return;
        }
        // Deterministic mix: hash the (server, coin) pairs in server order.
        let mut preimage = Vec::with_capacity(self.shares.len() * 12);
        for (server, coin) in &self.shares {
            server.encode(&mut preimage);
            coin.encode(&mut preimage);
        }
        let digest = sha256(&preimage);
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&digest.as_bytes()[..8]);
        let value = u64::from_le_bytes(prefix);
        let output = BeaconOutput {
            value,
            winner: ServerId::new((value % n as u64) as u32),
        };
        self.output = Some(output.clone());
        outbox.indicate(output);
    }
}

impl DeterministicProtocol for Beacon {
    type Request = BeaconRequest;
    type Message = BeaconMessage;
    type Indication = BeaconOutput;

    fn new(_config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
        Beacon {
            contributed: false,
            shares: BTreeMap::new(),
            output: None,
        }
    }

    fn on_request(
        &mut self,
        request: Self::Request,
        outbox: &mut Outbox<Self::Message, Self::Indication>,
    ) {
        let BeaconRequest::Contribute(coin) = request;
        if !self.contributed {
            self.contributed = true;
            outbox.broadcast(BeaconMessage::Share(coin));
        }
    }

    fn on_message(
        &mut self,
        sender: ServerId,
        message: Self::Message,
        outbox: &mut Outbox<Self::Message, Self::Indication>,
    ) {
        let BeaconMessage::Share(coin) = message;
        // First share per sender counts (equivocating shares are absorbed
        // by whichever version the interpretation's total order feeds
        // first — consistently across all correct interpreters).
        self.shares.entry(sender).or_insert(coin);
        self.try_finalize(outbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all_contribute(n: usize, coins: &[u64]) -> Vec<Option<BeaconOutput>> {
        let config = ProtocolConfig::for_n(n);
        let mut instances: Vec<Beacon> = (0..n)
            .map(|i| Beacon::new(&config, Label::new(1), ServerId::new(i as u32)))
            .collect();
        let mut queue: Vec<(usize, ServerId, BeaconMessage)> = Vec::new();
        for (i, coin) in coins.iter().enumerate() {
            let mut outbox = Outbox::new(config);
            instances[i].on_request(BeaconRequest::Contribute(*coin), &mut outbox);
            for (to, message) in outbox.into_messages() {
                queue.push((to.index(), ServerId::new(i as u32), message));
            }
        }
        let mut outputs = vec![None; n];
        while let Some((to, from, message)) = queue.pop() {
            let mut outbox = Outbox::new(config);
            instances[to].on_message(from, message, &mut outbox);
            assert!(outbox.is_empty(), "beacon sends only on request");
            if let Some(output) = outbox.drain_indications().last() {
                outputs[to] = Some(output);
            }
        }
        outputs
    }

    #[test]
    fn all_contributions_yield_agreed_output() {
        let outputs = run_all_contribute(4, &[1, 2, 3, 4]);
        let first = outputs[0].clone().expect("beacon fired");
        for output in &outputs {
            assert_eq!(output.as_ref(), Some(&first), "disagreement");
        }
        assert!(first.winner.index() < 4);
    }

    #[test]
    fn missing_contribution_stalls() {
        let outputs = run_all_contribute(4, &[1, 2, 3]); // s3 never contributes
        assert!(outputs.iter().all(Option::is_none));
    }

    #[test]
    fn different_coins_different_output() {
        let a = run_all_contribute(4, &[1, 2, 3, 4])[0].clone().unwrap();
        let b = run_all_contribute(4, &[1, 2, 3, 5])[0].clone().unwrap();
        assert_ne!(a.value, b.value);
    }

    #[test]
    fn output_is_deterministic() {
        let a = run_all_contribute(4, &[9, 8, 7, 6])[0].clone().unwrap();
        let b = run_all_contribute(4, &[9, 8, 7, 6])[0].clone().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_shares_ignored() {
        let config = ProtocolConfig::for_n(2);
        let mut instance = Beacon::new(&config, Label::new(1), ServerId::new(0));
        let mut sink = Outbox::new(config);
        instance.on_message(ServerId::new(1), BeaconMessage::Share(5), &mut sink);
        instance.on_message(ServerId::new(1), BeaconMessage::Share(6), &mut sink);
        assert_eq!(instance.share_count(), 1);
        assert!(instance.output().is_none());
    }

    #[test]
    fn request_wire_roundtrip() {
        let request = BeaconRequest::Contribute(42);
        let bytes = dagbft_codec::encode_to_vec(&request);
        let decoded: BeaconRequest = dagbft_codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, request);
    }
}
