//! One server of the traditional deployment.

use std::collections::BTreeMap;

use dagbft_codec::{decode_from_slice, encode_to_vec, DecodeError, Reader, WireDecode, WireEncode};
use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
use dagbft_crypto::{KeyRegistry, ServerId, Signature, Signer, Verifier};

/// A protocol message as it crosses the wire in the direct deployment:
/// labeled, sender-attributed, and individually signed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedMessage {
    /// The protocol instance.
    pub label: Label,
    /// The claimed sender (bound by the signature).
    pub sender: ServerId,
    /// The receiver (bound by the signature to prevent redirection).
    pub receiver: ServerId,
    /// Encoded `P::Message`.
    pub payload: Vec<u8>,
    /// Signature over `(label, sender, receiver, payload)`.
    pub signature: Signature,
}

impl SignedMessage {
    fn signing_bytes(
        label: Label,
        sender: ServerId,
        receiver: ServerId,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(payload.len() + 24);
        label.encode(&mut bytes);
        sender.encode(&mut bytes);
        receiver.encode(&mut bytes);
        bytes.extend_from_slice(payload);
        bytes
    }
}

impl WireEncode for SignedMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.encode(out);
        self.sender.encode(out);
        self.receiver.encode(out);
        self.payload.encode(out);
        self.signature.encode(out);
    }
}

impl WireDecode for SignedMessage {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SignedMessage {
            label: Label::decode(reader)?,
            sender: ServerId::decode(reader)?,
            receiver: ServerId::decode(reader)?,
            payload: Vec::<u8>::decode(reader)?,
            signature: Signature::decode(reader)?,
        })
    }
}

/// An outgoing signed message with its routing destination.
#[derive(Debug, Clone)]
pub struct OutMessage {
    /// Destination server.
    pub to: ServerId,
    /// The signed wire message.
    pub signed: SignedMessage,
}

/// A server of the direct point-to-point deployment: one local instance of
/// `P` per label, every message individually signed/verified.
///
/// # Examples
///
/// ```
/// use dagbft_core::{Label, ProtocolConfig};
/// use dagbft_crypto::{KeyRegistry, ServerId};
/// use dagbft_baseline::DirectServer;
/// use dagbft_protocols::{Brb, BrbRequest};
///
/// let registry = KeyRegistry::generate(4, 1);
/// let mut server: DirectServer<Brb<u64>> =
///     DirectServer::new(ServerId::new(0), ProtocolConfig::for_n(4), &registry);
/// let outgoing = server.on_request(Label::new(1), BrbRequest::Broadcast(5));
/// assert_eq!(outgoing.len(), 4); // ECHO to everyone, individually signed
/// ```
#[derive(Debug)]
pub struct DirectServer<P: DeterministicProtocol> {
    me: ServerId,
    config: ProtocolConfig,
    signer: Signer,
    verifier: Verifier,
    instances: BTreeMap<Label, P>,
    delivered: Vec<(Label, P::Indication)>,
    /// Messages rejected for bad signatures or malformed payloads.
    rejected: u64,
}

impl<P: DeterministicProtocol> DirectServer<P> {
    /// Creates the server.
    ///
    /// # Panics
    ///
    /// Panics if `me` has no key in the registry.
    pub fn new(me: ServerId, config: ProtocolConfig, registry: &KeyRegistry) -> Self {
        DirectServer {
            me,
            config,
            signer: registry.signer(me).expect("key for server"),
            verifier: registry.verifier(),
            instances: BTreeMap::new(),
            delivered: Vec::new(),
            rejected: 0,
        }
    }

    /// The server identity.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// Messages rejected so far (bad signature / malformed payload).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Handles `request(label, request)` from the user, returning the
    /// triggered signed messages.
    pub fn on_request(&mut self, label: Label, request: P::Request) -> Vec<OutMessage> {
        let config = self.config;
        let me = self.me;
        let instance = self
            .instances
            .entry(label)
            .or_insert_with(|| P::new(&config, label, me));
        let mut outbox = Outbox::new(config);
        instance.on_request(request, &mut outbox);
        self.sign_all(label, outbox)
    }

    /// Handles a wire message: verifies the signature, decodes the payload,
    /// feeds the instance, and returns triggered signed messages.
    ///
    /// Messages failing verification or decoding are counted and dropped —
    /// `P` never observes them (authenticity, Lemma 4.3 (3) analogue).
    pub fn on_wire_message(&mut self, from: ServerId, bytes: &[u8]) -> Vec<OutMessage> {
        let Ok(signed) = decode_from_slice::<SignedMessage>(bytes) else {
            self.rejected += 1;
            return Vec::new();
        };
        // The transport-level sender must match the claimed sender, the
        // receiver must be us, and the signature must bind it all.
        if signed.sender != from || signed.receiver != self.me {
            self.rejected += 1;
            return Vec::new();
        }
        let signing_bytes = SignedMessage::signing_bytes(
            signed.label,
            signed.sender,
            signed.receiver,
            &signed.payload,
        );
        if !self
            .verifier
            .verify(signed.sender, &signing_bytes, &signed.signature)
        {
            self.rejected += 1;
            return Vec::new();
        }
        let Ok(message) = decode_from_slice::<P::Message>(&signed.payload) else {
            self.rejected += 1;
            return Vec::new();
        };
        let config = self.config;
        let me = self.me;
        let instance = self
            .instances
            .entry(signed.label)
            .or_insert_with(|| P::new(&config, signed.label, me));
        let mut outbox = Outbox::new(config);
        instance.on_message(signed.sender, message, &mut outbox);
        self.sign_all(signed.label, outbox)
    }

    /// Returns indications raised since the last poll.
    pub fn poll_indications(&mut self) -> Vec<(Label, P::Indication)> {
        std::mem::take(&mut self.delivered)
    }

    /// Keeps the indications a handler of `label`'s instance raised and
    /// signs the messages it sent.
    fn sign_all(
        &mut self,
        label: Label,
        mut outbox: Outbox<P::Message, P::Indication>,
    ) -> Vec<OutMessage> {
        self.delivered.extend(
            outbox
                .drain_indications()
                .map(|indication| (label, indication)),
        );
        outbox
            .into_messages()
            .into_iter()
            .map(|(to, message)| {
                let payload = encode_to_vec(&message);
                let signing_bytes = SignedMessage::signing_bytes(label, self.me, to, &payload);
                let signature = self.signer.sign(&signing_bytes);
                OutMessage {
                    to,
                    signed: SignedMessage {
                        label,
                        sender: self.me,
                        receiver: to,
                        payload,
                        signature,
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_protocols::{Brb, BrbMessage, BrbRequest};

    fn setup() -> (KeyRegistry, DirectServer<Brb<u64>>, DirectServer<Brb<u64>>) {
        let registry = KeyRegistry::generate(4, 2);
        let a = DirectServer::new(ServerId::new(0), ProtocolConfig::for_n(4), &registry);
        let b = DirectServer::new(ServerId::new(1), ProtocolConfig::for_n(4), &registry);
        (registry, a, b)
    }

    #[test]
    fn request_produces_signed_echoes() {
        let (_, mut alice, mut bob) = setup();
        let outgoing = alice.on_request(Label::new(1), BrbRequest::Broadcast(5));
        assert_eq!(outgoing.len(), 4);
        // Bob accepts the one addressed to him.
        let to_bob = outgoing.iter().find(|m| m.to == ServerId::new(1)).unwrap();
        let bytes = encode_to_vec(&to_bob.signed);
        let followups = bob.on_wire_message(ServerId::new(0), &bytes);
        // Bob's first ECHO triggers his own echo broadcast.
        assert_eq!(followups.len(), 4);
        assert_eq!(bob.rejected(), 0);
    }

    #[test]
    fn tampered_payload_rejected() {
        let (_, mut alice, mut bob) = setup();
        let outgoing = alice.on_request(Label::new(1), BrbRequest::Broadcast(5));
        let to_bob = outgoing.iter().find(|m| m.to == ServerId::new(1)).unwrap();
        let mut signed = to_bob.signed.clone();
        signed.payload = encode_to_vec(&BrbMessage::Echo(999u64));
        let bytes = encode_to_vec(&signed);
        let followups = bob.on_wire_message(ServerId::new(0), &bytes);
        assert!(followups.is_empty());
        assert_eq!(bob.rejected(), 1);
    }

    #[test]
    fn redirected_message_rejected() {
        // A message signed for receiver s2 replayed to s1 must fail.
        let (_, mut alice, mut bob) = setup();
        let outgoing = alice.on_request(Label::new(1), BrbRequest::Broadcast(5));
        let to_carol = outgoing.iter().find(|m| m.to == ServerId::new(2)).unwrap();
        let bytes = encode_to_vec(&to_carol.signed);
        let followups = bob.on_wire_message(ServerId::new(0), &bytes);
        assert!(followups.is_empty());
        assert_eq!(bob.rejected(), 1);
    }

    #[test]
    fn spoofed_sender_rejected() {
        let (_, mut alice, mut bob) = setup();
        let outgoing = alice.on_request(Label::new(1), BrbRequest::Broadcast(5));
        let to_bob = outgoing.iter().find(|m| m.to == ServerId::new(1)).unwrap();
        let bytes = encode_to_vec(&to_bob.signed);
        // Transport says it came from s2, but it is signed by s0.
        let followups = bob.on_wire_message(ServerId::new(2), &bytes);
        assert!(followups.is_empty());
        assert_eq!(bob.rejected(), 1);
    }

    #[test]
    fn garbage_bytes_rejected() {
        let (_, _, mut bob) = setup();
        let followups = bob.on_wire_message(ServerId::new(0), &[1, 2, 3]);
        assert!(followups.is_empty());
        assert_eq!(bob.rejected(), 1);
    }
}
