//! Wire codecs for protocol *messages*, which every
//! `dagbft_core::DeterministicProtocol::Message` carries.
//!
//! Inside the block DAG embedding, protocol messages are **never** sent —
//! they are materialized locally (§4) — but a snapshot persists the
//! out-buffers of interpreted blocks. The direct point-to-point baseline
//! ships every message over the network. Keeping the codecs here (rather
//! than in the baseline) also documents exactly what the traditional
//! deployment pays to encode.

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};

use crate::bcb::BcbMessage;
use crate::beacon::BeaconMessage;
use crate::brb::BrbMessage;
use crate::fifo::FifoMessage;
use crate::smr::SmrMessage;

impl<V: WireEncode> WireEncode for BrbMessage<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BrbMessage::Echo(value) => (0u8, value).encode(out),
            BrbMessage::Ready(value) => (1u8, value).encode(out),
        }
    }
}

impl<V: WireDecode> WireDecode for BrbMessage<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(BrbMessage::Echo(V::decode(reader)?)),
            1 => Ok(BrbMessage::Ready(V::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "BrbMessage",
                value,
            }),
        }
    }
}

impl<V: WireEncode> WireEncode for BcbMessage<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BcbMessage::Send(value) => (0u8, value).encode(out),
            BcbMessage::Echo(value) => (1u8, value).encode(out),
        }
    }
}

impl<V: WireDecode> WireDecode for BcbMessage<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(BcbMessage::Send(V::decode(reader)?)),
            1 => Ok(BcbMessage::Echo(V::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "BcbMessage",
                value,
            }),
        }
    }
}

impl<V: WireEncode> WireEncode for SmrMessage<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SmrMessage::Forward(value) => (0u8, value).encode(out),
            SmrMessage::PrePrepare(slot, value) => (1u8, slot, value).encode(out),
            SmrMessage::Prepare(slot, value) => (2u8, slot, value).encode(out),
            SmrMessage::Commit(slot, value) => (3u8, slot, value).encode(out),
        }
    }
}

impl<V: WireDecode> WireDecode for SmrMessage<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(SmrMessage::Forward(V::decode(reader)?)),
            1 => Ok(SmrMessage::PrePrepare(
                u64::decode(reader)?,
                V::decode(reader)?,
            )),
            2 => Ok(SmrMessage::Prepare(
                u64::decode(reader)?,
                V::decode(reader)?,
            )),
            3 => Ok(SmrMessage::Commit(u64::decode(reader)?, V::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "SmrMessage",
                value,
            }),
        }
    }
}

impl<V: WireEncode> WireEncode for FifoMessage<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FifoMessage::Echo(origin, seq, value) => (0u8, origin, (seq, value)).encode(out),
            FifoMessage::Ready(origin, seq, value) => (1u8, origin, (seq, value)).encode(out),
        }
    }
}

impl<V: WireDecode> WireDecode for FifoMessage<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let phase = match reader.read_u8()? {
            0 => FifoMessage::Echo,
            1 => FifoMessage::Ready,
            value => {
                return Err(DecodeError::InvalidDiscriminant {
                    type_name: "FifoMessage",
                    value,
                })
            }
        };
        let (origin, seq, value) = WireDecode::decode(reader)?;
        Ok(phase(origin, seq, value))
    }
}

impl WireEncode for BeaconMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        let BeaconMessage::Share(coin) = self;
        (0u8, coin).encode(out);
    }
}

impl WireDecode for BeaconMessage {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(BeaconMessage::Share(u64::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "BeaconMessage",
                value,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_codec::{decode_from_slice, encode_to_vec};
    use dagbft_crypto::ServerId;

    fn roundtrip<M>(message: M)
    where
        M: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
    {
        let bytes = encode_to_vec(&message);
        assert_eq!(decode_from_slice::<M>(&bytes).unwrap(), message);
    }

    #[test]
    fn brb_messages() {
        roundtrip(BrbMessage::Echo(5u64));
        roundtrip(BrbMessage::Ready("x".to_owned()));
    }

    #[test]
    fn bcb_messages() {
        roundtrip(BcbMessage::Send(5u64));
        roundtrip(BcbMessage::Echo(9u64));
    }

    #[test]
    fn smr_messages() {
        roundtrip(SmrMessage::Forward(1u64));
        roundtrip(SmrMessage::PrePrepare(3, 1u64));
        roundtrip(SmrMessage::Prepare(3, 1u64));
        roundtrip(SmrMessage::Commit(3, 1u64));
    }

    #[test]
    fn fifo_messages() {
        roundtrip(FifoMessage::Echo(ServerId::new(2), 7, 5u64));
        roundtrip(FifoMessage::Ready(
            ServerId::new(300),
            u64::MAX,
            "x".to_owned(),
        ));
    }

    #[test]
    fn beacon_messages() {
        roundtrip(BeaconMessage::Share(0));
        roundtrip(BeaconMessage::Share(u64::MAX));
    }

    #[test]
    fn bad_discriminant_rejected() {
        let err = decode_from_slice::<BrbMessage<u64>>(&[9]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidDiscriminant { .. }));
    }

    #[test]
    fn fifo_and_beacon_reject_unknown_tags() {
        let fifo = decode_from_slice::<FifoMessage<u64>>(&[2]).unwrap_err();
        assert!(matches!(fifo, DecodeError::InvalidDiscriminant { .. }));
        let beacon = decode_from_slice::<BeaconMessage>(&[1]).unwrap_err();
        assert!(matches!(beacon, DecodeError::InvalidDiscriminant { .. }));
    }
}
