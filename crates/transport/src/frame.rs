//! Length-prefixed framing over byte streams.
//!
//! Wire layout per frame: `u32` little-endian payload length, then the
//! payload (a canonical [`dagbft_core::NetMessage`] encoding, or the
//! 8-byte [`Hello`]). A length cap protects receivers from hostile prefixes.
//!
//! Every frame is read one way: the length prefix (a read timeout before
//! its first byte consumes nothing, so the read can simply be retried),
//! the cap check before anything is allocated, then the payload into a
//! buffer of exactly its length, drained across read timeouts so the
//! stream never loses its framing. [`write_net_message`] streams a block's
//! cached wire bytes straight into the frame (no intermediate encode
//! buffer), and [`read_net_message`] moves the frame's buffer into shared
//! [`Bytes`], so a received block's wire image and request payloads are
//! slices of it rather than copies.

use std::io::{self, Read, Write};

use bytes::Bytes;
use dagbft_codec::{
    decode_from_bytes, decode_from_slice, encode_to_vec, DecodeError, WireDecode, WireEncode,
};
use dagbft_core::{NetMessage, INTERPRETATION_RULE};
use dagbft_crypto::ServerId;

/// Maximum accepted frame payload (16 MiB) — far above any legitimate
/// block, low enough to bound allocation on garbage input.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Writes one framed, wire-encoded value.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: Write, T: WireEncode>(writer: &mut W, value: &T) -> io::Result<()> {
    let payload = encode_to_vec(value);
    let len = payload.len() as u32;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&payload)?;
    writer.flush()
}

/// Reads one framed value.
///
/// # Errors
///
/// * I/O errors from the reader (including clean EOF as
///   [`io::ErrorKind::UnexpectedEof`]); a read timeout before the frame's
///   first byte comes back as itself, with nothing consumed;
/// * [`io::ErrorKind::InvalidData`] for oversized frames or payloads that
///   fail to decode (the latter [frame-synced](is_corrupt_payload)).
pub fn read_frame<R: Read, T: WireDecode>(reader: &mut R) -> io::Result<T> {
    decode_from_slice(&read_payload(reader)?).map_err(corrupt)
}

/// Writes one framed [`NetMessage`] without building an intermediate
/// encode buffer: length prefix, discriminant byte, then the message's
/// cached payload bytes verbatim (a block's canonical wire image, a
/// forward request's digest). The encode-once fast path of the send loop.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_net_message<W: Write>(writer: &mut W, message: &NetMessage) -> io::Result<()> {
    let len = message.wire_len() as u32;
    let (discriminant, payload) = message.payload_view();
    // One header write (length prefix + discriminant), one payload write —
    // two syscalls per message on an unbuffered stream.
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4] = discriminant;
    writer.write_all(&header)?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one framed [`NetMessage`], decoding the payload as a *shared*
/// buffer: a received block's wire image and request payloads are
/// zero-copy slices of the frame allocation.
///
/// # Errors
///
/// Same conditions as [`read_frame`].
pub fn read_net_message<R: Read>(reader: &mut R) -> io::Result<NetMessage> {
    // `Bytes::from(Vec)` moves the frame allocation; the decoded block's
    // wire image and payloads are windows into it.
    decode_from_bytes(&Bytes::from(read_payload(reader)?)).map_err(corrupt)
}

/// Reads one frame's payload into a buffer of exactly its length: the
/// length prefix, the cap check before any allocation, then the body.
fn read_payload<R: Read>(reader: &mut R) -> io::Result<Vec<u8>> {
    let len = read_len_prefix(reader)?;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    read_exact_draining(reader, &mut payload)?;
    Ok(payload)
}

/// Maximum consecutive idle reads tolerated while draining a partially
/// received frame. With the transport's 25 ms read timeout this bounds a
/// stalled mid-frame peer to ~10 s before the connection is dropped.
const MAX_MIDFRAME_IDLE_READS: u32 = 400;

/// Fills `buf` completely, retrying across read timeouts.
///
/// Once a frame's first byte has been consumed the stream is mid-frame:
/// propagating a timeout would make the caller re-read the next bytes as
/// a fresh length prefix and desynchronise the framing. So partial
/// frames are drained across timeouts, bounded by
/// [`MAX_MIDFRAME_IDLE_READS`] so a hung peer cannot pin the reader.
fn read_exact_draining<R: Read>(reader: &mut R, mut buf: &mut [u8]) -> io::Result<()> {
    let mut idle_reads = 0u32;
    while !buf.is_empty() {
        match reader.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            Ok(n) => {
                idle_reads = 0;
                buf = &mut buf[n..];
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                idle_reads += 1;
                if idle_reads >= MAX_MIDFRAME_IDLE_READS {
                    return Err(err);
                }
            }
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Reads a frame's `u32` length prefix with zero-or-all semantics: a
/// timeout before the first byte propagates (nothing consumed, the whole
/// frame read can be retried), while a timeout after a partial prefix
/// drains the remaining bytes so retries never misparse payload bytes as
/// a length.
fn read_len_prefix<R: Read>(reader: &mut R) -> io::Result<usize> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got == 0 {
        match reader.read(&mut len_bytes) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed between frames",
                ));
            }
            Ok(n) => got = n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    read_exact_draining(reader, &mut len_bytes[got..])?;
    Ok(u32::from_le_bytes(len_bytes) as usize)
}

/// Error payload marking a frame whose body was fully consumed but failed
/// to decode. The stream is still frame-synced after this error — the
/// length prefix already drained the bad payload — so a reader may count
/// the offense against the peer and keep reading (see
/// [`is_corrupt_payload`]). Every other framing error leaves the stream
/// position unreliable and must drop the connection.
#[derive(Debug)]
struct CorruptPayload(String);

impl std::fmt::Display for CorruptPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt frame payload: {}", self.0)
    }
}

impl std::error::Error for CorruptPayload {}

fn corrupt(err: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, CorruptPayload(err.to_string()))
}

/// Whether `err` marks a fully consumed, frame-synced-but-undecodable
/// payload from [`read_net_message`] or [`read_frame`] — the one framing
/// error a reader can survive without desynchronising.
pub fn is_corrupt_payload(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::InvalidData
        && err
            .get_ref()
            .is_some_and(|inner| inner.is::<CorruptPayload>())
}

/// The first frame on every outbound connection: the sender's identity
/// and the interpretation rule it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The connecting server.
    pub from: ServerId,
    /// The sender's [`INTERPRETATION_RULE`]. A `Hello` that ends after
    /// `from` was written by a build from before the field, which ran
    /// rule 1.
    pub rule: u32,
}

impl Hello {
    /// The `Hello` this build sends as `from`.
    pub fn new(from: ServerId) -> Self {
        Hello {
            from,
            rule: INTERPRETATION_RULE,
        }
    }
}

impl WireEncode for Hello {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.rule.encode(out);
    }
}

impl WireDecode for Hello {
    fn decode(reader: &mut dagbft_codec::Reader<'_>) -> Result<Self, DecodeError> {
        let from = ServerId::decode(reader)?;
        let rule = match reader.remaining() {
            0 => 1,
            _ => u32::decode(reader)?,
        };
        Ok(Hello { from, rule })
    }
}

// --- Benchmark adapter only ----------------------------------------------
//
// `crates/bench/src/bin/benchmark/adapter.rs`'s `FrameReader` names these;
// they read exactly as `read_net_message` does and nothing else calls them.

#[doc(hidden)]
pub const DEFAULT_ARENA_BUFFERS: usize = 64;

#[doc(hidden)]
#[derive(Debug)]
pub struct FrameArena;

impl FrameArena {
    #[doc(hidden)]
    pub fn new(_: usize) -> Self {
        FrameArena
    }
}

#[doc(hidden)]
pub fn read_net_message_pooled<R: Read>(
    reader: &mut R,
    _: &mut FrameArena,
) -> io::Result<NetMessage> {
    read_net_message(reader)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_buffer() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &Hello::new(ServerId::new(3))).unwrap();
        write_frame(&mut buffer, &42u64).unwrap();
        let mut cursor = io::Cursor::new(buffer);
        let hello: Hello = read_frame(&mut cursor).unwrap();
        assert_eq!(hello.from, ServerId::new(3));
        assert_eq!(hello.rule, INTERPRETATION_RULE);
        let value: u64 = read_frame(&mut cursor).unwrap();
        assert_eq!(value, 42);
    }

    #[test]
    fn a_hello_without_a_rule_reads_as_rule_1() {
        // What a build from before the rule field wrote: `from` alone.
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &ServerId::new(3)).unwrap();
        let hello: Hello = read_frame(&mut io::Cursor::new(buffer)).unwrap();
        assert_eq!(hello.from, ServerId::new(3));
        assert_eq!(hello.rule, 1);
        assert_ne!(hello.rule, INTERPRETATION_RULE);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame::<_, u64>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &7u64).unwrap();
        buffer.truncate(buffer.len() - 2);
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame::<_, u64>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_payload_rejected() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&2u32.to_le_bytes());
        buffer.extend_from_slice(&[0xff, 0xff]);
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame::<_, Hello>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn sample_block() -> dagbft_core::Block {
        use dagbft_core::{Label, LabeledRequest, SeqNum};
        use dagbft_crypto::KeyRegistry;
        let registry = KeyRegistry::generate(1, 5);
        let signer = registry.signer(ServerId::new(0)).unwrap();
        dagbft_core::Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(Label::new(1), &7u64)],
            &signer,
        )
    }

    #[test]
    fn net_message_fast_path_matches_generic_frame() {
        let block = sample_block();
        for message in [
            NetMessage::Block(block.clone()),
            NetMessage::FwdRequest(block.block_ref()),
        ] {
            let mut fast = Vec::new();
            write_net_message(&mut fast, &message).unwrap();
            let mut generic = Vec::new();
            write_frame(&mut generic, &message).unwrap();
            assert_eq!(fast, generic, "fast path must produce identical frames");

            let mut cursor = io::Cursor::new(fast);
            let decoded = read_net_message(&mut cursor).unwrap();
            assert_eq!(decoded, message);
        }
    }

    /// A reader that yields timeouts between single-byte reads — the shape
    /// of a slow peer on a stream with a read timeout.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        give_byte: bool,
    }

    impl Trickle {
        fn new(data: Vec<u8>) -> Self {
            Trickle {
                data,
                at: 0,
                give_byte: false,
            }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.data.len() {
                return Ok(0);
            }
            self.give_byte = !self.give_byte;
            if !self.give_byte {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    /// Retries `read_one` on a timeout, as the transport's `read_retry`
    /// does.
    fn retrying<T>(mut read_one: impl FnMut() -> io::Result<T>) -> T {
        loop {
            match read_one() {
                Ok(value) => return value,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => continue,
                Err(err) => panic!("unexpected error: {err}"),
            }
        }
    }

    #[test]
    fn mid_frame_timeouts_are_drained_not_desynced() {
        let block = sample_block();
        let messages = [
            NetMessage::Block(block.clone()),
            NetMessage::FwdRequest(block.block_ref()),
        ];
        let mut wire = Vec::new();
        for message in &messages {
            write_net_message(&mut wire, message).unwrap();
        }
        let mut trickle = Trickle::new(wire);
        // A timeout before a frame's first byte comes back, with nothing
        // consumed; every later one, in the length prefix or the payload,
        // is drained. So retrying the whole read stays frame-synced.
        for expected in &messages {
            let received = retrying(|| read_net_message(&mut trickle));
            assert_eq!(&received, expected);
        }
    }

    #[test]
    fn a_hello_split_by_read_timeouts_is_read_whole() {
        let hello = Hello::new(ServerId::new(3));
        let mut wire = Vec::new();
        write_frame(&mut wire, &hello).unwrap();
        write_frame(&mut wire, &hello).unwrap();
        let mut trickle = Trickle::new(wire);
        for _ in 0..2 {
            let received: Hello = retrying(|| read_frame(&mut trickle));
            assert_eq!(received, hello);
        }
    }

    #[test]
    fn read_net_message_rejects_oversized_and_garbage() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buffer);
        let err = read_net_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // An oversized prefix leaves the stream unusable.
        assert!(!is_corrupt_payload(&err));

        let mut buffer = Vec::new();
        buffer.extend_from_slice(&1u32.to_le_bytes());
        buffer.push(9); // invalid discriminant
        let mut cursor = io::Cursor::new(buffer);
        let err = read_net_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A garbage payload was drained whole: the stream is frame-synced.
        assert!(is_corrupt_payload(&err));
    }

    #[test]
    fn pooled_read_rejects_oversized_and_garbage() {
        let mut arena = FrameArena::new(4);
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buffer);
        let err = read_net_message_pooled(&mut cursor, &mut arena).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!is_corrupt_payload(&err));

        let mut buffer = Vec::new();
        buffer.extend_from_slice(&1u32.to_le_bytes());
        buffer.push(9); // invalid discriminant
        let mut cursor = io::Cursor::new(buffer);
        let err = read_net_message_pooled(&mut cursor, &mut arena).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(is_corrupt_payload(&err));
    }
}
