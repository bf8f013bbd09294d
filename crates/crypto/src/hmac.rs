//! HMAC-SHA256 (RFC 2104), the MAC underlying our signature stand-in.
//!
//! Two entry points compute the same function:
//!
//! * [`hmac_sha256`] — the one-shot form, rebuilding the padded key blocks
//!   on every call; the form the RFC 4231 vectors are checked against.
//! * [`HmacKey`] — a precomputed key schedule: the SHA-256 midstates after
//!   absorbing the ipad/opad-xored key block. Building one costs the two
//!   pad compressions once; every subsequent MAC resumes from the
//!   midstates, halving the compression count for short messages and
//!   skipping the key-block setup entirely. [`crate::Verifier`] holds one
//!   schedule per server, so single and batched verification both reuse
//!   them.

use crate::sha256::compress;
use crate::{Digest, Sha256};

const BLOCK_SIZE: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte block size are first hashed, exactly as
/// RFC 2104 prescribes; this is validated against the RFC 4231 test vectors
/// in this module's tests.
///
/// # Examples
///
/// ```
/// use dagbft_crypto::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag, hmac_sha256(b"key", b"message"));
/// assert_ne!(tag, hmac_sha256(b"other key", b"message"));
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut key_block = [0u8; BLOCK_SIZE];
    if key.len() > BLOCK_SIZE {
        let hashed = crate::sha256(key);
        key_block[..32].copy_from_slice(hashed.as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut inner = Sha256::new();
    let ipad: Vec<u8> = key_block.iter().map(|b| b ^ IPAD).collect();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    let opad: Vec<u8> = key_block.iter().map(|b| b ^ OPAD).collect();
    outer.update(&opad);
    outer.update(inner_digest.as_bytes());
    outer.finalize()
}

/// A precomputed HMAC-SHA256 key schedule.
///
/// Holds the inner and outer SHA-256 midstates left after absorbing the
/// ipad/opad-xored key block, so MACs under the same key never re-derive
/// the padded key material. Equal to [`hmac_sha256`] bit-for-bit (see the
/// `schedule_matches_one_shot` test against the RFC 4231 vectors).
///
/// # Examples
///
/// ```
/// use dagbft_crypto::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"message"), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after compressing `key ⊕ ipad`.
    inner: [u32; 8],
    /// SHA-256 state after compressing `key ⊕ opad`.
    outer: [u32; 8],
}

impl HmacKey {
    /// Derives the schedule from a raw key (hashing keys longer than the
    /// block size first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let hashed = crate::sha256(key);
            key_block[..32].copy_from_slice(hashed.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad_block = [0u8; BLOCK_SIZE];
        let mut opad_block = [0u8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            ipad_block[i] = key_block[i] ^ IPAD;
            opad_block[i] = key_block[i] ^ OPAD;
        }
        let mut hasher = Sha256::new();
        hasher.update(&ipad_block);
        let inner = hasher.midstate();
        let mut hasher = Sha256::new();
        hasher.update(&opad_block);
        let outer = hasher.midstate();
        HmacKey { inner, outer }
    }

    /// Computes `HMAC-SHA256(key, message)` from the cached midstates.
    pub fn mac(&self, message: &[u8]) -> Digest {
        if message.len() == 32 {
            let mut msg = [0u8; 32];
            msg.copy_from_slice(message);
            return self.mac32(&msg);
        }
        let mut hasher = Sha256::from_midstate(self.inner, 1);
        hasher.update(message);
        self.finish_outer(hasher.finalize())
    }

    /// The hot path: a MAC over exactly 32 bytes — the size of every block
    /// signature's message, `ref(B)` (Definition 3.1). Both stages fit one
    /// compression each: the padded tail block is assembled directly,
    /// skipping the incremental hasher's buffering entirely.
    pub fn mac32(&self, message: &[u8; 32]) -> Digest {
        // Inner: 64 (key pad) + 32 (message) bytes total = 768 bits.
        let inner_digest = Self::one_block_tail(self.inner, message, 96 * 8);
        // Outer: 64 (key pad) + 32 (inner digest) bytes total.
        self.finish_outer(inner_digest)
    }

    /// Finishes the outer stage over a 32-byte inner digest.
    fn finish_outer(&self, inner_digest: Digest) -> Digest {
        Self::one_block_tail(self.outer, inner_digest.as_bytes(), 96 * 8)
    }

    /// Compresses the final padded block for a message whose tail is
    /// exactly 32 bytes: `tail · 0x80 · 0… · len_be64` fits one block.
    fn one_block_tail(midstate: [u32; 8], tail: &[u8; 32], bit_length: u64) -> Digest {
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(tail);
        block[32] = 0x80;
        block[56..64].copy_from_slice(&bit_length.to_be_bytes());
        let mut state = midstate;
        compress(&mut state, &block);
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest::from_bytes(out)
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Midstates are key material; never print them.
        write!(f, "HmacKey(…)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: Digest) -> String {
        digest.to_hex()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2: short key ("Jefe").
    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            hex(hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 4: 25-byte incrementing key, 50-byte 0xcd data.
    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25).collect();
        let data = [0xcd; 50];
        assert_eq!(
            hex(hmac_sha256(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    // RFC 4231 test case 6: 131-byte key (forces key hashing).
    #[test]
    fn rfc4231_case_6() {
        let key = [0xaa; 131];
        assert_eq!(
            hex(hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 4231 test case 7: 131-byte key and long data.
    #[test]
    fn rfc4231_case_7() {
        let key = [0xaa; 131];
        let data: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            hex(hmac_sha256(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn schedule_matches_one_shot() {
        // The hoisted key schedule is the same function as the one-shot form,
        // across the RFC 4231 key shapes and message lengths straddling
        // the one-compression fast path (0, 31, 32, 33, multi-block).
        let keys: [&[u8]; 4] = [b"Jefe", &[0x0b; 20], &[0xaa; 131], &[0x42; 64]];
        let messages: [&[u8]; 6] = [
            b"",
            &[7u8; 31],
            &[8u8; 32],
            &[9u8; 33],
            &[1u8; 64],
            &[2u8; 200],
        ];
        for key in keys {
            let schedule = HmacKey::new(key);
            for message in messages {
                assert_eq!(
                    schedule.mac(message),
                    hmac_sha256(key, message),
                    "key len {} message len {}",
                    key.len(),
                    message.len()
                );
            }
        }
    }

    #[test]
    fn mac32_equals_general_mac() {
        let schedule = HmacKey::new(b"k");
        let message = [0x5au8; 32];
        assert_eq!(schedule.mac32(&message), schedule.mac(&message));
        assert_eq!(schedule.mac32(&message), hmac_sha256(b"k", &message));
    }

    #[test]
    fn hmac_key_debug_hides_material() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey(…)");
    }

    #[test]
    fn key_exactly_block_size_is_used_verbatim() {
        let key = [0x42; 64];
        // Must not equal the tag under the hashed key, which would indicate
        // the >64 path was taken erroneously.
        let hashed_key = crate::sha256(key);
        assert_ne!(
            hmac_sha256(&key, b"m"),
            hmac_sha256(hashed_key.as_bytes(), b"m")
        );
    }
}
