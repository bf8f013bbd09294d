//! XXH64, the non-cryptographic 64-bit hash the journal's record checksums
//! use (see the format grammar in `journal.rs`).
//!
//! A record checksum only has to catch torn writes and at-rest bit flips:
//! it is unkeyed and stored beside the bytes it covers, so it
//! authenticates nothing, and a cryptographic hash would buy nothing but
//! time. This is the reference algorithm (xxHash specification, v0.8),
//! over 32-byte stripes of four little-endian `u64` lanes.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

fn read_u64(bytes: &[u8]) -> u64 {
    let mut lane = [0u8; 8];
    lane.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(lane)
}

/// XXH64 of `input` under `seed`.
pub(crate) fn xxh64(input: &[u8], seed: u64) -> u64 {
    let stripes = input.chunks_exact(32);
    let tail = stripes.remainder();
    let mut hash = if input.len() >= 32 {
        let mut acc = [
            seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
            seed.wrapping_add(PRIME_2),
            seed,
            seed.wrapping_sub(PRIME_1),
        ];
        for stripe in stripes {
            for (lane, acc) in stripe.chunks_exact(8).zip(&mut acc) {
                *acc = round(*acc, read_u64(lane));
            }
        }
        let [a, b, c, d] = acc;
        let converged = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        acc.into_iter().fold(converged, merge_round)
    } else {
        seed.wrapping_add(PRIME_5)
    };
    hash = hash.wrapping_add(input.len() as u64);

    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ round(0, read_u64(word)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let mut rest = words.remainder();
    if let Some((half, bytes)) = rest.split_first_chunk::<4>() {
        hash = (hash ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        rest = bytes;
    }
    for &byte in rest {
        hash = (hash ^ u64::from(byte).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::xxh64;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
        // 63 bytes: one stripe, three 8-byte words, then both short tails.
        assert_eq!(
            xxh64(
                b"Call me Ishmael. Some years ago--never mind how long precisely-",
                0
            ),
            0x02A2_E854_70D6_FD96
        );
        // The seed enters every lane (the specification's sanity seed).
        assert_eq!(xxh64(b"", 0x9E37_79B1), 0xAC75_FDA2_929B_17EF);
    }
}
