//! Which servers said `v`: the sender tally behind every quorum test.
//!
//! Counting *distinct* senders of one value towards `2f + 1` or `f + 1` is
//! the innermost operation of every protocol in this crate, and the
//! interpreter copies an instance — tallies included — on its first touch
//! at each block. [`Tally`] therefore holds what an honest run produces
//! without touching the heap: one value, inline, with its senders as a bit
//! set. Only a byzantine sender's second value, or a server index of 128
//! and up, spills into a `Vec`.

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_crypto::ServerId;

/// A set of servers: indices below 128 as bits, the rest as a sorted list,
/// so memory follows the number of members and never the largest index.
#[derive(Debug, Clone, Default)]
struct Senders {
    low: u128,
    high: Vec<u32>,
}

impl Senders {
    fn insert(&mut self, sender: ServerId) {
        let index = sender.index() as u32;
        if index < 128 {
            self.low |= 1 << index;
        } else if let Err(at) = self.high.binary_search(&index) {
            self.high.insert(at, index);
        }
    }

    fn len(&self) -> usize {
        self.low.count_ones() as usize + self.high.len()
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = ServerId> + '_ {
        let mut bits = self.low;
        std::iter::from_fn(move || {
            let index = (bits != 0).then(|| bits.trailing_zeros())?;
            bits &= bits - 1;
            Some(index)
        })
        .chain(self.high.iter().copied())
        .map(ServerId::new)
    }
}

/// Per value, the set of servers that sent it.
///
/// Observationally a `BTreeMap<V, BTreeSet<ServerId>>` — exact set
/// semantics for every [`ServerId`], iteration in `(value, sender)` order,
/// and the same wire bytes — that allocates nothing while it holds one
/// value whose senders all have an index below 128.
///
/// # Examples
///
/// ```
/// use dagbft_crypto::ServerId;
/// use dagbft_protocols::Tally;
///
/// let mut echoes: Tally<u64> = Tally::new();
/// assert_eq!(echoes.record(&7, ServerId::new(0)), 1);
/// assert_eq!(echoes.record(&7, ServerId::new(2)), 2);
/// assert_eq!(echoes.record(&7, ServerId::new(0)), 2); // counted once
/// assert_eq!(echoes.count(&7), 2);
/// assert_eq!(echoes.count(&8), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Tally<V> {
    /// The first value recorded.
    first: Option<(V, Senders)>,
    /// Every further value, sorted.
    rest: Vec<(V, Senders)>,
}

impl<V> Default for Tally<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Tally<V> {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally {
            first: None,
            rest: Vec::new(),
        }
    }
}

impl<V: Ord> Tally<V> {
    /// Records that `sender` sent `value`; returns how many distinct
    /// servers have sent `value` so far.
    pub fn record(&mut self, value: &V, sender: ServerId) -> usize
    where
        V: Clone,
    {
        let fresh = || (value.clone(), Senders::default());
        let senders = if self.first.as_ref().is_none_or(|(held, _)| held == value) {
            &mut self.first.get_or_insert_with(fresh).1
        } else {
            let at = self
                .rest
                .binary_search_by(|(held, _)| held.cmp(value))
                .unwrap_or_else(|at| {
                    self.rest.insert(at, fresh());
                    at
                });
            &mut self.rest[at].1
        };
        senders.insert(sender);
        senders.len()
    }

    /// Number of distinct servers that sent `value`.
    pub fn count(&self, value: &V) -> usize {
        let senders = match &self.first {
            Some((held, senders)) if held == value => Some(senders),
            _ => self
                .rest
                .binary_search_by(|(held, _)| held.cmp(value))
                .ok()
                .map(|at| &self.rest[at].1),
        };
        senders.map_or(0, Senders::len)
    }

    /// Every recorded `(value, sender)` pair, in that order.
    pub fn iter(&self) -> impl Iterator<Item = (&V, ServerId)> {
        self.entries()
            .flat_map(|(value, senders)| senders.iter().map(move |sender| (value, sender)))
    }

    /// The entries in value order: `first` spliced into `rest`.
    fn entries(&self) -> impl Iterator<Item = &(V, Senders)> {
        let split = self.first.as_ref().map_or(0, |(first, _)| {
            self.rest.partition_point(|(held, _)| held < first)
        });
        let (below, above) = self.rest.split_at(split);
        below.iter().chain(&self.first).chain(above)
    }
}

/// The bytes `BTreeMap<V, BTreeSet<ServerId>>` writes: `u32` entry count;
/// per entry the value, a `u32` sender count, and the senders ascending.
impl<V: Ord + WireEncode> WireEncode for Tally<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.entries().count() as u32).encode(out);
        for (value, senders) in self.entries() {
            value.encode(out);
            (senders.len() as u32).encode(out);
            for sender in senders.iter() {
                sender.encode(out);
            }
        }
    }
}

/// Accepts any entry and sender order and takes the union of repeats, so
/// corrupt input costs its own length and still yields a well-formed tally.
impl<V: Ord + Clone + WireDecode> WireDecode for Tally<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut tally = Tally::new();
        // An entry is at least its sender count, a sender four bytes.
        for _ in 0..reader.read_len(4)? {
            let value = V::decode(reader)?;
            for _ in 0..reader.read_len(4)? {
                tally.record(&value, ServerId::decode(reader)?);
            }
        }
        Ok(tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_codec::{decode_from_slice, encode_to_vec};
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn counts_distinct_senders_per_value() {
        let mut tally: Tally<&str> = Tally::new();
        assert_eq!(tally.record(&"b", ServerId::new(3)), 1);
        assert_eq!(tally.record(&"b", ServerId::new(3)), 1);
        assert_eq!(tally.record(&"b", ServerId::new(127)), 2);
        assert_eq!(tally.record(&"b", ServerId::new(128)), 3);
        assert_eq!(tally.record(&"a", ServerId::new(3)), 1);
        assert_eq!(tally.record(&"c", ServerId::new(9)), 1);
        assert_eq!(tally.record(&"a", ServerId::new(u32::MAX)), 2);
        assert_eq!(
            (tally.count(&"a"), tally.count(&"b"), tally.count(&"c")),
            (2, 3, 1)
        );
        assert_eq!(tally.count(&"d"), 0);
        // Value order, then sender order — wherever the first value sorts.
        let pairs: Vec<(&str, u32)> = tally.iter().map(|(v, s)| (*v, s.index() as u32)).collect();
        assert_eq!(
            pairs,
            vec![
                ("a", 3),
                ("a", u32::MAX),
                ("b", 3),
                ("b", 127),
                ("b", 128),
                ("c", 9)
            ]
        );
    }

    #[test]
    fn wire_bytes_are_the_nested_map_s() {
        let mut tally: Tally<u64> = Tally::new();
        let mut model: BTreeMap<u64, BTreeSet<ServerId>> = BTreeMap::new();
        for (value, sender) in [(5, 200), (5, 1), (2, 1), (9, 128), (5, 0), (2, 300)] {
            let sender = ServerId::new(sender);
            tally.record(&value, sender);
            model.entry(value).or_default().insert(sender);
        }
        let bytes = encode_to_vec(&tally);
        assert_eq!(bytes, encode_to_vec(&model));
        let decoded: Tally<u64> = decode_from_slice(&bytes).unwrap();
        assert!(decoded.iter().eq(tally.iter()));
        assert_eq!(encode_to_vec(&decoded), bytes);
        assert_eq!(encode_to_vec(&Tally::<u64>::new()), encode_to_vec(&0u32));
    }

    #[test]
    fn decode_unions_repeats_and_rejects_truncation() {
        // Entries out of order, one value twice, senders descending.
        let mut bytes = encode_to_vec(&3u32);
        for (value, senders) in [(7u64, vec![2u32, 1]), (4, vec![900]), (7, vec![1, 0])] {
            value.encode(&mut bytes);
            senders.encode(&mut bytes);
        }
        let tally: Tally<u64> = decode_from_slice(&bytes).unwrap();
        let pairs: Vec<(u64, usize)> = tally.iter().map(|(v, s)| (*v, s.index())).collect();
        assert_eq!(pairs, vec![(4, 900), (7, 0), (7, 1), (7, 2)]);
        for cut in 0..bytes.len() {
            assert!(decode_from_slice::<Tally<u64>>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn an_honest_tally_owns_no_heap() {
        let mut tally: Tally<u64> = Tally::new();
        for sender in 0..128 {
            tally.record(&1, ServerId::new(sender));
        }
        assert_eq!(tally.count(&1), 128);
        assert_eq!(tally.rest.capacity(), 0);
        assert_eq!(tally.first.as_ref().unwrap().1.high.capacity(), 0);
        // The largest index costs one list slot, not a bit vector.
        tally.record(&1, ServerId::new(u32::MAX));
        assert_eq!(tally.first.as_ref().unwrap().1.high, vec![u32::MAX]);
    }
}
