//! Which servers said `v`: the vote table behind every quorum test.
//!
//! Counting *distinct* senders of one value towards `2f + 1` or `f + 1` is
//! the innermost operation of every protocol in this crate, and the
//! interpreter copies an instance — tallies included — on its first touch
//! at each block. [`Tally`] therefore holds what an honest run produces
//! without touching the heap: one value, inline, with its senders as a
//! [`ServerSet`] bit set per column. A two-phase protocol keeps both
//! phases in one table, `Tally<V, 2>`, one row per value with a column
//! per phase, so a value its `ECHO`s and `READY`s both name is stored
//! once and a message finds its row with one search. Only a byzantine
//! sender's second value, or a server index of 128 and up, spills to the
//! heap, and each spill sits behind one pointer-sized field: a
//! `Tally<Transfer, 2>` takes 88 bytes on a 64-bit target, and a `Brb`
//! version is that table and three flags, 96 bytes.

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_core::ServerSet;
use dagbft_crypto::ServerId;

/// One row: a value and, per column, the set of servers that sent it.
type Row<V, const K: usize> = (V, [ServerSet; K]);

/// Per value, the set of servers that sent it, in each of `K` columns.
///
/// Each column is observationally a `BTreeMap<V, BTreeSet<ServerId>>` —
/// exact set semantics for every [`ServerId`], iteration in
/// `(value, sender)` order, and the same wire bytes — and the table
/// allocates nothing while it holds one value whose senders all have an
/// index below 128. A value is stored once, whichever columns name it.
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
///
/// // Two phases in one table: one row per value, a column per phase.
/// let mut votes: Tally<u64, 2> = Tally::new();
/// votes.record_in(0, &7, ServerId::new(1));
/// let [first, second] = votes.record_in(1, &7, ServerId::new(3));
/// assert_eq!((first.len(), second.len()), (1, 1));
/// assert_eq!(votes.count_in(1, &7), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tally<V, const K: usize = 1> {
    /// The first value recorded.
    first: Option<Row<V, K>>,
    /// Every further value, sorted; `None` while there is none.
    #[expect(
        clippy::box_collection,
        reason = "one pointer instead of an inline `Vec` keeps an honest tally small"
    )]
    rest: Option<Box<Vec<Row<V, K>>>>,
}

impl<V, const K: usize> Default for Tally<V, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, const K: usize> Tally<V, K> {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally {
            first: None,
            rest: None,
        }
    }

    /// The values after the first, sorted.
    fn rest(&self) -> &[Row<V, K>] {
        self.rest.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl<V: Ord, const K: usize> Tally<V, K> {
    /// Records that `sender` sent `value` in `column`; returns `value`'s
    /// row: the distinct senders of `value` so far, per column.
    ///
    /// # Panics
    ///
    /// If `column` is not below `K`.
    pub fn record_in(&mut self, column: usize, value: &V, sender: ServerId) -> &[ServerSet; K]
    where
        V: Clone,
    {
        let row = self.row_mut(value);
        row[column].insert(sender);
        row
    }

    /// Number of distinct servers that sent `value` in `column`.
    pub fn count_in(&self, column: usize, value: &V) -> usize {
        self.row(value).map_or(0, |row| row[column].len())
    }

    /// Every `(value, sender)` pair recorded in `column`, in that order.
    pub fn column(&self, column: usize) -> impl Iterator<Item = (&V, ServerId)> {
        self.rows()
            .flat_map(move |(value, row)| row[column].iter().map(move |sender| (value, sender)))
    }

    /// Writes `column` as a one-column tally of the same records writes
    /// itself: the bytes of `BTreeMap<V, BTreeSet<ServerId>>`, a `u32`
    /// entry count and, per value the column names, the value, a `u32`
    /// sender count and the senders ascending.
    pub fn encode_column(&self, column: usize, out: &mut Vec<u8>)
    where
        V: WireEncode,
    {
        let named = || self.rows().filter(|(_, row)| !row[column].is_empty());
        (named().count() as u32).encode(out);
        for (value, row) in named() {
            value.encode(out);
            row[column].encode(out);
        }
    }

    /// Reads [`Tally::encode_column`]'s bytes into `column`, adding to
    /// what the table holds. Accepts any entry and sender order and takes
    /// the union of repeats, so corrupt input costs its own length and
    /// still yields a well-formed tally.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] if the bytes run out or a value does not decode.
    pub fn decode_column(
        &mut self,
        column: usize,
        reader: &mut Reader<'_>,
    ) -> Result<(), DecodeError>
    where
        V: Clone + WireDecode,
    {
        // An entry is at least its sender count.
        for _ in 0..reader.read_len(4)? {
            let value = V::decode(reader)?;
            let senders = ServerSet::decode(reader)?;
            if !senders.is_empty() {
                self.row_mut(&value)[column].union_with(&senders);
            }
        }
        Ok(())
    }

    /// The row of `value`, empty in every column on first sight.
    fn row_mut(&mut self, value: &V) -> &mut [ServerSet; K]
    where
        V: Clone,
    {
        let fresh = || (value.clone(), std::array::from_fn(|_| ServerSet::new()));
        if self.first.as_ref().is_none_or(|(held, _)| held == value) {
            &mut self.first.get_or_insert_with(fresh).1
        } else {
            // An absent spill holds no value, so the search below fills it.
            let rest = self.rest.get_or_insert_default();
            let at = rest
                .binary_search_by(|(held, _)| held.cmp(value))
                .unwrap_or_else(|at| {
                    rest.insert(at, fresh());
                    at
                });
            &mut rest[at].1
        }
    }

    /// The row of `value`, if a column names it.
    fn row(&self, value: &V) -> Option<&[ServerSet; K]> {
        match &self.first {
            Some((held, row)) if held == value => Some(row),
            _ => {
                let rest = self.rest();
                rest.binary_search_by(|(held, _)| held.cmp(value))
                    .ok()
                    .map(|at| &rest[at].1)
            }
        }
    }

    /// The rows in value order: `first` spliced into `rest`.
    fn rows(&self) -> impl Iterator<Item = &Row<V, K>> {
        let rest = self.rest();
        let split = self.first.as_ref().map_or(0, |(first, _)| {
            rest.partition_point(|(held, _)| held < first)
        });
        let (below, above) = rest.split_at(split);
        below.iter().chain(&self.first).chain(above)
    }
}

impl<V: Ord> Tally<V> {
    /// Records that `sender` sent `value`; returns how many distinct
    /// servers have sent `value` so far.
    pub fn record(&mut self, value: &V, sender: ServerId) -> usize
    where
        V: Clone,
    {
        let [senders] = self.record_in(0, value, sender);
        senders.len()
    }

    /// Number of distinct servers that sent `value`.
    pub fn count(&self, value: &V) -> usize {
        self.count_in(0, value)
    }

    /// Every recorded `(value, sender)` pair, in that order.
    pub fn iter(&self) -> impl Iterator<Item = (&V, ServerId)> {
        self.column(0)
    }
}

/// The bytes `BTreeMap<V, BTreeSet<ServerId>>` writes: `u32` entry count;
/// per entry the value, a `u32` sender count, and the senders ascending.
impl<V: Ord + WireEncode> WireEncode for Tally<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_column(0, out);
    }
}

/// Accepts any entry and sender order and takes the union of repeats, so
/// corrupt input costs its own length and still yields a well-formed tally.
impl<V: Ord + Clone + WireDecode> WireDecode for Tally<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut tally = Tally::new();
        tally.decode_column(0, reader)?;
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
        assert!(tally.rest.is_none());
        // The senders are a `ServerSet`, whose own tests pin that indices
        // below 128 take no heap and the largest index one list slot.
        tally.record(&1, ServerId::new(u32::MAX));
        assert_eq!(tally.count(&1), 129);
        assert!(tally.rest.is_none());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_transfer_tally_is_its_first_entry_and_a_pointer() {
        // The inline `(Transfer, ServerSet)` with its `Option` tag, then the
        // spill's pointer.
        assert_eq!(std::mem::size_of::<Tally<crate::Transfer>>(), 64);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_two_column_transfer_tally_holds_its_value_once() {
        // The inline `(Transfer, [ServerSet; 2])` with its `Option` tag,
        // then the spill's pointer: 24 B less than two one-column tallies'
        // 128 B, which held the value twice and two pointers.
        assert_eq!(std::mem::size_of::<Tally<crate::Transfer, 2>>(), 88);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_transfer_brb_is_its_vote_table_and_three_flags() {
        // The interpreter keeps one of these per resident version: one
        // two-column vote table and three flags, padded to 8 (two
        // one-column tallies made it 136 B). The configuration and the
        // indications travel in the outbox, not in the instance.
        assert_eq!(std::mem::size_of::<crate::Brb<crate::Transfer>>(), 96);
    }

    #[test]
    fn columns_share_rows_and_encode_apart() {
        let mut votes: Tally<u64, 2> = Tally::new();
        votes.record_in(1, &5, ServerId::new(2));
        votes.record_in(0, &3, ServerId::new(1));
        let [zero, one] = votes.record_in(0, &5, ServerId::new(200));
        assert_eq!((zero.len(), one.len()), (1, 1));
        assert_eq!((votes.count_in(0, &5), votes.count_in(1, &3)), (1, 0));
        let pairs = |column| -> Vec<(u64, usize)> {
            votes.column(column).map(|(v, s)| (*v, s.index())).collect()
        };
        assert_eq!(pairs(0), [(3, 1), (5, 200)]);
        assert_eq!(pairs(1), [(5, 2)]);
        // Column 1 never names 3: its bytes skip that row.
        let mut bytes = Vec::new();
        votes.encode_column(1, &mut bytes);
        let model: BTreeMap<u64, BTreeSet<ServerId>> = [(5, [ServerId::new(2)].into())].into();
        assert_eq!(bytes, encode_to_vec(&model));
        let mut decoded: Tally<u64, 2> = Tally::new();
        decoded.decode_column(1, &mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded.count_in(1, &5), 1);
        assert_eq!(decoded.column(0).count(), 0);
    }
}
