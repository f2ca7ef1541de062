//! Hash tables keyed by this crate's identifier types.
//!
//! Every id in [`crate::ids`] (and [`crate::rwset::Key`]) is one or two
//! machine words, and the tables keyed by them sit on the path of every
//! transaction: SipHash-1-3 behind `RandomState` costs more there than the
//! table probe itself. [`IdMap`] is the standard table over
//! [`IdHasher`], a multiply-fold hasher with a fixed key: each word
//! fed in is xored into the state and the 128-bit product with an odd
//! constant is folded back to 64 bits, and `finish` folds once more
//! through a second constant, so every input bit reaches both the low
//! bits `hashbrown` indexes buckets with and the top seven it tags them
//! with (one fold alone leaves the low bits of a dense id range an
//! arithmetic progression).
//!
//! The key is fixed so that two runs of one seed build identical tables
//! (and nothing that iterates one into an output can differ between
//! processes). It is a stand-in in the same sense as the signer: a
//! deployment facing real clients would key the hasher from the deployment
//! secret, because `TxnId::counter` is chosen by the client and a fixed
//! key lets an adversary craft colliding ids (see `DESIGN.md`, "Tables on
//! the per-transaction path").

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by an id type, hashed by [`IdHasher`]. Built with
/// `IdMap::default()` (or `with_capacity_and_hasher`).
pub type IdMap<K, V> = HashMap<K, V, BuildIdHasher>;

/// The `BuildHasher` of [`IdMap`].
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// Initial state: the fixed key (fractional bits of π).
const KEY: u64 = 0x243f_6a88_85a3_08d3;
/// The odd multiplier every word is folded through (fractional bits of
/// the golden ratio, as in Fibonacci hashing).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
/// The multiplier of the closing fold in `finish`.
const FINISH_MULTIPLIER: u64 = 0xd1b5_4a32_d192_ed03;

#[inline]
fn multiply_fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The multiply-fold hasher behind [`IdMap`].
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    state: u64,
}

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher { state: KEY }
    }
}

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = multiply_fold(self.state ^ word, MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        multiply_fold(self.state, FINISH_MULTIPLIER)
    }

    /// Byte strings (no id hashes through here; kept so any `Hash` type
    /// is hashed correctly) are folded eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    /// Derived `Hash` feeds an enum's discriminant through here.
    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ComponentId, ExecutorId, Key, NodeId, TxnId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildIdHasher::default().hash_one(value)
    }

    /// Asserts that `hashes` fill `buckets` buckets like uniform draws
    /// would: every count within six standard deviations of the mean.
    fn assert_fills(
        name: &str,
        what: &str,
        hashes: &[u64],
        buckets: usize,
        of: impl Fn(u64) -> usize,
    ) {
        let mut counts = vec![0u32; buckets];
        for h in hashes {
            counts[of(*h)] += 1;
        }
        let mean = hashes.len() as f64 / buckets as f64;
        let slack = 6.0 * mean.sqrt();
        let max = f64::from(*counts.iter().max().unwrap());
        let min = f64::from(*counts.iter().min().unwrap());
        assert!(
            min >= mean - slack && max <= mean + slack,
            "{name}: {what} fill {buckets} buckets {min}..{max}, mean {mean:.1}"
        );
    }

    /// `hashbrown` picks the bucket from the low bits (as many as the
    /// table has grown to) and tags it with the top seven: all of them
    /// must be evenly filled, with no two ids colliding on all 64.
    fn assert_even(name: &str, hashes: &[u64]) {
        for bits in [6, 10, 14] {
            let buckets = 1usize << bits;
            if hashes.len() >= 64 * buckets {
                assert_fills(name, "the low bits", hashes, buckets, |h| {
                    h as usize & (buckets - 1)
                });
            }
        }
        assert_fills(name, "the top 7 bits", hashes, 128, |h| (h >> 57) as usize);
        let mut sorted = hashes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len(), "{name}: 64-bit collisions");
    }

    #[test]
    fn dense_keys_spread_over_low_and_top_bits() {
        let hashes: Vec<u64> = (0..600_000).map(|k| hash_of(&Key(k))).collect();
        assert_even("Key(0..600_000)", &hashes);
    }

    #[test]
    fn txn_id_grids_spread_over_low_and_top_bits() {
        let many_clients: Vec<u64> = (0..51_200u32)
            .flat_map(|c| (0..4u64).map(move |n| hash_of(&TxnId::new(ClientId(c), n))))
            .collect();
        assert_even("51 200 clients x 4 counters", &many_clients);
        let one_client: Vec<u64> = (0..200_000u64)
            .map(|n| hash_of(&TxnId::new(ClientId(7), n)))
            .collect();
        assert_even("1 client x 200 000 counters", &one_client);
    }

    #[test]
    fn component_ids_spread_over_low_and_top_bits() {
        let mut hashes: Vec<u64> = (0..51_200u32)
            .map(|c| hash_of(&ComponentId::Client(ClientId(c))))
            .collect();
        hashes.extend((0..64u32).map(|n| hash_of(&ComponentId::Node(NodeId(n)))));
        hashes.extend((0..20_000u64).map(|e| hash_of(&ComponentId::Executor(ExecutorId(e)))));
        hashes.push(hash_of(&ComponentId::Verifier));
        hashes.push(hash_of(&ComponentId::Storage));
        hashes.push(hash_of(&ComponentId::Cloud));
        assert_even("component ids", &hashes);
    }

    /// The key is fixed: these values are the same in every process and
    /// on every platform (the hasher reads words, never memory layout).
    #[test]
    fn hashes_are_the_same_in_every_process() {
        assert_eq!(hash_of(&Key(0)), 0x44e3_a65f_a893_b012);
        assert_eq!(hash_of(&Key(599_999)), 0x99be_7759_0bbb_f0a1);
        assert_eq!(
            hash_of(&TxnId::new(ClientId(51_199), 3)),
            0xdca0_0d5f_ab63_b470
        );
        assert_eq!(
            hash_of(&ComponentId::Client(ClientId(1))),
            0x3bd7_9c2a_2d31_cab3
        );
        assert_eq!(hash_of(&ComponentId::Verifier), 0xc6d1_1cd9_3324_ea9b);
    }

    #[test]
    fn byte_strings_hash_by_content() {
        assert_eq!(hash_of(&"primary"), hash_of(&String::from("primary")));
        assert_ne!(hash_of(&"primary"), hash_of(&"primarz"));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
    }

    #[test]
    fn tables_build_without_a_random_state() {
        let mut map: IdMap<TxnId, u32> = IdMap::default();
        map.insert(TxnId::new(ClientId(1), 2), 3);
        assert_eq!(map.get(&TxnId::new(ClientId(1), 2)), Some(&3));
    }
}
