//! Small containers that keep the per-transaction path off the heap.
//!
//! * [`InlineVec`] — a vector whose first `N` elements live in the value
//!   itself; only element `N + 1` moves it to the heap. The read and write
//!   lists of a [`crate::ReadWriteSet`] are built once per executed
//!   transaction per executor, and YCSB transactions touch one or two
//!   keys, so a `Vec` there was one allocation per list per executor. A
//!   closed-loop client's list of outstanding requests holds one.
//! * [`ShardSet`] — the set of shards a transaction touches as one `u64`
//!   bit mask, iterated in ascending [`ShardId`] order (the lock order of
//!   the cross-shard commit path). It replaces a `BTreeSet<ShardId>` per
//!   transaction on the verifier's routing pass and caps a deployment at
//!   [`ShardSet::CAPACITY`] shards.

use crate::ids::ShardId;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector of small elements that stores up to `N` of them inline and
/// spills to a heap `Vec` when the `N + 1`-th is pushed (unused inline
/// slots hold `T::default()`, which should therefore cost nothing to
/// build). Reads go through the slice it dereferences to; equality,
/// ordering of elements and `Debug` output are those of the slice,
/// whichever side of the spill a value is on.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `items[..len]` are the elements; the rest is filler.
    Inline {
        len: u8,
        items: [T; N],
    },
    Spilled(Vec<T>),
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (no allocation).
    #[must_use]
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "inline capacity fits a byte") };
        InlineVec {
            repr: Repr::Inline {
                len: 0,
                items: std::array::from_fn(|_| T::default()),
            },
        }
    }

    /// Appends `value`, spilling to the heap if the inline slots are full.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, items } => {
                if let Some(slot) = items.get_mut(*len as usize) {
                    *slot = value;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * N + 1);
                    spilled.extend(items.iter_mut().map(std::mem::take));
                    spilled.push(value);
                    self.repr = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(items) => items.push(value),
        }
    }

    /// Removes and returns element `at`, moving the last element into its
    /// place (`Vec::swap_remove`). A spilled vector stays on the heap.
    ///
    /// # Panics
    /// Panics if `at` is out of bounds.
    pub fn swap_remove(&mut self, at: usize) -> T {
        match &mut self.repr {
            Repr::Inline { len, items } => {
                let last = (*len as usize)
                    .checked_sub(1)
                    .filter(|last| at <= *last)
                    .expect("swap_remove index within the list");
                items.swap(at, last);
                *len -= 1;
                std::mem::take(&mut items[last])
            }
            Repr::Spilled(items) => items.swap_remove(at),
        }
    }

    /// Whether the elements have moved to the heap.
    #[must_use]
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Spilled(_))
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Spilled(items) => items,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Spilled(items) => items,
        }
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// A set of [`ShardId`]s below [`ShardSet::CAPACITY`], as a bit mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ShardSet(u64);

impl ShardSet {
    /// The number of shards a set can tell apart, and therefore the
    /// largest `num_shards` a deployment may configure.
    pub const CAPACITY: usize = u64::BITS as usize;

    /// The empty set.
    pub const EMPTY: ShardSet = ShardSet(0);

    /// The set holding only `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is not below [`Self::CAPACITY`].
    #[must_use]
    pub fn single(shard: ShardId) -> Self {
        let mut set = ShardSet::EMPTY;
        set.insert(shard);
        set
    }

    /// Adds `shard`; returns whether it was new.
    ///
    /// # Panics
    /// Panics if `shard` is not below [`Self::CAPACITY`] — configurations
    /// are validated against it, so a larger id is a routing bug.
    pub fn insert(&mut self, shard: ShardId) -> bool {
        assert!(
            (shard.0 as usize) < Self::CAPACITY,
            "shard {} beyond the {}-shard route set",
            shard.0,
            Self::CAPACITY
        );
        let bit = 1u64 << shard.0;
        let new = self.0 & bit == 0;
        self.0 |= bit;
        new
    }

    /// Whether `shard` is in the set.
    #[must_use]
    pub fn contains(&self, shard: ShardId) -> bool {
        (shard.0 as usize) < Self::CAPACITY && self.0 & (1u64 << shard.0) != 0
    }

    /// Number of shards in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The lowest shard of the set (a transaction's home shard).
    #[must_use]
    pub fn first(&self) -> Option<ShardId> {
        (self.0 != 0).then(|| ShardId(self.0.trailing_zeros()))
    }

    /// The shards in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ShardId> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let shard = rest.trailing_zeros();
                rest &= rest - 1;
                ShardId(shard)
            })
        })
    }
}

impl FromIterator<ShardId> for ShardSet {
    fn from_iter<I: IntoIterator<Item = ShardId>>(iter: I) -> Self {
        let mut set = ShardSet::EMPTY;
        for shard in iter {
            set.insert(shard);
        }
        set
    }
}

impl fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_vec_spills_only_past_its_capacity() {
        let mut v: InlineVec<u64, 2> = InlineVec::new();
        assert!(v.is_empty() && !v.spilled());
        v.push(7);
        v.push(8);
        assert!(!v.spilled(), "two elements fit the two slots");
        assert_eq!(&*v, &[7, 8]);
        v.push(9);
        assert!(v.spilled());
        assert_eq!(&*v, &[7, 8, 9]);
        v[0] = 1;
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![1, 8, 9]);
        assert_eq!(format!("{v:?}"), "[1, 8, 9]");
    }

    #[test]
    fn swap_remove_matches_vec_on_either_side_of_the_spill() {
        // Non-`Copy` elements: the list of a client's outstanding requests
        // holds reference-counted transactions.
        let names = |n: usize| (0..n).map(|i| format!("r{i}")).collect::<Vec<_>>();
        for (n, at) in [(1, 0), (2, 0), (2, 1), (3, 1), (5, 0)] {
            let mut model = names(n);
            let mut v: InlineVec<String, 2> = names(n).into_iter().collect();
            assert_eq!(v.swap_remove(at), model.swap_remove(at));
            assert_eq!(&*v, &model[..]);
            assert_eq!(v.spilled(), n > 2);
            v.push("next".into());
            model.push("next".into());
            assert_eq!(&*v, &model[..], "a freed inline slot is reused");
        }
    }

    #[test]
    #[should_panic(expected = "within the list")]
    fn swap_remove_past_the_end_panics() {
        let mut v: InlineVec<u64, 2> = [4].into_iter().collect();
        v.swap_remove(1);
    }

    #[test]
    fn equality_is_over_the_elements_on_either_side_of_the_spill() {
        let mut a: InlineVec<u64, 4> = [1, 2].into_iter().collect();
        let mut b: InlineVec<u64, 4> = [1, 9].into_iter().collect();
        assert_ne!(a, b);
        b[1] = 2;
        assert_eq!(a, b);
        for _ in 0..3 {
            a.push(5);
            b.push(5);
        }
        assert!(a.spilled());
        assert_eq!(a, b);
    }

    #[test]
    fn shard_set_iterates_in_ascending_order() {
        let set: ShardSet = [ShardId(5), ShardId(0), ShardId(63), ShardId(5)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 3);
        assert_eq!(set.first(), Some(ShardId(0)));
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![ShardId(0), ShardId(5), ShardId(63)]
        );
        assert!(set.contains(ShardId(63)) && !set.contains(ShardId(64)));
        assert_eq!(ShardSet::EMPTY.first(), None);
        assert_eq!(ShardSet::single(ShardId(3)).iter().count(), 1);
        assert_eq!(format!("{set:?}"), "{s0, s5, s63}");
    }

    #[test]
    #[should_panic(expected = "beyond the 64-shard route set")]
    fn inserting_past_the_capacity_panics() {
        let mut set = ShardSet::EMPTY;
        set.insert(ShardId(64));
    }
}
