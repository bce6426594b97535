//! A fixed-capacity bitset over `u64` blocks.
//!
//! The algorithmic crates use bitsets as visited markers, reachability sets
//! and transitive-closure rows. We keep our own implementation rather than
//! pulling an extra dependency: the operations needed are few and the layout
//! (a boxed `[u64]`) is exactly what the cache wants.

/// A fixed-capacity set of `usize` indices in `[0, capacity)`.
///
/// All operations panic if an index is out of capacity, matching slice
/// semantics — callers size the set once from the graph's node count.
#[derive(Clone, PartialEq, Eq)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

const BITS: usize = 64;

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            blocks: vec![0; capacity.div_ceil(BITS)],
            capacity,
        }
    }

    /// Number of indices this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`, returning `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "index {i} out of capacity {}",
            self.capacity
        );
        let (b, m) = (i / BITS, 1u64 << (i % BITS));
        let fresh = self.blocks[b] & m == 0;
        self.blocks[b] |= m;
        fresh
    }

    /// Removes `i`, returning `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "index {i} out of capacity {}",
            self.capacity
        );
        let (b, m) = (i / BITS, 1u64 << (i % BITS));
        let present = self.blocks[b] & m != 0;
        self.blocks[b] &= !m;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.blocks[i / BITS] & (1u64 << (i % BITS)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes every element, keeping capacity.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// `self ∪= other`. Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Ones<'_> {
        ones(&self.blocks)
    }

    /// Collects the elements as `u32` ids (the node-id width used across the
    /// workspace), in increasing order.
    pub fn to_vec_u32(&self) -> Vec<u32> {
        self.iter().map(|i| i as u32).collect()
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to fit the largest element (capacity = max + 1).
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// The set bits of the bitset `blocks` (bit `i % 64` of word `i / 64`),
/// in increasing order.
pub fn ones(blocks: &[u64]) -> Ones<'_> {
    let (&word, rest) = blocks.split_first().unwrap_or((&0, &[]));
    Ones {
        word,
        base: 0,
        rest: rest.iter(),
    }
}

/// Iterator over set bits; see [`ones`].
pub struct Ones<'a> {
    word: u64,
    base: usize,
    rest: std::slice::Iter<'a, u64>,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.rest.next()?;
            self.base += BITS;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_lists_set_bits_ascending() {
        let bits = [0b1001, 0, 1 << 63, 1];
        assert_eq!(ones(&bits).collect::<Vec<_>>(), [0, 3, 191, 192]);
        assert_eq!(ones(&[]).count(), 0);
        assert_eq!(ones(&[0, 0]).count(), 0);
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports not-fresh");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn contains_out_of_capacity_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn iteration_order_and_clear() {
        let mut s = BitSet::new(200);
        for i in [5usize, 63, 64, 65, 127, 128, 199] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![5, 63, 64, 65, 127, 128, 199]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1usize, 2, 3, 64].into_iter().collect();
        let b: BitSet = [2usize, 3, 4, 64].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 5);
        assert!(u.contains(1) && u.contains(4) && u.contains(64));
    }

    #[test]
    fn empty_bitset() {
        let s = BitSet::new(0);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn to_vec_u32_roundtrip() {
        let s: BitSet = [3usize, 77, 100].into_iter().collect();
        assert_eq!(s.to_vec_u32(), vec![3u32, 77, 100]);
    }
}
