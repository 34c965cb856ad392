//! A small fixed-size bit set for the per-cycle active sets.

/// A set of small indices (edges, banks, cores), one bit each. The
/// simulator keeps one beside each array of queues whose members are
/// mostly idle, so a tick visits the busy members, in ascending index
/// order, instead of every one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BitSet(Vec<u64>);

impl BitSet {
    /// An empty set over `0..len`.
    pub fn new(len: usize) -> BitSet {
        BitSet(vec![0; len.div_ceil(64)])
    }

    pub fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    pub fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    #[cfg(test)]
    pub fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn clear(&mut self) {
        self.0.fill(0);
    }

    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The number of 64-member words, for [`BitSet::word_members`].
    pub fn words(&self) -> usize {
        self.0.len()
    }

    /// The members in word `w`, ascending, as they are now: the iterator
    /// does not borrow the set, so the loop body may change it.
    pub fn word_members(&self, w: usize) -> impl Iterator<Item = usize> {
        let mut bits = self.0[w];
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + i
            })
        })
    }

    /// Adds every member of `other` and empties it.
    pub fn take_from(&mut self, other: &mut BitSet) {
        for (mine, theirs) in self.0.iter_mut().zip(&mut other.0) {
            *mine |= std::mem::take(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(s: &BitSet) -> Vec<usize> {
        (0..s.words()).flat_map(|w| s.word_members(w)).collect()
    }

    #[test]
    fn members_come_out_ascending_across_words() {
        let mut s = BitSet::new(200);
        for i in [130, 3, 64, 63, 199, 0] {
            s.insert(i);
        }
        assert_eq!(members(&s), [0, 3, 63, 64, 130, 199]);
        s.remove(63);
        assert!(!s.contains(63) && s.contains(64));
        let mut into = BitSet::new(200);
        into.insert(5);
        into.take_from(&mut s);
        assert!(s.is_empty());
        assert_eq!(members(&into), [0, 3, 5, 64, 130, 199]);
        into.clear();
        assert!(into.is_empty());
    }
}
