//! Naive set-family reference implementation for differential testing.
//!
//! [`NaiveFamily`] represents a family of sets as a plain
//! `BTreeSet<Vec<Var>>` and implements every family operation the ZDD
//! manager offers by brute force. It is deliberately slow and obviously
//! correct: the differential suites pin the memoized engine's results
//! byte-identical to this model, so a memo-cache or unique-table bug
//! cannot hide behind matching self-consistency.

use std::collections::BTreeSet;

use crate::node::Var;

/// A set family as an explicit sorted set of sorted element vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NaiveFamily {
    sets: BTreeSet<Vec<Var>>,
}

impl NaiveFamily {
    /// Builds a family from sets; each is sorted and deduplicated.
    pub fn from_sets(sets: &[&[Var]]) -> Self {
        let sets = sets
            .iter()
            .map(|s| {
                let mut v = s.to_vec();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        NaiveFamily { sets }
    }

    /// Number of member sets.
    pub fn count(&self) -> usize {
        self.sets.len()
    }

    /// The member sets, each ascending, in lexicographic order.
    pub fn sets(&self) -> Vec<Vec<Var>> {
        self.sets.iter().cloned().collect()
    }

    /// Family union.
    pub fn union(&self, other: &Self) -> Self {
        NaiveFamily {
            sets: self.sets.union(&other.sets).cloned().collect(),
        }
    }

    /// Family intersection.
    pub fn intersect(&self, other: &Self) -> Self {
        NaiveFamily {
            sets: self.sets.intersection(&other.sets).cloned().collect(),
        }
    }

    /// Family difference `self \ other`.
    pub fn diff(&self, other: &Self) -> Self {
        NaiveFamily {
            sets: self.sets.difference(&other.sets).cloned().collect(),
        }
    }

    /// Cross union `{A ∪ B | A ∈ self, B ∈ other}`.
    pub fn join(&self, other: &Self) -> Self {
        let mut sets = BTreeSet::new();
        for a in &self.sets {
            for b in &other.sets {
                let mut v: Vec<Var> = a.iter().chain(b.iter()).copied().collect();
                v.sort_unstable();
                v.dedup();
                sets.insert(v);
            }
        }
        NaiveFamily { sets }
    }

    /// Members of `self` that are not subsets of any member of `other`.
    pub fn nonsubsets(&self, other: &Self) -> Self {
        let sets = self
            .sets
            .iter()
            .filter(|s| !other.sets.iter().any(|t| is_subset(s, t)))
            .cloned()
            .collect();
        NaiveFamily { sets }
    }

    /// Members of `self` that are not supersets of any member of `other`.
    pub fn nonsupersets(&self, other: &Self) -> Self {
        let sets = self
            .sets
            .iter()
            .filter(|s| !other.sets.iter().any(|t| is_subset(t, s)))
            .cloned()
            .collect();
        NaiveFamily { sets }
    }

    /// The maximal members (no member is a proper subset of another).
    pub fn maximal(&self) -> Self {
        let sets = self
            .sets
            .iter()
            .filter(|s| {
                !self
                    .sets
                    .iter()
                    .any(|t| t.len() > s.len() && is_subset(s, t))
            })
            .cloned()
            .collect();
        NaiveFamily { sets }
    }
}

/// `a ⊆ b` for sorted slices.
fn is_subset(a: &[Var], b: &[Var]) -> bool {
    a.iter().all(|e| b.binary_search(e).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let f = NaiveFamily::from_sets(&[&[0, 1], &[2], &[1, 0, 1]]);
        assert_eq!(f.count(), 2);
        assert_eq!(f.sets(), vec![vec![0, 1], vec![2]]);
        assert_eq!(
            NaiveFamily::from_sets(&[&[]]).sets(),
            vec![Vec::<Var>::new()]
        );
        assert_eq!(NaiveFamily::default().count(), 0);
    }

    #[test]
    fn ops_small_model() {
        let f = NaiveFamily::from_sets(&[&[0], &[0, 1], &[2]]);
        let g = NaiveFamily::from_sets(&[&[0, 1], &[2, 3]]);
        assert_eq!(f.union(&g).count(), 4);
        assert_eq!(f.intersect(&g).sets(), vec![vec![0, 1]]);
        assert_eq!(f.diff(&g).count(), 2);
        // {0} and {0,1} are subsets of {0,1}; {2} is a subset of {2,3}.
        assert_eq!(f.nonsubsets(&g).count(), 0);
        // {0,1} is a superset of {0,1}.
        assert_eq!(f.nonsupersets(&g).sets(), vec![vec![0], vec![2]]);
        assert_eq!(f.maximal().sets(), vec![vec![0, 1], vec![2]]);
        let j = NaiveFamily::from_sets(&[&[0]]).join(&NaiveFamily::from_sets(&[&[1], &[0, 2]]));
        assert_eq!(j.sets(), vec![vec![0, 1], vec![0, 2]]);
    }
}
