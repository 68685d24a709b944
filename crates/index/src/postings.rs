//! Decoded postings lists and the raw in-memory accumulation form.

use crate::compress::PostingsVisitor;

/// One record's entry in an interval's postings list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Record id within the collection.
    pub record: u32,
    /// Ascending in-record offsets at which the interval occurs.
    pub offsets: Vec<u32>,
}

/// A fully decoded postings list for one interval.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PostingsList {
    /// Entries in ascending record order.
    pub entries: Vec<Posting>,
}

impl PostingsList {
    /// Number of records containing the interval (document frequency).
    pub fn df(&self) -> usize {
        self.entries.len()
    }

    /// Total occurrences across all records.
    pub fn total_occurrences(&self) -> usize {
        self.entries.iter().map(|p| p.offsets.len()).sum()
    }

    /// Internal invariants: ascending unique records, ascending unique
    /// offsets, no empty entries. Used by tests and debug assertions.
    pub fn is_well_formed(&self) -> bool {
        let records_ok = self.entries.windows(2).all(|w| w[0].record < w[1].record);
        let entries_ok = self
            .entries
            .iter()
            .all(|p| !p.offsets.is_empty() && p.offsets.windows(2).all(|w| w[0] < w[1]));
        records_ok && entries_ok
    }
}

/// Append-only raw postings under construction: flat `(record, offset)`
/// pairs in insertion order. Construction visits records in ascending id
/// order and offsets ascend within a record, so the flat form is already
/// sorted and converts to a [`PostingsList`] in one pass.
///
/// It is also the collecting [`PostingsVisitor`]: a streamed fetch
/// visited into it yields the list's `(record, offset)` or
/// `(record, count)` pairs, which ascend the same way.
#[derive(Debug, Clone, Default)]
pub struct RawPostings {
    pairs: Vec<(u32, u32)>,
}

impl RawPostings {
    /// Append one occurrence. Callers must append in nondecreasing
    /// `(record, offset)` order (debug-asserted).
    pub fn push(&mut self, record: u32, offset: u32) {
        debug_assert!(
            self.pairs
                .last()
                .is_none_or(|&(r, o)| (r, o) < (record, offset)),
            "postings must be appended in ascending order"
        );
        self.pairs.push((record, offset));
    }

    /// Number of occurrences.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// No occurrences?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of distinct records (document frequency).
    pub fn df(&self) -> usize {
        let mut df = 0;
        let mut prev = None;
        for &(r, _) in &self.pairs {
            if prev != Some(r) {
                df += 1;
                prev = Some(r);
            }
        }
        df
    }

    /// The raw pairs.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// The raw pairs, by value.
    pub fn into_pairs(self) -> Vec<(u32, u32)> {
        self.pairs
    }

    /// Group into a decoded [`PostingsList`].
    pub fn into_list(self) -> PostingsList {
        let mut entries: Vec<Posting> = Vec::new();
        for (record, offset) in self.pairs {
            match entries.last_mut() {
                Some(last) if last.record == record => last.offsets.push(offset),
                _ => entries.push(Posting {
                    record,
                    offsets: vec![offset],
                }),
            }
        }
        let list = PostingsList { entries };
        debug_assert!(list.is_well_formed());
        list
    }
}

impl PostingsVisitor for RawPostings {
    fn visit(&mut self, record: u32, value: u32) {
        self.push(record, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_grouping() {
        let mut raw = RawPostings::default();
        for (r, o) in [(0u32, 3u32), (0, 9), (2, 1), (5, 0), (5, 4), (5, 8)] {
            raw.push(r, o);
        }
        assert_eq!(raw.len(), 6);
        assert_eq!(raw.df(), 3);
        let list = raw.into_list();
        assert_eq!(list.df(), 3);
        assert_eq!(list.total_occurrences(), 6);
        assert_eq!(
            list.entries[0],
            Posting {
                record: 0,
                offsets: vec![3, 9]
            }
        );
        assert_eq!(
            list.entries[2],
            Posting {
                record: 5,
                offsets: vec![0, 4, 8]
            }
        );
        assert!(list.is_well_formed());
    }

    #[test]
    fn empty_raw() {
        let raw = RawPostings::default();
        assert!(raw.is_empty());
        assert_eq!(raw.df(), 0);
        let list = raw.into_list();
        assert_eq!(list.df(), 0);
        assert!(list.is_well_formed());
    }

    #[test]
    fn well_formedness_detects_violations() {
        let bad_order = PostingsList {
            entries: vec![
                Posting {
                    record: 5,
                    offsets: vec![1],
                },
                Posting {
                    record: 2,
                    offsets: vec![1],
                },
            ],
        };
        assert!(!bad_order.is_well_formed());
        let bad_offsets = PostingsList {
            entries: vec![Posting {
                record: 1,
                offsets: vec![4, 4],
            }],
        };
        assert!(!bad_offsets.is_well_formed());
        let empty_offsets = PostingsList {
            entries: vec![Posting {
                record: 1,
                offsets: vec![],
            }],
        };
        assert!(!empty_offsets.is_well_formed());
    }
}
