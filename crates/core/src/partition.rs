//! Partitions of the microdata into QI-groups (Definition 1).

use crate::diversity::group_is_l_diverse;
use crate::error::CoreError;
use anatomy_tables::stats::Histogram;
use anatomy_tables::Microdata;

/// Identifier of a QI-group. Group ids are dense, `0..group_count`; the
/// *published* Group-ID column is conventionally 1-based (as in the paper's
/// Table 3) and the display layer adds 1.
pub type GroupId = u32;

/// A partition of the microdata rows into QI-groups.
///
/// Maintains both directions of the mapping: `groups[j]` lists the row
/// indices of group `j`, and `group_of[r]` gives the group of row `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    groups: Vec<Vec<u32>>,
    group_of: Vec<GroupId>,
}

impl Partition {
    /// Build a partition from per-group row lists, validating Definition 1:
    /// every row in `0..n` appears in exactly one group.
    pub fn new(groups: Vec<Vec<u32>>, n: usize) -> Result<Self, CoreError> {
        let mut group_of = vec![u32::MAX; n];
        let mut assigned = 0usize;
        for (j, rows) in groups.iter().enumerate() {
            for &r in rows {
                let r_us = r as usize;
                if r_us >= n {
                    return Err(CoreError::InvalidPartition(format!(
                        "row {r} out of range for n = {n}"
                    )));
                }
                if group_of[r_us] != u32::MAX {
                    return Err(CoreError::InvalidPartition(format!(
                        "row {r} appears in groups {} and {j}",
                        group_of[r_us]
                    )));
                }
                group_of[r_us] = j as GroupId;
                assigned += 1;
            }
        }
        if assigned != n {
            return Err(CoreError::InvalidPartition(format!(
                "{assigned} of {n} rows assigned to groups"
            )));
        }
        Ok(Partition { groups, group_of })
    }

    /// Number of QI-groups (`m`).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of partitioned rows (`n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// Whether the partition covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// Row indices of group `j`.
    #[inline]
    pub fn group(&self, j: GroupId) -> &[u32] {
        &self.groups[j as usize]
    }

    /// All groups, in id order.
    #[inline]
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.groups
    }

    /// Group of row `r`.
    #[inline]
    pub fn group_of(&self, r: usize) -> GroupId {
        self.group_of[r]
    }

    /// The dense row→group mapping.
    #[inline]
    pub fn group_ids(&self) -> &[GroupId] {
        &self.group_of
    }

    /// Sizes of all groups, in id order.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.len()).collect()
    }

    /// The sensitive histogram of group `j` under `md`.
    pub fn sensitive_histogram(&self, md: &Microdata, j: GroupId) -> Histogram {
        let rows: Vec<usize> = self.group(j).iter().map(|&r| r as usize).collect();
        Histogram::of_rows(md.sensitive_codes(), &rows, md.sensitive_domain_size())
    }

    /// Check Definition 2 over every group: the partition is l-diverse iff
    /// each group's most frequent sensitive value covers at most `1/l` of
    /// the group.
    pub fn is_l_diverse(&self, md: &Microdata, l: usize) -> bool {
        (0..self.group_count() as GroupId)
            .all(|j| group_is_l_diverse(&self.sensitive_histogram(md, j), l))
    }

    /// Validate l-diversity, returning a descriptive error naming the first
    /// offending group.
    pub fn check_l_diverse(&self, md: &Microdata, l: usize) -> Result<(), CoreError> {
        match (0..self.group_count() as GroupId)
            .find(|&j| !group_is_l_diverse(&self.sensitive_histogram(md, j), l))
        {
            Some(j) => Err(self.not_l_diverse(md, j, l)),
            None => Ok(()),
        }
    }

    /// The error naming group `j`, which fails Definition 2 for `l`.
    pub(crate) fn not_l_diverse(&self, md: &Microdata, j: GroupId, l: usize) -> CoreError {
        let hist = self.sensitive_histogram(md, j);
        let (v, c) = hist.max().expect("non-diverse group is non-empty");
        CoreError::InvalidPartition(format!(
            "group {j} is not {l}-diverse: value {v} occurs {c} times in {} tuples",
            hist.total()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    fn md8() -> Microdata {
        // The paper's Table 1 shape: 8 tuples, diseases coded 0..4.
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("Disease", 5),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        // diseases: pneu=0 dysp=1 flu=2 gast=3 bron=4
        for (age, d) in [
            (23, 0),
            (27, 1),
            (35, 1),
            (59, 0),
            (61, 2),
            (65, 3),
            (65, 2),
            (70, 4),
        ] {
            b.push_row(&[age, d]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 1).unwrap()
    }

    fn paper_partition() -> Partition {
        Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap()
    }

    #[test]
    fn construction_builds_both_mappings() {
        let p = paper_partition();
        assert_eq!(p.group_count(), 2);
        assert_eq!(p.len(), 8);
        assert_eq!(p.group(0), &[0, 1, 2, 3]);
        assert_eq!(p.group_of(5), 1);
        assert_eq!(p.group_sizes(), vec![4, 4]);
    }

    #[test]
    fn rejects_missing_row() {
        let err = Partition::new(vec![vec![0, 1]], 3).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPartition(_)));
    }

    #[test]
    fn rejects_duplicate_row() {
        let err = Partition::new(vec![vec![0, 1], vec![1, 2]], 3).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPartition(_)));
    }

    #[test]
    fn rejects_out_of_range_row() {
        let err = Partition::new(vec![vec![0, 5]], 2).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPartition(_)));
    }

    #[test]
    fn paper_partition_is_2_diverse_not_3() {
        let md = md8();
        let p = paper_partition();
        assert!(p.is_l_diverse(&md, 2));
        assert!(!p.is_l_diverse(&md, 3));
        assert!(p.check_l_diverse(&md, 2).is_ok());
        assert!(p.check_l_diverse(&md, 3).is_err());
    }

    #[test]
    fn sensitive_histogram_matches_group() {
        let md = md8();
        let p = paper_partition();
        let h = p.sensitive_histogram(&md, 0);
        assert_eq!(h.count(anatomy_tables::Value(0)), 2); // pneumonia x2
        assert_eq!(h.count(anatomy_tables::Value(1)), 2); // dyspepsia x2
        assert_eq!(h.total(), 4);
        let h2 = p.sensitive_histogram(&md, 1);
        assert_eq!(h2.count(anatomy_tables::Value(2)), 2); // flu x2
        assert_eq!(h2.distinct(), 3);
    }

    #[test]
    fn empty_partition_is_valid() {
        let p = Partition::new(vec![], 0).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.group_count(), 0);
    }
}
