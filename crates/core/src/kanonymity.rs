//! k-anonymity — the weaker guarantee the paper contrasts with
//! l-diversity (Section 2).
//!
//! A partition is *k-anonymous* when every QI-group has at least `k`
//! tuples. Machanavajjhala et al. (the paper's ref \[10\]) showed that this
//! does not bound the adversary: a group whose tuples all share one
//! sensitive value (a *homogeneous* group) is breached with certainty no
//! matter how large `k` is. [`homogeneity_breach`] computes the actual
//! worst-case breach probability a partition permits, making the
//! k-anonymity-vs-l-diversity gap measurable (see the
//! `homogeneity_attack` example).

use crate::error::CoreError;
use crate::partition::Partition;
use anatomy_tables::Microdata;

/// Whether every QI-group has at least `k` tuples.
pub fn partition_is_k_anonymous(p: &Partition, k: usize) -> bool {
    p.groups().iter().all(|g| g.len() >= k)
}

/// Validate k-anonymity, naming the first undersized group.
pub fn check_k_anonymous(p: &Partition, k: usize) -> Result<(), CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidL(0));
    }
    for (j, g) in p.groups().iter().enumerate() {
        if g.len() < k {
            return Err(CoreError::InvalidPartition(format!(
                "group {j} has {} < k = {k} tuples",
                g.len()
            )));
        }
    }
    Ok(())
}

/// The worst-case sensitive-value breach probability the partition
/// permits: `max_j c_j(v*) / |QI_j|` over all groups `j` and their modal
/// values `v*` (Equation 2 applied to the most exposed tuple).
///
/// For an l-diverse partition this is at most `1/l` (Corollary 1); for a
/// merely k-anonymous partition it can reach 1.0 — the homogeneity attack.
pub fn homogeneity_breach(md: &Microdata, p: &Partition) -> f64 {
    let mut worst: f64 = 0.0;
    for j in 0..p.group_count() as u32 {
        let hist = p.sensitive_histogram(md, j);
        if let Some((_, c)) = hist.max() {
            worst = worst.max(c as f64 / hist.total() as f64);
        }
    }
    worst
}

/// The effective diversity of a partition: the largest `l` for which it is
/// l-diverse (`⌊1 / homogeneity_breach⌋`), or `None` for an empty
/// partition.
pub fn effective_l(md: &Microdata, p: &Partition) -> Option<usize> {
    let breach = homogeneity_breach(md, p);
    if breach == 0.0 {
        None
    } else {
        Some((1.0 / breach).floor() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    fn md(codes: &[u32]) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("A", 100),
            Attribute::categorical("S", 5),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (i, &c) in codes.iter().enumerate() {
            b.push_row(&[i as u32, c]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 1).unwrap()
    }

    #[test]
    fn k_anonymity_counts_group_sizes() {
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap();
        assert!(partition_is_k_anonymous(&p, 4));
        assert!(!partition_is_k_anonymous(&p, 5));
        assert!(check_k_anonymous(&p, 4).is_ok());
        assert!(check_k_anonymous(&p, 5).is_err());
        assert!(check_k_anonymous(&p, 0).is_err());
    }

    #[test]
    fn homogeneous_group_is_fully_breached() {
        // Group {0..3} all share value 0: 4-anonymous, breach 100%.
        let data = md(&[0, 0, 0, 0, 1, 2, 3, 4]);
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap();
        assert!(partition_is_k_anonymous(&p, 4));
        assert_eq!(homogeneity_breach(&data, &p), 1.0);
        assert_eq!(effective_l(&data, &p), Some(1));
    }

    #[test]
    fn diverse_partition_bounds_breach() {
        // The paper's Table 1 partition: 2-diverse -> breach 50%.
        let data = md(&[0, 1, 1, 0, 2, 3, 2, 4]);
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap();
        assert_eq!(homogeneity_breach(&data, &p), 0.5);
        assert_eq!(effective_l(&data, &p), Some(2));
    }

    #[test]
    fn empty_partition_has_no_effective_l() {
        let data = md(&[]);
        let p = Partition::new(vec![], 0).unwrap();
        assert_eq!(homogeneity_breach(&data, &p), 0.0);
        assert_eq!(effective_l(&data, &p), None);
    }

    #[test]
    fn k_anonymity_does_not_imply_diversity_but_diversity_implies_size() {
        // Any l-diverse group needs at least l tuples (each of the >= l
        // distinct value classes contributes >= 1), so l-diversity implies
        // l-anonymity — the converse fails (previous test).
        let data = md(&[0, 1, 2, 3, 4, 0, 1, 2]);
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap();
        assert!(p.is_l_diverse(&data, 4));
        assert!(partition_is_k_anonymous(&p, 4));
    }
}
