//! l-diversity: Definition 2, the eligibility condition, and alternative
//! instantiations.
//!
//! The paper adopts the *simple* frequency instantiation of l-diversity
//! (termed "recursive (1/(l−1), 2)-diversity" in Machanavajjhala et al.,
//! the paper's ref \[10\]): in every QI-group, the most frequent sensitive
//! value covers at most `1/l` of the group (Inequality 1). Section 3.1
//! notes that anatomy extends straightforwardly to the other
//! instantiations; [`DiversityCriterion`] provides the two standard ones
//! (entropy and recursive (c,l)) so that the extension is concrete, not
//! hypothetical.

use crate::error::CoreError;
use anatomy_tables::stats::Histogram;
use anatomy_tables::Microdata;

/// Check Definition 2 for one QI-group given its sensitive histogram:
/// `c(v) / |QI| <= 1/l` for the most frequent `v`, evaluated in exact
/// integer arithmetic as `l * c(v) <= |QI|`.
pub fn group_is_l_diverse(hist: &Histogram, l: usize) -> bool {
    match hist.max() {
        None => true, // an empty group is vacuously diverse
        Some((_, max_count)) => max_count.saturating_mul(l) <= hist.total(),
    }
}

/// The eligibility condition (proof of Property 1, after ref \[10\]): an
/// l-diverse partition of `T` exists **iff** at most `n/l` tuples share any
/// one sensitive value. Returns the sensitive histogram on success so
/// callers can reuse it.
pub fn check_eligibility(md: &Microdata, l: usize) -> Result<Histogram, CoreError> {
    if l < 2 {
        return Err(CoreError::InvalidL(l));
    }
    let hist = Histogram::of_column(md.sensitive_codes(), md.sensitive_domain_size());
    let n = md.len();
    if let Some((_, max_count)) = hist.max() {
        if max_count.saturating_mul(l) > n {
            return Err(CoreError::NotEligible { max_count, n, l });
        }
    }
    Ok(hist)
}

/// The largest `l` for which `md` is eligible: `⌊n / max_count⌋` where
/// `max_count` is the frequency of the most common sensitive value —
/// the natural "how much privacy can this dataset support?" question a
/// publisher asks first. Returns `None` for empty microdata.
pub fn max_feasible_l(md: &Microdata) -> Option<usize> {
    let hist = Histogram::of_column(md.sensitive_codes(), md.sensitive_domain_size());
    let (_, max_count) = hist.max()?;
    Some(md.len() / max_count)
}

/// Restore eligibility by suppression: drop the minimum number of tuples
/// so that the remainder satisfies the eligibility condition for `l`
/// (suppression is the classic escape hatch of the generalization
/// literature the paper's Section 2 mentions).
///
/// Returns the retained microdata and the (sorted) suppressed row indices.
/// Tuples are dropped from over-represented sensitive values, newest rows
/// first, until every value `v` satisfies `count(v) * l <= n'` where `n'`
/// is the retained size. Returns an error for `l < 2`; suppressing
/// everything is never necessary for `l <= λ`, but tiny inputs may end up
/// empty, which is reported as success with all rows suppressed.
pub fn suppress_to_eligibility(
    md: &Microdata,
    l: usize,
) -> Result<(Microdata, Vec<usize>), CoreError> {
    if l < 2 {
        return Err(CoreError::InvalidL(l));
    }
    let n = md.len();
    let mut counts = Histogram::of_column(md.sensitive_codes(), md.sensitive_domain_size());
    // Iteratively cap the most frequent value: dropping one tuple of the
    // modal value always weakly improves eligibility (numerator falls by
    // l, denominator by 1).
    let mut drop_per_value = vec![0usize; md.sensitive_domain_size() as usize];
    let mut retained = n;
    while let Some((v, c)) = counts.max() {
        if c * l <= retained {
            break;
        }
        counts.remove(v);
        drop_per_value[v.index()] += 1;
        retained -= 1;
        if retained == 0 {
            break;
        }
    }
    // Materialize: drop the *last* `drop_per_value[v]` rows of each value.
    let mut suppressed = Vec::with_capacity(n - retained);
    let mut keep = Vec::with_capacity(retained);
    for r in (0..n).rev() {
        let v = md.sensitive_value(r).index();
        if drop_per_value[v] > 0 {
            drop_per_value[v] -= 1;
            suppressed.push(r);
        } else {
            keep.push(r);
        }
    }
    keep.reverse();
    suppressed.reverse();
    let retained_md = md.gather(&keep)?;
    Ok((retained_md, suppressed))
}

/// An instantiation of the l-diversity principle, applied to one QI-group's
/// sensitive histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiversityCriterion {
    /// The paper's Definition 2: most frequent value covers ≤ 1/l of the
    /// group.
    Frequency {
        /// Diversity parameter `l >= 2`.
        l: usize,
    },
    /// Entropy l-diversity (ref \[10\]): the entropy of the group's sensitive
    /// distribution is at least `ln(l)`.
    Entropy {
        /// Diversity parameter `l >= 2`.
        l: usize,
    },
    /// Recursive (c,l)-diversity (ref \[10\]): with group counts sorted
    /// descending `r1 >= r2 >= ...`, require
    /// `r1 < c * (r_l + r_{l+1} + ... + r_m)`.
    Recursive {
        /// The multiplier `c > 0`.
        c: f64,
        /// Diversity parameter `l >= 2`.
        l: usize,
    },
}

impl DiversityCriterion {
    /// Whether a QI-group with sensitive histogram `hist` satisfies the
    /// criterion. Empty groups are vacuously diverse.
    pub fn check(&self, hist: &Histogram) -> bool {
        if hist.total() == 0 {
            return true;
        }
        match *self {
            DiversityCriterion::Frequency { l } => group_is_l_diverse(hist, l),
            DiversityCriterion::Entropy { l } => hist.entropy() >= (l as f64).ln() - 1e-12,
            DiversityCriterion::Recursive { c, l } => {
                let counts = hist.sorted_counts_desc();
                if counts.len() < l {
                    // fewer than l distinct values can never be
                    // (c,l)-diverse for the tail sum definition
                    return false;
                }
                let r1 = counts[0] as f64;
                let tail: usize = counts[l - 1..].iter().sum();
                r1 < c * tail as f64
            }
        }
    }

    /// The diversity parameter `l` of the criterion.
    pub fn l(&self) -> usize {
        match *self {
            DiversityCriterion::Frequency { l }
            | DiversityCriterion::Entropy { l }
            | DiversityCriterion::Recursive { l, .. } => l,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder};

    fn md_with_sensitive(codes: &[u32]) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("Disease", 10),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (i, &c) in codes.iter().enumerate() {
            b.push_row(&[(i % 100) as u32, c]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 1).unwrap()
    }

    #[test]
    fn frequency_check_matches_definition_2() {
        // Table 2 of the paper: QI-group 1 has {pneumonia: 2, dyspepsia: 2}.
        let h = Histogram::of_column(&[0, 0, 1, 1], 5);
        assert!(group_is_l_diverse(&h, 2));
        assert!(!group_is_l_diverse(&h, 3));
        // 3 of 4 identical: only 1-diverse.
        let h = Histogram::of_column(&[0, 0, 0, 1], 5);
        assert!(!group_is_l_diverse(&h, 2));
    }

    #[test]
    fn empty_group_is_vacuously_diverse() {
        let h = Histogram::new(5);
        assert!(group_is_l_diverse(&h, 10));
    }

    #[test]
    fn eligibility_accepts_balanced_data() {
        let md = md_with_sensitive(&[0, 1, 2, 3, 0, 1, 2, 3]);
        assert!(check_eligibility(&md, 4).is_ok());
        assert!(check_eligibility(&md, 2).is_ok());
    }

    #[test]
    fn eligibility_rejects_skew() {
        // 5 of 8 tuples share value 0: max l with 5*l <= 8 fails even at 2.
        let md = md_with_sensitive(&[0, 0, 0, 0, 0, 1, 2, 3]);
        let err = check_eligibility(&md, 2).unwrap_err();
        assert_eq!(
            err,
            CoreError::NotEligible {
                max_count: 5,
                n: 8,
                l: 2
            }
        );
    }

    #[test]
    fn eligibility_boundary_is_exact() {
        // Exactly n/l occurrences is allowed (Inequality 1 is <=).
        let md = md_with_sensitive(&[0, 0, 1, 1, 2, 3]); // max 2, n=6, l=3
        assert!(check_eligibility(&md, 3).is_ok());
        // One more duplicate tips it over.
        let md = md_with_sensitive(&[0, 0, 0, 1, 2, 3]); // max 3, n=6, l=3
        assert!(check_eligibility(&md, 3).is_err());
    }

    #[test]
    fn invalid_l_rejected() {
        let md = md_with_sensitive(&[0, 1]);
        assert_eq!(
            check_eligibility(&md, 0).unwrap_err(),
            CoreError::InvalidL(0)
        );
        assert_eq!(
            check_eligibility(&md, 1).unwrap_err(),
            CoreError::InvalidL(1)
        );
    }

    #[test]
    fn entropy_criterion() {
        // Uniform over 4 values: entropy = ln 4, passes l=4 but not l=5.
        let h = Histogram::of_column(&[0, 1, 2, 3], 5);
        assert!(DiversityCriterion::Entropy { l: 4 }.check(&h));
        assert!(!DiversityCriterion::Entropy { l: 5 }.check(&h));
        // Skewed: entropy < ln 4.
        let h = Histogram::of_column(&[0, 0, 0, 1, 2, 3], 5);
        assert!(!DiversityCriterion::Entropy { l: 4 }.check(&h));
    }

    #[test]
    fn recursive_criterion() {
        // counts desc = [3, 2, 1]; (c=2, l=2): r1=3 < 2*(2+1)=6 -> pass.
        let h = Histogram::of_column(&[0, 0, 0, 1, 1, 2], 5);
        assert!(DiversityCriterion::Recursive { c: 2.0, l: 2 }.check(&h));
        // (c=1, l=3): r1=3 < 1*(1)=1 -> fail.
        assert!(!DiversityCriterion::Recursive { c: 1.0, l: 3 }.check(&h));
        // fewer than l distinct values -> fail.
        assert!(!DiversityCriterion::Recursive { c: 10.0, l: 4 }.check(&h));
    }

    #[test]
    fn frequency_criterion_agrees_with_free_function() {
        let h = Histogram::of_column(&[0, 1, 2, 0, 1, 2], 5);
        for l in 2..6 {
            assert_eq!(
                DiversityCriterion::Frequency { l }.check(&h),
                group_is_l_diverse(&h, l)
            );
        }
    }

    #[test]
    fn max_feasible_l_matches_definition() {
        let md = md_with_sensitive(&[0, 0, 1, 2, 3, 4, 5, 6]); // max 2, n 8
        assert_eq!(max_feasible_l(&md), Some(4));
        let md = md_with_sensitive(&[0, 1, 2, 3]); // max 1
        assert_eq!(max_feasible_l(&md), Some(4));
        let md = md_with_sensitive(&[]);
        assert_eq!(max_feasible_l(&md), None);
    }

    #[test]
    fn suppression_restores_eligibility_minimally() {
        // Value 0 occurs 6 times in 10 tuples: l = 2 needs count*2 <= n'.
        // Dropping k tuples of value 0: (6-k)*2 <= 10-k -> k >= 2.
        let md = md_with_sensitive(&[0, 0, 0, 0, 0, 0, 1, 2, 3, 4]);
        assert!(check_eligibility(&md, 2).is_err());
        let (kept, dropped) = suppress_to_eligibility(&md, 2).unwrap();
        assert_eq!(dropped.len(), 2);
        assert_eq!(kept.len(), 8);
        assert!(check_eligibility(&kept, 2).is_ok());
        // Dropped rows all carried the over-represented value.
        for &r in &dropped {
            assert_eq!(md.sensitive_value(r).code(), 0);
        }
        // Suppressed indices reported sorted ascending.
        let mut sorted = dropped.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, dropped);
    }

    #[test]
    fn suppression_is_a_noop_on_eligible_data() {
        let md = md_with_sensitive(&[0, 1, 2, 3, 0, 1, 2, 3]);
        let (kept, dropped) = suppress_to_eligibility(&md, 4).unwrap();
        assert!(dropped.is_empty());
        assert_eq!(kept.len(), 8);
    }

    #[test]
    fn suppression_rejects_bad_l_and_handles_tiny_inputs() {
        let md = md_with_sensitive(&[0]);
        assert!(suppress_to_eligibility(&md, 1).is_err());
        // A single tuple can never satisfy l = 2: everything is suppressed.
        let (kept, dropped) = suppress_to_eligibility(&md, 2).unwrap();
        assert_eq!(kept.len(), 0);
        assert_eq!(dropped, vec![0]);
    }

    #[test]
    fn criterion_reports_l() {
        assert_eq!(DiversityCriterion::Frequency { l: 10 }.l(), 10);
        assert_eq!(DiversityCriterion::Entropy { l: 3 }.l(), 3);
        assert_eq!(DiversityCriterion::Recursive { c: 1.0, l: 4 }.l(), 4);
    }
}
