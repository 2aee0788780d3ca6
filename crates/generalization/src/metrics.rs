//! Information-loss metrics.
//!
//! The paper quantifies utility through the re-construction error (RCE,
//! Section 4) and, in Section 7, points at alternative metrics —
//! KL-divergence (ref \[7\]) and discernibility (refs \[4, 9\]) — as future
//! work for anatomized tables. This module implements both, plus the
//! normalized certainty penalty common in the generalization literature,
//! so the two publication styles can be compared under several lenses.

use crate::generalized_table::GeneralizedTable;
use anatomy_core::{AnatomizedTables, Partition};

/// Per-tuple generalization reconstruction error `1 − 1/V` (Section 4).
pub fn err_gen_tuple(volume: u64) -> f64 {
    debug_assert!(volume >= 1);
    1.0 - 1.0 / volume as f64
}

/// The discernibility metric `Σ_j |QI_j|²` (refs [4, 9]): every tuple is
/// charged the size of its group. Lower is better; the minimum for an
/// l-diverse table is `n·l`.
pub fn discernibility(group_sizes: &[usize]) -> u64 {
    group_sizes.iter().map(|&s| (s * s) as u64).sum()
}

/// Discernibility of a partition.
pub fn discernibility_of_partition(p: &Partition) -> u64 {
    discernibility(&p.group_sizes())
}

/// Average QI-group size `n / m`.
pub fn average_group_size(group_sizes: &[usize]) -> f64 {
    if group_sizes.is_empty() {
        return 0.0;
    }
    let n: usize = group_sizes.iter().sum();
    n as f64 / group_sizes.len() as f64
}

/// Normalized certainty penalty of a generalized table:
/// `Σ_t Σ_i (L_i − 1) / (|A_i| − 1)`, averaged per tuple and per attribute
/// to land in `[0, 1]`. 0 = exact values; 1 = every interval spans its
/// whole domain. Single-valued domains contribute 0.
pub fn ncp(table: &GeneralizedTable, domain_sizes: &[u32]) -> f64 {
    let n = table.len();
    if n == 0 {
        return 0.0;
    }
    let d = domain_sizes.len();
    let mut total = 0.0;
    for g in table.groups() {
        debug_assert_eq!(g.ranges.len(), d);
        let mut per_tuple = 0.0;
        for (range, &dom) in g.ranges.iter().zip(domain_sizes) {
            if dom > 1 {
                per_tuple += (range.len() - 1) as f64 / (dom - 1) as f64;
            }
        }
        total += g.size as f64 * per_tuple;
    }
    total / (n as f64 * d as f64)
}

/// KL-divergence `Σ_t KL(G_t ‖ Ĝ^ana_t)` of anatomized tables from the
/// truth. Since the true pdf is a unit spike at `t`, the per-tuple
/// divergence is `−ln Ĝ(t) = ln(|QI_j| / c_j(v_t))`; summing `c·ln(s/c)`
/// over ST records needs no microdata.
pub fn kl_anatomy(tables: &AnatomizedTables) -> f64 {
    let mut total = 0.0;
    for j in 0..tables.group_count() as u32 {
        let s = tables.group_size(j) as f64;
        for rec in tables.st_of(j) {
            let c = rec.count as f64;
            total += c * (s / c).ln();
        }
    }
    total
}

/// KL-divergence `Σ_t KL(G_t ‖ Ĝ^gen_t)` of a generalized table from the
/// truth: per tuple `−ln(1/V) = ln V` (the sensitive value is exact, the
/// QI mass is spread over the rectangle).
pub fn kl_generalization(table: &GeneralizedTable) -> f64 {
    table
        .groups()
        .iter()
        .map(|g| g.size as f64 * (g.volume() as f64).ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generalized_table::GenGroup;
    use anatomy_core::anatomize::{anatomize, AnatomizeConfig};
    use anatomy_tables::value::CodeRange;
    use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder, Value};

    fn md() -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("S", 6),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..24u32 {
            b.push_row(&[i * 4, i % 6]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 1).unwrap()
    }

    #[test]
    fn discernibility_squares_sizes() {
        assert_eq!(discernibility(&[4, 4]), 32);
        assert_eq!(discernibility(&[2, 2, 2, 2]), 16);
        assert_eq!(discernibility(&[]), 0);
    }

    #[test]
    fn average_group_size_basic() {
        assert_eq!(average_group_size(&[4, 4]), 4.0);
        assert_eq!(average_group_size(&[2, 4]), 3.0);
        assert_eq!(average_group_size(&[]), 0.0);
    }

    #[test]
    fn ncp_bounds() {
        let exact = GeneralizedTable::new(
            vec![GenGroup {
                ranges: vec![CodeRange::point(5)],
                size: 3,
                sens_counts: vec![(Value(0), 1), (Value(1), 2)],
            }],
            2,
        );
        assert_eq!(ncp(&exact, &[100]), 0.0);
        let full = GeneralizedTable::new(
            vec![GenGroup {
                ranges: vec![CodeRange::new(0, 99)],
                size: 3,
                sens_counts: vec![(Value(0), 1), (Value(1), 2)],
            }],
            2,
        );
        assert!((ncp(&full, &[100]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kl_anatomy_zero_for_exact_and_positive_otherwise() {
        let md = md();
        let p = anatomize(&md, &AnatomizeConfig::new(3)).unwrap();
        let t = AnatomizedTables::publish(&md, &p, 3).unwrap();
        let kl = kl_anatomy(&t);
        // All groups have distinct values (c = 1), so KL = Σ ln(s) =
        // n * ln(group size) for uniform sizes.
        assert!(kl > 0.0);
        let expected: f64 = (0..t.group_count() as u32)
            .map(|j| t.group_size(j) as f64 * (t.group_size(j) as f64).ln())
            .sum();
        assert!((kl - expected).abs() < 1e-9);
    }

    #[test]
    fn kl_generalization_is_log_volume() {
        let g = GenGroup {
            ranges: vec![CodeRange::new(0, 9), CodeRange::new(0, 4)],
            size: 4,
            sens_counts: vec![(Value(0), 2), (Value(1), 2)],
        };
        let t = GeneralizedTable::new(vec![g], 2);
        let kl = kl_generalization(&t);
        assert!((kl - 4.0 * (50f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn anatomy_kl_beats_generalization_kl_on_wide_rectangles() {
        // Anatomy's ambiguity is over ~l sensitive values; generalization's
        // is over the whole rectangle volume — typically much larger.
        let md = md();
        let p = anatomize(&md, &AnatomizeConfig::new(3)).unwrap();
        let t = AnatomizedTables::publish(&md, &p, 3).unwrap();
        let gen = GeneralizedTable::new(
            vec![GenGroup {
                ranges: vec![CodeRange::new(0, 99)],
                size: 24,
                sens_counts: vec![(Value(0), 4)],
            }],
            3,
        );
        assert!(kl_anatomy(&t) < kl_generalization(&gen));
    }
}
