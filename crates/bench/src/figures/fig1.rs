//! Figure 1 + Sections 1.1/1.2: the query-A walk-through on the worked
//! example — the generalized estimate (0.1) vs the anatomy estimate (1.0)
//! vs the truth (1).

use crate::report::section;
use crate::runner::BenchResult;
use anatomy_core::AnatomizedTables;
use anatomy_data::tiny;
use anatomy_generalization::{GenGroup, GeneralizedTable};
use anatomy_query::{
    estimate_anatomy, estimate_generalization, evaluate_exact, CountQuery, InPredicate,
};
use anatomy_tables::value::CodeRange;
use anatomy_tables::Microdata;
use std::fmt::Write as _;

/// Query A of Section 1.1, over the worked example with QI = (Age, Sex,
/// Zipcode): `Disease = pneumonia AND Age <= 30 AND Zipcode in
/// [10001, 20000]`.
pub fn query_a(md: &Microdata) -> CountQuery {
    CountQuery {
        qi_preds: vec![
            (
                0,
                InPredicate::new((0..=30).collect(), md.qi_domain_size(0)).unwrap(),
            ),
            // zip codes stored in thousands: [10001, 20000] covers 11..=20
            (
                2,
                InPredicate::new((11..=20).collect(), md.qi_domain_size(2)).unwrap(),
            ),
        ],
        sens_pred: InPredicate::new(
            vec![tiny::disease_code("pneumonia").unwrap().code()],
            md.sensitive_domain_size(),
        )
        .unwrap(),
    }
}

/// The paper's Table-2 generalization of the example, in group-compressed
/// form (group 1: ages \[21,60\]; group 2: ages \[61,70\]; both zips spanning
/// the 11k–59k band; Sex exact per group).
pub fn paper_generalization(md: &Microdata) -> GeneralizedTable {
    let p = tiny::paper_partition();
    let g1 = GenGroup::from_rows(
        md,
        p.group(0),
        vec![
            CodeRange::new(21, 60),
            CodeRange::point(0),
            CodeRange::new(11, 59),
        ],
    );
    let g2 = GenGroup::from_rows(
        md,
        p.group(1),
        vec![
            CodeRange::new(61, 70),
            CodeRange::point(1),
            CodeRange::new(11, 59),
        ],
    );
    GeneralizedTable::new(vec![g1, g2], 2)
}

/// Run the walk-through; returns the report.
pub fn run() -> BenchResult<String> {
    let md = tiny::paper_microdata();
    let q = query_a(&md);
    let act = evaluate_exact(&md, &q);

    let gen = paper_generalization(&md);
    let gen_est = estimate_generalization(&gen, &q);

    let tables = AnatomizedTables::publish(&md, &tiny::paper_partition(), 2)?;
    let ana_est = estimate_anatomy(&tables, &q);

    let mut out = section("Figure 1 / query A (Sections 1.1-1.2)");
    let _ = writeln!(
        out,
        "query A: COUNT(*) WHERE Disease = pneumonia AND Age <= 30"
    );
    let _ = writeln!(out, "         AND Zipcode IN [10001, 20000]");
    let _ = writeln!(out, "actual answer (microdata):           {act}");
    let _ = writeln!(
        out,
        "estimate from generalized table:     {gen_est:.3}  (paper: 0.1)"
    );
    let _ = writeln!(
        out,
        "estimate from anatomized tables:     {ana_est:.3}  (paper: 1, exact)"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walkthrough_matches_the_paper() {
        let md = tiny::paper_microdata();
        let q = query_a(&md);
        assert_eq!(evaluate_exact(&md, &q), 1);

        let gen_est = estimate_generalization(&paper_generalization(&md), &q);
        // Paper: ~0.1 (ten times smaller than the truth).
        assert!(gen_est < 0.25, "generalized estimate {gen_est}");
        assert!(gen_est > 0.0);

        let tables = AnatomizedTables::publish(&md, &tiny::paper_partition(), 2).unwrap();
        let ana_est = estimate_anatomy(&tables, &q);
        assert!((ana_est - 1.0).abs() < 1e-9, "anatomy estimate {ana_est}");
    }

    #[test]
    fn report_renders() {
        let s = run().unwrap();
        assert!(s.contains("query A"));
        assert!(s.contains("anatomized"));
    }
}
