//! # anatomy-audit
//!
//! Release-integrity auditor for anatomized publications.
//!
//! The paper's privacy and utility guarantees are *conditional*: Corollary
//! 1's `1/l` breach bound holds only if every QI-group really is l-diverse
//! (Definition 2), and Theorem 2's error floor only describes pairs that
//! actually satisfy Definitions 1 and 3. A release that went through
//! external storage, serialization, or an incremental pipeline can violate
//! those conditions silently — a flipped count, a swapped group id — while
//! still looking like a perfectly healthy pair of CSV files. This crate
//! re-derives every invariant from the released bytes alone, the same way
//! a recipient (or a CI gate) would.
//!
//! The invariants live in a declarative [`registry`]: each [`Invariant`]
//! entry declares a stable name, the paper citation it encodes, a
//! severity, the pipeline [`Stage`]s that must preserve it, and the check
//! function. Auditors, the CLI's `verify --list-checks`, the manifest
//! `audit` block, and the CI smoke all enumerate [`REGISTRY`] — adding an
//! invariant is one registration (see the `checks_incremental` module for the
//! worked example), not a sweep over consumers. The registered invariants:
//!
//! * **`qit_st_structure`** — Definitions 1 & 3: QIT group ids are dense,
//!   the ST is sorted by `(group, value)` without duplicates, counts are
//!   positive, and each group's ST counts sum to its QIT population.
//! * **`l_diversity`** — Definition 2: in every group the most frequent
//!   sensitive value has frequency at most `1/l`.
//! * **`group_sizes`** — Properties 1 & 3 of `Anatomize`: exactly
//!   `⌊n/l⌋` groups, each holding between `l` and `2l − 1` tuples.
//! * **`residue_placement`** — Properties 2 & 3: every ST count is 1
//!   (a residue only joins a group *not* containing its value, so values
//!   stay distinct within each group) and at most `l − 1` residues exist.
//! * **`rce_bound`** — Theorem 2: the achieved re-construction error is at
//!   least `n(1 − 1/l)`.
//! * **`estimator_consistency`** (full releases only) — the query layer's
//!   aggregate view agrees with the ST: for every sensitive value, the
//!   anatomy estimate of `COUNT(*) WHERE As = v` with no QI predicate
//!   equals the value's total ST count.
//! * **`incremental_group_immutability`** (stage `incremental` only) —
//!   successive publications differ only by whole appended groups: group
//!   ids run in contiguous emission-order blocks and the previously
//!   published rows survive verbatim as a prefix.
//!
//! The parts-level checks read one per-group table
//! ([`registry::GroupTable`]) that [`PartsCtx::new`] fills in one pass
//! over the QIT's group ids and one over the ST, so the table costs
//! O(n + |ST|) time and memory whatever ids the input names.
//!
//! [`audit_parts`] runs the parts-level checks on raw `(group_ids, ST)`
//! parts — tolerant of arbitrarily corrupt input, it never panics — and
//! [`audit_release`] runs the full stage battery on an assembled
//! [`AnatomizedTables`]. Both audit the `anatomize` stage, which every
//! engine's output and every served release belongs to; the `_for`
//! variants take the stage explicitly, and [`audit_increment`] audits a
//! consecutive snapshot pair from the incremental publisher. The three
//! checks that encode `Anatomize`-specific output shape (`group_sizes`,
//! `residue_placement`, `rce_bound` at equality) are still *required*:
//! this auditor certifies releases produced by the paper's algorithm, and
//! a deviation means the pipeline did something the paper's analysis does
//! not cover.

#![forbid(unsafe_code)]

mod checks;
mod checks_incremental;
pub mod registry;

pub use registry::{
    find_invariant, invariants_for, names_for, render_registry, Check, IncrementCtx, Invariant,
    PartsCtx, Severity, Stage, REGISTRY,
};

use anatomy_core::{AnatomizedTables, GroupId, StRecord};
use std::fmt;
use std::fmt::Write as _;

/// Check name: Definitions 1 & 3 structural consistency.
pub const CHECK_QIT_ST_STRUCTURE: &str = "qit_st_structure";
/// Check name: Definition 2 per-group diversity.
pub const CHECK_L_DIVERSITY: &str = "l_diversity";
/// Check name: Properties 1 & 3 group count and sizes.
pub const CHECK_GROUP_SIZES: &str = "group_sizes";
/// Check name: Properties 2 & 3 residue shape.
pub const CHECK_RESIDUE_PLACEMENT: &str = "residue_placement";
/// Check name: Theorem 2 error floor.
pub const CHECK_RCE_BOUND: &str = "rce_bound";
/// Check name: query-layer agreement with the ST.
pub const CHECK_ESTIMATOR_CONSISTENCY: &str = "estimator_consistency";
/// Check name: append-only group immutability across incremental
/// snapshots.
pub const CHECK_INCREMENTAL_GROUP_IMMUTABILITY: &str = "incremental_group_immutability";

/// Every check [`audit_release`] runs, in execution order.
pub const CHECK_NAMES: [&str; 6] = [
    CHECK_QIT_ST_STRUCTURE,
    CHECK_L_DIVERSITY,
    CHECK_GROUP_SIZES,
    CHECK_RESIDUE_PLACEMENT,
    CHECK_RCE_BOUND,
    CHECK_ESTIMATOR_CONSISTENCY,
];

/// One check's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// One of the `CHECK_*` constants.
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// On failure, the first offending group/value, in words.
    pub detail: Option<String>,
}

impl CheckOutcome {
    /// A passing outcome for `name`.
    pub fn pass(name: &'static str) -> Self {
        CheckOutcome {
            name,
            passed: true,
            detail: None,
        }
    }

    /// A failing outcome for `name`, carrying the first offense in words.
    pub fn fail(name: &'static str, detail: String) -> Self {
        CheckOutcome {
            name,
            passed: false,
            detail: Some(detail),
        }
    }
}

/// The auditor's full verdict on one release.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// The pipeline stage whose registered invariants were run.
    pub stage: Stage,
    /// The diversity parameter the release claims.
    pub l: usize,
    /// QIT rows audited.
    pub n: usize,
    /// Distinct QI-groups seen in the QIT.
    pub groups: usize,
    /// Achieved re-construction error (Equation 13), derived from the ST.
    pub rce: f64,
    /// Theorem 2's floor `n(1 − 1/l)`.
    pub rce_bound: f64,
    /// The highest adversary posterior over all tuples
    /// ([`PartsCtx::worst_posterior`]); Corollary 1 bounds it by `1/l`.
    pub worst_posterior: f64,
    /// Per-check outcomes, in execution order.
    pub checks: Vec<CheckOutcome>,
}

impl AuditReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Look up one check by name.
    pub fn check(&self, name: &str) -> Option<&CheckOutcome> {
        self.checks.iter().find(|c| c.name == name)
    }

    /// `(passed, per-check outcomes)` in the shape run manifests carry.
    pub fn summary(&self) -> (bool, Vec<(String, bool)>) {
        (
            self.passed(),
            self.checks
                .iter()
                .map(|c| (c.name.to_string(), c.passed))
                .collect(),
        )
    }

    /// Human-readable multi-line rendering (the `anatomy verify` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "audit: {verdict} ({} rows, {} groups, l = {})",
            self.n, self.groups, self.l
        );
        for c in &self.checks {
            match (&c.passed, &c.detail) {
                (true, _) => {
                    let _ = writeln!(out, "  [PASS] {}", c.name);
                }
                (false, Some(d)) => {
                    let _ = writeln!(out, "  [FAIL] {} — {d}", c.name);
                }
                (false, None) => {
                    let _ = writeln!(out, "  [FAIL] {}", c.name);
                }
            }
        }
        let _ = writeln!(
            out,
            "  rce {:.3} vs Theorem 2 floor {:.3}",
            self.rce, self.rce_bound
        );
        let _ = writeln!(
            out,
            "  worst adversary posterior {:.1}% vs Corollary 1 bound {:.1}%",
            self.worst_posterior * 100.0,
            100.0 / self.l as f64
        );
        out
    }

    /// The first failed check as a typed error, or `None` when clean.
    pub fn into_failure(self) -> Option<AuditFailure> {
        self.checks
            .into_iter()
            .find(|c| !c.passed)
            .map(|c| AuditFailure {
                check: c.name,
                detail: c.detail.unwrap_or_else(|| "invariant violated".into()),
            })
    }
}

/// A failed audit, carrying the first violated check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFailure {
    /// The violated check (one of the `CHECK_*` constants).
    pub check: &'static str,
    /// The first offending group/value, in words.
    pub detail: String,
}

impl fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "release audit failed {}: {}", self.check, self.detail)
    }
}

impl std::error::Error for AuditFailure {}

/// Run every invariant registered for `stage` over the prepared context.
/// `tables` gates the `Release`-variant checks (parts-only audits skip
/// them); `prev` feeds the increment-aware checks.
fn run_registry(
    stage: Stage,
    ctx: &PartsCtx<'_>,
    tables: Option<&AnatomizedTables>,
    prev: Option<&AnatomizedTables>,
) -> Vec<CheckOutcome> {
    let mut checks = Vec::new();
    for inv in invariants_for(stage) {
        match inv.check {
            Check::Parts(f) => checks.push(f(ctx)),
            Check::Release(f) => {
                if let Some(t) = tables {
                    checks.push(f(t, ctx.l));
                }
            }
            Check::Increment(f) => checks.push(f(&IncrementCtx {
                parts: ctx,
                next: tables,
                prev,
            })),
        }
    }
    checks
}

fn report(stage: Stage, ctx: &PartsCtx<'_>, checks: Vec<CheckOutcome>) -> AuditReport {
    AuditReport {
        stage,
        l: ctx.l,
        n: ctx.n,
        groups: ctx.groups,
        rce: ctx.rce,
        rce_bound: ctx.rce_bound,
        worst_posterior: ctx.worst_posterior(),
        checks,
    }
}

/// Audit raw release parts: the QIT's group-id column and the ST records,
/// as parsed (not validated) from a release. Runs every parts-level
/// invariant registered for the `anatomize` stage; [`audit_release`] adds
/// the checks that need assembled tables.
///
/// Tolerates arbitrarily corrupt input — sparse or wild group ids,
/// unsorted or duplicated ST records, zero counts — reporting failures
/// instead of panicking.
pub fn audit_parts(group_ids: &[GroupId], st: &[StRecord], l: usize) -> AuditReport {
    audit_parts_for(Stage::Anatomize, group_ids, st, l)
}

/// [`audit_parts`] against the invariants registered for an explicit
/// stage.
pub fn audit_parts_for(
    stage: Stage,
    group_ids: &[GroupId],
    st: &[StRecord],
    l: usize,
) -> AuditReport {
    let ctx = PartsCtx::new(group_ids, st, l);
    let checks = run_registry(stage, &ctx, None, None);
    report(stage, &ctx, checks)
}

/// Audit an assembled release against every invariant registered for the
/// `anatomize` stage — the parts-level checks of [`audit_parts`] plus
/// `estimator_consistency`, which drives the query layer's anatomy
/// estimator over every sensitive value and demands exact agreement with
/// the ST totals.
pub fn audit_release(tables: &AnatomizedTables, l: usize) -> AuditReport {
    audit_release_for(Stage::Anatomize, tables, l)
}

/// [`audit_release`] against the invariants registered for an explicit
/// stage.
pub fn audit_release_for(stage: Stage, tables: &AnatomizedTables, l: usize) -> AuditReport {
    let ctx = PartsCtx::new(tables.group_ids(), tables.st_records(), l);
    let checks = run_registry(stage, &ctx, Some(tables), None);
    report(stage, &ctx, checks)
}

/// Audit one step of an incremental publication sequence: `next` is
/// checked against every invariant registered for the `incremental`
/// stage, with `prev` (the previously published snapshot, if any) fed to
/// the increment-aware checks so prefix immutability is verified, not
/// just per-snapshot shape.
pub fn audit_increment(
    prev: Option<&AnatomizedTables>,
    next: &AnatomizedTables,
    l: usize,
) -> AuditReport {
    let ctx = PartsCtx::new(next.group_ids(), next.st_records(), l);
    let checks = run_registry(Stage::Incremental, &ctx, Some(next), prev);
    report(Stage::Incremental, &ctx, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_core::{anatomize, AnatomizeConfig};
    use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder, Value};

    /// 24 rows, sensitive domain 6, one QI column.
    fn sample_md() -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("Disease", 6),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..24u32 {
            b.push_row(&[20 + i, i % 6]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 1).unwrap()
    }

    fn sample_release(l: usize) -> AnatomizedTables {
        let md = sample_md();
        let p = anatomize(&md, &AnatomizeConfig::new(l)).unwrap();
        AnatomizedTables::publish(&md, &p, l).unwrap()
    }

    #[test]
    fn clean_release_passes_all_six_checks() {
        let t = sample_release(3);
        let report = audit_release(&t, 3);
        assert_eq!(report.stage, Stage::Anatomize);
        assert_eq!(report.checks.len(), CHECK_NAMES.len());
        for (c, name) in report.checks.iter().zip(CHECK_NAMES) {
            assert_eq!(c.name, name);
            assert!(c.passed, "{name} failed: {:?}", c.detail);
        }
        assert!(report.passed());
        assert!(report.clone().into_failure().is_none());
        assert_eq!(report.n, 24);
        assert_eq!(report.groups, 8);
        assert!(report.rce + 1e-9 >= report.rce_bound);
        let rendered = report.render();
        assert!(rendered.starts_with("audit: PASS"));
        for name in CHECK_NAMES {
            assert!(rendered.contains(name), "render misses {name}");
        }
        let (passed, checks) = report.summary();
        assert!(passed);
        assert_eq!(checks.len(), 6);
    }

    #[test]
    fn check_names_match_the_registry_for_the_anatomize_stage() {
        assert_eq!(names_for(Stage::Anatomize), CHECK_NAMES.to_vec());
        // Incremental adds the seventh.
        assert_eq!(names_for(Stage::Incremental).len(), CHECK_NAMES.len() + 1);
    }

    #[test]
    fn undercounted_st_row_is_caught_by_structure() {
        let t = sample_release(3);
        let gids = t.group_ids().to_vec();
        let mut st = t.st_records().to_vec();
        // An undercount in transit: some row's count drops by one (to 0
        // here, since Anatomize emits all-1 counts — the mass mismatch is
        // what the check keys on either way).
        st[0].count = 0;
        let report = audit_parts(&gids, &st, 3);
        let c = report.check(CHECK_QIT_ST_STRUCTURE).unwrap();
        assert!(!c.passed);
        assert!(c.detail.as_ref().unwrap().contains("count 0"));
        // And the failure names the check.
        let failure = report.into_failure().unwrap();
        assert_eq!(failure.check, CHECK_QIT_ST_STRUCTURE);
    }

    #[test]
    fn overcounted_st_row_is_caught_by_structure() {
        let t = sample_release(3);
        let gids = t.group_ids().to_vec();
        let mut st = t.st_records().to_vec();
        st[0].count = 2;
        let report = audit_parts(&gids, &st, 3);
        let c = report.check(CHECK_QIT_ST_STRUCTURE).unwrap();
        assert!(!c.passed, "mass mismatch should fail structure");
        assert!(c.detail.as_ref().unwrap().contains("sum to"));
    }

    #[test]
    fn swapped_group_id_is_caught_by_structure() {
        let t = sample_release(3);
        let mut gids = t.group_ids().to_vec();
        let st = t.st_records().to_vec();
        // Reassign one tuple from its group to another: both groups' ST
        // masses now disagree with their QIT populations.
        let from = gids[0];
        let to = (from + 1) % t.group_count() as u32;
        gids[0] = to;
        let report = audit_parts(&gids, &st, 3);
        let c = report.check(CHECK_QIT_ST_STRUCTURE).unwrap();
        assert!(!c.passed);
        assert!(c.detail.as_ref().unwrap().contains("sum to"));
    }

    #[test]
    fn duplicated_sensitive_value_is_caught_by_l_diversity() {
        let t = sample_release(3);
        let gids = t.group_ids().to_vec();
        let mut st = t.st_records().to_vec();
        // Merge group 0's first two (count-1) records into one record of
        // count 2: the ST stays sorted and its mass still matches the QIT,
        // so structure passes — but the group now repeats a value.
        assert_eq!(st[0].group, 0);
        assert_eq!(st[1].group, 0);
        st[0].count = 2;
        st.remove(1);
        let report = audit_parts(&gids, &st, 3);
        assert!(report.check(CHECK_QIT_ST_STRUCTURE).unwrap().passed);
        let c = report.check(CHECK_L_DIVERSITY).unwrap();
        assert!(!c.passed);
        assert!(c.detail.as_ref().unwrap().contains("not 3-diverse"));
        // Residue placement (all counts 1) independently flags it.
        assert!(!report.check(CHECK_RESIDUE_PLACEMENT).unwrap().passed);
    }

    #[test]
    fn oversized_and_missing_groups_are_caught_by_group_sizes() {
        // 9 tuples, l = 3, but packed into 2 groups instead of ⌊9/3⌋ = 3.
        let gids = vec![0, 0, 0, 0, 0, 1, 1, 1, 1];
        let st: Vec<StRecord> = [
            (0, 0, 1),
            (0, 1, 1),
            (0, 2, 1),
            (0, 3, 1),
            (0, 4, 1),
            (1, 0, 1),
            (1, 1, 1),
            (1, 2, 1),
            (1, 3, 1),
        ]
        .iter()
        .map(|&(g, v, c)| StRecord {
            group: g,
            value: Value(v),
            count: c,
        })
        .collect();
        let report = audit_parts(&gids, &st, 3);
        assert!(report.check(CHECK_QIT_ST_STRUCTURE).unwrap().passed);
        assert!(report.check(CHECK_L_DIVERSITY).unwrap().passed);
        let c = report.check(CHECK_GROUP_SIZES).unwrap();
        assert!(!c.passed);
        assert!(c.detail.as_ref().unwrap().contains("⌊n/l⌋"));
    }

    #[test]
    fn too_many_residues_fail_residue_placement() {
        // 8 tuples in 2 groups of 4 with l = 4 claimed... n/l = 2 groups
        // expected for n = 8, l = 4 would be 2 — use a shape where sizes
        // pass but residues exceed l − 1: n = 10, l = 3 → 3 groups, one
        // residue allowed is 1 (10 mod 3). Build 3 groups sized 3, 3, 4 —
        // legal. Instead claim l = 2: ⌊10/2⌋ = 5 groups expected, so
        // group_sizes fails; residue check must ALSO fail on its own
        // grounds when sizes are inflated: 3 groups sized 4, 3, 3 with
        // l = 2 carries (4−2)+(3−2)+(3−2) = 4 residues > 1.
        let gids = vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2];
        let st: Vec<StRecord> = [
            (0u32, 0u32),
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
            (2, 3),
        ]
        .iter()
        .map(|&(g, v)| StRecord {
            group: g,
            value: Value(v),
            count: 1,
        })
        .collect();
        let report = audit_parts(&gids, &st, 2);
        let c = report.check(CHECK_RESIDUE_PLACEMENT).unwrap();
        assert!(!c.passed);
        assert!(c.detail.as_ref().unwrap().contains("residue"));
    }

    #[test]
    fn rce_matches_core_and_respects_theorem_2() {
        let t = sample_release(4);
        let report = audit_release(&t, 4);
        let expected = anatomy_core::rce_of_anatomized(&t);
        assert!(
            (report.rce - expected).abs() < 1e-9,
            "audit rce {} vs core {}",
            report.rce,
            expected
        );
        assert!(report.check(CHECK_RCE_BOUND).unwrap().passed);
    }

    #[test]
    fn rce_bound_is_exact_when_l_divides_n() {
        // n = 10 000, l = 10: a thousand groups of ten distinct values sit
        // exactly on Theorem 2's floor, so rounding must not put the
        // achieved RCE below it.
        let (n, l) = (10_000u32, 10u32);
        let gids: Vec<GroupId> = (0..n).map(|i| i / l).collect();
        let st: Vec<StRecord> = (0..n)
            .map(|i| StRecord {
                group: i / l,
                value: Value(i % l),
                count: 1,
            })
            .collect();
        let report = audit_parts(&gids, &st, l as usize);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.rce, f64::from(n - n / l));
    }

    #[test]
    fn worst_posterior_is_the_largest_group_share() {
        // Group 1 holds value 0 twice among its three tuples: 2/3.
        let gids = vec![0, 0, 0, 1, 1, 1];
        let st: Vec<StRecord> = [
            (0u32, 0u32, 1u32),
            (0, 1, 1),
            (0, 2, 1),
            (1, 0, 2),
            (1, 1, 1),
        ]
        .iter()
        .map(|&(g, v, c)| StRecord {
            group: g,
            value: Value(v),
            count: c,
        })
        .collect();
        let report = audit_parts(&gids, &st, 3);
        assert!((report.worst_posterior - 2.0 / 3.0).abs() < 1e-12);
        assert!(report.render().contains("worst adversary posterior 66.7%"));
        let clean = audit_release(&sample_release(3), 3);
        assert!((clean.worst_posterior - 1.0 / 3.0).abs() < 1e-12);
    }

    /// ST records from `(group, value, count)` triples.
    fn st_rows(rows: &[(GroupId, u32, u32)]) -> Vec<StRecord> {
        rows.iter()
            .map(|&(group, v, count)| StRecord {
                group,
                value: Value(v),
                count,
            })
            .collect()
    }

    /// Corrupt parts whose group ids reach `n` or beyond: a QIT group 9
    /// over 7 rows (ST group `u32::MAX` rides along), a dense QIT whose ST
    /// names group `u32::MAX`, and a lone group 3 over 3 rows.
    fn wild_id_parts() -> [(Vec<GroupId>, Vec<StRecord>); 3] {
        let past_n = (
            vec![0, 0, 0, 1, 1, 1, 9],
            st_rows(&[
                (0, 0, 1),
                (0, 1, 1),
                (0, 2, 1),
                (1, 0, 1),
                (1, 1, 1),
                (1, 2, 1),
                (9, 4, 1),
                (u32::MAX, 3, 2),
            ]),
        );
        let st_only = (
            vec![0, 0, 1, 1],
            st_rows(&[(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 2, 1), (u32::MAX, 0, 1)]),
        );
        let lone = (vec![3, 3, 3], st_rows(&[(3, 0, 1), (3, 1, 1), (3, 2, 1)]));
        [past_n, st_only, lone]
    }

    #[test]
    fn wild_group_ids_keep_their_verdicts() {
        // Per input: the structure, sizes and diversity details at l = 2,
        // then groups, rce and worst posterior.
        let expected = [
            (
                Some("QIT group ids are not dense 0..3 (span 0..=9)"),
                Some("group 9 has 1 tuples, outside [2, 3]"),
                Some("group 9 is not 2-diverse: a value occurs 1 times in 1 tuples"),
                3,
                4.0,
                1.0,
            ),
            (
                Some("ST references group 4294967295 absent from the QIT"),
                None,
                Some("group 4294967295 is not 2-diverse: a value occurs 1 times in 1 tuples"),
                2,
                2.0,
                0.5,
            ),
            (
                Some("QIT group ids are not dense 0..1 (span 3..=3)"),
                None,
                None,
                1,
                2.0,
                1.0 / 3.0,
            ),
        ];
        for ((gids, st), (structure, sizes, diversity, groups, rce, worst)) in
            wild_id_parts().into_iter().zip(expected)
        {
            let report = audit_parts(&gids, &st, 2);
            let detail = |name| report.check(name).unwrap().detail.as_deref();
            assert_eq!(detail(CHECK_QIT_ST_STRUCTURE), structure, "{gids:?}");
            assert_eq!(detail(CHECK_GROUP_SIZES), sizes, "{gids:?}");
            assert_eq!(detail(CHECK_L_DIVERSITY), diversity, "{gids:?}");
            assert_eq!(report.groups, groups);
            assert_eq!(report.rce, rce);
            assert_eq!(report.worst_posterior, worst);
        }
    }

    #[test]
    fn corrupt_garbage_never_panics() {
        // Wild group ids, unsorted ST, zero counts, ST-only groups: every
        // combination must produce a report, not a panic — under every
        // registered stage.
        let cases: Vec<(Vec<GroupId>, Vec<StRecord>)> = vec![
            (vec![], vec![]),
            (vec![u32::MAX, 0, 7], vec![]),
            (
                vec![0, 0],
                vec![
                    StRecord {
                        group: 5,
                        value: Value(1),
                        count: 0,
                    },
                    StRecord {
                        group: 5,
                        value: Value(1),
                        count: 9,
                    },
                ],
            ),
            (
                vec![3, 3, 3],
                vec![StRecord {
                    group: 0,
                    value: Value(0),
                    count: 3,
                }],
            ),
        ];
        for (gids, st) in cases.into_iter().chain(wild_id_parts()) {
            for l in [0usize, 1, 2, 5] {
                for stage in Stage::ALL {
                    let report = audit_parts_for(stage, &gids, &st, l);
                    assert!(!report.render().is_empty());
                    if !(gids.is_empty() && st.is_empty()) {
                        assert!(
                            !report.passed(),
                            "garbage audited clean: {gids:?} {st:?} l={l} stage={stage}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_release_with_valid_l_is_vacuously_structured() {
        let report = audit_parts(&[], &[], 2);
        assert!(report.check(CHECK_QIT_ST_STRUCTURE).unwrap().passed);
        assert!(report.check(CHECK_RCE_BOUND).unwrap().passed);
        assert_eq!(report.n, 0);
    }

    #[test]
    fn failure_display_names_check_and_detail() {
        let f = AuditFailure {
            check: CHECK_L_DIVERSITY,
            detail: "group 3 is not 4-diverse: a value occurs 2 times in 4 tuples".into(),
        };
        let s = f.to_string();
        assert!(s.contains("l_diversity"));
        assert!(s.contains("group 3"));
        // It is a std error.
        let _: &dyn std::error::Error = &f;
    }

    #[test]
    fn anatomize_releases_fail_the_incremental_shape_check() {
        // In-memory anatomize scatters group ids (bucket draining order),
        // so a batch release is NOT a valid incremental publication — the
        // seventh invariant must say so while the six core checks pass.
        let t = sample_release(3);
        let report = audit_release_for(Stage::Incremental, &t, 3);
        assert_eq!(report.checks.len(), 7);
        for name in CHECK_NAMES {
            assert!(report.check(name).unwrap().passed, "{name} should pass");
        }
        let c = report.check(CHECK_INCREMENTAL_GROUP_IMMUTABILITY).unwrap();
        // Emission order would require ids 0,0,0,1,1,1,…; the batch
        // engine interleaves groups, which this check rejects.
        assert!(
            !c.passed,
            "batch release unexpectedly append-ordered: {:?}",
            t.group_ids()
        );
    }

    #[test]
    fn audit_increment_accepts_appended_groups_and_rejects_mutation() {
        // Build an emission-ordered publication by hand: 2 groups of 3.
        let gids = vec![0, 0, 0, 1, 1, 1];
        let st: Vec<StRecord> = [(0u32, 0u32), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]
            .iter()
            .map(|&(g, v)| StRecord {
                group: g,
                value: Value(v),
                count: 1,
            })
            .collect();
        let schema = Schema::new(vec![Attribute::numerical("Age", 100)]).unwrap();
        let mk = |gids: &[u32], st: &[StRecord]| {
            let mut b = TableBuilder::new(schema.clone());
            for i in 0..gids.len() as u32 {
                b.push_row(&[i]).unwrap();
            }
            AnatomizedTables::from_parts(b.finish(), gids.to_vec(), st.to_vec(), 3).unwrap()
        };
        let prev = mk(&gids[..3], &st[..3]);
        let next = mk(&gids, &st);

        let clean = audit_increment(Some(&prev), &next, 3);
        assert!(clean.passed(), "{}", clean.render());
        assert_eq!(clean.stage, Stage::Incremental);

        // Same shapes, but the already-published row 0 changes group.
        let mut mutated_gids = gids.clone();
        mutated_gids[0] = 1;
        mutated_gids[3] = 0; // keep masses consistent so core checks pass
        let mut mutated_st = st.clone();
        mutated_st.swap(0, 3); // keep (group,value) sort order plausible
        mutated_st.sort_by_key(|r| (r.group, r.value));
        let bad = mk(&mutated_gids, &mutated_st);
        let report = audit_increment(Some(&prev), &bad, 3);
        let c = report.check(CHECK_INCREMENTAL_GROUP_IMMUTABILITY).unwrap();
        assert!(!c.passed, "mutated prefix must fail immutability");
    }
}
