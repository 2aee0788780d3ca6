//! The six core invariants, migrated verbatim from the original
//! hand-rolled audit into registry entries. Detail strings are
//! bit-identical to the pre-registry auditor — the hand-corruption
//! differential tests pin them.

use crate::registry::{Check, Invariant, PartsCtx, Severity, Stage};
use crate::{
    CheckOutcome, CHECK_ESTIMATOR_CONSISTENCY, CHECK_GROUP_SIZES, CHECK_L_DIVERSITY,
    CHECK_QIT_ST_STRUCTURE, CHECK_RCE_BOUND, CHECK_RESIDUE_PLACEMENT,
};
use anatomy_core::AnatomizedTables;
use anatomy_query::estimate_anatomy_per_value;

/// Every stage must preserve the six core invariants.
const ALL_STAGES: &[Stage] = &Stage::ALL;

/// Definitions 1 & 3: QIT group ids are dense, the ST is sorted by
/// `(group, value)` without duplicates, counts are positive, and each
/// group's ST counts sum to its QIT population.
pub static QIT_ST_STRUCTURE: Invariant = Invariant {
    name: CHECK_QIT_ST_STRUCTURE,
    citation: "Definitions 1 & 3",
    severity: Severity::Critical,
    stages: ALL_STAGES,
    check: Check::Parts(check_structure),
};

fn check_structure(ctx: &PartsCtx<'_>) -> CheckOutcome {
    'structure: {
        if let Some(d) = &ctx.order_defect {
            break 'structure CheckOutcome::fail(CHECK_QIT_ST_STRUCTURE, d.clone());
        }
        if let Some(d) = &ctx.zero_count {
            break 'structure CheckOutcome::fail(CHECK_QIT_ST_STRUCTURE, d.clone());
        }
        // Dense ids: with `groups` distinct ids, the largest must be
        // `groups − 1` and the smallest 0.
        if let (Some((lo, _)), Some((hi, _))) = (
            ctx.table.qit_groups().next(),
            ctx.table.qit_groups().next_back(),
        ) {
            if lo != 0 || hi as usize != ctx.groups - 1 {
                break 'structure CheckOutcome::fail(
                    CHECK_QIT_ST_STRUCTURE,
                    format!(
                        "QIT group ids are not dense 0..{} (span {lo}..={hi})",
                        ctx.groups
                    ),
                );
            }
        }
        for (g, t) in ctx.table.qit_groups() {
            let size = t.qit_size;
            if !t.in_st() {
                break 'structure CheckOutcome::fail(
                    CHECK_QIT_ST_STRUCTURE,
                    format!("group {g} has {size} QIT tuples but no ST records"),
                );
            }
            if t.st_mass != size {
                break 'structure CheckOutcome::fail(
                    CHECK_QIT_ST_STRUCTURE,
                    format!(
                        "group {g}: ST counts sum to {} but QIT has {size} tuples",
                        t.st_mass
                    ),
                );
            }
        }
        if let Some((g, _)) = ctx.table.st_groups().find(|(_, t)| !t.in_qit()) {
            break 'structure CheckOutcome::fail(
                CHECK_QIT_ST_STRUCTURE,
                format!("ST references group {g} absent from the QIT"),
            );
        }
        CheckOutcome::pass(CHECK_QIT_ST_STRUCTURE)
    }
}

/// Definition 2: in every group the most frequent sensitive value has
/// frequency at most `1/l`. Judged from the ST's own histograms so the
/// verdict stays meaningful even when the QIT disagrees with the ST.
pub static L_DIVERSITY: Invariant = Invariant {
    name: CHECK_L_DIVERSITY,
    citation: "Definition 2",
    severity: Severity::Critical,
    stages: ALL_STAGES,
    check: Check::Parts(check_diversity),
};

fn check_diversity(ctx: &PartsCtx<'_>) -> CheckOutcome {
    let l = ctx.l;
    if l < 2 {
        return CheckOutcome::fail(
            CHECK_L_DIVERSITY,
            format!("l = {l}, but Definition 2 needs l >= 2"),
        );
    }
    match ctx
        .table
        .st_groups()
        .find(|(_, t)| u64::from(t.st_max) * (l as u64) > t.st_mass)
    {
        Some((g, t)) => CheckOutcome::fail(
            CHECK_L_DIVERSITY,
            format!(
                "group {g} is not {l}-diverse: a value occurs {} times in {} tuples",
                t.st_max, t.st_mass
            ),
        ),
        None => CheckOutcome::pass(CHECK_L_DIVERSITY),
    }
}

/// Properties 1 & 3 of `Anatomize`: exactly `⌊n/l⌋` groups, each
/// holding between `l` and `2l − 1` tuples.
pub static GROUP_SIZES: Invariant = Invariant {
    name: CHECK_GROUP_SIZES,
    citation: "Properties 1 & 3",
    severity: Severity::Critical,
    stages: ALL_STAGES,
    check: Check::Parts(check_sizes),
};

fn check_sizes(ctx: &PartsCtx<'_>) -> CheckOutcome {
    let (l, n, groups) = (ctx.l, ctx.n, ctx.groups);
    'sizes: {
        if l < 2 {
            break 'sizes CheckOutcome::fail(
                CHECK_GROUP_SIZES,
                format!("l = {l}, but Anatomize needs l >= 2"),
            );
        }
        let expected = n / l;
        if groups != expected {
            break 'sizes CheckOutcome::fail(
                CHECK_GROUP_SIZES,
                format!(
                    "{groups} groups for n = {n}, l = {l}; Property 1 demands ⌊n/l⌋ = {expected}"
                ),
            );
        }
        if let Some((g, t)) = ctx
            .table
            .qit_groups()
            .find(|(_, t)| t.qit_size < l as u64 || t.qit_size > (2 * l - 1) as u64)
        {
            break 'sizes CheckOutcome::fail(
                CHECK_GROUP_SIZES,
                format!(
                    "group {g} has {} tuples, outside [{l}, {}]",
                    t.qit_size,
                    2 * l - 1
                ),
            );
        }
        CheckOutcome::pass(CHECK_GROUP_SIZES)
    }
}

/// Properties 2 & 3: every ST count is 1 (a residue only joins a group
/// *not* containing its value, so values stay distinct within each
/// group) and at most `l − 1` residues exist.
pub static RESIDUE_PLACEMENT: Invariant = Invariant {
    name: CHECK_RESIDUE_PLACEMENT,
    citation: "Properties 2 & 3",
    severity: Severity::Critical,
    stages: ALL_STAGES,
    check: Check::Parts(check_residues),
};

fn check_residues(ctx: &PartsCtx<'_>) -> CheckOutcome {
    let l = ctx.l;
    'residue: {
        if let Some((i, r)) = ctx.st.iter().enumerate().find(|(_, r)| r.count != 1) {
            break 'residue CheckOutcome::fail(
                CHECK_RESIDUE_PLACEMENT,
                format!(
                    "ST row {i} (group {}, value {}) has count {}; Anatomize output keeps \
                     sensitive values distinct within each group, so every count is 1",
                    r.group, r.value.0, r.count
                ),
            );
        }
        if l >= 2 {
            let residues: u64 = ctx
                .table
                .qit_groups()
                .map(|(_, t)| t.qit_size.saturating_sub(l as u64))
                .sum();
            if residues > (l - 1) as u64 {
                break 'residue CheckOutcome::fail(
                    CHECK_RESIDUE_PLACEMENT,
                    format!(
                        "{residues} residue tuples, but Property 1 allows at most {}",
                        l - 1
                    ),
                );
            }
        }
        CheckOutcome::pass(CHECK_RESIDUE_PLACEMENT)
    }
}

/// Theorem 2: the achieved re-construction error is at least
/// `n(1 − 1/l)`.
pub static RCE_BOUND: Invariant = Invariant {
    name: CHECK_RCE_BOUND,
    citation: "Theorem 2",
    severity: Severity::Critical,
    stages: ALL_STAGES,
    check: Check::Parts(check_rce_bound),
};

fn check_rce_bound(ctx: &PartsCtx<'_>) -> CheckOutcome {
    // l·RCE ≥ n(l − 1) is the floor without the division by l. At the
    // floor both sides are integers (see `PartsCtx::new`), so the
    // comparison is exact.
    let l = ctx.l as f64;
    if ctx.l >= 1 && l * ctx.rce >= ctx.n as f64 * (l - 1.0) {
        CheckOutcome::pass(CHECK_RCE_BOUND)
    } else {
        CheckOutcome::fail(
            CHECK_RCE_BOUND,
            format!(
                "achieved RCE {:.6} below Theorem 2's floor {:.6}",
                ctx.rce, ctx.rce_bound
            ),
        )
    }
}

/// Full releases only: the query layer's aggregate view agrees with the
/// ST — for every sensitive value, the anatomy estimate of
/// `COUNT(*) WHERE As = v` with no QI predicate equals the value's
/// total ST count.
pub static ESTIMATOR_CONSISTENCY: Invariant = Invariant {
    name: CHECK_ESTIMATOR_CONSISTENCY,
    citation: "Section 5 (Equation 5 at p_j = 1)",
    severity: Severity::Critical,
    stages: ALL_STAGES,
    check: Check::Release(check_estimator),
};

fn check_estimator(tables: &AnatomizedTables, _l: usize) -> CheckOutcome {
    let totals = tables.fold_per_value(0u64, |total, r| *total += u64::from(r.count));
    // With no QI predicate every group's fraction p_j is exactly 1, so
    // each value's estimate must equal Σ_j c_j(v) with no estimation
    // error. One pass answers every value, bit-identically to the scalar
    // estimator with that value's point predicate.
    let estimates = estimate_anatomy_per_value(tables, &[]);
    for (&(v, total), &(_, est)) in totals.iter().zip(&estimates) {
        if (est - total as f64).abs() > 1e-6 {
            return CheckOutcome::fail(
                CHECK_ESTIMATOR_CONSISTENCY,
                format!(
                    "value {}: estimator says {est}, ST counts sum to {total}",
                    v.code()
                ),
            );
        }
    }
    CheckOutcome::pass(CHECK_ESTIMATOR_CONSISTENCY)
}
