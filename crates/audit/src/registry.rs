//! The declarative invariant registry.
//!
//! Every guarantee the paper proves about an anatomized release is
//! registered here exactly once, as an [`Invariant`]: a stable name, the
//! paper citation it encodes, a severity, the set of pipeline [`Stage`]s
//! that must preserve it, and the check function itself. Consumers — the
//! [`crate::audit_parts_for`]/[`crate::audit_release_for`] entry points,
//! the `anatomy verify --list-checks` listing, the manifest `audit`
//! block validated by `check_manifest`, the proptest oracles and the
//! fault-injection matrix — all *enumerate* [`REGISTRY`] rather than
//! keeping private copies of the check list, so a new invariant lands in
//! every consumer by registration alone (see
//! [`crate::checks_incremental`] for the worked example).

use crate::CheckOutcome;
use anatomy_core::{AnatomizedTables, GroupId, StRecord};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A kind of publication, named by the pipeline that produces it. Each
/// invariant declares which stages must preserve it; auditors ask for
/// "all invariants registered for stage X". A stage exists only where
/// its check set differs from every other stage's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A batch release from any `Anatomize` engine (in-memory, external,
    /// or sharded), including one the resident server loads from disk.
    Anatomize,
    /// The streaming `IncrementalPublisher` (append-only publications).
    Incremental,
}

impl Stage {
    /// Every stage, in registry-column order.
    pub const ALL: [Stage; 2] = [Stage::Anatomize, Stage::Incremental];

    /// The stable string name (used in manifests and `--stage` filters).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Anatomize => "anatomize",
            Stage::Incremental => "incremental",
        }
    }

    /// Parse a stable stage name back to the stage.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|stage| stage.name() == s)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a violated invariant is treated. Every current invariant is
/// critical — a failure fails the audit and aborts an audited publish.
/// Advisory exists for future registrations that should be reported in
/// the manifest without gating the release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A violation fails the audit.
    Critical,
    /// A violation is reported but does not gate the release.
    Advisory,
}

impl Severity {
    /// The stable string name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Critical => "critical",
            Severity::Advisory => "advisory",
        }
    }
}

/// Everything the check functions over raw release parts share: the
/// parsed `(group_ids, ST, l)` triple plus the derived histograms and
/// the achieved re-construction error. Computed once per audit, handed
/// to every registered check.
pub struct PartsCtx<'a> {
    /// The QIT's group-id column, as parsed (not validated).
    pub group_ids: &'a [GroupId],
    /// The ST records, as parsed (not validated).
    pub st: &'a [StRecord],
    /// The diversity parameter the release claims.
    pub l: usize,
    /// QIT rows audited.
    pub n: usize,
    /// Distinct QI-groups seen in the QIT.
    pub groups: usize,
    /// Group populations as the QIT sees them.
    pub qit_sizes: BTreeMap<GroupId, u64>,
    /// Per-group total ST mass.
    pub st_mass: BTreeMap<GroupId, u64>,
    /// Per-group maximum ST count.
    pub st_max: BTreeMap<GroupId, u32>,
    /// First ST ordering/duplication defect, in words.
    pub order_defect: Option<String>,
    /// First zero-count ST row, in words.
    pub zero_count: Option<String>,
    /// Achieved re-construction error (Equation 13), derived from the ST.
    pub rce: f64,
    /// Theorem 2's floor `n(1 − 1/l)`.
    pub rce_bound: f64,
}

impl<'a> PartsCtx<'a> {
    /// Derive the shared state from raw parts. Tolerates arbitrarily
    /// corrupt input — sparse or wild group ids, unsorted or duplicated
    /// ST records, zero counts — so the checks report instead of panic.
    pub fn new(group_ids: &'a [GroupId], st: &'a [StRecord], l: usize) -> Self {
        let n = group_ids.len();

        // Group populations as the QIT sees them. A corrupt release may
        // use arbitrary ids, so count into a map rather than a dense
        // vector.
        let mut qit_sizes: BTreeMap<GroupId, u64> = BTreeMap::new();
        for &g in group_ids {
            *qit_sizes.entry(g).or_insert(0) += 1;
        }
        let groups = qit_sizes.len();

        // Group histograms as the ST sees them (mass and max count),
        // plus the ST's own ordering defects.
        let mut st_mass: BTreeMap<GroupId, u64> = BTreeMap::new();
        let mut st_max: BTreeMap<GroupId, u32> = BTreeMap::new();
        let mut order_defect: Option<String> = None;
        let mut zero_count: Option<String> = None;
        for (i, r) in st.iter().enumerate() {
            if r.count == 0 && zero_count.is_none() {
                zero_count = Some(format!(
                    "ST row {i} (group {}, value {}) has count 0",
                    r.group, r.value.0
                ));
            }
            if i > 0 && order_defect.is_none() {
                let p = &st[i - 1];
                if (p.group, p.value) >= (r.group, r.value) {
                    order_defect = Some(format!(
                        "ST rows {} and {i} out of (group, value) order or duplicated \
                         (group {}, value {})",
                        i - 1,
                        r.group,
                        r.value.0
                    ));
                }
            }
            *st_mass.entry(r.group).or_insert(0) += r.count as u64;
            let m = st_max.entry(r.group).or_insert(0);
            *m = (*m).max(r.count);
        }

        // Achieved RCE from the ST histograms against QIT group
        // populations (Equations 12–13): each of the c(v) tuples
        // carrying v in a group of size s errs by
        // (1 − c(v)/s)² + Σ_{u≠v} (c(u)/s)², which sums over the group
        // to m − (q/s)(2 − m/s) with ST mass m = Σc and q = Σc². When m
        // equals s the term is s − q/s. An l-diverse group meets its share
        // s(1 − 1/l) of Theorem 2's floor only when every value in it
        // occurs s/l times, making q/s = s/l an integer, so a release on
        // the floor sums integers only and `rce_bound` needs no tolerance.
        let mut rce = 0.0f64;
        for (&g, &size) in &qit_sizes {
            let q: u128 = st
                .iter()
                .filter(|r| r.group == g)
                .map(|r| u128::from(r.count).pow(2))
                .sum();
            let s = size as f64;
            let m = st_mass.get(&g).copied().unwrap_or(0) as f64;
            rce += m - q as f64 / s * (2.0 - m / s);
        }
        let rce_bound = if l >= 1 {
            n as f64 * (1.0 - 1.0 / l as f64)
        } else {
            f64::INFINITY
        };

        PartsCtx {
            group_ids,
            st,
            l,
            n,
            groups,
            qit_sizes,
            st_mass,
            st_max,
            order_defect,
            zero_count,
            rce,
            rce_bound,
        }
    }

    /// The highest probability an adversary who knows a tuple's QI
    /// values can give its sensitive value: a group's largest ST count
    /// over its QIT population, maximised over groups. Corollary 1 caps
    /// it at `1/l` for an l-diverse release.
    pub fn worst_posterior(&self) -> f64 {
        self.st_max
            .iter()
            .filter_map(|(g, &max)| Some(f64::from(max) / *self.qit_sizes.get(g)? as f64))
            .fold(0.0, f64::max)
    }
}

/// What an increment-aware check sees: the shared parts context for the
/// *current* publication, the assembled tables when available, and the
/// previously published snapshot when auditing a publication sequence.
pub struct IncrementCtx<'a> {
    /// Shared context for the publication under audit.
    pub parts: &'a PartsCtx<'a>,
    /// The assembled current publication, when the auditor has one.
    pub next: Option<&'a AnatomizedTables>,
    /// The previous snapshot in the sequence, when auditing an
    /// increment ([`crate::audit_increment`]); `None` for single-shot
    /// audits, where only the shape half of the check runs.
    pub prev: Option<&'a AnatomizedTables>,
}

/// A registered check function. The variant decides what input the
/// check needs, and therefore which audit entry points can run it:
/// `Parts` runs everywhere, `Release` only when assembled tables exist,
/// `Increment` runs everywhere but sees the previous snapshot only via
/// [`crate::audit_increment`].
pub enum Check {
    /// A check over raw `(group_ids, ST, l)` parts.
    Parts(fn(&PartsCtx<'_>) -> CheckOutcome),
    /// A check that needs the assembled [`AnatomizedTables`] (skipped by
    /// parts-only audits).
    Release(fn(&AnatomizedTables, usize) -> CheckOutcome),
    /// A check over a publication increment.
    Increment(fn(&IncrementCtx<'_>) -> CheckOutcome),
}

/// One registered invariant: the unit of the declarative registry.
pub struct Invariant {
    /// Stable check name (the `CHECK_*` constants).
    pub name: &'static str,
    /// The paper result this check encodes.
    pub citation: &'static str,
    /// How a violation is treated.
    pub severity: Severity,
    /// The pipeline stages that must preserve this invariant.
    pub stages: &'static [Stage],
    /// The check itself.
    pub check: Check,
}

/// The registry: every invariant the auditor knows, in execution order.
pub static REGISTRY: &[&Invariant] = &[
    &crate::checks::QIT_ST_STRUCTURE,
    &crate::checks::L_DIVERSITY,
    &crate::checks::GROUP_SIZES,
    &crate::checks::RESIDUE_PLACEMENT,
    &crate::checks::RCE_BOUND,
    &crate::checks::ESTIMATOR_CONSISTENCY,
    &crate::checks_incremental::INCREMENTAL_GROUP_IMMUTABILITY,
];

/// All invariants registered for `stage`, in execution order.
pub fn invariants_for(stage: Stage) -> impl Iterator<Item = &'static Invariant> {
    REGISTRY
        .iter()
        .copied()
        .filter(move |i| i.stages.contains(&stage))
}

/// The check names a full release audit at `stage` produces, in
/// execution order — the name set manifests and CI compare against.
pub fn names_for(stage: Stage) -> Vec<&'static str> {
    invariants_for(stage).map(|i| i.name).collect()
}

/// Look up one invariant by its stable name.
pub fn find_invariant(name: &str) -> Option<&'static Invariant> {
    REGISTRY.iter().copied().find(|i| i.name == name)
}

/// Render the registry as the `anatomy verify --list-checks` listing:
/// one row per invariant (optionally filtered to one stage) with name,
/// severity, citation, and stage set, plus a count header.
pub fn render_registry(stage: Option<Stage>) -> String {
    let rows: Vec<&Invariant> = match stage {
        Some(s) => invariants_for(s).collect(),
        None => REGISTRY.to_vec(),
    };
    let mut out = String::new();
    let scope = match stage {
        Some(s) => format!("stage {s}"),
        None => "all stages".to_string(),
    };
    let _ = writeln!(out, "{} registered invariants ({scope}):", rows.len());
    let width = rows.iter().map(|i| i.name.len()).max().unwrap_or(0);
    for inv in rows {
        let stages: Vec<&str> = inv.stages.iter().map(|s| s.name()).collect();
        let _ = writeln!(
            out,
            "  {:width$}  {:8}  {}  [{}]",
            inv.name,
            inv.severity.name(),
            inv.citation,
            stages.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse(stage.name()), Some(stage));
            assert_eq!(stage.to_string(), stage.name());
        }
        assert_eq!(Stage::parse("nonsense"), None);
    }

    #[test]
    fn registry_names_are_unique_and_stages_nonempty() {
        let mut seen = std::collections::BTreeSet::new();
        for inv in REGISTRY {
            assert!(seen.insert(inv.name), "duplicate invariant {}", inv.name);
            assert!(!inv.stages.is_empty(), "{} declares no stages", inv.name);
            assert!(!inv.citation.is_empty(), "{} has no citation", inv.name);
            assert_eq!(find_invariant(inv.name).unwrap().name, inv.name);
        }
    }

    #[test]
    fn every_stage_has_the_six_core_invariants() {
        for stage in Stage::ALL {
            let names = names_for(stage);
            for core in crate::CHECK_NAMES {
                assert!(names.contains(&core), "{stage} misses {core}");
            }
        }
    }

    #[test]
    fn incremental_stage_alone_carries_the_seventh_invariant() {
        let name = crate::CHECK_INCREMENTAL_GROUP_IMMUTABILITY;
        assert_eq!(names_for(Stage::Incremental).len(), 7);
        assert!(names_for(Stage::Incremental).contains(&name));
        assert!(!names_for(Stage::Anatomize).contains(&name));
    }

    #[test]
    fn render_registry_lists_every_name_and_count() {
        let all = render_registry(None);
        assert!(all.starts_with(&format!("{} registered invariants", REGISTRY.len())));
        for inv in REGISTRY {
            assert!(all.contains(inv.name), "listing misses {}", inv.name);
            assert!(
                all.contains(inv.citation),
                "listing misses citation of {}",
                inv.name
            );
        }
        let inc = render_registry(Some(Stage::Incremental));
        assert!(inc.starts_with("7 registered invariants (stage incremental):"));
        let anatomize = render_registry(Some(Stage::Anatomize));
        assert!(anatomize.starts_with("6 registered invariants (stage anatomize):"));
    }
}
