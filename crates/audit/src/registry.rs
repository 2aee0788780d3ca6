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

/// One QI-group's tallies as the QIT and the ST each see them. A group
/// the QIT never names has `qit_size == 0`; one the ST never names has
/// `st_rows == 0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupTally {
    /// QIT rows carrying the id: the group's population.
    pub qit_size: u64,
    /// ST rows naming the id.
    pub st_rows: u64,
    /// Sum of the group's ST counts.
    pub st_mass: u64,
    /// Largest ST count in the group.
    pub st_max: u32,
    /// Sum of the squared ST counts (`q` of Equation 13).
    pub st_sq: u128,
}

impl GroupTally {
    /// Whether the QIT names the group.
    pub fn in_qit(&self) -> bool {
        self.qit_size > 0
    }

    /// Whether the ST names the group.
    pub fn in_st(&self) -> bool {
        self.st_rows > 0
    }
}

/// Per-group tallies keyed by group id, visited in ascending id order.
/// A dense release over `n` QIT rows uses ids below `n`; those index a
/// vector that grows to the largest id seen. Ids of `n` or more, which
/// only a corrupt release carries, go to an ordered map, so the table
/// stays O(n + |ST|) whatever ids the input names.
#[derive(Debug)]
pub struct GroupTable {
    n: usize,
    dense: Vec<GroupTally>,
    sparse: BTreeMap<GroupId, GroupTally>,
}

impl GroupTable {
    fn new(n: usize) -> Self {
        GroupTable {
            n,
            dense: Vec::new(),
            sparse: BTreeMap::new(),
        }
    }

    fn slot(&mut self, g: GroupId) -> &mut GroupTally {
        let i = g as usize;
        if i >= self.n {
            return self.sparse.entry(g).or_default();
        }
        if i >= self.dense.len() {
            self.dense.resize(i + 1, GroupTally::default());
        }
        &mut self.dense[i]
    }

    /// Every group either table names, in ascending id order.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (GroupId, &GroupTally)> + '_ {
        // Dense ids are all below `n` and sparse ids all at or above it,
        // so the chain is ascending.
        self.dense
            .iter()
            .enumerate()
            .map(|(i, t)| (i as GroupId, t))
            .chain(self.sparse.iter().map(|(&g, t)| (g, t)))
            .filter(|(_, t)| t.in_qit() || t.in_st())
    }

    /// The groups the QIT names, in ascending id order.
    pub fn qit_groups(&self) -> impl DoubleEndedIterator<Item = (GroupId, &GroupTally)> + '_ {
        self.iter().filter(|(_, t)| t.in_qit())
    }

    /// The groups the ST names, in ascending id order.
    pub fn st_groups(&self) -> impl DoubleEndedIterator<Item = (GroupId, &GroupTally)> + '_ {
        self.iter().filter(|(_, t)| t.in_st())
    }
}

/// Everything the check functions over raw release parts share: the
/// parsed `(group_ids, ST, l)` triple plus the per-group tallies and
/// the achieved re-construction error. Computed once per audit, in one
/// pass over the QIT's group ids and one over the ST, and handed to
/// every registered check.
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
    /// Per-group QIT population and ST histogram tallies.
    pub table: GroupTable,
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
    /// Derive the shared state from raw parts in O(n + |ST|) time and
    /// memory. Tolerates arbitrarily corrupt input — sparse or wild
    /// group ids, unsorted or duplicated ST records, zero counts — so
    /// the checks report instead of panic.
    pub fn new(group_ids: &'a [GroupId], st: &'a [StRecord], l: usize) -> Self {
        let n = group_ids.len();
        let mut table = GroupTable::new(n);

        // Group populations as the QIT sees them.
        for &g in group_ids {
            table.slot(g).qit_size += 1;
        }
        let groups = table.qit_groups().count();

        // Group histograms as the ST sees them, plus the ST's own
        // ordering defects.
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
            let t = table.slot(r.group);
            t.st_rows += 1;
            t.st_mass += u64::from(r.count);
            t.st_max = t.st_max.max(r.count);
            t.st_sq += u128::from(r.count).pow(2);
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
        for (_, t) in table.qit_groups() {
            let s = t.qit_size as f64;
            let m = t.st_mass as f64;
            rce += m - t.st_sq as f64 / s * (2.0 - m / s);
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
            table,
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
        self.table
            .st_groups()
            .filter(|(_, t)| t.in_qit())
            .map(|(_, t)| f64::from(t.st_max) / t.qit_size as f64)
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

    mod properties {
        use super::*;
        use anatomy_tables::Value;
        use proptest::prelude::*;

        /// Ids 0..12 fall on both sides of `n` (at most 10 QIT rows); 12
        /// stands for `u32::MAX`.
        fn id(g: u32) -> GroupId {
            if g == 12 {
                u32::MAX
            } else {
                g
            }
        }

        proptest! {
            /// The group table agrees with a naive per-id map: the same
            /// ids in the same ascending order and the same tallies, and
            /// its RCE is bit-identical to one that rescans the ST for
            /// each group.
            #[test]
            fn group_table_matches_naive_maps(
                qit in proptest::collection::vec(0u32..13, 0..10),
                st in proptest::collection::vec((0u32..13, 0u32..4, 0u32..4), 0..16),
            ) {
                let gids: Vec<GroupId> = qit.into_iter().map(id).collect();
                let st: Vec<StRecord> = st
                    .into_iter()
                    .map(|(g, v, count)| StRecord { group: id(g), value: Value(v), count })
                    .collect();
                let ctx = PartsCtx::new(&gids, &st, 3);

                let mut naive: BTreeMap<GroupId, (u64, u64, u64, u32, u128)> = BTreeMap::new();
                for &g in &gids {
                    naive.entry(g).or_default().0 += 1;
                }
                for r in &st {
                    let e = naive.entry(r.group).or_default();
                    e.1 += 1;
                    e.2 += u64::from(r.count);
                    e.3 = e.3.max(r.count);
                    e.4 += u128::from(r.count).pow(2);
                }
                let table: Vec<_> = ctx
                    .table
                    .iter()
                    .map(|(g, t)| (g, (t.qit_size, t.st_rows, t.st_mass, t.st_max, t.st_sq)))
                    .collect();
                prop_assert_eq!(table, naive.clone().into_iter().collect::<Vec<_>>());
                prop_assert_eq!(ctx.groups, naive.values().filter(|e| e.0 > 0).count());

                let mut rce = 0.0f64;
                for (&g, e) in naive.iter().filter(|(_, e)| e.0 > 0) {
                    let q: u128 = st
                        .iter()
                        .filter(|r| r.group == g)
                        .map(|r| u128::from(r.count).pow(2))
                        .sum();
                    let (s, m) = (e.0 as f64, e.2 as f64);
                    rce += m - q as f64 / s * (2.0 - m / s);
                }
                prop_assert_eq!(ctx.rce.to_bits(), rce.to_bits());
            }
        }
    }
}
