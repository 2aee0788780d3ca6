//! The published pair of tables: QIT and ST (Definition 3).

use crate::error::CoreError;
use crate::partition::{GroupId, Partition};
use anatomy_tables::{Microdata, Table, Value};
use std::fmt::Write as _;

/// One record of the sensitive table:
/// `(Group-ID, As value, Count)` — "for each QI-group QIj and each distinct
/// As value v in QIj, the ST has a record (j, v, cj(v))" (Definition 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StRecord {
    /// QI-group id (0-based internally; displayed 1-based as in the paper).
    pub group: GroupId,
    /// The sensitive value.
    pub value: Value,
    /// `c_j(v)`: tuples of the group carrying this value.
    pub count: u32,
}

/// The anatomized publication: a quasi-identifier table and a sensitive
/// table over a common set of QI-groups.
///
/// * QIT — schema `(A1, …, Ad, Group-ID)`: stored as a `d`-column
///   [`Table`] (the exact QI values, in the microdata's QI order) plus a
///   parallel `group_ids` vector.
/// * ST — schema `(Group-ID, As, Count)`: stored as [`StRecord`]s sorted by
///   `(group, value)` with a CSR offset index for per-group access.
///
/// Row order is the engine's, and a written QIT keeps it. [`publish`] and
/// the sharded engine list rows in the microdata's order, which tests and
/// examples rely on; [`anatomize_external`]'s tables list each group's
/// rows in the order the engine drew them. Either order can leak what the
/// groups hide. When the input order follows the sensitive attribute
/// (a file sorted by it, say), the QIT's row order matched with the ST's
/// per-value totals tells every tuple's value. The external engine draws
/// without randomness, so an adversary who replays its draws from the ST
/// ties each QIT row to its value. A publisher whose input order follows
/// the sensitive attribute must shuffle it first. The audit treats the
/// QIT and the ST as sets and sees neither leak.
///
/// [`publish`]: AnatomizedTables::publish
/// [`anatomize_external`]: crate::anatomize_external
#[derive(Debug, Clone, PartialEq)]
pub struct AnatomizedTables {
    qit: Table,
    group_ids: Vec<GroupId>,
    group_sizes: Vec<u32>,
    st: Vec<StRecord>,
    st_offsets: Vec<usize>,
    l: usize,
}

impl AnatomizedTables {
    /// Produce the QIT and ST for `partition` over `md` (Definition 3),
    /// after verifying that the partition is l-diverse (Definition 2) — the
    /// precondition for every privacy guarantee in the paper.
    ///
    /// ```
    /// use anatomy_core::{anatomize, AnatomizeConfig, AnatomizedTables};
    /// use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder};
    ///
    /// # let schema = Schema::new(vec![
    /// #     Attribute::numerical("Age", 100),
    /// #     Attribute::categorical("Disease", 4),
    /// # ])?;
    /// # let mut b = TableBuilder::new(schema);
    /// # for i in 0..12u32 { b.push_row(&[20 + i, i % 4])?; }
    /// # let md = Microdata::with_leading_qi(b.finish(), 1)?;
    /// let partition = anatomize(&md, &AnatomizeConfig::new(3))?;
    /// let tables = AnatomizedTables::publish(&md, &partition, 3)?;
    /// // The QIT keeps exact QI values; the ST holds per-group histograms.
    /// assert_eq!(tables.len(), md.len());
    /// assert_eq!(tables.group_count(), 4);
    /// let total: u32 = tables.st_records().iter().map(|r| r.count).sum();
    /// assert_eq!(total as usize, md.len());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn publish(md: &Microdata, partition: &Partition, l: usize) -> Result<Self, CoreError> {
        if l < 2 {
            return Err(CoreError::InvalidL(l));
        }
        if partition.len() != md.len() {
            return Err(CoreError::InvalidPartition(format!(
                "partition covers {} rows but microdata has {}",
                partition.len(),
                md.len()
            )));
        }
        Self::tabulate(md, partition, l, Some(l))
    }

    /// Like [`AnatomizedTables::publish`], but validating an arbitrary
    /// l-diversity *instantiation* (Section 3.1: "it is straightforward to
    /// extend the anatomy formulation to other instantiations"). The
    /// published pair still records `criterion.l()` as its `l`, since that
    /// is the breach bound every instantiation targets.
    pub fn publish_with(
        md: &Microdata,
        partition: &Partition,
        criterion: &crate::diversity::DiversityCriterion,
    ) -> Result<Self, CoreError> {
        let l = criterion.l();
        if l < 2 {
            return Err(CoreError::InvalidL(l));
        }
        if partition.len() != md.len() {
            return Err(CoreError::InvalidPartition(format!(
                "partition covers {} rows but microdata has {}",
                partition.len(),
                md.len()
            )));
        }
        for j in 0..partition.group_count() as GroupId {
            let hist = partition.sensitive_histogram(md, j);
            if !criterion.check(&hist) {
                return Err(CoreError::InvalidPartition(format!(
                    "group {j} fails the {criterion:?} criterion"
                )));
            }
        }
        Self::publish_unchecked(md, partition, l)
    }

    /// Produce QIT/ST without the l-diversity check. Used by callers that
    /// have already validated the partition (e.g. `anatomize` output) or
    /// that deliberately study non-diverse partitions.
    pub fn publish_unchecked(
        md: &Microdata,
        partition: &Partition,
        l: usize,
    ) -> Result<Self, CoreError> {
        Self::tabulate(md, partition, l, None)
    }

    /// The one pass behind every `publish`: count each group's sensitive
    /// values in one reused array, check Definition 2 for `check` if
    /// given, emit the touched values' ST records in ascending order and
    /// reset only those counts. A group of g tuples costs O(g log g),
    /// whatever λ is. The first group that fails the check is reported
    /// with [`Partition::check_l_diverse`]'s message.
    fn tabulate(
        md: &Microdata,
        partition: &Partition,
        l: usize,
        check: Option<usize>,
    ) -> Result<Self, CoreError> {
        let qit = md.table().project(md.qi_columns())?;
        let group_ids = partition.group_ids().to_vec();
        let m = partition.group_count();
        let group_sizes: Vec<u32> = partition.groups().iter().map(|g| g.len() as u32).collect();

        let sensitive = md.sensitive_codes();
        let mut counts = vec![0u32; md.sensitive_domain_size() as usize];
        let mut touched: Vec<u32> = Vec::new();
        // A tuple adds at most one record, so n bounds the ST.
        let mut st = Vec::with_capacity(md.len());
        let mut st_offsets = Vec::with_capacity(m + 1);
        st_offsets.push(0);
        for (j, rows) in partition.groups().iter().enumerate() {
            let j = j as GroupId;
            for &r in rows {
                let v = sensitive[r as usize];
                let count = &mut counts[v as usize];
                if *count == 0 {
                    touched.push(v);
                }
                *count += 1;
            }
            touched.sort_unstable();
            if let Some(l) = check {
                let max = touched.iter().map(|&v| counts[v as usize]).max();
                if max.is_some_and(|c| (c as usize).saturating_mul(l) > rows.len()) {
                    return Err(partition.not_l_diverse(md, j, l));
                }
            }
            for &v in &touched {
                st.push(StRecord {
                    group: j,
                    value: Value(v),
                    count: std::mem::take(&mut counts[v as usize]),
                });
            }
            touched.clear();
            st_offsets.push(st.len());
        }
        Ok(AnatomizedTables {
            qit,
            group_ids,
            group_sizes,
            st,
            st_offsets,
            l,
        })
    }

    /// Re-assemble a publication from its raw parts (e.g. parsed from a
    /// released file, see [`crate::release`]), validating every invariant
    /// a well-formed release must satisfy:
    ///
    /// * `group_ids` parallels the QIT rows and uses dense ids
    ///   `0..group_count`;
    /// * the ST is sorted by `(group, value)` without duplicates;
    /// * per group, the ST counts sum to the group's QIT size;
    /// * every group satisfies Definition 2 for `l`.
    pub fn from_parts(
        qit: Table,
        group_ids: Vec<GroupId>,
        st: Vec<StRecord>,
        l: usize,
    ) -> Result<Self, CoreError> {
        if l < 2 {
            return Err(CoreError::InvalidL(l));
        }
        if group_ids.len() != qit.len() {
            return Err(CoreError::InvalidPartition(format!(
                "QIT has {} rows but {} group ids",
                qit.len(),
                group_ids.len()
            )));
        }
        // Dense ids over n rows lie below n, so the size table is bounded
        // by the row count rather than by the largest id. An id at or
        // above n leaves some id below n without tuples (at most n − 1
        // rows remain for the n ids below it), and the first such gap is
        // the one reported.
        let n = group_ids.len();
        let m = group_ids
            .iter()
            .fold(0, |m, &g| m.max(g as usize + 1))
            .min(n);
        let mut group_sizes = vec![0u32; m];
        for &g in &group_ids {
            if let Some(size) = group_sizes.get_mut(g as usize) {
                *size += 1;
            }
        }
        if let Some(j) = group_sizes.iter().position(|&s| s == 0) {
            return Err(CoreError::InvalidPartition(format!(
                "group ids are not dense: group {j} has no tuples"
            )));
        }

        // ST structure: sorted, deduplicated, group ids in range.
        for w in st.windows(2) {
            if (w[0].group, w[0].value) >= (w[1].group, w[1].value) {
                return Err(CoreError::InvalidPartition(format!(
                    "ST records out of order or duplicated at group {} value {}",
                    w[1].group, w[1].value
                )));
            }
        }
        let mut st_offsets = Vec::with_capacity(m + 1);
        st_offsets.push(0usize);
        let mut cursor = 0usize;
        for j in 0..m as GroupId {
            let mut mass = 0u64;
            while cursor < st.len() && st[cursor].group == j {
                if st[cursor].count == 0 {
                    return Err(CoreError::InvalidPartition(format!(
                        "ST record with zero count in group {j}"
                    )));
                }
                mass += st[cursor].count as u64;
                cursor += 1;
            }
            if mass != group_sizes[j as usize] as u64 {
                return Err(CoreError::InvalidPartition(format!(
                    "group {j}: ST counts sum to {mass} but QIT has {} tuples",
                    group_sizes[j as usize]
                )));
            }
            st_offsets.push(cursor);
        }
        if cursor != st.len() {
            return Err(CoreError::InvalidPartition(format!(
                "ST references group {} beyond the QIT's {m} groups",
                st[cursor].group
            )));
        }

        let tables = AnatomizedTables {
            qit,
            group_ids,
            group_sizes,
            st,
            st_offsets,
            l,
        };
        // Definition 2, from the ST alone.
        for j in 0..m as GroupId {
            let size = tables.group_size(j) as usize;
            if let Some(max) = tables.st_of(j).iter().map(|r| r.count as usize).max() {
                if max * l > size {
                    return Err(CoreError::InvalidPartition(format!(
                        "group {j} is not {l}-diverse: a value occurs {max} times in {size} tuples"
                    )));
                }
            }
        }
        Ok(tables)
    }

    /// The diversity parameter the tables were published under.
    #[inline]
    pub fn l(&self) -> usize {
        self.l
    }

    /// Number of QIT rows (`n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.group_ids.len()
    }

    /// Whether the publication is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.group_ids.is_empty()
    }

    /// Number of QI attributes (`d`).
    #[inline]
    pub fn qi_count(&self) -> usize {
        self.qit.width()
    }

    /// Number of QI-groups (`m`).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.group_sizes.len()
    }

    /// The QI part of the QIT as a table (columns in microdata QI order).
    #[inline]
    pub fn qi_table(&self) -> &Table {
        &self.qit
    }

    /// Raw code array of the i-th QI attribute.
    #[inline]
    pub fn qi_codes(&self, i: usize) -> &[u32] {
        self.qit.column(i)
    }

    /// Domain cardinality of the i-th QI attribute (the QIT keeps the
    /// microdata's QI schema, so this matches `Microdata::qi_domain_size`).
    pub fn qi_domain_size(&self, i: usize) -> u32 {
        self.qit
            .schema()
            .attribute(i)
            .expect("QI index validated by caller")
            .domain_size()
    }

    /// The Group-ID column of the QIT (0-based ids, parallel to rows).
    #[inline]
    pub fn group_ids(&self) -> &[GroupId] {
        &self.group_ids
    }

    /// `|QI_j|` — size of group `j`.
    #[inline]
    pub fn group_size(&self, j: GroupId) -> u32 {
        self.group_sizes[j as usize]
    }

    /// All ST records, sorted by `(group, value)`.
    #[inline]
    pub fn st_records(&self) -> &[StRecord] {
        &self.st
    }

    /// ST records of group `j`.
    #[inline]
    pub fn st_of(&self, j: GroupId) -> &[StRecord] {
        &self.st[self.st_offsets[j as usize]..self.st_offsets[j as usize + 1]]
    }

    /// `c_j(v)`: count of sensitive value `v` in group `j` (0 when absent).
    pub fn count_in_group(&self, j: GroupId, v: Value) -> u32 {
        self.st_of(j)
            .binary_search_by_key(&v, |r| r.value)
            .map(|i| self.st_of(j)[i].count)
            .unwrap_or(0)
    }

    /// Total mass in group `j` of sensitive values accepted by `pred` —
    /// the inner sum of the anatomy query estimator (Section 1.2).
    pub fn sensitive_mass(&self, j: GroupId, pred: impl Fn(Value) -> bool) -> u64 {
        self.st_of(j)
            .iter()
            .filter(|r| pred(r.value))
            .map(|r| r.count as u64)
            .sum()
    }

    /// Fold the ST into one accumulator per sensitive value it holds:
    /// each value's accumulator starts at `zero` and takes `add` once per
    /// record of that value, in ST order. Returns `(v, accumulator)` pairs
    /// in ascending `v`.
    ///
    /// When every value lies below |ST|, the accumulators are an array
    /// indexed by value, of at most |ST| entries. Otherwise (a small
    /// release over a wide domain, or a corrupt one) the values are sorted
    /// and each record finds its accumulator by binary search. Either way
    /// memory is O(|ST|) whatever the codes, and each accumulator sees the
    /// same records in the same order, so floating-point sums agree.
    pub fn fold_per_value<T: Clone>(
        &self,
        zero: T,
        mut add: impl FnMut(&mut T, &StRecord),
    ) -> Vec<(Value, T)> {
        let st = &self.st;
        let Some(top) = st.iter().map(|r| r.value.code() as usize).max() else {
            return Vec::new();
        };
        if top < st.len() {
            let mut acc: Vec<Option<T>> = vec![None; top + 1];
            for r in st {
                add(
                    acc[r.value.code() as usize].get_or_insert_with(|| zero.clone()),
                    r,
                );
            }
            return acc
                .into_iter()
                .enumerate()
                .filter_map(|(v, a)| Some((Value(v as u32), a?)))
                .collect();
        }
        let mut values: Vec<u32> = st.iter().map(|r| r.value.code()).collect();
        values.sort_unstable();
        values.dedup();
        let mut acc = vec![zero; values.len()];
        for r in st {
            add(&mut acc[values.partition_point(|&v| v < r.value.code())], r);
        }
        values.into_iter().map(Value).zip(acc).collect()
    }

    /// Render the QIT like the paper's Table 3a (1-based group ids,
    /// attribute labels, at most `limit` rows).
    pub fn format_qit(&self, limit: usize) -> String {
        let mut out = String::new();
        let names = self.qit.schema().names().join("\t");
        let _ = writeln!(out, "row#\t{names}\tGroup-ID");
        for (r, t) in self.qit.tuples().enumerate().take(limit) {
            let _ = writeln!(
                out,
                "{}\t{}\t{}",
                r + 1,
                t.labeled().join("\t"),
                self.group_ids[r] + 1
            );
        }
        if self.len() > limit {
            let _ = writeln!(out, "... ({} more rows)", self.len() - limit);
        }
        out
    }

    /// Render the ST like the paper's Table 3b, using `label` to name
    /// sensitive values.
    pub fn format_st(&self, label: impl Fn(Value) -> String) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Group-ID\tAs\tCount");
        for r in &self.st {
            let _ = writeln!(out, "{}\t{}\t{}", r.group + 1, label(r.value), r.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_tables::{Attribute, AttributeKind, Schema, TableBuilder};

    /// The paper's Table 1 (ages, gender, zip in thousands, disease).
    fn paper_md() -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::with_labels(
                "Sex",
                AttributeKind::Categorical,
                vec!["M".into(), "F".into()],
            ),
            Attribute::numerical("Zipcode", 60),
            Attribute::with_labels(
                "Disease",
                AttributeKind::Categorical,
                vec![
                    "bronchitis".into(),
                    "dyspepsia".into(),
                    "flu".into(),
                    "gastritis".into(),
                    "pneumonia".into(),
                ],
            ),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for row in [
            [23, 0, 11, 4],
            [27, 0, 13, 1],
            [35, 0, 59, 1],
            [59, 0, 12, 4],
            [61, 1, 54, 2],
            [65, 1, 25, 3],
            [65, 1, 25, 2],
            [70, 1, 30, 0],
        ] {
            b.push_row(&row).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 3).unwrap()
    }

    fn paper_partition() -> Partition {
        Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap()
    }

    #[test]
    fn publish_matches_definition_3() {
        let md = paper_md();
        let t = AnatomizedTables::publish(&md, &paper_partition(), 2).unwrap();
        assert_eq!(t.len(), 8);
        assert_eq!(t.qi_count(), 3);
        assert_eq!(t.group_count(), 2);
        assert_eq!(t.group_size(0), 4);
        // QIT keeps exact values: row 0 has age 23.
        assert_eq!(t.qi_codes(0)[0], 23);
        assert_eq!(t.group_ids(), &[0, 0, 0, 0, 1, 1, 1, 1]);
        // ST of group 1 (paper's Table 3b): dyspepsia 2, pneumonia 2.
        let st0 = t.st_of(0);
        assert_eq!(st0.len(), 2);
        assert_eq!(
            st0[0],
            StRecord {
                group: 0,
                value: Value(1),
                count: 2
            }
        );
        assert_eq!(
            st0[1],
            StRecord {
                group: 0,
                value: Value(4),
                count: 2
            }
        );
        // ST of group 2: bronchitis 1, flu 2, gastritis 1.
        let st1 = t.st_of(1);
        assert_eq!(st1.len(), 3);
        assert_eq!(
            st1[0],
            StRecord {
                group: 1,
                value: Value(0),
                count: 1
            }
        );
        assert_eq!(
            st1[1],
            StRecord {
                group: 1,
                value: Value(2),
                count: 2
            }
        );
        assert_eq!(
            st1[2],
            StRecord {
                group: 1,
                value: Value(3),
                count: 1
            }
        );
    }

    #[test]
    fn count_in_group_and_mass() {
        let md = paper_md();
        let t = AnatomizedTables::publish(&md, &paper_partition(), 2).unwrap();
        assert_eq!(t.count_in_group(0, Value(4)), 2); // pneumonia in group 1
        assert_eq!(t.count_in_group(0, Value(2)), 0); // flu absent from group 1
        assert_eq!(t.sensitive_mass(1, |v| v == Value(2) || v == Value(3)), 3);
        assert_eq!(t.sensitive_mass(0, |_| true), 4);
    }

    #[test]
    fn publish_rejects_non_diverse_partition() {
        let md = paper_md();
        // Group {0, 3} holds two pneumonia tuples: not 2-diverse.
        let bad = Partition::new(vec![vec![0, 3], vec![1, 2], vec![4, 5], vec![6, 7]], 8).unwrap();
        assert!(matches!(
            AnatomizedTables::publish(&md, &bad, 2),
            Err(CoreError::InvalidPartition(_))
        ));
        // publish_unchecked accepts it regardless.
        assert!(AnatomizedTables::publish_unchecked(&md, &bad, 2).is_ok());
    }

    /// `publish` as it was before the one-pass table: `check_l_diverse`,
    /// then one λ-sized histogram per group for the ST.
    fn publish_by_histograms(
        md: &Microdata,
        partition: &Partition,
        l: Option<usize>,
    ) -> Result<AnatomizedTables, CoreError> {
        if let Some(l) = l {
            partition.check_l_diverse(md, l)?;
        }
        let mut st = Vec::new();
        let mut st_offsets = vec![0];
        for j in 0..partition.group_count() as GroupId {
            for (value, count) in partition.sensitive_histogram(md, j).nonzero() {
                st.push(StRecord {
                    group: j,
                    value,
                    count: count as u32,
                });
            }
            st_offsets.push(st.len());
        }
        Ok(AnatomizedTables {
            qit: md.table().project(md.qi_columns())?,
            group_ids: partition.group_ids().to_vec(),
            group_sizes: partition.group_sizes().iter().map(|&s| s as u32).collect(),
            st,
            st_offsets,
            l: l.unwrap_or(2),
        })
    }

    #[test]
    fn one_pass_publish_matches_per_group_histograms() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(18);
        for case in 0..300 {
            let lambda = [2u32, 7, 50][case % 3];
            let n = rng.random_range(1..120usize);
            let m = rng.random_range(1..n.min(12) + 1);
            let schema = Schema::new(vec![
                Attribute::numerical("Q", 10),
                Attribute::categorical("S", lambda),
            ])
            .unwrap();
            let mut b = TableBuilder::new(schema);
            for r in 0..n as u32 {
                b.push_row(&[r % 10, rng.random_range(0..lambda)]).unwrap();
            }
            let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
            // Every group non-empty: the first m rows seed the groups.
            let mut groups = vec![Vec::new(); m];
            for r in 0..n as u32 {
                let g = if (r as usize) < m {
                    r as usize
                } else {
                    rng.random_range(0..m)
                };
                groups[g].push(r);
            }
            let partition = Partition::new(groups, n).unwrap();
            for l in 2..5 {
                let fast = AnatomizedTables::publish(&md, &partition, l).map_err(|e| e.to_string());
                let oracle =
                    publish_by_histograms(&md, &partition, Some(l)).map_err(|e| e.to_string());
                assert_eq!(fast, oracle, "case {case} l {l}");
            }
            assert_eq!(
                AnatomizedTables::publish_unchecked(&md, &partition, 2).unwrap(),
                publish_by_histograms(&md, &partition, None).unwrap(),
                "case {case}"
            );
        }
    }

    #[test]
    fn publish_with_alternative_instantiations() {
        use crate::diversity::DiversityCriterion;
        let md = paper_md();
        let p = paper_partition();
        // Group 1 is uniform over 2 values (entropy ln 2): entropy
        // 2-diversity holds; group 2 has counts {1, 2, 1} (entropy ~1.04
        // < ln 3), so entropy 3-diversity fails.
        assert!(
            AnatomizedTables::publish_with(&md, &p, &DiversityCriterion::Entropy { l: 2 }).is_ok()
        );
        assert!(
            AnatomizedTables::publish_with(&md, &p, &DiversityCriterion::Entropy { l: 3 }).is_err()
        );
        // Recursive (c=3, l=2): group 1 counts [2, 2]: 2 < 3*2 ok; group 2
        // counts [2, 1, 1]: 2 < 3*(1+1+... tail from position 2) = 3*2 ok.
        assert!(AnatomizedTables::publish_with(
            &md,
            &p,
            &DiversityCriterion::Recursive { c: 3.0, l: 2 }
        )
        .is_ok());
    }

    #[test]
    fn publish_rejects_length_mismatch_and_bad_l() {
        let md = paper_md();
        let short = Partition::new(vec![vec![0, 1]], 2).unwrap();
        assert!(AnatomizedTables::publish(&md, &short, 2).is_err());
        assert!(matches!(
            AnatomizedTables::publish(&md, &paper_partition(), 1),
            Err(CoreError::InvalidL(1))
        ));
    }

    #[test]
    fn formatting_matches_paper_tables() {
        let md = paper_md();
        let t = AnatomizedTables::publish(&md, &paper_partition(), 2).unwrap();
        let qit = t.format_qit(10);
        assert!(qit.contains("Group-ID"));
        assert!(qit.lines().nth(1).unwrap().starts_with("1\t23\tM\t11"));
        let schema = md.table().schema().clone();
        let disease = schema.attribute(3).unwrap().clone();
        let st = t.format_st(|v| disease.label(v));
        assert!(st.contains("dyspepsia\t2"));
        assert!(st.contains("bronchitis\t1"));
    }

    #[test]
    fn from_parts_sizes_the_group_table_from_the_ids() {
        let schema = paper_md().table().schema().project(&[0]).unwrap();
        let qit = |n: u32| {
            let mut b = anatomy_tables::TableBuilder::new(schema.clone());
            for i in 0..n {
                b.push_row(&[20 + i]).unwrap();
            }
            b.finish()
        };
        let st = |groups: &[u32]| -> Vec<StRecord> {
            groups
                .iter()
                .flat_map(|&g| {
                    (0..2).map(move |v| StRecord {
                        group: g,
                        value: Value(v),
                        count: 1,
                    })
                })
                .collect()
        };
        let empty = AnatomizedTables::from_parts(qit(0), vec![], vec![], 2).unwrap();
        assert_eq!((empty.len(), empty.group_count()), (0, 0));
        let two = AnatomizedTables::from_parts(qit(4), vec![0, 1, 1, 0], st(&[0, 1]), 2).unwrap();
        assert_eq!(two.group_count(), 2);
        // The first gap below the largest id, and below n when an id
        // reaches past the rows.
        for ids in [vec![0, 0, 3, 3], vec![0, 0, 9, 9]] {
            let err = AnatomizedTables::from_parts(qit(4), ids, st(&[0, 1]), 2).unwrap_err();
            assert!(err.to_string().contains("group 1 has no tuples"), "{err}");
        }
    }

    #[test]
    fn st_is_sorted_by_group_then_value() {
        let md = paper_md();
        let t = AnatomizedTables::publish(&md, &paper_partition(), 2).unwrap();
        let recs = t.st_records();
        for w in recs.windows(2) {
            assert!((w[0].group, w[0].value) < (w[1].group, w[1].value));
        }
        // Counts over all groups sum to n.
        let total: u32 = recs.iter().map(|r| r.count).sum();
        assert_eq!(total as usize, t.len());
    }
}
