//! External `Anatomize` with logical I/O accounting (Theorem 3).
//!
//! This is the implementation described in the proof of Theorem 3:
//!
//! 1. **Hash** the microdata file into one bucket file per sensitive value
//!    (`O(n/b)` I/Os, `O(λ)` memory — one output buffer per bucket; the
//!    [`fn@anatomy_storage::hash_partition`] primitive transparently falls
//!    back to multi-pass partitioning if `λ + 1` exceeds the buffer
//!    budget).
//! 2. **Group creation** keeps the bucket sizes in memory (an `O(λ)`
//!    array), holds one input buffer page per bucket and one output page,
//!    and streams complete QI-groups to a *QI-group file* in creation
//!    order, so each group's records are contiguous.
//! 3. **Residue assignment + publication** reads the ≤ l−1 residue tuples
//!    into memory and performs a single scan of the QI-group file,
//!    assigning each residue to the first compatible group encountered
//!    (one exists by Property 2) while streaming out the QIT and ST files.
//!
//! Total cost: one write + one read of the bucket files, one write + one
//! read of the QI-group file, plus reading the input and writing QIT/ST —
//! all `O(n/b)`. The returned [`ExternalAnatomizeOutput`] carries the I/O
//! statistics plotted in Figures 8 and 9.
//!
//! Records:
//! * input/bucket files — `d + 1` u32s: QI codes then sensitive code;
//! * QI-group file — `d + 2` u32s: QI codes, sensitive code, group id;
//! * QIT — `d + 1` u32s: QI codes, group id (Definition 3);
//! * ST — 3 u32s: group id, sensitive value, count.

use crate::diversity::check_eligibility;
use crate::error::CoreError;
use anatomy_storage::{
    hash_partition, BufferPool, IoCounter, IoStats, PageConfig, SeqReader, SeqWriter, SimFile,
    U32RowCodec,
};
use anatomy_tables::Microdata;

/// Output of [`anatomize_external`].
#[derive(Debug, Clone)]
pub struct ExternalAnatomizeOutput {
    /// The QIT file: records `(qi_1, …, qi_d, group_id)`.
    pub qit: SimFile,
    /// The ST file: records `(group_id, sensitive_value, count)`.
    pub st: SimFile,
    /// Number of QI-groups created (`⌊n/l⌋`).
    pub groups: usize,
    /// Logical I/O incurred by the anatomization itself (excludes writing
    /// the input file, which models pre-existing data).
    pub stats: IoStats,
}

impl ExternalAnatomizeOutput {
    /// Decode the QIT/ST files into validated
    /// [`AnatomizedTables`](crate::published::AnatomizedTables), so the
    /// external pipeline's output plugs straight into the adversary and
    /// query machinery. `qi_schema` describes the QI attributes (the
    /// microdata schema projected to its QI columns); `l` is the diversity
    /// the run was performed with.
    pub fn into_tables(
        &self,
        qi_schema: anatomy_tables::Schema,
        l: usize,
    ) -> Result<crate::published::AnatomizedTables, CoreError> {
        tables_from_files(&self.qit, &self.st, qi_schema, l)
    }
}

/// Decode on-disk QIT (`(qi_1, …, qi_d, group_id)` records) and ST
/// (`(group_id, value, count)` records) files into validated
/// [`AnatomizedTables`](crate::published::AnatomizedTables). Shared by the
/// external and sharded engines.
///
/// Each QIT page is transposed in one pass into the QI columns, checked
/// with one maximum per column, and the group ids; each ST page goes into
/// records. An out-of-domain QI code is the error a row-at-a-time build
/// gives for the first row holding one.
pub fn tables_from_files(
    qit: &SimFile,
    st_file: &SimFile,
    qi_schema: anatomy_tables::Schema,
    l: usize,
) -> Result<crate::published::AnatomizedTables, CoreError> {
    let d = qi_schema.width();
    let pool = BufferPool::unbounded();
    let scratch = IoCounter::new();

    let rows = qit.record_count();
    let mut builder = anatomy_tables::TableBuilder::with_capacity(qi_schema, rows);
    let mut group_ids = Vec::with_capacity(rows);
    let mut reader = SeqReader::open(qit, U32RowCodec::new(d + 1), &pool, scratch.clone())?;
    while let Some(page) = reader.next_page()? {
        builder.push_rows(page, Some(&mut group_ids))?;
    }

    let mut st = Vec::with_capacity(st_file.record_count());
    let mut reader = SeqReader::open(st_file, U32RowCodec::new(3), &pool, scratch)?;
    while let Some(page) = reader.next_page()? {
        st.extend(page.chunks_exact(3).map(|rec| crate::published::StRecord {
            group: rec[0],
            value: anatomy_tables::Value(rec[1]),
            count: rec[2],
        }));
    }
    crate::published::AnatomizedTables::from_parts(builder.finish(), group_ids, st, l)
}

/// Serialize `md` into a [`SimFile`] of `(d+1)`-field records without
/// charging the experiment's I/O counter (the microdata is assumed to
/// already reside on disk; reading it *is* charged, by the algorithm).
///
/// The columns are transposed into rows a page at a time.
pub fn microdata_to_file(md: &Microdata, cfg: PageConfig) -> Result<SimFile, CoreError> {
    let d = md.qi_count();
    let codec = U32RowCodec::new(d + 1);
    let scratch_counter = IoCounter::new();
    let scratch_pool = BufferPool::unbounded();
    let mut file = SimFile::new();
    let mut w = SeqWriter::open(&mut file, codec, cfg, &scratch_pool, scratch_counter)?;
    let columns: Vec<&[u32]> = (0..d)
        .map(|i| md.qi_codes(i))
        .chain([md.sensitive_codes()])
        .collect();
    let per_page = cfg.records_per_page(codec.record_len())?;
    let mut page = vec![0u32; per_page * (d + 1)];
    for start in (0..md.len()).step_by(per_page) {
        let rows = per_page.min(md.len() - start);
        let page = &mut page[..rows * (d + 1)];
        for (c, column) in columns.iter().enumerate() {
            for (row, &code) in page.chunks_exact_mut(d + 1).zip(&column[start..]) {
                row[c] = code;
            }
        }
        w.push_rows(page)?;
    }
    w.finish()?;
    Ok(file)
}

/// Run the external `Anatomize` on `md` with diversity `l`.
///
/// `pool` bounds the algorithm's memory; `Theorem 3` needs `O(λ)` pages, so
/// pass at least `λ + 2` (use [`recommended_pool`]). `counter` accumulates
/// the logical I/O cost.
pub fn anatomize_external(
    md: &Microdata,
    l: usize,
    cfg: PageConfig,
    pool: &BufferPool,
    counter: &IoCounter,
) -> Result<ExternalAnatomizeOutput, CoreError> {
    // Same observability contract as the in-memory `anatomize`: phase
    // spans to the process registry, no effect on the output. Pass an
    // [`IoCounter::observed`] counter to additionally mirror the page
    // counts into the same registry.
    let obs = anatomy_obs::global();
    let _run = obs.span("anatomize_external");

    check_eligibility(md, l)?;
    let before = counter.stats();
    let d = md.qi_count();
    let lambda = md.sensitive_domain_size() as usize;
    let tuple_codec = U32RowCodec::new(d + 1);
    let group_codec = U32RowCodec::new(d + 2);
    let qit_codec = U32RowCodec::new(d + 1);
    let st_codec = U32RowCodec::new(3);

    let input = microdata_to_file(md, cfg)?;
    // Reading the input is charged inside hash_partition.

    // ---- Phase 1: hash by sensitive value (Line 2 of Figure 3). ----
    let buckets = {
        let _phase = obs.span("hash_partition");
        hash_partition(
            &input,
            tuple_codec,
            |rec| rec[d],
            lambda,
            cfg,
            pool,
            counter,
        )?
    };

    // In-memory O(λ) state: remaining records per bucket.
    let mut remaining: Vec<usize> = buckets.iter().map(|b| b.record_count()).collect();

    // ---- Phase 2: group creation (Lines 3-8). ----
    // One open reader (= one buffer page) per non-empty bucket, plus one
    // output page for the QI-group file.
    let mut group_file = SimFile::new();
    let mut groups = 0usize;
    {
        let mut readers: Vec<Option<SeqReader<'_>>> = Vec::with_capacity(lambda);
        for b in &buckets {
            readers.push(if b.is_empty() {
                None
            } else {
                Some(SeqReader::open(b, tuple_codec, pool, counter.clone())?)
            });
        }
        let mut group_writer =
            SeqWriter::open(&mut group_file, group_codec, cfg, pool, counter.clone())?;

        let group_phase = obs.span("group_creation");
        // One row for the bucket scans: a tuple, then its group id.
        let mut row: Vec<u32> = Vec::with_capacity(d + 2);
        let mut nonempty: Vec<u32> = (0..lambda as u32)
            .filter(|&v| remaining[v as usize] > 0)
            .collect();
        while nonempty.len() >= l {
            nonempty.sort_unstable_by(|&a, &b| {
                remaining[b as usize]
                    .cmp(&remaining[a as usize])
                    .then(a.cmp(&b))
            });
            let gid = groups as u32;
            for &v in nonempty.iter().take(l) {
                // Both lookups are invariants of the loop above, but a
                // damaged bucket file must degrade to a typed error, not
                // a panic, so the whole chain stays recoverable.
                let Some(reader) = readers[v as usize].as_mut() else {
                    return Err(CoreError::InvalidPartition(format!(
                        "bucket {v} has no open reader during group creation"
                    )));
                };
                let Some(tuple) = reader.next_row()? else {
                    return Err(CoreError::InvalidPartition(format!(
                        "bucket {v} exhausted early during group creation"
                    )));
                };
                row.clear();
                row.extend_from_slice(tuple);
                row.push(gid);
                group_writer.push(&row)?;
                remaining[v as usize] -= 1;
            }
            groups += 1;
            nonempty.retain(|&v| remaining[v as usize] > 0);
        }
        drop(group_phase);

        let publication_phase = obs.span("publication_scan");
        // ---- Residues: at most l-1 tuples, read into memory (O(l)). ----
        let mut residues: Vec<Vec<u32>> = Vec::new();
        for v in nonempty {
            let Some(reader) = readers[v as usize].as_mut() else {
                return Err(CoreError::InvalidPartition(format!(
                    "bucket {v} has no open reader during residue collection"
                )));
            };
            while let Some(tuple) = reader.next_row()? {
                residues.push(tuple.to_vec());
            }
        }
        // Finish explicitly: a failed flush of the last partial page must
        // propagate, not vanish in a drop.
        group_writer.finish()?;
        drop(readers);

        // ---- Phase 3: one scan of the QI-group file; assign residues,
        // emit QIT and ST (Lines 9-18). ----
        let mut qit = SimFile::new();
        let mut st = SimFile::new();
        {
            let mut reader = SeqReader::open(&group_file, group_codec, pool, counter.clone())?;
            let mut qit_writer = SeqWriter::open(&mut qit, qit_codec, cfg, pool, counter.clone())?;
            let mut st_writer = SeqWriter::open(&mut st, st_codec, cfg, pool, counter.clone())?;
            let mut assigned = vec![false; residues.len()];

            let mut current_group: Option<u32> = None;
            // Sensitive values of the group being scanned (size <= l, an
            // O(l) working set).
            let mut group_values: Vec<u32> = Vec::with_capacity(l + 2);

            let flush_group = |gid: u32,
                               group_values: &mut Vec<u32>,
                               assigned: &mut [bool],
                               qit_writer: &mut SeqWriter<'_>,
                               st_writer: &mut SeqWriter<'_>|
             -> Result<(), anatomy_storage::StorageError> {
                // Offer every unassigned residue to this group.
                for (i, res) in residues.iter().enumerate() {
                    if assigned[i] {
                        continue;
                    }
                    let v = res[d];
                    if !group_values.contains(&v) {
                        assigned[i] = true;
                        group_values.push(v);
                        let mut qrow: Vec<u32> = res[..d].to_vec();
                        qrow.push(gid);
                        qit_writer.push(&qrow)?;
                    }
                }
                // All values in a group are distinct (Property 3), so every
                // ST count is 1. Emit in value order for determinism.
                group_values.sort_unstable();
                for &v in group_values.iter() {
                    st_writer.push(&[gid, v, 1])?;
                }
                group_values.clear();
                Ok(())
            };

            let mut qrow: Vec<u32> = Vec::with_capacity(d + 1);
            while let Some(rec) = reader.next_row()? {
                let gid = rec[d + 1];
                if current_group != Some(gid) {
                    if let Some(prev) = current_group {
                        flush_group(
                            prev,
                            &mut group_values,
                            &mut assigned,
                            &mut qit_writer,
                            &mut st_writer,
                        )?;
                    }
                    current_group = Some(gid);
                }
                group_values.push(rec[d]);
                qrow.clear();
                qrow.extend_from_slice(&rec[..d]);
                qrow.push(gid);
                qit_writer.push(&qrow)?;
            }
            if let Some(prev) = current_group {
                flush_group(
                    prev,
                    &mut group_values,
                    &mut assigned,
                    &mut qit_writer,
                    &mut st_writer,
                )?;
            }

            if let Some(i) = assigned.iter().position(|&a| !a) {
                return Err(CoreError::ResidueUnassignable {
                    sensitive_code: residues[i][d],
                });
            }
            qit_writer.finish()?;
            st_writer.finish()?;
        }
        drop(publication_phase);

        obs.counter("core.external_runs").incr();
        obs.counter("core.rows_anatomized_external")
            .add(md.len() as u64);

        let stats = counter.stats().since(&before);
        Ok(ExternalAnatomizeOutput {
            qit,
            st,
            groups,
            stats,
        })
    }
}

/// A buffer pool sized for `anatomize_external` on microdata with `lambda`
/// distinct sensitive values: `λ` bucket pages + 1 output page + slack for
/// the final scan, and never less than the paper's 50 pages.
pub fn recommended_pool(lambda: usize) -> BufferPool {
    BufferPool::new((lambda + 3).max(anatomy_storage::PAPER_MEMORY_PAGES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    fn md_from(codes: &[(u32, u32)], qi_dom: u32, s_dom: u32) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("A", qi_dom),
            Attribute::categorical("S", s_dom),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for &(a, s) in codes {
            b.push_row(&[a, s]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 1).unwrap()
    }

    fn read_rows(f: &SimFile, arity: usize) -> Vec<Vec<u32>> {
        let pool = BufferPool::unbounded();
        SeqReader::open(f, U32RowCodec::new(arity), &pool, IoCounter::new())
            .unwrap()
            .map(|r| r.unwrap())
            .collect()
    }

    /// Validate the published files: QIT covers all tuples, every group is
    /// l-diverse with distinct values, ST counts match QIT group sizes.
    fn check_output(md: &Microdata, out: &ExternalAnatomizeOutput, l: usize) {
        let d = md.qi_count();
        let qit = read_rows(&out.qit, d + 1);
        assert_eq!(qit.len(), md.len());
        let st = read_rows(&out.st, 3);

        // Group sizes from QIT.
        let mut sizes = vec![0usize; out.groups];
        for row in &qit {
            sizes[row[d] as usize] += 1;
        }
        for (g, &s) in sizes.iter().enumerate() {
            assert!(s >= l, "group {g} has {s} < l tuples");
            assert!(s < 2 * l);
        }
        // ST: every count is 1, per-group record count equals group size.
        let mut st_counts = vec![0usize; out.groups];
        for rec in &st {
            assert_eq!(rec[2], 1);
            st_counts[rec[0] as usize] += 1;
        }
        assert_eq!(st_counts, sizes);

        // Multiset of QI values is preserved.
        let mut orig: Vec<u32> = md.qi_codes(0).to_vec();
        let mut published: Vec<u32> = qit.iter().map(|r| r[0]).collect();
        orig.sort_unstable();
        published.sort_unstable();
        assert_eq!(orig, published);
    }

    #[test]
    fn external_output_is_l_diverse() {
        let tuples: Vec<(u32, u32)> = (0..60).map(|i| (i, i % 6)).collect();
        let md = md_from(&tuples, 100, 6);
        let cfg = PageConfig::with_page_size(64);
        let pool = recommended_pool(6);
        let counter = IoCounter::new();
        let out = anatomize_external(&md, 3, cfg, &pool, &counter).unwrap();
        assert_eq!(out.groups, 20);
        check_output(&md, &out, 3);
        assert!(out.stats.total() > 0);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn residues_are_assigned_during_the_scan() {
        // n = 11, l = 3: 2 residues.
        let tuples: Vec<(u32, u32)> = [
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 1),
            (4, 1),
            (5, 1),
            (6, 2),
            (7, 2),
            (8, 2),
            (9, 3),
            (10, 4),
        ]
        .to_vec();
        let md = md_from(&tuples, 100, 6);
        let cfg = PageConfig::with_page_size(64);
        let pool = recommended_pool(6);
        let counter = IoCounter::new();
        let out = anatomize_external(&md, 3, cfg, &pool, &counter).unwrap();
        assert_eq!(out.groups, 3);
        check_output(&md, &out, 3);
    }

    #[test]
    fn io_cost_is_linear_in_n() {
        // Doubling n should roughly double the I/O (O(n/b), Theorem 3).
        let cfg = PageConfig::with_page_size(256);
        let cost = |n: usize| {
            let tuples: Vec<(u32, u32)> =
                (0..n).map(|i| (i as u32 % 1000, i as u32 % 10)).collect();
            let md = md_from(&tuples, 1000, 10);
            let pool = recommended_pool(10);
            let counter = IoCounter::new();
            let out = anatomize_external(&md, 5, cfg, &pool, &counter).unwrap();
            out.stats.total()
        };
        let c1 = cost(2000);
        let c2 = cost(4000);
        let ratio = c2 as f64 / c1 as f64;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "cost ratio {ratio} not ~2 ({c1} -> {c2})"
        );
    }

    #[test]
    fn io_cost_is_a_small_multiple_of_data_size() {
        let n = 5000usize;
        let tuples: Vec<(u32, u32)> = (0..n).map(|i| (i as u32, i as u32 % 8)).collect();
        let md = md_from(&tuples, 5000, 8);
        let cfg = PageConfig::paper();
        let pool = recommended_pool(8);
        let counter = IoCounter::new();
        let out = anatomize_external(&md, 4, cfg, &pool, &counter).unwrap();
        let input_pages = cfg.pages_for(n, 8).unwrap() as u64; // d+1 = 2 fields
                                                               // read input + write/read buckets + write/read group file + write
                                                               // QIT/ST: roughly 6-7 passes over ~input-sized files.
        assert!(out.stats.total() >= 5 * input_pages);
        assert!(
            out.stats.total() <= 10 * input_pages,
            "cost {} too high",
            out.stats.total()
        );
    }

    #[test]
    fn agrees_with_in_memory_group_count_and_rejects_ineligible() {
        let tuples: Vec<(u32, u32)> = (0..50).map(|i| (i, i % 5)).collect();
        let md = md_from(&tuples, 100, 5);
        let cfg = PageConfig::with_page_size(128);
        let pool = recommended_pool(5);
        let out = anatomize_external(&md, 5, cfg, &pool, &IoCounter::new()).unwrap();
        assert_eq!(out.groups, 10);

        let skewed: Vec<(u32, u32)> = (0..10).map(|i| (i, if i < 8 { 0 } else { 1 })).collect();
        let md = md_from(&skewed, 100, 5);
        assert!(matches!(
            anatomize_external(&md, 2, cfg, &pool, &IoCounter::new()),
            Err(CoreError::NotEligible { .. })
        ));
    }

    #[test]
    fn external_output_decodes_into_validated_tables() {
        let tuples: Vec<(u32, u32)> = (0..48).map(|i| (i, i % 6)).collect();
        let md = md_from(&tuples, 100, 6);
        let cfg = PageConfig::with_page_size(64);
        let pool = recommended_pool(6);
        let out = anatomize_external(&md, 3, cfg, &pool, &IoCounter::new()).unwrap();
        let qi_schema = md.table().schema().project(&[0]).unwrap();
        let tables = out.into_tables(qi_schema, 3).unwrap();
        assert_eq!(tables.len(), 48);
        assert_eq!(tables.group_count(), out.groups);
        // from_parts validated Definition 2; spot-check the published QI
        // multiset.
        let mut orig: Vec<u32> = md.qi_codes(0).to_vec();
        let mut published: Vec<u32> = tables.qi_codes(0).to_vec();
        orig.sort_unstable();
        published.sort_unstable();
        assert_eq!(orig, published);
        // A false diversity claim is rejected at decode time.
        let qi_schema = md.table().schema().project(&[0]).unwrap();
        assert!(out.into_tables(qi_schema, 4).is_err());
    }

    #[test]
    fn empty_microdata() {
        let md = md_from(&[], 10, 5);
        let cfg = PageConfig::with_page_size(64);
        let pool = recommended_pool(5);
        let out = anatomize_external(&md, 2, cfg, &pool, &IoCounter::new()).unwrap();
        assert_eq!(out.groups, 0);
        assert!(out.qit.is_empty());
        assert!(out.st.is_empty());
    }
}
