//! Fault-injection matrix over the out-of-core publish paths (the
//! external engine of Theorem 3, called directly as Figures 8–9 do, and
//! the sharded pipeline behind `Publish`).
//!
//! The hardening contract: under any scheduled physical fault — torn
//! writes, flipped bits, ENOSPC, short reads — an audited run must be
//! *loud or harmless*. Loud means a typed error whose `source` chain
//! bottoms out in a [`StorageError`] and renders cleanly through
//! [`render_chain`]; harmless means the fault never reached the data
//! (its op index fell beyond the run, or it hit a page never read back)
//! and the release passes **every invariant the `anatomy-audit`
//! registry lists for the `anatomize` stage** — the check set is asserted
//! by enumeration against the registry, so a newly registered invariant
//! joins this matrix with no edit here. A fault must never panic and
//! never yield a release that fails its own audit.
//!
//! The matrix crosses every [`FaultKind`] with a sweep of operation
//! indices and *two record codecs*: a 1-QI dataset (arity-2 `[qi, s]`
//! records, 8 bytes) and a 3-QI dataset (arity-4 records, 16 bytes).
//! The two arities pack pages differently (8 vs 4 records per 64-byte
//! page), so the same op index lands faults on different page/record
//! boundaries in each — truncation mid-record, mid-page, and at page
//! edges are all exercised without hand-picking offsets.

use anatomy::audit::names_for;
use anatomy::core::anatomize_io::{anatomize_external, recommended_pool};
use anatomy::prelude::*;
use anatomy::storage::{FaultConfig, FaultScope, StorageError};
use std::error::Error as StdError;

/// 120 rows, `qi_cols` quasi-identifier columns plus a 7-value sensitive
/// attribute; comfortably 4-eligible (max multiplicity 18 ≤ 120/4).
fn dataset(qi_cols: usize) -> Microdata {
    let mut attrs: Vec<Attribute> = (0..qi_cols)
        .map(|i| Attribute::numerical(format!("Q{i}"), 100))
        .collect();
    attrs.push(Attribute::categorical("Disease", 7));
    let schema = Schema::new(attrs).unwrap();
    let mut b = TableBuilder::new(schema);
    for i in 0..120u32 {
        let mut row: Vec<u32> = (0..qi_cols as u32).map(|c| (i * (3 + c)) % 100).collect();
        row.push(i % 7);
        b.push_row(&row).unwrap();
    }
    Microdata::with_leading_qi(b.finish(), qi_cols).unwrap()
}

/// What an audited run published: its tables, I/O bill and audit report.
#[derive(Debug)]
struct AuditedRun {
    tables: AnatomizedTables,
    io: IoStats,
    audit: AuditReport,
}

/// One external run with tiny pages (many page boundaries), decoded and
/// audited the way `Publish::audit` audits a release.
fn audited_external_run(md: &Microdata) -> Result<AuditedRun, anatomy::Error> {
    let pool = recommended_pool(md.sensitive_domain_size() as usize);
    let out = anatomize_external(
        md,
        4,
        PageConfig::with_page_size(64),
        &pool,
        &IoCounter::new(),
    )?;
    let qi_schema = md.table().schema().project(md.qi_columns())?;
    let tables = out.into_tables(qi_schema, 4)?;
    let audit = audit_release(&tables, 4);
    Ok(AuditedRun {
        tables,
        io: out.stats,
        audit,
    })
}

/// One audited sharded run with the same tiny pages. The out-of-core
/// pipeline has six phases touching pages (count, schedule, assign,
/// residue, the QIT join and the ST merge), all on the calling thread, and
/// the op sweep covers every page operation of a clean run. A failed
/// audit is an `Err` without a storage cause, which `classify` rejects.
fn audited_sharded_run(md: &Microdata) -> Result<AuditedRun, anatomy::Error> {
    let shard = ShardConfig::new(PageConfig::with_page_size(64), 2, 6).unwrap();
    let release = Publish::new(md)
        .l(4)
        .engine(Engine::Sharded(shard))
        .audit()
        .run()?;
    Ok(AuditedRun {
        tables: release.tables,
        io: release.io.expect("sharded runs bill I/O"),
        audit: release.audit.expect("audited run carries a report"),
    })
}

/// What a faulted run is allowed to do.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// The run succeeded and its audit passed every check.
    CleanRelease,
    /// The run failed with a `StorageError` reachable via the chain.
    StorageFault,
}

/// Assert the loud-or-harmless contract and classify the outcome. A
/// clean release must have run *exactly* the invariants the registry
/// lists for the `anatomize` stage — not a subset that happens to pass —
/// and every one of them must hold.
fn classify(result: Result<AuditedRun, anatomy::Error>, ctx: &str) -> Outcome {
    match result {
        Ok(run) => {
            let report = run.audit;
            assert!(
                report.passed(),
                "{ctx}: release published but failed its audit:\n{}",
                report.render()
            );
            assert_eq!(
                report.stage,
                Stage::Anatomize,
                "{ctx}: audit ran at the wrong stage"
            );
            let (_, checks) = report.summary();
            let mut got: Vec<&str> = checks.iter().map(|(name, _)| name.as_str()).collect();
            let mut expected = names_for(Stage::Anatomize);
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(
                got, expected,
                "{ctx}: audit ran a different check set than the registry lists"
            );
            Outcome::CleanRelease
        }
        Err(err) => {
            // Render first: the report itself must not panic on any chain.
            let rendered = render_chain(&err);
            let mut cur: Option<&(dyn StdError + 'static)> = Some(&err);
            let mut storage = None;
            while let Some(e) = cur {
                if let Some(se) = e.downcast_ref::<StorageError>() {
                    storage = Some(se.clone());
                    break;
                }
                cur = e.source();
            }
            assert!(
                storage.is_some(),
                "{ctx}: error chain carries no StorageError:\n{rendered}"
            );
            assert!(
                rendered.contains("storage error:"),
                "{ctx}: rendered chain does not name the storage layer:\n{rendered}"
            );
            Outcome::StorageFault
        }
    }
}

/// An audited run of one engine.
type Runner = fn(&Microdata) -> Result<AuditedRun, anatomy::Error>;

/// A bound on the page operations a clean run of `run` makes on the
/// calling thread, for either kind: both engines first stage the input,
/// unbilled, as `(qi…, s)` records, then make the reads and writes their
/// I/O bill reports.
fn op_bound(run: Runner, md: &Microdata) -> u64 {
    let io = run(md).expect("a clean run").io;
    let staged = PageConfig::with_page_size(64)
        .pages_for(md.len(), 4 * (md.qi_count() + 1))
        .unwrap();
    staged as u64 + io.page_reads + io.page_writes
}

/// Every fault kind × every op index up to the end of a clean run × both
/// codecs: loud or harmless, and each kind must actually fire loudly at
/// least once per codec.
#[test]
fn fault_matrix_is_loud_or_harmless() {
    type Schedule = Box<dyn Fn(u64) -> FaultConfig>;
    let kinds: Vec<(&str, Schedule)> = vec![
        (
            "short_write",
            Box::new(|op| FaultConfig::new().short_write(op, 3)),
        ),
        (
            "bit_flip_write",
            Box::new(|op| FaultConfig::new().bit_flip_write(op, 137)),
        ),
        ("disk_full", Box::new(|op| FaultConfig::new().disk_full(op))),
        (
            "short_read",
            Box::new(|op| FaultConfig::new().short_read(op, 5)),
        ),
        (
            "bit_flip_read",
            Box::new(|op| FaultConfig::new().bit_flip_read(op, 311)),
        ),
    ];

    let engines: [(&str, Runner); 2] = [
        ("external", audited_external_run),
        ("sharded", audited_sharded_run),
    ];
    for (engine, run) in engines {
        for (codec, md) in [("arity2", dataset(1)), ("arity4", dataset(3))] {
            let bound = op_bound(run, &md);
            for (name, schedule) in &kinds {
                let mut loud = 0;
                for op in 0..=bound {
                    let ctx = format!("{engine}/{codec}/{name}@op{op}");
                    let scope = FaultScope::install(schedule(op));
                    let outcome = classify(run(&md), &ctx);
                    drop(scope);
                    if outcome == Outcome::StorageFault {
                        loud += 1;
                    }
                }
                assert!(
                    loud > 0,
                    "{engine}/{codec}/{name}: fault never surfaced across the op sweep"
                );
            }
        }
    }
}

/// A fault scheduled far past the run's last page operation never fires:
/// the release is clean and bit-identical in I/O cost to a run with no
/// scope installed at all (the Figure 8–9 fault-free contract).
#[test]
fn unfired_faults_leave_the_run_untouched() {
    let md = dataset(1);
    for run in [audited_external_run as Runner, audited_sharded_run] {
        let baseline = run(&md).unwrap();

        let scope = FaultScope::install(
            FaultConfig::new()
                .disk_full(1_000_000)
                .short_read(1_000_000, 0),
        );
        let shadowed = run(&md).unwrap();
        drop(scope);

        assert_eq!(baseline.tables, shadowed.tables);
        assert_eq!(baseline.io, shadowed.io);
        assert_eq!(classify(Ok(shadowed), "unfired"), Outcome::CleanRelease);
    }
}

/// Seeded pseudo-random schedules through both engines: whatever
/// splitmix64 lands on, the contract holds. Seeds are deterministic, so
/// failures reproduce.
#[test]
fn seeded_schedules_hold_the_contract() {
    let md = dataset(3);
    let engines: [(&str, Runner); 2] = [
        ("external", audited_external_run),
        ("sharded", audited_sharded_run),
    ];
    for (engine, run) in engines {
        let mut loud = 0;
        for seed in 0..48u64 {
            let cfg = FaultConfig::seeded(seed);
            let ctx = format!(
                "{engine}: seeded({seed}) = {:?}",
                cfg.faults().collect::<Vec<_>>()
            );
            let scope = FaultScope::install(cfg);
            let outcome = classify(run(&md), &ctx);
            drop(scope);
            if outcome == Outcome::StorageFault {
                loud += 1;
            }
        }
        // Most random schedules land inside the run's op range and must
        // be loud; an all-harmless sweep would mean injection is
        // disconnected.
        assert!(
            loud > 10,
            "{engine}: only {loud}/48 seeded schedules surfaced"
        );
    }
}

/// The CLI-facing rendering of a mid-pipeline storage fault: one frame
/// per layer, deepest frame naming the page and the physical defect.
#[test]
fn fault_chains_render_one_layer_per_line() {
    let md = dataset(1);
    let scope = FaultScope::install(FaultConfig::new().bit_flip_read(0, 42));
    let err = audited_external_run(&md).unwrap_err();
    drop(scope);

    let rendered = render_chain(&err);
    assert!(rendered.contains("checksum mismatch"), "{rendered}");
    // The facade wrapper embeds the core text, which embeds the storage
    // text, so the renderer collapses them into a single line.
    assert_eq!(rendered.lines().count(), 1, "{rendered}");
    let ctx = err.context("publishing CENSUS");
    let rendered = render_chain(&ctx);
    assert!(rendered.lines().count() >= 2, "{rendered}");
    assert!(rendered.contains("caused by:"), "{rendered}");
}
