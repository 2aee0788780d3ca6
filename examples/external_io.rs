//! External anonymization under the paper's disk model (Section 6.2 in
//! miniature).
//!
//! ```text
//! cargo run --release --example external_io
//! ```
//!
//! Runs the I/O-accounted external `Anatomize` (Theorem 3), the sharded
//! out-of-core engine behind `Engine::Sharded`, and external Mondrian on
//! the same SAL-5 microdata with 4096-byte pages, and prints the logical
//! I/O bill of each — the quantity plotted in Figures 8–9.

use anatomy::core::anatomize_io::{anatomize_external, recommended_pool};
use anatomy::core::{model_pages, ShardConfig};
use anatomy::data::census::{generate_census, CensusConfig};
use anatomy::data::occ_sal::sal_microdata;
use anatomy::data::taxonomies::census_methods;
use anatomy::generalization::{mondrian_external, MondrianConfig};
use anatomy::prelude::{Engine, Publish};
use anatomy::storage::{BufferPool, IoCounter, PageConfig, PAPER_MEMORY_PAGES};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 40_000;
    let census = generate_census(&CensusConfig::new(n));
    let md = sal_microdata(census, 5)?;
    let l = 10;
    let page = PageConfig::paper();
    println!(
        "SAL-5 microdata: {} tuples; disk model: {}-byte pages",
        md.len(),
        page.page_size
    );

    // External Anatomize: O(n/b) I/Os with O(λ) buffer pages (Theorem 3).
    let counter = IoCounter::new();
    let pool = recommended_pool(md.sensitive_domain_size() as usize);
    let out = anatomize_external(&md, l, page, &pool, &counter)?;
    println!(
        "\nanatomize_external: {} QI-groups, QIT {} pages, ST {} pages",
        out.groups,
        out.qit.page_count(),
        out.st.page_count()
    );
    println!("  I/O bill: {}", out.stats);

    // Sharded engine: the same O(n/b) bound at 10M–100M-tuple scale,
    // bit-identical tables to the in-memory ladder. The facade's
    // `Engine::Sharded` drives it and reports the bill in the release.
    let shard = ShardConfig::new(page, 4, 16)?;
    let release = Publish::new(&md)
        .l(l)
        .engine(Engine::Sharded(shard))
        .run()?;
    let stats = release.io.expect("sharded runs report I/O");
    println!(
        "\nEngine::Sharded: {} QI-groups with a {}-page budget",
        release.tables.group_count(),
        shard.budget()
    );
    println!(
        "  I/O bill: {} (model: {} pages)",
        stats,
        model_pages(
            md.len(),
            md.qi_count(),
            md.sensitive_domain_size() as usize,
            l,
            &shard
        )
    );

    // External Mondrian: Θ((n/b) log(n/l)) I/Os with the paper's 50-page
    // memory.
    let counter = IoCounter::new();
    let pool = BufferPool::new(PAPER_MEMORY_PAGES);
    let cfg = MondrianConfig {
        l,
        methods: census_methods(md.qi_count()),
    };
    let gen = mondrian_external(&md, &cfg, page, &pool, &counter)?;
    println!(
        "\nmondrian_external: {} QI-groups, table {} pages",
        gen.groups,
        gen.table.page_count()
    );
    println!("  I/O bill: {}", gen.stats);

    let speedup = gen.stats.total() as f64 / out.stats.total() as f64;
    println!("\nanatomy used {speedup:.1}x fewer page I/Os than generalization.");
    Ok(())
}
