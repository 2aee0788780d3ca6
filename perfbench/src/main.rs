//! `perfbench` — the repository's end-to-end benchmark. One command
//! publishes OCC-5 census microdata, audits the release, serves it and
//! replays COUNT-query batches against it, checking every output before
//! it prints a number.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Workloads (`BENCHMARK.json` says why each exists):
//!
//! * `publish` — microdata CSV → in-memory `anatomize` → publish → audit
//!   → QIT/ST files, at n = 100 000;
//! * `publish_sharded` — the same through the sharded out-of-core engine
//!   at n = 300 000 (Table 7's default), unaudited like the CLI default;
//! * `serve_drilldown` — an n = 300 000 release (Table 7's default)
//!   served with its microdata, one
//!   connection sending batches of one QI prefix × 50 sensitive values
//!   in exact mode.
//!
//! `--trace 0` measures for `--seconds` and prints the end-to-end
//! metrics. `--trace 1` measures half that untraced and half traced and
//! prints the per-layer ledger instead. Traced means the benchmark's own
//! span, with wall and CPU time, around every public call it makes, plus
//! the program's own instruments switched on. The last stdout line is the
//! result JSON; the line before it stamps the host and input facts. A
//! failed correctness check exits non-zero before any number is printed.
//! `--smoke` shrinks every input so the benchmark's own tests run in
//! seconds.
//!
//! The whole run is pinned to one CPU, and every end-to-end time is scaled
//! to quiet-host speed by a fixed kernel timed around it
//! (`probe::Reference`): the shared host this was written on runs a core
//! at half speed for seconds at a time, which a scaled time largely
//! cancels.

mod inputs;
mod probe;
mod publish;
mod report;
mod serve;

use std::process::ExitCode;
use std::time::Duration;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const WORKLOADS: [&str; 3] = ["publish", "publish_sharded", "serve_drilldown"];

/// The untraced run's metrics, as `(name, unit)`: what a publisher or an
/// analyst sees. An operation is one publish on the publish workloads
/// and one query batch's round trip on the serve workloads.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_cpu_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The traced run's metrics, as `(name, unit)`, one layer each.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("tables.csv_read_s", "s"),
    ("core.anatomize_s", "s"),
    ("core.publish_tables_s", "s"),
    ("core.sharded_s", "s"),
    ("core.sharded_cpu_s", "s"),
    ("core.shard_partition_s", "s"),
    ("core.bucket_split_s", "s"),
    ("core.group_schedule_s", "s"),
    ("core.bucket_assign_s", "s"),
    ("core.residue_assign_s", "s"),
    ("core.qit_merge_s", "s"),
    ("core.st_merge_s", "s"),
    ("core.sharded_other_s", "s"),
    ("core.into_tables_s", "s"),
    ("core.release_write_s", "s"),
    ("core.release_parse_s", "s"),
    ("storage.page_reads", "pages"),
    ("storage.page_writes", "pages"),
    ("storage.io_over_model", "ratio"),
    ("publish_io_pages", "pages"),
    ("audit.run_s", "s"),
    ("audit.checks_failed", "count"),
    ("failed_frac", "ratio"),
    ("query.index_build_s", "s"),
    ("query.index_bytes", "bytes"),
    ("query.batch_mean_ms", "ms"),
    ("query.batch_cpu_ms", "ms"),
    ("query.clusters_per_query", "ratio"),
    ("pool.shares_per_batch", "ratio"),
    ("pool.help_drained_frac", "ratio"),
    ("pool.share_mean_ms", "ms"),
    ("serve.server_batch_mean_ms", "ms"),
    ("serve.outside_mean_ms", "ms"),
    ("serve.busy_rejections", "count"),
    ("serve.errors", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("ledger.unattributed_frac", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload publish|publish_sharded|serve_drilldown \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long one run measures.
    pub budget: Duration,
    pub trace: bool,
    pub smoke: bool,
    /// The one CPU the run is pinned to, if the kernel allowed it.
    pub cpu: Option<usize>,
}

impl Args {
    /// The workload's input size: its full or its smoke size.
    pub fn n(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        budget: Duration::from_secs(10),
        trace: false,
        smoke: false,
        cpu: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number(flag, value)?,
            "--seconds" => args.budget = Duration::from_secs(number(flag, value)?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.budget.is_zero() {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The pool sizes itself to the CPUs the process may use when it
    // starts, so it starts first: it keeps the lanes it has on the
    // host, time-sliced on the one CPU, and its layer stays exercised.
    anatomy_pool::Pool::global();
    args.cpu = probe::pin_to_one_cpu();
    let report = match args.workload.as_str() {
        "publish" => publish::run(&args, publish::Engine::InMemory),
        "publish_sharded" => publish::run(&args, publish::Engine::Sharded),
        _ => serve::run(&args, &serve::DRILLDOWN),
    };
    match report.and_then(|r| r.print(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
