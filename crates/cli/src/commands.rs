//! Command implementations. Each returns the report text it would print,
//! so tests can assert on output without capturing stdout.

use crate::args::EngineArg;
use crate::schema_file;
use crate::{CliResult, Command};
use anatomy::audit::{audit_parts_for, audit_release_for, render_registry, Stage};
use anatomy::storage::PageConfig;
use anatomy::{Engine, Error, Publish};
use anatomy_core::diversity::max_feasible_l;
use anatomy_core::release::{parse_release_parts, qit_to_csv, st_to_csv};
use anatomy_core::{AnatomizedTables, ShardConfig, StRecord};
use anatomy_obs::RunManifest;
use anatomy_pool::Pool;
use anatomy_query::{estimate_anatomy_batch_v2, workload_from_text, QueryIndexV2};
use anatomy_serve::{ServeConfig, ServedRelease, Server};
use anatomy_tables::{csv, Microdata, Schema, Table, TableBuilder, TablesError};
use std::fmt::Write as _;
use std::fs;

/// Turns the global observability registry on for a `--metrics` run and
/// restores the previous state on drop, error paths included, so a CLI
/// call never changes what the embedding process observes.
struct MetricsScope {
    prev: bool,
}

impl MetricsScope {
    fn new(wanted: bool) -> MetricsScope {
        let obs = anatomy_obs::global();
        let prev = obs.enabled();
        if wanted {
            obs.set_enabled(true);
        }
        MetricsScope { prev }
    }
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        anatomy_obs::global().set_enabled(self.prev);
    }
}

fn write_metrics(path: &str, manifest: &RunManifest) -> CliResult<()> {
    fs::write(path, manifest.to_json()).map_err(|e| Error::msg(format!("cannot write {path}: {e}")))
}

/// Turns the trace journal on for a `--trace` run, remembers where the
/// journals stood, and restores the previous tracer state on drop. Like
/// [`MetricsScope`], error paths leave no lasting flag change; the trace
/// file itself is only written by an explicit [`TraceScope::write`] on
/// the success path.
struct TraceScope {
    prev: bool,
    mark: anatomy_obs::TraceMark,
}

impl TraceScope {
    fn begin() -> TraceScope {
        let tracer = anatomy_obs::tracer();
        let prev = tracer.enabled();
        let mark = tracer.mark();
        tracer.set_enabled(true);
        TraceScope { prev, mark }
    }

    /// Export everything journaled since [`TraceScope::begin`] to
    /// `path` (JSONL iff the path ends in `.jsonl`, Chrome trace-event
    /// JSON otherwise).
    fn write(&self, path: &str) -> CliResult<()> {
        anatomy_obs::tracer()
            .snapshot_since(&self.mark)
            .write_to(path)
            .map_err(|e| Error::msg(format!("cannot write {path}: {e}")))
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        anatomy_obs::tracer().set_enabled(self.prev);
    }
}

/// Execute a parsed command, returning the report to print.
pub fn run(cmd: &Command) -> CliResult<String> {
    match cmd {
        Command::Stats {
            data,
            schema,
            sensitive,
        } => stats(data, schema, sensitive),
        Command::Publish {
            data,
            schema,
            sensitive,
            l,
            qit,
            st,
            seed,
            engine,
            audit,
            metrics,
            trace,
        } => publish(
            data,
            schema,
            sensitive,
            *l,
            qit,
            st,
            *seed,
            engine,
            *audit,
            metrics.as_deref(),
            trace.as_deref(),
        ),
        Command::Verify {
            qit,
            st,
            schema,
            sensitive,
            l,
            stage,
        } => verify(qit, st, schema, sensitive, *l, stage.as_deref()),
        Command::ListChecks { stage } => Ok(render_registry(parse_stage(stage.as_deref())?)),
        Command::Query {
            qit,
            st,
            schema,
            sensitive,
            l,
            query,
            metrics,
            trace,
        } => query_cmd(
            qit,
            st,
            schema,
            sensitive,
            *l,
            query,
            metrics.as_deref(),
            trace.as_deref(),
        ),
        Command::Serve {
            qit,
            st,
            schema,
            sensitive,
            l,
            data,
            listen,
            port_file,
            name,
            max_inflight,
            max_batch,
            slowlog_threshold_ms,
            slowlog_capacity,
        } => serve(
            qit,
            st,
            schema,
            sensitive,
            *l,
            data.as_deref(),
            listen,
            port_file.as_deref(),
            name,
            *max_inflight,
            *max_batch,
            *slowlog_threshold_ms,
            *slowlog_capacity,
        ),
        Command::Top {
            connect,
            interval_ms,
            iterations,
            scrape,
            slowlog,
        } => top(
            connect,
            *interval_ms,
            *iterations,
            scrape.as_deref(),
            *slowlog,
        ),
    }
}

/// Resolve an optional `--stage` value against the registry's stage
/// names, so a typo'd stage is a usage error naming the valid set.
fn parse_stage(stage: Option<&str>) -> CliResult<Option<Stage>> {
    match stage {
        None => Ok(None),
        Some(s) => Stage::parse(s).map(Some).ok_or_else(|| {
            let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
            Error::msg(format!(
                "--stage must be one of {}; got `{s}`",
                names.join(", ")
            ))
        }),
    }
}

fn read_file(path: &str) -> CliResult<String> {
    fs::read_to_string(path).map_err(|e| Error::msg(format!("cannot read {path}: {e}")))
}

fn load_schema(path: &str) -> CliResult<Schema> {
    schema_file::parse(&read_file(path)?)
}

/// The schema's column index of the sensitive attribute, plus the QI
/// column list (everything else, in schema order).
fn designate(schema: &Schema, sensitive: &str) -> CliResult<(Vec<usize>, usize)> {
    let s_col = schema
        .index_of(sensitive)
        .map_err(|_| Error::msg(format!("sensitive attribute `{sensitive}` not in schema")))?;
    let qi: Vec<usize> = (0..schema.width()).filter(|&i| i != s_col).collect();
    if qi.is_empty() {
        return Err("schema needs at least one QI attribute besides the sensitive one".into());
    }
    Ok((qi, s_col))
}

fn load_microdata(data_path: &str, schema: &Schema, sensitive: &str) -> CliResult<Microdata> {
    let (qi, s_col) = designate(schema, sensitive)?;
    let table = csv::from_str(schema.clone(), &read_file(data_path)?)
        .map_err(|e| Error::from(e).context(format!("cannot load {data_path}")))?;
    Ok(Microdata::new(table, qi, s_col)?)
}

fn stats(data: &str, schema_path: &str, sensitive: &str) -> CliResult<String> {
    let schema = load_schema(schema_path)?;
    let md = load_microdata(data, &schema, sensitive)?;
    let mut out = String::new();
    let _ = writeln!(out, "tuples: {}", md.len());
    let _ = writeln!(out, "QI attributes ({}):", md.qi_count());
    for (i, &col) in md.qi_columns().iter().enumerate() {
        let attr = schema.attribute(col)?;
        let hist = anatomy_tables::stats::Histogram::of_column(md.qi_codes(i), attr.domain_size());
        let _ = writeln!(
            out,
            "  {} ({}, |A| = {}, {} values used)",
            attr.name(),
            attr.kind(),
            attr.domain_size(),
            hist.distinct()
        );
    }
    let s_attr = schema.attribute(md.sensitive_column())?;
    let s_hist =
        anatomy_tables::stats::Histogram::of_column(md.sensitive_codes(), s_attr.domain_size());
    let _ = writeln!(
        out,
        "sensitive: {} (|A| = {}, {} values used)",
        s_attr.name(),
        s_attr.domain_size(),
        s_hist.distinct()
    );
    match max_feasible_l(&md) {
        Some(l_max) => {
            let _ = writeln!(out, "max feasible l: {l_max}");
            if l_max < 2 {
                let _ = writeln!(
                    out,
                    "warning: no l-diverse publication exists; consider suppression \
                     (anatomy_core::diversity::suppress_to_eligibility)"
                );
            }
        }
        None => {
            let _ = writeln!(out, "max feasible l: undefined (no tuples)");
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn publish(
    data: &str,
    schema_path: &str,
    sensitive: &str,
    l: usize,
    qit_path: &str,
    st_path: &str,
    seed: u64,
    engine: &EngineArg,
    audit: bool,
    metrics: Option<&str>,
    trace: Option<&str>,
) -> CliResult<String> {
    let schema = load_schema(schema_path)?;
    let md = load_microdata(data, &schema, sensitive)?;
    let engine = match engine {
        EngineArg::InMemory => Engine::InMemory,
        EngineArg::Sharded {
            page_size,
            shards,
            pages_per_shard,
        } => Engine::Sharded(ShardConfig::new(
            PageConfig::new(*page_size)?,
            *shards,
            *pages_per_shard,
        )?),
    };
    let _scope = MetricsScope::new(metrics.is_some());
    let trace_scope = trace.map(|_| TraceScope::begin());
    let mut builder = Publish::new(&md)
        .l(l)
        .seed(seed)
        .engine(engine)
        .name("cli.publish");
    if audit {
        builder = builder.audit();
    }
    let release = builder
        .run()
        .map_err(|e| e.context(format!("publishing {data}")))?;
    let tables = &release.tables;
    fs::write(qit_path, qit_to_csv(tables))
        .map_err(|e| Error::msg(format!("cannot write {qit_path}: {e}")))?;
    fs::write(st_path, st_to_csv(tables))
        .map_err(|e| Error::msg(format!("cannot write {st_path}: {e}")))?;
    let mut out = format!(
        "published {} tuples in {} QI-groups (l = {l})\nQIT -> {qit_path}\nST  -> {st_path}\n",
        tables.len(),
        tables.group_count()
    );
    if let Some(report) = &release.audit {
        let (_, checks) = report.summary();
        let _ = writeln!(
            out,
            "audit: PASS ({} checks, stage {})",
            checks.len(),
            report.stage.name()
        );
    }
    if let Some(stats) = release.io {
        let _ = writeln!(out, "I/O bill: {stats}");
    }
    if let Some(path) = metrics {
        write_metrics(path, &release.manifest)?;
        let _ = writeln!(out, "metrics -> {path}");
    }
    if let (Some(path), Some(scope)) = (trace, &trace_scope) {
        scope.write(path)?;
        let _ = writeln!(out, "trace -> {path}");
    }
    Ok(out)
}

/// Parse a release from disk, returning the validated tables.
fn load_release(
    qit_path: &str,
    st_path: &str,
    schema_path: &str,
    sensitive: &str,
    l: usize,
) -> CliResult<(Schema, AnatomizedTables)> {
    let schema = load_schema(schema_path)?;
    let (qi, s_col) = designate(&schema, sensitive)?;
    let qi_schema = schema.project(&qi)?;
    let context = || format!("cannot load release {qit_path} / {st_path}");
    let (qit, group_ids, st) =
        parse_release_parts(qi_schema, &read_file(qit_path)?, &read_file(st_path)?)
            .map_err(|e| Error::from(e).context(context()))?;
    check_st_domain(&st, &schema, s_col).map_err(|e| e.context(context()))?;
    let tables = AnatomizedTables::from_parts(qit, group_ids, st, l)
        .map_err(|e| Error::from(e).context(context()))?;
    Ok((schema, tables))
}

/// Refuse an ST record whose sensitive value lies outside the schema's
/// domain. The release's own invariants cannot see the schema, so such a
/// record passes every structural check, and a query over it would index
/// past the domain. `query`, `serve` and `verify` all run this check.
fn check_st_domain(st: &[StRecord], schema: &Schema, s_col: usize) -> CliResult<()> {
    let attr = schema.attribute(s_col)?;
    let domain_size = attr.domain_size();
    match st.iter().position(|r| r.value.code() >= domain_size) {
        None => Ok(()),
        Some(i) => {
            let r = &st[i];
            Err(Error::from(TablesError::ValueOutOfDomain {
                attribute: attr.name().to_string(),
                code: r.value.code(),
                domain_size,
            })
            .context(format!(
                "ST record {} (Group-ID {}, value {}) is outside the sensitive domain",
                i + 1,
                r.group as u64 + 1,
                r.value.code()
            )))
        }
    }
}

/// `anatomy verify`: every registered invariant of one stage over a
/// release (default stage: `anatomize`), plus the worst adversary
/// posterior.
///
/// Parsing is deliberately lenient — `parse_release_parts` checks only
/// CSV syntax and schema conformance, and [`check_st_domain`] the ST's
/// sensitive values — so a *corrupt* release reaches the auditor instead
/// of dying in the strict `from_parts` validation.
/// When the structural checks pass, the release is re-assembled and the
/// release-level checks (query-layer consistency, and for `--stage
/// incremental` the emission-order shape check) run too. Any failed
/// check makes the command fail (nonzero exit from the binary), with
/// the per-check report as the error text.
fn verify(
    qit_path: &str,
    st_path: &str,
    schema_path: &str,
    sensitive: &str,
    l: usize,
    stage: Option<&str>,
) -> CliResult<String> {
    let stage = parse_stage(stage)?.unwrap_or(Stage::Anatomize);
    let schema = load_schema(schema_path)?;
    let (qi, s_col) = designate(&schema, sensitive)?;
    let qi_schema = schema.project(&qi)?;
    let context = || format!("cannot parse release {qit_path} / {st_path}");
    let (qit, group_ids, st) =
        parse_release_parts(qi_schema, &read_file(qit_path)?, &read_file(st_path)?)
            .map_err(|e| Error::from(e).context(context()))?;
    check_st_domain(&st, &schema, s_col).map_err(|e| e.context(context()))?;
    let structural = audit_parts_for(stage, &group_ids, &st, l);
    let report = if structural.passed() {
        // Structure holds, so strict re-assembly cannot fail; run the
        // full battery including the release-level checks.
        match AnatomizedTables::from_parts(qit, group_ids, st, l) {
            Ok(tables) => audit_release_for(stage, &tables, l),
            Err(_) => structural,
        }
    } else {
        structural
    };
    let rendered = report.render();
    match report.into_failure() {
        None => Ok(rendered),
        Some(failure) => Err(Error::from(failure).context(rendered.trim_end().to_string())),
    }
}

#[allow(clippy::too_many_arguments)]
fn query_cmd(
    qit_path: &str,
    st_path: &str,
    schema_path: &str,
    sensitive: &str,
    l: usize,
    query: &str,
    metrics: Option<&str>,
    trace: Option<&str>,
) -> CliResult<String> {
    let (schema, tables) = load_release(qit_path, st_path, schema_path, sensitive, l)?;
    let (qi, s_col) = designate(&schema, sensitive)?;
    // An empty microdata carries the domains the query parser validates
    // against.
    let empty = Microdata::new(empty_table(&schema), qi, s_col)?;
    let queries = workload_from_text(&empty, query)?;
    if queries.is_empty() {
        return Err(Error::msg("no query given"));
    }
    let _scope = MetricsScope::new(metrics.is_some());
    let trace_scope = trace.map(|_| TraceScope::begin());
    let before = anatomy_obs::global().snapshot();
    // The evaluator `anatomy serve` runs: build the v2 index once and
    // answer the whole workload on the persistent pool. Its estimates are
    // bit-identical to the scalar `estimate_anatomy` oracle.
    let index = QueryIndexV2::from_published(&tables);
    let estimates = estimate_anatomy_batch_v2(Pool::global(), &index, &tables, &queries);
    let mut out = String::new();
    for (q, est) in queries.iter().zip(&estimates) {
        let _ = writeln!(out, "{q}\n  estimate: {est:.3}");
    }
    if let Some(path) = metrics {
        let manifest = RunManifest::capture_since("cli.query", anatomy_obs::global(), &before)
            .with_param("queries", queries.len() as u64)
            .with_param("l", l as u64);
        write_metrics(path, &manifest)?;
        let _ = writeln!(out, "metrics -> {path}");
    }
    if let (Some(path), Some(scope)) = (trace, &trace_scope) {
        scope.write(path)?;
        let _ = writeln!(out, "trace -> {path}");
    }
    Ok(out)
}

fn empty_table(schema: &Schema) -> Table {
    TableBuilder::new(schema.clone()).finish()
}

/// Load a release (and optionally its microdata), build the query index
/// once, and serve batches until a client sends `SHUTDOWN`.
#[allow(clippy::too_many_arguments)]
fn serve(
    qit_path: &str,
    st_path: &str,
    schema_path: &str,
    sensitive: &str,
    l: usize,
    data: Option<&str>,
    listen: &str,
    port_file: Option<&str>,
    name: &str,
    max_inflight: usize,
    max_batch: usize,
    slowlog_threshold_ms: u64,
    slowlog_capacity: usize,
) -> CliResult<String> {
    let (schema, tables) = load_release(qit_path, st_path, schema_path, sensitive, l)?;
    let release = match data {
        Some(data_path) => {
            let md = load_microdata(data_path, &schema, sensitive)?;
            ServedRelease::exact(name, md, tables)
                .map_err(|e| Error::from(e).context("cannot build the query index"))?
        }
        None => {
            let (qi, s_col) = designate(&schema, sensitive)?;
            // No microdata: parse queries against the schema's domains
            // and serve the anatomy estimator only.
            let domains = Microdata::new(empty_table(&schema), qi, s_col).map_err(Error::from)?;
            ServedRelease::estimate_only(name, domains, tables)
        }
    };
    // Refuse to serve a release that fails any registered invariant:
    // every answer would otherwise come from a corrupt or non-diverse
    // publication.
    let report = release.audit();
    if !report.passed() {
        let rendered = report.render();
        if let Some(failure) = report.into_failure() {
            return Err(Error::from(failure).context(rendered.trim_end().to_string()));
        }
    }
    let exact = release.serves_exact();
    let server = Server::bind(
        ServeConfig {
            listen: listen.to_string(),
            max_inflight,
            max_batch,
            slowlog_threshold: Some(std::time::Duration::from_millis(slowlog_threshold_ms)),
            slowlog_capacity,
            ..ServeConfig::default()
        },
        vec![release],
    )
    .map_err(|e| Error::msg(format!("cannot listen on {listen}: {e}")))?;
    let addr = server.addr().to_string();
    // Announce the bound address (and drop it in --port-file) before
    // blocking in the accept loop, so scripts can discover an ephemeral
    // port. Stdout is line-buffered, so this is visible immediately.
    println!(
        "serving release `{name}` ({}) on {addr}",
        if exact {
            "exact+estimate"
        } else {
            "estimate only"
        }
    );
    if let Some(path) = port_file {
        fs::write(path, &addr).map_err(|e| Error::msg(format!("cannot write {path}: {e}")))?;
    }
    let summary = server
        .run()
        .map_err(|e| Error::msg(format!("serve failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} batches ({} queries)",
        summary.batches, summary.queries
    );
    let _ = writeln!(
        out,
        "overloaded {} protocol/query errors {}",
        summary.overloaded, summary.errors
    );
    // The retained slow-query log, dumped so post-mortems survive the
    // process (newest first, same JSON lines the SLOWLOG verb answers).
    if !summary.slow.is_empty() {
        let _ = writeln!(out, "slow queries retained: {}", summary.slow.len());
        for entry in &summary.slow {
            let _ = writeln!(out, "{}", entry.to_json());
        }
    }
    Ok(out)
}

/// Pull one value out of an exposition, rendered as a short cell.
fn top_cell(text: &str, family: &str, labels: &[(&str, &str)]) -> String {
    match anatomy_obs::sample_value(text, family, labels) {
        Some(v) if v == v.trunc() && v.abs() < 1e15 => format!("{}", v as i64),
        Some(v) => format!("{v:.1}"),
        None => "-".to_string(),
    }
}

/// Window labels advertised by an exposition's `anatomy_window_seconds`
/// metadata family, in emission order (fine ring first).
fn top_windows(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("anatomy_window_seconds{window=\"") {
            if let Some(end) = rest.find('"') {
                out.push(rest[..end].to_string());
            }
        }
    }
    out
}

/// Render one `top` frame from a scraped exposition.
fn render_top_frame(text: &str, addr: &str, frame: usize) -> String {
    let windows = top_windows(text);
    let ns_to_ms = |cell: String| -> String {
        match cell.parse::<f64>() {
            Ok(ns) => format!("{:.2}ms", ns / 1e6),
            Err(_) => cell,
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "anatomy top — {addr} (frame {frame})");
    let _ = writeln!(
        out,
        "  batches {}  queries {}  errors {}  busy {}",
        top_cell(text, "anatomy_serve_batches", &[]),
        top_cell(text, "anatomy_serve_queries", &[]),
        top_cell(text, "anatomy_serve_errors", &[]),
        top_cell(text, "anatomy_serve_busy_rejections", &[]),
    );
    let _ = writeln!(
        out,
        "  in-flight {}  connections {}  index bytes v2 {} v1 {}",
        top_cell(text, "anatomy_serve_in_flight", &[]),
        top_cell(text, "anatomy_serve_connections_open", &[]),
        top_cell(text, "anatomy_query_index_v2_bytes", &[]),
        top_cell(text, "anatomy_query_index_bytes", &[]),
    );
    for w in &windows {
        let wl = [("window", w.as_str())];
        let q = |quantile: &str| {
            ns_to_ms(top_cell(
                text,
                "anatomy_span_ns_serve_batch",
                &[("window", w), ("quantile", quantile)],
            ))
        };
        let _ = writeln!(
            out,
            "  [{w}] qps {}  batch/s {}  busy/s {}  p50 {}  p90 {}  p99 {}  max {}",
            top_cell(text, "anatomy_serve_queries_rate", &wl),
            top_cell(text, "anatomy_serve_batches_rate", &wl),
            top_cell(text, "anatomy_serve_busy_rejections_rate", &wl),
            q("0.5"),
            q("0.9"),
            q("0.99"),
            ns_to_ms(top_cell(text, "anatomy_span_ns_serve_batch_max", &wl)),
        );
    }
    if windows.is_empty() {
        let _ = writeln!(out, "  (no window aggregates yet — sampler warming up)");
    }
    out
}

/// `anatomy top`: poll a running server's `METRICS` endpoint. One-shot
/// modes (`--scrape`, `--slowlog`) exist so scripts and the CI smoke
/// can reuse the same entry point non-interactively.
fn top(
    connect: &str,
    interval_ms: u64,
    iterations: Option<usize>,
    scrape: Option<&str>,
    slowlog: Option<usize>,
) -> CliResult<String> {
    let mut client = anatomy_serve::ServeClient::connect(connect)
        .map_err(|e| Error::msg(format!("cannot connect to {connect}: {e}")))?;
    let fetch = |client: &mut anatomy_serve::ServeClient| -> CliResult<String> {
        client
            .metrics()
            .map_err(|e| Error::msg(format!("METRICS request failed: {e}")))
    };
    if let Some(path) = scrape {
        let text = fetch(&mut client)?;
        anatomy_obs::validate_exposition(&text)
            .map_err(|e| Error::msg(format!("server sent an invalid exposition: {e}")))?;
        if path == "-" {
            return Ok(text);
        }
        fs::write(path, &text).map_err(|e| Error::msg(format!("cannot write {path}: {e}")))?;
        return Ok(format!(
            "scrape -> {path} ({} lines)\n",
            text.lines().count()
        ));
    }
    if let Some(n) = slowlog {
        let entries = client
            .slowlog(n)
            .map_err(|e| Error::msg(format!("SLOWLOG request failed: {e}")))?;
        let mut out = String::new();
        let _ = writeln!(out, "slow queries (newest first): {}", entries.len());
        for e in &entries {
            let _ = writeln!(out, "{}", e.to_json());
        }
        return Ok(out);
    }
    // Live mode: redraw in place on a terminal, append frames otherwise
    // (so piping to a file keeps every frame).
    use std::io::IsTerminal as _;
    let live = std::io::stdout().is_terminal();
    let mut frame = 0usize;
    loop {
        let text = fetch(&mut client)?;
        let rendered = render_top_frame(&text, connect, frame);
        if live {
            print!("\x1b[2J\x1b[H{rendered}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        } else {
            print!("{rendered}");
        }
        frame += 1;
        if iterations.is_some_and(|n| frame >= n) {
            return Ok(String::new());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A scratch directory unique to this test run.
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("anatomy-cli-test-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(dir: &std::path::Path, name: &str, contents: &str) -> String {
        let p = dir.join(name);
        fs::write(&p, contents).unwrap();
        p.to_string_lossy().into_owned()
    }

    const SCHEMA: &str = "Age:numerical:100\nSex:categorical:2\nDisease:categorical:5\n";

    fn demo_data() -> String {
        let mut s = String::from("Age,Sex,Disease\n");
        for i in 0..40u32 {
            s.push_str(&format!("{},{},{}\n", 20 + i, i % 2, i % 5));
        }
        s
    }

    #[test]
    fn stats_reports_budget() {
        let dir = scratch("stats");
        let data = write(&dir, "d.csv", &demo_data());
        let schema = write(&dir, "s.txt", SCHEMA);
        let report = run(&Command::Stats {
            data,
            schema,
            sensitive: "Disease".into(),
        })
        .unwrap();
        assert!(report.contains("tuples: 40"));
        assert!(report.contains("max feasible l: 5"));
        assert!(report.contains("Age"));
    }

    #[test]
    fn engines_publish_identical_releases_from_the_cli() {
        // The sharded engine honors the seed, so its CSVs must equal the
        // in-memory engine's byte-for-byte.
        let dir = scratch("engines");
        let data = write(&dir, "d.csv", &demo_data());
        let schema = write(&dir, "s.txt", SCHEMA);
        let publish_with = |tag: &str, engine: EngineArg| {
            let qit = dir
                .join(format!("{tag}-qit.csv"))
                .to_string_lossy()
                .into_owned();
            let st = dir
                .join(format!("{tag}-st.csv"))
                .to_string_lossy()
                .into_owned();
            let report = run(&Command::Publish {
                data: data.clone(),
                schema: schema.clone(),
                sensitive: "Disease".into(),
                l: 4,
                qit: qit.clone(),
                st: st.clone(),
                seed: 3,
                engine,
                audit: false,
                metrics: None,
                trace: None,
            })
            .unwrap();
            (
                report,
                fs::read_to_string(qit).unwrap(),
                fs::read_to_string(st).unwrap(),
            )
        };

        let (_, qit_mem, st_mem) = publish_with("mem", EngineArg::InMemory);
        let (report, qit_sh, st_sh) = publish_with(
            "sharded",
            EngineArg::Sharded {
                page_size: 64,
                shards: 2,
                pages_per_shard: 6,
            },
        );
        assert_eq!(qit_mem, qit_sh);
        assert_eq!(st_mem, st_sh);
        assert!(report.contains("I/O bill:"), "{report}");

        // A sharded budget too small for the sensitive domain surfaces
        // as a rendered error mentioning the budget, not a panic.
        let err = run(&Command::Publish {
            data: data.clone(),
            schema: schema.clone(),
            sensitive: "Disease".into(),
            l: 4,
            qit: dir.join("x.csv").to_string_lossy().into_owned(),
            st: dir.join("y.csv").to_string_lossy().into_owned(),
            seed: 3,
            engine: EngineArg::Sharded {
                page_size: 64,
                shards: 1,
                pages_per_shard: 3,
            },
            audit: false,
            metrics: None,
            trace: None,
        })
        .unwrap_err();
        assert!(anatomy::render_chain(&err).contains("budget"));
    }

    #[test]
    fn publish_then_verify_then_query() {
        let dir = scratch("roundtrip");
        let data = write(&dir, "d.csv", &demo_data());
        let schema = write(&dir, "s.txt", SCHEMA);
        let qit = dir.join("qit.csv").to_string_lossy().into_owned();
        let st = dir.join("st.csv").to_string_lossy().into_owned();

        let report = run(&Command::Publish {
            data,
            schema: schema.clone(),
            sensitive: "Disease".into(),
            l: 4,
            qit: qit.clone(),
            st: st.clone(),
            seed: 3,
            engine: EngineArg::InMemory,
            audit: false,
            metrics: None,
            trace: None,
        })
        .unwrap();
        assert!(report.contains("40 tuples"));
        assert!(report.contains("10 QI-groups"));

        let verify = |l: usize| {
            run(&Command::Verify {
                qit: qit.clone(),
                st: st.clone(),
                schema: schema.clone(),
                sensitive: "Disease".into(),
                l,
                stage: None,
            })
        };
        let report = verify(4).unwrap();
        assert!(
            report.contains("worst adversary posterior 25.0% vs Corollary 1 bound 25.0%"),
            "{report}"
        );

        // Claiming l = 5 on a 4-diverse release must fail the audit.
        assert!(verify(5).is_err());

        // A sensitive-only query is answered exactly: 8 tuples carry
        // disease 0.
        let report = run(&Command::Query {
            qit: qit.clone(),
            st: st.clone(),
            schema: schema.clone(),
            sensitive: "Disease".into(),
            l: 4,
            query: "s=0".into(),
            metrics: None,
            trace: None,
        })
        .unwrap();
        assert!(report.contains("estimate: 8.000"), "{report}");

        // The indexed batch path prints exactly the report the scalar
        // `estimate_anatomy` oracle gives, on a multi-line workload.
        let query = "qi0=20|21|22|23|24;s=1\nqi0=30|31|32;qi1=0;s=2\ns=0";
        let report = run(&Command::Query {
            qit: qit.clone(),
            st: st.clone(),
            schema: schema.clone(),
            sensitive: "Disease".into(),
            l: 4,
            query: query.into(),
            metrics: None,
            trace: None,
        })
        .unwrap();
        let (schema_obj, tables) = load_release(&qit, &st, &schema, "Disease", 4).unwrap();
        let (qi, s_col) = designate(&schema_obj, "Disease").unwrap();
        let domains = Microdata::new(empty_table(&schema_obj), qi, s_col).unwrap();
        let mut oracle = String::new();
        for q in workload_from_text(&domains, query).unwrap() {
            let est = anatomy_query::estimate_anatomy(&tables, &q);
            let _ = writeln!(oracle, "{q}\n  estimate: {est:.3}");
        }
        assert_eq!(report, oracle);
    }

    #[test]
    fn publish_writes_a_validating_trace() {
        let dir = scratch("trace");
        let data = write(&dir, "d.csv", &demo_data());
        let schema = write(&dir, "s.txt", SCHEMA);
        let qit = dir.join("qit.csv").to_string_lossy().into_owned();
        let st = dir.join("st.csv").to_string_lossy().into_owned();
        let trace = dir.join("t.json").to_string_lossy().into_owned();
        let report = run(&Command::Publish {
            data,
            schema,
            sensitive: "Disease".into(),
            l: 4,
            qit,
            st,
            seed: 3,
            engine: EngineArg::InMemory,
            audit: false,
            metrics: None,
            trace: Some(trace.clone()),
        })
        .unwrap();
        assert!(report.contains("trace -> "), "{report}");
        let summary = anatomy_obs::validate_trace(&fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(summary.events > 0, "trace captured no events");
        assert!(summary.spans > 0, "trace captured no spans");
    }

    #[test]
    fn verify_passes_clean_releases_and_names_each_corruption() {
        let dir = scratch("verify");
        let data = write(&dir, "d.csv", &demo_data());
        let schema = write(&dir, "s.txt", SCHEMA);
        let qit = dir.join("qit.csv").to_string_lossy().into_owned();
        let st = dir.join("st.csv").to_string_lossy().into_owned();
        run(&Command::Publish {
            data,
            schema: schema.clone(),
            sensitive: "Disease".into(),
            l: 4,
            qit: qit.clone(),
            st: st.clone(),
            seed: 3,
            engine: EngineArg::InMemory,
            audit: false,
            metrics: None,
            trace: None,
        })
        .unwrap();
        let verify = |qit: &str, st: &str| {
            run(&Command::Verify {
                qit: qit.into(),
                st: st.into(),
                schema: schema.clone(),
                sensitive: "Disease".into(),
                l: 4,
                stage: None,
            })
        };

        // Clean release: all six checks pass by name.
        let report = verify(&qit, &st).unwrap();
        assert!(report.starts_with("audit: PASS"), "{report}");
        for name in [
            "qit_st_structure",
            "l_diversity",
            "group_sizes",
            "residue_placement",
            "rce_bound",
            "estimator_consistency",
        ] {
            assert!(report.contains(&format!("[PASS] {name}")), "{report}");
        }

        let st_lines: Vec<String> = fs::read_to_string(&st)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        let qit_lines: Vec<String> = fs::read_to_string(&qit)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();

        // Corruption 1 — a miscounted ST row (count 1 -> 2): the group's
        // counts no longer sum to its QIT population.
        let mut bad = st_lines.clone();
        let row = bad[1].strip_suffix(",1").unwrap().to_string();
        bad[1] = format!("{row},2");
        let st_bad = write(&dir, "st_overcount.csv", &(bad.join("\n") + "\n"));
        let err = verify(&qit, &st_bad).unwrap_err();
        assert!(
            anatomy::render_chain(&err).contains("[FAIL] qit_st_structure"),
            "{err}"
        );

        // Corruption 2 — one QIT tuple's group id swapped to a different
        // group: both groups' masses now disagree with the ST.
        let mut bad = qit_lines.clone();
        let (prefix, gid) = bad[1].rsplit_once(',').unwrap();
        let swapped = if gid == "1" { "2" } else { "1" };
        bad[1] = format!("{prefix},{swapped}");
        let qit_bad = write(&dir, "qit_swapped.csv", &(bad.join("\n") + "\n"));
        let err = verify(&qit_bad, &st).unwrap_err();
        assert!(
            anatomy::render_chain(&err).contains("[FAIL] qit_st_structure"),
            "{err}"
        );

        // Corruption 3 — a sensitive value duplicated within a group: two
        // count-1 rows of group 1 merge into one count-2 row. Mass and
        // order still check out, so structure passes — Definition 2 does
        // not.
        let mut bad = st_lines.clone();
        assert!(bad[1].starts_with("1,") && bad[2].starts_with("1,"));
        let row = bad[1].strip_suffix(",1").unwrap().to_string();
        bad[1] = format!("{row},2");
        bad.remove(2);
        let st_dup = write(&dir, "st_duplicated.csv", &(bad.join("\n") + "\n"));
        let err = verify(&qit, &st_dup).unwrap_err();
        let chain = anatomy::render_chain(&err);
        assert!(chain.contains("[PASS] qit_st_structure"), "{chain}");
        assert!(chain.contains("[FAIL] l_diversity"), "{chain}");
    }

    #[test]
    fn list_checks_prints_the_registry_and_stage_filters() {
        let all = run(&Command::ListChecks { stage: None }).unwrap();
        for name in [
            "qit_st_structure",
            "l_diversity",
            "group_sizes",
            "residue_placement",
            "rce_bound",
            "estimator_consistency",
            "incremental_group_immutability",
        ] {
            assert!(all.contains(name), "{all}");
        }
        let anatomize_only = run(&Command::ListChecks {
            stage: Some("anatomize".into()),
        })
        .unwrap();
        assert!(
            anatomize_only.starts_with("6 registered invariants (stage anatomize):"),
            "{anatomize_only}"
        );
        assert!(!anatomize_only.contains("incremental_group_immutability"));
        let err = run(&Command::ListChecks {
            stage: Some("bogus".into()),
        })
        .unwrap_err();
        assert!(
            anatomy::render_chain(&err).contains("--stage must be one of"),
            "{err}"
        );
    }

    #[test]
    fn audited_publish_and_stage_filtered_verify() {
        let dir = scratch("audited");
        let data = write(&dir, "d.csv", &demo_data());
        let schema = write(&dir, "s.txt", SCHEMA);
        let qit = dir.join("qit.csv").to_string_lossy().into_owned();
        let st = dir.join("st.csv").to_string_lossy().into_owned();
        let report = run(&Command::Publish {
            data,
            schema: schema.clone(),
            sensitive: "Disease".into(),
            l: 4,
            qit: qit.clone(),
            st: st.clone(),
            seed: 3,
            engine: EngineArg::InMemory,
            audit: true,
            metrics: None,
            trace: None,
        })
        .unwrap();
        assert!(
            report.contains("audit: PASS (6 checks, stage anatomize)"),
            "{report}"
        );

        // The anatomize-stage battery passes over the same release...
        let verify_with = |stage: Option<&str>| {
            run(&Command::Verify {
                qit: qit.clone(),
                st: st.clone(),
                schema: schema.clone(),
                sensitive: "Disease".into(),
                l: 4,
                stage: stage.map(String::from),
            })
        };
        let report = verify_with(Some("anatomize")).unwrap();
        assert!(report.contains("[PASS] estimator_consistency"), "{report}");

        // ...but the incremental stage adds the emission-order shape
        // check, which a batch release (scattered group ids) fails.
        let err = verify_with(Some("incremental")).unwrap_err();
        assert!(
            anatomy::render_chain(&err).contains("[FAIL] incremental_group_immutability"),
            "{err}"
        );
        // Only the two registered stages parse.
        for stage in ["turbo", "serve", "anatomize_sharded"] {
            assert!(verify_with(Some(stage)).is_err(), "{stage}");
        }
    }

    #[test]
    fn missing_files_and_bad_names_error_cleanly() {
        let dir = scratch("errors");
        let schema = write(&dir, "s.txt", SCHEMA);
        assert!(run(&Command::Stats {
            data: dir.join("nope.csv").to_string_lossy().into_owned(),
            schema: schema.clone(),
            sensitive: "Disease".into(),
        })
        .is_err());
        let data = write(&dir, "d.csv", &demo_data());
        assert!(run(&Command::Stats {
            data,
            schema,
            sensitive: "NotThere".into(),
        })
        .is_err());
    }

    #[test]
    fn top_frame_renders_from_a_synthetic_exposition() {
        // Build a real exposition from an isolated registry + windows so
        // the frame renderer is tested against the actual grammar.
        let r = anatomy_obs::Registry::new();
        r.set_enabled(true);
        r.counter("serve.queries").add(120);
        r.counter("serve.batches").add(3);
        r.gauge("serve.in_flight").set(2);
        r.gauge("query.index_v2_bytes").set(4096);
        r.histogram("span_ns/serve.batch").record(2_000_000);
        let mut w = anatomy_obs::Windows::new(anatomy_obs::WindowConfig {
            tick: std::time::Duration::from_secs(1),
            fine_len: 4,
            coarse_every: 64,
            coarse_len: 2,
        });
        w.tick(r.snapshot());
        let text = anatomy_obs::render_exposition(&r.snapshot(), &w.aggregates());
        anatomy_obs::validate_exposition(&text).unwrap();

        assert_eq!(top_windows(&text), vec!["4s".to_string()]);
        let frame = render_top_frame(&text, "127.0.0.1:1", 0);
        assert!(frame.contains("anatomy top — 127.0.0.1:1"), "{frame}");
        assert!(frame.contains("queries 120"), "{frame}");
        assert!(frame.contains("in-flight 2"), "{frame}");
        assert!(frame.contains("index bytes v2 4096"), "{frame}");
        assert!(frame.contains("[4s] qps 120"), "{frame}");
        // Percentile upper bounds are clamped to the observed max.
        assert!(frame.contains("p99 2.00ms"), "{frame}");
        // Metrics a release never reported render as "-", not a panic.
        assert!(frame.contains("v1 -"), "{frame}");

        // An exposition with no window aggregates says so.
        let cold = anatomy_obs::render_exposition(&r.snapshot(), &[]);
        let frame = render_top_frame(&cold, "x", 1);
        assert!(frame.contains("sampler warming up"), "{frame}");
    }

    #[test]
    fn serve_and_top_round_trip_scrapes_and_slowlog() {
        let dir = scratch("top");
        let data = write(&dir, "d.csv", &demo_data());
        let schema = write(&dir, "s.txt", SCHEMA);
        let qit = dir.join("qit.csv").to_string_lossy().into_owned();
        let st = dir.join("st.csv").to_string_lossy().into_owned();
        run(&Command::Publish {
            data: data.clone(),
            schema: schema.clone(),
            sensitive: "Disease".into(),
            l: 4,
            qit: qit.clone(),
            st: st.clone(),
            seed: 3,
            engine: EngineArg::InMemory,
            audit: false,
            metrics: None,
            trace: None,
        })
        .unwrap();
        let port_file = dir.join("port").to_string_lossy().into_owned();
        let serve_cmd = Command::Serve {
            qit,
            st,
            schema,
            sensitive: "Disease".into(),
            l: 4,
            data: Some(data),
            listen: "127.0.0.1:0".into(),
            port_file: Some(port_file.clone()),
            name: "census".into(),
            max_inflight: 2,
            max_batch: 1024,
            // Log every batch so the slowlog one-shot has entries.
            slowlog_threshold_ms: 0,
            slowlog_capacity: 8,
        };
        let server = std::thread::spawn(move || run(&serve_cmd));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(a) = fs::read_to_string(&port_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };

        // Drive one batch so counters, windows, and the slowlog move.
        let mut client = anatomy_serve::ServeClient::connect(&addr).unwrap();
        client
            .batch_lines("census", anatomy_serve::Mode::Estimate, &{
                let md = load_microdata(
                    &write(&dir, "d2.csv", &demo_data()),
                    &schema_file::parse(SCHEMA).unwrap(),
                    "Disease",
                )
                .unwrap();
                anatomy_query::WorkloadSpec {
                    qd: 1,
                    selectivity: 0.2,
                    count: 4,
                    seed: 5,
                }
                .generate(&md)
                .unwrap()
            })
            .unwrap();

        // One-shot scrape to stdout ("-") and to a file.
        let text = top(&addr, 1_000, None, Some("-"), None).unwrap();
        anatomy_obs::validate_exposition(&text).unwrap();
        assert!(text.contains("anatomy_serve_batches"), "{text}");
        let scrape_path = dir.join("m.prom").to_string_lossy().into_owned();
        let report = top(&addr, 1_000, None, Some(&scrape_path), None).unwrap();
        assert!(report.starts_with("scrape -> "), "{report}");
        anatomy_obs::validate_exposition(&fs::read_to_string(&scrape_path).unwrap()).unwrap();

        // One-shot slowlog: the batch above must be there as JSON.
        let report = top(&addr, 1_000, None, None, Some(10)).unwrap();
        assert!(
            report.starts_with("slow queries (newest first): 1"),
            "{report}"
        );
        let entry = anatomy_serve::SlowEntry::from_json(report.lines().nth(1).unwrap()).unwrap();
        assert_eq!(entry.release, "census");
        assert_eq!(entry.queries, 4);

        client.shutdown().unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("served 1 batches (4 queries)"), "{out}");
        assert!(out.contains("slow queries retained: 1"), "{out}");
    }
}
