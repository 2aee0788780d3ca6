//! End-to-end protocol tests: a real server on a real socket, checked
//! against the in-process oracles.

use anatomy_core::{anatomize, AnatomizeConfig, AnatomizedTables};
use anatomy_query::{estimate_anatomy, evaluate_exact, workload_to_text, CountQuery, WorkloadSpec};
use anatomy_serve::protocol::{MAX_BATCH_BYTES, MAX_LINE};
use anatomy_serve::{replay, Mode, ServeClient, ServeConfig, ServeError, ServedRelease, Server};
use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};

fn dataset(n: u32) -> Microdata {
    let schema = Schema::new(vec![
        Attribute::numerical("Age", 60),
        Attribute::categorical("Sex", 2),
        Attribute::categorical("Disease", 7),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for i in 0..n {
        b.push_row(&[(i * 7) % 60, i % 2, i % 7]).unwrap();
    }
    Microdata::with_leading_qi(b.finish(), 2).unwrap()
}

fn publish(md: &Microdata, l: usize) -> AnatomizedTables {
    let partition = anatomize(md, &AnatomizeConfig::new(l).with_seed(7)).unwrap();
    AnatomizedTables::publish(md, &partition, l).unwrap()
}

fn workload(md: &Microdata, count: usize, seed: u64) -> Vec<CountQuery> {
    WorkloadSpec {
        qd: 2,
        selectivity: 0.05,
        count,
        seed,
    }
    .generate(md)
    .unwrap()
}

fn exact_server(n: u32, cfg: ServeConfig) -> (Microdata, AnatomizedTables, Server) {
    let md = dataset(n);
    let tables = publish(&md, 4);
    let release = ServedRelease::exact("demo", md.clone(), tables.clone()).unwrap();
    let server = Server::bind(cfg, vec![release]).unwrap();
    (md, tables, server)
}

#[test]
fn served_answers_match_both_oracles_bit_for_bit() {
    let (md, tables, server) = exact_server(600, ServeConfig::default());
    let (addr, handle) = server.spawn();
    let queries = workload(&md, 64, 11);

    let mut client = ServeClient::connect(&addr).unwrap();
    client.ping().unwrap();

    let exact = client.batch_exact("demo", &queries).unwrap();
    for (q, &got) in queries.iter().zip(&exact) {
        assert_eq!(got, evaluate_exact(&md, q), "exact mismatch on {q}");
    }
    let est = client.batch_estimate("demo", &queries).unwrap();
    for (q, &got) in queries.iter().zip(&est) {
        let want = estimate_anatomy(&tables, q);
        assert!(
            got.to_bits() == want.to_bits(),
            "estimate not bit-identical on {q}: {got} vs {want}"
        );
    }

    let listing = client.releases().unwrap();
    assert_eq!(listing.len(), 1);
    assert!(listing[0].starts_with("demo "), "{listing:?}");
    assert!(listing[0].contains("exact=true"), "{listing:?}");

    client.shutdown().unwrap();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.batches, 2);
    assert_eq!(summary.queries, 128);
}

#[test]
fn metrics_scrape_carries_batch_latency_and_index_gauges() {
    let (md, _, server) = exact_server(600, ServeConfig::default());
    let (addr, handle) = server.spawn();
    let queries = workload(&md, 48, 3);
    let mut client = ServeClient::connect(&addr).unwrap();
    client.batch_exact("demo", &queries).unwrap();

    let scrape = client.metrics().unwrap();
    anatomy_obs::validate_exposition(&scrape).unwrap();
    // The per-batch span surfaces as a summary with lifetime quantiles.
    assert!(
        anatomy_obs::sample_value(
            &scrape,
            "anatomy_span_ns_serve_batch",
            &[("quantile", "0.99")]
        )
        .is_some_and(|ns| ns > 0.0),
        "no serve.batch latency in:\n{scrape}"
    );
    assert!(
        anatomy_obs::sample_value(&scrape, "anatomy_serve_batches", &[]).is_some_and(|n| n >= 1.0),
        "{scrape}"
    );
    // The v2 index footprint and container-mix gauges must survive the
    // build-before-registry-enable ordering (re-reported in run()).
    for gauge in [
        "anatomy_query_index_v2_bytes",
        "anatomy_query_index_v2_containers_array",
    ] {
        assert!(
            anatomy_obs::sample_value(&scrape, gauge, &[]).is_some(),
            "no {gauge} in:\n{scrape}"
        );
    }

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn estimate_only_releases_refuse_exact_mode() {
    let md = dataset(400);
    let tables = publish(&md, 4);
    // Domains come from an empty table with the same schema — all a
    // pure QIT/ST consumer has.
    let empty = Microdata::new(
        TableBuilder::new(md.table().schema().clone()).finish(),
        md.qi_columns().to_vec(),
        md.sensitive_column(),
    )
    .unwrap();
    let release = ServedRelease::estimate_only("pub", empty, tables.clone());
    let (addr, handle) = Server::bind(ServeConfig::default(), vec![release])
        .unwrap()
        .spawn();
    let queries = workload(&md, 40, 5);
    let mut client = ServeClient::connect(&addr).unwrap();

    let err = client.batch_exact("pub", &queries).unwrap_err();
    assert!(
        matches!(&err, ServeError::Server(m) if m.contains("estimate only")),
        "{err}"
    );
    // The connection survives the refusal and still serves estimates.
    let est = client.batch_estimate("pub", &queries).unwrap();
    for (q, &got) in queries.iter().zip(&est) {
        assert_eq!(got.to_bits(), estimate_anatomy(&tables, q).to_bits());
    }
    // Unknown releases are a recoverable error too.
    let err = client.batch_estimate("nope", &queries).unwrap_err();
    assert!(
        matches!(&err, ServeError::Server(m) if m.contains("unknown release")),
        "{err}"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip_and_cleanup() {
    let path = std::env::temp_dir().join(format!("anatomy-serve-test-{}.sock", std::process::id()));
    let listen = format!("unix:{}", path.display());
    let (md, _, server) = exact_server(
        400,
        ServeConfig {
            listen: listen.clone(),
            ..ServeConfig::default()
        },
    );
    let (addr, handle) = server.spawn();
    assert_eq!(addr, listen);
    let queries = workload(&md, 40, 9);
    let mut client = ServeClient::connect(&addr).unwrap();
    let exact = client.batch_exact("demo", &queries).unwrap();
    for (q, &got) in queries.iter().zip(&exact) {
        assert_eq!(got, evaluate_exact(&md, q));
    }
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    assert!(!path.exists(), "socket file not removed on shutdown");
}

/// A unix-socket path for one test, unique per process, and a config
/// listening on it.
#[cfg(unix)]
fn unix_listen(tag: &str) -> (std::path::PathBuf, ServeConfig) {
    let path =
        std::env::temp_dir().join(format!("anatomy-serve-{tag}-{}.sock", std::process::id()));
    let cfg = ServeConfig {
        listen: format!("unix:{}", path.display()),
        ..ServeConfig::default()
    };
    (path, cfg)
}

#[cfg(unix)]
#[test]
fn unix_bind_refuses_to_replace_a_regular_file() {
    let (path, cfg) = unix_listen("regular-file");
    std::fs::write(&path, b"precious bytes\n").unwrap();
    let err = Server::bind(cfg, vec![])
        .err()
        .expect("bind over a regular file must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), b"precious bytes\n");
    std::fs::remove_file(&path).unwrap();
}

#[cfg(unix)]
#[test]
fn unix_bind_refuses_to_take_over_a_live_server() {
    let (path, cfg) = unix_listen("live");
    let (addr, handle) = Server::bind(cfg.clone(), vec![]).unwrap().spawn();
    let err = Server::bind(cfg, vec![])
        .err()
        .expect("bind over a live server's socket must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // The first server still owns the path and answers on it.
    let mut client = ServeClient::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    assert!(!path.exists(), "socket file not removed on shutdown");
}

#[cfg(unix)]
#[test]
fn unix_bind_replaces_a_stale_socket() {
    let (path, cfg) = unix_listen("stale");
    // A listener dropped without cleanup leaves its socket file behind.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(path.exists());
    let (addr, handle) = Server::bind(cfg, vec![]).unwrap().spawn();
    let mut client = ServeClient::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_and_oversized_batches_error_and_close() {
    let (_, _, server) = exact_server(
        400,
        ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let (addr, handle) = server.spawn();

    // Raw socket: drive the wire grammar directly.
    let raw = |lines: &str| -> String {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(lines.as_bytes()).unwrap();
        let mut rd = BufReader::new(s);
        let mut line = String::new();
        rd.read_line(&mut line).unwrap();
        line
    };

    let resp = raw("BATCH demo exact nine\n");
    assert!(resp.starts_with("ERR malformed BATCH header"), "{resp}");
    let resp = raw("BATCH demo exact 9\n"); // exceeds max_batch = 8
    assert!(resp.contains("exceeds max_batch"), "{resp}");
    let resp = raw("FROB\n");
    assert!(resp.starts_with("ERR unknown request"), "{resp}");
    // `METRICS` is the one monitoring verb; the retired `STATS` is unknown.
    let resp = raw("STATS\n");
    assert!(resp.starts_with("ERR unknown request `STATS`"), "{resp}");
    // A batch whose body parses to fewer queries than the header claims
    // (a blank line) is an error, but the count keeps the stream in
    // sync so the connection stays open.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(b"BATCH demo exact 2\ns=0\n\n").unwrap();
    let mut rd = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    rd.read_line(&mut line).unwrap();
    assert!(line.contains("parsed to 1 queries"), "{line}");
    s.write_all(b"PING\n").unwrap();
    line.clear();
    rd.read_line(&mut line).unwrap();
    assert_eq!(line, "OK 0\n");

    let mut client = ServeClient::connect(&addr).unwrap();
    client.shutdown().unwrap();
    let summary = handle.join().unwrap().unwrap();
    assert!(summary.errors >= 5, "summary: {summary:?}");
}

#[test]
fn an_oversized_batch_body_is_refused_and_closed() {
    let (_, _, server) = exact_server(400, ServeConfig::default());
    let (addr, handle) = server.spawn();

    // 65 lines just under `MAX_LINE` carry more than `MAX_BATCH_BYTES`,
    // within the default `max_batch`.
    let line = format!("{}\n", "s".repeat(MAX_LINE - 2));
    let lines = MAX_BATCH_BYTES / line.len() + 1;
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(format!("BATCH demo exact {lines}\n").as_bytes())
        .unwrap();
    // The server refuses at the last line and closes with bytes unread,
    // so a write may fail and the `ERR` line may be lost to a reset; a
    // server that kept the connection open would time this read out.
    for _ in 0..lines {
        if s.write_all(line.as_bytes()).is_err() {
            break;
        }
    }
    s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reply = Vec::new();
    if let Err(e) = s.read_to_end(&mut reply) {
        let open = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
        assert!(!open, "the connection stayed open: {e}");
    }
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.is_empty() || reply.starts_with("ERR batch body exceeds"),
        "{reply}"
    );

    // Other connections are unharmed, and the refusal was counted.
    let mut client = ServeClient::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.errors, 1, "summary: {summary:?}");
    assert_eq!(summary.batches, 0, "summary: {summary:?}");
}

#[test]
fn replay_matches_oracle_across_threads() {
    let (md, _, server) = exact_server(600, ServeConfig::default());
    let (addr, handle) = server.spawn();
    let batches: Vec<Vec<CountQuery>> = (0..9).map(|i| workload(&md, 16, 100 + i)).collect();
    let (report, answers) = replay(&addr, "demo", Mode::Exact, &batches, 3).unwrap();
    assert_eq!(report.batches, 9);
    assert_eq!(report.queries, 9 * 16);
    for (batch, lines) in batches.iter().zip(&answers) {
        for (q, line) in batch.iter().zip(lines) {
            assert_eq!(line.parse::<u64>().unwrap(), evaluate_exact(&md, q));
        }
    }
    let mut client = ServeClient::connect(&addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn saturating_a_one_slot_server_surfaces_busy() {
    // max_inflight = 1 and two hammering connections: at least one
    // batch must hit admission control and get an explicit BUSY (the
    // loadgen retries it to completion, so answers stay correct).
    let (md, _, server) = exact_server(
        2_000,
        ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        },
    );
    let (addr, handle) = server.spawn();
    // Wide, slow batches so evaluations overlap reliably.
    let batches: Vec<Vec<CountQuery>> = (0..6)
        .map(|i| {
            WorkloadSpec {
                qd: 2,
                selectivity: 0.4,
                count: 600,
                seed: 50 + i,
            }
            .generate(&md)
            .unwrap()
        })
        .collect();
    let mut saw_busy = 0;
    for attempt in 0..5 {
        let (report, answers) = replay(&addr, "demo", Mode::Exact, &batches, 3).unwrap();
        for (batch, lines) in batches.iter().zip(&answers) {
            for (q, line) in batch.iter().zip(lines) {
                assert_eq!(line.parse::<u64>().unwrap(), evaluate_exact(&md, q));
            }
        }
        saw_busy += report.busy;
        if saw_busy > 0 {
            break;
        }
        eprintln!("attempt {attempt}: no BUSY yet, retrying");
    }
    assert!(saw_busy > 0, "admission control never rejected a batch");
    let mut client = ServeClient::connect(&addr).unwrap();
    // BUSY must leave a registry trace, not just a wire response.
    let scrape = client.metrics().unwrap();
    assert!(
        anatomy_obs::sample_value(&scrape, "anatomy_serve_busy_rejections", &[]).unwrap() >= 1.0,
        "no busy_rejections counter in:\n{scrape}"
    );
    client.shutdown().unwrap();
    let summary = handle.join().unwrap().unwrap();
    assert!(summary.overloaded > 0);
}

#[test]
fn wire_format_is_workload_text() {
    // Pin the grammar itself: a hand-written request in the documented
    // format gets the documented response shape.
    let (md, _, server) = exact_server(400, ServeConfig::default());
    let (addr, handle) = server.spawn();
    let q = workload(&md, 1, 1).remove(0);
    let line = workload_to_text(std::slice::from_ref(&q));
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(format!("BATCH demo exact 1\n{line}").as_bytes())
        .unwrap();
    let mut rd = BufReader::new(s.try_clone().unwrap());
    let mut resp = String::new();
    rd.read_line(&mut resp).unwrap();
    assert_eq!(resp, "OK 1\n");
    resp.clear();
    rd.read_line(&mut resp).unwrap();
    assert_eq!(
        resp.trim_end().parse::<u64>().unwrap(),
        evaluate_exact(&md, &q)
    );
    s.write_all(b"SHUTDOWN\n").unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn metrics_endpoint_exposes_validating_windowed_scrapes() {
    // Fast ticks so window aggregates materialize within the test; the
    // fine ring still spans ~6s so traffic cannot age out mid-assert.
    let (md, _, server) = exact_server(
        600,
        ServeConfig {
            window: anatomy_obs::WindowConfig {
                tick: std::time::Duration::from_millis(10),
                fine_len: 600,
                coarse_every: 100,
                coarse_len: 60,
            },
            ..ServeConfig::default()
        },
    );
    let (addr, handle) = server.spawn();
    let mut client = ServeClient::connect(&addr).unwrap();

    let first = client.metrics().unwrap();
    let s1 = anatomy_obs::validate_exposition(&first).unwrap();
    assert!(s1.samples > 0, "empty first scrape:\n{first}");
    // The satellite instruments registered at bind must be visible even
    // before they fire, and our own connection holds the gauge open.
    assert!(first.contains("anatomy_serve_busy_rejections"), "{first}");
    assert!(
        anatomy_obs::sample_value(&first, "anatomy_serve_connections_open", &[]).unwrap() >= 1.0,
        "own connection not in the gauge:\n{first}"
    );

    let queries = workload(&md, 32, 21);
    client.batch_exact("demo", &queries).unwrap();

    // Poll until the sampler absorbs the batch into the fine window.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let second = loop {
        let text = client.metrics().unwrap();
        let windowed =
            anatomy_obs::sample_value(&text, "anatomy_serve_queries_rate", &[("window", "6s")]);
        if windowed.is_some_and(|v| v > 0.0) {
            break text;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sampler never absorbed the batch:\n{text}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let s2 = anatomy_obs::validate_exposition(&second).unwrap();
    let grew = anatomy_obs::check_counter_monotonic(&s1, &s2).unwrap();
    assert!(grew > 0, "no counters in common between scrapes");
    // The per-batch span surfaces as a summary family with windowed
    // quantiles capped by the windowed max.
    let p99 = anatomy_obs::sample_value(
        &second,
        "anatomy_span_ns_serve_batch",
        &[("window", "6s"), ("quantile", "0.99")],
    )
    .expect("windowed p99 for serve.batch");
    let max = anatomy_obs::sample_value(
        &second,
        "anatomy_span_ns_serve_batch_max",
        &[("window", "6s")],
    )
    .expect("windowed max for serve.batch");
    assert!(p99 <= max, "windowed p99 {p99} exceeds windowed max {max}");

    // GET /metrics serves the same exposition to stock HTTP scrapers.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    use std::io::Read as _;
    BufReader::new(s).read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    let body = raw.split("\r\n\r\n").nth(1).expect("http body");
    anatomy_obs::validate_exposition(body).unwrap();
    assert!(body.contains("anatomy_serve_batches"), "{body}");
    // Unknown paths get a 404, not a protocol ERR.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut raw = String::new();
    BufReader::new(s).read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn slowlog_captures_batches_with_resolving_trace_exemplars() {
    anatomy_obs::tracer().set_enabled(true);
    let (md, _, server) = exact_server(
        600,
        ServeConfig {
            // Log every batch: the test pins the ring, wire format, and
            // trace linkage, not the threshold (unit-tested in slowlog).
            slowlog_threshold: Some(std::time::Duration::ZERO),
            slowlog_capacity: 4,
            ..ServeConfig::default()
        },
    );
    let (addr, handle) = server.spawn();
    let mut client = ServeClient::connect(&addr).unwrap();
    for seed in 0..6 {
        client
            .batch_exact("demo", &workload(&md, 8, 30 + seed))
            .unwrap();
    }

    let entries = client.slowlog(10).unwrap();
    assert_eq!(entries.len(), 4, "capacity bounds retention: {entries:?}");
    assert_eq!(entries[0].seq, 5, "newest first");
    for e in &entries {
        assert_eq!(e.release, "demo");
        assert_eq!(e.mode, Mode::Exact);
        assert_eq!(e.queries, 8);
        assert_eq!(e.threshold_ns, 0);
        assert_ne!(e.span_id, 0, "tracing was on, span id must resolve");
        assert!(!e.query.is_empty(), "missing workload exemplar");
    }
    let two = client.slowlog(2).unwrap();
    assert_eq!(two.len(), 2);
    assert_eq!(two[0], entries[0]);

    client.shutdown().unwrap();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.slow.len(), 4, "shutdown dump mirrors the ring");
    assert_eq!(summary.slow[0], entries[0]);

    // Every exemplar must point at a real span in the exported trace.
    let snap = anatomy_obs::tracer().snapshot();
    let begun: std::collections::HashSet<u64> = snap
        .threads
        .iter()
        .flat_map(|t| t.events.iter())
        .filter_map(|ev| match ev.kind {
            anatomy_obs::EventKind::SpanBegin { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    for e in &summary.slow {
        assert!(
            begun.contains(&e.span_id),
            "slowlog span id {} not in the trace journal",
            e.span_id
        );
    }
    // A full trace validation only means something when nothing was
    // dropped (concurrent tests share the process journals).
    if snap.dropped_count() == 0 {
        anatomy_obs::validate_trace(&snap.to_chrome_json()).unwrap();
    } else {
        eprintln!("skipping validate_trace: {} dropped", snap.dropped_count());
    }
}
