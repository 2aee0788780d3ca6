//! The accept loop, per-connection protocol handling, admission
//! control, and the monitoring endpoints (metrics, slowlog).

use crate::protocol::{connect_stream, LineEvent, LineReader, Mode, Stream, MAX_BATCH_BYTES};
use crate::release::ServedRelease;
use crate::slowlog::{SlowEntry, SlowLog};
use anatomy_obs::{render_exposition, WindowConfig, Windows};
use anatomy_pool::Pool;
use anatomy_query::{estimate_anatomy_batch_v2, evaluate_exact_batch_v2, workload_from_text};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a connection thread notices a shutdown while idle.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// `HOST:PORT` (port `0` picks a free one) or `unix:PATH`. A stale
    /// socket at `PATH` is replaced; anything else there fails the bind.
    pub listen: String,
    /// Batches evaluated concurrently before `BUSY` responses.
    pub max_inflight: usize,
    /// Largest accepted batch, in queries.
    pub max_batch: usize,
    /// Batches at or above this wall time land in the slow-query log;
    /// `Some(ZERO)` logs every batch, `None` disables the log.
    pub slowlog_threshold: Option<Duration>,
    /// Slow-query entries retained (a ring; newest win).
    pub slowlog_capacity: usize,
    /// Ring layout for the rolling metric windows fed by the sampler
    /// thread that [`Server::run`] starts.
    pub window: WindowConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            max_inflight: 4,
            max_batch: 65_536,
            slowlog_threshold: Some(Duration::from_millis(100)),
            slowlog_capacity: 128,
            window: WindowConfig::default(),
        }
    }
}

/// What the server did over its lifetime, returned by [`Server::run`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeSummary {
    /// Batches answered with `OK`.
    pub batches: u64,
    /// Queries inside those batches.
    pub queries: u64,
    /// Batches refused with `BUSY`.
    pub overloaded: u64,
    /// Requests answered with `ERR`.
    pub errors: u64,
    /// The slow-query log at shutdown, newest first.
    pub slow: Vec<SlowEntry>,
}

/// Observability handles, registered once against the global registry.
struct ServeObs {
    batches: anatomy_obs::Counter,
    queries: anatomy_obs::Counter,
    errors: anatomy_obs::Counter,
    busy_rejections: anatomy_obs::Counter,
    metrics_requests: anatomy_obs::Counter,
    slowlog_entries: anatomy_obs::Counter,
    in_flight: anatomy_obs::Gauge,
    connections_open: anatomy_obs::Gauge,
}

impl ServeObs {
    fn new() -> ServeObs {
        let registry = anatomy_obs::global();
        ServeObs {
            batches: registry.counter("serve.batches"),
            queries: registry.counter("serve.queries"),
            errors: registry.counter("serve.errors"),
            busy_rejections: registry.counter("serve.busy_rejections"),
            metrics_requests: registry.counter("serve.metrics_requests"),
            slowlog_entries: registry.counter("serve.slowlog_entries"),
            in_flight: registry.gauge("serve.in_flight"),
            connections_open: registry.gauge("serve.connections_open"),
        }
    }
}

/// Decrements `serve.connections_open` when a connection thread exits,
/// however it exits.
struct ConnGuard<'a> {
    obs: &'a ServeObs,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.obs.connections_open.add(-1);
    }
}

fn windows_lock(m: &Mutex<Windows>) -> MutexGuard<'_, Windows> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    releases: HashMap<String, ServedRelease>,
    max_inflight: usize,
    max_batch: usize,
    in_flight: AtomicUsize,
    stop: AtomicBool,
    obs: ServeObs,
    // The summary is tracked separately from `obs` so it is correct
    // even when the embedding process keeps the registry disabled.
    batches: AtomicU64,
    queries: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
    /// Ring state the sampler thread feeds and `METRICS` reads.
    windows: Arc<Mutex<Windows>>,
    slowlog: SlowLog,
    conn_seq: AtomicU64,
}

impl Shared {
    /// Admission control: claim an evaluation slot, or report how many
    /// were busy. Bounded in-flight work is the overload contract — a
    /// refused batch gets an explicit `BUSY`, never unbounded queueing.
    fn try_admit(self: &Arc<Shared>) -> Result<AdmissionGuard, usize> {
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_inflight {
                return Err(cur);
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.obs.in_flight.add(1);
                    return Ok(AdmissionGuard {
                        shared: Arc::clone(self),
                    });
                }
                Err(now) => cur = now,
            }
        }
    }
}

struct AdmissionGuard {
    shared: Arc<Shared>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        self.shared.in_flight.fetch_sub(1, Ordering::Release);
        self.shared.obs.in_flight.add(-1);
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl Listener {
    fn accept(&self) -> io::Result<Box<dyn Stream>> {
        match self {
            Listener::Tcp(l) => {
                let (conn, _) = l.accept()?;
                conn.set_nodelay(true)?;
                Ok(Box::new(conn))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (conn, _) = l.accept()?;
                Ok(Box::new(conn))
            }
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread until a `SHUTDOWN` request; [`Server::spawn`] does the same on
/// a background thread and hands back the address.
pub struct Server {
    listener: Listener,
    addr: String,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the configured address and load `releases`. For unix
    /// sockets a stale socket file from a dead server is replaced; any
    /// other file at the path, or a live server's socket, fails with
    /// [`io::ErrorKind::AddrInUse`] and is left untouched.
    pub fn bind(cfg: ServeConfig, releases: Vec<ServedRelease>) -> io::Result<Server> {
        let listener = if let Some(path) = cfg.listen.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                Listener::Unix(bind_unix(path)?, path.to_string())
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
        } else {
            Listener::Tcp(TcpListener::bind(&cfg.listen)?)
        };
        let addr = match &listener {
            Listener::Tcp(l) => l.local_addr()?.to_string(),
            #[cfg(unix)]
            Listener::Unix(_, path) => format!("unix:{path}"),
        };
        let releases: HashMap<String, ServedRelease> = releases
            .into_iter()
            .map(|r| (r.name().to_string(), r))
            .collect();
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                releases,
                max_inflight: cfg.max_inflight.max(1),
                max_batch: cfg.max_batch.max(1),
                in_flight: AtomicUsize::new(0),
                stop: AtomicBool::new(false),
                obs: ServeObs::new(),
                batches: AtomicU64::new(0),
                queries: AtomicU64::new(0),
                overloaded: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                windows: Arc::new(Mutex::new(Windows::new(cfg.window.clone()))),
                slowlog: SlowLog::new(cfg.slowlog_threshold, cfg.slowlog_capacity),
                conn_seq: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address, in the form [`crate::ServeClient::connect`]
    /// accepts: `HOST:PORT` or `unix:PATH`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Serve until a `SHUTDOWN` request, then join every connection
    /// thread and return the lifetime summary. Enables the global
    /// observability registry so `METRICS` always has data, and runs the
    /// window sampler thread for the server's lifetime so its answers
    /// carry rolling rates and percentiles.
    pub fn run(self) -> io::Result<ServeSummary> {
        anatomy_obs::global().set_enabled(true);
        // The release indexes were built before the registry turned on,
        // so their footprint/container-mix gauges landed in a disabled
        // registry; re-report them now so METRICS always carries them.
        for release in self.shared.releases.values() {
            release.index().report_gauges();
        }
        let sampler = anatomy_obs::start_sampler_into(
            anatomy_obs::global(),
            Arc::clone(&self.shared.windows),
        );
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let conn = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) => {
                    if self.shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
            };
            if self.shared.stop.load(Ordering::Acquire) {
                break; // the wake-up connection from the shutdown path
            }
            let shared = Arc::clone(&self.shared);
            let addr = self.addr.clone();
            handles.push(std::thread::spawn(move || {
                if let Err(e) = handle_connection(conn, &shared, &addr) {
                    // Peer went away mid-request; not the server's error.
                    let _ = e;
                }
            }));
            // Reap finished threads so a long-lived server does not
            // accumulate one handle per past connection.
            handles.retain(|h| !h.is_finished());
        }
        for h in handles {
            let _ = h.join();
        }
        // Stop takes one final tick, so work finished just before the
        // SHUTDOWN still lands in a window for any post-mortem scrape.
        sampler.stop(anatomy_obs::global());
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(ServeSummary {
            batches: self.shared.batches.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
            overloaded: self.shared.overloaded.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            slow: self.shared.slowlog.dump(),
        })
    }

    /// [`Server::run`] on a background thread; returns the address and
    /// the join handle carrying the eventual summary.
    pub fn spawn(self) -> (String, JoinHandle<io::Result<ServeSummary>>) {
        let addr = self.addr.clone();
        (addr, std::thread::spawn(move || self.run()))
    }
}

/// Bind a unix socket at `path`, replacing only a stale socket: one that
/// refuses connections because the server that made it is gone.
#[cfg(unix)]
fn bind_unix(path: &str) -> io::Result<UnixListener> {
    use std::os::unix::fs::FileTypeExt as _;
    match UnixListener::bind(path) {
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            let in_use =
                |why: &str| io::Error::new(io::ErrorKind::AddrInUse, format!("{path} {why}"));
            if !std::fs::symlink_metadata(path)?.file_type().is_socket() {
                return Err(in_use("exists and is not a socket"));
            }
            match std::os::unix::net::UnixStream::connect(path) {
                Ok(_) => Err(in_use("is a live server's socket")),
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    std::fs::remove_file(path)?;
                    UnixListener::bind(path)
                }
                Err(e) => Err(e),
            }
        }
        bound => bound,
    }
}

/// Read a request line, tolerating idle timeouts until `stop` is set.
fn next_request(rd: &mut LineReader, shared: &Shared) -> io::Result<Option<String>> {
    loop {
        match rd.next_line()? {
            LineEvent::Line(l) => return Ok(Some(l)),
            LineEvent::Eof => return Ok(None),
            LineEvent::TimedOut => {
                if shared.stop.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
        }
    }
}

/// Render the current registry state plus window aggregates in the
/// Prometheus text format — the shared body of `METRICS` and
/// `GET /metrics`.
fn render_metrics(shared: &Shared) -> String {
    let snapshot = anatomy_obs::global().snapshot();
    let aggregates = windows_lock(&shared.windows).aggregates();
    render_exposition(&snapshot, &aggregates)
}

fn handle_connection(conn: Box<dyn Stream>, shared: &Arc<Shared>, addr: &str) -> io::Result<()> {
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    shared.obs.connections_open.add(1);
    let _open = ConnGuard { obs: &shared.obs };
    conn.set_read_timeout_opt(Some(IDLE_POLL))?;
    let writer = conn.try_clone_stream()?;
    let mut wr = io::BufWriter::with_capacity(1 << 16, writer);
    let mut rd = LineReader::new(conn);
    while let Some(req) = next_request(&mut rd, shared)? {
        let mut parts = req.split_ascii_whitespace();
        match parts.next() {
            Some("PING") => {
                wr.write_all(b"OK 0\n")?;
            }
            Some("RELEASES") => {
                let mut body = String::new();
                for r in shared.releases.values() {
                    let _ = writeln!(
                        body,
                        "{} tuples={} groups={} exact={}",
                        r.name(),
                        r.tables().len(),
                        r.tables().group_count(),
                        r.serves_exact()
                    );
                }
                write!(wr, "OK {}\n{body}", shared.releases.len())?;
            }
            Some("METRICS") => {
                shared.obs.metrics_requests.incr();
                let body = render_metrics(shared);
                write!(wr, "OK {}\n{body}", body.lines().count())?;
            }
            Some("SLOWLOG") => {
                let n = match parts.next() {
                    None => usize::MAX,
                    Some(t) => match t.parse::<usize>() {
                        Ok(n) if parts.next().is_none() => n,
                        _ => {
                            shared.errors.fetch_add(1, Ordering::Relaxed);
                            shared.obs.errors.incr();
                            writeln!(wr, "ERR malformed SLOWLOG request `{req}`")?;
                            wr.flush()?;
                            continue;
                        }
                    },
                };
                let entries = shared.slowlog.recent(n);
                writeln!(wr, "OK {}", entries.len())?;
                for e in &entries {
                    writeln!(wr, "{}", e.to_json())?;
                }
            }
            // `GET /metrics` convenience on the same listener, so stock
            // scrapers (curl, Prometheus) need no protocol shim. One
            // response per connection, then close — which also makes the
            // unread remainder of the HTTP request headers harmless.
            Some("GET") => {
                shared.obs.metrics_requests.incr();
                let (status, body) = match parts.next() {
                    Some(p) if p == "/metrics" || p.starts_with("/metrics?") => {
                        ("200 OK", render_metrics(shared))
                    }
                    _ => ("404 Not Found", "try /metrics\n".to_string()),
                };
                write!(
                    wr,
                    "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; \
                     charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )?;
                wr.flush()?;
                return Ok(());
            }
            Some("SHUTDOWN") => {
                wr.write_all(b"OK 0\n")?;
                wr.flush()?;
                shared.stop.store(true, Ordering::Release);
                // Wake the accept loop so it observes the stop flag.
                let _ = connect_stream(addr);
                return Ok(());
            }
            Some("BATCH") => {
                if !handle_batch(&req, parts, &mut rd, &mut wr, shared, conn_id)? {
                    wr.flush()?;
                    return Ok(()); // stream out of sync: close it
                }
            }
            _ => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                shared.obs.errors.incr();
                writeln!(wr, "ERR unknown request `{req}`")?;
            }
        }
        wr.flush()?;
    }
    Ok(())
}

/// Handle one `BATCH name mode count` request. Returns `false` when the
/// connection can no longer be trusted to be in sync (malformed header,
/// oversized batch or body) and must be closed after the `ERR` goes out.
fn handle_batch(
    req: &str,
    mut parts: std::str::SplitAsciiWhitespace<'_>,
    rd: &mut LineReader,
    wr: &mut impl Write,
    shared: &Arc<Shared>,
    conn_id: u64,
) -> io::Result<bool> {
    let err = |shared: &Shared| {
        shared.errors.fetch_add(1, Ordering::Relaxed);
        shared.obs.errors.incr();
    };
    let (name, mode, count) = match (
        parts.next(),
        parts.next().and_then(Mode::parse),
        parts.next().and_then(|c| c.parse::<usize>().ok()),
    ) {
        (Some(n), Some(m), Some(c)) if parts.next().is_none() => (n.to_string(), m, c),
        _ => {
            err(shared);
            writeln!(wr, "ERR malformed BATCH header `{req}`")?;
            return Ok(false);
        }
    };
    if count > shared.max_batch {
        err(shared);
        writeln!(
            wr,
            "ERR batch of {count} queries exceeds max_batch {}",
            shared.max_batch
        )?;
        return Ok(false);
    }

    // The body is committed by the header: consume all `count` lines
    // before any verdict, so the stream stays in sync even on errors. A
    // body past `MAX_BATCH_BYTES` is refused before it is buffered.
    let mut body = String::new();
    for _ in 0..count {
        loop {
            match rd.next_line()? {
                LineEvent::Line(l) => {
                    if body.len() + l.len() + 1 > MAX_BATCH_BYTES {
                        err(shared);
                        writeln!(wr, "ERR batch body exceeds {MAX_BATCH_BYTES} bytes")?;
                        return Ok(false);
                    }
                    body.push_str(&l);
                    body.push('\n');
                    break;
                }
                LineEvent::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-batch",
                    ))
                }
                LineEvent::TimedOut => {
                    if shared.stop.load(Ordering::Acquire) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "shutdown during batch body",
                        ));
                    }
                }
            }
        }
    }

    let Some(release) = shared.releases.get(&name) else {
        err(shared);
        writeln!(wr, "ERR unknown release `{name}`")?;
        return Ok(true);
    };
    if mode == Mode::Exact && !release.serves_exact() {
        err(shared);
        writeln!(
            wr,
            "ERR release `{name}` was loaded from its published pair and serves estimate only"
        )?;
        return Ok(true);
    }
    let queries = match workload_from_text(release.parse_md(), &body) {
        Ok(q) => q,
        Err(e) => {
            err(shared);
            writeln!(wr, "ERR bad query: {e}")?;
            return Ok(true);
        }
    };
    if queries.len() != count {
        err(shared);
        writeln!(
            wr,
            "ERR batch body parsed to {} queries, header said {count} (blank lines?)",
            queries.len()
        )?;
        return Ok(true);
    }

    let _admitted = match shared.try_admit() {
        Ok(guard) => guard,
        Err(in_flight) => {
            shared.overloaded.fetch_add(1, Ordering::Relaxed);
            shared.obs.busy_rejections.incr();
            writeln!(wr, "BUSY {in_flight} {}", shared.max_inflight)?;
            return Ok(true);
        }
    };

    // The span behind `METRICS`' `serve.batch` summary: one per served
    // batch, covering evaluation and answer formatting. Its journal id
    // doubles as the slow-query log's trace exemplar.
    let started = Instant::now();
    let span = anatomy_obs::global().span("serve.batch");
    let span_id = span.trace_id();
    let mut out = String::with_capacity(8 * count + 16);
    let _ = writeln!(out, "OK {count}");
    match mode {
        Mode::Exact => {
            for v in evaluate_exact_batch_v2(Pool::global(), release.index(), &queries) {
                let _ = writeln!(out, "{v}");
            }
        }
        Mode::Estimate => {
            // f64 Display is shortest-round-trip, so the printed text
            // parses back to bit-identical estimates client-side.
            for v in estimate_anatomy_batch_v2(
                Pool::global(),
                release.index(),
                release.tables(),
                &queries,
            ) {
                let _ = writeln!(out, "{v}");
            }
        }
    }
    drop(span);
    if shared.slowlog.observe(
        &name,
        mode,
        count as u64,
        started.elapsed(),
        conn_id,
        span_id,
        &body,
    ) {
        shared.obs.slowlog_entries.incr();
    }
    wr.write_all(out.as_bytes())?;
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared.queries.fetch_add(count as u64, Ordering::Relaxed);
    shared.obs.batches.incr();
    shared.obs.queries.add(count as u64);
    Ok(true)
}
