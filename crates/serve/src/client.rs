//! Blocking client plus the multi-threaded loadgen replay used by
//! `bench_serve` and the CI smoke.

use crate::protocol::{connect_stream, LineEvent, LineReader, Mode, ServeError};
use anatomy_query::{workload_to_text, CountQuery};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Default per-read timeout: a server silent this long is treated as
/// gone rather than blocking the client forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking protocol client over one connection.
pub struct ServeClient {
    rd: LineReader,
    wr: BufWriter<Box<dyn crate::protocol::Stream>>,
}

impl ServeClient {
    /// Connect to `addr` (`HOST:PORT` or `unix:PATH`).
    pub fn connect(addr: &str) -> std::io::Result<ServeClient> {
        let stream = connect_stream(addr)?;
        stream.set_read_timeout_opt(Some(READ_TIMEOUT))?;
        let writer = stream.try_clone_stream()?;
        Ok(ServeClient {
            rd: LineReader::new(stream),
            wr: BufWriter::with_capacity(1 << 16, writer),
        })
    }

    fn read_line(&mut self) -> Result<String, ServeError> {
        match self.rd.next_line()? {
            LineEvent::Line(l) => Ok(l),
            LineEvent::Eof => Err(ServeError::Protocol(
                "server closed the connection".to_string(),
            )),
            LineEvent::TimedOut => Err(ServeError::Protocol(format!(
                "no response within {READ_TIMEOUT:?}"
            ))),
        }
    }

    /// Read a status line and its payload lines.
    fn read_response(&mut self) -> Result<Vec<String>, ServeError> {
        let status = self.read_line()?;
        let mut parts = status.split_ascii_whitespace();
        match parts.next() {
            Some("OK") => {
                let count: usize = parts
                    .next()
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| ServeError::Protocol(format!("bad OK line `{status}`")))?;
                (0..count).map(|_| self.read_line()).collect()
            }
            Some("BUSY") => {
                let mut next = || parts.next().and_then(|v| v.parse::<u64>().ok());
                let (in_flight, max) = (next().unwrap_or(0), next().unwrap_or(0));
                Err(ServeError::Busy { in_flight, max })
            }
            Some("ERR") => Err(ServeError::Server(
                status.strip_prefix("ERR ").unwrap_or(&status).to_string(),
            )),
            _ => Err(ServeError::Protocol(format!("bad status line `{status}`"))),
        }
    }

    fn request(&mut self, line: &str) -> Result<Vec<String>, ServeError> {
        self.wr.write_all(line.as_bytes())?;
        self.wr.write_all(b"\n")?;
        self.wr.flush()?;
        self.read_response()
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.request("PING").map(|_| ())
    }

    /// The loaded releases, one description line each.
    pub fn releases(&mut self) -> Result<Vec<String>, ServeError> {
        self.request("RELEASES")
    }

    /// The metrics endpoint: a Prometheus text exposition of the
    /// server's registry plus rolling-window aggregates, as one string
    /// (trailing newline included).
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        let lines = self.request("METRICS")?;
        let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for l in &lines {
            text.push_str(l);
            text.push('\n');
        }
        Ok(text)
    }

    /// The newest `n` slow-query log entries, newest first.
    pub fn slowlog(&mut self, n: usize) -> Result<Vec<crate::slowlog::SlowEntry>, ServeError> {
        self.request(&format!("SLOWLOG {n}"))?
            .iter()
            .map(|l| crate::slowlog::SlowEntry::from_json(l).map_err(ServeError::Protocol))
            .collect()
    }

    /// Ask the server to stop accepting and exit cleanly.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.request("SHUTDOWN").map(|_| ())
    }

    /// Send one batch and return the raw answer lines.
    pub fn batch_lines(
        &mut self,
        release: &str,
        mode: Mode,
        queries: &[CountQuery],
    ) -> Result<Vec<String>, ServeError> {
        let mut req = String::with_capacity(24 * queries.len() + 32);
        let _ = writeln!(req, "BATCH {release} {mode} {}", queries.len());
        // One `workload_to_text` line per query — the exact format the
        // server's `workload_from_text` parses.
        req.push_str(&workload_to_text(queries));
        self.wr.write_all(req.as_bytes())?;
        self.wr.flush()?;
        let lines = self.read_response()?;
        if lines.len() != queries.len() {
            return Err(ServeError::Protocol(format!(
                "sent {} queries, got {} answers",
                queries.len(),
                lines.len()
            )));
        }
        Ok(lines)
    }

    /// Exact COUNT answers for one batch.
    pub fn batch_exact(
        &mut self,
        release: &str,
        queries: &[CountQuery],
    ) -> Result<Vec<u64>, ServeError> {
        self.batch_lines(release, Mode::Exact, queries)?
            .into_iter()
            .map(|l| {
                l.parse::<u64>()
                    .map_err(|_| ServeError::Protocol(format!("non-integer exact answer `{l}`")))
            })
            .collect()
    }

    /// Anatomy estimates for one batch. Rust's `f64` text round-trips
    /// exactly, so these are bit-for-bit the server's values.
    pub fn batch_estimate(
        &mut self,
        release: &str,
        queries: &[CountQuery],
    ) -> Result<Vec<f64>, ServeError> {
        self.batch_lines(release, Mode::Estimate, queries)?
            .into_iter()
            .map(|l| {
                l.parse::<f64>()
                    .map_err(|_| ServeError::Protocol(format!("non-float estimate `{l}`")))
            })
            .collect()
    }
}

/// What a [`replay`] run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadgenReport {
    /// Queries answered with `OK`.
    pub queries: u64,
    /// Batches answered with `OK`.
    pub batches: u64,
    /// `BUSY` rejections absorbed (each batch retries until accepted).
    pub busy: u64,
    /// Wall time of the whole replay.
    pub elapsed: Duration,
}

impl LoadgenReport {
    /// Sustained throughput over the replay wall time.
    pub fn queries_per_sec(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.queries as f64 / self.elapsed.as_secs_f64()
    }
}

/// Replay `batches` against `release` from `threads` concurrent
/// connections (batch `i` goes to thread `i % threads`), retrying
/// `BUSY` rejections with a short backoff. Returns the answers in
/// batch order alongside the throughput report.
pub fn replay(
    addr: &str,
    release: &str,
    mode: Mode,
    batches: &[Vec<CountQuery>],
    threads: usize,
) -> Result<(LoadgenReport, Vec<Vec<String>>), ServeError> {
    let threads = threads.max(1);
    let busy = AtomicU64::new(0);
    let mut answers: Vec<Option<Vec<String>>> = vec![None; batches.len()];
    let start = Instant::now();
    let results: Vec<Result<(), ServeError>> = std::thread::scope(|s| {
        let mut slots: Vec<&mut [Option<Vec<String>>]> = Vec::new();
        let mut rest = answers.as_mut_slice();
        // Interleaved ownership is awkward to split; round-robin by
        // chunking instead: thread t takes batches [t*per, ...).
        let per = batches.len().div_ceil(threads);
        for _ in 0..threads {
            let (head, tail) = rest.split_at_mut(per.min(rest.len()));
            slots.push(head);
            rest = tail;
        }
        let busy = &busy;
        let handles: Vec<_> = slots
            .into_iter()
            .enumerate()
            .map(|(t, out)| {
                s.spawn(move || -> Result<(), ServeError> {
                    if out.is_empty() {
                        return Ok(());
                    }
                    let mut client = ServeClient::connect(addr)?;
                    for (i, slot) in out.iter_mut().enumerate() {
                        let queries = &batches[t * per + i];
                        loop {
                            match client.batch_lines(release, mode, queries) {
                                Ok(lines) => {
                                    *slot = Some(lines);
                                    break;
                                }
                                Err(ServeError::Busy { .. }) => {
                                    busy.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                Err(e) => return Err(e),
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    for r in results {
        r?;
    }
    let answers: Vec<Vec<String>> = answers
        .into_iter()
        .map(|a| a.expect("batch filled"))
        .collect();
    let report = LoadgenReport {
        queries: batches.iter().map(|b| b.len() as u64).sum(),
        batches: batches.len() as u64,
        busy: busy.load(Ordering::Relaxed),
        elapsed,
    };
    Ok((report, answers))
}
