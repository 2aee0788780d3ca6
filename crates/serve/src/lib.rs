//! # anatomy-serve
//!
//! A resident query server for anatomized releases. Every other entry
//! point in the workspace is a one-shot process that re-parses the
//! release and rebuilds the compressed
//! [`QueryIndexV2`](anatomy_query::QueryIndexV2) per invocation; this
//! crate loads a release **once**, caches the index, and answers
//! COUNT-query batches over a socket for as long as the process lives —
//! amortizing the milliseconds-scale build across millions of
//! microseconds-scale queries.
//!
//! Zero dependencies beyond the workspace: the protocol is
//! newline-delimited UTF-8 text over `std::net` (TCP) or
//! `std::os::unix::net` (unix sockets), batches are length-delimited by
//! a query count in the request header, and the metrics endpoint replies
//! with the Prometheus text exposition that `check_exposition`
//! validates.
//!
//! ## Protocol grammar
//!
//! Requests are single lines, except `BATCH` which is followed by its
//! body. Every response starts with a status line:
//!
//! ```text
//! request  := "PING" | "RELEASES" | "METRICS"
//!           | "SLOWLOG" [SP n] | "SHUTDOWN"
//!           | "BATCH" SP name SP mode SP count NL query-line{count}
//! mode     := "exact" | "estimate"
//! query-line := the `anatomy_query::workload_to_text` line format,
//!               e.g. "qi0=1|2;s=0"
//!
//! response := "OK" SP count NL payload-line{count}
//!           | "BUSY" SP in-flight SP max-in-flight NL
//!           | "ERR" SP message NL
//! ```
//!
//! `BATCH` answers one payload line per query, in request order: a
//! decimal `u64` for `exact` mode, a shortest-round-trip `f64` for
//! `estimate` mode (Rust's float `Display` guarantees the printed text
//! parses back to the identical bits, so served answers stay bit-for-bit
//! comparable to in-process evaluation). `RELEASES` answers one line per
//! loaded release. `PING` and `SHUTDOWN` answer `OK 0`. `GET /metrics`
//! is the one request outside this grammar (see below).
//!
//! ## Continuous monitoring
//!
//! `METRICS` answers a Prometheus text exposition
//! ([`render_exposition`](anatomy_obs::render_exposition)) of the
//! process registry plus rolling-window aggregates — a sampler thread
//! runs for the server's lifetime, folding registry deltas into fixed
//! rings of time buckets (60×1s and 60×1m by default, see
//! [`anatomy_obs::WindowConfig`]), so scrapes carry per-window rates
//! and rolling p50/p90/p99/max at O(ring) memory and zero added
//! write-path cost. The same listener also answers HTTP
//! `GET /metrics` (one response per connection, then close), so stock
//! scrapers need no protocol shim.
//!
//! `SLOWLOG n` answers the newest `n` slow-query log entries (all
//! retained entries when `n` is omitted), newest first, one JSON
//! object per line ([`SlowEntry`]): batches whose wall time reached
//! `slowlog_threshold` are recorded with the workload's first line and
//! the `serve.batch` span's journal id, linking each outlier to its
//! span in the exported trace when the process tracer is on.
//!
//! ## Overload semantics
//!
//! The server evaluates at most `max_inflight` batches concurrently
//! (admission control across all connections). A batch arriving beyond
//! that is **not queued**: its body is drained and the client gets an
//! explicit `BUSY` line, so back-pressure is visible instead of latent.
//! Oversized batches (`count > max_batch`, or a body past
//! [`protocol::MAX_BATCH_BYTES`]) and malformed headers are protocol
//! errors: the server answers `ERR` and closes the connection, because
//! the stream can no longer be trusted to be in sync.
//!
//! ## Quick start
//!
//! ```
//! use anatomy_core::{anatomize, AnatomizeConfig, AnatomizedTables};
//! use anatomy_query::{evaluate_exact, WorkloadSpec};
//! use anatomy_serve::{Mode, ServeClient, ServeConfig, ServedRelease, Server};
//! # use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder};
//! # let schema = Schema::new(vec![
//! #     Attribute::numerical("Age", 50),
//! #     Attribute::categorical("Disease", 7),
//! # ]).unwrap();
//! # let mut b = TableBuilder::new(schema);
//! # for i in 0..120u32 { b.push_row(&[i % 50, i % 7]).unwrap(); }
//! # let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
//!
//! let partition = anatomize(&md, &AnatomizeConfig::new(4)).unwrap();
//! let tables = AnatomizedTables::publish(&md, &partition, 4).unwrap();
//! let release = ServedRelease::exact("demo", md.clone(), tables).unwrap();
//!
//! let server = Server::bind(ServeConfig::default(), vec![release]).unwrap();
//! let (addr, handle) = server.spawn();
//!
//! let queries = WorkloadSpec { qd: 1, selectivity: 0.1, count: 8, seed: 7 }
//!     .generate(&md)
//!     .unwrap();
//! let mut client = ServeClient::connect(&addr).unwrap();
//! let served = client.batch_exact("demo", &queries).unwrap();
//! for (q, &got) in queries.iter().zip(&served) {
//!     assert_eq!(got, evaluate_exact(&md, q));
//! }
//! client.shutdown().unwrap();
//! handle.join().unwrap().unwrap();
//! ```

pub mod client;
pub mod protocol;
pub mod release;
pub mod server;
pub mod slowlog;

pub use client::{replay, LoadgenReport, ServeClient};
pub use protocol::{Mode, ServeError};
pub use release::ServedRelease;
pub use server::{ServeConfig, ServeSummary, Server};
pub use slowlog::{SlowEntry, SlowLog};
