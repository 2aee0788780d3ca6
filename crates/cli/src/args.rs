//! Minimal, dependency-free argument parsing.

use crate::CliResult;
use anatomy::Error;
use std::collections::HashMap;

/// Engine selection for `publish` (`--engine`), with the knobs each
/// engine takes. Mirrors `anatomy::Engine` with CLI-level defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineArg {
    /// The in-memory frequency ladder (the default).
    InMemory,
    /// The sharded out-of-core pipeline.
    Sharded {
        /// Page size in bytes (`--page-size`, default 4096).
        page_size: usize,
        /// Shard fan-out (`--shards`, default 8). With `--shard-pages` it
        /// sets only the page budget, `shards · shard-pages + 2`; the
        /// engine makes the same passes at every fan-out.
        shards: usize,
        /// Buffer pages per shard (`--shard-pages`, default 16): the other
        /// factor of the page budget.
        pages_per_shard: usize,
    },
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `anatomy stats --data F --schema F --sensitive NAME`
    Stats {
        /// Microdata CSV path.
        data: String,
        /// Schema file path.
        schema: String,
        /// Sensitive attribute name.
        sensitive: String,
    },
    /// `anatomy publish --data F --schema F --sensitive NAME --l N
    ///  --qit F --st F [--engine in-memory|sharded]
    ///  [--page-size N] [--shards N] [--shard-pages N]
    ///  [--seed N] [--metrics F] [--trace F]`
    Publish {
        /// Microdata CSV path.
        data: String,
        /// Schema file path.
        schema: String,
        /// Sensitive attribute name.
        sensitive: String,
        /// Diversity parameter.
        l: usize,
        /// Output path for the QIT CSV.
        qit: String,
        /// Output path for the ST CSV.
        st: String,
        /// RNG seed.
        seed: u64,
        /// Which anatomization engine runs the publish.
        engine: EngineArg,
        /// Audit the release before writing it: run every invariant
        /// registered for the `anatomize` stage and withhold the release
        /// on any failure.
        audit: bool,
        /// Write the run's `RunManifest` JSON here.
        metrics: Option<String>,
        /// Write an execution trace here (`.jsonl` for JSONL, anything
        /// else for Chrome trace-event JSON).
        trace: Option<String>,
    },
    /// `anatomy verify --qit F --st F --schema F --sensitive NAME --l N
    ///  [--stage STAGE]`
    ///
    /// Parses leniently, then runs every invariant the `anatomy-audit`
    /// registry lists for the chosen stage, reporting each one's
    /// PASS/FAIL by name and the worst adversary posterior.
    Verify {
        /// QIT CSV path.
        qit: String,
        /// ST CSV path.
        st: String,
        /// Schema file path.
        schema: String,
        /// Sensitive attribute name.
        sensitive: String,
        /// Claimed diversity parameter.
        l: usize,
        /// Pipeline stage whose registered invariants run (default
        /// `anatomize`). Validated against the registry's stage names.
        stage: Option<String>,
    },
    /// `anatomy verify --list-checks [--stage STAGE]`
    ///
    /// Print the invariant registry — name, severity, paper citation,
    /// and stages of every registered check — without loading a
    /// release. With `--stage`, only that stage's invariants.
    ListChecks {
        /// Restrict the listing to one pipeline stage.
        stage: Option<String>,
    },
    /// `anatomy query --qit F --st F --schema F --sensitive NAME --l N
    ///  --query SPEC [--metrics F] [--trace F]`
    ///
    /// Answers through the compressed v2 container index and its
    /// clustered batch evaluator, the path `anatomy serve` runs.
    Query {
        /// QIT CSV path.
        qit: String,
        /// ST CSV path.
        st: String,
        /// Schema file path.
        schema: String,
        /// Sensitive attribute name.
        sensitive: String,
        /// Claimed diversity parameter.
        l: usize,
        /// Query in the `anatomy_query::workload_to_text` line format.
        query: String,
        /// Write the run's `RunManifest` JSON here.
        metrics: Option<String>,
        /// Write an execution trace here (`.jsonl` for JSONL, anything
        /// else for Chrome trace-event JSON).
        trace: Option<String>,
    },
    /// `anatomy serve --qit F --st F --schema F --sensitive NAME --l N
    ///  [--data F] [--listen ADDR] [--port-file F] [--name NAME]
    ///  [--max-inflight N] [--max-batch N]`
    ///
    /// Loads one release, builds its query index once, and answers
    /// query batches over a socket until a `SHUTDOWN` request arrives.
    /// `--listen` takes `HOST:PORT` (port `0` picks a free one) or
    /// `unix:PATH`; the bound address is printed on stdout and, with
    /// `--port-file`, written to a file other processes can poll.
    Serve {
        /// QIT CSV path.
        qit: String,
        /// ST CSV path.
        st: String,
        /// Schema file path.
        schema: String,
        /// Sensitive attribute name.
        sensitive: String,
        /// Claimed diversity parameter.
        l: usize,
        /// Microdata CSV path; with it the release serves `exact`
        /// queries too, without it only `estimate` mode is available.
        data: Option<String>,
        /// `HOST:PORT` or `unix:PATH` to listen on.
        listen: String,
        /// Write the bound address here once listening.
        port_file: Option<String>,
        /// Release name clients address batches to.
        name: String,
        /// Batches evaluated concurrently before `BUSY` responses.
        max_inflight: usize,
        /// Largest accepted batch, in queries.
        max_batch: usize,
        /// Slow-query log threshold in milliseconds (`0` logs every
        /// batch).
        slowlog_threshold_ms: u64,
        /// Slow-query log ring capacity.
        slowlog_capacity: usize,
    },
    /// `anatomy top --connect ADDR [--interval-ms N] [--iterations N]
    ///  [--scrape F] [--slowlog N]`
    ///
    /// Live one-screen monitor for a running `anatomy serve`: polls the
    /// `METRICS` endpoint and renders qps, in-flight batches, BUSY
    /// rate, index bytes, and rolling latency percentiles. `--scrape F`
    /// instead writes one raw Prometheus exposition to `F` (`-` for
    /// stdout) and exits; `--slowlog N` prints the newest `N`
    /// slow-query entries and exits.
    Top {
        /// Server address (`HOST:PORT` or `unix:PATH`).
        connect: String,
        /// Refresh period in live mode.
        interval_ms: u64,
        /// Stop after this many refreshes (live mode runs until the
        /// server goes away when omitted).
        iterations: Option<usize>,
        /// One-shot: write a raw `METRICS` exposition here and exit.
        scrape: Option<String>,
        /// One-shot: print the newest N slow-query entries and exit.
        slowlog: Option<usize>,
    },
}

/// Usage text.
pub const USAGE: &str = "\
usage:
  anatomy stats   --data F --schema F --sensitive NAME
  anatomy publish --data F --schema F --sensitive NAME --l N --qit F --st F [--engine in-memory|sharded] [--page-size N] [--shards N] [--shard-pages N] [--seed N] [--audit] [--metrics F] [--trace F]
                  (sharded: the page budget is shards x shard-pages + 2, at least the sensitive domain size + 2)
  anatomy verify  --qit F --st F --schema F --sensitive NAME --l N [--stage STAGE]
  anatomy verify  --list-checks [--stage STAGE]
  anatomy query   --qit F --st F --schema F --sensitive NAME --l N --query 'qi0=1|2;s=0' [--metrics F] [--trace F]
  anatomy serve   --qit F --st F --schema F --sensitive NAME --l N [--data F] [--listen HOST:PORT|unix:PATH] [--port-file F] [--name NAME] [--max-inflight N] [--max-batch N] [--slowlog-threshold-ms N] [--slowlog-capacity N]
  anatomy top     --connect HOST:PORT|unix:PATH [--interval-ms N] [--iterations N] [--scrape F|-] [--slowlog N]";

/// Flags that take no value; their presence alone means "true".
const BOOLEAN_FLAGS: &[&str] = &["audit", "list-checks"];

fn flags(args: &[String]) -> CliResult<HashMap<String, String>> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| Error::msg(format!("expected a --flag, got `{a}`")))?;
        let value = if BOOLEAN_FLAGS.contains(&key) {
            "true".to_string()
        } else {
            let v = it
                .next()
                .ok_or_else(|| Error::msg(format!("--{key} needs a value")))?;
            // An empty value is always a quoting accident (`--trace ''`,
            // `--seed "$UNSET_VAR"`); rejecting it here keeps the
            // failure on the usage path (exit 2 + usage text) instead
            // of a confusing runtime error from whatever consumed "".
            if v.is_empty() {
                return Err(Error::msg(format!("--{key} needs a non-empty value")));
            }
            v.clone()
        };
        if map.insert(key.to_string(), value).is_some() {
            return Err(Error::msg(format!("--{key} given twice")));
        }
    }
    Ok(map)
}

fn take(map: &mut HashMap<String, String>, key: &str) -> CliResult<String> {
    map.remove(key)
        .ok_or_else(|| Error::msg(format!("missing --{key}")))
}

fn finish(map: HashMap<String, String>) -> CliResult<()> {
    if let Some(key) = map.keys().next() {
        return Err(Error::msg(format!("unknown flag --{key}")));
    }
    Ok(())
}

/// Pull an optional positive-integer flag, with a default.
fn take_usize(map: &mut HashMap<String, String>, key: &str, default: usize) -> CliResult<usize> {
    match map.remove(key) {
        None => Ok(default),
        Some(s) => match s.parse::<usize>() {
            Ok(v) if v > 0 => Ok(v),
            _ => Err(Error::msg(format!("--{key} must be a positive integer"))),
        },
    }
}

/// Parse the `--engine` family of flags. Engine-specific knobs given
/// alongside an engine that does not use them are usage errors, so a
/// typo'd invocation fails loudly instead of silently ignoring a flag.
fn take_engine(map: &mut HashMap<String, String>) -> CliResult<EngineArg> {
    let engine = map.remove("engine").unwrap_or_else(|| "in-memory".into());
    let reject = |map: &HashMap<String, String>, keys: &[&str], engine: &str| -> CliResult<()> {
        for key in keys {
            if map.contains_key(*key) {
                return Err(Error::msg(format!(
                    "--{key} does not apply to --engine {engine}"
                )));
            }
        }
        Ok(())
    };
    match engine.as_str() {
        "in-memory" => {
            reject(map, &["page-size", "shards", "shard-pages"], "in-memory")?;
            Ok(EngineArg::InMemory)
        }
        "sharded" => Ok(EngineArg::Sharded {
            page_size: take_usize(map, "page-size", 4096)?,
            shards: take_usize(map, "shards", 8)?,
            pages_per_shard: take_usize(map, "shard-pages", 16)?,
        }),
        other => Err(Error::msg(format!(
            "--engine must be in-memory or sharded, got `{other}`"
        ))),
    }
}

/// Parse `argv[1..]` into a [`Command`].
pub fn parse_args(args: &[String]) -> CliResult<Command> {
    let (cmd, rest) = args.split_first().ok_or_else(|| Error::msg(USAGE))?;
    let mut map = flags(rest)?;
    let parsed = match cmd.as_str() {
        "stats" => Command::Stats {
            data: take(&mut map, "data")?,
            schema: take(&mut map, "schema")?,
            sensitive: take(&mut map, "sensitive")?,
        },
        "publish" => Command::Publish {
            data: take(&mut map, "data")?,
            schema: take(&mut map, "schema")?,
            sensitive: take(&mut map, "sensitive")?,
            l: take(&mut map, "l")?
                .parse()
                .map_err(|_| "--l must be an integer")?,
            qit: take(&mut map, "qit")?,
            st: take(&mut map, "st")?,
            seed: map
                .remove("seed")
                .map(|s| s.parse::<u64>().map_err(|_| "--seed must be an integer"))
                .transpose()?
                .unwrap_or(0xA7A7),
            engine: take_engine(&mut map)?,
            audit: map.remove("audit").is_some(),
            metrics: map.remove("metrics"),
            trace: map.remove("trace"),
        },
        // `--list-checks` consults only the registry, so the release
        // flags are not required (and rejected by `finish` if given).
        "verify" if map.remove("list-checks").is_some() => Command::ListChecks {
            stage: map.remove("stage"),
        },
        "verify" => Command::Verify {
            qit: take(&mut map, "qit")?,
            st: take(&mut map, "st")?,
            schema: take(&mut map, "schema")?,
            sensitive: take(&mut map, "sensitive")?,
            l: take(&mut map, "l")?
                .parse()
                .map_err(|_| "--l must be an integer")?,
            stage: map.remove("stage"),
        },
        "query" => Command::Query {
            qit: take(&mut map, "qit")?,
            st: take(&mut map, "st")?,
            schema: take(&mut map, "schema")?,
            sensitive: take(&mut map, "sensitive")?,
            l: take(&mut map, "l")?
                .parse()
                .map_err(|_| "--l must be an integer")?,
            query: take(&mut map, "query")?,
            metrics: map.remove("metrics"),
            trace: map.remove("trace"),
        },
        "serve" => Command::Serve {
            qit: take(&mut map, "qit")?,
            st: take(&mut map, "st")?,
            schema: take(&mut map, "schema")?,
            sensitive: take(&mut map, "sensitive")?,
            l: take(&mut map, "l")?
                .parse()
                .map_err(|_| "--l must be an integer")?,
            data: map.remove("data"),
            listen: map
                .remove("listen")
                .unwrap_or_else(|| "127.0.0.1:0".to_string()),
            port_file: map.remove("port-file"),
            name: map.remove("name").unwrap_or_else(|| "default".to_string()),
            max_inflight: map
                .remove("max-inflight")
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| "--max-inflight must be an integer")
                })
                .transpose()?
                .unwrap_or(4),
            max_batch: map
                .remove("max-batch")
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| "--max-batch must be an integer")
                })
                .transpose()?
                .unwrap_or(65_536),
            // Unlike `take_usize`, zero is meaningful here: log every
            // batch (the CI smoke setting).
            slowlog_threshold_ms: map
                .remove("slowlog-threshold-ms")
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| "--slowlog-threshold-ms must be an integer")
                })
                .transpose()?
                .unwrap_or(100),
            slowlog_capacity: take_usize(&mut map, "slowlog-capacity", 128)?,
        },
        "top" => Command::Top {
            connect: take(&mut map, "connect")?,
            interval_ms: map
                .remove("interval-ms")
                .map(|s| match s.parse::<u64>() {
                    Ok(v) if v > 0 => Ok(v),
                    _ => Err("--interval-ms must be a positive integer"),
                })
                .transpose()?
                .unwrap_or(1_000),
            iterations: map
                .remove("iterations")
                .map(|s| match s.parse::<usize>() {
                    Ok(v) if v > 0 => Ok(v),
                    _ => Err("--iterations must be a positive integer"),
                })
                .transpose()?,
            scrape: map.remove("scrape"),
            slowlog: map
                .remove("slowlog")
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| "--slowlog must be an integer")
                })
                .transpose()?,
        },
        other => return Err(Error::msg(format!("unknown command `{other}`\n{USAGE}"))),
    };
    finish(map)?;
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_publish() {
        let c = parse_args(&argv(
            "publish --data d.csv --schema s.txt --sensitive Disease --l 4 --qit q.csv --st t.csv --seed 9",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Publish {
                data: "d.csv".into(),
                schema: "s.txt".into(),
                sensitive: "Disease".into(),
                l: 4,
                qit: "q.csv".into(),
                st: "t.csv".into(),
                seed: 9,
                engine: EngineArg::InMemory,
                audit: false,
                metrics: None,
                trace: None,
            }
        );
    }

    #[test]
    fn audit_is_a_boolean_publish_flag() {
        let c = parse_args(&argv(
            "publish --data d --schema s --sensitive X --l 2 --qit q --st t --audit --seed 9",
        ))
        .unwrap();
        match c {
            Command::Publish { audit, seed, .. } => {
                assert!(audit);
                assert_eq!(seed, 9);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_engine_flags() {
        let engine = |cmd: &str| match parse_args(&argv(cmd)).unwrap() {
            Command::Publish { engine, .. } => engine,
            _ => panic!("wrong command"),
        };
        const BASE: &str = "publish --data d --schema s --sensitive X --l 2 --qit q --st t";
        assert_eq!(engine(BASE), EngineArg::InMemory);
        assert_eq!(
            engine(&format!("{BASE} --engine in-memory")),
            EngineArg::InMemory
        );
        assert_eq!(
            engine(&format!("{BASE} --engine sharded")),
            EngineArg::Sharded {
                page_size: 4096,
                shards: 8,
                pages_per_shard: 16
            }
        );
        assert_eq!(
            engine(&format!(
                "{BASE} --engine sharded --page-size 512 --shards 4 --shard-pages 12"
            )),
            EngineArg::Sharded {
                page_size: 512,
                shards: 4,
                pages_per_shard: 12
            }
        );
    }

    #[test]
    fn rejects_misused_engine_flags() {
        const BASE: &str = "publish --data d --schema s --sensitive X --l 2 --qit q --st t";
        for bad in [
            format!("{BASE} --engine turbo"),
            format!("{BASE} --engine external"),
            format!("{BASE} --shards 4"),
            format!("{BASE} --engine in-memory --page-size 256"),
            format!("{BASE} --engine sharded --shards 0"),
            format!("{BASE} --engine sharded --page-size none"),
        ] {
            assert!(parse_args(&argv(&bad)).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parses_trace_flag() {
        let c = parse_args(&argv(
            "publish --data d --schema s --sensitive X --l 2 --qit q --st t --trace t.json",
        ))
        .unwrap();
        match c {
            Command::Publish { trace, .. } => assert_eq!(trace.as_deref(), Some("t.json")),
            _ => panic!("wrong command"),
        }
        let c = parse_args(&argv(
            "query --qit q --st t --schema s --sensitive X --l 3 --query qi0=1;s=0 --trace t.jsonl",
        ))
        .unwrap();
        match c {
            Command::Query { trace, .. } => assert_eq!(trace.as_deref(), Some("t.jsonl")),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn seed_defaults() {
        let c = parse_args(&argv(
            "publish --data d --schema s --sensitive X --l 2 --qit q --st t",
        ))
        .unwrap();
        match c {
            Command::Publish { seed, .. } => assert_eq!(seed, 0xA7A7),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("stats --data d")).is_err()); // missing flags
        assert!(parse_args(&argv("stats --data d --schema s --sensitive X --bogus 1")).is_err());
        assert!(parse_args(&argv("stats --data")).is_err()); // dangling flag
        assert!(parse_args(&argv(
            "publish --data d --schema s --sensitive X --l nope --qit q --st t"
        ))
        .is_err());
        assert!(parse_args(&argv("stats --data a --data b --schema s --sensitive X")).is_err());
    }

    #[test]
    fn rejects_empty_flag_values() {
        // `argv()` can't express an empty token, so build argv by hand:
        // the shell-quoting accidents `--trace ''` / `--seed "$UNSET"`.
        let args: Vec<String> = [
            "publish",
            "--data",
            "d",
            "--schema",
            "s",
            "--sensitive",
            "X",
            "--l",
            "2",
            "--qit",
            "q",
            "--st",
            "t",
            "--trace",
            "",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = parse_args(&args).unwrap_err();
        assert!(
            err.to_string().contains("--trace needs a non-empty value"),
            "{err}"
        );
        let args: Vec<String> = ["stats", "--data", "", "--schema", "s", "--sensitive", "X"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn dangling_value_flags_error_for_every_command() {
        // A value-taking flag as the last token must be a typed usage
        // error, never a panic — for each command's tail flag.
        for cmd in [
            "stats --data d --schema s --sensitive",
            "publish --data d --schema s --sensitive X --l 2 --qit q --st t --trace",
            "verify --qit q --st t --schema s --sensitive X --l",
            "query --qit q --st t --schema s --sensitive X --l 3 --query",
            "serve --qit q --st t --schema s --sensitive X --l 3 --listen",
        ] {
            let err = parse_args(&argv(cmd)).unwrap_err();
            assert!(err.to_string().contains("needs a value"), "{cmd}: {err}");
        }
    }

    #[test]
    fn parses_serve_with_defaults() {
        let c = parse_args(&argv("serve --qit q --st t --schema s --sensitive X --l 3")).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                qit: "q".into(),
                st: "t".into(),
                schema: "s".into(),
                sensitive: "X".into(),
                l: 3,
                data: None,
                listen: "127.0.0.1:0".into(),
                port_file: None,
                name: "default".into(),
                max_inflight: 4,
                max_batch: 65_536,
                slowlog_threshold_ms: 100,
                slowlog_capacity: 128,
            }
        );
        let c = parse_args(&argv(
            "serve --qit q --st t --schema s --sensitive X --l 3 --data d \
             --listen unix:/tmp/a.sock --port-file p --name census \
             --max-inflight 2 --max-batch 100 \
             --slowlog-threshold-ms 0 --slowlog-capacity 16",
        ))
        .unwrap();
        match c {
            Command::Serve {
                data,
                listen,
                name,
                max_inflight,
                max_batch,
                slowlog_threshold_ms,
                slowlog_capacity,
                ..
            } => {
                assert_eq!(data.as_deref(), Some("d"));
                assert_eq!(listen, "unix:/tmp/a.sock");
                assert_eq!(name, "census");
                assert_eq!(max_inflight, 2);
                assert_eq!(max_batch, 100);
                // Zero means "log every batch" and must parse.
                assert_eq!(slowlog_threshold_ms, 0);
                assert_eq!(slowlog_capacity, 16);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&argv(
            "serve --qit q --st t --schema s --sensitive X --l 3 --max-batch many"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "serve --qit q --st t --schema s --sensitive X --l 3 --slowlog-capacity 0"
        ))
        .is_err());
    }

    #[test]
    fn parses_top() {
        assert_eq!(
            parse_args(&argv("top --connect 127.0.0.1:9000")).unwrap(),
            Command::Top {
                connect: "127.0.0.1:9000".into(),
                interval_ms: 1_000,
                iterations: None,
                scrape: None,
                slowlog: None,
            }
        );
        let c = parse_args(&argv(
            "top --connect unix:/tmp/a.sock --interval-ms 250 --iterations 3",
        ))
        .unwrap();
        match c {
            Command::Top {
                connect,
                interval_ms,
                iterations,
                ..
            } => {
                assert_eq!(connect, "unix:/tmp/a.sock");
                assert_eq!(interval_ms, 250);
                assert_eq!(iterations, Some(3));
            }
            _ => panic!("wrong command"),
        }
        let c = parse_args(&argv("top --connect h:1 --scrape out.prom")).unwrap();
        match c {
            Command::Top { scrape, .. } => assert_eq!(scrape.as_deref(), Some("out.prom")),
            _ => panic!("wrong command"),
        }
        let c = parse_args(&argv("top --connect h:1 --slowlog 5")).unwrap();
        match c {
            Command::Top { slowlog, .. } => assert_eq!(slowlog, Some(5)),
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&argv("top")).is_err(), "--connect is required");
        assert!(parse_args(&argv("top --connect h:1 --interval-ms 0")).is_err());
        assert!(parse_args(&argv("top --connect h:1 --iterations 0")).is_err());
    }

    #[test]
    fn parses_verify() {
        let c = parse_args(&argv(
            "verify --qit q --st t --schema s --sensitive X --l 3",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Verify {
                qit: "q".into(),
                st: "t".into(),
                schema: "s".into(),
                sensitive: "X".into(),
                l: 3,
                stage: None,
            }
        );
        assert!(parse_args(&argv("verify --qit q --st t --schema s --sensitive X")).is_err());
        let c = parse_args(&argv(
            "verify --qit q --st t --schema s --sensitive X --l 3 --stage incremental",
        ))
        .unwrap();
        match c {
            Command::Verify { stage, .. } => assert_eq!(stage.as_deref(), Some("incremental")),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn list_checks_needs_no_release_flags() {
        assert_eq!(
            parse_args(&argv("verify --list-checks")).unwrap(),
            Command::ListChecks { stage: None }
        );
        assert_eq!(
            parse_args(&argv("verify --list-checks --stage incremental")).unwrap(),
            Command::ListChecks {
                stage: Some("incremental".into())
            }
        );
        // Release flags alongside --list-checks are usage errors, not
        // silently ignored.
        assert!(parse_args(&argv("verify --list-checks --qit q")).is_err());
    }

    #[test]
    fn parses_query() {
        let c = parse_args(&argv(
            "query --qit q --st t --schema s --sensitive X --l 3 --query qi0=1;s=0",
        ))
        .unwrap();
        match c {
            Command::Query { query, .. } => assert_eq!(query, "qi0=1;s=0"),
            _ => panic!("wrong command"),
        }
    }
}
