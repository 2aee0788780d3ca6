//! What a run prints: its metrics by name and unit, and a stamp of the
//! host and input facts they depend on.

use crate::inputs::{D, L};
use crate::probe::Reference;
use crate::{Args, Res, END_TO_END, PER_LAYER};
use anatomy_obs::{Json, Snapshot};
use std::collections::BTreeMap;

/// What one run measured. Workloads set values by metric name; units come
/// from the declared metric tables, so a name cannot drift from its unit.
#[derive(Default)]
pub struct Report {
    /// Operations started: publishes, or query batches sent.
    pub attempted: u64,
    /// Operations answered `BUSY` or `ERR`, or lost to a transport error.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    stamp: Vec<(String, Json)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set `name` to the median of `samples` and return it. Every sample
    /// is shown on stderr, so a spread between runs can be traced to them.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) -> f64 {
        let shown: Vec<String> = samples.iter().map(|x| format!("{x:.4}")).collect();
        eprintln!("# {name} samples: {}", shown.join(" "));
        let median = crate::probe::percentile(samples, 0.5);
        self.set(name, median);
        median
    }

    pub fn stamp_num(&mut self, key: &str, value: f64) {
        self.stamp.push((key.to_string(), Json::Num(value)));
    }

    pub fn stamp_text(&mut self, key: &str, value: impl Into<String>) {
        self.stamp.push((key.to_string(), Json::Str(value.into())));
    }

    /// Stamp how the run's end-to-end times were scaled to quiet-host speed.
    pub fn stamp_reference(&mut self, reference: &Reference) {
        let median = reference.median_s();
        self.stamp_num("reference_kernel_ms", median * 1e3);
        self.stamp_num("reference_kernel_mib", reference.mib());
        self.stamp_num("host_speed", reference.quiet_s() / median);
        self.stamp_text(
            "time_scale",
            format!(
                "every end-to-end time is at quiet-host speed: the time measured, times {} ms \
                 over the mean of the reference kernel's timings just before and after it; \
                 divide by host_speed for the time as measured",
                reference.quiet_s() * 1e3
            ),
        );
    }

    /// The pool's own scheduling counters over a registry delta.
    pub fn set_pool(&mut self, delta: &Snapshot) {
        let count = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64;
        let helped = count("pool.help_drained");
        let shares = count("pool.worker_shares") + helped;
        self.set(
            "pool.shares_per_batch",
            ratio(shares, count("pool.batches")),
        );
        self.set("pool.help_drained_frac", ratio(helped, shares));
        let share_ms = delta
            .hists
            .get("pool.share_ns")
            .map_or(0.0, |h| h.mean() * 1e-6);
        self.set("pool.share_mean_ms", share_ms);
    }

    /// Print the stamp line, then the result line. An untraced run prints
    /// every end-to-end metric and a traced run every per-layer one; a
    /// per-layer metric the workload left unset is a layer that did no
    /// work in it, and reads 0.
    pub fn print(mut self, args: &Args) -> Res<()> {
        if self.attempted == 0 {
            return Err("the run attempted no operation".into());
        }
        let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if args.trace => 0.0,
                None => return Err(format!("the workload did not measure {name}").into()),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not a finite number: {value}").into());
            }
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            ));
        }
        let mut stamp = vec![
            ("workload".to_string(), Json::Str(args.workload.clone())),
            ("seed".to_string(), Json::Num(args.seed as f64)),
            ("seconds".to_string(), Json::Num(args.budget.as_secs_f64())),
            ("trace".to_string(), Json::Bool(args.trace)),
            ("smoke".to_string(), Json::Bool(args.smoke)),
            ("d".to_string(), Json::Num(D as f64)),
            ("l".to_string(), Json::Num(L as f64)),
            (
                "available_parallelism".to_string(),
                Json::Num(std::thread::available_parallelism().map_or(0, |p| p.get()) as f64),
            ),
            (
                "pinned_cpu".to_string(),
                args.cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            (
                "pool_lanes".to_string(),
                Json::Num(anatomy_pool::Pool::global().threads() as f64),
            ),
            (
                "storage_io".to_string(),
                Json::Str(
                    "the sharded engine's paged storage is simulated in memory: its I/O is \
                     counted pages, not device behaviour"
                        .to_string(),
                ),
            ),
            (
                "os_io".to_string(),
                Json::Str(
                    "microdata and release files go through the OS page cache; \
                     sockets are TCP over loopback"
                        .to_string(),
                ),
            ),
        ];
        stamp.append(&mut self.stamp);
        println!(
            "{}",
            Json::Obj(vec![("stamp".to_string(), Json::Obj(stamp))]).render(false)
        );
        let result = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(true)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        println!("{}", result.render(false));
        Ok(())
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
