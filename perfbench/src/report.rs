//! Turning one run's measurements into named metrics, the human-readable
//! tables, and the one-line JSON result.

use crate::env::{Call, FileClass, IoSnapshot};
use crate::hist::Histogram;
use crate::trace::{EnvTimes, JobTotals, JOBS};
use crate::workload::{ClientTrace, OpKind, Window};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use unikv::{PerfContext, PerfStage};

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// `a / b`, or 0 when `b` is 0 (the layer was idle).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

const MIB: f64 = (1u64 << 20) as f64;

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-layer inputs that exist only in a traced run.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Env time by class and call in the measured phase.
    pub env: EnvTimes,
    /// Maintenance jobs finished in the measured phase.
    pub jobs: [JobTotals; JOBS.len()],
    /// Client-side timing, summed over clients.
    pub client: ClientTrace,
    /// Client thread time: the measured wall time of every client, summed.
    pub thread_ns: u64,
}

/// Everything one run measured.
#[derive(Clone, Debug, Default)]
pub struct RunData {
    /// Measured-phase wall time.
    pub wall_s: f64,
    /// Length of one window of the measured phase.
    pub window_s: f64,
    /// Op latencies, in ns, per window of the measured phase.
    pub windows: Vec<Window>,
    /// Ops attempted: the measured phase plus the reads of the final
    /// verification.
    pub attempted: u64,
    /// Failed or wrong-result ops among `attempted`.
    pub failed: u64,
    /// `stats()` counters accrued in the measured phase.
    pub stats: BTreeMap<String, u64>,
    /// `metrics_snapshot()` counters accrued in the measured phase.
    pub counters: BTreeMap<String, u64>,
    /// Env bytes and calls in the measured phase.
    pub io: IoSnapshot,
    /// Env bytes written from database creation until background work
    /// drained after the measured phase.
    pub device_bytes_written: u64,
    /// User key+value bytes accepted over the same span.
    pub user_bytes_written: u64,
    /// On-disk bytes of the database ÷ live user bytes, sampled at every
    /// window boundary and once more after background work drained.
    pub space_amp: Vec<f64>,
    pub peak_rss_bytes: u64,
    /// Each set-up's time (open + preload + wait for background work).
    pub setup_s: Vec<f64>,
    pub index_memory_bytes: u64,
    pub partitions: u64,
    pub traced: Option<Traced>,
}

impl RunData {
    pub fn ops(&self) -> u64 {
        OpKind::ALL.iter().map(|&k| self.count(k) as u64).sum()
    }

    fn stat(&self, name: &str) -> f64 {
        self.stats.get(name).copied().unwrap_or(0) as f64
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn count(&self, kind: OpKind) -> f64 {
        self.windows
            .iter()
            .map(|w| w[kind.idx()].count())
            .sum::<u64>() as f64
    }

    /// Latencies of every op of the given kinds.
    fn latencies(&self, kinds: &[OpKind]) -> Histogram {
        let mut all = Histogram::default();
        for w in &self.windows {
            kinds.iter().for_each(|k| all.merge(&w[k.idx()]));
        }
        all
    }

    /// Median over windows of throughput (kops/s), p50 and p90 latency
    /// (µs). Windows with no op are left out of the latency medians.
    pub fn window_medians(&self) -> (f64, f64, f64) {
        let (mut kops, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
        for w in &self.windows {
            let mut all = Histogram::default();
            w.iter().for_each(|h| all.merge(h));
            kops.push(ratio(all.count() as f64, self.window_s) / 1e3);
            if all.count() > 0 {
                p50.push(all.quantile(0.50) / 1e3);
                p90.push(all.quantile(0.90) / 1e3);
            }
        }
        (median(&kops), median(&p50), median(&p90))
    }
}

/// The end-to-end metrics, from an untraced run. They exist on every
/// workload, so latency is taken over all of a workload's ops; the
/// per-kind split, with p99, is printed by [`render_latency_table`].
/// Throughput and latency are medians over the windows of the measured
/// phase, so a burst of host noise in a few windows does not move them.
/// The tail metric is p90, not p99: on a 2-vCPU shared VM, p99 followed
/// the host's CPU steal (trial runs of YCSB-E put it anywhere from 0.3 to
/// 8 ms), so it measured the host more than the store.
pub fn end_to_end(d: &RunData) -> Vec<Metric> {
    let (kops, p50, p90) = d.window_medians();
    vec![
        metric("throughput_kops", "kops/s", kops),
        metric("latency_p50_us", "us", p50),
        metric("latency_p90_us", "us", p90),
        metric(
            "write_amp",
            "ratio",
            ratio(d.device_bytes_written as f64, d.user_bytes_written as f64),
        ),
        metric("space_amp", "ratio", median(&d.space_amp)),
        metric("peak_rss_mib", "MiB", d.peak_rss_bytes as f64 / MIB),
        metric("setup_s", "s", median(&d.setup_s)),
    ]
}

/// Stage time per profiled op of `kind`, in µs.
fn stage_us(prof: &PerfContext, stage: PerfStage) -> f64 {
    ratio(prof.stage(stage) as f64, prof.ops as f64)
}

/// The per-layer metrics, from a traced run (all zero without one).
pub fn per_layer(d: &RunData) -> Vec<Metric> {
    let t = d.traced.clone().unwrap_or_default();
    let (gets, puts, scans) = (
        d.count(OpKind::Get),
        d.count(OpKind::Put),
        d.count(OpKind::Scan),
    );
    let pg = &t.client.prof[OpKind::Get.idx()];
    let pp = &t.client.prof[OpKind::Put.idx()];
    let self_us = |k: OpKind| ratio(t.client.self_ns[k.idx()] as f64, d.count(k)) / 1e3;
    let io = &d.io;
    let class = |c: FileClass| c.idx();
    let user_bytes = d.stat("user_bytes_written");
    let sync_s = |c: FileClass| t.env.ns(c, Call::Sync) as f64 / 1e9;
    let probes_per_get = ratio(pg.hash_probes as f64, pg.ops as f64);

    let mut m = vec![
        metric("core.get_self_us", "us", self_us(OpKind::Get)),
        metric("core.put_self_us", "us", self_us(OpKind::Put)),
        metric("core.scan_self_us", "us", self_us(OpKind::Scan)),
        metric(
            "wal.appends_per_put",
            "ratio",
            ratio(d.counter("wal_records"), puts),
        ),
        metric(
            "wal.append_us_per_put",
            "us",
            stage_us(pp, PerfStage::WalAppend),
        ),
        metric("wal.syncs", "count", io.syncs[class(FileClass::Wal)] as f64),
        metric("wal.sync_s", "s", sync_s(FileClass::Wal)),
        metric(
            "wal.bytes_per_user_byte",
            "ratio",
            ratio(io.written[class(FileClass::Wal)] as f64, user_bytes),
        ),
        metric(
            "memtable.us_per_put",
            "us",
            stage_us(pp, PerfStage::Memtable),
        ),
        metric(
            "memtable.read_hit_ratio",
            "ratio",
            ratio(d.counter("reads_hit_memtable"), d.counter("reads")),
        ),
        metric(
            "hashindex.probe_us_per_get",
            "us",
            stage_us(pg, PerfStage::IndexProbe),
        ),
        metric("hashindex.probes_per_get", "ratio", probes_per_get),
        metric(
            "hashindex.false_positive_ratio",
            "ratio",
            ratio(d.stat("index_false_positives"), probes_per_get * gets),
        ),
        metric(
            "hashindex.memory_mib",
            "MiB",
            d.index_memory_bytes as f64 / MIB,
        ),
        metric("partition.count", "count", d.partitions as f64),
        metric(
            "partition.boundary_search_us_per_get",
            "us",
            stage_us(pg, PerfStage::BoundarySearch),
        ),
        metric(
            "sstable.block_reads_per_get",
            "ratio",
            ratio(pg.block_reads as f64, pg.ops as f64),
        ),
        metric(
            "sstable.cache_hit_ratio",
            "ratio",
            ratio(
                d.counter("sst_cache_hits"),
                d.counter("sst_cache_hits") + d.counter("sst_cache_misses"),
            ),
        ),
        metric(
            "sstable.tables_checked_per_get",
            "ratio",
            ratio(d.stat("tables_checked"), gets),
        ),
        metric(
            "sstable.read_us_per_get",
            "us",
            stage_us(pg, PerfStage::BlockRead),
        ),
        metric(
            "vlog.reads_per_get",
            "ratio",
            ratio(d.counter("reads_vlog_resolved"), d.counter("reads")),
        ),
        metric(
            "vlog.read_us_per_get",
            "us",
            stage_us(pg, PerfStage::VlogFetch),
        ),
        metric(
            "vlog.reads_per_scan_item",
            "ratio",
            ratio(d.counter("scan_vlog_fetches"), d.counter("scan_items")),
        ),
        metric(
            "vlog.bytes_per_user_byte",
            "ratio",
            ratio(io.written[class(FileClass::Vlog)] as f64, user_bytes),
        ),
    ];
    let stat_counts = ["flushes", "scan_merges", "merges", "gcs", "splits"];
    for (j, job) in JOBS.iter().enumerate() {
        let totals = t.jobs[j];
        m.push(metric(
            format!("maintenance.{job}_count"),
            "count",
            d.stat(stat_counts[j]),
        ));
        m.push(metric(
            format!("maintenance.{job}_s"),
            "s",
            totals.micros as f64 / 1e6,
        ));
        m.push(metric(
            format!("maintenance.{job}_bytes_written"),
            "bytes",
            totals.bytes_written as f64,
        ));
    }
    m.extend([
        metric(
            "maintenance.stall_s",
            "s",
            d.stat("stall_time_micros") / 1e6,
        ),
        metric(
            "maintenance.stall_slowdowns",
            "count",
            d.stat("stall_slowdowns"),
        ),
        metric("maintenance.stall_stops", "count", d.stat("stall_stops")),
        metric(
            "maintenance.queue_depth_max",
            "count",
            t.client.queue_depth_max as f64,
        ),
        metric(
            "fetch.parallel_batches",
            "count",
            d.counter("fetch_parallel_batches"),
        ),
        metric(
            "fetch.inline_batches",
            "count",
            d.counter("fetch_inline_batches"),
        ),
        metric(
            "fetch.items_per_scan",
            "ratio",
            ratio(d.counter("scan_items"), scans),
        ),
        metric(
            "meta.commits",
            "count",
            io.creates[class(FileClass::Meta)] as f64,
        ),
        metric(
            "meta.bytes_written",
            "bytes",
            io.written[class(FileClass::Meta)] as f64,
        ),
        metric("meta.sync_s", "s", sync_s(FileClass::Meta)),
    ]);
    for c in [
        FileClass::Wal,
        FileClass::Sst,
        FileClass::Vlog,
        FileClass::Meta,
        FileClass::IndexCkpt,
    ] {
        m.push(metric(
            format!("env.bytes_written.{}", c.name()),
            "bytes",
            io.written[c.idx()] as f64,
        ));
    }
    for c in [FileClass::Sst, FileClass::Vlog] {
        m.push(metric(
            format!("env.bytes_read.{}", c.name()),
            "bytes",
            io.read[c.idx()] as f64,
        ));
    }
    let all_sync_s: f64 = FileClass::ALL.iter().map(|&c| sync_s(c)).sum();
    m.extend([
        metric("env.syncs", "count", io.syncs.iter().sum::<u64>() as f64),
        metric("env.sync_s", "s", all_sync_s),
        metric("trace.throughput_kops", "kops/s", d.window_medians().0),
        metric(
            "trace.residual_share",
            "ratio",
            ratio(budget(d, &t).residual_ns as f64, t.thread_ns as f64),
        ),
    ]);
    m
}

/// Where the client threads' time went in a traced run.
pub struct Budget {
    /// `(row, ns)` rows that sum, with the residual, to client thread time.
    pub rows: Vec<(String, u64)>,
    pub residual_ns: u64,
    /// Env time on threads the benchmark did not start, by class. It runs
    /// alongside the clients and is not part of their time.
    pub background: Vec<(String, u64)>,
}

pub fn budget(d: &RunData, t: &Traced) -> Budget {
    let c = &t.client;
    let mut rows = vec![("generator".to_string(), c.gen_ns)];
    for k in OpKind::ALL {
        if d.count(k) > 0.0 {
            rows.push((format!("core.{}_self", k.name()), c.self_ns[k.idx()]));
        }
    }
    for class in FileClass::ALL {
        rows.push((format!("env.{}", class.name()), t.env.fg_class_ns(class)));
    }
    rows.push(("oracle".to_string(), c.oracle_ns));
    let attributed: u64 = rows.iter().map(|r| r.1).sum();
    let background = FileClass::ALL
        .iter()
        .map(|&class| (format!("env.{}", class.name()), t.env.bg_class_ns(class)))
        .collect();
    Budget {
        rows,
        residual_ns: t.thread_ns.saturating_sub(attributed),
        background,
    }
}

pub fn render_budget(d: &RunData, t: &Traced) -> String {
    let b = budget(d, t);
    let share = |ns: u64| 100.0 * ratio(ns as f64, t.thread_ns as f64);
    let mut out = format!(
        "time budget ({:.3} s client thread time)\n  {:<24} {:>10} {:>7}\n",
        t.thread_ns as f64 / 1e9,
        "row",
        "ms",
        "%"
    );
    for (name, ns) in b
        .rows
        .iter()
        .chain([&("residual".to_string(), b.residual_ns)])
    {
        let _ = writeln!(
            out,
            "  {name:<24} {:>10.1} {:>6.2}%",
            *ns as f64 / 1e6,
            share(*ns)
        );
    }
    out.push_str("  background (concurrent with the clients, not in the sum above)\n");
    for (name, ns) in &b.background {
        let _ = writeln!(out, "  {name:<24} {:>10.1}", *ns as f64 / 1e6);
    }
    for (j, job) in JOBS.iter().enumerate() {
        let _ = writeln!(
            out,
            "  maintenance.{job:<12} {:>10.1}  ({} jobs)",
            t.jobs[j].micros as f64 / 1e3,
            t.jobs[j].count
        );
    }
    out
}

pub fn render_stage_tables(t: &Traced) -> String {
    let mut out = String::new();
    for k in [OpKind::Get, OpKind::Put] {
        let prof = &t.client.prof[k.idx()];
        if prof.ops > 0 {
            let _ = writeln!(out, "stage profile of sampled {} ops:", k.name());
            out.push_str(&prof.render_table());
        }
    }
    out
}

/// Latency per op kind with sample counts, and the error rate.
pub fn render_latency_table(d: &RunData) -> String {
    let mut out = format!(
        "  {:<16} {:>10} {:>10} {:>10}\n",
        "op", "p50_us", "p99_us", "samples"
    );
    let mut row = |name: &str, lat: Histogram| {
        let _ = writeln!(
            out,
            "  {name:<16} {:>10.2} {:>10.2} {:>10}",
            lat.quantile(0.5) / 1e3,
            lat.quantile(0.99) / 1e3,
            lat.count()
        );
    };
    for (k, label) in [
        (OpKind::Get, "read"),
        (OpKind::Put, "write"),
        (OpKind::Scan, "scan"),
    ] {
        if d.count(k) > 0.0 {
            row(label, d.latencies(&[k]));
        }
    }
    row("all", d.latencies(&OpKind::ALL));
    let _ = writeln!(
        out,
        "  error_rate {} ({} failed of {} attempted)",
        ratio(d.failed as f64, d.attempted as f64),
        d.failed,
        d.attempted
    );
    out
}

pub fn render_metrics(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(out, "  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn names(ms: &[Metric]) -> Vec<String> {
        ms.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn emitted_names_are_well_formed_unique_and_within_limits() {
        let d = RunData::default();
        let (e2e, layer) = (end_to_end(&d), per_layer(&d));
        assert!(e2e.len() <= 16 && layer.len() <= 128);
        let mut all = names(&e2e);
        all.extend(names(&layer));
        for m in e2e.iter().chain(&layer) {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        }
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric names");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let declared: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        let d = RunData::default();
        let mut emitted = names(&end_to_end(&d));
        emitted.extend(names(&per_layer(&d)));
        emitted.extend(crate::workload::SPECS.iter().map(|s| s.name.to_string()));
        let mut declared: Vec<String> = declared.iter().map(|s| s.to_string()).collect();
        declared.sort();
        emitted.sort();
        assert_eq!(declared, emitted);
        for m in end_to_end(&d).iter().chain(&per_layer(&d)) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(text.contains(&entry), "unit of {} differs", m.name);
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let line = result_json(true, 10, 0, &[metric("setup_s", "s", 0.8127)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
