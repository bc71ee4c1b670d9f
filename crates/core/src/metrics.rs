//! Database-level observability bundle: one [`MetricsRegistry`] per
//! database holding the standard engine families plus WAL, value-log,
//! and SSTable I/O counters from the subsystem crates. Every partition
//! records into the same registry, so snapshots are already "merged
//! across partitions"; [`MetricsSnapshot::merge`] remains available for
//! folding multiple databases (or engines) into one report.

use crate::options::UniKvOptions;
use std::sync::Arc;
use unikv_common::metrics::{
    Counter, EngineMetrics, Gauge, Histogram, MetricsRegistry, MetricsSnapshot,
};
use unikv_sstable::TableIoMetrics;
use unikv_vlog::VlogMetrics;
use unikv_wal::WalMetrics;

/// All metric handles a UniKV database records through.
#[derive(Clone)]
pub struct DbMetrics {
    /// The registry every handle below records into.
    pub registry: Arc<MetricsRegistry>,
    /// Standard cross-engine families (latencies, tier counters).
    pub eng: EngineMetrics,
    /// WAL record/sync counters (shared by every partition's log).
    pub wal: WalMetrics,
    /// Value-log append/rotation counters.
    pub vlog: VlogMetrics,
    /// SSTable block-read and cache hit/miss counters.
    pub table_io: TableIoMetrics,
    /// Values fetched from value logs during scans (pointer jobs).
    pub scan_vlog_fetches: Counter,
    /// Positional value-log reads scans issued for those values (one per
    /// run of adjacent records with the scan optimization on).
    pub scan_vlog_reads: Counter,
    /// Scans that read at least one value from a value log; each resolves
    /// its values as one batch on the scanning thread. Registered as
    /// `fetch_inline_batches`, the name the benchmark reads.
    pub(crate) scan_value_batches: Counter,
    /// Batch-write latency (one sample per `write_batch` call; the ops
    /// inside a batch count into `writes`/`batch_ops`, not `put_latency`).
    pub batch_latency: Histogram,
    /// Operations applied through `write_batch`.
    pub batch_ops: Counter,
    /// Depth of the background maintenance queue.
    pub maint_queue_depth: Gauge,
}

impl DbMetrics {
    /// Build the registry and register every family. Disabled databases
    /// still register the families (names stay enumerable) but record
    /// nothing and keep the trace ring off.
    pub fn new(opts: &UniKvOptions) -> DbMetrics {
        let trace_cap = if opts.enable_metrics {
            opts.metrics_trace_events
        } else {
            0
        };
        let registry = MetricsRegistry::new(opts.enable_metrics, trace_cap);
        DbMetrics {
            eng: EngineMetrics::new(&registry),
            wal: WalMetrics::new(&registry),
            vlog: VlogMetrics::new(&registry),
            table_io: TableIoMetrics::new(&registry),
            scan_vlog_fetches: registry.counter("scan_vlog_fetches"),
            scan_vlog_reads: registry.counter("scan_vlog_reads"),
            scan_value_batches: registry.counter("fetch_inline_batches"),
            batch_latency: registry.histogram("batch_latency_us"),
            batch_ops: registry.counter("batch_ops"),
            maint_queue_depth: registry.gauge("maint_queue_depth"),
            registry,
        }
    }

    /// Current snapshot of every family.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Human-readable report: every family plus the tail of the op trace.
    pub fn report_text(&self) -> String {
        let mut out = self.registry.snapshot().render_text();
        let trace = self.registry.trace();
        let events = trace.events();
        out.push_str(&format!(
            "== trace ({} events retained, cap {}, {} dropped) ==\n",
            events.len(),
            trace.capacity(),
            trace.dropped()
        ));
        const TAIL: usize = 16;
        for ev in events.iter().rev().take(TAIL).rev() {
            out.push_str(&format!("  {ev}\n"));
        }
        out
    }

    /// Stable machine-readable report (tab-separated families).
    pub fn report_machine(&self) -> String {
        self.registry.snapshot().render_machine()
    }
}
