//! Outside-in tracing for the traced run.
//!
//! Spans are recorded only from the benchmark's own code: the client loop
//! wraps each `UniKv` call in an op span, and [`crate::env::ClassEnv`]
//! records one child span per env call. A benchmark-owned thread-local
//! holds the op in flight on the calling thread, so an env call made while
//! an op is in flight on the same thread is that op's child; an env call on
//! any other thread (maintenance workers, the scan fetch pool) is recorded
//! as `background`. A layer's self time is its span's duration minus the
//! time of its child spans.
//!
//! Aggregates cover every span. The spans themselves are kept in memory up
//! to [`SPAN_CAP`] and written out when the run ends.

use crate::env::{Call, FileClass, CALLS, CLASSES};
use crate::workload::OpKind;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use unikv::{Event, EventKind, EventListener};

/// Spans kept in memory for the trace file; later spans only feed the
/// aggregates.
pub const SPAN_CAP: usize = 200_000;

thread_local! {
    // Id of the op in flight on this thread (0: none) and the env time its
    // child spans have taken so far.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// An op id is `(client + 1) << OP_CLIENT_SHIFT | (seq + 1)`: never 0, and
/// unique across clients. The trace file writes it as `client:seq+1`.
pub const OP_CLIENT_SHIFT: u32 = 48;

/// Mark `id` as the op in flight on this thread.
pub fn begin_op(id: u64) {
    CURRENT_OP.set(id);
    CHILD_NS.set(0);
}

/// End the op in flight; returns the env time of its child spans in ns.
pub fn end_op() -> u64 {
    CURRENT_OP.set(0);
    CHILD_NS.get()
}

/// What a span covers.
#[derive(Clone, Copy, Debug)]
pub enum SpanName {
    Op(OpKind),
    Env(FileClass, Call),
}

/// One recorded span. `op` is the op id for op spans and their env
/// children, and 0 for background env calls.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub name: SpanName,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub bytes: u64,
}

type Grid = [[AtomicU64; CALLS]; CLASSES];

/// Env time per class and call, split into op children (foreground) and
/// background.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnvTimes {
    pub fg_ns: [[u64; CALLS]; CLASSES],
    pub bg_ns: [[u64; CALLS]; CLASSES],
}

impl EnvTimes {
    pub fn since(&self, earlier: &EnvTimes) -> EnvTimes {
        let d = |a: &[[u64; CALLS]; CLASSES], b: &[[u64; CALLS]; CLASSES]| {
            std::array::from_fn(|c| std::array::from_fn(|k| a[c][k] - b[c][k]))
        };
        EnvTimes {
            fg_ns: d(&self.fg_ns, &earlier.fg_ns),
            bg_ns: d(&self.bg_ns, &earlier.bg_ns),
        }
    }

    /// Foreground plus background ns of `call` on `class`.
    pub fn ns(&self, class: FileClass, call: Call) -> u64 {
        self.fg_ns[class.idx()][call as usize] + self.bg_ns[class.idx()][call as usize]
    }

    pub fn fg_class_ns(&self, class: FileClass) -> u64 {
        self.fg_ns[class.idx()].iter().sum()
    }

    pub fn bg_class_ns(&self, class: FileClass) -> u64 {
        self.bg_ns[class.idx()].iter().sum()
    }
}

/// Span recorder of a traced run.
pub struct Tracer {
    recording: AtomicBool,
    origin: Instant,
    fg_ns: Grid,
    bg_ns: Grid,
    reserved: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            recording: AtomicBool::new(false),
            origin: Instant::now(),
            fg_ns: Default::default(),
            bg_ns: Default::default(),
            reserved: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Spans are recorded only between `set_recording(true)` and
    /// `set_recording(false)`: the measured phase.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record one env call as a child of the op in flight on this thread,
    /// or as background when there is none.
    pub fn record_env(
        &self,
        class: FileClass,
        call: Call,
        bytes: u64,
        start: Instant,
        dur: Duration,
    ) {
        let ns = dur.as_nanos() as u64;
        let op = CURRENT_OP.get();
        let time = if op != 0 {
            CHILD_NS.set(CHILD_NS.get() + ns);
            &self.fg_ns
        } else {
            &self.bg_ns
        };
        // A statistic: it publishes no other data.
        time[class.idx()][call as usize].fetch_add(ns, Ordering::Relaxed);
        self.keep(Span {
            op,
            name: SpanName::Env(class, call),
            start_ns: self.offset_ns(start),
            dur_ns: ns,
            bytes,
        });
    }

    /// Record one op span.
    pub fn record_op(&self, op: u64, kind: OpKind, start: Instant, dur_ns: u64, bytes: u64) {
        self.keep(Span {
            op,
            name: SpanName::Op(kind),
            start_ns: self.offset_ns(start),
            dur_ns,
            bytes,
        });
    }

    fn keep(&self, span: Span) {
        if self.reserved.fetch_add(1, Ordering::Relaxed) < SPAN_CAP {
            self.spans.lock().expect("span list poisoned").push(span);
        }
    }

    pub fn env_times(&self) -> EnvTimes {
        let load = |g: &Grid| {
            std::array::from_fn(|c| std::array::from_fn(|k| g[c][k].load(Ordering::Relaxed)))
        };
        EnvTimes {
            fg_ns: load(&self.fg_ns),
            bg_ns: load(&self.bg_ns),
        }
    }

    /// Spans recorded, and spans seen past the in-memory cap.
    pub fn span_counts(&self) -> (usize, usize) {
        let seen = self.reserved.load(Ordering::Relaxed);
        (seen.min(SPAN_CAP), seen.saturating_sub(SPAN_CAP))
    }

    /// Write the kept spans as tab-separated lines, in start order.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.start_ns);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tstart_ns\tdur_ns\tbytes")?;
        for s in &spans {
            let name = match s.name {
                SpanName::Op(k) => k.name().to_string(),
                SpanName::Env(class, call) => format!("env.{}.{}", class.name(), call.name()),
            };
            let op = if s.op == 0 {
                "background".to_string()
            } else {
                format!(
                    "{}:{}",
                    (s.op >> OP_CLIENT_SHIFT) - 1,
                    s.op & ((1 << OP_CLIENT_SHIFT) - 1)
                )
            };
            writeln!(
                out,
                "{op}\t{name}\t{}\t{}\t{}",
                s.start_ns, s.dur_ns, s.bytes
            )?;
        }
        out.flush()
    }
}

/// Maintenance job kinds, in report order.
pub const JOBS: [&str; 5] = ["flush", "scan_merge", "merge", "gc", "split"];

/// Completed jobs of one kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobTotals {
    pub count: u64,
    pub micros: u64,
    pub bytes_written: u64,
}

#[derive(Default)]
struct MaintState {
    starts: HashMap<u64, u64>,
    jobs: [JobTotals; JOBS.len()],
}

/// Event listener that times each maintenance job from its start event
/// to its finish event and sums the bytes the finish event reports.
#[derive(Default)]
pub struct MaintListener {
    state: Mutex<MaintState>,
}

enum Edge {
    Start,
    Finish(usize),
    Abort,
}

fn edge(kind: EventKind) -> Option<Edge> {
    use EventKind::*;
    Some(match kind {
        FlushStart | ScanMergeStart | MergeStart | GcStart | SplitStart => Edge::Start,
        FlushFinish => Edge::Finish(0),
        ScanMergeFinish => Edge::Finish(1),
        MergeFinish => Edge::Finish(2),
        GcFinish => Edge::Finish(3),
        SplitFinish => Edge::Finish(4),
        FlushAbort | ScanMergeAbort | MergeAbort | GcAbort | SplitAbort => Edge::Abort,
        _ => return None,
    })
}

impl MaintListener {
    pub fn totals(&self) -> [JobTotals; JOBS.len()] {
        self.state.lock().expect("listener state poisoned").jobs
    }
}

impl EventListener for MaintListener {
    fn on_event(&self, e: &Event) {
        let Some(edge) = edge(e.kind) else { return };
        let mut st = self.state.lock().expect("listener state poisoned");
        match edge {
            Edge::Start => {
                st.starts.insert(e.seq, e.at_micros);
            }
            Edge::Abort => {
                if let Some(c) = e.cause {
                    st.starts.remove(&c);
                }
            }
            Edge::Finish(j) => {
                let began = e.cause.and_then(|c| st.starts.remove(&c));
                let job = &mut st.jobs[j];
                job.count += 1;
                job.micros += began.map_or(0, |t| e.at_micros.saturating_sub(t));
                job.bytes_written += e.bytes;
            }
        }
    }
}
