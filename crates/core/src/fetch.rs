//! Parallel value fetching for scans (paper §Scan Optimization and
//! §Implementation: "UniKV maintains a pool of 32 threads and assigns
//! threads from the pool to fetch values in parallel").
//!
//! [`FetchPool`] is that pool: long-lived workers fed through a channel,
//! so a scan pays no thread-spawn cost. Small batches are fetched inline —
//! parallelism only wins once per-value read latency dominates dispatch.
//! Either way the pointers are sorted by location first, so each run of
//! adjacent records costs one read (`ValueResolver::read_batch`).

use crate::resolver::{sort_by_location, ValueResolver};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::sync::Arc;
use unikv_common::metrics::{Counter, MetricsRegistry};
use unikv_common::{Result, ValuePointer};

/// Batches below this size are fetched inline by the calling thread.
const MIN_PARALLEL_JOBS: usize = 64;
/// Minimum values handed to one worker per dispatch.
const MIN_JOBS_PER_WORKER: usize = 256;

/// A worker's reply: the values it read, by index, and the reads issued.
type Fetched = Result<(Vec<(usize, Vec<u8>)>, u64)>;

struct Task {
    resolver: Arc<ValueResolver>,
    jobs: Vec<(usize, ValuePointer)>,
    reply: Sender<Fetched>,
}

/// Dispatch counters recorded by [`FetchPool::fetch`] — how often the
/// scan optimization actually engaged the pool versus fetching inline.
#[derive(Clone)]
pub struct FetchMetrics {
    /// Batches large enough to be fanned out across pool workers.
    pub parallel_batches: Counter,
    /// Batches fetched inline on the calling thread (small, or the scan
    /// optimization is off).
    pub inline_batches: Counter,
}

impl FetchMetrics {
    /// Register the fetch-dispatch families in `registry`.
    pub fn new(registry: &MetricsRegistry) -> FetchMetrics {
        FetchMetrics {
            parallel_batches: registry.counter("fetch_parallel_batches"),
            inline_batches: registry.counter("fetch_inline_batches"),
        }
    }
}

/// A persistent pool of value-fetch workers.
pub struct FetchPool {
    tx: Option<Sender<Task>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    size: usize,
    metrics: Option<FetchMetrics>,
}

impl FetchPool {
    /// Spawn a pool of `size` workers (the paper uses 32).
    pub fn new(size: usize) -> FetchPool {
        let size = size.max(1);
        let (tx, rx): (Sender<Task>, Receiver<Task>) = unbounded();
        let workers = (0..size)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("unikv-fetch-{i}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            let mut out = Vec::with_capacity(task.jobs.len());
                            let result = task
                                .resolver
                                .read_batch(&task.jobs, |idx, v| out.push((idx, v)))
                                .map(|reads| (out, reads));
                            // A closed reply channel means the scan already
                            // failed; nothing to do.
                            let _ = task.reply.send(result);
                        }
                    })
                    .expect("spawn fetch worker")
            })
            .collect();
        FetchPool {
            tx: Some(tx),
            workers,
            size,
            metrics: None,
        }
    }

    /// Attach dispatch counters (builder style).
    pub fn with_metrics(mut self, metrics: FetchMetrics) -> FetchPool {
        self.metrics = Some(metrics);
        self
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Fetch every pointer in `jobs`, writing results into `out[idx]`, and
    /// return the number of positional reads issued.
    ///
    /// With `optimize` (the scan optimization) the jobs are sorted by
    /// location so adjacent records share a read, and large batches fan
    /// out across the pool. Without it (ablation E10) every value is one
    /// read on the calling thread, in the caller's order.
    pub fn fetch(
        &self,
        resolver: &Arc<ValueResolver>,
        jobs: &mut [(usize, ValuePointer)],
        out: &mut [Option<Vec<u8>>],
        optimize: bool,
    ) -> Result<u64> {
        let parallel = optimize && jobs.len() >= MIN_PARALLEL_JOBS;
        if let Some(m) = &self.metrics {
            if parallel {
                m.parallel_batches.inc();
            } else if !jobs.is_empty() {
                m.inline_batches.inc();
            }
        }
        if !optimize {
            for (idx, ptr) in jobs.iter() {
                out[*idx] = Some(resolver.read(ptr)?);
            }
            return Ok(jobs.len() as u64);
        }
        sort_by_location(jobs);
        if !parallel {
            return resolver.read_batch(jobs, |idx, v| out[idx] = Some(v));
        }

        let workers = self
            .size
            .min(jobs.len() / MIN_JOBS_PER_WORKER)
            .max(2)
            .min(jobs.len());
        let chunk = jobs.len().div_ceil(workers);
        let (reply_tx, reply_rx) = bounded(workers);
        let tx = self.tx.as_ref().expect("pool alive");
        let mut dispatched = 0;
        for part in jobs.chunks(chunk) {
            tx.send(Task {
                resolver: resolver.clone(),
                jobs: part.to_vec(),
                reply: reply_tx.clone(),
            })
            .expect("fetch workers alive");
            dispatched += 1;
        }
        drop(reply_tx);
        let mut first_err = None;
        let mut reads = 0;
        for _ in 0..dispatched {
            match reply_rx.recv().expect("worker replies") {
                Ok((values, n)) => {
                    reads += n;
                    for (idx, v) in values {
                        out[idx] = Some(v);
                    }
                }
                Err(e) => first_err = Some(first_err.unwrap_or(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(reads),
        }
    }
}

impl Drop for FetchPool {
    fn drop(&mut self) {
        self.tx.take(); // close the channel; workers exit their recv loop
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::partition_dir;
    use std::path::PathBuf;
    use unikv_env::mem::MemEnv;
    use unikv_vlog::ValueLog;

    #[allow(clippy::type_complexity)]
    fn setup(n: usize) -> (Arc<ValueResolver>, Vec<(usize, ValuePointer)>, Vec<Vec<u8>>) {
        let env = MemEnv::shared();
        let root = PathBuf::from("/db");
        let mut vl = ValueLog::open(env.clone(), partition_dir(&root, 0), 0, 8 << 10).unwrap();
        let mut jobs = Vec::new();
        let mut expect = Vec::new();
        for i in 0..n {
            let v = format!("value-{i}").repeat(i % 5 + 1).into_bytes();
            let ptr = vl.append(&v).unwrap();
            jobs.push((i, ptr));
            expect.push(v);
        }
        vl.sync().unwrap();
        (Arc::new(ValueResolver::new(env, root)), jobs, expect)
    }

    #[test]
    fn inline_and_pooled_agree() {
        let (resolver, jobs, expect) = setup(500);
        let logs = jobs
            .iter()
            .map(|(_, p)| p.log_number)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        for threads in [1usize, 2, 8, 32] {
            let pool = FetchPool::new(threads);
            for optimize in [false, true] {
                let mut shuffled = jobs.clone();
                shuffled.reverse();
                let mut out = vec![None; jobs.len()];
                let reads = pool
                    .fetch(&resolver, &mut shuffled, &mut out, optimize)
                    .unwrap();
                if optimize {
                    // Back-to-back records: one read per log, plus one
                    // where the pool's two chunks split a run.
                    assert!(reads <= logs + 1, "threads={threads} reads={reads}");
                } else {
                    assert_eq!(reads, jobs.len() as u64);
                }
                for (i, e) in expect.iter().enumerate() {
                    assert_eq!(
                        out[i].as_ref().unwrap(),
                        e,
                        "threads={threads} optimize={optimize} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_batches() {
        let (resolver, mut jobs, _) = setup(200);
        let pool = FetchPool::new(4);
        for _ in 0..50 {
            let mut out = vec![None; jobs.len()];
            pool.fetch(&resolver, &mut jobs, &mut out, true).unwrap();
            assert!(out.iter().all(|o| o.is_some()));
        }
    }

    #[test]
    fn empty_jobs_ok() {
        let (resolver, _, _) = setup(1);
        let pool = FetchPool::new(2);
        let mut out: Vec<Option<Vec<u8>>> = Vec::new();
        assert_eq!(pool.fetch(&resolver, &mut [], &mut out, true).unwrap(), 0);
    }

    #[test]
    fn bad_pointer_propagates_error() {
        let (resolver, mut jobs, _) = setup(300);
        jobs[150].1.offset = 1 << 40;
        let pool = FetchPool::new(4);
        let mut out = vec![None; jobs.len()];
        assert!(pool.fetch(&resolver, &mut jobs, &mut out, true).is_err());
    }

    #[test]
    fn drop_joins_workers() {
        let pool = FetchPool::new(8);
        assert_eq!(pool.size(), 8);
        drop(pool); // must not hang
    }
}
