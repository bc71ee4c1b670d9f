//! Value-pointer resolution across partition directories.
//!
//! After a split, a child partition's SortedStore still holds pointers into
//! the parent's value logs (lazy split); the pointer's `partition` field
//! names the directory. The resolver maps any pointer to bytes, caching
//! open file handles. Scans resolve their values through
//! `ValueResolver::fetch` on the calling thread, which sorts them by
//! location and turns each run of adjacent records into one positional
//! read.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use unikv_common::perf::{self, PerfStage};
use unikv_common::{Result, ValuePointer};
use unikv_env::{Env, RandomAccessFile};
use unikv_vlog::{decode_value_record, read_value_record, value_record_len, vlog_file_name};

/// Largest read [`ValueResolver::read_batch`] issues. A longer run of
/// adjacent records is split, so a huge scan never holds a second copy of
/// all its values at once.
const MAX_BATCH_READ: u64 = 256 << 10;

/// Directory of partition `id` under the database root.
pub fn partition_dir(root: &Path, id: u32) -> PathBuf {
    root.join(format!("p{id}"))
}

/// Order `jobs` by where their records sit, `(partition, log, offset)`,
/// so records that are adjacent in a log become neighbours for
/// [`ValueResolver::read_batch`].
fn sort_by_location(jobs: &mut [(usize, ValuePointer)]) {
    jobs.sort_unstable_by_key(|(_, p)| (p.partition, p.log_number, p.offset));
}

/// Reads values addressed by [`ValuePointer`]s from any partition's logs.
pub struct ValueResolver {
    env: Arc<dyn Env>,
    root: PathBuf,
    readers: RwLock<HashMap<(u32, u64), Arc<dyn RandomAccessFile>>>,
}

impl ValueResolver {
    /// Create a resolver rooted at the database directory.
    pub fn new(env: Arc<dyn Env>, root: PathBuf) -> Self {
        ValueResolver {
            env,
            root,
            readers: RwLock::new(HashMap::new()),
        }
    }

    fn reader(&self, partition: u32, log: u64) -> Result<Arc<dyn RandomAccessFile>> {
        let key = (partition, log);
        // Fast path: shared lock — concurrent scans and gets hit this once
        // per read, so it must not serialize them.
        if let Some(r) = self.readers.read().get(&key) {
            return Ok(r.clone());
        }
        let path = partition_dir(&self.root, partition).join(vlog_file_name(log));
        let r = self.env.new_random_access(&path)?;
        self.readers.write().insert(key, r.clone());
        Ok(r)
    }

    /// Read the value behind `ptr`.
    pub fn read(&self, ptr: &ValuePointer) -> Result<Vec<u8>> {
        let reader = self.reader(ptr.partition, ptr.log_number)?;
        read_value_record(reader.as_ref(), ptr.offset, ptr.length)
    }

    /// Resolve every pointer in `jobs` into `out[idx]` on the calling
    /// thread and return the number of positional reads issued.
    ///
    /// With `optimize` (the scan optimization) the jobs are sorted by
    /// location first, so each run of adjacent records costs one
    /// [`Self::read_batch`] read. Without it (ablation E10) every value is
    /// one [`Self::read`], in the caller's order.
    pub(crate) fn fetch(
        &self,
        jobs: &mut [(usize, ValuePointer)],
        out: &mut [Option<Vec<u8>>],
        optimize: bool,
    ) -> Result<u64> {
        if !optimize {
            for (idx, ptr) in jobs.iter() {
                out[*idx] = Some(self.read(ptr)?);
            }
            return Ok(jobs.len() as u64);
        }
        sort_by_location(jobs);
        self.read_batch(jobs, |idx, v| out[idx] = Some(v))
    }

    /// Read the value behind every pointer in `jobs` and hand it to `emit`
    /// with its index. Consecutive jobs whose records are back to back in
    /// one log (each starts where the previous one ends) share a single
    /// positional read of at most [`MAX_BATCH_READ`] bytes, so sort `jobs`
    /// with [`sort_by_location`] first; any order is still correct. Every
    /// value gets the same length and CRC checks as [`Self::read`].
    /// Returns the number of reads issued.
    fn read_batch(
        &self,
        jobs: &[(usize, ValuePointer)],
        mut emit: impl FnMut(usize, Vec<u8>),
    ) -> Result<u64> {
        let mut reads = 0;
        let mut start = 0;
        while start < jobs.len() {
            let head = &jobs[start].1;
            let mut run_end = head.offset.saturating_add(value_record_len(head.length));
            let mut end = start + 1;
            while let Some((_, next)) = jobs.get(end) {
                let next_end = next.offset.saturating_add(value_record_len(next.length));
                if next.partition != head.partition
                    || next.log_number != head.log_number
                    || next.offset != run_end
                    || next_end - head.offset > MAX_BATCH_READ
                {
                    break;
                }
                run_end = next_end;
                end += 1;
            }
            let reader = self.reader(head.partition, head.log_number)?;
            // Shorter than asked only at end of file; the records it cuts
            // off fail their length check below.
            let data = reader.read_at(head.offset, (run_end - head.offset) as usize)?;
            reads += 1;
            for (idx, ptr) in &jobs[start..end] {
                let at = ((ptr.offset - head.offset) as usize).min(data.len());
                let until = (at + value_record_len(ptr.length) as usize).min(data.len());
                let value = decode_value_record(&data[at..until], ptr.length)?;
                perf::count_vlog_fetch();
                emit(*idx, value.to_vec());
            }
            perf::mark(PerfStage::VlogFetch);
            start = end;
        }
        Ok(reads)
    }

    /// Drop cached readers for a log that is about to be deleted.
    pub fn evict(&self, partition: u32, log: u64) {
        self.readers.write().remove(&(partition, log));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use unikv_common::rng::Xoshiro256StarStar;
    use unikv_env::mem::MemEnv;
    use unikv_vlog::ValueLog;

    /// Counts the positional reads that reach the file it wraps.
    struct CountingFile {
        inner: Arc<dyn RandomAccessFile>,
        reads: AtomicU64,
    }

    impl RandomAccessFile for CountingFile {
        fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read_at(offset, len)
        }
        fn size(&self) -> Result<u64> {
            self.inner.size()
        }
    }

    /// Route the resolver's reads of `(partition, log)` through a
    /// [`CountingFile`].
    fn count_reads(resolver: &ValueResolver, partition: u32, log: u64) -> Arc<CountingFile> {
        let counting = Arc::new(CountingFile {
            inner: resolver.reader(partition, log).unwrap(),
            reads: AtomicU64::new(0),
        });
        resolver
            .readers
            .write()
            .insert((partition, log), counting.clone());
        counting
    }

    /// Batch-read `ptrs` in the given order; values come back by index.
    fn read_all(resolver: &ValueResolver, ptrs: &[ValuePointer]) -> Result<(Vec<Vec<u8>>, u64)> {
        let jobs: Vec<(usize, ValuePointer)> = ptrs.iter().copied().enumerate().collect();
        let mut out = vec![None; ptrs.len()];
        let reads = resolver.read_batch(&jobs, |i, v| out[i] = Some(v))?;
        Ok((out.into_iter().map(Option::unwrap).collect(), reads))
    }

    fn sorted(ptrs: &[ValuePointer]) -> Vec<ValuePointer> {
        let mut jobs: Vec<(usize, ValuePointer)> = ptrs.iter().copied().enumerate().collect();
        sort_by_location(&mut jobs);
        jobs.into_iter().map(|(_, p)| p).collect()
    }

    /// Overwrite a log file with `data` (a fresh resolver sees it).
    fn rewrite(env: &MemEnv, path: &Path, data: &[u8]) {
        let mut w = env.new_writable(path).unwrap();
        w.append(data).unwrap();
    }

    #[test]
    fn resolves_across_partitions() {
        let env = MemEnv::shared();
        let root = PathBuf::from("/db");
        let mut vl3 = ValueLog::open(env.clone(), partition_dir(&root, 3), 3, 1 << 20).unwrap();
        let mut vl5 = ValueLog::open(env.clone(), partition_dir(&root, 5), 5, 1 << 20).unwrap();
        let p3 = vl3.append(b"from-three").unwrap();
        let p5 = vl5.append(b"from-five").unwrap();
        vl3.sync().unwrap();
        vl5.sync().unwrap();

        let resolver = ValueResolver::new(env, root);
        assert_eq!(resolver.read(&p3).unwrap(), b"from-three");
        assert_eq!(resolver.read(&p5).unwrap(), b"from-five");
        // Cached-path read works too.
        assert_eq!(resolver.read(&p3).unwrap(), b"from-three");
        resolver.evict(3, p3.log_number);
        assert_eq!(resolver.read(&p3).unwrap(), b"from-three");
    }

    #[test]
    fn batch_returns_shuffled_pointers_in_callers_order() {
        let env = MemEnv::shared();
        let root = PathBuf::from("/db");
        let mut logs = [
            ValueLog::open(env.clone(), partition_dir(&root, 1), 1, 2 << 10).unwrap(),
            ValueLog::open(env.clone(), partition_dir(&root, 2), 2, 2 << 10).unwrap(),
        ];
        let mut jobs = Vec::new();
        let mut expect = Vec::new();
        for i in 0..300usize {
            let v = format!("v{i}-").repeat(i % 9 + 1).into_bytes();
            jobs.push((i, logs[i % 2].append(&v).unwrap()));
            expect.push(v);
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.usize_in_incl(0..=i));
        }
        let resolver = ValueResolver::new(env, root);
        let mut shuffled = vec![None; jobs.len()];
        let unsorted_reads = resolver
            .read_batch(&jobs, |i, v| shuffled[i] = Some(v))
            .unwrap();
        sort_by_location(&mut jobs);
        let mut out = vec![None; jobs.len()];
        let reads = resolver.read_batch(&jobs, |i, v| out[i] = Some(v)).unwrap();
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(out[i].as_ref(), Some(e), "sorted, i={i}");
            assert_eq!(shuffled[i].as_ref(), Some(e), "unsorted, i={i}");
        }
        assert!(
            reads < unsorted_reads,
            "sorted {reads} vs unsorted {unsorted_reads}"
        );
    }

    #[test]
    fn runs_split_at_log_partition_and_gap() {
        let env = MemEnv::shared();
        let root = PathBuf::from("/db");
        let mut a = ValueLog::open(env.clone(), partition_dir(&root, 3), 3, 1 << 20).unwrap();
        let mut b = ValueLog::open(env.clone(), partition_dir(&root, 4), 4, 1 << 20).unwrap();
        // Partition 3: log 1 = [a0 a1 a2], log 2 = [a3 a4 a5].
        let a0 = a.append(b"first").unwrap();
        let a1 = a.append(b"second").unwrap();
        let a2 = a.append(b"third").unwrap();
        a.rotate().unwrap();
        let a3 = a.append(b"fifth").unwrap();
        let a4 = a.append(b"other").unwrap();
        let a5 = a.append(b"sixth").unwrap();
        // Partition 4, log 1 = [b0 b1]: b1 starts where a0 ends.
        let b0 = b.append(b"stuff").unwrap();
        let b1 = b.append(b"later").unwrap();
        assert_eq!(a4.offset, a1.offset);
        assert_eq!(b1.offset, a1.offset);

        let resolver = ValueResolver::new(env, root);
        let reads = |ptrs: &[ValuePointer]| read_all(&resolver, &sorted(ptrs)).unwrap().1;
        assert_eq!(reads(&[a0, a1, a2]), 1);
        // A gap: a1 is not requested.
        assert_eq!(reads(&[a0, a2]), 2);
        // Log 1 ends where a log-2 record would start: a change of log.
        assert_eq!(reads(&[a0, a4]), 2);
        assert_eq!(reads(&[a0, a1, a2, a3, a4, a5]), 2);
        // Same log number and adjacent offsets, other partition.
        assert_eq!(reads(&[a0, b1]), 2);
        assert_eq!(reads(&[b0, b1]), 1);
        let (values, n) = read_all(&resolver, &[b1, a2, a0, a5, b0]).unwrap();
        assert_eq!(n, 5);
        let expect: [&[u8]; 5] = [b"later", b"third", b"first", b"sixth", b"stuff"];
        assert_eq!(values, expect);
    }

    #[test]
    fn adjacent_records_cost_one_read_up_to_the_cap() {
        let env = MemEnv::shared();
        let root = PathBuf::from("/db");
        let mut vl = ValueLog::open(env.clone(), partition_dir(&root, 0), 0, 64 << 20).unwrap();
        let small: Vec<ValuePointer> = (0..50u8).map(|i| vl.append(&[i; 100]).unwrap()).collect();
        let big: Vec<ValuePointer> = (0..5u8)
            .map(|i| vl.append(&vec![i; 100 << 10]).unwrap())
            .collect();
        let resolver = ValueResolver::new(env, root);
        let file = count_reads(&resolver, 0, small[0].log_number);

        let (values, reads) = read_all(&resolver, &small).unwrap();
        assert_eq!(values[7], [7u8; 100]);
        assert_eq!(reads, 1);
        assert_eq!(file.reads.load(Ordering::Relaxed), 1);

        // 5 x 100 KiB records: at most two fit under the 256 KiB cap.
        let (values, reads) = read_all(&resolver, &big).unwrap();
        assert_eq!(values[4], vec![4u8; 100 << 10]);
        assert_eq!(reads, 3);
        assert_eq!(file.reads.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn damage_inside_a_run_is_corruption() {
        let env = MemEnv::shared();
        let root = PathBuf::from("/db");
        let mut vl = ValueLog::open(env.clone(), partition_dir(&root, 0), 0, 1 << 20).unwrap();
        let ptrs: Vec<ValuePointer> = (0..10u8).map(|i| vl.append(&[i; 20]).unwrap()).collect();
        vl.sync().unwrap();
        let path = partition_dir(&root, 0).join(vlog_file_name(ptrs[0].log_number));
        let clean = env.read_to_vec(&path).unwrap();
        let mid = ptrs[5].offset as usize;

        let mut flipped = clean.clone();
        flipped[mid + 4] ^= 0x10; // a payload byte
        let mut relabelled = clean.clone();
        relabelled[mid] = 21; // length prefix: 20 -> 21
        for damaged in [flipped, relabelled] {
            rewrite(&env, &path, &damaged);
            let resolver = ValueResolver::new(env.clone(), root.clone());
            let err = read_all(&resolver, &ptrs).unwrap_err();
            assert!(err.is_corruption(), "got {err}");
            // The records before the damage still read cleanly.
            assert_eq!(read_all(&resolver, &ptrs[..5]).unwrap().1, 1);
        }
    }

    #[test]
    fn run_cut_short_by_end_of_file_is_corruption() {
        let env = MemEnv::shared();
        let root = PathBuf::from("/db");
        let mut vl = ValueLog::open(env.clone(), partition_dir(&root, 0), 0, 1 << 20).unwrap();
        let ptrs: Vec<ValuePointer> = (0..6u8).map(|i| vl.append(&[i; 30]).unwrap()).collect();
        vl.sync().unwrap();
        let path = partition_dir(&root, 0).join(vlog_file_name(ptrs[0].log_number));
        let clean = env.read_to_vec(&path).unwrap();
        // Cut inside the last record's payload, then inside its header,
        // then before it starts.
        for cut in [ptrs[5].offset + 10, ptrs[5].offset + 1, ptrs[5].offset] {
            rewrite(&env, &path, &clean[..cut as usize]);
            let resolver = ValueResolver::new(env.clone(), root.clone());
            let err = read_all(&resolver, &ptrs).unwrap_err();
            assert!(err.is_corruption(), "cut at {cut}: got {err}");
        }
    }

    fn setup(n: usize) -> (ValueResolver, Vec<(usize, ValuePointer)>, Vec<Vec<u8>>) {
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
        (ValueResolver::new(env, root), jobs, expect)
    }

    #[test]
    fn optimized_and_plain_fetch_agree() {
        let (resolver, jobs, expect) = setup(500);
        let logs = jobs
            .iter()
            .map(|(_, p)| p.log_number)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        for optimize in [false, true] {
            let mut shuffled = jobs.clone();
            let mut rng = Xoshiro256StarStar::seed_from_u64(11);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.usize_in_incl(0..=i));
            }
            let mut out = vec![None; jobs.len()];
            let reads = resolver.fetch(&mut shuffled, &mut out, optimize).unwrap();
            if optimize {
                // Back-to-back records: one read per log.
                assert_eq!(reads, logs);
            } else {
                assert_eq!(reads, jobs.len() as u64);
            }
            for (i, e) in expect.iter().enumerate() {
                assert_eq!(out[i].as_ref(), Some(e), "optimize={optimize} i={i}");
            }
        }
    }

    #[test]
    fn empty_jobs_ok() {
        let (resolver, _, _) = setup(1);
        let mut out: Vec<Option<Vec<u8>>> = Vec::new();
        for optimize in [false, true] {
            assert_eq!(resolver.fetch(&mut [], &mut out, optimize).unwrap(), 0);
        }
    }

    #[test]
    fn bad_pointer_propagates_error() {
        let (resolver, mut jobs, _) = setup(300);
        jobs[150].1.offset = 1 << 40;
        let mut out = vec![None; jobs.len()];
        assert!(resolver.fetch(&mut jobs, &mut out, true).is_err());
    }

    #[test]
    fn missing_log_is_error() {
        let env = MemEnv::shared();
        let resolver = ValueResolver::new(env, PathBuf::from("/db"));
        let ptr = ValuePointer {
            partition: 1,
            log_number: 1,
            offset: 0,
            length: 4,
        };
        assert!(resolver.read(&ptr).is_err());
    }
}
