//! File-class env wrapper.
//!
//! Every byte the engine moves goes through the [`Env`] the benchmark
//! passes to `UniKv::open`. [`ClassEnv`] wraps that env, classes each file
//! from its name (WAL, SSTable, value log, META, index checkpoint, other)
//! and counts bytes, syncs and file creations per class with relaxed
//! atomics in every run. In a traced run it also times each call and hands
//! the timing to the [`Tracer`], which links it to the operation in flight
//! on the calling thread.

use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use unikv_common::Result;
use unikv_env::{Env, RandomAccessFile, SequentialFile, WritableFile};

/// Number of file classes.
pub const CLASSES: usize = 6;

/// What a file holds, judged from its name alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    Wal,
    Sst,
    Vlog,
    Meta,
    IndexCkpt,
    Other,
}

impl FileClass {
    pub const ALL: [FileClass; CLASSES] = [
        FileClass::Wal,
        FileClass::Sst,
        FileClass::Vlog,
        FileClass::Meta,
        FileClass::IndexCkpt,
        FileClass::Other,
    ];

    /// Class a path by its file name. `META` and `INDEX.ckpt` are replaced
    /// through a `.tmp` sibling (`Env::write_atomic`), so the temporary
    /// name belongs to the same class.
    pub fn of(path: &Path) -> FileClass {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        match name {
            "META" | "META.tmp" => FileClass::Meta,
            "INDEX.ckpt" | "INDEX.tmp" => FileClass::IndexCkpt,
            _ if name.ends_with(".wal") => FileClass::Wal,
            _ if name.ends_with(".sst") => FileClass::Sst,
            _ if name.ends_with(".vlog") => FileClass::Vlog,
            _ => FileClass::Other,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            FileClass::Wal => "wal",
            FileClass::Sst => "sst",
            FileClass::Vlog => "vlog",
            FileClass::Meta => "meta",
            FileClass::IndexCkpt => "index_ckpt",
            FileClass::Other => "other",
        }
    }

    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Number of timed call kinds.
pub const CALLS: usize = 5;

/// The env calls a traced run times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Append,
    Flush,
    Sync,
    Read,
    /// Open, create, delete, rename, size and list calls.
    Other,
}

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Append => "append",
            Call::Flush => "flush",
            Call::Sync => "sync",
            Call::Read => "read",
            Call::Other => "other",
        }
    }
}

/// Per-class byte and call counters, kept in every run.
#[derive(Default)]
pub struct IoCounters {
    written: [AtomicU64; CLASSES],
    read: [AtomicU64; CLASSES],
    syncs: [AtomicU64; CLASSES],
    creates: [AtomicU64; CLASSES],
}

/// A plain copy of [`IoCounters`] taken at a phase boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub written: [u64; CLASSES],
    pub read: [u64; CLASSES],
    pub syncs: [u64; CLASSES],
    pub creates: [u64; CLASSES],
}

impl IoCounters {
    fn add(c: &[AtomicU64; CLASSES], class: FileClass, v: u64) {
        // A statistic: it publishes no other data.
        c[class.idx()].fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> IoSnapshot {
        let load = |c: &[AtomicU64; CLASSES]| std::array::from_fn(|i| c[i].load(Ordering::Relaxed));
        IoSnapshot {
            written: load(&self.written),
            read: load(&self.read),
            syncs: load(&self.syncs),
            creates: load(&self.creates),
        }
    }
}

impl IoSnapshot {
    /// Counts accrued since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        let d = |a: &[u64; CLASSES], b: &[u64; CLASSES]| std::array::from_fn(|i| a[i] - b[i]);
        IoSnapshot {
            written: d(&self.written, &earlier.written),
            read: d(&self.read, &earlier.read),
            syncs: d(&self.syncs, &earlier.syncs),
            creates: d(&self.creates, &earlier.creates),
        }
    }

    pub fn written_total(&self) -> u64 {
        self.written.iter().sum()
    }
}

struct Shared {
    counters: Arc<IoCounters>,
    tracer: Option<Arc<Tracer>>,
}

impl Shared {
    /// Run `f` as one env call on a `class` file, timing it only when a
    /// tracer is attached and recording.
    fn call<T>(&self, class: FileClass, call: Call, bytes: u64, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) if t.recording() => {
                let start = Instant::now();
                let out = f();
                t.record_env(class, call, bytes, start, start.elapsed());
                out
            }
            _ => f(),
        }
    }
}

/// The wrapping env. Cheap to clone through its `Arc`.
pub struct ClassEnv {
    inner: Arc<dyn Env>,
    shared: Arc<Shared>,
}

impl ClassEnv {
    pub fn new(
        inner: Arc<dyn Env>,
        counters: Arc<IoCounters>,
        tracer: Option<Arc<Tracer>>,
    ) -> ClassEnv {
        ClassEnv {
            inner,
            shared: Arc::new(Shared { counters, tracer }),
        }
    }
}

struct ClassWritable {
    inner: Box<dyn WritableFile>,
    class: FileClass,
    shared: Arc<Shared>,
}

impl WritableFile for ClassWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let n = data.len() as u64;
        IoCounters::add(&self.shared.counters.written, self.class, n);
        let inner = &mut self.inner;
        self.shared
            .call(self.class, Call::Append, n, || inner.append(data))
    }

    fn flush(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        self.shared
            .call(self.class, Call::Flush, 0, || inner.flush())
    }

    fn sync(&mut self) -> Result<()> {
        IoCounters::add(&self.shared.counters.syncs, self.class, 1);
        let inner = &mut self.inner;
        self.shared.call(self.class, Call::Sync, 0, || inner.sync())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct ClassRandom {
    inner: Arc<dyn RandomAccessFile>,
    class: FileClass,
    shared: Arc<Shared>,
}

impl RandomAccessFile for ClassRandom {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let out = self.shared.call(self.class, Call::Read, len as u64, || {
            self.inner.read_at(offset, len)
        });
        if let Ok(buf) = &out {
            IoCounters::add(&self.shared.counters.read, self.class, buf.len() as u64);
        }
        out
    }

    fn size(&self) -> Result<u64> {
        self.inner.size()
    }

    fn readahead(&self, offset: u64, len: usize) {
        self.inner.readahead(offset, len)
    }
}

struct ClassSequential {
    inner: Box<dyn SequentialFile>,
    class: FileClass,
    shared: Arc<Shared>,
}

impl SequentialFile for ClassSequential {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let want = buf.len() as u64;
        let inner = &mut self.inner;
        let out = self
            .shared
            .call(self.class, Call::Read, want, || inner.read(buf));
        if let Ok(n) = out {
            IoCounters::add(&self.shared.counters.read, self.class, n as u64);
        }
        out
    }
}

impl Env for ClassEnv {
    fn new_writable(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let class = FileClass::of(path);
        IoCounters::add(&self.shared.counters.creates, class, 1);
        let inner = self
            .shared
            .call(class, Call::Other, 0, || self.inner.new_writable(path))?;
        Ok(Box::new(ClassWritable {
            inner,
            class,
            shared: self.shared.clone(),
        }))
    }

    fn new_random_access(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        let class = FileClass::of(path);
        let inner = self
            .shared
            .call(class, Call::Other, 0, || self.inner.new_random_access(path))?;
        Ok(Arc::new(ClassRandom {
            inner,
            class,
            shared: self.shared.clone(),
        }))
    }

    fn new_sequential(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        let class = FileClass::of(path);
        let inner = self
            .shared
            .call(class, Call::Other, 0, || self.inner.new_sequential(path))?;
        Ok(Box::new(ClassSequential {
            inner,
            class,
            shared: self.shared.clone(),
        }))
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }

    fn file_size(&self, path: &Path) -> Result<u64> {
        self.shared.call(FileClass::of(path), Call::Other, 0, || {
            self.inner.file_size(path)
        })
    }

    fn delete_file(&self, path: &Path) -> Result<()> {
        self.shared.call(FileClass::of(path), Call::Other, 0, || {
            self.inner.delete_file(path)
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.shared.call(FileClass::of(to), Call::Other, 0, || {
            self.inner.rename(from, to)
        })
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        self.shared.call(FileClass::Other, Call::Other, 0, || {
            self.inner.list_dir(path)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_env::mem::MemEnv;

    #[test]
    fn classes_follow_file_names() {
        let cases = [
            ("/db/p1/000012.wal", FileClass::Wal),
            ("/db/p1/000013.sst", FileClass::Sst),
            ("/db/p1/000014.vlog", FileClass::Vlog),
            ("/db/META", FileClass::Meta),
            ("/db/META.tmp", FileClass::Meta),
            ("/db/p1/INDEX.ckpt", FileClass::IndexCkpt),
            ("/db/p1/INDEX.tmp", FileClass::IndexCkpt),
            ("/db/EVENTS", FileClass::Other),
        ];
        for (p, want) in cases {
            assert_eq!(FileClass::of(Path::new(p)), want, "{p}");
        }
    }

    #[test]
    fn counts_bytes_per_class() {
        let counters = Arc::new(IoCounters::default());
        let env = ClassEnv::new(MemEnv::shared(), counters.clone(), None);
        env.create_dir_all(Path::new("/d")).unwrap();
        let mut w = env.new_writable(Path::new("/d/1.sst")).unwrap();
        w.append(b"hello").unwrap();
        w.sync().unwrap();
        drop(w);
        env.write_atomic(Path::new("/d/META"), b"meta!!").unwrap();
        let r = env.new_random_access(Path::new("/d/1.sst")).unwrap();
        assert_eq!(r.read_at(1, 3).unwrap(), b"ell");
        let s = counters.snapshot();
        let (sst, meta) = (FileClass::Sst.idx(), FileClass::Meta.idx());
        assert_eq!((s.written[sst], s.read[sst], s.syncs[sst]), (5, 3, 1));
        assert_eq!((s.written[meta], s.syncs[meta], s.creates[meta]), (6, 1, 1));
        assert_eq!(s.written_total(), 11);
    }
}
