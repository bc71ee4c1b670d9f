//! The four workloads: their specs, op streams, preload, the correctness
//! oracle and the closed-loop client that drives `UniKv`.
//!
//! Every input is generated here from the seed given on the command line,
//! with `unikv-workload` and `unikv_common::rng`. The oracle keeps the
//! last-written version of every key, so the value any read must return is
//! `make_value(key, version, VALUE_SIZE)`.

use crate::hist::Histogram;
use crate::trace::{self, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use unikv::{PerfContext, ScanItem, UniKv, UniKvOptions};
use unikv_common::rng::{splitmix64_mix, DetRng};
use unikv_workload::{format_key, make_value, MixedWorkload, Op, YcsbKind, YcsbWorkload};

/// Value size of every record.
pub const VALUE_SIZE: usize = 256;
/// Key size of every record (`format_key`: `user` + 12 digits).
pub const KEY_SIZE: usize = 16;
/// In a traced run, every this-many-th get and put runs through the
/// engine's profiled variant.
pub const PROFILE_EVERY: u64 = 16;

/// Operation kinds the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
    Scan,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Get, OpKind::Put, OpKind::Scan];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Scan => "scan",
        }
    }

    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Operation mix of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// YCSB-A: 50% reads / 50% updates, scrambled zipfian.
    YcsbA,
    /// YCSB-C: 100% reads, scrambled zipfian.
    YcsbC,
    /// YCSB-E's mix (95% scans / 5% inserts) with scans of
    /// 1..=[`SHORT_SCAN_MAX`] items.
    YcsbEShort,
    /// 100% uniform updates; each client owns a disjoint slice of keys.
    UniformUpdate,
}

/// One workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub mix: Mix,
    /// Records preloaded, in random order, before the measured phase.
    pub records: u64,
    /// Closed-loop client threads.
    pub clients: usize,
    /// `UniKvOptions::background_jobs` (0: maintenance runs inline).
    pub background_jobs: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "ycsb_a",
        mix: Mix::YcsbA,
        records: 300_000,
        clients: 1,
        background_jobs: 0,
    },
    Spec {
        name: "ycsb_c_cached",
        mix: Mix::YcsbC,
        records: 20_000,
        clients: 1,
        background_jobs: 0,
    },
    Spec {
        name: "ycsb_e_short",
        mix: Mix::YcsbEShort,
        records: 100_000,
        clients: 1,
        background_jobs: 0,
    },
    Spec {
        name: "update_uniform_2c",
        mix: Mix::UniformUpdate,
        records: 200_000,
        clients: 2,
        background_jobs: 2,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Engine options: the defaults (8 MiB block cache, 64 MiB partition
    /// split limit) with the WAL synced only when a memtable is sealed.
    pub fn options(&self) -> UniKvOptions {
        UniKvOptions {
            background_jobs: self.background_jobs,
            sync_writes: false,
            ..Default::default()
        }
    }
}

/// Longest scan of `ycsb_e_short`: one below the 64 values at which the
/// engine hands a scan's value reads to its fetch pool
/// (`crates/core/src/fetch.rs`). On a 2-vCPU shared VM, YCSB-E's scans of
/// up to 100 items wait on two pool threads at once, and their throughput
/// followed the host's CPU steal (ten-run spread above 0.5); scans this
/// short fetch their values on the calling thread.
pub const SHORT_SCAN_MAX: usize = 63;

/// Scale a YCSB-E scan length (1..=100) onto 1..=[`SHORT_SCAN_MAX`].
fn short_scan_len(len: usize) -> usize {
    (len * SHORT_SCAN_MAX).div_ceil(100)
}

/// Independent seed for stream `salt` of a run seeded with `seed`.
fn derive_seed(seed: u64, salt: u64) -> u64 {
    splitmix64_mix(seed ^ splitmix64_mix(salt.wrapping_add(0x5eed)))
}

/// Record id of a key made by `format_key`.
pub fn key_id(key: &[u8]) -> u64 {
    key[4..].iter().fold(0, |n, d| n * 10 + u64::from(d - b'0'))
}

/// The order records are preloaded in: a seeded shuffle of all ids.
pub fn preload_order(records: u64, seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..records).collect();
    let mut rng = DetRng::seed_from_u64(derive_seed(seed, u64::MAX));
    for i in (1..ids.len()).rev() {
        let j = rng.u64_in(0..i as u64 + 1) as usize;
        ids.swap(i, j);
    }
    ids
}

/// Write every record once, at version 0, in `preload_order`.
pub fn preload(db: &UniKv, records: u64, seed: u64) -> unikv_common::Result<Shard> {
    for id in preload_order(records, seed) {
        db.put(&format_key(id), &make_value(id, 0, VALUE_SIZE))?;
    }
    Ok(Shard::new(0, records))
}

/// One client's op stream.
pub enum OpStream {
    Ycsb(YcsbWorkload),
    /// Uniform updates over `records / clients` keys starting at `base`.
    Slice {
        gen: MixedWorkload,
        base: u64,
    },
}

impl OpStream {
    pub fn new(spec: &Spec, seed: u64, client: usize) -> OpStream {
        let s = derive_seed(seed, client as u64);
        let ycsb = |kind| OpStream::Ycsb(YcsbWorkload::new(kind, spec.records, s));
        match spec.mix {
            Mix::YcsbA => ycsb(YcsbKind::A),
            Mix::YcsbC => ycsb(YcsbKind::C),
            Mix::YcsbEShort => ycsb(YcsbKind::E),
            Mix::UniformUpdate => {
                let slice = spec.records / spec.clients as u64;
                OpStream::Slice {
                    gen: MixedWorkload::new(0.0, slice, true, s),
                    base: slice * client as u64,
                }
            }
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self {
            OpStream::Ycsb(w) => match w.next_op() {
                Op::Scan(key, len) => Op::Scan(key, short_scan_len(len)),
                op => op,
            },
            OpStream::Slice { gen, base } => match gen.next_op() {
                Op::Update(k) => Op::Update(format_key(*base + key_id(&k))),
                other => other,
            },
        }
    }
}

/// The oracle's model of a contiguous range of record ids: the version
/// last written to each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shard {
    pub base: u64,
    pub versions: Vec<u32>,
}

impl Shard {
    pub fn new(base: u64, len: u64) -> Shard {
        Shard {
            base,
            versions: vec![0; len as usize],
        }
    }

    pub fn end(&self) -> u64 {
        self.base + self.versions.len() as u64
    }

    fn version(&self, id: u64) -> Option<u32> {
        let i = id.checked_sub(self.base)?;
        self.versions.get(usize::try_from(i).ok()?).copied()
    }

    /// The value a read of `id` must return.
    pub fn value(&self, id: u64) -> Option<Vec<u8>> {
        self.version(id)
            .map(|v| make_value(id, u64::from(v), VALUE_SIZE))
    }

    /// Split into `parts` equal slices (the last takes the remainder).
    pub fn split(mut self, parts: usize) -> Vec<Shard> {
        let per = self.versions.len() / parts;
        let mut out = Vec::with_capacity(parts);
        for p in (0..parts).rev() {
            let tail = self.versions.split_off(p * per);
            out.push(Shard {
                base: self.base + (p * per) as u64,
                versions: tail,
            });
        }
        out.reverse();
        out
    }

    /// Inverse of [`Shard::split`].
    pub fn join(shards: Vec<Shard>) -> Shard {
        let base = shards.first().map_or(0, |s| s.base);
        let mut versions = Vec::new();
        for s in shards {
            assert_eq!(
                s.base,
                base + versions.len() as u64,
                "shards not contiguous"
            );
            versions.extend(s.versions);
        }
        Shard { base, versions }
    }

    /// True if `items` is exactly what `scan(format_key(from), len)` must
    /// return: consecutive keys from `from`, in order, with their current
    /// values, stopping at `len` items or the end of the key range.
    pub fn check_scan(&self, from: u64, len: usize, items: &[ScanItem]) -> bool {
        let want = (len as u64).min(self.end().saturating_sub(from)) as usize;
        items.len() == want
            && items.iter().enumerate().all(|(j, item)| {
                let id = from + j as u64;
                item.key == format_key(id) && Some(&item.value) == self.value(id).as_ref()
            })
    }
}

/// An op with its oracle bookkeeping decided before it runs.
#[derive(Debug)]
pub enum Planned {
    Get {
        id: u64,
        key: Vec<u8>,
    },
    Put {
        id: u64,
        key: Vec<u8>,
        version: u32,
        value: Vec<u8>,
    },
    Scan {
        id: u64,
        key: Vec<u8>,
        len: usize,
    },
}

impl Planned {
    pub fn kind(&self) -> OpKind {
        match self {
            Planned::Get { .. } => OpKind::Get,
            Planned::Put { .. } => OpKind::Put,
            Planned::Scan { .. } => OpKind::Scan,
        }
    }
}

/// Turn a generated op into a planned one. Updates write the next version
/// of the key; inserts write version 0 of the next new key.
pub fn plan(op: Op, shard: &Shard) -> Planned {
    match op {
        Op::Read(key) => Planned::Get {
            id: key_id(&key),
            key,
        },
        Op::Update(key) | Op::ReadModifyWrite(key) => {
            let id = key_id(&key);
            let version = shard.version(id).map_or(0, |v| v + 1);
            let value = make_value(id, u64::from(version), VALUE_SIZE);
            Planned::Put {
                id,
                key,
                version,
                value,
            }
        }
        Op::Insert(key) => {
            let id = key_id(&key);
            let value = make_value(id, 0, VALUE_SIZE);
            Planned::Put {
                id,
                key,
                version: 0,
                value,
            }
        }
        Op::Scan(key, len) => Planned::Scan {
            id: key_id(&key),
            key,
            len,
        },
    }
}

/// What a `UniKv` call returned.
pub enum Outcome {
    Got(Option<Vec<u8>>),
    Put,
    Scanned(Vec<ScanItem>),
}

/// Run `p` against `db`; with `profile`, through the profiled variant.
pub fn execute(
    db: &UniKv,
    p: &Planned,
    profile: bool,
) -> unikv_common::Result<(Outcome, Option<PerfContext>)> {
    Ok(match (p, profile) {
        (Planned::Get { key, .. }, false) => (Outcome::Got(db.get(key)?), None),
        (Planned::Get { key, .. }, true) => {
            let (v, ctx) = db.get_profiled(key)?;
            (Outcome::Got(v), Some(ctx))
        }
        (Planned::Put { key, value, .. }, false) => {
            db.put(key, value)?;
            (Outcome::Put, None)
        }
        (Planned::Put { key, value, .. }, true) => {
            (Outcome::Put, Some(db.put_profiled(key, value)?))
        }
        (Planned::Scan { key, len, .. }, _) => (Outcome::Scanned(db.scan(key, *len)?), None),
    })
}

/// Check `outcome` against the model, then record a successful write in
/// it. Returns false on a wrong result.
pub fn check_and_apply(shard: &mut Shard, p: &Planned, outcome: &Outcome) -> bool {
    match (p, outcome) {
        (Planned::Get { id, .. }, Outcome::Got(got)) => *got == shard.value(*id),
        (Planned::Scan { id, len, .. }, Outcome::Scanned(items)) => {
            shard.check_scan(*id, *len, items)
        }
        (Planned::Put { id, version, .. }, Outcome::Put) => {
            if *id == shard.end() && *version == 0 {
                shard.versions.push(0);
                true
            } else if let Some(slot) = id
                .checked_sub(shard.base)
                .and_then(|i| shard.versions.get_mut(i as usize))
            {
                *slot = *version;
                true
            } else {
                false
            }
        }
        _ => false,
    }
}

/// Read every key of `shard` back from `db`. Returns the number of wrong
/// or failed reads and a description of the first few.
pub fn verify_all(db: &UniKv, shard: &Shard) -> (u64, Vec<String>) {
    let mut wrong = 0;
    let mut notes = Vec::new();
    for id in shard.base..shard.end() {
        let got = db.get(&format_key(id));
        let ok = matches!(&got, Ok(v) if *v == shard.value(id));
        if !ok {
            wrong += 1;
            if notes.len() < 5 {
                let what = match got {
                    Ok(None) => "missing".to_string(),
                    Ok(Some(_)) => "wrong value".to_string(),
                    Err(e) => format!("error: {e}"),
                };
                notes.push(format!("verify key {id}: {what}"));
            }
        }
    }
    (wrong, notes)
}

/// Timing of a traced client, summed over its ops.
#[derive(Clone, Debug, Default)]
pub struct ClientTrace {
    /// Time generating and planning ops.
    pub gen_ns: u64,
    /// Time checking results against the model.
    pub oracle_ns: u64,
    /// Op span time minus child env spans, per kind.
    pub self_ns: [u64; 3],
    /// Merged stage profiles of the sampled ops, per kind.
    pub prof: [PerfContext; 3],
    /// Largest maintenance queue depth seen after an op.
    pub queue_depth_max: u64,
}

/// Latency of the ops that ended in one window of the measured phase, in
/// ns, per kind.
pub type Window = [Histogram; 3];

/// What a client shares with the others and the harness.
pub struct ClientCtx<'a> {
    pub db: &'a UniKv,
    pub start: Instant,
    /// The measured phase is `windows` windows of `window` each.
    pub window: Duration,
    pub windows: usize,
    pub tracer: Option<&'a Tracer>,
    /// Records inserted so far by all clients.
    pub inserted: &'a AtomicU64,
}

impl ClientCtx<'_> {
    pub fn deadline(&self) -> Instant {
        self.start + self.window * self.windows as u32
    }
}

/// What one client did in the measured phase.
#[derive(Debug, Default)]
pub struct ClientOut {
    pub windows: Vec<Window>,
    pub failed: u64,
    pub notes: Vec<String>,
    /// When the client's last op ended.
    pub end: Option<Instant>,
    pub trace: ClientTrace,
}

/// Closed loop: issue the next op only when the previous one returned,
/// until the deadline. Each op is timed around the `UniKv` call alone;
/// generation and the oracle check stay outside that interval.
pub fn run_client(
    cx: &ClientCtx,
    client: usize,
    mut stream: OpStream,
    shard: &mut Shard,
) -> ClientOut {
    let db = cx.db;
    let deadline = cx.deadline();
    let window_ns = cx.window.as_nanos();
    let mut out = ClientOut {
        windows: vec![Window::default(); cx.windows],
        ..Default::default()
    };
    let mut seq: u64 = 0;
    loop {
        let g0 = Instant::now();
        let p = plan(stream.next_op(), shard);
        let kind = p.kind();
        let profile =
            cx.tracer.is_some() && kind != OpKind::Scan && seq.is_multiple_of(PROFILE_EVERY);
        let op_id = ((client as u64 + 1) << trace::OP_CLIENT_SHIFT) | (seq + 1);
        let t0 = Instant::now();
        if cx.tracer.is_some() {
            trace::begin_op(op_id);
        }
        let res = execute(db, &p, profile);
        let t1 = Instant::now();
        let child_ns = trace::end_op();
        let dur = t1.duration_since(t0).as_nanos() as u64;
        let w = (t1.duration_since(cx.start).as_nanos() / window_ns) as usize;
        out.windows[w.min(cx.windows - 1)][kind.idx()].record(dur);

        let records = shard.versions.len();
        let ok = match &res {
            Ok((outcome, _)) => check_and_apply(shard, &p, outcome),
            Err(_) => false,
        };
        // Statistic for the space samples: it publishes no other data.
        cx.inserted
            .fetch_add((shard.versions.len() - records) as u64, Ordering::Relaxed);
        if !ok {
            out.failed += 1;
            if out.notes.len() < 5 {
                let why = match &res {
                    Err(e) => format!("error: {e}"),
                    Ok(_) => "wrong result".to_string(),
                };
                out.notes
                    .push(format!("{} {:?}: {why}", kind.name(), p_key(&p)));
            }
        }

        if let Some(tr) = cx.tracer {
            let t = &mut out.trace;
            let bytes = match &res {
                Ok((Outcome::Got(v), _)) => v.as_ref().map_or(0, Vec::len),
                Ok((Outcome::Scanned(items), _)) => items.iter().map(|i| i.value.len()).sum(),
                _ => VALUE_SIZE,
            };
            tr.record_op(op_id, kind, t0, dur, bytes as u64);
            t.gen_ns += t0.duration_since(g0).as_nanos() as u64;
            t.self_ns[kind.idx()] += dur.saturating_sub(child_ns);
            if let Ok((_, Some(ctx))) = &res {
                t.prof[kind.idx()].merge(ctx);
            }
            let depth = db.stats().maint_queue_depth.load(Ordering::Relaxed);
            t.queue_depth_max = t.queue_depth_max.max(depth);
            t.oracle_ns += t1.elapsed().as_nanos() as u64;
        }

        seq += 1;
        if t1 >= deadline {
            out.end = Some(t1);
            break;
        }
    }
    out
}

fn p_key(p: &Planned) -> String {
    let key = match p {
        Planned::Get { key, .. } | Planned::Put { key, .. } | Planned::Scan { key, .. } => key,
    };
    String::from_utf8_lossy(key).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_env::mem::MemEnv;

    fn stream_of(spec: &Spec, seed: u64, client: usize, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(spec, seed, client);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        for spec in &SPECS {
            for client in 0..spec.clients {
                let a = stream_of(spec, 7, client, 500);
                assert_eq!(a, stream_of(spec, 7, client, 500), "{}", spec.name);
                assert_ne!(a, stream_of(spec, 8, client, 500), "{}", spec.name);
            }
        }
        assert_eq!(preload_order(1000, 3), preload_order(1000, 3));
        assert_ne!(preload_order(1000, 3), preload_order(1000, 4));
        let mut sorted = preload_order(1000, 3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn clients_of_the_two_client_workload_touch_disjoint_halves() {
        let spec = spec("update_uniform_2c").unwrap();
        let half = spec.records / 2;
        for client in 0..2u64 {
            for op in stream_of(spec, 1, client as usize, 2000) {
                let Op::Update(k) = op else {
                    panic!("not an update: {op:?}")
                };
                let id = key_id(&k);
                assert!((client * half..(client + 1) * half).contains(&id));
            }
        }
    }

    #[test]
    fn short_scans_stay_below_the_parallel_fetch_threshold() {
        assert_eq!(
            (short_scan_len(1), short_scan_len(100)),
            (1, SHORT_SCAN_MAX)
        );
        let spec = spec("ycsb_e_short").unwrap();
        let lens: Vec<usize> = stream_of(spec, 9, 0, 5000)
            .into_iter()
            .filter_map(|op| match op {
                Op::Scan(_, len) => Some(len),
                _ => None,
            })
            .collect();
        assert!(lens.iter().all(|l| (1..=SHORT_SCAN_MAX).contains(l)));
        assert!(lens.contains(&1) && lens.contains(&SHORT_SCAN_MAX));
    }

    #[test]
    fn key_id_inverts_format_key() {
        for id in [0, 7, 123_456, 999_999_999_999] {
            assert_eq!(key_id(&format_key(id)), id);
        }
    }

    #[test]
    fn split_and_join_round_trip() {
        let mut m = Shard::new(0, 11);
        m.versions[3] = 4;
        let parts = m.clone().split(2);
        assert_eq!((parts[0].base, parts[0].versions.len()), (0, 5));
        assert_eq!((parts[1].base, parts[1].versions.len()), (5, 6));
        assert_eq!(Shard::join(parts), m);
    }

    fn small_db() -> UniKv {
        UniKv::open(MemEnv::shared(), "/db", UniKvOptions::small_for_tests()).unwrap()
    }

    #[test]
    fn oracle_accepts_a_correct_store() {
        let db = small_db();
        let mut shard = preload(&db, 300, 5).unwrap();
        let mut stream = OpStream::Ycsb(YcsbWorkload::new(YcsbKind::A, 300, 5));
        for _ in 0..2000 {
            let p = plan(stream.next_op(), &shard);
            let (outcome, _) = execute(&db, &p, false).unwrap();
            assert!(check_and_apply(&mut shard, &p, &outcome));
        }
        assert_eq!(verify_all(&db, &shard).0, 0);
        let items = db.scan(&format_key(290), 20).unwrap();
        assert!(shard.check_scan(290, 20, &items));
    }

    #[test]
    fn oracle_catches_a_planted_wrong_value_and_a_planted_missing_key() {
        let db = small_db();
        let shard = preload(&db, 300, 5).unwrap();
        db.put(&format_key(17), &make_value(17, 99, VALUE_SIZE))
            .unwrap();
        db.delete(&format_key(42)).unwrap();

        let (wrong, notes) = verify_all(&db, &shard);
        assert_eq!(wrong, 2, "{notes:?}");
        assert!(notes[0].contains("key 17: wrong value"), "{notes:?}");
        assert!(notes[1].contains("key 42: missing"), "{notes:?}");

        let mut s = shard.clone();
        for id in [17, 42] {
            let p = plan(Op::Read(format_key(id)), &s);
            let (outcome, _) = execute(&db, &p, false).unwrap();
            assert!(!check_and_apply(&mut s, &p, &outcome), "get {id} passed");
        }
        for from in [10, 40] {
            let items = db.scan(&format_key(from), 10).unwrap();
            assert!(
                !shard.check_scan(from, 10, &items),
                "scan from {from} passed"
            );
        }
        let items = db.scan(&format_key(100), 10).unwrap();
        assert!(shard.check_scan(100, 10, &items));
        let mut reversed = items.clone();
        reversed.reverse();
        assert!(!shard.check_scan(100, 10, &reversed), "order not checked");
        assert!(!shard.check_scan(99, 10, &items), "range not checked");
    }
}
