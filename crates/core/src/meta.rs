//! Persistent database metadata: the partition index and per-partition
//! file inventories, written as one atomic snapshot (`META`) on every
//! structural change.
//!
//! The paper persists partition metadata in a manifest with WAL semantics;
//! at this workspace's scale the metadata is tiny (a few KiB for dozens of
//! partitions), so an atomic whole-snapshot rewrite gives the same crash
//! guarantee — the rename is the commit point of every flush, merge, GC,
//! and split — with far less recovery machinery. Files created before the
//! snapshot lands are orphans that recovery deletes.

use unikv_common::coding::{
    get_length_prefixed_slice, get_varint32, get_varint64, put_fixed32, put_length_prefixed_slice,
    put_varint32, put_varint64, try_decode_fixed32,
};
use unikv_common::{crc32c, Error, Result};

/// Current snapshot format version.
const META_VERSION: u32 = 1;

/// Metadata of one SSTable (in either tier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// File number within the partition directory.
    pub number: u64,
    /// File size in bytes.
    pub size: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
}

/// A reference to a value log owned by (possibly) another partition —
/// the lazy-split sharing mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogRef {
    /// Owning partition id (directory the file lives in).
    pub partition: u32,
    /// Log file number.
    pub log_number: u64,
}

/// Snapshot of one partition's state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionMeta {
    /// Partition id (names the directory `p<id>`).
    pub id: u32,
    /// Inclusive lower boundary of the key range (empty = -∞).
    pub lo: Vec<u8>,
    /// Exclusive upper boundary; `None` = +∞.
    pub hi: Option<Vec<u8>>,
    /// WAL file number currently receiving writes.
    pub wal_number: u64,
    /// UnsortedStore tables in flush order (oldest first).
    pub unsorted: Vec<TableMeta>,
    /// SortedStore run, ordered by key, non-overlapping.
    pub sorted: Vec<TableMeta>,
    /// Value logs owned by this partition.
    pub own_logs: Vec<u64>,
    /// Shared logs inherited from a split parent, still referenced by
    /// pointers in this partition's SortedStore.
    pub inherited_logs: Vec<LogRef>,
    /// Unsorted table numbers covered by the on-disk hash-index checkpoint.
    pub ckpt_tables: Vec<u64>,
    /// Sum of live separated-value lengths in the SortedStore (GC trigger
    /// bookkeeping; recomputed at each merge).
    pub live_value_bytes: u64,
    /// WAL numbers of sealed (immutable) memtables awaiting a background
    /// flush, oldest first. Recovery replays them before the active WAL.
    /// Empty in deterministic inline mode (`background_jobs = 0`), and
    /// encoded as an optional trailing section so snapshots without
    /// sealed WALs stay byte-identical to the pre-background format.
    pub sealed_wals: Vec<u64>,
}

/// Whole-database snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbMeta {
    /// All partitions, ordered by `lo`.
    pub partitions: Vec<PartitionMeta>,
    /// Next partition id to allocate.
    pub next_partition: u32,
    /// Next file number to allocate (global across partitions).
    pub next_file: u64,
    /// Last committed sequence number covered by flushed data.
    pub last_sequence: u64,
}

impl Default for DbMeta {
    fn default() -> Self {
        DbMeta {
            partitions: vec![PartitionMeta {
                id: 0,
                ..Default::default()
            }],
            next_partition: 1,
            next_file: 1,
            last_sequence: 0,
        }
    }
}

fn encode_table(out: &mut Vec<u8>, t: &TableMeta) {
    put_varint64(out, t.number);
    put_varint64(out, t.size);
    put_length_prefixed_slice(out, &t.smallest);
    put_length_prefixed_slice(out, &t.largest);
}

fn decode_table(src: &[u8]) -> Result<(TableMeta, usize)> {
    let (number, a) = get_varint64(src)?;
    let (size, b) = get_varint64(&src[a..])?;
    let (smallest, c) = get_length_prefixed_slice(&src[a + b..])?;
    let smallest = smallest.to_vec();
    let (largest, d) = get_length_prefixed_slice(&src[a + b + c..])?;
    Ok((
        TableMeta {
            number,
            size,
            smallest,
            largest: largest.to_vec(),
        },
        a + b + c + d,
    ))
}

impl DbMeta {
    /// Serialize the snapshot (with trailing CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        put_fixed32(&mut out, META_VERSION);
        put_varint64(&mut out, self.last_sequence);
        put_varint64(&mut out, self.next_file);
        put_varint32(&mut out, self.next_partition);
        put_varint32(&mut out, self.partitions.len() as u32);
        for p in &self.partitions {
            put_varint32(&mut out, p.id);
            put_length_prefixed_slice(&mut out, &p.lo);
            match &p.hi {
                Some(hi) => {
                    out.push(1);
                    put_length_prefixed_slice(&mut out, hi);
                }
                None => out.push(0),
            }
            put_varint64(&mut out, p.wal_number);
            put_varint32(&mut out, p.unsorted.len() as u32);
            for t in &p.unsorted {
                encode_table(&mut out, t);
            }
            put_varint32(&mut out, p.sorted.len() as u32);
            for t in &p.sorted {
                encode_table(&mut out, t);
            }
            put_varint32(&mut out, p.own_logs.len() as u32);
            for l in &p.own_logs {
                put_varint64(&mut out, *l);
            }
            put_varint32(&mut out, p.inherited_logs.len() as u32);
            for l in &p.inherited_logs {
                put_varint32(&mut out, l.partition);
                put_varint64(&mut out, l.log_number);
            }
            put_varint32(&mut out, p.ckpt_tables.len() as u32);
            for t in &p.ckpt_tables {
                put_varint64(&mut out, *t);
            }
            put_varint64(&mut out, p.live_value_bytes);
        }
        // Optional trailing section: per-partition sealed-WAL lists, only
        // present when at least one partition has sealed memtables. With
        // `background_jobs = 0` nothing is ever sealed, so the encoding is
        // byte-identical to snapshots that predate background maintenance.
        if self.partitions.iter().any(|p| !p.sealed_wals.is_empty()) {
            for p in &self.partitions {
                put_varint32(&mut out, p.sealed_wals.len() as u32);
                for w in &p.sealed_wals {
                    put_varint64(&mut out, *w);
                }
            }
        }
        let crc = crc32c::mask(crc32c::value(&out));
        put_fixed32(&mut out, crc);
        out
    }

    /// Parse a snapshot produced by [`encode`](Self::encode).
    pub fn decode(data: &[u8]) -> Result<DbMeta> {
        if data.len() < 8 {
            return Err(Error::corruption("META too small"));
        }
        let body = &data[..data.len() - 4];
        let stored = try_decode_fixed32(&data[data.len() - 4..])?;
        if crc32c::unmask(stored) != crc32c::value(body) {
            return Err(Error::corruption("META crc mismatch"));
        }
        let version = try_decode_fixed32(body)?;
        if version != META_VERSION {
            return Err(Error::corruption(format!(
                "unsupported META version {version}"
            )));
        }
        let mut pos = 4usize;
        macro_rules! v64 {
            () => {{
                let (v, n) = get_varint64(&body[pos..])?;
                pos += n;
                v
            }};
        }
        macro_rules! v32 {
            () => {{
                let (v, n) = get_varint32(&body[pos..])?;
                pos += n;
                v
            }};
        }
        macro_rules! slice {
            () => {{
                let (s, n) = get_length_prefixed_slice(&body[pos..])?;
                pos += n;
                s.to_vec()
            }};
        }
        let last_sequence = v64!();
        let next_file = v64!();
        let next_partition = v32!();
        let num_partitions = v32!();
        let mut partitions = Vec::with_capacity(num_partitions as usize);
        for _ in 0..num_partitions {
            let id = v32!();
            let lo = slice!();
            let has_hi = *body
                .get(pos)
                .ok_or_else(|| Error::corruption("META truncated"))?;
            pos += 1;
            let hi = match has_hi {
                0 => None,
                1 => Some(slice!()),
                _ => return Err(Error::corruption("META bad hi flag")),
            };
            let wal_number = v64!();
            let mut unsorted = Vec::new();
            for _ in 0..v32!() {
                let (t, n) = decode_table(&body[pos..])?;
                pos += n;
                unsorted.push(t);
            }
            let mut sorted = Vec::new();
            for _ in 0..v32!() {
                let (t, n) = decode_table(&body[pos..])?;
                pos += n;
                sorted.push(t);
            }
            let mut own_logs = Vec::new();
            for _ in 0..v32!() {
                own_logs.push(v64!());
            }
            let mut inherited_logs = Vec::new();
            for _ in 0..v32!() {
                let partition = v32!();
                let log_number = v64!();
                inherited_logs.push(LogRef {
                    partition,
                    log_number,
                });
            }
            let mut ckpt_tables = Vec::new();
            for _ in 0..v32!() {
                ckpt_tables.push(v64!());
            }
            let live_value_bytes = v64!();
            partitions.push(PartitionMeta {
                id,
                lo,
                hi,
                wal_number,
                unsorted,
                sorted,
                own_logs,
                inherited_logs,
                ckpt_tables,
                live_value_bytes,
                sealed_wals: Vec::new(),
            });
        }
        // Optional sealed-WAL section (see `encode`).
        if pos < body.len() {
            for p in partitions.iter_mut() {
                for _ in 0..v32!() {
                    p.sealed_wals.push(v64!());
                }
            }
        }
        if pos != body.len() {
            return Err(Error::corruption("META trailing bytes"));
        }
        Ok(DbMeta {
            partitions,
            next_partition,
            next_file,
            last_sequence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> DbMeta {
        DbMeta {
            partitions: vec![
                PartitionMeta {
                    id: 0,
                    lo: Vec::new(),
                    hi: Some(b"m".to_vec()),
                    wal_number: 12,
                    unsorted: vec![TableMeta {
                        number: 3,
                        size: 100,
                        smallest: b"a\0\0\0\0\0\0\0\x01".to_vec(),
                        largest: b"l\0\0\0\0\0\0\0\x01".to_vec(),
                    }],
                    sorted: vec![],
                    own_logs: vec![5, 6],
                    inherited_logs: vec![LogRef {
                        partition: 9,
                        log_number: 2,
                    }],
                    ckpt_tables: vec![3],
                    live_value_bytes: 4096,
                    sealed_wals: Vec::new(),
                },
                PartitionMeta {
                    id: 1,
                    lo: b"m".to_vec(),
                    hi: None,
                    wal_number: 13,
                    ..Default::default()
                },
            ],
            next_partition: 2,
            next_file: 20,
            last_sequence: 777,
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(DbMeta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn default_is_single_open_partition() {
        let m = DbMeta::default();
        assert_eq!(m.partitions.len(), 1);
        assert!(m.partitions[0].lo.is_empty());
        assert!(m.partitions[0].hi.is_none());
        assert_eq!(DbMeta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn sealed_wals_roundtrip_and_stay_optional() {
        let mut m = sample();
        let clean = m.encode();
        // No sealed WALs → the trailing section is absent entirely.
        m.partitions[0].sealed_wals = vec![41, 42];
        let sealed = m.encode();
        assert!(sealed.len() > clean.len());
        assert_eq!(DbMeta::decode(&sealed).unwrap(), m);
        m.partitions[0].sealed_wals.clear();
        assert_eq!(
            m.encode(),
            clean,
            "empty sealed_wals must not change encoding"
        );
    }

    #[test]
    fn corruption_detected() {
        let mut enc = sample().encode();
        let n = enc.len();
        enc[n / 2] ^= 0xff;
        assert!(DbMeta::decode(&enc).is_err());
        assert!(DbMeta::decode(&enc[..6]).is_err());
        assert!(DbMeta::decode(&[]).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            last_sequence in any::<u64>(),
            next_file in any::<u64>(),
            ids in proptest::collection::vec(any::<u32>(), 1..8),
            lo in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let partitions: Vec<PartitionMeta> = ids
                .iter()
                .map(|&id| PartitionMeta { id, lo: lo.clone(), ..Default::default() })
                .collect();
            let m = DbMeta { partitions, next_partition: 99, next_file, last_sequence };
            prop_assert_eq!(DbMeta::decode(&m.encode()).unwrap(), m);
        }
    }
}
