//! Streaming iteration over a UniKV database.
//!
//! The paper describes scans exactly this way (§Scan Optimization): a
//! `seek()` positions at the start key, `next()` returns successive
//! smallest keys, without any global in-memory sort-merge. The iterator
//! owns `Arc` handles to every table it may touch, so it remains valid (a
//! consistent snapshot) while merges, GC, and splits replace files
//! underneath it.

use crate::resolver::ValueResolver;
use std::collections::HashMap;
use std::sync::Arc;
use unikv_common::ikey::{
    extract_seq_type, extract_user_key, make_internal_key, SequenceNumber, ValueType,
};
use unikv_common::pointer::SeparatedValue;
use unikv_common::Result;
use unikv_env::RandomAccessFile;
use unikv_sstable::iter::{InternalIterator, MergingIterator};
use unikv_vlog::read_value_record;

/// One partition's slice of the snapshot.
pub(crate) struct PartitionCursor {
    /// Merging iterator over the partition's memtable + tiers.
    pub iter: MergingIterator,
    /// Inclusive lower boundary of the partition.
    pub lo: Vec<u8>,
    /// Exclusive upper boundary (`None` = +∞).
    pub hi: Option<Vec<u8>>,
}

/// Streaming cursor over live entries of the whole database.
pub struct UniKvIterator {
    pub(crate) parts: Vec<PartitionCursor>,
    pub(crate) idx: usize,
    pub(crate) snapshot: SequenceNumber,
    pub(crate) resolver: Arc<ValueResolver>,
    /// Log readers pinned at creation: GC may delete log files while the
    /// iterator lives, but pinned handles keep the snapshot readable.
    pub(crate) pinned_logs: HashMap<(u32, u64), Arc<dyn RandomAccessFile>>,
    /// `(user_key, resolved_value)` under the cursor.
    current: Option<(Vec<u8>, Vec<u8>)>,
}

impl UniKvIterator {
    pub(crate) fn new(
        parts: Vec<PartitionCursor>,
        snapshot: SequenceNumber,
        resolver: Arc<ValueResolver>,
        pinned_logs: HashMap<(u32, u64), Arc<dyn RandomAccessFile>>,
    ) -> Self {
        UniKvIterator {
            parts,
            idx: 0,
            snapshot,
            resolver,
            pinned_logs,
            current: None,
        }
    }

    /// Position at the first live entry with `key >= from`.
    pub fn seek(&mut self, from: &[u8]) -> Result<()> {
        self.current = None;
        if self.parts.is_empty() {
            return Ok(());
        }
        // Last partition with lo <= from (the first partition's lo is the
        // empty key, so the count is always >= 1).
        self.idx = self
            .parts
            .partition_point(|p| p.lo.as_slice() <= from)
            .saturating_sub(1);
        let seek_from = if from > self.parts[self.idx].lo.as_slice() {
            from.to_vec()
        } else {
            self.parts[self.idx].lo.clone()
        };
        let snapshot = self.snapshot;
        self.parts[self.idx].iter.seek(&make_internal_key(
            &seek_from,
            snapshot,
            ValueType::Value,
        ))?;
        self.advance_to_visible(None)
    }

    fn advance_to_visible(&mut self, mut last_key: Option<Vec<u8>>) -> Result<()> {
        self.current = None;
        while self.idx < self.parts.len() {
            let snapshot = self.snapshot;
            let part = &mut self.parts[self.idx];
            while part.iter.valid() {
                let ikey = part.iter.ikey();
                let user_key = extract_user_key(ikey);
                if let Some(hi) = &part.hi {
                    if user_key >= hi.as_slice() {
                        break; // beyond this partition's range
                    }
                }
                let (seq, t) = extract_seq_type(ikey)?;
                if last_key.as_deref() != Some(user_key) && seq <= snapshot {
                    last_key = Some(user_key.to_vec());
                    if t == ValueType::Value {
                        let key = user_key.to_vec();
                        let slot = SeparatedValue::decode(part.iter.value())?;
                        let value = match slot {
                            SeparatedValue::Inline(v) => v,
                            SeparatedValue::Pointer(ptr) => {
                                if let Some(r) =
                                    self.pinned_logs.get(&(ptr.partition, ptr.log_number))
                                {
                                    read_value_record(r.as_ref(), ptr.offset, ptr.length)?
                                } else {
                                    self.resolver.read(&ptr)?
                                }
                            }
                        };
                        self.current = Some((key, value));
                        return Ok(());
                    }
                }
                part.iter.next()?;
            }
            // Partition exhausted: move to the next one from its start.
            self.idx += 1;
            if self.idx < self.parts.len() {
                let lo = self.parts[self.idx].lo.clone();
                self.parts[self.idx].iter.seek(&make_internal_key(
                    &lo,
                    snapshot,
                    ValueType::Value,
                ))?;
            }
        }
        Ok(())
    }

    /// True if positioned on an entry.
    pub fn valid(&self) -> bool {
        self.current.is_some()
    }

    /// Current user key. Panics if not [`valid`](Self::valid).
    pub fn key(&self) -> &[u8] {
        &self.current.as_ref().expect("valid iterator").0
    }

    /// Current value (pointers already resolved). Panics if not valid.
    pub fn value(&self) -> &[u8] {
        &self.current.as_ref().expect("valid iterator").1
    }

    /// Advance to the next live key (possibly crossing partitions).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<()> {
        let last = self.current.take().expect("valid iterator").0;
        if self.idx < self.parts.len() {
            self.parts[self.idx].iter.next()?;
        }
        self.advance_to_visible(Some(last))
    }
}
