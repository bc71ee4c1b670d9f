#![warn(missing_docs)]

//! SSTable: the immutable on-disk table format shared by every engine in
//! this workspace (UniKV's UnsortedStore and SortedStore both reuse the
//! "mature and stable SSTable code", paper §Implementation; the LSM
//! baselines use it with Bloom filters enabled).
//!
//! Layout (LevelDB-lineage):
//!
//! ```text
//! [data block]*            4 KiB target, prefix-compressed w/ restarts
//! [filter block]?          Bloom filter (baselines only; UniKV omits it)
//! [index block]            one entry per data block: last_key -> handle
//! [footer]                 filter handle + index handle + magic
//! ```
//!
//! Every block is followed by a 5-byte trailer: compression type (always
//! raw here) and a masked CRC32C.
//!
//! The crate also holds what every engine builds on top of tables: the
//! k-way [`iter::MergingIterator`] over memtables and tables, and the
//! database [`filenames`] scheme.

pub mod block;
pub mod builder;
pub mod cache;
pub mod filenames;
pub mod filter;
pub mod format;
pub mod iter;
pub mod reader;

pub use block::{Block, BlockBuilder, BlockIterator};
pub use builder::{TableBuilder, TableBuilderOptions};
pub use cache::BlockCache;
pub use filter::BloomFilterPolicy;
pub use format::BlockHandle;
pub use reader::{Table, TableIoMetrics, TableIterator, TableOptions};

use std::cmp::Ordering;

/// Key comparison function used throughout a table. Tables storing internal
/// keys pass [`unikv_common::ikey::compare_internal_keys`]; raw-byte tables
/// pass `<[u8]>::cmp`-style ordering.
pub type KeyCmp = fn(&[u8], &[u8]) -> Ordering;

/// Raw byte ordering, for tables storing plain keys.
pub fn raw_cmp(a: &[u8], b: &[u8]) -> Ordering {
    a.cmp(b)
}
