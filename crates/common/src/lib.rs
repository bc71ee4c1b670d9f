#![warn(missing_docs)]

//! Shared foundation for the UniKV reproduction workspace.
//!
//! This crate holds the vocabulary types every other crate speaks:
//! errors, byte-level encodings, checksums, hash functions, internal key
//! encoding, and the value-pointer format used by partial KV separation.
//!
//! Nothing in here performs I/O; it is pure, allocation-conscious code with
//! property-tested round-trips.

pub mod clock;
pub mod coding;
pub mod crc32c;
pub mod error;
pub mod events;
pub mod hash;
pub mod ikey;
pub mod keyrange;
pub mod metrics;
pub mod perf;
pub mod pointer;
pub mod rng;

pub use clock::{Clock, ClockFn};
pub use error::{Error, Result};
pub use ikey::{InternalKey, SequenceNumber, ValueType, MAX_SEQUENCE_NUMBER};
pub use keyrange::KeyRange;
pub use pointer::ValuePointer;

/// One scan result, as every engine in the workspace returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanItem {
    /// User key.
    pub key: Vec<u8>,
    /// Value.
    pub value: Vec<u8>,
}
