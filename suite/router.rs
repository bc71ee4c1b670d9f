//! Size-differentiated store routing — the mitigation the paper sketches
//! for very small KV pairs (§Memory overhead: "one solution is to manage
//! the indexing of KV pairs of different sizes differently, e.g., the
//! classic LSM-tree for small KV pairs and UniKV for large ones").
//!
//! [`SizeRouter`] composes a classic LSM store (small values: hash-index
//! entries would cost a large fraction of such pairs) with a UniKV store
//! (medium/large values, which benefit from KV separation and hash
//! indexing). Writes route by the value's size; the *other* store receives
//! a tombstone so a key whose value crosses the threshold never resurrects
//! an old version. Reads check the LSM first, then UniKV; scans merge the
//! two sorted streams.

use std::path::PathBuf;
use std::sync::Arc;
use unikv::{UniKv, UniKvOptions};
use unikv_common::{Result, ScanItem};
use unikv_env::Env;
use unikv_lsm::{LsmDb, LsmOptions};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct SizeRouterOptions {
    /// Values strictly smaller than this go to the LSM store.
    pub small_value_threshold: usize,
    /// Options for the small-value LSM store.
    pub lsm: LsmOptions,
    /// Options for the large-value UniKV store.
    pub unikv: UniKvOptions,
}

impl Default for SizeRouterOptions {
    fn default() -> Self {
        SizeRouterOptions {
            small_value_threshold: 128,
            lsm: LsmOptions::default(),
            unikv: UniKvOptions::default(),
        }
    }
}

/// A KV store that routes by value size across two engines.
///
/// ```
/// use unikv_suite::{SizeRouter, SizeRouterOptions};
/// use unikv_env::mem::MemEnv;
///
/// let router = SizeRouter::open(MemEnv::shared(), "/db", SizeRouterOptions::default()).unwrap();
/// router.put(b"small", b"x").unwrap();            // goes to the LSM side
/// router.put(b"large", &[0u8; 4096]).unwrap();    // goes to the UniKV side
/// assert_eq!(router.get(b"small").unwrap(), Some(b"x".to_vec()));
/// assert_eq!(router.get(b"large").unwrap().unwrap().len(), 4096);
/// ```
pub struct SizeRouter {
    small: LsmDb,
    large: UniKv,
    threshold: usize,
}

impl SizeRouter {
    /// Open both stores under `root` (`root/small`, `root/large`).
    pub fn open(
        env: Arc<dyn Env>,
        root: impl Into<PathBuf>,
        opts: SizeRouterOptions,
    ) -> Result<SizeRouter> {
        let root = root.into();
        Ok(SizeRouter {
            small: LsmDb::open(env.clone(), root.join("small"), opts.lsm)?,
            large: UniKv::open(env, root.join("large"), opts.unikv)?,
            threshold: opts.small_value_threshold,
        })
    }

    /// The size boundary between the two stores.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Insert or update `key`. If the key currently lives in the other
    /// store (its value size crossed the threshold), that store receives a
    /// tombstone so the old version never resurrects. The existence probe
    /// is cheap: a miss in an empty or cold store touches no data blocks.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        if value.len() < self.threshold {
            self.small.put(key, value)?;
            if self.large.get(key)?.is_some() {
                self.large.delete(key)?;
            }
            Ok(())
        } else {
            self.large.put(key, value)?;
            if self.small.get(key)?.is_some() {
                self.small.delete(key)?;
            }
            Ok(())
        }
    }

    /// Delete `key` from both stores.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.small.delete(key)?;
        self.large.delete(key)
    }

    /// Point lookup: at most one store holds a live version.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if let Some(v) = self.small.get(key)? {
            return Ok(Some(v));
        }
        self.large.get(key)
    }

    /// Range scan: merge the two stores' sorted streams. Keys are unique
    /// across stores (puts tombstone the other side), so the merge is a
    /// plain two-way interleave.
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        let a = self.small.scan(from, limit)?;
        let b = self.large.scan(from, limit)?;
        let mut out = Vec::with_capacity(limit.min(a.len() + b.len()));
        let (mut i, mut j) = (0, 0);
        while out.len() < limit && (i < a.len() || j < b.len()) {
            let take_a = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.key <= y.key,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_a {
                out.push(a[i].clone());
                i += 1;
            } else {
                out.push(b[j].clone());
                j += 1;
            }
        }
        Ok(out)
    }

    /// Force both stores' buffers to disk.
    pub fn flush(&self) -> Result<()> {
        self.small.flush()?;
        self.large.flush()
    }

    /// Access the small-value store (diagnostics).
    pub fn small_store(&self) -> &LsmDb {
        &self.small
    }

    /// Access the large-value store (diagnostics).
    pub fn large_store(&self) -> &UniKv {
        &self.large
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unikv_env::mem::MemEnv;

    fn open_router(threshold: usize) -> SizeRouter {
        let opts = SizeRouterOptions {
            small_value_threshold: threshold,
            lsm: LsmOptions {
                write_buffer_size: 8 << 10,
                table_size: 8 << 10,
                base_level_bytes: 32 << 10,
                ..Default::default()
            },
            unikv: UniKvOptions::small_for_tests(),
        };
        SizeRouter::open(MemEnv::shared(), "/router", opts).unwrap()
    }

    #[test]
    fn routes_by_size() {
        let r = open_router(64);
        r.put(b"small", b"tiny").unwrap();
        r.put(b"large", &[7u8; 500]).unwrap();
        assert_eq!(r.get(b"small").unwrap(), Some(b"tiny".to_vec()));
        assert_eq!(r.get(b"large").unwrap(), Some(vec![7u8; 500]));
        // Verify placement.
        assert_eq!(
            r.small_store().get(b"small").unwrap(),
            Some(b"tiny".to_vec())
        );
        assert_eq!(r.small_store().get(b"large").unwrap(), None);
        assert_eq!(r.large_store().get(b"large").unwrap(), Some(vec![7u8; 500]));
    }

    #[test]
    fn size_crossing_updates_never_resurrect() {
        let r = open_router(64);
        r.put(b"k", &[1u8; 500]).unwrap(); // large
        r.put(b"k", b"now-small").unwrap(); // crosses down
        assert_eq!(r.get(b"k").unwrap(), Some(b"now-small".to_vec()));
        r.put(b"k", &[2u8; 500]).unwrap(); // crosses back up
        assert_eq!(r.get(b"k").unwrap(), Some(vec![2u8; 500]));
        r.delete(b"k").unwrap();
        assert_eq!(r.get(b"k").unwrap(), None);
    }

    #[test]
    fn scan_merges_both_stores_sorted() {
        let r = open_router(64);
        for i in 0..200u32 {
            let key = format!("key{i:04}");
            if i % 2 == 0 {
                r.put(key.as_bytes(), b"s").unwrap();
            } else {
                r.put(key.as_bytes(), &[i as u8; 300]).unwrap();
            }
        }
        let items = r.scan(b"key0000", 50).unwrap();
        assert_eq!(items.len(), 50);
        for (n, item) in items.iter().enumerate() {
            assert_eq!(item.key, format!("key{n:04}").into_bytes());
            if n % 2 == 0 {
                assert_eq!(item.value, b"s".to_vec());
            } else {
                assert_eq!(item.value.len(), 300);
            }
        }
        // Limit respected when one side dominates.
        assert_eq!(r.scan(b"key0190", 100).unwrap().len(), 10);
    }

    #[test]
    fn mixed_sizes_with_model() {
        use std::collections::BTreeMap;
        let r = open_router(100);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut s = 0x77u64;
        for step in 0..2_000u64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = format!("k{:03}", s % 300).into_bytes();
            match s % 7 {
                0 => {
                    r.delete(&k).unwrap();
                    model.remove(&k);
                }
                _ => {
                    let len = (s % 400) as usize;
                    let v = vec![(step % 251) as u8; len];
                    r.put(&k, &v).unwrap();
                    model.insert(k, v);
                }
            }
        }
        for i in 0..300u64 {
            let k = format!("k{i:03}").into_bytes();
            assert_eq!(r.get(&k).unwrap(), model.get(&k).cloned());
        }
        let got = r.scan(b"", 1000).unwrap();
        assert_eq!(got.len(), model.len());
    }

    #[test]
    fn index_memory_savings_for_small_values() {
        // With all-small values, the router's UniKV side holds only the
        // routing tombstones (no values), so hash-index memory is bounded
        // by 8 B per key of *tombstones* — and merges drop those, keeping
        // the overhead transient. This is the point of the paper's
        // suggestion: small pairs never pay per-value index entries.
        let r = open_router(128);
        for i in 0..2_000u32 {
            r.put(format!("k{i:05}").as_bytes(), b"tiny-value").unwrap();
        }
        let idx = r.large_store().index_memory_bytes();
        assert!(idx <= 2_000 * 8, "index too large: {idx}");
        // After a full merge the tombstones (and their index entries) die.
        r.large_store().compact_all().unwrap();
        assert_eq!(r.large_store().index_memory_bytes(), 0);
        assert_eq!(r.large_store().logical_bytes(), 0);
        assert_eq!(r.get(b"k00000").unwrap(), Some(b"tiny-value".to_vec()));
    }
}
