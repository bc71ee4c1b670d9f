//! Opening a database starts only its maintenance workers: no thread in
//! inline mode, and exactly `background_jobs` threads otherwise (scans
//! resolve their values on the calling thread).
//!
//! This file holds a single test so that no sibling test thread starts or
//! exits while the process's threads are counted.

#![cfg(target_os = "linux")]

use unikv::{UniKv, UniKvOptions};
use unikv_env::mem::MemEnv;

/// Threads of this process, as listed in `/proc/self/task`.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Threads `UniKv::open` adds with `opts`. The database stays open, so
/// the count is taken before any of its threads could exit.
fn threads_added_at_open(opts: UniKvOptions) -> (UniKv, usize) {
    let before = threads();
    let db = UniKv::open(MemEnv::shared(), "/db", opts).unwrap();
    let after = threads();
    (db, after.saturating_sub(before))
}

#[test]
fn open_starts_only_maintenance_workers() {
    let (_inline, added) = threads_added_at_open(UniKvOptions::default());
    assert_eq!(added, 0, "inline open started threads");

    let opts = UniKvOptions {
        background_jobs: 2,
        ..Default::default()
    };
    let (_workers, added) = threads_added_at_open(opts);
    assert_eq!(added, 2, "background_jobs = 2");
}
