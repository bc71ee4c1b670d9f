#![warn(missing_docs)]

//! Workspace umbrella for the UniKV reproduction: hosts the runnable
//! `examples/` and the cross-crate integration tests under `tests/`, and
//! re-exports the pieces a downstream user typically needs so a single
//! dependency (`unikv-suite`) pulls the whole stack.
//!
//! See `README.md` for the project overview, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured results.

mod router;

pub use router::{SizeRouter, SizeRouterOptions};
pub use unikv;
pub use unikv_common;
pub use unikv_env;
pub use unikv_hashstore;
pub use unikv_lsm;
pub use unikv_workload;

/// The types most programs need, in one import.
///
/// ```
/// use unikv_suite::prelude::*;
///
/// let db = UniKv::open(MemEnv::shared(), "/db", UniKvOptions::default()).unwrap();
/// db.put(b"k", b"v").unwrap();
/// assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
/// ```
pub mod prelude {
    pub use crate::{SizeRouter, SizeRouterOptions};
    pub use unikv::{ScanItem, UniKv, UniKvOptions, WriteBatch};
    pub use unikv_common::{Error, Result};
    pub use unikv_env::fs::FsEnv;
    pub use unikv_env::mem::MemEnv;
    pub use unikv_lsm::{Baseline, LsmDb, LsmOptions};
}
