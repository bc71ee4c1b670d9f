//! Database file naming, shared by the LSM baselines and the UniKV
//! engine's partitions.

use std::path::{Path, PathBuf};

/// Kinds of files in a database directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// SSTable (`<num>.sst`).
    Table(u64),
    /// Write-ahead log (`<num>.wal`).
    Wal(u64),
    /// Manifest log (`MANIFEST-<num>`).
    Manifest(u64),
    /// Pointer to the live manifest (`CURRENT`).
    Current,
}

/// `<num>.sst`
pub fn table_file(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("{number:06}.sst"))
}

/// `<num>.wal`
pub fn wal_file(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("{number:06}.wal"))
}

/// `MANIFEST-<num>`
pub fn manifest_file(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("MANIFEST-{number:06}"))
}

/// `CURRENT`
pub fn current_file(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

/// Classify a file name within a database directory.
pub fn parse_file_name(name: &str) -> Option<FileKind> {
    if name == "CURRENT" {
        return Some(FileKind::Current);
    }
    if let Some(num) = name.strip_prefix("MANIFEST-") {
        return num.parse().ok().map(FileKind::Manifest);
    }
    if let Some(num) = name.strip_suffix(".sst") {
        return num.parse().ok().map(FileKind::Table);
    }
    if let Some(num) = name.strip_suffix(".wal") {
        return num.parse().ok().map(FileKind::Wal);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let dir = Path::new("/db");
        assert_eq!(
            parse_file_name(table_file(dir, 7).file_name().unwrap().to_str().unwrap()),
            Some(FileKind::Table(7))
        );
        assert_eq!(
            parse_file_name(wal_file(dir, 7).file_name().unwrap().to_str().unwrap()),
            Some(FileKind::Wal(7))
        );
        assert_eq!(
            parse_file_name(manifest_file(dir, 3).file_name().unwrap().to_str().unwrap()),
            Some(FileKind::Manifest(3))
        );
        assert_eq!(parse_file_name("CURRENT"), Some(FileKind::Current));
        assert_eq!(parse_file_name("garbage.tmp"), None);
        assert_eq!(parse_file_name("x.sst"), None);
    }
}
