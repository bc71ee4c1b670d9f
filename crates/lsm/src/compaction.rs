//! Compaction machinery: output-table writing shared by flushes and
//! compactions, and the policy logic choosing what to compact.

use crate::options::{CompactionPolicy, LsmOptions};
use crate::version::{FileMetaData, Version};
use std::sync::Arc;
use unikv_common::ikey::{extract_seq_type, extract_user_key, ValueType};
use unikv_common::{KeyRange, Result};
use unikv_env::Env;
use unikv_sstable::iter::InternalIterator;
use unikv_sstable::{filenames, TableBuilder, TableBuilderOptions};

/// What a compaction should do with logically dead entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropPolicy {
    /// Keep only the newest version of each user key (safe without
    /// exported snapshots).
    pub dedup_user_keys: bool,
    /// Drop tombstones entirely (only safe when no older data for the key
    /// can exist below the output level).
    pub drop_tombstones: bool,
}

/// Description of one chosen compaction.
#[derive(Debug)]
pub struct CompactionJob {
    /// Source level.
    pub level: usize,
    /// Files taken from `level`.
    pub inputs_lo: Vec<Arc<FileMetaData>>,
    /// Files taken from `level + 1` (empty under the fragmented policy).
    pub inputs_hi: Vec<Arc<FileMetaData>>,
}

impl CompactionJob {
    /// Total input bytes.
    pub fn input_bytes(&self) -> u64 {
        self.inputs_lo
            .iter()
            .chain(&self.inputs_hi)
            .map(|f| f.size)
            .sum()
    }
}

/// Write the entries of `iter` (already positioned at the first entry)
/// into one or more tables of at most `table_size` bytes, applying `drop`.
/// Returns metadata for the created files.
#[allow(clippy::too_many_arguments)]
pub fn write_tables(
    env: &dyn Env,
    dir: &std::path::Path,
    alloc_file_number: &mut dyn FnMut() -> u64,
    iter: &mut dyn InternalIterator,
    table_opts: &TableBuilderOptions,
    table_size: usize,
    drop: DropPolicy,
    mut on_bytes_written: impl FnMut(u64),
) -> Result<Vec<Arc<FileMetaData>>> {
    let mut outputs = Vec::new();
    let mut builder: Option<(u64, TableBuilder)> = None;
    let mut last_user_key: Option<Vec<u8>> = None;

    while iter.valid() {
        let ikey = iter.ikey();
        let user_key = extract_user_key(ikey);
        let (_, vt) = extract_seq_type(ikey)?;

        let is_shadowed = drop.dedup_user_keys && last_user_key.as_deref() == Some(user_key);
        let is_dead_tombstone = drop.drop_tombstones && vt == ValueType::Deletion;
        if drop.dedup_user_keys && last_user_key.as_deref() != Some(user_key) {
            last_user_key = Some(user_key.to_vec());
        }

        if !is_shadowed && !is_dead_tombstone {
            if builder.is_none() {
                let number = alloc_file_number();
                let file = env.new_writable(&filenames::table_file(dir, number))?;
                builder = Some((number, TableBuilder::new(file, table_opts.clone())));
            }
            let (_, b) = builder.as_mut().expect("created above");
            b.add(ikey, iter.value())?;
            if b.estimated_size() >= table_size as u64 {
                let (number, b) = builder.take().expect("present");
                let props = b.finish()?;
                on_bytes_written(props.file_size);
                outputs.push(FileMetaData::new(
                    number,
                    props.file_size,
                    props.smallest,
                    props.largest,
                ));
            }
        }
        iter.next()?;
    }

    if let Some((number, b)) = builder.take() {
        if b.num_entries() > 0 {
            let props = b.finish()?;
            on_bytes_written(props.file_size);
            outputs.push(FileMetaData::new(
                number,
                props.file_size,
                props.smallest,
                props.largest,
            ));
        } else {
            // Nothing written: remove the empty file.
            let _ = env.delete_file(&filenames::table_file(dir, number));
        }
    }
    Ok(outputs)
}

/// Pick the next compaction under `opts`, or `None` when nothing exceeds
/// its trigger. `round_robin_cursor` persists the leveled pick position.
pub fn pick_compaction(
    version: &Version,
    opts: &LsmOptions,
    round_robin_cursor: &mut usize,
) -> Option<CompactionJob> {
    match opts.policy {
        CompactionPolicy::Leveled => pick_leveled(version, opts, round_robin_cursor),
        CompactionPolicy::Fragmented => pick_fragmented(version, opts),
    }
}

/// The union user-key range covered by `files`.
fn key_range_of(files: &[Arc<FileMetaData>]) -> KeyRange {
    let mut range = KeyRange::new(
        extract_user_key(&files[0].smallest).to_vec(),
        extract_user_key(&files[0].largest).to_vec(),
    );
    for f in &files[1..] {
        range.extend_to(extract_user_key(&f.smallest));
        range.extend_to(extract_user_key(&f.largest));
    }
    range
}

fn pick_leveled(version: &Version, opts: &LsmOptions, cursor: &mut usize) -> Option<CompactionJob> {
    // L0 first: file count trigger.
    if version.level_files(0) >= opts.l0_compaction_trigger {
        let inputs_lo = version.levels[0].clone();
        let range = key_range_of(&inputs_lo);
        let inputs_hi = version.overlapping_files(1, range.smallest(), range.largest());
        return Some(CompactionJob {
            level: 0,
            inputs_lo,
            inputs_hi,
        });
    }
    // Size triggers on levels 1..max-1.
    for level in 1..version.levels.len() - 1 {
        if version.level_bytes(level) <= opts.level_target_bytes(level) {
            continue;
        }
        let files = &version.levels[level];
        if files.is_empty() {
            continue;
        }
        let chosen = if opts.overlap_minimizing_picks {
            // HyperLevelDB-style: the file whose next-level overlap is
            // smallest relative to its own size — least wasted rewriting.
            files
                .iter()
                .min_by_key(|f| {
                    let lo = extract_user_key(&f.smallest);
                    let hi = extract_user_key(&f.largest);
                    let overlap: u64 = version
                        .overlapping_files(level + 1, lo, hi)
                        .iter()
                        .map(|g| g.size)
                        .sum();
                    // Scale to compare ratios without floats.
                    overlap * 1024 / f.size.max(1)
                })
                .expect("non-empty")
                .clone()
        } else {
            // LevelDB-style round-robin over the sorted file list.
            let idx = *cursor % files.len();
            *cursor = cursor.wrapping_add(1);
            files[idx].clone()
        };
        let lo = extract_user_key(&chosen.smallest).to_vec();
        let hi = extract_user_key(&chosen.largest).to_vec();
        let inputs_hi = version.overlapping_files(level + 1, &lo, &hi);
        return Some(CompactionJob {
            level,
            inputs_lo: vec![chosen],
            inputs_hi,
        });
    }
    None
}

fn pick_fragmented(version: &Version, opts: &LsmOptions) -> Option<CompactionJob> {
    // A level compacts when it accumulates too many runs; ALL of its files
    // are then re-sorted and appended to the next level as one run, which
    // is never read or rewritten (PebblesDB's key trick). This is tiering
    // with fanout = runs trigger, so write amplification is bounded by the
    // number of populated levels instead of the leveled rewrite factor.
    for level in 0..version.levels.len() - 1 {
        let files = version.level_files(level);
        if files == 0 {
            continue;
        }
        let run_trigger = if level == 0 {
            opts.l0_compaction_trigger
        } else {
            opts.fragmented_runs_trigger
        };
        if files >= run_trigger {
            return Some(CompactionJob {
                level,
                inputs_lo: version.levels[level].clone(),
                inputs_hi: Vec::new(),
            });
        }
    }
    None
}

/// True if no file in levels strictly below `output_level` overlaps the
/// user-key range — tombstones compacted into such a level can be dropped.
pub fn range_is_bottommost(version: &Version, output_level: usize, lo: &[u8], hi: &[u8]) -> bool {
    for level in (output_level + 1)..version.levels.len() {
        if !version.overlapping_files(level, lo, hi).is_empty() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::{apply_edit, VersionEdit};
    use unikv_common::ikey::make_internal_key;

    fn ik(k: &[u8]) -> Vec<u8> {
        make_internal_key(k, 1, ValueType::Value)
    }

    #[allow(clippy::type_complexity)]
    fn version_with(files: &[(u32, u64, u64, &[u8], &[u8])], leveled: bool) -> Arc<Version> {
        let mut e = VersionEdit::default();
        for (level, num, size, lo, hi) in files {
            e.added.push((*level, *num, *size, ik(lo), ik(hi)));
        }
        apply_edit(&Version::empty(7), &e, leveled)
    }

    #[test]
    fn leveled_l0_trigger() {
        let opts = LsmOptions::default();
        let v = version_with(
            &[
                (0, 1, 10, b"a", b"c"),
                (0, 2, 10, b"b", b"d"),
                (0, 3, 10, b"a", b"z"),
                (0, 4, 10, b"m", b"q"),
                (1, 5, 10, b"a", b"k"),
                (1, 6, 10, b"l", b"z"),
            ],
            true,
        );
        let mut cursor = 0;
        let job = pick_compaction(&v, &opts, &mut cursor).expect("L0 over trigger");
        assert_eq!(job.level, 0);
        assert_eq!(job.inputs_lo.len(), 4);
        assert_eq!(job.inputs_hi.len(), 2, "both L1 files overlap a..z");
        assert_eq!(job.input_bytes(), 60);
    }

    #[test]
    fn leveled_no_trigger_none() {
        let opts = LsmOptions::default();
        let v = version_with(&[(0, 1, 10, b"a", b"b")], true);
        assert!(pick_compaction(&v, &opts, &mut 0).is_none());
    }

    #[test]
    fn leveled_size_trigger() {
        let opts = LsmOptions {
            base_level_bytes: 100,
            ..Default::default()
        };
        let v = version_with(
            &[
                (1, 1, 90, b"a", b"f"),
                (1, 2, 60, b"g", b"p"),
                (2, 3, 50, b"a", b"e"),
                (2, 4, 50, b"h", b"m"),
            ],
            true,
        );
        let job = pick_compaction(&v, &opts, &mut 0).expect("L1 over size");
        assert_eq!(job.level, 1);
        assert_eq!(job.inputs_lo.len(), 1);
        // Whichever file was picked, inputs_hi must be its L2 overlaps.
        let range = key_range_of(&job.inputs_lo);
        for f in &job.inputs_hi {
            assert!(f.overlaps_user_range(range.smallest(), range.largest()));
        }
    }

    #[test]
    fn hyper_picks_min_overlap() {
        let opts = LsmOptions {
            overlap_minimizing_picks: true,
            base_level_bytes: 100,
            ..Default::default()
        };
        // File 1 overlaps a big L2 file; file 2 overlaps nothing.
        let v = version_with(
            &[
                (1, 1, 80, b"a", b"f"),
                (1, 2, 80, b"q", b"t"),
                (2, 3, 500, b"a", b"g"),
            ],
            true,
        );
        let job = pick_compaction(&v, &opts, &mut 0).unwrap();
        assert_eq!(
            job.inputs_lo[0].number, 2,
            "should pick the overlap-free file"
        );
        assert!(job.inputs_hi.is_empty());
    }

    #[test]
    fn fragmented_never_reads_next_level() {
        let mut opts = LsmOptions::baseline(crate::options::Baseline::PebblesDb);
        opts.fragmented_runs_trigger = 2;
        let v = version_with(
            &[
                (1, 1, 10, b"a", b"m"),
                (1, 2, 10, b"c", b"z"),
                (2, 3, 10, b"a", b"z"),
            ],
            false,
        );
        let job = pick_compaction(&v, &opts, &mut 0).unwrap();
        assert_eq!(job.level, 1);
        assert_eq!(job.inputs_lo.len(), 2);
        assert!(job.inputs_hi.is_empty(), "fragmented must not rewrite L2");
    }

    #[test]
    fn bottommost_detection() {
        let v = version_with(&[(1, 1, 10, b"a", b"f"), (3, 2, 10, b"d", b"k")], true);
        assert!(!range_is_bottommost(&v, 1, b"a", b"f"), "L3 overlaps d..f");
        assert!(
            range_is_bottommost(&v, 1, b"l", b"z"),
            "nothing below overlaps l..z"
        );
        assert!(range_is_bottommost(&v, 3, b"a", b"z"));
    }
}
