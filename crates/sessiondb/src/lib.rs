//! `sessiondb` — the honeynet's on-disk session store.
//!
//! The paper's dataset is 546 million sessions over 33 months; anything
//! that "hands the dataset around as a `Vec`" stops working long before
//! that scale. This crate is the storage layer the analysis pipeline
//! streams from instead: an **append-only, sharded, columnar** store with
//! a seekable binary format, built for the access pattern longitudinal
//! honeynet studies actually have — write once during collection, then
//! scan cheaply, repeatedly, and often only for a slice of the calendar.
//!
//! # Format
//!
//! A store is a directory containing a `MANIFEST` tag file and numbered
//! *segment* files (`seg-000000.hsdb`, `seg-000001.hsdb`, …), each
//! holding a bounded batch of sessions. One segment is:
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header    magic "HSDB" · version u16 · flags u16     (8 B)   |
//! +--------------------------------------------------------------+
//! | block     tag=1 dictionary · len u32 · payload · crc32       |
//! | block     tag=2 rows (columnar) · len u32 · payload · crc32  |
//! +--------------------------------------------------------------+
//! | footer    rows u64 · min_start i64 · max_start i64           |
//! |           · crc32 · magic "HSF1"                    (32 B)   |
//! +--------------------------------------------------------------+
//! ```
//!
//! * **String interning** — every string a session carries (commands,
//!   usernames, passwords, URIs, paths, file hashes, client versions)
//!   is stored once in the segment's dictionary and referenced by a u32
//!   id. Honeynet traffic is extremely repetitive — the `mdrfckr`
//!   command line alone appears tens of millions of times in the paper's
//!   data — so interning collapses the dominant cost to one dictionary
//!   entry per distinct string.
//! * **Zone maps** — the footer records the min/max session start time
//!   of the segment. Time-windowed scans (Figs. 1/2/12 need slices of
//!   the calendar, not the whole study) skip every segment whose range
//!   does not intersect the window, without reading its blocks.
//! * **Integrity** — every block carries a CRC-32 of its payload and the
//!   footer carries one of its own fields; truncation, torn writes and
//!   bit flips surface as a structured [`SessionDbError::Corrupt`], never
//!   as garbage records or a panic.
//!
//! # Scanning
//!
//! [`Store::scan`] streams [`honeypot::SessionRecord`] batches segment by
//! segment — resident memory is bounded by one decoded segment, not the
//! dataset.
//!
//! The analyst's pass reads rows without owning them:
//! [`SegmentReader::fold`] CRC-checks a segment's blocks, checks every
//! tag and dictionary id of its rows block, then rebuilds the rows one by
//! one into a single reused record, resolving strings in a dictionary
//! that borrows from the block. [`Store::par_fold`] folds every segment
//! that way on scoped threads and merges the segments' values in segment
//! order as they finish ([`hutil::par::ordered_fold`]), holding at most two
//! per worker. [`SegmentReader::read_all`] is the same fold with each row
//! moved out, so there is one row decoder.
//!
//! # Writing
//!
//! [`StoreWriter`] appends records and seals a segment every
//! `rows_per_segment` rows. It implements [`honeypot::SessionSink`], so a
//! [`honeypot::Collector`] built with `Collector::with_sink` spills
//! straight to disk through the collector's retry/quarantine machinery,
//! and `botnet::generate_dataset_into` generates a 33-month dataset
//! without ever materializing it in memory.

pub mod segment;
pub mod store;
pub mod wal;

pub use segment::{SegmentMeta, SegmentReader, SegmentWriter};
pub use store::{
    is_sessiondb_path, needs_recovery, recover, recovery_preview, RecoveryReport, Scan, Store,
    StoreOptions, StoreSummary, StoreWriter,
};
pub use wal::{FsyncPolicy, WalWriter};

#[cfg(test)]
pub(crate) use test_dir::TestDir;

use std::path::Path;

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 4] = *b"HSDB";
/// Magic bytes closing every segment footer.
pub const FOOTER_MAGIC: [u8; 4] = *b"HSF1";
/// Current format version.
pub const VERSION: u16 = 1;
/// Segment file extension.
pub const SEGMENT_EXT: &str = "hsdb";
/// First line of a store directory's `MANIFEST` tag file.
pub const MANIFEST_TAG: &str = "sessiondb v1";
/// Magic bytes opening the write-ahead log.
pub const WAL_MAGIC: [u8; 4] = *b"HSWL";
/// Current WAL format version.
pub const WAL_VERSION: u16 = 1;
/// File name of a store directory's write-ahead log.
pub const WAL_FILE: &str = "wal.hswal";
/// Default number of sessions per segment. Bounds both writer and reader
/// resident memory; at typical session sizes a segment decodes to a few
/// megabytes.
pub const DEFAULT_ROWS_PER_SEGMENT: usize = 8192;

/// Everything that can go wrong reading or writing a store.
#[derive(Debug)]
pub enum SessionDbError {
    /// An underlying filesystem operation failed.
    Io {
        /// File or directory involved.
        path: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file is not a sessiondb segment (wrong magic).
    BadMagic {
        /// Offending file.
        path: String,
    },
    /// The segment was written by an unknown format version.
    BadVersion {
        /// Offending file.
        path: String,
        /// Version found in the header.
        found: u16,
    },
    /// The segment is damaged: truncated, bit-flipped, or inconsistent.
    Corrupt {
        /// Offending file.
        path: String,
        /// What the reader tripped over.
        detail: String,
    },
    /// The path is not a sessiondb store (no manifest, no segments).
    NotAStore {
        /// Offending path.
        path: String,
    },
}

impl std::fmt::Display for SessionDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionDbError::Io { path, source } => write!(f, "{path}: {source}"),
            SessionDbError::BadMagic { path } => {
                write!(f, "{path}: not a sessiondb segment (bad magic)")
            }
            SessionDbError::BadVersion { path, found } => {
                write!(f, "{path}: unsupported sessiondb version {found}")
            }
            SessionDbError::Corrupt { path, detail } => {
                write!(f, "{path}: corrupt segment: {detail}")
            }
            SessionDbError::NotAStore { path } => {
                write!(f, "{path}: not a sessiondb store")
            }
        }
    }
}

impl std::error::Error for SessionDbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionDbError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl SessionDbError {
    pub(crate) fn io(path: &Path, source: std::io::Error) -> Self {
        SessionDbError::Io {
            path: path.display().to_string(),
            source,
        }
    }

    pub(crate) fn corrupt(path: &Path, detail: impl Into<String>) -> Self {
        SessionDbError::Corrupt {
            path: path.display().to_string(),
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod test_dir {
    use std::ffi::OsStr;
    use std::ops::Deref;
    use std::path::{Path, PathBuf};

    /// A unit test's scratch directory, removed with everything in it
    /// when the guard drops. It derefs to its [`Path`], and `&TestDir`
    /// converts into a `PathBuf` as `&PathBuf` does, so a test passes it
    /// wherever a path goes.
    pub(crate) struct TestDir(PathBuf);

    impl TestDir {
        /// A fresh, empty `<temp>/<name>-<pid>` directory.
        pub(crate) fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }
    }

    impl Deref for TestDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TestDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<OsStr> for TestDir {
        fn as_ref(&self) -> &OsStr {
            self.0.as_os_str()
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
