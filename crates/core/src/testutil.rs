//! Helpers shared by this crate's unit tests.
//!
//! The workspace's integration tests share `tiresias-testkit`, which
//! these tests cannot use: a `#[cfg(test)]` build of this crate is a
//! different crate instance from the one the kit links.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::builder::TiresiasBuilder;

/// The offline engine configuration the live and sharded tests share:
/// 15-minute units, two reference levels.
pub(crate) fn builder() -> TiresiasBuilder {
    TiresiasBuilder::new()
        .timeunit_secs(900)
        .window_len(32)
        .threshold(5.0)
        .season_length(4)
        .sensitivity(2.0, 5.0)
        .warmup_units(4)
        .ref_levels(2)
}

/// [`builder`] traffic: every unit of `0..units`, 8 records per path,
/// except 80 for the first path in `burst_unit`.
pub(crate) fn burst_batch(paths: &[&str], units: u64, burst_unit: u64) -> Vec<(String, u64)> {
    let mut batch = Vec::new();
    for u in 0..units {
        for (k, p) in paths.iter().enumerate() {
            let count = if u == burst_unit && k == 0 { 80 } else { 8 };
            for i in 0..count {
                batch.push((p.to_string(), u * 900 + i));
            }
        }
    }
    batch
}

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it when dropped, including while a failed assertion
/// unwinds.
pub(crate) struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `tiresias-<tag>-<pid>-<n>`, unique within the process.
    pub(crate) fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "tiresias-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir { path }
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[test]
fn temp_dir_is_removed_on_drop_and_on_unwind() {
    let dir = TempDir::new("testutil");
    std::fs::write(dir.join("file"), b"x").unwrap();
    let path = dir.to_path_buf();
    drop(dir);
    assert!(!path.exists());

    let mut path = PathBuf::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let dir = TempDir::new("testutil");
        path = dir.to_path_buf();
        panic!("a failing assertion");
    }));
    assert!(outcome.is_err());
    assert!(!path.as_os_str().is_empty() && !path.exists());
}
