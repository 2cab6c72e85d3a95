//! The store directory layout, defined once: one file per entry
//! ([`entry_path`], [`scan`]), each published by [`write_atomically`].
//! Warm-state checkpoints (stems starting with [`WARM_STEM_PREFIX`]) are
//! raw `<stem>.bin` files; every other entry is a `<stem>.json` file.
//! `eole-bench`'s `DirStore`, the `eole-stored` daemon and the
//! `experiments --out` writer all go through this module, so a directory
//! the daemon serves opens as a `DirStore` and vice versa. Temp files,
//! `<stem>.quarantined` copies and files whose suffix does not match
//! their stem's kind (a `warm__*.json` from an older build) are not
//! entries.

use std::fs::Metadata;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The distinctive stem prefix of warm-state checkpoint entries: stores
/// that share a namespace with run results (one directory, one daemon)
/// use it to tell the two payload kinds apart without reading them.
/// (No Table 3 workload is named `warm`, so a result stem can never
/// start with this prefix.)
pub const WARM_STEM_PREFIX: &str = "warm__";

/// The file extension of the entry `stem`: `bin` for a checkpoint,
/// `json` for everything else.
fn extension(stem: &str) -> &'static str {
    if stem.starts_with(WARM_STEM_PREFIX) {
        "bin"
    } else {
        "json"
    }
}

/// The file holding the entry `stem` in the store directory `dir`.
pub fn entry_path(dir: &Path, stem: &str) -> PathBuf {
    dir.join(format!("{stem}.{}", extension(stem)))
}

/// The stem and metadata of every entry in `dir` — exactly the files
/// [`entry_path`] names — in directory order (none when `dir` cannot be
/// read).
pub fn scan(dir: &Path) -> Vec<(String, Metadata)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            let (stem, ext) = name.rsplit_once('.')?;
            if stem.is_empty() || ext != extension(stem) {
                return None;
            }
            Some((stem.to_string(), e.metadata().ok()?))
        })
        .collect()
}

/// The temp-name sequence of every writer in the process: a `DirStore`
/// and an in-process daemon drawing from two sequences would hand out the
/// same `.tmp-<pid>-<n>` name in a shared directory.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to a sibling `.tmp-<pid>-<n>` file and renames it over
/// `path`: readers see the old contents or the new, never a torn write,
/// and a killed writer leaves at worst a stray `.tmp-*` file.
///
/// # Errors
///
/// A rendered description of the failed write or rename; the temp file
/// is removed and `path` keeps its previous contents.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let n = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".tmp-{}-{n}", std::process::id()));
    let published = std::fs::write(&tmp, bytes)
        .map_err(|e| format!("write {}: {e}", tmp.display()))
        .and_then(|()| {
            std::fs::rename(&tmp, path)
                .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
        });
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_lists_entries_and_skips_temp_and_quarantined_files() {
        let dir = std::env::temp_dir().join(format!("eole-dir-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_atomically(&entry_path(&dir, "a-key"), b"{}\n").unwrap();
        write_atomically(&entry_path(&dir, "b_key"), b"[1]\n").unwrap();
        write_atomically(&entry_path(&dir, "warm__x"), b"\x00\x01").unwrap();
        std::fs::write(dir.join(".tmp-1-2"), b"partial").unwrap();
        std::fs::write(dir.join("c.quarantined"), b"damaged").unwrap();
        // Suffixes that do not match the stem's kind: a checkpoint written
        // as JSON by an older build, and a result written as `.bin`.
        std::fs::write(dir.join("warm__old.json"), b"{}").unwrap();
        std::fs::write(dir.join("r.bin"), b"raw").unwrap();
        let mut found: Vec<(String, u64)> =
            scan(&dir).into_iter().map(|(stem, meta)| (stem, meta.len())).collect();
        found.sort();
        assert_eq!(
            found,
            vec![("a-key".to_string(), 3), ("b_key".to_string(), 4), ("warm__x".to_string(), 2)]
        );
        assert!(dir.join("warm__x.bin").exists());
        assert!(scan(&dir.join("missing")).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_publish_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("eole-dir-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("taken.json")).unwrap();
        // Renaming a file over a directory fails; the temp must go too.
        assert!(write_atomically(&entry_path(&dir, "taken"), b"x").is_err());
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().filter_map(Result::ok).collect();
        assert_eq!(names.len(), 1, "only the directory remains");
        std::fs::remove_dir_all(&dir).ok();
    }
}
