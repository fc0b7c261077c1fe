//! Temporary directories and directory-tree snapshots.

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A fresh, empty directory under the system's temporary directory,
/// named by its tag and this process's id. Dropping it removes it —
/// unless the thread is panicking, so a failing test leaves its evidence
/// behind. Tags must differ between tests of one binary that run at once.
#[derive(Debug)]
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn new(tag: &str) -> TempRoot {
        let path = std::env::temp_dir().join(format!("dcpi-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        TempRoot(path)
    }

    /// A fresh, empty directory `name` under the root.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        dir
    }
}

impl Deref for TempRoot {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempRoot {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl From<&TempRoot> for PathBuf {
    fn from(root: &TempRoot) -> PathBuf {
        root.0.clone()
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = fs::remove_dir_all(&self.0);
        }
    }
}

/// Every directory and file under `root`, relative to it, in name order
/// with each directory just before what it holds (path order, in which
/// `a/b` sorts before `a.txt`).
pub fn tree(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut dirs = vec![PathBuf::new()];
    while let Some(dir) = dirs.pop() {
        let abs = root.join(&dir);
        for entry in fs::read_dir(&abs).unwrap_or_else(|e| panic!("{}: {e}", abs.display())) {
            let entry = entry.expect("directory entry");
            let path = dir.join(entry.file_name());
            if entry.file_type().expect("file type").is_dir() {
                dirs.push(path.clone());
            }
            out.push(path);
        }
    }
    out.sort();
    out
}

/// [`tree`] with each file's bytes (`None` for a directory).
pub fn snapshot(root: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    tree(root)
        .into_iter()
        .map(|path| {
            let abs = root.join(&path);
            let bytes = abs
                .is_file()
                .then(|| fs::read(&abs).expect("readable file"));
            (path, bytes)
        })
        .collect()
}

/// Copies every directory and file under `from` into `to`, creating it.
pub fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap_or_else(|e| panic!("{}: {e}", to.display()));
    for path in tree(from) {
        let (src, dst) = (from.join(&path), to.join(&path));
        if src.is_dir() {
            fs::create_dir_all(&dst).expect("copy a directory");
        } else {
            fs::copy(&src, &dst).unwrap_or_else(|e| panic!("{}: {e}", src.display()));
        }
    }
}
