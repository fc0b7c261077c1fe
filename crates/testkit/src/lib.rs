//! What the workspace's tests share, written once: an allocator probe,
//! temporary directories, directory-tree snapshots and a byte mutator.
//!
//! A dev-dependency only; nothing here is product code. It uses the
//! standard library alone, so every crate's tests can use it.

mod alloc;
mod fs;
mod mutate;

pub use alloc::{measure, Allocs, Probe};
pub use fs::{copy_tree, snapshot, tree, TempRoot};
pub use mutate::mutate;

#[cfg(test)]
#[global_allocator]
static ALLOC: Probe = Probe;

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::{Path, PathBuf};

    #[test]
    fn a_temp_root_is_removed_unless_its_thread_panics() {
        let root = TempRoot::new("testkit-drop");
        let path = root.to_path_buf();
        assert!(path.is_dir() && tree(&path).is_empty());
        drop(root);
        assert!(!path.exists(), "a normal drop removes the root");

        let mut kept = PathBuf::new();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let root = TempRoot::new("testkit-panic");
            kept = root.to_path_buf();
            panic!("a failing test");
        }));
        assert!(unwound.is_err());
        assert!(kept.is_dir(), "a failing test keeps its evidence");
        std::fs::remove_dir_all(&kept).unwrap();
    }

    #[test]
    fn the_snapshot_lists_empty_directories_and_copies_alike() {
        let root = TempRoot::new("testkit-tree");
        std::fs::create_dir_all(root.join("a/empty")).unwrap();
        std::fs::write(root.join("a.txt"), b"1").unwrap();
        std::fs::write(root.join("a/b"), b"22").unwrap();
        let listed = |dir: &Path| {
            let snap = snapshot(dir);
            let names = snap.iter().map(|(p, _)| p.to_str().unwrap().to_owned());
            (names.collect::<Vec<_>>(), snap)
        };
        let (names, snap) = listed(&root);
        // Name order, a directory before what it holds: `a/…` sorts
        // before `a.txt` though '/' comes after '.'.
        assert_eq!(names, ["a", "a/b", "a/empty", "a.txt"]);
        assert_eq!(snap[1].1.as_deref(), Some(&b"22"[..]));
        assert_eq!(snap[2].1, None);
        let copy = TempRoot::new("testkit-copy");
        copy_tree(&root, &copy.join("into"));
        assert_eq!(listed(&copy.join("into")).1, snap);
    }

    #[test]
    fn measure_counts_a_known_allocation_exactly() {
        let (v, allocs) = measure(|| Vec::<u64>::with_capacity(100));
        assert_eq!(
            allocs,
            Allocs {
                calls: 1,
                bytes: 800,
                peak: 800,
            }
        );
        let (_, allocs) = measure(|| drop(v));
        assert_eq!(allocs.calls, 0);
        assert_eq!(allocs.peak, 0, "a free is not a peak");
    }
}
