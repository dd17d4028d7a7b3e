//! Scratch directories for the runs that touch the disk.
//!
//! The benchmark may write only inside its checkout, so durable clusters and
//! the WAL timings log beside the benchmark's own executable (the build
//! directory, which `.gitignore` names) instead of the system temp root.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{env, fs, io};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// The directory run artefacts (scratch data, span files) go under: the one
/// holding the running executable.
pub fn artefact_root() -> io::Result<PathBuf> {
    let exe = env::current_exe()?;
    let dir = exe.parent().ok_or_else(|| io::Error::other("executable has no directory"))?;
    Ok(dir.join("consensus_bench-out"))
}

/// A fresh directory under `root`, deleted recursively on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(root: &Path) -> io::Result<Self> {
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("scratch-{}-{unique}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}
