//! A counting [`Vfs`]: passes every call to the real filesystem and
//! counts what the store asked of it — bytes written, file syncs (with
//! their wall time) and directory syncs.

use selearn_store::{StdVfs, Vfs, VfsFile};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// What the store did to the filesystem. Counts are statistics only, so
/// the atomics are `Relaxed`.
#[derive(Default)]
pub struct IoCounts {
    pub bytes_written: AtomicU64,
    pub file_syncs: AtomicU64,
    pub dir_syncs: AtomicU64,
    /// Wall time of every file sync, in microseconds.
    pub sync_us: Mutex<Vec<f64>>,
}

impl IoCounts {
    pub fn syncs(&self) -> u64 {
        self.file_syncs.load(Ordering::Relaxed) + self.dir_syncs.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    pub fn sync_times_us(&self) -> Vec<f64> {
        self.sync_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// [`StdVfs`] with [`IoCounts`] attached.
pub struct CountingVfs {
    counts: Arc<IoCounts>,
}

impl CountingVfs {
    pub fn new(counts: Arc<IoCounts>) -> Self {
        Self { counts }
    }

    fn wrap(&self, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner,
            counts: Arc::clone(&self.counts),
        })
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counts: Arc<IoCounts>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counts
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let result = self.inner.sync();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.counts.file_syncs.fetch_add(1, Ordering::Relaxed);
        self.counts
            .sync_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(us);
        result
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(StdVfs.create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(StdVfs.open_append(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        StdVfs.list(dir)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        StdVfs.truncate(path, len)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.counts.dir_syncs.fetch_add(1, Ordering::Relaxed);
        StdVfs.sync_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
}
