//! Segment storage backends for the write-ahead log.
//!
//! The WAL logic ([`crate::DurableStore`]) is written against this small
//! trait so that the *same* append / sync / rehydrate code runs over real
//! files ([`DirBackend`], what `srm-node --store` uses) and over a
//! deterministic in-memory disk ([`MemBackend`], what the fault-injected
//! simulator and the test suite use). `MemBackend` models the one property
//! that matters for crash semantics: bytes appended but not yet synced are
//! readable by the live process (page cache) and *gone* after a crash.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Storage for numbered log segments.
pub trait Backend: fmt::Debug + Send {
    /// Ids of existing segments, ascending.
    fn list_segments(&mut self) -> io::Result<Vec<u64>>;
    /// Full contents of segment `id` as the live process sees it
    /// (including bytes not yet synced).
    fn read_segment(&mut self, id: u64) -> io::Result<Vec<u8>>;
    /// Create an empty segment `id`.
    fn create_segment(&mut self, id: u64) -> io::Result<()>;
    /// Append `data` to segment `id`.
    fn append(&mut self, id: u64, data: &[u8]) -> io::Result<()>;
    /// Force segment `id` onto stable storage.
    fn sync(&mut self, id: u64) -> io::Result<()>;
    /// Truncate segment `id` to `len` bytes (torn-tail repair).
    fn truncate_segment(&mut self, id: u64, len: u64) -> io::Result<()>;
    /// Delete segment `id` (compaction).
    fn remove_segment(&mut self, id: u64) -> io::Result<()>;
    /// Model process death: discard volatile state (unsynced bytes,
    /// cached handles). Stable storage is untouched.
    fn drop_volatile(&mut self);
}

/// Real files in a directory: `wal-<id>.log`, one per segment.
///
/// "Crash" for this backend is an actual process kill — the OS drops the
/// page cache's un-fsynced dirty state only on power loss, but the fsync
/// policy still bounds what a `kill -9` plus machine failure could lose,
/// and [`Backend::drop_volatile`] just forgets the cached file handle.
pub struct DirBackend {
    dir: PathBuf,
    /// Cached append handle for the segment being written.
    active: Option<(u64, File)>,
}

impl fmt::Debug for DirBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirBackend").field("dir", &self.dir).finish()
    }
}

impl DirBackend {
    /// Open (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DirBackend { dir, active: None })
    }

    fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("wal-{id:06}.log"))
    }

    fn active_file(&mut self, id: u64) -> io::Result<&mut File> {
        if self.active.as_ref().map(|(a, _)| *a) != Some(id) {
            let f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(id))?;
            self.active = Some((id, f));
        }
        Ok(&mut self.active.as_mut().expect("just set").1)
    }
}

impl Backend for DirBackend {
    fn list_segments(&mut self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn read_segment(&mut self, id: u64) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(self.path(id))?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn create_segment(&mut self, id: u64) -> io::Result<()> {
        let f = File::create(self.path(id))?;
        self.active = Some((id, f));
        Ok(())
    }

    fn append(&mut self, id: u64, data: &[u8]) -> io::Result<()> {
        self.active_file(id)?.write_all(data)
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        self.active_file(id)?.sync_data()
    }

    fn truncate_segment(&mut self, id: u64, len: u64) -> io::Result<()> {
        if self.active.as_ref().map(|(a, _)| *a) == Some(id) {
            self.active = None; // append handles track their own cursor
        }
        let f = OpenOptions::new().write(true).open(self.path(id))?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn remove_segment(&mut self, id: u64) -> io::Result<()> {
        if self.active.as_ref().map(|(a, _)| *a) == Some(id) {
            self.active = None;
        }
        fs::remove_file(self.path(id))
    }

    fn drop_volatile(&mut self) {
        self.active = None;
    }
}

/// One in-memory segment: the durable image plus the unsynced tail.
#[derive(Debug, Default, Clone)]
struct MemSegment {
    /// Bytes that have survived a sync (what a crash preserves).
    synced: Vec<u8>,
    /// Bytes appended since the last sync (lost on crash).
    unsynced: Vec<u8>,
}

/// Deterministic in-memory disk, shared through an `Arc` so it survives a
/// simulated crash/restart cycle the way a real disk survives a reboot.
///
/// Clones share the same underlying disk; tests keep one clone to inspect
/// or corrupt the "device" while the store owns another.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    disk: Arc<Mutex<BTreeMap<u64, MemSegment>>>,
}

impl MemBackend {
    /// A fresh, empty disk.
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// Fault injection: tear `drop_bytes` off the end of segment `id`'s
    /// durable image — models a write the device acknowledged but only
    /// partially performed (torn write).
    pub fn tear_tail(&self, id: u64, drop_bytes: usize) {
        let mut disk = self.disk.lock().expect("mem disk");
        if let Some(seg) = disk.get_mut(&id) {
            let keep = seg.synced.len().saturating_sub(drop_bytes);
            seg.synced.truncate(keep);
            seg.unsynced.clear();
        }
    }

    /// Fault injection: flip the bits in `mask` at `offset` of segment
    /// `id`'s durable image (models media corruption).
    pub fn corrupt_byte(&self, id: u64, offset: usize, mask: u8) {
        let mut disk = self.disk.lock().expect("mem disk");
        if let Some(seg) = disk.get_mut(&id) {
            if let Some(b) = seg.synced.get_mut(offset) {
                *b ^= mask;
            }
        }
    }

    /// Id of the highest segment present on the disk, if any.
    pub fn last_segment(&self) -> Option<u64> {
        let disk = self.disk.lock().expect("mem disk");
        disk.keys().next_back().copied()
    }
}

impl Backend for MemBackend {
    fn list_segments(&mut self) -> io::Result<Vec<u64>> {
        Ok(self.disk.lock().expect("mem disk").keys().copied().collect())
    }

    fn read_segment(&mut self, id: u64) -> io::Result<Vec<u8>> {
        let disk = self.disk.lock().expect("mem disk");
        let seg = disk
            .get(&id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))?;
        let mut out = seg.synced.clone();
        out.extend_from_slice(&seg.unsynced);
        Ok(out)
    }

    fn create_segment(&mut self, id: u64) -> io::Result<()> {
        self.disk.lock().expect("mem disk").entry(id).or_default();
        Ok(())
    }

    fn append(&mut self, id: u64, data: &[u8]) -> io::Result<()> {
        let mut disk = self.disk.lock().expect("mem disk");
        disk.entry(id).or_default().unsynced.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        let mut disk = self.disk.lock().expect("mem disk");
        if let Some(seg) = disk.get_mut(&id) {
            let tail = std::mem::take(&mut seg.unsynced);
            seg.synced.extend_from_slice(&tail);
        }
        Ok(())
    }

    fn truncate_segment(&mut self, id: u64, len: u64) -> io::Result<()> {
        let mut disk = self.disk.lock().expect("mem disk");
        if let Some(seg) = disk.get_mut(&id) {
            seg.unsynced.clear();
            seg.synced.truncate(len as usize);
        }
        Ok(())
    }

    fn remove_segment(&mut self, id: u64) -> io::Result<()> {
        self.disk.lock().expect("mem disk").remove(&id);
        Ok(())
    }

    fn drop_volatile(&mut self) {
        let mut disk = self.disk.lock().expect("mem disk");
        for seg in disk.values_mut() {
            seg.unsynced.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_crash_drops_unsynced_only() {
        let mut b = MemBackend::new();
        b.create_segment(1).unwrap();
        b.append(1, b"durable").unwrap();
        b.sync(1).unwrap();
        b.append(1, b" volatile").unwrap();
        assert_eq!(b.read_segment(1).unwrap(), b"durable volatile");
        b.drop_volatile();
        assert_eq!(b.read_segment(1).unwrap(), b"durable");
    }

    #[test]
    fn mem_backend_fault_hooks() {
        let mut b = MemBackend::new();
        b.create_segment(1).unwrap();
        b.append(1, b"abcdef").unwrap();
        b.sync(1).unwrap();
        b.tear_tail(1, 2);
        assert_eq!(b.read_segment(1).unwrap(), b"abcd");
        b.corrupt_byte(1, 0, 0xFF);
        assert_ne!(b.read_segment(1).unwrap()[0], b'a');
    }

    #[test]
    fn dir_backend_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "srm-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut b = DirBackend::open(&dir).unwrap();
        b.create_segment(3).unwrap();
        b.append(3, b"hello").unwrap();
        b.sync(3).unwrap();
        b.drop_volatile(); // "restart"
        assert_eq!(b.list_segments().unwrap(), vec![3]);
        assert_eq!(b.read_segment(3).unwrap(), b"hello");
        b.truncate_segment(3, 2).unwrap();
        assert_eq!(b.read_segment(3).unwrap(), b"he");
        b.remove_segment(3).unwrap();
        assert!(b.list_segments().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
