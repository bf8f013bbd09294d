//! Storage media behind the journal: real files, in-memory buffers, and a
//! fault-injecting wrapper.
//!
//! [`crate::JournalStore`] is generic over [`Media`] so one journal engine
//! serves three purposes: [`FileMedia`] persists to disk, [`MemMedia`]
//! backs fast tests and pure parsing matrices, and [`FaultyMedia`]
//! simulates crashes mid-write (short writes at an exact byte budget) and
//! media corruption (bit flips) to drive the recovery matrix.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dagbft_core::StoreError;

/// Maps an I/O failure to the typed store error.
pub(crate) fn io_err(err: std::io::Error) -> StoreError {
    StoreError::Io(err.to_string())
}

/// The byte-level storage a [`crate::JournalStore`] writes to: an
/// append-only journal stream plus a tiny fixed-size tip sidecar
/// (rewritten slot-wise, see the crate docs for the format).
pub trait Media: fmt::Debug + Send {
    /// Reads the whole journal back.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure.
    fn journal_bytes(&self) -> Result<Vec<u8>, StoreError>;

    /// Appends bytes to the journal.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Truncates the journal to `len` bytes — used once at open to cut a
    /// torn tail so subsequent appends continue from the valid prefix.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on failure.
    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError>;

    /// Makes journal appends durable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on sync failure.
    fn sync_journal(&mut self) -> Result<(), StoreError>;

    /// Reads the tip sidecar (may be shorter than the full sidecar size if
    /// never written).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure.
    fn tip_bytes(&self) -> Result<Vec<u8>, StoreError>;

    /// Durably writes `bytes` at `offset` within the tip sidecar (one
    /// slot; the writer alternates slots so a torn slot write never
    /// destroys the previous marker).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write or sync failure.
    fn write_tip(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError>;
}

/// On-disk media: a directory holding `journal.log` and `tip.bin`.
#[derive(Debug)]
pub struct FileMedia {
    journal_path: PathBuf,
    tip_path: PathBuf,
    journal: File,
    tip: File,
}

impl FileMedia {
    /// Opens (creating if needed) the media files under `dir`. When either
    /// file is created, the directory is synced too: a new directory
    /// entry is not durable until then, and a lost `tip.bin` would let a
    /// restart resume below an own tip it already broadcast (§7).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(io_err)?;
        let journal_path = dir.join("journal.log");
        let tip_path = dir.join("tip.bin");
        let creates = !journal_path.try_exists().map_err(io_err)?
            || !tip_path.try_exists().map_err(io_err)?;
        let journal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&journal_path)
            .map_err(io_err)?;
        let tip = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&tip_path)
            .map_err(io_err)?;
        if creates {
            File::open(dir)
                .and_then(|dir| dir.sync_all())
                .map_err(io_err)?;
        }
        Ok(FileMedia {
            journal_path,
            tip_path,
            journal,
            tip,
        })
    }
}

impl Media for FileMedia {
    fn journal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        fs::read(&self.journal_path).map_err(io_err)
    }

    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.journal.seek(SeekFrom::End(0)).map_err(io_err)?;
        self.journal.write_all(bytes).map_err(io_err)
    }

    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError> {
        self.journal.set_len(len).map_err(io_err)
    }

    fn sync_journal(&mut self) -> Result<(), StoreError> {
        self.journal.sync_data().map_err(io_err)
    }

    fn tip_bytes(&self) -> Result<Vec<u8>, StoreError> {
        fs::read(&self.tip_path).map_err(io_err)
    }

    fn write_tip(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        self.tip.seek(SeekFrom::Start(offset)).map_err(io_err)?;
        self.tip.write_all(bytes).map_err(io_err)?;
        self.tip.sync_data().map_err(io_err)
    }
}

/// In-memory media: infallible, used by tests and the parse matrices.
#[derive(Debug, Default, Clone)]
pub struct MemMedia {
    journal: Vec<u8>,
    tip: Vec<u8>,
}

impl MemMedia {
    /// Fresh, empty media.
    pub fn new() -> Self {
        MemMedia::default()
    }

    /// Media whose journal already holds `bytes` (e.g. a corrupted or
    /// truncated image produced by a test).
    pub fn from_journal(bytes: Vec<u8>) -> Self {
        MemMedia {
            journal: bytes,
            tip: Vec::new(),
        }
    }

    /// The raw journal bytes.
    pub fn journal(&self) -> &[u8] {
        &self.journal
    }

    /// The raw tip sidecar bytes.
    pub fn tip(&self) -> &[u8] {
        &self.tip
    }
}

impl Media for MemMedia {
    fn journal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.journal.clone())
    }

    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.journal.extend_from_slice(bytes);
        Ok(())
    }

    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError> {
        self.journal.truncate(len as usize);
        Ok(())
    }

    fn sync_journal(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn tip_bytes(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.tip.clone())
    }

    fn write_tip(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let end = offset as usize + bytes.len();
        if self.tip.len() < end {
            self.tip.resize(end, 0);
        }
        self.tip[offset as usize..end].copy_from_slice(bytes);
        Ok(())
    }
}

/// Fault-injecting media: wraps [`MemMedia`] and simulates a crash at an
/// exact journal byte budget — the write that crosses the budget is torn
/// (its prefix lands, the rest is lost), and every later journal write is
/// lost entirely, exactly like a process dying mid-`write(2)`. Bit flips
/// model at-rest corruption.
///
/// A test "restarts the node" by taking [`FaultyMedia::into_surviving`]
/// and re-opening a [`crate::JournalStore`] over it.
#[derive(Debug)]
pub struct FaultyMedia {
    inner: MemMedia,
    /// Journal bytes still allowed to land; `None` = no crash scheduled.
    budget: Option<usize>,
}

impl FaultyMedia {
    /// Wraps `inner` with no fault scheduled.
    pub fn new(inner: MemMedia) -> Self {
        FaultyMedia {
            inner,
            budget: None,
        }
    }

    /// Schedules a crash after exactly `bytes` more journal bytes land.
    pub fn crash_after(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Whether the scheduled crash point has been reached.
    pub fn crashed(&self) -> bool {
        self.budget == Some(0)
    }

    /// Flips one bit of the stored journal (at-rest corruption).
    ///
    /// # Panics
    ///
    /// Panics if `byte` is out of range (test harness misuse).
    pub fn flip_journal_bit(&mut self, byte: usize, bit: u8) {
        self.inner.journal[byte] ^= 1 << (bit & 7);
    }

    /// The bytes that survived the crash — what a restart reads back.
    pub fn into_surviving(self) -> MemMedia {
        self.inner
    }
}

impl Media for FaultyMedia {
    fn journal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        self.inner.journal_bytes()
    }

    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        match &mut self.budget {
            None => self.inner.append_journal(bytes),
            Some(budget) => {
                let landed = bytes.len().min(*budget);
                *budget -= landed;
                // The caller believes the write succeeded — the crash is
                // only observed at restart, like a real torn write.
                self.inner.append_journal(&bytes[..landed])
            }
        }
    }

    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError> {
        self.inner.truncate_journal(len)
    }

    fn sync_journal(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn tip_bytes(&self) -> Result<Vec<u8>, StoreError> {
        self.inner.tip_bytes()
    }

    fn write_tip(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        if self.crashed() {
            // Post-crash tip writes are lost with the process.
            return Ok(());
        }
        self.inner.write_tip(offset, bytes)
    }
}
