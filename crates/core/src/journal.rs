//! Write-ahead journal for crash-safe studies.
//!
//! A journal is a sequence of length-prefixed, CRC-checksummed records
//! behind a magic header. Appends go straight to the file and are
//! fsynced, so a SIGKILL can lose at most the record being written —
//! and a partial or bit-flipped tail is *detected by checksum* on open,
//! reported with its byte offset, and never deserialized into state.
//! Everything before the first bad frame is a trusted prefix the study
//! resumes from.
//!
//! Frame layout after the 8-byte magic `VMCWJ01\n`:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 (IEEE) of payload][payload]
//! ```

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic header identifying a study journal (and its framing version).
pub const MAGIC: &[u8; 8] = b"VMCWJ01\n";

/// Upper bound on a single record's payload; a length field above this
/// is treated as corruption rather than attempted as an allocation.
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// CRC-32 (IEEE 802.3, reflected) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Writes `bytes` to `path` atomically (see
/// [`vmcw_trace::io::write_atomic_with`]): readers, crashes and
/// concurrent writers see either the old content or one writer's whole
/// new content — never a torn file. Parent directories are created as
/// needed.
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    vmcw_trace::io::write_atomic_with(path, |file| file.write_all(bytes))
}

/// A corrupt or truncated journal tail: everything from `offset` on was
/// discarded, the records before it form the trusted prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailCorruption {
    /// Byte offset (from the start of the file) of the first bad frame.
    pub offset: usize,
    /// What was wrong with it.
    pub detail: String,
}

impl fmt::Display for TailCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal tail discarded at byte offset {}: {}",
            self.offset, self.detail
        )
    }
}

/// Errors opening or writing a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The failure.
        source: io::Error,
    },
    /// The file exists but does not start with [`MAGIC`].
    BadMagic {
        /// The journal path.
        path: PathBuf,
    },
    /// `create` was asked to overwrite an existing journal.
    AlreadyExists {
        /// The journal path.
        path: PathBuf,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            JournalError::BadMagic { path } => {
                write!(f, "{} is not a study journal (bad magic)", path.display())
            }
            JournalError::AlreadyExists { path } => {
                write!(
                    f,
                    "{} already holds a journal (resume it instead of starting over)",
                    path.display()
                )
            }
        }
    }
}

impl Error for JournalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Splits raw journal bytes into records.
///
/// Returns the trusted prefix of records plus, when the tail is
/// truncated or fails its checksum, a [`TailCorruption`] naming the byte
/// offset of the first bad frame. Bad frames are never returned as
/// records.
///
/// # Errors
///
/// [`JournalError::BadMagic`] when the bytes don't start with [`MAGIC`]
/// (reported against an empty path; [`Journal::open`] fills the real
/// one).
pub fn decode(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, Option<TailCorruption>), JournalError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(JournalError::BadMagic {
            path: PathBuf::new(),
        });
    }
    let mut records = Vec::new();
    let mut at = MAGIC.len();
    while at < bytes.len() {
        let bad = |detail: String| TailCorruption { offset: at, detail };
        let rest = &bytes[at..];
        if rest.len() < 8 {
            return Ok((
                records,
                Some(bad(format!("{} header bytes of 8", rest.len()))),
            ));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let want = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Ok((records, Some(bad(format!("implausible length {len}")))));
        }
        if rest.len() < 8 + len {
            return Ok((
                records,
                Some(bad(format!(
                    "payload truncated: {} bytes of {len}",
                    rest.len() - 8
                ))),
            ));
        }
        let payload = &rest[8..8 + len];
        let got = crc32(payload);
        if got != want {
            return Ok((
                records,
                Some(bad(format!(
                    "checksum mismatch: {got:08x} != recorded {want:08x}"
                ))),
            ));
        }
        records.push(payload.to_vec());
        at += 8 + len;
    }
    Ok((records, None))
}

/// Frames `records` into journal bytes (the inverse of [`decode`]).
#[must_use]
pub fn encode_records<R: AsRef<[u8]>>(records: &[R]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    for r in records {
        out.extend_from_slice(&frame(r.as_ref()));
    }
    out
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&u32::try_from(payload.len()).expect("record fits u32").to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// An append-only, checksummed record log on disk.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    records: Vec<Vec<u8>>,
}

impl Journal {
    /// Creates a fresh journal at `path` (parent directories included).
    ///
    /// # Errors
    ///
    /// [`JournalError::AlreadyExists`] if `path` exists, otherwise I/O
    /// errors.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let io_err = |source| JournalError::Io {
            path: path.to_path_buf(),
            source,
        };
        if path.exists() {
            return Err(JournalError::AlreadyExists {
                path: path.to_path_buf(),
            });
        }
        write_atomic(path, MAGIC).map_err(io_err)?;
        Ok(Self {
            path: path.to_path_buf(),
            records: Vec::new(),
        })
    }

    /// Opens an existing journal, returning the trusted record prefix
    /// and, if the tail was truncated or corrupt, what was discarded.
    ///
    /// A discarded tail is also *physically* truncated from the file so
    /// subsequent appends extend the trusted prefix.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadMagic`] for non-journal files, otherwise I/O
    /// errors.
    pub fn open(path: &Path) -> Result<(Self, Option<TailCorruption>), JournalError> {
        let io_err = |source| JournalError::Io {
            path: path.to_path_buf(),
            source,
        };
        let bytes = fs::read(path).map_err(io_err)?;
        let (records, tail) = decode(&bytes).map_err(|e| match e {
            JournalError::BadMagic { .. } => JournalError::BadMagic {
                path: path.to_path_buf(),
            },
            other => other,
        })?;
        let journal = Self {
            path: path.to_path_buf(),
            records,
        };
        if tail.is_some() {
            // Drop the bad tail on disk too (atomically), so the journal
            // ends at the last good frame.
            write_atomic(path, &encode_records(&journal.records)).map_err(io_err)?;
        }
        Ok((journal, tail))
    }

    /// The journal's records, oldest first.
    #[must_use]
    pub fn records(&self) -> &[Vec<u8>] {
        &self.records
    }

    /// The on-disk path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs it.
    ///
    /// # Errors
    ///
    /// I/O errors; the in-memory record list is only extended on success.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        let io_err = |source| JournalError::Io {
            path: self.path.clone(),
            source,
        };
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(io_err)?;
        f.write_all(&frame(payload)).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
        self.records.push(payload.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vmcw-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn concurrent_write_atomic_leaves_one_whole_payload() {
        // Every writer's payload is distinct and long enough that a torn
        // or interleaved write would show; afterwards the file must hold
        // exactly one of them and no staging file may be left behind.
        let dir = tmp_dir("concurrent");
        let path = dir.join("shared.txt");
        let payloads: Vec<Vec<u8>> = (0..8u8)
            .map(|i| vec![b'a' + i; 64 * 1024 + usize::from(i)])
            .collect();
        let start = std::sync::Barrier::new(payloads.len());
        std::thread::scope(|scope| {
            for payload in &payloads {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..10 {
                        write_atomic(path, payload).expect("concurrent write_atomic");
                    }
                });
            }
        });
        let content = fs::read(&path).unwrap();
        assert!(
            payloads.contains(&content),
            "torn file of {} bytes",
            content.len()
        );
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "shared.txt")
            .collect();
        assert!(leftovers.is_empty(), "staging files left: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("journal.vmcwj");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"config hello").unwrap();
        j.append(b"checkpoint world").unwrap();
        let (reopened, tail) = Journal::open(&path).unwrap();
        assert!(tail.is_none());
        assert_eq!(reopened.records().len(), 2);
        assert_eq!(reopened.records()[0], b"config hello");
        assert_eq!(reopened.records()[1], b"checkpoint world");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_existing_file() {
        let dir = tmp_dir("exists");
        let path = dir.join("journal.vmcwj");
        let _ = Journal::create(&path).unwrap();
        assert!(matches!(
            Journal::create(&path),
            Err(JournalError::AlreadyExists { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_discarded_with_offset() {
        let dir = tmp_dir("truncate");
        let path = dir.join("journal.vmcwj");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"first").unwrap();
        let good_len = fs::metadata(&path).unwrap().len();
        j.append(b"second-record-gets-cut").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (reopened, tail) = Journal::open(&path).unwrap();
        assert_eq!(reopened.records().len(), 1);
        let tail = tail.unwrap();
        assert_eq!(tail.offset as u64, good_len);
        // The bad tail was physically removed.
        assert_eq!(fs::metadata(&path).unwrap().len(), good_len);
        // And appends extend the trusted prefix cleanly.
        let mut reopened = reopened;
        reopened.append(b"third").unwrap();
        let (again, tail) = Journal::open(&path).unwrap();
        assert!(tail.is_none());
        assert_eq!(again.records().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bit_is_caught_by_checksum() {
        let dir = tmp_dir("bitflip");
        let path = dir.join("journal.vmcwj");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"aaaa").unwrap();
        j.append(b"bbbb").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40; // corrupt the last payload byte
        fs::write(&path, &bytes).unwrap();
        let (reopened, tail) = Journal::open(&path).unwrap();
        assert_eq!(reopened.records().len(), 1);
        assert!(tail.unwrap().detail.contains("checksum mismatch"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let dir = tmp_dir("magic");
        let path = dir.join("not-a-journal");
        fs::write(&path, b"definitely not").unwrap();
        assert!(matches!(
            Journal::open(&path),
            Err(JournalError::BadMagic { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_content() {
        let dir = tmp_dir("atomic");
        let path = dir.join("nested").join("out.csv");
        write_atomic(&path, b"v1").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v1");
        write_atomic(&path, b"v2-longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v2-longer");
        // No temp litter left behind.
        let entries: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
