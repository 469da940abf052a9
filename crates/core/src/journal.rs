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
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Magic header identifying a study journal (and its framing version).
pub const MAGIC: &[u8; 8] = b"VMCWJ01\n";

/// Upper bound on a single record's payload; a length field above this
/// is treated as corruption rather than attempted as an allocation.
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC state of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold in with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes`, eight bytes per step.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
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
    /// An earlier append failed and its partial frame could not be cut
    /// off again, so nothing more may be appended behind it.
    Poisoned {
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
            JournalError::Poisoned { path } => write!(
                f,
                "journal {}: an earlier append failed and could not be rolled back",
                path.display()
            ),
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
        out.extend_from_slice(&Frame::new(r.as_ref()).0);
    }
    out
}

/// One record framed for [`Journal::append_frame`]: header, checksum and
/// payload. Framing needs no journal, so writers that share one can
/// frame (and checksum) before they take its lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame(Vec<u8>);

impl Frame {
    /// Frames `payload`.
    ///
    /// # Panics
    ///
    /// If `payload` is longer than `u32::MAX` bytes.
    #[must_use]
    pub fn new(payload: &[u8]) -> Self {
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("record fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        Self(out)
    }
}

/// An append-only, checksummed record log on disk.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// The journal file, opened once for appending.
    file: File,
    /// Byte length of the trusted prefix: every frame before it was
    /// written and fsynced whole.
    len: u64,
    /// The records [`Journal::open`] read; appends are not kept.
    records: Vec<Vec<u8>>,
    /// Records in the trusted prefix.
    count: usize,
    /// Set when a failed append could not be cut off again.
    poisoned: bool,
    /// Test hook: the next append writes only this many bytes of its
    /// frame, then fails.
    #[cfg(test)]
    short_write: Option<usize>,
    /// Test hook: rolling back a failed append fails too.
    #[cfg(test)]
    rollback_fails: bool,
}

impl Journal {
    fn with_file(path: &Path, file: File, len: u64, records: Vec<Vec<u8>>) -> Self {
        Self {
            path: path.to_path_buf(),
            file,
            len,
            count: records.len(),
            records,
            poisoned: false,
            #[cfg(test)]
            short_write: None,
            #[cfg(test)]
            rollback_fails: false,
        }
    }

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
        let file = OpenOptions::new().append(true).open(path).map_err(io_err)?;
        Ok(Self::with_file(path, file, MAGIC.len() as u64, Vec::new()))
    }

    /// Opens an existing journal, returning the trusted record prefix
    /// and, if the tail was truncated or corrupt, what was discarded.
    ///
    /// A discarded tail is also cut off the file in place (`set_len` to
    /// its offset, then fsync), so subsequent appends extend the trusted
    /// prefix. The prefix bytes are never rewritten; a crash mid-cut
    /// leaves the same tail for the next open to find.
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
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;
        let (records, tail) = decode(&bytes).map_err(|e| match e {
            JournalError::BadMagic { .. } => JournalError::BadMagic {
                path: path.to_path_buf(),
            },
            other => other,
        })?;
        let len = match &tail {
            Some(tail) => {
                let len = tail.offset as u64;
                file.set_len(len).map_err(io_err)?;
                file.sync_all().map_err(io_err)?;
                len
            }
            None => bytes.len() as u64,
        };
        Ok((Self::with_file(path, file, len, records), tail))
    }

    /// The records [`open`](Self::open) read, oldest first — empty for a
    /// journal made by [`create`](Self::create). Appended records are
    /// written, not kept.
    #[must_use]
    pub fn records(&self) -> &[Vec<u8>] {
        &self.records
    }

    /// Records in the journal: those `open` read plus every append since.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.count
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
    /// As [`append_frame`](Self::append_frame).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        self.append_frame(&Frame::new(payload))
    }

    /// Appends one framed record and fsyncs it. On failure the file is
    /// cut back to the trusted prefix, so a later append never lands
    /// behind a torn frame; if that cut fails too, the journal is
    /// poisoned and every later append fails.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`JournalError::Poisoned`] after an append whose
    /// partial frame could not be removed.
    pub fn append_frame(&mut self, frame: &Frame) -> Result<(), JournalError> {
        if self.poisoned {
            return Err(JournalError::Poisoned {
                path: self.path.clone(),
            });
        }
        match self.write_durably(&frame.0) {
            Ok(()) => {
                self.len += frame.0.len() as u64;
                self.count += 1;
                Ok(())
            }
            Err(source) => {
                if self.roll_back().is_err() {
                    self.poisoned = true;
                }
                Err(JournalError::Io {
                    path: self.path.clone(),
                    source,
                })
            }
        }
    }

    fn write_durably(&mut self, bytes: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if let Some(keep) = self.short_write.take() {
            self.file.write_all(&bytes[..keep.min(bytes.len())])?;
            return Err(io::Error::other("injected short write"));
        }
        self.file.write_all(bytes)?;
        self.file.sync_all()
    }

    /// Cuts the file back to the trusted prefix.
    fn roll_back(&mut self) -> io::Result<()> {
        #[cfg(test)]
        if self.rollback_fails {
            return Err(io::Error::other("injected rollback failure"));
        }
        self.file.set_len(self.len)?;
        self.file.sync_all()
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

    /// The bit-serial CRC-32 the slice-by-8 tables replace, kept as
    /// their oracle.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Slice-by-8 gives the bit-serial CRC for every length and
        /// every alignment of the input.
        #[test]
        fn slice_by_8_crc_matches_the_bit_serial_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..4097),
            cut in (0usize..4097, 0usize..4097),
        ) {
            let start = cut.0 % (bytes.len() + 1);
            let end = start + cut.1 % (bytes.len() - start + 1);
            proptest::prop_assert_eq!(crc32(&bytes), crc32_reference(&bytes));
            let slice = &bytes[start..end];
            proptest::prop_assert_eq!(crc32(slice), crc32_reference(slice));
        }
    }

    #[test]
    fn crc32_matches_the_reference_at_every_length() {
        let bytes: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=bytes.len() {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_reference(&bytes[..len]),
                "length {len}"
            );
        }
        for offset in 1..8 {
            let slice = &bytes[offset..offset + 61];
            assert_eq!(crc32(slice), crc32_reference(slice), "offset {offset}");
        }
    }

    #[test]
    fn a_failed_append_rolls_back_and_loses_no_later_record() {
        let dir = tmp_dir("short-write");
        let path = dir.join("journal.vmcwj");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"first").unwrap();
        // A short write (as from ENOSPC) leaves part of a frame behind
        // and fails; the next append must not land behind it.
        j.short_write = Some(11);
        assert!(j.append(b"torn-record-never-acknowledged").is_err());
        j.append(b"second").unwrap();
        j.append(b"third").unwrap();
        assert_eq!(j.record_count(), 3);
        let (reopened, tail) = Journal::open(&path).unwrap();
        assert!(tail.is_none(), "{tail:?}");
        assert_eq!(reopened.records(), [&b"first"[..], b"second", b"third"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_that_cannot_be_rolled_back_poisons_the_journal() {
        let dir = tmp_dir("poison");
        let path = dir.join("journal.vmcwj");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"first").unwrap();
        j.short_write = Some(3);
        j.rollback_fails = true;
        assert!(matches!(j.append(b"torn"), Err(JournalError::Io { .. })));
        let err = j.append(b"never-written").unwrap_err();
        assert!(matches!(err, JournalError::Poisoned { .. }), "{err}");
        assert_eq!(j.record_count(), 1);
        // What did reach the disk is the trusted record plus a torn tail,
        // which the next open cuts off.
        let (reopened, tail) = Journal::open(&path).unwrap();
        assert_eq!(reopened.records(), [&b"first"[..]]);
        assert!(tail.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_are_counted_but_not_kept() {
        let dir = tmp_dir("count");
        let path = dir.join("journal.vmcwj");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"one").unwrap();
        j.append_frame(&Frame::new(b"two")).unwrap();
        assert!(j.records().is_empty());
        assert_eq!(j.record_count(), 2);
        let (mut reopened, _) = Journal::open(&path).unwrap();
        reopened.append(b"three").unwrap();
        assert_eq!(reopened.records().len(), 2);
        assert_eq!(reopened.record_count(), 3);
        assert_eq!(
            fs::read(&path).unwrap(),
            encode_records(&["one", "two", "three"])
        );
        let _ = fs::remove_dir_all(&dir);
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
