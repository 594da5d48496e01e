//! On-disk format for sorted distinct value sets.
//!
//! One file per attribute. The *logical* stream:
//!
//! ```text
//! magic   4 bytes  b"INDV"
//! version u32 LE   2 (any other version is rejected as Corrupt)
//! count   u64 LE   number of values (patched at finish time)
//! entry*  u32 LE length + raw bytes, in strictly increasing byte order
//! ```
//!
//! Version 2 — the only version written or read — makes the file
//! **self-verifying**: the header gains a CRC32C
//! over its first 16 bytes, the entry stream is carried inside
//! checksummed 4 KiB frames, and a footer seals the file with the record
//! count, payload byte count, and a whole-file checksum (see
//! [`crate::frame`] for the exact physical layout). The frame layer is
//! transparent to this module's reader: a decoding [`std::io::Read`]
//! adapter beneath the block layer verifies and strips the framing, so a
//! flipped bit or torn write surfaces as [`ValueSetError::Corrupt`] with
//! frame-precise context *before* the damaged byte can reach a cursor —
//! never as a silently wrong answer.
//!
//! The count header lets readers answer "does a next value exist" without
//! lookahead — exactly what Algorithm 2's `wantNextValue` needs. Writers
//! enforce the strictly-increasing invariant so every downstream merge can
//! rely on it.
//!
//! All I/O goes through the block layer ([`crate::block`]): the writer
//! stages records into frames and flushes block-sized `write_all`s; the
//! reader fills a block at a time and parses records **in place**, so
//! [`ValueFileReader::current`] is always a zero-copy slice into the block
//! (a value larger than the block grows it once rather than being copied
//! out). Steady-state reads perform no heap allocation and one bulk read
//! per block, not per record.

use crate::block::{BlockReader, IoOptions, ReadStats};
use crate::budget::{FileBudget, OpenFileGuard};
use crate::crc32c::{crc32c, Crc32c};
use crate::cursor::ValueCursor;
use crate::error::{Result, ValueSetError};
use crate::frame::{
    v2_overhead, FOOTER_BODY_LEN, FOOTER_MAGIC, FOOTER_SENTINEL, FRAME_LEN_PREFIX, FRAME_PAYLOAD,
    V2_HEADER_LEN, V2_VERSION,
};
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub(crate) const MAGIC: &[u8; 4] = b"INDV";
/// Logical header bytes: magic + version + count (the physical v2 header
/// appends a CRC — [`V2_HEADER_LEN`]).
pub(crate) const HEADER_LEN: usize = 16;
/// Length-prefix bytes per record.
const LEN_PREFIX: usize = 4;

/// Streaming writer for a value file (format v2). Values must arrive
/// sorted and duplicate-free; [`ValueFileWriter::finish`] appends the
/// checksummed footer and patches the count header.
///
/// Records are staged into 4 KiB frames; each completed frame is sealed
/// with its CRC32C and appended to an in-memory block that is flushed
/// with one `write_all` per [`IoOptions::block_size`] bytes. Each record
/// still costs two `memcpy`s into the staging buffers (length prefix +
/// body), the checksum is one table-driven pass per byte, and the syscall
/// count stays proportional to file size / block size. All writes go
/// through the fault-injectable retrying wrapper ([`crate::fault`]), so
/// an `ENOSPC` or interrupted write is exercised — and, for transients,
/// healed — at exactly one place.
pub struct ValueFileWriter {
    file: std::fs::File,
    /// Physical staging: header, then sealed frames, flushed per block.
    block: Vec<u8>,
    /// Logical staging: the current (unsealed) frame's payload.
    frame: Vec<u8>,
    block_size: usize,
    path: PathBuf,
    count: u64,
    /// Logical payload bytes staged so far (length prefixes + bodies).
    payload: u64,
    last: Option<Vec<u8>>,
    write_calls: u64,
    /// Running CRC over the sealed frames' CRC words (the footer's
    /// whole-file checksum).
    crc_chain: Crc32c,
    fault: Option<Arc<crate::fault::FaultPlan>>,
    stats: Option<ReadStats>,
    cancel: Option<crate::cancel::CancelToken>,
}

/// The staging name of an atomically-published value file: `<path>.tmp`.
/// A file under its final name is always complete; anything ending in
/// `.tmp` is a torn leftover the resume sweep may delete.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// A [`StagedBatch`] commits once it holds this many staged file bytes, so
/// a column larger than this always commits alone and a long export keeps
/// per-file progress …
pub const BATCH_MAX_BYTES: u64 = 8 << 20;
/// … or this many files. Concurrent export workers split this cap between
/// them ([`StagedBatch::for_worker`]), so an export holds at most
/// `BATCH_MAX_FILES` descriptors on staged files at any worker count up to
/// this one (one per worker beyond it).
pub const BATCH_MAX_FILES: usize = 64;

/// A finished value file still under its `.tmp` name
/// ([`ValueFileWriter::finish_staged`]): every byte written and the header
/// patched, but not yet fsynced or renamed. It holds the open descriptor,
/// never the contents. Readers and the manifest cannot see it until its
/// [`StagedBatch`] is published; dropped instead, it leaves a `.tmp`
/// orphan — garbage by construction, deleted by the resume sweep.
#[must_use = "a staged file is invisible until its batch is published"]
#[derive(Debug)]
pub struct StagedFile {
    file: std::fs::File,
    tmp: PathBuf,
    path: PathBuf,
    file_bytes: u64,
}

impl StagedFile {
    /// The final name the file is published under.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Staged value files of one directory, each with a caller payload (its
/// metadata), published together by **one durability barrier**:
/// [`StagedBatch::publish`].
#[derive(Debug)]
pub struct StagedBatch<T> {
    staged: Vec<(StagedFile, T)>,
    bytes: u64,
    max_files: usize,
}

impl<T> Default for StagedBatch<T> {
    fn default() -> Self {
        Self::for_worker(1)
    }
}

impl<T> StagedBatch<T> {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch for one of `workers` concurrent stagers of the same
    /// export: its file cap is this worker's share of [`BATCH_MAX_FILES`],
    /// so the staged files of all workers together — and with them the
    /// commit cadence per exported file — stay what one worker's are.
    pub fn for_worker(workers: usize) -> Self {
        StagedBatch {
            staged: Vec::new(),
            bytes: 0,
            max_files: (BATCH_MAX_FILES / workers.max(1)).max(1),
        }
    }

    /// Adds one staged file and its payload.
    pub fn push(&mut self, file: StagedFile, payload: T) {
        self.bytes += file.file_bytes;
        self.staged.push((file, payload));
    }

    /// Staged files not yet published.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// True once the batch has reached [`BATCH_MAX_BYTES`] or its share of
    /// [`BATCH_MAX_FILES`] and must be published before staging more.
    pub fn is_full(&self) -> bool {
        self.bytes >= BATCH_MAX_BYTES || self.staged.len() >= self.max_files
    }

    /// The group commit, emptying the batch: fsync every staged file,
    /// rename each one whose fsync succeeded to its final name, then fsync
    /// `dir` **once**. The per-file invariants are those of one-at-a-time
    /// publication — a file under its final name was fsynced before its
    /// rename, and once this returns `Ok` every rename is durable — only
    /// the barrier is shared. Everything goes through [`crate::fault`].
    ///
    /// Returns the payloads of the published files, in staging order, and
    /// those of files whose own fsync or rename failed (each with its
    /// error; the file stays a `.tmp` orphan and costs its siblings
    /// nothing). `Err` means the directory fsync failed: no rename of this
    /// batch is known durable, so none may be recorded in a manifest.
    #[allow(clippy::type_complexity)]
    pub fn publish(
        &mut self,
        dir: &Path,
        fault: Option<&Arc<crate::fault::FaultPlan>>,
    ) -> Result<(Vec<T>, Vec<(T, ValueSetError)>)> {
        self.bytes = 0;
        let mut synced = Vec::with_capacity(self.staged.len());
        let mut failed = Vec::new();
        for (file, payload) in self.staged.drain(..) {
            match crate::fault::sync_all(&file.file, &file.tmp, fault) {
                Ok(()) => synced.push((file, payload)),
                Err(e) => failed.push((payload, e.into())),
            }
        }
        let mut published = Vec::with_capacity(synced.len());
        for (file, payload) in synced {
            match crate::fault::rename(&file.tmp, &file.path, fault) {
                Ok(()) => published.push(payload),
                Err(e) => failed.push((payload, e.into())),
            }
        }
        if !published.is_empty() {
            crate::fault::sync_dir(dir, fault)?;
        }
        Ok((published, failed))
    }

    /// [`StagedBatch::publish`] for callers with no use for a partial
    /// batch: the first per-file failure is the error.
    pub fn publish_all(
        &mut self,
        dir: &Path,
        fault: Option<&Arc<crate::fault::FaultPlan>>,
    ) -> Result<Vec<T>> {
        let (published, failed) = self.publish(dir, fault)?;
        match failed.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(published),
        }
    }
}

impl ValueFileWriter {
    /// Creates (truncates) `path` with the default block size.
    pub fn create(path: &Path) -> Result<Self> {
        Self::create_with_options(path, &IoOptions::default())
    }

    /// Creates (truncates) `path`, staging writes into blocks of
    /// `options.block_size`; the zero-count v2 header is staged first.
    pub fn create_with_options(path: &Path, options: &IoOptions) -> Result<Self> {
        crate::fault::check_open(path, options.fault.as_ref())?;
        let file = crate::fault::create_file(path)?;
        let block_size = options.effective_block_size();
        let mut block = Vec::with_capacity(block_size.max(V2_HEADER_LEN));
        block.extend_from_slice(MAGIC);
        block.extend_from_slice(&V2_VERSION.to_le_bytes());
        block.extend_from_slice(&0u64.to_le_bytes());
        let header_crc = crc32c(&block);
        block.extend_from_slice(&header_crc.to_le_bytes());
        Ok(ValueFileWriter {
            file,
            block,
            frame: Vec::with_capacity(FRAME_PAYLOAD),
            block_size,
            path: path.to_path_buf(),
            count: 0,
            payload: 0,
            last: None,
            write_calls: 0,
            crc_chain: Crc32c::new(),
            fault: options.fault.clone(),
            stats: options.stats.clone(),
            cancel: options.cancel.clone(),
        })
    }

    /// Appends one value; rejects values that are not strictly greater than
    /// the previous one.
    pub fn append(&mut self, value: &[u8]) -> Result<()> {
        if let Some(last) = &self.last {
            if value <= last.as_slice() {
                return Err(ValueSetError::Unsorted {
                    context: self.path.display().to_string(),
                });
            }
        }
        let len = u32::try_from(value.len()).map_err(|_| ValueSetError::Corrupt {
            context: self.path.display().to_string(),
            detail: "value longer than u32::MAX bytes".into(),
        })?;
        ind_trace::RECORD_LEN_BYTES.record(value.len() as u64);
        self.stage_logical(&len.to_le_bytes())?;
        self.stage_logical(value)?;
        self.count += 1;
        self.payload += (LEN_PREFIX + value.len()) as u64;
        match &mut self.last {
            Some(buf) => {
                buf.clear();
                buf.extend_from_slice(value);
            }
            none => *none = Some(value.to_vec()),
        }
        Ok(())
    }

    /// Stages logical bytes into the current frame, sealing (and possibly
    /// flushing) each frame as it fills. Records span frames freely — the
    /// frame grid is fixed at [`FRAME_PAYLOAD`] so the logical stream is
    /// independent of both the block size and the record boundaries.
    fn stage_logical(&mut self, mut bytes: &[u8]) -> Result<()> {
        while !bytes.is_empty() {
            let room = FRAME_PAYLOAD - self.frame.len();
            let take = room.min(bytes.len());
            self.frame.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.frame.len() == FRAME_PAYLOAD {
                self.seal_frame()?;
            }
        }
        Ok(())
    }

    /// Seals the staged frame: length prefix, payload, CRC32C — appended
    /// to the physical block, which flushes once it reaches the block
    /// size.
    fn seal_frame(&mut self) -> Result<()> {
        if self.frame.is_empty() {
            return Ok(());
        }
        debug_assert!(self.frame.len() <= FRAME_PAYLOAD);
        let crc = crc32c(&self.frame).to_le_bytes();
        self.block
            .extend_from_slice(&(self.frame.len() as u16).to_le_bytes());
        self.block.extend_from_slice(&self.frame);
        self.block.extend_from_slice(&crc);
        self.crc_chain.update(&crc);
        self.frame.clear();
        if self.block.len() >= self.block_size {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if let Some(cancel) = &self.cancel {
            cancel.check("export")?;
        }
        if !self.block.is_empty() {
            crate::fault::write_all(
                &mut self.file,
                &self.block,
                &self.path,
                self.fault.as_ref(),
                self.stats.as_ref(),
            )?;
            self.write_calls += 1;
            self.block.clear();
        }
        Ok(())
    }

    /// Number of values appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total file size in bytes once finished: header, framed records
    /// staged so far (flushed or not), and footer. Recorded by the export
    /// manager so readers can size their block buffers without an `fstat`.
    pub fn bytes_written(&self) -> u64 {
        HEADER_LEN as u64 + self.payload + v2_overhead(self.payload)
    }

    /// `write_all` calls issued so far (block flushes).
    pub fn write_calls(&self) -> u64 {
        self.write_calls
    }

    /// Seals the final frame, writes the footer, and patches the header's
    /// count and CRC: after this every byte of the file has been written.
    fn seal(&mut self) -> Result<()> {
        self.seal_frame()?;
        self.block.extend_from_slice(&FOOTER_SENTINEL.to_le_bytes());
        self.block.extend_from_slice(&self.count.to_le_bytes());
        self.block.extend_from_slice(&self.payload.to_le_bytes());
        self.block
            .extend_from_slice(&self.crc_chain.finish().to_le_bytes());
        self.block.extend_from_slice(FOOTER_MAGIC);
        self.flush_block()?;
        // Patch count + header CRC in one 12-byte write at offset 8.
        let mut head = [0u8; HEADER_LEN];
        head[..4].copy_from_slice(MAGIC);
        head[4..8].copy_from_slice(&V2_VERSION.to_le_bytes());
        head[8..].copy_from_slice(&self.count.to_le_bytes());
        let mut patch = [0u8; 12];
        patch[..8].copy_from_slice(&self.count.to_le_bytes());
        patch[8..].copy_from_slice(&crc32c(&head).to_le_bytes());
        self.file
            .seek(SeekFrom::Start(8))
            .map_err(|e| ValueSetError::Io(crate::fault::annotate(&self.path, e)))?;
        crate::fault::write_all(
            &mut self.file,
            &patch,
            &self.path,
            self.fault.as_ref(),
            self.stats.as_ref(),
        )?;
        Ok(())
    }

    /// Finishes a plain (scratch) file in place and returns the final
    /// count. No durability is promised: spill runs and probe files are
    /// re-creatable, and a file meant to survive a crash goes through
    /// [`ValueFileWriter::finish_staged`] instead.
    pub fn finish(mut self) -> Result<u64> {
        self.seal()?;
        Ok(self.count)
    }

    /// Finishes a file written under its staging name ([`tmp_path`] of
    /// `final_path`) for **atomic publication**: stops at "bytes written,
    /// header patched" and hands the open descriptor back as a
    /// [`StagedFile`]. The fsync, the rename to `final_path` and the
    /// directory fsync belong to the [`StagedBatch`] it is pushed into, so
    /// a whole batch shares one durability barrier. The byte stream is
    /// identical to a plain [`ValueFileWriter::finish`]: publication
    /// changes the name, never the bytes.
    pub fn finish_staged(mut self, final_path: &Path) -> Result<StagedFile> {
        self.seal()?;
        Ok(StagedFile {
            file_bytes: self.bytes_written(),
            file: self.file,
            tmp: self.path,
            path: final_path.to_path_buf(),
        })
    }
}

/// Cheap structural validation of a finished v2 value file — the resume
/// sweep's per-file check. Two small reads (header and footer), no frame
/// walk: verifies magic, version, header CRC, the footer seal, that the
/// header, footer, and caller all agree on the record count, and that the
/// physical size is exactly what the footer's payload predicts
/// ([`v2_overhead`]) *and* what the caller recorded. A torn or truncated
/// file cannot pass (the footer is the last thing written before the
/// atomic rename); a bit flip inside a frame can — catching those takes
/// the full frame-CRC walk (`--resume verify`, which drains a verifying
/// reader).
pub(crate) fn verify_file_quick(
    path: &Path,
    expected_file_bytes: u64,
    expected_records: u64,
    fault: Option<&Arc<crate::fault::FaultPlan>>,
) -> Result<()> {
    use std::io::Read;
    const FOOTER_LEN: usize = FRAME_LEN_PREFIX + FOOTER_BODY_LEN;
    let fail = |detail: String| corrupt(path.display().to_string(), detail);
    crate::fault::check_open(path, fault)?;
    let mut file = crate::fault::open_file(path)?;
    let len = file
        .metadata()
        .map_err(|e| ValueSetError::Io(crate::fault::annotate(path, e)))?
        .len();
    if len != expected_file_bytes {
        return Err(fail(format!(
            "file is {len} bytes, manifest recorded {expected_file_bytes}"
        )));
    }
    if len < (V2_HEADER_LEN + FOOTER_LEN) as u64 {
        return Err(fail(format!("{len} bytes is too short for a v2 file")));
    }
    let mut head = [0u8; V2_HEADER_LEN];
    file.read_exact(&mut head)
        .map_err(|e| ValueSetError::Io(crate::fault::annotate(path, e)))?;
    if &head[..4] != MAGIC {
        return Err(fail("bad magic".into()));
    }
    // lint: allow(no_unwrap) — fixed-width slice of a fixed-size array
    let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if version != V2_VERSION {
        return Err(fail(format!("format version {version} is not resumable")));
    }
    // lint: allow(no_unwrap) — fixed-width slice of a fixed-size array
    let header_count = u64::from_le_bytes(head[8..16].try_into().expect("8 bytes"));
    // lint: allow(no_unwrap) — fixed-width slice of a fixed-size array
    let header_crc = u32::from_le_bytes(head[16..20].try_into().expect("4 bytes"));
    if crc32c(&head[..HEADER_LEN]) != header_crc {
        return Err(fail("header checksum mismatch".into()));
    }
    if header_count != expected_records {
        return Err(fail(format!(
            "header count {header_count}, manifest recorded {expected_records}"
        )));
    }
    file.seek(SeekFrom::Start(len - FOOTER_LEN as u64))
        .map_err(|e| ValueSetError::Io(crate::fault::annotate(path, e)))?;
    let mut foot = [0u8; FOOTER_LEN];
    file.read_exact(&mut foot)
        .map_err(|e| ValueSetError::Io(crate::fault::annotate(path, e)))?;
    // lint: allow(no_unwrap) — fixed-width slice of a fixed-size array
    let sentinel = u16::from_le_bytes(foot[0..2].try_into().expect("2 bytes"));
    if sentinel != FOOTER_SENTINEL || &foot[22..26] != FOOTER_MAGIC {
        return Err(fail("missing footer seal".into()));
    }
    // lint: allow(no_unwrap) — fixed-width slice of a fixed-size array
    let footer_count = u64::from_le_bytes(foot[2..10].try_into().expect("8 bytes"));
    // lint: allow(no_unwrap) — fixed-width slice of a fixed-size array
    let payload = u64::from_le_bytes(foot[10..18].try_into().expect("8 bytes"));
    if footer_count != expected_records {
        return Err(fail(format!(
            "footer count {footer_count}, manifest recorded {expected_records}"
        )));
    }
    if HEADER_LEN as u64 + payload + v2_overhead(payload) != len {
        return Err(fail(format!(
            "footer payload {payload} bytes does not account for the {len}-byte file"
        )));
    }
    Ok(())
}

/// Block-buffered reader over a value file; implements [`ValueCursor`].
///
/// `current()` is **always** a zero-copy slice into the block: records that
/// fit the block are parsed in place, and the rare record larger than the
/// block grows the block once to hold it
/// ([`BlockReader::fill_exact_growing`]) instead of being copied into a
/// side buffer — so the hot `current()` call is a single slice, no
/// branching on where the value lives.
pub struct ValueFileReader {
    input: BlockReader,
    path: PathBuf,
    total: u64,
    produced: u64,
    /// Current value: `cur_offset..cur_offset + cur_len` inside the block.
    /// Valid until the next fill (which only happens inside
    /// `advance`); `(0, 0)` before the first advance.
    cur_offset: usize,
    cur_len: usize,
    /// Whether the end-of-stream check (footer verification, trailing-data
    /// detection) has run. Set on the first `advance` that reports
    /// exhaustion, so the check costs one extra fill exactly once.
    end_checked: bool,
    cancel: Option<crate::cancel::CancelToken>,
    _guard: Option<OpenFileGuard>,
}

impl ValueFileReader {
    /// Opens `path` with default I/O options and no budget accounting.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with(path, &IoOptions::default(), None, None)
    }

    /// Opens `path` with the given block size.
    pub fn open_with_options(path: &Path, options: &IoOptions) -> Result<Self> {
        Self::open_with(path, options, None, None)
    }

    /// Opens `path`, charging one slot against `budget` for the lifetime of
    /// the reader.
    pub fn open_with_budget(path: &Path, budget: &FileBudget) -> Result<Self> {
        Self::open_with(path, &IoOptions::default(), Some(budget), None)
    }

    /// Full constructor: block size from `options`, optional open-file
    /// budget, optional shared read-call counter. The block buffer is
    /// sized with one `fstat`; use [`ValueFileReader::open_sized`] when the
    /// file size is already known.
    pub fn open_with(
        path: &Path,
        options: &IoOptions,
        budget: Option<&FileBudget>,
        stats: Option<ReadStats>,
    ) -> Result<Self> {
        let guard = budget.map(FileBudget::acquire).transpose()?;
        let stats = stats.or_else(|| options.stats.clone());
        let input = BlockReader::open_path(path, options, stats.clone(), None)?;
        Self::from_block_reader(
            input,
            path,
            guard,
            options.verify_checksums,
            stats.as_ref(),
            options.cancel.clone(),
        )
    }

    /// [`ValueFileReader::open_with`] with the file's byte size supplied by
    /// the caller (e.g. recorded at export time), so opening costs no
    /// `fstat`. An inaccurate size only affects I/O granularity, never
    /// correctness.
    pub fn open_sized(
        path: &Path,
        options: &IoOptions,
        budget: Option<&FileBudget>,
        stats: Option<ReadStats>,
        file_bytes: u64,
    ) -> Result<Self> {
        let guard = budget.map(FileBudget::acquire).transpose()?;
        let stats = stats.or_else(|| options.stats.clone());
        let input = BlockReader::open_path(path, options, stats.clone(), Some(file_bytes))?;
        Self::from_block_reader(
            input,
            path,
            guard,
            options.verify_checksums,
            stats.as_ref(),
            options.cancel.clone(),
        )
    }

    fn from_block_reader(
        mut input: BlockReader,
        path: &Path,
        guard: Option<OpenFileGuard>,
        verify: bool,
        stats: Option<&ReadStats>,
        cancel: Option<crate::cancel::CancelToken>,
    ) -> Result<Self> {
        let context = || path.display().to_string();
        let avail = input
            .fill_to(HEADER_LEN)
            .map_err(|e| corrupt(context(), e.to_string()))?;
        if avail < HEADER_LEN {
            return Err(corrupt(
                context(),
                format!("short header: {avail} of {HEADER_LEN} bytes"),
            ));
        }
        let header = input.buffered();
        if &header[..4] != MAGIC {
            return Err(corrupt(context(), "bad magic".into()));
        }
        // lint: allow(no_unwrap) — fixed-width slice of a length-checked header; try_into cannot fail
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != V2_VERSION {
            return Err(corrupt(context(), format!("unsupported version {version}")));
        }
        let avail = input
            .fill_to(V2_HEADER_LEN)
            .map_err(|e| corrupt(context(), e.to_string()))?;
        if avail < V2_HEADER_LEN {
            return Err(corrupt(
                context(),
                format!("short header: {avail} of {V2_HEADER_LEN} bytes"),
            ));
        }
        let header = input.buffered();
        if verify {
            let stored = u32::from_le_bytes([
                header[HEADER_LEN],
                header[HEADER_LEN + 1],
                header[HEADER_LEN + 2],
                header[HEADER_LEN + 3],
            ]);
            if crc32c(&header[..HEADER_LEN]) != stored {
                if let Some(stats) = stats {
                    stats.bump_checksum_failure();
                }
                return Err(corrupt(context(), "header checksum mismatch".into()));
            }
        }
        // lint: allow(no_unwrap) — fixed-width slice of a length-checked header; try_into cannot fail
        let total = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        input.consume(V2_HEADER_LEN);
        Ok(ValueFileReader {
            input,
            path: path.to_path_buf(),
            total,
            produced: 0,
            cur_offset: 0,
            cur_len: 0,
            end_checked: false,
            cancel,
            _guard: guard,
        })
    }

    /// File this reader is positioned over.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `read(2)` calls issued against the file so far (block fills).
    pub fn read_calls(&self) -> u64 {
        self.input.read_calls()
    }

    /// One-shot end-of-stream check, run when the cursor first reports
    /// exhaustion: one more fill drives the frame decoder through the
    /// footer (verifying the whole-file checksum and the footer's counts)
    /// and flags any logical bytes past the final record.
    /// Clean files cost one extra read call, exactly once.
    fn verify_stream_end(&mut self) -> Result<()> {
        if self.end_checked {
            return Ok(());
        }
        self.end_checked = true;
        let ctx = || self.path.display().to_string();
        let avail = self
            .input
            .fill_to(1)
            .map_err(|e| corrupt(ctx(), format!("corrupt file tail: {e}")))?;
        if avail > 0 {
            return Err(corrupt(
                ctx(),
                "trailing data after the final record".into(),
            ));
        }
        Ok(())
    }

    /// Reads the next record's length prefix; `Ok(None)` means the stream
    /// is exhausted (per the header count).
    fn next_len(&mut self) -> Result<Option<usize>> {
        if let Some(cancel) = &self.cancel {
            cancel.check("read")?;
        }
        if self.produced >= self.total {
            self.verify_stream_end()?;
            return Ok(None);
        }
        let ctx = || self.path.display().to_string();
        let avail = self
            .input
            .fill_to(LEN_PREFIX)
            .map_err(|e| corrupt(ctx(), format!("truncated record length: {e}")))?;
        if avail < LEN_PREFIX {
            return Err(corrupt(
                ctx(),
                format!("truncated record length: {avail} of {LEN_PREFIX} bytes"),
            ));
        }
        let bytes = self.input.buffered()[..LEN_PREFIX]
            .try_into()
            // lint: allow(no_unwrap) — LEN_PREFIX-wide slice, availability checked just above
            .expect("4 bytes");
        Ok(Some(u32::from_le_bytes(bytes) as usize))
    }

    /// Buffers the whole `len`-byte record (prefix included); only callable
    /// when it fits in one block. Errors on truncation.
    fn buffer_record(&mut self, len: usize) -> Result<()> {
        debug_assert!(LEN_PREFIX + len <= self.input.capacity());
        let ctx = || self.path.display().to_string();
        let avail = self
            .input
            .fill_to(LEN_PREFIX + len)
            .map_err(|e| corrupt(ctx(), format!("truncated record body: {e}")))?;
        if avail < LEN_PREFIX + len {
            return Err(corrupt(
                ctx(),
                format!(
                    "truncated record body: {avail} of {} bytes",
                    LEN_PREFIX + len
                ),
            ));
        }
        Ok(())
    }

    /// Buffers the whole `len`-byte record even when it exceeds the block
    /// (the block grows once to hold it). Errors on truncation.
    fn buffer_record_growing(&mut self, len: usize) -> Result<()> {
        let ctx = || self.path.display().to_string();
        let avail = self
            .input
            .fill_exact_growing(LEN_PREFIX + len)
            .map_err(|e| corrupt(ctx(), format!("truncated record body: {e}")))?;
        if avail < LEN_PREFIX + len {
            return Err(corrupt(
                ctx(),
                format!(
                    "truncated record body: {avail} of {} bytes",
                    LEN_PREFIX + len
                ),
            ));
        }
        Ok(())
    }

    /// Consumes the fully-buffered record as the current value (zero-copy).
    #[inline]
    fn take_buffered(&mut self, len: usize) {
        self.input.consume(LEN_PREFIX);
        self.cur_offset = self.input.pos();
        self.cur_len = len;
        self.input.consume(len);
        self.produced += 1;
    }

    /// [`ValueCursor::advance`] continuation once the fast path missed:
    /// refill the block, or grow it for a record larger than one block.
    #[cold]
    fn advance_slow(&mut self) -> Result<bool> {
        let Some(len) = self.next_len()? else {
            return Ok(false); // unreachable: advance checked produced < total
        };
        if LEN_PREFIX + len <= self.input.capacity() {
            self.buffer_record(len)?;
        } else {
            self.buffer_record_growing(len)?;
        }
        self.take_buffered(len);
        Ok(true)
    }
}

fn corrupt(context: String, detail: String) -> ValueSetError {
    ValueSetError::Corrupt { context, detail }
}

impl ValueCursor for ValueFileReader {
    #[inline]
    fn advance(&mut self) -> Result<bool> {
        if self.produced >= self.total {
            self.verify_stream_end()?;
            return Ok(false);
        }
        // Fast path — the whole record (prefix + body) is already in the
        // block: parse in place, bump the consume cursor, no calls into
        // the fill machinery at all. This is the steady state; everything
        // else (block exhausted, record straddles the block, truncation)
        // takes the slow path.
        let buffered = self.input.buffered();
        if let Some(body) = buffered.get(LEN_PREFIX..) {
            let len =
                // lint: allow(no_unwrap) — the get(LEN_PREFIX..) guard above proves the prefix is buffered
                u32::from_le_bytes(buffered[..LEN_PREFIX].try_into().expect("4 bytes")) as usize;
            if body.len() >= len {
                self.take_buffered(len);
                return Ok(true);
            }
        }
        self.advance_slow()
    }

    #[inline]
    fn current(&self) -> &[u8] {
        debug_assert!(self.produced > 0, "current() before first advance()");
        self.input.slice(self.cur_offset, self.cur_len)
    }

    #[inline]
    fn remaining(&self) -> u64 {
        self.total - self.produced
    }

    #[inline]
    fn len(&self) -> u64 {
        self.total
    }
}

/// Writes `values` (already sorted, distinct) to `path` in one call.
pub fn write_value_file(path: &Path, values: &[Vec<u8>]) -> Result<u64> {
    let mut w = ValueFileWriter::create(path)?;
    for v in values {
        w.append(v)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect_cursor;
    use crate::fault::FaultPlan;
    use ind_testkit::TempDir;

    fn bytes(items: &[&str]) -> Vec<Vec<u8>> {
        items.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    #[test]
    fn write_read_round_trip() {
        let dir = TempDir::new("vf-roundtrip");
        let path = dir.join("a.indv");
        let values = bytes(&["alpha", "beta", "gamma"]);
        assert_eq!(write_value_file(&path, &values).unwrap(), 3);

        let reader = ValueFileReader::open(&path).unwrap();
        assert_eq!(reader.len(), 3);
        assert_eq!(collect_cursor(reader).unwrap(), values);
    }

    #[test]
    fn empty_file_round_trip() {
        let dir = TempDir::new("vf-empty");
        let path = dir.join("empty.indv");
        write_value_file(&path, &[]).unwrap();
        let mut reader = ValueFileReader::open(&path).unwrap();
        assert!(reader.is_empty());
        assert!(!reader.advance().unwrap());
    }

    #[test]
    fn remaining_counts_down() {
        let dir = TempDir::new("vf-remaining");
        let path = dir.join("a.indv");
        write_value_file(&path, &bytes(&["a", "b"])).unwrap();
        let mut r = ValueFileReader::open(&path).unwrap();
        assert_eq!(r.remaining(), 2);
        assert!(r.has_next());
        r.advance().unwrap();
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.current(), b"a");
        r.advance().unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(!r.has_next());
        assert!(!r.advance().unwrap());
    }

    #[test]
    fn unsorted_and_duplicate_appends_rejected() {
        let dir = TempDir::new("vf-unsorted");
        let mut w = ValueFileWriter::create(&dir.join("u.indv")).unwrap();
        w.append(b"m").unwrap();
        assert!(matches!(
            w.append(b"a"),
            Err(ValueSetError::Unsorted { .. })
        ));
        assert!(matches!(
            w.append(b"m"),
            Err(ValueSetError::Unsorted { .. })
        ));
        w.append(b"z").unwrap();
    }

    #[test]
    fn bad_magic_detected() {
        let dir = TempDir::new("vf-magic");
        let path = dir.join("bad.indv");
        std::fs::write(
            &path,
            b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        )
        .unwrap();
        assert!(matches!(
            ValueFileReader::open(&path),
            Err(ValueSetError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_body_detected() {
        let dir = TempDir::new("vf-trunc");
        let path = dir.join("t.indv");
        write_value_file(&path, &bytes(&["hello", "world"])).unwrap();
        // Chop off the final bytes of the file. With a block larger than
        // the file the damage is discovered during the open's first fill;
        // with a small block it surfaces mid-drain — either way it must
        // be Corrupt, never a short-but-successful stream.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        assert!(matches!(
            ValueFileReader::open(&path).and_then(collect_cursor),
            Err(ValueSetError::Corrupt { .. })
        ));
        let mut r =
            ValueFileReader::open_with_options(&path, &IoOptions::with_block_size(32)).unwrap();
        assert!(r.advance().unwrap());
        assert!(matches!(r.advance(), Err(ValueSetError::Corrupt { .. })));
    }

    #[test]
    fn truncation_detected_at_every_boundary_position() {
        // Chop the file at every possible byte position past the header;
        // draining the reader must error (never silently succeed), whether
        // the cut lands inside a length prefix, inside a body, or exactly
        // on a record boundary — and at any block size, including blocks
        // smaller than a record and blocks larger than the file.
        let dir = TempDir::new("vf-trunc-all");
        let full = dir.join("full.indv");
        let values = bytes(&["aa", "bbbb", "cccccccc", "dddddddddddddddd"]);
        write_value_file(&full, &values).unwrap();
        let data = std::fs::read(&full).unwrap();
        for block_size in [1usize, 5, 16, 64, 8192] {
            let options = IoOptions::with_block_size(block_size);
            for cut in HEADER_LEN..data.len() {
                let path = dir.join("cut.indv");
                std::fs::write(&path, &data[..cut]).unwrap();
                let drained =
                    ValueFileReader::open_with_options(&path, &options).and_then(collect_cursor);
                assert!(
                    matches!(drained, Err(ValueSetError::Corrupt { .. })),
                    "cut at {cut} (block {block_size}) must be Corrupt, got {drained:?}"
                );
            }
        }
    }

    #[test]
    fn header_count_is_patched() {
        let dir = TempDir::new("vf-count");
        let path = dir.join("c.indv");
        let mut w = ValueFileWriter::create(&path).unwrap();
        for v in ["a", "b", "c", "d"] {
            w.append(v.as_bytes()).unwrap();
        }
        assert_eq!(w.count(), 4);
        assert_eq!(w.finish().unwrap(), 4);
        assert_eq!(ValueFileReader::open(&path).unwrap().len(), 4);
    }

    #[test]
    fn budgeted_open_charges_and_releases() {
        let dir = TempDir::new("vf-budget");
        let path = dir.join("b.indv");
        write_value_file(&path, &bytes(&["x"])).unwrap();
        let budget = FileBudget::new(1);
        let r1 = ValueFileReader::open_with_budget(&path, &budget).unwrap();
        assert!(matches!(
            ValueFileReader::open_with_budget(&path, &budget),
            Err(ValueSetError::FileBudgetExceeded { .. })
        ));
        drop(r1);
        assert!(ValueFileReader::open_with_budget(&path, &budget).is_ok());
    }

    #[test]
    fn round_trip_at_block_sizes_straddling_every_record() {
        // Record bodies larger than, equal to, and one byte either side of
        // the block size; writer and reader block sizes vary independently.
        let dir = TempDir::new("vf-straddle");
        let mut values: Vec<Vec<u8>> = (0..40u8)
            .map(|i| {
                let len = usize::from(i) * 3 % 61;
                let mut v = vec![b'a' + (i % 26); len];
                v.push(i); // force distinctness
                v
            })
            .collect();
        values.push(vec![b'z'; 5000]); // larger than every tested block
        values.sort_unstable();
        values.dedup();
        for write_block in [1usize, 17, 4096] {
            let path = dir.join(&format!("w{write_block}.indv"));
            let mut w = ValueFileWriter::create_with_options(
                &path,
                &IoOptions::with_block_size(write_block),
            )
            .unwrap();
            for v in &values {
                w.append(v).unwrap();
            }
            assert_eq!(w.finish().unwrap() as usize, values.len());
            for read_block in [1usize, 16, 31, 61, 62, 63, 4096, 16384] {
                let r = ValueFileReader::open_with_options(
                    &path,
                    &IoOptions::with_block_size(read_block),
                )
                .unwrap();
                assert_eq!(
                    collect_cursor(r).unwrap(),
                    values,
                    "write_block={write_block} read_block={read_block}"
                );
            }
        }
    }

    #[test]
    fn writer_coalesces_records_into_frame_sized_writes() {
        // 200 records through a default-sized block all stay staged until
        // `finish` (zero flushes on the way), and `bytes_written` predicts
        // the exact physical size: logical bytes plus the v2 framing.
        let dir = TempDir::new("vf-writer-coalesce");
        let values: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("{i:06}").into_bytes())
            .collect();

        let big_path = dir.join("big.indv");
        let mut big = ValueFileWriter::create(&big_path).unwrap();
        for v in &values {
            big.append(v).unwrap();
        }
        assert_eq!(big.write_calls(), 0, "default block holds everything");
        let payload = 200 * 10u64;
        assert_eq!(
            big.bytes_written(),
            HEADER_LEN as u64 + payload + v2_overhead(payload)
        );
        let predicted = big.bytes_written();
        big.finish().unwrap();
        assert_eq!(
            std::fs::metadata(&big_path).unwrap().len(),
            predicted,
            "bytes_written predicts the finished file size exactly"
        );

        // With a tiny block, physical writes happen once per sealed 4 KiB
        // frame — never once per record (30 000 payload bytes = 7 full
        // frames during the appends, nowhere near 3000 writes).
        let many: Vec<Vec<u8>> = (0..3000u32)
            .map(|i| format!("{i:06}").into_bytes())
            .collect();
        let mut small = ValueFileWriter::create_with_options(
            &dir.join("small.indv"),
            &IoOptions::with_block_size(32),
        )
        .unwrap();
        for v in &many {
            small.append(v).unwrap();
        }
        let flushes = small.write_calls();
        small.finish().unwrap();
        assert!(
            (2..=20).contains(&flushes),
            "one write per sealed frame, not per record: {flushes}"
        );
    }

    #[test]
    fn writer_output_is_identical_at_any_block_size() {
        // The block size is an I/O knob, never a format knob.
        let dir = TempDir::new("vf-writer-id");
        let values = bytes(&["a", "bb", "ccc", "dddd"]);
        let reference = dir.join("ref.indv");
        write_value_file(&reference, &values).unwrap();
        let expected = std::fs::read(&reference).unwrap();
        for block_size in [1usize, 7, 16, 1024] {
            let path = dir.join(&format!("b{block_size}.indv"));
            let mut w = ValueFileWriter::create_with_options(
                &path,
                &IoOptions::with_block_size(block_size),
            )
            .unwrap();
            for v in &values {
                w.append(v).unwrap();
            }
            w.finish().unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                expected,
                "block_size={block_size}"
            );
        }
    }

    #[test]
    fn reader_counts_block_fills_not_records() {
        let dir = TempDir::new("vf-readcalls");
        let path = dir.join("r.indv");
        let values: Vec<Vec<u8>> = (0..1000u32)
            .map(|i| format!("value-{i:08}").into_bytes())
            .collect();
        write_value_file(&path, &values).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len();

        // Big block: the whole file arrives in ~one fill.
        let r = ValueFileReader::open_with_options(&path, &IoOptions::default()).unwrap();
        let big_block = {
            let mut r = r;
            let mut n = 0u64;
            while r.advance().unwrap() {
                n += 1;
            }
            assert_eq!(n, 1000);
            r.read_calls()
        };
        assert!(
            big_block <= 3,
            "a {file_len}-byte file must fill in a couple of reads, got {big_block}"
        );

        // Small block: fills scale with file size / block size, but stay
        // far below one per record.
        let mut r =
            ValueFileReader::open_with_options(&path, &IoOptions::with_block_size(256)).unwrap();
        while r.advance().unwrap() {}
        let small_block = r.read_calls();
        assert!(
            small_block >= 10 * big_block,
            "256-byte blocks over {file_len} bytes: {small_block} vs {big_block}"
        );
        assert!(
            small_block < 1000,
            "even tiny blocks must not read once per record: {small_block}"
        );
    }

    #[test]
    fn current_is_zero_copy_for_buffered_records() {
        // Consecutive records served from one block must be *adjacent in
        // memory* (previous value + its 4-byte length prefix) — the proof
        // that `current()` points into the block instead of copying into a
        // per-record buffer.
        let dir = TempDir::new("vf-zerocopy");
        let path = dir.join("z.indv");
        let values = bytes(&["aaa", "bbbb", "ccccc"]);
        write_value_file(&path, &values).unwrap();
        let mut r = ValueFileReader::open(&path).unwrap();
        assert!(r.advance().unwrap());
        let first = r.current().as_ptr() as usize;
        let first_len = r.current().len();
        assert!(r.advance().unwrap());
        let second = r.current().as_ptr() as usize;
        assert_eq!(
            second,
            first + first_len + 4,
            "second record must sit right after the first inside the block"
        );

        // A value larger than the block is still served in place: the
        // block grows to hold it instead of copying it out.
        let mixed = dir.join("mix.indv");
        let big = vec![b'x'; 100];
        write_value_file(&mixed, &[b"aa".to_vec(), big.clone()]).unwrap();
        let mut r =
            ValueFileReader::open_with_options(&mixed, &IoOptions::with_block_size(32)).unwrap();
        assert!(r.advance().unwrap());
        assert_eq!(r.current(), b"aa");
        assert!(r.advance().unwrap());
        assert_eq!(r.current(), big.as_slice());
    }

    #[test]
    fn a_v1_header_is_rejected_as_corrupt_naming_the_file() {
        // A hand-written un-checksummed v1 file: magic, version 1, count,
        // then raw length-prefixed records. Its bytes never reach a cursor.
        let dir = TempDir::new("vf-v1-rejected");
        let path = dir.join("legacy.indv");
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&1u64.to_le_bytes());
        raw.extend_from_slice(&5u32.to_le_bytes());
        raw.extend_from_slice(b"alpha");
        std::fs::write(&path, raw).unwrap();
        for block_size in [1usize, 64, 8192] {
            let options = IoOptions::with_block_size(block_size);
            match ValueFileReader::open_with_options(&path, &options) {
                Err(ValueSetError::Corrupt { context, detail }) => {
                    assert!(context.contains("legacy.indv"), "{context}");
                    assert_eq!(detail, "unsupported version 1");
                }
                Err(other) => panic!("block {block_size}: expected Corrupt, got {other:?}"),
                Ok(_) => panic!("block {block_size}: a v1 file must not open"),
            }
        }
    }

    #[test]
    fn every_bit_flip_in_the_file_is_detected() {
        // Flip one bit in *every* byte of a finished multi-frame v2 file;
        // opening + fully draining must always surface Corrupt — header
        // flips via the header CRC (or magic/version checks), payload and
        // frame-geometry flips via the frame CRCs, footer flips via the
        // end-of-stream check. Never a silent wrong answer, never a hang.
        let dir = TempDir::new("vf-flip-sweep");
        let full = dir.join("full.indv");
        let values: Vec<Vec<u8>> = (0..300u32)
            .map(|i| format!("value-{i:08}").into_bytes())
            .collect();
        write_value_file(&full, &values).unwrap();
        let data = std::fs::read(&full).unwrap();
        assert!(data.len() > V2_HEADER_LEN + FRAME_PAYLOAD, "multi-frame");
        let stats = ReadStats::new();
        let options = IoOptions::with_block_size(256);
        let path = dir.join("flipped.indv");
        for byte in 0..data.len() {
            let mut bad = data.clone();
            bad[byte] ^= 1 << (byte % 8);
            std::fs::write(&path, &bad).unwrap();
            let drained = ValueFileReader::open_with(&path, &options, None, Some(stats.clone()))
                .and_then(collect_cursor);
            match drained {
                Err(ValueSetError::Corrupt { context, .. }) => {
                    assert!(context.contains("flipped.indv"), "context names the file");
                }
                other => panic!("flip at byte {byte}: expected Corrupt, got {other:?}"),
            }
        }
        assert!(
            stats.checksum_failures() as usize >= data.len() / 2,
            "most flips are caught by a checksum comparison: {}",
            stats.checksum_failures()
        );
    }

    #[test]
    fn verify_off_skips_checksums_but_not_structure() {
        let dir = TempDir::new("vf-verify-off");
        let path = dir.join("v.indv");
        let values = bytes(&["aaaa", "bbbb", "cccc"]);
        write_value_file(&path, &values).unwrap();
        let data = std::fs::read(&path).unwrap();

        // Flip a bit inside the first record's body (header 20 + frame
        // prefix 2 + record length prefix 4 = offset 26): verify-off
        // serves the flipped byte, verify-on refuses it.
        let mut flipped = data.clone();
        flipped[26] ^= 0x04;
        std::fs::write(&path, &flipped).unwrap();
        let relaxed =
            ValueFileReader::open_with_options(&path, &IoOptions::default().verify(false))
                .and_then(collect_cursor)
                .unwrap();
        assert_ne!(relaxed, values, "verify-off trades detection for speed");
        assert!(matches!(
            ValueFileReader::open(&path).and_then(collect_cursor),
            Err(ValueSetError::Corrupt { .. })
        ));

        // Structural damage (mid-frame truncation) errs either way.
        std::fs::write(&path, &data[..data.len() - 10]).unwrap();
        assert!(matches!(
            ValueFileReader::open_with_options(&path, &IoOptions::default().verify(false))
                .and_then(collect_cursor),
            Err(ValueSetError::Corrupt { .. })
        ));
    }

    #[test]
    fn io_errors_name_the_file() {
        let dir = TempDir::new("vf-io-path");
        let missing = dir.join("no-such-file.indv");
        let err = match ValueFileReader::open(&missing) {
            Err(e) => e,
            Ok(_) => panic!("opening a missing file must fail"),
        };
        assert!(matches!(err, ValueSetError::Io(_)));
        assert!(
            err.to_string().contains("no-such-file.indv"),
            "reader open error must name the file: {err}"
        );

        let unwritable = dir.join("no-such-dir").join("out.indv");
        let err = match ValueFileWriter::create(&unwritable) {
            Err(e) => e,
            Ok(_) => panic!("creating in a missing directory must fail"),
        };
        assert!(matches!(err, ValueSetError::Io(_)));
        assert!(
            err.to_string().contains("out.indv"),
            "writer create error must name the file: {err}"
        );

        let plan = Arc::new(FaultPlan::parse("write:flaky:enospc").unwrap());
        let flaky = dir.join("flaky.indv");
        let mut w = ValueFileWriter::create_with_options(
            &flaky,
            &IoOptions::with_block_size(32).with_fault(plan),
        )
        .unwrap();
        let mut err = None;
        for i in 0..2000u32 {
            // Enough appends to force a flush into the injected ENOSPC.
            if let Err(e) = w.append(format!("{i:08}").as_bytes()) {
                err = Some(e);
                break;
            }
        }
        let err = err.expect("the injected ENOSPC must surface");
        assert!(matches!(err, ValueSetError::Io(_)));
        assert!(
            err.to_string().contains("flaky.indv"),
            "write error must name the file: {err}"
        );
    }

    #[test]
    fn injected_read_faults_are_healed_or_reported() {
        let dir = TempDir::new("vf-read-faults");
        let path = dir.join("r.indv");
        let values: Vec<Vec<u8>> = (0..500u32)
            .map(|i| format!("{i:06}").into_bytes())
            .collect();
        write_value_file(&path, &values).unwrap();

        // EINTR + short reads: healed at the wrapper, counted, invisible.
        let stats = ReadStats::new();
        let plan = Arc::new(FaultPlan::parse("read:r.indv:eintr@7, read:r.indv:short@5").unwrap());
        let options = IoOptions::with_block_size(128).with_fault(plan.clone());
        let r = ValueFileReader::open_with(&path, &options, None, Some(stats.clone())).unwrap();
        assert_eq!(collect_cursor(r).unwrap(), values);
        assert!(
            stats.io_retries() >= 7,
            "transient faults are counted: {}",
            stats.io_retries()
        );
        assert!(plan.fired_count() >= 7);

        // Truncation mid-file: Corrupt, with the path in the context.
        let plan = Arc::new(FaultPlan::parse("read:r.indv:truncate=1000").unwrap());
        let r = ValueFileReader::open_with_options(
            &path,
            &IoOptions::with_block_size(128).with_fault(plan),
        )
        .and_then(collect_cursor);
        match r {
            Err(ValueSetError::Corrupt { context, .. }) => assert!(context.contains("r.indv")),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Bit flip mid-file: the frame checksum catches it.
        let stats = ReadStats::new();
        let plan = Arc::new(FaultPlan::parse("read:r.indv:flip=2000").unwrap());
        let r = ValueFileReader::open_with(
            &path,
            &IoOptions::with_block_size(128).with_fault(plan),
            None,
            Some(stats.clone()),
        )
        .and_then(collect_cursor);
        assert!(matches!(r, Err(ValueSetError::Corrupt { .. })), "{r:?}");
        assert_eq!(stats.checksum_failures(), 1);

        // Failed open: Io, with the path.
        let plan = Arc::new(FaultPlan::parse("open:r.indv:fail").unwrap());
        let r = ValueFileReader::open_with_options(&path, &IoOptions::default().with_fault(plan));
        match r {
            Err(ValueSetError::Io(e)) => assert!(e.to_string().contains("r.indv")),
            Err(other) => panic!("expected Io, got {other:?}"),
            Ok(_) => panic!("expected Io, got a reader"),
        }
    }

    /// Stages `values` for `path` the way the extraction layer does.
    fn stage(path: &Path, values: &[Vec<u8>], options: &IoOptions) -> StagedFile {
        let mut w = ValueFileWriter::create_with_options(&tmp_path(path), options).unwrap();
        for v in values {
            w.append(v).unwrap();
        }
        w.finish_staged(path).unwrap()
    }

    #[test]
    fn a_batch_fills_by_file_count_or_by_bytes() {
        let dir = TempDir::new("vf-batch-full");
        let io = IoOptions::default();
        let mut batch = StagedBatch::new();
        for i in 0..BATCH_MAX_FILES {
            assert!(!batch.is_full(), "{i} tiny files fit");
            let path = dir.join(&format!("small-{i:03}.indv"));
            batch.push(stage(&path, &bytes(&["x"]), &io), i);
        }
        assert!(batch.is_full(), "the file cap");
        let published = batch.publish_all(dir.path(), None).unwrap();
        assert_eq!(published, (0..BATCH_MAX_FILES).collect::<Vec<_>>());
        assert!(
            batch.is_empty() && !batch.is_full(),
            "publishing empties it"
        );

        // Concurrent workers split the file cap, so together they stage
        // what one worker would (one file each once there are more
        // workers than files in a batch).
        for workers in 1..=2 * BATCH_MAX_FILES {
            let cap = StagedBatch::<()>::for_worker(workers).max_files;
            assert!(cap >= 1 && workers * cap <= BATCH_MAX_FILES.max(workers));
        }

        // One column past the byte cap is a batch of one.
        let big = vec![vec![b'v'; BATCH_MAX_BYTES as usize]];
        batch.push(stage(&dir.join("big.indv"), &big, &io), 0);
        assert!(batch.is_full(), "the byte cap");
        batch.publish_all(dir.path(), None).unwrap();
        assert_eq!(
            collect_cursor(ValueFileReader::open(&dir.join("big.indv")).unwrap()).unwrap(),
            big
        );
    }

    #[test]
    fn staged_files_are_invisible_until_published_and_bytes_never_change() {
        let dir = TempDir::new("vf-staged");
        let values = bytes(&["alpha", "beta", "gamma"]);
        let plain = dir.join("plain.indv");
        write_value_file(&plain, &values).unwrap();

        let path = dir.join("a.indv");
        let mut batch = StagedBatch::new();
        batch.push(stage(&path, &values, &IoOptions::default()), ());
        assert!(!path.exists() && tmp_path(&path).exists(), "staged only");
        batch.publish_all(dir.path(), None).unwrap();
        assert!(path.exists() && !tmp_path(&path).exists(), "renamed");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&plain).unwrap()
        );
    }

    #[test]
    fn a_failed_file_fsync_costs_only_that_file_of_the_batch() {
        let dir = TempDir::new("vf-batch-fsync");
        let plan = Arc::new(FaultPlan::parse("fsync:b.indv:fail").unwrap());
        let io = IoOptions::default().with_fault(plan.clone());
        let mut batch = StagedBatch::new();
        for name in ["a", "b", "c"] {
            let path = dir.join(&format!("{name}.indv"));
            batch.push(stage(&path, &bytes(&[name]), &io), name);
        }
        let (published, failed) = batch.publish(dir.path(), Some(&plan)).unwrap();
        assert_eq!(published, ["a", "c"]);
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "b");
        assert!(failed[0].1.to_string().contains("injected fsync"));
        assert!(dir.join("a.indv").exists() && dir.join("c.indv").exists());
        assert!(
            !dir.join("b.indv").exists() && dir.join("b.indv.tmp").exists(),
            "never renamed: a file under its final name was fsynced first"
        );
    }

    #[test]
    fn a_crash_between_two_renames_leaves_a_prefix_nobody_may_vouch_for() {
        // Two writes per staged file, then the renames: ordinal 8 is the
        // second rename of the commit.
        let dir = TempDir::new("vf-batch-crash");
        let plan = Arc::new(FaultPlan::parse("write:*:crash=8").unwrap());
        let io = IoOptions::default().with_fault(plan.clone());
        let mut batch = StagedBatch::new();
        for name in ["a", "b", "c"] {
            let path = dir.join(&format!("{name}.indv"));
            batch.push(stage(&path, &bytes(&[name]), &io), name);
        }
        // The directory fsync dies with the process, so the commit as a
        // whole fails: `a` sits under its final name but was never
        // reported published, and a dead process renames nothing more.
        let err = batch.publish(dir.path(), Some(&plan)).unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(batch.is_empty(), "no staged handle outlives the commit");
        assert!(dir.join("a.indv").exists());
        assert!(dir.join("b.indv.tmp").exists() && dir.join("c.indv.tmp").exists());
        assert!(!dir.join("b.indv").exists() && !dir.join("c.indv").exists());
    }

    #[test]
    fn binary_values_round_trip() {
        let dir = TempDir::new("vf-binary");
        let path = dir.join("bin.indv");
        let values = vec![vec![0u8], vec![0u8, 1u8], vec![255u8; 1000]];
        write_value_file(&path, &values).unwrap();
        assert_eq!(
            collect_cursor(ValueFileReader::open(&path).unwrap()).unwrap(),
            values
        );
    }
}
