//! On-disk format for sorted distinct value sets.
//!
//! One *stream* per attribute. A stream is a value file on its own (spill
//! runs, probes, [`crate::extract_to_file`]) or one extent of a segment
//! ([`crate::segment::SegmentWriter`]): an export writes the streams of a batch back
//! to back into one file, each byte for byte what it would be alone. The
//! *logical* stream:
//!
//! ```text
//! magic   4 bytes  b"INDV"
//! version u32 LE   2 (any other version is rejected as Corrupt)
//! count   u64 LE   number of values (patched at finish time)
//! entry*  u32 LE length + raw bytes, in strictly increasing byte order
//! ```
//!
//! Version 2 — the only version written or read — makes the stream
//! **self-verifying**: the header gains a CRC32C
//! over its first 16 bytes, the entry stream is carried inside
//! checksummed 4 KiB frames, and a footer seals the stream with the record
//! count, payload byte count, and a whole-stream checksum (see
//! [`crate::frame`] for the exact physical layout). The frame layer is
//! transparent to this module's reader: the block layer decodes each read
//! in place, verifying and stripping the framing, so a
//! flipped bit or torn write surfaces as [`ValueSetError::Corrupt`] with
//! frame-precise context *before* the damaged byte can reach a cursor —
//! never as a silently wrong answer. The footer also ends the stream: a
//! reader of one extent never reads into the next.
//!
//! The count header lets readers answer "does a next value exist" without
//! lookahead — exactly what Algorithm 2's `wantNextValue` needs. Writers
//! enforce the strictly-increasing invariant so every downstream merge can
//! rely on it.
//!
//! All I/O goes through the block layer ([`crate::block`]): the writer
//! stages records into frames and flushes block-sized positional writes;
//! the reader fills a block at a time and parses records **in place**, so
//! [`ValueFileReader::current`] is always a zero-copy slice into the block
//! (a value larger than the block grows it once rather than being copied
//! out). Steady-state reads perform no heap allocation and one bulk read
//! per block, not per record.

use crate::block::{BlockReader, IoOptions, ReadStats};
use crate::crc32c::{crc32c, Crc32c};
use crate::cursor::ValueCursor;
use crate::error::{Result, ValueSetError};
use crate::frame::{
    v2_overhead, FOOTER_BODY_LEN, FOOTER_MAGIC, FOOTER_SENTINEL, FRAME_LEN_PREFIX, FRAME_PAYLOAD,
    MAX_FRAME_LEN, V2_HEADER_LEN, V2_VERSION,
};
use crate::segment::Extent;
use std::fs::File;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

pub(crate) const MAGIC: &[u8; 4] = b"INDV";
/// Logical header bytes: magic + version + count (the physical v2 header
/// appends a CRC — [`V2_HEADER_LEN`]).
pub(crate) const HEADER_LEN: usize = 16;
/// Length-prefix bytes per record.
const LEN_PREFIX: usize = 4;

/// Streaming writer for a value stream (format v2). Values must arrive
/// sorted and duplicate-free; [`ValueFileWriter::finish`] appends the
/// checksummed footer and patches the count header.
///
/// Records are staged into 4 KiB frames opened in place in an in-memory
/// block: a frame's length is patched and its CRC32C appended when it
/// fills, and the block is flushed with one positional write per
/// [`IoOptions::block_size`] bytes, at the stream's own offset — so a
/// segment's streams are written with the very code, and into the very
/// bytes, of standalone files. Each value byte is copied once, into the
/// block; the checksum is one table-driven pass per byte, and the syscall
/// count stays proportional to stream size / block size. All writes go
/// through the fault-injectable retrying wrapper ([`crate::fault`]), so
/// an `ENOSPC` or interrupted write is exercised — and, for transients,
/// healed — at exactly one place.
///
/// A writer opened by `SegmentWriter::stream` is *durable*: when
/// a block flush completes whole MiB of the segment file, it asks the
/// kernel to start writing those MiB back ([`crate::fault::start_writeback`]),
/// so the commit's fsync waits only for the tail. Spill runs and scratch
/// files never ask.
pub struct ValueFileWriter {
    file: Arc<File>,
    /// Where the stream starts in `file`, and its label.
    extent: Extent,
    /// Physical bytes of the stream flushed so far.
    flushed: u64,
    /// Physical staging, flushed per block: header, sealed frames, then
    /// the open frame — its length placeholder and the payload so far.
    block: Vec<u8>,
    /// Payload bytes of the open frame (0: no frame is open).
    frame_len: usize,
    block_size: usize,
    /// Whether block flushes start the writeback of the whole MiB they
    /// complete: set for the streams of a segment, which are fsynced at
    /// their commit.
    durable: bool,
    count: u64,
    /// Logical payload bytes staged so far (length prefixes + bodies).
    payload: u64,
    last: Option<Vec<u8>>,
    write_calls: u64,
    /// Running CRC over the sealed frames' CRC words (the footer's
    /// whole-stream checksum).
    crc_chain: Crc32c,
    fault: Option<Arc<crate::fault::FaultPlan>>,
    stats: Option<ReadStats>,
    cancel: Option<crate::cancel::CancelToken>,
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
        Ok(Self::at(Arc::new(file), Extent::from(path), options))
    }

    /// A scratch writer of the stream starting at `extent` inside `file` —
    /// how a sort opens the next run of its spill file.
    pub(crate) fn at(file: Arc<File>, extent: Extent, options: &IoOptions) -> Self {
        let block_size = options.effective_block_size();
        // Room for a block's worth of sealed frames plus one more frame:
        // a flush waits for the seal that takes the block past its size.
        let mut block = Vec::with_capacity(block_size.max(V2_HEADER_LEN) + MAX_FRAME_LEN);
        block.extend_from_slice(MAGIC);
        block.extend_from_slice(&V2_VERSION.to_le_bytes());
        block.extend_from_slice(&0u64.to_le_bytes());
        let header_crc = crc32c(&block);
        block.extend_from_slice(&header_crc.to_le_bytes());
        ValueFileWriter {
            file,
            extent,
            flushed: 0,
            block,
            frame_len: 0,
            block_size,
            durable: false,
            count: 0,
            payload: 0,
            last: None,
            write_calls: 0,
            crc_chain: Crc32c::new(),
            fault: options.fault.clone(),
            stats: options.stats.clone(),
            cancel: options.cancel.clone(),
        }
    }

    /// A durable writer of the stream starting at `extent` inside `file` —
    /// how `SegmentWriter::stream` opens the next stream of a
    /// segment.
    pub(crate) fn durable_at(file: Arc<File>, extent: Extent, options: &IoOptions) -> Self {
        ValueFileWriter {
            durable: true,
            ..Self::at(file, extent, options)
        }
    }

    fn context(&self) -> String {
        self.extent.display().to_string()
    }

    /// Appends one value; rejects values that are not strictly greater than
    /// the previous one.
    pub fn append(&mut self, value: &[u8]) -> Result<()> {
        if let Some(last) = &self.last {
            if value <= last.as_slice() {
                return Err(ValueSetError::Unsorted {
                    context: self.context(),
                });
            }
        }
        let len = u32::try_from(value.len()).map_err(|_| ValueSetError::Corrupt {
            context: self.context(),
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

    /// Stages logical bytes into the open frame, straight into the block,
    /// sealing (and possibly flushing) each frame as it fills. Records
    /// span frames freely — the frame grid is fixed at [`FRAME_PAYLOAD`] so
    /// the logical stream is independent of both the block size and the
    /// record boundaries.
    fn stage_logical(&mut self, mut bytes: &[u8]) -> Result<()> {
        while !bytes.is_empty() {
            if self.frame_len == 0 {
                // Open a frame: its length is patched in when it is sealed.
                self.block.extend_from_slice(&[0; FRAME_LEN_PREFIX]);
            }
            let take = (FRAME_PAYLOAD - self.frame_len).min(bytes.len());
            self.block.extend_from_slice(&bytes[..take]);
            self.frame_len += take;
            bytes = &bytes[take..];
            if self.frame_len == FRAME_PAYLOAD {
                self.seal_frame()?;
            }
        }
        Ok(())
    }

    /// Seals the open frame in place — patches its length prefix and
    /// appends the payload's CRC32C — and flushes the block once it
    /// reaches the block size.
    fn seal_frame(&mut self) -> Result<()> {
        if self.frame_len == 0 {
            return Ok(());
        }
        debug_assert!(self.frame_len <= FRAME_PAYLOAD);
        let payload = self.block.len() - self.frame_len;
        let crc = crc32c(&self.block[payload..]).to_le_bytes();
        self.block[payload - FRAME_LEN_PREFIX..payload]
            .copy_from_slice(&(self.frame_len as u16).to_le_bytes());
        self.block.extend_from_slice(&crc);
        self.crc_chain.update(&crc);
        self.frame_len = 0;
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
            let start = self.extent.offset() + self.flushed;
            crate::fault::write_all_at(
                &self.file,
                &self.block,
                start,
                self.extent.label(),
                self.fault.as_ref(),
                self.stats.as_ref(),
            )?;
            let end = start + self.block.len() as u64;
            self.write_calls += 1;
            self.flushed += self.block.len() as u64;
            self.block.clear();
            if let Some(range) = self.writeback_range(start, end) {
                crate::fault::start_writeback(&self.file, range);
            }
        }
        Ok(())
    }

    /// The whole MiB of the file a flush of its bytes `[start, end)`
    /// completes, for this writer to hand to the device — `None` for a
    /// scratch writer, whose bytes are never fsynced.
    pub(crate) fn writeback_range(&self, start: u64, end: u64) -> Option<Range<u64>> {
        if self.durable {
            completed_mib(start, end)
        } else {
            None
        }
    }

    /// The last value appended, if any: the stream's largest.
    pub(crate) fn last(&self) -> Option<&[u8]> {
        self.last.as_deref()
    }

    /// Number of values appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total stream size in bytes once finished: header, framed records
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
        // Patch count + header CRC in one 12-byte write at the stream's
        // byte 8.
        let mut head = [0u8; HEADER_LEN];
        head[..4].copy_from_slice(MAGIC);
        head[4..8].copy_from_slice(&V2_VERSION.to_le_bytes());
        head[8..].copy_from_slice(&self.count.to_le_bytes());
        let mut patch = [0u8; 12];
        patch[..8].copy_from_slice(&self.count.to_le_bytes());
        patch[8..].copy_from_slice(&crc32c(&head).to_le_bytes());
        crate::fault::write_all_at(
            &self.file,
            &patch,
            self.extent.offset() + 8,
            self.extent.label(),
            self.fault.as_ref(),
            self.stats.as_ref(),
        )?;
        Ok(())
    }

    /// Finishes a plain (scratch) file in place and returns the final
    /// count. No durability is promised: spill runs and probe files are
    /// re-creatable, and a stream meant to survive a crash is written into
    /// a segment (`SegmentWriter`) and published with it.
    pub fn finish(mut self) -> Result<u64> {
        self.seal()?;
        Ok(self.count)
    }

    /// Seals the stream and hands back its extent and byte size, for the
    /// segment it was written into. The bytes are those a plain
    /// [`ValueFileWriter::finish`] leaves: where a stream lies never
    /// changes what it is.
    pub(crate) fn finish_extent(mut self) -> Result<(Extent, u64)> {
        self.seal()?;
        let bytes = self.bytes_written();
        Ok((self.extent, bytes))
    }
}

/// Writeback granule of a durable writer: a block flush hands the device
/// every whole MiB of the file it completes, never a partial one.
const WRITEBACK_GRANULE: u64 = 1 << 20;

/// The whole MiB of a file that a write of its bytes `[start, end)`
/// completes: those whose last byte lies in the write. `None` when the
/// write ends inside the MiB it starts in. Stateless — only the absolute
/// offsets count — so it holds across the streams of a segment and at any
/// block size.
pub(crate) fn completed_mib(start: u64, end: u64) -> Option<Range<u64>> {
    let (first, past) = (start / WRITEBACK_GRANULE, end / WRITEBACK_GRANULE);
    (first < past).then(|| first * WRITEBACK_GRANULE..past * WRITEBACK_GRANULE)
}

/// Cheap structural validation of a finished v2 stream at `extent` of
/// `file` — the resume sweep's per-attribute check. Two small reads
/// (header and footer), no frame walk: verifies magic, version, header
/// CRC, the footer seal, that the header, footer, and caller all agree on
/// the record count, and that the stream's size is exactly what the
/// footer's payload predicts ([`v2_overhead`]) *and* what the caller
/// recorded. A torn or truncated stream cannot pass (its segment is
/// fsynced before its rename); a bit flip inside a frame can — catching
/// those takes the full frame-CRC walk (`--resume verify`, which drains a
/// verifying reader).
pub(crate) fn verify_extent_quick(
    file: &File,
    extent: &Extent,
    expected_bytes: u64,
    expected_records: u64,
    fault: Option<&Arc<crate::fault::FaultPlan>>,
) -> Result<()> {
    const FOOTER_LEN: usize = FRAME_LEN_PREFIX + FOOTER_BODY_LEN;
    let fail = |detail: String| corrupt(extent.display().to_string(), detail);
    let io = |e| ValueSetError::Io(crate::fault::annotate(extent.label(), e));
    crate::fault::check_open(extent.label(), fault)?;
    let len = file.metadata().map_err(io)?.len();
    if extent.offset().saturating_add(expected_bytes) > len {
        return Err(fail(format!(
            "file is {len} bytes, trailer recorded {expected_bytes} bytes at offset {}",
            extent.offset()
        )));
    }
    if expected_bytes < (V2_HEADER_LEN + FOOTER_LEN) as u64 {
        return Err(fail(format!(
            "{expected_bytes} bytes is too short for a v2 stream"
        )));
    }
    let mut head = [0u8; V2_HEADER_LEN];
    file.read_exact_at(&mut head, extent.offset()).map_err(io)?;
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
            "header count {header_count}, trailer recorded {expected_records}"
        )));
    }
    let mut foot = [0u8; FOOTER_LEN];
    let footer_at = extent.offset() + expected_bytes - FOOTER_LEN as u64;
    file.read_exact_at(&mut foot, footer_at).map_err(io)?;
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
            "footer count {footer_count}, trailer recorded {expected_records}"
        )));
    }
    if HEADER_LEN as u64 + payload + v2_overhead(payload) != expected_bytes {
        return Err(fail(format!(
            "footer payload {payload} bytes does not account for the {expected_bytes}-byte stream"
        )));
    }
    Ok(())
}

/// Opens `file` for reading — unless an `open:` rule of `options`' fault
/// plan names `label` — and counts one file open into
/// [`IoOptions::stats`].
pub(crate) fn open_counted(label: &Path, file: &Path, options: &IoOptions) -> Result<File> {
    crate::fault::check_open(label, options.fault.as_ref())?;
    let file = crate::fault::open_file(file)?;
    if let Some(stats) = &options.stats {
        stats.bump_file_open();
    }
    Ok(file)
}

/// Block-buffered reader over one value stream; implements [`ValueCursor`].
///
/// `current()` is **always** a zero-copy slice into the block: records that
/// fit the block are parsed in place, and the rare record larger than the
/// block grows the block once to hold it ([`BlockReader::fill_to`])
/// instead of being copied into a side buffer — so the hot `current()`
/// call is a single slice, no branching on where the value lives.
pub struct ValueFileReader {
    input: BlockReader,
    total: u64,
    produced: u64,
    /// Current value: `cur_offset..cur_offset + cur_len` inside the block.
    /// Valid until the next fill (which only happens inside
    /// `advance`); `(0, 0)` before the first advance.
    cur_offset: usize,
    cur_len: usize,
    /// Whether the end-of-stream check (footer verification, trailing-data
    /// detection) has run. Set on the first `advance` that reports
    /// exhaustion, so the check runs exactly once.
    end_checked: bool,
    cancel: Option<crate::cancel::CancelToken>,
}

impl ValueFileReader {
    /// Opens the stream at `source` — a value file's path, or an
    /// [`Extent`] of a segment — with default I/O options.
    pub fn open(source: impl Into<Extent>) -> Result<Self> {
        Self::open_with_options(source, &IoOptions::default())
    }

    /// Opens `source` with `options`: block size, checksum verification,
    /// fault plan, shared counters ([`IoOptions::stats`]) and cancellation.
    /// Opens a descriptor of its own (counted as one file open) and sizes
    /// the block buffer with one `fstat`; an export's cursors share one
    /// descriptor per segment instead ([`crate::ExportedDatabase`]), and a
    /// spill merge one per sort.
    pub fn open_with_options(source: impl Into<Extent>, options: &IoOptions) -> Result<Self> {
        let extent = source.into();
        let file = open_counted(extent.label(), extent.file(), options)?;
        let len = file
            .metadata()
            .map_or(u64::MAX, |m| m.len().saturating_sub(extent.offset()));
        Self::over(Arc::new(file), &extent, options, len)
    }

    /// A reader of the stream at `extent` of the already open (and
    /// possibly shared) `file`, about `len` bytes long (a size hint: it
    /// only sizes the block buffer).
    pub(crate) fn over(
        file: Arc<File>,
        extent: &Extent,
        options: &IoOptions,
        len: u64,
    ) -> Result<Self> {
        let mut input = BlockReader::over(file, extent.label(), extent.offset(), options, len);
        let context = |input: &BlockReader| input.label().display().to_string();
        let avail = input
            .fill_to(HEADER_LEN)
            .map_err(|e| corrupt(context(&input), e.to_string()))?;
        if avail < HEADER_LEN {
            return Err(corrupt(
                context(&input),
                format!("short header: {avail} of {HEADER_LEN} bytes"),
            ));
        }
        let header = input.buffered();
        if &header[..4] != MAGIC {
            return Err(corrupt(context(&input), "bad magic".into()));
        }
        // lint: allow(no_unwrap) — fixed-width slice of a length-checked header; try_into cannot fail
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != V2_VERSION {
            return Err(corrupt(
                context(&input),
                format!("unsupported version {version}"),
            ));
        }
        let avail = input
            .fill_to(V2_HEADER_LEN)
            .map_err(|e| corrupt(context(&input), e.to_string()))?;
        if avail < V2_HEADER_LEN {
            return Err(corrupt(
                context(&input),
                format!("short header: {avail} of {V2_HEADER_LEN} bytes"),
            ));
        }
        let header = input.buffered();
        let stored = u32::from_le_bytes([
            header[HEADER_LEN],
            header[HEADER_LEN + 1],
            header[HEADER_LEN + 2],
            header[HEADER_LEN + 3],
        ]);
        if crc32c(&header[..HEADER_LEN]) != stored {
            if let Some(stats) = &options.stats {
                stats.bump_checksum_failure();
            }
            return Err(corrupt(context(&input), "header checksum mismatch".into()));
        }
        // lint: allow(no_unwrap) — fixed-width slice of a length-checked header; try_into cannot fail
        let total = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        input.consume(V2_HEADER_LEN);
        Ok(ValueFileReader {
            input,
            total,
            produced: 0,
            cur_offset: 0,
            cur_len: 0,
            end_checked: false,
            cancel: options.cancel.clone(),
        })
    }

    /// Label of the stream this reader is positioned over: its file, or
    /// `segment[name]` for a stream inside a segment.
    pub fn path(&self) -> &Path {
        self.input.label()
    }

    fn context(&self) -> String {
        self.path().display().to_string()
    }

    /// `pread`s made on the file so far.
    pub fn read_calls(&self) -> u64 {
        self.input.read_calls()
    }

    /// True when two fresh readers hold byte-identical streams — hence the
    /// same values. Compares the payload block by block as the frame layer
    /// serves it, so every byte compared has passed its frame's checksum,
    /// and reads an equal pair to the end, footer included. Stops at the
    /// first difference.
    pub(crate) fn same_stream(&mut self, other: &mut ValueFileReader) -> Result<bool> {
        debug_assert!(self.produced == 0 && other.produced == 0, "fresh readers");
        if self.total != other.total {
            return Ok(false);
        }
        loop {
            let n = self.fill_payload()?.min(other.fill_payload()?);
            if n == 0 {
                return Ok(self.input.buffered().is_empty() && other.input.buffered().is_empty());
            }
            if self.input.buffered()[..n] != other.input.buffered()[..n] {
                return Ok(false);
            }
            self.input.consume(n);
            other.input.consume(n);
        }
    }

    /// Buffers at least one more payload byte unless the stream has ended
    /// (its footer verified); returns the bytes buffered.
    fn fill_payload(&mut self) -> Result<usize> {
        self.input
            .fill_to(1)
            .map_err(|e| corrupt(self.context(), e.to_string()))
    }

    /// One-shot end-of-stream check, run when the cursor first reports
    /// exhaustion: the fill drives the frame decoder through the footer
    /// (verifying the whole-file checksum and the footer's counts) and
    /// flags any logical bytes past the final record. It reads nothing
    /// when the footer already arrived with the last record.
    fn verify_stream_end(&mut self) -> Result<()> {
        if self.end_checked {
            return Ok(());
        }
        self.end_checked = true;
        let avail = self
            .input
            .fill_to(1)
            .map_err(|e| corrupt(self.context(), format!("corrupt file tail: {e}")))?;
        if avail > 0 {
            return Err(corrupt(
                self.context(),
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
        let avail = self
            .input
            .fill_to(LEN_PREFIX)
            .map_err(|e| corrupt(self.context(), format!("truncated record length: {e}")))?;
        if avail < LEN_PREFIX {
            return Err(corrupt(
                self.context(),
                format!("truncated record length: {avail} of {LEN_PREFIX} bytes"),
            ));
        }
        let bytes = self.input.buffered()[..LEN_PREFIX]
            .try_into()
            // lint: allow(no_unwrap) — LEN_PREFIX-wide slice, availability checked just above
            .expect("4 bytes");
        Ok(Some(u32::from_le_bytes(bytes) as usize))
    }

    /// Buffers the whole `len`-byte record (prefix included), growing the
    /// block once for a record larger than it. Errors on truncation.
    fn buffer_record(&mut self, len: usize) -> Result<()> {
        let avail = self
            .input
            .fill_to(LEN_PREFIX + len)
            .map_err(|e| corrupt(self.context(), format!("truncated record body: {e}")))?;
        if avail < LEN_PREFIX + len {
            return Err(corrupt(
                self.context(),
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
        self.buffer_record(len)?;
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
        // Chop off the final bytes of the file, inside the footer. Both
        // records sit in one whole, verified frame, so at any block size
        // they are served and the damage surfaces at the end-of-stream
        // check — Corrupt, never a short-but-successful stream.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        assert!(matches!(
            ValueFileReader::open(&path).and_then(collect_cursor),
            Err(ValueSetError::Corrupt { .. })
        ));
        let mut r =
            ValueFileReader::open_with_options(&path, &IoOptions::with_block_size(32)).unwrap();
        assert!(r.advance().unwrap());
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
        // 18,000 payload bytes in 5 frames: an 18,076-byte stream.
        let file_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(file_len, 18_076);
        let drain = |options: &IoOptions| {
            let mut r = ValueFileReader::open_with_options(&path, options).unwrap();
            let mut n = 0u64;
            while r.advance().unwrap() {
                n += 1;
            }
            assert_eq!(n, 1000);
            r.read_calls()
        };

        // Default block: the 8 KiB first read, then the 9,884 bytes left
        // (the size caps the doubled 16 KiB), footer included.
        assert_eq!(drain(&IoOptions::default()), 2);

        // 256-byte blocks: a read still completes a frame, so one pread
        // per frame (the last one short, with the footer) — never one per
        // record.
        assert_eq!(drain(&IoOptions::with_block_size(256)), 5);
    }

    #[test]
    fn a_stream_that_fits_the_first_read_costs_one_pread() {
        // Header, frames and footer (7,058 bytes) arrive in the open's one
        // 8 KiB read: draining it and verifying its footer reads nothing
        // more.
        let dir = TempDir::new("vf-one-pread");
        let path = dir.join("one.indv");
        let values: Vec<Vec<u8>> = (0..500u32)
            .map(|i| format!("{i:010}").into_bytes())
            .collect();
        write_value_file(&path, &values).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 7_058);
        let stats = ReadStats::new();
        let mut r = ValueFileReader::open_with_options(
            &path,
            &IoOptions::default().with_stats(stats.clone()),
        )
        .unwrap();
        assert_eq!(r.read_calls(), 1, "the open reads the whole stream");
        let mut n = 0;
        while r.advance().unwrap() {
            n += 1;
        }
        assert_eq!(n, 500);
        assert!(!r.advance().unwrap(), "footer verified, stream ended");
        assert_eq!(r.read_calls(), 1);
        assert_eq!(
            stats.read_calls(),
            1,
            "the shared counter saw the same pread"
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
        let options = IoOptions::with_block_size(256).with_stats(stats.clone());
        let path = dir.join("flipped.indv");
        for byte in 0..data.len() {
            let mut bad = data.clone();
            bad[byte] ^= 1 << (byte % 8);
            std::fs::write(&path, &bad).unwrap();
            let drained =
                ValueFileReader::open_with_options(&path, &options).and_then(collect_cursor);
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
        let options = IoOptions::with_block_size(128)
            .with_fault(plan.clone())
            .with_stats(stats.clone());
        let r = ValueFileReader::open_with_options(&path, &options).unwrap();
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
        let r = ValueFileReader::open_with_options(
            &path,
            &IoOptions::with_block_size(128)
                .with_fault(plan)
                .with_stats(stats.clone()),
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

    #[test]
    fn a_flush_completes_the_whole_mib_whose_last_byte_it_writes() {
        const MIB: u64 = 1 << 20;
        // Ending just below, exactly on and just past a MiB boundary.
        assert_eq!(completed_mib(MIB - 4096, MIB - 1), None);
        assert_eq!(completed_mib(MIB - 4096, MIB), Some(0..MIB));
        assert_eq!(completed_mib(MIB - 4096, MIB + 1), Some(0..MIB));
        // The flush that starts on the boundary does not complete it twice.
        assert_eq!(completed_mib(MIB, MIB + 4096), None);
        // A stream starting mid-segment hands over the MiB it finishes,
        // bytes of the streams before it included.
        let at = 5 * MIB + 300;
        assert_eq!(completed_mib(at, at + 64), None);
        assert_eq!(
            completed_mib(6 * MIB - 10, 6 * MIB + 10),
            Some(5 * MIB..6 * MIB)
        );
        // A block larger than 2 MiB completes several MiB at once.
        assert_eq!(completed_mib(MIB / 2, MIB / 2 + 3 * MIB), Some(0..3 * MIB));
        assert_eq!(
            completed_mib(2 * MIB, 2 * MIB + 3 * MIB),
            Some(2 * MIB..5 * MIB)
        );
        assert_eq!(completed_mib(0, 0), None, "an empty flush");
    }
}
