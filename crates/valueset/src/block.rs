//! Block-oriented zero-copy file I/O.
//!
//! [`std::io::BufReader`] serves record-at-a-time readers well, but its API
//! forces a copy per record: `read_exact` always moves bytes out of the
//! internal buffer into the caller's, and the buffer size is fixed at
//! construction. The SPIDER hot path streams millions of tiny
//! length-prefixed records from sorted value files, so both costs are paid
//! per *value*. This module replaces it with a hand-rolled [`BlockReader`]:
//!
//! * the file is read in large blocks ([`IoOptions::block_size`], default
//!   256 KiB), so a fully-consumed stream costs
//!   `O(file_bytes / block_size)` read calls instead of one buffer refill
//!   per 8 KiB — with adaptive readahead (reads start at
//!   [`INITIAL_READAHEAD`] and double per read) so streams that are closed
//!   early, the common case in a SPIDER merge, never over-read;
//! * the fill/consume API exposes the block itself: callers parse records
//!   **in place** and advance a consume cursor; a record larger than the
//!   block grows it once instead of being copied out;
//! * raw v2 bytes land in the block and are decoded there
//!   ([`crate::frame::FrameDecoder`]): each frame's CRC is checked where
//!   its bytes landed and its payload moved down over the 6-byte frame
//!   overhead, so a fill is one `pread` and no byte is staged elsewhere;
//! * opening allocates nothing: the block grows with the reads, never past
//!   one block plus one frame or the stream's size (taken from a
//!   caller-provided hint when available), and is zero-filled only where a
//!   read first lands (each byte at most once per cursor);
//! * a reader reads one *stream* of a descriptor with positional reads
//!   from the stream's offset on, so every cursor into a segment
//!   ([`crate::segment::SegmentWriter`]) shares that segment's one descriptor, and
//!   the stream's size caps each read, so it never reads into the next;
//! * every `pread` sent to the OS is counted where it is made,
//!   in the fault wrapper ([`crate::fault`]), locally
//!   ([`BlockReader::read_calls`]) and into an optional shared
//!   [`ReadStats`], so harnesses report measured syscall counts
//!   (`BENCH_spider.json`'s `read_calls`, which `bench_spider --check`
//!   holds to a quarter of a per-record reader's `4·cursors + 2·values`).
//!
//! Reads are synchronous, issued on the consuming thread: every byte flows
//! file → fault-injection wrapper ([`crate::fault`]) → block, where the v2
//! frame decoder ([`crate::frame`]) verifies it, and this is the only way a
//! value file is read. SPIDER reads each file forward once and refutes
//! most cursors within their first values, so there is nothing for an
//! overlapped reader to hide.
//!
//! [`crate::ValueFileReader`] builds its zero-copy `current()` on top of
//! this reader; the writer side uses
//! the same `block_size` knob to stage records into block-sized
//! `write_all`s.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::frame::MAX_FRAME_LEN;

/// Smallest usable block: must hold a value-file header (20 bytes in
/// format v2). Smaller requested sizes are clamped up, so even
/// pathological configurations (block sizes of a few bytes, used by the
/// boundary tests) stay correct — just slow.
pub const MIN_BLOCK_SIZE: usize = 32;

/// Default block size: 256 KiB amortises syscall overhead at multi-GB scale
/// while staying cache- and memory-friendly with hundreds of open cursors.
pub const DEFAULT_BLOCK_SIZE: usize = 256 * 1024;

/// First-read readahead: reads start at 8 KiB and double per read up to the
/// block size, so a cursor that is closed early (SPIDER refutes most
/// streams within their first values) never pays for a block it would not
/// have consumed, while long-lived streams converge on full-block reads.
pub const INITIAL_READAHEAD: usize = 8 * 1024;

/// Tuning for the value-file I/O layer, shared by readers and writers.
///
/// Equality compares only the tuning knob ([`IoOptions::block_size`]) — the
/// runtime attachments ([`IoOptions::fault`], [`IoOptions::stats`],
/// [`IoOptions::cancel`]) are deliberately excluded, so two configurations
/// that read files the same way compare equal even when only one of them is
/// instrumented.
#[derive(Debug, Clone)]
pub struct IoOptions {
    /// Bytes per I/O block: the unit of reader fills and writer flushes.
    /// Values below [`MIN_BLOCK_SIZE`] are clamped up at use time.
    pub block_size: usize,
    /// A fault plan injected beneath every reader, writer, and open this
    /// configuration touches (see [`crate::fault`]). `None` (the default)
    /// costs nothing on the I/O path.
    pub fault: Option<Arc<crate::fault::FaultPlan>>,
    /// Shared counters: every reader, writer and open made with these
    /// options counts into them, and it is the only way counters reach a
    /// reader. `None` (the default) leaves each reader's own count only.
    pub stats: Option<ReadStats>,
    /// A cooperative cancellation token polled at block granularity by
    /// every reader fill and writer flush this configuration touches (see
    /// [`crate::cancel`]). `None` (the default) costs nothing.
    pub cancel: Option<crate::cancel::CancelToken>,
}

impl Default for IoOptions {
    fn default() -> Self {
        IoOptions {
            block_size: DEFAULT_BLOCK_SIZE,
            fault: None,
            stats: None,
            cancel: None,
        }
    }
}

impl PartialEq for IoOptions {
    fn eq(&self, other: &Self) -> bool {
        self.block_size == other.block_size
    }
}

impl Eq for IoOptions {}

impl IoOptions {
    /// Options with the given block size (clamped to [`MIN_BLOCK_SIZE`] at
    /// use time).
    pub fn with_block_size(block_size: usize) -> Self {
        IoOptions {
            block_size,
            ..Default::default()
        }
    }

    /// Attaches a fault plan ([`IoOptions::fault`]).
    pub fn with_fault(mut self, plan: Arc<crate::fault::FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attaches shared counters ([`IoOptions::stats`]).
    pub fn with_stats(mut self, stats: ReadStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Attaches a cancellation token ([`IoOptions::cancel`]).
    pub fn with_cancel(mut self, token: crate::cancel::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The effective (clamped) block size.
    pub fn effective_block_size(&self) -> usize {
        self.block_size.max(MIN_BLOCK_SIZE)
    }
}

/// Shared I/O counters: every `pread` a [`BlockReader`] makes, every
/// value file it opens, every transient fault healed beneath it and every
/// checksum mismatch it detects. Cloning shares the counters, so one
/// `ReadStats` can aggregate across all cursors a provider hands out
/// (including worker threads).
#[derive(Debug, Clone, Default)]
pub struct ReadStats {
    calls: Arc<AtomicU64>,
    file_opens: Arc<AtomicU64>,
    io_retries: Arc<AtomicU64>,
    checksum_failures: Arc<AtomicU64>,
}

impl ReadStats {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        ReadStats::default()
    }

    /// `pread`s made on value data so far: counted at the fault
    /// wrapper, the one place a value-file read reaches the OS.
    pub fn read_calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Physical file descriptors opened for value data: one per value
    /// file a reader opens on its own, one per *segment* of an export
    /// (every cursor into a segment shares its descriptor).
    pub fn file_opens(&self) -> u64 {
        self.file_opens.load(Ordering::Relaxed)
    }

    /// Transient I/O faults healed invisibly at the retrying wrapper:
    /// `ErrorKind::Interrupted` retries (real or injected) and absorbed
    /// short reads. A non-zero value means the run degraded gracefully,
    /// not that anything was lost.
    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Format-v2 checksum mismatches detected (frame, footer, or header
    /// CRC). Each one also surfaced as a `Corrupt` error to the consumer
    /// — this counter exists so a degraded run can report *how much*
    /// corruption it saw.
    pub fn checksum_failures(&self) -> u64 {
        self.checksum_failures.load(Ordering::Relaxed)
    }

    /// Resets the counters to zero (between measured phases).
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.file_opens.store(0, Ordering::Relaxed);
        self.io_retries.store(0, Ordering::Relaxed);
        self.checksum_failures.store(0, Ordering::Relaxed);
    }

    pub(crate) fn bump_read_call(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_file_open(&self) {
        self.file_opens.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_io_retry(&self) {
        self.io_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_checksum_failure(&self) {
        self.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }
}

/// A block-at-a-time reader with an explicit fill/consume API.
///
/// The block is filled by positional reads of raw v2 bytes, one
/// [`crate::fault`]-wrapped `pread` per read, and decoded in place
/// ([`crate::frame::FrameDecoder`]): each complete frame's CRC is checked
/// where it landed and its payload moved down over the frame overhead, so
/// the block's front is verified, contiguous logical bytes (the header,
/// then payload) and a partial frame at its tail waits for the next read.
/// Callers inspect [`BlockReader::buffered`] (or slices captured via
/// [`BlockReader::pos`]) and advance the consume cursor with
/// [`BlockReader::consume`] — a pure pointer bump. Bytes between the
/// consume cursor and the decoded end stay stable until the next fill,
/// which is what lets [`crate::ValueFileReader`] hand out `current()`
/// slices pointing straight into the block.
///
/// Opening a cursor allocates nothing: the block grows with the reads, up to
/// one block plus one frame (or one oversized record), and never past the
/// stream's size — so hundreds of small attribute cursors do not each drag
/// in a 256 KiB arena (a measured regression, not a theoretical one). The
/// size comes from a caller-supplied hint when available (the export
/// manager records stream sizes at write time) with one `fstat` as the
/// fallback; it also caps each read, so a reader of one stream of a
/// segment does not read into the next. The block is zero-filled only
/// where a read is about to land for the first time (a high-water
/// `resize`), so each byte is zeroed at most once per cursor.
#[derive(Debug)]
pub struct BlockReader {
    file: crate::fault::FaultFile,
    decoder: crate::frame::FrameDecoder,
    /// The block; `buf.len()` is its zero-filled high-water mark.
    buf: Vec<u8>,
    /// Consume cursor: `buf[start..end]` is unconsumed logical data.
    start: usize,
    /// End of the decoded logical bytes.
    end: usize,
    /// Start of the raw bytes not decoded yet (an incomplete frame).
    raw: usize,
    /// End of the raw bytes read so far.
    filled: usize,
    /// Block size: the largest read, capped at the stream's size.
    block_size: usize,
    /// Current read granularity: starts at [`INITIAL_READAHEAD`], doubles
    /// per read, saturates at `block_size`.
    readahead: usize,
    /// Raw bytes of the stream the size hint says are still unread; a
    /// read never asks past them while any remain.
    hint_left: u64,
}

impl BlockReader {
    /// Wraps `file` with a block buffer of `options.block_size` (clamped to
    /// [`MIN_BLOCK_SIZE`], capped at the file's length via one `fstat`).
    /// Reads are counted locally and into [`IoOptions::stats`].
    pub fn new(file: File, options: &IoOptions) -> Self {
        let file_len = file.metadata().map(|m| m.len()).unwrap_or(u64::MAX);
        // Anonymous descriptors carry no path: fault rules only reach them
        // via a `*` matcher, and error annotation degrades gracefully.
        Self::over(Arc::new(file), Path::new(""), 0, options, file_len)
    }

    /// The one constructor body: reads the stream labelled `label` that
    /// starts at byte `offset` of the (possibly shared) `file` and is about
    /// `len` bytes long, through the fault wrapper. `len` sizes the block
    /// and caps the reads while it lasts; a hint that undershoots costs
    /// reads (the reader carries on past it), never correctness.
    pub(crate) fn over(
        file: Arc<File>,
        label: &Path,
        offset: u64,
        options: &IoOptions,
        len: u64,
    ) -> Self {
        // lint: allow(hot_alloc) — once per open: the wrapper shares the counters' handle
        let stats = options.stats.clone();
        let block_size = usize::try_from(len)
            .unwrap_or(usize::MAX)
            .clamp(MIN_BLOCK_SIZE, options.effective_block_size());
        // lint: allow(hot_alloc) — once per open: the wrapper shares the plan handle
        let fault = options.fault.clone();
        BlockReader {
            file: crate::fault::FaultFile::new(file, label, offset, fault, stats),
            decoder: crate::frame::FrameDecoder::new(),
            // lint: allow(hot_alloc) — empty until the first read; grows with the reads
            buf: Vec::new(),
            start: 0,
            end: 0,
            raw: 0,
            filled: 0,
            block_size,
            readahead: INITIAL_READAHEAD.min(block_size),
            hint_left: len,
        }
    }

    /// The label of the stream this reader reads: its file, or
    /// `segment[name]` for a stream inside a segment.
    pub(crate) fn label(&self) -> &Path {
        self.file.path()
    }

    /// `pread`s this reader has made so far.
    pub fn read_calls(&self) -> u64 {
        self.file.read_calls()
    }

    /// The unconsumed buffered bytes.
    #[inline]
    pub fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Current consume-cursor offset into the block. Together with
    /// [`BlockReader::slice`] this lets a caller pin a record's position
    /// *before* consuming past it and re-borrow it later — valid until the
    /// next fill.
    #[inline]
    pub fn pos(&self) -> usize {
        self.start
    }

    /// Bytes `offset..offset + len` of the block. Only meaningful for
    /// ranges captured via [`BlockReader::pos`] since the last fill.
    #[inline]
    pub fn slice(&self, offset: usize, len: usize) -> &[u8] {
        &self.buf[offset..offset + len]
    }

    /// Marks `n` buffered bytes as consumed — no syscall, no copy.
    #[inline]
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.end - self.start, "consume past fill end");
        self.start += n;
    }

    /// Ensures at least `need` bytes are buffered; at the end of the stream
    /// fewer may remain. Returns the number of buffered bytes. A `need`
    /// beyond the block size grows the block to hold it, so even a record
    /// larger than the block is served in place.
    ///
    /// Filling compacts the unconsumed tail to the front of the block, so
    /// any offsets captured via [`BlockReader::pos`] before this call are
    /// invalidated. The already-buffered case is a branch, kept inline so
    /// per-record callers pay nothing in the steady state.
    #[inline]
    pub fn fill_to(&mut self, need: usize) -> std::io::Result<usize> {
        if self.end - self.start >= need {
            return Ok(self.end - self.start);
        }
        self.fill_slow(need)
    }

    #[cold]
    fn fill_slow(&mut self, need: usize) -> std::io::Result<usize> {
        // Block-fill latency histogram; the clock read is gated so a
        // traced-off run pays one relaxed load, nothing more.
        let fill_start = ind_trace::enabled().then(std::time::Instant::now);
        if self.start > 0 || self.end < self.raw {
            // The unconsumed logical bytes move to the front and the
            // pending raw tail right behind them, closing the gap the
            // stripped frame overhead left.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            self.buf.copy_within(self.raw..self.filled, self.end);
            self.filled -= self.raw - self.end;
            self.raw = self.end;
        }
        while self.end < need && !self.decoder.finished() {
            // One read per iteration at the current readahead (but enough
            // for `need`, and never less than the pending frame lacks),
            // capped by the room left in the block — plus one frame, so a
            // partial frame at its tail never shortens a read — and by what
            // the stream's size hint says is left. Past the hint (it
            // undershot, or there was none), reads stay at the readahead.
            let min_read = self.decoder.min_read(&self.buf[self.raw..self.filled]);
            let room = (self.block_size.max(need) + MAX_FRAME_LEN).saturating_sub(self.filled);
            let want = self.readahead.max(need - self.end).min(room).max(min_read);
            let want = match usize::try_from(self.hint_left).unwrap_or(usize::MAX) {
                0 => want.min(self.readahead.max(min_read)),
                left => want.min(left),
            };
            let until = self.filled + want;
            if self.buf.len() < until {
                self.buf.resize(until, 0);
            }
            let n = self.file.read(&mut self.buf[self.filled..until])?;
            self.readahead = (self.readahead * 2).min(self.block_size);
            self.hint_left = self.hint_left.saturating_sub(n as u64);
            self.filled += n;
            let (end, raw) = self
                .decoder
                .decode(&mut self.buf[..self.filled], self.end, self.raw, n == 0)
                .map_err(|e| self.frame_error(e))?;
            self.end = end;
            self.raw = raw;
        }
        if let Some(start) = fill_start {
            ind_trace::BLOCK_FILL_NANOS.record(start.elapsed().as_nanos() as u64);
        }
        Ok(self.end)
    }

    #[cold]
    fn frame_error(&self, e: crate::frame::FrameError) -> std::io::Error {
        if e.checksum {
            if let Some(stats) = self.file.stats() {
                stats.bump_checksum_failure();
            }
        }
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            // lint: allow(hot_alloc) — cold error path
            format!(
                "value file {}: frame {} (file offset {}): {}",
                self.file.path().display(),
                e.frame,
                e.offset,
                e.detail,
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::frame::{v2_file, V2_HEADER_LEN};
    use ind_testkit::TempDir;

    /// A reader over a v2 stream holding `payload`, with its header already
    /// consumed: `buffered()` serves payload.
    fn reader(payload: &[u8], options: &IoOptions) -> BlockReader {
        let dir = TempDir::new("blockreader");
        let path = dir.join("data.bin");
        std::fs::write(&path, v2_file(0, payload)).unwrap();
        // The TempDir is removed when it drops, but the opened File handle
        // stays valid on Unix.
        let mut r = BlockReader::new(std::fs::File::open(&path).unwrap(), options);
        assert!(r.fill_to(V2_HEADER_LEN).unwrap() >= V2_HEADER_LEN);
        r.consume(V2_HEADER_LEN);
        r
    }

    /// Consumes the whole stream, `fill_to(1)` at a time; returns the bytes.
    fn drain(r: &mut BlockReader) -> Vec<u8> {
        let mut out = Vec::new();
        while r.fill_to(1).unwrap() > 0 {
            out.extend_from_slice(r.buffered());
            r.consume(r.buffered().len());
        }
        out
    }

    #[test]
    fn block_size_is_clamped_to_minimum() {
        assert_eq!(
            IoOptions::with_block_size(1).effective_block_size(),
            MIN_BLOCK_SIZE
        );
        assert_eq!(IoOptions::with_block_size(0).effective_block_size(), 32);
        assert_eq!(IoOptions::default().effective_block_size(), 256 * 1024);
    }

    #[test]
    fn fill_consume_round_trip() {
        let mut r = reader(b"abcdefghij", &IoOptions::with_block_size(64));
        assert_eq!(r.fill_to(4).unwrap(), 10, "the open's read brought it all");
        assert_eq!(&r.buffered()[..4], b"abcd");
        r.consume(4);
        assert_eq!(r.buffered(), b"efghij");
        r.consume(6);
        assert_eq!(r.fill_to(1).unwrap(), 0, "the end leaves the buffer empty");
        assert_eq!(
            r.read_calls(),
            1,
            "one pread: header, frame and footer fit the first read, so the \
             end needs no probe"
        );
    }

    #[test]
    fn fill_compacts_and_refills_across_blocks() {
        let data: Vec<u8> = (0..64u8).collect();
        let mut r = reader(&data, &IoOptions::with_block_size(16));
        let mut seen = Vec::new();
        loop {
            let avail = r.fill_to(3).unwrap();
            if avail == 0 {
                break;
            }
            let take = avail.min(3);
            seen.extend_from_slice(&r.buffered()[..take]);
            r.consume(take);
        }
        assert_eq!(seen, data);
    }

    #[test]
    fn bigger_blocks_issue_fewer_reads() {
        // 16 full frames: 65,536 payload bytes in a 65,678-byte stream.
        let data: Vec<u8> = (0..16 * 4096).map(|i| (i % 253) as u8).collect();
        let mut calls = Vec::new();
        for block in [16, 1024, 8192, 65536, 256 * 1024] {
            let mut r = reader(&data, &IoOptions::with_block_size(block));
            assert_eq!(drain(&mut r), data);
            calls.push(r.read_calls());
        }
        // Below a frame a read still takes one whole frame (16 reads, then
        // one for the footer); at 8 KiB every read is 8 KiB, ⌈65,678 /
        // 8,192⌉ = 9; at 64 KiB the ramp 8 + 16 + 32 KiB is followed by the
        // rest the size hint allows, and 256 KiB ramps the same way.
        assert_eq!(calls, [17, 17, 9, 4, 4], "read calls per block size");
    }

    #[test]
    fn a_k_frame_stream_reads_along_the_readahead_ramp() {
        // 40 full frames (164,126 bytes) at the default block: reads of
        // 8, 16, 32, 64 KiB, then the rest — one pread per fill, the
        // footer inside the last.
        let data: Vec<u8> = (0..40 * 4096).map(|i| (i % 241) as u8).collect();
        let stream = v2_file(0, &data).len();
        let (mut reads, mut covered, mut step) = (0u64, 0usize, INITIAL_READAHEAD);
        while covered < stream {
            covered += step;
            step = (step * 2).min(DEFAULT_BLOCK_SIZE);
            reads += 1;
        }
        assert_eq!(reads, 5);
        let mut r = reader(&data, &IoOptions::with_block_size(DEFAULT_BLOCK_SIZE));
        assert_eq!(drain(&mut r), data);
        assert_eq!(r.read_calls(), reads);
    }

    #[test]
    fn reads_stop_at_the_size_hint() {
        // Two streams back to back, as a segment holds them: a reader of
        // the first, told its size, never reads a byte of the second.
        let dir = TempDir::new("blockreader-hint");
        let path = dir.join("seg.bin");
        let first = v2_file(0, b"first stream");
        let mut bytes = first.clone();
        bytes.extend_from_slice(&v2_file(0, &[7u8; 20_000]));
        std::fs::write(&path, &bytes).unwrap();
        let plan = Arc::new(FaultPlan::parse(&format!("read:*:flip={}", first.len())).unwrap());
        let options = IoOptions::default().with_fault(Arc::clone(&plan));
        let file = Arc::new(crate::fault::open_file(&path).unwrap());
        let mut r = BlockReader::over(file, &path, 0, &options, first.len() as u64);
        assert_eq!(&drain(&mut r)[V2_HEADER_LEN..], b"first stream");
        assert_eq!(r.read_calls(), 1);
        assert_eq!(
            plan.fired_count(),
            0,
            "the next stream's first byte was never read"
        );
    }

    #[test]
    fn shared_stats_aggregate_across_readers() {
        let stats = ReadStats::new();
        let data = vec![1u8; 100];
        for _ in 0..3 {
            let mut r = reader(
                &data,
                &IoOptions::with_block_size(64).with_stats(stats.clone()),
            );
            drain(&mut r);
        }
        assert_eq!(stats.read_calls(), 3, "each reader reads its stream once");
        stats.reset();
        assert_eq!(stats.read_calls(), 0);
    }

    #[test]
    fn growing_fill_crosses_the_block_and_reports_eof_short() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut r = reader(&data, &IoOptions::with_block_size(16));
        r.fill_to(10).unwrap();
        r.consume(2);
        // A 90-byte need exceeds the 32-byte block: the buffer grows and
        // serves the whole range in place.
        assert_eq!(r.fill_to(90).unwrap(), 98);
        assert_eq!(&r.buffered()[..90], &data[2..92]);
        r.consume(90);
        // Asking for more than the stream holds comes back short, not OK.
        assert_eq!(r.fill_to(20).unwrap(), 8);
        assert_eq!(r.buffered(), &data[92..]);
    }

    #[test]
    fn pinned_slices_survive_until_the_next_fill() {
        let mut r = reader(b"aaaabbbbccccdddd", &IoOptions::with_block_size(16));
        r.fill_to(16).unwrap();
        let pos = r.pos();
        r.consume(8);
        assert_eq!(r.slice(pos, 4), b"aaaa", "consumed bytes stay readable");
        assert_eq!(r.slice(pos + 4, 4), b"bbbb");
    }
}
