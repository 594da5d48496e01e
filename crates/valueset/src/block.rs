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
//!   per 8 KiB — with adaptive readahead (fills start at
//!   [`INITIAL_READAHEAD`] and double per fill) so streams that are closed
//!   early, the common case in a SPIDER merge, never over-read;
//! * the fill/consume API exposes the block itself: callers parse records
//!   **in place** and advance a consume cursor, copying only the rare
//!   record that does not fit in one block;
//! * opening is one `malloc` of `min(block_size, file_size)` — never
//!   zero-initialised, never an mmap-churning full-block arena per cursor —
//!   with the file size taken from a caller-provided hint when available;
//! * a reader reads one *stream* of a descriptor with positional reads
//!   from the stream's offset on, so every cursor into a segment
//!   ([`crate::SegmentWriter`]) shares that segment's one descriptor;
//! * every read issued against the OS is counted, locally
//!   ([`BlockReader::read_calls`]) and into an optional shared
//!   [`ReadStats`], so harnesses can report syscall trajectories
//!   (`BENCH_spider.json`'s `read_calls`).
//!
//! Reads are synchronous, issued on the consuming thread: every byte flows
//! file → fault-injection wrapper ([`crate::fault`]) → v2 frame decoder
//! ([`crate::frame`], CRC-verified) → block, and this is the only way a
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

/// Smallest usable block: must hold a value-file header (20 bytes in
/// format v2). Smaller requested sizes are clamped up, so even
/// pathological configurations (block sizes of a few bytes, used by the
/// boundary tests) stay correct — just slow.
pub const MIN_BLOCK_SIZE: usize = 32;

/// Default block size: 256 KiB amortises syscall overhead at multi-GB scale
/// while staying cache- and memory-friendly with hundreds of open cursors.
pub const DEFAULT_BLOCK_SIZE: usize = 256 * 1024;

/// First-fill readahead: fills start at 8 KiB and double per fill up to the
/// block size, so a cursor that is closed early (SPIDER refutes most
/// streams within their first values) never pays for a block it would not
/// have consumed, while long-lived streams converge on full-block reads.
pub const INITIAL_READAHEAD: usize = 8 * 1024;

/// Tuning for the value-file I/O layer, shared by readers and writers.
///
/// Equality compares only the two tuning knobs ([`IoOptions::block_size`],
/// [`IoOptions::verify_checksums`]) — the runtime attachments
/// ([`IoOptions::fault`], [`IoOptions::stats`], [`IoOptions::cancel`]) are
/// deliberately excluded, so two configurations that read files the same
/// way compare equal even when only one of them is instrumented.
#[derive(Debug, Clone)]
pub struct IoOptions {
    /// Bytes per I/O block: the unit of reader fills and writer flushes.
    /// Values below [`MIN_BLOCK_SIZE`] are clamped up at use time.
    pub block_size: usize,
    /// Verify format-v2 frame checksums on every fill (and header/footer
    /// checksums at open/end of stream). On by default: the cost is one
    /// CRC32C pass per byte. Turning it off still strips the v2 framing
    /// and still detects structural damage (truncation, bad geometry); it
    /// only skips the checksum comparisons.
    pub verify_checksums: bool,
    /// A fault plan injected beneath every reader, writer, and open this
    /// configuration touches (see [`crate::fault`]). `None` (the default)
    /// costs nothing on the I/O path.
    pub fault: Option<Arc<crate::fault::FaultPlan>>,
    /// Fallback shared counters for call sites that do not thread an
    /// explicit [`ReadStats`] (the spill merge opens its run readers
    /// through options alone). An explicit `stats` argument at an open
    /// site always wins over this field.
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
            verify_checksums: true,
            fault: None,
            stats: None,
            cancel: None,
        }
    }
}

impl PartialEq for IoOptions {
    fn eq(&self, other: &Self) -> bool {
        self.block_size == other.block_size && self.verify_checksums == other.verify_checksums
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

    /// Builder toggle for checksum verification
    /// ([`IoOptions::verify_checksums`]).
    pub fn verify(mut self, verify_checksums: bool) -> Self {
        self.verify_checksums = verify_checksums;
        self
    }

    /// Attaches a fault plan ([`IoOptions::fault`]).
    pub fn with_fault(mut self, plan: Arc<crate::fault::FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attaches fallback shared counters ([`IoOptions::stats`]).
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

/// Shared I/O counters: every block fill a [`BlockReader`] issues, every
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

    /// Block fills recorded so far.
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

    fn bump(&self) {
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
/// The buffer is filled in block-sized reads; callers inspect
/// [`BlockReader::buffered`] (or slices captured via [`BlockReader::pos`])
/// and advance the consume cursor with [`BlockReader::consume`] — a pure
/// pointer bump. Bytes between the consume cursor and the fill end stay
/// stable until the next fill, which is what lets [`crate::ValueFileReader`]
/// hand out `current()` slices pointing straight into the block.
///
/// Opening a cursor costs one `malloc`, nothing more: the buffer capacity
/// is the block size capped at the stream's byte size (so hundreds of small
/// attribute cursors do not each drag in a 256 KiB arena — a measured
/// regression, not a theoretical one), the cap comes from a caller-supplied
/// size hint when available (the export manager records stream sizes at
/// write time) with one `fstat` as the fallback, and fills append through
/// [`Read::take`] + `read_to_end` into reserved capacity, so the buffer is
/// never zero-initialised.
#[derive(Debug)]
pub struct BlockReader {
    stream: crate::frame::FrameStream,
    /// Filled bytes; `buf[start..]` is valid, unconsumed data.
    buf: Vec<u8>,
    /// Consume cursor.
    start: usize,
    /// Logical block size (= the buffer's reserved capacity).
    block_size: usize,
    /// Current fill granularity: starts at [`INITIAL_READAHEAD`], doubles
    /// per fill, saturates at `block_size`.
    readahead: usize,
    read_calls: u64,
    stats: Option<ReadStats>,
}

impl BlockReader {
    /// Wraps `file` with a block buffer of `options.block_size` (clamped to
    /// [`MIN_BLOCK_SIZE`], capped at the file's length via one `fstat`).
    /// Syscalls are counted locally and, when given, into `stats`.
    pub fn new(file: File, options: &IoOptions, stats: Option<ReadStats>) -> Self {
        let file_len = file.metadata().map(|m| m.len()).unwrap_or(u64::MAX);
        // Anonymous descriptors carry no path: fault rules only reach them
        // via a `*` matcher, and error annotation degrades gracefully.
        Self::over(Arc::new(file), Path::new(""), 0, options, stats, file_len)
    }

    /// The one constructor body: reads the stream labelled `label` that
    /// starts at byte `offset` of the (possibly shared) `file` and is about
    /// `len` bytes long, stacking the fault wrapper and the v2 frame decoder
    /// on it. `len` only sizes the block — correctness never depends on it,
    /// but a hint that undershoots caps this reader's block capacity for its
    /// whole lifetime.
    pub(crate) fn over(
        file: Arc<File>,
        label: &Path,
        offset: u64,
        options: &IoOptions,
        stats: Option<ReadStats>,
        len: u64,
    ) -> Self {
        // lint: allow(hot_alloc) — once per open: attached stats fall back to the options' handle
        let stats = stats.or_else(|| options.stats.clone());
        let capacity = usize::try_from(len)
            .unwrap_or(usize::MAX)
            .clamp(MIN_BLOCK_SIZE, options.effective_block_size());
        let stream = crate::frame::FrameStream::new(
            // lint: allow(hot_alloc) — once per open: the wrapper clones the shared plan and counter handles
            crate::fault::FaultFile::new(file, label, offset, options.fault.clone(), stats.clone()),
            options.verify_checksums,
            // lint: allow(hot_alloc) — once per open: the decoder owns its counter handle
            stats.clone(),
        );
        BlockReader {
            stream,
            buf: Vec::with_capacity(capacity),
            start: 0,
            block_size: capacity,
            readahead: INITIAL_READAHEAD.min(capacity),
            read_calls: 0,
            stats,
        }
    }

    /// The block capacity (effective block size).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.block_size
    }

    /// Read-request calls issued by this reader so far (one per block
    /// fill, plus the reads that grow the block for an oversized record).
    pub fn read_calls(&self) -> u64 {
        self.read_calls
    }

    /// The unconsumed buffered bytes.
    #[inline]
    pub fn buffered(&self) -> &[u8] {
        &self.buf[self.start..]
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
        debug_assert!(n <= self.buf.len() - self.start, "consume past fill end");
        self.start += n;
    }

    /// Ensures at least `need` bytes are buffered, topping the block up in
    /// one bulk read; at end of file fewer may remain. Returns the number
    /// of buffered bytes. `need` must not exceed the capacity.
    ///
    /// Filling compacts the unconsumed tail to the front of the block, so
    /// any offsets captured via [`BlockReader::pos`] before this call are
    /// invalidated. The already-buffered case is a branch, kept inline so
    /// per-record callers pay nothing in the steady state.
    #[inline]
    pub fn fill_to(&mut self, need: usize) -> std::io::Result<usize> {
        if self.buf.len() - self.start >= need {
            return Ok(self.buf.len() - self.start);
        }
        self.fill_slow(need)
    }

    #[cold]
    fn fill_slow(&mut self, need: usize) -> std::io::Result<usize> {
        debug_assert!(need <= self.block_size, "fill_to beyond block capacity");
        // Block-fill latency histogram; the clock read is gated so a
        // traced-off run pays one relaxed load, nothing more.
        let fill_start = ind_trace::enabled().then(std::time::Instant::now);
        if self.start > 0 {
            let len = self.buf.len();
            self.buf.copy_within(self.start..len, 0);
            self.buf.truncate(len - self.start);
            self.start = 0;
        }
        while self.buf.len() < need {
            // One bulk request per iteration, at the current readahead
            // granularity (but always enough to satisfy `need`). `take` +
            // `read_to_end` appends into the reserved capacity without ever
            // zero-initialising it, and stops exactly at the request
            // boundary, so a fill sized by an accurate hint never pays an
            // extra EOF-probing syscall.
            let want = self
                .readahead
                .max(need - self.buf.len())
                .min(self.block_size - self.buf.len());
            let n = self.read_into_buf(want)?;
            self.readahead = (self.readahead * 2).min(self.block_size);
            if n == 0 {
                break; // EOF: caller decides whether short is fatal
            }
        }
        if let Some(start) = fill_start {
            ind_trace::BLOCK_FILL_NANOS.record(start.elapsed().as_nanos() as u64);
        }
        Ok(self.buf.len() - self.start)
    }

    /// Buffers exactly `need` bytes even when `need` exceeds the block
    /// size, growing the block to hold one oversized record; short only at
    /// end of file. This is the spill path for records that do not fit a
    /// block — the grown storage is reused (and shrunk back to one block's
    /// worth of live data by the next compaction), so even oversized
    /// records are served zero-copy out of the block.
    pub fn fill_exact_growing(&mut self, need: usize) -> std::io::Result<usize> {
        if self.buf.len() - self.start >= need {
            return Ok(self.buf.len() - self.start);
        }
        if self.start > 0 {
            let len = self.buf.len();
            self.buf.copy_within(self.start..len, 0);
            self.buf.truncate(len - self.start);
            self.start = 0;
        }
        self.buf.reserve(need - self.buf.len());
        while self.buf.len() < need {
            let want = need - self.buf.len();
            let n = self.read_into_buf(want)?;
            if n == 0 {
                break; // EOF: caller decides whether short is fatal
            }
        }
        Ok(self.buf.len() - self.start)
    }

    /// One counted read request appending up to `want` bytes to the block.
    fn read_into_buf(&mut self, want: usize) -> std::io::Result<usize> {
        let n = (&mut self.stream)
            .take(want as u64)
            .read_to_end(&mut self.buf)?;
        self.read_calls += 1;
        if let Some(stats) = &self.stats {
            stats.bump();
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_testkit::TempDir;

    fn reader(data: &[u8], block_size: usize, stats: Option<ReadStats>) -> BlockReader {
        let dir = TempDir::new("blockreader");
        let path = dir.join("data.bin");
        std::fs::write(&path, data).unwrap();
        // The TempDir is removed when it drops, but the opened File handle
        // stays valid on Unix.
        BlockReader::new(
            std::fs::File::open(&path).unwrap(),
            &IoOptions::with_block_size(block_size),
            stats,
        )
    }

    #[test]
    fn block_size_is_clamped_to_minimum() {
        let r = reader(b"0123456789", 1, None);
        assert_eq!(r.capacity(), MIN_BLOCK_SIZE);
        assert_eq!(IoOptions::with_block_size(0).effective_block_size(), 32);
        assert_eq!(IoOptions::default().effective_block_size(), 256 * 1024);
    }

    #[test]
    fn fill_consume_round_trip() {
        let mut r = reader(b"abcdefghij", 16, None);
        assert_eq!(r.fill_to(4).unwrap(), 10, "one read grabs the whole file");
        assert_eq!(&r.buffered()[..4], b"abcd");
        r.consume(4);
        assert_eq!(r.buffered(), b"efghij");
        r.consume(6);
        assert_eq!(r.fill_to(1).unwrap(), 0, "EOF leaves the buffer empty");
        assert_eq!(r.read_calls(), 2, "initial fill + EOF probe");
    }

    #[test]
    fn fill_compacts_and_refills_across_blocks() {
        let data: Vec<u8> = (0..64u8).collect();
        let mut r = reader(&data, 16, None);
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
        let data = vec![7u8; 4096];
        let mut calls = Vec::new();
        for block in [16, 64, 1024, 8192] {
            let mut r = reader(&data, block, None);
            let mut total = 0usize;
            loop {
                let avail = r.fill_to(1).unwrap();
                if avail == 0 {
                    break;
                }
                total += avail;
                r.consume(avail);
            }
            assert_eq!(total, data.len());
            calls.push(r.read_calls());
        }
        assert!(
            calls.windows(2).all(|w| w[0] >= w[1]),
            "read calls must not grow with block size: {calls:?}"
        );
        assert!(
            calls[0] >= 10 * calls[3],
            "4 KiB over 16 B blocks needs many reads vs one 8 KiB block: {calls:?}"
        );
    }

    #[test]
    fn shared_stats_aggregate_across_readers() {
        let stats = ReadStats::new();
        let data = vec![1u8; 100];
        for _ in 0..3 {
            let mut r = reader(&data, 64, Some(stats.clone()));
            while r.fill_to(1).unwrap() > 0 {
                let n = r.buffered().len();
                r.consume(n);
            }
        }
        assert!(stats.read_calls() >= 3, "each reader fills at least once");
        let before = stats.read_calls();
        stats.reset();
        assert_eq!(stats.read_calls(), 0);
        assert!(before > 0);
    }

    #[test]
    fn growing_fill_crosses_the_block_and_reports_eof_short() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut r = reader(&data, 16, None);
        r.fill_to(10).unwrap();
        r.consume(2);
        // A 90-byte need exceeds the 16-byte block: the buffer grows and
        // serves the whole range in place.
        assert_eq!(r.fill_exact_growing(90).unwrap(), 90);
        assert_eq!(r.buffered(), &data[2..92]);
        r.consume(90);
        // Asking for more than the file holds comes back short, not OK.
        assert_eq!(r.fill_exact_growing(20).unwrap(), 8);
        assert_eq!(r.buffered(), &data[92..]);
    }

    #[test]
    fn pinned_slices_survive_until_the_next_fill() {
        let mut r = reader(b"aaaabbbbccccdddd", 16, None);
        r.fill_to(16).unwrap();
        let pos = r.pos();
        r.consume(8);
        assert_eq!(r.slice(pos, 4), b"aaaa", "consumed bytes stay readable");
        assert_eq!(r.slice(pos + 4, 4), b"bbbb");
    }
}
