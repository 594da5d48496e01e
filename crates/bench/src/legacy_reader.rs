//! The pre-block-layer value-file reader, frozen as a perf baseline.
//!
//! This is a faithful copy of the reader shape `ind_valueset::format`
//! shipped before the block-oriented rewrite: a `BufReader` (default 8 KiB
//! buffer) issuing two `read_exact` calls per record — length prefix, then
//! body — and copying every value into the reader's workhorse buffer. It
//! exists so `bench_spider` can keep measuring "old reader vs block reader"
//! head-to-head on identical exports in every future PR; it is **not**
//! part of the production API.
//!
//! Format v2 wrapped the payload stream in checksummed frames. The legacy
//! shape predates checksums, so a thin [`FrameStrip`] adapter below the
//! per-record reads peels the frame geometry (length prefixes, CRC words,
//! footer) without verifying anything — the record-level access pattern,
//! which is what this baseline measures, is unchanged.
//!
//! Two counters instrument the shape's cost:
//!
//! * **read requests** — `read_exact` calls issued *into* the buffered I/O
//!   layer: 4 per header (magic, version, count, the v2 header CRC word) +
//!   2 per record, the per-record funneling the block layer eliminates. Comparable to the block reader's `read_calls`
//!   (requests it issues to the OS — one per block) because both count how
//!   often control crosses the reader's I/O interface.
//! * **OS reads** — actual `read(2)` calls `BufReader` makes to refill its
//!   8 KiB buffer, counted by wrapping the `File`. The syscall-for-syscall
//!   comparison.

use ind_valueset::{
    ExportedDatabase, Extent, Result, ValueCursor, ValueSetError, ValueSetProvider,
};
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"INDV";
/// The one format version the library writes (and this shape reads).
const VERSION: u32 = 2;
/// v2 frame geometry, mirrored from `ind_valueset::frame`: payload bytes
/// per frame and the end-of-frames sentinel in the length-prefix position.
const FRAME_PAYLOAD: usize = 4096;
const FOOTER_SENTINEL: u16 = 0xFFFF;

/// Shared counters for every reader a [`LegacyDiskProvider`] opens.
#[derive(Debug, Clone, Default)]
pub struct LegacyReadCounters {
    requests: Arc<AtomicU64>,
    os_reads: Arc<AtomicU64>,
}

impl LegacyReadCounters {
    /// `read_exact` requests issued into the buffered layer.
    pub fn read_requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// `read(2)` calls issued against the OS (buffer refills).
    pub fn os_read_calls(&self) -> u64 {
        self.os_reads.load(Ordering::Relaxed)
    }

    /// Zeroes both counters (between measured phases).
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.os_reads.store(0, Ordering::Relaxed);
    }
}

/// A `File` wrapper counting the `read(2)` calls `BufReader` issues.
struct CountingFile {
    file: std::fs::File,
    os_reads: Arc<AtomicU64>,
}

impl Read for CountingFile {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.os_reads.fetch_add(1, Ordering::Relaxed);
        self.file.read(buf)
    }
}

/// Strips format-v2 framing (per-frame length prefix and trailing CRC
/// word, the footer after the sentinel) from the byte stream, yielding the
/// raw record payload the legacy shape was written against. Nothing is
/// verified — this is the frozen perf baseline, not the robustness path —
/// and the bookkeeping reads go straight into the `BufReader` below, so
/// the request counter keeps its "2 per record" meaning.
struct FrameStrip {
    inner: BufReader<CountingFile>,
    /// Payload bytes left in the current frame (0 = at a frame boundary).
    frame_left: usize,
    /// The current frame's payload is consumed; its CRC word is unread.
    crc_pending: bool,
    /// The footer sentinel was reached; every further read is EOF.
    done: bool,
}

impl Read for FrameStrip {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.done {
                return Ok(0);
            }
            if self.frame_left > 0 {
                let n = self.frame_left.min(buf.len());
                let got = self.inner.read(&mut buf[..n])?;
                if got == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "value file ended inside a frame",
                    ));
                }
                self.frame_left -= got;
                if self.frame_left == 0 {
                    self.crc_pending = true;
                }
                return Ok(got);
            }
            if self.crc_pending {
                let mut crc = [0u8; 4];
                self.inner.read_exact(&mut crc)?;
                self.crc_pending = false;
            }
            let mut prefix = [0u8; 2];
            self.inner.read_exact(&mut prefix)?;
            let len = u16::from_le_bytes(prefix);
            if len == FOOTER_SENTINEL {
                self.done = true;
                return Ok(0);
            }
            if len == 0 || len as usize > FRAME_PAYLOAD {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "bad frame length in value file",
                ));
            }
            self.frame_left = len as usize;
        }
    }
}

/// The frozen pre-refactor reader: `BufReader` + per-record `read_exact`
/// into an owned workhorse buffer.
pub struct LegacyValueFileReader {
    input: FrameStrip,
    path: PathBuf,
    total: u64,
    produced: u64,
    current: Vec<u8>,
    requests: Arc<AtomicU64>,
}

fn corrupt(context: String, detail: String) -> ValueSetError {
    ValueSetError::Corrupt { context, detail }
}

impl LegacyValueFileReader {
    /// Opens the stream at `extent` (its own descriptor, positioned at the
    /// stream's first byte), recording I/O into `counters`.
    pub fn open(extent: &Extent, counters: &LegacyReadCounters) -> Result<Self> {
        let context = || extent.display().to_string();
        let mut file = std::fs::File::open(extent.file())?;
        file.seek(SeekFrom::Start(extent.offset()))?;
        let mut input = BufReader::new(CountingFile {
            file,
            os_reads: Arc::clone(&counters.os_reads),
        });
        let requests = Arc::clone(&counters.requests);
        let mut magic = [0u8; 4];
        requests.fetch_add(1, Ordering::Relaxed);
        input
            .read_exact(&mut magic)
            .map_err(|e| corrupt(context(), format!("short header: {e}")))?;
        if &magic != MAGIC {
            return Err(corrupt(context(), "bad magic".into()));
        }
        let mut v = [0u8; 4];
        requests.fetch_add(1, Ordering::Relaxed);
        input
            .read_exact(&mut v)
            .map_err(|e| corrupt(context(), format!("short header: {e}")))?;
        if u32::from_le_bytes(v) != VERSION {
            return Err(corrupt(context(), "unsupported version".into()));
        }
        let mut c = [0u8; 8];
        requests.fetch_add(1, Ordering::Relaxed);
        input
            .read_exact(&mut c)
            .map_err(|e| corrupt(context(), format!("short header: {e}")))?;
        // The v2 header carries its own CRC word; skipped unverified, like
        // every other checksum in this frozen shape.
        let mut header_crc = [0u8; 4];
        requests.fetch_add(1, Ordering::Relaxed);
        input
            .read_exact(&mut header_crc)
            .map_err(|e| corrupt(context(), format!("short header: {e}")))?;
        Ok(LegacyValueFileReader {
            input: FrameStrip {
                inner: input,
                frame_left: 0,
                crc_pending: false,
                done: false,
            },
            path: extent.label().to_path_buf(),
            total: u64::from_le_bytes(c),
            produced: 0,
            current: Vec::new(),
            requests,
        })
    }
}

impl ValueCursor for LegacyValueFileReader {
    fn advance(&mut self) -> Result<bool> {
        if self.produced >= self.total {
            return Ok(false);
        }
        let ctx = || self.path.display().to_string();
        let mut len_buf = [0u8; 4];
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.input
            .read_exact(&mut len_buf)
            .map_err(|e| corrupt(ctx(), format!("truncated record length: {e}")))?;
        let len = u32::from_le_bytes(len_buf) as usize;
        self.current.resize(len, 0);
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.input
            .read_exact(&mut self.current)
            .map_err(|e| corrupt(ctx(), format!("truncated record body: {e}")))?;
        self.produced += 1;
        Ok(true)
    }

    fn current(&self) -> &[u8] {
        &self.current
    }

    fn remaining(&self) -> u64 {
        self.total - self.produced
    }

    fn len(&self) -> u64 {
        self.total
    }
}

/// A [`ValueSetProvider`] over an existing export's value streams, opening
/// every cursor through the frozen legacy reader.
pub struct LegacyDiskProvider {
    paths: Vec<Extent>,
    counters: LegacyReadCounters,
}

impl LegacyDiskProvider {
    /// Reads the same streams as `export`, through the legacy reader shape.
    pub fn new(export: &ExportedDatabase) -> Self {
        LegacyDiskProvider {
            paths: export.attributes().iter().map(|a| a.path.clone()).collect(),
            counters: LegacyReadCounters::default(),
        }
    }

    /// The shared I/O counters.
    pub fn counters(&self) -> &LegacyReadCounters {
        &self.counters
    }
}

impl ValueSetProvider for LegacyDiskProvider {
    type Cursor = LegacyValueFileReader;

    fn open(&self, id: u32) -> Result<LegacyValueFileReader> {
        let path = self
            .paths
            .get(id as usize)
            .ok_or(ValueSetError::UnknownAttribute(id))?;
        LegacyValueFileReader::open(path, &self.counters)
    }

    fn attribute_count(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_storage::{ColumnSchema, DataType, Database, Table, TableSchema};
    use ind_testkit::TempDir;
    use ind_valueset::{collect_cursor, ExportOptions};

    #[test]
    fn legacy_reader_matches_the_block_reader_stream() {
        let mut db = Database::new("legacy-reader");
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnSchema::new("a", DataType::Integer),
                    ColumnSchema::new("b", DataType::Text),
                ],
            )
            .unwrap(),
        );
        for i in 0..200i64 {
            t.insert(vec![i.into(), format!("text-{}", i % 37).into()])
                .unwrap();
        }
        db.add_table(t).unwrap();
        let dir = TempDir::new("legacy-reader");
        let export = ExportedDatabase::export(&db, dir.path(), &ExportOptions::default()).unwrap();
        let legacy = LegacyDiskProvider::new(&export);
        assert_eq!(legacy.attribute_count(), export.attribute_count());
        for id in 0..export.attribute_count() as u32 {
            assert_eq!(
                collect_cursor(legacy.open(id).unwrap()).unwrap(),
                collect_cursor(export.open(id).unwrap()).unwrap(),
                "attribute {id}"
            );
        }
        // 4 header requests per open (v2 headers carry a CRC word) + 2 per
        // record; frame bookkeeping rides below the request counter.
        let values: u64 = export.attributes().iter().map(|a| a.distinct).sum();
        assert_eq!(
            legacy.counters().read_requests(),
            4 * export.attribute_count() as u64 + 2 * values
        );
        assert!(legacy.counters().os_read_calls() > 0);
        legacy.counters().reset();
        assert_eq!(legacy.counters().read_requests(), 0);
    }
}
