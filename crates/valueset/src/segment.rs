//! Segments: the unit of durable publication.
//!
//! A segment is one file holding the value streams of one batch back to
//! back, each stream byte for byte the v2 value file ([`crate::format`]) it
//! would be on its own, closed by a **trailer** that describes them. An
//! export worker writes its streams into `<segment>.tmp` and publishes the
//! whole batch at once ([`SegmentWriter::commit`]): the trailer is written,
//! then one fsync, one rename, and — by the caller,
//! [`SegmentWriter::publish`] or the export manager — one directory fsync.
//! A stream is then addressed by its [`Extent`]: the segment and the byte
//! offset where the stream's header starts. A reader opens the segment
//! once and reads any number of extents of it with positional reads, so a
//! run holds one descriptor per segment, not one per attribute.
//!
//! The trailer is the segment's own index: one [`TrailerEntry`] per named
//! stream (placement, identity, cardinalities, whole min/max bounds and the
//! source column's content hash), then a fixed 20-byte tail — the body's
//! byte length (u64), its CRC-32C (u32), the trailer version (u32) and the
//! magic `INDT`, all little-endian. [`read_trailer`] finds the body from
//! the tail, so a resumed export learns what a segment holds without a
//! second metadata file. A plain value file (one unnamed stream) has no
//! trailer: its bytes are exactly the stream's.
//!
//! A segment under its final name is complete and durable, and its trailer
//! vouches for every stream in it; anything ending in `.tmp` is garbage the
//! resume sweep may delete.
//!
//! The commit protocol is all there is to durability, but the fsync need
//! not find a whole segment in the page cache: the writers of its streams
//! are durable ([`SegmentWriter::stream`]), and a block flush that
//! completes whole MiB of the segment hands those MiB to the device at once
//! (`sync_file_range(SYNC_FILE_RANGE_WRITE)`, Linux only, a no-op
//! elsewhere). The commit's fsync then waits only for the tail. The hint
//! is advisory and not a fault op: no rule matches it, it takes no
//! `crash=N` ordinal, and the fsync still reports every write error.

use crate::block::{IoOptions, ReadStats};
use crate::crc32c::crc32c;
use crate::error::{Result, ValueSetError};
use crate::external_sort::SortStats;
use crate::fault::{FaultFile, FaultPlan};
use crate::format::ValueFileWriter;
use ind_storage::{DataType, QualifiedName};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A segment is committed once it holds this many bytes of streams, so a
/// stream larger than this always commits alone and a long export keeps
/// making durable progress. The whole batch cap: a worker holds one
/// segment descriptor however many streams it writes into it.
pub const BATCH_MAX_BYTES: u64 = 8 << 20;

/// Where one value stream lies: its file and the byte offset of its header
/// in it. A plain value file is the extent at offset 0 of itself
/// (`From<&Path>`); a stream inside a segment carries a label naming both,
/// `seg-00-0003.indv[attr-00001]`, which fault rules match and error
/// messages print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extent {
    file: PathBuf,
    offset: u64,
    label: PathBuf,
}

impl Extent {
    /// The stream `name` of the segment `file`, starting at byte `offset`.
    pub fn new(file: &Path, offset: u64, name: &str) -> Extent {
        let mut label = file.as_os_str().to_os_string();
        label.push(format!("[{name}]"));
        Extent {
            file: file.to_path_buf(),
            offset,
            label: PathBuf::from(label),
        }
    }

    /// The file holding the stream.
    pub fn file(&self) -> &Path {
        &self.file
    }

    /// Byte offset of the stream's header in [`Extent::file`].
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The stream's name for fault rules and errors: the file path, with
    /// `[name]` appended for a stream inside a segment.
    pub fn label(&self) -> &Path {
        &self.label
    }

    /// [`Extent::label`] for printing.
    pub fn display(&self) -> std::path::Display<'_> {
        self.label.display()
    }
}

impl From<&Path> for Extent {
    fn from(file: &Path) -> Extent {
        Extent {
            file: file.to_path_buf(),
            offset: 0,
            label: file.to_path_buf(),
        }
    }
}

impl From<&PathBuf> for Extent {
    fn from(file: &PathBuf) -> Extent {
        Extent::from(file.as_path())
    }
}

impl From<&Extent> for Extent {
    fn from(extent: &Extent) -> Extent {
        extent.clone()
    }
}

/// What a segment's trailer records of one named stream: where it lies,
/// and what a resumed export needs to reuse it without reading it — the
/// attribute's identity, the cardinalities and bounds the pretests read,
/// and the content hash of its source column. A writer's entry borrows
/// its names and bounds ([`TrailerEntry::new`]); [`read_trailer`]'s own
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrailerEntry<'a> {
    /// Dense attribute (or composite) id.
    pub id: u32,
    /// Byte offset of the stream's header in the segment.
    pub offset: u64,
    /// Byte size of the stream.
    pub file_bytes: u64,
    /// Records in the stream (its footer count).
    pub records: u64,
    /// Owning table name.
    pub table: Cow<'a, str>,
    /// Column name; a composite's component columns, joined by `,`.
    pub column: Cow<'a, str>,
    /// Declared column type.
    pub data_type: DataType,
    /// Rows in the owning table.
    pub rows: u64,
    /// Non-null occurrences, `|v(a)|`.
    pub non_null: u64,
    /// Distinct values, `|s(a)|`.
    pub distinct: u64,
    /// Content hash of the source column ([`SortStats::source_hash`]), so a
    /// stream is known stale when the input changes between runs.
    pub source_hash: u64,
    /// Smallest value, if any, whole.
    pub min: Option<Cow<'a, [u8]>>,
    /// Largest value, if any, whole.
    pub max: Option<Cow<'a, [u8]>>,
}

/// Magic closing every trailer.
const TRAILER_MAGIC: &[u8; 4] = b"INDT";

/// Trailer layout version (readers refuse others: the segment is swept).
const TRAILER_VERSION: u32 = 1;

/// Bytes of a trailer's fixed tail: body length, CRC, version, magic.
const TAIL_LEN: usize = 20;

/// The next `N` bytes of `input`, consumed.
fn take<const N: usize>(input: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = input.split_first_chunk::<N>()?;
    *input = rest;
    Some(*head)
}

fn word(input: &mut &[u8]) -> Option<u64> {
    take(input).map(u64::from_le_bytes)
}

/// A `u32`-length-prefixed byte string of `input`, consumed.
fn bytes<'a>(input: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u32::from_le_bytes(take(input)?);
    let (head, rest) = input.split_at_checked(usize::try_from(len).ok()?)?;
    *input = rest;
    Some(head)
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    // Names and values are bounded by `u32::MAX` bytes (the record length
    // prefix of the value format).
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

impl<'a> TrailerEntry<'a> {
    /// The entry of stream `id`, holding column `name` (of `data_type`, in
    /// a table of `rows` rows) as its extraction counted it in `stats`,
    /// borrowing both. Its placement is filled in by
    /// [`SegmentWriter::seal`].
    pub fn new(
        id: u32,
        name: &'a QualifiedName,
        data_type: DataType,
        rows: u64,
        stats: &'a SortStats,
    ) -> TrailerEntry<'a> {
        TrailerEntry {
            id,
            offset: 0,
            file_bytes: 0,
            records: 0,
            table: Cow::Borrowed(&name.table),
            column: Cow::Borrowed(&name.column),
            data_type,
            rows,
            non_null: stats.pushed,
            distinct: stats.distinct,
            source_hash: stats.source_hash,
            min: stats.min.as_deref().map(Cow::Borrowed),
            max: stats.max.as_deref().map(Cow::Borrowed),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        for word in [
            self.offset,
            self.file_bytes,
            self.records,
            self.rows,
            self.non_null,
            self.distinct,
            self.source_hash,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for text in [&*self.table, &*self.column, self.data_type.name()] {
            put_bytes(out, text.as_bytes());
        }
        for bound in [&self.min, &self.max] {
            match bound {
                None => out.push(0),
                Some(value) => {
                    out.push(1);
                    put_bytes(out, value);
                }
            }
        }
    }

    /// The inverse of [`TrailerEntry::encode`], consuming one entry of
    /// `input`; `None` for anything that is not one.
    fn decode(input: &mut &[u8]) -> Option<TrailerEntry<'static>> {
        let text = |input: &mut &[u8]| std::str::from_utf8(bytes(input)?).ok().map(str::to_string);
        let bound = |input: &mut &[u8]| match take(input)? {
            [0] => Some(None),
            [1] => Some(Some(Cow::Owned(bytes(input)?.to_vec()))),
            _ => None,
        };
        Some(TrailerEntry {
            id: u32::from_le_bytes(take(input)?),
            offset: word(input)?,
            file_bytes: word(input)?,
            records: word(input)?,
            rows: word(input)?,
            non_null: word(input)?,
            distinct: word(input)?,
            source_hash: word(input)?,
            table: text(input)?.into(),
            column: text(input)?.into(),
            data_type: DataType::from_name(&text(input)?)?,
            min: bound(input)?,
            max: bound(input)?,
        })
    }
}

/// The trailer describing `entries`: their encodings back to back, then
/// the tail.
#[cfg(test)]
pub(crate) fn encode_trailer(entries: &[TrailerEntry]) -> Vec<u8> {
    let mut body = Vec::new();
    for entry in entries {
        entry.encode(&mut body);
    }
    close_trailer(body)
}

/// The trailer of the encoded entries `body`: the body, then the tail.
fn close_trailer(mut trailer: Vec<u8>) -> Vec<u8> {
    let (body_len, crc) = (trailer.len() as u64, crc32c(&trailer));
    trailer.extend_from_slice(&body_len.to_le_bytes());
    trailer.extend_from_slice(&crc.to_le_bytes());
    trailer.extend_from_slice(&TRAILER_VERSION.to_le_bytes());
    trailer.extend_from_slice(TRAILER_MAGIC);
    trailer
}

/// The body length and CRC a trailer's tail records; `None` unless the
/// tail ends in this trailer version and its magic.
fn parse_tail(mut tail: &[u8]) -> Option<(u64, u32)> {
    let body_len = word(&mut tail)?;
    let crc = u32::from_le_bytes(take(&mut tail)?);
    let version = u32::from_le_bytes(take(&mut tail)?);
    (version == TRAILER_VERSION && take(&mut tail)? == *TRAILER_MAGIC).then_some((body_len, crc))
}

/// The label of `segment`'s trailer for fault rules and errors:
/// `seg-00-0003.indv[trailer]`.
fn trailer_label(segment: &Path) -> PathBuf {
    Extent::new(segment, 0, "trailer").label
}

/// Every entry of the trailer of the segment at `path`, in stream order.
/// `Err` when the segment has no trailer or a torn or corrupt one (a tail
/// without the magic, a body length past the file, a CRC mismatch, a body
/// that is not whole entries): such a segment vouches for nothing. Reads
/// go through [`crate::fault`] under the label `<path>[trailer]`, read
/// offsets counting from the trailer's first byte.
pub fn read_trailer(
    path: &Path,
    fault: Option<&Arc<FaultPlan>>,
) -> Result<Vec<TrailerEntry<'static>>> {
    let label = trailer_label(path);
    let corrupt = |detail: &str| ValueSetError::Corrupt {
        context: label.display().to_string(),
        detail: detail.to_string(),
    };
    crate::fault::check_open(&label, fault)?;
    let file = crate::fault::open_file(path)?;
    let io = |e| ValueSetError::Io(crate::fault::annotate(&label, e));
    // The tail says where the trailer starts; the whole trailer, tail
    // included, is then read through the fault layer and checked.
    let len = file.metadata().map_err(io)?.len();
    let mut tail = [0u8; TAIL_LEN];
    let tail_at = len
        .checked_sub(TAIL_LEN as u64)
        .ok_or_else(|| corrupt("no trailer"))?;
    file.read_exact_at(&mut tail, tail_at).map_err(io)?;
    let (body_len, _) = parse_tail(&tail).ok_or_else(|| corrupt("no trailer"))?;
    let start = tail_at
        .checked_sub(body_len)
        .ok_or_else(|| corrupt("trailer longer than its segment"))?;
    let size = usize::try_from(len - start).map_err(|_| corrupt("trailer too large"))?;
    let mut trailer = vec![0u8; size];
    FaultFile::new(Arc::new(file), &label, start, fault.cloned(), None)
        .read_exact(&mut trailer)
        .map_err(ValueSetError::Io)?;
    let (mut body, tail) = trailer.split_at(trailer.len() - TAIL_LEN);
    if parse_tail(tail) != Some((body_len, crc32c(body))) {
        return Err(corrupt("torn or corrupt trailer"));
    }
    let mut entries = Vec::new();
    while !body.is_empty() {
        entries.push(TrailerEntry::decode(&mut body).ok_or_else(|| corrupt("malformed entry"))?);
    }
    Ok(entries)
}

/// The staging name of a file published by rename: `<path>.tmp`.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// A segment being written: streams go back to back into `<path>.tmp`
/// ([`SegmentWriter::stream`], [`SegmentWriter::seal`]), and
/// [`SegmentWriter::commit`] publishes them all under `path` at once,
/// behind the trailer describing them. The per-stream bytes are exactly
/// those of a standalone value file; publication changes where they lie,
/// never what they are.
#[derive(Debug)]
pub struct SegmentWriter {
    file: Arc<File>,
    path: PathBuf,
    /// End of the last sealed stream: where the next one starts.
    len: u64,
    /// Labels of the sealed streams (an `fsync` rule may name any of them).
    streams: Vec<PathBuf>,
    /// The trailer body: the encoded entry of every named stream sealed.
    trailer: Vec<u8>,
    io: IoOptions,
}

impl SegmentWriter {
    /// Creates (truncates) `<path>.tmp` for a segment to be published as
    /// `path`. Writers of its streams use `io`.
    pub fn create(path: &Path, io: &IoOptions) -> Result<SegmentWriter> {
        let tmp = tmp_path(path);
        crate::fault::check_open(&tmp, io.fault.as_ref())?;
        Ok(SegmentWriter {
            file: Arc::new(crate::fault::create_file(&tmp)?),
            path: path.to_path_buf(),
            len: 0,
            streams: Vec::new(),
            trailer: Vec::new(),
            io: io.clone(),
        })
    }

    /// The name the segment is published under.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of sealed streams.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True while no stream is sealed.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// True once the segment holds [`BATCH_MAX_BYTES`] and must be
    /// committed before it takes another stream.
    pub fn is_full(&self) -> bool {
        self.len >= BATCH_MAX_BYTES
    }

    /// A durable writer for the next stream, starting where the last
    /// sealed one ends: its block flushes start the writeback of every
    /// whole MiB of the segment they complete. `name` labels it (`None`:
    /// the segment is a plain value file holding this one stream, labelled
    /// by its path). A writer dropped unsealed — its extraction failed —
    /// leaves bytes the next stream overwrites or the commit truncates.
    pub fn stream(&self, name: Option<&str>) -> ValueFileWriter {
        let extent = match name {
            Some(name) => Extent::new(&self.path, self.len, name),
            None => Extent::from(self.path.as_path()),
        };
        ValueFileWriter::durable_at(Arc::clone(&self.file), extent, &self.io)
    }

    /// Seals `writer`'s stream (footer written, header patched) and returns
    /// its extent in the published segment. A named stream comes with its
    /// `entry`, which the segment's trailer records with the stream's
    /// placement (offset, byte size, record count) filled in; `None` seals
    /// the one unnamed stream of a plain value file, which gets no trailer.
    pub fn seal(&mut self, writer: ValueFileWriter, entry: Option<TrailerEntry>) -> Result<Extent> {
        let records = writer.count();
        let (extent, bytes) = writer.finish_extent()?;
        debug_assert_eq!(extent.offset, self.len, "one stream at a time");
        if let Some(entry) = entry {
            TrailerEntry {
                offset: extent.offset,
                file_bytes: bytes,
                records,
                ..entry
            }
            .encode(&mut self.trailer);
        }
        self.len += bytes;
        self.streams.push(extent.label.clone());
        Ok(extent)
    }

    /// The commit of the batch, short of the directory fsync: write the
    /// trailer right after the last sealed stream (over whatever an
    /// abandoned stream left there) and cut the file at its end, fsync the
    /// segment, rename it to its final name. `Err` means nothing of this
    /// batch is published (the `.tmp` stays, an orphan); `Ok` means the
    /// segment is complete under its final name, trailer included, durable
    /// once its directory is fsynced. Everything goes through
    /// [`crate::fault`]; the trailer is written under the label
    /// `<path>[trailer]`.
    pub fn commit(self) -> Result<()> {
        let fault = self.io.fault.as_ref();
        let tmp = tmp_path(&self.path);
        let mut end = self.len;
        if !self.trailer.is_empty() {
            let trailer = close_trailer(self.trailer);
            let label = trailer_label(&self.path);
            let stats = self.io.stats.as_ref();
            crate::fault::write_all_at(&self.file, &trailer, self.len, &label, fault, stats)?;
            end += trailer.len() as u64;
        }
        self.file
            .set_len(end)
            .map_err(|e| ValueSetError::Io(crate::fault::annotate(&tmp, e)))?;
        crate::fault::sync_all(&self.file, &tmp, &self.streams, fault)?;
        crate::fault::rename(&tmp, &self.path, fault)?;
        Ok(())
    }

    /// [`SegmentWriter::commit`] followed by the directory fsync that
    /// makes the rename durable: the whole publication of a segment whose
    /// caller has nothing else to record.
    pub fn publish(self) -> Result<()> {
        let dir = match self.path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let fault = self.io.fault.clone();
        self.commit()?;
        crate::fault::sync_dir(&dir, fault.as_ref())?;
        Ok(())
    }

    /// Drops a segment that will not be published, and its `.tmp`.
    pub fn discard(self) {
        // lint: allow(swallowed_result) — an unpublished stage is garbage by construction; the resume sweep deletes it too
        let _ = std::fs::remove_file(tmp_path(&self.path));
    }
}

/// The read descriptors of an export's segments: each is opened once, by
/// the first cursor that needs it, and shared by every cursor after it
/// (reads are positional, so cursors never share a file position).
#[derive(Debug, Default)]
pub(crate) struct SegmentFiles(Mutex<HashMap<PathBuf, Arc<File>>>);

impl SegmentFiles {
    /// The descriptor of `path`, opened (and counted into `stats`) on
    /// first use.
    pub(crate) fn get(&self, path: &Path, stats: Option<&ReadStats>) -> Result<Arc<File>> {
        let mut open = self
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(file) = open.get(path) {
            return Ok(Arc::clone(file));
        }
        let file = Arc::new(crate::fault::open_file(path)?);
        if let Some(stats) = stats {
            stats.bump_file_open();
        }
        open.insert(path.to_path_buf(), Arc::clone(&file));
        Ok(file)
    }

    /// Closes every descriptor whose segment `keep` rejects.
    pub(crate) fn retain(&self, keep: impl Fn(&Path) -> bool) {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .retain(|path, _| keep(path));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect_cursor;
    use crate::fault::FaultPlan;
    use crate::format::{write_value_file, ValueFileReader};
    use ind_testkit::TempDir;

    fn bytes(items: &[&str]) -> Vec<Vec<u8>> {
        items.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    /// Writes `sets` as the streams `s0`, `s1`, … of one segment.
    fn write_segment(
        path: &Path,
        sets: &[Vec<Vec<u8>>],
        io: &IoOptions,
    ) -> (SegmentWriter, Vec<Extent>) {
        let mut segment = SegmentWriter::create(path, io).unwrap();
        let mut extents = Vec::new();
        for (i, values) in sets.iter().enumerate() {
            let mut writer = segment.stream(Some(&format!("s{i}")));
            for v in values {
                writer.append(v).unwrap();
            }
            let stats = SortStats {
                distinct: values.len() as u64,
                min: values.first().cloned(),
                max: values.last().cloned(),
                ..SortStats::default()
            };
            let name = QualifiedName::new("t", format!("c{i}"));
            let entry = TrailerEntry::new(i as u32, &name, DataType::Text, 3, &stats);
            extents.push(segment.seal(writer, Some(entry)).unwrap());
        }
        (segment, extents)
    }

    #[test]
    fn every_stream_of_a_segment_is_the_standalone_file_byte_for_byte() {
        let dir = TempDir::new("segment-identity");
        let sets = [
            bytes(&["alpha", "beta", "gamma"]),
            Vec::new(),
            (0..2000u32)
                .map(|i| format!("{i:08}").into_bytes())
                .collect(),
            bytes(&["z"]),
        ];
        for block_size in [32usize, 4096, 1 << 20] {
            let io = IoOptions::with_block_size(block_size);
            let path = dir.join(&format!("seg-{block_size}.indv"));
            let (segment, extents) = write_segment(&path, &sets, &io);
            assert!(!path.exists(), "invisible until published");
            segment.publish().unwrap();
            assert!(path.exists() && !tmp_path(&path).exists());
            let published = std::fs::read(&path).unwrap();
            let mut offset = 0;
            for (i, (values, extent)) in sets.iter().zip(&extents).enumerate() {
                let plain = dir.join(&format!("plain-{i}.indv"));
                write_value_file(&plain, values).unwrap();
                let expected = std::fs::read(&plain).unwrap();
                assert_eq!(extent.offset(), offset as u64, "back to back");
                assert_eq!(&published[offset..offset + expected.len()], &expected[..]);
                offset += expected.len();
                assert_eq!(
                    extent.label(),
                    dir.join(&format!("seg-{block_size}.indv[s{i}]"))
                );
                let read = ValueFileReader::open_with_options(extent, &io).unwrap();
                assert_eq!(collect_cursor(read).unwrap(), *values, "block {block_size}");
            }
            let entries = read_trailer(&path, None).unwrap();
            assert_eq!(entries.len(), sets.len());
            for (i, (entry, extent)) in entries.iter().zip(&extents).enumerate() {
                assert_eq!((entry.id, entry.offset), (i as u32, extent.offset()));
                assert_eq!(
                    (entry.records, &*entry.column),
                    (sets[i].len() as u64, &*format!("c{i}"))
                );
                assert_eq!(entry.max.as_deref(), sets[i].last().map(Vec::as_slice));
            }
            assert_eq!(
                published[offset..],
                encode_trailer(&entries),
                "the streams, then their trailer"
            );
        }
    }

    #[test]
    fn the_streams_of_a_segment_start_writeback_a_whole_mib_at_a_time() {
        const MIB: u64 = 1 << 20;
        let dir = TempDir::new("segment-writeback");
        let io = IoOptions::default();
        let path = dir.join("seg.indv");
        // One stream ends mid-MiB; the next starts there, and its flushes
        // hand over the MiB they complete, the first stream's bytes too.
        let first = vec![vec![vec![b'a'; (MIB + MIB / 2) as usize]]];
        let (segment, _) = write_segment(&path, &first, &io);
        let at = segment.len();
        let second = segment.stream(Some("s1"));
        assert_eq!(second.writeback_range(at, at + 4096), None);
        assert_eq!(second.writeback_range(at, 2 * MIB), Some(MIB..2 * MIB));
        let plain = segment.stream(None);
        assert_eq!(plain.writeback_range(0, 5 * MIB / 2), Some(0..2 * MIB));
    }

    #[test]
    fn a_segment_fills_by_bytes_alone() {
        let dir = TempDir::new("segment-full");
        let io = IoOptions::default();
        let tiny: Vec<Vec<Vec<u8>>> = (0..1000).map(|_| bytes(&["x"])).collect();
        let (segment, _) = write_segment(&dir.join("many.indv"), &tiny, &io);
        assert!(!segment.is_full(), "no stream count caps a batch");
        assert!(!segment.is_empty() && segment.len() < BATCH_MAX_BYTES);
        segment.discard();
        assert!(!tmp_path(&dir.join("many.indv")).exists(), "discarded");

        // One stream past the byte cap is a batch of one.
        let big = vec![vec![vec![b'v'; BATCH_MAX_BYTES as usize]]];
        let (segment, extents) = write_segment(&dir.join("big.indv"), &big, &io);
        assert!(segment.is_full(), "the byte cap");
        segment.publish().unwrap();
        assert_eq!(
            collect_cursor(ValueFileReader::open(&extents[0]).unwrap()).unwrap(),
            big[0]
        );
    }

    #[test]
    fn an_abandoned_stream_is_overwritten_and_cut_off() {
        let dir = TempDir::new("segment-abandoned");
        let io = IoOptions::with_block_size(32);
        let path = dir.join("seg.indv");
        let mut segment = SegmentWriter::create(&path, &io).unwrap();
        let mut lost = segment.stream(Some("lost"));
        for i in 0..500u32 {
            lost.append(format!("{i:08}").as_bytes()).unwrap();
        }
        drop(lost); // its extraction failed: thousands of bytes already flushed
        let mut kept = segment.stream(Some("kept"));
        kept.append(b"only").unwrap();
        let extent = segment.seal(kept, None).unwrap();
        assert_eq!(
            extent.offset(),
            0,
            "the next stream starts where the lost one did"
        );
        let mut tail = segment.stream(Some("tail"));
        for i in 0..500u32 {
            tail.append(format!("{i:08}").as_bytes()).unwrap();
        }
        drop(tail);
        segment.publish().unwrap();
        let plain = dir.join("plain.indv");
        write_value_file(&plain, &[b"only".to_vec()]).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&plain).unwrap()
        );
    }

    #[test]
    fn every_cut_and_every_flip_of_a_trailer_is_refused() {
        // A segment cut anywhere inside its trailer, or with one bit of any
        // trailer byte flipped — on disk, or by a `read:` rule on its way
        // in — has no trailer: `read_trailer` says so and hands back no
        // entry at all.
        let dir = TempDir::new("segment-trailer-fuzz");
        let path = dir.join("seg.indv");
        let sets = [bytes(&["a", "b"]), Vec::new(), bytes(&["zz"])];
        let (segment, _) = write_segment(&path, &sets, &IoOptions::default());
        segment.publish().unwrap();
        let published = std::fs::read(&path).unwrap();
        let start = published.len() - encode_trailer(&read_trailer(&path, None).unwrap()).len();
        let broken = dir.join("broken.indv");
        for cut in start..published.len() {
            std::fs::write(&broken, &published[..cut]).unwrap();
            assert!(read_trailer(&broken, None).is_err(), "cut at {cut}");
        }
        for at in start..published.len() {
            let mut flipped = published.clone();
            flipped[at] ^= 1 << (at % 8);
            std::fs::write(&broken, &flipped).unwrap();
            assert!(read_trailer(&broken, None).is_err(), "flip at {at}");
            let rule = format!("read:[trailer]:flip={}", at - start);
            let plan = Arc::new(FaultPlan::parse(&rule).unwrap());
            assert!(read_trailer(&path, Some(&plan)).is_err(), "{rule}");
            assert_eq!(plan.fired_count(), 1, "{rule}");
        }
        assert!(
            read_trailer(&path, None).is_ok(),
            "the segment itself is intact"
        );
    }

    #[test]
    fn a_failed_segment_fsync_publishes_nothing_and_names_the_segment() {
        let dir = TempDir::new("segment-fsync");
        let plan = Arc::new(FaultPlan::parse("fsync:[s1]:fail").unwrap());
        let io = IoOptions::default().with_fault(plan);
        let path = dir.join("seg.indv");
        let (segment, _) = write_segment(&path, &[bytes(&["a"]), bytes(&["b"])], &io);
        let err = segment.publish().unwrap_err();
        assert!(err.to_string().contains("injected fsync"), "{err}");
        assert!(err.to_string().contains("seg.indv.tmp"), "{err}");
        assert!(!path.exists() && tmp_path(&path).exists(), "never renamed");
    }

    #[test]
    fn a_crash_at_the_rename_leaves_the_batch_staged() {
        // Two writes per small stream (the block flush, the header patch),
        // then the trailer (5) and the rename: ordinal 6 is the rename of a
        // two-stream batch.
        let dir = TempDir::new("segment-crash");
        let plan = Arc::new(FaultPlan::parse("write:*:crash=6").unwrap());
        let io = IoOptions::default().with_fault(plan);
        let path = dir.join("seg.indv");
        let (segment, _) = write_segment(&path, &[bytes(&["a"]), bytes(&["b"])], &io);
        let err = segment.publish().unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(!path.exists() && tmp_path(&path).exists());
    }

    #[test]
    fn a_segment_descriptor_is_opened_once() {
        let dir = TempDir::new("segment-files");
        let path = dir.join("seg.indv");
        std::fs::write(&path, b"x").unwrap();
        let (files, stats) = (SegmentFiles::default(), ReadStats::new());
        let a = files.get(&path, Some(&stats)).unwrap();
        let b = files.get(&path, Some(&stats)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(stats.file_opens(), 1);
        files.retain(|_| false);
        files.get(&path, Some(&stats)).unwrap();
        assert_eq!(stats.file_opens(), 2, "a closed segment is reopened");
        assert!(files.get(&dir.join("missing.indv"), Some(&stats)).is_err());
    }
}
