//! Segments: the unit of durable publication.
//!
//! A segment is one file holding the value streams of one batch back to
//! back, each stream byte for byte the v2 value file ([`crate::format`]) it
//! would be on its own. An export worker writes its streams into
//! `<segment>.tmp` and publishes the whole batch at once
//! ([`SegmentWriter::commit`]): one fsync, one rename, and — by the caller,
//! [`SegmentWriter::publish`] or the export manager — one directory fsync.
//! A stream is then addressed by its [`Extent`]: the segment and the byte
//! offset where the stream's header starts. A reader opens the segment
//! once and reads any number of extents of it with positional reads, so a
//! run holds one descriptor per segment, not one per attribute.
//!
//! A segment under its final name is complete and durable; anything ending
//! in `.tmp` is garbage the resume sweep may delete.

use crate::block::{IoOptions, ReadStats};
use crate::error::{Result, ValueSetError};
use crate::format::ValueFileWriter;
use std::collections::HashMap;
use std::fs::File;
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

/// The staging name of a file published by rename: `<path>.tmp`.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// A segment being written: streams go back to back into `<path>.tmp`
/// ([`SegmentWriter::stream`], [`SegmentWriter::seal`]), and
/// [`SegmentWriter::commit`] publishes them all under `path` at once. The
/// per-stream bytes are exactly those of a standalone value file;
/// publication changes where they lie, never what they are.
#[derive(Debug)]
pub struct SegmentWriter {
    file: Arc<File>,
    path: PathBuf,
    /// End of the last sealed stream: where the next one starts.
    len: u64,
    /// Labels of the sealed streams (an `fsync` rule may name any of them).
    streams: Vec<PathBuf>,
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

    /// A writer for the next stream, starting where the last sealed one
    /// ends. `name` labels it (`None`: the segment is a plain value file
    /// holding this one stream, labelled by its path). A writer dropped
    /// unsealed — its extraction failed — leaves bytes the next stream
    /// overwrites or the commit truncates.
    pub fn stream(&self, name: Option<&str>) -> ValueFileWriter {
        let extent = match name {
            Some(name) => Extent::new(&self.path, self.len, name),
            None => Extent::from(self.path.as_path()),
        };
        ValueFileWriter::at(Arc::clone(&self.file), extent, &self.io)
    }

    /// Seals `writer`'s stream (footer written, header patched) and returns
    /// its extent in the published segment.
    pub fn seal(&mut self, writer: ValueFileWriter) -> Result<Extent> {
        let (extent, bytes) = writer.finish_extent()?;
        debug_assert_eq!(extent.offset, self.len, "one stream at a time");
        self.len += bytes;
        self.streams.push(extent.label.clone());
        Ok(extent)
    }

    /// The commit of the batch, short of the directory fsync: cut off what
    /// an abandoned stream left past the last sealed one, fsync the
    /// segment, rename it to its final name. `Err` means nothing of this
    /// batch is published (the `.tmp` stays, an orphan); `Ok` means the
    /// segment is complete under its final name, durable once its
    /// directory is fsynced. Everything goes through [`crate::fault`].
    pub fn commit(self) -> Result<()> {
        let fault = self.io.fault.as_ref();
        let tmp = tmp_path(&self.path);
        self.file
            .set_len(self.len)
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
    pub(crate) fn get(&self, path: &Path, stats: &ReadStats) -> Result<Arc<File>> {
        let mut open = self
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(file) = open.get(path) {
            return Ok(Arc::clone(file));
        }
        let file = Arc::new(crate::fault::open_file(path)?);
        stats.bump_file_open();
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
            extents.push(segment.seal(writer).unwrap());
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
            assert_eq!(offset, published.len(), "nothing but the streams");
        }
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
        let extent = segment.seal(kept).unwrap();
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
        // then the rename: ordinal 5 is the rename of a two-stream batch.
        let dir = TempDir::new("segment-crash");
        let plan = Arc::new(FaultPlan::parse("write:*:crash=5").unwrap());
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
        let a = files.get(&path, &stats).unwrap();
        let b = files.get(&path, &stats).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(stats.file_opens(), 1);
        files.retain(|_| false);
        files.get(&path, &stats).unwrap();
        assert_eq!(stats.file_opens(), 2, "a closed segment is reopened");
        assert!(files.get(&dir.join("missing.indv"), &stats).is_err());
    }
}
