//! The value-file format v2 frame layer: CRC-verified 4 KiB frames.
//!
//! A raw stream of length-prefixed records (format v1, no longer read)
//! serves any flipped bit or torn write that keeps the length prefixes
//! self-consistent as *data*. Version 2 wraps the identical logical stream
//! in checksummed frames so corruption is detected before a single byte
//! reaches a consumer:
//!
//! ```text
//! header  "INDV" | version=2 u32 LE | count u64 LE | header CRC32C u32 LE   20 B
//! frame*  payload_len u16 LE (1..=4096) | payload | CRC32C(payload) u32 LE
//! footer  0xFFFF u16 | count u64 LE | payload bytes u64 LE
//!         | CRC32C(frame-CRC words) u32 LE | "INDF"                        26 B
//! ```
//!
//! Every frame except the last carries exactly [`FRAME_PAYLOAD`] payload
//! bytes, so the logical stream (and therefore the bytes a
//! [`crate::ValueFileReader`] sees) is independent of the I/O block size.
//! The footer's sentinel length
//! `0xFFFF` is unreachable by a real frame, so truncation at a frame
//! boundary is "file ends before the footer", not silence; its whole-file
//! checksum is a CRC *of the frame CRCs*, giving end-to-end coverage for
//! one extra pass over 4 bytes per frame.
//!
//! [`FrameStream`] is the decoder: a [`Read`] adapter between the
//! fault-injectable [`FaultFile`] and [`crate::BlockReader`] that sniffs
//! the header, buffers one frame at a time, verifies its CRC, and only
//! then serves the payload. Verification therefore happens *below* the
//! block buffer, and a corrupt frame surfaces to the cursor as an error —
//! never as wrong bytes. A file without a v2 header passes through
//! untouched so the format layer can reject its header with the file's
//! context (bad magic, short header, `unsupported version 1`): every byte
//! a [`crate::ValueFileReader`] serves has passed a CRC.

use std::io::{self, Read};

use crate::block::ReadStats;
use crate::crc32c::{crc32c, Crc32c};
use crate::fault::FaultFile;

/// Format v2 header length: the 16-byte logical header plus a header CRC.
pub(crate) const V2_HEADER_LEN: usize = 20;

/// The version number that selects the frame layer.
pub(crate) const V2_VERSION: u32 = 2;

/// Payload bytes per full frame. Fixed (not tied to the I/O block size)
/// so the logical stream is block-size-independent.
pub(crate) const FRAME_PAYLOAD: usize = 4096;

/// Frame length-prefix bytes.
pub(crate) const FRAME_LEN_PREFIX: usize = 2;

/// Frame trailer: the payload's CRC32C.
pub(crate) const FRAME_CRC_LEN: usize = 4;

/// Length-prefix value marking the footer. A real frame's length is at
/// most [`FRAME_PAYLOAD`], so the sentinel is unreachable by data.
pub(crate) const FOOTER_SENTINEL: u16 = 0xFFFF;

/// Footer bytes after the sentinel: count, payload bytes, whole-file
/// CRC, closing magic.
pub(crate) const FOOTER_BODY_LEN: usize = 8 + 8 + 4 + 4;

/// Closing magic sealing a complete v2 file.
pub(crate) const FOOTER_MAGIC: &[u8; 4] = b"INDF";

/// Physical bytes a v2 file spends on framing beyond the logical stream
/// (16-byte header + payload): the physical size of a v2 file holding
/// `payload` logical bytes is `HEADER_LEN + payload + v2_overhead(payload)`.
pub(crate) fn v2_overhead(payload: u64) -> u64 {
    let frames = payload.div_ceil(FRAME_PAYLOAD as u64);
    let per_frame = (FRAME_LEN_PREFIX + FRAME_CRC_LEN) as u64;
    (V2_HEADER_LEN - crate::format::HEADER_LEN) as u64
        + frames * per_frame
        + (FRAME_LEN_PREFIX + FOOTER_BODY_LEN) as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Header not yet inspected.
    Sniff,
    /// Not a v2 file: bytes flow through untouched, for the format layer
    /// to reject.
    Passthrough,
    /// Decoding v2 frames.
    Frames,
    /// Footer consumed and verified: the logical stream has ended.
    Finished,
}

/// A [`Read`] adapter that strips and verifies v2 framing (and passes
/// anything else through). The logical stream it serves for a v2 file is
/// the 20-byte header followed by the pure payload — exactly what the
/// format layer parses — and no payload byte is served before its frame's
/// checksum has been verified.
#[derive(Debug)]
pub(crate) struct FrameStream {
    file: FaultFile,
    mode: Mode,
    /// Sniffed header bytes, served before anything else.
    head: [u8; V2_HEADER_LEN],
    head_len: usize,
    head_pos: usize,
    /// One decoded frame's payload (v2 mode only; allocated lazily once).
    stage: Vec<u8>,
    stage_len: usize,
    stage_pos: usize,
    verify: bool,
    frames_seen: u64,
    payload_seen: u64,
    /// Absolute file offset of the next frame's length prefix.
    raw_pos: u64,
    /// Record count from the header, cross-checked against the footer.
    header_count: u64,
    /// Running CRC over the frames' stored CRC words.
    crc_chain: Crc32c,
    stats: Option<ReadStats>,
}

impl FrameStream {
    pub(crate) fn new(file: FaultFile, verify: bool, stats: Option<ReadStats>) -> FrameStream {
        FrameStream {
            file,
            mode: Mode::Sniff,
            head: [0; V2_HEADER_LEN],
            head_len: 0,
            head_pos: 0,
            // lint: allow(hot_alloc) — empty placeholder; sized lazily on the first v2 frame
            stage: Vec::new(),
            stage_len: 0,
            stage_pos: 0,
            verify,
            frames_seen: 0,
            payload_seen: 0,
            raw_pos: V2_HEADER_LEN as u64,
            header_count: 0,
            crc_chain: Crc32c::new(),
            stats,
        }
    }

    fn corrupt(&self, detail: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            // lint: allow(hot_alloc) — cold error path
            format!(
                "value file {}: frame {} (file offset {}): {detail}",
                self.file.path().display(),
                self.frames_seen,
                self.raw_pos,
            ),
        )
    }

    /// Reads the first (up to) 20 bytes and decides the mode.
    fn sniff(&mut self) -> io::Result<()> {
        debug_assert_eq!(self.mode, Mode::Sniff);
        self.head_len = read_full(&mut self.file, &mut self.head)?;
        let v2 = self.head_len == V2_HEADER_LEN
            && &self.head[..4] == crate::format::MAGIC
            && u32::from_le_bytes([self.head[4], self.head[5], self.head[6], self.head[7]])
                == V2_VERSION;
        if v2 {
            self.header_count = u64::from_le_bytes(
                self.head[8..16].try_into().expect("8-byte slice"), // lint: allow(no_unwrap) — fixed-size slice of a fixed-size array
            );
            self.mode = Mode::Frames;
        } else {
            // Header integrity for v2 is the reader's job (it has the
            // error context); everything non-v2 is served verbatim.
            self.mode = Mode::Passthrough;
        }
        Ok(())
    }

    /// Decodes the next frame into the stage (or consumes the footer).
    /// Returns the staged payload length; 0 means the stream has ended.
    fn load_frame(&mut self) -> io::Result<usize> {
        self.stage_pos = 0;
        self.stage_len = 0;
        if self.stage.len() < FRAME_PAYLOAD + FRAME_CRC_LEN {
            // One-time stage allocation per v2 reader, zero-filled once.
            self.stage.resize(FRAME_PAYLOAD + FRAME_CRC_LEN, 0);
        }
        let mut len_buf = [0u8; FRAME_LEN_PREFIX];
        match read_full(&mut self.file, &mut len_buf)? {
            0 => return Err(self.corrupt("file ends before the footer (truncated)")),
            FRAME_LEN_PREFIX => {}
            _ => return Err(self.corrupt("file ends inside a frame length prefix")),
        }
        let len = u16::from_le_bytes(len_buf);
        if len == FOOTER_SENTINEL {
            self.read_footer()?;
            self.mode = Mode::Finished;
            return Ok(0);
        }
        let len = len as usize;
        if len == 0 || len > FRAME_PAYLOAD {
            return Err(self.corrupt("invalid frame payload length"));
        }
        let body = &mut self.stage[..len + FRAME_CRC_LEN];
        let got = read_full(&mut self.file, body)?;
        if got < body.len() {
            return Err(self.corrupt("file ends inside a frame"));
        }
        let stored = &body[len..];
        if self.verify {
            let computed = crc32c(&body[..len]);
            let stored_word = u32::from_le_bytes(stored.try_into().expect("4-byte slice")); // lint: allow(no_unwrap) — slice is exactly FRAME_CRC_LEN bytes
            if computed != stored_word {
                if let Some(stats) = &self.stats {
                    stats.bump_checksum_failure();
                }
                return Err(self.corrupt("frame checksum mismatch"));
            }
        }
        self.crc_chain.update(stored);
        self.frames_seen += 1;
        self.payload_seen += len as u64;
        self.raw_pos += (FRAME_LEN_PREFIX + len + FRAME_CRC_LEN) as u64;
        self.stage_len = len;
        Ok(len)
    }

    /// Reads and (when verifying) checks the 24 footer bytes after the
    /// sentinel.
    fn read_footer(&mut self) -> io::Result<()> {
        let mut footer = [0u8; FOOTER_BODY_LEN];
        if read_full(&mut self.file, &mut footer)? < FOOTER_BODY_LEN {
            return Err(self.corrupt("file ends inside the footer"));
        }
        if !self.verify {
            return Ok(());
        }
        let count = u64::from_le_bytes(footer[0..8].try_into().expect("8-byte slice")); // lint: allow(no_unwrap) — fixed-size slice
        let payload = u64::from_le_bytes(footer[8..16].try_into().expect("8-byte slice")); // lint: allow(no_unwrap) — fixed-size slice
        let whole = u32::from_le_bytes(footer[16..20].try_into().expect("4-byte slice")); // lint: allow(no_unwrap) — fixed-size slice
        if &footer[20..24] != FOOTER_MAGIC {
            return Err(self.corrupt("bad footer magic"));
        }
        if count != self.header_count {
            return Err(self.corrupt("footer record count disagrees with the header"));
        }
        if payload != self.payload_seen {
            return Err(self.corrupt("footer byte count disagrees with the frames"));
        }
        if whole != self.crc_chain.finish() {
            if let Some(stats) = &self.stats {
                stats.bump_checksum_failure();
            }
            return Err(self.corrupt("whole-file checksum mismatch"));
        }
        Ok(())
    }
}

impl Read for FrameStream {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        loop {
            if self.head_pos < self.head_len {
                let n = out.len().min(self.head_len - self.head_pos);
                out[..n].copy_from_slice(&self.head[self.head_pos..self.head_pos + n]);
                self.head_pos += n;
                return Ok(n);
            }
            match self.mode {
                Mode::Sniff => self.sniff()?,
                Mode::Passthrough => return self.file.read(out),
                Mode::Frames => {
                    if self.stage_pos < self.stage_len {
                        let n = out.len().min(self.stage_len - self.stage_pos);
                        out[..n].copy_from_slice(&self.stage[self.stage_pos..self.stage_pos + n]);
                        self.stage_pos += n;
                        return Ok(n);
                    }
                    if self.load_frame()? == 0 {
                        return Ok(0);
                    }
                }
                Mode::Finished => return Ok(0),
            }
        }
    }
}

/// Reads until `buf` is full or the stream ends; returns bytes read.
fn read_full(file: &mut FaultFile, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        let n = file.read(&mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_testkit::TempDir;

    /// Hand-assembles a v2 file around `payload` (decoder-independent of
    /// the writer, so each side checks the other).
    fn v2_file(count: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(crate::format::MAGIC);
        out.extend_from_slice(&V2_VERSION.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        let head_crc = crc32c(&out);
        out.extend_from_slice(&head_crc.to_le_bytes());
        let mut chain = Crc32c::new();
        for chunk in payload.chunks(FRAME_PAYLOAD) {
            out.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
            out.extend_from_slice(chunk);
            let crc = crc32c(chunk);
            out.extend_from_slice(&crc.to_le_bytes());
            chain.update(&crc.to_le_bytes());
        }
        out.extend_from_slice(&FOOTER_SENTINEL.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&chain.finish().to_le_bytes());
        out.extend_from_slice(FOOTER_MAGIC);
        out
    }

    fn stream(bytes: &[u8], verify: bool, stats: Option<ReadStats>) -> FrameStream {
        let dir = TempDir::new("frame-stream");
        let path = dir.join("data.indv");
        std::fs::write(&path, bytes).unwrap();
        let file = FaultFile::new(
            std::sync::Arc::new(std::fs::File::open(&path).unwrap()),
            &path,
            0,
            None,
            stats.clone(),
        );
        FrameStream::new(file, verify, stats)
    }

    fn drain(mut s: FrameStream) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        s.read_to_end(&mut out)?;
        Ok(out)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn v2_framing_is_stripped_and_the_header_served_verbatim() {
        for n in [
            0,
            1,
            100,
            FRAME_PAYLOAD - 1,
            FRAME_PAYLOAD,
            3 * FRAME_PAYLOAD + 7,
        ] {
            let data = payload(n);
            let raw = v2_file(42, &data);
            let logical = drain(stream(&raw, true, None)).unwrap();
            assert_eq!(&logical[..V2_HEADER_LEN], &raw[..V2_HEADER_LEN]);
            assert_eq!(&logical[V2_HEADER_LEN..], &data[..], "payload of {n} bytes");
            assert_eq!(
                raw.len() as u64,
                (crate::format::HEADER_LEN + n) as u64 + v2_overhead(n as u64),
                "v2_overhead predicts the physical size over the logical stream"
            );
        }
    }

    #[test]
    fn non_v2_bytes_pass_through_untouched() {
        for raw in [
            &b""[..],
            b"short",
            b"NOPE_with_20_or_more_bytes_of_junk",
            // A v1-looking header: magic + version 1 + count.
            &[
                b'I', b'N', b'D', b'V', 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 1, 2,
            ][..],
        ] {
            assert_eq!(drain(stream(raw, true, None)).unwrap(), raw);
        }
    }

    #[test]
    fn every_bit_flip_after_the_header_is_detected() {
        let data = payload(300);
        let raw = v2_file(7, &data);
        let stats = ReadStats::new();
        for byte in V2_HEADER_LEN..raw.len() {
            let mut bad = raw.clone();
            bad[byte] ^= 1 << (byte % 8);
            let err = drain(stream(&bad, true, Some(stats.clone())))
                .expect_err(&format!("flip at byte {byte} must be detected"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("data.indv"), "error names the file: {msg}");
        }
        assert!(
            stats.checksum_failures() > 0,
            "checksum mismatches are counted"
        );
    }

    #[test]
    fn truncation_at_every_cut_is_detected() {
        let data = payload(2 * FRAME_PAYLOAD + 13);
        let raw = v2_file(3, &data);
        for cut in V2_HEADER_LEN..raw.len() {
            let err = drain(stream(&raw[..cut], true, None))
                .expect_err(&format!("cut at byte {cut} must be detected"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        drain(stream(&raw, true, None)).unwrap();
    }

    #[test]
    fn verify_off_still_strips_and_still_catches_structural_damage() {
        let data = payload(5000);
        let raw = v2_file(11, &data);
        let logical = drain(stream(&raw, false, None)).unwrap();
        assert_eq!(&logical[V2_HEADER_LEN..], &data[..]);

        // A flipped payload bit sails through unverified...
        let mut flipped = raw.clone();
        flipped[V2_HEADER_LEN + FRAME_LEN_PREFIX + 10] ^= 0x40;
        let dirty = drain(stream(&flipped, false, None)).unwrap();
        assert_ne!(&dirty[V2_HEADER_LEN..], &data[..]);

        // ...but a mid-frame truncation is still structural corruption.
        assert!(drain(stream(&raw[..raw.len() / 2], false, None)).is_err());
    }

    #[test]
    fn footer_field_mismatches_are_reported_precisely() {
        let data = payload(64);
        let raw = v2_file(9, &data);
        let footer_at = raw.len() - FOOTER_BODY_LEN;

        let mut bad_count = raw.clone();
        bad_count[footer_at] ^= 1;
        let e = drain(stream(&bad_count, true, None)).unwrap_err();
        assert!(e.to_string().contains("record count"), "{e}");

        let mut bad_bytes = raw.clone();
        bad_bytes[footer_at + 8] ^= 1;
        let e = drain(stream(&bad_bytes, true, None)).unwrap_err();
        assert!(e.to_string().contains("byte count"), "{e}");

        let stats = ReadStats::new();
        let mut bad_crc = raw.clone();
        bad_crc[footer_at + 16] ^= 1;
        let e = drain(stream(&bad_crc, true, Some(stats.clone()))).unwrap_err();
        assert!(e.to_string().contains("whole-file checksum"), "{e}");
        assert_eq!(stats.checksum_failures(), 1);

        let mut bad_magic = raw.clone();
        bad_magic[footer_at + 20] = b'X';
        let e = drain(stream(&bad_magic, true, None)).unwrap_err();
        assert!(e.to_string().contains("footer magic"), "{e}");
    }

    #[test]
    fn logical_stream_is_identical_at_any_read_granularity() {
        let data = payload(FRAME_PAYLOAD + 777);
        let raw = v2_file(5, &data);
        let whole = drain(stream(&raw, true, None)).unwrap();
        for step in [1usize, 3, 19, 4096, 10_000] {
            let mut s = stream(&raw, true, None);
            let mut out = Vec::new();
            let mut chunk = vec![0u8; step];
            loop {
                let n = s.read(&mut chunk).unwrap();
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&chunk[..n]);
            }
            assert_eq!(out, whole, "read granularity {step}");
        }
    }
}
