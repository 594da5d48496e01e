//! The value-file frame layer: CRC-verified 4 KiB frames.
//!
//! A raw stream of records serves any flipped bit or torn write that keeps
//! the records self-consistent as *data*. The frame layer (introduced by
//! format v2 and kept unchanged by v3, the only version read today) wraps
//! the logical stream in checksummed frames so corruption is detected
//! before a single byte reaches a consumer:
//!
//! ```text
//! header  "INDV" | version=3 u32 LE | count u64 LE | header CRC32C u32 LE   20 B
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
//! [`FrameDecoder`] is the decoder: a pure step over a byte slice that
//! [`crate::BlockReader`] runs on its own block after every read. Raw bytes
//! land in the block; each complete frame's CRC is checked where it landed
//! and its payload moved down over the frame overhead, so the block's
//! served prefix is verified payload only and a corrupt frame surfaces to
//! the cursor as an error — never as wrong bytes. A partial frame at the
//! block's tail waits for the next read. A stream without a current header
//! (another magic, or another version: v1 and v2 streams alike) has its
//! first (up to) 20 bytes served verbatim and nothing after, so the format
//! layer can reject its header with the file's context (bad magic, short
//! header, `unsupported version 2`): every byte a
//! [`crate::ValueFileReader`] serves has passed a CRC.

use crate::crc32c::{crc32c, Crc32c};

/// Physical header length: the 16-byte logical header plus a header CRC.
pub(crate) const FRAMED_HEADER_LEN: usize = 20;

/// The format version written and read: 3, front-coded records
/// ([`crate::format`]) in the frame layer. Any other version is served as
/// a bare header and rejected by the format layer.
pub(crate) const VERSION: u32 = 3;

/// Payload bytes per full frame. Fixed (not tied to the I/O block size)
/// so the logical stream is block-size-independent.
pub(crate) const FRAME_PAYLOAD: usize = 4096;

/// Frame length-prefix bytes.
pub(crate) const FRAME_LEN_PREFIX: usize = 2;

/// Frame trailer: the payload's CRC32C.
pub(crate) const FRAME_CRC_LEN: usize = 4;

/// Raw bytes of a full frame: length prefix, payload, CRC.
pub(crate) const MAX_FRAME_LEN: usize = FRAME_LEN_PREFIX + FRAME_PAYLOAD + FRAME_CRC_LEN;

/// Length-prefix value marking the footer. A real frame's length is at
/// most [`FRAME_PAYLOAD`], so the sentinel is unreachable by data.
pub(crate) const FOOTER_SENTINEL: u16 = 0xFFFF;

/// Footer bytes after the sentinel: count, payload bytes, whole-file
/// CRC, closing magic.
pub(crate) const FOOTER_BODY_LEN: usize = 8 + 8 + 4 + 4;

/// Closing magic sealing a complete stream.
pub(crate) const FOOTER_MAGIC: &[u8; 4] = b"INDF";

/// Physical bytes a stream spends on framing beyond the logical stream
/// (16-byte header + payload): the physical size of a stream holding
/// `payload` logical bytes is `HEADER_LEN + payload + frame_overhead(payload)`.
pub(crate) fn frame_overhead(payload: u64) -> u64 {
    let frames = payload.div_ceil(FRAME_PAYLOAD as u64);
    let per_frame = (FRAME_LEN_PREFIX + FRAME_CRC_LEN) as u64;
    (FRAMED_HEADER_LEN - crate::format::HEADER_LEN) as u64
        + frames * per_frame
        + (FRAME_LEN_PREFIX + FOOTER_BODY_LEN) as u64
}

/// Where a [`FrameDecoder`] stands in its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The 20-byte header has not arrived yet.
    Header,
    /// Decoding frames; the footer has not arrived yet.
    Frames,
    /// The footer is verified (or a foreign header served): the logical
    /// stream has ended, and raw bytes after this point are never looked at.
    Finished,
}

/// A framing defect, located: the frame it was found at and the stream
/// offset of that frame's length prefix (of the sentinel, for the footer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameError {
    pub(crate) frame: u64,
    pub(crate) offset: u64,
    pub(crate) detail: &'static str,
    /// A checksum comparison failed (frame or whole-file CRC), as opposed
    /// to structural damage.
    pub(crate) checksum: bool,
}

/// The frame decoder's state between reads: a stream is decoded in
/// steps, each over the raw bytes one read appended to a block.
#[derive(Debug)]
pub(crate) struct FrameDecoder {
    phase: Phase,
    frames_seen: u64,
    payload_seen: u64,
    /// Stream offset of the next undecoded raw byte.
    raw_pos: u64,
    /// Record count from the header, cross-checked against the footer.
    header_count: u64,
    /// Running CRC over the frames' stored CRC words.
    crc_chain: Crc32c,
}

/// Reads the little-endian `u16` at `buf[at..]`.
fn le_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

/// Reads the little-endian `u32` at `buf[at..]`.
fn le_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// Reads the little-endian `u64` at `buf[at..]`.
fn le_u64(buf: &[u8], at: usize) -> u64 {
    u64::from(le_u32(buf, at)) | (u64::from(le_u32(buf, at + 4)) << 32)
}

impl FrameDecoder {
    /// A decoder at the start of a stream.
    pub(crate) fn new() -> FrameDecoder {
        FrameDecoder {
            phase: Phase::Header,
            frames_seen: 0,
            payload_seen: 0,
            raw_pos: 0,
            header_count: 0,
            crc_chain: Crc32c::new(),
        }
    }

    /// True once the logical stream has ended.
    pub(crate) fn finished(&self) -> bool {
        self.phase == Phase::Finished
    }

    fn fail(&self, detail: &'static str, checksum: bool) -> FrameError {
        FrameError {
            frame: self.frames_seen,
            offset: self.raw_pos,
            detail,
            checksum,
        }
    }

    /// The smallest read worth issuing when `pending` — the undecoded tail
    /// a step left behind — is all there is of the next unit: the rest of
    /// that unit, a whole frame assumed wherever its length has not arrived
    /// yet. At least 1 until the stream has ended, 0 after.
    pub(crate) fn min_read(&self, pending: &[u8]) -> usize {
        let unit = match self.phase {
            Phase::Finished => return 0,
            Phase::Header => FRAMED_HEADER_LEN + MAX_FRAME_LEN,
            Phase::Frames if pending.len() < FRAME_LEN_PREFIX => MAX_FRAME_LEN,
            Phase::Frames => match le_u16(pending, 0) {
                FOOTER_SENTINEL => FRAME_LEN_PREFIX + FOOTER_BODY_LEN,
                len => FRAME_LEN_PREFIX + usize::from(len) + FRAME_CRC_LEN,
            },
        };
        unit.saturating_sub(pending.len()).max(1)
    }

    /// One decode step. `buf[out..raw]` is free space (frame overhead
    /// already stripped) and `buf[raw..]` the raw bytes not yet decoded.
    /// Every complete unit in `buf[raw..]` is checked and its logical bytes
    /// (the header, then payload) moved down to `buf[out..]`; returns the
    /// new `(out, raw)`: logical bytes end at `out`, an incomplete unit
    /// waits at `buf[raw..]`. `eof` says no raw byte will follow, so an
    /// unfinished stream is truncated.
    pub(crate) fn decode(
        &mut self,
        buf: &mut [u8],
        mut out: usize,
        mut raw: usize,
        eof: bool,
    ) -> Result<(usize, usize), FrameError> {
        if self.phase == Phase::Header {
            let got = buf.len() - raw;
            if got < FRAMED_HEADER_LEN && !eof {
                return Ok((out, raw));
            }
            let head_len = got.min(FRAMED_HEADER_LEN);
            let current = head_len == FRAMED_HEADER_LEN
                && &buf[raw..raw + 4] == crate::format::MAGIC
                && le_u32(buf, raw + 4) == VERSION;
            // The header is served verbatim either way: its checks are the
            // format layer's, which has the error context. A foreign stream
            // ends right after it.
            buf.copy_within(raw..raw + head_len, out);
            out += head_len;
            raw += head_len;
            self.raw_pos += head_len as u64;
            if !current {
                self.phase = Phase::Finished;
                return Ok((out, raw));
            }
            self.header_count = le_u64(buf, raw - FRAMED_HEADER_LEN + 8);
            self.phase = Phase::Frames;
        }
        while self.phase == Phase::Frames {
            let avail = buf.len() - raw;
            if avail < FRAME_LEN_PREFIX {
                break;
            }
            let len = le_u16(buf, raw);
            if len == FOOTER_SENTINEL {
                if avail < FRAME_LEN_PREFIX + FOOTER_BODY_LEN {
                    break;
                }
                self.check_footer(&buf[raw + FRAME_LEN_PREFIX..][..FOOTER_BODY_LEN])?;
                raw += FRAME_LEN_PREFIX + FOOTER_BODY_LEN;
                self.raw_pos += (FRAME_LEN_PREFIX + FOOTER_BODY_LEN) as u64;
                self.phase = Phase::Finished;
                break;
            }
            let len = usize::from(len);
            if len == 0 || len > FRAME_PAYLOAD {
                return Err(self.fail("invalid frame payload length", false));
            }
            let frame_len = FRAME_LEN_PREFIX + len + FRAME_CRC_LEN;
            if avail < frame_len {
                break;
            }
            let body = raw + FRAME_LEN_PREFIX;
            let stored = &buf[body + len..body + len + FRAME_CRC_LEN];
            if crc32c(&buf[body..body + len]) != le_u32(stored, 0) {
                return Err(self.fail("frame checksum mismatch", true));
            }
            self.crc_chain.update(stored);
            buf.copy_within(body..body + len, out);
            out += len;
            raw += frame_len;
            self.frames_seen += 1;
            self.payload_seen += len as u64;
            self.raw_pos += frame_len as u64;
        }
        if eof && !self.finished() {
            let pending = &buf[raw..];
            let detail = match pending.len() {
                0 => "file ends before the footer (truncated)",
                1 => "file ends inside a frame length prefix",
                _ if le_u16(pending, 0) == FOOTER_SENTINEL => "file ends inside the footer",
                _ => "file ends inside a frame",
            };
            return Err(self.fail(detail, false));
        }
        Ok((out, raw))
    }

    /// Checks the 24 footer bytes after the sentinel.
    fn check_footer(&self, footer: &[u8]) -> Result<(), FrameError> {
        if &footer[20..24] != FOOTER_MAGIC {
            return Err(self.fail("bad footer magic", false));
        }
        if le_u64(footer, 0) != self.header_count {
            return Err(self.fail("footer record count disagrees with the header", false));
        }
        if le_u64(footer, 8) != self.payload_seen {
            return Err(self.fail("footer byte count disagrees with the frames", false));
        }
        if le_u32(footer, 16) != self.crc_chain.finish() {
            return Err(self.fail("whole-file checksum mismatch", true));
        }
        Ok(())
    }
}

/// Hand-assembles a framed stream around `payload` (decoder-independent of
/// the writer, so each side checks the other).
#[cfg(test)]
pub(crate) fn framed_file(count: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(crate::format::MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockReader, IoOptions, ReadStats};
    use crate::fault::FaultPlan;
    use ind_testkit::TempDir;
    use std::io;
    use std::sync::Arc;

    /// Block sizes on both sides of one frame (4,102 raw bytes) and of the
    /// readahead ramp: a frame split across reads is carried to the next.
    const BLOCKS: [usize; 6] = [32, 4101, 4102, 4103, 8 * 1024, 256 * 1024];

    /// Fault plans every stream is also drained under: short reads and
    /// `EINTR` leave a partial frame at a block's tail on more fills.
    const PLANS: [Option<&str>; 3] = [None, Some("read:*:short@64"), Some("read:*:eintr@8")];

    /// Drains the logical stream a block reader serves from `path`, taking
    /// at most `step` bytes, and never more than a block, per fill.
    fn drain_one(path: &std::path::Path, options: &IoOptions, step: usize) -> io::Result<Vec<u8>> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let mut r = BlockReader::over(Arc::new(file), path, 0, options, len);
        let step = step.min(r.block_size());
        let mut out = Vec::new();
        loop {
            let avail = r.fill_to(step)?;
            if avail == 0 {
                return Ok(out);
            }
            let take = avail.min(step);
            out.extend_from_slice(&r.buffered()[..take]);
            r.consume(take);
        }
    }

    /// Drains `bytes` at every block size in [`BLOCKS`] under every plan in
    /// [`PLANS`], `step` bytes per fill; every configuration must serve the
    /// same bytes or fail with the same error, which is returned.
    fn drain_at(bytes: &[u8], stats: Option<ReadStats>, step: usize) -> io::Result<Vec<u8>> {
        let dir = TempDir::new("frame-decode");
        let path = dir.join("data.indv");
        std::fs::write(&path, bytes).unwrap();
        let mut first: Option<io::Result<Vec<u8>>> = None;
        for block in BLOCKS {
            for plan in PLANS {
                let mut options = IoOptions::with_block_size(block);
                options.stats = stats.clone();
                if let Some(plan) = plan {
                    options = options.with_fault(Arc::new(FaultPlan::parse(plan).unwrap()));
                }
                let got = drain_one(&path, &options, step);
                match (&first, &got) {
                    (None, _) => {}
                    (Some(Ok(a)), Ok(b)) => assert_eq!(a, b, "block {block}, plan {plan:?}"),
                    (Some(Err(a)), Err(b)) => assert_eq!(
                        (a.kind(), a.to_string()),
                        (b.kind(), b.to_string()),
                        "block {block}, plan {plan:?}"
                    ),
                    (Some(a), b) => panic!("block {block}, plan {plan:?}: {a:?} vs {b:?}"),
                }
                first.get_or_insert(got);
            }
        }
        first.unwrap()
    }

    fn drain(bytes: &[u8], stats: Option<ReadStats>) -> io::Result<Vec<u8>> {
        drain_at(bytes, stats, usize::MAX / 2)
    }

    /// Configurations [`drain`] runs each stream through.
    const CONFIGS: u64 = (BLOCKS.len() * PLANS.len()) as u64;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn framing_is_stripped_and_the_header_served_verbatim() {
        for n in [
            0,
            1,
            100,
            FRAME_PAYLOAD - 1,
            FRAME_PAYLOAD,
            3 * FRAME_PAYLOAD + 7,
        ] {
            let data = payload(n);
            let raw = framed_file(42, &data);
            let logical = drain(&raw, None).unwrap();
            assert_eq!(&logical[..FRAMED_HEADER_LEN], &raw[..FRAMED_HEADER_LEN]);
            assert_eq!(
                &logical[FRAMED_HEADER_LEN..],
                &data[..],
                "payload of {n} bytes"
            );
            assert_eq!(
                raw.len() as u64,
                (crate::format::HEADER_LEN + n) as u64 + frame_overhead(n as u64),
                "frame_overhead predicts the physical size over the logical stream"
            );
        }
    }

    #[test]
    fn a_foreign_stream_serves_its_header_bytes_and_nothing_after() {
        for raw in [
            &b""[..],
            b"short",
            b"NOPE_with_20_or_more_bytes_of_junk",
            // A v1-looking header: magic + version 1 + count.
            &[
                b'I', b'N', b'D', b'V', 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 1, 2,
            ][..],
            // A v2 header (length-prefixed records in the same frames).
            &framed_file(1, b"\x01\x00\x00\x00a")
                .iter()
                .enumerate()
                .map(|(i, &b)| if i == 4 { 2 } else { b })
                .collect::<Vec<u8>>()[..],
        ] {
            let head = &raw[..raw.len().min(FRAMED_HEADER_LEN)];
            assert_eq!(drain(raw, None).unwrap(), head);
        }
    }

    #[test]
    fn one_decode_step_over_a_whole_stream_leaves_the_logical_bytes_in_front() {
        let data = payload(2 * FRAME_PAYLOAD + 5);
        let mut raw = framed_file(4, &data);
        let total = raw.len();
        let mut decoder = FrameDecoder::new();
        let (out, used) = decoder.decode(&mut raw, 0, 0, true).unwrap();
        assert!(decoder.finished());
        assert_eq!(used, total, "the footer is consumed");
        assert_eq!(&raw[FRAMED_HEADER_LEN..out], &data[..]);

        // Fed one byte at a time, the step waits on every incomplete unit.
        let raw = framed_file(4, &data);
        let mut buf = Vec::new();
        let mut decoder = FrameDecoder::new();
        let (mut out, mut at) = (0, 0);
        for (i, &b) in raw.iter().enumerate() {
            assert!(decoder.min_read(&buf[at..]) >= 1);
            buf.push(b);
            (out, at) = decoder.decode(&mut buf, out, at, false).unwrap();
            assert_eq!(decoder.finished(), i + 1 == raw.len());
        }
        assert_eq!(decoder.min_read(&buf[at..]), 0);
        assert_eq!(&buf[FRAMED_HEADER_LEN..out], &data[..]);
    }

    #[test]
    fn every_bit_flip_after_the_header_is_detected() {
        let data = payload(300);
        let raw = framed_file(7, &data);
        let stats = ReadStats::new();
        for byte in FRAMED_HEADER_LEN..raw.len() {
            let mut bad = raw.clone();
            bad[byte] ^= 1 << (byte % 8);
            let err = drain(&bad, Some(stats.clone()))
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
        let raw = framed_file(3, &data);
        for cut in FRAMED_HEADER_LEN..raw.len() {
            let err =
                drain(&raw[..cut], None).expect_err(&format!("cut at byte {cut} must be detected"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        drain(&raw, None).unwrap();
    }

    #[test]
    fn footer_field_mismatches_are_reported_precisely() {
        let data = payload(64);
        let raw = framed_file(9, &data);
        let footer_at = raw.len() - FOOTER_BODY_LEN;

        let mut bad_count = raw.clone();
        bad_count[footer_at] ^= 1;
        let e = drain(&bad_count, None).unwrap_err();
        assert!(e.to_string().contains("record count"), "{e}");

        let mut bad_bytes = raw.clone();
        bad_bytes[footer_at + 8] ^= 1;
        let e = drain(&bad_bytes, None).unwrap_err();
        assert!(e.to_string().contains("byte count"), "{e}");

        let stats = ReadStats::new();
        let mut bad_crc = raw.clone();
        bad_crc[footer_at + 16] ^= 1;
        let e = drain(&bad_crc, Some(stats.clone())).unwrap_err();
        assert!(e.to_string().contains("whole-file checksum"), "{e}");
        assert_eq!(
            stats.checksum_failures(),
            CONFIGS,
            "one per configuration drained"
        );

        let mut bad_magic = raw.clone();
        bad_magic[footer_at + 20] = b'X';
        let e = drain(&bad_magic, None).unwrap_err();
        assert!(e.to_string().contains("footer magic"), "{e}");
    }

    #[test]
    fn logical_stream_is_identical_at_any_read_granularity() {
        let data = payload(FRAME_PAYLOAD + 777);
        let raw = framed_file(5, &data);
        let whole = drain(&raw, None).unwrap();
        for step in [1usize, 3, 19, 4096, 10_000] {
            assert_eq!(
                drain_at(&raw, None, step).unwrap(),
                whole,
                "read granularity {step}"
            );
        }
    }
}
