//! The durable export manifest: one `MANIFEST.json` per workdir recording,
//! for every exported attribute, where its value stream lies (segment and
//! byte offset), the content hash of its source column, the stream's byte
//! size, its record count, and the on-disk format version.
//!
//! Together with segment publication (one fsync + rename per batch, then
//! one directory fsync: [`crate::SegmentWriter`]) the manifest makes an
//! interrupted export *resumable*: on `--resume` the export sweeps
//! orphaned `.tmp` files and segments no entry points into, verifies each
//! manifest entry against its stream's self-verifying footer, and
//! re-exports only what is missing or invalid. The manifest itself is
//! published with the same tmp + fsync + rename + directory fsync
//! protocol, so a reader never observes a torn manifest — at worst a
//! missing one, which merely disables reuse.
//!
//! This file is also the seam for a future content-addressed store: every
//! entry already carries a source-content hash, so exports keyed by hash
//! instead of attribute id are a rename away.

use crate::error::Result;
use ind_storage::{Column, DataType};
use ind_trace::json::Json;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// File name of the manifest inside an export workdir.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// Manifest schema version (bump on incompatible layout changes; readers
/// reject other versions, which simply disables reuse). Version 2 changed
/// what `source_hash` is computed with ([`ColumnHasher`]); version 3
/// replaced each entry's value file by a `{segment, offset}` extent. An
/// older manifest names files this export no longer writes, so it is
/// refused whole.
const MANIFEST_VERSION: u64 = 3;

/// One exported attribute's durable record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Dense attribute id: the key of the entry.
    pub id: u32,
    /// Name of the segment holding the stream, relative to the workdir
    /// (`seg-00-0003.indv`).
    pub segment: String,
    /// Byte offset of the stream's header inside the segment.
    pub offset: u64,
    /// Owning table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Declared column type.
    pub data_type: DataType,
    /// Rows in the owning table.
    pub rows: u64,
    /// Non-null occurrences, `|v(a)|`.
    pub non_null: u64,
    /// Distinct values, `|s(a)|`.
    pub distinct: u64,
    /// Smallest canonical value (hex-encoded on disk), if any.
    pub min: Option<Vec<u8>>,
    /// Largest canonical value (hex-encoded on disk), if any.
    pub max: Option<Vec<u8>>,
    /// Byte size of the stream, recorded at write time.
    pub file_bytes: u64,
    /// Records in the stream (its footer count).
    pub records: u64,
    /// On-disk format version of the stream.
    pub format_version: u32,
    /// Content hash of the source column's canonical bytes, nulls
    /// included as markers ([`hash_column`]), so stale files are detected
    /// when the input data changes between runs.
    pub source_hash: u64,
}

/// The parsed (or in-construction) manifest of one export workdir.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    entries: Vec<ManifestEntry>,
}

/// Content hash of one source column, 64 bits, eight input bytes per
/// multiply: every cell in row order as a stream of little-endian words —
/// a NULL is the one word no length can equal, a non-NULL its byte length
/// followed by its canonical rendering (the exact bytes the export writes)
/// in 8-byte chunks, the last zero-padded. The length word says how many
/// body words follow, which keeps concatenation and padding ambiguity out.
/// Each word is folded in by a 64×64→128-bit multiply whose halves are
/// xored together, so every input bit reaches both ends of the state (a
/// plain wrapping multiply only ever carries upward). Deterministic across
/// runs and thread counts by construction. The export feeds it from the
/// pass that indexes each cell for the sorter; [`hash_column`] is the same
/// hash computed standalone, for the resume-side staleness check.
#[derive(Debug, Clone)]
pub(crate) struct ColumnHasher(u64);

impl ColumnHasher {
    const NULL_WORD: u64 = u64::MAX;

    pub(crate) fn new() -> Self {
        ColumnHasher(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    /// One cell as a column stores it: `None` for NULL, else its canonical
    /// rendering.
    pub(crate) fn cell(&mut self, cell: Option<&[u8]>) {
        let Some(rendered) = cell else {
            return self.word(Self::NULL_WORD);
        };
        self.word(rendered.len() as u64);
        let (words, tail) = rendered.as_chunks::<8>();
        for word in words {
            self.word(u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// [`ColumnHasher`] over a whole stored column.
pub(crate) fn hash_column(column: &Column) -> u64 {
    let mut hash = ColumnHasher::new();
    column.cells().for_each(|cell| hash.cell(cell));
    hash.finish()
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        // lint: allow(no_unwrap) — fmt writes into a String are infallible
        write!(out, "{b:02x}").expect("write to String cannot fail");
    }
    out
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(text.len() / 2);
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

impl ManifestEntry {
    fn to_json(&self) -> Json {
        let bound = |bytes: &Option<Vec<u8>>| {
            bytes
                .as_deref()
                .map_or(Json::Null, |b| Json::Str(hex_encode(b)))
        };
        Json::obj([
            ("id", self.id.into()),
            ("segment", self.segment.as_str().into()),
            ("offset", self.offset.into()),
            ("table", self.table.as_str().into()),
            ("column", self.column.as_str().into()),
            ("data_type", self.data_type.name().into()),
            ("rows", self.rows.into()),
            ("non_null", self.non_null.into()),
            ("distinct", self.distinct.into()),
            ("min", bound(&self.min)),
            ("max", bound(&self.max)),
            ("file_bytes", self.file_bytes.into()),
            ("records", self.records.into()),
            ("format_version", self.format_version.into()),
            ("source_hash", self.source_hash.into()),
        ])
    }

    fn from_json(json: &Json) -> Option<ManifestEntry> {
        let bound = |key: &str| -> Option<Option<Vec<u8>>> {
            match json.get(key)? {
                Json::Null => Some(None),
                other => Some(Some(hex_decode(other.as_str()?)?)),
            }
        };
        Some(ManifestEntry {
            id: u32::try_from(json.get("id")?.as_u64()?).ok()?,
            segment: json.get("segment")?.as_str()?.to_string(),
            offset: json.get("offset")?.as_u64()?,
            table: json.get("table")?.as_str()?.to_string(),
            column: json.get("column")?.as_str()?.to_string(),
            data_type: DataType::from_name(json.get("data_type")?.as_str()?)?,
            rows: json.get("rows")?.as_u64()?,
            non_null: json.get("non_null")?.as_u64()?,
            distinct: json.get("distinct")?.as_u64()?,
            min: bound("min")?,
            max: bound("max")?,
            file_bytes: json.get("file_bytes")?.as_u64()?,
            records: json.get("records")?.as_u64()?,
            format_version: u32::try_from(json.get("format_version")?.as_u64()?).ok()?,
            source_hash: json.get("source_hash")?.as_u64()?,
        })
    }
}

impl Manifest {
    /// An empty manifest.
    pub fn new() -> Self {
        Manifest::default()
    }

    /// Entries, sorted by attribute id.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// The entry of attribute `id`, if recorded.
    pub fn get(&self, id: u32) -> Option<&ManifestEntry> {
        self.entries
            .binary_search_by_key(&id, |e| e.id)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Inserts or replaces the entry of attribute `entry.id`.
    pub fn upsert(&mut self, entry: ManifestEntry) {
        match self.entries.binary_search_by_key(&entry.id, |e| e.id) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the manifest as JSON (one entry per line, keys in a fixed
    /// order, entries sorted by attribute id — byte-deterministic).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("manifest_version", MANIFEST_VERSION.into()),
            (
                "entries",
                Json::Arr(self.entries.iter().map(ManifestEntry::to_json).collect()),
            ),
        ])
        .pretty()
    }

    /// Parses a manifest document; `None` for anything malformed or of
    /// another manifest version (which merely disables reuse — a manifest
    /// is an optimization record, never a source of truth over footers).
    pub fn from_json(text: &str) -> Option<Manifest> {
        let json = match ind_trace::json::parse(text) {
            Ok(json) => json,
            Err(_) => return None,
        };
        if json.get("manifest_version")?.as_u64()? != MANIFEST_VERSION {
            return None;
        }
        let mut entries = Vec::new();
        for item in json.get("entries")?.as_arr()? {
            entries.push(ManifestEntry::from_json(item)?);
        }
        entries.sort_by_key(|e| e.id);
        entries.dedup_by_key(|e| e.id);
        Some(Manifest { entries })
    }

    /// Loads the manifest of `dir`; `None` when absent or invalid.
    pub fn load(dir: &Path) -> Option<Manifest> {
        let text = match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
            Ok(text) => text,
            // Missing or unreadable only disables reuse.
            Err(_) => return None,
        };
        Manifest::from_json(&text)
    }

    /// Publishes the manifest durably: written to `MANIFEST.json.tmp`,
    /// fsynced, renamed into place, directory fsynced — the same protocol
    /// as the segments, so a crash at any point leaves either the
    /// previous manifest or the new one, never a torn hybrid. All writes
    /// and fsyncs go through the fault layer.
    pub fn store(&self, dir: &Path, fault: Option<&Arc<crate::fault::FaultPlan>>) -> Result<()> {
        let final_path = dir.join(MANIFEST_NAME);
        let tmp = crate::segment::tmp_path(&final_path);
        crate::fault::check_open(&tmp, fault)?;
        let file = crate::fault::create_file(&tmp)?;
        crate::fault::write_all_at(&file, self.to_json().as_bytes(), 0, &tmp, fault, None)?;
        crate::fault::sync_all(&file, &tmp, &[], fault)?;
        crate::fault::rename(&tmp, &final_path, fault)?;
        crate::fault::sync_dir(dir, fault)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_testkit::TempDir;

    fn entry(segment: &str, id: u32) -> ManifestEntry {
        ManifestEntry {
            id,
            segment: segment.to_string(),
            offset: 4096 * u64::from(id),
            table: "t".to_string(),
            column: format!("c{id}"),
            data_type: DataType::Integer,
            rows: 10,
            non_null: 9,
            distinct: 7,
            min: Some(b"1".to_vec()),
            max: Some(b"99".to_vec()),
            file_bytes: 1234,
            records: 7,
            format_version: 2,
            source_hash: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let mut m = Manifest::new();
        m.upsert(entry("seg-01-0000.indv", 1));
        m.upsert(entry("seg-00-0000.indv", 0));
        let mut odd = entry("seg-00-0000.indv", 2);
        odd.min = None;
        odd.max = None;
        odd.table = "we\"ird\\tab\nle".to_string();
        odd.data_type = DataType::Text;
        m.upsert(odd);
        // The bytes a later run reads back: pinned, so a change to the
        // shared JSON writer cannot silently change the manifest.
        let golden = r#"{
  "manifest_version": 3,
  "entries": [
    {"id": 0, "segment": "seg-00-0000.indv", "offset": 0, "table": "t", "column": "c0", "data_type": "integer", "rows": 10, "non_null": 9, "distinct": 7, "min": "31", "max": "3939", "file_bytes": 1234, "records": 7, "format_version": 2, "source_hash": 16045690984503111693},
    {"id": 1, "segment": "seg-01-0000.indv", "offset": 4096, "table": "t", "column": "c1", "data_type": "integer", "rows": 10, "non_null": 9, "distinct": 7, "min": "31", "max": "3939", "file_bytes": 1234, "records": 7, "format_version": 2, "source_hash": 16045690984503111693},
    {"id": 2, "segment": "seg-00-0000.indv", "offset": 8192, "table": "we\"ird\\tab\nle", "column": "c2", "data_type": "text", "rows": 10, "non_null": 9, "distinct": 7, "min": null, "max": null, "file_bytes": 1234, "records": 7, "format_version": 2, "source_hash": 16045690984503111693}
  ]
}
"#;
        assert_eq!(m.to_json(), golden);
        let parsed = Manifest::from_json(&m.to_json()).expect("round trip");
        assert_eq!(parsed.entries(), m.entries());
        assert_eq!(parsed.get(1).unwrap().segment, "seg-01-0000.indv");
        assert!(parsed.get(9).is_none());
    }

    #[test]
    fn upsert_replaces_by_attribute() {
        let mut m = Manifest::new();
        m.upsert(entry("seg-00-0000.indv", 0));
        let mut replacement = entry("seg-00-0001.indv", 0);
        replacement.distinct = 99;
        m.upsert(replacement);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(0).unwrap().distinct, 99);
        assert_eq!(m.get(0).unwrap().segment, "seg-00-0001.indv");
    }

    #[test]
    fn malformed_documents_disable_reuse() {
        assert!(Manifest::from_json("").is_none());
        assert!(Manifest::from_json("{}").is_none());
        assert!(Manifest::from_json("{\"manifest_version\": 999, \"entries\": []}").is_none());
        assert!(
            Manifest::from_json("{\"manifest_version\": 3, \"entries\": [{\"id\": \"x\"}]}")
                .is_none()
        );
        // Version 1 recorded FNV-1a source hashes, version 2 one value file
        // per attribute: both are refused whole instead of mismatching
        // entry by entry.
        assert!(Manifest::from_json("{\"manifest_version\": 1, \"entries\": []}").is_none());
        assert!(Manifest::from_json("{\"manifest_version\": 2, \"entries\": []}").is_none());
        assert!(Manifest::from_json("{\"manifest_version\": 3, \"entries\": []}").is_some());
        assert!(Manifest::load(Path::new("/nonexistent")).is_none());
        // Nesting past the parser's depth cap is refused, not a stack
        // overflow that takes the resuming process down.
        assert!(Manifest::from_json(&"[".repeat(100_000)).is_none());
    }

    #[test]
    fn store_publishes_atomically_and_loads_back() {
        let dir = TempDir::new("manifest-store");
        let mut m = Manifest::new();
        m.upsert(entry("seg-00-0000.indv", 0));
        m.store(dir.path(), None).unwrap();
        assert!(dir.join(MANIFEST_NAME).exists());
        assert!(!dir.join("MANIFEST.json.tmp").exists(), "tmp renamed away");
        let loaded = Manifest::load(dir.path()).expect("loads");
        assert_eq!(loaded.entries(), m.entries());

        // Re-store with more entries: replaces, still no tmp left behind.
        m.upsert(entry("seg-00-0000.indv", 1));
        m.store(dir.path(), None).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap().len(), 2);
        assert!(!dir.join("MANIFEST.json.tmp").exists());
    }

    #[test]
    fn injected_fsync_failure_surfaces_on_store() {
        let dir = TempDir::new("manifest-fsync");
        let plan = Arc::new(crate::fault::FaultPlan::parse("fsync:MANIFEST:fail").unwrap());
        let mut m = Manifest::new();
        m.upsert(entry("seg-00-0000.indv", 0));
        let err = m.store(dir.path(), Some(&plan)).expect_err("fsync fails");
        assert!(err.to_string().contains("injected fsync"), "{err}");
        assert!(
            Manifest::load(dir.path()).is_none(),
            "a failed publish leaves no manifest under the final name"
        );
    }

    #[test]
    fn column_hash_tracks_content_not_layout() {
        use ind_storage::Value;
        let hash = |values: &[Value]| hash_column(&Column::from_values(values));
        let a = [Value::Integer(1), Value::Null, Value::from("xy")];
        assert_eq!(hash(&a), hash(&a.clone()));
        let c = [Value::Integer(1), Value::Null, Value::from("xz")];
        assert_ne!(hash(&a), hash(&c));
        // The hash is of the canonical bytes, whatever type declared them.
        assert_eq!(hash(&[Value::Integer(1)]), hash(&[Value::from("1")]));
        // Length prefixes keep concatenation ambiguity out of the hash.
        let d = [Value::from("ab"), Value::from("c")];
        let e = [Value::from("a"), Value::from("bc")];
        assert_ne!(hash(&d), hash(&e));
        assert_ne!(
            hash(&[Value::Null]),
            hash(&[]),
            "nulls are part of the content"
        );
    }

    #[test]
    fn column_hasher_word_stream_is_unambiguous() {
        let hash = |cells: &[Option<&[u8]>]| {
            let mut h = ColumnHasher::new();
            cells.iter().for_each(|cell| h.cell(*cell));
            h.finish()
        };
        // Zero padding of the tail never aliases real zero bytes, on either
        // side of a word boundary.
        assert_ne!(hash(&[Some(b"ab")]), hash(&[Some(b"ab\0")]));
        assert_ne!(hash(&[Some(b"12345678")]), hash(&[Some(b"12345678\0")]));
        assert_ne!(hash(&[Some(b"")]), hash(&[Some(b"\0")]));
        // A NULL is not a value of all-ones bytes, nor an empty value.
        assert_ne!(hash(&[None]), hash(&[Some(&[0xFF; 8])]));
        assert_ne!(hash(&[None]), hash(&[Some(b"")]));
        // Cell borders inside and across 8-byte words.
        assert_ne!(
            hash(&[Some(b"12345678"), Some(b"9")]),
            hash(&[Some(b"123456789")])
        );
        // The top bit of a word — all a wrapping multiply would keep of
        // it — must not cancel against the same bit one word later.
        let mut flipped = *b"aaaaaaaabbbbbbbb";
        flipped[7] ^= 0x80;
        flipped[15] ^= 0x80;
        assert_ne!(hash(&[Some(b"aaaaaaaabbbbbbbb")]), hash(&[Some(&flipped)]));
        // Order matters.
        assert_ne!(
            hash(&[Some(b"x"), Some(b"y")]),
            hash(&[Some(b"y"), Some(b"x")])
        );
    }
}
