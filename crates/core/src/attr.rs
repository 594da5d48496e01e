//! Attribute profiles: the per-attribute metadata that candidate
//! generation and the pretests consume.

use ind_storage::{table_stats, DataType, Database, QualifiedName};
use ind_valueset::{ExportedDatabase, MemoryProvider, Result, Source};

/// Profile of one attribute (column), identified by a dense id that doubles
/// as the index into the value-set provider.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeProfile {
    /// Dense attribute id; also the provider index.
    pub id: u32,
    /// Qualified `table.column` name.
    pub name: QualifiedName,
    /// Declared column type.
    pub data_type: DataType,
    /// Rows in the owning table.
    pub rows: u64,
    /// Non-null occurrences, `|v(a)|`.
    pub non_null: u64,
    /// Distinct values, `|s(a)|`.
    pub distinct: u64,
    /// Smallest canonical value, if any.
    pub min: Option<Vec<u8>>,
    /// Largest canonical value, if any.
    pub max: Option<Vec<u8>>,
}

impl AttributeProfile {
    /// Potentially *dependent* attribute: "non-empty columns of any type
    /// except LOB" (Sec. 2).
    pub fn is_dependent_candidate(&self) -> bool {
        self.non_null > 0 && self.data_type != DataType::Lob
    }

    /// Potentially *referenced* attribute: "non-empty unique columns"
    /// (Sec. 2), with uniqueness taken from the data (Aladin step 2).
    pub fn is_referenced_candidate(&self) -> bool {
        self.non_null > 0 && self.distinct == self.non_null
    }
}

/// Profiles every attribute of `db` by scanning its columns. Ids follow
/// [`Database::attributes`] order, matching
/// [`ExportedDatabase::export`](ind_valueset::ExportedDatabase::export).
pub fn profile_database(db: &Database) -> Vec<AttributeProfile> {
    let mut out = Vec::with_capacity(db.attribute_count());
    let mut id = 0u32;
    for table in db.tables() {
        let stats = table_stats(table);
        for (cs, st) in table.schema().columns.iter().zip(stats) {
            out.push(AttributeProfile {
                id,
                name: QualifiedName::new(table.name(), cs.name.clone()),
                data_type: cs.data_type,
                rows: st.rows as u64,
                non_null: st.non_null as u64,
                distinct: st.distinct as u64,
                min: st.min,
                max: st.max,
            });
            id += 1;
        }
    }
    out
}

/// Profiles from an on-disk export (no table scan needed; the export
/// already computed everything).
pub fn profiles_from_export(exp: &ExportedDatabase) -> Vec<AttributeProfile> {
    exp.attributes()
        .iter()
        .map(|a| AttributeProfile {
            id: a.id,
            name: a.name.clone(),
            data_type: a.data_type,
            rows: a.rows,
            non_null: a.non_null,
            distinct: a.distinct,
            min: a.min.clone(),
            max: a.max.clone(),
        })
        .collect()
}

/// Extracts `db` entirely into memory: profiles plus a [`MemoryProvider`]
/// whose attribute ids match the profile ids: what
/// [`IndFinder::run`](crate::IndFinder::run) over
/// [`Backend::memory`](crate::Backend::memory) — the CLI's default path —
/// runs on, extracted on every core ([`ind_storage::default_workers`]).
pub fn memory_export(db: &Database) -> (Vec<AttributeProfile>, MemoryProvider) {
    memory_export_with_threads(db, ind_storage::default_workers())
}

/// [`memory_export`] with the per-column extract/sort/dedup work spread
/// over exactly `threads` workers
/// ([`extract_memory_columns`](ind_valueset::extract_memory_columns)).
/// Results are identical at any thread count.
///
/// This form cannot be interrupted: the ambient cancel token is masked for
/// the call (the pipeline's own entry points use the cancellable
/// `try_memory_export`), which leaves it nothing to fail on — a stored
/// column holds at most `u32::MAX` rendered bytes, the in-memory set's own
/// bound.
pub fn memory_export_with_threads(
    db: &Database,
    threads: usize,
) -> (Vec<AttributeProfile>, MemoryProvider) {
    let _uninterruptible = ind_valueset::cancel::set_ambient(None);
    try_memory_export(db, threads)
        // lint: allow(no_unwrap) — no cancel token is installed, and a stored column fits a flat set by construction
        .expect("an uninterruptible in-memory export cannot fail")
}

/// The in-memory export proper: **one pass per column** indexes its stored
/// cells where they lie, sorts and deduplicates that index and compacts the
/// survivors into the column's flat set, and the profile is read off that
/// same pass — `non_null` is what the pass indexed,
/// `distinct` the set's length, `min`/`max` its first and last value — so
/// the result equals [`profile_database`]'s field for field. Polls the
/// ambient cancel token once per column (phase `export`).
pub(crate) fn try_memory_export(
    db: &Database,
    threads: usize,
) -> Result<(Vec<AttributeProfile>, MemoryProvider)> {
    let attributes = db.tables().iter().flat_map(|table| {
        table.iter_cells().map(move |(_, cs, col)| {
            let name = QualifiedName::new(table.name(), cs.name.clone());
            (name, cs.data_type, Source::Column(col))
        })
    });
    extract_profiled(attributes.collect(), threads)
}

/// Extracts `attributes` on `threads` workers
/// ([`ind_valueset::extract_memory_columns`]): attribute `i` is profiled
/// off its set the way [`try_memory_export`] profiles a column, and becomes
/// the provider's set `i`. Over [`Source::groups`] it is the in-memory
/// counterpart of
/// [`ExportedDatabase::export_groups`](ind_valueset::ExportedDatabase::export_groups).
pub(crate) fn extract_profiled(
    attributes: Vec<(QualifiedName, DataType, Source<'_>)>,
    threads: usize,
) -> Result<(Vec<AttributeProfile>, MemoryProvider)> {
    let sources: Vec<Source<'_>> = attributes.iter().map(|a| a.2.clone()).collect();
    let extracted = ind_valueset::extract_memory_columns(&sources, threads)?;
    let mut profiles = Vec::with_capacity(sources.len());
    let mut sets = Vec::with_capacity(sources.len());
    for (id, ((name, data_type, source), column)) in
        attributes.into_iter().zip(extracted).enumerate()
    {
        let values = column.set.as_slice();
        profiles.push(AttributeProfile {
            id: id as u32,
            name,
            data_type,
            rows: source.rows(),
            non_null: column.non_null,
            distinct: values.len() as u64,
            min: values.first().map(<[u8]>::to_vec),
            max: values.last().map(<[u8]>::to_vec),
        });
        sets.push(column.set);
    }
    Ok((profiles, MemoryProvider::new(sets)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_storage::{ColumnSchema, Table, TableSchema, Value};
    use ind_valueset::ValueSetProvider;

    fn db() -> Database {
        let mut db = Database::new("profiles");
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnSchema::new("id", DataType::Integer).not_null(),
                    ColumnSchema::new("dup", DataType::Text),
                    ColumnSchema::new("doc", DataType::Lob),
                    ColumnSchema::new("empty", DataType::Integer),
                ],
            )
            .unwrap(),
        );
        t.insert(vec![1.into(), "x".into(), "blob".into(), Value::Null])
            .unwrap();
        t.insert(vec![2.into(), "x".into(), Value::Null, Value::Null])
            .unwrap();
        db.add_table(t).unwrap();
        db
    }

    #[test]
    fn eligibility_rules_match_the_paper() {
        let profiles = profile_database(&db());
        let by_name = |n: &str| profiles.iter().find(|p| p.name.column == n).unwrap();

        let id = by_name("id");
        assert!(id.is_dependent_candidate());
        assert!(id.is_referenced_candidate(), "distinct values -> unique");

        let dup = by_name("dup");
        assert!(dup.is_dependent_candidate());
        assert!(!dup.is_referenced_candidate(), "duplicates -> not unique");

        let doc = by_name("doc");
        assert!(!doc.is_dependent_candidate(), "LOB excluded as dependent");
        assert!(doc.is_referenced_candidate(), "LOB can still be referenced");

        let empty = by_name("empty");
        assert!(!empty.is_dependent_candidate());
        assert!(!empty.is_referenced_candidate());
    }

    #[test]
    fn memory_export_ids_align() {
        let (profiles, provider) = memory_export(&db());
        assert_eq!(profiles.len(), provider.attribute_count());
        for p in &profiles {
            let set = provider.set(p.id).unwrap();
            assert_eq!(set.len(), p.distinct, "attribute {}", p.name);
            if p.distinct > 0 {
                assert_eq!(set.as_slice().first(), p.min.as_deref());
                assert_eq!(set.as_slice().last(), p.max.as_deref());
            }
        }
    }

    #[test]
    fn export_and_scan_profiles_agree() {
        use ind_testkit::TempDir;
        use ind_valueset::{ExportOptions, ExportedDatabase};
        let db = db();
        let dir = TempDir::new("profiles-agree");
        let exp = ExportedDatabase::export(&db, dir.path(), &ExportOptions::default()).unwrap();
        let from_export = profiles_from_export(&exp);
        let from_scan = profile_database(&db);
        assert_eq!(from_export, from_scan);
    }
}
