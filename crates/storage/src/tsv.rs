//! TSV persistence for databases.
//!
//! Layout: `<dir>/schema.txt` describes tables, columns, and gold-standard
//! foreign keys; `<dir>/<table>.tsv` holds one row per line with
//! tab-separated canonical values. `\N` encodes NULL; tabs, newlines, and
//! backslashes inside text are escaped. The format exists so generated
//! datasets can be inspected, diffed, and reloaded by the experiment
//! harness without regeneration.

mod rows;

use crate::database::Database;
use crate::error::{Result, StorageError};
use crate::schema::{ColumnSchema, TableSchema};
use crate::table::Table;
use crate::value::DataType;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A parse error at line `line` of the data file `context`. The row parser
/// builds its errors here: it is under the `hot_alloc` lint, this is not.
fn parse_error(context: &str, line: usize, detail: std::fmt::Arguments<'_>) -> StorageError {
    StorageError::Parse {
        context: context.to_string(),
        detail: format!("line {line}: {detail}"),
    }
}

/// Saves `db` under `dir` (created if missing).
pub fn save_database(db: &Database, dir: &Path) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut schema_out = BufWriter::new(std::fs::File::create(dir.join("schema.txt"))?);
    writeln!(schema_out, "database\t{}", db.name())?;
    for table in db.tables() {
        writeln!(schema_out, "table\t{}", table.name())?;
        for c in &table.schema().columns {
            writeln!(
                schema_out,
                "column\t{}\t{}\t{}\t{}",
                c.name,
                c.data_type.name(),
                if c.nullable { "null" } else { "notnull" },
                if c.unique { "unique" } else { "dup" },
            )?;
        }
        for fk in &table.schema().foreign_keys {
            writeln!(
                schema_out,
                "fk\t{}\t{}\t{}",
                fk.column, fk.ref_table, fk.ref_column
            )?;
        }
        // Composite keys: `cfk  <ref_table>  <arity>  cols…  ref_cols…`,
        // one tab-separated field per column so names never need quoting.
        for cfk in &table.schema().composite_foreign_keys {
            write!(schema_out, "cfk\t{}\t{}", cfk.ref_table, cfk.arity())?;
            for c in cfk.columns.iter().chain(&cfk.ref_columns) {
                write!(schema_out, "\t{c}")?;
            }
            writeln!(schema_out)?;
        }
    }
    schema_out.flush()?;

    for table in db.tables() {
        let mut out = BufWriter::new(std::fs::File::create(
            dir.join(format!("{}.tsv", table.name())),
        )?);
        rows::write_table(table, &mut out)?;
        out.flush()?;
    }
    Ok(())
}

/// One `table` block of `schema.txt`, as parsed: enough to build the
/// table's schema and find its data file.
struct TableSpec {
    name: String,
    columns: Vec<ColumnSchema>,
    /// (column, referenced table, referenced column).
    foreign_keys: Vec<(String, String, String)>,
    /// (columns, referenced table, referenced columns).
    composite_foreign_keys: Vec<(Vec<String>, String, Vec<String>)>,
}

/// Loads a database previously written by [`save_database`], reading the
/// tables' `.tsv` files on every core ([`crate::default_workers`]).
pub fn load_database(dir: &Path) -> Result<Database> {
    load_database_with(dir, crate::default_workers())
}

/// [`load_database`] on `workers` threads (`0` and `1` both mean the
/// calling thread alone). The schema is parsed first; the tables are then
/// independent jobs claimed one at a time off a shared index and
/// re-assembled in schema order, so the database — and, when several
/// tables are bad, the error, which is that of the table earliest in
/// `schema.txt` — is the same at any worker count.
pub fn load_database_with(dir: &Path, workers: usize) -> Result<Database> {
    let schema_path = dir.join("schema.txt");
    let ctx = schema_path.display().to_string();
    let file = std::fs::File::open(&schema_path)?;
    let reader = BufReader::new(file);

    let mut db_name: Option<String> = None;
    let mut tables: Vec<TableSpec> = Vec::new();

    for line in reader.lines() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "database" if fields.len() == 2 => db_name = Some(fields[1].to_string()),
            "table" if fields.len() == 2 => tables.push(TableSpec {
                name: fields[1].to_string(),
                columns: Vec::new(),
                foreign_keys: Vec::new(),
                composite_foreign_keys: Vec::new(),
            }),
            "column" if fields.len() == 5 => {
                let table = tables.last_mut().ok_or_else(|| StorageError::Parse {
                    context: ctx.clone(),
                    detail: "column line before any table line".into(),
                })?;
                let dt = DataType::from_name(fields[2]).ok_or_else(|| StorageError::Parse {
                    context: ctx.clone(),
                    detail: format!("unknown data type `{}`", fields[2]),
                })?;
                let mut c = ColumnSchema::new(fields[1], dt);
                c.nullable = fields[3] == "null";
                c.unique = fields[4] == "unique";
                table.columns.push(c);
            }
            "fk" if fields.len() == 4 => {
                let table = tables.last_mut().ok_or_else(|| StorageError::Parse {
                    context: ctx.clone(),
                    detail: "fk line before any table line".into(),
                })?;
                table.foreign_keys.push((
                    fields[1].to_string(),
                    fields[2].to_string(),
                    fields[3].to_string(),
                ));
            }
            "cfk" if fields.len() >= 3 => {
                let table = tables.last_mut().ok_or_else(|| StorageError::Parse {
                    context: ctx.clone(),
                    detail: "cfk line before any table line".into(),
                })?;
                let arity: usize = fields[2].parse().map_err(|_| StorageError::Parse {
                    context: ctx.clone(),
                    detail: format!("bad composite-key arity `{}`", fields[2]),
                })?;
                // Checked arithmetic: a hostile arity must be a parse
                // error, not a debug-build overflow panic.
                let expected_fields = arity
                    .checked_mul(2)
                    .and_then(|n| n.checked_add(3))
                    .ok_or_else(|| StorageError::Parse {
                        context: ctx.clone(),
                        detail: format!("bad composite-key arity `{arity}`"),
                    })?;
                if fields.len() != expected_fields {
                    return Err(StorageError::Parse {
                        context: ctx,
                        detail: format!(
                            "cfk line has {} column fields, expected {}",
                            fields.len() - 3,
                            2 * arity
                        ),
                    });
                }
                table.composite_foreign_keys.push((
                    fields[3..3 + arity].iter().map(|s| s.to_string()).collect(),
                    fields[1].to_string(),
                    fields[3 + arity..].iter().map(|s| s.to_string()).collect(),
                ));
            }
            other => {
                return Err(StorageError::Parse {
                    context: ctx,
                    detail: format!("unrecognized schema line starting with `{other}`"),
                })
            }
        }
    }

    let mut db = Database::new(db_name.ok_or_else(|| StorageError::Parse {
        context: ctx.clone(),
        detail: "missing database line".into(),
    })?);

    // Indices are handed out in schema order, so the claimed tables are
    // always a prefix of the schema. A failure stops further claims; every
    // earlier table is already with a worker and runs to its own verdict,
    // which is what makes "the earliest bad table's error" independent of
    // the worker count.
    let next = AtomicUsize::new(0);
    let parent = ind_trace::current_parent();
    let shares = crate::run_workers(workers.min(tables.len()), |_| {
        let mut loaded = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = tables.get(index) else {
                return loaded;
            };
            let span = ind_trace::start_under(ind_trace::LOAD_TABLE, index as u64, parent);
            let table = load_table(dir, spec);
            span.finish();
            if table.is_err() {
                next.store(tables.len(), Ordering::Relaxed);
            }
            loaded.push((index, table));
        }
    });
    let mut loaded: Vec<(usize, Result<Table>)> = shares.into_iter().flatten().collect();
    loaded.sort_unstable_by_key(|(index, _)| *index);
    for (_, table) in loaded {
        db.add_table(table?)?;
    }
    db.validate_foreign_keys()?;
    Ok(db)
}

/// Builds one table's schema from its `schema.txt` block and fills it from
/// `<dir>/<name>.tsv`.
fn load_table(dir: &Path, spec: &TableSpec) -> Result<Table> {
    let mut schema = TableSchema::new(&spec.name, spec.columns.clone())?;
    for (col, rt, rc) in &spec.foreign_keys {
        schema.add_foreign_key(col, rt, rc)?;
    }
    for (cols, rt, rcs) in &spec.composite_foreign_keys {
        schema.add_composite_foreign_key(cols, rt, rcs)?;
    }
    let data_path = dir.join(format!("{}.tsv", spec.name));
    let file = std::fs::File::open(&data_path)?;
    let file_bytes = file.metadata()?.len();
    rows::read_table(
        BufReader::with_capacity(rows::READ_BUFFER_BYTES, file),
        file_bytes,
        schema,
        &data_path.display().to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnSchema, TableSchema};
    use crate::value::Value;
    use ind_testkit::TempDir;

    fn sample_db() -> Database {
        let mut db = Database::new("roundtrip");
        let mut schema = TableSchema::new(
            "items",
            vec![
                ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique(),
                ColumnSchema::new("label", DataType::Text),
                ColumnSchema::new("weight", DataType::Float),
            ],
        )
        .unwrap();
        schema.add_foreign_key("id", "items", "id").unwrap();
        schema
            .add_composite_foreign_key(["id", "label"], "items", ["label", "id"])
            .unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![1.into(), "plain".into(), 1.25.into()])
            .unwrap();
        t.insert(vec![2.into(), "tab\there".into(), Value::Null])
            .unwrap();
        t.insert(vec![3.into(), "line\nbreak \\ slash".into(), 0.5.into()])
            .unwrap();
        t.insert(vec![4.into(), Value::Null, Value::Null]).unwrap();
        db.add_table(t).unwrap();
        db.add_table(Table::new(
            TableSchema::new("empty", vec![ColumnSchema::new("x", DataType::Text)]).unwrap(),
        ))
        .unwrap();
        db
    }

    #[test]
    fn round_trip_preserves_everything() {
        let dir = TempDir::new("tsv-roundtrip");
        let db = sample_db();
        save_database(&db, dir.path()).unwrap();
        let loaded = load_database(dir.path()).unwrap();

        assert_eq!(loaded.name(), db.name());
        assert_eq!(loaded.table_count(), db.table_count());
        let orig = db.table("items").unwrap();
        let back = loaded.table("items").unwrap();
        assert_eq!(back.schema(), orig.schema());
        assert_eq!(
            back.schema().composite_foreign_keys,
            orig.schema().composite_foreign_keys,
            "composite gold keys must survive the round trip"
        );
        assert_eq!(back.row_count(), orig.row_count());
        for i in 0..orig.row_count() {
            assert_eq!(back.row(i), orig.row(i), "row {i}");
        }
        assert!(loaded.table("empty").unwrap().is_empty());
    }

    #[test]
    fn corrupt_schema_is_an_error() {
        let dir = TempDir::new("tsv-corrupt");
        std::fs::write(dir.join("schema.txt"), "garbage\tline\n").unwrap();
        assert!(matches!(
            load_database(dir.path()),
            Err(StorageError::Parse { .. })
        ));
    }

    #[test]
    fn hostile_cfk_arity_is_a_parse_error_not_a_panic() {
        let dir = TempDir::new("tsv-cfk-arity");
        for arity in ["9223372036854775807", "18446744073709551615", "x"] {
            std::fs::write(
                dir.join("schema.txt"),
                format!(
                    "database\tx\ntable\tt\ncolumn\ta\ttext\tnull\tdup\n\
                     column\tb\ttext\tnull\tdup\ncfk\tt\t{arity}\ta\tb\ta\tb\n"
                ),
            )
            .unwrap();
            assert!(matches!(
                load_database(dir.path()),
                Err(StorageError::Parse { .. })
            ));
        }
    }

    #[test]
    fn missing_data_file_is_an_error() {
        let dir = TempDir::new("tsv-missing");
        std::fs::write(
            dir.join("schema.txt"),
            "database\tx\ntable\tt\ncolumn\tc\ttext\tnull\tdup\n",
        )
        .unwrap();
        assert!(matches!(
            load_database(dir.path()),
            Err(StorageError::Io(_))
        ));
    }

    /// `schema.txt` for one table `t` plus its data file.
    fn write_table(dir: &TempDir, columns: &str, data: &[u8]) {
        std::fs::write(
            dir.join("schema.txt"),
            format!("database\tx\ntable\tt\n{columns}"),
        )
        .unwrap();
        std::fs::write(dir.join("t.tsv"), data).unwrap();
    }

    #[test]
    fn crlf_line_ends_load_like_lf() {
        // A text last column used to keep the `\r` in every value and an
        // integer last column failed to parse.
        let dir = TempDir::new("tsv-crlf");
        let db = sample_db();
        save_database(&db, dir.path()).unwrap();
        let lf = std::fs::read(dir.join("items.tsv")).unwrap();
        let crlf: Vec<u8> = lf
            .iter()
            .flat_map(|&b| {
                if b == b'\n' {
                    vec![b'\r', b'\n']
                } else {
                    vec![b]
                }
            })
            .collect();
        assert_ne!(lf, crlf);
        let from_lf = load_database(dir.path()).unwrap();
        std::fs::write(dir.join("items.tsv"), &crlf).unwrap();
        let from_crlf = load_database(dir.path()).unwrap();
        for (a, b) in from_lf.tables().iter().zip(from_crlf.tables()) {
            assert_eq!(a.schema(), b.schema());
            for ((_, cs, x), (_, _, y)) in a.iter_cells().zip(b.iter_cells()) {
                assert!(x.cells().eq(y.cells()), "{}.{}", a.name(), cs.name);
            }
        }

        for (columns, data, last) in [
            ("column\ta\ttext\tnull\tdup\n", "x\r\ny\r\n", "y"),
            ("column\ta\tinteger\tnull\tdup\n", "1\r\n+2\r\n", "2"),
            // An escaped carriage return is data; only the bare one is not.
            ("column\ta\ttext\tnull\tdup\n", "x\r\nz\\r\r\n", "z\r"),
            // Without the line feed it is not a line end.
            ("column\ta\ttext\tnull\tdup\n", "x\r\nw\r", "w\r"),
        ] {
            write_table(&dir, columns, data.as_bytes());
            let db = load_database(dir.path()).unwrap();
            let t = db.table("t").unwrap();
            assert_eq!(t.row_count(), 2, "{data:?}");
            assert_eq!(t.cells(0).cell(1), Some(last.as_bytes()), "{data:?}");
        }
    }

    #[test]
    fn short_and_long_rows_are_parse_errors_naming_file_and_line() {
        let dir = TempDir::new("tsv-arity");
        let columns = "column\ta\tinteger\tnull\tdup\ncolumn\tb\ttext\tnull\tdup\n";
        for (data, what) in [
            ("1\tx\n2\n", "expected 2 fields, got 1"),
            // Fields are checked left to right: the empty line's one field
            // is a bad integer before it is a short row.
            ("1\tx\n\n", "cannot parse `` as integer"),
            ("1\tx\n2\ty\tz\n", "too many fields"),
        ] {
            write_table(&dir, columns, data.as_bytes());
            match load_database(dir.path()) {
                Err(StorageError::Parse { context, detail }) => {
                    assert!(context.ends_with("t.tsv"), "{context}");
                    assert_eq!(detail, format!("line 2: {what}"));
                }
                other => panic!("{data:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_canonical_numbers_are_stored_canonical() {
        let dir = TempDir::new("tsv-canonical");
        let columns = "column\ti\tinteger\tnull\tdup\ncolumn\tf\tfloat\tnull\tdup\n";
        write_table(
            &dir,
            columns,
            b"+5\t1.50\n007\t1e3\n-0\t-0\n42\tinf\n\\N\tNaN\n-9223372036854775808\t.5",
        );
        let db = load_database(dir.path()).unwrap();
        let t = db.table("t").unwrap();
        let cells = |j: usize| -> Vec<Option<&[u8]>> { t.cells(j).cells().collect() };
        let ints: [Option<&[u8]>; 6] = [
            Some(b"5"),
            Some(b"7"),
            Some(b"0"),
            Some(b"42"),
            None,
            Some(b"-9223372036854775808"),
        ];
        let floats: [Option<&[u8]>; 6] = [
            Some(b"1.5"),
            Some(b"1000"),
            Some(b"-0"),
            Some(b"inf"),
            Some(b"NaN"),
            Some(b"0.5"),
        ];
        assert_eq!(cells(0), ints);
        assert_eq!(cells(1), floats);
        assert_eq!(t.column(0)[1], Value::Integer(7));
        assert_eq!(t.column(1)[1], Value::Float(1000.0));
        assert_eq!(t.value_views_built(), 2);
    }
}
