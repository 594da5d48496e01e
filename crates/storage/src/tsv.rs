//! TSV persistence for databases.
//!
//! Layout: `<dir>/schema.txt` describes tables, columns, and gold-standard
//! foreign keys; `<dir>/<table>.tsv` holds one row per line with
//! tab-separated canonical values. `\N` encodes NULL; tabs, newlines, and
//! backslashes inside text are escaped. The format exists so generated
//! datasets can be inspected, diffed, and reloaded by the experiment
//! harness without regeneration.

use crate::database::Database;
use crate::error::{Result, StorageError};
use crate::schema::{ColumnSchema, TableSchema};
use crate::table::Table;
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

const NULL_TOKEN: &str = "\\N";

fn escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

/// Undoes [`escape`]. Most fields carry no escape at all and come back
/// borrowed — one byte scan, no per-character rebuild and no copy.
fn unescape<'a>(s: &'a str, context: &str) -> Result<Cow<'a, str>> {
    if !s.contains('\\') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('N') => out.push_str("\\N"), // literal "\N" inside longer field
            other => {
                return Err(StorageError::Parse {
                    context: context.to_string(),
                    detail: format!("bad escape sequence `\\{}`", other.unwrap_or(' ')),
                })
            }
        }
    }
    Ok(Cow::Owned(out))
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

    let mut line = String::new();
    for table in db.tables() {
        let mut out = BufWriter::new(std::fs::File::create(
            dir.join(format!("{}.tsv", table.name())),
        )?);
        for i in 0..table.row_count() {
            line.clear();
            for (j, _, col) in table.iter_columns() {
                if j > 0 {
                    line.push('\t');
                }
                match &col[i] {
                    Value::Null => line.push_str(NULL_TOKEN),
                    v => {
                        let rendered = v.to_string();
                        escape(&rendered, &mut line);
                    }
                }
            }
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
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
    let shares = crate::run_workers(workers.min(tables.len()), |_| {
        let mut loaded = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = tables.get(index) else {
                return loaded;
            };
            let table = load_table(dir, spec);
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
    let mut table = Table::new(schema);

    let data_path = dir.join(format!("{}.tsv", spec.name));
    let data_ctx = data_path.display().to_string();
    let file = std::fs::File::open(&data_path)?;
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.strip_suffix('\n').unwrap_or(&line);
        let arity = table.schema().arity();
        let mut row = Vec::with_capacity(arity);
        for (j, field) in trimmed.split('\t').enumerate() {
            if j >= arity {
                return Err(StorageError::Parse {
                    context: data_ctx.clone(),
                    detail: format!("line {line_no}: too many fields"),
                });
            }
            if field == NULL_TOKEN {
                row.push(Value::Null);
            } else {
                let dt = table.schema().columns[j].data_type;
                let unescaped = unescape(field, &data_ctx)?;
                let v = Value::parse(dt, &unescaped).ok_or_else(|| StorageError::Parse {
                    context: data_ctx.clone(),
                    detail: format!("line {line_no}: cannot parse `{unescaped}` as {dt}"),
                })?;
                row.push(v);
            }
        }
        table.insert(row)?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnSchema, TableSchema};
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
    fn escape_unescape_round_trip() {
        for s in [
            "plain",
            "a\tb",
            "a\nb",
            "back\\slash",
            "\\N",
            "",
            "mix\t\n\\",
        ] {
            let mut esc = String::new();
            escape(s, &mut esc);
            assert!(!esc.contains('\t'));
            assert!(!esc.contains('\n'));
            assert_eq!(unescape(&esc, "test").unwrap(), s, "input {s:?}");
        }
    }

    #[test]
    fn unescape_borrows_plain_fields_and_rebuilds_only_escaped_ones() {
        // No escape: the fast path hands the field back as is.
        for plain in ["", "plain", "4711", "tab-free, newline-free é∑"] {
            assert!(matches!(unescape(plain, "test"), Ok(Cow::Borrowed(s)) if s == plain));
        }
        // One escape, only escapes, and a literal `\N` inside a longer
        // field (the whole-field `\N` is NULL and never reaches unescape).
        for (escaped, plain) in [
            ("a\\tb", "a\tb"),
            ("\\\\", "\\"),
            ("\\t\\n\\r\\\\", "\t\n\r\\"),
            ("x\\Ny", "x\\Ny"),
        ] {
            assert_eq!(unescape(escaped, "test").unwrap(), plain, "{escaped:?}");
        }
        // A bad escape still errs, naming its context.
        for bad in ["a\\qb", "trailing\\"] {
            match unescape(bad, "items.tsv") {
                Err(StorageError::Parse { context, detail }) => {
                    assert_eq!(context, "items.tsv");
                    assert!(detail.contains("bad escape sequence"), "{detail}");
                }
                other => panic!("{bad:?}: expected a parse error, got {other:?}"),
            }
        }
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

    #[test]
    fn bad_value_reports_line() {
        let dir = TempDir::new("tsv-badvalue");
        std::fs::write(
            dir.join("schema.txt"),
            "database\tx\ntable\tt\ncolumn\tc\tinteger\tnull\tdup\n",
        )
        .unwrap();
        std::fs::write(dir.join("t.tsv"), "notanumber\n").unwrap();
        match load_database(dir.path()) {
            Err(StorageError::Parse { detail, .. }) => assert!(detail.contains("line 1")),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
