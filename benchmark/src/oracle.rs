//! The independent oracle: which unary INDs hold in a database, decided by
//! hash-set membership over `Value::canonical_bytes`.
//!
//! It shares no code with candidate generation, sorters, cursors or
//! engines — a bug in any of those cannot also be in here. Eligibility
//! follows the paper's Sec. 2 as the library documents it: a dependent is
//! any non-empty non-LOB column, a referenced column is non-empty and
//! unique in the data, and a column is never tested against itself.

use ind_storage::{DataType, Database, Value};
use std::collections::HashSet;

/// Every satisfied IND as a `"dep <= ref"` line, sorted.
pub fn satisfied_inds(db: &Database) -> Vec<String> {
    struct Column {
        name: String,
        lob: bool,
        non_null: usize,
        values: HashSet<Vec<u8>>,
    }
    let mut columns = Vec::new();
    for table in db.tables() {
        for (_, schema, data) in table.iter_columns() {
            let non_null = data.iter().filter(|v| !v.is_null()).count();
            columns.push(Column {
                name: format!("{}.{}", table.name(), schema.name),
                lob: schema.data_type == DataType::Lob,
                non_null,
                values: data
                    .iter()
                    .filter(|v| !v.is_null())
                    .map(Value::canonical_bytes)
                    .collect(),
            });
        }
    }
    let mut inds = Vec::new();
    for (d, dep) in columns.iter().enumerate() {
        if dep.values.is_empty() || dep.lob {
            continue;
        }
        for (r, refd) in columns.iter().enumerate() {
            let unique = refd.values.len() == refd.non_null;
            if d == r || refd.values.is_empty() || !unique {
                continue;
            }
            if dep.values.len() <= refd.values.len()
                && dep.values.iter().all(|v| refd.values.contains(v))
            {
                inds.push(format!("{} <= {}", dep.name, refd.name));
            }
        }
    }
    inds.sort();
    inds
}

/// The gold foreign keys the data can show, as `"dep <= ref"` lines: a key
/// declared on a column with no non-null value (the generator's empty
/// tables, the paper's Sec. 5 caveat) is undiscoverable by construction.
pub fn discoverable_gold(db: &Database) -> Result<Vec<String>, String> {
    let mut gold = Vec::new();
    for (dep, refd) in db.gold_foreign_keys() {
        let column = db
            .column(&dep)
            .map_err(|e| format!("gold key {dep}: {e}"))?;
        if column.iter().any(|v| !v.is_null()) {
            gold.push(format!("{dep} <= {refd}"));
        }
    }
    Ok(gold)
}

/// FNV-1a over the lines and their count: what a trial reports instead of
/// the list itself. The driver compares it with the oracle's.
pub fn digest(lines: &[String]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for line in lines {
        eat(line.as_bytes());
        eat(b"\n");
    }
    format!("{}:{hash:016x}", lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_storage::{ColumnSchema, Table, TableSchema};

    fn table(name: &str, columns: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> Table {
        let schema = TableSchema::new(
            name,
            columns
                .iter()
                .map(|(c, t)| ColumnSchema::new(*c, *t))
                .collect(),
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.insert_all(rows).unwrap();
        t
    }

    #[test]
    fn applies_the_eligibility_rules() {
        let mut db = Database::new("oracle");
        db.add_table(table(
            "parent",
            &[("id", DataType::Integer), ("doc", DataType::Lob)],
            (1..=4)
                .map(|i| vec![Value::Integer(i), Value::Text(format!("{i}"))])
                .collect(),
        ))
        .unwrap();
        db.add_table(table(
            "child",
            &[
                ("pid", DataType::Integer),
                ("stray", DataType::Integer),
                ("empty", DataType::Integer),
            ],
            vec![
                vec![Value::Integer(1), Value::Integer(9), Value::Null],
                vec![Value::Integer(1), Value::Integer(2), Value::Null],
                vec![Value::Null, Value::Integer(3), Value::Null],
            ],
        ))
        .unwrap();
        assert_eq!(
            satisfied_inds(&db),
            vec![
                // pid (dup, nulls ignored) is included in both unique parent
                // columns; the LOB may be referenced but never depends.
                "child.pid <= parent.doc",
                "child.pid <= parent.id",
                "parent.id <= parent.doc",
            ]
        );
    }

    #[test]
    fn digest_depends_on_content_order_and_count() {
        let a = vec!["x <= y".to_string(), "y <= z".to_string()];
        let mut b = a.clone();
        b.pop();
        assert_ne!(digest(&a), digest(&b));
        assert!(digest(&a).starts_with("2:"));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
