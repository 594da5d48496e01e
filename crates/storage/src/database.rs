//! A database: a named collection of tables.

use crate::error::{Result, StorageError};
use crate::schema::{CompositeForeignKeyDef, ForeignKeyDef, QualifiedName};
use crate::table::Table;
use std::collections::HashMap;

/// A database instance. Table order is insertion order (deterministic), with
/// a name index for lookup.
#[derive(Debug, Clone)]
pub struct Database {
    name: String,
    tables: Vec<Table>,
    index: HashMap<String, usize>,
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            tables: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Database name (e.g. `uniprot`, `scop`, `pdb`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a table; rejects duplicates by name.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        let name = table.name().to_string();
        if self.index.contains_key(&name) {
            return Err(StorageError::DuplicateTable(name));
        }
        self.index.insert(name, self.tables.len());
        self.tables.push(table);
        Ok(())
    }

    /// Table lookup by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.index
            .get(name)
            .map(|&i| &self.tables[i])
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Mutable table lookup by name.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        match self.index.get(name) {
            Some(&i) => Ok(&mut self.tables[i]),
            None => Err(StorageError::UnknownTable(name.to_string())),
        }
    }

    /// Tables in insertion order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total attribute (column) count across all tables — the `n` in the
    /// paper's `(n² − n)/2` candidate analysis.
    pub fn attribute_count(&self) -> usize {
        self.tables.iter().map(|t| t.schema().arity()).sum()
    }

    /// Total row count across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.row_count()).sum()
    }

    /// All attributes as qualified names, in deterministic schema order.
    pub fn attributes(&self) -> Vec<QualifiedName> {
        let mut out = Vec::with_capacity(self.attribute_count());
        for t in &self.tables {
            for c in &t.schema().columns {
                out.push(QualifiedName::new(t.name(), c.name.clone()));
            }
        }
        out
    }

    /// Column data addressed by qualified name, as typed values (the
    /// table's cached view, see [`Table::column`]).
    pub fn column(&self, qn: &QualifiedName) -> Result<&[crate::value::Value]> {
        self.table(&qn.table)?.column_by_name(&qn.column)
    }

    /// A column's stored cells addressed by qualified name.
    pub fn cells(&self, qn: &QualifiedName) -> Result<&crate::column::Column> {
        self.table(&qn.table)?.cells_by_name(&qn.column)
    }

    /// All gold-standard foreign keys as `(dependent, referenced)` qualified
    /// name pairs, in deterministic order.
    pub fn gold_foreign_keys(&self) -> Vec<(QualifiedName, QualifiedName)> {
        let mut out = Vec::new();
        for t in &self.tables {
            for ForeignKeyDef {
                column,
                ref_table,
                ref_column,
            } in &t.schema().foreign_keys
            {
                out.push((
                    QualifiedName::new(t.name(), column.clone()),
                    QualifiedName::new(ref_table.clone(), ref_column.clone()),
                ));
            }
        }
        out
    }

    /// All gold-standard composite foreign keys as aligned qualified-name
    /// sequences `(dependent columns, referenced columns)`, in
    /// deterministic order.
    pub fn gold_composite_foreign_keys(&self) -> Vec<(Vec<QualifiedName>, Vec<QualifiedName>)> {
        let mut out = Vec::new();
        for t in &self.tables {
            for CompositeForeignKeyDef {
                columns,
                ref_table,
                ref_columns,
            } in &t.schema().composite_foreign_keys
            {
                out.push((
                    columns
                        .iter()
                        .map(|c| QualifiedName::new(t.name(), c.clone()))
                        .collect(),
                    ref_columns
                        .iter()
                        .map(|c| QualifiedName::new(ref_table.clone(), c.clone()))
                        .collect(),
                ));
            }
        }
        out
    }

    /// Validates that every declared foreign key — unary and composite —
    /// points at an existing table/column. Generators call this after
    /// assembly.
    pub fn validate_foreign_keys(&self) -> Result<()> {
        for (dep, refd) in self.gold_foreign_keys() {
            self.table(&refd.table)?.schema().column(&refd.column)?;
            self.table(&dep.table)?.schema().column(&dep.column)?;
        }
        for (deps, refs) in self.gold_composite_foreign_keys() {
            for qn in deps.iter().chain(&refs) {
                self.table(&qn.table)?.schema().column(&qn.column)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnSchema, TableSchema};
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new("test");
        let mut parent = Table::new(
            TableSchema::new(
                "parent",
                vec![ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique()],
            )
            .unwrap(),
        );
        parent.insert(vec![1.into()]).unwrap();
        parent.insert(vec![2.into()]).unwrap();
        db.add_table(parent).unwrap();

        let mut schema = TableSchema::new(
            "child",
            vec![
                ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique(),
                ColumnSchema::new("parent_id", DataType::Integer),
            ],
        )
        .unwrap();
        schema.add_foreign_key("parent_id", "parent", "id").unwrap();
        let mut child = Table::new(schema);
        child.insert(vec![10.into(), 1.into()]).unwrap();
        db.add_table(child).unwrap();
        db
    }

    #[test]
    fn lookup_and_counts() {
        let db = db();
        assert_eq!(db.table_count(), 2);
        assert_eq!(db.attribute_count(), 3);
        assert_eq!(db.total_rows(), 3);
        assert!(db.table("parent").is_ok());
        assert!(db.table("nope").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let t = Table::new(TableSchema::new("parent", vec![]).unwrap());
        assert!(matches!(
            db.add_table(t),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn attributes_are_deterministic() {
        let db = db();
        let attrs = db.attributes();
        assert_eq!(
            attrs.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
            vec!["parent.id", "child.id", "child.parent_id"]
        );
    }

    #[test]
    fn column_by_qualified_name() {
        let db = db();
        let col = db
            .column(&QualifiedName::new("child", "parent_id"))
            .unwrap();
        assert_eq!(col, &[Value::Integer(1)]);
    }

    #[test]
    fn gold_foreign_keys_collected_and_validated() {
        let db = db();
        let fks = db.gold_foreign_keys();
        assert_eq!(fks.len(), 1);
        assert_eq!(fks[0].0.to_string(), "child.parent_id");
        assert_eq!(fks[0].1.to_string(), "parent.id");
        db.validate_foreign_keys().unwrap();
    }

    #[test]
    fn gold_composite_foreign_keys_collected_and_validated() {
        let mut db = Database::new("composite");
        let parent = Table::new(
            TableSchema::new(
                "pair_parent",
                vec![
                    ColumnSchema::new("a", DataType::Integer),
                    ColumnSchema::new("b", DataType::Integer),
                ],
            )
            .unwrap(),
        );
        db.add_table(parent).unwrap();
        let mut schema = TableSchema::new(
            "pair_child",
            vec![
                ColumnSchema::new("x", DataType::Integer),
                ColumnSchema::new("y", DataType::Integer),
            ],
        )
        .unwrap();
        schema
            .add_composite_foreign_key(["x", "y"], "pair_parent", ["a", "b"])
            .unwrap();
        db.add_table(Table::new(schema)).unwrap();

        let cfks = db.gold_composite_foreign_keys();
        assert_eq!(cfks.len(), 1);
        let (deps, refs) = &cfks[0];
        assert_eq!(
            deps.iter().map(|q| q.to_string()).collect::<Vec<_>>(),
            vec!["pair_child.x", "pair_child.y"]
        );
        assert_eq!(
            refs.iter().map(|q| q.to_string()).collect::<Vec<_>>(),
            vec!["pair_parent.a", "pair_parent.b"]
        );
        db.validate_foreign_keys().unwrap();
    }

    #[test]
    fn dangling_composite_foreign_key_detected() {
        let mut db = Database::new("broken-composite");
        let mut schema = TableSchema::new(
            "t",
            vec![
                ColumnSchema::new("x", DataType::Integer),
                ColumnSchema::new("y", DataType::Integer),
            ],
        )
        .unwrap();
        schema
            .add_composite_foreign_key(["x", "y"], "ghost", ["a", "b"])
            .unwrap();
        db.add_table(Table::new(schema)).unwrap();
        assert!(db.validate_foreign_keys().is_err());
    }

    #[test]
    fn dangling_foreign_key_detected() {
        let mut db = Database::new("broken");
        let mut schema =
            TableSchema::new("t", vec![ColumnSchema::new("x", DataType::Integer)]).unwrap();
        schema.add_foreign_key("x", "ghost", "id").unwrap();
        db.add_table(Table::new(schema)).unwrap();
        assert!(db.validate_foreign_keys().is_err());
    }
}
