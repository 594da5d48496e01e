//! Quickstart: build a small database, discover its inclusion
//! dependencies, and print them.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use spider_ind::core::{Algorithm, Backend, IndFinder};
use spider_ind::storage::{ColumnSchema, DataType, Database, Table, TableSchema, Value};

fn main() {
    // An "undocumented" database: no foreign keys declared anywhere.
    let mut db = Database::new("shop");

    let mut customers = Table::new(
        TableSchema::new(
            "customers",
            vec![
                ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique(),
                ColumnSchema::new("email", DataType::Text).unique(),
            ],
        )
        .expect("schema"),
    );
    for i in 0..50i64 {
        customers
            .insert(vec![
                (1000 + i).into(),
                format!("user{i}@example.org").into(),
            ])
            .expect("row");
    }
    db.add_table(customers).expect("table");

    let mut orders = Table::new(
        TableSchema::new(
            "orders",
            vec![
                ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique(),
                ColumnSchema::new("customer_id", DataType::Integer),
                ColumnSchema::new("total", DataType::Float),
                ColumnSchema::new("note", DataType::Text),
            ],
        )
        .expect("schema"),
    );
    for i in 0..200i64 {
        orders
            .insert(vec![
                (500_000 + i).into(),
                (1000 + i % 50).into(),
                (f64::from(i as i32) * 1.75).into(),
                if i % 3 == 0 {
                    Value::Null
                } else {
                    format!("order note {i}").into()
                },
            ])
            .expect("row");
    }
    db.add_table(orders).expect("table");

    // Discover all unary INDs with the single-pass algorithm.
    let finder = IndFinder::with_algorithm(Algorithm::SinglePass);
    let discovery = finder.run(&db, &Backend::memory(), 1).expect("discovery");

    println!(
        "examined {} candidate pairs, tested {}, found {} satisfied IND(s):\n",
        discovery.metrics.pairs_considered,
        discovery.metrics.tested,
        discovery.ind_count()
    );
    for (dep, refd) in discovery.satisfied_named() {
        println!("  {dep} \u{2286} {refd}");
    }
    println!(
        "\nthe IND orders.customer_id \u{2286} customers.id is the foreign key \
         a schema-discovery tool would propose to a user"
    );
}
