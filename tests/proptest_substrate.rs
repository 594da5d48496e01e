//! Property tests for the substrates: TSV persistence with hostile
//! strings, external sort vs. std sort at arbitrary spill budgets, and
//! value-file round trips over arbitrary byte strings — including reads
//! through arbitrary (tiny) I/O block sizes, where record bodies straddle
//! every block boundary.

use ind_testkit::TempDir;
use proptest::prelude::*;
use spider_ind::storage::tsv::{load_database, save_database};
use spider_ind::storage::{Column, ColumnSchema, DataType, Database, Table, TableSchema, Value};
use spider_ind::valueset::{
    collect_cursor, compare_keys, crc32c, extract_composite_to_file, extract_memory_columns,
    extract_memory_set, extract_sorted_distinct, extract_to_file, key_prefix64, Crc32c,
    ExternalSorter, IoOptions, MemoryValueSet, SortOptions, SortStats, Source, TournamentTree,
    ValueCursor, ValueFileReader, ValueFileWriter, DEFAULT_BLOCK_SIZE, MIN_BLOCK_SIZE,
};
use std::collections::BTreeSet;

fn arb_text_value() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(proptest::string::string_regex("[ -~\\t\\n\\\\]{0,12}").unwrap())
}

/// Storage values for extraction agreement: NULLs, integers, and text with
/// shared prefixes (so sorting and dedup see adjacent near-equal slices).
fn arb_column_value() -> impl Strategy<Value = Value> {
    (
        any::<u8>(),
        -50i64..50,
        proptest::string::string_regex("[a-c]{0,6}").unwrap(),
    )
        .prop_map(|(kind, n, s)| match kind % 12 {
            0 | 1 => Value::Null,
            2..=6 => Value::Integer(n),
            // A shared prefix on half the strings keeps sort/dedup honest
            // about adjacent near-equal slices.
            7 | 8 => Value::Text(format!("prefix{s}")),
            _ => Value::Text(s),
        })
}

/// Byte strings that stress the flat set's layout: the empty value, values
/// that are prefixes of each other, embedded `0x00`/`0xFF`, and a small
/// alphabet so multisets repeat themselves.
fn arb_flat_value() -> impl Strategy<Value = Vec<u8>> {
    (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..5)).prop_map(|(kind, tail)| {
        match kind % 8 {
            0 => Vec::new(),
            1 => b"ab".to_vec(),
            2 => b"abc".to_vec(),
            3 => [b"ab\x00".as_slice(), &tail].concat(),
            4 => [b"ab\xff".as_slice(), &tail].concat(),
            5 => tail
                .iter()
                .map(|b| if b % 2 == 0 { 0x00 } else { 0xff })
                .collect(),
            _ => tail,
        }
    })
}

/// Byte strings around the normalized key's 8-byte window: the empty
/// value, values shorter than the window, values that differ only by
/// trailing or embedded NULs (`"a"` vs `"a\0"` share a zero-padded key),
/// and values that agree on the whole window and differ after it. Past
/// the window, the sort's hash pass reads the last 8 bytes and, past 16, a
/// middle word: values of up to 40 bytes cross both edges, and 40-byte
/// values that agree in all three hashed words collide in its table.
fn arb_keyed_value() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u8>(),
        proptest::collection::vec(0u8..3, 0..12),
        0usize..4,
        0usize..41,
    )
        .prop_map(|(kind, tail, nuls, len)| match kind % 8 {
            0 => Vec::new(),
            // Short, over a three-letter alphabet that includes NUL.
            1 => tail.iter().take(7).copied().collect(),
            // "a", "a\0", "a\0\0", ...: equal keys, different values.
            2 => [b"a".as_slice(), &vec![0u8; nuls]].concat(),
            // Exactly the window, and the window plus a tail.
            3 => b"sameprefix"[..8].to_vec(),
            4 => [b"sameprefix".as_slice(), &tail].concat(),
            // Up to 40 bytes of `a` with NULs where the tail says.
            5 => (0..len)
                .map(|i| match tail.get(i % 12) {
                    Some(0) => 0,
                    _ => b'a',
                })
                .collect(),
            // Key, middle word and last 8 bytes alike; bytes 8..16 differ.
            6 => {
                let mut v = b"prefix--aaaaaaaa-middle-aaaaaaaalastword".to_vec();
                for (i, &t) in tail.iter().take(8).enumerate() {
                    v[8 + i] = t;
                }
                v[24 + nuls] = 0;
                v
            }
            _ => tail,
        })
}

/// A stored column for the resident-vs-pushed agreement: NULLs, the empty
/// string, duplicates over a small alphabet, values that share their first
/// eight bytes (and more), `"a"` against `"a\0"`, and 4 KiB cells — far
/// larger than the small budgets, which must not matter to a sort that
/// never copies them. One column in eight is all NULL and one has no rows.
fn arb_resident_column() -> impl Strategy<Value = Vec<Option<String>>> {
    let tail = proptest::string::string_regex("[a-c]{0,3}").unwrap();
    let cell = (any::<u8>(), 0usize..4, tail).prop_map(|(kind, n, tail)| match kind % 8 {
        0 => None,
        1 => Some(String::new()),
        2 | 3 => Some(tail),
        4 => Some(format!("sameprefix{tail}")),
        5 => Some(format!("a{}", "\0".repeat(n))),
        6 => Some(format!("{}{tail}", "x".repeat(4096))),
        _ => Some(format!("{n}")),
    });
    (any::<u8>(), proptest::collection::vec(cell, 0..60)).prop_map(|(shape, cells)| {
        match shape % 8 {
            0 => vec![None; cells.len()],
            1 => Vec::new(),
            _ => cells,
        }
    })
}

/// Feeds `values` to an [`ExternalSorter`] under `budget` (`push`, one copy
/// per value) and drains it into `<dir>/pushed.indv`.
fn external_sort_into(
    values: &[impl AsRef<[u8]>],
    budget: usize,
    dir: &TempDir,
) -> (std::path::PathBuf, SortStats) {
    let mut sorter =
        ExternalSorter::new(&dir.join("spill"), SortOptions::with_memory_budget(budget))
            .expect("sorter");
    for v in values {
        sorter.push(v.as_ref()).expect("push");
    }
    let path = dir.join("pushed.indv");
    let mut writer = ValueFileWriter::create(&path).expect("writer");
    let stats = sorter.finish_into(&mut writer).expect("merge");
    writer.finish().expect("finish");
    (path, stats)
}

/// [`external_sort_into`] a directory of its own, and the file read back.
fn external_sort(values: &[Vec<u8>], budget: usize) -> (Vec<Vec<u8>>, SortStats) {
    let dir = TempDir::new("prop-extsort");
    let (path, stats) = external_sort_into(values, budget, &dir);
    let got = collect_cursor(ValueFileReader::open(&path).expect("open")).expect("read");
    (got, stats)
}

/// Memory budgets from "spill on nearly every value" to "never spill".
fn arb_budget() -> impl Strategy<Value = usize> {
    (any::<u8>(), 64usize..2048)
        .prop_map(|(kind, small)| if kind % 4 == 0 { 1usize << 20 } else { small })
}

/// The loader's read buffer (`READ_BUFFER_BYTES` in `tsv/rows.rs`): the
/// generated files are padded against it so that lines span it and files
/// end exactly on it.
const LOADER_BUFFER: usize = 64 * 1024;

/// The generated table's column types, the last one text so that an empty
/// last field leaves a line ending in a tab.
const LOADER_TYPES: [DataType; 4] = [
    DataType::Integer,
    DataType::Float,
    DataType::Lob,
    DataType::Text,
];

/// One TSV field for a column of type `dt`, as it is written in the file,
/// picked by `(kind, n)`: NULL, the canonical spelling, and every
/// non-canonical spelling the parser must re-render — signs, leading and
/// trailing zeros, exponents, `inf`/`NaN`, digits past what an `f64`
/// holds — and for text every escape, the literal `\N` inside a longer
/// field, multi-byte characters and the empty string.
fn loader_field(dt: DataType, kind: u8, n: u64) -> String {
    if kind.is_multiple_of(9) {
        return "\\N".to_string();
    }
    let pick = |table: &[&str]| table[(n % table.len() as u64) as usize].to_string();
    match dt {
        DataType::Integer => match kind % 4 {
            0 => (n as i64).to_string(),
            1 => ((n % 2001) as i64 - 1000).to_string(),
            2 => format!(
                "{}{:0w$}",
                ["", "+", "-"][(n % 3) as usize],
                n % 977,
                w = (n % 5) as usize
            ),
            _ => pick(&[
                "0",
                "-0",
                "+0",
                "00",
                "+5",
                "007",
                "-007",
                "123456789012345678",
                "-123456789012345678",
                "1234567890123456789",
                "9223372036854775807",
                "-9223372036854775808",
                "0000000000000000000000042",
            ]),
        },
        DataType::Float => match kind % 5 {
            // Whatever an f64 can be, spelled canonically: hundreds of
            // digits, subnormals, infinities, NaN payloads.
            0 => f64::from_bits(n).to_string(),
            // `digits` decimal digits with the point anywhere, around the
            // 15-digit bound of the no-parse path.
            1 | 2 => {
                let digits = 1 + (n % 18) as usize;
                let point = (n / 18 % (digits as u64 + 1)) as usize;
                let body: String = (0..digits)
                    .map(|i| char::from(b'0' + ((n >> (i % 48)) % 10) as u8))
                    .collect();
                let sign = if n & (1 << 60) == 0 { "" } else { "-" };
                match (point, digits - point) {
                    (0, _) => format!("{sign}0.{body}"),
                    (_, 0) => format!("{sign}{body}"),
                    _ => format!("{sign}{}.{}", &body[..point], &body[point..]),
                }
            }
            3 => format!(
                "{}e{}",
                (n % 1000) as f64 / 8.0,
                (n / 1000 % 40) as i64 - 20
            ),
            _ => pick(&[
                "0",
                "-0",
                "0.0",
                "-0.0",
                "1.50",
                "1e3",
                "1E3",
                "1e-7",
                "+2.5",
                ".5",
                "5.",
                "inf",
                "-inf",
                "+inf",
                "infinity",
                "NaN",
                "nan",
                "0.1",
                "0.30000000000000004",
                "123456789012345.6",
                "1234567890.1234567",
                "00.5",
                "1e400",
                "4.9e-324",
            ]),
        },
        DataType::Text | DataType::Lob if kind.is_multiple_of(3) => {
            // Around the row scanner's strides — its 8-byte words and the
            // switch to `memchr` at 32 bytes — in one- to four-byte
            // characters, with an escape (or the inner `\N`) at any of them.
            const LENGTHS: [u64; 9] = [0, 1, 7, 8, 9, 31, 32, 33, 4096];
            let body = ["x", "é", "∑", "𝄞"][(n % 4) as usize]
                .repeat(LENGTHS[(n / 4 % 9) as usize] as usize);
            let at = body
                .char_indices()
                .nth((n / 36 % 40) as usize)
                .map_or(body.len(), |(i, _)| i);
            let escape = ["", "\\t", "\\\\", "\\N", "\\n"][(n / 1440 % 5) as usize];
            let field = format!("{}{escape}{}", &body[..at], &body[at..]);
            if field == "\\N" {
                "x\\N".to_string()
            } else {
                field
            }
        }
        DataType::Text | DataType::Lob => {
            // A bare carriage return is data anywhere but at the end of a
            // line, so only the LOB column (never last) gets one.
            let tokens = [
                "a", "b", "1", " ", "é", "∑", "𝄞", "N", "\\\\", "\\t", "\\n", "\\r", "\\N", "\r",
            ];
            let tokens = &tokens[..tokens.len() - usize::from(dt == DataType::Text)];
            let field: String = (0..n % 7)
                .map(|i| tokens[((n >> (8 * i + 3)) % tokens.len() as u64) as usize])
                .collect();
            // A whole-field `\N` is NULL; keep this branch to text.
            if field == "\\N" {
                "x\\N".to_string()
            } else {
                field
            }
        }
    }
}

/// Independent model of the field grammar: what text an escaped field
/// spells. Only ever sees well-formed fields.
fn model_unescape(field: &str) -> String {
    let mut out = String::new();
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next().expect("generated escapes are complete") {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            'N' => out.push_str("\\N"),
            other => panic!("generated a bad escape \\{other}"),
        }
    }
    out
}

/// The per-cell model of the loader — and what the row-of-`Value`s loader
/// this one replaced built: NULL for the whole-field `\N`, else the
/// unescaped text parsed as the column's type.
fn model_cell(dt: DataType, field: &str) -> Value {
    if field == "\\N" {
        return Value::Null;
    }
    Value::parse(dt, &model_unescape(field)).expect("generated fields are well-formed")
}

/// `Value` equality that lets NaN equal itself and tells `-0.0` from `0.0`.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// A token of the TSV grammar rather than a uniform byte, so arbitrary
/// input reaches past the UTF-8 check: delimiters, line ends, escapes (good
/// and bad), number syntax, multi-byte characters — and, one time in
/// sixteen, one raw byte.
fn grammar_token(kind: u8, raw: u8) -> Vec<u8> {
    const TOKENS: [&str; 28] = [
        "\t", "\t", "\t", "\n", "\n", "\n", "\r\n", "\r", "\\N", "\\N", "\\t", "\\\\", "\\", "\\q",
        "0", "7", "12", "-", "+", ".", "e", "inf", "NaN", "x", "y z", "é", "∑", "",
    ];
    match kind % 16 {
        0 => vec![raw],
        _ => TOKENS[raw as usize % TOKENS.len()].as_bytes().to_vec(),
    }
}

/// The v2 stream of `values` as a writer stages it — each frame's payload
/// gathered in a buffer of its own, then copied into the block behind its
/// length and followed by its CRC-32C, the block flushed after the first
/// seal that takes it to `block_size` (clamped to [`MIN_BLOCK_SIZE`]) — and
/// the number of those flushes before the footer.
fn staged_stream(values: &[Vec<u8>], block_size: usize) -> (Vec<u8>, u64) {
    const FRAME: usize = 4096;
    let block_size = block_size.max(MIN_BLOCK_SIZE);
    let (mut out, mut block, mut frame) = (Vec::new(), vec![0u8; 20], Vec::new());
    let (mut chain, mut flushes, mut payload) = (Crc32c::new(), 0u64, 0u64);
    let seal = |frame: &mut Vec<u8>, block: &mut Vec<u8>, chain: &mut Crc32c| {
        let crc = crc32c(frame).to_le_bytes();
        block.extend_from_slice(&(frame.len() as u16).to_le_bytes());
        block.append(frame);
        block.extend_from_slice(&crc);
        chain.update(&crc);
    };
    for v in values {
        let record = [&(v.len() as u32).to_le_bytes()[..], v].concat();
        payload += record.len() as u64;
        for &byte in &record {
            frame.push(byte);
            if frame.len() == FRAME {
                seal(&mut frame, &mut block, &mut chain);
                if block.len() >= block_size {
                    out.append(&mut block);
                    flushes += 1;
                }
            }
        }
    }
    if !frame.is_empty() {
        seal(&mut frame, &mut block, &mut chain);
    }
    out.append(&mut block);
    let count = (values.len() as u64).to_le_bytes();
    out.extend_from_slice(&0xFFFFu16.to_le_bytes());
    out.extend_from_slice(&count);
    out.extend_from_slice(&payload.to_le_bytes());
    out.extend_from_slice(&chain.finish().to_le_bytes());
    out.extend_from_slice(b"INDF");
    let head = [&b"INDV"[..], &2u32.to_le_bytes(), &count].concat();
    out[..16].copy_from_slice(&head);
    out[16..20].copy_from_slice(&crc32c(&head).to_le_bytes());
    (out, flushes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tsv_round_trips_arbitrary_text(rows in proptest::collection::vec(
        (arb_text_value(), proptest::option::of(any::<i32>())), 0..12)) {
        let mut db = Database::new("prop-tsv");
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnSchema::new("s", DataType::Text),
                    ColumnSchema::new("n", DataType::Integer),
                ],
            )
            .expect("schema"),
        );
        for (s, n) in &rows {
            t.insert(vec![
                s.clone().map_or(Value::Null, Value::Text),
                n.map_or(Value::Null, |v| Value::Integer(i64::from(v))),
            ])
            .expect("row");
        }
        db.add_table(t).expect("table");

        let dir = TempDir::new("prop-tsv");
        save_database(&db, dir.path()).expect("save");
        let loaded = load_database(dir.path()).expect("load");
        let orig = db.table("t").expect("t");
        let back = loaded.table("t").expect("t");
        prop_assert_eq!(back.row_count(), orig.row_count());
        for i in 0..orig.row_count() {
            prop_assert_eq!(back.row(i), orig.row(i), "row {}", i);
        }
    }

    #[test]
    fn loaded_cells_equal_the_per_cell_model_and_the_view_the_row_loaders_values(
        rows in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u64>()), 4..5), 0..12),
        ending in 0u8..6,
        long_row in proptest::option::of(0usize..12),
        straddle in proptest::option::of(0usize..160),
    ) {
        // Whatever spelling a field arrives in, the stored cell is the
        // canonical rendering of the value the old loader would have
        // parsed, and the typed view is that value.
        let mut fields: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(LOADER_TYPES)
                    .map(|(&(kind, n), dt)| loader_field(dt, kind, n))
                    .collect()
            })
            .collect();
        // A line longer than the read buffer, anywhere in the file.
        if let Some(row) = long_row.filter(|&row| row < fields.len()) {
            fields[row][3] = format!("{}{}", "wide\\t".repeat(LOADER_BUFFER / 5), fields[row][3]);
        }
        let newline = if ending % 2 == 1 { "\r\n" } else { "\n" };
        // A first row that stops `short` bytes before the read buffer does,
        // so the rows after it straddle the buffer's edge at every offset.
        if let Some(short) = straddle {
            let pad = "p".repeat(LOADER_BUFFER - short - 5 - newline.len());
            fields.insert(0, ["0", "0", "", pad.as_str()].map(String::from).to_vec());
        }
        // Endings: LF / CRLF; 2 and 3 without the final line end; 4 and 5
        // padded (in the last row's text field) so that the file stops
        // exactly on a read-buffer boundary — under CRLF one byte past it,
        // the buffer's edge falling between the `\r` and the `\n`.
        let file_len = |fields: &[Vec<String>]| -> usize {
            fields
                .iter()
                .map(|row| row.iter().map(String::len).sum::<usize>() + 3 + newline.len())
                .sum()
        };
        if ending >= 4 && !fields.is_empty() {
            let target = file_len(&fields) - usize::from(ending == 5);
            let pad = "p".repeat(LOADER_BUFFER - target % LOADER_BUFFER);
            fields.last_mut().expect("non-empty")[3].push_str(&pad);
        }
        let mut data = String::new();
        for row in &fields {
            data.push_str(&row.join("\t"));
            data.push_str(newline);
        }
        prop_assert_eq!(data.len(), file_len(&fields));
        if matches!(ending, 2 | 3) {
            data.truncate(data.len().saturating_sub(newline.len()));
        }
        if ending >= 4 && !fields.is_empty() {
            prop_assert_eq!(data.len() % LOADER_BUFFER, usize::from(ending == 5));
        }

        let dir = TempDir::new("prop-loader");
        let schema: String = LOADER_TYPES
            .iter()
            .enumerate()
            .map(|(j, dt)| format!("column\tc{j}\t{dt}\tnull\tdup\n"))
            .collect();
        std::fs::write(dir.join("schema.txt"), format!("database\tprop\ntable\tt\n{schema}"))
            .expect("schema");
        std::fs::write(dir.join("t.tsv"), data.as_bytes()).expect("data");
        let db = load_database(dir.path()).expect("every generated field is well-formed");
        let table = db.table("t").expect("t");
        prop_assert_eq!(table.row_count(), fields.len());
        for (j, dt) in LOADER_TYPES.into_iter().enumerate() {
            let model: Vec<Value> = fields.iter().map(|row| model_cell(dt, &row[j])).collect();
            let model_cells: Vec<Option<Vec<u8>>> = model
                .iter()
                .map(|v| (!v.is_null()).then(|| v.canonical_bytes()))
                .collect();
            let stored = table.cells(j);
            prop_assert_eq!(stored.data_type(), dt);
            let cells: Vec<Option<Vec<u8>>> =
                stored.cells().map(|cell| cell.map(<[u8]>::to_vec)).collect();
            prop_assert_eq!(&cells, &model_cells, "column {}", j);
            let view = table.column(j);
            prop_assert_eq!(view.len(), model.len());
            for (row, (got, want)) in view.iter().zip(&model).enumerate() {
                prop_assert!(same_value(got, want), "column {} row {}: {:?} vs {:?}", j, row, got, want);
                prop_assert!(same_value(&stored.value(row), want));
            }
        }
    }

    #[test]
    fn external_sort_equals_std_sort_at_any_budget(
        values in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..10), 0..60),
        budget in 1usize..2048,
    ) {
        let (got, stats) = external_sort(&values, budget);
        let mut expected = values.clone();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(stats.distinct as usize, expected.len());
        prop_assert_eq!(stats.pushed as usize, values.len());
        prop_assert_eq!(stats.min.as_deref(), expected.first().map(Vec::as_slice));
        prop_assert_eq!(stats.max.as_deref(), expected.last().map(Vec::as_slice));
    }

    #[test]
    fn keyed_order_is_slice_order(a in arb_keyed_value(), b in arb_keyed_value()) {
        // What every keyed comparator in the crate computes: the keys, and
        // the slices only when the keys cannot tell.
        let key = |v: &[u8]| (key_prefix64(v), v.len() as u32);
        match compare_keys(key(&a), key(&b)) {
            Some(order) => prop_assert_eq!(order, a.cmp(&b), "{:?} vs {:?}", a, b),
            None => prop_assert!(
                a.len() > 8 && b.len() > 8 && a[..8] == b[..8],
                "keys gave up on {:?} vs {:?}", a, b
            ),
        }
        // The prefix alone can never order two values against their
        // slices, only fail to separate them.
        prop_assert!(key_prefix64(&a) <= key_prefix64(&b) || a > b);
    }

    #[test]
    fn both_sorters_equal_a_btreeset_on_key_boundary_values(
        values in proptest::collection::vec(arb_keyed_value(), 0..80),
    ) {
        // The arena's hash pass, keyed sort + dedup (under the in-memory
        // builder and under the external sorter) and the keyed spill merge,
        // on inputs dense in key ties and hash collisions.
        let model: Vec<Vec<u8>> = values.iter().cloned().collect::<BTreeSet<_>>().into_iter().collect();
        let set = MemoryValueSet::from_unsorted(values.iter().cloned());
        prop_assert_eq!(set.as_slice().to_vec(), model.clone());
        prop_assert_eq!(external_sort(&values, 1 << 20).0, model.clone(), "in memory");
        let (spilled, stats) = external_sort(&values, 96);
        prop_assert_eq!(spilled, model, "spilling");
        // Seven 16-byte index entries alone exceed the budget.
        prop_assert!(stats.runs > 0 || values.len() < 7, "a 96-byte budget spills");
    }

    #[test]
    fn tournament_tree_plays_in_value_then_slot_order(
        initial in proptest::collection::vec(proptest::option::of(arb_keyed_value()), 1..40),
        steps in proptest::collection::vec((any::<u8>(), arb_keyed_value()), 0..80),
    ) {
        // `values[slot]` is the slot's current value — the state the tree's
        // tie callback reads in place; `live` is the model. Exhausted slots
        // trigger the tree's rebuilds over its live leaves.
        let mut values: Vec<Option<Vec<u8>>> = initial.clone();
        let mut live: BTreeSet<(Vec<u8>, u32)> = BTreeSet::new();
        let mut tree = TournamentTree::new(values.len());
        for (slot, v) in initial.iter().enumerate() {
            tree.enter(slot as u32, v.as_deref(), |a, b| values[a as usize].cmp(&values[b as usize]));
            if let Some(v) = v {
                live.insert((v.clone(), slot as u32));
            }
        }
        for (kind, v) in &steps {
            let Some(min) = live.first().cloned() else { break };
            prop_assert_eq!(tree.winner(), Some(min.1));
            live.remove(&min);
            // The winner moves on to `v` (any value: the tree does not need
            // sources to be increasing) or is exhausted.
            let next = (kind % 4 != 0).then(|| v.clone());
            values[min.1 as usize] = next.clone();
            tree.replay(next.as_deref(), |a, b| values[a as usize].cmp(&values[b as usize]));
            if let Some(next) = next {
                live.insert((next, min.1));
            }
        }
        let mut drained = Vec::new();
        while let Some(slot) = tree.winner() {
            drained.push(slot);
            values[slot as usize] = None;
            tree.replay(None, |a, b| values[a as usize].cmp(&values[b as usize]));
        }
        let expected: Vec<u32> = live.iter().map(|(_, slot)| *slot).collect();
        prop_assert_eq!(drained, expected);
    }

    #[test]
    fn flat_memory_set_agrees_with_a_sorted_dedup_model(
        raw in proptest::collection::vec(arb_flat_value(), 0..40),
        steps in 0usize..48,
    ) {
        // Model: a plain sorted, deduplicated `Vec<Vec<u8>>` and a count of
        // values produced — what the set was before it went flat.
        let mut model = raw.clone();
        model.sort_unstable();
        model.dedup();
        let set = MemoryValueSet::from_unsorted(raw.iter().cloned());
        prop_assert_eq!(set.len() as usize, model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        prop_assert_eq!(set.as_slice().to_vec(), model.clone());
        prop_assert_eq!(set.as_slice().first(), model.first().map(Vec::as_slice));
        prop_assert_eq!(set.as_slice().last(), model.last().map(Vec::as_slice));
        prop_assert_eq!(collect_cursor(set.cursor()).expect("drain"), model.clone());

        // The validating constructor accepts exactly the strictly
        // increasing sequences, and builds the same set from them.
        let strictly_increasing = raw.windows(2).all(|w| w[0] < w[1]);
        prop_assert_eq!(
            MemoryValueSet::from_sorted_distinct(raw.clone()).is_ok(),
            strictly_increasing
        );
        let validated = MemoryValueSet::from_sorted_distinct(model.clone()).expect("sorted");
        prop_assert_eq!(validated.as_slice(), set.as_slice());

        // Any number of advances, past the end included: position,
        // remaining count and length track the model at every step.
        let mut cursor = set.cursor();
        let mut produced = 0usize;
        for _ in 0..steps {
            let ok = cursor.advance().expect("advance");
            prop_assert_eq!(ok, produced < model.len());
            produced += usize::from(ok);
            if ok {
                prop_assert_eq!(cursor.current(), model[produced - 1].as_slice());
            }
            prop_assert_eq!(cursor.remaining() as usize, model.len() - produced);
            prop_assert_eq!(cursor.has_next(), produced < model.len());
            prop_assert_eq!(cursor.len() as usize, model.len());
        }
        // The rest of the stream continues exactly from there, and the end
        // is sticky.
        let mut rest = Vec::new();
        while cursor.advance().expect("advance") {
            rest.push(cursor.current().to_vec());
        }
        prop_assert_eq!(&rest[..], &model[produced..]);
        prop_assert!(!cursor.advance().expect("advance at the end"));
        prop_assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn memory_extraction_matches_a_per_cell_model(
        values in proptest::collection::vec(arb_column_value(), 0..80),
    ) {
        // Columns with NULLs (possibly nothing else, possibly no rows at
        // all): the one-pass arena extraction against one vector per cell.
        let mut model: Vec<Vec<u8>> = values
            .iter()
            .filter(|v| !v.is_null())
            .map(Value::canonical_bytes)
            .collect();
        model.sort_unstable();
        model.dedup();
        let column = Column::from_values(&values);
        prop_assert_eq!(extract_memory_set(&column).as_slice().to_vec(), model.clone());
        prop_assert_eq!(extract_sorted_distinct(&column), model);
    }

    #[test]
    fn arena_extraction_matches_sorted_distinct_at_any_budget_and_block(
        values in proptest::collection::vec(arb_column_value(), 0..80),
        budget in arb_budget(),
        block in 1usize..96,
    ) {
        // The whole arena pipeline (render directly into the arena → index
        // sort → spill at the budget → merge-tree dedup → block-staged
        // write) must reproduce the trivial in-memory answer byte for
        // byte, whatever the budget and I/O block size — and write the very
        // file a default-options (resident, default-block) export writes.
        let dir = TempDir::new("prop-arena-extract");
        let path = dir.join("col.indv");
        let column = Column::from_values(&values);
        let stats = extract_to_file(
            &column,
            &path,
            &dir.join("spill"),
            SortOptions {
                memory_budget_bytes: budget,
                io: IoOptions::with_block_size(block),
            },
        )
        .expect("extract");
        let reference = dir.join("reference.indv");
        extract_to_file(&column, &reference, &dir.join("spill-reference"), SortOptions::default())
            .expect("extract reference");
        prop_assert!(
            std::fs::read(&path).expect("bytes") == std::fs::read(&reference).expect("reference"),
            "budget {} block {}: the spill merge wrote different bytes", budget, block
        );
        let expected = extract_sorted_distinct(&column);
        let got = collect_cursor(
            ValueFileReader::open_with_options(&path, &IoOptions::with_block_size(block))
                .expect("open"),
        )
        .expect("read");
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(stats.distinct as usize, expected.len());
        prop_assert_eq!(
            stats.pushed as usize,
            values.iter().filter(|v| !v.is_null()).count()
        );
        prop_assert_eq!(stats.min.as_deref(), expected.first().map(Vec::as_slice));
        prop_assert_eq!(stats.max.as_deref(), expected.last().map(Vec::as_slice));
    }

    #[test]
    fn resident_extraction_equals_pushed_values_at_every_budget(
        cells in arb_resident_column(),
    ) {
        // Extraction indexes a stored column's cells where they lie; the
        // reference copies each cell into a sorter (`push`). Same bytes on
        // disk, same statistics, same content hash — whether the index held
        // the whole column, overflowed every few entries, or (1 B: one
        // entry) spilled every value as a run of its own.
        let dir = TempDir::new("prop-resident");
        let values: Vec<Value> = cells
            .iter()
            .map(|c| c.as_deref().map_or(Value::Null, Value::from))
            .collect();
        let column = Column::from_values(&values);
        let non_null: Vec<&[u8]> = cells.iter().flatten().map(String::as_bytes).collect();

        let (pushed_path, pushed) =
            external_sort_into(&non_null, SortOptions::DEFAULT_MEMORY_BUDGET, &dir);
        let pushed_file = std::fs::read(&pushed_path).expect("pushed bytes");

        let facts = |s: &SortStats| {
            (s.pushed, s.distinct, s.min.clone(), s.max.clone(), s.file_bytes)
        };
        let mut hashes = Vec::new();
        for budget in [1, 64, 4096, SortOptions::DEFAULT_MEMORY_BUDGET] {
            let path = dir.join("resident.indv");
            let resident = extract_to_file(
                &column,
                &path,
                &dir.join("spill-resident"),
                SortOptions::with_memory_budget(budget),
            )
            .expect("extract");
            prop_assert!(
                std::fs::read(&path).expect("resident bytes") == pushed_file,
                "budget {}: the value files differ", budget
            );
            prop_assert_eq!(facts(&resident), facts(&pushed), "budget {}", budget);
            // One run per index-full the budget's entries (at least one)
            // could not hold; 4 KiB cells cost what one byte costs.
            let entries = (budget / 16).max(1);
            prop_assert_eq!(
                resident.runs,
                non_null.len().saturating_sub(1) / entries,
                "budget {}", budget
            );
            hashes.push(resident.source_hash);
        }
        hashes.dedup();
        prop_assert_eq!(hashes.len(), 1, "the content hash depends on the budget");

        // The memory sink over the same index.
        let memory = extract_memory_columns(&[Source::Column(&column)], 1).expect("memory").remove(0);
        prop_assert_eq!(memory.non_null, non_null.len() as u64);
        let copied = MemoryValueSet::from_unsorted(non_null.iter().map(|c| c.to_vec()));
        prop_assert_eq!(memory.set.as_slice(), copied.as_slice());
        prop_assert_eq!(memory.set.len(), pushed.distinct);
    }

    #[test]
    fn composite_arena_extraction_matches_memory_at_any_budget_and_block(
        rows in proptest::collection::vec(
            (arb_column_value(), arb_column_value()), 1..60),
        budget in arb_budget(),
        block in 1usize..96,
    ) {
        // Tuple-encoded composite streams through the same pipeline: the
        // on-disk export must agree with the in-memory composite set even
        // when spill boundaries land inside escaped tuple encodings.
        let a: Vec<Value> = rows.iter().map(|(x, _)| x.clone()).collect();
        let b: Vec<Value> = rows.iter().map(|(_, y)| y.clone()).collect();
        let (a, b) = (Column::from_values(&a), Column::from_values(&b));
        let dir = TempDir::new("prop-arena-composite");
        let path = dir.join("pair.indv");
        let stats = extract_composite_to_file(
            &[&a, &b],
            &path,
            &dir.join("spill"),
            SortOptions {
                memory_budget_bytes: budget,
                io: IoOptions::with_block_size(block),
            },
        )
        .expect("extract");
        let group = [Source::Group(vec![&a, &b])];
        let mem = extract_memory_columns(&group, 1).expect("memory").remove(0).set;
        let got = collect_cursor(
            ValueFileReader::open_with_options(&path, &IoOptions::with_block_size(block))
                .expect("open"),
        )
        .expect("read");
        prop_assert_eq!(got, mem.as_slice().to_vec());
        prop_assert_eq!(stats.distinct, mem.len());
    }

    #[test]
    fn value_files_round_trip_arbitrary_sorted_sets(
        raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 0..40),
    ) {
        let mut values = raw;
        values.sort_unstable();
        values.dedup();
        let dir = TempDir::new("prop-vf");
        let path = dir.join("x.indv");
        let mut w = ValueFileWriter::create(&path).expect("create");
        for v in &values {
            w.append(v).expect("append");
        }
        prop_assert_eq!(w.finish().expect("finish") as usize, values.len());
        let got = collect_cursor(ValueFileReader::open(&path).expect("open")).expect("read");
        prop_assert_eq!(got, values);
    }

    #[test]
    fn value_files_round_trip_at_arbitrary_block_sizes(
        raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..30),
        long in proptest::option::of(0usize..10_000),
        write_block in 1usize..96,
        read_block in 1usize..96,
    ) {
        // Blocks of a few bytes against values of up to 64 bytes: most
        // records straddle a boundary, many exceed the whole block. A long
        // value seals frames mid-record. The stream and the writer's block
        // flushes must be those of the staged model at this block size, at
        // a frame-scale one and at the default.
        let mut values = raw;
        values.extend(long.map(|len| vec![0xFF; len]));
        values.sort_unstable();
        values.dedup();
        let dir = TempDir::new("prop-vf-blocks");
        let path = dir.join("x.indv");
        for block in [write_block, write_block * 97, DEFAULT_BLOCK_SIZE] {
            let mut w = ValueFileWriter::create_with_options(
                &path,
                &IoOptions::with_block_size(block),
            )
            .expect("create");
            for v in &values {
                w.append(v).expect("append");
            }
            let (stream, flushes) = staged_stream(&values, block);
            prop_assert_eq!(w.write_calls(), flushes, "block {}", block);
            w.finish().expect("finish");
            prop_assert!(std::fs::read(&path).expect("read") == stream, "block {}", block);
        }
        let reader = ValueFileReader::open_with_options(
            &path,
            &IoOptions::with_block_size(read_block),
        )
        .expect("open");
        prop_assert_eq!(collect_cursor(reader).expect("read"), values);
    }

    #[test]
    fn truncated_value_files_never_read_clean(
        raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..12),
        cut_seed in 0usize..10_000,
        read_block in 1usize..64,
    ) {
        // Cutting anywhere strictly inside the record region must surface
        // as `Corrupt` (open or drain), never as a silently shorter stream.
        let mut values = raw;
        values.sort_unstable();
        values.dedup();
        let dir = TempDir::new("prop-vf-trunc");
        let full = dir.join("full.indv");
        let mut w = ValueFileWriter::create(&full).expect("create");
        for v in &values {
            w.append(v).expect("append");
        }
        w.finish().expect("finish");
        let data = std::fs::read(&full).expect("read file");
        const HEADER_LEN: usize = 16;
        // `raw` is non-empty and deduped values keep >= 1 entry, so there
        // is always at least one record byte to cut.
        let cut = HEADER_LEN + cut_seed % (data.len() - HEADER_LEN);
        let path = dir.join("cut.indv");
        std::fs::write(&path, &data[..cut]).expect("write cut");
        let drained =
            ValueFileReader::open_with_options(&path, &IoOptions::with_block_size(read_block))
                .and_then(collect_cursor);
        prop_assert!(drained.is_err(), "cut at {} of {} read clean", cut, data.len());
    }
}

// Byte-level fuzz of the TSV loader: cheap cases, so many of them.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_as_a_data_file_never_panic_the_loader(
        bytes in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..48),
        shape in 0u8..6,
    ) {
        let data: Vec<u8> = bytes
            .iter()
            .flat_map(|&(kind, raw)| grammar_token(kind, raw))
            .collect();
        let columns = match shape {
            0 => "column\ta\ttext\tnull\tdup\n",
            1 => "column\ta\tinteger\tnull\tdup\n",
            2 => "column\ta\tfloat\tnotnull\tdup\n",
            3 => "column\ta\ttext\tnotnull\tdup\ncolumn\tb\tinteger\tnull\tdup\n",
            4 => "column\ta\tlob\tnull\tdup\ncolumn\tb\tfloat\tnull\tdup\ncolumn\tc\ttext\tnull\tdup\n",
            _ => "",
        };
        let dir = TempDir::new("prop-loader-fuzz");
        std::fs::write(dir.join("schema.txt"), format!("database\tfuzz\ntable\tt\n{columns}"))
            .expect("schema");
        std::fs::write(dir.join("t.tsv"), &data).expect("data");
        match load_database(dir.path()) {
            // Whatever was accepted is a sound table: equal-length columns
            // whose every cell rebuilds into a typed value.
            Ok(db) => {
                prop_assert!(std::str::from_utf8(&data).is_ok(), "invalid UTF-8 was accepted");
                let table = db.table("t").expect("t");
                for (j, _, column) in table.iter_cells() {
                    prop_assert_eq!(column.len(), table.row_count());
                    prop_assert_eq!(table.column(j).len(), table.row_count());
                }
                prop_assert!(table.row_count() == 0 || !columns.is_empty());
            }
            Err(error) => prop_assert!(!error.to_string().is_empty()),
        }
    }

    #[test]
    fn arbitrary_bytes_as_a_schema_never_panic_the_loader(
        tokens in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        // Whole well-formed lines most of the time, so the parser gets past
        // its first line; loose words, grammar tokens and raw bytes between.
        const LINES: [&str; 12] = [
            "database\tfuzz\n",
            "table\tt\n",
            "table\tu\n",
            "column\ta\tinteger\tnull\tdup\n",
            "column\tb\ttext\tnull\tunique\n",
            "column\ta\tfloat\tnotnull\tdup\n",
            "column\tc\tlob\tnull\tdup\r\n",
            "fk\ta\tt\ta\n",
            "fk\tb\tghost\tid\n",
            "cfk\tt\t2\ta\tb\ta\tb\n",
            "cfk\tu\t18446744073709551615\ta\n",
            "\n",
        ];
        const WORDS: [&str; 12] = [
            "database", "table", "column", "fk", "cfk", "t", "a", "text", "null", "2", "\t", "\n",
        ];
        let mut schema: Vec<u8> = b"database\tfuzz\n".to_vec();
        for &(kind, raw) in &tokens {
            match kind % 8 {
                0 => schema.extend(grammar_token(raw, kind)),
                1 => schema.extend_from_slice(WORDS[raw as usize % WORDS.len()].as_bytes()),
                _ => schema.extend_from_slice(LINES[raw as usize % LINES.len()].as_bytes()),
            }
        }
        let dir = TempDir::new("prop-schema-fuzz");
        std::fs::write(dir.join("schema.txt"), &schema).expect("schema");
        for table in ["t", "u"] {
            std::fs::write(dir.join(&format!("{table}.tsv")), b"1\tx\n\\N\t2\n").expect("data");
        }
        if let Ok(db) = load_database(dir.path()) {
            prop_assert!(std::str::from_utf8(&schema).is_ok(), "invalid UTF-8 was accepted");
            for table in db.tables() {
                prop_assert!(table.iter_cells().all(|(_, _, c)| c.len() == table.row_count()));
            }
        }
    }
}
