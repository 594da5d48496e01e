//! The pre-refactor export sorter, frozen as a perf baseline.
//!
//! This is a faithful copy of the shape `ind_valueset::external_sort`
//! shipped before the arena rewrite: one heap-allocated `Vec<u8>` per
//! pushed value (duplicates included), a fresh sorter per attribute, a
//! scratch-vector render + copy per value, and a spill merge through a
//! `BinaryHeap<Reverse<(Vec<u8>, usize)>>` that `to_vec()`s every record
//! off the readers and `clone()`s the dedup key per distinct value. It
//! exists so the `bench_spider` trajectory harness can keep measuring "old
//! export shape vs arena sorter" on identical inputs in every future PR —
//! it is **not** part of the production API and must produce byte-identical
//! value files (asserted by the harness before timing).

use ind_storage::Value;
use ind_valueset::{Result, SortOptions, SortStats, ValueCursor, ValueFileReader, ValueFileWriter};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};

/// The legacy allocation-per-value sorter; push values, then
/// [`LegacySorter::finish_into`] a value-file writer.
pub struct LegacySorter {
    buffer: Vec<Vec<u8>>,
    buffer_bytes: usize,
    options: SortOptions,
    spill_dir: PathBuf,
    runs: Vec<PathBuf>,
    pushed: u64,
}

impl LegacySorter {
    /// Creates a sorter spilling into `spill_dir` (created if missing).
    pub fn new(spill_dir: &Path, options: SortOptions) -> Result<Self> {
        std::fs::create_dir_all(spill_dir)?;
        Ok(LegacySorter {
            buffer: Vec::new(),
            buffer_bytes: 0,
            options,
            spill_dir: spill_dir.to_path_buf(),
            runs: Vec::new(),
            pushed: 0,
        })
    }

    /// Adds one value (unsorted, duplicates welcome) — one heap vector per
    /// push, the allocation the arena sorter removed.
    pub fn push(&mut self, value: &[u8]) -> Result<()> {
        self.pushed += 1;
        self.buffer_bytes += value.len() + std::mem::size_of::<Vec<u8>>();
        self.buffer.push(value.to_vec());
        if self.buffer_bytes >= self.options.memory_budget_bytes && self.buffer.len() > 1 {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        self.buffer.sort_unstable();
        self.buffer.dedup();
        let path = self
            .spill_dir
            .join(format!("run-{:04}.indv", self.runs.len()));
        let mut w = ValueFileWriter::create_with_options(&path, &self.options.io)?;
        for v in &self.buffer {
            w.append(v)?;
        }
        w.finish()?;
        self.runs.push(path);
        self.buffer.clear();
        self.buffer_bytes = 0;
        Ok(())
    }

    /// Merges everything into `writer` (strictly increasing, deduplicated)
    /// and removes the spill runs. The caller finishes the writer.
    pub fn finish_into(mut self, writer: &mut ValueFileWriter) -> Result<SortStats> {
        self.buffer.sort_unstable();
        self.buffer.dedup();

        let mut min = None;
        let mut max: Option<Vec<u8>> = None;
        let mut distinct = 0u64;
        let mut emit = |value: &[u8], writer: &mut ValueFileWriter| -> Result<()> {
            if min.is_none() {
                min = Some(value.to_vec());
            }
            match &mut max {
                Some(m) => {
                    m.clear();
                    m.extend_from_slice(value);
                }
                none => *none = Some(value.to_vec()),
            }
            distinct += 1;
            writer.append(value)
        };

        if self.runs.is_empty() {
            for v in &self.buffer {
                emit(v, writer)?;
            }
        } else {
            // K-way merge: spill runs + the final in-memory buffer.
            let mut readers: Vec<ValueFileReader> = Vec::with_capacity(self.runs.len());
            for path in &self.runs {
                readers.push(ValueFileReader::open_with_options(path, &self.options.io)?);
            }
            let mem_idx = readers.len();
            let mut mem_iter = self.buffer.iter();

            // Heap entries: Reverse((value, source)) -> min-heap by value.
            let mut heap: BinaryHeap<Reverse<(Vec<u8>, usize)>> = BinaryHeap::new();
            for (i, r) in readers.iter_mut().enumerate() {
                if r.advance()? {
                    heap.push(Reverse((r.current().to_vec(), i)));
                }
            }
            if let Some(v) = mem_iter.next() {
                heap.push(Reverse((v.clone(), mem_idx)));
            }

            let mut last: Option<Vec<u8>> = None;
            while let Some(Reverse((value, src))) = heap.pop() {
                if last.as_deref() != Some(value.as_slice()) {
                    emit(&value, writer)?;
                    last = Some(value.clone());
                }
                if src == mem_idx {
                    if let Some(v) = mem_iter.next() {
                        heap.push(Reverse((v.clone(), mem_idx)));
                    }
                } else if readers[src].advance()? {
                    heap.push(Reverse((readers[src].current().to_vec(), src)));
                }
            }
            drop(readers);
            for path in &self.runs {
                let _ = std::fs::remove_file(path);
            }
        }

        Ok(SortStats {
            pushed: self.pushed,
            distinct,
            runs: self.runs.len(),
            file_bytes: writer.bytes_written(),
            arena_bytes: 0,
            arena_grows: 0,
            // The frozen shape predates the comparator split; it never
            // counts either side.
            key_compares: 0,
            memcmp_compares: 0,
            min,
            max,
            source_hash: 0,
        })
    }
}

/// The legacy per-attribute extraction: a fresh sorter, a scratch render
/// buffer, and one copy from scratch into the sorter per value — exactly
/// the pre-arena `extract_to_file` shape.
pub fn legacy_extract_to_file(
    values: &[Value],
    path: &Path,
    spill_dir: &Path,
    options: SortOptions,
) -> Result<SortStats> {
    let io = options.io.clone();
    let mut sorter = LegacySorter::new(spill_dir, options)?;
    let mut buf = Vec::new();
    for v in values {
        if v.is_null() {
            continue;
        }
        buf.clear();
        v.render_canonical(&mut buf);
        sorter.push(&buf)?;
    }
    let mut writer = ValueFileWriter::create_with_options(path, &io)?;
    let stats = sorter.finish_into(&mut writer)?;
    writer.finish()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_testkit::TempDir;
    use ind_valueset::{collect_cursor, extract_to_file};

    #[test]
    fn legacy_sorter_matches_the_arena_sorter_byte_for_byte() {
        let values: Vec<Value> = (0..300)
            .map(|i| match i % 7 {
                0 => Value::Null,
                n => Value::Text(format!("v{:03}", (i * 11) % 83 + n)),
            })
            .collect();
        let dir = TempDir::new("legacy-sorter");
        for budget in [64usize, 4096, 64 << 20] {
            let legacy_path = dir.join(&format!("legacy-{budget}.indv"));
            let arena_path = dir.join(&format!("arena-{budget}.indv"));
            let legacy = legacy_extract_to_file(
                &values,
                &legacy_path,
                &dir.join("legacy-spill"),
                SortOptions::with_memory_budget(budget),
            )
            .unwrap();
            let arena = extract_to_file(
                &ind_storage::Column::from_values(&values),
                &arena_path,
                &dir.join("arena-spill"),
                SortOptions::with_memory_budget(budget),
            )
            .unwrap();
            assert_eq!(
                std::fs::read(&legacy_path).unwrap(),
                std::fs::read(&arena_path).unwrap(),
                "budget={budget}"
            );
            assert_eq!(
                (legacy.pushed, legacy.distinct),
                (arena.pushed, arena.distinct)
            );
            assert_eq!((&legacy.min, &legacy.max), (&arena.min, &arena.max));
            assert_eq!(legacy.file_bytes, arena.file_bytes);
            let got = collect_cursor(ValueFileReader::open(&arena_path).unwrap()).unwrap();
            assert_eq!(got.len() as u64, arena.distinct);
        }
    }
}
