//! The cursor abstraction all discovery algorithms consume.

use crate::error::Result;

/// A forward-only cursor over a sorted, duplicate-free set of byte-string
/// values.
///
/// Protocol: after construction the cursor is positioned *before* the first
/// value. [`ValueCursor::advance`] moves to the next value and returns
/// `false` once the set is exhausted. [`ValueCursor::current`] is valid only
/// after an `advance` that returned `true`.
///
/// [`ValueCursor::remaining`] answers the paper's `wantNextValue` question
/// (Algorithm 2) without lookahead buffering: value files record their
/// cardinality in the header, so "is there a next value" is a counter
/// comparison.
pub trait ValueCursor {
    /// Moves to the next value; `false` when exhausted.
    fn advance(&mut self) -> Result<bool>;

    /// The value most recently produced by a successful [`advance`].
    ///
    /// [`advance`]: ValueCursor::advance
    fn current(&self) -> &[u8];

    /// Number of values `advance` has not yet produced.
    fn remaining(&self) -> u64;

    /// Total number of values in the set.
    fn len(&self) -> u64;

    /// True if the set holds no values at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if at least one more `advance` will succeed.
    fn has_next(&self) -> bool {
        self.remaining() > 0
    }
}

/// Blanket impl so `Box<dyn ValueCursor>` works where generics are awkward.
impl<C: ValueCursor + ?Sized> ValueCursor for Box<C> {
    fn advance(&mut self) -> Result<bool> {
        (**self).advance()
    }
    fn current(&self) -> &[u8] {
        (**self).current()
    }
    fn remaining(&self) -> u64 {
        (**self).remaining()
    }
    fn len(&self) -> u64 {
        (**self).len()
    }
}

/// Drains a cursor into a vector (test and tooling convenience).
pub fn collect_cursor<C: ValueCursor>(mut cursor: C) -> Result<Vec<Vec<u8>>> {
    let mut out = Vec::with_capacity(cursor.len() as usize);
    while cursor.advance()? {
        out.push(cursor.current().to_vec());
    }
    Ok(out)
}

/// A provider hands out cursors over per-attribute value sets by attribute
/// id. Implemented by the on-disk [`crate::ExportedDatabase`] and the
/// in-memory [`crate::MemoryProvider`].
pub trait ValueSetProvider {
    /// Cursor type produced by this provider.
    type Cursor: ValueCursor;

    /// Opens a fresh cursor over attribute `id`'s value set.
    fn open(&self, id: u32) -> Result<Self::Cursor>;

    /// Number of attributes available.
    fn attribute_count(&self) -> usize;

    /// True when attributes `a` and `b` hold exactly the same values. The
    /// default walks a cursor over each in lockstep; providers that can
    /// compare their stored form override it.
    fn same_values(&self, a: u32, b: u32) -> Result<bool> {
        let (mut x, mut y) = (self.open(a)?, self.open(b)?);
        if x.len() != y.len() {
            return Ok(false);
        }
        loop {
            match (x.advance()?, y.advance()?) {
                (true, true) if x.current() == y.current() => {}
                (false, false) => return Ok(true),
                _ => return Ok(false),
            }
        }
    }
}
