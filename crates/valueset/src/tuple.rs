//! Order-preserving tuple encoding for composite value streams.
//!
//! The n-ary discovery levels export *tuples* of canonical values — one
//! entry per row, one component per attribute of a composite candidate —
//! through the same sorted-value-file machinery the unary pipeline uses.
//! That machinery (the external sorter, [`crate::ValueFileWriter`]'s
//! strictly-increasing invariant, the block cursors, and the
//! SPIDER merge) compares entries **byte-wise**, so the encoding must
//! guarantee
//!
//! ```text
//! encode(t) <  encode(u)  ⇔  t <lex u        (component-wise lexicographic)
//! encode(t) == encode(u)  ⇔  t == u          (injectivity / round-trip)
//! ```
//!
//! A naive length-prefix-per-component encoding does **not** have the first
//! property: big-endian prefixes compare `("b")` before `("ab")` because
//! `1 < 2` wins before any data byte is seen. Instead each component is
//! written with an escape for the zero byte and closed with a two-byte
//! terminator, the classic memcomparable construction:
//!
//! * data byte `0x00` → `0x00 0xFF`;
//! * any other data byte → itself;
//! * end of component → `0x00 0x01`.
//!
//! The terminator's second byte (`0x01`) is smaller than every byte that
//! can follow a literal `0x00` inside a component (`0xFF`) and the
//! terminator's first byte (`0x00`) is smaller than every unescaped data
//! byte (`≥ 0x01`), so a component that is a proper prefix of another sorts
//! first — exactly the lexicographic rule. Decoding scans for `0x00` and
//! branches on the byte after it, so the encoding is self-delimiting and
//! the round trip is exact for arbitrary binary components, including
//! empty ones.

use crate::error::{Result, ValueSetError};

/// Escape introducer and terminator lead byte.
const LEAD: u8 = 0x00;
/// Second byte of an escaped literal `0x00`.
const ESCAPED_ZERO: u8 = 0xFF;
/// Second byte of a component terminator.
const TERMINATOR: u8 = 0x01;

/// Appends the order-preserving encoding of `components` to `out`.
///
/// Byte-wise comparison of two encodings of equal arity equals
/// lexicographic comparison of the component sequences; see the module
/// docs for the construction and [`decode_tuple`] for the inverse.
pub fn encode_tuple_into(components: &[&[u8]], out: &mut Vec<u8>) {
    for component in components {
        for &b in *component {
            if b == LEAD {
                out.push(LEAD);
                out.push(ESCAPED_ZERO);
            } else {
                out.push(b);
            }
        }
        out.push(LEAD);
        out.push(TERMINATOR);
    }
}

/// [`encode_tuple_into`] returning a fresh vector.
pub fn encode_tuple(components: &[&[u8]]) -> Vec<u8> {
    // Worst case doubles every byte; the common case is +2 per component.
    let mut out = Vec::with_capacity(components.iter().map(|c| c.len() + 2).sum::<usize>());
    encode_tuple_into(components, &mut out);
    out
}

/// Decodes an encoded tuple back into its components. The exact inverse of
/// [`encode_tuple`]: rejects truncated escapes, unknown escape bytes, and
/// trailing bytes after the final terminator.
pub fn decode_tuple(bytes: &[u8]) -> Result<Vec<Vec<u8>>> {
    let corrupt = |detail: &str| ValueSetError::Corrupt {
        context: "tuple encoding".into(),
        detail: detail.into(),
    };
    // lint: allow(hot_alloc) — decode_tuple is the test/verification inverse; the export path uses encode_tuple_into
    let mut components = Vec::new();
    // lint: allow(hot_alloc) — decode-side only, see above
    let mut current = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b != LEAD {
            current.push(b);
            i += 1;
            continue;
        }
        match bytes.get(i + 1) {
            Some(&ESCAPED_ZERO) => current.push(LEAD),
            Some(&TERMINATOR) => components.push(std::mem::take(&mut current)),
            Some(&other) => {
                // lint: allow(hot_alloc) — cold corrupt-input error path
                return Err(corrupt(&format!("invalid escape byte 0x{other:02x}")));
            }
            None => return Err(corrupt("truncated escape at end of tuple")),
        }
        i += 2;
    }
    if !current.is_empty() {
        return Err(corrupt("trailing bytes after the last terminator"));
    }
    Ok(components)
}

/// Number of components in an encoded tuple without materialising them.
pub fn tuple_arity(bytes: &[u8]) -> Result<usize> {
    decode_tuple(bytes).map(|c| c.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(components: &[&[u8]]) -> Vec<u8> {
        encode_tuple(components)
    }

    #[test]
    fn round_trip_exact() {
        let cases: Vec<Vec<Vec<u8>>> = vec![
            vec![],
            vec![b"".to_vec()],
            vec![b"a".to_vec(), b"b".to_vec()],
            vec![b"".to_vec(), b"".to_vec(), b"".to_vec()],
            vec![vec![0u8], vec![0u8, 0u8], vec![0xFFu8, 0u8, 0x01u8]],
            vec![vec![0u8, 0x01], vec![0x01, 0u8]],
            vec![b"composite key".to_vec(), vec![0u8; 100], vec![0xFF; 50]],
        ];
        for components in cases {
            let refs: Vec<&[u8]> = components.iter().map(Vec::as_slice).collect();
            let encoded = enc(&refs);
            assert_eq!(
                decode_tuple(&encoded).unwrap(),
                components,
                "{components:?}"
            );
            assert_eq!(tuple_arity(&encoded).unwrap(), components.len());
        }
    }

    #[test]
    fn byte_order_equals_tuple_order() {
        // Every pair from a pathological fixture: empty components, shared
        // prefixes, embedded zero/terminator/escape bytes — the cases where
        // naive encodings break.
        let tuples: Vec<Vec<Vec<u8>>> = vec![
            vec![b"".to_vec(), b"".to_vec()],
            vec![b"".to_vec(), b"a".to_vec()],
            vec![vec![0u8], b"".to_vec()],
            vec![vec![0u8, 0u8], b"".to_vec()],
            vec![vec![0u8, 1u8], b"".to_vec()],
            vec![b"a".to_vec(), b"b".to_vec()],
            vec![b"a".to_vec(), vec![0xFFu8]],
            vec![b"ab".to_vec(), b"".to_vec()],
            vec![b"ab".to_vec(), b"b".to_vec()],
            vec![b"b".to_vec(), b"a".to_vec()],
            vec![vec![0xFFu8], b"a".to_vec()],
            vec![vec![0xFFu8, 0u8], b"a".to_vec()],
        ];
        for a in &tuples {
            for b in &tuples {
                let ra: Vec<&[u8]> = a.iter().map(Vec::as_slice).collect();
                let rb: Vec<&[u8]> = b.iter().map(Vec::as_slice).collect();
                assert_eq!(
                    enc(&ra).cmp(&enc(&rb)),
                    a.cmp(b),
                    "encoding must order {a:?} vs {b:?} like the tuples themselves"
                );
            }
        }
    }

    #[test]
    fn length_prefix_counterexample_is_handled() {
        // The case that breaks length-prefixed encodings: ("ab",) < ("b",)
        // lexicographically, but 1 < 2 would order the prefixes the other
        // way round.
        let ab = enc(&[b"ab"]);
        let b = enc(&[b"b"]);
        assert!(ab < b);
    }

    #[test]
    fn corrupt_encodings_are_rejected() {
        assert!(decode_tuple(&[0x00]).is_err(), "truncated escape");
        assert!(decode_tuple(&[0x00, 0x02]).is_err(), "unknown escape");
        assert!(decode_tuple(b"abc").is_err(), "no terminator");
        assert!(
            decode_tuple(&[b'a', 0x00, 0x01, b'b']).is_err(),
            "trailing bytes"
        );
    }

    #[test]
    fn encode_into_appends() {
        let mut buf = vec![9u8];
        encode_tuple_into(&[b"x"], &mut buf);
        assert_eq!(buf[0], 9);
        assert_eq!(decode_tuple(&buf[1..]).unwrap(), vec![b"x".to_vec()]);
    }
}
