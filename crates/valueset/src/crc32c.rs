//! CRC-32C (Castagnoli), the checksum of the value-file frames.
//!
//! Hand-rolled so the workspace stays dependency-free: the reflected
//! polynomial `0x82F63B78`, computed by the `crc32` instruction on x86-64
//! parts that have SSE 4.2 (runtime-detected) and by an 8-table
//! slice-by-8 kernel everywhere else. This is the same function iSCSI,
//! ext4 and Btrfs use for on-disk integrity — chosen over CRC-32 (IEEE)
//! for its better error-detection properties on short messages, which is
//! exactly the 4 KiB-frame regime of [`crate::ValueFileWriter`] — and the
//! reason verification can default on: hashing rides far below the merge
//! engine's comparison cost per byte.

/// Reflected CRC-32C polynomial (Castagnoli).
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` advances byte `b` through `k` further zero bytes,
/// letting the kernel fold 8 input bytes per iteration with 8 independent
/// loads instead of an 8-deep dependency chain.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Portable slice-by-8 kernel: 8 bytes per iteration, one table load per
/// byte, byte-at-a-time for the unaligned tail.
fn update_soft(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Bytes per stripe of the hardware kernel's three chains: three stripes
/// (4,080 bytes) fit a full 4 KiB frame, whose last 16 bytes then take one
/// chain.
const STRIPE: usize = 1360;

/// `SHIFT[k][b]`: the register `b << 8k` advanced through [`STRIPE`] zero
/// bytes. Advancing is linear, so a register advances as the xor of its
/// four bytes' entries ([`shift_stripe`]).
#[cfg(target_arch = "x86_64")]
static SHIFT: [[u32; 256]; 4] = build_shift();

#[cfg(target_arch = "x86_64")]
const fn build_shift() -> [[u32; 256]; 4] {
    let byte = build_tables();
    // Each of the 32 register bits through STRIPE zero bytes...
    let mut bits = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut crc = 1u32 << bit;
        let mut n = 0;
        while n < STRIPE {
            crc = (crc >> 8) ^ byte[0][(crc & 0xFF) as usize];
            n += 1;
        }
        bits[bit] = crc;
        bit += 1;
    }
    // ...and every byte value of every register byte as the xor of its
    // bits' images.
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut image = 0;
            let mut i = 0;
            while i < 8 {
                if b >> i & 1 == 1 {
                    image ^= bits[8 * k + i];
                }
                i += 1;
            }
            shift[k][b] = image;
            b += 1;
        }
        k += 1;
    }
    shift
}

/// The register `crc` advanced through [`STRIPE`] zero bytes.
#[cfg(target_arch = "x86_64")]
#[inline]
fn shift_stripe(crc: u32) -> u32 {
    SHIFT[0][(crc & 0xFF) as usize]
        ^ SHIFT[1][((crc >> 8) & 0xFF) as usize]
        ^ SHIFT[2][((crc >> 16) & 0xFF) as usize]
        ^ SHIFT[3][(crc >> 24) as usize]
}

/// Hardware kernel: the SSE 4.2 `crc32` instruction, 8 bytes per issue.
/// Each `crc32` waits on the one before it in its chain, so every run of
/// three [`STRIPE`]s is taken by three chains at once — the first from the
/// running register, the other two from zero — and the three registers
/// are joined by shifting through the fixed stripe ([`shift_stripe`]):
/// the checksum is that of one chain. The rest takes one chain. Only
/// compiled on x86-64 and only dispatched to after a runtime feature
/// check, so the binary stays runnable on any x86-64 part.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw(mut crc: u32, mut bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    while let Some((stripes, rest)) = bytes.split_first_chunk::<{ 3 * STRIPE }>() {
        let (words, _) = stripes.as_chunks::<8>();
        let (a, bc) = words.split_at(STRIPE / 8);
        let (b, c) = bc.split_at(STRIPE / 8);
        let (mut x, mut y, mut z) = (u64::from(crc), 0u64, 0u64);
        for ((a, b), c) in a.iter().zip(b).zip(c) {
            x = _mm_crc32_u64(x, u64::from_le_bytes(*a));
            y = _mm_crc32_u64(y, u64::from_le_bytes(*b));
            z = _mm_crc32_u64(z, u64::from_le_bytes(*c));
        }
        crc = shift_stripe(shift_stripe(x as u32) ^ y as u32) ^ z as u32;
        bytes = rest;
    }
    let (words, tail) = bytes.as_chunks::<8>();
    let mut wide = u64::from(crc);
    for word in words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(*word));
    }
    crc = wide as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn update_dispatch(crc: u32, bytes: &[u8]) -> u32 {
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the `sse4.2` feature was just runtime-verified on this
        // CPU, which is the only precondition `update_hw` carries.
        unsafe { update_hw(crc, bytes) }
    } else {
        update_soft(crc, bytes)
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn update_dispatch(crc: u32, bytes: &[u8]) -> u32 {
    update_soft(crc, bytes)
}

/// Streaming CRC-32C state. `Default` starts a fresh checksum; feed bytes
/// with [`Crc32c::update`] and read the final value with
/// [`Crc32c::finish`] (the state stays usable — `finish` is a pure view).
#[derive(Debug, Clone, Copy)]
pub struct Crc32c(u32);

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c(0xFFFF_FFFF)
    }
}

impl Crc32c {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Crc32c::default()
    }

    /// Folds `bytes` into the running checksum.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = update_dispatch(self.0, bytes);
    }

    /// The checksum of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32C of `bytes`.
#[inline]
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut state = Crc32c::new();
    state.update(bytes);
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) appendix test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32u8).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 7, 500, 999, 1000] {
            let mut s = Crc32c::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finish(), crc32c(&data), "split at {split}");
        }
    }

    #[test]
    fn soft_kernel_matches_dispatch_at_every_length() {
        // Pins the slice-by-8 tables and tail handling against whichever
        // kernel the host dispatches to (the hardware instruction on
        // x86-64), across every alignment class and the 8-byte boundary,
        // and on past one and two runs of three stripes, where the
        // hardware kernel's three chains take over and join.
        let data: Vec<u8> = (0..2 * 3 * STRIPE as u32 + 300)
            .map(|i| (i.wrapping_mul(31) % 256) as u8)
            .collect();
        let lengths = (0..3 * STRIPE + 300).chain(2 * 3 * STRIPE - 9..data.len());
        for len in lengths {
            let soft = update_soft(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(soft, crc32c(&data[..len]), "length {len}");
        }
        // A running checksum joins the stripes from any register.
        let mut state = Crc32c::new();
        state.update(&data[..5]);
        state.update(&data[5..]);
        assert_eq!(state.finish(), crc32c(&data));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_shift_table_advances_a_register_through_a_stripe_of_zeros() {
        for crc in [0, 1, 0x8000_0000, 0xFFFF_FFFF, 0x1234_5678, 0xE306_9283] {
            assert_eq!(
                shift_stripe(crc),
                update_soft(crc, &[0; STRIPE]),
                "{crc:#x}"
            );
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "flip at {byte}.{bit}");
            }
        }
    }
}
