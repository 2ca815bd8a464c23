//! CRC-32/IEEE (reflected, the zlib/Ethernet polynomial), slicing-by-8.
//!
//! Hand-rolled because the workspace takes no new dependencies. The
//! byte-at-a-time table walk costs one dependent table lookup per byte;
//! slicing-by-8 folds eight bytes per step through eight tables (built at
//! compile time), which is what makes a per-tick WAL checksum over a few KB
//! cheap. Values are identical to the byte-wise form, which the tests keep
//! as an oracle.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-wise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

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
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues a CRC-32: `crc32_update(crc32(a), b) == crc32(a ‖ b)`, and
/// `crc32_update(0, b) == crc32(b)` — so a checksum can stream over pieces
/// that never sit in one buffer.
pub fn crc32_update(prev: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !prev;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table walk the slicing form replaced — the
    /// oracle every test here compares against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn first_table_is_the_textbook_table() {
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_equals_the_bytewise_oracle(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
            offset in 0usize..8,
        ) {
            // Offsets shift the 8-byte chunking against the data, so every
            // remainder length and alignment is covered.
            let slice = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }

        #[test]
        fn streaming_at_any_split_equals_one_shot(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
            split in 0usize..600,
        ) {
            let (a, b) = bytes.split_at(split.min(bytes.len()));
            prop_assert_eq!(crc32_update(crc32(a), b), crc32(&bytes));
            prop_assert_eq!(crc32_update(0, &bytes), crc32(&bytes));
        }
    }
}
