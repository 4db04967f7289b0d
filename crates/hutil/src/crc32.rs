//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Integrity checksum for the `sessiondb` on-disk format: every block of
//! a segment file and every WAL frame carries the CRC of its payload so
//! that torn writes and bit flips are detected at read time instead of
//! surfacing as garbage records downstream.
//!
//! The analyst's pass checks every byte of the store, so the checksum is
//! on its critical path: byte at a time it took about 8% of a
//! single-thread six-report pass. [`Crc32::update`] therefore folds eight
//! bytes per step through eight 256-entry tables ("slicing-by-8"), all
//! built at compile time; the classic one-table byte loop finishes the
//! tail and stays as the tests' oracle.

/// The eight lookup tables. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC contribution of byte `b` followed by
/// `k` zero bytes, so eight bytes fold in one step.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Folds `bytes` into `crc` one byte at a time.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// A streaming CRC-32 state. Feed bytes with [`Crc32::update`], read the
/// digest with [`Crc32::finish`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum, eight at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        self.state = update_bytewise(crc, words.remainder());
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The byte loop alone: the oracle slicing-by-8 must agree with.
    fn oracle(bytes: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"attacks come to those who wait";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn slicing_by_8_equals_the_byte_loop_at_every_length() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3_2024);
        let data: Vec<u8> = (0..1024).map(|_| rng.random::<u32>() as u8).collect();
        for len in 0..=data.len() {
            let bytes = &data[..len];
            let want = oracle(bytes);
            assert_eq!(crc32(bytes), want, "one-shot, length {len}");
            // The same bytes fed in pieces cut at random points, so
            // every alignment of the eight-byte steps is crossed.
            let mut c = Crc32::new();
            let mut at = 0;
            while at < len {
                let end = (at + rng.random_range(1..=len - at)).min(len);
                c.update(&bytes[at..end]);
                at = end;
            }
            assert_eq!(c.finish(), want, "split, length {len}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let clean = crc32(&data);
        data[512] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
