//! SHA-256 as specified by FIPS 180-4.
//!
//! The honeynet never stores file bodies, only the SHA-256 digest of each
//! file created or modified on a honeypot (paper §3.2). The digest therefore
//! needs to be computed inside the honeypot's virtual filesystem; the
//! allowed dependency set has no hash crate, so the primitive lives here.
//!
//! The hasher streams 64-byte blocks through one block function, chosen
//! per block at run time: on x86-64 hosts whose CPU has the SHA
//! extensions (`sha_ni` in `/proc/cpuinfo`) it is the hardware one, and
//! everywhere else the portable one. The SSH transport hashes its packet
//! tags here, so the hardware path is on every live session's path. The
//! portable function is also the oracle: the unit tests check every
//! digest against the NIST test vectors, and the dispatching hasher
//! against the portable function on every host.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
///
/// ```
/// use hutil::Sha256;
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     Sha256::to_hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (used for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        self.update_padding(0x80);
        while self.buf_len != 56 {
            self.update_padding(0);
        }
        let len_bytes = bit_len.to_be_bytes();
        for b in len_bytes {
            self.update_padding(b);
        }
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Lowercase hex rendering of a digest, the form abuse databases index by.
    pub fn to_hex(digest: &[u8; 32]) -> String {
        let mut s = String::with_capacity(64);
        for b in digest {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// One-shot digest rendered as lowercase hex.
    pub fn hex_digest(data: &[u8]) -> String {
        Self::to_hex(&Self::digest(data))
    }

    /// Pushes a single padding byte without counting it toward the message
    /// length.
    fn update_padding(&mut self, byte: u8) {
        self.buf[self.buf_len] = byte;
        self.buf_len += 1;
        if self.buf_len == 64 {
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            // SAFETY: the CPU reported every feature the function enables.
            unsafe { sha_ni::compress(&mut self.state, block) };
            return;
        }
        compress_portable(&mut self.state, block);
    }
}

/// The FIPS 180-4 block function in portable code.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The block function on the x86 SHA extensions: `sha256rnds2` runs two
/// rounds per instruction, `sha256msg1`/`sha256msg2` extend the message
/// schedule four words at a time. The state lives in two registers in
/// the order the instructions want (ABEF and CDGH).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU runs [`compress`]. std caches the answer, so
    /// the per-block check is a load and a branch.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// # Safety
    ///
    /// The CPU must support SHA, SSE4.1 and SSSE3 ([`detected`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Every unaligned load and store stays inside its array: words
        // 0..4 and 4..8 of `state`, bytes 16i..16i+16 of `block` for
        // i < 4, and words 4i..4i+4 of the 64-word `K` for i < 16.

        // Big-endian message words: reverse the bytes of each u32 lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let abcd = _mm_loadu_si128(state.as_ptr().cast());
        let efgh = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(abcd, 0xB1);
        let hgfe = _mm_shuffle_epi32(efgh, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, hgfe, 8);
        let mut cdgh = _mm_blend_epi16(hgfe, cdab, 0xF0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let mut w = [_mm_setzero_si128(); 4];
        for (i, word) in w.iter_mut().enumerate() {
            let bytes = _mm_loadu_si128(block.as_ptr().add(16 * i).cast());
            *word = _mm_shuffle_epi8(bytes, bswap);
        }
        // Sixteen groups of four rounds. Group `i` consumes schedule
        // quad `w[i % 4]` and, while its rounds run, extends the
        // schedule for groups `i + 1` (msg2) and `i + 3` (msg1).
        for i in 0..16 {
            let k = _mm_loadu_si128(K.as_ptr().add(4 * i).cast());
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if (3..15).contains(&i) {
                let carry = _mm_alignr_epi8(w[i % 4], w[(i + 3) % 4], 4);
                let next = _mm_add_epi32(w[(i + 1) % 4], carry);
                w[(i + 1) % 4] = _mm_sha256msg2_epu32(next, w[i % 4]);
            }
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            if (1..13).contains(&i) {
                w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], w[i % 4]);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let abcd = _mm_blend_epi16(feba, dchg, 0xF0);
        let efgh = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), efgh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_message() {
        assert_eq!(
            Sha256::hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            Sha256::hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            Sha256::hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            Sha256::to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let want = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn exact_block_boundary_messages() {
        // 55/56/63/64/65 bytes straddle the padding edge cases.
        for n in [55usize, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xa5u8; n];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {n}");
        }
    }

    /// A one-shot digest through the portable block function alone, with
    /// the padding done by hand: the oracle for the dispatching hasher.
    fn portable_digest(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Deterministic xorshift64 stream for the oracle tests.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Whichever block function this host dispatches to, every digest
    /// equals the portable oracle's: every length 0..=1024, one-shot and
    /// fed in three pieces split at random points.
    #[test]
    fn dispatching_digest_equals_the_portable_oracle() {
        assert_eq!(
            Sha256::to_hex(&portable_digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let data: Vec<u8> = (0..1024).map(|_| next() as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = portable_digest(msg);
            assert_eq!(Sha256::digest(msg), want, "len {len}");
            let a = next() as usize % (len + 1);
            let b = a + next() as usize % (len - a + 1);
            let mut h = Sha256::new();
            h.update(&msg[..a]);
            h.update(&msg[a..b]);
            h.update(&msg[b..]);
            assert_eq!(h.finalize(), want, "len {len} split at {a} and {b}");
        }
    }

    /// On a CPU with the SHA extensions, the hardware block function
    /// equals the portable one from random states over random blocks.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_ni_block_function_equals_the_portable_one() {
        if !sha_ni::detected() {
            return;
        }
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2_000 {
            let mut portable: [u32; 8] = std::array::from_fn(|_| next() as u32);
            let mut hardware = portable;
            let block: [u8; 64] = std::array::from_fn(|_| next() as u8);
            compress_portable(&mut portable, &block);
            // SAFETY: `detected` reported every feature it needs.
            unsafe { sha_ni::compress(&mut hardware, &block) };
            assert_eq!(hardware, portable);
        }
    }

    #[test]
    fn hex_is_lowercase_64_chars() {
        let hex = Sha256::hex_digest(b"honeylab");
        assert_eq!(hex.len(), 64);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    }
}
