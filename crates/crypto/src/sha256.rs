//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! [`Sha256`] feeds whole 64-byte blocks to one of two compression
//! functions:
//!
//! * **scalar** — the specification transcribed (64 rounds, big-endian
//!   message schedule). It runs on every host and is the reference the
//!   tests hold the other path to.
//! * **SHA-NI** — on x86_64, a `std::arch` kernel on the SHA extensions
//!   (`sha256rnds2`, `sha256msg1`, `sha256msg2`), chosen at run time when
//!   `is_x86_feature_detected!` reports `sha`, `ssse3` and `sse4.1`.
//!   There is no switch: a host with those features always takes it.
//!
//! Both are validated against the NIST CAVP short-message vectors and a
//! table from an independent implementation in the tests below; the
//! scalar path is also called directly there, so it is tested on SHA-NI
//! hosts too.
//!
//! SHA-256 is on the protocol's hot path: batched bid agreement commits
//! to, and digests, stream-length buffers — `2m` passes over the bid
//! stream per provider per session (6 at m = 3, about 26 kB at n = 256) —
//! so its throughput bounds the bid-agreement block.

use std::fmt;

/// A 32-byte SHA-256 digest.
///
/// # Example
///
/// ```
/// use dauctioneer_crypto::sha256;
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// First 8 bytes of the digest as a little-endian `u64` (convenient for
    /// deriving RNG seeds and coin values from hashes).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().unwrap())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use dauctioneer_crypto::{Sha256, sha256};
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 { state: H0, buffer: [0u8; 64], buffered: 0, total_len: 0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, rest) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length in
        // the last 8 bytes — in one more block when the 0x80 leaves fewer
        // than 8 in this one.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buffer);
        state_digest(&self.state)
    }
}

/// The digest a final `state` stands for: its words, big-endian.
fn state_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Compress the whole 64-byte blocks of `blocks` into `state`, on the
/// SHA-NI kernel where this CPU has it and the scalar one elsewhere.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available` just reported the sha, ssse3 and sse4.1
        // features `shani::compress_blocks` is compiled for.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// The reference compression function: FIPS 180-4 §6.2.2 transcribed
/// one block at a time.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// Whether this CPU has every feature [`compress_blocks`] is compiled
    /// for. `std` caches the detection, so this is a load and a test.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// [`super::compress_blocks_scalar`] on `sha256rnds2` (two rounds per
    /// instruction) and `sha256msg1`/`sha256msg2` (the message schedule,
    /// four words at a time).
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1` ([`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Message words are big-endian: reverse the bytes of each lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // `sha256rnds2` keeps the working variables as ABEF and CDGH
        // (vector names list the 32-bit lanes high to low).
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let words = block.as_ptr().cast::<__m128i>();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(words), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), bswap);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            for g in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, g);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, g + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, g + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, g + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16::<0xF0>(feba, dchg));
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8::<8>(dchg, feba));
    }

    /// Rounds `4g..4g + 4`, on schedule words `w` = W[4g..4g + 4].
    ///
    /// # Safety
    ///
    /// As for [`compress_blocks`].
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
        let k = &K[4 * g..4 * g + 4];
        let wk = _mm_add_epi32(w, _mm_loadu_si128(k.as_ptr().cast()));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four schedule words from the sixteen before them, oldest
    /// first: W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16].
    ///
    /// # Safety
    ///
    /// As for [`compress_blocks`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(partial, w3)
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The input behind [`INDEPENDENT`]: byte `i` is `i · 31 mod 251`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// SHA-256 through the scalar compress alone, padded here rather
    /// than by [`Sha256::finalize`].
    fn scalar_sha256(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_blocks_scalar(&mut state, &padded);
        state_digest(&state)
    }

    /// `(len, SHA-256 of pattern(len))` from an independent
    /// implementation, Python's `hashlib`:
    ///
    /// ```text
    /// python3 -c 'import hashlib
    /// for n in [*range(131), 1136, 4400, 65536]:
    ///     print(n, hashlib.sha256(bytes(i * 31 % 251 for i in range(n))).hexdigest())'
    /// ```
    ///
    /// Lengths 0–130 cover every padding case up to three blocks; 1,136
    /// and 4,400 B are bid-agreement streams; 65,536 B is bulk input.
    const INDEPENDENT: &[(usize, &str)] = &[
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
        (2, "d8f7720bd76b8e048289b3eeebc5d41e20c35822d4652364a429ab7cb7ea6b1f"),
        (3, "94e1c77d23e949c5fe5b5309709054b595ae0ddd29b86b0b4f89ba8a7de870fe"),
        (4, "0828fbe8068521d9003508f0b4015c9c2d3d86008a49a8ff12c1677104837871"),
        (5, "28aa56c727b3999910cff5ec38aba45294c48a45c678d8bf70be09dce933f224"),
        (6, "32fb2071ebd3103ec43ae11731cbf5064c96624ee9610437c0c9a66287584490"),
        (7, "7a57226673a2a6903c169e2aa557ab86630054d6c6facb2c7d688e29ead11c87"),
        (8, "6ef44432d97e0a4e62aaef2ea2b3b79c6371347c2ce08f26f8eb5e735c18aa47"),
        (9, "5506a5093851d7659780bfb58d230876a7c695d50995d631f47cce65a2f375a8"),
        (10, "85906e1c4e3a60fab115e4396fa0c77d02eb400ec51cbb5f6034ada84c7046ab"),
        (11, "06a6f973ff1f000fae4f2db20c8977468c08601d5a02f1b56774cd2812cff44a"),
        (12, "23f57919ea5f83ecc361ba3897286f66dc263ec5110e11aac79850949d606d8c"),
        (13, "bebda84be57dd2a3ba6ae4e485fd75457f3c0d29c10ded9c2ab2ed46a3d07170"),
        (14, "720fd45856c177359af6e25b78ac2146f8362ddc1b11e1b82ec65f4f8e9fda68"),
        (15, "262d9eed95328a8d8d65ec56089207c09af567b0718be5f510c62b337b4c5b77"),
        (16, "f59df330e85ca168788a07ee335883dc6f6cc158a7e86ef5672d3a2c2f666121"),
        (17, "3bc522c4d10a33bfdeed285c37f13a9eebbf541de68de732651663f15f491a1d"),
        (18, "f07b7971d8e64d2fd9b6cf8aa074ef0e4b2c638a6e58142998172e720dbb60ad"),
        (19, "b23767f721b9ca3b696a835c6225c7ef4f566c2f1af6374dba7b793f290c9541"),
        (20, "479d08263e53d0345e7e19fce1045b5452c3bc0dee5e9729c5d97e8bdf255fbf"),
        (21, "7eb984e71346f0c5d4e7a875651b13e28df40ee6ec08c2a102076fa20c5839e3"),
        (22, "425de9583e616458fc4ff176729267d51e73c3be1d3c1aa4c282e471773c18ae"),
        (23, "e71fc10f404e2a3f15f84c0cd760be26f0218e81179c6ba7e123ac80da7afc69"),
        (24, "6437818ba4c5118b6d4f8f4cbc76b73241f749e1e1ee56aac02ebbd55a444fd5"),
        (25, "5bb21b652985b3ab1ed432b330a297bc1c9110e1e60699a2d2f42719532394f7"),
        (26, "f1b6a9cadbf91e184a0069109a7b8c41a18a19b889d3ff54248e7349d4d4f9ff"),
        (27, "6d7ce3aaa277ce19fd5762e83460249c447f0dbcaafa6a31dfbbffaf4e942df3"),
        (28, "89eefb2b8e2367fcfb9500444d4ad99526f938ac8819c721e1983378e0db7d0a"),
        (29, "edb8396f9554438b7fe95107c8eda3e11a16f474190ed2dd1fffd0240eb91696"),
        (30, "0c6d51dac73cc04bc751dda4c7579ca1ace8268fcbbf19163e2b2a58c43a8b6f"),
        (31, "f91540718733cbae65c204f203d44f60833ebc5697642be3335aa4e79af2b4dc"),
        (32, "f097a0c2d4c778d5ec56193db387935bbfd8481e8de0981bcb023b99bfa29e73"),
        (33, "8617f213f5fd414d7b073ed134101410a8c7be32b7d78735e0ecc16609803460"),
        (34, "af7686c66ff0d1c5b41506885979248cf399136fdbc9a1ae318bbd3329057a1e"),
        (35, "18a0ecaec4d44adc352f9a94418e5f8b36ce8a150662d7cf52546c43b57b3ca8"),
        (36, "b3dca73620cd774d810dd84c00ab91710d1ecaadd38ad86750f59db6f3cdb35e"),
        (37, "d840daad21d84a77d7d0325f13d17e615ac9589610efec28d9c4f7a62aa2c42a"),
        (38, "01c5fc23d23821f5493e3d9617a9e9fb2a1756374bfbe5a5929cee617d4f37e2"),
        (39, "31e7cff828dbff753d3f5fd17479f4f171c4c70ff0a53b72d9be661bfcad72a4"),
        (40, "03cdc58c025d5801c4b0f7c4820521632d5a16bca4914474a946d196f6018db6"),
        (41, "e22cca7c6bb47d2a4777d66cb0ace270cbb504849bc70257a3965e00a8b4dede"),
        (42, "d14ed338c47160207891640edf7c0c5b58ababccfaddb89f7d02cda587abb006"),
        (43, "d71870b84f5f4bc729693e235cf8fa60b079b968929145241d97c531e0704857"),
        (44, "c664df114209b89952f767947fc3a6f6aca0200bcb0db11d8520409705aa88b8"),
        (45, "5526abd3156199671e6ac7d2794ab2fa848167e3574b6706211dbf47be2a3c71"),
        (46, "b1aa7af19e7e2f2f523994e844c1923acdd313ea59ab016fcf98f512e0eb7a24"),
        (47, "a90c18fe28cdffaa62c89f7884467a87794e8c31d2723629903858480a904049"),
        (48, "0e28d71d4208c1975cc3bda9529675201b80128aca40dbe424e53e8b5d931601"),
        (49, "8066546eb705c2e1948c0fa2b03ea9dfdd493acc6e5a76fe95b94d774a2e7a25"),
        (50, "d38b8e00614d839ada96411a04b088989d468934fb53a9efe7b1ab920c936c3f"),
        (51, "9cb24278e0cea6e7c138e484c34befc37541adf8159c46317d0fc33aeb5b7cd6"),
        (52, "25fd7650ffb739dceb2d211bdf98767b19708ae33b496610ee361f2b7b26181c"),
        (53, "255b6d1b1db9e8d1c6958ce0025612ddf30ef80a8d6d3ade69352b6b93e55e18"),
        (54, "f63c2712228a12084ac209008bef34bbefe7d0ef973aafff5a249c9c031174b0"),
        (55, "5458389fd37b67768b5f165f23d2c9022c09c6e72f11f2c2fe5758d0836e7fb2"),
        (56, "abbbbc5fbfb4258624e16b44a1ab421bf5b2a4cd1658aaed6e2c790705a5c513"),
        (57, "5242bd716cc6688bbc8894d61f8d1ad8c337c6390b7f8cf97efbcf8825bab6a9"),
        (58, "2eb2b66001f4c9da79a0982a05c1181e99294f226852a8c74506c7912d769661"),
        (59, "02de490e1e708b1219192eb8e522dfddf4ca6f620581155c632818368348d11d"),
        (60, "6926a135d14963fbde21c4d7294f49d47df6b067e7315bbc3118317f21ecdb7c"),
        (61, "11b9ba6bc2616a94ac977e978fdb6ab6779bd1ff42b83bdc4d5f85afea3d0d25"),
        (62, "b317f870ed840942b3dc43afec24aa5b691955c6d4631ec02b536cb62a8ca3f4"),
        (63, "6c620e057c22f5d3ed1a3ddbbbfd5644b531af3d1ca9a276eadc4efbdb5122a5"),
        (64, "37fd14d59d20906ab02c3e8b5b7ccf56cd026f9ed2777c0e4b413f22bdb4823e"),
        (65, "f6cc2c6adcdc6aba12e9588dabfb605def0f1ec6def93ebaccedcaab728cae9e"),
        (66, "150bd4e44553e533b9bee84689491b57b3394d183b46a9843932cecc0c3f8bf2"),
        (67, "957b68f9bb72b993e5ac903d7a6afaf281f2b2433f0bb73e4c8c4b5752ca8982"),
        (68, "d82869b62211eaa69413a66d7d1aa3133a8ff99bfa35bef811bb11f72dfb3bb5"),
        (69, "b9f34376f05907b5828bea24e37b5aa550c5b5f7012cbb2ebc5d44afd2895de3"),
        (70, "bce949a5f88793fbae04bd2f72585a8429dd6dfb9e07345f8c43cd2df6c1ffdd"),
        (71, "52ef099a61b3585285801b23a1dd6b168e723470de19a6137bc0c96ed201baa2"),
        (72, "846fbc64ced6c170ec119a5220181ebe18384c5d29241d4e3c4ff2f8820ef5da"),
        (73, "188e2b96414f8a3bef3139a450f0b831db98e354c143cd61651db9cd7910c011"),
        (74, "774f8f930edf5adaf76dae2e0ef43f2ad7bac9f141e419ad0bbf9c21650a65d0"),
        (75, "6d7639a92f5167c11bec10d80f3987ca035d1cb6fff49875c95917cb3eb5eccf"),
        (76, "85288fa0126ef37cf7c8e33c17196a129cd9ad96325b3b61f7306ccfb6573a8e"),
        (77, "9e9ac80338a1852e1cc2810f01eca90feac3f5cb4636ea647ed73a0c6b8eb84d"),
        (78, "172228b7a2620b834caadfe7ffd002aeeb3358ffd07dcda763ed3bf806c10ab7"),
        (79, "ba9c96cbdd13af6ef31f923c07aa865a19ee24f9e8f03589606d31f0b2667d5b"),
        (80, "a8c948bf604b610c8a5b8f82fe38e0a0a566ba6b318ce23572ac088de4e71f4d"),
        (81, "471c1fe9bd494574e6a99dac50c622c77fd6543031c950439d04d9e144c608a7"),
        (82, "fd3214734ed9338eae73dd4aae42205fc9c50446b21f661e46e1842171222af9"),
        (83, "33e56adcad5a4d9ede18bf91c1a7d65c323cb945fc24b839e5c94ab4ce6ba1c0"),
        (84, "654953da82df0ccd3b18f74c251a1c24cee104dc41266f23a29eb414c0cb1664"),
        (85, "7c6fe05c69b077e4dbca5e12a89b814258448706f35c39075c5e99415723eaba"),
        (86, "ab8cdd7f93ed8c9d570147916854dfca1037fc8c22e85200696d4c0963c9a806"),
        (87, "03f83357c877343a3e8ab8bac1b078ef72f7543bfc27b82849b492da448ba30a"),
        (88, "0b22819592600f177e995d77468253168b1457043fea37c4f81950ced91af47f"),
        (89, "c4ff3f03676ae2c652fdf9ac6202532bc477add4f6e3672e04f8b78e479339cf"),
        (90, "93a973b3fea87102e60d81a6e013553bd6702780198d5758e101c354fe81f36f"),
        (91, "3c523d894caa9f1addcda17706f5f0e7ac43a0b651885045239c34993cd2b461"),
        (92, "c74ddc7c397247cee23c1e838fa129ebc577f2763161b58ec5edf4f224fc826a"),
        (93, "a2af91baebfb0e645c307e7bb2a6cc239294794b9b3b685b1287b94baac1e00f"),
        (94, "84e2f488c65a79edf52595b26f47a2eee0189fd1d6a919326b7a8b3ef6d5fdad"),
        (95, "9279a628f4dbc4d37161ea7d94502de0367cfa9290cd80290e30593c54b096b1"),
        (96, "cb6c6f4f3e25b3a6cf63b02f88a2b067722bbddee679222acdb4242bbb783a42"),
        (97, "ffe8ff79ceb0edcca735fb4250b3ab3fa185c6e4a72dec6887f655819c643bcc"),
        (98, "b53ebecdbd1a400a0b8203781426e5fbfde03f43de7937db2259bb615fabcf3b"),
        (99, "729006282725b063cc3b191033ecf34e9eae3ba349d2f7314a029564aa205a0a"),
        (100, "ad23e7588eab10d748f8f38c32cb53aa3fc3e815e5a142d9eb224e677fbfb12a"),
        (101, "e99b7eb98adf07bbfb6e7f42fd82d510d0dcc87f0fc1fd8607d84cbce115b737"),
        (102, "2c223b2e0c3834ac61a33e2217aef08ac14b6ef3d1ea3b281f82e816a77a70aa"),
        (103, "507610d4b31a76fee81174bdcb4d5df0fc6eedfad74afa27f32d59a076c7eb4b"),
        (104, "6514a868517088153f51261b55b838ab7cbaadb5673524f792b094ebc408f2c8"),
        (105, "2dc18b0b93afb15fc84a670973c4eb0cb787cb7c87ac7fa78740a3292d9681cd"),
        (106, "d9422df8cc714d8e046881510e64c75718e25b9acfa87767e871e37b7745c29e"),
        (107, "502bb7b4c4ac2cf5ca8a4fe46613bd77bbc876e99b70528d82f5b8d7af71efc4"),
        (108, "0b20d5cc73ab77436f35a1038af4441c0af798a676e2155b35fb2613fa27c2e6"),
        (109, "e265002a916f6d838054255a119cfe8994bf0a8760caa709977189c6430de284"),
        (110, "2c6fd1ee26c3c95bd581625ab2dbef46d257aa9127c1c6f8ea7ba23f893f90f6"),
        (111, "aeb6550df9b28bf32cfde6e61613054c48569ab28285d2e291ee3cddfc402fc3"),
        (112, "09b9d0bfc0512d8e50c295b4b1133241bff82c2d791806d99a70171b506d6b5d"),
        (113, "5715af0db64507fc283616ef28edacbc2019e52245880a04e650b85850fa9d8d"),
        (114, "1b419177a92d3fe6f5f03098ef8b5e1a493154656055d1fba30ecae1700a0d99"),
        (115, "aa4d84c310a71ef5a5d3eba921654a9e44a132f6d22a3502e72b730cae680423"),
        (116, "d5d792a74a082ff436f69c3f66871d999f635ae9afeda5287caa814076c4ae65"),
        (117, "1c2ecbe9589e286af6b344d2c40781f342a3ca6e831121172f68f20fae0765d0"),
        (118, "826c770f87f55fb177d75ea93985be61e0ce030e7a13db6762c076c705acaf3d"),
        (119, "4d44da4b99e65c9845a922dee0c8095b902f5e06df648af0a4e0a0d461df4ea9"),
        (120, "6d9f5724077e8d4959d5a8e23f99197a21fe00ece30fa9d4f02390c82a6bf2b4"),
        (121, "0b304dca4161ed7d57e74f567d6559a33905184242d867a7b06bb1029ff3a7e7"),
        (122, "e7d0ff3d70fc601ebf0342610d132519c045fb503f7a850d7cbc2c8a5e840cce"),
        (123, "b7c695832e2878f53fd21101ca99d2d2a6d185caa011957ac49dbb4c605848a4"),
        (124, "195d84ddc0de5f77a9f179af6757625d6e949046fbb822a93f219d4c35cfdda9"),
        (125, "3db2d41b75e9fca5adf5e1aa6c48d88d66b5d0db593462de31a861d3b51e0b59"),
        (126, "73c606907a843fcc65d9342a35d76559a490870f8ce9d583b0ef52f8f8c40dcf"),
        (127, "3ee6defe222a8ad322e5620e07d6a2ec5e84012b1cd8d04445574ebb2b9a727a"),
        (128, "eaaa24524227b908e482a9ee3348eccbfab2e552f8859b69f8dc2ce2358651b1"),
        (129, "ce6b67fbe91b853dc29c9c6b912c06c32b807f029ec422b0b0ef4e3eed6aec58"),
        (130, "aebad5b7c986b533f7f9f1d8d4aa036356d14adf1b16563d87048ffdffe70af7"),
        (1136, "66196b9b4ef3b09cf9d43a7b483d39eb7aff18490ae50e8be7d6f3f31abc0d30"),
        (4400, "207668e304216aa38af820ff68adfd8e64005bf6076c4fa13b7fa7d5051f99b8"),
        (65536, "755682d23142311edaceadbb28c139b343b1ee0507241771d1530db1441747c9"),
    ];

    /// Every table entry four ways: one-shot (the dispatched kernel),
    /// streamed in 1-, 7- and 64-byte pieces, and the scalar compress
    /// called directly, so both kernels are checked on SHA-NI hosts.
    #[test]
    fn independent_table_four_ways() {
        for &(len, want) in INDEPENDENT {
            let data = pattern(len);
            assert_eq!(sha256(&data).to_hex(), want, "one-shot, len {len}");
            for piece in [1, 7, 64] {
                let mut h = Sha256::new();
                for chunk in data.chunks(piece) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize().to_hex(), want, "{piece}-byte pieces, len {len}");
            }
            assert_eq!(scalar_sha256(&data).to_hex(), want, "scalar compress, len {len}");
        }
    }

    proptest! {
        #[test]
        fn dispatched_streaming_matches_scalar_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..1200),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(data.len());
            let mut h = Sha256::new();
            let mut at = 0;
            for cut in cuts {
                h.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(h.finalize(), scalar_sha256(&data));
        }
    }

    /// NIST / FIPS 180-4 reference vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(sha256(input).to_hex(), *expected, "input {input:?}");
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries.
        let known: &[(usize, &str)] = &[
            (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
            (57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"),
            (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"),
            (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
            (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"),
        ];
        for (len, expected) in known {
            let data = vec![b'a'; *len];
            assert_eq!(sha256(&data).to_hex(), *expected, "len {len}");
        }
    }

    #[test]
    fn digest_display_and_prefix() {
        let d = sha256(b"abc");
        assert_eq!(d.to_string(), d.to_hex());
        assert_eq!(format!("{d:?}"), format!("Digest({})", d.to_hex()));
        let expected = u64::from_le_bytes(d.as_bytes()[..8].try_into().unwrap());
        assert_eq!(d.prefix_u64(), expected);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }
}
