//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! This is the collision-resistant hash function `H(·)` of the paper,
//! used for request digests `Δ = H(m)`, key derivation in the simulated
//! signature scheme, and HMAC.
//!
//! Everything above the compression function is written once: buffering,
//! padding and the HMAC passes all end in `Sha256::compress_blocks`,
//! which hands a whole run of 64-byte blocks of one stream to one of two
//! kernels:
//!
//! * **`sha-ni`** — the x86-64 SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`), two rounds per instruction, chosen when
//!   the CPU reports `sha`, `ssse3` and `sse4.1` at run time;
//! * **`portable`** — the 64-round scalar function with a 16-word rolling
//!   message schedule, the only kernel on every other target and CPU.
//!
//! Nothing but the CPU selects a kernel (no option, environment variable
//! or cargo feature), [`kernel_name`] reports which one runs, and the
//! tests below hold the two equal on published vectors and random inputs.
//!
//! **`unsafe` inventory.** The `sha-ni` kernel is the only `unsafe` code
//! of the workspace's libraries; it lives in the private `shani` module
//! of this file (see `DESIGN.md`). Each `unsafe` block there is one of:
//! an unaligned 16-byte load or store inside a chaining value or a
//! 64-byte block (in bounds by the argument types), or the call of the
//! `#[target_feature]` kernel after `shani::detected()` confirmed the CPU
//! runs it.
//!
//! Three properties matter for the commit hot path:
//!
//! * full 64-byte input blocks are compressed **in place**, a run at a
//!   time — they are never staged through the internal buffer;
//! * padding is written straight into the block buffer (one or two
//!   compressions per digest, no per-byte bookkeeping);
//! * a hasher can resume from a precomputed midstate, which the HMAC
//!   layer exploits (see [`crate::hmac::HmacKey`]).

use sbft_types::Digest;

/// Bytes per SHA-256 input block.
pub(crate) const BLOCK_SIZE: usize = 64;

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first eight primes.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
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

/// A SHA-256 compression kernel: one implementation of the FIPS 180-4
/// block function over a run of 64-byte blocks.
///
/// The hashing layer uses the one selected for this CPU
/// ([`kernel_name`] says which); each is callable directly so the tests
/// can hold them equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// The scalar kernel; runs everywhere.
    Portable,
    /// The x86-64 SHA-extensions kernel.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The kernel [`Sha256`] compresses with on this CPU: the fastest one
    /// the CPU can run, detected at run time.
    #[must_use]
    #[inline]
    fn selected() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            return Kernel::ShaNi;
        }
        Kernel::Portable
    }

    /// Every kernel this CPU can run, the selected one last (the tests
    /// hold them equal).
    #[cfg(test)]
    fn available() -> &'static [Kernel] {
        match Kernel::selected() {
            Kernel::Portable => &[Kernel::Portable],
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => &[Kernel::Portable, Kernel::ShaNi],
        }
    }

    /// A short stable name (`"portable"`, `"sha-ni"`) for report headers.
    #[must_use]
    fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => "sha-ni",
        }
    }

    /// Folds `blocks` (a whole number of 64-byte blocks) into `state`.
    /// This is the single point where the two kernels meet.
    ///
    /// # Panics
    /// If `blocks` is not a multiple of 64 bytes long, or if this CPU
    /// cannot run the kernel.
    #[inline]
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        assert!(
            blocks.len().is_multiple_of(BLOCK_SIZE),
            "SHA-256 compresses whole 64-byte blocks"
        );
        match self {
            Kernel::Portable => portable::compress_blocks(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => shani::compress_blocks(state, blocks),
        }
    }
}

/// Name of the compression kernel this process hashes with (printed in
/// the headers of `trace_report` and `examples/local_cluster`).
#[must_use]
pub fn kernel_name() -> &'static str {
    Kernel::selected().name()
}

/// Incremental SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; BLOCK_SIZE],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self::resume(H0, 0)
    }

    /// A hasher that continues from `state`, the chaining value after
    /// `absorbed` bytes (a whole number of blocks) of some message prefix.
    #[must_use]
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert!(absorbed.is_multiple_of(BLOCK_SIZE as u64));
        Sha256 {
            state,
            buffer: [0u8; BLOCK_SIZE],
            buffer_len: 0,
            total_len: absorbed,
        }
    }

    /// Folds a run of whole 64-byte blocks into `state` with the kernel
    /// selected for this CPU — the one entry point everything that hashes
    /// (buffering, padding, HMAC passes) goes through.
    #[inline]
    pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        #[cfg(debug_assertions)]
        count::add(blocks.len() / BLOCK_SIZE);
        Kernel::selected().compress_blocks(state, blocks);
    }

    /// Feeds `data` into the hash.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Short writes that leave the block open (the fixed-size fields
        // `U64Hasher` pushes) are a copy into the block buffer.
        let end = self.buffer_len + data.len();
        if end < BLOCK_SIZE {
            self.buffer[self.buffer_len..end].copy_from_slice(data);
            self.buffer_len = end;
        } else {
            self.update_blocks(data);
        }
    }

    /// The part of [`Self::update`] that completes at least one block.
    fn update_blocks(&mut self, data: &[u8]) {
        let mut input = data;

        // Top up a partially filled buffer first.
        if self.buffer_len > 0 {
            let (head, rest) = input.split_at(BLOCK_SIZE - self.buffer_len);
            self.buffer[self.buffer_len..].copy_from_slice(head);
            Self::compress_blocks(&mut self.state, &self.buffer);
            input = rest;
        }

        // Compress every whole block directly from the input, in one run,
        // without staging it through the internal buffer.
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK_SIZE);
        if !blocks.is_empty() {
            Self::compress_blocks(&mut self.state, blocks);
        }

        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finalizes the hash and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        // Padding, written in place: 0x80, zeros up to the last eight
        // bytes of a block, then the 64-bit big-endian bit length. The
        // buffer always has room for the 0x80 (`buffer_len < 64`); when
        // the length no longer fits behind it, it goes in a second block.
        const LENGTH_AT: usize = BLOCK_SIZE - 8;
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= LENGTH_AT {
            Self::compress_blocks(&mut self.state, &self.buffer);
            self.buffer[..LENGTH_AT].fill(0);
        }
        self.buffer[LENGTH_AT..].copy_from_slice(&bit_len.to_be_bytes());
        Self::compress_blocks(&mut self.state, &self.buffer);

        Digest::from_bytes(state_bytes(&self.state))
    }

    /// Convenience one-shot hash.
    #[must_use]
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

/// Compressions this thread has run since it started (debug builds
/// only, so a release build pays nothing for the count): what the tests
/// pin instead of timing the hash.
#[cfg(debug_assertions)]
#[must_use]
pub fn compressions() -> u64 {
    count::COMPRESSIONS.with(std::cell::Cell::get)
}

#[cfg(debug_assertions)]
mod count {
    use std::cell::Cell;

    thread_local! {
        /// Compressions on this thread.
        pub(super) static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn add(compressions: usize) {
        COMPRESSIONS.with(|c| c.set(c.get() + compressions as u64));
    }
}

/// Serialises a chaining value as the 32 big-endian digest bytes.
#[must_use]
pub(crate) fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The scalar kernel.
mod portable {
    use super::{BLOCK_SIZE, K};

    /// The FIPS 180-4 compression function over a run of blocks. The
    /// message schedule is a 16-word window updated in place: `w[i & 15]`
    /// holds `W[i-16]` until round `i` replaces it with `W[i]`.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(BLOCK_SIZE) {
            let mut w = [0u32; 16];
            for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
            }

            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

            for i in 0..64 {
                if i >= 16 {
                    let w15 = w[(i + 1) & 15];
                    let w2 = w[(i + 14) & 15];
                    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                    w[i & 15] = w[i & 15]
                        .wrapping_add(s0)
                        .wrapping_add(w[(i + 9) & 15])
                        .wrapping_add(s1);
                }

                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let temp1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i & 15]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let temp2 = s0.wrapping_add(maj);

                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(temp1);
                d = c;
                c = b;
                b = a;
                a = temp1.wrapping_add(temp2);
            }

            for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *word = word.wrapping_add(add);
            }
        }
    }
}

/// The x86-64 SHA-extensions kernel — the only `unsafe` code in the
/// workspace's libraries (every other crate is `#![forbid(unsafe_code)]`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    #![deny(unsafe_op_in_unsafe_fn)]

    use super::{BLOCK_SIZE, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether this CPU has every extension the kernel is compiled with
    /// (`sse2` is part of the x86-64 baseline). The standard library
    /// caches the `cpuid` answer, so this is a load and a mask per call.
    #[inline]
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Safe entry point: checks the CPU, then runs the kernel.
    #[inline]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(detected(), "this CPU lacks the SHA extensions");
        // SAFETY: `detected()` just confirmed that the CPU supports every
        // target feature `compress_blocks_ni` is compiled with.
        unsafe { compress_blocks_ni(state, blocks) }
    }

    /// Four rounds: adds the round constants `K[4 * i..][..4]` to four
    /// schedule words and runs `sha256rnds2` on each half.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = |j: usize| K[4 * $i + j] as i32;
            let wk = _mm_add_epi32($w, _mm_set_epi32(k(3), k(2), k(1), k(0)));
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    /// Four rounds past the first sixteen: derives the next four schedule
    /// words into `$w0` (which held the four from sixteen rounds ago)
    /// from the window `$w0..$w3`, then runs the rounds on them.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
            let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
            $w0 = _mm_sha256msg2_epu32(t, $w3);
            rounds4!($abef, $cdgh, $w0, $i);
        }};
    }

    /// The compression function over a run of blocks, two rounds per
    /// `sha256rnds2`. The instruction wants the state as the vectors
    /// `ABEF` and `CDGH`, so the eight words are permuted on entry and
    /// back on exit, once per run rather than once per block.
    ///
    /// Callers must have checked [`detected`]: with `target_feature` on a
    /// safe function the compiler makes every call from code without
    /// those features `unsafe`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte shuffle that turns four big-endian words into lanes.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // SAFETY: `state` is 32 readable bytes; the two unaligned loads
        // cover words 0..4 and 4..8 of it.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(BLOCK_SIZE) {
            let load = |i: usize| -> __m128i {
                // SAFETY: `chunks_exact` yields 64-byte blocks and
                // `i < 4`, so the 16 bytes at `16 * i` are in bounds.
                let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
                _mm_shuffle_epi8(raw, be_words)
            };
            let (abef_in, cdgh_in) = (abef, cdgh);
            let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; the two unaligned stores
        // cover words 0..4 and 4..8 of it.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The reference the kernels and the in-place padding are checked
    /// against: SHA-256 of `data` with `kernel` called directly, one block
    /// at a time, and the padding appended a byte at a time.
    fn reference_digest(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_SIZE != BLOCK_SIZE - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(8 * data.len() as u64).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_SIZE) {
            kernel.compress_blocks(&mut state, block);
        }
        state_bytes(&state)
    }

    /// FIPS 180-4 / NIST known answers: the empty message, `abc`, the
    /// 448-bit and 896-bit messages and one million `a`.
    fn known_answers() -> Vec<(Vec<u8>, &'static str)> {
        vec![
            (
                Vec::new(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .to_vec(),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    #[test]
    fn every_available_kernel_reproduces_the_fips_known_answers() {
        assert_eq!(Kernel::available().last(), Some(&Kernel::selected()));
        assert_eq!(kernel_name(), Kernel::selected().name());
        for &kernel in Kernel::available() {
            for (message, expected) in known_answers() {
                assert_eq!(
                    hex(&reference_digest(kernel, &message)),
                    expected,
                    "{} kernel, {} bytes",
                    kernel.name(),
                    message.len()
                );
            }
        }
    }

    #[test]
    fn the_hasher_reproduces_the_fips_known_answers() {
        for (message, expected) in known_answers() {
            assert_eq!(hex(Sha256::digest(&message).as_bytes()), expected);
        }
    }

    #[test]
    fn kernels_agree_on_multi_block_runs_from_any_state() {
        let data: Vec<u8> = (0..64 * 9).map(|i| (i * 31 % 251) as u8).collect();
        let start: [u32; 8] = std::array::from_fn(|i| 0x9e37_79b9u32.wrapping_mul(i as u32 + 1));
        for blocks in [0usize, 1, 2, 9] {
            let mut expected = start;
            Kernel::Portable.compress_blocks(&mut expected, &data[..64 * blocks]);
            for &kernel in Kernel::available() {
                let mut state = start;
                kernel.compress_blocks(&mut state, &data[..64 * blocks]);
                assert_eq!(state, expected, "{} kernel, {blocks} blocks", kernel.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole 64-byte blocks")]
    fn a_partial_block_is_refused() {
        Kernel::selected().compress_blocks(&mut [0u32; 8], &[0u8; 65]);
    }

    /// In-place padding at every boundary where its shape changes: the
    /// last length that shares the block with the length field (55), the
    /// first that spills it into a second block (56), a full block minus
    /// one, a full block, and the same around the second block.
    #[test]
    fn in_place_padding_matches_the_byte_at_a_time_reference() {
        for len in [
            0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128,
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let expected = reference_digest(Kernel::Portable, &data);
            assert_eq!(*Sha256::digest(&data).as_bytes(), expected, "len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernels agree with each other, and the buffering of
        /// `update` is invisible, whatever the input and however it is
        /// split.
        #[test]
        fn kernels_and_split_points_agree(
            data in proptest::collection::vec(any::<u8>(), 0..301),
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let expected = reference_digest(Kernel::Portable, &data);
            for &kernel in Kernel::available() {
                prop_assert_eq!(reference_digest(kernel, &data), expected);
            }
            let mut cuts: Vec<usize> =
                cuts.iter().map(|c| *c as usize % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            prop_assert_eq!(*h.finalize().as_bytes(), expected);
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha256::digest(&data);
        // Feed in irregular chunk sizes to exercise buffering paths.
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 100, 997] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn resuming_from_a_midstate_continues_the_message() {
        let data: Vec<u8> = (0..200u8).collect();
        let (head, tail) = data.split_at(BLOCK_SIZE);
        let mut midstate = H0;
        Sha256::compress_blocks(&mut midstate, head);
        let mut resumed = Sha256::resume(midstate, BLOCK_SIZE as u64);
        resumed.update(tail);
        assert_eq!(resumed.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(Sha256::digest(b"hello"), Sha256::digest(b"hellp"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
    }
}
