//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`): the checksum of
//! every stored chunk block and block directory, vertex-array block and
//! commit record.
//!
//! A CPU with PCLMULQDQ and SSE4.1 (x86-64, detected at run time) folds
//! the bulk of an input 64 bytes a step by carry-less multiplication and
//! ends with a Barrett reduction (Gopal et al., Intel, "Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ Instruction"). An
//! input shorter than [`FOLD_MIN`], the last `len % 16` bytes of a longer
//! one, and every other CPU go through slicing-by-8 tables, eight input
//! bytes per step. Both paths give the same CRC for every input.

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Shortest input the carry-less fold takes: its four 128-bit lanes.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 64;

/// One bytewise step of the CRC register.
#[inline]
pub(crate) fn crc_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8)
}

/// The CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_more(0, data)
}

/// The CRC-32 of `a ‖ data`, given `crc = crc32(a)`.
pub(crate) fn crc32_more(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (bulk, tail) = data.split_at(data.len() & !15);
        // SAFETY: `fold` uses no CPU feature but the two detected above.
        let crc = unsafe { fold(crc, bulk) };
        return crc32_sliced(crc, tail);
    }
    crc32_sliced(crc, data)
}

/// [`crc32_more`] by slicing-by-8, with a bytewise tail.
pub(crate) fn crc32_sliced(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = crc_step(c, b);
    }
    !c
}

/// [`crc32_more`] of `data` — at least [`FOLD_MIN`] bytes, a multiple of
/// 16 — by carry-less multiplication. Four 128-bit lanes are folded
/// forward 512 bits per 64-byte step, then into one lane 128 bits at a
/// time, then to 64 and 32 bits, and the 64-bit remainder left is reduced
/// modulo the polynomial by Barrett's method. The constants are `x^k mod
/// P(x)` for the fold distances, bit-reflected and shifted by one as the
/// reflected domain needs, and `P′` and `μ = x^64 / P(x)` for the
/// reduction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    assert!(data.len() >= FOLD_MIN && data.len().is_multiple_of(16));
    // (high, low) 64-bit halves of each multiplier pair
    let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
    let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
    let poly_mu = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
    let low32 = _mm_set_epi64x(0, 0xffff_ffff);
    let load = |b: &[u8]| {
        let v = u128::from_le_bytes(b.try_into().expect("a 16-byte lane"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    };
    /// `x` carried 128 bits (or 512, by the multipliers `k`) past `y`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        _mm_xor_si128(_mm_xor_si128(lo, _mm_clmulepi64_si128(x, k, 0x11)), y)
    }
    let (head, mut rest) = data.split_at(FOLD_MIN);
    let mut x: [__m128i; 4] = std::array::from_fn(|i| load(&head[16 * i..16 * i + 16]));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(!crc as i32));
    while rest.len() >= FOLD_MIN {
        let (step, next) = rest.split_at(FOLD_MIN);
        for (i, lane) in x.iter_mut().enumerate() {
            *lane = fold16(*lane, k1k2, load(&step[16 * i..16 * i + 16]));
        }
        rest = next;
    }
    let mut acc = fold16(fold16(fold16(x[0], k3k4, x[1]), k3k4, x[2]), k3k4, x[3]);
    for lane in rest.chunks_exact(16) {
        acc = fold16(acc, k3k4, load(lane));
    }
    // 128 bits to 64, appending the 32 zero bits the CRC's definition does
    let acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k3k4, 0x10));
    // 64 bits to 32 plus a 32-bit carry
    let low = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00);
    let acc = _mm_xor_si128(_mm_srli_si128(acc, 4), low);
    // Barrett: the quotient's low 32 bits times P′ cancel the high half
    let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly_mu, 0x10);
    let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
    !(_mm_extract_epi32(_mm_xor_si128(acc, r), 1) as u32)
}
