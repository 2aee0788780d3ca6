//! CRC-32 by carry-less multiplication (x86-64, PCLMULQDQ and SSE4.1).
//! The only `unsafe` code of this crate lives here.
//!
//! The algorithm is the bit-reflected variant of Gopal et al., "Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ Instruction"
//! (Intel, 2009). Four 128-bit lanes take 64 bytes per step: each lane is
//! multiplied forward by x^512 modulo P(x), split into its two 64-bit
//! halves, and XORed into the lane's next 16 bytes. The four lanes then
//! fold into one, which takes the remaining 16-byte blocks, and a Barrett
//! reduction brings the 128-bit remainder down to the 32-bit CRC
//! register. The register is the same one slicing-by-16 keeps, so either
//! kernel can take over from the other at a block boundary.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

// Fold constants for the reflected IEEE polynomial
// P(x) = 0x1_04C1_1DB7: each is `reflect32(x^k mod P(x)) << 1`, with the
// exponent `k` beside it. The 4-lane fold moves a lane 512 bits forward,
// the 1-lane fold 128 bits; the ±32 accounts for the CRC's 32-bit shift
// and the `<< 1` for the reflected product's one-bit offset.
const K1: i64 = 0x1_5444_2BD4; // k = 4·128 + 32
const K2: i64 = 0x1_C6E4_1596; // k = 4·128 − 32
const K3: i64 = 0x1_7519_97D0; // k = 128 + 32
const K4: i64 = 0x0_CCAA_009E; // k = 128 − 32
const K5: i64 = 0x1_63CD_6124; // k = 64
/// P(x) reflected over its 33 bits.
const P_REFLECTED: i64 = 0x1_DB71_0641;
/// The Barrett constant ⌊x^64 / P(x)⌋, reflected over its 33 bits.
const MU_REFLECTED: i64 = 0x1_F701_1641;

/// Advance the CRC register `state` over `blocks`, a whole number of
/// 16-byte blocks, at least four of them. `None` when the CPU lacks
/// PCLMULQDQ or SSE4.1.
pub(super) fn update(state: u32, blocks: &[u8]) -> Option<u32> {
    assert!(
        blocks.len() >= 64 && blocks.len().is_multiple_of(16),
        "the carry-less kernel takes four or more whole 16-byte blocks, got {} bytes",
        blocks.len()
    );
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: `fold` is compiled for PCLMULQDQ and SSE4.1, and the
        // CPU has both (checked just above).
        Some(unsafe { fold(state, blocks) })
    } else {
        None
    }
}

/// One 16-byte block as a vector.
#[inline]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes, and an unaligned load reads
    // exactly 16 bytes with no alignment requirement. SSE2 is part of
    // the x86-64 baseline.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// `lane` multiplied forward by the distance `keys` encodes (its low half
/// by the low key, its high half by the high key), XORed into `next`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold_lane(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(lane, keys);
    let hi = _mm_clmulepi64_si128::<0x11>(lane, keys);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold(state: u32, blocks: &[u8]) -> u32 {
    let (blocks, _) = blocks.as_chunks::<16>();
    let (first, rest) = blocks.split_at(4);
    let mut lanes: [__m128i; 4] = std::array::from_fn(|i| load(&first[i]));
    // The register XORs into the first 32 message bits, as in the
    // bytewise loop.
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

    let k1k2 = _mm_set_epi64x(K2, K1);
    let (steps, rest) = rest.as_chunks::<4>();
    for step in steps {
        for (lane, block) in lanes.iter_mut().zip(step) {
            *lane = fold_lane(*lane, load(block), k1k2);
        }
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold_lane(lanes[0], lanes[1], k3k4);
    x = fold_lane(x, lanes[2], k3k4);
    x = fold_lane(x, lanes[3], k3k4);
    for block in rest {
        x = fold_lane(x, load(block), k3k4);
    }

    // 128 bits to 64: the low half times x^96, plus the high half.
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
        _mm_srli_si128::<8>(x),
    );
    // 64 bits to 32 + 32: the low word times x^64, plus the rest.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett reduction: T1 = (x mod x^32)·μ, T2 = (T1 mod x^32)·P; the
    // register is the second word of x ^ T2 (the reflected high half).
    let pu = _mm_set_epi64x(MU_REFLECTED, P_REFLECTED);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The IEEE polynomial with its x^32 term.
    const P: u64 = 0x1_04C1_1DB7;

    /// x^k mod P(x) over GF(2).
    fn x_pow_mod(k: u32) -> u64 {
        let mut r = 1u64;
        for _ in 0..k {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= P;
            }
        }
        r
    }

    /// The low `bits` bits of `v` in reverse order.
    fn reflect(v: u64, bits: u32) -> u64 {
        v.reverse_bits() >> (64 - bits)
    }

    /// ⌊x^64 / P(x)⌋ over GF(2).
    fn barrett_mu() -> u64 {
        let mut rem = 1u128 << 64;
        let mut q = 0u64;
        for shift in (0..=32).rev() {
            if rem & (1u128 << (shift + 32)) != 0 {
                rem ^= (P as u128) << shift;
                q |= 1 << shift;
            }
        }
        q
    }

    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        let k = |exp: u32| (reflect(x_pow_mod(exp), 32) << 1) as i64;
        assert_eq!(K1, k(4 * 128 + 32));
        assert_eq!(K2, k(4 * 128 - 32));
        assert_eq!(K3, k(128 + 32));
        assert_eq!(K4, k(128 - 32));
        assert_eq!(K5, k(64));
        assert_eq!(P_REFLECTED, reflect(P, 33) as i64);
        assert_eq!(MU_REFLECTED, reflect(barrett_mu(), 33) as i64);
    }

    #[test]
    #[should_panic(expected = "whole 16-byte blocks")]
    fn partial_blocks_are_refused() {
        let _ = update(!0, &[0u8; 72]);
    }
}
