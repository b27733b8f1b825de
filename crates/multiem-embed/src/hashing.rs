//! Stable hashing and pseudo-random token vectors.
//!
//! Tokens are mapped to fixed pseudo-random unit vectors without storing an
//! embedding table: the token's FNV-1a hash seeds a SplitMix64 stream, and
//! each 64-bit draw gives the signs of 64 consecutive dimensions (bit `i` of
//! draw `j` is the sign of lane `64 j + i`). Two different tokens therefore
//! receive (nearly) orthogonal vectors in expectation, while the same token
//! always receives the same vector — exactly the property needed for
//! overlap-based similarity.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte string. Stable across platforms and runs.
#[inline]
pub const fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a 64-bit hash over more bytes:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`. Lets a caller hash a
/// prefixed key without building it.
#[inline]
pub const fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    hash
}

/// SplitMix64: a tiny, high-quality 64-bit mixing PRNG used to expand a token
/// hash into a stream of pseudo-random values.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lane signs of one 4-lane quad, indexed by the quad's four sign bits:
/// `SIGNS[bits][i]` is `1.0` when bit `i` of `bits` is set, else `-1.0`.
const SIGNS: [[f32; 4]; 16] = {
    let mut table = [[-1.0f32; 4]; 16];
    let mut bits = 0;
    while bits < 16 {
        let mut lane = 0;
        while lane < 4 {
            if (bits >> lane) & 1 == 1 {
                table[bits][lane] = 1.0;
            }
            lane += 1;
        }
        bits += 1;
    }
    table
};

/// Add `weight * v_token` to `acc`, where `v_token` is the pseudo-random
/// ±1/√dim unit vector derived from `token_hash`: lane `i` gets
/// `±weight / √dim`, positive when bit `i % 64` of the token's `i / 64`-th
/// SplitMix64 draw is set. Nothing is allocated per token.
///
/// The loop is written as the table kernel it should compile to: one draw
/// covers 16 quads of 4 lanes, and each quad adds
/// `SIGNS[bits & 0xF][i] * scale` before `bits` shifts by 4; the `dim % 4`
/// tail reads the same table. Spelled as a per-lane
/// `if bit { 1.0 } else { -1.0 }`, the same arithmetic left the choice to
/// LLVM's vectorizer, which did not make it the same way in every build:
/// the `benchmark` and `serve` binaries compiled `encode` to a per-lane
/// variable-shift emulation (8 `psllq`, no `mulps`), a root-workspace build
/// of the same source to a 16-entry sign table with `mulps`. On the same
/// texts (2-core x86-64 VM) an encode took 45 µs in the shift form against
/// 15–22 µs in the table form, and `#[inline(never)]` did not change the
/// binaries' choice; `embedding/accumulate_token/384` measured 579 ns per
/// token in the per-lane form and 192 ns as written. With the table in the
/// source there is nothing left to choose. Every lane still receives exactly `±1.0 * scale`, so embeddings
/// are bit-for-bit what the per-lane form computed.
///
/// It stays out of line on purpose. With `encode` its only non-test caller,
/// LLVM inlined it there as scalar `mulss`/`addss` code, and encoding a
/// music-20 record took 11.3 µs against 6.9 µs with the call (same VM).
#[inline(never)]
pub fn accumulate_token(acc: &mut [f32], token_hash: u64, weight: f32) {
    if weight == 0.0 || acc.is_empty() {
        return;
    }
    let scale = weight / (acc.len() as f32).sqrt();
    let mut state = token_hash ^ 0xA076_1D64_78BD_642F;
    let (quads, tail) = acc.as_chunks_mut::<4>();
    let mut bits = 0;
    for block in quads.chunks_mut(16) {
        bits = splitmix64(&mut state);
        for quad in block {
            let signs = &SIGNS[(bits & 0xF) as usize];
            for (lane, sign) in quad.iter_mut().zip(signs) {
                *lane += sign * scale;
            }
            bits >>= 4;
        }
    }
    if !tail.is_empty() {
        // The tail continues the last draw, or opens the next one when the
        // quads used up all 64 bits.
        if quads.len() % 16 == 0 {
            bits = splitmix64(&mut state);
        }
        let signs = &SIGNS[(bits & 0xF) as usize];
        for (lane, sign) in tail.iter_mut().zip(signs) {
            *lane += sign * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{cosine_similarity, l2_norm};

    /// The pseudo-random unit vector of a token.
    fn token_vector(token_hash: u64, dim: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; dim];
        accumulate_token(&mut v, token_hash, 1.0);
        v
    }

    #[test]
    fn fnv_is_stable_and_discriminates() {
        assert_eq!(fnv1a64(b"apple"), fnv1a64(b"apple"));
        assert_ne!(fnv1a64(b"apple"), fnv1a64(b"apples"));
        assert_ne!(fnv1a64(b""), fnv1a64(b"a"));
    }

    #[test]
    fn splitmix_produces_distinct_values() {
        let mut s = 42u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
    }

    #[test]
    fn token_vector_is_unit_norm() {
        for token in ["apple", "iphone", "64gb", "x"] {
            let v = token_vector(fnv1a64(token.as_bytes()), 384);
            let norm = l2_norm(&v);
            assert!((norm - 1.0).abs() < 1e-4, "norm {norm} for {token}");
        }
    }

    #[test]
    fn distinct_tokens_are_nearly_orthogonal() {
        let a = token_vector(fnv1a64(b"apple"), 384);
        let b = token_vector(fnv1a64(b"banana"), 384);
        let sim = cosine_similarity(&a, &b);
        assert!(
            sim.abs() < 0.25,
            "similarity {sim} too high for distinct tokens"
        );
    }

    #[test]
    fn same_token_identical_vector() {
        let a = token_vector(fnv1a64(b"silver"), 128);
        let b = token_vector(fnv1a64(b"silver"), 128);
        assert_eq!(a, b);
    }

    #[test]
    fn accumulate_respects_weight_and_zero() {
        let mut acc = vec![0.0f32; 64];
        accumulate_token(&mut acc, fnv1a64(b"tok"), 0.0);
        assert!(acc.iter().all(|&x| x == 0.0));
        accumulate_token(&mut acc, fnv1a64(b"tok"), 2.0);
        let doubled = l2_norm(&acc);
        assert!((doubled - 2.0).abs() < 1e-4);
    }

    /// `accumulate_token` by its definition, one lane at a time: lane `i`
    /// gets `±scale`, `+` when bit `i % 64` of draw `i / 64` is set.
    fn accumulate_by_definition(acc: &mut [f32], token_hash: u64, weight: f32) {
        if weight == 0.0 || acc.is_empty() {
            return;
        }
        let scale = weight / (acc.len() as f32).sqrt();
        let mut state = token_hash ^ 0xA076_1D64_78BD_642F;
        let draws: Vec<u64> = (0..acc.len().div_ceil(64))
            .map(|_| splitmix64(&mut state))
            .collect();
        for (i, lane) in acc.iter_mut().enumerate() {
            let sign = if (draws[i / 64] >> (i % 64)) & 1 == 1 {
                1.0
            } else {
                -1.0
            };
            *lane += sign * scale;
        }
    }

    #[test]
    fn the_table_kernel_equals_its_definition_bit_for_bit() {
        let tokens = [
            (fnv1a64(b"apple"), 1.0f32),
            (fnv1a64(b"#iph"), 0.35 / 7.0),
            (fnv1a64(b"wom14513028"), -0.5),
        ];
        for dim in [1, 3, 4, 63, 64, 65, 100, 384, 768] {
            let mut table = vec![0.0f32; dim];
            let mut reference = vec![0.0f32; dim];
            for &(hash, weight) in &tokens {
                accumulate_token(&mut table, hash, weight);
                accumulate_by_definition(&mut reference, hash, weight);
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&table), bits(&reference), "dim {dim}");
        }
    }

    #[test]
    fn fnv_continues_over_a_split_key() {
        let prefix = fnv1a64(b"#");
        for gram in ["iph", "aïv", "東京都", ""] {
            let mut key = b"#".to_vec();
            key.extend_from_slice(gram.as_bytes());
            assert_eq!(fnv1a64_extend(prefix, gram.as_bytes()), fnv1a64(&key));
        }
        assert_eq!(fnv1a64_extend(fnv1a64(b""), b"apple"), fnv1a64(b"apple"));
    }

    #[test]
    fn non_multiple_of_64_dims_fill_completely() {
        let v = token_vector(fnv1a64(b"tok"), 100);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|&x| x != 0.0));
    }
}
