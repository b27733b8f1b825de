//! Stable hashing and pseudo-random token vectors.
//!
//! Tokens are mapped to fixed pseudo-random unit vectors without storing an
//! embedding table: the token's FNV-1a hash seeds a SplitMix64 stream, and
//! each 64-bit draw gives the signs of 64 consecutive dimensions (bit `i` of
//! draw `j` is the sign of lane `64 j + i`). Two different tokens therefore
//! receive (nearly) orthogonal vectors in expectation, while the same token
//! always receives the same vector — exactly the property needed for
//! overlap-based similarity.
//!
//! This is the hashing trick of Weinberger et al. ("Feature Hashing for
//! Large Scale Multitask Learning", ICML 2009) with signed ±1/√dim token
//! vectors: each output lane is a sum of `±weight / √dim` terms taken in
//! token order, and no lane reads another. [`accumulate_tokens`] therefore
//! computes it lane-major, a 64-lane block at a time over every token, and
//! gets the bits a token-at-a-time loop gets.

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

/// Lane signs of one 8-lane group, indexed by the group's eight sign bits:
/// `SIGNS8[bits][i]` is `1.0` when bit `i` of `bits` is set, else `-1.0`.
const SIGNS8: [[f32; 8]; 256] = {
    let mut table = [[-1.0f32; 8]; 256];
    let mut bits = 0;
    while bits < 256 {
        let mut lane = 0;
        while lane < 8 {
            if (bits >> lane) & 1 == 1 {
                table[bits][lane] = 1.0;
            }
            lane += 1;
        }
        bits += 1;
    }
    table
};

/// Draw `block` of a token's SplitMix64 stream, the signs of lanes
/// `64 block .. 64 block + 64`: SplitMix64's state after `n` steps is its
/// seed plus `n` times the increment, so any draw is reachable directly.
#[inline]
fn sign_draw(token_hash: u64, block: usize) -> u64 {
    let mut state = (token_hash ^ 0xA076_1D64_78BD_642F)
        .wrapping_add((block as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// Add `weight * v_token` to `acc` for every `(token_hash, weight)` of
/// `tokens`, in order, where `v_token` is the pseudo-random ±1/√dim unit
/// vector derived from `token_hash`: lane `i` gets `±weight / √dim`,
/// positive when bit `i % 64` of the token's `i / 64`-th SplitMix64 draw is
/// set. Zero-weight tokens add nothing. Nothing is allocated.
///
/// The loop is lane-major: it walks `acc` one 64-lane draw at a time, holds
/// those 64 lanes in eight 8-lane registers across every token, and adds
/// `SIGNS8[byte] * scale` for each byte of the token's draw. Every lane
/// still receives the same adds in the same order (token order, each
/// exactly `±1.0 * scale`) as one token at a time over the whole
/// accumulator would give it, so the result is bit for bit the per-lane
/// definition; only the order in which *different* lanes are visited
/// changed, and no lane's sum depends on another's. A dimension that is
/// not a multiple of 64 ends in a short block, lane by lane.
///
/// Token-major, the same arithmetic loaded and stored the whole accumulator
/// once per token (96 4-lane quads at 384 lanes): on a 2-core x86-64 VM, 66
/// tokens into 384 lanes (`embedding/accumulate_tokens`) took 10–12 µs that
/// way and take 3.9 µs lane-major. The signs are a table
/// because, spelled as a per-lane `if bit { 1.0 } else { -1.0 }`, LLVM's
/// vectorizer compiled the `benchmark` and `serve` binaries to a per-lane
/// variable-shift emulation (`psllq`, no `mulps`) 2–3x slower than the
/// table, while a root-workspace build of the same source chose the table.
/// It stays out of line on purpose: inlined into `encode`, its one
/// non-test caller, LLVM compiled the earlier token-major form to scalar
/// `mulss`/`addss` code.
#[inline(never)]
pub fn accumulate_tokens(acc: &mut [f32], tokens: &[(u64, f32)]) {
    let root = (acc.len() as f32).sqrt();
    let (blocks, tail) = acc.as_chunks_mut::<64>();
    for (b, block) in blocks.iter_mut().enumerate() {
        let mut lanes = *block;
        for &(hash, weight) in tokens {
            if weight == 0.0 {
                continue;
            }
            let scale = weight / root;
            let bits = sign_draw(hash, b);
            let (groups, _) = lanes.as_chunks_mut::<8>();
            for (g, group) in groups.iter_mut().enumerate() {
                let signs = &SIGNS8[(bits >> (8 * g)) as u8 as usize];
                for (lane, sign) in group.iter_mut().zip(signs) {
                    *lane += sign * scale;
                }
            }
        }
        *block = lanes;
    }
    if tail.is_empty() {
        return;
    }
    for &(hash, weight) in tokens {
        if weight == 0.0 {
            continue;
        }
        let scale = weight / root;
        let bits = sign_draw(hash, blocks.len());
        for (i, lane) in tail.iter_mut().enumerate() {
            *lane += SIGNS8[(bits >> (i / 8 * 8)) as u8 as usize][i % 8] * scale;
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
        accumulate_tokens(&mut v, &[(token_hash, 1.0)]);
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
        accumulate_tokens(&mut acc, &[(fnv1a64(b"tok"), 0.0)]);
        assert!(acc.iter().all(|&x| x == 0.0));
        accumulate_tokens(&mut acc, &[(fnv1a64(b"tok"), 2.0)]);
        let doubled = l2_norm(&acc);
        assert!((doubled - 2.0).abs() < 1e-4);
    }

    /// One token of `accumulate_tokens` by its definition, one lane at a
    /// time: lane `i` gets `±scale`, `+` when bit `i % 64` of draw `i / 64`
    /// is set.
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

    /// The lane-major kernel against the definition applied token after
    /// token over the whole accumulator: no token, one, three (one of them
    /// zero-weight, one negative), and 66 seeded tokens of mixed weights, a
    /// music row's count, whose sums round differently in any other order.
    #[test]
    fn the_table_kernel_equals_its_definition_bit_for_bit() {
        let mut state = 7u64;
        let seeded: Vec<(u64, f32)> = (0..66)
            .map(|_| {
                let hash = splitmix64(&mut state);
                let weight = (splitmix64(&mut state) >> 40) as f32 / (1u32 << 24) as f32 - 0.3;
                (hash, weight)
            })
            .collect();
        let lists: [&[(u64, f32)]; 4] = [
            &[],
            &[(fnv1a64(b"apple"), 1.0)],
            &[
                (fnv1a64(b"apple"), 1.0),
                (fnv1a64(b"#iph"), 0.0),
                (fnv1a64(b"wom14513028"), -0.5),
            ],
            &seeded,
        ];
        for tokens in lists {
            for dim in [1, 3, 4, 63, 64, 65, 100, 384, 768] {
                let mut table = vec![0.0f32; dim];
                let mut reference = vec![0.0f32; dim];
                accumulate_tokens(&mut table, tokens);
                for &(hash, weight) in tokens {
                    accumulate_by_definition(&mut reference, hash, weight);
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&table),
                    bits(&reference),
                    "{} tokens, dim {dim}",
                    tokens.len()
                );
            }
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
