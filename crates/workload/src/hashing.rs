//! Hash functions used by the workload generators.
//!
//! YCSB scrambles the zipfian distribution by hashing the zipfian rank with
//! FNV-1a so that the popular items are spread over the whole key space
//! instead of being clustered at the low ids. We reproduce the same
//! construction (64-bit FNV-1a over the little-endian bytes of the value).

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS_64: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME_64: u64 = 0x0000_0100_0000_01B3;

/// Hash a 64-bit value with FNV-1a (as YCSB's `Utils.fnvhash64` does).
#[inline]
pub fn fnv1a_64(value: u64) -> u64 {
    let mut hash = FNV_OFFSET_BASIS_64;
    let mut v = value;
    for _ in 0..8 {
        let octet = v & 0xff;
        v >>= 8;
        hash ^= octet;
        hash = hash.wrapping_mul(FNV_PRIME_64);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fnv_is_deterministic() {
        assert_eq!(fnv1a_64(12345), fnv1a_64(12345));
        assert_ne!(fnv1a_64(12345), fnv1a_64(12346));
    }

    #[test]
    fn fnv_spreads_small_integers() {
        let hashes: HashSet<u64> = (0..10_000u64).map(fnv1a_64).collect();
        assert_eq!(hashes.len(), 10_000, "no collisions on small dense input");
    }
}
