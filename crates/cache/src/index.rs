//! Set-index functions.
//!
//! The baseline uses modulo (bit-select) indexing. TCOR's Attribute Cache
//! uses an **XOR-based indexing function** (González et al. \[12\]) to
//! load-balance sets: primitive identifiers arriving in bursts with
//! power-of-two strides would otherwise pile onto a few sets
//! (the pathology §III.B describes for the baseline PB-Lists layout).

/// How a block address maps to a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Indexing {
    /// `set = addr mod num_sets` — conventional bit selection.
    #[default]
    Modulo,
    /// XOR-fold of the address above the index bits into the index
    /// (a polynomial/XOR placement in the spirit of \[12\], \[36\]).
    Xor,
}

impl Indexing {
    /// Maps `addr` (a block number or any stable line key) to a set index
    /// in `0..num_sets`.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0`.
    pub fn set_of(self, addr: u64, num_sets: u64) -> u64 {
        assert!(num_sets > 0, "cache must have at least one set");
        if num_sets == 1 {
            return 0;
        }
        match self {
            // Every set count in Table I is a power of two: select the
            // low bits without a division.
            Indexing::Modulo if num_sets.is_power_of_two() => addr & (num_sets - 1),
            Indexing::Modulo => addr % num_sets,
            Indexing::Xor => {
                if num_sets.is_power_of_two() {
                    let bits = num_sets.trailing_zeros();
                    let mut acc = 0u64;
                    let mut rest = addr;
                    // Fold successive index-sized chunks of the address
                    // into the set index.
                    while rest != 0 {
                        acc ^= rest & (num_sets - 1);
                        rest >>= bits;
                    }
                    acc
                } else {
                    // Non-power-of-two set counts: scramble, then reduce.
                    let mixed = splitmix64(addr);
                    mixed % num_sets
                }
            }
        }
    }
}

/// The 64-bit finalizer of SplitMix64 — a cheap full-avalanche scrambler.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulo_is_modulo() {
        assert_eq!(Indexing::Modulo.set_of(13, 8), 5);
        assert_eq!(Indexing::Modulo.set_of(16, 8), 0);
    }

    #[test]
    fn modulo_mask_equals_remainder_for_every_power_of_two() {
        let mut rng = tcor_common::SmallRng::seed_from_u64(0x5E75);
        for bits in 0..=16 {
            let num_sets = 1u64 << bits;
            let edges = [0, 1, num_sets - 1, num_sets, num_sets + 1, u64::MAX];
            let sampled = (0..2_000).map(|_| rng.next_u64());
            for addr in edges.into_iter().chain(sampled) {
                assert_eq!(
                    Indexing::Modulo.set_of(addr, num_sets),
                    addr % num_sets,
                    "addr {addr}, {num_sets} sets"
                );
            }
        }
    }

    #[test]
    fn single_set_always_zero() {
        for addr in [0u64, 7, 12345] {
            assert_eq!(Indexing::Modulo.set_of(addr, 1), 0);
            assert_eq!(Indexing::Xor.set_of(addr, 1), 0);
        }
    }

    #[test]
    fn xor_stays_in_range() {
        for addr in 0..10_000u64 {
            let s = Indexing::Xor.set_of(addr * 977, 64);
            assert!(s < 64);
        }
        for addr in 0..1000u64 {
            let s = Indexing::Xor.set_of(addr, 48); // non-power-of-two
            assert!(s < 48);
        }
    }

    #[test]
    fn xor_breaks_power_of_two_strides() {
        // Addresses strided by num_sets map to a single set under modulo
        // but spread under XOR — the exact conflict pathology of the
        // baseline PB-Lists layout (stride 64 blocks per tile list).
        let num_sets = 64u64;
        let stride = 64u64;
        let modulo_sets: std::collections::HashSet<u64> = (0..256)
            .map(|i| Indexing::Modulo.set_of(i * stride, num_sets))
            .collect();
        let xor_sets: std::collections::HashSet<u64> = (0..256)
            .map(|i| Indexing::Xor.set_of(i * stride, num_sets))
            .collect();
        assert_eq!(modulo_sets.len(), 1);
        assert!(xor_sets.len() > 16, "xor spread only {}", xor_sets.len());
    }

    #[test]
    fn xor_is_deterministic() {
        for addr in [3u64, 999, 1 << 40] {
            assert_eq!(
                Indexing::Xor.set_of(addr, 32),
                Indexing::Xor.set_of(addr, 32)
            );
        }
    }
}
