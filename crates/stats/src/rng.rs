//! Deterministic RNG derivation.
//!
//! Every stochastic component of the study derives its own ChaCha stream from
//! the scenario seed plus a component label, so adding or reordering one
//! component never perturbs another's random draws — the whole campaign is
//! reproducible bit-for-bit from a single `u64` seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// RNG type used throughout the study.
pub type StudyRng = ChaCha8Rng;

/// Derives an independent RNG stream from `(seed, label)`.
///
/// Uses an FNV-1a hash of the label mixed into the seed material so distinct
/// labels give statistically independent streams.
pub fn derive_rng(seed: u64, label: &str) -> StudyRng {
    derive_rng_fmt(seed, format_args!("{label}"))
}

/// [`derive_rng`] over a label given as format arguments: the label bytes
/// are hashed as they are formatted, so hot paths derive per-item streams
/// without building a `String`.
/// `derive_rng_fmt(seed, format_args!("{a}:{b}"))` is the same stream as
/// `derive_rng(seed, &format!("{a}:{b}"))`.
pub fn derive_rng_fmt(seed: u64, label: fmt::Arguments<'_>) -> StudyRng {
    ipv6web_obs::inc("stats.rng_derivations");
    let mut fnv = Fnv1a(0xcbf29ce484222325);
    // hashing never fails; a `Display` impl that errors would make
    // `format!` panic, here it only ends the label early
    let _ = fmt::write(&mut fnv, label);
    let h = fnv.0;
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..16].copy_from_slice(&h.to_le_bytes());
    key[16..24].copy_from_slice(&seed.rotate_left(32).to_le_bytes());
    key[24..32].copy_from_slice(&h.rotate_left(17).to_le_bytes());
    ChaCha8Rng::from_seed(key)
}

/// FNV-1a over the label bytes, fed as they are formatted.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

/// Draws from a log-normal distribution parameterized by the *median* and the
/// multiplicative spread `sigma` (std-dev of the underlying normal).
///
/// Web page download speeds, link delays, and page sizes are all heavy-tailed;
/// log-normal keeps them positive with a realistic tail.
pub fn lognormal<R: Rng>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    debug_assert!(median > 0.0, "median must be positive");
    // Box–Muller from two uniforms.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// Bernoulli draw with probability `p` (clamped to `[0,1]`).
pub fn coin<R: Rng>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    #[test]
    fn same_seed_label_reproduces() {
        let mut a = derive_rng(42, "topology");
        let mut b = derive_rng(42, "topology");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = derive_rng(42, "topology");
        let mut b = derive_rng(42, "dns");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams must be independent");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = derive_rng(1, "x");
        let mut b = derive_rng(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn lognormal_positive_and_centered() {
        let mut rng = derive_rng(7, "ln");
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| lognormal(&mut rng, 100.0, 0.5)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[n / 2];
        assert!((median - 100.0).abs() < 5.0, "median {median}");
    }

    #[test]
    fn coin_respects_probability() {
        let mut rng = derive_rng(9, "coin");
        let hits = (0..10_000).filter(|_| coin(&mut rng, 0.3)).count();
        assert!((2700..3300).contains(&hits), "hits {hits}");
        assert!(!coin(&mut rng, 0.0));
        assert!(coin(&mut rng, 1.0));
    }

    #[test]
    fn coin_clamps_out_of_range() {
        let mut rng = derive_rng(9, "coin2");
        assert!(coin(&mut rng, 2.0));
        assert!(!coin(&mut rng, -1.0));
    }

    /// The byte-loop derivation the streamed hash replaced, kept as the
    /// reference every derived stream must reproduce bit for bit.
    fn reference_rng(seed: u64, label: &str) -> StudyRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..16].copy_from_slice(&h.to_le_bytes());
        key[16..24].copy_from_slice(&seed.rotate_left(32).to_le_bytes());
        key[24..32].copy_from_slice(&h.rotate_left(17).to_le_bytes());
        ChaCha8Rng::from_seed(key)
    }

    #[test]
    fn streamed_label_matches_formatted_label() {
        let mut a = derive_rng_fmt(42, format_args!("{}:probe:{}:{}:{}", "Penn", 3, 0, 17));
        let mut b = derive_rng(42, "Penn:probe:3:0:17");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut empty = derive_rng_fmt(7, format_args!(""));
        assert_eq!(empty.next_u64(), derive_rng(7, "").next_u64());
    }

    proptest! {
        #[test]
        fn streamed_derivation_equals_format_derivation(
            seed in any::<u64>(),
            vantage in "\\PC{0,24}",
            week in any::<u32>(),
            salt in any::<u32>(),
            site in any::<u32>(),
        ) {
            // the per-probe label, with arbitrary (non-ASCII too) vantage names
            let mut streamed =
                derive_rng_fmt(seed, format_args!("{vantage}:probe:{week}:{salt}:{site}"));
            let label = format!("{vantage}:probe:{week}:{salt}:{site}");
            let mut formatted = derive_rng(seed, &label);
            let mut reference = reference_rng(seed, &label);
            for _ in 0..4 {
                let want = reference.next_u64();
                prop_assert_eq!(streamed.next_u64(), want);
                prop_assert_eq!(formatted.next_u64(), want);
            }
        }

        #[test]
        fn streamed_derivation_equals_format_derivation_with_debug_args(
            seed in any::<u64>(),
            vantage in "\\PC{0,24}",
            v6 in any::<bool>(),
            attempt in any::<u32>(),
        ) {
            // fault labels mix `Display` and `Debug` arguments
            let family = if v6 { Some("V6") } else { None };
            let mut streamed =
                derive_rng_fmt(seed, format_args!("fault:{vantage}:{family:?}:{attempt}"));
            let label = format!("fault:{vantage}:{family:?}:{attempt}");
            let mut reference = reference_rng(seed, &label);
            prop_assert_eq!(streamed.next_u64(), reference.next_u64());
        }
    }
}
