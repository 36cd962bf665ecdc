//! Shot sampling from outcome distributions.
//!
//! Every shot is an exact inverse-CDF draw: one `rng.random::<f64>()`
//! value `r`, scaled to `u = r · total`, selects the first outcome whose
//! running sum exceeds `u`. Two kernels find that outcome without a
//! data-dependent search:
//!
//! - up to [`SMALL`] outcomes (subset circuits), the index is the
//!   branch-free count of CDF entries `<= u`, tallied per CDF entry in
//!   registers and turned into counts once after the last shot;
//! - above that (Global circuits), a guide table (Chen & Asau's indexed
//!   search) maps `floor(r · B)` for `B` power-of-two buckets to the
//!   first outcome that can hold the answer; one branch-free step and a
//!   rarely taken loop finish the draw.
//!
//! Both compute the same index as a binary search over the CDF, so the
//! counts for a given RNG stream do not depend on the kernel.

use rand::Rng;

/// Largest outcome count drawn by the branch-free CDF count; larger
/// distributions use the guide table.
const SMALL: usize = 8;

/// Guide-table buckets per outcome, before rounding the outcome count
/// up to a power of two.
const BUCKETS_PER_OUTCOME: usize = 4;

/// Draws `shots` samples from the distribution `probs` and returns a count
/// per outcome index.
///
/// The distribution is renormalized internally, so slightly unnormalized
/// inputs (e.g. probabilities that sum to `1 ± 1e-12` after floating-point
/// round-off) are fine.
///
/// Each shot consumes exactly one `rng.random::<f64>()` value `r` and
/// returns the first index whose cumulative sum is greater than
/// `r · total`, clamped to the last index with positive probability. A
/// zero-probability outcome is therefore never drawn. Distributions of at
/// most 8 outcomes are drawn by a branch-free count over the CDF, larger
/// ones through a guide table of `4 · next_pow2(len)` buckets; the kernel
/// choice never changes the counts.
///
/// # Panics
///
/// Panics if `probs` is empty, contains a non-finite or negative entry,
/// sums to zero, or sums past `f64::MAX`.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let counts = qsim::sample_counts(&[0.5, 0.5], 1000, &mut rng);
/// assert_eq!(counts.iter().sum::<u64>(), 1000);
/// assert!(counts[0] > 400 && counts[0] < 600);
/// ```
pub fn sample_counts<R: Rng + ?Sized>(probs: &[f64], shots: u64, rng: &mut R) -> Vec<u64> {
    let mut cdf = cumulative(probs);
    let total = cdf[cdf.len() - 1];
    let last = probs
        .iter()
        .rposition(|&p| p > 0.0)
        .expect("a positive total has a positive entry");
    let mut counts = vec![0u64; probs.len()];
    if probs.len() <= SMALL {
        // Entries past the distribution are never `<= u`.
        let mut padded = [f64::INFINITY; SMALL];
        padded[..cdf.len()].copy_from_slice(&cdf);
        // `at_least[j]` counts the shots whose draw passed CDF entry `j`.
        // The CDF is nondecreasing, so a shot passes exactly its first
        // `i` entries when it draws index `i`, and the shots drawing `i`
        // number `at_least[i - 1] - at_least[i]` (with `shots` before
        // index 0 and zero past the end). The counters stay in
        // registers, so the shot loop stores nothing to memory.
        let mut at_least = [0u64; SMALL];
        for _ in 0..shots {
            let u = rng.random::<f64>() * total;
            for (n, &c) in at_least.iter_mut().zip(&padded) {
                *n += u64::from(c <= u);
            }
        }
        let mut above = shots;
        for i in 0..=probs.len() {
            let here = at_least.get(i).copied().unwrap_or(0);
            counts[i.min(last)] += above - here;
            above = here;
        }
    } else {
        // The sentinel stops both scans below at `probs.len()`.
        cdf.push(f64::INFINITY);
        let guide = guide_table(&cdf, total);
        let scale = guide.len() as f64;
        for _ in 0..shots {
            let r = rng.random::<f64>();
            let u = r * total;
            // `r · scale` is exact, so the bucket `j` satisfies
            // `j / scale <= r` and its start never passes the answer.
            let mut i = guide[(r * scale) as usize] as usize;
            i += usize::from(cdf[i] <= u);
            while cdf[i] <= u {
                i += 1;
            }
            counts[i.min(last)] += 1;
        }
    }
    counts
}

/// Running sums of `probs`, with room for one more entry.
fn cumulative(probs: &[f64]) -> Vec<f64> {
    assert!(
        !probs.is_empty(),
        "cannot sample from an empty distribution"
    );
    let mut cdf = Vec::with_capacity(probs.len() + 1);
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        assert!(p.is_finite(), "non-finite probability {p} at index {i}");
        assert!(p >= 0.0, "negative probability {p} at index {i}");
        acc += p;
        cdf.push(acc);
    }
    assert!(acc.is_finite(), "distribution sum overflows f64");
    assert!(acc > 0.0, "distribution sums to zero");
    cdf
}

/// For each of `4 · next_pow2(n)` buckets `j`, the number of CDF entries
/// `<= (j / buckets) · total`: the first index a draw with
/// `floor(r · buckets) == j` can return. `cdf` ends in an infinite
/// sentinel.
fn guide_table(cdf: &[f64], total: f64) -> Vec<u32> {
    let n = cdf.len() - 1;
    let buckets = (BUCKETS_PER_OUTCOME * n).next_power_of_two();
    // Exact: `buckets` is a power of two.
    let width = (buckets as f64).recip();
    let mut i = 0;
    (0..buckets)
        .map(|j| {
            let t = (j as f64 * width) * total;
            while cdf[i] <= t {
                i += 1;
            }
            u32::try_from(i).expect("outcome count fits in u32")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// An RNG that returns the same 64 bits forever.
    struct Constant(u64);

    impl RngCore for Constant {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn deterministic_distribution_always_hits_the_point_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        let counts = sample_counts(&[0.0, 1.0, 0.0], 100, &mut rng);
        assert_eq!(counts, vec![0, 100, 0]);
    }

    #[test]
    fn counts_sum_to_shots() {
        let mut rng = StdRng::seed_from_u64(2);
        let counts = sample_counts(&[0.1, 0.2, 0.3, 0.4], 2048, &mut rng);
        assert_eq!(counts.iter().sum::<u64>(), 2048);
    }

    #[test]
    fn empirical_frequencies_track_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        let probs = [0.7, 0.2, 0.1];
        let shots = 100_000;
        let counts = sample_counts(&probs, shots, &mut rng);
        for (c, p) in counts.iter().zip(probs) {
            let freq = *c as f64 / shots as f64;
            assert!((freq - p).abs() < 0.01, "freq {freq} vs p {p}");
        }
    }

    #[test]
    fn unnormalized_inputs_are_rescaled() {
        let mut rng = StdRng::seed_from_u64(4);
        let counts = sample_counts(&[2.0, 2.0], 1000, &mut rng);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert!(counts[0] > 400);
    }

    #[test]
    fn same_seed_reproduces_samples() {
        let probs = [0.25, 0.25, 0.5];
        let a = sample_counts(&probs, 500, &mut StdRng::seed_from_u64(9));
        let b = sample_counts(&probs, 500, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn boundary_draws_skip_zero_probability_outcomes() {
        // (distribution, raw RNG bits, the one outcome drawn). `r = 0` and
        // `r = 1/2` put `u` exactly on a CDF entry that zero-probability
        // outcomes share; the largest `r` sits just below trailing zeros.
        let with = |n: usize, masses: &[(usize, f64)]| {
            let mut probs = vec![0.0; n];
            for &(i, p) in masses {
                probs[i] = p;
            }
            probs
        };
        let cases = [
            (with(2, &[(1, 1.0)]), 0, 1),
            (with(3, &[(2, 1.0)]), 0, 2),
            (with(16, &[(15, 1.0)]), 0, 15),
            (with(4, &[(0, 0.5), (3, 0.5)]), 1 << 63, 3),
            (with(16, &[(0, 0.5), (15, 0.5)]), 1 << 63, 15),
            (with(3, &[(0, 0.25), (1, 0.75)]), u64::MAX, 1),
            (with(12, &[(0, 0.25), (1, 0.75)]), u64::MAX, 1),
        ];
        for (probs, bits, hit) in cases {
            let mut expect = vec![0; probs.len()];
            expect[hit] = 3;
            let counts = sample_counts(&probs, 3, &mut Constant(bits));
            assert_eq!(counts, expect, "{probs:?} at bits {bits:#x}");
        }
    }

    #[test]
    fn guide_table_starts_never_pass_the_answer() {
        let probs: Vec<f64> = (0..40).map(|i| f64::from(i % 7)).collect();
        let mut cdf = cumulative(&probs);
        let total = cdf[cdf.len() - 1];
        cdf.push(f64::INFINITY);
        let guide = guide_table(&cdf, total);
        assert_eq!(guide.len(), 256);
        let scale = guide.len() as f64;
        for (j, &start) in guide.iter().enumerate() {
            let u = (j as f64 / scale) * total;
            assert_eq!(start as usize, cdf.partition_point(|&c| c <= u), "{j}");
        }
    }

    #[test]
    #[should_panic(expected = "negative probability")]
    fn negative_probability_panics() {
        sample_counts(&[0.5, -0.5], 1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "non-finite probability inf at index 0")]
    fn infinite_probability_panics() {
        sample_counts(&[f64::INFINITY, 1.0], 1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "non-finite probability NaN at index 1")]
    fn nan_probability_panics() {
        sample_counts(&[0.5, f64::NAN], 1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "sum overflows")]
    fn overflowing_sum_panics() {
        sample_counts(&[f64::MAX, f64::MAX], 1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "sums to zero")]
    fn zero_distribution_panics() {
        sample_counts(&[0.0, 0.0], 1, &mut StdRng::seed_from_u64(0));
    }
}
