//! Independent references for `qsim::sample_counts`.
//!
//! - A property test replays the sampler's RNG stream through a plain
//!   `partition_point` inverse-CDF draw and demands identical counts.
//! - A G-test checks the counts against the input distribution at pinned
//!   seeds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference draw: per shot, the first index whose running sum is
/// greater than `random::<f64>() · total`, clamped to the last index with
/// positive probability.
fn reference_counts(probs: &[f64], shots: u64, rng: &mut StdRng) -> Vec<u64> {
    let cdf: Vec<f64> = probs
        .iter()
        .scan(0.0, |acc, &p| {
            *acc += p;
            Some(*acc)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    let last = probs.iter().rposition(|&p| p > 0.0).unwrap();
    let mut counts = vec![0u64; probs.len()];
    for _ in 0..shots {
        let u = rng.random::<f64>() * total;
        counts[cdf.partition_point(|&c| c <= u).min(last)] += 1;
    }
    counts
}

/// A distribution of `len` outcomes with a positive total, built from
/// `seed` in one of five shapes: dense, zero runs, a point mass, masses of
/// `1e-300` beside ordinary ones, and a staircase with many equal CDF
/// steps. The weights are then scaled by `10^exp`, so totals are
/// unnormalized.
fn distribution(len: usize, shape: u8, exp: i32, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probs: Vec<f64> = match shape {
        0 => (0..len).map(|_| rng.random::<f64>()).collect(),
        1 => {
            let mut zero = false;
            (0..len)
                .map(|_| {
                    if rng.random_bool(0.3) {
                        zero = !zero;
                    }
                    if zero {
                        0.0
                    } else {
                        rng.random::<f64>()
                    }
                })
                .collect()
        }
        2 => {
            let mut p = vec![0.0; len];
            p[rng.random_range(0..len)] = 1.0;
            p
        }
        3 => (0..len)
            .map(|_| match rng.random_range(0..3) {
                0 => 1e-300,
                1 => 0.0,
                _ => rng.random::<f64>(),
            })
            .collect(),
        _ => (0..len).map(|i| [0.0, 0.25, 0.5][i % 3]).collect(),
    };
    if probs.iter().all(|&p| p == 0.0) {
        probs[len - 1] = 1.0;
    }
    let scale = 10f64.powi(exp);
    probs.iter_mut().for_each(|p| *p *= scale);
    probs
}

proptest! {
    /// Same RNG stream, same counts as the reference draw, on 1- to
    /// 12-bit distributions (and lengths in between) of every shape, so
    /// both kernels are covered on either side of the 8-outcome switch.
    #[test]
    fn counts_match_the_reference_draw(
        bits in 0u32..13,
        pow2 in 0u8..2,
        shape in 0u8..5,
        exp in -3i32..4,
        shots in 1u64..3000,
        seed in 0u64..1_000_000,
    ) {
        let len = if pow2 == 1 {
            1usize << bits
        } else {
            StdRng::seed_from_u64(seed ^ 0x5eed).random_range(1..=(1usize << bits))
        };
        let probs = distribution(len, shape, exp, seed);
        let got = qsim::sample_counts(&probs, shots, &mut StdRng::seed_from_u64(seed));
        let want = reference_counts(&probs, shots, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(got.iter().sum::<u64>(), shots);
        for (i, (&c, &p)) in got.iter().zip(&probs).enumerate() {
            prop_assert!(c == 0 || p > 0.0, "zero-probability outcome {} drawn", i);
        }
        prop_assert_eq!(got, want, "len {} shape {}", len, shape);
    }
}

/// Upper `alpha = 1e-6` quantile of the chi-square distribution with `df`
/// degrees of freedom, by the Wilson–Hilferty approximation. For every
/// `df` from 1 to 4095 its exact tail mass lies between 1.5e-7 (at
/// `df = 1`) and 1e-6, so the threshold errs on the side of passing.
fn chi2_critical(df: usize) -> f64 {
    const Z: f64 = 4.753_424_308_822_899; // standard normal, upper 1e-6
    let df = df as f64;
    let h = 2.0 / (9.0 * df);
    df * (1.0 - h + Z * h.sqrt()).powi(3)
}

/// The G statistic `2 Σ O ln(O / E)` of `counts` against `probs`, and its
/// degrees of freedom. Outcomes expecting fewer than 5 shots are pooled
/// into one bin so the chi-square approximation holds.
fn g_statistic(probs: &[f64], counts: &[u64]) -> (f64, usize) {
    let total: f64 = probs.iter().sum();
    let shots = counts.iter().sum::<u64>() as f64;
    let mut bins = Vec::new();
    let (mut pooled_obs, mut pooled_exp) = (0.0, 0.0);
    for (&p, &c) in probs.iter().zip(counts) {
        let expected = shots * p / total;
        if expected < 5.0 {
            pooled_obs += c as f64;
            pooled_exp += expected;
        } else {
            bins.push((c as f64, expected));
        }
    }
    if pooled_exp > 0.0 || pooled_obs > 0.0 {
        bins.push((pooled_obs, pooled_exp));
    }
    let g = 2.0
        * bins
            .iter()
            .filter(|&&(o, _)| o > 0.0)
            .map(|&(o, e)| o * (o / e).ln())
            .sum::<f64>();
    (g, bins.len() - 1)
}

/// Distributions of 4 to 4096 outcomes for the goodness-of-fit oracle:
/// a skewed 4, an 8 with zeros, a geometric 64, a 256 with zero runs and
/// `1e-300` masses, and a dense 4096.
fn fit_cases() -> Vec<Vec<f64>> {
    vec![
        vec![0.1, 0.2, 0.3, 0.4],
        vec![0.0, 0.3, 0.0, 0.05, 0.15, 0.0, 0.5, 0.0],
        (0..64).map(|i| 0.9f64.powi(i)).collect(),
        distribution(256, 3, 0, 11),
        distribution(4096, 0, 2, 12),
    ]
}

/// The oracle. Each of the 15 (distribution, seed) checks would fail for
/// a correct sampler with probability at most 1e-6 at a fresh seed, so
/// the suite's false-alarm rate is below 1.5e-5; at these pinned seeds it
/// is deterministic.
#[test]
fn counts_fit_their_distribution() {
    const SHOTS: u64 = 100_000;
    for (case, probs) in fit_cases().iter().enumerate() {
        for seed in [1u64, 2, 3] {
            let counts = qsim::sample_counts(probs, SHOTS, &mut StdRng::seed_from_u64(seed));
            let (g, df) = g_statistic(probs, &counts);
            assert!(df > 0, "case {case} has a single bin");
            let critical = chi2_critical(df);
            assert!(
                g < critical,
                "case {case} seed {seed}: G = {g:.1} >= {critical:.1} (df {df})"
            );
        }
    }
}

/// The oracle has power: on the 4-, 8- and 64-outcome cases, which
/// cover both kernels, a sampler that moved 5% of the mass off the most
/// likely outcome onto the next one fails it at every seed.
#[test]
fn goodness_of_fit_rejects_a_shifted_distribution() {
    const SHOTS: u64 = 100_000;
    for probs in fit_cases().into_iter().take(3) {
        let total: f64 = probs.iter().sum();
        let from = (0..probs.len())
            .max_by(|&a, &b| probs[a].total_cmp(&probs[b]))
            .unwrap();
        let mut shifted = probs.clone();
        shifted[from] -= 0.05 * total;
        shifted[(from + 1) % probs.len()] += 0.05 * total;
        for seed in [1u64, 2, 3] {
            let counts = qsim::sample_counts(&shifted, SHOTS, &mut StdRng::seed_from_u64(seed));
            let (g, df) = g_statistic(&probs, &counts);
            assert!(
                g >= chi2_critical(df),
                "shift from {from} undetected at seed {seed}"
            );
        }
    }
}
