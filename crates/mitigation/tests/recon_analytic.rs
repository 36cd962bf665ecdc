//! Analytic references for Bayesian reconstruction.
//!
//! `recon_equiv.rs` proves the engine's tiers agree with each other and
//! with a textbook implementation of the same update. The cases here
//! check the shared answer against distributions known in closed form,
//! computed without `Pmf::marginal` or the engine:
//!
//! - a product-state Global whose Locals are the exact marginals of a
//!   different product state reconstructs to that product state;
//! - Locals equal to an already-consistent Global's own marginals leave
//!   it fixed, over any number of rounds.
//!
//! (`rounds: 0` as the identity is covered by the unit test
//! `zero_rounds_returns_prior_unchanged`.)

use mitigation::{reconstruct, Parallelism, Pmf, ReconstructionConfig, Reconstructor};

/// Agreement bound for closed-form answers: each update rounds a handful
/// of times per outcome, so results sit within a few ulps of the exact
/// value.
const TOL: f64 = 1e-14;

/// The product distribution over `qubits` where qubit `qubits[j]` reads 1
/// with probability `ones[j]`; bit `j` of an outcome is `qubits[j]`.
fn product(qubits: &[usize], ones: &[f64]) -> Pmf {
    let probs = (0..1usize << qubits.len())
        .map(|x| {
            ones.iter()
                .enumerate()
                .map(|(j, &p1)| if (x >> j) & 1 == 1 { p1 } else { 1.0 - p1 })
                .product()
        })
        .collect();
    Pmf::new(qubits.to_vec(), probs)
}

/// The marginal of `pmf` on `sub`, summed outcome by outcome from the
/// bit positions (independent of `Pmf::marginal`).
fn direct_marginal(pmf: &Pmf, sub: &[usize]) -> Pmf {
    let mut probs = vec![0.0; 1 << sub.len()];
    for (x, &p) in pmf.probs().iter().enumerate() {
        let mut key = 0;
        for (j, q) in sub.iter().enumerate() {
            let pos = pmf.qubits().iter().position(|g| g == q).unwrap();
            key |= ((x >> pos) & 1) << j;
        }
        probs[key] += p;
    }
    Pmf::new(sub.to_vec(), probs)
}

fn max_abs_diff(a: &Pmf, b: &Pmf) -> f64 {
    assert_eq!(a.qubits(), b.qubits());
    a.probs()
        .iter()
        .zip(b.probs())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Every dispatch mode the engine offers, for cases small enough to run
/// on all of them.
fn engines() -> Vec<Reconstructor> {
    vec![
        Reconstructor::new(),
        Reconstructor::new().with_parallelism(Parallelism::Serial),
        Reconstructor::new().with_parallelism(Parallelism::Threads(3)),
    ]
}

/// A product prior updated by exact window marginals of a product truth:
/// the first window replaces its factors with the truth's, and each later
/// window's marginal then factors as (truth on the overlap) × (prior on
/// the rest), so its ratio replaces only the new factors. After one
/// sweep over overlapping pair windows the output is the truth.
#[test]
fn product_global_with_exact_locals_reconstructs_the_truth() {
    // Non-contiguous, unsorted labels exercise the projection keys.
    let qubits = [3, 0, 5, 1, 4];
    let truth = product(&qubits, &[0.1, 0.7, 0.35, 0.9, 0.5]);
    let noisy = product(&qubits, &[0.3, 0.6, 0.45, 0.75, 0.4]);
    let windows: Vec<Vec<usize>> = qubits.windows(2).map(<[usize]>::to_vec).collect();
    let locals: Vec<Pmf> = windows.iter().map(|w| direct_marginal(&truth, w)).collect();
    for rounds in [1, 2, 5] {
        let config = ReconstructionConfig {
            epsilon: 1e-9,
            rounds,
        };
        for mut engine in engines() {
            let out = engine.reconstruct(&noisy, &locals, config);
            let err = max_abs_diff(&out, &truth);
            assert!(err < TOL, "rounds {rounds}: max error {err:e}");
        }
    }
}

/// Disjoint windows that tile the register: each update is independent,
/// so a product prior becomes exactly the product of the locals, even
/// when the locals are themselves correlated within their window.
#[test]
fn disjoint_exact_locals_replace_their_window_factors() {
    let noisy = product(&[0, 1, 2, 3], &[0.2, 0.8, 0.6, 0.3]);
    let a = Pmf::new(vec![0, 1], vec![0.5, 0.1, 0.1, 0.3]);
    let b = Pmf::new(vec![2, 3], vec![0.05, 0.45, 0.35, 0.15]);
    let out = reconstruct(
        &noisy,
        &[a.clone(), b.clone()],
        ReconstructionConfig::default(),
    );
    let expected: Vec<f64> = (0..16)
        .map(|x: usize| a.prob(x & 0b11) * b.prob(x >> 2))
        .collect();
    let expected = Pmf::new(vec![0, 1, 2, 3], expected);
    let err = max_abs_diff(&out, &expected);
    assert!(err < TOL, "max error {err:e}");
}

/// A correlated Global whose Locals are its own exact marginals is a
/// fixed point of every update: every ratio is 1 up to rounding, so the
/// output stays within a few ulps of the input however many rounds run.
#[test]
fn consistent_global_with_noiseless_locals_stays_fixed() {
    let n = 6;
    let probs: Vec<f64> = (0..1usize << n)
        .map(|x| {
            // Even-parity outcomes weigh 3x: correlated across all qubits.
            let parity = if x.count_ones() % 2 == 0 { 3.0 } else { 1.0 };
            ((x * 37 + 11) % 23 + 1) as f64 * parity
        })
        .collect();
    let global = Pmf::new((0..n).collect(), probs);
    for window in [1, 2, 3] {
        let locals: Vec<Pmf> = (0..=n - window)
            .map(|s| direct_marginal(&global, &(s..s + window).collect::<Vec<_>>()))
            .collect();
        for rounds in [1, 4] {
            let config = ReconstructionConfig {
                epsilon: 1e-9,
                rounds,
            };
            for mut engine in engines() {
                let out = engine.reconstruct(&global, &locals, config);
                let err = max_abs_diff(&out, &global);
                assert!(
                    err < TOL,
                    "window {window}, rounds {rounds}: max error {err:e}"
                );
            }
        }
    }
}
