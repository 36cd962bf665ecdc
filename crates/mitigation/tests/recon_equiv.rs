//! Property test: the `Reconstructor` engine is bit-identical to a
//! textbook sequential Bayesian reconstruction — serial, key-cached, and
//! threaded (mirroring `qsim/tests/parallel_equiv.rs`).
//!
//! The engine's chunk grid is a pure function of the problem shape, so
//! worker count can only change *which thread* computes a partial, never
//! the arithmetic: serial and threaded sweeps must match **exactly**
//! (`==` on `f64`, not within a tolerance) for every input, qubit count
//! 2–10, window size, round count, and thread count 1–8. Up to 12 qubits
//! a global fits in a single chunk, where the kernel additionally matches
//! the naive sequential reference bit for bit; the 13/14-qubit
//! multi-chunk cases re-associate the marginal reduction, so they are
//! compared within floating-point tolerance against the reference and
//! pinned bit for bit by an output checksum instead.

use mitigation::{reconstruct, Parallelism, Pmf, ReconstructionConfig, Reconstructor};
use proptest::prelude::*;

/// Textbook sequential reconstruction with the documented semantics:
/// per-outcome marginal accumulation, Bayes conditioned on the prior's
/// support (unsupported window outcomes keep their mass exactly), skip of
/// fully incompatible updates, and `Pmf::normalize`-style normalization.
fn naive_reconstruct(global: &Pmf, locals: &[Pmf], config: ReconstructionConfig) -> Pmf {
    let mut out = global.clone();
    for _ in 0..config.rounds {
        for local in locals {
            let positions = out.projection_positions(local.qubits());
            let key = |x: usize| -> usize {
                positions
                    .iter()
                    .enumerate()
                    .map(|(j, &pos)| ((x >> pos) & 1) << j)
                    .sum()
            };
            let k = local.probs().len();
            let mut marg = vec![0.0; k];
            for (x, &p) in out.probs().iter().enumerate() {
                marg[key(x)] += p;
            }
            let mut unsupported = 0.0;
            let mut supported_evidence = 0.0;
            for j in 0..k {
                if marg[j] > config.epsilon {
                    supported_evidence += local.prob(j);
                } else {
                    unsupported += marg[j];
                }
            }
            if supported_evidence <= 0.0 {
                continue;
            }
            let scale = (1.0 - unsupported) / supported_evidence;
            let ratio: Vec<f64> = (0..k)
                .map(|j| {
                    if marg[j] > config.epsilon {
                        local.prob(j) * scale / marg[j]
                    } else {
                        1.0
                    }
                })
                .collect();
            let probs = out.probs_mut();
            let mut total = 0.0;
            for (x, p) in probs.iter_mut().enumerate() {
                *p *= ratio[key(x)];
                total += *p;
            }
            if (total - 1.0).abs() > 1e-15 {
                for p in probs.iter_mut() {
                    *p /= total;
                }
            }
        }
    }
    out
}

/// Weights in `[0, 1)` with a sprinkling of exact zeros (from the mask),
/// so the support guard is exercised; at least one cell stays positive.
fn arb_weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec(0.0..1.0f64, n),
        prop::collection::vec(0.0..1.0f64, n),
    )
        .prop_map(|(mut w, mask)| {
            for (x, m) in mask.into_iter().enumerate() {
                if m < 0.5 {
                    w[x] = 0.0;
                }
            }
            if w.iter().sum::<f64>() <= 0.0 {
                w[0] = 0.5;
            }
            w
        })
}

/// FNV-1a over the bit patterns of `probs`: pins multi-chunk outputs,
/// where the naive reference agrees only within tolerance.
fn checksum(probs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in probs {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The sliding window subsets `[s, s+window)` of `0..n`.
fn window_subsets(n: usize, window: usize) -> Vec<Vec<usize>> {
    let m = window.min(n);
    (0..=n - m).map(|s| (s..s + m).collect()).collect()
}

proptest! {
    /// Serial `Reconstructor` output reproduces the naive reference bit
    /// for bit, and threaded/prekeyed runs reproduce the serial run bit
    /// for bit, across qubit counts 2–10, window sizes 1–3, round counts
    /// 0–3, and thread counts 1–8.
    #[test]
    fn reconstructor_is_bit_identical(
        n in 2usize..=10,
        window in 1usize..=3,
        rounds in 0usize..=3,
        threads in 1usize..=8,
        global_seed in prop::collection::vec(0.01..1.0f64, 1 << 10),
        local_seed in prop::collection::vec(0.01..1.0f64, 1 << 3),
    ) {
        let dim = 1usize << n;
        let global = Pmf::new((0..n).collect(), global_seed[..dim].to_vec());
        let m = window.min(n);
        let locals: Vec<Pmf> = window_subsets(n, window)
            .into_iter()
            .enumerate()
            .map(|(i, sub)| {
                let k = 1usize << m;
                // Rotate the seed so windows carry distinct evidence.
                let probs: Vec<f64> = (0..k).map(|j| local_seed[(i + j) % 8]).collect();
                Pmf::new(sub, probs)
            })
            .collect();
        let config = ReconstructionConfig { epsilon: 1e-9, rounds };

        let reference = naive_reconstruct(&global, &locals, config);
        let mut engine = Reconstructor::new().with_parallelism(Parallelism::Serial);
        let serial = engine.reconstruct(&global, &locals, config);
        prop_assert_eq!(reference.probs(), serial.probs(), "naive vs serial");

        // Prekeyed: the second run hits the key cache.
        let prekeyed = engine.reconstruct(&global, &locals, config);
        prop_assert_eq!(serial.probs(), prekeyed.probs(), "serial vs prekeyed");

        let threaded = Reconstructor::new()
            .with_parallelism(Parallelism::Threads(threads))
            .reconstruct(&global, &locals, config);
        prop_assert_eq!(serial.probs(), threaded.probs(), "{} threads", threads);
    }

    /// The support guard (zeroed prior cells) keeps all paths in exact
    /// agreement too.
    #[test]
    fn bit_identical_with_zeroed_prior_cells(
        weights in arb_weights(1 << 6),
        rounds in 1usize..=3,
        threads in 2usize..=8,
    ) {
        let n = 6;
        let global = Pmf::new((0..n).collect(), weights);
        let locals: Vec<Pmf> = window_subsets(n, 2)
            .into_iter()
            .map(|sub| Pmf::new(sub, vec![0.4, 0.3, 0.2, 0.1]))
            .collect();
        let config = ReconstructionConfig { epsilon: 1e-9, rounds };
        let reference = naive_reconstruct(&global, &locals, config);
        let serial = Reconstructor::new()
            .with_parallelism(Parallelism::Serial)
            .reconstruct(&global, &locals, config);
        let threaded = Reconstructor::new()
            .with_parallelism(Parallelism::Threads(threads))
            .reconstruct(&global, &locals, config);
        prop_assert_eq!(reference.probs(), serial.probs());
        prop_assert_eq!(serial.probs(), threaded.probs());
    }

    /// The compatibility wrapper `reconstruct()` is the one-shot engine.
    #[test]
    fn wrapper_matches_engine(
        global_seed in prop::collection::vec(0.01..1.0f64, 1 << 4),
        rounds in 0usize..=2,
    ) {
        let global = Pmf::new(vec![0, 1, 2, 3], global_seed);
        let locals = vec![global.marginal(&[0, 1]), Pmf::new(vec![2, 3], vec![0.1, 0.2, 0.3, 0.4])];
        let config = ReconstructionConfig { epsilon: 1e-9, rounds };
        let wrapped = reconstruct(&global, &locals, config);
        let engine = Reconstructor::new().reconstruct(&global, &locals, config);
        prop_assert_eq!(wrapped.probs(), engine.probs());
    }
}

/// Consecutive locals with *different* chunk grids (a 13-qubit window
/// caps its grid at 2 chunks while a 2-qubit window gets 4) shift worker
/// boundaries in outcome space between updates — the regime where a
/// missing inter-update barrier would let a worker read another worker's
/// un-normalized chunk. Serial and threaded must still agree bit for bit
/// at every thread count, including ones that divide neither grid.
#[test]
fn mixed_window_chunk_grids_are_bit_identical() {
    let n = 14;
    let dim = 1usize << n;
    let probs: Vec<f64> = (0..dim)
        .map(|x| ((x.wrapping_mul(2654435761)) % 997 + 1) as f64)
        .collect();
    let global = Pmf::new((0..n).collect(), probs);
    let wide: Vec<usize> = (0..13).collect();
    let wide_probs: Vec<f64> = (0..1usize << 13).map(|j| ((j % 31) + 1) as f64).collect();
    let locals = vec![
        Pmf::new(wide, wide_probs),
        Pmf::new(vec![0, 1], vec![0.4, 0.1, 0.2, 0.3]),
        Pmf::new(vec![12, 13], vec![0.3, 0.3, 0.2, 0.2]),
    ];
    let config = ReconstructionConfig {
        epsilon: 1e-9,
        rounds: 2,
    };
    let serial = Reconstructor::new()
        .with_parallelism(Parallelism::Serial)
        .reconstruct(&global, &locals, config);
    for threads in [2usize, 3, 4, 7] {
        let threaded = Reconstructor::new()
            .with_parallelism(Parallelism::Threads(threads))
            .reconstruct(&global, &locals, config);
        assert_eq!(serial.probs(), threaded.probs(), "{threads} threads");
    }
    assert_eq!(
        checksum(serial.probs()),
        0x6043_43a0_be49_326a,
        "output bits moved"
    );
}

/// 13 qubits splits into two chunks: serial and threaded sweeps must stay
/// bit-identical for every thread count (the grid is worker-independent),
/// while the naive sequential reference — whose marginal sums are not
/// chunk-associated — agrees within floating-point tolerance.
#[test]
fn multi_chunk_sweeps_are_thread_count_independent() {
    let n = 13;
    let dim = 1usize << n;
    let probs: Vec<f64> = (0..dim)
        .map(|x| ((x * 2654435761) % 1000 + 1) as f64)
        .collect();
    let global = Pmf::new((0..n).collect(), probs);
    let locals: Vec<Pmf> = (0..n - 1)
        .map(|s| {
            let probs = vec![0.4, 0.1, 0.2, 0.3];
            Pmf::new(vec![s, s + 1], probs)
        })
        .collect();
    let config = ReconstructionConfig {
        epsilon: 1e-9,
        rounds: 2,
    };
    let serial = Reconstructor::new()
        .with_parallelism(Parallelism::Serial)
        .reconstruct(&global, &locals, config);
    for threads in [1usize, 2, 3, 5, 8] {
        let threaded = Reconstructor::new()
            .with_parallelism(Parallelism::Threads(threads))
            .reconstruct(&global, &locals, config);
        assert_eq!(serial.probs(), threaded.probs(), "{threads} threads");
    }
    let auto = Reconstructor::new()
        .with_parallelism(Parallelism::Auto)
        .reconstruct(&global, &locals, config);
    assert_eq!(serial.probs(), auto.probs(), "auto dispatch");
    let reference = naive_reconstruct(&global, &locals, config);
    assert!(
        reference.tvd(&serial) < 1e-12,
        "multi-chunk reduction drifted: tvd {}",
        reference.tvd(&serial)
    );
    assert_eq!(
        checksum(serial.probs()),
        0xedea_50ad_75f7_b885,
        "output bits moved"
    );
}

/// Pair windows over `0..n` where the `[2, 3]` window carries evidence
/// only on outcomes with qubit 2 set, which the prior never supports:
/// that update is skipped mid-sweep, and the next one must compute its
/// marginal afresh instead of reusing partials fused into an earlier
/// pass.
fn skip_path_case(n: usize) -> (Pmf, Vec<Pmf>) {
    let probs: Vec<f64> = (0..1usize << n)
        .map(|x| {
            if x & 0b100 != 0 {
                0.0
            } else {
                ((x.wrapping_mul(2654435761)) % 97 + 1) as f64
            }
        })
        .collect();
    let global = Pmf::new((0..n).collect(), probs);
    let locals = (0..n - 1)
        .map(|s| {
            let probs = if s == 2 {
                vec![0.0, 0.5, 0.0, 0.5]
            } else {
                vec![0.4, 0.1, 0.2, 0.3]
            };
            Pmf::new(vec![s, s + 1], probs)
        })
        .collect();
    (global, locals)
}

/// A skipped update mid-sweep, followed by normal updates: serial,
/// threaded and naive agree bit for bit on a single-chunk global, and
/// the skipped window's evidence really was rejected.
#[test]
fn skipped_update_mid_sweep_is_bit_identical() {
    let (global, locals) = skip_path_case(6);
    for rounds in 1..=3 {
        let config = ReconstructionConfig {
            epsilon: 1e-9,
            rounds,
        };
        let reference = naive_reconstruct(&global, &locals, config);
        let serial = Reconstructor::new()
            .with_parallelism(Parallelism::Serial)
            .reconstruct(&global, &locals, config);
        assert_eq!(reference.probs(), serial.probs(), "naive vs serial");
        for threads in [2usize, 3, 8] {
            let threaded = Reconstructor::new()
                .with_parallelism(Parallelism::Threads(threads))
                .reconstruct(&global, &locals, config);
            assert_eq!(serial.probs(), threaded.probs(), "{threads} threads");
        }
        assert_eq!(serial.marginal(&[2]).prob(1), 0.0, "unsupported mass moved");
    }
}

/// The same skip path on a two-chunk global: serial and threaded agree
/// bit for bit, the naive reference within tolerance.
#[test]
fn skipped_update_on_multi_chunk_global_is_thread_count_independent() {
    let (global, locals) = skip_path_case(13);
    let config = ReconstructionConfig {
        epsilon: 1e-9,
        rounds: 2,
    };
    let serial = Reconstructor::new()
        .with_parallelism(Parallelism::Serial)
        .reconstruct(&global, &locals, config);
    for threads in [2usize, 3] {
        let threaded = Reconstructor::new()
            .with_parallelism(Parallelism::Threads(threads))
            .reconstruct(&global, &locals, config);
        assert_eq!(serial.probs(), threaded.probs(), "{threads} threads");
    }
    let reference = naive_reconstruct(&global, &locals, config);
    assert!(
        reference.tvd(&serial) < 1e-12,
        "tvd {}",
        reference.tvd(&serial)
    );
}
