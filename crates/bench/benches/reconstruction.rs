//! Benchmarks for the Bayesian-reconstruction engine, CI-archived as
//! `BENCH_reconstruction.json` (see the bench-smoke job): the one-shot
//! compatibility path, the key-cached persistent path the VQE evaluators
//! run, one VarSaw evaluation's chained reconstructions on the real
//! H2O-8 geometry, multi-round sweeps, and the serial/parallel pair at a
//! size where the chunked passes can go threaded.

use chem::{molecular_hamiltonian, MoleculeSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use mitigation::{reconstruct, Parallelism, Pmf, ReconstructionConfig, Reconstructor};
use qnoise::{apply_readout_errors, ReadoutError};
use qsim::Statevector;
use varsaw::SpatialPlan;
use vqe::{EfficientSu2, Entanglement};

/// The 8-qubit EfficientSU2 output distribution with 7 pairwise window
/// locals — one basis circuit's JigSaw reconstruction, as in `kernels.rs`.
fn jigsaw_8q() -> (Pmf, Vec<Pmf>) {
    let n = 8usize;
    let a = EfficientSu2::new(n, 2, Entanglement::Full);
    let mut st = Statevector::zero(n);
    st.apply_circuit(&a.circuit(&a.initial_parameters(7)));
    let global = Pmf::new((0..n).collect(), st.probabilities());
    let locals: Vec<Pmf> = (0..n - 1).map(|w| global.marginal(&[w, w + 1])).collect();
    (global, locals)
}

/// A synthetic n-qubit global with pairwise locals that disagree with its
/// marginals (so every update really reweights). Deterministic, no
/// statevector: 2^n amplitudes would dominate setup at large n.
fn synthetic(n: usize) -> (Pmf, Vec<Pmf>) {
    let dim = 1usize << n;
    let probs: Vec<f64> = (0..dim)
        .map(|x| ((x.wrapping_mul(2654435761)) % 1000 + 1) as f64)
        .collect();
    let global = Pmf::new((0..n).collect(), probs);
    let locals: Vec<Pmf> = (0..n - 1)
        .map(|w| Pmf::new(vec![w, w + 1], vec![0.4, 0.1, 0.2, 0.3]))
        .collect();
    (global, locals)
}

fn bench_oneshot(c: &mut Criterion) {
    let (global, locals) = jigsaw_8q();
    c.bench_function("reconstruction/oneshot_8q_7windows", |b| {
        b.iter(|| {
            std::hint::black_box(reconstruct(
                &global,
                &locals,
                ReconstructionConfig::default(),
            ))
        })
    });
}

fn bench_cached(c: &mut Criterion) {
    let (global, locals) = jigsaw_8q();
    let mut engine = Reconstructor::new();
    c.bench_function("reconstruction/cached_8q_7windows", |b| {
        b.iter(|| {
            std::hint::black_box(engine.reconstruct(
                &global,
                &locals,
                ReconstructionConfig::default(),
            ))
        })
    });
    let rounds4 = ReconstructionConfig {
        epsilon: 1e-9,
        rounds: 4,
    };
    c.bench_function("reconstruction/cached_rounds4_8q_7windows", |b| {
        b.iter(|| std::hint::black_box(engine.reconstruct(&global, &locals, rounds4)))
    });
}

/// One VarSaw H2O-8 evaluation's chained reconstructions: every basis
/// circuit's prior (a readout-noised 8-qubit distribution) updated by its
/// windows' locals, marginalized from the `SpatialPlan` subset groups of
/// the clean distribution exactly as `VarSawEvaluator` does.
fn bench_varsaw_chain(c: &mut Criterion) {
    let spec = MoleculeSpec::find("H2O", 8).unwrap();
    let plan = SpatialPlan::new(&molecular_hamiltonian(&spec), 2);
    let n = spec.qubits;
    let a = EfficientSu2::new(n, 2, Entanglement::Full);
    let mut st = Statevector::zero(n);
    st.apply_circuit(&a.circuit(&a.initial_parameters(7)));
    let clean = Pmf::new((0..n).collect(), st.probabilities());
    let mut noisy = st.probabilities();
    apply_readout_errors(&mut noisy, &vec![ReadoutError::symmetric(0.05); n]);
    let prior = Pmf::new((0..n).collect(), noisy);
    let subsets: Vec<Pmf> = plan
        .subset_groups()
        .iter()
        .map(|g| clean.marginal(&g.basis.support()))
        .collect();
    let locals: Vec<Vec<Pmf>> = (0..plan.bases().len())
        .map(|b| {
            plan.coverage(b)
                .iter()
                .map(|wc| subsets[wc.group].marginal(&wc.subset.support()))
                .collect()
        })
        .collect();
    let mut engine = Reconstructor::new();
    let cfg = ReconstructionConfig::default();
    c.bench_function("reconstruction/varsaw_h2o8_chain", |b| {
        b.iter(|| {
            for l in &locals {
                std::hint::black_box(engine.reconstruct(&prior, l, cfg));
            }
        })
    });
}

fn bench_parallel_pair(c: &mut Criterion) {
    // 16 qubits: 65536 outcomes, 16 chunks — above the Auto threshold, so
    // the serial/parallel pair isolates the threaded marginal reduction.
    // Stable ids (no thread count embedded), worker count on its own line,
    // mirroring the statevector pairs.
    let (global, locals) = synthetic(16);
    let cfg = ReconstructionConfig::default();
    let mut serial = Reconstructor::new().with_parallelism(Parallelism::Serial);
    c.bench_function("reconstruction/serial_16q_15windows", |b| {
        b.iter(|| std::hint::black_box(serial.reconstruct(&global, &locals, cfg)))
    });
    let threads = parallel::num_threads();
    println!("bench reconstruction/parallel_16q_15windows uses {threads} thread(s)");
    let mut parallel_engine = Reconstructor::new().with_parallelism(Parallelism::Threads(threads));
    c.bench_function("reconstruction/parallel_16q_15windows", |b| {
        b.iter(|| std::hint::black_box(parallel_engine.reconstruct(&global, &locals, cfg)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = reconstruction;
    config = config();
    targets = bench_oneshot, bench_cached, bench_varsaw_chain, bench_parallel_pair
}
criterion_main!(reconstruction);
