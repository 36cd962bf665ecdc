//! Criterion benchmarks for the computational kernels every experiment
//! leans on: state-vector simulation, Pauli algebra, noise channels,
//! Bayesian reconstruction, grouping and the Lanczos eigensolver.

use chem::{molecular_hamiltonian, MoleculeSpec};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mitigation::{reconstruct, Pmf, ReconstructionConfig, Reconstructor};
use pauli::{group_by_cover, PauliString};
use qnoise::{apply_readout_errors, ReadoutError};
use qsim::{Circuit, Parallelism, Statevector};
use rand::{rngs::StdRng, SeedableRng};
use vqe::{EfficientSu2, Entanglement};

fn ansatz_circuit(n: usize) -> Circuit {
    let a = EfficientSu2::new(n, 2, Entanglement::Full);
    a.circuit(&a.initial_parameters(7))
}

fn bench_statevector(c: &mut Criterion) {
    // The canonical `efficient_su2_*` entries use the Auto dispatch —
    // what every caller of `apply_circuit` gets.
    let mut g = c.benchmark_group("statevector");
    for n in [6usize, 8, 10, 12] {
        let circuit = ansatz_circuit(n);
        g.bench_function(format!("efficient_su2_{n}q"), |b| {
            b.iter(|| {
                let mut st = Statevector::zero(n);
                st.apply_circuit(&circuit);
                std::hint::black_box(st.probabilities()[0])
            })
        });
    }
    // Serial-vs-parallel pairs at the sizes where Auto can go threaded,
    // so speedup (or spawn overhead on starved machines) is measurable
    // from one bench run. The parallel row pins `num_threads()` workers
    // explicitly — on a single-core container it degrades to ~serial.
    for n in [10usize, 12] {
        let circuit = ansatz_circuit(n);
        g.bench_function(format!("efficient_su2_{n}q_serial"), |b| {
            b.iter(|| {
                let mut st = Statevector::zero(n);
                st.apply_circuit_with(&circuit, Parallelism::Serial);
                std::hint::black_box(st.probabilities()[0])
            })
        });
        // Stable id (no thread count embedded) so archived BENCH_*.json
        // records match across runners; the worker count is reported on
        // its own line instead.
        let threads = parallel::num_threads();
        println!("bench statevector/efficient_su2_{n}q_parallel uses {threads} thread(s)");
        g.bench_function(format!("efficient_su2_{n}q_parallel"), |b| {
            b.iter(|| {
                let mut st = Statevector::zero(n);
                st.apply_circuit_with(&circuit, Parallelism::Threads(threads));
                std::hint::black_box(st.probabilities()[0])
            })
        });
    }
    g.finish();
}

fn bench_pauli_expectation(c: &mut Criterion) {
    let n = 10;
    let circuit = ansatz_circuit(n);
    let mut st = Statevector::zero(n);
    st.apply_circuit(&circuit);
    let string: PauliString = "ZXIZYIZXIZ".parse().unwrap();
    c.bench_function("pauli/exact_expectation_10q", |b| {
        b.iter(|| std::hint::black_box(string.expectation(&st)))
    });
}

fn bench_grouping(c: &mut Criterion) {
    let mut g = c.benchmark_group("grouping");
    for label in ["CH4-8", "H2O-12"] {
        let (name, qubits) = label.split_once('-').unwrap();
        let spec = MoleculeSpec::find(name, qubits.parse().unwrap()).unwrap();
        let h = molecular_hamiltonian(&spec);
        let strings: Vec<PauliString> = h
            .measurable_terms()
            .iter()
            .map(|t| t.string().clone())
            .collect();
        g.bench_function(format!("group_by_cover_{label}"), |b| {
            b.iter(|| std::hint::black_box(group_by_cover(&strings).len()))
        });
    }
    g.finish();
}

fn bench_reconstruction(c: &mut Criterion) {
    // An 8-qubit global PMF with 7 window locals — one basis circuit's
    // JigSaw reconstruction. The canonical id measures the one-shot
    // `reconstruct()` path (key tables built per call); the `_cached` row
    // is what the VQE evaluators actually pay from iteration two on — a
    // persistent `Reconstructor` whose key tables and scratch survive.
    // The full serial/parallel matrix lives in `benches/reconstruction.rs`.
    let n = 8usize;
    let circuit = ansatz_circuit(n);
    let mut st = Statevector::zero(n);
    st.apply_circuit(&circuit);
    let qubits: Vec<usize> = (0..n).collect();
    let global = Pmf::new(qubits.clone(), st.probabilities());
    let locals: Vec<Pmf> = (0..n - 1).map(|w| global.marginal(&[w, w + 1])).collect();
    c.bench_function("reconstruction/bayesian_8q_7windows", |b| {
        b.iter(|| {
            std::hint::black_box(reconstruct(
                &global,
                &locals,
                ReconstructionConfig::default(),
            ))
        })
    });
    let mut engine = Reconstructor::new();
    c.bench_function("reconstruction/bayesian_8q_7windows_cached", |b| {
        b.iter(|| {
            std::hint::black_box(engine.reconstruct(
                &global,
                &locals,
                ReconstructionConfig::default(),
            ))
        })
    });
}

fn bench_noise_channel(c: &mut Criterion) {
    let errors = vec![ReadoutError::new(0.02, 0.05); 10];
    let base: Vec<f64> = (0..1024).map(|i| (i as f64 + 1.0) / 524800.0).collect();
    c.bench_function("noise/readout_channel_10q", |b| {
        b.iter_batched(
            || base.clone(),
            |mut probs| {
                apply_readout_errors(&mut probs, &errors);
                std::hint::black_box(probs[0])
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_sampling(c: &mut Criterion) {
    // 2 and 4 outcomes: 1- and 2-qubit subsets (branch-free CDF count);
    // 64 and 256 outcomes: CH4-6 and 8-qubit Globals (guide table).
    for n in [1usize, 2, 6, 8] {
        let circuit = ansatz_circuit(n);
        let mut st = Statevector::zero(n);
        st.apply_circuit(&circuit);
        let probs = st.probabilities();
        c.bench_function(format!("sampling/1024_shots_{n}q"), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| std::hint::black_box(qsim::sample_counts(&probs, 1024, &mut rng)))
        });
    }
}

fn bench_lanczos(c: &mut Criterion) {
    let spec = MoleculeSpec::find("CH4", 6).unwrap();
    let h = molecular_hamiltonian(&spec);
    c.bench_function("lanczos/ground_energy_ch4_6", |b| {
        b.iter(|| std::hint::black_box(h.ground_energy(1)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_statevector, bench_pauli_expectation, bench_grouping,
        bench_reconstruction, bench_noise_channel, bench_sampling, bench_lanczos
}
criterion_main!(kernels);
