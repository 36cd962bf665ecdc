//! Per-layer attribution from outside the program: replays the lower
//! layers' public calls on a traced run's own probe points and
//! measurement families, times each layer per call, and scales the
//! per-call cost by the call counts the run itself showed.

use crate::runs::{Problem, RunRecord, Scheme, Shape, REPS, SHOTS, WINDOW};
use chem::molecular_hamiltonian;
use mitigation::{Pmf, ReconstructionConfig, Reconstructor};
use pauli::PauliString;
use qnoise::{apply_depolarizing, apply_readout_errors, DeviceModel, ReadoutError};
use qsim::{PlanCache, Statevector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use varsaw::SpatialPlan;
use vqe::{basis_rotation, EfficientSu2, GroupedHamiltonian, Parallelism, SimExecutor};

/// Estimated busy seconds and call counts per layer, summed over the
/// replayed runs.
#[derive(Clone, Debug, Default)]
pub struct LayerEstimate {
    /// Runs replayed.
    pub runs: f64,
    /// `EfficientSu2::circuit` for every probe point.
    pub ansatz_s: f64,
    /// `SimExecutor::prepare_batch` on each ± pair.
    pub prepare_s: f64,
    /// `prepare_batch` calls the run made.
    pub prepare_calls: f64,
    /// Basis rotation plus probability read, per circuit.
    pub rotate_read_s: f64,
    /// Depolarizing plus readout-error channel, per circuit.
    pub readout_s: f64,
    /// Circuits the run executed (one noise pass each).
    pub circuits: f64,
    /// Shot sampling of full-register circuits.
    pub sample_global_s: f64,
    /// Shot sampling of subset circuits.
    pub sample_subset_s: f64,
    /// Shots drawn.
    pub shots: f64,
    /// Local PMFs marginalized out of subset groups (`Pmf::marginal`).
    pub marginal_s: f64,
    /// `Reconstructor::reconstruct`.
    pub reconstruct_s: f64,
    /// Reconstructions the run performed.
    pub reconstruct_calls: f64,
    /// `GroupedHamiltonian::energy_from_pmfs`.
    pub energy_s: f64,
    /// `SpatialPlan::new`, once per run.
    pub spatial_plan_s: f64,
    /// Plan-cache lookups the run made (preparations plus rotations).
    pub plan_lookups: f64,
    /// Distinct circuit structures among them (the cache misses).
    pub plan_structures: f64,
    /// Replay-measured sampling nanoseconds per shot, by circuit kind.
    pub ns_per_shot_global: Vec<f64>,
    /// See [`LayerEstimate::ns_per_shot_global`].
    pub ns_per_shot_subset: Vec<f64>,
}

impl LayerEstimate {
    /// The layers' summed estimate of evaluation time.
    pub fn attributed_s(&self) -> f64 {
        self.ansatz_s
            + self.prepare_s
            + self.rotate_read_s
            + self.readout_s
            + self.sample_global_s
            + self.sample_subset_s
            + self.marginal_s
            + self.reconstruct_s
            + self.energy_s
    }

    /// The sampling layer's total.
    pub fn sample_s(&self) -> f64 {
        self.sample_global_s + self.sample_subset_s
    }

    /// Plan-cache hits over lookups.
    pub fn plan_hit_ratio(&self) -> f64 {
        if self.plan_lookups > 0.0 {
            1.0 - self.plan_structures / self.plan_lookups
        } else {
            0.0
        }
    }
}

/// Mean per-call costs measured by the replay.
#[derive(Clone, Debug, Default)]
struct PerCall {
    sums: [f64; 11],
    counts: [f64; 11],
}

#[derive(Clone, Copy)]
enum Layer {
    Ansatz,
    Prepare,
    RotateReadGlobal,
    RotateReadSubset,
    ReadoutGlobal,
    ReadoutSubset,
    SampleGlobal,
    SampleSubset,
    Marginal,
    Reconstruct,
    Energy,
}

impl PerCall {
    fn add(&mut self, layer: Layer, seconds: f64) {
        self.sums[layer as usize] += seconds;
        self.counts[layer as usize] += 1.0;
    }

    fn mean(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        if self.counts[i] > 0.0 {
            self.sums[i] / self.counts[i]
        } else {
            0.0
        }
    }
}

/// The replay's private copy of the measurement path.
struct Replayer {
    device: DeviceModel,
    rotations: PlanCache,
    buffer: Option<Statevector>,
    rng: StdRng,
    reconstructor: Reconstructor,
    per_call: PerCall,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_secs_f64())
}

impl Replayer {
    /// One circuit of a measurement family, layer by layer, as
    /// `SimExecutor::run_batch` executes it.
    fn measure(&mut self, state: &Statevector, basis: &PauliString, global: bool) -> Pmf {
        let n = state.num_qubits();
        let measured: Vec<usize> = if global {
            (0..n).collect()
        } else {
            basis.support()
        };
        let (probs, t_read) = timed(|| {
            let plan = self.rotations.plan(&basis_rotation(basis));
            let rotated = if plan.op_count() == 0 {
                state
            } else {
                let st = match &mut self.buffer {
                    Some(st) if st.num_qubits() == n => {
                        st.amplitudes_mut().copy_from_slice(state.amplitudes());
                        st
                    }
                    slot => slot.insert(state.clone()),
                };
                st.apply_plan_with(&plan, Parallelism::Serial);
                &*st
            };
            if measured.len() == n {
                rotated.probabilities_with(Parallelism::Serial)
            } else {
                rotated.marginal_probabilities(&measured)
            }
        });
        let (probs, t_noise) = timed(|| {
            let mut probs = probs;
            if self.device.depolarizing() > 0.0 {
                apply_depolarizing(&mut probs, self.device.depolarizing());
            }
            let m = measured.len();
            let errors: Vec<ReadoutError> = self
                .device
                .best_qubits(m)
                .iter()
                .map(|&q| self.device.effective_readout(q, m))
                .collect();
            apply_readout_errors(&mut probs, &errors);
            probs
        });
        let (counts, t_sample) = timed(|| qsim::sample_counts(&probs, SHOTS, &mut self.rng));
        let (read, noise, sample) = if global {
            (
                Layer::RotateReadGlobal,
                Layer::ReadoutGlobal,
                Layer::SampleGlobal,
            )
        } else {
            (
                Layer::RotateReadSubset,
                Layer::ReadoutSubset,
                Layer::SampleSubset,
            )
        };
        self.per_call.add(read, t_read);
        self.per_call.add(noise, t_noise);
        self.per_call.add(sample, t_sample);
        Pmf::new(measured, counts.iter().map(|&c| c as f64).collect())
    }

    fn energy(&mut self, grouped: &GroupedHamiltonian, pmfs: &[Pmf]) -> f64 {
        let (e, t) = timed(|| grouped.energy_from_pmfs(pmfs));
        self.per_call.add(Layer::Energy, t);
        e
    }

    fn reconstruct(&mut self, global: &Pmf, locals: &[Pmf]) -> Pmf {
        let recon = &mut self.reconstructor;
        let (out, t) = timed(|| recon.reconstruct(global, locals, ReconstructionConfig::default()));
        self.per_call.add(Layer::Reconstruct, t);
        out
    }
}

/// Replays up to `max_batches` evenly spaced dispatches of a traced run
/// and adds its layer estimates to `est`.
pub fn replay(
    problem: &Problem,
    shape: &Shape,
    record: &RunRecord,
    max_batches: usize,
    est: &mut LayerEstimate,
) {
    let Some(traced) = &record.traced else {
        return;
    };
    let hamiltonian = molecular_hamiltonian(&problem.spec);
    let ansatz = EfficientSu2::new(problem.spec.qubits, REPS, problem.entanglement);
    let grouped = GroupedHamiltonian::new(&hamiltonian);
    let plan = match shape.scheme {
        Scheme::Baseline => None,
        Scheme::VarSaw(_) => {
            let (plan, plan_s) = timed(|| SpatialPlan::new(&hamiltonian, WINDOW));
            est.spatial_plan_s += plan_s;
            Some(plan)
        }
    };
    est.runs += 1.0;
    let device = DeviceModel::mumbai_like();
    let mut exec =
        SimExecutor::new(device.clone(), SHOTS, !record.seed).with_parallelism(problem.parallelism);
    let mut r = Replayer {
        device,
        rotations: PlanCache::new(),
        buffer: None,
        rng: StdRng::seed_from_u64(record.seed.rotate_left(17)),
        reconstructor: Reconstructor::new().with_parallelism(problem.parallelism),
        per_call: PerCall::default(),
    };
    let mut prior: Option<Vec<Pmf>> = None;
    let n = traced.batches.len();
    let picks = max_batches.min(n);
    for j in 0..picks {
        let batch = &traced.batches[j * n / picks];
        let (circuits, t) = timed(|| {
            batch
                .params
                .iter()
                .map(|p| ansatz.circuit(p))
                .collect::<Vec<_>>()
        });
        for _ in &circuits {
            r.per_call.add(Layer::Ansatz, t / circuits.len() as f64);
        }
        let (states, t) = timed(|| exec.prepare_batch(&circuits));
        r.per_call.add(Layer::Prepare, t);
        for state in &states {
            let globals: Vec<Pmf> = grouped
                .groups()
                .iter()
                .map(|g| r.measure(state, &g.basis, true))
                .collect();
            let Some(plan) = &plan else {
                r.energy(&grouped, &globals);
                continue;
            };
            // VarSaw: subsets, their marginals, and both the fresh and the
            // chained reconstruction, so every per-call cost is sampled.
            let subsets: Vec<Pmf> = plan
                .subset_groups()
                .iter()
                .map(|g| r.measure(state, &g.basis, false))
                .collect();
            let (locals, t) = timed(|| {
                (0..grouped.num_groups())
                    .map(|b| {
                        plan.coverage(b)
                            .iter()
                            .map(|wc| subsets[wc.group].marginal(&wc.subset.support()))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            });
            r.per_call.add(Layer::Marginal, t);
            let fresh: Vec<Pmf> = globals
                .iter()
                .zip(&locals)
                .map(|(g, l)| r.reconstruct(g, l))
                .collect();
            let ef = r.energy(&grouped, &fresh);
            let mut next = fresh;
            if let Some(p) = prior.take() {
                let chained: Vec<Pmf> = p
                    .iter()
                    .zip(&locals)
                    .map(|(g, l)| r.reconstruct(g, l))
                    .collect();
                if r.energy(&grouped, &chained) <= ef {
                    next = chained;
                }
            }
            prior = Some(next);
        }
    }
    let (structures, _, _) = exec.plan_cache_stats();
    let pc = &r.per_call;

    // What the run itself executed: VarSaw ran its subsets every
    // evaluation, its Globals only when they fired, chained
    // reconstructions on every evaluation after the first, and both
    // energies where a Global met a prior.
    let evals: u64 = traced.batches.iter().map(|b| b.params.len() as u64).sum();
    let total = record.trace.total_circuits();
    let (global_circuits, subset_circuits, reconstructions, energies) = match plan {
        None => (total, 0, 0, evals),
        Some(_) => {
            let fired = traced.globals_run.unwrap_or(0);
            (
                fired * shape.groups,
                evals * shape.subset_groups,
                (evals.saturating_sub(1) + fired) * shape.groups,
                evals + fired.saturating_sub(1),
            )
        }
    };
    let (g, s) = (global_circuits as f64, subset_circuits as f64);
    est.ansatz_s += pc.mean(Layer::Ansatz) * evals as f64;
    est.prepare_s += pc.mean(Layer::Prepare) * n as f64;
    est.prepare_calls += n as f64;
    est.rotate_read_s +=
        pc.mean(Layer::RotateReadGlobal) * g + pc.mean(Layer::RotateReadSubset) * s;
    est.readout_s += pc.mean(Layer::ReadoutGlobal) * g + pc.mean(Layer::ReadoutSubset) * s;
    est.circuits += g + s;
    est.sample_global_s += pc.mean(Layer::SampleGlobal) * g;
    est.sample_subset_s += pc.mean(Layer::SampleSubset) * s;
    est.shots += (g + s) * SHOTS as f64;
    est.marginal_s += pc.mean(Layer::Marginal) * evals as f64;
    est.reconstruct_s += pc.mean(Layer::Reconstruct) * reconstructions as f64;
    est.reconstruct_calls += reconstructions as f64;
    est.energy_s += pc.mean(Layer::Energy) * energies as f64;
    est.plan_lookups += (evals + total) as f64;
    est.plan_structures += (structures + r.rotations.len()) as f64;
    let per_shot = |layer| pc.mean(layer) / SHOTS as f64 * 1e9;
    if pc.counts[Layer::SampleGlobal as usize] > 0.0 {
        est.ns_per_shot_global.push(per_shot(Layer::SampleGlobal));
    }
    if pc.counts[Layer::SampleSubset as usize] > 0.0 {
        est.ns_per_shot_subset.push(per_shot(Layer::SampleSubset));
    }
}
