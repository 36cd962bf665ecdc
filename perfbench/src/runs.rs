//! One VQE run of a benchmark problem, in three interchangeable forms —
//! plain [`varsaw::run_method`], clocked per iteration, and traced through
//! the decorators — plus the output checks every run must pass.

use crate::stats::Span;
use crate::trace::{Batch, Recorder, StepClock, TracedEvaluator, TracedOptimizer};
use chem::{molecular_hamiltonian, MoleculeSpec};
use pauli::Hamiltonian;
use qnoise::DeviceModel;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use varsaw::{
    run_method, run_method_with, Method, RunSetup, SpatialPlan, TemporalPolicy, VarSawEvaluator,
};
use vqe::{
    run_vqe, BaselineEvaluator, EfficientSu2, EnergyEvaluator, Entanglement, GroupedHamiltonian,
    Optimizer, Parallelism, SimExecutor, Spsa, VqeConfig, VqeTrace,
};

/// EfficientSU2 repetitions in every workload.
pub const REPS: usize = 2;

/// Shots per circuit in every workload.
pub const SHOTS: u64 = 1024;

/// JigSaw/VarSaw subset window of every workload (the paper's 2).
pub const WINDOW: usize = 2;

/// Share of a trace averaged into its converged energy.
pub const TAIL: f64 = 0.1;

/// The measurement scheme of a run: the paper's Baseline or VarSaw with a
/// temporal policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Commutation-grouped full-register circuits, no mitigation.
    Baseline,
    /// VarSaw with the given Global schedule.
    VarSaw(TemporalPolicy),
}

impl Scheme {
    fn method(self) -> Method {
        match self {
            Scheme::Baseline => Method::Baseline,
            Scheme::VarSaw(policy) => Method::VarSaw(policy),
        }
    }
}

/// Everything fixed about a run except its seed.
#[derive(Clone, Debug)]
pub struct Problem {
    /// The Table-2 molecule.
    pub spec: MoleculeSpec,
    /// The ansatz entanglement.
    pub entanglement: Entanglement,
    /// Baseline or VarSaw.
    pub scheme: Scheme,
    /// How the executor spreads statevector work.
    pub parallelism: Parallelism,
}

impl Problem {
    /// The paper's setup: EfficientSU2, `mumbai_like`, 1024 shots,
    /// window 2.
    fn setup(&self, hamiltonian: Hamiltonian, seed: u64) -> RunSetup {
        let ansatz = EfficientSu2::new(self.spec.qubits, REPS, self.entanglement);
        let mut setup = RunSetup::new(hamiltonian, ansatz, DeviceModel::mumbai_like(), seed);
        setup.shots = SHOTS;
        setup.window = WINDOW;
        setup
    }

    // The executor, initial point and tuner are seeded exactly as
    // `run_method` seeds its first restart; the output checks compare the
    // two traces bit for bit, so a drift here fails the benchmark.
    fn executor(&self, setup: &RunSetup) -> SimExecutor {
        SimExecutor::new(setup.device.clone(), setup.shots, setup.seed ^ 0x5A5A)
            .with_parallelism(self.parallelism)
    }

    fn initial_params(setup: &RunSetup) -> Vec<f64> {
        setup.ansatz.initial_parameters(setup.seed ^ 0x1234)
    }

    fn tuner(setup: &RunSetup) -> Spsa {
        Spsa::new(setup.seed ^ 0x0B57)
    }

    /// The circuit shape of one evaluation, for the delta checks.
    pub fn shape(&self, hamiltonian: &Hamiltonian) -> Shape {
        let groups = GroupedHamiltonian::new(hamiltonian).num_groups() as u64;
        let subset_groups = match self.scheme {
            Scheme::Baseline => 0,
            Scheme::VarSaw(_) => SpatialPlan::new(hamiltonian, WINDOW).subset_groups().len() as u64,
        };
        Shape {
            scheme: self.scheme,
            groups,
            subset_groups,
        }
    }
}

/// Circuits per evaluation: Baseline runs `groups` full-register
/// circuits; VarSaw runs `subset_groups` subset circuits, plus `groups`
/// Globals when its schedule fires.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// The scheme the shape belongs to.
    pub scheme: Scheme,
    /// Commutation groups (Globals per evaluation).
    pub groups: u64,
    /// VarSaw's reduced subset groups.
    pub subset_groups: u64,
}

impl Shape {
    /// How many Globals fired in an SPSA iteration (two evaluations) that
    /// executed `delta` circuits, or why the count does not fit the shape.
    pub fn globals_fired(&self, delta: u64) -> Result<u64, String> {
        match self.scheme {
            Scheme::Baseline if delta == 2 * self.groups => Ok(0),
            Scheme::Baseline => Err(format!("{delta} circuits, expected {}", 2 * self.groups)),
            Scheme::VarSaw(_) => {
                let extra = delta.checked_sub(2 * self.subset_groups);
                match extra {
                    Some(e) if e % self.groups == 0 && e / self.groups <= 2 => Ok(e / self.groups),
                    _ => Err(format!(
                        "{delta} circuits is not 2×{} subsets plus 0–2×{} Globals",
                        self.subset_groups, self.groups
                    )),
                }
            }
        }
    }
}

/// What the traced form of a run recorded.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Spans of the run, one trace.
    pub spans: Vec<Span>,
    /// Evaluator dispatches with their probe points.
    pub batches: Vec<Batch>,
    /// Globals the VarSaw scheduler reports it ran.
    pub globals_run: Option<u64>,
}

/// One finished run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The run's seed.
    pub seed: u64,
    /// The VQE trace.
    pub trace: VqeTrace,
    /// Seconds from the run's start (before Hamiltonian generation) to
    /// its first SPSA step.
    pub setup_s: f64,
    /// Seconds from the run's start to its end.
    pub wall_s: f64,
    /// Every SPSA iteration's latency, in milliseconds.
    pub iter_ms: Vec<f64>,
    /// Set for traced runs.
    pub traced: Option<Traced>,
}

impl RunRecord {
    /// Circuits each iteration executed.
    pub fn deltas(&self) -> Vec<u64> {
        let mut prev = 0;
        self.trace
            .circuits
            .iter()
            .map(|&c| {
                let d = c.saturating_sub(prev);
                prev = c;
                d
            })
            .collect()
    }

    /// `|converged energy − reference|`.
    pub fn energy_gap(&self, reference: f64) -> f64 {
        (self.trace.converged_energy(TAIL) - reference).abs()
    }
}

/// The plain public entry point: [`run_method`], untouched.
pub fn run_plain(problem: &Problem, seed: u64, config: &VqeConfig) -> VqeTrace {
    let setup = problem.setup(molecular_hamiltonian(&problem.spec), seed);
    run_method(&setup, problem.scheme.method(), config).trace
}

/// The untraced timed form: [`run_method_with`] with a per-iteration
/// clock around SPSA, and nothing else.
pub fn run_clocked(problem: &Problem, seed: u64, config: &VqeConfig) -> RunRecord {
    let start = Instant::now();
    let setup = problem.setup(molecular_hamiltonian(&problem.spec), seed);
    let executor = problem.executor(&setup);
    let init = Problem::initial_params(&setup);
    let mut clock = StepClock::new(Problem::tuner(&setup));
    let outcome = run_method_with(
        &setup,
        problem.scheme.method(),
        config,
        executor,
        init,
        &mut clock,
    );
    let wall_s = start.elapsed().as_secs_f64();
    let setup_s = clock
        .first_step()
        .map_or(wall_s, |t| t.duration_since(start).as_secs_f64());
    RunRecord {
        seed,
        trace: outcome.trace,
        setup_s,
        wall_s,
        iter_ms: clock.into_iter_ms(),
        traced: None,
    }
}

/// The traced form: the evaluator and SPSA wrapped in span-recording
/// decorators and driven by [`run_vqe`], as `run_method_with` drives them.
pub fn run_traced(problem: &Problem, seed: u64, config: &VqeConfig) -> RunRecord {
    let recorder = RefCell::new(Recorder::new());
    let rec = &recorder;
    let root = rec.borrow_mut().open("vqe.run");
    let hamiltonian = Recorder::span(rec, "chem.hamiltonian", || {
        molecular_hamiltonian(&problem.spec)
    });
    let setup = problem.setup(hamiltonian, seed);
    let executor = problem.executor(&setup);
    let init = Problem::initial_params(&setup);
    let mut tuner = TracedOptimizer::new(Problem::tuner(&setup), rec);
    let (trace, globals_run) = match problem.scheme {
        Scheme::Baseline => {
            let eval = Recorder::span(rec, "vqe.evaluator.build", || {
                BaselineEvaluator::new(&setup.hamiltonian, setup.ansatz.clone(), executor)
                    .with_mbm(setup.mbm)
            });
            (drive(eval, &mut tuner, init, config, rec).0, None)
        }
        Scheme::VarSaw(policy) => {
            let eval = Recorder::span(rec, "vqe.evaluator.build", || {
                VarSawEvaluator::new(
                    &setup.hamiltonian,
                    setup.ansatz.clone(),
                    setup.window,
                    policy,
                    executor,
                )
                .with_mbm(setup.mbm)
            });
            let (trace, eval) = drive(eval, &mut tuner, init, config, rec);
            (trace, Some(eval.scheduler().globals_run() as u64))
        }
    };
    rec.borrow_mut().close(root);
    let (spans, batches) = recorder.into_inner().finish();
    let ns = |n: u64| n as f64 * 1e-9;
    let steps: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "vqe.optimizer.step")
        .collect();
    RunRecord {
        seed,
        trace,
        setup_s: ns(steps.first().map_or(spans[root].end_ns, |s| s.start_ns)),
        wall_s: ns(spans[root].end_ns),
        iter_ms: steps
            .iter()
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect(),
        traced: Some(Traced {
            spans,
            batches,
            globals_run,
        }),
    }
}

fn drive<E: EnergyEvaluator>(
    eval: E,
    tuner: &mut dyn Optimizer,
    init: Vec<f64>,
    config: &VqeConfig,
    rec: &RefCell<Recorder>,
) -> (VqeTrace, E) {
    let mut traced = TracedEvaluator::new(eval, rec);
    let trace = run_vqe(&mut traced, tuner, init, config);
    (trace, traced.into_inner())
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// The output checks every run must pass: finite energies, the circuit
/// delta of every iteration matching the evaluation shape, the run
/// stopping where its configuration says, and — for traced runs — the
/// decorators' records agreeing with the trace.
pub fn check_run(record: &RunRecord, shape: &Shape, config: &VqeConfig) -> Result<(), String> {
    let trace = &record.trace;
    let n = trace.iterations();
    if n == 0 || trace.circuits.len() != n || record.iter_ms.len() != n {
        return Err(format!("malformed trace of {n} iterations"));
    }
    if let Some(i) = trace.energies.iter().position(|e| !e.is_finite()) {
        return Err(format!("non-finite energy at iteration {i}"));
    }
    let mut fired_total = 0;
    for (i, &delta) in record.deltas().iter().enumerate() {
        let fired = shape
            .globals_fired(delta)
            .map_err(|e| format!("iteration {i}: {e}"))?;
        if i == 0 && matches!(shape.scheme, Scheme::VarSaw(_)) && fired == 0 {
            return Err("the first VarSaw evaluation ran no Globals".into());
        }
        fired_total += fired;
    }
    let total = trace.total_circuits();
    let stopped_right = match config.max_circuits {
        None => n == config.max_iterations,
        Some(budget) => {
            let before_last = if n > 1 { trace.circuits[n - 2] } else { 0 };
            n == config.max_iterations || (total >= budget && before_last < budget)
        }
    };
    if !stopped_right {
        return Err(format!("stopped after {n} iterations and {total} circuits"));
    }
    if let Some(t) = &record.traced {
        if t.batches.len() != n || t.batches.iter().map(|b| b.circuits).sum::<u64>() != total {
            return Err("decorator dispatches disagree with the trace".into());
        }
        if t.globals_run.is_some_and(|g| g != fired_total) {
            return Err(format!(
                "scheduler ran {:?} Globals, circuit deltas show {fired_total}",
                t.globals_run
            ));
        }
    }
    Ok(())
}

/// Whether two traces are bit-identical in energies and circuit counts.
pub fn same_trace(a: &VqeTrace, b: &VqeTrace) -> bool {
    a.circuits == b.circuits
        && a.energies.len() == b.energies.len()
        && a.energies
            .iter()
            .zip(&b.energies)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuit_deltas_decode_fired_globals() {
        let baseline = Shape {
            scheme: Scheme::Baseline,
            groups: 46,
            subset_groups: 0,
        };
        assert_eq!(baseline.globals_fired(92), Ok(0));
        assert!(baseline.globals_fired(91).is_err());
        let varsaw = Shape {
            scheme: Scheme::VarSaw(TemporalPolicy::EveryIteration),
            groups: 98,
            subset_groups: 63,
        };
        assert_eq!(varsaw.globals_fired(126), Ok(0));
        assert_eq!(varsaw.globals_fired(126 + 98), Ok(1));
        assert_eq!(varsaw.globals_fired(126 + 196), Ok(2));
        assert!(varsaw.globals_fired(125).is_err());
        assert!(varsaw.globals_fired(126 + 97).is_err());
        assert!(varsaw.globals_fired(126 + 294).is_err());
    }

    #[test]
    fn every_form_of_a_run_gives_the_same_trace() {
        let problem = Problem {
            spec: MoleculeSpec::find("H2", 4).expect("H2-4 is in Table 2"),
            entanglement: Entanglement::Full,
            scheme: Scheme::VarSaw(TemporalPolicy::Adaptive {
                initial_interval: 2,
            }),
            parallelism: Parallelism::Serial,
        };
        let config = VqeConfig {
            max_iterations: 6,
            max_circuits: None,
        };
        let shape = problem.shape(&molecular_hamiltonian(&problem.spec));
        let plain = run_plain(&problem, 3, &config);
        let clocked = run_clocked(&problem, 3, &config);
        let traced = run_traced(&problem, 3, &config);
        assert!(same_trace(&plain, &clocked.trace));
        assert!(same_trace(&plain, &traced.trace));
        check_run(&clocked, &shape, &config).unwrap();
        check_run(&traced, &shape, &config).unwrap();
        assert!(clocked.setup_s > 0.0 && clocked.setup_s <= clocked.wall_s);
        assert_eq!(clocked.iter_ms.len(), 6);
    }
}
