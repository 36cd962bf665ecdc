//! The three workloads, their closed loops, output checks and metrics.

use crate::json::Json;
use crate::replay::{replay, LayerEstimate};
use crate::runs::{
    check_run, guarded, run_clocked, run_plain, run_traced, same_trace, Problem, RunRecord, Scheme,
    Shape, TAIL,
};
use crate::stats::{imbalance, median, percentile, tail_percentile, SpanTotals};
use chem::{molecular_hamiltonian, MoleculeSpec};
use std::fmt::Write;
use std::time::Instant;
use varsaw::{percent_gap_recovered, TemporalPolicy};
use vqe::{Entanglement, Parallelism, VqeConfig, VqeTrace};

/// Evaluator dispatches the replay re-executes, evenly spaced, per traced
/// single-run VQE run.
const REPLAY_BATCHES: usize = 6;

/// The same per traced Table-3 VQE run.
const T3_REPLAY_BATCHES: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Baseline on CH4-6: full-register sampling, no mitigation.
    BaselineCh4,
    /// VarSaw adaptive(k0=2) on H2O-8: subsets, reconstruction, sparse
    /// Globals.
    VarSawH2o,
    /// A scaled-down `experiments table3` over `parallel_map`.
    Table3Mini,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::BaselineCh4,
            Workload::VarSawH2o,
            Workload::Table3Mini,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BaselineCh4 => "baseline-ch4-6",
            Workload::VarSawH2o => "varsaw-h2o-8",
            Workload::Table3Mini => "table3-mini",
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: usize,
}

/// Everything a benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Runs attempted (VQE runs, plus the check reruns).
    pub attempted: u64,
    /// Runs that panicked, produced a non-finite energy or failed a check.
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
    /// The end-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Workload-specific detail for the result file.
    pub details: Vec<(String, Json)>,
    /// Traced runs' spans as JSON lines, when tracing.
    pub spans: Option<String>,
}

impl Report {
    fn fail(&mut self, runs: u64, error: String) {
        self.failed += runs;
        self.errors.push(error);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        if value.is_finite() {
            self.metrics.push(Metric {
                name,
                value,
                unit,
                samples,
            });
        } else {
            self.fail(0, format!("metric {name} is not finite"));
        }
    }

    /// The tail rule: a p90 needs ten samples above it.
    fn latency_metrics(&mut self, iter_ms: &[f64]) {
        let p50 = percentile(iter_ms, 0.5).unwrap_or(f64::NAN);
        self.metric("iter_ms.p50", p50, "ms", iter_ms.len());
        match tail_percentile(iter_ms, 0.9) {
            Some(p90) => self.metric("iter_ms.p90", p90, "ms", iter_ms.len()),
            None => self.fail(
                0,
                format!("{} iterations are too few for a p90", iter_ms.len()),
            ),
        }
    }
}

/// Runs `workload` and returns its report.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    match workload {
        Workload::BaselineCh4 => single_run(
            &SingleRun {
                problem: Problem {
                    spec: MoleculeSpec::find("CH4", 6).expect("CH4-6 is in Table 2"),
                    entanglement: Entanglement::Full,
                    scheme: Scheme::Baseline,
                    parallelism: Parallelism::Serial,
                },
                iterations: 100,
                min_runs: 16,
            },
            seed,
            seconds,
            trace,
        ),
        Workload::VarSawH2o => single_run(
            &SingleRun {
                problem: Problem {
                    spec: MoleculeSpec::find("H2O", 8).expect("H2O-8 is in Table 2"),
                    entanglement: Entanglement::Full,
                    scheme: Scheme::VarSaw(TemporalPolicy::Adaptive {
                        initial_interval: 2,
                    }),
                    parallelism: Parallelism::Serial,
                },
                iterations: 60,
                min_runs: 16,
            },
            seed,
            seconds,
            trace,
        ),
        Workload::Table3Mini => table3_mini(seed, seconds, trace),
    }
}

/// SplitMix64 finalizer: decorrelates seeds derived from one workload seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of item `index` under `parent`.
fn derive(parent: u64, index: u64) -> u64 {
    mix(parent ^ mix(index))
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn sum_iterations(runs: &[&RunRecord]) -> f64 {
    runs.iter().map(|r| r.trace.iterations() as f64).sum()
}

/// Iterations per second of wall time.
fn throughput(runs: &[&RunRecord], wall_s: f64) -> f64 {
    sum_iterations(runs) / wall_s
}

/// A workload of repeated single VQE runs.
struct SingleRun {
    problem: Problem,
    iterations: usize,
    /// Runs made however short `--seconds` is; the energy gap is the
    /// median over exactly these, so it depends on the seed only.
    min_runs: usize,
}

fn single_run(w: &SingleRun, seed: u64, seconds: f64, trace: bool) -> Report {
    let hamiltonian = molecular_hamiltonian(&w.problem.spec);
    let reference = hamiltonian.ground_energy(w.problem.spec.seed);
    let shape = w.problem.shape(&hamiltonian);
    let config = VqeConfig {
        max_iterations: w.iterations,
        max_circuits: None,
    };
    let mut report = Report::default();
    let mut runs: Vec<(usize, RunRecord)> = Vec::new();
    let mut est = LayerEstimate::default();
    // Traced, every seed runs twice — untraced, then traced — so the
    // tracing overhead compares identical work; each traced run is
    // replayed right away, under the same machine conditions.
    let start = Instant::now();
    let mut i = 0;
    while i < w.min_runs || start.elapsed().as_secs_f64() < seconds {
        let s = derive(seed, i as u64);
        for traced in [false, true].into_iter().take(1 + trace as usize) {
            report.attempted += 1;
            let outcome = guarded(|| {
                if traced {
                    run_traced(&w.problem, s, &config)
                } else {
                    run_clocked(&w.problem, s, &config)
                }
            })
            .and_then(|r| check_run(&r, &shape, &config).map(|()| r));
            match outcome {
                Ok(r) => {
                    if traced {
                        replay(&w.problem, &shape, &r, REPLAY_BATCHES, &mut est);
                    }
                    runs.push((i, r));
                }
                Err(e) => report.fail(1, format!("run {i} (seed {s}, traced {traced}): {e}")),
            }
        }
        i += 1;
    }
    let peak_rss = peak_rss_mb();

    // The checks across forms: every traced run, and run 0 again through
    // plain `run_method`, must reproduce the untraced run bit for bit.
    let form = |i: usize, traced: bool| {
        runs.iter()
            .find(|(j, r)| *j == i && r.traced.is_some() == traced)
            .map(|(_, r)| &r.trace)
    };
    let s0 = derive(seed, 0);
    report.attempted += 1;
    let plain = guarded(|| run_plain(&w.problem, s0, &config));
    compare(&mut report, "plain run_method", 0, form(0, false), plain);
    if trace {
        for j in 0..i {
            if let Some(t) = form(j, true) {
                compare(&mut report, "decorated", j, form(j, false), Ok(t.clone()));
            }
        }
    } else {
        report.attempted += 1;
        let decorated = guarded(|| run_traced(&w.problem, s0, &config).trace);
        compare(&mut report, "decorated", 0, form(0, false), decorated);
    }

    let (clocked, traced): (Vec<&RunRecord>, Vec<&RunRecord>) = runs
        .iter()
        .map(|(_, r)| r)
        .partition(|r| r.traced.is_none());
    let wall = |rs: &[&RunRecord]| rs.iter().map(|r| r.wall_s).sum::<f64>();
    let ips_clocked = throughput(&clocked, wall(&clocked));
    report
        .details
        .push(("energy_reference".into(), Json::Num(reference)));
    let gaps: Vec<f64> = runs
        .iter()
        .filter(|(i, r)| *i < w.min_runs && r.traced.is_none())
        .map(|(_, r)| r.energy_gap(reference))
        .collect();
    if !trace {
        end_to_end(&mut report, &clocked, wall(&clocked), peak_rss);
        return report;
    }

    let ips_traced = throughput(&traced, wall(&traced));
    let mut split = IterSplit::default();
    split.add(&traced, &shape);
    let layers = Layers {
        runs: &traced,
        split,
        est: &est,
        per: traced.len() as f64,
        trace_overhead: 1.0 - ips_traced / ips_clocked,
        energy_gaps: gaps,
        jobs: None,
        pct_mitigated: None,
    };
    layers.report(&mut report);
    report.spans = Some(spans_jsonl(&traced));
    report
}

/// The end-to-end metrics of untraced `runs`, which took `wall_s`.
fn end_to_end(report: &mut Report, runs: &[&RunRecord], wall_s: f64, peak_rss: Option<f64>) {
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    report.metric(
        "setup_s",
        median(&setups).unwrap_or(f64::NAN),
        "s",
        setups.len(),
    );
    report.metric("iters_per_s", throughput(runs, wall_s), "1/s", runs.len());
    let iter_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.iter_ms.iter().copied())
        .collect();
    report.latency_metrics(&iter_ms);
    let circuits: f64 = runs.iter().map(|r| r.trace.total_circuits() as f64).sum();
    report.metric(
        "circuits_per_iter",
        circuits / sum_iterations(runs),
        "count",
        runs.len(),
    );
    report.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MiB", 1);
}

/// Fails the report unless `other` reproduces the untraced trace of run
/// `j` bit for bit.
fn compare(
    report: &mut Report,
    name: &str,
    j: usize,
    untraced: Option<&VqeTrace>,
    other: Result<VqeTrace, String>,
) {
    match (untraced, other) {
        (Some(a), Ok(b)) if same_trace(a, &b) => {}
        (None, _) => report.fail(1, format!("run {j} did not complete; nothing to compare")),
        (Some(_), Ok(_)) => report.fail(1, format!("run {j}: {name} trace differs")),
        (Some(_), Err(e)) => report.fail(1, format!("run {j}: {name} rerun panicked: {e}")),
    }
}

/// Per-layer numbers of a traced workload, normalized per VQE run (per
/// round for `table3-mini`).
struct Layers<'a> {
    runs: &'a [&'a RunRecord],
    split: IterSplit,
    est: &'a LayerEstimate,
    /// What the totals are divided by.
    per: f64,
    trace_overhead: f64,
    /// `|converged − ground energy|` of the seed-determined runs.
    energy_gaps: Vec<f64>,
    /// Table-3 cell jobs: (job seconds per round, budget-probe seconds).
    jobs: Option<(Vec<Vec<f64>>, Vec<f64>)>,
    pct_mitigated: Option<(f64, usize)>,
}

impl Layers<'_> {
    fn report(&self, report: &mut Report) {
        let n = self.runs.len();
        let per = self.per;
        let spans = |name| {
            let mut t = SpanTotals::default();
            for r in self.runs {
                if let Some(tr) = &r.traced {
                    t.add(SpanTotals::of(&tr.spans, name));
                }
            }
            t
        };
        let evaluate = spans("vqe.evaluate");
        let step = spans("vqe.optimizer.step");
        let hamiltonian: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.traced.as_ref())
            .flat_map(|t| &t.spans)
            .filter(|s| s.name == "chem.hamiltonian")
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect();
        let est = self.est;
        report.metric("vqe.evaluate.busy_s", evaluate.busy_s / per, "s", n);
        report.metric(
            "vqe.evaluate.calls",
            evaluate.calls as f64 / per,
            "count",
            n,
        );
        report.metric("vqe.optimizer.self_s", step.self_s / per, "s", n);
        let circuits: f64 = self
            .runs
            .iter()
            .map(|r| r.trace.total_circuits() as f64)
            .sum();
        report.metric("vqe.circuits", circuits / per, "count", n);
        report.metric("vqe.ansatz.busy_s", est.ansatz_s / per, "s", n);
        report.metric("qsim.prepare.busy_s", est.prepare_s / per, "s", n);
        report.metric("qsim.prepare.calls", est.prepare_calls / per, "count", n);
        report.metric(
            "qsim.plan_cache.hit_ratio",
            est.plan_hit_ratio(),
            "ratio",
            n,
        );
        report.metric("qsim.rotate_read.busy_s", est.rotate_read_s / per, "s", n);
        report.metric("qsim.sample.busy_s", est.sample_s() / per, "s", n);
        report.metric("qsim.sample.shots", est.shots / per, "count", n);
        let ns_global = median(&est.ns_per_shot_global);
        let ns_subset = median(&est.ns_per_shot_subset);
        report.metric(
            "qsim.sample.ns_per_shot.global",
            ns_global.unwrap_or(0.0),
            "ns",
            est.ns_per_shot_global.len(),
        );
        report.metric(
            "qsim.sample.ns_per_shot.subset",
            ns_subset.unwrap_or(0.0),
            "ns",
            est.ns_per_shot_subset.len(),
        );
        report.metric("qnoise.readout.busy_s", est.readout_s / per, "s", n);
        report.metric("qnoise.readout.calls", est.circuits / per, "count", n);
        report.metric("mitigation.marginal.busy_s", est.marginal_s / per, "s", n);
        report.metric(
            "mitigation.reconstruct.busy_s",
            est.reconstruct_s / per,
            "s",
            n,
        );
        report.metric(
            "mitigation.reconstruct.calls",
            est.reconstruct_calls / per,
            "count",
            n,
        );
        report.metric("pauli.energy.busy_s", est.energy_s / per, "s", n);

        let globals: u64 = self
            .runs
            .iter()
            .filter_map(|r| r.traced.as_ref()?.globals_run)
            .sum();
        report.metric("varsaw.globals_run", globals as f64 / per, "count", n);
        let evaluations: usize = self
            .runs
            .iter()
            .filter_map(|r| r.traced.as_ref())
            .flat_map(|t| &t.batches)
            .map(|b| b.params.len())
            .sum();
        report.metric(
            "varsaw.global_fraction",
            globals as f64 / evaluations.max(1) as f64,
            "ratio",
            n,
        );
        let IterSplit {
            global_ms,
            subset_ms,
        } = &self.split;
        report.metric(
            "varsaw.iter_ms.global.p50",
            median(global_ms).unwrap_or(0.0),
            "ms",
            global_ms.len(),
        );
        report.metric(
            "varsaw.iter_ms.subset.p50",
            median(subset_ms).unwrap_or(0.0),
            "ms",
            subset_ms.len(),
        );
        report.metric(
            "varsaw.spatial_plan.build_s",
            est.spatial_plan_s / est.runs.max(1.0),
            "s",
            est.runs as usize,
        );
        report.metric(
            "chem.hamiltonian.build_s",
            median(&hamiltonian).unwrap_or(f64::NAN),
            "s",
            hamiltonian.len(),
        );

        let (job_rounds, probes) = self.jobs.clone().unwrap_or_default();
        let all_jobs: Vec<f64> = job_rounds.iter().flatten().copied().collect();
        let imbalances: Vec<f64> = job_rounds.iter().filter_map(|j| imbalance(j)).collect();
        report.metric(
            "parallel.job_s.p50",
            median(&all_jobs).unwrap_or(0.0),
            "s",
            all_jobs.len(),
        );
        report.metric(
            "parallel.job_s.max",
            all_jobs.iter().copied().fold(0.0, f64::max),
            "s",
            all_jobs.len(),
        );
        report.metric(
            "parallel.imbalance",
            median(&imbalances).unwrap_or(0.0),
            "ratio",
            imbalances.len(),
        );
        let probe_mean = if probes.is_empty() {
            0.0
        } else {
            probes.iter().sum::<f64>() / probes.len() as f64
        };
        report.metric("experiments.budget_probe_s", probe_mean, "s", probes.len());
        report.metric(
            "vqe.energy_gap",
            median(&self.energy_gaps).unwrap_or(f64::NAN),
            "Ha",
            self.energy_gaps.len(),
        );
        let (pct, cells) = self.pct_mitigated.unwrap_or((0.0, 0));
        report.metric("experiments.pct_mitigated", pct, "%", cells);
        report.metric(
            "attributed_frac",
            est.attributed_s() / evaluate.busy_s,
            "ratio",
            n,
        );
        report.metric("trace_overhead_frac", self.trace_overhead, "ratio", n);
    }
}

/// VarSaw iteration latencies split by whether a Global fired, read from
/// each iteration's circuit delta.
#[derive(Debug, Default)]
struct IterSplit {
    global_ms: Vec<f64>,
    subset_ms: Vec<f64>,
}

impl IterSplit {
    fn add(&mut self, runs: &[&RunRecord], shape: &Shape) {
        if !matches!(shape.scheme, Scheme::VarSaw(_)) {
            return;
        }
        for r in runs {
            for (&ms, delta) in r.iter_ms.iter().zip(r.deltas()) {
                if delta > 2 * shape.subset_groups {
                    self.global_ms.push(ms);
                } else {
                    self.subset_ms.push(ms);
                }
            }
        }
    }
}

/// Traced runs' spans as JSON lines, one span per line; the trace
/// identifier is the run's seed.
fn spans_jsonl(runs: &[&RunRecord]) -> String {
    let mut out = String::new();
    for r in runs {
        let Some(t) = &r.traced else { continue };
        for s in &t.spans {
            let line = Json::obj([
                ("trace", Json::Int(r.seed)),
                ("id", Json::Int(s.id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
            ]);
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// Table-3 cells of the mini run: the three 6-qubit molecules across the
/// four entanglement types.
const CELLS: [(&str, Entanglement); 4] = [
    ("CH4", Entanglement::Full),
    ("H2O", Entanglement::Linear),
    ("LiH", Entanglement::Circular),
    ("CH4", Entanglement::Asymmetric),
];

/// SPSA iterations the no-sparsity run gets out of the budget.
const T3_ITERATIONS: u64 = 60;

/// Seed-paired trials per cell.
const T3_TRIALS: u64 = 2;

/// Iterations of the budget probe.
const T3_PROBE_ITERATIONS: usize = 8;

/// Rounds made however short `--seconds` is; the energy gap is the
/// median over exactly these.
const T3_MIN_ROUNDS: usize = 2;

/// VQE runs per cell: the probe plus both methods per trial.
const T3_RUNS_PER_CELL: u64 = 1 + 2 * T3_TRIALS;

/// One cell job of a Table-3 round.
#[derive(Clone, Debug)]
struct CellRecord {
    shape: Shape,
    probe: RunRecord,
    without: Vec<RunRecord>,
    with: Vec<RunRecord>,
    reference: f64,
    pct: f64,
    job_s: f64,
}

impl CellRecord {
    fn runs(&self) -> impl Iterator<Item = &RunRecord> {
        std::iter::once(&self.probe)
            .chain(&self.without)
            .chain(&self.with)
    }
}

fn cell_problem(cell: usize, policy: TemporalPolicy) -> Problem {
    let (molecule, entanglement) = CELLS[cell];
    Problem {
        spec: MoleculeSpec::find(molecule, 6).expect("6-qubit molecules are in Table 2"),
        entanglement,
        scheme: Scheme::VarSaw(policy),
        // As in `run_method`: the executor's default, under the outer
        // `parallel_map`.
        parallelism: Parallelism::Auto,
    }
}

const NO_SPARSITY: TemporalPolicy = TemporalPolicy::EveryIteration;
const ADAPTIVE: TemporalPolicy = TemporalPolicy::Adaptive {
    initial_interval: 2,
};

/// One cell, as `experiments table3` computes it: a budget probe, then
/// seed-paired no-sparsity and adaptive runs under the probe's budget.
fn cell_job(seed: u64, round: u64, cell: usize, traced: bool) -> Result<CellRecord, String> {
    let start = Instant::now();
    let cell_seed = derive(derive(seed, round), cell as u64);
    let without_p = cell_problem(cell, NO_SPARSITY);
    let with_p = cell_problem(cell, ADAPTIVE);
    let run = |p: &Problem, s: u64, c: &VqeConfig| {
        if traced {
            run_traced(p, s, c)
        } else {
            run_clocked(p, s, c)
        }
    };
    let probe_config = VqeConfig {
        max_iterations: T3_PROBE_ITERATIONS,
        max_circuits: None,
    };
    let probe = run(&without_p, derive(cell_seed, u64::MAX), &probe_config);
    let budget = probe.trace.total_circuits() / T3_PROBE_ITERATIONS as u64 * T3_ITERATIONS;
    let spec = &without_p.spec;
    let reference = molecular_hamiltonian(spec).ground_energy(spec.seed);
    let config = VqeConfig {
        max_iterations: usize::MAX >> 1,
        max_circuits: Some(budget),
    };
    let seeds: Vec<u64> = (0..T3_TRIALS)
        .map(|t| derive(cell_seed, t) ^ spec.seed)
        .collect();
    let without = parallel::parallel_map(seeds.clone(), |&s| run(&without_p, s, &config));
    let with = parallel::parallel_map(seeds, |&s| run(&with_p, s, &config));
    let shape = without_p.shape(&molecular_hamiltonian(spec));
    check_run(&probe, &shape, &probe_config).map_err(|e| format!("probe: {e}"))?;
    for r in without.iter().chain(&with) {
        check_run(r, &shape, &config).map_err(|e| format!("seed {}: {e}", r.seed))?;
    }
    let per_trial: Vec<f64> = without
        .iter()
        .zip(&with)
        .map(|(w, a)| {
            percent_gap_recovered(
                reference,
                w.trace.converged_energy(TAIL),
                a.trace.converged_energy(TAIL),
            )
        })
        .collect();
    let pct = median(&per_trial).expect("at least one trial");
    if !pct.is_finite() {
        return Err(format!("cell value {pct}"));
    }
    Ok(CellRecord {
        shape,
        probe,
        without,
        with,
        reference,
        pct,
        job_s: start.elapsed().as_secs_f64(),
    })
}

/// One Table-3 round: every cell, spread over `parallel_map`.
struct Round {
    index: u64,
    wall_s: f64,
    cells: Vec<Result<CellRecord, String>>,
    traced: bool,
}

fn table3_round(seed: u64, index: u64, traced: bool) -> Round {
    let start = Instant::now();
    let cells = parallel::parallel_map((0..CELLS.len()).collect(), |&c| {
        guarded(|| cell_job(seed, index, c, traced)).and_then(|r| r)
    });
    Round {
        index,
        wall_s: start.elapsed().as_secs_f64(),
        cells,
        traced,
    }
}

/// Counts a round's runs as attempted, and those of failed cells as failed.
fn count_round(report: &mut Report, round: &Round) {
    report.attempted += CELLS.len() as u64 * T3_RUNS_PER_CELL;
    for (c, cell) in round.cells.iter().enumerate() {
        if let Err(e) = cell {
            report.fail(
                T3_RUNS_PER_CELL,
                format!("round {} cell {c}: {e}", round.index),
            );
        }
    }
}

/// Fails the report for every cell of `traced` whose value or traces
/// differ from the untraced round's (cells that failed are counted by
/// [`count_round`]).
fn compare_rounds(report: &mut Report, untraced: &Round, traced: &Round) {
    for (c, (a, b)) in untraced.cells.iter().zip(&traced.cells).enumerate() {
        let (Ok(a), Ok(b)) = (a, b) else { continue };
        let same = a.pct.to_bits() == b.pct.to_bits()
            && a.runs().count() == b.runs().count()
            && a.runs()
                .zip(b.runs())
                .all(|(x, y)| same_trace(&x.trace, &y.trace));
        if !same {
            report.fail(
                T3_RUNS_PER_CELL,
                format!(
                    "round {} cell {c}: the traced round differs from the untraced one",
                    untraced.index
                ),
            );
        }
    }
}

/// Replays every VQE run of a traced round.
fn replay_round(round: &Round, est: &mut LayerEstimate) {
    for (c, cell) in round.cells.iter().enumerate() {
        let Ok(cell) = cell else { continue };
        let without = cell_problem(c, NO_SPARSITY);
        let with = cell_problem(c, ADAPTIVE);
        for r in std::iter::once(&cell.probe).chain(&cell.without) {
            replay(&without, &cell.shape, r, T3_REPLAY_BATCHES, est);
        }
        for r in &cell.with {
            replay(&with, &cell.shape, r, T3_REPLAY_BATCHES, est);
        }
    }
}

fn table3_mini(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut rounds: Vec<Round> = Vec::new();
    // Traced, every round runs twice — untraced, then traced — so the
    // tracing overhead compares identical work; each traced round is
    // replayed right away, under the same machine conditions.
    let start = Instant::now();
    let mut index = 0;
    let mut est = LayerEstimate::default();
    while (index as usize) < T3_MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        rounds.push(table3_round(seed, index, false));
        if trace {
            let round = table3_round(seed, index, true);
            replay_round(&round, &mut est);
            rounds.push(round);
        }
        index += 1;
    }
    let peak_rss = peak_rss_mb();
    for round in &rounds {
        count_round(&mut report, round);
    }

    // The checks across forms: every cell value and trace of a traced
    // round must match its untraced twin bit for bit (untraced, round 0
    // is rerun traced for the comparison).
    if trace {
        for pair in rounds.chunks(2) {
            compare_rounds(&mut report, &pair[0], &pair[1]);
        }
    } else {
        let rerun = table3_round(seed, 0, true);
        count_round(&mut report, &rerun);
        compare_rounds(&mut report, &rounds[0], &rerun);
    }

    let ok_cells = |traced: bool| {
        rounds
            .iter()
            .filter(move |r| r.traced == traced)
            .flat_map(|r| r.cells.iter().filter_map(|c| c.as_ref().ok()))
    };
    let pcts: Vec<f64> = ok_cells(false).map(|c| c.pct).collect();
    let pct_mitigated = median(&pcts).unwrap_or(f64::NAN);
    report.details.push((
        "cells".into(),
        Json::Arr(
            rounds
                .iter()
                .map(|r| {
                    Json::Arr(
                        r.cells
                            .iter()
                            .map(|c| c.as_ref().map_or(Json::Null, |c| Json::Num(c.pct)))
                            .collect(),
                    )
                })
                .collect(),
        ),
    ));
    report
        .details
        .push(("pct_mitigated".into(), Json::Num(pct_mitigated)));
    let wall = |traced: bool| {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .sum::<f64>()
    };
    let clocked_runs: Vec<&RunRecord> = ok_cells(false).flat_map(|c| c.runs()).collect();
    let ips_clocked = throughput(&clocked_runs, wall(false));

    let gaps: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced && (r.index as usize) < T3_MIN_ROUNDS)
        .flat_map(|r| r.cells.iter().filter_map(|c| c.as_ref().ok()))
        .flat_map(|c| c.with.iter().map(|r| r.energy_gap(c.reference)))
        .collect();
    if !trace {
        end_to_end(&mut report, &clocked_runs, wall(false), peak_rss);
        return report;
    }

    let traced_cells: Vec<&CellRecord> = ok_cells(true).collect();
    let traced_runs: Vec<&RunRecord> = traced_cells.iter().flat_map(|c| c.runs()).collect();
    let traced_rounds = rounds.iter().filter(|r| r.traced).count();
    let mut split = IterSplit::default();
    for cell in &traced_cells {
        split.add(&cell.runs().collect::<Vec<_>>(), &cell.shape);
    }
    let job_rounds: Vec<Vec<f64>> = rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| {
            r.cells
                .iter()
                .filter_map(|c| c.as_ref().ok().map(|c| c.job_s))
                .collect()
        })
        .collect();
    let probes: Vec<f64> = traced_cells.iter().map(|c| c.probe.wall_s).collect();
    let ips_traced = throughput(&traced_runs, wall(true));
    let layers = Layers {
        runs: &traced_runs,
        split,
        est: &est,
        per: traced_rounds as f64,
        trace_overhead: 1.0 - ips_traced / ips_clocked,
        energy_gaps: gaps,
        jobs: Some((job_rounds, probes)),
        pct_mitigated: Some((pct_mitigated, pcts.len())),
    };
    layers.report(&mut report);
    report.spans = Some(spans_jsonl(&traced_runs));
    report
}
