//! Timing seams around the program's public traits: a per-iteration
//! clock for untraced runs, and span-recording decorators of
//! [`EnergyEvaluator`] and [`Optimizer`] for traced runs.

use crate::stats::Span;
use std::cell::RefCell;
use std::time::Instant;
use vqe::{BatchObjective, EnergyEvaluator, Optimizer, StepResult};

/// Wraps an optimizer and records, without tracing, when its first step
/// began and how long every step took.
pub struct StepClock<O> {
    inner: O,
    first_step: Option<Instant>,
    iter_ms: Vec<f64>,
}

impl<O: Optimizer> StepClock<O> {
    /// Clocks `inner`.
    pub fn new(inner: O) -> Self {
        StepClock {
            inner,
            first_step: None,
            iter_ms: Vec::new(),
        }
    }

    /// When the first step began, if one ran.
    pub fn first_step(&self) -> Option<Instant> {
        self.first_step
    }

    /// Every step's duration, in milliseconds.
    pub fn into_iter_ms(self) -> Vec<f64> {
        self.iter_ms
    }

    fn timed(&mut self, step: impl FnOnce(&mut O) -> StepResult) -> StepResult {
        let start = Instant::now();
        self.first_step.get_or_insert(start);
        let result = step(&mut self.inner);
        self.iter_ms.push(start.elapsed().as_secs_f64() * 1e3);
        result
    }
}

impl<O: Optimizer> Optimizer for StepClock<O> {
    fn step(&mut self, params: &mut [f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> StepResult {
        self.timed(|o| o.step(params, objective))
    }

    fn step_batch(&mut self, params: &mut [f64], objective: &mut dyn BatchObjective) -> StepResult {
        self.timed(|o| o.step_batch(params, objective))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One evaluator dispatch observed by [`TracedEvaluator`]: the probe
/// points it measured and the circuits it executed.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The parameter vectors, in dispatch order.
    pub params: Vec<Vec<f64>>,
    /// Circuits the dispatch executed.
    pub circuits: u64,
}

/// The in-memory span store of one traced VQE run. Every span of the run
/// shares the run's trace identifier; spans nest by the order in which
/// they open.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    batches: Vec<Batch>,
}

impl Recorder {
    /// A recorder whose time zero is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batches: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in nesting order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(cell: &RefCell<Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = cell.borrow_mut().open(name);
        let r = f();
        cell.borrow_mut().close(id);
        r
    }

    /// The recorded spans and evaluator dispatches.
    pub fn finish(self) -> (Vec<Span>, Vec<Batch>) {
        assert!(self.open.is_empty(), "every span was closed");
        (self.spans, self.batches)
    }
}

/// An [`EnergyEvaluator`] decorator: one `vqe.evaluate` span per dispatch,
/// plus the dispatch's probe points and circuit count for the replay.
pub struct TracedEvaluator<'r, E> {
    inner: E,
    recorder: &'r RefCell<Recorder>,
}

impl<'r, E: EnergyEvaluator> TracedEvaluator<'r, E> {
    /// Decorates `inner`, recording into `recorder`.
    pub fn new(inner: E, recorder: &'r RefCell<Recorder>) -> Self {
        TracedEvaluator { inner, recorder }
    }

    /// The decorated evaluator.
    pub fn into_inner(self) -> E {
        self.inner
    }

    fn traced(&mut self, param_sets: &[&[f64]], f: impl FnOnce(&mut E) -> Vec<f64>) -> Vec<f64> {
        let before = self.inner.circuits_executed();
        let values = Recorder::span(self.recorder, "vqe.evaluate", || f(&mut self.inner));
        self.recorder.borrow_mut().batches.push(Batch {
            params: param_sets.iter().map(|p| p.to_vec()).collect(),
            circuits: self.inner.circuits_executed() - before,
        });
        values
    }
}

impl<E: EnergyEvaluator> EnergyEvaluator for TracedEvaluator<'_, E> {
    fn evaluate(&mut self, params: &[f64]) -> f64 {
        self.traced(&[params], |e| vec![e.evaluate(params)])[0]
    }

    fn evaluate_batch(&mut self, param_sets: &[&[f64]]) -> Vec<f64> {
        self.traced(param_sets, |e| e.evaluate_batch(param_sets))
    }

    fn circuits_executed(&self) -> u64 {
        self.inner.circuits_executed()
    }
}

/// An [`Optimizer`] decorator: one `vqe.optimizer.step` span per step.
pub struct TracedOptimizer<'r, O> {
    inner: O,
    recorder: &'r RefCell<Recorder>,
}

impl<'r, O: Optimizer> TracedOptimizer<'r, O> {
    /// Decorates `inner`, recording into `recorder`.
    pub fn new(inner: O, recorder: &'r RefCell<Recorder>) -> Self {
        TracedOptimizer { inner, recorder }
    }
}

impl<O: Optimizer> Optimizer for TracedOptimizer<'_, O> {
    fn step(&mut self, params: &mut [f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> StepResult {
        let inner = &mut self.inner;
        Recorder::span(self.recorder, "vqe.optimizer.step", || {
            inner.step(params, objective)
        })
    }

    fn step_batch(&mut self, params: &mut [f64], objective: &mut dyn BatchObjective) -> StepResult {
        let inner = &mut self.inner;
        Recorder::span(self.recorder, "vqe.optimizer.step", || {
            inner.step_batch(params, objective)
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SpanTotals;

    /// An objective that counts its evaluations as circuits.
    struct Quadratic(u64);

    impl EnergyEvaluator for Quadratic {
        fn evaluate(&mut self, params: &[f64]) -> f64 {
            self.0 += 1;
            params.iter().map(|x| x * x).sum()
        }

        fn circuits_executed(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn decorators_nest_spans_and_change_nothing() {
        let config = vqe::VqeConfig {
            max_iterations: 5,
            max_circuits: None,
        };
        let plain = vqe::run_vqe(
            &mut Quadratic(0),
            &mut vqe::Spsa::new(1),
            vec![1.0, -1.0],
            &config,
        );
        let rec = RefCell::new(Recorder::new());
        let mut eval = TracedEvaluator::new(Quadratic(0), &rec);
        let mut spsa = TracedOptimizer::new(vqe::Spsa::new(1), &rec);
        let traced = vqe::run_vqe(&mut eval, &mut spsa, vec![1.0, -1.0], &config);
        assert_eq!(plain, traced);

        let (spans, batches) = rec.into_inner().finish();
        assert_eq!(spans.len(), 10);
        assert_eq!(batches.len(), 5);
        assert!(batches
            .iter()
            .all(|b| b.params.len() == 2 && b.circuits == 2));
        for pair in spans.chunks(2) {
            assert_eq!(pair[0].name, "vqe.optimizer.step");
            assert_eq!(pair[1].name, "vqe.evaluate");
            assert_eq!(pair[1].parent, Some(pair[0].id));
            assert!(pair[0].start_ns <= pair[1].start_ns && pair[1].end_ns <= pair[0].end_ns);
        }
        let step = SpanTotals::of(&spans, "vqe.optimizer.step");
        let evaluate = SpanTotals::of(&spans, "vqe.evaluate");
        assert!((step.self_s - (step.busy_s - evaluate.busy_s)).abs() < 1e-12);
    }

    #[test]
    fn step_clock_times_every_step() {
        let mut clock = StepClock::new(vqe::Spsa::new(2));
        let config = vqe::VqeConfig {
            max_iterations: 4,
            max_circuits: None,
        };
        vqe::run_vqe(&mut Quadratic(0), &mut clock, vec![0.5], &config);
        assert!(clock.first_step().is_some());
        assert_eq!(clock.into_iter_ms().len(), 4);
    }
}
