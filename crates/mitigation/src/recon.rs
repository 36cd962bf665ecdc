//! The Bayesian-reconstruction engine: allocation-free, key-cached, and
//! optionally parallel.
//!
//! [`reconstruct`](crate::reconstruct) is the hottest classical kernel of
//! a VarSaw evaluation (`reconstruction/varsaw_h2o8_chain`): both VQE
//! evaluators re-run it per basis group per tuner iteration, yet the
//! expensive parts of each update — resolving where every local qubit
//! sits inside the global outcome index and projecting all `2^n` outcomes
//! onto the window — depend only on the *(global-qubits, local-qubits)*
//! geometry, which never changes across iterations. [`Reconstructor`]
//! exploits that:
//!
//! - **Key caching.** The `2^n`-entry projection-key table of every
//!   (global, local) signature is computed once and cached; later sweeps
//!   reuse it with a cheap signature lookup.
//! - **One fused pass per update.** Each Bayesian update reweights the
//!   outcome array in place and, in the same pass, sums the reweighted
//!   outcomes into the post-update mass *and* into the next update's
//!   marginal partials. When normalization fires, the divide pass
//!   re-accumulates those partials instead. Only the first update, an
//!   update after a skipped one, and a change of chunk grid between
//!   consecutive windows need a standalone marginal pass. No
//!   intermediate [`Pmf`]s, marginals, or ratio vectors are built per
//!   call, and the serial path allocates nothing per update.
//! - **Parallel chunks.** The outcome range is split into fixed-size
//!   chunks; scoped workers (from `crates/parallel`, behind the same
//!   [`Parallelism`] seam the statevector engine uses) each own a
//!   contiguous run of whole chunks as plain `&mut [f64]`, and the caller
//!   reduces the per-chunk partials and masses in chunk order.
//!
//! # Bit-identical results
//!
//! Serial, key-cached, and threaded execution produce bit-identical
//! output PMFs: the chunk grid is a pure function of the problem shape
//! (outcome count and window size), never of the worker count, so the
//! floating-point reduction order is fixed and the partition only changes
//! *which thread* computes a partial, never the arithmetic. Fusing a
//! marginal into the previous update's pass keeps every addition in the
//! same order, because it sums the same final values over the same chunk
//! grid. For globals that fit in a single chunk (up to 12 qubits) the
//! kernel is additionally bit-identical to a textbook sequential
//! implementation; beyond that the chunk-ordered marginal reduction
//! re-associates sums and agreement is within floating-point tolerance
//! instead. The property tests in `tests/recon_equiv.rs` assert exact
//! equality across qubit counts, window sizes, rounds, and thread counts.

use crate::bayes::ReconstructionConfig;
use crate::pmf::Pmf;
use parallel::Parallelism;

/// Outcomes per partition chunk. Fixed (never derived from the worker
/// count) so the chunk grid — and with it the floating-point reduction
/// order — depends only on the problem shape, keeping serial and threaded
/// sweeps bit-identical. Globals at or below this size run single-chunk,
/// where the kernel matches a textbook sequential update bit for bit.
const CHUNK_OUTCOMES: usize = 1 << 12;

/// Smallest outcome count for which [`Parallelism::Auto`] goes threaded.
/// Below this (< 15 qubits) a whole sweep costs less than spawning.
const AUTO_MIN_OUTCOMES: usize = 1 << 15;

/// A cached projection-key table: `keys[x]` is the window outcome that
/// global outcome `x` projects to, for one (global, local) signature.
#[derive(Clone, Debug)]
struct KeyTable {
    global: Vec<usize>,
    local: Vec<usize>,
    keys: Vec<u32>,
}

/// The number of chunks the outcome range splits into for a window of
/// `k` outcomes: `dim / CHUNK_OUTCOMES`, capped so the per-chunk partial
/// histograms never outweigh the outcome array itself (relevant only for
/// windows spanning most of the register). All quantities are powers of
/// two, so chunks always divide `dim` exactly.
fn chunk_count(dim: usize, k: usize) -> usize {
    (dim / CHUNK_OUTCOMES).max(1).min((dim / k).max(1))
}

/// How a pass rescales each outcome in place.
#[derive(Clone, Copy)]
enum Scale<'a> {
    /// Leaves outcomes unchanged: a standalone marginal pass.
    Keep,
    /// Multiplies outcome `x` by `ratio[keys[x]]`: the Bayesian reweight.
    Ratio { keys: &'a [u32], ratio: &'a [f64] },
    /// Divides by the post-reweight mass: normalization.
    Divide(f64),
}

/// A window whose marginal a pass accumulates: its projection keys and
/// outcome count (the partials hold `k` slots per chunk).
#[derive(Clone, Copy)]
struct Window<'a> {
    keys: &'a [u32],
    k: usize,
}

/// One pass over the outcome plane on a fixed chunk grid: rescale every
/// outcome, record each chunk's rescaled mass and, optionally, each
/// chunk's partial marginal of `window` over the rescaled outcomes.
#[derive(Clone, Copy)]
struct Pass<'a> {
    chunk_len: usize,
    scale: Scale<'a>,
    window: Option<Window<'a>>,
}

impl Pass<'_> {
    /// Runs the pass over a contiguous run of whole chunks starting at
    /// chunk `first`. `partials` and `totals` are the run's slices of the
    /// chunk-major partial histograms and per-chunk masses.
    fn run(&self, first: usize, plane: &mut [f64], partials: &mut [f64], totals: &mut [f64]) {
        let len = self.chunk_len;
        for (c, (chunk, total)) in plane.chunks_exact_mut(len).zip(totals).enumerate() {
            let xs = (first + c) * len..(first + c + 1) * len;
            let acc = self
                .window
                .map(|w| (&w.keys[xs.clone()], &mut partials[c * w.k..(c + 1) * w.k]));
            *total = match self.scale {
                Scale::Keep => rescale_chunk(chunk, |_, p| p, acc),
                Scale::Ratio { keys, ratio } => {
                    let keys = &keys[xs];
                    rescale_chunk(chunk, |i, p| p * ratio[keys[i] as usize], acc)
                }
                Scale::Divide(t) => rescale_chunk(chunk, |_, p| p / t, acc),
            };
        }
    }
}

/// The kernel every pass runs per chunk: `p = scale(i, p)` for each
/// outcome in order, summing the new values into the returned chunk mass
/// and, given `acc = (keys, part)`, into `part[keys[i]]` (zeroed first).
#[inline(always)]
fn rescale_chunk(
    chunk: &mut [f64],
    scale: impl Fn(usize, f64) -> f64,
    acc: Option<(&[u32], &mut [f64])>,
) -> f64 {
    let mut t = 0.0;
    match acc {
        Some((keys, part)) => {
            part.fill(0.0);
            for (i, (p, &key)) in chunk.iter_mut().zip(keys).enumerate() {
                let v = scale(i, *p);
                *p = v;
                t += v;
                part[key as usize] += v;
            }
        }
        None => {
            for (i, p) in chunk.iter_mut().enumerate() {
                let v = scale(i, *p);
                *p = v;
                t += v;
            }
        }
    }
    t
}

/// Runs `pass` over `chunks` chunks of `plane` on up to `workers` scoped
/// threads, each owning a contiguous run of whole chunks. One worker runs
/// on the calling thread with no allocation.
fn dispatch(
    pass: Pass<'_>,
    workers: usize,
    chunks: usize,
    plane: &mut [f64],
    partials: &mut [f64],
    totals: &mut [f64],
) {
    let k = pass.window.map_or(0, |w| w.k);
    let mut partials = &mut partials[..chunks * k];
    let mut totals = &mut totals[..chunks];
    let workers = workers.min(chunks);
    if workers == 1 {
        pass.run(0, plane, partials, totals);
        return;
    }
    let mut plane = plane;
    let mut runs = Vec::with_capacity(workers);
    for w in 0..workers {
        let r = parallel::worker_range(chunks, workers, w);
        let (p, rest) = std::mem::take(&mut plane).split_at_mut(r.len() * pass.chunk_len);
        plane = rest;
        let (q, rest) = std::mem::take(&mut partials).split_at_mut(r.len() * k);
        partials = rest;
        let (t, rest) = std::mem::take(&mut totals).split_at_mut(r.len());
        totals = rest;
        runs.push((r.start, p, q, t));
    }
    parallel::for_each_chunk_mut(&mut runs, workers, |_, runs| {
        for (first, p, q, t) in runs {
            pass.run(*first, p, q, t);
        }
    });
}

/// A reusable Bayesian-reconstruction engine: the `2^n`-entry
/// projection-key table of every (global-qubits, local-qubits) signature
/// is computed once and cached, each update runs as one fused in-place
/// pass (plus a divide pass when normalization fires) over preallocated
/// scratch (no intermediate [`Pmf`]s), and large globals split into
/// chunks processed on scoped worker threads behind the same
/// [`Parallelism`] seam the statevector engine uses.
///
/// One `Reconstructor` should persist wherever reconstruction repeats
/// with the same measurement geometry — `varsaw`'s evaluators keep one
/// across all VQE iterations, so every sweep after the first runs with
/// zero key-table construction and zero scratch allocation. The one-shot
/// [`crate::reconstruct`] / [`crate::bayesian_update`] functions are thin
/// wrappers over a temporary instance.
///
/// Serial, key-cached, and threaded sweeps are **bit-identical**: the
/// chunk grid is a pure function of the problem shape (outcome count and
/// window size), never of the worker count, so the floating-point
/// reduction order is fixed and the partition only changes *which
/// thread* computes a partial, never the arithmetic. See the
/// "reconstruction hot path" section of `ARCHITECTURE.md` and the
/// property tests in `tests/recon_equiv.rs`.
///
/// # Examples
///
/// ```
/// use mitigation::{Pmf, Reconstructor, ReconstructionConfig};
///
/// let global = Pmf::new(vec![0, 1], vec![0.35, 0.15, 0.15, 0.35]);
/// let local = Pmf::new(vec![0], vec![0.95, 0.05]);
/// let mut engine = Reconstructor::new();
/// let out = engine.reconstruct(&global, &[local], ReconstructionConfig::default());
/// assert!(out.marginal(&[0]).prob(0) > 0.9);
/// // The projection-key table is now cached for later iterations.
/// assert_eq!(engine.cached_key_tables(), 1);
/// ```
#[derive(Debug)]
pub struct Reconstructor {
    parallelism: Parallelism,
    tables: Vec<KeyTable>,
    /// Table index per local of the sweep in progress (reused scratch).
    order: Vec<usize>,
    // Sweep scratch: chunk-major partial marginals, per-chunk masses, and
    // the reduced marginal and ratio of the update in progress.
    partials: Vec<f64>,
    totals: Vec<f64>,
    marg: Vec<f64>,
    ratio: Vec<f64>,
}

impl Default for Reconstructor {
    fn default() -> Self {
        Reconstructor::new()
    }
}

impl Clone for Reconstructor {
    /// Clones the configuration and the cached key tables; sweep scratch
    /// is transient and starts empty in the clone.
    fn clone(&self) -> Self {
        Reconstructor {
            tables: self.tables.clone(),
            ..Reconstructor::new().with_parallelism(self.parallelism)
        }
    }
}

impl Reconstructor {
    /// A fresh engine with no cached tables, dispatching
    /// [`Parallelism::Auto`].
    pub fn new() -> Self {
        Reconstructor {
            parallelism: Parallelism::Auto,
            tables: Vec::new(),
            order: Vec::new(),
            partials: Vec::new(),
            totals: Vec::new(),
            marg: Vec::new(),
            ratio: Vec::new(),
        }
    }
    /// Sets how sweeps spread across threads (default
    /// [`Parallelism::Auto`]: threaded from 2¹⁵ outcomes up). The choice
    /// never changes results — all dispatch modes are bit-identical.
    pub fn with_parallelism(mut self, mode: Parallelism) -> Self {
        self.parallelism = mode;
        self
    }

    /// The configured dispatch mode.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// How many (global, local) projection-key tables are cached.
    pub fn cached_key_tables(&self) -> usize {
        self.tables.len()
    }

    /// Drops all cached key tables (e.g. after a workload change to a
    /// disjoint set of measurement geometries).
    pub fn clear_key_cache(&mut self) {
        self.tables.clear();
    }

    /// JigSaw's full reconstruction: starts from the Global-PMF and
    /// applies the Bayesian update for every Local-PMF, returning the
    /// Output-PMF. Equivalent to [`crate::reconstruct`] but reusing this
    /// engine's cached key tables and scratch.
    ///
    /// # Panics
    ///
    /// Panics if a local PMF measures a qubit the global does not.
    pub fn reconstruct(
        &mut self,
        global: &Pmf,
        locals: &[Pmf],
        config: ReconstructionConfig,
    ) -> Pmf {
        let mut out = global.clone();
        self.sweep(&mut out, locals, config);
        out
    }

    /// Applies one Bayesian update of `global` by the evidence `local`,
    /// in place. Equivalent to [`crate::bayesian_update`] but reusing
    /// this engine's cached key tables and scratch.
    ///
    /// # Panics
    ///
    /// Panics if some qubit of `local` is not measured by `global`.
    pub fn update(&mut self, global: &mut Pmf, local: &Pmf, epsilon: f64) {
        self.sweep(
            global,
            std::slice::from_ref(local),
            ReconstructionConfig { epsilon, rounds: 1 },
        );
    }

    /// Runs `config.rounds` sweeps of Bayesian updates over `locals`,
    /// mutating `output` in place. `rounds: 0` leaves it untouched.
    ///
    /// # Panics
    ///
    /// Panics if a local measures a qubit `output` does not, or a window
    /// exceeds 32 qubits.
    pub fn sweep(&mut self, output: &mut Pmf, locals: &[Pmf], config: ReconstructionConfig) {
        if config.rounds == 0 || locals.is_empty() {
            return;
        }
        let _span = telemetry::span(telemetry::Stage::Reconstruction);
        let dim = output.probs().len();

        self.order.clear();
        for local in locals {
            let idx = self.table_index(output, local);
            self.order.push(idx);
        }
        // `resize` keeps the capacity, so only the first sweep of a
        // geometry allocates.
        let shapes = locals.iter().map(|l| {
            let k = l.probs().len();
            (k, chunk_count(dim, k))
        });
        let k_max = shapes.clone().map(|(k, _)| k).max().expect("nonempty");
        let chunks_max = shapes.clone().map(|(_, c)| c).max().expect("nonempty");
        let partial_max = shapes.map(|(k, c)| k * c).max().expect("nonempty");
        self.partials.resize(partial_max, 0.0);
        self.totals.resize(chunks_max, 0.0);
        self.marg.resize(k_max, 0.0);
        self.ratio.resize(k_max, 0.0);

        let workers = self.resolve_workers(dim);
        let Reconstructor {
            tables,
            order,
            partials,
            totals,
            marg,
            ratio,
            ..
        } = self;
        let window = |li: usize| Window {
            keys: &tables[order[li]].keys[..dim],
            k: locals[li].probs().len(),
        };
        let plane = output.probs_mut();
        let steps = config.rounds * locals.len();
        // Whether `partials` already holds the marginal of the update
        // about to run (accumulated by the previous update's last pass).
        let mut primed = false;
        for step in 0..steps {
            let li = step % locals.len();
            let lp = locals[li].probs();
            let win = window(li);
            let k = win.k;
            let chunks = chunk_count(dim, k);
            let pass = |scale, window| Pass {
                chunk_len: dim / chunks,
                scale,
                window,
            };
            if !primed {
                let marginal = pass(Scale::Keep, Some(win));
                dispatch(marginal, workers, chunks, plane, partials, totals);
            }

            // Reduce the partials in fixed chunk order, then compute the
            // guarded ratios. The update is Bayes conditioned on the
            // prior's support: window outcomes whose prior marginal is at
            // or below epsilon keep their mass *exactly* (ratio 1 with
            // the evidence renormalized around them), so near-zero prior
            // mass is neither amplified by up to local/epsilon nor eroded
            // by normalization drift, however many rounds run. If the
            // prior supports no outcome carrying local evidence the update
            // is skipped — reweighting would annihilate all mass.
            for (j, m) in marg[..k].iter_mut().enumerate() {
                let mut s = 0.0;
                for c in 0..chunks {
                    s += partials[c * k + j];
                }
                *m = s;
            }
            // Unsupported prior mass (frozen) and the local evidence mass
            // on supported outcomes.
            let mut unsupported = 0.0;
            let mut supported_evidence = 0.0;
            for (&m, &l) in marg[..k].iter().zip(lp) {
                if m > config.epsilon {
                    supported_evidence += l;
                } else {
                    unsupported += m;
                }
            }
            if supported_evidence <= 0.0 {
                primed = false;
                continue;
            }
            let scale = (1.0 - unsupported) / supported_evidence;
            for ((r, &m), &l) in ratio[..k].iter_mut().zip(&marg[..k]).zip(lp) {
                *r = if m > config.epsilon {
                    l * scale / m
                } else {
                    1.0
                };
            }

            // The next update's marginal rides along when it shares this
            // update's chunk grid (a wide window can cap its grid).
            let next = (step + 1 < steps)
                .then(|| window((step + 1) % locals.len()))
                .filter(|w| chunk_count(dim, w.k) == chunks);
            let reweight = pass(
                Scale::Ratio {
                    keys: win.keys,
                    ratio: &ratio[..k],
                },
                next,
            );
            dispatch(reweight, workers, chunks, plane, partials, totals);
            let t = totals[..chunks].iter().fold(0.0, |t, &c| t + c);
            // Normalize, mirroring `Pmf::normalize`'s skip of already-unit
            // mass; the partials are then re-accumulated from the
            // normalized values.
            if (t - 1.0).abs() > 1e-15 {
                let divide = pass(Scale::Divide(t), next);
                dispatch(divide, workers, chunks, plane, partials, totals);
            }
            primed = next.is_some();
        }
    }

    /// The cached key-table index for the (global, local) signature,
    /// building the table on first sight. The short local qubit list is
    /// compared first, so a miss rarely touches the global list.
    fn table_index(&mut self, global: &Pmf, local: &Pmf) -> usize {
        if let Some(i) = self.tables.iter().position(|t| {
            t.local.as_slice() == local.qubits() && t.global.as_slice() == global.qubits()
        }) {
            return i;
        }
        assert!(
            local.num_qubits() <= 32,
            "window of {} qubits exceeds the 32-qubit key width",
            local.num_qubits()
        );
        let positions = global.projection_positions(local.qubits());
        let keys = (0..global.probs().len())
            .map(|x| {
                let mut key = 0u32;
                for (j, &pos) in positions.iter().enumerate() {
                    key |= (((x >> pos) & 1) as u32) << j;
                }
                key
            })
            .collect();
        self.tables.push(KeyTable {
            global: global.qubits().to_vec(),
            local: local.qubits().to_vec(),
            keys,
        });
        self.tables.len() - 1
    }

    /// The worker count a sweep over `dim` outcomes uses.
    fn resolve_workers(&self, dim: usize) -> usize {
        let cap = (dim / CHUNK_OUTCOMES).max(1).min(parallel::MAX_THREADS);
        match self.parallelism {
            Parallelism::Serial => 1,
            Parallelism::Threads(t) => t.clamp(1, cap),
            Parallelism::Auto => {
                if dim >= AUTO_MIN_OUTCOMES {
                    parallel::num_threads().min(cap)
                } else {
                    1
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn global3() -> Pmf {
        Pmf::new(
            vec![0, 1, 2],
            vec![0.2, 0.05, 0.1, 0.15, 0.05, 0.1, 0.15, 0.2],
        )
    }

    #[test]
    fn key_tables_cached_by_signature() {
        let global = global3();
        let locals = vec![global.marginal(&[0, 1]), global.marginal(&[1, 2])];
        let mut r = Reconstructor::new();
        r.reconstruct(&global, &locals, ReconstructionConfig::default());
        assert_eq!(r.cached_key_tables(), 2);
        // Same geometry: no new tables.
        r.reconstruct(&global, &locals, ReconstructionConfig::default());
        assert_eq!(r.cached_key_tables(), 2);
        // A new window geometry adds exactly one.
        r.reconstruct(
            &global,
            &[global.marginal(&[0, 2])],
            ReconstructionConfig::default(),
        );
        assert_eq!(r.cached_key_tables(), 3);
        r.clear_key_cache();
        assert_eq!(r.cached_key_tables(), 0);
    }

    #[test]
    fn cached_and_fresh_runs_are_bit_identical() {
        let global = global3();
        let locals = vec![
            Pmf::new(vec![0, 1], vec![0.4, 0.3, 0.2, 0.1]),
            Pmf::new(vec![1, 2], vec![0.1, 0.2, 0.3, 0.4]),
        ];
        let cfg = ReconstructionConfig::default();
        let mut engine = Reconstructor::new();
        let first = engine.reconstruct(&global, &locals, cfg);
        let prekeyed = engine.reconstruct(&global, &locals, cfg);
        let fresh = Reconstructor::new().reconstruct(&global, &locals, cfg);
        assert_eq!(first.probs(), prekeyed.probs());
        assert_eq!(first.probs(), fresh.probs());
    }

    #[test]
    fn serial_and_threaded_agree_bitwise_on_small_inputs() {
        let global = global3();
        let locals = vec![Pmf::new(vec![0], vec![0.9, 0.1])];
        let cfg = ReconstructionConfig::default();
        let serial = Reconstructor::new()
            .with_parallelism(Parallelism::Serial)
            .reconstruct(&global, &locals, cfg);
        for t in [2, 3, 8] {
            let threaded = Reconstructor::new()
                .with_parallelism(Parallelism::Threads(t))
                .reconstruct(&global, &locals, cfg);
            assert_eq!(serial.probs(), threaded.probs(), "{t} threads");
        }
    }

    #[test]
    fn incompatible_evidence_is_skipped() {
        // The prior supports only q0=0; the local insists on q0=1. No
        // supported window outcome carries evidence, so the update is a
        // documented no-op instead of annihilating all mass.
        let global = Pmf::new(vec![0, 1], vec![0.6, 0.0, 0.4, 0.0]);
        let local = Pmf::new(vec![0], vec![0.0, 1.0]);
        let out =
            Reconstructor::new().reconstruct(&global, &[local], ReconstructionConfig::default());
        assert_eq!(out.probs(), global.probs());
    }

    #[test]
    fn chunk_grid_is_worker_independent() {
        assert_eq!(chunk_count(1 << 10, 4), 1);
        assert_eq!(chunk_count(1 << 12, 4), 1);
        assert_eq!(chunk_count(1 << 13, 4), 2);
        assert_eq!(chunk_count(1 << 16, 4), 16);
        // Huge windows cap the grid so partials never outweigh the plane.
        assert_eq!(chunk_count(1 << 16, 1 << 14), 4);
        assert_eq!(chunk_count(1 << 16, 1 << 16), 1);
    }

    #[test]
    fn clone_keeps_tables_but_not_scratch() {
        let global = global3();
        let mut r = Reconstructor::new();
        r.reconstruct(
            &global,
            &[global.marginal(&[0, 1])],
            ReconstructionConfig::default(),
        );
        let c = r.clone();
        assert_eq!(c.cached_key_tables(), 1);
        assert!(c.partials.is_empty());
        assert_eq!(c.parallelism(), r.parallelism());
    }
}
