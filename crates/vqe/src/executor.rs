//! Noisy circuit execution with cost accounting.

use crate::basis::basis_rotation;
use mitigation::Pmf;
use pauli::PauliString;
use qnoise::{apply_depolarizing, apply_readout_errors, DeviceModel, ReadoutError};
use qsim::shard::auto_shard_count;
use qsim::{
    CapacityError, Circuit, CircuitPlan, FaultInjection, FaultSchedule, Parallelism, PlanCache,
    RankGauge, ShardPlan, ShardedState, Sharding, SharedPlanCache, Statevector, TransportError,
    TransportMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Why state preparation could not produce a statevector: either the state
/// would not fit (admission control refused the allocation up front), or —
/// under the sharded executor with a message-passing transport — a rank
/// failed mid-plan and the error surfaced through the transport seam.
///
/// Schedulers branch on the two arms differently: a [`CapacityError`] is a
/// property of the *request* (re-submitting won't help on this host), while
/// a [`TransportError`] is a property of the *execution* (the job may be
/// retried on a fresh state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrepareError {
    /// The state allocation was refused before any simulation ran.
    Capacity(CapacityError),
    /// A shard-transport failure interrupted sharded execution.
    Transport(TransportError),
}

impl PrepareError {
    /// The capacity refusal, if that is what this error is.
    pub fn capacity(&self) -> Option<&CapacityError> {
        match self {
            PrepareError::Capacity(e) => Some(e),
            PrepareError::Transport(_) => None,
        }
    }

    /// The transport failure, if that is what this error is.
    pub fn transport(&self) -> Option<&TransportError> {
        match self {
            PrepareError::Capacity(_) => None,
            PrepareError::Transport(e) => Some(e),
        }
    }
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Capacity(e) => e.fmt(f),
            PrepareError::Transport(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PrepareError::Capacity(e) => Some(e),
            PrepareError::Transport(e) => Some(e),
        }
    }
}

impl From<CapacityError> for PrepareError {
    fn from(e: CapacityError) -> Self {
        PrepareError::Capacity(e)
    }
}

impl From<TransportError> for PrepareError {
    fn from(e: TransportError) -> Self {
        PrepareError::Transport(e)
    }
}

/// Executes measurement circuits on a simulated noisy device, metering the
/// number of circuits submitted — the paper's quantum-computational Cost
/// metric (Section 5.3).
///
/// Noise model per execution:
///
/// 1. the ideal outcome distribution over the measured qubits is computed
///    exactly from the statevector;
/// 2. an optional circuit-level depolarizing channel stands in for gate and
///    decoherence noise;
/// 3. the measured logical qubits are mapped onto the device's best
///    physical qubits (subset circuits therefore land on the good readout
///    sites, as JigSaw prescribes), and each physical qubit's readout
///    confusion — amplified by measurement crosstalk according to how many
///    qubits are read out simultaneously — is applied exactly;
/// 4. with finite `shots`, the distribution is sampled and the empirical
///    PMF returned; in exact mode the noisy distribution itself is
///    returned.
///
/// # Examples
///
/// ```
/// use qnoise::DeviceModel;
/// use qsim::Statevector;
/// use vqe::SimExecutor;
///
/// let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), 1024, 7);
/// let state = Statevector::zero(3);
/// let basis: pauli::PauliString = "ZZI".parse().unwrap();
/// let pmf = exec.run_prepared(&state, &basis);
/// assert_eq!(pmf.qubits(), &[0, 1]);
/// assert_eq!(exec.circuits_executed(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SimExecutor {
    device: DeviceModel,
    shots: u64,
    rng: StdRng,
    circuits_executed: u64,
    exact: bool,
    parallelism: Parallelism,
    sharding: Sharding,
    transport: TransportMode,
    /// Per-session chaos draws: each sharded preparation session draws
    /// its [`FaultInjection`] from this schedule (none by default).
    fault_schedule: FaultSchedule,
    /// The schedule stream this executor draws from — supervisors give
    /// each retry attempt a distinct stream.
    fault_stream: u64,
    /// Preparation sessions opened so far: the schedule's session index,
    /// advanced deterministically (a batch advances it by its length up
    /// front, so batched prepares draw the same faults as sequential ones).
    fault_sessions: u64,
    /// Rank threads of sharded preparation sessions (see
    /// [`SimExecutor::with_rank_gauge`]).
    ranks: RankGauge,
    /// Compiled-plan cache keyed by circuit structure: SPSA evaluations,
    /// subset/Global measurement rotations and MBM circuits all share the
    /// handful of shapes a VQE run executes, so after the first iteration
    /// every simulation rebinds a cached plan instead of re-analyzing.
    /// Also memoizes sharded-execution analyses per structure.
    plans: PlanCache,
    /// When set, planning goes through this process-shared cache instead
    /// of the private one — see [`SimExecutor::with_shared_plans`].
    shared_plans: Option<SharedPlanCache>,
}

impl SimExecutor {
    /// A sampling executor with `shots` shots per circuit.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn new(device: DeviceModel, shots: u64, seed: u64) -> Self {
        assert!(shots > 0, "need at least one shot");
        SimExecutor {
            device,
            shots,
            rng: StdRng::seed_from_u64(seed),
            circuits_executed: 0,
            exact: false,
            parallelism: Parallelism::Auto,
            sharding: Sharding::Off,
            transport: TransportMode::from_env(),
            fault_schedule: FaultSchedule::none(),
            fault_stream: 0,
            fault_sessions: 0,
            ranks: RankGauge::new(),
            plans: PlanCache::new(),
            shared_plans: None,
        }
    }

    /// An exact-distribution executor: noise channels are applied but no
    /// shot sampling is performed. Useful for isolating measurement-error
    /// effects from shot noise.
    pub fn exact(device: DeviceModel, seed: u64) -> Self {
        SimExecutor {
            device,
            shots: 1,
            rng: StdRng::seed_from_u64(seed),
            circuits_executed: 0,
            exact: true,
            parallelism: Parallelism::Auto,
            sharding: Sharding::Off,
            transport: TransportMode::from_env(),
            fault_schedule: FaultSchedule::none(),
            fault_stream: 0,
            fault_sessions: 0,
            ranks: RankGauge::new(),
            plans: PlanCache::new(),
            shared_plans: None,
        }
    }

    /// Routes this executor's circuit planning through a process-shared
    /// [`SharedPlanCache`] instead of its private cache. Executors for
    /// different jobs — or different tenants — running the same ansatz
    /// family then hit each other's compiled structures: the scheduler
    /// tier (`sched::JobQueue`) hands every job executor one shared
    /// cache. Plans are deterministic artifacts, so sharing never
    /// changes results.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::{Circuit, SharedPlanCache};
    /// use vqe::SimExecutor;
    ///
    /// let shared = SharedPlanCache::new();
    /// let mut a = SimExecutor::new(DeviceModel::noiseless(2), 16, 1)
    ///     .with_shared_plans(shared.clone());
    /// let mut b = SimExecutor::new(DeviceModel::noiseless(2), 16, 2)
    ///     .with_shared_plans(shared.clone());
    /// let mut c = Circuit::new(2);
    /// c.ry(0, 0.3).cx(0, 1);
    /// a.prepare(&c);
    /// let mut c2 = Circuit::new(2);
    /// c2.ry(0, -0.8).cx(0, 1);
    /// b.prepare(&c2); // same structure: a hit through the other executor
    /// assert_eq!(shared.stats(), (1, 1, 1));
    /// assert_eq!(b.plan_cache_stats(), (1, 1, 1)); // reports the shared cache
    /// ```
    pub fn with_shared_plans(mut self, shared: SharedPlanCache) -> Self {
        self.shared_plans = Some(shared);
        self
    }

    /// Sets how statevector simulation spreads gate kernels across
    /// threads (default [`Parallelism::Auto`]). The mode is handed to the
    /// statevector engine for every preparation, rotation and read; under
    /// `Auto` the engine threads only states of at least 2¹¹ amplitudes
    /// (11 qubits), so paper-sized workloads run serially on the calling
    /// thread. Batched dispatch ([`SimExecutor::prepare_batch`],
    /// [`SimExecutor::run_batch`]) adds no fan-out of its own.
    ///
    /// Serial and threaded simulation produce bit-identical amplitudes,
    /// so this knob never changes results.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Parallelism;
    /// use vqe::SimExecutor;
    ///
    /// let exec = SimExecutor::new(DeviceModel::noiseless(2), 128, 1)
    ///     .with_parallelism(Parallelism::Serial);
    /// assert_eq!(exec.parallelism(), Parallelism::Serial);
    /// ```
    pub fn with_parallelism(mut self, mode: Parallelism) -> Self {
        self.parallelism = mode;
        self
    }

    /// The statevector parallelism mode circuits are simulated with.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Sets how state preparation decomposes the amplitude plane across
    /// shards (default [`Sharding::Off`]). Sharded execution is
    /// bit-identical to the dense plane — local ops run shard-parallel,
    /// global-qubit ops go through explicit exchanges (see
    /// [`qsim::shard`]) — so this knob never changes results either; it
    /// exists for registers past the cache (and, eventually, node)
    /// capacity of one plane. [`Sharding::Auto`] consults the circuit's
    /// [`qsim::CircuitStats::state_bytes`] estimate and the
    /// `VARSAW_NUM_SHARDS` override.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Sharding;
    /// use vqe::SimExecutor;
    ///
    /// let exec = SimExecutor::new(DeviceModel::noiseless(2), 128, 1)
    ///     .with_sharding(Sharding::Auto);
    /// assert_eq!(exec.sharding(), Sharding::Auto);
    /// ```
    pub fn with_sharding(mut self, sharding: Sharding) -> Self {
        if let Sharding::Shards(s) = sharding {
            assert!(s.is_power_of_two(), "shard count {s} is not a power of two");
        }
        self.sharding = sharding;
        self
    }

    /// The sharding mode state preparation uses.
    pub fn sharding(&self) -> Sharding {
        self.sharding
    }

    /// Sets which [`TransportMode`] sharded preparation moves amplitudes
    /// through (default: the `VARSAW_SHARD_TRANSPORT` environment knob,
    /// falling back to zero-copy in-process swaps). Both backends are
    /// bit-identical, so this knob never changes results; the
    /// message-passing backend exists to rehearse multi-node execution
    /// and exercise the failure paths schedulers must handle.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::TransportMode;
    /// use vqe::SimExecutor;
    ///
    /// let exec = SimExecutor::new(DeviceModel::noiseless(2), 128, 1)
    ///     .with_transport(TransportMode::Channel);
    /// assert_eq!(exec.transport(), TransportMode::Channel);
    /// ```
    pub fn with_transport(mut self, mode: TransportMode) -> Self {
        self.transport = mode;
        self
    }

    /// The shard-transport backend sharded preparation uses.
    pub fn transport(&self) -> TransportMode {
        self.transport
    }

    /// Installs a seed-deterministic [`FaultSchedule`] for sharded
    /// preparation: each preparation session draws one
    /// [`FaultInjection`] at schedule coordinate `(stream, session
    /// index)`, where the session index counts this executor's prepares.
    /// Unsharded preparation opens no transport session and never
    /// faults. Supervisors give every retry attempt a distinct `stream`
    /// so attempts draw independently while each run stays exactly
    /// reproducible.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule, stream: u64) -> Self {
        self.fault_schedule = schedule;
        self.fault_stream = stream;
        self
    }

    /// Reports the rank threads of every sharded preparation session into
    /// `gauge` (each executor otherwise keeps its own), so a supervisor
    /// can check that the executors it built leaked none.
    pub fn with_rank_gauge(mut self, gauge: RankGauge) -> Self {
        self.ranks = gauge;
        self
    }

    /// The shard count preparation of `circuit` resolves to.
    fn resolve_shards(&self, circuit: &Circuit) -> usize {
        match self.sharding {
            Sharding::Off => 1,
            Sharding::Auto => auto_shard_count(&circuit.stats()),
            Sharding::Shards(s) => s.min(1 << circuit.num_qubits().min(30)),
        }
    }

    /// The compiled plan for `circuit`, through the shared cache when one
    /// is attached and the private cache otherwise.
    fn plan(&mut self, circuit: &Circuit) -> CircuitPlan {
        match &self.shared_plans {
            Some(shared) => shared.plan(circuit),
            None => self.plans.plan(circuit),
        }
    }

    /// The memoized sharded-execution plan for `plan` on `shards` shards
    /// (`None` for unsharded execution). Routes through the same cache as
    /// [`SimExecutor::plan`], so a rebind of a known ansatz shape skips
    /// the layout re-analysis (ROADMAP carry-over).
    fn shard_plan(&mut self, plan: &CircuitPlan, shards: usize) -> Option<ShardPlan> {
        if shards <= 1 {
            return None;
        }
        Some(match &self.shared_plans {
            Some(shared) => shared.shard_plan(plan, shards),
            None => self.plans.shard_plan(plan, shards),
        })
    }

    /// Simulates a compiled plan from `|0…0⟩` on the dense plane or the
    /// sharded executor, surfacing allocation refusals and transport
    /// failures as a typed [`PrepareError`]. All paths are bit-identical.
    /// The transport pairs the backend with the gauge its rank threads
    /// report into. `fault` is the chaos injection drawn for this session
    /// (only sharded execution opens a transport session, so only it can
    /// fault); a failed session's poisoned state is dropped here — the
    /// caller never sees it.
    fn try_simulate(
        plan: &CircuitPlan,
        shard_plan: Option<&ShardPlan>,
        mode: Parallelism,
        (transport, ranks): (TransportMode, &RankGauge),
        fault: FaultInjection,
    ) -> Result<Statevector, PrepareError> {
        if let Some(sp) = shard_plan {
            let mut st = ShardedState::try_zero(plan.num_qubits(), sp.num_shards())?
                .with_parallelism(mode)
                .with_transport(transport)
                .with_rank_gauge(ranks.clone())
                .with_fault(fault);
            st.try_apply_shard_plan(sp)?;
            Ok(st.try_to_statevector()?)
        } else {
            let mut st = Statevector::try_zero(plan.num_qubits())?;
            st.apply_plan_with(plan, mode);
            Ok(st)
        }
    }

    /// The chaos injection the schedule draws for preparation session
    /// `session` of a sharded plan (none when unsharded: no transport).
    fn draw_fault(&self, session: u64, shard_plan: Option<&ShardPlan>) -> FaultInjection {
        match shard_plan {
            Some(sp) => self
                .fault_schedule
                .injection(self.fault_stream, session, sp.num_shards()),
            None => FaultInjection::none(),
        }
    }

    /// Simulates `circuit` from `|0…0⟩` under this executor's
    /// [`Parallelism`] mode, without measuring or metering cost — the
    /// state-preparation step evaluators run before their measurement
    /// circuits. Routing preparation through the executor keeps the
    /// parallelism knob in charge of *every* statevector pass of an
    /// evaluation, not just the basis rotations, and lets preparation hit
    /// the executor's [`PlanCache`]: a VQE iteration rebinding new angles
    /// into a known ansatz shape skips fusion re-analysis entirely.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::{Circuit, Parallelism};
    /// use vqe::SimExecutor;
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 1)
    ///     .with_parallelism(Parallelism::Serial);
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1);
    /// let state = exec.prepare(&c);
    /// assert!((state.probabilities()[0b11] - 0.5).abs() < 1e-12);
    /// assert_eq!(exec.circuits_executed(), 0); // preparation is not metered
    /// ```
    pub fn prepare(&mut self, circuit: &Circuit) -> Statevector {
        self.try_prepare(circuit).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SimExecutor::prepare`], surfacing state-allocation failures and
    /// shard-transport failures as a typed [`PrepareError`] instead of
    /// panicking — the admission-control and fault seam job schedulers
    /// branch on. Covers every execution tier: the dense plane (serial or
    /// threaded) probes [`Statevector::try_zero`], the sharded executor
    /// probes [`ShardedState::try_zero`](qsim::ShardedState::try_zero) and
    /// surfaces rank failures from
    /// [`try_apply_shard_plan`](qsim::ShardedState::try_apply_shard_plan).
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Circuit;
    /// use vqe::SimExecutor;
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 1);
    /// assert!(exec.try_prepare(&Circuit::new(3)).is_ok());
    /// let err = exec.try_prepare(&Circuit::new(33)).unwrap_err();
    /// assert_eq!(err.capacity().unwrap().num_qubits(), 33);
    /// ```
    pub fn try_prepare(&mut self, circuit: &Circuit) -> Result<Statevector, PrepareError> {
        let mut states = self.try_prepare_batch(std::slice::from_ref(circuit))?;
        Ok(states.pop().expect("one state per circuit"))
    }

    /// Prepares one state per circuit against the shared [`PlanCache`] —
    /// the batched twin of [`SimExecutor::prepare`], and the front half
    /// of a [`SimExecutor::run_batch`] dispatch. Circuits sharing one
    /// structure (an SPSA ± probe pair, multi-start restarts, a subset
    /// family) compile once and rebind per entry. Each circuit is
    /// simulated on the calling thread under the executor's
    /// [`Parallelism`], so the statevector engine alone decides whether a
    /// state is large enough to thread; the batch adds no fan-out of its
    /// own.
    ///
    /// Results are **identical** to calling `prepare` once per circuit,
    /// in order — preparation consumes no randomness and every execution
    /// path is bit-identical.
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Circuit;
    /// use vqe::SimExecutor;
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 1);
    /// let mut a = Circuit::new(2);
    /// a.ry(0, 0.3).cx(0, 1);
    /// let mut b = Circuit::new(2);
    /// b.ry(0, -1.1).cx(0, 1); // same structure: plan-cache hit
    /// let states = exec.prepare_batch(&[a, b]);
    /// assert_eq!(states.len(), 2);
    /// assert_eq!(exec.plan_cache_stats().2, 1); // one compile, one rebind
    /// ```
    pub fn prepare_batch(&mut self, circuits: &[Circuit]) -> Vec<Statevector> {
        self.try_prepare_batch(circuits)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SimExecutor::prepare_batch`], surfacing state-allocation and
    /// shard-transport failures as a typed [`PrepareError`] (the first one
    /// encountered, in circuit order) instead of panicking.
    pub fn try_prepare_batch(
        &mut self,
        circuits: &[Circuit],
    ) -> Result<Vec<Statevector>, PrepareError> {
        // Per-entry session indices are assigned up front (base + i), so
        // the batch draws the exact faults sequential prepares would, and
        // a failed batch still consumes one session per circuit.
        let base_session = self.fault_sessions;
        self.fault_sessions += circuits.len() as u64;
        circuits
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let plan = self.plan(c);
                let sp = self.shard_plan(&plan, self.resolve_shards(c));
                let fault = self.draw_fault(base_session + i as u64, sp.as_ref());
                let transport = (self.transport, &self.ranks);
                Self::try_simulate(&plan, sp.as_ref(), self.parallelism, transport, fault)
            })
            .collect()
    }

    /// Plan-cache statistics `(structures, hits, misses)` — how often
    /// simulations rebound a cached circuit structure instead of
    /// re-analyzing it. Reports the shared cache when one is attached
    /// ([`SimExecutor::with_shared_plans`]), so schedulers can observe
    /// cross-tenant sharing through any participating executor.
    pub fn plan_cache_stats(&self) -> (usize, u64, u64) {
        match &self.shared_plans {
            Some(shared) => shared.stats(),
            None => (self.plans.len(), self.plans.hits(), self.plans.misses()),
        }
    }

    /// Shard-analysis cache counters `(hits, misses)` — how often sharded
    /// preparation rebound a memoized layout analysis instead of
    /// re-analyzing (see [`qsim::PlanCache::shard_plan`]). Reports the
    /// shared cache when one is attached.
    pub fn shard_cache_stats(&self) -> (u64, u64) {
        match &self.shared_plans {
            Some(shared) => shared.shard_stats(),
            None => self.plans.shard_stats(),
        }
    }

    /// The device model.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Shots per circuit (meaningless in exact mode).
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// The number of circuits submitted so far.
    pub fn circuits_executed(&self) -> u64 {
        self.circuits_executed
    }

    /// Resets the circuit counter (e.g. between budgeted runs).
    pub fn reset_circuits_executed(&mut self) {
        self.circuits_executed = 0;
    }

    /// The calibrated (isolated, crosstalk-free) readout errors of the
    /// physical qubits that `k` measured logical qubits map onto.
    ///
    /// This is what a matrix-based mitigation calibration would know:
    /// it does *not* include the crosstalk amplification present when many
    /// qubits are measured simultaneously, so MBM built from it remains
    /// realistically imperfect.
    pub fn calibration(&self, k: usize) -> Vec<ReadoutError> {
        self.device
            .best_qubits(k)
            .into_iter()
            .map(|q| self.device.readout(q))
            .collect()
    }

    /// Runs a measurement of `basis` on an already-prepared state: appends
    /// the basis rotation, measures the basis support, applies the noise
    /// model, and returns the (logical-qubit-labelled) outcome PMF.
    ///
    /// Identity bases measure nothing and are rejected.
    ///
    /// # Panics
    ///
    /// Panics if the basis is all-identity, acts on more qubits than the
    /// state, or the device has fewer qubits than the measurement needs.
    pub fn run_prepared(&mut self, state: &Statevector, basis: &PauliString) -> Pmf {
        self.run_one(BatchJob::subset(state, basis))
    }

    /// Runs a measurement of `basis` on an already-prepared state,
    /// measuring **every** qubit of the state (identity positions in the
    /// computational basis) — how Qiskit-style VQE executes its circuits,
    /// and how JigSaw's Global runs produce their full-width Global-PMF
    /// (Fig.3). All qubits being read out simultaneously exposes the run to
    /// maximum measurement crosstalk; this is the cost the subset circuits
    /// avoid.
    ///
    /// # Panics
    ///
    /// Panics if the basis acts on more qubits than the state or the device
    /// is too small.
    pub fn run_prepared_all(&mut self, state: &Statevector, basis: &PauliString) -> Pmf {
        self.run_one(BatchJob::global(state, basis))
    }

    /// A [`SimExecutor::run_batch`] of one job.
    fn run_one(&mut self, job: BatchJob<'_>) -> Pmf {
        self.run_batch(&[job]).pop().expect("one PMF per job")
    }

    /// Runs an explicit circuit from `|0…0⟩` and measures `measured` in the
    /// computational basis.
    ///
    /// # Panics
    ///
    /// Panics if `measured` is empty or out of range.
    pub fn run_circuit(&mut self, circuit: &Circuit, measured: &[usize]) -> Pmf {
        assert!(!measured.is_empty(), "no qubits to measure");
        let mut st = Statevector::zero(circuit.num_qubits());
        let plan = self.plan(circuit);
        st.apply_plan_with(&plan, self.parallelism);
        self.finish(st.marginal_probabilities(measured), measured.to_vec())
    }

    /// Runs a whole family of measurements — SPSA ± probes, a subset
    /// family, the Globals of an iteration — as **one batched dispatch**,
    /// returning one PMF per job in order.
    ///
    /// [`SimExecutor::run_prepared`] and [`SimExecutor::run_prepared_all`]
    /// are batches of one, so results (and the executor's RNG stream,
    /// cost counter, and plan cache) are **exactly** those of the
    /// equivalent sequence of single calls, seed for seed; a regression
    /// test also pins every PMF to the generic measurement (clone, rotate
    /// serially, gather the marginal). Batching saves cost only: rotation
    /// plans rebind through the cache, the rotations reuse one scratch
    /// plane, unrotated reads skip the copy, and full-register reads skip
    /// the generic marginal bit-gather for the direct probability pass.
    /// Every job runs on the
    /// calling thread under the executor's [`Parallelism`], so the
    /// statevector engine alone decides whether a state is large enough
    /// to thread; the batch adds no fan-out of its own.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the equivalent sequential
    /// calls (identity bases, register/device size mismatches).
    ///
    /// ```
    /// use qnoise::DeviceModel;
    /// use qsim::Statevector;
    /// use vqe::{BatchJob, SimExecutor};
    ///
    /// let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), 256, 9);
    /// let state = Statevector::zero(3);
    /// let zz: pauli::PauliString = "ZZI".parse().unwrap();
    /// let xx: pauli::PauliString = "IXX".parse().unwrap();
    /// let pmfs = exec.run_batch(&[
    ///     BatchJob::global(&state, &zz),
    ///     BatchJob::subset(&state, &xx),
    /// ]);
    /// assert_eq!(pmfs.len(), 2);
    /// assert_eq!(pmfs[1].qubits(), &[1, 2]);
    /// assert_eq!(exec.circuits_executed(), 2);
    /// ```
    pub fn run_batch(&mut self, jobs: &[BatchJob<'_>]) -> Vec<Pmf> {
        // Rotate, read and sample each job in order: bit-identical to the
        // generic clone + rotate + marginal measurement (the full-register
        // read and the in-place no-rotation read produce the same bits;
        // `scratch` only recycles the allocation), and the RNG is
        // consumed in job order.
        let mut scratch: Option<Statevector> = None;
        jobs.iter()
            .map(|job| {
                let n = job.state.num_qubits();
                assert!(
                    job.basis.num_qubits() <= n,
                    "basis acts on {} qubits but state has {n}",
                    job.basis.num_qubits()
                );
                let measured: Vec<usize> = if job.measure_all {
                    (0..n).collect()
                } else {
                    job.basis.support()
                };
                assert!(
                    !measured.is_empty(),
                    "cannot execute a measurement of the identity basis"
                );
                let plan = self.plan(&basis_rotation(job.basis));
                let rotated: &Statevector = if plan.op_count() == 0 {
                    job.state
                } else {
                    let st = {
                        let _span = telemetry::span(telemetry::Stage::SweepSerial);
                        match &mut scratch {
                            Some(st) if st.num_qubits() == n => {
                                st.amplitudes_mut().copy_from_slice(job.state.amplitudes());
                                st
                            }
                            _ => scratch.insert(job.state.clone()),
                        }
                    };
                    st.apply_plan_with(&plan, self.parallelism);
                    st
                };
                // `support()` is ascending, so length alone decides
                // whether `measured` is the full register in index order.
                let probs = if measured.len() == n {
                    rotated.probabilities_with(self.parallelism)
                } else {
                    rotated.marginal_probabilities(&measured)
                };
                self.finish(probs, measured)
            })
            .collect()
    }

    fn finish(&mut self, mut probs: Vec<f64>, measured: Vec<usize>) -> Pmf {
        let m = measured.len();
        assert!(
            m <= self.device.num_qubits(),
            "measurement of {m} qubits exceeds the {}-qubit device",
            self.device.num_qubits()
        );
        self.circuits_executed += 1;

        if self.device.depolarizing() > 0.0 {
            apply_depolarizing(&mut probs, self.device.depolarizing());
        }
        // Map measured logical qubits onto the best physical qubits;
        // crosstalk scales with the number of simultaneous measurements.
        let physical = self.device.best_qubits(m);
        let errors: Vec<ReadoutError> = physical
            .iter()
            .map(|&q| self.device.effective_readout(q, m))
            .collect();
        apply_readout_errors(&mut probs, &errors);

        if self.exact {
            Pmf::new(measured, probs)
        } else {
            // The channel pushes above time themselves (NoiseSampling
            // spans inside qnoise); only the shot draw is timed here so
            // the stage is never double-counted.
            let _span = telemetry::span(telemetry::Stage::NoiseSampling);
            let counts = qsim::sample_counts(&probs, self.shots, &mut self.rng);
            Pmf::new(measured, counts.iter().map(|&c| c as f64).collect())
        }
    }
}

/// One measurement of a batched dispatch: a prepared state and the Pauli
/// basis to measure it in — see [`SimExecutor::run_batch`].
#[derive(Clone, Copy, Debug)]
pub struct BatchJob<'a> {
    state: &'a Statevector,
    basis: &'a PauliString,
    measure_all: bool,
}

impl<'a> BatchJob<'a> {
    /// Measure only the basis' support, on the best physical qubits —
    /// the subset-circuit shape, equivalent to
    /// [`SimExecutor::run_prepared`].
    pub fn subset(state: &'a Statevector, basis: &'a PauliString) -> Self {
        BatchJob {
            state,
            basis,
            measure_all: false,
        }
    }

    /// Measure every qubit of the state (identity basis positions read
    /// in the computational basis) — the Global-circuit shape,
    /// equivalent to [`SimExecutor::run_prepared_all`].
    pub fn global(state: &'a Statevector, basis: &'a PauliString) -> Self {
        BatchJob {
            state,
            basis,
            measure_all: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn noiseless_exact_execution_reproduces_ideal_marginals() {
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(3), 1);
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut st = Statevector::zero(3);
        st.apply_circuit(&c);
        let pmf = exec.run_prepared(&st, &ps("ZZZ"));
        assert!((pmf.prob(0b000) - 0.5).abs() < 1e-12);
        assert!((pmf.prob(0b111) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn readout_noise_shows_up_in_the_distribution() {
        let mut exec = SimExecutor::exact(DeviceModel::uniform(2, 0.1), 1);
        let st = Statevector::zero(2);
        let pmf = exec.run_prepared(&st, &ps("ZZ"));
        assert!((pmf.prob(0b00) - 0.81).abs() < 1e-12);
        assert!((pmf.prob(0b11) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn fewer_measured_qubits_means_less_crosstalk_error() {
        // With crosstalk, a 1-qubit measurement is cleaner than the same
        // qubit measured as part of a 4-qubit readout.
        let dev = DeviceModel::new(
            "ct",
            vec![ReadoutError::symmetric(0.04); 4],
            qnoise::CrosstalkModel::new(0.3),
            0.0,
        );
        let st = Statevector::zero(4);
        let mut exec = SimExecutor::exact(dev, 1);
        let single = exec.run_prepared(&st, &ps("ZIII"));
        let full = exec.run_prepared(&st, &ps("ZZZZ"));
        let p_err_single = single.prob(1);
        let p_err_full = full.marginal(&[0]).prob(1);
        assert!(
            p_err_full > p_err_single * 1.5,
            "full {p_err_full} vs single {p_err_single}"
        );
    }

    #[test]
    fn cost_counter_increments() {
        let mut exec = SimExecutor::new(DeviceModel::noiseless(2), 16, 3);
        let st = Statevector::zero(2);
        exec.run_prepared(&st, &ps("ZI"));
        exec.run_prepared(&st, &ps("IZ"));
        assert_eq!(exec.circuits_executed(), 2);
        exec.reset_circuits_executed();
        assert_eq!(exec.circuits_executed(), 0);
    }

    #[test]
    fn sampled_pmf_totals_one() {
        let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), 256, 5);
        let mut st = Statevector::zero(2);
        let mut c = Circuit::new(2);
        c.h(0);
        st.apply_circuit(&c);
        let pmf = exec.run_prepared(&st, &ps("XZ"));
        assert!((pmf.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(pmf.qubits(), &[0, 1]);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let run = |seed| {
            let mut exec = SimExecutor::new(DeviceModel::mumbai_like(), 128, seed);
            let mut st = Statevector::zero(2);
            let mut c = Circuit::new(2);
            c.h(0).cx(0, 1);
            st.apply_circuit(&c);
            exec.run_prepared(&st, &ps("ZZ")).probs().to_vec()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn parallelism_mode_never_changes_results() {
        // Statevector execution is bit-identical across modes, and the
        // sampling RNG stream is untouched by the choice, so whole PMFs
        // must match exactly.
        let run = |mode: Parallelism| {
            let mut exec =
                SimExecutor::new(DeviceModel::mumbai_like(), 256, 11).with_parallelism(mode);
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).cx(1, 2).ry(2, 0.7);
            let mut st = Statevector::zero(3);
            st.apply_circuit(&c);
            exec.run_prepared(&st, &ps("ZXZ")).probs().to_vec()
        };
        let serial = run(Parallelism::Serial);
        assert_eq!(serial, run(Parallelism::Auto));
        assert_eq!(serial, run(Parallelism::Threads(4)));
    }

    #[test]
    fn run_circuit_measures_computational_basis() {
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(2), 1);
        let mut c = Circuit::new(2);
        c.x(1);
        let pmf = exec.run_circuit(&c, &[1]);
        assert_eq!(pmf.prob(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "identity basis")]
    fn identity_basis_rejected() {
        let mut exec = SimExecutor::exact(DeviceModel::noiseless(2), 1);
        exec.run_prepared(&Statevector::zero(2), &ps("II"));
    }

    const MODES: [Parallelism; 3] = [
        Parallelism::Serial,
        Parallelism::Auto,
        Parallelism::Threads(4),
    ];

    /// A 12-qubit entangled state (2¹² amplitudes: past the engine's
    /// `Auto` threshold, so batched jobs on it thread inside the engine).
    fn wide_circuit(theta: f64) -> Circuit {
        let mut c = Circuit::new(12);
        for q in 0..12 {
            c.ry(q, theta + 0.37 * q as f64)
                .rz(q, 0.5 * theta - 0.11 * q as f64);
        }
        for q in 0..11 {
            c.cx(q, q + 1);
        }
        for q in 0..12 {
            c.ry(q, 0.2 * theta + 0.05 * q as f64);
        }
        c
    }

    /// The generic sequential measurement every batched read must equal
    /// bit for bit: clone, rotate on the serial path, gather the marginal
    /// over the measured qubits, then noise + sampling.
    fn reference_run(
        exec: &mut SimExecutor,
        state: &Statevector,
        basis: &PauliString,
        measure_all: bool,
    ) -> Pmf {
        let measured: Vec<usize> = if measure_all {
            (0..state.num_qubits()).collect()
        } else {
            basis.support()
        };
        let mut st = state.clone();
        st.apply_plan_with(&exec.plan(&basis_rotation(basis)), Parallelism::Serial);
        let probs = st.marginal_probabilities(&measured);
        exec.finish(probs, measured)
    }

    /// The seed-for-seed regression the batched dispatch is specified
    /// by: `run_batch` must reproduce the generic sequential measurement
    /// of every job exactly — PMFs, RNG stream, and cost counter — under
    /// every parallelism mode, including jobs whose states are wide
    /// enough for the engine to thread.
    #[test]
    fn run_batch_matches_sequential_runs_seed_for_seed() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.6).cx(1, 2);
        let mut st = Statevector::zero(3);
        st.apply_circuit(&c);
        let st2 = Statevector::zero(3);
        let mut wide = Statevector::zero(12);
        wide.apply_circuit_serial(&wide_circuit(0.4));
        let wide2 = {
            let mut w = Statevector::zero(12);
            w.apply_circuit_serial(&wide_circuit(-1.3));
            w
        };
        let narrow_bases = [ps("ZZI"), ps("XZY"), ps("ZZZ"), ps("IXX")];
        let wide_bases = [
            ps("XYXYXYXYXYXY"),
            ps("ZZZZZZZZZZZZ"),
            ps("YXIIXYZZXYXY"),
            ps("IIIIIIIIIIXX"),
        ];
        // (state, basis, measure_all) per job, in dispatch order.
        type Case<'a> = Vec<(&'a Statevector, &'a PauliString, bool)>;
        let narrow: Case = vec![
            (&st, &narrow_bases[0], true),
            (&st, &narrow_bases[1], false),
            (&st2, &narrow_bases[2], true),
            (&st2, &narrow_bases[3], false),
            (&st, &narrow_bases[0], false),
        ];
        let wide_case: Case = vec![
            (&wide, &wide_bases[0], true),
            (&wide, &wide_bases[0], false),
            (&wide2, &wide_bases[1], true),
            (&wide, &wide_bases[2], false),
            (&wide2, &wide_bases[2], true),
            (&wide2, &wide_bases[3], false),
        ];

        for (name, case) in [("3q", &narrow), ("12q", &wide_case)] {
            for mode in MODES {
                let make_exec =
                    || SimExecutor::new(DeviceModel::mumbai_like(), 512, 21).with_parallelism(mode);
                let mut seq = make_exec();
                let expected: Vec<Pmf> = case
                    .iter()
                    .map(|&(state, basis, all)| reference_run(&mut seq, state, basis, all))
                    .collect();

                let mut batched = make_exec();
                let jobs: Vec<BatchJob<'_>> = case
                    .iter()
                    .map(|&(state, basis, all)| {
                        if all {
                            BatchJob::global(state, basis)
                        } else {
                            BatchJob::subset(state, basis)
                        }
                    })
                    .collect();
                let got = batched.run_batch(&jobs);

                assert_eq!(got.len(), expected.len(), "{name} {mode:?}");
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!(g.qubits(), e.qubits(), "{name} {mode:?}");
                    assert_eq!(
                        g.probs(),
                        e.probs(),
                        "{name} {mode:?}: PMF must match exactly"
                    );
                }
                assert_eq!(batched.circuits_executed(), seq.circuits_executed());
                // The RNG streams stayed in lockstep: one more run still
                // agrees, through both the wrapper and the reference.
                let (state, basis, _) = case[1];
                assert_eq!(
                    batched.run_prepared(state, basis).probs(),
                    reference_run(&mut seq, state, basis, false).probs(),
                    "{name} {mode:?}: RNG stream diverged"
                );
            }
        }
    }

    #[test]
    fn run_batch_matches_sequential_in_exact_mode() {
        let mut c = Circuit::new(3);
        c.ry(0, 0.4).cx(0, 2);
        let mut st = Statevector::zero(3);
        st.apply_circuit(&c);
        let mut seq = SimExecutor::exact(DeviceModel::uniform(3, 0.05), 1);
        let mut batched = seq.clone();
        let bases = [ps("ZIZ"), ps("XYZ")];
        let expected = [
            reference_run(&mut seq, &st, &bases[0], true),
            reference_run(&mut seq, &st, &bases[1], false),
        ];
        let got = batched.run_batch(&[
            BatchJob::global(&st, &bases[0]),
            BatchJob::subset(&st, &bases[1]),
        ]);
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.probs(), e.probs());
        }
    }

    #[test]
    fn prepare_batch_matches_sequential_prepares() {
        let thetas = [0.3f64, -1.1, 2.4];
        let narrow: Vec<Circuit> = thetas
            .iter()
            .map(|&t| {
                let mut c = Circuit::new(3);
                c.ry(0, t).rz(1, 2.0 * t).cx(0, 1).cx(1, 2);
                c
            })
            .collect();
        let wide: Vec<Circuit> = thetas.iter().map(|&t| wide_circuit(t)).collect();
        for (name, circuits) in [("3q", &narrow), ("12q", &wide)] {
            for mode in MODES {
                let n = circuits[0].num_qubits();
                let mut exec =
                    SimExecutor::new(DeviceModel::noiseless(n), 16, 1).with_parallelism(mode);
                let batch = exec.prepare_batch(circuits);
                for (c, b) in circuits.iter().zip(&batch) {
                    let mut reference = Statevector::zero(n);
                    reference.apply_plan_with(&CircuitPlan::compile(c), Parallelism::Serial);
                    assert_eq!(
                        reference.amplitudes(),
                        b.amplitudes(),
                        "{name} {mode:?}: batched state must match the serial reference"
                    );
                }
                // One structure: one compile, two rebinds.
                assert_eq!(exec.plan_cache_stats(), (1, 2, 1), "{name} {mode:?}");
            }
        }
    }

    #[test]
    fn sharded_preparation_is_bit_identical() {
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.ry(q, 0.1 + q as f64);
        }
        c.cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).cz(0, 4);
        let mut dense = SimExecutor::new(DeviceModel::noiseless(5), 16, 2);
        let mut sharded =
            SimExecutor::new(DeviceModel::noiseless(5), 16, 2).with_sharding(Sharding::Shards(4));
        assert_eq!(
            dense.prepare(&c).amplitudes(),
            sharded.prepare(&c).amplitudes()
        );
        // And through the measured path, PMFs stay equal too.
        let st_d = dense.prepare(&c);
        let st_s = sharded.prepare(&c);
        assert_eq!(
            dense.run_prepared(&st_d, &ps("ZZIII")).probs(),
            sharded.run_prepared(&st_s, &ps("ZZIII")).probs()
        );
    }

    #[test]
    fn calibration_is_isolated_readout() {
        let dev = DeviceModel::new(
            "cal",
            vec![ReadoutError::symmetric(0.05); 3],
            qnoise::CrosstalkModel::new(0.5),
            0.0,
        );
        let exec = SimExecutor::exact(dev, 1);
        let cal = exec.calibration(3);
        // Calibration reports base rates, not crosstalk-amplified ones.
        assert!(cal.iter().all(|e| (e.average() - 0.05).abs() < 1e-12));
    }
}
