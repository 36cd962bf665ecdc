//! Sharded amplitude-plane execution.
//!
//! # Why shards
//!
//! The dense statevector tops out around 20 qubits on one node: every
//! gate sweeps the full `2ⁿ` plane, and beyond the cache sizes each sweep
//! is a fresh trip through memory. [`ShardedState`] splits the plane into
//! `2ᵏ` contiguous **shards** of `2^(n−k)` amplitudes, keyed by the top
//! `k` bits of the basis index, and executes a compiled
//! [`CircuitPlan`] shard by shard:
//!
//! - **Local ops** — ops whose amplitude pairs stay inside one shard —
//!   run with no communication at all. Consecutive local ops are batched
//!   per shard ([`crate::plan::ShardPlan`] coalesces them), so a run of
//!   `r` local ops makes **one** pass over each shard instead of `r`
//!   passes over the whole plane: on states past the cache sizes this is
//!   a bandwidth win even single-threaded, and across threads each shard
//!   run is embarrassingly parallel.
//! - **Exchange ops** — single-qubit ops on a global (top-`k`) qubit, CX
//!   with a global target, SWAP with one global qubit, an entangler block
//!   ([`crate::plan`]'s `Block4`) with its high qubit global — pair
//!   shards along one shard-index bit and update amplitudes elementwise
//!   across each pair: the explicit communication step a distributed
//!   backend would send messages for. A block with *both* qubits global
//!   generalizes the pairing to shard **quads** along two shard-index
//!   bits.
//! - **Plane swaps** — CX with control *and* target global, SWAP of two
//!   global qubits — only relabel shards and execute as O(1) shard-handle
//!   swaps: no amplitude data moves. (A dense block never qualifies: its
//!   4×4 mixes the pair states, so it always moves amplitude data.)
//!
//! The plan-analysis pass additionally **remaps hot qubits into the
//! local range** (see [`ShardPlan::analyze`]): the `k` least pair-touched
//! qubits take the global bit positions, which typically turns almost
//! every exchange in an ansatz-shaped circuit into a local op. The state
//! records the adopted layout and un-permutes when read back.
//!
//! # The transport seam
//!
//! This module is pure **orchestration**: it classifies each plan step
//! and dispatches the resulting movement onto a
//! [`crate::transport::ShardTransport`] session. Where amplitudes live
//! and how they cross shard boundaries is the backend's business —
//! [`crate::transport::LocalSwap`] keeps today's zero-copy shared-memory
//! walk, [`crate::transport::ChannelRanks`] runs one rank thread per
//! shard with serialized message passing — selected per state via
//! [`ShardedState::with_transport`] or process-wide via the
//! `VARSAW_SHARD_TRANSPORT` environment variable. Movement tallies
//! accumulate in [`ShardedState::shard_stats`].
//!
//! # Bit-identical results
//!
//! Sharded execution performs the exact same floating-point operations
//! per logical amplitude as the serial and threaded planes — the kernels
//! share `pair_update`, the two-qubit ops are exact swaps/negations, and
//! the layout only changes *where* an amplitude is stored, never its
//! arithmetic — so [`ShardedState::to_statevector`] equals the serial
//! result **bit for bit** (property-tested across shard × thread grids in
//! `tests/shard_equiv.rs`).
//!
//! # Examples
//!
//! ```
//! use qsim::{Circuit, CircuitPlan, ShardedState, Statevector};
//!
//! let mut c = Circuit::new(4);
//! c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).ry(3, 0.7);
//! let plan = CircuitPlan::compile(&c);
//!
//! let mut serial = Statevector::zero(4);
//! serial.apply_plan(&plan);
//!
//! let mut sharded = ShardedState::zero(4, 4);
//! sharded.apply_plan(&plan);
//! assert_eq!(sharded.to_statevector().amplitudes(), serial.amplitudes());
//! ```

use crate::circuit::CircuitStats;
use crate::complex::C64;
use crate::exec::{self, Parallelism};
use crate::plan::{check_shards, CircuitPlan, PlanOp, ShardPlan, ShardStep};
use crate::state::{CapacityError, Statevector};
use crate::transport::{
    classify_exchange, ExchangeStep, FaultInjection, FaultSchedule, LocalOps, RankGauge,
    ShardTransport, TransportCounters, TransportError, TransportMode,
};

/// How an executor decomposes statevector simulation across amplitude
/// shards (the `qsim`-level twin of [`Parallelism`]: shards decide the
/// memory partition, parallelism decides the threads that walk it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sharding {
    /// Always simulate on the single dense plane.
    Off,
    /// Shard automatically when the register is large enough:
    /// [`auto_shard_count`] consults the circuit's
    /// [`state_bytes`](CircuitStats::state_bytes) estimate and the
    /// `VARSAW_NUM_SHARDS` override ([`parallel::num_shards`]).
    Auto,
    /// Request an explicit shard count (a power of two).
    Shards(usize),
}

/// Ceiling on one shard's amplitude storage under [`Sharding::Auto`]:
/// 4 MiB (2¹⁸ amplitudes) — small enough that a run of local ops on one
/// shard stays in cache, large enough that exchange steps stay rare.
pub(crate) const AUTO_SHARD_BYTES: u128 = 4 << 20;

/// Cap on the automatically chosen shard count.
const AUTO_MAX_SHARDS: usize = 64;

/// The shard count [`Sharding::Auto`] selects for a circuit with the
/// given [`Circuit::stats`](crate::Circuit::stats): the `VARSAW_NUM_SHARDS`
/// override when set (clamped to the register), otherwise the smallest
/// power of two keeping each shard at or under the 4 MiB auto-shard
/// ceiling (so ≤ 18-qubit states stay on one plane).
///
/// ```
/// use qsim::{shard::auto_shard_count, Circuit};
/// assert_eq!(auto_shard_count(&Circuit::new(12).stats()), 1);
/// assert_eq!(auto_shard_count(&Circuit::new(20).stats()), 4);
/// ```
pub fn auto_shard_count(stats: &CircuitStats) -> usize {
    let max = 1usize << stats.num_qubits.min(30);
    if let Some(s) = parallel::num_shards() {
        return s.min(max);
    }
    let mut shards = 1usize;
    while shards < AUTO_MAX_SHARDS && stats.state_bytes() / (shards as u128) > AUTO_SHARD_BYTES {
        shards *= 2;
    }
    shards.min(max)
}

/// A pure `n`-qubit state stored as `2ᵏ` contiguous amplitude shards —
/// see the [module docs](self) for the execution model.
///
/// The state tracks the qubit **layout** its first applied
/// [`ShardPlan`] adopted (`layout()[q]` = physical bit position of
/// logical qubit `q`); reads ([`ShardedState::to_statevector`],
/// [`ShardedState::probabilities`]) un-permute, so callers only ever see
/// logical basis ordering.
#[derive(Clone, Debug)]
pub struct ShardedState {
    num_qubits: usize,
    local_bits: usize,
    shards: Vec<Vec<C64>>,
    layout: Vec<usize>,
    /// Whether a plan has been applied: the zero state is invariant under
    /// any qubit permutation, so an unapplied state may still adopt a new
    /// plan's layout.
    dirty: bool,
    parallelism: Parallelism,
    transport: TransportMode,
    fault: FaultInjection,
    /// Per-session fault draws: when no explicit [`FaultInjection`] is
    /// installed, each transport session draws its injection from this
    /// schedule at coordinate `(stream, session)`.
    schedule: FaultSchedule,
    /// The schedule stream this state draws from (supervisors vary it
    /// per attempt so retries get independent draws).
    stream: u64,
    /// Transport sessions opened so far — the schedule's session index.
    session: u64,
    counters: TransportCounters,
    /// Rank threads this state's sessions have spawned and not joined.
    ranks: RankGauge,
    /// Set when a transport session failed mid-plan: the shard contents
    /// are no longer a coherent state, so further use is refused.
    poisoned: bool,
}

impl ShardedState {
    /// The all-zeros state `|0…0⟩` over `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is not a power of two, exceeds the
    /// amplitude count, or the plane cannot be allocated (see
    /// [`ShardedState::try_zero`] for the fallible variant).
    pub fn zero(num_qubits: usize, num_shards: usize) -> Self {
        Self::try_zero(num_qubits, num_shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The all-zeros state, or a [`CapacityError`] when the register
    /// exceeds the 30-qubit dense limit or the allocator refuses a
    /// shard's reservation. Each shard is reserved fallibly
    /// ([`Vec::try_reserve_exact`]), so an oversized request reports
    /// instead of aborting — the seam a capacity-probing scheduler
    /// retries with more shards or a smaller register.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is not a power of two or exceeds the
    /// amplitude count (caller bugs, not capacity conditions).
    ///
    /// ```
    /// use qsim::ShardedState;
    /// assert!(ShardedState::try_zero(10, 4).is_ok());
    /// assert_eq!(ShardedState::try_zero(31, 4).unwrap_err().num_qubits(), 31);
    /// ```
    pub fn try_zero(num_qubits: usize, num_shards: usize) -> Result<Self, CapacityError> {
        let local_bits = check_shards(num_qubits, num_shards);
        if num_qubits > 30 {
            return Err(CapacityError::new(num_qubits));
        }
        let shard_len = 1usize << local_bits;
        let mut shards = Vec::new();
        if shards.try_reserve_exact(num_shards).is_err() {
            return Err(CapacityError::new(num_qubits));
        }
        for _ in 0..num_shards {
            let mut shard: Vec<C64> = Vec::new();
            if shard.try_reserve_exact(shard_len).is_err() {
                return Err(CapacityError::new(num_qubits));
            }
            shard.resize(shard_len, C64::ZERO);
            shards.push(shard);
        }
        shards[0][0] = C64::ONE;
        Ok(ShardedState {
            num_qubits,
            local_bits,
            shards,
            layout: (0..num_qubits).collect(),
            dirty: false,
            parallelism: Parallelism::Auto,
            transport: TransportMode::from_env(),
            fault: FaultInjection::none(),
            schedule: FaultSchedule::none(),
            stream: 0,
            session: 0,
            counters: TransportCounters::default(),
            ranks: RankGauge::new(),
            poisoned: false,
        })
    }

    /// Scatters a dense state into `num_shards` shards (identity layout).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is invalid for the state's register.
    pub fn from_statevector(state: &Statevector, num_shards: usize) -> Self {
        let local_bits = check_shards(state.num_qubits(), num_shards);
        let shard_len = 1usize << local_bits;
        let shards = state
            .amplitudes()
            .chunks(shard_len)
            .map(|c| c.to_vec())
            .collect();
        ShardedState {
            num_qubits: state.num_qubits(),
            local_bits,
            shards,
            layout: (0..state.num_qubits()).collect(),
            dirty: true,
            parallelism: Parallelism::Auto,
            transport: TransportMode::from_env(),
            fault: FaultInjection::none(),
            schedule: FaultSchedule::none(),
            stream: 0,
            session: 0,
            counters: TransportCounters::default(),
            ranks: RankGauge::new(),
            poisoned: false,
        }
    }

    /// Sets how execution spreads shard work across threads (default
    /// [`Parallelism::Auto`]). Like the dense engines, the choice never
    /// changes results — all paths are bit-identical.
    pub fn with_parallelism(mut self, mode: Parallelism) -> Self {
        self.parallelism = mode;
        self
    }

    /// Sets which transport backend moves amplitudes between shards
    /// (default: the validated `VARSAW_SHARD_TRANSPORT` value, falling
    /// back to [`TransportMode::Local`]). Like parallelism, the choice
    /// never changes results — both backends are bit-identical.
    pub fn with_transport(mut self, mode: TransportMode) -> Self {
        self.transport = mode;
        self
    }

    /// Installs chaos-testing fault injection for subsequent transport
    /// sessions (see [`FaultInjection`]; testing hook). An explicit
    /// injection overrides any installed [`FaultSchedule`].
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = fault;
        self
    }

    /// Installs a seed-deterministic [`FaultSchedule`]: each subsequent
    /// transport session draws its [`FaultInjection`] at schedule
    /// coordinate `(stream, session index)`, where the session index
    /// counts sessions this state has opened. Supervisors give every
    /// retry attempt a distinct `stream` so attempts draw independently
    /// while staying exactly reproducible.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule, stream: u64) -> Self {
        self.schedule = schedule;
        self.stream = stream;
        self
    }

    /// Reports this state's rank threads into `gauge` instead of its own
    /// (e.g. one gauge across every state a supervisor builds). Clones of
    /// a state share its gauge.
    pub fn with_rank_gauge(mut self, gauge: RankGauge) -> Self {
        self.ranks = gauge;
        self
    }

    /// A handle on this state's [`RankGauge`]: rank threads its sessions
    /// spawned and have not yet joined. The handle outlives the state.
    pub fn rank_gauge(&self) -> RankGauge {
        self.ranks.clone()
    }

    /// Whether a transport session failed mid-plan, leaving the shard
    /// contents incoherent. Every fallible entry point on a poisoned
    /// state returns [`TransportError::Poisoned`]; the infallible reads
    /// panic. Supervisors quarantine and rebuild instead of reusing.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The transport backend this state moves amplitudes with.
    pub fn transport(&self) -> TransportMode {
        self.transport
    }

    /// Movement tallies accumulated across every plan applied so far:
    /// exchange/plane-swap/sub-split counts for any backend, plus
    /// message and wire-byte volume for message-passing backends (zero
    /// under [`TransportMode::Local`], which moves no messages).
    pub fn shard_stats(&self) -> TransportCounters {
        self.counters
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Amplitudes per shard (`2^local_bits`).
    pub fn shard_len(&self) -> usize {
        1 << self.local_bits
    }

    /// The adopted qubit layout (`layout()[q]` = physical bit position of
    /// logical qubit `q`); identity until a plan with a remap is applied.
    pub fn layout(&self) -> &[usize] {
        &self.layout
    }

    /// Analyzes `plan` for this state's shard count and executes it. A
    /// fresh (`|0…0⟩`) state adopts the analysis' exchange-minimizing
    /// layout; a state that already evolved pins its adopted layout so
    /// amplitudes never need physical re-permutation. Callers executing
    /// one structure many times should analyze once and use
    /// [`ShardedState::apply_shard_plan`].
    ///
    /// # Panics
    ///
    /// Panics if the plan's qubit count differs from the state's, or on
    /// a transport failure (see [`ShardedState::try_apply_plan`] for the
    /// fallible variant).
    pub fn apply_plan(&mut self, plan: &CircuitPlan) {
        self.try_apply_plan(plan).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Like [`ShardedState::apply_plan`], but surfaces transport
    /// failures (a disconnected or stalled rank under a message-passing
    /// backend) as typed [`TransportError`] values. After an error the
    /// state is poisoned — the amplitudes are no longer coherent — and
    /// every further apply returns [`TransportError::Poisoned`].
    pub fn try_apply_plan(&mut self, plan: &CircuitPlan) -> Result<(), TransportError> {
        // Fail fast before plan analysis: a poisoned state gave its
        // shard buffers to a failed session and no longer has a shard
        // count to analyze against.
        if self.poisoned {
            return Err(TransportError::Poisoned);
        }
        let sp = if self.dirty {
            ShardPlan::with_layout(plan, self.num_shards(), &self.layout)
        } else {
            ShardPlan::analyze(plan, self.num_shards())
        };
        self.try_apply_shard_plan(&sp)
    }

    /// Executes a precomputed [`ShardPlan`].
    ///
    /// # Panics
    ///
    /// Panics if the analysis' qubit count or shard count differ from the
    /// state's, if the state has already evolved under a different layout
    /// than the analysis assumes, or on a transport failure (see
    /// [`ShardedState::try_apply_shard_plan`]).
    pub fn apply_shard_plan(&mut self, sp: &ShardPlan) {
        self.try_apply_shard_plan(sp)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Like [`ShardedState::apply_shard_plan`], but surfaces transport
    /// failures as typed [`TransportError`] values instead of panicking.
    ///
    /// Opens one transport session per call: the shard buffers move into
    /// the backend, every plan step dispatches as transport calls, and
    /// the buffers move back on success. On failure the state is
    /// poisoned (see [`ShardedState::try_apply_plan`]).
    ///
    /// # Panics
    ///
    /// Panics on the caller bugs [`ShardedState::apply_shard_plan`]
    /// documents (mismatched qubit/shard counts or layout).
    pub fn try_apply_shard_plan(&mut self, sp: &ShardPlan) -> Result<(), TransportError> {
        if self.poisoned {
            return Err(TransportError::Poisoned);
        }
        assert_eq!(
            sp.num_qubits(),
            self.num_qubits,
            "shard plan acts on {} qubits but state has {}",
            sp.num_qubits(),
            self.num_qubits
        );
        assert_eq!(
            sp.num_shards(),
            self.shards.len(),
            "shard plan targets {} shards but state has {}",
            sp.num_shards(),
            self.shards.len()
        );
        if self.dirty {
            assert_eq!(
                sp.layout(),
                &self.layout[..],
                "shard plan layout differs from the state's adopted layout"
            );
        } else {
            self.layout.copy_from_slice(sp.layout());
            self.dirty = true;
        }
        let workers = self.workers();
        let local_bits = self.local_bits;
        let nshards = self.shards.len();
        let fault = if self.fault.is_none() {
            self.schedule.injection(self.stream, self.session, nshards)
        } else {
            self.fault
        };
        self.session += 1;
        let shards = std::mem::take(&mut self.shards);
        // Session open/close are transport cost too: under a rank
        // backend they spawn and join the rank threads, which dominates
        // small plans. Attributed to the exchange stage (the generic
        // cross-shard-movement bucket), disjoint from the per-verb
        // spans inside `run_steps`.
        let mut session = {
            let _span = telemetry::span(telemetry::Stage::TransportExchange);
            self.transport
                .connect(shards, local_bits, &fault, &self.ranks)?
        };
        let run = run_steps(session.as_mut(), sp, local_bits, nshards, workers);
        self.counters.merge(&session.counters());
        let result = run.and_then(|()| {
            let _span = telemetry::span(telemetry::Stage::TransportExchange);
            session.finish()
        });
        match result {
            Ok(shards) => {
                self.shards = shards;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// The worker count the parallelism mode yields for this state.
    fn workers(&self) -> usize {
        match self.parallelism {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => {
                assert!(n > 0, "Parallelism::Threads needs at least one thread");
                n
            }
            Parallelism::Auto => {
                let dim = self.shards.len() << self.local_bits;
                if exec::state_bytes_for(dim) < exec::AUTO_MIN_STATE_BYTES {
                    1
                } else {
                    parallel::num_threads()
                }
            }
        }
    }

    /// Gathers the shards back into a dense [`Statevector`] in logical
    /// basis ordering (un-permuting the adopted layout).
    ///
    /// # Panics
    ///
    /// Panics if the state is poisoned (see
    /// [`ShardedState::try_to_statevector`] for the fallible variant).
    pub fn to_statevector(&self) -> Statevector {
        self.try_to_statevector().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ShardedState::to_statevector`], but returns
    /// [`TransportError::Poisoned`] instead of panicking when a failed
    /// transport session left the shard contents incoherent.
    pub fn try_to_statevector(&self) -> Result<Statevector, TransportError> {
        if self.poisoned {
            return Err(TransportError::Poisoned);
        }
        let _span = telemetry::span(telemetry::Stage::SweepSharded);
        let dim = self.shards.len() << self.local_bits;
        let moved: Vec<(usize, usize)> = self
            .layout
            .iter()
            .enumerate()
            .filter(|&(q, &p)| p != q)
            .map(|(q, &p)| (p, q))
            .collect();
        let mut amps = vec![C64::ZERO; dim];
        if moved.is_empty() {
            for (s, shard) in self.shards.iter().enumerate() {
                let base = s << self.local_bits;
                amps[base..base + shard.len()].copy_from_slice(shard);
            }
        } else {
            let mut fixed_mask = dim - 1;
            for &(p, _) in &moved {
                fixed_mask &= !(1usize << p);
            }
            for (s, shard) in self.shards.iter().enumerate() {
                let base = s << self.local_bits;
                for (j, &a) in shard.iter().enumerate() {
                    let p = base | j;
                    let mut x = p & fixed_mask;
                    for &(pb, lb) in &moved {
                        x |= ((p >> pb) & 1) << lb;
                    }
                    amps[x] = a;
                }
            }
        }
        Ok(Statevector::from_amplitudes(amps))
    }

    /// The full outcome distribution in logical basis ordering.
    ///
    /// # Panics
    ///
    /// Panics if the state is poisoned (see
    /// [`ShardedState::try_probabilities`]).
    pub fn probabilities(&self) -> Vec<f64> {
        self.to_statevector().probabilities()
    }

    /// Like [`ShardedState::probabilities`], but returns
    /// [`TransportError::Poisoned`] instead of panicking.
    pub fn try_probabilities(&self) -> Result<Vec<f64>, TransportError> {
        Ok(self.try_to_statevector()?.probabilities())
    }

    /// The squared norm (1 for a valid state; useful in tests).
    ///
    /// # Panics
    ///
    /// Panics if the state is poisoned: a failed session kept the shard
    /// buffers, so there is no norm to report.
    pub fn norm_sqr(&self) -> f64 {
        assert!(
            !self.poisoned,
            "shard transport: session poisoned by an earlier failure"
        );
        self.shards.iter().flatten().map(|a| a.norm_sqr()).sum()
    }
}

/// Dispatches every step of a shard plan onto a transport session: the
/// whole orchestration layer, backend-agnostic by construction.
fn run_steps(
    session: &mut dyn ShardTransport,
    sp: &ShardPlan,
    local_bits: usize,
    nshards: usize,
    workers: usize,
) -> Result<(), TransportError> {
    for step in sp.steps() {
        match step {
            ShardStep::Local(ops) => {
                let _span = telemetry::span(telemetry::Stage::SweepSharded);
                session.run_local(&LocalOps::new(ops, local_bits), workers)?
            }
            ShardStep::Exchange(op) => {
                let _span = telemetry::span(telemetry::Stage::TransportExchange);
                match classify_exchange(op, local_bits) {
                    ExchangeStep::Pair { sbit, kernel } => {
                        session.exchange_pairs(sbit, &kernel, workers)?
                    }
                    ExchangeStep::Quad { bl, bh, kernel } => {
                        session.exchange_quads(bl, bh, &kernel, workers)?
                    }
                }
            }
            ShardStep::PlaneSwap(op) => {
                let _span = telemetry::span(telemetry::Stage::TransportPlaneSwap);
                session.plane_swap(&plane_swap_pairs(op, local_bits, nshards))?
            }
        }
    }
    Ok(())
}

/// The disjoint shard-index pairs a plane-swap op trades: CX with both
/// qubits global swaps the target bit within the control-set planes,
/// SWAP of two global qubits trades the mixed-bit planes. Pure index
/// arithmetic — the transport decides whether a pair is a handle swap or
/// a relabeling message.
fn plane_swap_pairs(op: &PlanOp, local_bits: usize, nshards: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    match *op {
        PlanOp::Cx { control, target } => {
            let (cbit, tbit) = (
                1usize << (control - local_bits),
                1usize << (target - local_bits),
            );
            for s in 0..nshards {
                if s & cbit != 0 && s & tbit == 0 {
                    pairs.push((s, s | tbit));
                }
            }
        }
        PlanOp::Swap { lo, hi } => {
            let (lbit, hbit) = (1usize << (lo - local_bits), 1usize << (hi - local_bits));
            for s in 0..nshards {
                if s & lbit != 0 && s & hbit == 0 {
                    pairs.push((s, s ^ lbit ^ hbit));
                }
            }
        }
        _ => unreachable!("only CX and SWAP relabel whole shards"),
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn apply_both(c: &Circuit, shards: usize) -> (Statevector, Statevector) {
        let plan = CircuitPlan::compile(c);
        let mut serial = Statevector::zero(c.num_qubits());
        serial.apply_plan(&plan);
        let mut sharded = ShardedState::zero(c.num_qubits(), shards);
        sharded.apply_plan(&plan);
        (serial, sharded.to_statevector())
    }

    #[test]
    fn ghz_matches_across_shard_counts() {
        let n = 5;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        for shards in [1usize, 2, 4, 8] {
            let (serial, sharded) = apply_both(&c, shards);
            assert_eq!(serial.amplitudes(), sharded.amplitudes(), "{shards} shards");
        }
    }

    #[test]
    fn global_qubit_kernels_match() {
        // Every op touches the top qubits, forcing exchanges and plane
        // swaps under a pinned identity layout.
        let n = 4;
        let mut c = Circuit::new(n);
        c.h(3)
            .cx(3, 2)
            .cx(2, 3)
            .cz(3, 0)
            .swap(3, 0)
            .swap(3, 2)
            .ry(3, 0.7)
            .cx(0, 3);
        let plan = CircuitPlan::compile(&c);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        let layout: Vec<usize> = (0..n).collect();
        for shards in [2usize, 4] {
            let sp = ShardPlan::with_layout(&plan, shards, &layout);
            assert!(sp.exchange_count() + sp.plane_swap_count() > 0);
            let mut sharded = ShardedState::zero(n, shards);
            sharded.apply_shard_plan(&sp);
            assert_eq!(
                serial.amplitudes(),
                sharded.to_statevector().amplitudes(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn remap_reduces_exchanges_and_stays_exact() {
        // Rotations hammer the top qubit; the analysis moves it local.
        let n = 6;
        let mut c = Circuit::new(n);
        for i in 0..6 {
            c.ry(n - 1, 0.1 * (i + 1) as f64).cx(n - 1, i % (n - 1));
        }
        let plan = CircuitPlan::compile(&c);
        let remapped = ShardPlan::analyze(&plan, 4);
        let identity = ShardPlan::with_layout(&plan, 4, &(0..n).collect::<Vec<_>>());
        assert!(
            remapped.exchange_count() < identity.exchange_count(),
            "remap {} vs identity {}",
            remapped.exchange_count(),
            identity.exchange_count()
        );
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        let mut sharded = ShardedState::zero(n, 4);
        sharded.apply_shard_plan(&remapped);
        assert_eq!(serial.amplitudes(), sharded.to_statevector().amplitudes());
    }

    #[test]
    fn threads_never_change_results() {
        let n = 7;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(q, 0.2 + q as f64).rz(q, -0.4 * q as f64);
        }
        c.cx(0, 6).cz(5, 6).swap(1, 6).cx(6, 2).h(5);
        let plan = CircuitPlan::compile(&c);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        for threads in [1usize, 2, 3, 8] {
            let mut sharded =
                ShardedState::zero(n, 4).with_parallelism(Parallelism::Threads(threads));
            sharded.apply_plan(&plan);
            assert_eq!(
                serial.amplitudes(),
                sharded.to_statevector().amplitudes(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn second_plan_pins_the_adopted_layout() {
        let n = 4;
        let mut a = Circuit::new(n);
        a.ry(3, 0.3).ry(3, 0.4);
        let mut b = Circuit::new(n);
        b.cx(3, 0).h(1);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&CircuitPlan::compile(&a));
        serial.apply_plan(&CircuitPlan::compile(&b));
        let mut sharded = ShardedState::zero(n, 2);
        sharded.apply_plan(&CircuitPlan::compile(&a));
        let adopted = sharded.layout().to_vec();
        sharded.apply_plan(&CircuitPlan::compile(&b));
        assert_eq!(sharded.layout(), &adopted[..], "layout stays pinned");
        assert_eq!(serial.amplitudes(), sharded.to_statevector().amplitudes());
    }

    #[test]
    fn from_statevector_round_trips() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.9);
        let mut st = Statevector::zero(3);
        st.apply_circuit(&c);
        let sharded = ShardedState::from_statevector(&st, 4);
        assert_eq!(sharded.to_statevector().amplitudes(), st.amplitudes());
        assert!((sharded.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_zero_reports_capacity() {
        let err = ShardedState::try_zero(31, 4).unwrap_err();
        assert_eq!(err.num_qubits(), 31);
        assert!(ShardedState::try_zero(8, 8).is_ok());
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_shards_rejected() {
        ShardedState::zero(4, 3);
    }

    #[test]
    fn auto_shard_count_scales_with_state_bytes() {
        assert_eq!(auto_shard_count(&Circuit::new(4).stats()), 1);
        assert_eq!(auto_shard_count(&Circuit::new(18).stats()), 1);
        assert_eq!(auto_shard_count(&Circuit::new(19).stats()), 2);
        assert_eq!(auto_shard_count(&Circuit::new(20).stats()), 4);
        // Never more shards than amplitudes.
        assert!(auto_shard_count(&Circuit::new(1).stats()) <= 2);
    }

    #[test]
    fn fault_schedule_kills_typed_and_poisons_reads() {
        let mut c = Circuit::new(4);
        c.h(3).cx(3, 0);
        let plan = CircuitPlan::compile(&c);
        // Certain-kill schedule: the first session draws a dead rank.
        let mut sharded =
            ShardedState::zero(4, 4).with_fault_schedule(FaultSchedule::new(7, 1000, 0), 0);
        let err = sharded.try_apply_plan(&plan).unwrap_err();
        assert!(
            matches!(err, TransportError::Disconnected { .. }),
            "got {err:?}"
        );
        assert!(sharded.is_poisoned());
        assert_eq!(
            sharded.try_to_statevector().unwrap_err(),
            TransportError::Poisoned
        );
        assert_eq!(
            sharded.try_probabilities().unwrap_err(),
            TransportError::Poisoned
        );
        assert_eq!(
            sharded.try_apply_plan(&plan).unwrap_err(),
            TransportError::Poisoned
        );
    }

    #[test]
    fn empty_fault_schedule_stays_bit_identical() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).ry(3, 0.7).cx(2, 3);
        let plan = CircuitPlan::compile(&c);
        let mut serial = Statevector::zero(4);
        serial.apply_plan(&plan);
        let mut sharded =
            ShardedState::zero(4, 4).with_fault_schedule(FaultSchedule::new(7, 0, 0), 3);
        sharded.apply_plan(&plan);
        assert!(!sharded.is_poisoned());
        assert_eq!(serial.amplitudes(), sharded.to_statevector().amplitudes());
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn poisoned_norm_panics_with_a_clear_message() {
        let mut c = Circuit::new(4);
        c.h(3);
        let mut sharded = ShardedState::zero(4, 4).with_fault(FaultInjection::kill_rank(0));
        let _ = sharded.try_apply_plan(&CircuitPlan::compile(&c));
        sharded.norm_sqr();
    }

    #[test]
    fn plane_swap_is_handle_relabeling() {
        // A SWAP of two global qubits must cost no amplitude traffic and
        // still relocate the excitation.
        let n = 4;
        let mut c = Circuit::new(n);
        c.x(2).swap(2, 3).cx(2, 3);
        // Unblocked: block fusion would collapse the swap+cx pair into a
        // dense Block4, which always moves data and never plane-swaps.
        let plan = CircuitPlan::compile_unblocked(&c);
        let sp = ShardPlan::with_layout(&plan, 4, &[0, 1, 2, 3]);
        assert_eq!(sp.plane_swap_count(), 2);
        let mut serial = Statevector::zero(n);
        serial.apply_plan(&plan);
        let mut sharded = ShardedState::zero(n, 4);
        sharded.apply_shard_plan(&sp);
        assert_eq!(serial.amplitudes(), sharded.to_statevector().amplitudes());
    }
}
