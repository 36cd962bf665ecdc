//! The rank-transport seam under sharded execution.
//!
//! # Why a seam
//!
//! [`crate::shard::ShardedState`]'s decomposition maps one-to-one onto a
//! distributed backend — shards become ranks, pairwise exchanges become
//! messages, plane swaps become rank relabeling — but the original sweep
//! loop hard-wired the data movement into `qsim::shard`, so the executor
//! could never leave one address space. This module is the seam: the
//! planning layer ([`crate::plan::ShardPlan`]) stays untouched, the
//! orchestration layer (`qsim::shard`) expresses every cross-shard
//! movement as a call on the [`ShardTransport`] trait, and this module
//! owns the backends:
//!
//! - [`LocalSwap`] — today's in-process path: shared-memory pairwise
//!   walks for exchanges (sub-split across worker threads) and O(1)
//!   shard-handle swaps for plane swaps. Zero-copy, zero messages, the
//!   default.
//! - [`ChannelRanks`] — the dress rehearsal for sockets: every shard is
//!   owned by a **rank thread**, exchanges serialize amplitudes into
//!   `u64` bit-word messages over bounded channels, and plane swaps are
//!   rank-relabeling control messages. No two ranks share amplitude
//!   memory; all movement is explicit and counted.
//!
//! # Bit-identical across backends
//!
//! Both backends funnel every amplitude update through the same shared
//! kernels ([`LocalOps`], [`ExchangeKernel`], [`QuadBlockKernel`] — thin
//! wrappers over the `exec` kernels the serial and threaded planes use),
//! and the wire encoding is exact IEEE-754 bit transport
//! (`f64::to_bits`/`from_bits`), so results agree with the serial
//! reference **bit for bit** regardless of transport, shard count, or
//! thread count. Property-tested across the full grid in
//! `tests/shard_equiv.rs` and `tests/transport.rs`.
//!
//! # Error semantics
//!
//! Transport methods return typed [`TransportError`] values — a rank
//! that hung up surfaces [`TransportError::Disconnected`], a stalled
//! collective [`TransportError::Timeout`] — and **never** panic or
//! deadlock on peer failure: every blocking receive carries a deadline,
//! and a failed step flips a shared abort flag so in-flight ranks bail
//! out promptly instead of waiting for data that will never come. After
//! a failure the session is poisoned ([`TransportError::Poisoned`]) and
//! the rank threads are joined on drop — no leaks.
//!
//! # Counters
//!
//! Every backend tallies its movement in [`TransportCounters`]
//! (exchanges, plane swaps, sub-splits, messages, bytes moved), surfaced
//! through `ShardedState::shard_stats` so benches and experiments can
//! report movement volume per backend honestly. A [`RankGauge`] counts
//! the rank threads a state's sessions have spawned and not yet joined,
//! so leak checks read a per-state number instead of the process-wide
//! thread count.

use crate::complex::C64;
use crate::exec::{self, QuadKernel};
use crate::plan::PlanOp;
use crate::state::words;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a rank waits for an amplitude payload before reporting a
/// stalled collective. Generous next to any real exchange (shards are at
/// most a few MiB) but bounded, so a dead peer can never deadlock a step.
const DATA_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the coordinator waits for per-step acknowledgements; must
/// exceed [`DATA_TIMEOUT`] so a rank's own timeout report wins the race.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Poll granularity for abortable waits: a failed step flips the shared
/// abort flag and every in-flight rank notices within one poll.
const POLL: Duration = Duration::from_millis(5);

/// Bounded per-rank channel capacity. Commands are lockstep (at most one
/// outstanding plus a teardown `Exit`), and a quad leader receives at
/// most three payloads per step, so four slots keep every send
/// non-blocking in a healthy session and bounded in a failing one.
const CHANNEL_CAPACITY: usize = 4;

/// A shard-transport failure, always surfaced as a value — transports
/// never panic or deadlock on peer failure (see the [module docs](self)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// A rank endpoint hung up: its thread exited (or was never alive)
    /// and its channel is closed. `rank` is the peer being addressed,
    /// `step` the operation that noticed.
    Disconnected {
        /// The rank that is gone.
        rank: usize,
        /// The transport step that observed the hang-up.
        step: &'static str,
    },
    /// A collective step missed its deadline: a peer stalled or vanished
    /// mid-collective without closing its channel.
    Timeout {
        /// The transport step that timed out.
        step: &'static str,
    },
    /// The transport session already failed (or its state was already
    /// gathered); no further steps are possible.
    Poisoned,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected { rank, step } => {
                write!(f, "shard transport: rank {rank} disconnected during {step}")
            }
            TransportError::Timeout { step } => {
                write!(f, "shard transport: {step} timed out")
            }
            TransportError::Poisoned => {
                write!(f, "shard transport: session poisoned by an earlier failure")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Movement tallies a transport backend accumulates per session and
/// `ShardedState` accumulates across plans (see `shard_stats`).
///
/// `messages`/`bytes_moved` count explicit rank-addressed traffic, so
/// they are zero for [`LocalSwap`] (shared memory moves no messages) and
/// the honest wire volume for [`ChannelRanks`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Batched local-op runs executed (one per `ShardStep::Local`).
    pub local_runs: u64,
    /// Pairwise exchange steps executed.
    pub exchanges: u64,
    /// Quad (both pair bits global) exchange steps executed.
    pub quad_exchanges: u64,
    /// Plane-swap steps executed (handle swaps or relabel rounds).
    pub plane_swaps: u64,
    /// Extra sub-slices created to spread exchanges across workers
    /// (zero when every pair ran as one slice).
    pub sub_splits: u64,
    /// Rank-addressed messages sent: commands, amplitude payloads, and
    /// replies. Zero for shared-memory transports.
    pub messages: u64,
    /// Amplitude-payload bytes serialized onto the wire. Zero for
    /// shared-memory transports.
    pub bytes_moved: u64,
}

impl TransportCounters {
    /// Field-wise accumulation (`ShardedState` merges one session's
    /// counters per applied plan).
    pub fn merge(&mut self, other: &TransportCounters) {
        self.local_runs += other.local_runs;
        self.exchanges += other.exchanges;
        self.quad_exchanges += other.quad_exchanges;
        self.plane_swaps += other.plane_swaps;
        self.sub_splits += other.sub_splits;
        self.messages += other.messages;
        self.bytes_moved += other.bytes_moved;
    }
}

/// A live count of rank threads, shared by cloning the handle.
///
/// [`ChannelRanks`] raises the gauge for every `varsaw-rank-N` thread it
/// spawns and lowers it as each thread is joined; [`LocalSwap`] owns no
/// threads and never touches it. Every `ShardedState` reports into one
/// (its own by default, see `ShardedState::rank_gauge`), and the handle
/// outlives the state, so `live() == 0` after the state is gone proves
/// its sessions leaked no rank thread — unaffected by threads other
/// code in the process starts or stops meanwhile.
///
/// ```
/// use qsim::{Circuit, CircuitPlan, ShardedState, TransportMode};
///
/// let mut c = Circuit::new(4);
/// c.h(0).cx(0, 3);
/// let mut st = ShardedState::zero(4, 2).with_transport(TransportMode::Channel);
/// let gauge = st.rank_gauge();
/// st.apply_plan(&CircuitPlan::compile(&c));
/// drop(st);
/// assert_eq!(gauge.spawned(), 2);
/// assert_eq!(gauge.live(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RankGauge(Arc<RankCounts>);

#[derive(Debug, Default)]
struct RankCounts {
    live: AtomicUsize,
    spawned: AtomicU64,
}

impl RankGauge {
    /// A gauge reading zero, shared with nothing yet.
    pub fn new() -> Self {
        RankGauge::default()
    }

    /// Rank threads spawned and not yet joined.
    pub fn live(&self) -> usize {
        self.0.live.load(Ordering::SeqCst)
    }

    /// Rank threads ever spawned under this gauge.
    pub fn spawned(&self) -> u64 {
        self.0.spawned.load(Ordering::SeqCst)
    }

    fn rise(&self) {
        self.0.live.fetch_add(1, Ordering::SeqCst);
        self.0.spawned.fetch_add(1, Ordering::SeqCst);
    }

    fn fall(&self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Which transport backend a sharded state moves amplitudes with.
///
/// The process default comes from the `VARSAW_SHARD_TRANSPORT`
/// environment variable (validated by [`parallel::config`]; unknown
/// names warn and fall back to [`TransportMode::Local`]). The choice
/// never affects results — both backends are bit-identical to the
/// serial reference — only where amplitudes live and how they move.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportMode {
    /// [`LocalSwap`]: in-process handle swaps and shared-memory pairwise
    /// walks. Zero-copy.
    #[default]
    Local,
    /// [`ChannelRanks`]: one rank thread per shard, amplitude-word
    /// messages over bounded channels.
    Channel,
}

impl TransportMode {
    /// The process-wide default: the validated `VARSAW_SHARD_TRANSPORT`
    /// value, or [`TransportMode::Local`] when unset.
    pub fn from_env() -> Self {
        match parallel::shard_transport() {
            Some(parallel::config::ShardTransport::Channel) => TransportMode::Channel,
            Some(parallel::config::ShardTransport::Local) | None => TransportMode::Local,
        }
    }

    /// The backend name as it appears in env values and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            TransportMode::Local => "local",
            TransportMode::Channel => "channel",
        }
    }

    /// Opens a transport session owning `shards` (moved in; recovered by
    /// [`ShardTransport::finish`]). Rank threads report into `ranks`.
    pub(crate) fn connect(
        self,
        shards: Vec<Vec<C64>>,
        local_bits: usize,
        fault: &FaultInjection,
        ranks: &RankGauge,
    ) -> Result<Box<dyn ShardTransport>, TransportError> {
        match self {
            TransportMode::Local => Ok(Box::new(LocalSwap::with_fault(shards, local_bits, fault))),
            TransportMode::Channel => Ok(Box::new(ChannelRanks::connect(
                shards, local_bits, fault, ranks,
            )?)),
        }
    }
}

/// Chaos-testing hooks for transport sessions, settable through
/// `ShardedState::with_fault` (or drawn per session from a
/// [`FaultSchedule`]). The default injects nothing.
///
/// On [`ChannelRanks`] both hooks prove the hard claims — corruption is
/// caught by the equivalence oracle (the cross-backend proptests are
/// non-vacuous) and a dead rank surfaces a typed error, not a deadlock.
/// [`LocalSwap`] owns no ranks but honors [`FaultInjection::kill_rank`]
/// all the same (a movement step touching the killed shard index fails
/// typed), so supervisors can rehearse recovery on either backend; it
/// moves no wire words, so `corrupt_word` has nothing to corrupt there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInjection {
    corrupt_word: Option<u64>,
    kill_rank: Option<usize>,
}

impl FaultInjection {
    /// No injected faults (the default).
    pub fn none() -> Self {
        FaultInjection::default()
    }

    /// Corrupts the `nth` amplitude word serialized onto the wire
    /// (counted across the whole session) by flipping its exponent bits
    /// — zero becomes one, any other value changes by at least a factor
    /// of two, so the corruption is always visible to the oracle.
    pub fn corrupt_word(nth: u64) -> Self {
        FaultInjection {
            corrupt_word: Some(nth),
            ..Default::default()
        }
    }

    /// Kills rank `rank` at session start: its thread exits immediately,
    /// so the first step that addresses it fails with a typed
    /// [`TransportError`].
    pub fn kill_rank(rank: usize) -> Self {
        FaultInjection {
            kill_rank: Some(rank),
            ..Default::default()
        }
    }

    /// Whether this injection does anything at all.
    pub fn is_none(&self) -> bool {
        self.corrupt_word.is_none() && self.kill_rank.is_none()
    }
}

/// A seed-deterministic schedule of transport faults: which fault kind
/// hits which rank in which session, driven by a SplitMix64 stream, so
/// chaos runs are exactly reproducible.
///
/// A schedule is a pure function: [`FaultSchedule::injection`] maps
/// `(schedule seed, stream, session index, rank count)` to one
/// [`FaultInjection`] with no hidden state, so two runs with the same
/// coordinates draw identical faults — and a supervisor retrying a
/// failed job can vary the `stream` coordinate (e.g. mix in the attempt
/// number) to give each attempt an independent draw without perturbing
/// any other job's schedule.
///
/// Rates are per-mille probabilities per session. Kill faults take
/// priority over corruption when both fire; a session whose draws all
/// miss gets [`FaultInjection::none`].
///
/// # Examples
///
/// ```
/// use qsim::FaultSchedule;
///
/// let schedule = FaultSchedule::new(42, 500, 0); // kill ~half the sessions
/// // Pure: the same coordinates always draw the same fault.
/// assert_eq!(schedule.injection(7, 0, 4), schedule.injection(7, 0, 4));
/// // Different sessions draw independently.
/// let hits = (0..100)
///     .filter(|&s| !schedule.injection(7, s, 4).is_none())
///     .count();
/// assert!(hits > 20 && hits < 80, "~50% of sessions draw a kill: {hits}");
/// assert!(FaultSchedule::none().injection(7, 0, 4).is_none());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    seed: u64,
    kill_per_mille: u16,
    corrupt_per_mille: u16,
}

impl FaultSchedule {
    /// An empty schedule: every session draws [`FaultInjection::none`].
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// A schedule drawing rank kills with probability `kill_per_mille`/1000
    /// and wire-word corruption with probability `corrupt_per_mille`/1000
    /// per session, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either rate exceeds 1000.
    pub fn new(seed: u64, kill_per_mille: u16, corrupt_per_mille: u16) -> Self {
        assert!(kill_per_mille <= 1000, "kill rate is per mille");
        assert!(corrupt_per_mille <= 1000, "corrupt rate is per mille");
        FaultSchedule {
            seed,
            kill_per_mille,
            corrupt_per_mille,
        }
    }

    /// Whether this schedule can ever inject a fault.
    pub fn is_none(&self) -> bool {
        self.kill_per_mille == 0 && self.corrupt_per_mille == 0
    }

    /// Draws the fault for session `session` of stream `stream` over
    /// `nranks` ranks — a pure function of the four coordinates.
    pub fn injection(&self, stream: u64, session: u64, nranks: usize) -> FaultInjection {
        if self.is_none() || nranks == 0 {
            return FaultInjection::none();
        }
        // One SplitMix64 walk per (seed, stream, session) coordinate;
        // successive outputs decide kind, target rank, and target word.
        let mut x = splitmix64(
            self.seed
                ^ splitmix64(stream).wrapping_add(splitmix64(session ^ 0x9E37_79B9_7F4A_7C15)),
        );
        let mut next = || {
            x = splitmix64(x);
            x
        };
        if next() % 1000 < u64::from(self.kill_per_mille) {
            return FaultInjection::kill_rank((next() % nranks as u64) as usize);
        }
        if next() % 1000 < u64::from(self.corrupt_per_mille) {
            return FaultInjection::corrupt_word(next() % 256);
        }
        FaultInjection::none()
    }
}

/// SplitMix64's output mix: a cheap, high-quality finalizer (the same
/// family `sched::job_seed` uses), so fault draws decorrelate even for
/// adjacent stream/session coordinates.
fn splitmix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A batched run of shard-local plan ops, cheaply cloneable so a
/// channel backend can hand every rank the same batch. Applying it to a
/// shard performs exactly the arithmetic the in-process path performs.
#[derive(Clone, Debug)]
pub struct LocalOps {
    ops: Arc<[PlanOp]>,
    local_bits: usize,
}

impl LocalOps {
    pub(crate) fn new(ops: &[PlanOp], local_bits: usize) -> Self {
        LocalOps {
            ops: ops.into(),
            local_bits,
        }
    }

    /// The number of batched ops.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Runs the whole batch on one shard. `shard_index` supplies the
    /// global index bits (qubits at or above the local range appear only
    /// as control/phase conditions, which select whole shards).
    pub fn apply_to_shard(&self, shard: &mut [C64], shard_index: usize) {
        let base = shard_index << self.local_bits;
        for op in self.ops.iter() {
            apply_local_op(shard, base, self.local_bits, op);
        }
    }
}

/// The elementwise update rule of one pairwise exchange step, shared by
/// every backend so cross-backend results stay bit-identical. `sa` is
/// the shard with the exchanged bit clear, `sb` its partner with it set.
#[derive(Clone, Copy, Debug)]
pub struct ExchangeKernel {
    kind: PairKind,
    min_block: usize,
}

#[derive(Clone, Copy, Debug)]
enum PairKind {
    OneQ { m: [[C64; 2]; 2] },
    CxLocalControl { cmask: usize },
    SwapLocalLo { lomask: usize },
    Block4Lo { lomask: usize, k: QuadKernel },
}

impl ExchangeKernel {
    /// Smallest aligned slice this kernel may run on: sub-splits must
    /// preserve an element's low (condition/pair) bits within each
    /// sub-slice, so split sizes must be multiples of this power of two.
    pub fn min_block(&self) -> usize {
        self.min_block
    }

    /// Updates one paired (low-half, high-half) slice run elementwise.
    /// Both slices must have equal, `min_block`-aligned lengths.
    pub fn apply_pair(&self, sa: &mut [C64], sb: &mut [C64]) {
        debug_assert_eq!(sa.len(), sb.len());
        debug_assert_eq!(sa.len() % self.min_block, 0);
        match self.kind {
            PairKind::OneQ { m } => {
                for (a, b) in sa.iter_mut().zip(sb.iter_mut()) {
                    let (b0, b1) = exec::pair_update(&m, *a, *b);
                    *a = b0;
                    *b = b1;
                }
            }
            PairKind::CxLocalControl { cmask } => {
                // Swap pairs whose (local) index has the control bit set;
                // alignment guarantees `j & cmask` only depends on the
                // in-slice offset.
                for j in 0..sa.len() {
                    if j & cmask != 0 {
                        std::mem::swap(&mut sa[j], &mut sb[j]);
                    }
                }
            }
            PairKind::SwapLocalLo { lomask } => {
                // Pair (i0 | lomask) on the low half with i0 on the high
                // half, i0 running over lo-clear offsets.
                let lo_bit = lomask.trailing_zeros() as usize;
                for p in 0..sa.len() / 2 {
                    let i0 = exec::insert_zero_bit(p, lo_bit);
                    std::mem::swap(&mut sa[i0 | lomask], &mut sb[i0]);
                }
            }
            PairKind::Block4Lo { lomask, k } => {
                // The high pair bit selects the half (sa = clear, sb =
                // set); the low bit is in-slice. Quads load in pair-basis
                // order s = 2·bit(hi) + bit(lo).
                let lo_bit = lomask.trailing_zeros() as usize;
                for p in 0..sa.len() / 2 {
                    let i0 = exec::insert_zero_bit(p, lo_bit);
                    let out = k.apply([sa[i0], sa[i0 | lomask], sb[i0], sb[i0 | lomask]]);
                    sa[i0] = out[0];
                    sa[i0 | lomask] = out[1];
                    sb[i0] = out[2];
                    sb[i0 | lomask] = out[3];
                }
            }
        }
    }
}

/// The elementwise update rule of one quad exchange step (an entangler
/// block with both pair bits global): the four shard slices hold the
/// four pair-basis amplitude planes.
#[derive(Clone, Copy, Debug)]
pub struct QuadBlockKernel {
    k: QuadKernel,
}

impl QuadBlockKernel {
    /// Updates the four pair-basis planes elementwise. All slices must
    /// have equal lengths; plane order is `s = 2·bit(hi) + bit(lo)`.
    pub fn apply_planes(&self, s0: &mut [C64], s1: &mut [C64], s2: &mut [C64], s3: &mut [C64]) {
        debug_assert!(s0.len() == s1.len() && s1.len() == s2.len() && s2.len() == s3.len());
        for (((a0, a1), a2), a3) in s0
            .iter_mut()
            .zip(s1.iter_mut())
            .zip(s2.iter_mut())
            .zip(s3.iter_mut())
        {
            let out = self.k.apply([*a0, *a1, *a2, *a3]);
            *a0 = out[0];
            *a1 = out[1];
            *a2 = out[2];
            *a3 = out[3];
        }
    }
}

/// The movement shape of one `ShardStep::Exchange` op, classified by the
/// orchestrator and dispatched onto the transport.
pub(crate) enum ExchangeStep {
    /// Shards pair along one shard-index bit (`sbit`).
    Pair { sbit: usize, kernel: ExchangeKernel },
    /// Shards group into quads along two shard-index bits.
    Quad {
        bl: usize,
        bh: usize,
        kernel: QuadBlockKernel,
    },
}

/// Classifies an exchange op into its movement shape and shared kernel.
/// `min_block` alignment mirrors the condition/pair-bit constraints of
/// each kind (see [`ExchangeKernel::min_block`]).
pub(crate) fn classify_exchange(op: &PlanOp, local_bits: usize) -> ExchangeStep {
    let pair = |gq: usize, kind: PairKind, min_block: usize| {
        debug_assert!(gq >= local_bits);
        ExchangeStep::Pair {
            sbit: 1usize << (gq - local_bits),
            kernel: ExchangeKernel { kind, min_block },
        }
    };
    match *op {
        PlanOp::OneQ { q, m } => pair(q, PairKind::OneQ { m }, 1),
        PlanOp::Cx { control, target } => pair(
            target,
            PairKind::CxLocalControl {
                cmask: 1 << control,
            },
            1usize << (control + 1),
        ),
        PlanOp::Swap { lo, hi } => pair(
            hi,
            PairKind::SwapLocalLo { lomask: 1 << lo },
            1usize << (lo + 1),
        ),
        PlanOp::Block4 { lo, hi, ref m } => {
            if lo >= local_bits {
                // Both pair bits are shard-index bits: shards group into
                // quads instead of pairs.
                debug_assert!(hi > lo);
                ExchangeStep::Quad {
                    bl: 1usize << (lo - local_bits),
                    bh: 1usize << (hi - local_bits),
                    kernel: QuadBlockKernel {
                        k: QuadKernel::of(m),
                    },
                }
            } else {
                pair(
                    hi,
                    PairKind::Block4Lo {
                        lomask: 1 << lo,
                        k: QuadKernel::of(m),
                    },
                    1usize << (lo + 1),
                )
            }
        }
        PlanOp::Cz { .. } => unreachable!("CZ is diagonal and never exchanges"),
    }
}

/// One transport session over a set of shards (see the [module
/// docs](self) for the contract). Sessions are opened per applied plan:
/// the orchestrator moves the shard buffers in, issues steps, and
/// recovers the buffers with [`ShardTransport::finish`].
///
/// Implementations must guarantee:
///
/// - **bit-identity** — every amplitude goes through the shared kernels
///   ([`LocalOps`], [`ExchangeKernel`], [`QuadBlockKernel`]), and any
///   serialization round-trips `f64` bits exactly;
/// - **typed failure** — peer loss surfaces as a [`TransportError`]
///   value, never a panic or deadlock, and after an error the session
///   reports [`TransportError::Poisoned`] on further steps;
/// - **no leaks** — any owned threads are joined by `finish` or drop.
pub trait ShardTransport {
    /// The backend name (matches [`TransportMode::name`]).
    fn name(&self) -> &'static str;

    /// The number of shards this session owns.
    fn num_shards(&self) -> usize;

    /// Runs a batch of shard-local ops on every shard.
    fn run_local(&mut self, ops: &LocalOps, workers: usize) -> Result<(), TransportError>;

    /// Pairs shards along shard-index bit `sbit` and updates each pair
    /// elementwise with `kernel`.
    fn exchange_pairs(
        &mut self,
        sbit: usize,
        kernel: &ExchangeKernel,
        workers: usize,
    ) -> Result<(), TransportError>;

    /// Groups shards into quads along shard-index bits `bl < bh` and
    /// updates each quad elementwise with `kernel`.
    fn exchange_quads(
        &mut self,
        bl: usize,
        bh: usize,
        kernel: &QuadBlockKernel,
        workers: usize,
    ) -> Result<(), TransportError>;

    /// Applies a plane swap: each `(a, b)` pair of shard indices trades
    /// identities (handle swap or rank relabeling; no amplitude math).
    fn plane_swap(&mut self, swaps: &[(usize, usize)]) -> Result<(), TransportError>;

    /// The movement tallies accumulated so far.
    fn counters(&self) -> TransportCounters;

    /// Closes the session and returns the shard buffers in shard-index
    /// order, joining any owned threads.
    fn finish(self: Box<Self>) -> Result<Vec<Vec<C64>>, TransportError>;
}

// ---------------------------------------------------------------------
// LocalSwap: the zero-copy in-process backend.
// ---------------------------------------------------------------------

/// The in-process transport: shards live in one address space, exchanges
/// walk shared memory (sub-split across worker threads), plane swaps are
/// O(1) handle swaps. Zero-copy and message-free — the default backend
/// and the performance baseline.
#[derive(Debug)]
pub struct LocalSwap {
    shards: Vec<Vec<C64>>,
    shard_len: usize,
    counters: TransportCounters,
    /// The shard index playing a dead rank, from
    /// [`FaultInjection::kill_rank`] — any movement step touching it
    /// fails typed, mirroring the channel backend's failure surface.
    killed: Option<usize>,
    failed: bool,
}

impl LocalSwap {
    /// Opens a session owning `shards` (each `2^local_bits` amplitudes).
    pub fn new(shards: Vec<Vec<C64>>, local_bits: usize) -> Self {
        LocalSwap::with_fault(shards, local_bits, &FaultInjection::none())
    }

    /// Opens a session with injected faults. The in-process backend has
    /// no wire, so only [`FaultInjection::kill_rank`] is honored (a
    /// killed shard index fails every step that touches it);
    /// `corrupt_word` has no words to corrupt and is ignored.
    pub fn with_fault(shards: Vec<Vec<C64>>, local_bits: usize, fault: &FaultInjection) -> Self {
        let killed = fault.kill_rank.filter(|&r| r < shards.len());
        LocalSwap {
            shards,
            shard_len: 1usize << local_bits,
            counters: TransportCounters::default(),
            killed,
            failed: false,
        }
    }

    /// Fails a step when the session is poisoned or a killed shard index
    /// participates in it (`touches`). Mirrors [`ChannelRanks`]: the
    /// first failure poisons the session for every later step.
    fn check(
        &mut self,
        touches: impl Fn(usize) -> bool,
        step: &'static str,
    ) -> Result<(), TransportError> {
        if self.failed {
            return Err(TransportError::Poisoned);
        }
        if let Some(rank) = self.killed.filter(|&r| touches(r)) {
            self.failed = true;
            return Err(TransportError::Disconnected { rank, step });
        }
        Ok(())
    }
}

impl ShardTransport for LocalSwap {
    fn name(&self) -> &'static str {
        "local"
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn run_local(&mut self, ops: &LocalOps, workers: usize) -> Result<(), TransportError> {
        self.check(|_| true, "local run")?;
        let nshards = self.shards.len();
        let w = workers.min(nshards).max(1);
        parallel::for_each_chunk_mut(&mut self.shards, w, |wi, chunk| {
            let first = parallel::worker_range(nshards, w, wi).start;
            for (i, shard) in chunk.iter_mut().enumerate() {
                ops.apply_to_shard(shard, first + i);
            }
        });
        self.counters.local_runs += 1;
        Ok(())
    }

    fn exchange_pairs(
        &mut self,
        sbit: usize,
        kernel: &ExchangeKernel,
        workers: usize,
    ) -> Result<(), TransportError> {
        self.check(|_| true, "pair exchange")?;
        // Sub-split each shard pair so small shard counts still saturate
        // the workers; power-of-two split counts keep slices aligned to
        // the kernel's condition/pair bits.
        let npairs = self.shards.len() / 2;
        let max_splits = self.shard_len / kernel.min_block();
        let splits = workers
            .div_ceil(npairs.max(1))
            .next_power_of_two()
            .clamp(1, max_splits.max(1));
        let sub = self.shard_len / splits;

        let mut tasks: Vec<(&mut [C64], &mut [C64])> = Vec::with_capacity(npairs * splits);
        for block in self.shards.chunks_mut(2 * sbit) {
            let (lo_half, hi_half) = block.split_at_mut(sbit);
            for (a, b) in lo_half.iter_mut().zip(hi_half.iter_mut()) {
                for (sa, sb) in a.chunks_mut(sub).zip(b.chunks_mut(sub)) {
                    tasks.push((sa, sb));
                }
            }
        }
        let w = workers.min(tasks.len()).max(1);
        parallel::for_each_chunk_mut(&mut tasks, w, |_, chunk| {
            for (sa, sb) in chunk.iter_mut() {
                kernel.apply_pair(sa, sb);
            }
        });
        self.counters.exchanges += 1;
        self.counters.sub_splits += splits as u64 - 1;
        Ok(())
    }

    fn exchange_quads(
        &mut self,
        bl: usize,
        bh: usize,
        kernel: &QuadBlockKernel,
        workers: usize,
    ) -> Result<(), TransportError> {
        self.check(|_| true, "quad exchange")?;
        let nquads = self.shards.len() / 4;
        let splits = workers
            .div_ceil(nquads.max(1))
            .next_power_of_two()
            .clamp(1, self.shard_len);
        let sub = self.shard_len / splits;

        // Pull the four member shards of each quad out of `self.shards`
        // without overlapping borrows: each slot is taken exactly once.
        let mut slots: Vec<Option<&mut [C64]>> = self
            .shards
            .iter_mut()
            .map(|s| Some(s.as_mut_slice()))
            .collect();
        let mut tasks: Vec<[&mut [C64]; 4]> = Vec::with_capacity(nquads * splits);
        for s in 0..slots.len() {
            if s & bl != 0 || s & bh != 0 {
                continue;
            }
            let s0 = slots[s].take().expect("quad base taken once");
            let s1 = slots[s | bl].take().expect("quad lo taken once");
            let s2 = slots[s | bh].take().expect("quad hi taken once");
            let s3 = slots[s | bl | bh].take().expect("quad both taken once");
            for (((c0, c1), c2), c3) in s0
                .chunks_mut(sub)
                .zip(s1.chunks_mut(sub))
                .zip(s2.chunks_mut(sub))
                .zip(s3.chunks_mut(sub))
            {
                tasks.push([c0, c1, c2, c3]);
            }
        }
        let w = workers.min(tasks.len()).max(1);
        parallel::for_each_chunk_mut(&mut tasks, w, |_, chunk| {
            for [s0, s1, s2, s3] in chunk.iter_mut() {
                kernel.apply_planes(s0, s1, s2, s3);
            }
        });
        self.counters.quad_exchanges += 1;
        self.counters.sub_splits += splits as u64 - 1;
        Ok(())
    }

    fn plane_swap(&mut self, swaps: &[(usize, usize)]) -> Result<(), TransportError> {
        self.check(
            |r| swaps.iter().any(|&(a, b)| a == r || b == r),
            "plane swap",
        )?;
        for &(a, b) in swaps {
            self.shards.swap(a, b);
        }
        self.counters.plane_swaps += 1;
        Ok(())
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }

    fn finish(self: Box<Self>) -> Result<Vec<Vec<C64>>, TransportError> {
        if self.failed {
            return Err(TransportError::Poisoned);
        }
        Ok(self.shards)
    }
}

// ---------------------------------------------------------------------
// ChannelRanks: the message-passing rank-thread backend.
// ---------------------------------------------------------------------

/// Shared fault-injection state (see [`FaultInjection`]): the word
/// counter orders every serialized word across ranks so exactly one
/// word gets corrupted.
#[derive(Debug)]
struct FaultState {
    corrupt_word: Option<u64>,
    kill_rank: Option<usize>,
    word_counter: AtomicU64,
}

impl FaultState {
    fn new(f: &FaultInjection) -> Self {
        FaultState {
            corrupt_word: f.corrupt_word,
            kill_rank: f.kill_rank,
            word_counter: AtomicU64::new(0),
        }
    }

    /// Serializes `amps` into `out`, applying word corruption when this
    /// session's injected target falls inside the encoded range.
    fn encode(&self, amps: &[C64], out: &mut Vec<u64>) {
        words::encode(amps, out);
        if let Some(target) = self.corrupt_word {
            let start = self
                .word_counter
                .fetch_add(out.len() as u64, Ordering::SeqCst);
            if target >= start && target < start + out.len() as u64 {
                // Flip the exponent bits: zero becomes one, anything
                // else changes by at least a factor of two, so the
                // corruption is always visible to the oracle.
                out[(target - start) as usize] ^= 0x3FF0_0000_0000_0000;
            }
        }
    }
}

/// An amplitude payload: `tag` is 0 for pair traffic and the quad
/// position (1–3) for quad gathers.
struct DataMsg {
    tag: usize,
    words: Vec<u64>,
}

/// One lockstep command to a rank. Each command is acknowledged exactly
/// once on the shared done channel (except `Exit`, which ends the rank).
enum Command {
    /// Run a local-op batch on the owned shard.
    Local(LocalOps),
    /// Lead a pairwise exchange: receive the peer's shard, run the
    /// kernel over both, send the peer's half back.
    PairLead {
        kernel: ExchangeKernel,
        peer: SyncSender<DataMsg>,
        peer_rank: usize,
    },
    /// Follow a pairwise exchange: send the owned shard to the leader,
    /// receive the replacement.
    PairFollow {
        leader: SyncSender<DataMsg>,
        leader_rank: usize,
    },
    /// Lead a quad exchange: receive three peer planes, run the kernel,
    /// scatter the results back. `peers[i]` owns pair-basis plane `i+1`.
    QuadLead {
        kernel: QuadBlockKernel,
        peers: Vec<(usize, SyncSender<DataMsg>)>,
    },
    /// Follow a quad exchange as pair-basis plane `pos` (1–3).
    QuadFollow {
        pos: usize,
        leader: SyncSender<DataMsg>,
        leader_rank: usize,
    },
    /// Adopt a new shard index (a plane swap relabeled this rank).
    Relabel { shard_index: usize },
    /// Leave the session, returning the owned shard through the join
    /// handle. Never acknowledged.
    Exit,
}

/// The message-passing transport: every shard is owned by one rank
/// thread; no two ranks share amplitude memory. Exchanges serialize
/// amplitudes into `u64` bit-word messages over bounded channels
/// (gather–compute–scatter at the pair/quad leader, which runs the same
/// shared kernels as [`LocalSwap`] — bit-identity by construction), and
/// plane swaps send rank-relabeling control messages instead of moving
/// any amplitude data. The in-process dress rehearsal for a socket
/// transport: everything that would cross a network is explicit,
/// serialized, and counted.
pub struct ChannelRanks {
    nshards: usize,
    /// `rank_of_shard[s]` = the rank currently owning shard index `s`
    /// (plane swaps permute this map).
    rank_of_shard: Vec<usize>,
    cmd_tx: Vec<SyncSender<Command>>,
    data_tx: Vec<SyncSender<DataMsg>>,
    done_rx: Receiver<(usize, Result<(), TransportError>)>,
    handles: Vec<Option<JoinHandle<(usize, Vec<C64>)>>>,
    /// Raised per spawned rank thread, lowered per joined one.
    ranks: RankGauge,
    abort: Arc<AtomicBool>,
    counters: TransportCounters,
    failed: Option<TransportError>,
    shard_len: usize,
}

impl fmt::Debug for ChannelRanks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelRanks")
            .field("nshards", &self.nshards)
            .field("rank_of_shard", &self.rank_of_shard)
            .field("counters", &self.counters)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

impl ChannelRanks {
    /// Spawns one rank thread per shard and hands each its shard buffer,
    /// counting every thread in `ranks` until it is joined.
    pub fn connect(
        shards: Vec<Vec<C64>>,
        local_bits: usize,
        fault: &FaultInjection,
        ranks: &RankGauge,
    ) -> Result<Self, TransportError> {
        let nshards = shards.len();
        let shard_len = 1usize << local_bits;
        let fault = Arc::new(FaultState::new(fault));
        let abort = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel::<(usize, Result<(), TransportError>)>();

        let mut cmd_tx = Vec::with_capacity(nshards);
        let mut data_tx = Vec::with_capacity(nshards);
        let mut endpoints = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (ctx, crx) = mpsc::sync_channel::<Command>(CHANNEL_CAPACITY);
            let (dtx, drx) = mpsc::sync_channel::<DataMsg>(CHANNEL_CAPACITY);
            cmd_tx.push(ctx);
            data_tx.push(dtx);
            endpoints.push((crx, drx));
        }

        let mut session = ChannelRanks {
            nshards,
            rank_of_shard: (0..nshards).collect(),
            cmd_tx,
            data_tx,
            done_rx,
            handles: Vec::with_capacity(nshards),
            ranks: ranks.clone(),
            abort,
            counters: TransportCounters::default(),
            failed: None,
            shard_len,
        };
        for (rank, (shard, (crx, drx))) in shards.into_iter().zip(endpoints).enumerate() {
            let done = done_tx.clone();
            let fault = Arc::clone(&fault);
            let abort = Arc::clone(&session.abort);
            let handle = std::thread::Builder::new()
                .name(format!("varsaw-rank-{rank}"))
                .spawn(move || rank_main(rank, shard, crx, drx, done, fault, abort))
                // Dropping the partial session joins the ranks already up.
                .map_err(|_| TransportError::Disconnected {
                    rank,
                    step: "rank spawn",
                })?;
            session.ranks.rise();
            session.handles.push(Some(handle));
        }
        Ok(session)
    }

    /// Fails the session: poisons further steps and flips the abort flag
    /// so in-flight ranks bail out of data waits promptly.
    fn fail(&mut self, e: &TransportError) {
        self.abort.store(true, Ordering::SeqCst);
        self.failed.get_or_insert_with(|| e.clone());
    }

    fn check_live(&self) -> Result<(), TransportError> {
        match &self.failed {
            Some(_) => Err(TransportError::Poisoned),
            None => Ok(()),
        }
    }

    fn send(&self, rank: usize, cmd: Command, step: &'static str) -> Result<(), TransportError> {
        self.cmd_tx[rank]
            .send(cmd)
            .map_err(|_| TransportError::Disconnected { rank, step })
    }

    /// Collects `expected` per-step acknowledgements, surfacing the
    /// first failure (further acks of a failed step are irrelevant: the
    /// session is poisoned and torn down).
    fn wait_acks(&mut self, expected: usize, step: &'static str) -> Result<(), TransportError> {
        let deadline = Instant::now() + ACK_TIMEOUT;
        let mut received = 0;
        while received < expected {
            match self.done_rx.recv_timeout(POLL) {
                Ok((_rank, Ok(()))) => received += 1,
                Ok((_rank, Err(e))) => return Err(e),
                Err(RecvTimeoutError::Timeout) => {
                    // No rank exits mid-plan in a healthy session (Exit
                    // is only sent at teardown), so a finished rank
                    // thread here means its command will never be
                    // acked: report it now instead of waiting out the
                    // full ack deadline.
                    for (rank, handle) in self.handles.iter().enumerate() {
                        if handle.as_ref().is_some_and(|h| h.is_finished()) {
                            return Err(TransportError::Disconnected { rank, step });
                        }
                    }
                    if Instant::now() >= deadline {
                        return Err(TransportError::Timeout { step });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Every rank (and its done sender) is gone.
                    return Err(TransportError::Timeout { step });
                }
            }
        }
        Ok(())
    }

    /// Runs one lockstep step: sends the prepared `(rank, command)`
    /// batch, then waits for one ack per command.
    fn step(
        &mut self,
        sends: Vec<(usize, Command)>,
        step: &'static str,
    ) -> Result<(), TransportError> {
        self.check_live()?;
        let expected = sends.len();
        let result = (|| {
            for (rank, cmd) in sends {
                self.send(rank, cmd, step)?;
            }
            Ok(())
        })()
        .and_then(|()| self.wait_acks(expected, step));
        if let Err(ref e) = result {
            self.fail(e);
        }
        result
    }

    /// Tears the session down: aborts in-flight waits, asks every rank
    /// to exit, and joins the threads, collecting their shards.
    fn teardown(&mut self) -> Vec<(usize, Vec<C64>)> {
        self.abort.store(true, Ordering::SeqCst);
        for tx in &self.cmd_tx {
            // A dead rank's channel is closed; that is fine here.
            let _ = tx.send(Command::Exit);
        }
        let mut out = Vec::with_capacity(self.handles.len());
        for handle in &mut self.handles {
            if let Some(h) = handle.take() {
                let joined = h.join();
                self.ranks.fall();
                if let Ok(pair) = joined {
                    out.push(pair);
                }
            }
        }
        out
    }
}

impl ShardTransport for ChannelRanks {
    fn name(&self) -> &'static str {
        "channel"
    }

    fn num_shards(&self) -> usize {
        self.nshards
    }

    /// Rank-level parallelism *is* the threading here: every rank runs
    /// its own batch concurrently, so `workers` is ignored.
    fn run_local(&mut self, ops: &LocalOps, _workers: usize) -> Result<(), TransportError> {
        let sends = self
            .rank_of_shard
            .iter()
            .map(|&rank| (rank, Command::Local(ops.clone())))
            .collect::<Vec<_>>();
        let n = sends.len() as u64;
        self.step(sends, "local run")?;
        self.counters.local_runs += 1;
        self.counters.messages += n;
        Ok(())
    }

    fn exchange_pairs(
        &mut self,
        sbit: usize,
        kernel: &ExchangeKernel,
        _workers: usize,
    ) -> Result<(), TransportError> {
        let mut sends = Vec::with_capacity(self.nshards);
        let mut npairs = 0u64;
        for s in 0..self.nshards {
            if s & sbit != 0 {
                continue;
            }
            let leader = self.rank_of_shard[s];
            let follower = self.rank_of_shard[s | sbit];
            sends.push((
                leader,
                Command::PairLead {
                    kernel: *kernel,
                    peer: self.data_tx[follower].clone(),
                    peer_rank: follower,
                },
            ));
            sends.push((
                follower,
                Command::PairFollow {
                    leader: self.data_tx[leader].clone(),
                    leader_rank: leader,
                },
            ));
            npairs += 1;
        }
        self.step(sends, "pair exchange")?;
        self.counters.exchanges += 1;
        // Per pair: 2 commands + 2 amplitude payloads (gather + reply).
        self.counters.messages += 4 * npairs;
        self.counters.bytes_moved += 2 * npairs * self.shard_len as u64 * words::BYTES_PER_AMP;
        Ok(())
    }

    fn exchange_quads(
        &mut self,
        bl: usize,
        bh: usize,
        kernel: &QuadBlockKernel,
        _workers: usize,
    ) -> Result<(), TransportError> {
        let mut sends = Vec::with_capacity(self.nshards);
        let mut nquads = 0u64;
        for s in 0..self.nshards {
            if s & bl != 0 || s & bh != 0 {
                continue;
            }
            let leader = self.rank_of_shard[s];
            let members = [s | bl, s | bh, s | bl | bh];
            let peers: Vec<(usize, SyncSender<DataMsg>)> = members
                .iter()
                .map(|&m| {
                    let r = self.rank_of_shard[m];
                    (r, self.data_tx[r].clone())
                })
                .collect();
            for (pos, &(rank, _)) in peers.iter().enumerate() {
                sends.push((
                    rank,
                    Command::QuadFollow {
                        pos: pos + 1,
                        leader: self.data_tx[leader].clone(),
                        leader_rank: leader,
                    },
                ));
            }
            sends.push((
                leader,
                Command::QuadLead {
                    kernel: *kernel,
                    peers,
                },
            ));
            nquads += 1;
        }
        self.step(sends, "quad exchange")?;
        self.counters.quad_exchanges += 1;
        // Per quad: 4 commands + 3 gathers + 3 scatters.
        self.counters.messages += 10 * nquads;
        self.counters.bytes_moved += 6 * nquads * self.shard_len as u64 * words::BYTES_PER_AMP;
        Ok(())
    }

    fn plane_swap(&mut self, swaps: &[(usize, usize)]) -> Result<(), TransportError> {
        let mut sends = Vec::with_capacity(swaps.len() * 2);
        for &(a, b) in swaps {
            let (ra, rb) = (self.rank_of_shard[a], self.rank_of_shard[b]);
            sends.push((ra, Command::Relabel { shard_index: b }));
            sends.push((rb, Command::Relabel { shard_index: a }));
            self.rank_of_shard.swap(a, b);
        }
        let n = sends.len() as u64;
        self.step(sends, "plane swap")?;
        self.counters.plane_swaps += 1;
        self.counters.messages += n;
        Ok(())
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }

    fn finish(mut self: Box<Self>) -> Result<Vec<Vec<C64>>, TransportError> {
        self.check_live()?;
        let collected = self.teardown();
        if collected.len() != self.nshards {
            return Err(TransportError::Timeout {
                step: "final gather",
            });
        }
        let mut shards: Vec<Option<Vec<C64>>> = (0..self.nshards).map(|_| None).collect();
        for (shard_index, shard) in collected {
            shards[shard_index] = Some(shard);
        }
        shards
            .into_iter()
            .map(|s| {
                s.ok_or(TransportError::Timeout {
                    step: "final gather",
                })
            })
            .collect()
    }
}

impl Drop for ChannelRanks {
    fn drop(&mut self) {
        // `finish` already took the handles in the healthy path; this
        // covers error paths so rank threads never leak.
        self.teardown();
    }
}

/// The body of one rank thread: owns exactly one shard, serves lockstep
/// commands, and returns `(shard_index, shard)` on exit.
fn rank_main(
    rank: usize,
    mut shard: Vec<C64>,
    cmd_rx: Receiver<Command>,
    data_rx: Receiver<DataMsg>,
    done_tx: mpsc::Sender<(usize, Result<(), TransportError>)>,
    fault: Arc<FaultState>,
    abort: Arc<AtomicBool>,
) -> (usize, Vec<C64>) {
    let mut shard_index = rank;
    if fault.kill_rank == Some(rank) {
        return (shard_index, shard);
    }
    let mut wire = Vec::new();
    loop {
        let cmd = match cmd_rx.recv() {
            Ok(c) => c,
            // The coordinator is gone; nothing left to serve.
            Err(_) => return (shard_index, shard),
        };
        let result = match cmd {
            Command::Exit => return (shard_index, shard),
            Command::Relabel { shard_index: s } => {
                shard_index = s;
                Ok(())
            }
            Command::Local(ops) => {
                ops.apply_to_shard(&mut shard, shard_index);
                Ok(())
            }
            Command::PairLead {
                kernel,
                peer,
                peer_rank,
            } => pair_lead(
                &mut shard, &kernel, &peer, peer_rank, &data_rx, &fault, &abort, &mut wire,
            ),
            Command::PairFollow {
                leader,
                leader_rank,
            } => pair_follow(
                &mut shard,
                0,
                &leader,
                leader_rank,
                &data_rx,
                &fault,
                &abort,
                &mut wire,
            ),
            Command::QuadLead { kernel, peers } => {
                quad_lead(&mut shard, &kernel, &peers, &data_rx, &fault, &abort)
            }
            Command::QuadFollow {
                pos,
                leader,
                leader_rank,
            } => pair_follow(
                &mut shard,
                pos,
                &leader,
                leader_rank,
                &data_rx,
                &fault,
                &abort,
                &mut wire,
            ),
        };
        if done_tx.send((rank, result)).is_err() {
            return (shard_index, shard);
        }
    }
}

/// Abortable bounded receive: waits up to [`DATA_TIMEOUT`] for a
/// payload, bailing within one [`POLL`] interval when the session
/// aborts — the mechanism that turns a dead peer into a typed error
/// instead of a deadlock.
fn recv_data(
    data_rx: &Receiver<DataMsg>,
    abort: &AtomicBool,
    step: &'static str,
) -> Result<DataMsg, TransportError> {
    let deadline = Instant::now() + DATA_TIMEOUT;
    loop {
        match data_rx.recv_timeout(POLL) {
            Ok(msg) => return Ok(msg),
            Err(RecvTimeoutError::Timeout) => {
                if abort.load(Ordering::SeqCst) || Instant::now() >= deadline {
                    return Err(TransportError::Timeout { step });
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(TransportError::Timeout { step });
            }
        }
    }
}

/// Pair-exchange leader: gather the peer's shard, run the shared kernel
/// over (own = bit-clear half, peer = bit-set half), scatter the peer's
/// new half back.
#[allow(clippy::too_many_arguments)]
fn pair_lead(
    shard: &mut [C64],
    kernel: &ExchangeKernel,
    peer: &SyncSender<DataMsg>,
    peer_rank: usize,
    data_rx: &Receiver<DataMsg>,
    fault: &FaultState,
    abort: &AtomicBool,
    wire: &mut Vec<u64>,
) -> Result<(), TransportError> {
    let msg = recv_data(data_rx, abort, "pair gather")?;
    let mut peer_shard = vec![C64::ZERO; shard.len()];
    words::decode_into(&msg.words, &mut peer_shard);
    kernel.apply_pair(shard, &mut peer_shard);
    fault.encode(&peer_shard, wire);
    peer.send(DataMsg {
        tag: 0,
        words: std::mem::take(wire),
    })
    .map_err(|_| TransportError::Disconnected {
        rank: peer_rank,
        step: "pair scatter",
    })
}

/// Pair/quad-exchange follower: send the owned shard (tagged with its
/// pair-basis position) to the leader, adopt the returned replacement.
#[allow(clippy::too_many_arguments)]
fn pair_follow(
    shard: &mut [C64],
    tag: usize,
    leader: &SyncSender<DataMsg>,
    leader_rank: usize,
    data_rx: &Receiver<DataMsg>,
    fault: &FaultState,
    abort: &AtomicBool,
    wire: &mut Vec<u64>,
) -> Result<(), TransportError> {
    fault.encode(shard, wire);
    leader
        .send(DataMsg {
            tag,
            words: std::mem::take(wire),
        })
        .map_err(|_| TransportError::Disconnected {
            rank: leader_rank,
            step: "exchange gather",
        })?;
    let msg = recv_data(data_rx, abort, "exchange reply")?;
    words::decode_into(&msg.words, shard);
    Ok(())
}

/// Quad-exchange leader: gather the three peer planes (ordered by their
/// pair-basis tags), run the shared quad kernel across all four, scatter
/// the three peer planes back.
fn quad_lead(
    shard: &mut [C64],
    kernel: &QuadBlockKernel,
    peers: &[(usize, SyncSender<DataMsg>)],
    data_rx: &Receiver<DataMsg>,
    fault: &FaultState,
    abort: &AtomicBool,
) -> Result<(), TransportError> {
    debug_assert_eq!(peers.len(), 3);
    let mut planes: [Vec<C64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..3 {
        let msg = recv_data(data_rx, abort, "quad gather")?;
        debug_assert!((1..=3).contains(&msg.tag));
        let plane = &mut planes[msg.tag - 1];
        debug_assert!(plane.is_empty(), "each quad plane arrives once");
        plane.resize(shard.len(), C64::ZERO);
        words::decode_into(&msg.words, plane);
    }
    {
        let [p1, p2, p3] = &mut planes;
        kernel.apply_planes(shard, p1, p2, p3);
    }
    for (pos, plane) in planes.iter().enumerate() {
        let mut wire = Vec::new();
        fault.encode(plane, &mut wire);
        let (rank, tx) = &peers[pos];
        tx.send(DataMsg {
            tag: pos + 1,
            words: wire,
        })
        .map_err(|_| TransportError::Disconnected {
            rank: *rank,
            step: "quad scatter",
        })?;
    }
    Ok(())
}

/// Applies one shard-local op to a single shard whose global index bits
/// are `base` (already shifted into amplitude-index position). Qubits at
/// or above `local_bits` only appear as control/phase conditions, which
/// select whole shards via `base`.
fn apply_local_op(shard: &mut [C64], base: usize, local_bits: usize, op: &PlanOp) {
    match *op {
        PlanOp::OneQ { q, m } => {
            debug_assert!(q < local_bits);
            exec::apply_1q_local(shard, q, &m);
        }
        PlanOp::Cx { control, target } => {
            debug_assert!(target < local_bits);
            if control < local_bits {
                exec::apply_cx_local(shard, control, target);
            } else if base & (1usize << control) != 0 {
                // Global control: this whole shard sits in the controlled
                // subspace; apply X on the target within it.
                exec::apply_x_local(shard, target);
            }
        }
        PlanOp::Cz { lo, hi } => match (lo < local_bits, hi < local_bits) {
            (true, true) => exec::apply_cz_local(shard, lo, hi),
            (true, false) => {
                if base & (1usize << hi) != 0 {
                    exec::negate_bit_set(shard, lo);
                }
            }
            (false, false) => {
                if base & (1usize << lo) != 0 && base & (1usize << hi) != 0 {
                    for a in shard.iter_mut() {
                        *a = -*a;
                    }
                }
            }
            (false, true) => unreachable!("CZ stores sorted qubits"),
        },
        PlanOp::Swap { lo, hi } => {
            debug_assert!(hi < local_bits);
            exec::apply_swap_local(shard, lo, hi);
        }
        PlanOp::Block4 { lo, hi, ref m } => {
            debug_assert!(hi < local_bits, "local blocks have both pair bits local");
            exec::apply_block4_local(shard, lo, hi, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amp(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }

    fn two_shards() -> Vec<Vec<C64>> {
        vec![
            vec![amp(0.6, 0.0), amp(0.0, 0.4)],
            vec![amp(-0.3, 0.5), amp(0.2, -0.1)],
        ]
    }

    fn h_kernel() -> ExchangeKernel {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        ExchangeKernel {
            kind: PairKind::OneQ {
                m: [[amp(s, 0.0), amp(s, 0.0)], [amp(s, 0.0), amp(-s, 0.0)]],
            },
            min_block: 1,
        }
    }

    #[test]
    fn both_backends_agree_bit_for_bit_on_an_exchange() {
        let kernel = h_kernel();
        let mut local: Box<dyn ShardTransport> = Box::new(LocalSwap::new(two_shards(), 1));
        local.exchange_pairs(1, &kernel, 2).unwrap();
        let a = local.finish().unwrap();
        let mut chan: Box<dyn ShardTransport> = Box::new(
            ChannelRanks::connect(two_shards(), 1, &FaultInjection::none(), &RankGauge::new())
                .unwrap(),
        );
        chan.exchange_pairs(1, &kernel, 2).unwrap();
        let b = chan.finish().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn channel_counters_report_wire_volume() {
        let mut chan =
            ChannelRanks::connect(two_shards(), 1, &FaultInjection::none(), &RankGauge::new())
                .unwrap();
        chan.exchange_pairs(1, &h_kernel(), 1).unwrap();
        let c = chan.counters();
        assert_eq!(c.exchanges, 1);
        // One pair: 2 commands + 2 payloads; 2 shards of 2 amps each way.
        assert_eq!(c.messages, 4);
        assert_eq!(c.bytes_moved, 2 * 2 * words::BYTES_PER_AMP);
        Box::new(chan).finish().unwrap();
    }

    #[test]
    fn local_counters_report_zero_messages() {
        let mut local = LocalSwap::new(two_shards(), 1);
        local.exchange_pairs(1, &h_kernel(), 4).unwrap();
        let c = local.counters();
        assert_eq!(c.exchanges, 1);
        assert_eq!(c.messages, 0);
        assert_eq!(c.bytes_moved, 0);
    }

    #[test]
    fn dead_rank_surfaces_a_typed_error_not_a_deadlock() {
        let mut chan = ChannelRanks::connect(
            two_shards(),
            1,
            &FaultInjection::kill_rank(1),
            &RankGauge::new(),
        )
        .unwrap();
        let err = chan
            .exchange_pairs(1, &h_kernel(), 1)
            .expect_err("dead rank must fail the step");
        assert!(
            matches!(
                err,
                TransportError::Disconnected { rank: 1, .. } | TransportError::Timeout { .. }
            ),
            "unexpected error: {err:?}"
        );
        // The session is poisoned afterwards.
        assert_eq!(
            chan.run_local(&LocalOps::new(&[], 1), 1),
            Err(TransportError::Poisoned)
        );
        assert_eq!(Box::new(chan).finish(), Err(TransportError::Poisoned));
    }

    #[test]
    fn local_backend_honors_kill_rank_typed_and_poisons() {
        let mut local = LocalSwap::with_fault(two_shards(), 1, &FaultInjection::kill_rank(1));
        let err = local
            .exchange_pairs(1, &h_kernel(), 1)
            .expect_err("killed shard index must fail the step");
        assert_eq!(
            err,
            TransportError::Disconnected {
                rank: 1,
                step: "pair exchange"
            }
        );
        assert_eq!(
            local.run_local(&LocalOps::new(&[], 1), 1),
            Err(TransportError::Poisoned)
        );
        assert_eq!(Box::new(local).finish(), Err(TransportError::Poisoned));
    }

    #[test]
    fn local_backend_ignores_out_of_range_kills_and_corruption() {
        let mut local = LocalSwap::with_fault(two_shards(), 1, &FaultInjection::kill_rank(7));
        local.exchange_pairs(1, &h_kernel(), 1).unwrap();
        let mut local = LocalSwap::with_fault(two_shards(), 1, &FaultInjection::corrupt_word(0));
        local.exchange_pairs(1, &h_kernel(), 1).unwrap();
        Box::new(local).finish().unwrap();
    }

    #[test]
    fn fault_schedules_are_pure_and_rate_bounded() {
        let schedule = FaultSchedule::new(99, 250, 250);
        for session in 0..32 {
            for stream in 0..4 {
                assert_eq!(
                    schedule.injection(stream, session, 8),
                    schedule.injection(stream, session, 8),
                    "stream {stream} session {session}"
                );
            }
        }
        // Streams decorrelate: two streams must not share their full
        // fault pattern (probability ~2^-32 under independent draws).
        let pattern = |stream: u64| -> Vec<FaultInjection> {
            (0..64).map(|s| schedule.injection(stream, s, 8)).collect()
        };
        assert_ne!(pattern(0), pattern(1), "streams must draw independently");
        // An always-kill schedule targets a valid rank every session.
        let always = FaultSchedule::new(5, 1000, 0);
        for session in 0..16 {
            let inj = always.injection(0, session, 4);
            let rank = inj.kill_rank.expect("rate 1000 always kills");
            assert!(rank < 4, "rank {rank} out of range");
        }
        assert!(FaultSchedule::none().is_none());
        assert!(FaultSchedule::none().injection(3, 3, 4).is_none());
    }

    #[test]
    fn plane_swap_is_rank_relabeling() {
        let mut chan =
            ChannelRanks::connect(two_shards(), 1, &FaultInjection::none(), &RankGauge::new())
                .unwrap();
        chan.plane_swap(&[(0, 1)]).unwrap();
        let c = chan.counters();
        assert_eq!(c.plane_swaps, 1);
        assert_eq!(c.messages, 2, "two relabel control messages");
        assert_eq!(c.bytes_moved, 0, "no amplitude data moves");
        let shards = Box::new(chan).finish().unwrap();
        let orig = two_shards();
        assert_eq!(shards[0], orig[1]);
        assert_eq!(shards[1], orig[0]);
    }
}
