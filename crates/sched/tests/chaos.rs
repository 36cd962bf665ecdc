//! The fault supervisor's chaos oracle.
//!
//! The supervision contract extends the queue's determinism contract to
//! faulted runs: under any seed-deterministic [`FaultSchedule`], any
//! [`RetryPolicy`], either transport, and any worker count, every job
//! either completes **bit-identical to its fault-free sequential
//! reference** (results stay a pure function of `(root_seed, job_id,
//! spec)` — retries consume no shared RNG and never perturb co-tenants)
//! or returns a typed [`JobError`]. Never a panic, never a deadlock,
//! never a leaked rank thread (read from the queue's rank gauge), and
//! the memory-budget accounting is exact after every drain. The property
//! test below fuzzes that whole grid; targeted tests pin the retry
//! ladder, deadlines, cancellation, and the bounded wait.

use proptest::prelude::*;
use qnoise::DeviceModel;
use qsim::{Circuit, FaultSchedule, Parallelism, Sharding, TransportMode};
use sched::{
    job_seed, Degradation, JobError, JobQueue, JobSpec, MeasureScope, Measurement, RetryPolicy,
};
use std::collections::BTreeMap;
use std::time::Duration;
use vqe::SimExecutor;

const SHOTS: u64 = 64;

/// A hardware-efficient-style ansatz: RY layer, CX chain, RY layer.
fn ansatz(n: usize, angles: &[f64]) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry(q, angles[q % angles.len()]);
    }
    for q in 0..n.saturating_sub(1) {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.ry(q, angles[(n + q) % angles.len()]);
    }
    c
}

/// An `n`-qubit Pauli basis from letter codes (0=I 1=X 2=Y 3=Z), forced
/// non-identity so subset readouts are legal.
fn basis(n: usize, letters: &[usize]) -> pauli::PauliString {
    let mut chars: Vec<char> = letters
        .iter()
        .take(n)
        .map(|&l| ['I', 'X', 'Y', 'Z'][l % 4])
        .collect();
    chars.resize(n, 'I');
    if chars.iter().all(|&c| c == 'I') {
        chars[0] = 'Z';
    }
    chars.iter().collect::<String>().parse().unwrap()
}

/// The fault-free sequential reference: each job alone, on a fresh
/// serial unsharded executor seeded by `job_seed(root_seed, job_id)`.
fn reference(
    device: &DeviceModel,
    root_seed: u64,
    specs: &[JobSpec],
) -> BTreeMap<u64, (Vec<mitigation::Pmf>, u64)> {
    specs
        .iter()
        .map(|spec| {
            let mut exec =
                SimExecutor::new(device.clone(), SHOTS, job_seed(root_seed, spec.job_id))
                    .with_parallelism(Parallelism::Serial);
            let state = exec.prepare(&spec.circuit);
            let pmfs = spec
                .measurements
                .iter()
                .map(|m| match m.scope {
                    MeasureScope::Subset => exec.run_prepared(&state, &m.basis),
                    MeasureScope::Global => exec.run_prepared_all(&state, &m.basis),
                })
                .collect();
            (spec.job_id, (pmfs, exec.circuits_executed()))
        })
        .collect()
}

/// One chaos drain: returns per-job outcomes in spec order, the queue's
/// in-flight bytes, and its live rank threads after the drain.
fn chaos_drain(
    device: &DeviceModel,
    root_seed: u64,
    specs: &[JobSpec],
    schedule: FaultSchedule,
    policy: RetryPolicy,
    transport: TransportMode,
    workers: usize,
) -> (Vec<Result<sched::JobOutput, JobError>>, u128, usize) {
    let queue = JobQueue::new(device.clone(), SHOTS, root_seed)
        .with_workers(workers)
        .with_sharding(Sharding::Shards(4))
        .with_transport(transport)
        .with_fault_schedule(schedule)
        .with_retry_policy(policy);
    let handles: Vec<_> = specs
        .iter()
        .map(|s| queue.submit(s.clone()).unwrap())
        .collect();
    queue.drain();
    assert_eq!(queue.pending(), 0);
    assert_eq!(queue.completed() as usize, specs.len());
    let outcomes = handles.iter().map(|h| h.wait()).collect();
    (outcomes, queue.in_flight_bytes(), queue.rank_gauge().live())
}

proptest! {
    /// Fault schedule × retry policy × transport × worker count: every
    /// job is bit-identical to its fault-free reference or a typed
    /// transport error; the queue's rank gauge returns to zero (no
    /// leaked ranks), in-flight bytes return to zero (no leaked budget),
    /// and the whole outcome vector is reproducible run for run.
    #[test]
    fn chaos_schedules_never_break_determinism_or_leak(
        raw in prop::collection::vec(
            (
                prop::collection::vec(-3.0..3.0f64, 4),    // ansatz angles
                prop::collection::vec(0usize..4, 5),       // basis letters
                0usize..2,                                 // scope
            ),
            1..5,
        ),
        kill_per_mille in prop::sample::select(vec![0u16, 250, 500, 800]),
        retries in 0u32..=3,
        degrade_raw in 0usize..2,
        transport_raw in 0usize..2,
        workers in 1usize..=3,
        schedule_seed in 0u64..1_000_000,
        root_seed in 0u64..1_000_000,
    ) {
        let device = DeviceModel::mumbai_like();
        let specs: Vec<JobSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, (angles, letters, scope))| JobSpec {
                job_id: 31 + 5 * i as u64,
                tenant: i as u64 % 2,
                circuit: ansatz(5, angles),
                measurements: vec![if *scope == 0 {
                    Measurement::subset(basis(5, letters))
                } else {
                    Measurement::global(basis(5, letters))
                }],
            })
            .collect();
        let expected = reference(&device, root_seed, &specs);

        // Kill-rank faults only: corruption completes "successfully"
        // with wrong amplitudes, which is the norm-drift oracle's beat
        // (qsim/tests/transport.rs), not the supervisor's.
        let schedule = FaultSchedule::new(schedule_seed, kill_per_mille, 0);
        let degrade = degrade_raw == 1;
        let policy = RetryPolicy::retries(retries).with_degrade(degrade);
        let transport = if transport_raw == 1 {
            TransportMode::Channel
        } else {
            TransportMode::Local
        };

        let (outcomes, leftover, live_ranks) =
            chaos_drain(&device, root_seed, &specs, schedule, policy, transport, workers);
        prop_assert_eq!(leftover, 0, "budget must be fully released after drain");
        prop_assert_eq!(live_ranks, 0, "rank threads leaked past the drain");

        let max_attempts = retries + 1;
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            match outcome {
                Ok(out) => {
                    let (pmfs, cost) = &expected[&out.job_id];
                    prop_assert_eq!(&out.pmfs, pmfs,
                        "job {} must be bit-identical to its fault-free reference",
                        out.job_id);
                    prop_assert_eq!(out.cost, *cost, "job {} cost", out.job_id);
                    prop_assert!(out.attempts >= 1 && out.attempts <= max_attempts);
                    if out.attempts == 1 || !degrade {
                        prop_assert_eq!(out.degraded_to, None);
                    }
                    if out.degraded_to == Some(Degradation::Unsharded) {
                        prop_assert!(degrade && out.attempts >= 2);
                    }
                }
                Err(JobError::Transport(_)) => {
                    prop_assert!(kill_per_mille > 0,
                        "job {} failed without any fault scheduled", spec.job_id);
                }
                Err(e) => prop_assert!(false,
                    "job {} failed with a non-transport error: {e}", spec.job_id),
            }
        }

        // Chaos runs are exactly reproducible: same schedule, same
        // everything — same outcome vector, Ok and Err alike.
        let (again, _, _) =
            chaos_drain(&device, root_seed, &specs, schedule, policy, transport, workers);
        prop_assert_eq!(&outcomes, &again, "chaos runs must be reproducible");
    }
}

/// Certain-kill schedule + degrading retries: the ladder walks down to
/// unsharded serial and completes bit-identical, with honest
/// `attempts`/`degraded_to` bookkeeping.
#[test]
fn degradation_ladder_lands_unsharded_and_bit_identical() {
    let device = DeviceModel::mumbai_like();
    let angles: Vec<f64> = (0..8).map(|i| 0.4 * i as f64 - 1.3).collect();
    let specs: Vec<JobSpec> = (0..3u64)
        .map(|i| JobSpec {
            job_id: 200 + i,
            tenant: i % 2,
            circuit: ansatz(5, &angles),
            measurements: vec![Measurement::subset(basis(5, &[3, 0, 1, 0, 3]))],
        })
        .collect();
    let expected = reference(&device, 55, &specs);

    // Channel walks channel → local → unsharded (3 attempts); local has
    // no transport rung to shed first, so it lands unsharded on attempt 2.
    for (transport, attempts) in [(TransportMode::Local, 2), (TransportMode::Channel, 3)] {
        let (outcomes, leftover, live_ranks) = chaos_drain(
            &device,
            55,
            &specs,
            FaultSchedule::new(1, 1000, 0), // every sharded session dies
            RetryPolicy::retries(2),        // enough rungs to reach unsharded
            transport,
            2,
        );
        assert_eq!(leftover, 0);
        assert_eq!(live_ranks, 0);
        for out in outcomes {
            let out = out.unwrap_or_else(|e| panic!("{}: {e}", transport.name()));
            let (pmfs, cost) = &expected[&out.job_id];
            assert_eq!(&out.pmfs, pmfs, "{}: job {}", transport.name(), out.job_id);
            assert_eq!(out.cost, *cost);
            assert_eq!(out.attempts, attempts, "{}", transport.name());
            assert_eq!(out.degraded_to, Some(Degradation::Unsharded));
        }
    }
}

/// The same certain-kill schedule without degradation exhausts its
/// attempts and reports the last transport failure, typed.
#[test]
fn exhausted_retries_surface_the_typed_transport_error() {
    let device = DeviceModel::mumbai_like();
    let specs = vec![JobSpec {
        job_id: 300,
        tenant: 0,
        circuit: ansatz(5, &[0.3, -0.9, 1.4]),
        measurements: vec![Measurement::subset(basis(5, &[3, 3, 0, 0, 0]))],
    }];
    let (outcomes, leftover, live_ranks) = chaos_drain(
        &device,
        9,
        &specs,
        FaultSchedule::new(1, 1000, 0),
        RetryPolicy::retries(1).with_degrade(false),
        TransportMode::Channel,
        1,
    );
    assert_eq!(leftover, 0);
    assert_eq!(live_ranks, 0);
    match &outcomes[0] {
        Err(JobError::Transport(_)) => {}
        other => panic!("expected a typed transport error, got {other:?}"),
    }
}

/// A zero deadline expires every job — queued or running — with a typed
/// error, and the budget accounting survives.
#[test]
fn deadlines_expire_jobs_typed_and_release_budget() {
    let device = DeviceModel::mumbai_like();
    let queue = JobQueue::new(device, SHOTS, 7)
        .with_workers(2)
        .with_deadline(Duration::ZERO);
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            queue
                .submit(JobSpec {
                    job_id: i,
                    tenant: 0,
                    circuit: ansatz(4, &[0.5, -0.2]),
                    measurements: vec![Measurement::subset(basis(4, &[3, 0, 0, 0]))],
                })
                .unwrap()
        })
        .collect();
    queue.drain();
    for h in &handles {
        assert_eq!(h.wait(), Err(JobError::DeadlineExceeded));
    }
    assert_eq!(queue.in_flight_bytes(), 0);
    assert_eq!(queue.completed(), 4);

    // A per-job override beats the queue default: a generous explicit
    // deadline lets a job through the same queue.
    let h = queue
        .submit_with_deadline(
            JobSpec {
                job_id: 100,
                tenant: 0,
                circuit: ansatz(4, &[0.5, -0.2]),
                measurements: vec![Measurement::subset(basis(4, &[3, 0, 0, 0]))],
            },
            Duration::from_secs(60),
        )
        .unwrap();
    queue.drain();
    assert!(h.wait().is_ok());
}

/// Cancellation before dispatch completes the job with a typed error;
/// cancellation after completion never rewrites the result.
#[test]
fn cancellation_is_cooperative_and_never_rewrites_history() {
    let device = DeviceModel::mumbai_like();
    let queue = JobQueue::new(device, SHOTS, 3).with_workers(1);
    let mk = |id: u64| JobSpec {
        job_id: id,
        tenant: 0,
        circuit: ansatz(4, &[1.1, 0.2]),
        measurements: vec![Measurement::subset(basis(4, &[3, 0, 0, 0]))],
    };
    let doomed = queue.submit(mk(1)).unwrap();
    let survivor = queue.submit(mk(2)).unwrap();
    doomed.cancel();
    assert!(doomed.is_cancelled());
    assert!(!survivor.is_cancelled());
    queue.drain();
    assert_eq!(doomed.wait(), Err(JobError::Cancelled));
    let out = survivor.wait().expect("uncancelled co-tenant completes");
    assert_eq!(out.attempts, 1);

    // Cancel after the fact: the result stands.
    survivor.cancel();
    assert_eq!(survivor.try_result(), Some(Ok(out)));
    assert_eq!(queue.in_flight_bytes(), 0);
}

/// `wait_timeout` bounds the wait: times out (`None`) while nobody
/// drains, returns the result once a drain ran, and keeps returning it.
#[test]
fn wait_timeout_bounds_the_wait() {
    let device = DeviceModel::mumbai_like();
    let queue = JobQueue::new(device, SHOTS, 13).with_workers(1);
    let h = queue
        .submit(JobSpec {
            job_id: 1,
            tenant: 0,
            circuit: ansatz(4, &[0.7, -0.4]),
            measurements: vec![Measurement::subset(basis(4, &[3, 0, 0, 0]))],
        })
        .unwrap();
    assert_eq!(h.wait_timeout(Duration::from_millis(10)), None);
    queue.drain();
    let got = h
        .wait_timeout(Duration::from_millis(10))
        .expect("drained job is ready");
    assert!(got.is_ok());
    assert_eq!(h.wait_timeout(Duration::ZERO), Some(got));
}

/// Errors under memory pressure: a budget that serializes jobs, workers
/// parked on it, and every job failing — the drain still terminates,
/// every handle completes typed, and the budget is fully released. This
/// is the pressure-park path the completion guard protects.
#[test]
fn failing_jobs_under_memory_pressure_never_wedge_the_drain() {
    let device = DeviceModel::mumbai_like();
    let budget = (16u128 << 5) * 3 / 2; // one 5-qubit state at a time
    let queue = JobQueue::new(device, SHOTS, 21)
        .with_workers(4)
        .with_memory_budget(budget)
        .with_sharding(Sharding::Shards(4))
        .with_transport(TransportMode::Channel)
        .with_fault_schedule(FaultSchedule::new(2, 1000, 0))
        .with_retry_policy(RetryPolicy::none());
    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            queue
                .submit(JobSpec {
                    job_id: 400 + i,
                    tenant: i % 3,
                    circuit: ansatz(5, &[0.2 * i as f64, 1.0]),
                    measurements: vec![Measurement::subset(basis(5, &[3, 0, 0, 0, 0]))],
                })
                .unwrap()
        })
        .collect();
    queue.drain();
    for h in &handles {
        match h.wait() {
            Err(JobError::Transport(_)) => {}
            other => panic!("expected typed transport failures, got {other:?}"),
        }
    }
    assert_eq!(queue.in_flight_bytes(), 0);
    assert!(queue.peak_in_flight_bytes() <= budget);
}

/// Backoff delays are bounded and cooperative: a retrying policy with a
/// real backoff still completes promptly and deterministically.
#[test]
fn backoff_is_bounded_and_does_not_change_results() {
    let device = DeviceModel::mumbai_like();
    let specs = vec![JobSpec {
        job_id: 500,
        tenant: 0,
        circuit: ansatz(5, &[0.9, -1.2]),
        measurements: vec![Measurement::global(basis(5, &[3, 1, 0, 0, 2]))],
    }];
    let expected = reference(&device, 31, &specs);
    let policy = RetryPolicy::retries(2).with_backoff(Duration::from_millis(1));
    let (outcomes, _, _) = chaos_drain(
        &device,
        31,
        &specs,
        FaultSchedule::new(4, 1000, 0),
        policy,
        TransportMode::Local,
        1,
    );
    let out = outcomes[0].as_ref().expect("ladder completes the job");
    let (pmfs, cost) = &expected[&out.job_id];
    assert_eq!(&out.pmfs, pmfs, "backoff must not change results");
    assert_eq!(out.cost, *cost);
    // Local transport: the sharded attempt dies, the unsharded rung lands.
    assert_eq!(out.attempts, 2);
}
