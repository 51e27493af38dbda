//! Seed-derived chaos serving traces: a mixed-dtype [`MixedServePlan`]
//! with a deterministic [`FaultPlan`] of scripted device faults
//! interleaved into the serve, plus the oracle that proves the
//! self-healing contract over both runtime backends.
//!
//! The contract under fault injection is the same bit-exact contract the
//! fault-free sweeps hold: every request the client submits resolves
//! `Ok` and equals its per-request planned execution **bit-for-bit** —
//! transient device faults are the runtime's problem (evict, rebuild,
//! retry, degrade), never the client's. Determinism comes from both ends:
//! the trace and the fault script derive from one seed, device events
//! fire on scripted sharded-batch sequence numbers, and the degrade
//! ladder bounds any storm (with the default [`RetryPolicy`], repeated
//! faults converge to single-device execution before the retry budget
//! runs out, so no scripted storm can surface to a client).
//!
//! [`RetryPolicy`]: kron_runtime::RetryPolicy

use crate::diff::DIST_GPUS;
use crate::gen::splitmix;
use crate::serve::{check_mixed_on_runtime, MixedServePlan};
use kron_runtime::{
    Backend, FaultEvent, FaultKind, FaultPlan, FaultTrigger, Runtime, RuntimeConfig,
};

/// A deterministic chaos drill: a mixed-dtype serving trace plus the
/// fault script to run against it, both derived from `seed` alone.
#[derive(Debug, Clone)]
pub struct ChaosServePlan {
    /// The serving trace (see [`MixedServePlan::deterministic`]).
    pub plan: MixedServePlan,
    /// The scripted faults, installed before the trace is served.
    pub faults: FaultPlan,
    /// The seed everything was derived from.
    pub seed: u64,
}

impl ChaosServePlan {
    /// Builds the drill for `seed` — fully deterministic. The script
    /// holds 2–4 device events on sharded-batch triggers within the
    /// trace's opening window: mostly panics (repeat 1–2, so some drills
    /// hammer one device toward its breaker), with an occasional
    /// zero-length stall (fires the slow-device machinery as a pure
    /// latency blip). The first event is always a panic, so every drill
    /// scripts at least one real fault.
    pub fn deterministic(seed: u64) -> Self {
        let plan = MixedServePlan::deterministic(seed);
        let mut state = seed ^ 0xc4a0_5f1d_e2b7_39ac;
        let n_events = 2 + (splitmix(&mut state) % 3) as usize;
        let mut faults = FaultPlan::new();
        for i in 0..n_events {
            let gpu = (splitmix(&mut state) % DIST_GPUS as u64) as usize;
            let trigger = FaultTrigger::OnShardedBatch(splitmix(&mut state) % 6);
            let repeat = 1 + (splitmix(&mut state) % 2) as u32;
            let kind = if i > 0 && splitmix(&mut state).is_multiple_of(4) {
                FaultKind::Stall { stall_us: 0 }
            } else {
                FaultKind::Panic
            };
            faults = faults.event(FaultEvent {
                gpu,
                trigger,
                repeat,
                kind,
            });
        }
        ChaosServePlan { plan, faults, seed }
    }

    /// Total scripted firing opportunities (`Σ repeat`).
    pub fn scheduled_repeats(&self) -> u64 {
        self.faults.events.iter().map(|e| u64::from(e.repeat)).sum()
    }

    fn panic_repeats(&self) -> u64 {
        self.faults
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::Panic)
            .map(|e| u64::from(e.repeat))
            .sum()
    }
}

/// What a chaos drill observed on the distributed backend, for tests
/// that pin stronger expectations onto a known seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Scripted firing opportunities consumed during the serve.
    pub fired: u64,
    /// `RuntimeStats::retries` after the serve.
    pub retries: u64,
    /// `RuntimeStats::recovered_requests` after the serve.
    pub recovered_requests: u64,
    /// `RuntimeStats::breaker_trips` after the serve.
    pub breaker_trips: u64,
}

fn fresh_runtime(backend: Backend) -> Runtime {
    // Mirrors the shared differential runtimes' shape, but fresh per
    // drill: fault plans and breaker state must never leak between
    // drills (or into the fault-free sweeps' shared runtimes).
    Runtime::new(RuntimeConfig {
        max_batch_rows: 64,
        batch_max_m: 16,
        backend,
        ..RuntimeConfig::default()
    })
}

/// The chaos differential oracle. Serves the drill's trace through a
/// fresh runtime per backend with the fault script installed:
///
/// * **Single-node** — device events are inert there (no sharded
///   executes), which is itself asserted: the script stays fully
///   pending, and the trace matches the planned execution bit-for-bit.
/// * **Distributed** — scripted faults fire mid-trace; every request
///   must still resolve `Ok` bit-for-bit (transparent recovery), every
///   fired panic must be visible as a retry in the stats ledger, and
///   recovery accounting must be consistent.
///
/// Returns the distributed backend's [`ChaosOutcome`] so pinned-seed
/// tests can assert the drill actually drew blood.
pub fn check_chaos_serve_plan(drill: &ChaosServePlan) -> Result<ChaosOutcome, String> {
    let seed = drill.seed;
    let scheduled = drill.scheduled_repeats();

    // Single-node: the armed plan must be inert and value-invisible.
    let single = fresh_runtime(Backend::SingleNode);
    single
        .install_fault_plan(drill.faults.clone())
        .map_err(|e| format!("chaos {seed}: single-node install failed: {e}"))?;
    check_mixed_on_runtime("chaos-single", &single, &drill.plan)?;
    let pending = single.pending_fault_events() as u64;
    if pending != scheduled {
        return Err(format!(
            "chaos {seed}: device faults must be inert on single-node, but \
             {} of {scheduled} scripted repeats fired",
            scheduled - pending,
        ));
    }

    // Distributed: faults fire, clients must never notice.
    let dist = fresh_runtime(Backend::Distributed {
        gpus: DIST_GPUS,
        p2p: false,
    });
    dist.install_fault_plan(drill.faults.clone())
        .map_err(|e| format!("chaos {seed}: dist install failed: {e}"))?;
    check_mixed_on_runtime("chaos-dist", &dist, &drill.plan)?;

    let stats = dist.stats();
    let fired = scheduled - dist.pending_fault_events() as u64;
    let stall_repeats = scheduled - drill.panic_repeats();
    let min_retries = fired.saturating_sub(stall_repeats);
    if stats.retries < min_retries {
        return Err(format!(
            "chaos {seed}: {fired} scripted repeats fired (≥ {min_retries} \
             panics) but the ledger shows only {} retries — a fault was \
             absorbed without being recorded",
            stats.retries,
        ));
    }
    if min_retries > 0 && stats.recovered_requests == 0 {
        return Err(format!(
            "chaos {seed}: panics fired and every request resolved Ok, yet \
             recovered_requests is 0 — recovery went unaccounted"
        ));
    }
    if stats.recovered_requests > stats.served {
        return Err(format!(
            "chaos {seed}: recovered_requests {} exceeds served {}",
            stats.recovered_requests, stats.served,
        ));
    }
    Ok(ChaosOutcome {
        fired,
        retries: stats.retries,
        recovered_requests: stats.recovered_requests,
        breaker_trips: stats.breaker_trips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drills_are_deterministic_and_vary_by_seed() {
        let a = ChaosServePlan::deterministic(11);
        let b = ChaosServePlan::deterministic(11);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.plan.requests.len(), b.plan.requests.len());
        let c = ChaosServePlan::deterministic(12);
        assert!(
            a.faults != c.faults || a.plan.requests.len() != c.plan.requests.len(),
            "different seeds must differ"
        );
    }

    #[test]
    fn every_drill_scripts_a_real_fault_on_a_real_device() {
        for seed in 0..32 {
            let drill = ChaosServePlan::deterministic(seed);
            assert!(
                (2..=4).contains(&drill.faults.events.len()),
                "seed {seed}: {} events",
                drill.faults.events.len()
            );
            assert_eq!(drill.faults.events[0].kind, FaultKind::Panic);
            for e in &drill.faults.events {
                assert!(
                    e.gpu < DIST_GPUS,
                    "seed {seed}: device {} off-machine",
                    e.gpu
                );
                assert!((1..=2).contains(&e.repeat));
                assert!(matches!(e.trigger, FaultTrigger::OnShardedBatch(n) if n < 6));
            }
        }
    }

    #[test]
    fn known_drill_recovers_transparently() {
        let outcome = check_chaos_serve_plan(&ChaosServePlan::deterministic(1)).unwrap();
        assert!(outcome.fired >= 1, "outcome: {outcome:?}");
        assert!(outcome.retries >= 1, "outcome: {outcome:?}");
    }
}
