//! Per-device health tracking and the circuit breaker that quarantines a
//! repeatedly-failing simulated device.
//!
//! Retry alone turns a *transient* device fault into a latency blip, but
//! a device that fails every batch would burn the whole retry budget of
//! every batch routed across it. The breaker cuts that loop: each device
//! accumulates consecutive failures ([`KronError::DeviceFailure`] /
//! [`KronError::DeviceTimeout`] naming it), and at
//! [`BreakerPolicy::trip_after`] the device trips `Closed → Open`. While
//! a device is Open its grid is quarantined — new plans build on the
//! largest power-of-two device prefix containing no open breaker (down to
//! single-device), so traffic keeps flowing around the sick device with
//! no retry at all. After [`BreakerPolicy::cooldown_us`] on the runtime's
//! clock the breaker relaxes to HalfOpen: the full grid is offered again,
//! one success closes the breaker, one failure re-trips it for another
//! cooldown.
//!
//! All timing runs on timestamps the caller reads from the runtime's
//! [`crate::clock::Clock`], so trip/recover sequences are deterministic
//! under a manual clock. The healthy fast path is one atomic load — no
//! lock, no allocation — so steady-state serving cost is unchanged.
//!
//! [`KronError::DeviceFailure`]: kron_core::KronError::DeviceFailure
//! [`KronError::DeviceTimeout`]: kron_core::KronError::DeviceTimeout

use crate::metrics::{DeviceMetricsSnapshot, MetricsHub};
use crate::trace::ServeEventKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Circuit-breaker tuning, part of [`crate::RuntimeConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures on one device that trip its breaker open.
    pub trip_after: u32,
    /// How long a tripped device stays quarantined before the breaker
    /// relaxes to half-open (microseconds on the runtime's clock).
    pub cooldown_us: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            trip_after: 3,
            cooldown_us: 500_000,
        }
    }
}

/// Observable breaker state of one device (see
/// [`crate::Runtime::device_health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the device serves normally.
    Closed,
    /// Tripped: the device is quarantined (its grid builds degraded)
    /// until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the device is probationally back in service —
    /// one success closes the breaker, one failure re-trips it.
    HalfOpen,
}

/// One device's row of the [`crate::Runtime::device_health`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceHealthReport {
    /// Linear device id on the configured machine.
    pub gpu: usize,
    /// Consecutive failures since the last success.
    pub consecutive_failures: u32,
    /// Current breaker state.
    pub state: BreakerState,
    /// Times this device's breaker has tripped over the runtime's life.
    pub trips: u64,
    /// Execute/fault counters and execute latency for this device.
    pub metrics: DeviceMetricsSnapshot,
}

/// Internal per-device state. `Open` keeps the trip time so quarantine
/// and the half-open transition are pure clock arithmetic.
#[derive(Clone, Copy)]
enum State {
    Closed,
    Open { since_us: u64 },
    HalfOpen,
}

impl State {
    /// Whether an Open breaker's cooldown has elapsed at `now_us`.
    fn cooled(self, now_us: u64, policy: &BreakerPolicy) -> bool {
        match self {
            State::Open { since_us } => now_us.saturating_sub(since_us) >= policy.cooldown_us,
            State::Closed | State::HalfOpen => false,
        }
    }
}

#[derive(Clone, Copy)]
struct DeviceState {
    consecutive_failures: u32,
    state: State,
    trips: u64,
}

/// Shared device-health ledger: the scheduler records outcomes, plan
/// builds consult [`Self::allowed_gpus`], and the runtime handle probes
/// [`Self::report`]. `suspect` is the healthy fast-path gate: while every
/// device is Closed with zero failures, nothing below ever locks.
pub(crate) struct DeviceHealth {
    policy: BreakerPolicy,
    suspect: AtomicBool,
    inner: Mutex<Vec<DeviceState>>,
    hub: Arc<MetricsHub>,
}

impl DeviceHealth {
    /// A ledger for `gpus` devices (0 for a single-node runtime, which
    /// has no devices to quarantine). Breaker transitions are recorded
    /// into `hub`'s flight recorder.
    pub(crate) fn new(gpus: usize, policy: BreakerPolicy, hub: Arc<MetricsHub>) -> Self {
        DeviceHealth {
            policy,
            suspect: AtomicBool::new(false),
            inner: Mutex::new(vec![
                DeviceState {
                    consecutive_failures: 0,
                    state: State::Closed,
                    trips: 0,
                };
                gpus
            ]),
            hub,
        }
    }

    /// Whether any device carries failures or a non-closed breaker — the
    /// one-atomic-load gate in front of every slow path here.
    pub(crate) fn is_suspect(&self) -> bool {
        self.suspect.load(Ordering::SeqCst)
    }

    /// Records a failure attributed to `gpu` at clock time `now_us`.
    /// Returns `true` when this failure tripped the breaker (Closed with
    /// the threshold reached, or a failed half-open probe re-tripping).
    pub(crate) fn record_failure(&self, gpu: usize, now_us: u64) -> bool {
        let mut devices = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(d) = devices.get_mut(gpu) else {
            return false;
        };
        self.suspect.store(true, Ordering::SeqCst);
        d.consecutive_failures = d.consecutive_failures.saturating_add(1);
        let trip = match d.state {
            State::HalfOpen => true,
            State::Closed => d.consecutive_failures >= self.policy.trip_after,
            State::Open { .. } => false,
        };
        if trip {
            d.state = State::Open { since_us: now_us };
            d.trips += 1;
            self.hub.event(
                now_us,
                ServeEventKind::Breaker {
                    gpu: gpu as u32,
                    to: BreakerState::Open,
                },
            );
        }
        trip
    }

    /// Records a successful sharded execute over the first `gpus_used`
    /// devices at clock time `now_us`: resets their failure counts and
    /// closes any breaker whose cooldown had elapsed (the half-open probe
    /// that just succeeded). Devices outside the executing grid are
    /// untouched — a degraded batch proves nothing about the quarantined
    /// device it routed around.
    pub(crate) fn record_success(&self, gpus_used: usize, now_us: u64) {
        if !self.is_suspect() {
            return;
        }
        let mut devices = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let n = gpus_used.min(devices.len());
        for (gpu, d) in devices[..n].iter_mut().enumerate() {
            d.consecutive_failures = 0;
            if matches!(d.state, State::HalfOpen) || d.state.cooled(now_us, &self.policy) {
                d.state = State::Closed;
                self.hub.event(
                    now_us,
                    ServeEventKind::Breaker {
                        gpu: gpu as u32,
                        to: BreakerState::Closed,
                    },
                );
            }
        }
        let clean = devices
            .iter()
            .all(|d| d.consecutive_failures == 0 && matches!(d.state, State::Closed));
        if clean {
            self.suspect.store(false, Ordering::SeqCst);
        }
    }

    /// The device limit plans may build against right now: the largest
    /// power-of-two prefix of the machine's `configured` devices that
    /// contains no quarantined (Open, cooldown unexpired) device, floored
    /// at 1 (single-device fallback even when device 0 is open — local
    /// execution has no device to quarantine). Breakers whose cooldown
    /// has elapsed transition Open → HalfOpen here, lazily on the clock.
    pub(crate) fn allowed_gpus(&self, now_us: u64, configured: usize) -> usize {
        if !self.is_suspect() {
            return configured;
        }
        let mut devices = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for (gpu, d) in devices.iter_mut().enumerate() {
            if d.state.cooled(now_us, &self.policy) {
                d.state = State::HalfOpen;
                self.hub.event(
                    now_us,
                    ServeEventKind::Breaker {
                        gpu: gpu as u32,
                        to: BreakerState::HalfOpen,
                    },
                );
            }
        }
        let quarantined = |d: &DeviceState| matches!(d.state, State::Open { .. });
        let mut limit = configured.min(devices.len().max(1));
        while limit > 1 && devices[..limit.min(devices.len())].iter().any(quarantined) {
            limit /= 2;
        }
        limit
    }

    /// Breaker trips summed over every device: the one source of
    /// [`crate::RuntimeStats::breaker_trips`]. Allocation-free.
    pub(crate) fn trips(&self) -> u64 {
        let devices = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        devices.iter().map(|d| d.trips).sum()
    }

    /// Snapshot of every device's health for the
    /// [`crate::Runtime::device_health`] probe. Read-only: an elapsed
    /// cooldown shows as [`BreakerState::HalfOpen`] without mutating the
    /// ledger.
    pub(crate) fn report(&self, now_us: u64) -> Vec<DeviceHealthReport> {
        let devices = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        devices
            .iter()
            .enumerate()
            .map(|(gpu, d)| DeviceHealthReport {
                gpu,
                consecutive_failures: d.consecutive_failures,
                state: match d.state {
                    _ if d.state.cooled(now_us, &self.policy) => BreakerState::HalfOpen,
                    State::Closed => BreakerState::Closed,
                    State::Open { .. } => BreakerState::Open,
                    State::HalfOpen => BreakerState::HalfOpen,
                },
                trips: d.trips,
                metrics: self.hub.device_snapshot(gpu),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BreakerPolicy {
        BreakerPolicy {
            trip_after: 3,
            cooldown_us: 1_000,
        }
    }

    fn ledger(gpus: usize) -> DeviceHealth {
        DeviceHealth::new(gpus, policy(), Arc::new(MetricsHub::new(gpus)))
    }

    #[test]
    fn healthy_ledger_is_wide_open_and_lock_free() {
        let h = ledger(4);
        assert!(!h.is_suspect());
        assert_eq!(h.allowed_gpus(0, 4), 4);
        assert!(h.report(0).iter().all(|d| d.state == BreakerState::Closed));
    }

    #[test]
    fn trips_at_threshold_quarantines_then_half_opens_and_recovers() {
        let h = ledger(4);
        assert!(!h.record_failure(2, 10));
        assert!(!h.record_failure(2, 20));
        assert!(h.record_failure(2, 30), "third consecutive failure trips");
        assert_eq!(h.report(30)[2].state, BreakerState::Open);
        assert_eq!(h.report(30)[2].trips, 1);
        // Quarantine: device 2 open halves the grid past it → limit 2.
        assert_eq!(h.allowed_gpus(31, 4), 2);
        // A degraded success must not close device 2's breaker.
        h.record_success(2, 40);
        assert_eq!(h.allowed_gpus(41, 4), 2);
        // Cooldown elapses: half-open, full grid offered again.
        assert_eq!(h.report(1_030)[2].state, BreakerState::HalfOpen);
        assert_eq!(h.allowed_gpus(1_030, 4), 4);
        // The probing success closes it.
        h.record_success(4, 1_040);
        assert!(!h.is_suspect());
        assert_eq!(h.report(1_040)[2].state, BreakerState::Closed);
    }

    #[test]
    fn failed_half_open_probe_retrips_immediately() {
        let h = ledger(4);
        for t in [0, 1, 2] {
            h.record_failure(1, t);
        }
        assert_eq!(h.allowed_gpus(2_000, 4), 4, "half-open after cooldown");
        assert!(h.record_failure(1, 2_010), "one half-open failure re-trips");
        assert_eq!(h.report(2_020)[1].state, BreakerState::Open);
        assert_eq!(h.report(2_020)[1].trips, 2);
        assert_eq!(h.allowed_gpus(2_020, 4), 1, "device 1 open caps the prefix");
    }

    #[test]
    fn open_device_zero_degrades_to_single_device() {
        let h = ledger(4);
        for t in [0, 1, 2] {
            h.record_failure(0, t);
        }
        assert_eq!(h.allowed_gpus(10, 4), 1);
    }

    #[test]
    fn successes_outside_the_grid_leave_other_devices_alone() {
        let h = ledger(4);
        h.record_failure(3, 0);
        h.record_failure(3, 1);
        // A 2-device success resets only devices 0-1.
        h.record_success(2, 5);
        assert_eq!(h.report(5)[3].consecutive_failures, 2);
        assert!(h.is_suspect());
        // A full-grid success clears everything.
        h.record_success(4, 6);
        assert!(!h.is_suspect());
    }
}
