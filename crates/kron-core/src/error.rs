//! Error type shared by every crate in the workspace.

use std::fmt;

/// Result alias using [`KronError`].
pub type Result<T> = std::result::Result<T, KronError>;

/// Errors produced while validating or executing a Kron-Matmul.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KronError {
    /// The input matrix's column count does not equal `∏ᵢ Pᵢ`.
    ShapeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it was given.
        found: String,
    },
    /// A problem was constructed with no factors.
    NoFactors,
    /// A factor (or the input) has a zero dimension.
    EmptyDimension {
        /// Description of the offending dimension.
        what: String,
    },
    /// A tile configuration violates a validity rule (§4.3 of the paper).
    InvalidTileConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A device-level resource limit (shared memory, registers) is exceeded.
    ResourceExhausted {
        /// Which resource and by how much.
        what: String,
    },
    /// Distributed execution was asked for an unsupported GPU-grid layout.
    InvalidGrid {
        /// Human-readable reason.
        reason: String,
    },
    /// A simulated device failed (panicked) during a sharded execution.
    /// The batch that was executing fails with this error; the engine
    /// stays consistent, so later batches are unaffected.
    DeviceFailure {
        /// Linear id of the device that failed.
        gpu: usize,
        /// The captured panic message (or fault-injection label).
        reason: String,
    },
    /// A linked batch submission mixed requests against different models.
    /// Cross-request batching stacks inputs row-wise against one factor
    /// set, so every request of a linked batch must target the same model.
    MixedModelBatch {
        /// Model id of the batch's first request.
        first: u64,
        /// The first conflicting model id encountered.
        conflicting: u64,
    },
    /// A request's deadline had already passed when the scheduler picked
    /// it up, so it was shed without executing (admission control). Both
    /// timestamps are microseconds on the serving runtime's clock
    /// timeline.
    DeadlineExceeded {
        /// The deadline the request carried.
        deadline_us: u64,
        /// The scheduler's clock when it shed the request.
        now_us: u64,
    },
    /// A simulated device stalled past the watchdog budget during a
    /// sharded execution — the bounded verdict for a hung (or injected
    /// slow) device. The batch's result must be discarded; the engine
    /// stays usable, but the serving runtime evicts and rebuilds the
    /// entry like a [`KronError::DeviceFailure`].
    DeviceTimeout {
        /// Linear id of the device that missed the watchdog deadline.
        gpu: usize,
        /// How long the coordinator had waited when it gave up
        /// (microseconds on the owning runtime's clock).
        waited_us: u64,
    },
    /// A request was submitted to a serving runtime that has shut down.
    Shutdown,
    /// Building this model's execution state alone would exceed the plan
    /// cache's whole byte budget, so no amount of eviction could admit it
    /// — a configuration error (the budget is too small for the model),
    /// surfaced per request rather than silently blowing the bound.
    CacheBudgetExceeded {
        /// Estimated bytes the entry would hold resident.
        required_bytes: usize,
        /// The configured `CachePolicy::max_bytes` budget.
        max_bytes: usize,
    },
}

impl fmt::Display for KronError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KronError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            KronError::NoFactors => write!(f, "Kron-Matmul requires at least one factor"),
            KronError::EmptyDimension { what } => write!(f, "empty dimension: {what}"),
            KronError::InvalidTileConfig { reason } => {
                write!(f, "invalid tile configuration: {reason}")
            }
            KronError::ResourceExhausted { what } => write!(f, "resource exhausted: {what}"),
            KronError::InvalidGrid { reason } => write!(f, "invalid GPU grid: {reason}"),
            KronError::DeviceFailure { gpu, reason } => {
                write!(f, "simulated device {gpu} failed: {reason}")
            }
            KronError::MixedModelBatch { first, conflicting } => write!(
                f,
                "linked batch mixes models {first} and {conflicting}; \
                 a batch stacks rows against one factor set"
            ),
            KronError::DeadlineExceeded {
                deadline_us,
                now_us,
            } => write!(
                f,
                "deadline exceeded: due at {deadline_us}us, scheduled at {now_us}us"
            ),
            KronError::DeviceTimeout { gpu, waited_us } => write!(
                f,
                "simulated device {gpu} timed out: no completion after {waited_us}us (watchdog)"
            ),
            KronError::Shutdown => write!(f, "the serving runtime has shut down"),
            KronError::CacheBudgetExceeded {
                required_bytes,
                max_bytes,
            } => write!(
                f,
                "plan-cache byte budget exceeded: entry needs ~{required_bytes} bytes \
                 but the whole budget is {max_bytes} bytes"
            ),
        }
    }
}

impl std::error::Error for KronError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = KronError::ShapeMismatch {
            expected: "M×64".into(),
            found: "M×63".into(),
        };
        assert_eq!(e.to_string(), "shape mismatch: expected M×64, found M×63");
        assert_eq!(
            KronError::NoFactors.to_string(),
            "Kron-Matmul requires at least one factor"
        );
        assert!(KronError::InvalidTileConfig {
            reason: "TP must divide P".into()
        }
        .to_string()
        .contains("TP must divide P"));
        assert_eq!(
            KronError::DeviceFailure {
                gpu: 3,
                reason: "injected device fault".into()
            }
            .to_string(),
            "simulated device 3 failed: injected device fault"
        );
        let mixed = KronError::MixedModelBatch {
            first: 0,
            conflicting: 2,
        }
        .to_string();
        assert!(mixed.contains("models 0 and 2"), "{mixed}");
        let late = KronError::DeadlineExceeded {
            deadline_us: 500,
            now_us: 1200,
        }
        .to_string();
        assert!(late.contains("500us") && late.contains("1200us"), "{late}");
        let over = KronError::CacheBudgetExceeded {
            required_bytes: 4096,
            max_bytes: 1024,
        }
        .to_string();
        assert!(over.contains("4096") && over.contains("1024"), "{over}");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&KronError::NoFactors);
    }
}
