//! The differential oracle: every public execution path in the workspace
//! against the naive reference, **bit-for-bit**.
//!
//! On the integer-valued cases [`crate::gen`] produces, every engine must
//! return the *exact same floats* (see the exactness argument there), so
//! disagreement at any index is a bug, not rounding. The paths compared:
//!
//! | name                | entry point |
//! |---------------------|-------------|
//! | `shuffle`           | `kron_core::shuffle::kron_matmul_shuffle` |
//! | `ftmmt`             | `kron_core::ftmmt::kron_matmul_ftmmt` |
//! | `fused`             | `fastkron_core::kron_matmul_fused` |
//! | `workspace-serial`  | `Workspace` pinned to `(1, 1)` |
//! | `workspace-tiles`   | `Workspace` pinned to 4 row tiles |
//! | `workspace-wide`    | `Workspace` pinned to a `2×2` wide grid |
//! | `planned`           | `FastKron::plan` + `KronPlan::execute` |
//! | `runtime-submit`    | `Runtime::submit`/`Ticket::wait`, single-node |
//! | `runtime-session`   | `Session::call`, single-node |
//! | `dist-runtime`      | `Runtime` on the `Distributed` backend |
//! | `dist-direct`       | `DistFastKron::execute` (shardable shapes) |
//!
//! The two runtimes are shared process-wide (`OnceLock`) **across both
//! dtypes** — the serving API is dtype-erased, so one single-node runtime
//! and one distributed runtime serve every `f32` and `f64` case in the
//! sweep through one scheduler and one plan cache. A property sweep
//! therefore pays model-load and plan-tuning once per shape, not once per
//! case, and the runtimes see genuinely mixed-dtype traffic across
//! cases — closer to real serving than a runtime-per-case (or
//! runtime-per-dtype) would be.

use crate::gen::KronCase;
use fastkron_core::{kron_matmul_fused, FastKron, Workspace};
use gpu_sim::device::V100;
use kron_core::naive::kron_matmul_naive;
use kron_core::{Element, Matrix};
use kron_dist::DistFastKron;
use kron_runtime::{Backend, Runtime, RuntimeConfig, ServeElement};
use std::sync::OnceLock;

/// Simulated GPUs the shared distributed runtime shards over.
pub const DIST_GPUS: usize = 4;

/// Scalar types the differential harness sweeps: the [`ServeElement`]s
/// (`f32`, `f64`). Kept as a named trait so test suites can stay generic
/// over "everything the harness covers".
pub trait DiffElement: ServeElement {}

impl DiffElement for f32 {}
impl DiffElement for f64 {}

fn runtime_config(backend: Backend) -> RuntimeConfig {
    RuntimeConfig {
        max_batch_rows: 64,
        batch_max_m: 16,
        backend,
        ..RuntimeConfig::default()
    }
}

/// The process-wide single-node runtime, shared by every dtype.
pub fn single_runtime() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| Runtime::new(runtime_config(Backend::SingleNode)))
}

/// The process-wide distributed runtime ([`DIST_GPUS`] simulated GPUs),
/// shared by every dtype.
pub fn dist_runtime() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| {
        Runtime::new(runtime_config(Backend::Distributed {
            gpus: DIST_GPUS,
            p2p: false,
        }))
    })
}

/// Exact comparison with a diagnostic naming the first mismatch and the
/// case's regression literal.
fn expect_same<T: Element>(
    engine: &str,
    got: &Matrix<T>,
    oracle: &Matrix<T>,
    case: &KronCase<T>,
) -> Result<(), String> {
    if got.rows() != oracle.rows() || got.cols() != oracle.cols() {
        return Err(format!(
            "{engine}: shape {}×{} != oracle {}×{}\n  regression: {}",
            got.rows(),
            got.cols(),
            oracle.rows(),
            oracle.cols(),
            case.regression_literal()
        ));
    }
    for (i, (g, o)) in got
        .as_slice()
        .iter()
        .zip(oracle.as_slice().iter())
        .enumerate()
    {
        if g != o {
            let (r, c) = (i / oracle.cols(), i % oracle.cols());
            return Err(format!(
                "{engine}: mismatch at ({r},{c}): got {g}, oracle {o} (bit-exact contract)\n  \
                 case: {}\n  regression: {}",
                case.problem,
                case.regression_literal()
            ));
        }
    }
    Ok(())
}

/// Whether the `DIST_GPUS`-GPU grid can shard this problem directly (the
/// `dist-direct` path has no local fallback, unlike the runtime backend).
fn direct_shardable<T: Element>(case: &KronCase<T>) -> bool {
    DistFastKron::new(&V100, DIST_GPUS)
        .and_then(|e| e.shardable(&case.problem))
        .is_ok()
}

/// Runs every library-level execution path (no serving runtime) on `case`
/// and compares bit-for-bit against the naive oracle.
pub fn check_library_paths<T: Element>(case: &KronCase<T>) -> Result<(), String> {
    let refs = case.factor_refs();
    let oracle = kron_matmul_naive(&case.x, &refs).map_err(|e| format!("naive failed: {e}"))?;

    let shuffle = kron_core::shuffle::kron_matmul_shuffle(&case.x, &refs)
        .map_err(|e| format!("shuffle failed: {e}"))?;
    expect_same("shuffle", &shuffle, &oracle, case)?;

    let ftmmt = kron_core::ftmmt::kron_matmul_ftmmt(&case.x, &refs)
        .map_err(|e| format!("ftmmt failed: {e}"))?;
    expect_same("ftmmt", &ftmmt, &oracle, case)?;

    let fused = kron_matmul_fused(&case.x, &refs).map_err(|e| format!("fused failed: {e}"))?;
    expect_same("fused", &fused, &oracle, case)?;

    // The three pinned Workspace decompositions: serial, row tiles, wide.
    for (name, partition) in [
        ("workspace-serial", (1, 1)),
        ("workspace-tiles", (4, 1)),
        ("workspace-wide", (2, 2)),
    ] {
        let mut ws = Workspace::new(&case.problem);
        ws.set_partition(Some(partition));
        let got = ws
            .execute(&case.x, &refs)
            .map_err(|e| format!("{name} failed: {e}"))?;
        expect_same(name, &got, &oracle, case)?;
    }

    let plan =
        FastKron::plan::<T>(&case.problem, &V100).map_err(|e| format!("planning failed: {e}"))?;
    let planned = plan
        .execute(&case.x, &refs)
        .map_err(|e| format!("planned failed: {e}"))?;
    expect_same("planned", &planned, &oracle, case)?;

    if direct_shardable(case) {
        let dist = DistFastKron::new(&V100, DIST_GPUS).expect("power-of-two grid");
        let got = dist
            .execute(&case.x, &refs)
            .map_err(|e| format!("dist-direct failed: {e}"))?;
        expect_same("dist-direct", &got, &oracle, case)?;
    }
    Ok(())
}

/// Runs every serving-runtime path (both backends, ticket and session
/// APIs) on `case` and compares bit-for-bit against the naive oracle.
pub fn check_runtime_paths<T: DiffElement>(case: &KronCase<T>) -> Result<(), String> {
    let refs = case.factor_refs();
    let oracle = kron_matmul_naive(&case.x, &refs).map_err(|e| format!("naive failed: {e}"))?;

    for (name, runtime) in [
        ("runtime-single", single_runtime()),
        ("dist-runtime", dist_runtime()),
    ] {
        let model = runtime
            .load_model(case.factors.clone())
            .map_err(|e| format!("{name} load_model failed: {e}"))?;

        // Ticket path (with the stats variant so it stays covered).
        let ticket = runtime
            .submit(&model, case.x.clone())
            .map_err(|e| format!("{name} submit failed: {e}"))?;
        let (got, _stats) = ticket
            .wait_with_stats()
            .map_err(|e| format!("{name} wait failed: {e}"))?;
        expect_same(name, &got, &oracle, case)?;

        // Session path (buffer-recycling synchronous call).
        let mut session = runtime.session();
        let y = Matrix::zeros(case.x.rows(), model.output_cols());
        let (_x, y) = session
            .call(&model, case.x.clone(), y)
            .map_err(|e| format!("{name} session call failed: {e}"))?;
        expect_same(&format!("{name}-session"), &y, &oracle, case)?;
    }
    Ok(())
}

/// The full differential check: every library path and every runtime path.
pub fn check_all_paths<T: DiffElement>(case: &KronCase<T>) -> Result<(), String> {
    check_library_paths(case)?;
    check_runtime_paths(case)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::KronCase;

    #[test]
    fn known_good_case_passes_everywhere() {
        let case = KronCase::<f64>::deterministic(4, &[(4, 4), (4, 4), (4, 4)], 11);
        check_all_paths(&case).unwrap();
        let case = KronCase::<f32>::deterministic(4, &[(4, 4), (4, 4)], 3);
        check_all_paths(&case).unwrap();
    }

    #[test]
    fn rectangular_case_passes_with_dist_fallback() {
        // Not shardable: the distributed runtime must fall back locally
        // and still agree bit-for-bit.
        let case = KronCase::<f64>::deterministic(3, &[(2, 5), (3, 2)], 9);
        check_all_paths(&case).unwrap();
        let stats = dist_runtime().stats();
        assert!(stats.local_fallbacks > 0, "expected a local fallback");
    }

    #[test]
    fn mismatch_diagnostics_name_engine_and_literal() {
        let case = KronCase::<f64>::deterministic(2, &[(2, 2)], 5);
        let refs = case.factor_refs();
        let oracle = kron_core::naive::kron_matmul_naive(&case.x, &refs).unwrap();
        let mut bad = oracle.clone();
        bad[(1, 1)] += 1.0;
        let err = expect_same("shuffle", &bad, &oracle, &case).unwrap_err();
        assert!(err.contains("shuffle: mismatch at (1,1)"), "{err}");
        assert!(
            err.contains("KronCase::<f64>::deterministic(2, &[(2, 2)], 5)"),
            "{err}"
        );
    }

    #[test]
    fn direct_shardable_classifies() {
        assert!(direct_shardable(&KronCase::<f64>::deterministic(
            4,
            &[(4, 4), (4, 4), (4, 4)],
            1
        )));
        // Rectangular → not directly shardable.
        assert!(!direct_shardable(&KronCase::<f64>::deterministic(
            4,
            &[(2, 3)],
            1
        )));
        // M not divisible by GM = 2 → not directly shardable.
        assert!(!direct_shardable(&KronCase::<f64>::deterministic(
            3,
            &[(4, 4), (4, 4)],
            1
        )));
    }
}
