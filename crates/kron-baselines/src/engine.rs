//! The engine abstraction every system in the evaluation implements.

use gpu_sim::device::DeviceSpec;
use gpu_sim::ExecReport;
use kron_core::{Element, KronProblem, Matrix, Result};

/// A Kron-Matmul engine: something that can compute `X · (⊗ᵢFᵢ)` and
/// price itself on a simulated device.
pub trait Engine<T: Element> {
    /// System name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Computes the result (functionally, on the CPU).
    ///
    /// # Errors
    /// Shape errors when operands disagree with each other.
    fn execute(&self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>>;

    /// Simulated execution report for `problem` on this engine's device.
    ///
    /// # Errors
    /// Planning/occupancy errors for shapes the engine cannot host.
    fn simulate(&self, problem: &KronProblem) -> Result<ExecReport>;
}

/// [`Engine`] adapter over [`fastkron_core::FastKron`] plans.
pub struct FastKronEngine {
    device: DeviceSpec,
    fusion: bool,
}

impl FastKronEngine {
    /// FastKron with all optimizations on `device`.
    pub fn new(device: &DeviceSpec) -> Self {
        FastKronEngine {
            device: device.clone(),
            fusion: true,
        }
    }

    /// The paper's "FastKron-wo-Fuse" ablation.
    pub fn without_fusion(device: &DeviceSpec) -> Self {
        FastKronEngine {
            device: device.clone(),
            fusion: false,
        }
    }

    /// Builds the autotuned plan for `problem` (exposed so callers can
    /// inspect stages or reuse the plan across calls).
    ///
    /// # Errors
    /// Tuning errors when no configuration fits the device.
    pub fn plan<T: Element>(&self, problem: &KronProblem) -> Result<fastkron_core::KronPlan<T>> {
        if self.fusion {
            fastkron_core::FastKron::plan::<T>(problem, &self.device)
        } else {
            fastkron_core::FastKron::plan_unfused::<T>(problem, &self.device)
        }
    }
}

impl<T: Element> Engine<T> for FastKronEngine {
    fn name(&self) -> &'static str {
        if self.fusion {
            "FastKron"
        } else {
            "FastKron-wo-Fuse"
        }
    }

    fn execute(&self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
        fastkron_core::kron_matmul_fused(x, factors)
    }

    fn simulate(&self, problem: &KronProblem) -> Result<ExecReport> {
        let mut report = self.plan::<T>(problem)?.simulate()?;
        report.engine = <Self as Engine<T>>::name(self).to_string();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::V100;

    #[test]
    fn names() {
        let e = FastKronEngine::new(&V100);
        assert_eq!(Engine::<f32>::name(&e), "FastKron");
        let w = FastKronEngine::without_fusion(&V100);
        assert_eq!(Engine::<f32>::name(&w), "FastKron-wo-Fuse");
    }

    #[test]
    fn fusion_ablation_differs_in_launch_count() {
        let problem = KronProblem::uniform(16, 8, 4).unwrap();
        let fused = FastKronEngine::new(&V100);
        let unfused = FastKronEngine::without_fusion(&V100);
        let rf = Engine::<f32>::simulate(&fused, &problem).unwrap();
        let ru = Engine::<f32>::simulate(&unfused, &problem).unwrap();
        assert!(rf.launches < ru.launches);
        assert_eq!(ru.launches, 4);
    }
}
