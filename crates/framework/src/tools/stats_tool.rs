//! In-situ summary statistics (the paper's §V: "moving more postprocessing
//! tasks in situ, such as … histogram summary statistics").
//!
//! Computes the CIC density-contrast field of the live particles and
//! reports the histogram moments that Figure 11 tracks over time.

use diy::comm::World;
use postprocess::Histogram;

use crate::tool::{AnalysisTool, ToolContext, ToolReport};

/// One snapshot of in-situ statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    pub step: usize,
    pub a: f64,
    pub mean: f64,
    pub variance: f64,
    pub skewness: f64,
    pub kurtosis: f64,
}

/// In-situ grid-density statistics tool.
#[derive(Default)]
pub struct StatsTool {
    pub snapshots: Vec<StatsSnapshot>,
}

impl StatsTool {
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnalysisTool for StatsTool {
    fn name(&self) -> &str {
        "stats"
    }

    fn run(&mut self, world: &mut World, ctx: &ToolContext<'_>) -> ToolReport {
        // The gravity solve's density: the integer deposit, reduce-scattered
        // to z-slabs, gathered whole for the histogram.
        let slab = ctx.sim.density_slab(world);
        let delta = world.all_gather(&slab).concat();
        let h = Histogram::auto_range(&delta, 100);
        let snap = StatsSnapshot {
            step: ctx.step,
            a: ctx.a,
            mean: h.mean(),
            variance: h.variance(),
            skewness: h.skewness(),
            kurtosis: h.kurtosis(),
        };
        self.snapshots.push(snap);
        ToolReport {
            tool: self.name().to_string(),
            step: ctx.step,
            summary: format!(
                "step {}: δ-grid variance {:.4}, skewness {:.2}, kurtosis {:.2}",
                ctx.step, snap.variance, snap.skewness, snap.kurtosis
            ),
            artifacts: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diy::comm::Runtime;
    use hacc::{SimParams, Simulation};

    #[test]
    fn snapshot_moments_have_the_same_bits_at_every_rank_count() {
        let params = SimParams {
            nsteps: 10,
            ..SimParams::paper_like(16)
        };
        let moments = |nranks: usize| {
            let per_rank = Runtime::run(nranks, |w| {
                let mut sim = Simulation::init(w, params, 8);
                sim.run_steps(w, 5);
                let mut tool = StatsTool::new();
                let ctx = ToolContext {
                    sim: &sim,
                    step: sim.step_count,
                    a: sim.a,
                    output_dir: std::env::temp_dir(),
                };
                tool.run(w, &ctx);
                let s = tool.snapshots[0];
                [s.mean, s.variance, s.skewness, s.kurtosis].map(f64::to_bits)
            });
            assert!(per_rank.iter().all(|m| *m == per_rank[0]), "ranks disagree");
            per_rank[0]
        };
        let serial = moments(1);
        assert_eq!(moments(2), serial, "2 ranks");
        assert_eq!(moments(4), serial, "4 ranks");
    }
}
