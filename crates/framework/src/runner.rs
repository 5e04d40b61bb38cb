//! The in-situ runner: advances the simulation and fires scheduled tools.
//!
//! "Various tools will be turned on through the configuration file for the
//! simulation, and the frequency of their execution will also be
//! configurable. Upon each time step, the input particles will be sent to
//! the appropriate analysis tools." (§III-B)

use diy::comm::World;
use hacc::Simulation;

use crate::config::FrameworkConfig;
use crate::tool::{AnalysisTool, ToolContext, ToolReport};

/// Owns the configured tools and drives the simulation+analysis loop.
pub struct InSituRunner {
    pub config: FrameworkConfig,
    tools: Vec<Box<dyn AnalysisTool>>,
}

impl InSituRunner {
    pub fn new(config: FrameworkConfig) -> Self {
        InSituRunner {
            config,
            tools: Vec::new(),
        }
    }

    /// Register a tool instance. Tools without a schedule entry never fire.
    pub fn register(&mut self, tool: Box<dyn AnalysisTool>) {
        self.tools.push(tool);
    }

    /// Borrow a registered tool back (for reading its accumulated results).
    pub fn tool(&self, name: &str) -> Option<&dyn AnalysisTool> {
        self.tools
            .iter()
            .find(|t| t.name() == name)
            .map(|b| b.as_ref())
    }

    /// Run `nsteps` simulation steps, invoking scheduled tools after each
    /// step (collective). Returns all tool reports in firing order.
    pub fn run(
        &mut self,
        world: &mut World,
        sim: &mut Simulation,
        nsteps: usize,
    ) -> Vec<ToolReport> {
        // A `trace` directive in the deck overrides whatever TESS_TRACE
        // resolved to (the config file is the run's source of truth).
        if let Some(mode) = self.config.trace {
            diy::trace::set_trace_mode(mode);
        }
        let mut reports = Vec::new();
        for _ in 0..nsteps {
            sim.step(world);
            let step = sim.step_count;
            let ctx = ToolContext {
                sim,
                step,
                a: sim.a,
                output_dir: self.config.output_dir.clone(),
            };
            for tool in &mut self.tools {
                let fires = self
                    .config
                    .schedule_for(tool.name())
                    .map(|s| s.fires_at(step, nsteps))
                    .unwrap_or(false);
                if fires {
                    // one metrics span per tool firing, e.g. "tool:tess"
                    let _span = world.metrics().phase(format!("tool:{}", tool.name()));
                    reports.push(tool.run(world, &ctx));
                }
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tools::halo_finder::{FofParams, HaloFinderTool};
    use crate::tools::stats_tool::StatsTool;
    use crate::tools::tess_tool::TessTool;
    use diy::comm::Runtime;
    use hacc::SimParams;

    fn test_config(dir: &std::path::Path) -> FrameworkConfig {
        FrameworkConfig::parse(&format!(
            "tool tess every=5 last=true\n\
             tool stats every=2\n\
             tool halos at=10\n\
             output_dir {}\n",
            dir.display()
        ))
        .unwrap()
    }

    #[test]
    fn tools_fire_on_schedule() {
        let dir = std::env::temp_dir().join("framework-runner-test");
        std::fs::create_dir_all(&dir).unwrap();
        let reports = Runtime::run(2, |w| {
            let params = SimParams {
                np: 8,
                box_size: 8.0,
                a_init: 0.1,
                a_final: 0.6,
                nsteps: 10,
                seed: 3,
                initial_delta_rms: 0.2,
                spectrum: hacc::power::PowerSpectrum::default(),
            };
            let mut sim = hacc::Simulation::init(w, params, 8);
            let mut runner = InSituRunner::new(test_config(&dir));
            runner.register(Box::new(TessTool::new(
                tess::TessParams::default().with_ghost(2.0),
            )));
            runner.register(Box::new(StatsTool::new()));
            runner.register(Box::new(HaloFinderTool::new(FofParams {
                linking_length: 0.3,
                min_size: 3,
            })));
            runner.run(w, &mut sim, 10)
        });
        let r = &reports[0];
        let fired: Vec<(&str, usize)> = r.iter().map(|rep| (rep.tool.as_str(), rep.step)).collect();
        // stats at 2,4,6,8,10; tess at 5,10; halos at 10
        assert_eq!(
            fired
                .iter()
                .filter(|(t, _)| *t == "stats")
                .map(|(_, s)| *s)
                .collect::<Vec<_>>(),
            vec![2, 4, 6, 8, 10]
        );
        assert_eq!(
            fired
                .iter()
                .filter(|(t, _)| *t == "tess")
                .map(|(_, s)| *s)
                .collect::<Vec<_>>(),
            vec![5, 10]
        );
        assert_eq!(
            fired
                .iter()
                .filter(|(t, _)| *t == "halos")
                .map(|(_, s)| *s)
                .collect::<Vec<_>>(),
            vec![10]
        );
        // both ranks saw identical report sequences
        assert_eq!(reports[0].len(), reports[1].len());
        // the tess artifacts exist and are readable
        let f5 = dir.join("tess_step5.bin");
        let blocks = tess::io::read_tessellation(&f5).unwrap();
        assert_eq!(blocks.len(), 8);
        let cells: usize = blocks.iter().map(|b| b.cells.len()).sum();
        assert!(cells > 0);
    }

    #[test]
    fn serve_tool_keeps_a_resident_mesh_across_fires() {
        use crate::tools::serve_tool::ServeTool;
        let dir = std::env::temp_dir().join("framework-runner-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let reports = Runtime::run(2, |w| {
            let params = SimParams {
                np: 8,
                box_size: 8.0,
                a_init: 0.1,
                a_final: 0.6,
                nsteps: 10,
                seed: 3,
                initial_delta_rms: 0.2,
                spectrum: hacc::power::PowerSpectrum::default(),
            };
            let mut sim = hacc::Simulation::init(w, params, 8);
            let cfg = FrameworkConfig::parse(&format!(
                "service workers=2 batch=32\n\
                 tool serve every=5\n\
                 output_dir {}\n",
                dir.display()
            ))
            .unwrap();
            let tool = ServeTool::from_config(
                tess::TessParams::default(),
                &cfg,
                cfg.schedule_for("serve").unwrap(),
            );
            let mut runner = InSituRunner::new(cfg);
            runner.register(Box::new(tool));
            runner.run(w, &mut sim, 10)
        });
        for rank_reports in &reports {
            assert_eq!(rank_reports.len(), 2); // steps 5 and 10
            assert!(rank_reports.iter().all(|r| r.tool == "serve"));
        }
        // Rank 0 hosts the service: the first fire spawns it (epoch 1), the
        // second pushes the evolved snapshot as an update (epoch 2).
        let summaries: Vec<&str> = reports[0].iter().map(|r| r.summary.as_str()).collect();
        assert!(summaries[0].contains("epoch 1"), "{}", summaries[0]);
        assert!(summaries[1].contains("epoch 2"), "{}", summaries[1]);
        assert!(summaries.iter().all(|s| s.contains("serving")));
        // Non-root ranks only feed the gather.
        assert!(reports[1]
            .iter()
            .all(|r| r.summary.contains("service hosted on rank 0")));
    }

    #[test]
    fn unscheduled_tools_never_fire() {
        let dir = std::env::temp_dir().join("framework-runner-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let reports = Runtime::run(1, |w| {
            let params = SimParams {
                np: 8,
                box_size: 8.0,
                a_init: 0.1,
                a_final: 0.2,
                nsteps: 3,
                seed: 3,
                initial_delta_rms: 0.1,
                spectrum: hacc::power::PowerSpectrum::default(),
            };
            let mut sim = hacc::Simulation::init(w, params, 1);
            let cfg = FrameworkConfig::parse("tool stats every=1\n").unwrap();
            let mut runner = InSituRunner::new(FrameworkConfig {
                output_dir: dir.clone(),
                ..cfg
            });
            runner.register(Box::new(StatsTool::new()));
            // tess registered but not scheduled
            runner.register(Box::new(TessTool::new(
                tess::TessParams::default().with_ghost(2.0),
            )));
            runner.run(w, &mut sim, 3)
        });
        assert!(reports[0].iter().all(|r| r.tool == "stats"));
        assert_eq!(reports[0].len(), 3);
    }
}
