//! The Voronoi tessellation as a framework tool: tessellate the live
//! particles and write the mesh to parallel storage.

use std::collections::BTreeMap;

use diy::comm::World;
use geometry::Vec3;
use tess::{tessellate, tessellate_streaming, GhostSpec, TessParams, AUTO_GHOST_FACTOR};

use crate::config::{GhostDirective, OutputDirective, ToolSchedule};
use crate::tool::{AnalysisTool, ToolContext, ToolReport};

/// Runs `tess` at scheduled steps and writes `tess_step{N}.bin` (merged)
/// or `tess_step{N}.stream.bin` (bounded-memory streaming).
pub struct TessTool {
    pub params: TessParams,
    /// Write through [`tess::tessellate_streaming`] (the deck's
    /// `output=stream` directive) instead of merging in memory first.
    pub streaming: bool,
    /// `output=stream:<path>` file-name override (inside `output_dir`; a
    /// `{step}` placeholder is replaced with the step number).
    pub stream_path: Option<String>,
    /// Global stats per invocation (step, stats, ghost used).
    pub history: Vec<(usize, tess::TessStats, f64)>,
}

impl TessTool {
    pub fn new(params: TessParams) -> Self {
        TessTool {
            params,
            streaming: false,
            stream_path: None,
            history: Vec::new(),
        }
    }

    /// `new`, with the schedule's `ghost=` directive (if any) overriding
    /// `params.ghost` and its `output=` directive selecting the write mode.
    pub fn from_schedule(params: TessParams, sched: &ToolSchedule) -> Self {
        let mut tool = TessTool::new(params);
        if let Some(d) = sched.ghost {
            tool.params.ghost = ghost_spec_from_directive(d);
        }
        if let Some(OutputDirective::Stream { path }) = &sched.output {
            tool.streaming = true;
            tool.stream_path = path.clone();
        }
        tool
    }
}

/// Map a config-file ghost directive to a [`GhostSpec`], filling omitted
/// fields with the library defaults.
pub fn ghost_spec_from_directive(d: GhostDirective) -> GhostSpec {
    match d {
        GhostDirective::Explicit(g) => GhostSpec::Explicit(g),
        GhostDirective::Auto { factor } => GhostSpec::Auto {
            factor: factor.unwrap_or(AUTO_GHOST_FACTOR),
        },
        GhostDirective::Adaptive {
            initial_factor,
            max_rounds,
        } => {
            let GhostSpec::Adaptive {
                initial_factor: def_f,
                max_rounds: def_r,
            } = GhostSpec::adaptive()
            else {
                unreachable!("adaptive() returns Adaptive")
            };
            GhostSpec::Adaptive {
                initial_factor: initial_factor.unwrap_or(def_f),
                max_rounds: max_rounds.unwrap_or(def_r),
            }
        }
    }
}

impl AnalysisTool for TessTool {
    fn name(&self) -> &str {
        "tess"
    }

    fn run(&mut self, world: &mut World, ctx: &ToolContext<'_>) -> ToolReport {
        let sim = ctx.sim;
        let local: BTreeMap<u64, Vec<(u64, Vec3)>> = sim
            .blocks
            .iter()
            .map(|(&gid, ps)| (gid, ps.iter().map(|p| (p.id, p.pos)).collect()))
            .collect();
        if self.streaming {
            return self.run_streaming(world, ctx, &local);
        }
        let result = tessellate(world, &sim.dec, &sim.asn, &local, &self.params);
        let stats = tess::driver::global_stats(world, result.stats);

        // Global candidates-per-cell distribution: every rank's log-bucket
        // histogram, merged by the report collective (each rank gets it).
        let cand = diy::collect_report(world)
            .hist(tess::driver::HIST_CANDIDATES)
            .cloned()
            .unwrap_or_default();

        std::fs::create_dir_all(&ctx.output_dir).ok();
        let path = ctx.output_dir.join(format!("tess_step{}.bin", ctx.step));
        let bytes =
            tess::io::write_tessellation(world, &path, &result.blocks).expect("tessellation write");

        self.history.push((ctx.step, stats, result.ghost_used));
        let mut summary = format!(
            "step {}: {} cells ({} incomplete dropped, ghost {:.2} in {} round{}, \
             {:.1} candidates/cell, {} reused), {} bytes",
            ctx.step,
            stats.cells,
            stats.incomplete,
            result.ghost_used,
            stats.ghost_rounds,
            if stats.ghost_rounds == 1 { "" } else { "s" },
            stats.candidates_tested as f64 / stats.cells_computed.max(1) as f64,
            stats.cells_reused,
            bytes
        );
        if cand.n() > 0 {
            summary.push_str(&format!(
                ", candidates/cell dist {} (p50 {:.0}, max {:.0})",
                cand.sparkline(),
                cand.quantile(0.5),
                cand.max()
            ));
        }
        ToolReport {
            tool: self.name().to_string(),
            step: ctx.step,
            summary,
            artifacts: vec![path],
        }
    }
}

impl TessTool {
    /// Bounded-memory path: tessellate, write, and drop block by block via
    /// [`tess::tessellate_streaming`]; the merged mesh never exists in
    /// memory, but the file content is bit-identical to the merged mode's.
    fn run_streaming(
        &mut self,
        world: &mut World,
        ctx: &ToolContext<'_>,
        local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    ) -> ToolReport {
        let sim = ctx.sim;
        std::fs::create_dir_all(&ctx.output_dir).ok();
        let name = match &self.stream_path {
            Some(p) => p.replace("{step}", &ctx.step.to_string()),
            None => format!("tess_step{}.stream.bin", ctx.step),
        };
        let path = ctx.output_dir.join(name);
        let s = tessellate_streaming(world, &sim.dec, &sim.asn, local, &self.params, &path)
            .expect("streaming tessellation write");
        let stats = tess::driver::global_stats(world, s.stats);
        self.history.push((ctx.step, stats, s.ghost_used));
        let summary = format!(
            "step {}: streamed {} cells in {} blocks ({} incomplete dropped, ghost {:.2} in {} \
             round{}), {} payload bytes / {} file bytes",
            ctx.step,
            stats.cells,
            s.blocks_written,
            stats.incomplete,
            s.ghost_used,
            stats.ghost_rounds,
            if stats.ghost_rounds == 1 { "" } else { "s" },
            s.payload_bytes,
            s.file_bytes
        );
        ToolReport {
            tool: self.name().to_string(),
            step: ctx.step,
            summary,
            artifacts: vec![path],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrameworkConfig;

    #[test]
    fn schedule_ghost_overrides_params() {
        let cfg = FrameworkConfig::parse(
            "tool tess every=1 ghost=adaptive:1.25:3\n\
             tool other every=1 ghost=7.5\n\
             tool plain every=1\n",
        )
        .unwrap();
        let base = TessParams::default().with_ghost(2.0);
        let t = TessTool::from_schedule(base, cfg.schedule_for("tess").unwrap());
        assert_eq!(
            t.params.ghost,
            GhostSpec::Adaptive {
                initial_factor: 1.25,
                max_rounds: 3
            }
        );
        let o = TessTool::from_schedule(base, cfg.schedule_for("other").unwrap());
        assert_eq!(o.params.ghost, GhostSpec::Explicit(7.5));
        // no directive → the tool's own params win
        let p = TessTool::from_schedule(base, cfg.schedule_for("plain").unwrap());
        assert_eq!(p.params.ghost, GhostSpec::Explicit(2.0));
    }

    #[test]
    fn schedule_output_selects_streaming() {
        let cfg = FrameworkConfig::parse(
            "tool a every=1 output=stream\n\
             tool b every=1 output=stream:mesh_{step}.bin\n\
             tool c every=1 output=merged\n\
             tool d every=1\n",
        )
        .unwrap();
        let base = TessParams::default();
        let a = TessTool::from_schedule(base, cfg.schedule_for("a").unwrap());
        assert!(a.streaming);
        assert_eq!(a.stream_path, None);
        let b = TessTool::from_schedule(base, cfg.schedule_for("b").unwrap());
        assert!(b.streaming);
        assert_eq!(b.stream_path.as_deref(), Some("mesh_{step}.bin"));
        // merged, stated or by default
        let c = TessTool::from_schedule(base, cfg.schedule_for("c").unwrap());
        assert!(!c.streaming);
        let d = TessTool::from_schedule(base, cfg.schedule_for("d").unwrap());
        assert!(!d.streaming);
    }

    #[test]
    fn directive_defaults_fill_in_library_values() {
        assert_eq!(
            ghost_spec_from_directive(GhostDirective::Auto { factor: None }),
            GhostSpec::Auto {
                factor: AUTO_GHOST_FACTOR
            }
        );
        assert_eq!(
            ghost_spec_from_directive(GhostDirective::Adaptive {
                initial_factor: None,
                max_rounds: None
            }),
            GhostSpec::adaptive()
        );
    }
}
