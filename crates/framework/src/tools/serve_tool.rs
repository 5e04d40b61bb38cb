//! The resident mesh service as a framework tool ("service mode").
//!
//! At each scheduled step the live particles are gathered to rank 0,
//! which hosts a [`tess::MeshService`] (with its own small resident rank
//! machine, independent of the simulation's ranks). The first fire spawns
//! the service; later fires push the new particle snapshot as an update —
//! so between steps the last certified mesh stays resident and queryable.
//! Each fire also runs a probe batch (a point lookup at every block
//! center plus a whole-domain region summary) and reports the published
//! epoch, cell count, and probe latency.

use diy::comm::World;
use diy::decomposition::DecompScheme;
use geometry::Vec3;
use tess::{Answer, MeshService, Query, ServiceConfig, TessParams, Update};

use crate::config::{FrameworkConfig, ServiceDirective, ToolSchedule};
use crate::tool::{AnalysisTool, ToolContext, ToolReport};
use crate::tools::tess_tool::ghost_spec_from_directive;

/// Hosts the resident mesh service on rank 0 (see module docs).
pub struct ServeTool {
    pub params: TessParams,
    /// Query worker threads for the service.
    pub workers: usize,
    /// Max requests drained per batch.
    pub batch: usize,
    /// Resident ranks of the service's private update machine.
    pub service_ranks: usize,
    /// Decomposition scheme for the service's resident blocks.
    pub decomp: DecompScheme,
    /// Per-fire record: (step, epoch published, cells served).
    pub history: Vec<(usize, u64, u64)>,
    /// Prometheus exposition file rewritten per fire (from the config's
    /// `telemetry` directive; `{step}` expands to the firing step).
    pub telemetry_path: Option<String>,
    service: Option<MeshService>,
}

impl ServeTool {
    pub fn new(params: TessParams) -> Self {
        ServeTool {
            params,
            workers: 2,
            batch: 64,
            service_ranks: 2,
            decomp: DecompScheme::Regular,
            history: Vec::new(),
            telemetry_path: None,
            service: None,
        }
    }

    /// `new`, with the schedule's `ghost=` directive overriding
    /// `params.ghost`, the config's `service` directive sizing the
    /// worker pool / batch cap, and the config's `decomp` directive
    /// choosing the service's block decomposition scheme.
    pub fn from_config(params: TessParams, cfg: &FrameworkConfig, sched: &ToolSchedule) -> Self {
        let mut tool = ServeTool::new(params);
        if let Some(d) = sched.ghost {
            tool.params.ghost = ghost_spec_from_directive(d);
        }
        let ServiceDirective { workers, batch } = cfg.service.unwrap_or_default();
        if let Some(w) = workers {
            tool.workers = w;
        }
        if let Some(b) = batch {
            tool.batch = b;
        }
        tool.decomp = cfg.decomp_scheme();
        tool.telemetry_path = cfg.telemetry.clone();
        tool
    }

    /// The hosted service (rank 0 only, after the first fire).
    pub fn service(&self) -> Option<&MeshService> {
        self.service.as_ref()
    }
}

impl AnalysisTool for ServeTool {
    fn name(&self) -> &str {
        "serve"
    }

    fn run(&mut self, world: &mut World, ctx: &ToolContext<'_>) -> ToolReport {
        let sim = ctx.sim;
        let mine: Vec<(u64, Vec3)> = sim
            .blocks
            .values()
            .flat_map(|ps| ps.iter().map(|p| (p.id, p.pos)))
            .collect();
        let gathered = world.gather(0, &mine);
        let Some(per_rank) = gathered else {
            return ToolReport {
                tool: self.name().to_string(),
                step: ctx.step,
                summary: format!("step {}: service hosted on rank 0", ctx.step),
                artifacts: Vec::new(),
            };
        };
        let all: Vec<(u64, Vec3)> = per_rank.into_iter().flatten().collect();
        let particles = all.len();

        let (epoch, cells) = match &self.service {
            Some(svc) => {
                let rep = svc.update(Update::Snapshot(all));
                (rep.epoch, rep.cells)
            }
            None => {
                let cfg = ServiceConfig::new(self.service_ranks, sim.dec.nblocks())
                    .with_workers(self.workers)
                    .with_batch_max(self.batch)
                    .with_params(self.params)
                    .with_decomp(self.decomp);
                let svc = MeshService::spawn(sim.dec.domain, sim.dec.periodic, &all, cfg);
                let snap = svc.snapshot();
                let out = (snap.epoch, snap.total_cells);
                self.service = Some(svc);
                out
            }
        };
        let svc = self.service.as_ref().expect("service hosted");

        // Probe batch: one lookup per block center, then the whole domain.
        let pending: Vec<_> = (0..sim.dec.nblocks() as u64)
            .map(|gid| {
                let b = sim.dec.block_bounds(gid);
                let c = Vec3::new(
                    0.5 * (b.min.x + b.max.x),
                    0.5 * (b.min.y + b.max.y),
                    0.5 * (b.min.z + b.max.z),
                );
                svc.submit(Query::Point(c)).expect("service open")
            })
            .collect();
        let mut lat_ns: Vec<u64> = pending.into_iter().map(|p| p.wait().latency_ns).collect();
        lat_ns.sort_unstable();
        let p50_us = lat_ns[lat_ns.len() / 2] as f64 / 1e3;
        let whole = svc
            .query(Query::Region(sim.dec.domain))
            .expect("service open");
        let Answer::Region(region) = whole.answer else {
            unreachable!("region query returns a region answer")
        };

        self.history.push((ctx.step, epoch, cells));

        // Per-fire telemetry export: advance the epoch (so rolling
        // quantiles window per fire) and rewrite the exposition file.
        let mut artifacts = Vec::new();
        if let Some(tpl) = &self.telemetry_path {
            let rel = tpl.replace("{step}", &ctx.step.to_string());
            let path = if std::path::Path::new(&rel).is_absolute() {
                std::path::PathBuf::from(rel)
            } else {
                ctx.output_dir.join(rel)
            };
            svc.telemetry().advance_epoch();
            match std::fs::write(&path, svc.telemetry().render_prometheus()) {
                Ok(()) => artifacts.push(path),
                Err(e) => diy::log_error!("serve: telemetry export {}: {e}", path.display()),
            }
        }

        ToolReport {
            tool: self.name().to_string(),
            step: ctx.step,
            summary: format!(
                "step {}: epoch {epoch} serving {cells} cells from {particles} particles \
                 (domain volume {:.3}, probe p50 {p50_us:.0}us)",
                ctx.step, region.volume,
            ),
            artifacts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_sizes_the_service() {
        let cfg = FrameworkConfig::parse(
            "service workers=5 batch=16\n\
             decomp kd:2048\n\
             telemetry serve_{step}.prom\n\
             tool serve every=2 ghost=auto:3\n",
        )
        .unwrap();
        let t = ServeTool::from_config(
            TessParams::default(),
            &cfg,
            cfg.schedule_for("serve").unwrap(),
        );
        assert_eq!(t.workers, 5);
        assert_eq!(t.batch, 16);
        assert_eq!(t.params.ghost, tess::GhostSpec::Auto { factor: 3.0 });
        assert_eq!(t.decomp, DecompScheme::Kd { sample: 2048 });
        assert_eq!(t.telemetry_path.as_deref(), Some("serve_{step}.prom"));
        // no service directive → defaults
        let cfg2 = FrameworkConfig::parse("tool serve every=1\n").unwrap();
        let t2 = ServeTool::from_config(
            TessParams::default(),
            &cfg2,
            cfg2.schedule_for("serve").unwrap(),
        );
        assert_eq!((t2.workers, t2.batch), (2, 64));
    }
}
