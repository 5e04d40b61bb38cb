//! Tessellation parameters.

/// Spacing multiple the auto heuristic (and the adaptive fallback round)
/// uses: 4–5 mean spacings certifies virtually every cell in evolved boxes.
pub const AUTO_GHOST_FACTOR: f64 = 5.0;

/// How the ghost-zone size is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GhostSpec {
    /// User-provided ghost distance in domain units (the paper's mode:
    /// "the ghost size parameter is provided by the user").
    Explicit(f64),
    /// Estimate automatically from the particle spacing: ghost =
    /// `factor × max over blocks of (block volume / particles)^{1/3}`.
    /// This implements the paper's future-work item "determining the ghost
    /// size automatically".
    Auto { factor: f64 },
    /// Multi-round adaptive sizing: tessellate with `initial_factor ×` the
    /// estimated spacing, then let every uncertified cell bound the radius
    /// it needs (2× its site-to-farthest-vertex distance) and run delta
    /// exchange rounds shipping only the newly covered shell, until a
    /// collective round reports every cell certified. After `max_rounds`
    /// adaptive rounds a final round at the [`AUTO_GHOST_FACTOR`] radius
    /// runs; cells still uncertified then are dropped exactly like the
    /// fixed modes drop them.
    Adaptive {
        initial_factor: f64,
        max_rounds: usize,
    },
}

impl Default for GhostSpec {
    fn default() -> Self {
        GhostSpec::Auto {
            factor: AUTO_GHOST_FACTOR,
        }
    }
}

impl GhostSpec {
    /// Adaptive sizing with the default schedule: start at half the auto
    /// heuristic radius, allow 8 adaptive rounds before the fallback.
    pub fn adaptive() -> Self {
        GhostSpec::Adaptive {
            initial_factor: AUTO_GHOST_FACTOR / 2.0,
            max_rounds: 8,
        }
    }
}

/// Parameters for a tessellation pass.
#[derive(Debug, Clone, Copy)]
pub struct TessParams {
    pub ghost: GhostSpec,
    /// Minimum cell volume: cells *below* are culled, first with the
    /// conservative diameter bound (early), then exactly (late).
    /// `None` keeps everything.
    pub min_volume: Option<f64>,
    /// Keep cells that could not be certified complete (used by the
    /// Table I accuracy study to reproduce the paper's boundary errors;
    /// production runs leave this `false`).
    pub keep_incomplete: bool,
    /// Absolute tolerance for plane-side classification during clipping,
    /// in domain units.
    pub eps: f64,
    /// Half-extent of the canonical start cube centered on each site. The
    /// distributed driver fills it from the decomposition's *domain* (never
    /// from a block), which is what makes certified cell bits independent
    /// of the block decomposition scheme. `None` — direct single-block
    /// calls — falls back to a block-derived box.
    pub canon_extent: Option<f64>,
}

impl Default for TessParams {
    fn default() -> Self {
        TessParams {
            ghost: GhostSpec::default(),
            min_volume: None,
            keep_incomplete: false,
            eps: 1e-9,
            canon_extent: None,
        }
    }
}

impl TessParams {
    pub fn with_ghost(mut self, ghost: f64) -> Self {
        self.ghost = GhostSpec::Explicit(ghost);
        self
    }

    pub fn with_min_volume(mut self, v: f64) -> Self {
        self.min_volume = Some(v);
        self
    }

    /// Switch to the default adaptive ghost schedule ([`GhostSpec::adaptive`]).
    pub fn with_adaptive_ghost(mut self) -> Self {
        self.ghost = GhostSpec::adaptive();
        self
    }

    /// Diameter of the sphere whose volume equals `min_volume`; any cell
    /// with a smaller vertex-pair diameter provably has a smaller volume
    /// (isodiametric inequality), which is the paper's early cull.
    pub fn cull_diameter(&self) -> Option<f64> {
        self.min_volume
            .map(|v| 2.0 * (3.0 * v / (4.0 * std::f64::consts::PI)).powf(1.0 / 3.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cull_diameter_is_sphere_diameter() {
        let p = TessParams::default().with_min_volume(4.0 / 3.0 * std::f64::consts::PI);
        // volume of unit sphere → diameter 2
        assert!((p.cull_diameter().unwrap() - 2.0).abs() < 1e-12);
        assert!(TessParams::default().cull_diameter().is_none());
    }

    #[test]
    fn builders() {
        let p = TessParams::default().with_ghost(3.0).with_min_volume(0.5);
        assert_eq!(p.ghost, GhostSpec::Explicit(3.0));
        assert_eq!(p.min_volume, Some(0.5));
        assert!(!p.keep_incomplete);
        let a = TessParams::default().with_adaptive_ghost();
        assert_eq!(
            a.ghost,
            GhostSpec::Adaptive {
                initial_factor: AUTO_GHOST_FACTOR / 2.0,
                max_rounds: 8
            }
        );
    }
}
