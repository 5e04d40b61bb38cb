//! Cell density and density contrast (§IV-D, Figure 11).
//!
//! All particles have unit mass, so a cell's density is simply the
//! reciprocal of its volume, and the density contrast is
//! `δ = (d − μ_d) / μ_d` (the paper's Eq. 2), where `μ_d` is the global
//! mean density (particles per unit volume of the box).

use tess::MeshBlock;

/// Per-cell densities with the global mean used for contrast.
#[derive(Debug, Clone)]
pub struct DensityField {
    /// `(site id, density)` for every cell.
    pub densities: Vec<(u64, f64)>,
    /// Global mean density `μ_d`.
    pub mean: f64,
}

impl DensityField {
    /// Density contrasts `δ` in the same order as `densities`.
    pub fn contrasts(&self) -> Vec<f64> {
        self.densities
            .iter()
            .map(|&(_, d)| (d - self.mean) / self.mean)
            .collect()
    }
}

/// Compute cell densities. `mean_density` is total particles / box volume;
/// pass the *simulation* values so culled cells do not bias the mean.
pub fn density_contrast(blocks: &[MeshBlock], mean_density: f64) -> DensityField {
    assert!(mean_density > 0.0);
    let mut densities = Vec::new();
    for b in blocks {
        for c in &b.cells {
            if c.volume > 0.0 {
                densities.push((b.site_id_of(c), 1.0 / c.volume));
            }
        }
    }
    DensityField {
        densities,
        mean: mean_density,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::{Aabb, Vec3};
    use tess::MeshBlock;

    fn block_with_volumes(vols: &[f64]) -> MeshBlock {
        let mut b = MeshBlock::empty(0, Aabb::cube(1.0));
        for (i, &v) in vols.iter().enumerate() {
            b.particles.push(Vec3::splat(0.5));
            b.site_ids.push(i as u64);
            b.cells.push(i as u32, v, 0.0, true);
        }
        b
    }

    #[test]
    fn density_is_reciprocal_volume() {
        let b = block_with_volumes(&[0.5, 2.0]);
        let f = density_contrast(&[b], 1.0);
        assert_eq!(f.densities[0].1, 2.0);
        assert_eq!(f.densities[1].1, 0.5);
    }

    #[test]
    fn uniform_tessellation_has_zero_contrast() {
        // lattice tessellation: every cell volume 1, mean density 1
        let particles: Vec<(u64, Vec3)> = (0..64)
            .map(|i| {
                let x = i % 4;
                let y = (i / 4) % 4;
                let z = i / 16;
                (
                    i as u64,
                    Vec3::new(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5),
                )
            })
            .collect();
        let (block, _) = tess::tessellate_serial(
            &particles,
            Aabb::cube(4.0),
            [true; 3],
            &tess::TessParams::default().with_ghost(2.0),
        );
        let mean = 64.0 / 64.0;
        let f = density_contrast(&[block], mean);
        for d in f.contrasts() {
            assert!(d.abs() < 1e-9, "δ = {d}");
        }
    }

    #[test]
    fn contrast_definition_matches_eq2() {
        let b = block_with_volumes(&[0.25]); // density 4
        let f = density_contrast(&[b], 2.0);
        let c = f.contrasts();
        assert!((c[0] - 1.0).abs() < 1e-12); // (4-2)/2
    }

    #[test]
    fn zero_volume_cells_are_skipped() {
        let b = block_with_volumes(&[0.0, 1.0]);
        let f = density_contrast(&[b], 1.0);
        assert_eq!(f.densities.len(), 1);
    }
}
