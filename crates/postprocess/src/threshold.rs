//! Volume-threshold filtering of tessellation cells (§IV-B, Figure 9).

use tess::MeshBlock;

/// A volume range filter: cells survive when `min <= volume <= max`.
#[derive(Debug, Clone, Copy)]
pub struct VolumeFilter {
    pub min: f64,
    pub max: f64,
}

impl VolumeFilter {
    /// Keep cells with volume at least `min` (the void-finding direction).
    pub fn at_least(min: f64) -> Self {
        VolumeFilter {
            min,
            max: f64::INFINITY,
        }
    }

    /// Keep cells within `[min, max]`.
    pub fn range(min: f64, max: f64) -> Self {
        assert!(max >= min);
        VolumeFilter { min, max }
    }

    pub fn keeps(&self, volume: f64) -> bool {
        volume >= self.min && volume <= self.max
    }

    /// Indices of surviving cells in one block.
    pub fn filter_block(&self, block: &MeshBlock) -> Vec<usize> {
        block
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| self.keeps(c.volume))
            .map(|(i, _)| i)
            .collect()
    }

    /// Global site ids of surviving cells across blocks.
    pub fn surviving_sites(&self, blocks: &[MeshBlock]) -> Vec<u64> {
        let mut out = Vec::new();
        for b in blocks {
            for c in &b.cells {
                if self.keeps(c.volume) {
                    out.push(b.site_id_of(c));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The volume threshold that keeps only the largest `fraction` of the
    /// observed volume *range* (the paper's "10% volume threshold" keeps
    /// cells above 10% of the range).
    pub fn fraction_of_range(blocks: &[MeshBlock], fraction: f64) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for b in blocks {
            for c in &b.cells {
                lo = lo.min(c.volume);
                hi = hi.max(c.volume);
            }
        }
        if !(lo.is_finite() && hi > lo) {
            return VolumeFilter::at_least(0.0);
        }
        VolumeFilter::at_least(lo + fraction * (hi - lo))
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
            b.cells.push(i as u32, v, 1.0, true);
        }
        b
    }

    #[test]
    fn at_least_keeps_large_cells() {
        let b = block_with_volumes(&[0.1, 0.5, 1.5, 2.0]);
        let f = VolumeFilter::at_least(0.5);
        assert_eq!(f.filter_block(&b), vec![1, 2, 3]);
        assert_eq!(f.surviving_sites(&[b]), vec![1, 2, 3]);
    }

    #[test]
    fn range_filter() {
        let b = block_with_volumes(&[0.1, 0.5, 1.5, 2.0]);
        let f = VolumeFilter::range(0.2, 1.6);
        assert_eq!(f.filter_block(&b), vec![1, 2]);
        assert!(!f.keeps(0.19));
        assert!(f.keeps(1.6));
    }

    #[test]
    fn fraction_of_range_matches_paper_semantics() {
        // range [0, 2]: a 10% threshold cuts at 0.2
        let b = block_with_volumes(&[0.0, 0.1, 0.2, 1.0, 2.0]);
        let f = VolumeFilter::fraction_of_range(std::slice::from_ref(&b), 0.1);
        assert!((f.min - 0.2).abs() < 1e-12);
        assert_eq!(f.filter_block(&b), vec![2, 3, 4]);
    }

    #[test]
    fn degenerate_blocks_do_not_panic() {
        let empty = MeshBlock::empty(0, Aabb::cube(1.0));
        let f = VolumeFilter::fraction_of_range(std::slice::from_ref(&empty), 0.1);
        assert_eq!(f.filter_block(&empty), Vec::<usize>::new());
    }
}
