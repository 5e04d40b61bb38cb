//! Tessellation statistics, mergeable across blocks and ranks.

use diy::codec::{CodecError, Decode, Encode, Reader};

/// Counters from one or more tessellated blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TessStats {
    /// Original particles processed (= candidate sites).
    pub sites: u64,
    /// Ghost particles received.
    pub ghosts_received: u64,
    /// Cells kept in the output.
    pub cells: u64,
    /// Cells dropped because they could not be certified complete.
    pub incomplete: u64,
    /// Incomplete cells kept because `keep_incomplete` was set.
    pub incomplete_kept: u64,
    /// Cells culled by the conservative diameter bound (before hull work).
    pub culled_early: u64,
    /// Cells culled after exact volume computation.
    pub culled_late: u64,
    /// Deduplicated vertices stored.
    pub verts: u64,
    /// Face records stored.
    pub faces: u64,
    /// Ghost exchange rounds executed (1 for the fixed-radius modes; the
    /// adaptive mode counts its delta rounds). Merged with `max`, not a
    /// sum: every rank participates in the same collective rounds.
    pub ghost_rounds: u64,
    /// Bisector planes actually clipped against, summed over every cell
    /// computation — both calls of the clip pass for a cell that takes the
    /// second (the kernel's dominant cost driver).
    pub candidates_tested: u64,
    /// Candidates rejected without a clip: by the f32 distance prefilter
    /// before the exact f64 distance was computed, or by the
    /// support-function test against the cell's bounding box.
    pub prefilter_skipped: u64,
    /// Candidates the stream sorted into emission order, summed like
    /// `candidates_tested`: fetched candidates wait unsorted and those the
    /// shrinking security radius passes are dropped without a sort.
    pub candidates_sorted: u64,
    /// Cell computations actually executed, counting re-runs across
    /// adaptive rounds.
    pub cells_computed: u64,
    /// Certified cells carried over unchanged by incremental
    /// re-tessellation instead of being recomputed.
    pub cells_reused: u64,
}

impl TessStats {
    /// Combine counters (for block → rank → global reduction).
    pub fn merge(mut self, o: TessStats) -> TessStats {
        self.sites += o.sites;
        self.ghosts_received += o.ghosts_received;
        self.cells += o.cells;
        self.incomplete += o.incomplete;
        self.incomplete_kept += o.incomplete_kept;
        self.culled_early += o.culled_early;
        self.culled_late += o.culled_late;
        self.verts += o.verts;
        self.faces += o.faces;
        self.ghost_rounds = self.ghost_rounds.max(o.ghost_rounds);
        self.candidates_tested = self.candidates_tested.saturating_add(o.candidates_tested);
        self.prefilter_skipped = self.prefilter_skipped.saturating_add(o.prefilter_skipped);
        self.candidates_sorted = self.candidates_sorted.saturating_add(o.candidates_sorted);
        self.cells_computed = self.cells_computed.saturating_add(o.cells_computed);
        self.cells_reused = self.cells_reused.saturating_add(o.cells_reused);
        self
    }
}

impl Encode for TessStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        for v in [
            self.sites,
            self.ghosts_received,
            self.cells,
            self.incomplete,
            self.incomplete_kept,
            self.culled_early,
            self.culled_late,
            self.verts,
            self.faces,
            self.ghost_rounds,
            self.candidates_tested,
            self.prefilter_skipped,
            self.candidates_sorted,
            self.cells_computed,
            self.cells_reused,
        ] {
            v.encode(buf);
        }
    }
}

impl Decode for TessStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TessStats {
            sites: u64::decode(r)?,
            ghosts_received: u64::decode(r)?,
            cells: u64::decode(r)?,
            incomplete: u64::decode(r)?,
            incomplete_kept: u64::decode(r)?,
            culled_early: u64::decode(r)?,
            culled_late: u64::decode(r)?,
            verts: u64::decode(r)?,
            faces: u64::decode(r)?,
            ghost_rounds: u64::decode(r)?,
            candidates_tested: u64::decode(r)?,
            prefilter_skipped: u64::decode(r)?,
            candidates_sorted: u64::decode(r)?,
            cells_computed: u64::decode(r)?,
            cells_reused: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let a = TessStats {
            sites: 1,
            cells: 2,
            verts: 3,
            ..Default::default()
        };
        let b = TessStats {
            sites: 10,
            cells: 20,
            faces: 5,
            ..Default::default()
        };
        let m = a.merge(b);
        assert_eq!(m.sites, 11);
        assert_eq!(m.cells, 22);
        assert_eq!(m.verts, 3);
        assert_eq!(m.faces, 5);
    }

    #[test]
    fn merge_takes_max_of_ghost_rounds() {
        let a = TessStats {
            ghost_rounds: 3,
            ..Default::default()
        };
        let b = TessStats {
            ghost_rounds: 2,
            ..Default::default()
        };
        // collective rounds are shared, not additive
        assert_eq!(a.merge(b).ghost_rounds, 3);
        assert_eq!(b.merge(a).ghost_rounds, 3);
    }

    #[test]
    fn codec_roundtrip() {
        let s = TessStats {
            sites: 7,
            ghosts_received: 6,
            cells: 5,
            incomplete: 4,
            incomplete_kept: 1,
            culled_early: 3,
            culled_late: 2,
            verts: 9,
            faces: 8,
            ghost_rounds: 2,
            candidates_tested: 1234,
            prefilter_skipped: 99,
            candidates_sorted: 321,
            cells_computed: 11,
            cells_reused: 6,
        };
        assert_eq!(TessStats::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn work_counters_saturate_on_merge() {
        let a = TessStats {
            candidates_tested: u64::MAX - 1,
            prefilter_skipped: u64::MAX - 4,
            candidates_sorted: u64::MAX - 2,
            cells_computed: 5,
            cells_reused: 2,
            ..Default::default()
        };
        let b = TessStats {
            candidates_tested: 10,
            prefilter_skipped: 10,
            candidates_sorted: 10,
            cells_computed: 7,
            cells_reused: 1,
            ..Default::default()
        };
        let m = a.merge(b);
        assert_eq!(m.candidates_tested, u64::MAX);
        assert_eq!(m.prefilter_skipped, u64::MAX);
        assert_eq!(m.candidates_sorted, u64::MAX);
        assert_eq!(m.cells_computed, 12);
        assert_eq!(m.cells_reused, 3);
    }
}
