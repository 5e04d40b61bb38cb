//! The mesh block codec on real blocks: the flat model writes the v2 bytes
//! it reads, and no corruption of those bytes can make decoding panic or
//! hand out a block whose indices point outside it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use bench_harness::corpus::clustered;
use meshing_universe::diy::codec::{Decode, Encode};
use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, DecompScheme};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{self, MeshBlock, TessParams};
use proptest::prelude::*;

/// The blocks of a 4-block, 2-rank tessellation of a clustered corpus,
/// encoded, by gid.
fn clustered_blocks() -> &'static BTreeMap<u64, Vec<u8>> {
    static BLOCKS: OnceLock<BTreeMap<u64, Vec<u8>>> = OnceLock::new();
    BLOCKS.get_or_init(|| {
        let side = 8.0;
        let particles = clustered(side, 12, 40, 200, 17);
        let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
        let dec = DecompScheme::Regular.build(Aabb::cube(side), 4, [true; 3], &positions);
        let per_rank = Runtime::run(2, |world| {
            let asn = Assignment::new(4, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles {
                if let Some(v) = local.get_mut(&dec.block_of_point(p)) {
                    v.push((id, p));
                }
            }
            let params = TessParams {
                keep_incomplete: true,
                ..TessParams::default().with_ghost(0.5)
            };
            let r = tess::tessellate(world, &dec, &asn, &local, &params);
            r.blocks
                .into_iter()
                .map(|(gid, b)| (gid, b.to_bytes()))
                .collect::<Vec<_>>()
        });
        per_rank.into_iter().flatten().collect()
    })
}

/// A small real block, swept byte by byte: a jittered 3³ periodic
/// lattice with its wall cells kept incomplete.
fn small_block() -> &'static [u8] {
    static BLOCK: OnceLock<Vec<u8>> = OnceLock::new();
    BLOCK.get_or_init(|| {
        let particles: Vec<(u64, Vec3)> = (0..27u64)
            .map(|i| {
                let (x, y, z) = (i % 3, (i / 3) % 3, i / 9);
                let jitter = 0.1 * ((i * 7 % 5) as f64 - 2.0) / 2.0;
                (
                    i,
                    Vec3::new(
                        x as f64 + 0.5 + jitter,
                        y as f64 + 0.5,
                        z as f64 + 0.5 - jitter,
                    ),
                )
            })
            .collect();
        let params = TessParams {
            keep_incomplete: true,
            ..TessParams::default().with_ghost(0.5)
        };
        let (block, stats) =
            tess::tessellate_serial(&particles, Aabb::cube(3.0), [false; 3], &params);
        assert_eq!(stats.cells, 27);
        block.to_bytes()
    })
}

/// Every index a reader follows is in range; walks every view.
fn assert_in_range(b: &MeshBlock) {
    assert_eq!(b.particles.len(), b.site_ids.len());
    for c in &b.cells {
        assert!((c.site_idx as usize) < b.particles.len());
        let _ = (b.site_of(c), b.site_id_of(c));
        for f in c.faces {
            assert!(f.verts.iter().all(|&v| (v as usize) < b.verts.len()));
            let _ = b.face_points(f);
        }
    }
}

#[test]
fn clustered_blocks_reencode_to_the_same_bytes() {
    let blocks = clustered_blocks();
    assert_eq!(blocks.len(), 4);
    let (mut cells, mut open) = (0, 0);
    for (gid, bytes) in blocks {
        let b = MeshBlock::from_bytes(bytes).expect("a written block decodes");
        assert_eq!(b.gid, *gid);
        assert_in_range(&b);
        assert_eq!(&b.to_bytes(), bytes, "block {gid}");
        assert_eq!(b.encoded_len(), bytes.len());
        cells += b.cells.len();
        open += b
            .cells
            .iter()
            .filter(|c| c.faces.iter().any(|f| f.neighbor == tess::NO_NEIGHBOR))
            .count();
    }
    assert_eq!(cells, 680, "every cell is kept");
    // the ghost radius is too small for the voids: kept-incomplete cells
    // with region-wall faces are in the picture
    assert!(open > 0);
}

#[test]
fn every_truncation_of_a_block_is_an_error() {
    let bytes = small_block();
    for cut in 0..bytes.len() {
        assert!(
            MeshBlock::from_bytes(&bytes[..cut]).is_err(),
            "cut at {cut}"
        );
    }
}

#[test]
fn every_single_bit_flip_decodes_in_range_or_errs() {
    let bytes = small_block();
    let mut copy = bytes.to_vec();
    for pos in 0..bytes.len() {
        let flip = 1u8 << (pos % 8);
        copy[pos] ^= flip;
        if let Ok(b) = MeshBlock::from_bytes(&copy) {
            assert_in_range(&b);
        }
        copy[pos] ^= flip;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Any byte value anywhere, over any block: `Err`, or a block whose
    /// every index is in range.
    #[test]
    fn single_byte_corruption_decodes_in_range_or_errs(
        which in 0usize..4,
        pos_frac in 0.0f64..1.0,
        value in 0u8..=255,
    ) {
        let bytes = clustered_blocks().values().nth(which).unwrap();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        let mut copy = bytes.clone();
        copy[pos] = value;
        if let Ok(b) = MeshBlock::from_bytes(&copy) {
            assert_in_range(&b);
        }
    }

    /// Truncation anywhere in any block is an error.
    #[test]
    fn truncation_is_an_error(which in 0usize..4, cut_frac in 0.0f64..1.0) {
        let bytes = clustered_blocks().values().nth(which).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(MeshBlock::from_bytes(&bytes[..cut]).is_err());
    }
}
