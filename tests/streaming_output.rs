//! Bounded-memory streaming output acceptance gate: the mesh a
//! [`tess::tessellate_streaming`] pass writes to disk must be
//! **bit-identical** to the in-memory merge [`tess::tessellate`] produces
//! for the same configuration — block for block, byte for byte — across
//! rank counts, decomposition schemes, ghost modes, and volume culling. Streaming changes *residency*, never bits.
//!
//! Matrix: {1, 2, 4, 8} ranks × {regular, kd} under auto ghosts, plus a multi-round adaptive run, a culled run, and the
//! RunReport memory-accounting invariants.

use std::collections::BTreeMap;
use std::path::PathBuf;

use bench_harness::corpus::ClusterSpec;
use bench_harness::partition_particles;
use meshing_universe::diy::codec::Encode;
use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, DecompScheme, Decomposition};
use meshing_universe::diy::metrics::collect_report;
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{self, GhostSpec, TessParams};

const NBLOCKS: usize = 8;

const KD: DecompScheme = DecompScheme::Kd {
    sample: DecompScheme::DEFAULT_KD_SAMPLE,
};

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("streaming-output-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn corpus() -> (Vec<(u64, Vec3)>, f64) {
    let spec = ClusterSpec::corner_heavy(16.0, 24, 40, 42);
    (spec.generate(), spec.side)
}

fn build(
    particles: &[(u64, Vec3)],
    side: f64,
    scheme: DecompScheme,
    nranks: usize,
) -> (Decomposition, Assignment) {
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let dec = scheme.build(Aabb::cube(side), NBLOCKS, [true; 3], &positions);
    let asn = match scheme {
        DecompScheme::Regular => Assignment::new(dec.nblocks(), nranks),
        DecompScheme::Kd { .. } => {
            let mut counts = vec![0u64; dec.nblocks()];
            for &(_, p) in particles {
                counts[dec.block_of_point(p) as usize] += 1;
            }
            Assignment::weighted(&counts, nranks)
        }
    };
    (dec, asn)
}

/// In-memory merge via [`tess::tessellate`]: gid → serialized block bytes,
/// plus the globally merged stats.
fn accumulated(
    particles: &[(u64, Vec3)],
    side: f64,
    scheme: DecompScheme,
    nranks: usize,
    params: &TessParams,
) -> (BTreeMap<u64, Vec<u8>>, tess::TessStats) {
    let (dec, asn) = build(particles, side, scheme, nranks);
    let per_rank = Runtime::run(nranks, |world| {
        let local = partition_particles(particles, &dec, &asn, world.rank());
        let r = tess::tessellate(world, &dec, &asn, &local, params);
        let stats = tess::driver::global_stats(world, r.stats);
        let bytes: Vec<(u64, Vec<u8>)> = r
            .blocks
            .iter()
            .map(|(&gid, b)| (gid, b.to_bytes()))
            .collect();
        (bytes, stats)
    });
    let stats = per_rank[0].1;
    let mut merged = BTreeMap::new();
    for (bytes, s) in per_rank {
        assert_eq!(s, stats, "global_stats must agree on every rank");
        for (gid, b) in bytes {
            assert!(merged.insert(gid, b).is_none(), "block {gid} owned twice");
        }
    }
    (merged, stats)
}

/// Streaming pass writing to `path`; returns the read-back file content as
/// gid → serialized block bytes plus the merged stats and file totals.
#[allow(clippy::type_complexity)]
fn streamed(
    particles: &[(u64, Vec3)],
    side: f64,
    scheme: DecompScheme,
    nranks: usize,
    params: &TessParams,
    name: &str,
) -> (BTreeMap<u64, Vec<u8>>, tess::TessStats, (u64, u64, u64)) {
    let (dec, asn) = build(particles, side, scheme, nranks);
    let path = tmpfile(name);
    let path_ref = &path;
    let per_rank = Runtime::run(nranks, |world| {
        let local = partition_particles(particles, &dec, &asn, world.rank());
        let s = tess::tessellate_streaming(world, &dec, &asn, &local, params, path_ref)
            .expect("streaming pass");
        let stats = tess::driver::global_stats(world, s.stats);
        (
            stats,
            (s.blocks_written, s.payload_bytes, s.file_bytes),
            s.ghost_used,
        )
    });
    let (stats, totals, _) = per_rank[0];
    for &(s, t, _) in &per_rank {
        assert_eq!(s, stats);
        assert_eq!(t, totals, "file totals are global and rank-identical");
    }
    let blocks: BTreeMap<u64, Vec<u8>> = tess::io::read_tessellation(&path)
        .unwrap()
        .into_iter()
        .map(|b| (b.gid, b.to_bytes()))
        .collect();
    (blocks, stats, totals)
}

fn assert_same_blocks(
    reference: &BTreeMap<u64, Vec<u8>>,
    got: &BTreeMap<u64, Vec<u8>>,
    label: &str,
) {
    assert_eq!(
        reference.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "{label}: block gid sets differ"
    );
    for (gid, r) in reference {
        assert!(
            got[gid] == *r,
            "{label}: block {gid} bytes differ from the in-memory merge"
        );
    }
}

/// The acceptance matrix: streamed file == in-memory merge at 1/2/4/8
/// ranks under both decomposition schemes (auto ghosts: single collective
/// round, the fixed-wave streaming path).
#[test]
fn streamed_file_matches_in_memory_merge_across_the_matrix() {
    let (particles, side) = corpus();
    for (scheme, sname) in [(DecompScheme::Regular, "reg"), (KD, "kd")] {
        let params = TessParams::default();
        let (reference, ref_stats) = accumulated(&particles, side, scheme, 1, &params);
        for nranks in [1usize, 2, 4, 8] {
            let label = format!("{sname}@{nranks}");
            let name = format!("matrix-{sname}-{nranks}.tess");
            let (blocks, stats, (nblocks, payload, file)) =
                streamed(&particles, side, scheme, nranks, &params, &name);
            assert_same_blocks(&reference, &blocks, &label);
            assert_eq!(stats.cells, ref_stats.cells, "{label}: cell counts");
            assert_eq!(nblocks as usize, reference.len(), "{label}");
            let expected_payload: u64 = reference.values().map(|b| b.len() as u64).sum();
            assert_eq!(payload, expected_payload, "{label}: payload bytes");
            assert!(file > payload, "{label}: framing must be accounted");
        }
    }
}

/// Adaptive ghosts run the loop for several rounds: blocks leave memory
/// the moment they are final — in different rounds under the default
/// schedule, which is what used to panic — and the file still matches the
/// accumulated merge, with equal stats.
#[test]
fn adaptive_streaming_matches_across_rounds() {
    let (particles, side) = corpus();
    let slow_start = GhostSpec::Adaptive {
        initial_factor: 0.5,
        max_rounds: 8,
    };
    for (ghost, gname, ranks) in [
        (slow_start, "slow", &[1usize, 4][..]),
        (GhostSpec::adaptive(), "default", &[1, 2, 4][..]),
    ] {
        let params = TessParams {
            ghost,
            ..TessParams::default()
        };
        for &nranks in ranks {
            let (reference, ref_stats) =
                accumulated(&particles, side, DecompScheme::Regular, nranks, &params);
            let name = format!("adaptive-{gname}-{nranks}.tess");
            let (blocks, stats, _) = streamed(
                &particles,
                side,
                DecompScheme::Regular,
                nranks,
                &params,
                &name,
            );
            assert_same_blocks(&reference, &blocks, &format!("adaptive {gname}@{nranks}"));
            assert!(
                stats.ghost_rounds > 1,
                "corpus must exercise the multi-round path (got {} rounds)",
                stats.ghost_rounds
            );
            assert_eq!(stats, ref_stats, "adaptive {gname}@{nranks}");
        }
    }
}

/// Volume culling composes with streaming: the culled streamed file equals
/// the culled accumulated merge and is smaller than the unculled one.
#[test]
fn culled_streaming_matches_and_shrinks_the_file() {
    let (particles, side) = corpus();
    let full = TessParams::default();
    let culled = TessParams::default().with_min_volume(0.05);
    let (_, _, (_, full_payload, _)) = streamed(
        &particles,
        side,
        DecompScheme::Regular,
        2,
        &full,
        "cull-full.tess",
    );
    let (reference, _) = accumulated(&particles, side, DecompScheme::Regular, 2, &culled);
    let (blocks, _, (_, culled_payload, _)) = streamed(
        &particles,
        side,
        DecompScheme::Regular,
        2,
        &culled,
        "cull-min.tess",
    );
    assert_same_blocks(&reference, &blocks, "culled@2");
    assert!(
        culled_payload < full_payload,
        "culling must shrink the payload ({culled_payload} vs {full_payload})"
    );
}

/// Memory accounting rides the normal metrics pipeline: a streaming run's
/// merged RunReport carries nonzero allocator and RSS counters, identical
/// on every rank, and `normalized()` strips them for determinism gates.
#[test]
fn streaming_run_report_carries_memory_counters() {
    let (particles, side) = corpus();
    let params = TessParams::default();
    let (dec, asn) = build(&particles, side, DecompScheme::Regular, 4);
    let path = tmpfile("report-mem.tess");
    let path_ref = &path;
    let reports = Runtime::run(4, |world| {
        let local = partition_particles(&particles, &dec, &asn, world.rank());
        tess::tessellate_streaming(world, &dec, &asn, &local, &params, path_ref).unwrap();
        collect_report(world)
    });
    for r in &reports {
        assert_eq!(r, &reports[0], "merged report must be rank-identical");
    }
    let mem = reports[0].memory;
    assert!(mem.alloc_count > 0, "allocation count must be live");
    assert!(mem.alloc_bytes_total > 0);
    assert!(mem.peak_live_bytes >= mem.live_bytes.min(mem.peak_live_bytes));
    if cfg!(target_os = "linux") {
        assert!(mem.peak_rss_kb >= mem.rss_kb && mem.rss_kb > 0);
    }
    let normalized = reports[0].normalized();
    assert_eq!(
        normalized.memory,
        Default::default(),
        "normalized() must strip memory (as non-deterministic as CPU time)"
    );
    let json = reports[0].to_json();
    assert!(json.contains("\"memory\":{\"alloc_count\":"));
}
