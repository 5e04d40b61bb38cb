//! Memory and output-size budgets of the bounded-memory streaming path as
//! hard gates.
//!
//! One clustered workload — 8 ranks owning 8 blocks each, so holding the
//! merged mesh costs something — runs with volume culling twice: streamed
//! (`tessellate_streaming`: each block is written and dropped the moment
//! it is final) and accumulated (`tessellate` + `write_tessellation`). The
//! two files must hold the same blocks, and streaming must keep the
//! allocator peak well below accumulating. The culled payload per particle
//! must stay within budget at a light and at a tight threshold.
//!
//! The `diy::mem` counting allocator is process-global, so this file holds
//! exactly one test: a second test running on another thread would count
//! into the same peak.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bench_harness::corpus::ClusterSpec;
use bench_harness::partition_particles;
use meshing_universe::diy::codec::Encode;
use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, Decomposition};
use meshing_universe::diy::mem;
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{self, TessParams};

const NBLOCKS: usize = 64;
const NRANKS: usize = 8;

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("memory-budget-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// One arm of the A/B: allocator peak over the run (bytes above the live
/// gauge at its start) and, for the streaming arm, the payload bytes the
/// writer reports.
struct Arm {
    peak_bytes: u64,
    payload_bytes: u64,
}

fn run(
    particles: &[(u64, Vec3)],
    side: f64,
    params: &TessParams,
    path: &Path,
    stream: bool,
) -> Arm {
    let dec = Decomposition::regular(Aabb::cube(side), NBLOCKS, [true; 3]);
    let asn = Assignment::new(NBLOCKS, NRANKS);
    mem::reset_peak();
    let base = mem::stats().live_bytes;
    let payloads = Runtime::run(NRANKS, |world| {
        let local = partition_particles(particles, &dec, &asn, world.rank());
        if stream {
            tess::tessellate_streaming(world, &dec, &asn, &local, params, path)
                .expect("streaming pass")
                .payload_bytes
        } else {
            let r = tess::tessellate(world, &dec, &asn, &local, params);
            tess::io::write_tessellation(world, path, &r.blocks).expect("write");
            0
        }
    });
    Arm {
        peak_bytes: mem::stats().peak_live_bytes.saturating_sub(base),
        payload_bytes: payloads[0],
    }
}

/// The file's blocks: gid → encoded block bytes.
fn read_blocks(path: &Path) -> BTreeMap<u64, Vec<u8>> {
    tess::io::read_tessellation(path)
        .expect("read back")
        .into_iter()
        .map(|b| (b.gid, b.to_bytes()))
        .collect()
}

#[test]
fn streaming_stays_within_its_memory_and_output_budgets() {
    let spec = ClusterSpec::corner_heavy(16.0, 48, 150, 42);
    let particles = spec.generate();
    let n = particles.len() as f64;

    // Light cull: drops the dense clump cores and keeps the mesh big
    // enough that holding all of it costs memory.
    let light = TessParams::default().with_min_volume(0.01);
    let (stream_path, accum_path) = (tmpfile("stream.tess"), tmpfile("accum.tess"));
    let stream = run(&particles, spec.side, &light, &stream_path, true);
    let accum = run(&particles, spec.side, &light, &accum_path, false);
    let blocks = read_blocks(&stream_path);
    assert_eq!(blocks.len(), NBLOCKS, "streamed file must hold every block");
    assert!(
        blocks == read_blocks(&accum_path),
        "streamed file differs from the accumulated one"
    );

    // Measured 0.71 in a debug build and 0.62 in release.
    let ratio = stream.peak_bytes as f64 / accum.peak_bytes as f64;
    assert!(
        ratio <= 0.8,
        "streaming allocator peak {} is {ratio:.2}x the accumulated {} (budget 0.8)",
        stream.peak_bytes,
        accum.peak_bytes
    );

    // Payload budgets: measured + 5 %. The bytes are a function of the
    // mesh bits, so these are exact counters, not timings.
    let light_bpp = stream.payload_bytes as f64 / n;
    assert!(
        light_bpp <= 693.1 * 1.05,
        "light cull: {light_bpp:.1} B/particle (measured 693.1)"
    );
    // Tight cull at about 2.75x the mean cell volume: only the large void
    // and filament cells survive — the paper's regime.
    let tight = TessParams::default().with_min_volume(0.5);
    let tight_bpp =
        run(&particles, spec.side, &tight, &tmpfile("tight.tess"), true).payload_bytes as f64 / n;
    assert!(
        tight_bpp <= 53.6 * 1.05,
        "tight cull: {tight_bpp:.1} B/particle (measured 53.6)"
    );
}
