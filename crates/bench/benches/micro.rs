//! Criterion microbenchmarks for the hot kernels, including the
//! Clip-vs-Quickhull ablation from DESIGN.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use geometry::polyhedron::ClipResult;
use geometry::predicates::{insphere, orient3d};
use geometry::{convex_hull, Aabb, ClipScratch, ConvexPolyhedron, Plane, Vec3};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn jittered_lattice(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n * n * n)
        .map(|idx| {
            let i = (idx % n) as f64;
            let j = ((idx / n) % n) as f64;
            let k = (idx / (n * n)) as f64;
            Vec3::new(
                i + 0.5 + rng.gen_range(-0.3..0.3),
                j + 0.5 + rng.gen_range(-0.3..0.3),
                k + 0.5 + rng.gen_range(-0.3..0.3),
            )
        })
        .collect()
}

fn bench_predicates(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let pts: Vec<Vec3> = (0..1000)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            )
        })
        .collect();
    c.bench_function("orient3d_filtered", |b| {
        let mut i = 0;
        b.iter(|| {
            let r = orient3d(
                pts[i % 997],
                pts[(i + 1) % 997],
                pts[(i + 2) % 997],
                pts[(i + 3) % 997],
            );
            i += 1;
            black_box(r)
        })
    });
    c.bench_function("insphere_filtered", |b| {
        let mut i = 0;
        b.iter(|| {
            let r = insphere(
                pts[i % 991],
                pts[(i + 1) % 991],
                pts[(i + 2) % 991],
                pts[(i + 3) % 991],
                pts[(i + 4) % 991],
            );
            i += 1;
            black_box(r)
        })
    });
}

fn bench_clipping(c: &mut Criterion) {
    // one Voronoi-cell-like clipping sequence, on the kernel's path: the
    // start box reuses the previous cell's recycled storage, every clip
    // runs through one warm scratch and the faces are built once at the
    // end. Time per real cut is the sample time over the `Clipped` count
    // printed first.
    let site = Vec3::splat(4.5);
    let pts = jittered_lattice(9, 2);
    let planes: Vec<Plane> = pts
        .iter()
        .take(60)
        .filter(|q| q.dist2(site) > 1e-12)
        .filter_map(|&q| Plane::bisector(site, q))
        .collect();
    let mut scratch = ClipScratch::new();
    let sequence = |scratch: &mut ClipScratch| {
        let mut poly = scratch.from_aabb(&Aabb::cube(9.0));
        let cuts = planes
            .iter()
            .filter(|plane| poly.clip_with(plane, Some(1), 1e-9, scratch) == ClipResult::Clipped)
            .count();
        poly.build_faces(scratch);
        (poly, cuts)
    };
    let (poly, cuts) = sequence(&mut scratch);
    eprintln!(
        "cell_clip_sequence: {} clips, {cuts} real cuts",
        planes.len()
    );
    scratch.recycle(poly);
    c.bench_function("cell_clip_sequence", |b| {
        b.iter(|| {
            let (poly, _) = sequence(&mut scratch);
            let volume = poly.volume();
            scratch.recycle(poly);
            black_box(volume)
        })
    });
}

fn bench_hull_ablation(c: &mut Criterion) {
    // the paper's Qhull path (hull of cell vertices) vs the native clip
    // measures of the same cell
    let site = Vec3::splat(4.5);
    let pts = jittered_lattice(9, 3);
    let mut poly = ConvexPolyhedron::from_aabb(&Aabb::cube(9.0));
    for &q in &pts {
        if q.dist2(site) > 1e-12 {
            if let Some(plane) = Plane::bisector(site, q) {
                poly.clip(&plane, Some(1), 1e-9);
            }
        }
    }
    c.bench_function("ablation_volume_clip", |b| {
        b.iter(|| black_box(poly.volume() + poly.surface_area()))
    });
    c.bench_function("ablation_volume_quickhull", |b| {
        b.iter(|| {
            let h = convex_hull(&poly.verts, 1e-9).unwrap();
            black_box(h.volume() + h.surface_area())
        })
    });
}

fn bench_quickhull(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let pts: Vec<Vec3> = (0..200)
        .map(|_| {
            Vec3::new(
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            )
        })
        .collect();
    c.bench_function("quickhull_200pts", |b| {
        b.iter(|| black_box(convex_hull(&pts, 1e-9).unwrap().faces.len()))
    });
}

fn bench_fft(c: &mut Criterion) {
    use fft3d::{fft3_forward, Complex, Grid3};
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut grid = Grid3::new([32, 32, 32], Complex::ZERO);
    for v in grid.data_mut() {
        *v = Complex::new(rng.gen_range(-1.0..1.0), 0.0);
    }
    c.bench_function("fft3d_32cubed", |b| {
        b.iter(|| {
            let mut g = grid.clone();
            fft3_forward(&mut g);
            black_box(g[(1, 1, 1)])
        })
    });
}

fn bench_cic(c: &mut Criterion) {
    use fft3d::Grid3;
    let pts = jittered_lattice(16, 6);
    c.bench_function("cic_deposit_4096", |b| {
        b.iter(|| {
            let mut mass = Grid3::new([16, 16, 16], 0);
            hacc::cic::deposit(&mut mass, pts.iter().copied());
            black_box(mass[(0, 0, 0)])
        })
    });
}

fn bench_delaunay(c: &mut Criterion) {
    let pts = jittered_lattice(6, 7);
    c.bench_function("delaunay_216pts", |b| {
        b.iter(|| {
            let dt = delaunay::Delaunay::new(&pts).unwrap();
            black_box(dt.tetrahedra().len())
        })
    });
}

fn bench_exchange(c: &mut Criterion) {
    use diy::codec::{Decode, Encode};
    // codec throughput for a particle-like payload
    let payload: Vec<(u64, Vec3)> = jittered_lattice(8, 8)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect();
    c.bench_function("codec_roundtrip_512_particles", |b| {
        b.iter(|| {
            let bytes = payload.to_bytes();
            let back = Vec::<(u64, Vec3)>::from_bytes(&bytes).unwrap();
            black_box(back.len())
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let samples: Vec<f64> = (0..100_000).map(|_| rng.gen_range(0.0..2.0)).collect();
    c.bench_function("histogram_100k", |b| {
        b.iter(|| {
            let h = postprocess::Histogram::from_samples(samples.iter().copied(), 0.0, 2.0, 100);
            black_box(h.kurtosis())
        })
    });
}

/// The cell kernel alone, candidate stream included (most of its cost):
/// `compute_cell` over every site of a clustered corpus held as one block
/// with no ghosts, so boundary cells take the region pass as well, through
/// one warm scratch. The same process can time two kernels side by side.
fn bench_candidate_stream(c: &mut Criterion) {
    use tess::cell::{compute_cell, CellContext, CellScratch};
    use tess::grid::CandidateGrid;
    use tess::TessParams;

    let side = 8.0;
    let (ids, pts): (Vec<u64>, Vec<Vec3>) = bench_harness::corpus::clustered(side, 16, 60, 200, 7)
        .into_iter()
        .unzip();
    let region = Aabb::cube(side);
    let grid = CandidateGrid::build(region, &pts, 2.0);
    let ctx = CellContext {
        points: &pts,
        ids: &ids,
        grid: &grid,
        region: &region,
        clip_box: &region,
        canon_extent: Some(side),
        eps: TessParams::default().eps,
    };
    let mut scratch = CellScratch::default();
    c.bench_function("candidate_stream_clustered", |b| {
        b.iter(|| {
            let mut tested = 0;
            for (i, &p) in pts.iter().enumerate() {
                let cell = compute_cell(&ctx, p, i as u32, &mut scratch);
                tested += cell.candidates_tested;
                scratch.recycle(cell.poly);
            }
            black_box(tested)
        })
    });
}

/// Per-answer cost of the resident service's snapshot, with no queue in
/// the way: a 32³ jittered lattice tessellated into 8 periodic blocks, asked
/// the `service_query` mix's shapes (boxes of side 1–4, ½ × ½ × 1 regions).
fn bench_snapshot(c: &mut Criterion) {
    use diy::comm::Runtime;
    use diy::decomposition::{Assignment, Decomposition};
    use std::collections::BTreeMap;
    use tess::{MeshSnapshot, TessParams, TessStats};

    const N: usize = 32;
    const NBLOCKS: usize = 8;
    let side = N as f64;
    let dec = Decomposition::regular(Aabb::cube(side), NBLOCKS, [true; 3]);
    let asn = Assignment::new(NBLOCKS, 2);
    let particles = jittered_lattice(N, 10);
    let rows = Runtime::run(asn.nranks, |world| {
        let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
            .blocks_of_rank(world.rank())
            .map(|g| (g, Vec::new()))
            .collect();
        for (id, &p) in particles.iter().enumerate() {
            if let Some(v) = local.get_mut(&dec.block_of_point(p)) {
                v.push((id as u64, p));
            }
        }
        let r = tess::tessellate(world, &dec, &asn, &local, &TessParams::default());
        (r.blocks, r.stats)
    });
    let mut blocks = BTreeMap::new();
    let mut stats = TessStats::default();
    for (b, s) in rows {
        blocks.extend(b);
        stats = stats.merge(s);
    }
    let snap = MeshSnapshot::build(1, dec, blocks, stats);

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut corner = |e: Vec3| {
        Vec3::new(
            rng.gen_range(0.0..=side - e.x),
            rng.gen_range(0.0..=side - e.y),
            rng.gen_range(0.0..=side - e.z),
        )
    };
    let points: Vec<Vec3> = (0..1024).map(|_| corner(Vec3::ZERO)).collect();
    let boxes: Vec<Aabb> = (0..256)
        .map(|i| {
            let e = Vec3::new(
                1.0 + (i % 4) as f64,
                1.0 + (i % 3) as f64,
                1.0 + (i % 5) as f64 * 0.75,
            );
            let lo = corner(e);
            Aabb::new(lo, lo + e)
        })
        .collect();
    let half = Vec3::new(side / 2.0, side / 2.0, side);
    let regions: Vec<Aabb> = (0..256)
        .map(|_| {
            let lo = corner(half);
            Aabb::new(lo, lo + half)
        })
        .collect();

    let mut scratch = tess::grid::StreamScratch::default();
    let mut i = 0;
    c.bench_function("snapshot_point", |b| {
        b.iter(|| {
            i += 1;
            black_box(snap.lookup_point(points[i % points.len()], &mut scratch))
        })
    });
    c.bench_function("snapshot_box_cells", |b| {
        b.iter(|| {
            i += 1;
            black_box(snap.box_cells(boxes[i % boxes.len()]).len())
        })
    });
    c.bench_function("snapshot_region_summary", |b| {
        b.iter(|| {
            i += 1;
            black_box(snap.region_summary(regions[i % regions.len()]))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_predicates, bench_clipping, bench_hull_ablation, bench_quickhull,
              bench_fft, bench_cic, bench_delaunay, bench_exchange, bench_histogram,
              bench_candidate_stream, bench_snapshot
}
criterion_main!(benches);
