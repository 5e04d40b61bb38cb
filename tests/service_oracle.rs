//! Differential query-oracle and snapshot-consistency suite for the
//! resident mesh service.
//!
//! The service's point lookup searches each block's site grid for the
//! nearest periodic image of a site; the oracle here is the definition it
//! must match: brute-force argmin of exact f64 distance over **every**
//! cell seed × **every** periodic image, ties broken canonically by
//! smallest site id. Box extraction and region summaries must equal, bit for bit, a
//! plain filter over all cells in canonical block/cell order, and region
//! summaries over any partition of the domain must conserve the total
//! volume to 1e-9. All of it must hold bit-for-bit across rank counts
//! 1/2/4 × pool widths 1/2/8.
//!
//! The snapshot-consistency half races queries against an in-flight
//! update: every response must carry a valid epoch and match that epoch's
//! from-scratch oracle mesh exactly — never a mixture of two snapshots.
//!
//! Pool width is process-global state, so tests that reconfigure it
//! serialize through one mutex and restore the previous width on exit.

use std::collections::BTreeMap;
use std::sync::Mutex;

use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, DecompScheme, Decomposition};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::rayon::set_max_parallelism;
use meshing_universe::tess::grid::StreamScratch;
use meshing_universe::tess::{
    self, Answer, CellSummary, GhostSpec, MeshService, MeshSnapshot, PointHit, Query,
    RegionSummary, ServiceConfig, TessParams, Update,
};

const NBLOCKS: usize = 8;

/// Serializes tests that reconfigure the global pool width.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

/// Run `f` with the pool capped at `width`, restoring the previous cap.
fn with_pool_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _guard = POOL_WIDTH.lock().unwrap();
    let prev = set_max_parallelism(width);
    let out = f();
    set_max_parallelism(prev);
    out
}

fn jittered(n: usize, seed: u64, amp: f64) -> Vec<(u64, Vec3)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n * n * n)
        .map(|idx| {
            let (i, j, k) = (idx % n, (idx / n) % n, idx / (n * n));
            let p = Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5)
                + Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                );
            let ng = n as f64;
            (
                idx as u64,
                Vec3::new(p.x.rem_euclid(ng), p.y.rem_euclid(ng), p.z.rem_euclid(ng)),
            )
        })
        .collect()
}

fn params() -> TessParams {
    TessParams {
        ghost: GhostSpec::Auto { factor: 2.5 },
        ..TessParams::default()
    }
}

fn spawn_service(
    particles: &[(u64, Vec3)],
    box_len: f64,
    periodic: [bool; 3],
    nranks: usize,
    nblocks: usize,
) -> MeshService {
    MeshService::spawn(
        Aabb::cube(box_len),
        periodic,
        particles,
        ServiceConfig::new(nranks, nblocks)
            .with_workers(2)
            .with_params(params()),
    )
}

/// Brute-force nearest-seed oracle: exact f64 distance over every cell
/// seed × every periodic image offset in {-1,0,1}³, argmin with ties
/// broken by smallest site id. The distance is computed as
/// `image.dist2(query)` — the same expression (modulo an exact sign flip
/// under squaring) the candidate stream evaluates — so agreement is
/// required bit-for-bit, not just approximately.
fn oracle_point(snap: &MeshSnapshot, p: Vec3) -> Option<PointHit> {
    let q = snap.wrap_query(p);
    let ext = snap.dec.domain.extent();
    let offs = |a: usize| -> &'static [i32] {
        if snap.dec.periodic[a] {
            &[-1, 0, 1]
        } else {
            &[0]
        }
    };
    let mut best: Option<(f64, u64, u64, u32)> = None; // (d2, site, gid, cell idx)
    for (&gid, b) in &snap.blocks {
        for (ci, cell) in b.cells.iter().enumerate() {
            let site = b.site_of(cell);
            let id = b.site_id_of(cell);
            for &kx in offs(0) {
                for &ky in offs(1) {
                    for &kz in offs(2) {
                        let img = site
                            + Vec3::new(kx as f64 * ext.x, ky as f64 * ext.y, kz as f64 * ext.z);
                        let d2 = img.dist2(q);
                        let better = match &best {
                            None => true,
                            Some((bd2, bid, ..)) => match d2.total_cmp(bd2) {
                                std::cmp::Ordering::Less => true,
                                std::cmp::Ordering::Equal => id < *bid,
                                std::cmp::Ordering::Greater => false,
                            },
                        };
                        if better {
                            best = Some((d2, id, gid, ci as u32));
                        }
                    }
                }
            }
        }
    }
    best.map(|(d2, site_id, gid, ci)| {
        let cell = snap.blocks[&gid].cells.cell(ci as usize);
        PointHit {
            site_id,
            gid,
            dist2: d2,
            volume: cell.volume,
            area: cell.area,
            faces: cell.faces.len() as u32,
            complete: cell.complete,
        }
    })
}

fn assert_hit_bits_eq(got: &PointHit, want: &PointHit, ctx: &str) {
    assert_eq!(got.site_id, want.site_id, "{ctx}: site id");
    assert_eq!(got.gid, want.gid, "{ctx}: gid");
    assert_eq!(
        got.dist2.to_bits(),
        want.dist2.to_bits(),
        "{ctx}: dist2 bits ({} vs {})",
        got.dist2,
        want.dist2
    );
    assert_eq!(got.volume.to_bits(), want.volume.to_bits(), "{ctx}: volume");
    assert_eq!(got.area.to_bits(), want.area.to_bits(), "{ctx}: area");
    assert_eq!(
        (got.faces, got.complete),
        (want.faces, want.complete),
        "{ctx}"
    );
}

/// Deterministic query mix: interior points, points outside the domain
/// (exercising the wrap path), and points pinned to block/lattice planes.
fn query_points(box_len: f64, count: usize, seed: u64) -> Vec<Vec3> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(count);
    for i in 0..count {
        let p = Vec3::new(
            rng.gen_range(0.0..box_len),
            rng.gen_range(0.0..box_len),
            rng.gen_range(0.0..box_len),
        );
        pts.push(match i % 4 {
            0 => p,
            1 => p + Vec3::new(box_len, 0.0, -box_len), // outside: wraps
            2 => Vec3::new((i % 5) as f64 * box_len / 4.0, p.y, p.z), // on planes
            _ => Vec3::new(0.0, p.y, box_len),          // on the seam / outer face
        });
    }
    pts
}

/// Cell fingerprint: (volume bits, area bits, face neighbors).
type CellBits = (u64, u64, Vec<u64>);

fn mesh_bits(blocks: &BTreeMap<u64, tess::MeshBlock>) -> BTreeMap<u64, CellBits> {
    let mut mesh = BTreeMap::new();
    for b in blocks.values() {
        for c in &b.cells {
            let bits = (
                c.volume.to_bits(),
                c.area.to_bits(),
                c.faces.iter().map(|f| f.neighbor).collect(),
            );
            assert!(mesh.insert(b.site_id_of(c), bits).is_none());
        }
    }
    mesh
}

/// The tentpole differential: batched point lookups through the service
/// match the brute-force oracle bit-for-bit, and every configuration of an
/// input publishes the identical mesh. The 8-block periodic cube runs at
/// 1/2/4 ranks × pool widths 1/2/8. The other inputs are where a search
/// that starts in the query's own block must look further: one and two
/// blocks (one block spans a whole periodic axis, so the nearest site can
/// be an image of a site in the same block), a domain periodic in x and y
/// only (queries beyond the open z faces stay there), and particles
/// confined to one octant, so the block owning most queries holds no cell.
#[test]
fn point_lookups_match_oracle_across_ranks_pools_kernels() {
    let particles = jittered(4, 11, 0.3);
    let octant: Vec<(u64, Vec3)> = jittered(4, 13, 0.3)
        .into_iter()
        .map(|(id, p)| (id, p * 0.5))
        .collect();
    let few: (&[usize], &[usize]) = (&[1, 2], &[1, 8]);
    // (particles, periodicity, blocks, (ranks, pool widths), queries):
    // a block takes at most one rank
    let cases = [
        (
            &particles,
            [true; 3],
            NBLOCKS,
            (&[1, 2, 4][..], &[1, 2, 8][..]),
            24,
        ),
        (&particles, [true; 3], 1, (&[1][..], &[1, 8][..]), 64),
        (&particles, [true; 3], 2, few, 64),
        (&particles, [true, true, false], 2, few, 64),
        (&particles, [true, true, false], NBLOCKS, few, 64),
        (&octant, [true; 3], NBLOCKS, few, 64),
        (&octant, [false; 3], NBLOCKS, few, 64),
    ];
    for (particles, periodic, nblocks, (ranks, widths), nqueries) in cases {
        let queries = query_points(4.0, nqueries, 99);
        let mut reference_mesh: Option<BTreeMap<u64, CellBits>> = None;
        for &nranks in ranks {
            for &width in widths {
                let ctx = format!("{periodic:?} blocks={nblocks} ranks={nranks} pool={width}");
                with_pool_width(width, || {
                    let svc = spawn_service(particles, 4.0, periodic, nranks, nblocks);
                    let snap = svc.snapshot();
                    assert_eq!(snap.epoch, 1, "{ctx}");
                    let bits = mesh_bits(&snap.blocks);
                    match &reference_mesh {
                        None => reference_mesh = Some(bits),
                        Some(r) => assert_eq!(&bits, r, "{ctx}: mesh differs"),
                    }
                    // one batched submission wave, then compare each
                    let pending: Vec<_> = queries
                        .iter()
                        .map(|&p| svc.submit(Query::Point(p)).expect("open"))
                        .collect();
                    for (p, pend) in queries.iter().zip(pending) {
                        let r = pend.wait();
                        assert_eq!(r.epoch, 1, "{ctx}");
                        let Answer::Point(got) = r.answer else {
                            panic!("{ctx}: point query returned non-point answer")
                        };
                        let want = oracle_point(&snap, *p);
                        match (&got, &want) {
                            (Some(g), Some(w)) => {
                                assert_hit_bits_eq(g, w, &format!("{ctx} q={p:?}"))
                            }
                            _ => panic!("{ctx}: hit mismatch {got:?} vs {want:?}"),
                        }
                    }
                });
            }
        }
    }
}

/// Box extraction equals a plain filter over all cells, octant region
/// summaries partition the domain (volumes conserve to 1e-9, counts and
/// site sets partition exactly).
#[test]
fn box_extraction_and_region_partition_match_oracle() {
    let particles = jittered(4, 23, 0.3);
    let svc = spawn_service(&particles, 4.0, [true; 3], 2, NBLOCKS);
    let snap = svc.snapshot();

    // Differential: random boxes vs an independent filter over all cells.
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    for _ in 0..16 {
        let lo = Vec3::new(
            rng.gen_range(-0.5..3.5),
            rng.gen_range(-0.5..3.5),
            rng.gen_range(-0.5..3.5),
        );
        let ext = rng.gen_range(0.25..3.0);
        let query = Aabb::new(lo, lo + Vec3::splat(ext));
        let r = svc.query(Query::BoxCells(query)).expect("open");
        let Answer::BoxCells(got) = r.answer else {
            panic!("box query returned non-box answer")
        };
        let mut want: Vec<(u64, u64, u64)> = Vec::new(); // (site, vol bits, area bits)
        for (&gid, b) in &snap.blocks {
            let _ = gid;
            for c in &b.cells {
                if query.contains(b.site_of(c)) {
                    want.push((b.site_id_of(c), c.volume.to_bits(), c.area.to_bits()));
                }
            }
        }
        want.sort();
        let got_key: Vec<(u64, u64, u64)> = got
            .iter()
            .map(|c| (c.site_id, c.volume.to_bits(), c.area.to_bits()))
            .collect();
        assert_eq!(got_key, want, "box {query:?}");
    }

    // Conservation: the eight octants partition the domain exactly.
    let mut vol_sum = 0.0;
    let mut cell_sum = 0u64;
    let mut sites_seen = Vec::new();
    for oct in 0..8 {
        let lo = Vec3::new(
            if oct & 1 == 0 { 0.0 } else { 2.0 },
            if oct & 2 == 0 { 0.0 } else { 2.0 },
            if oct & 4 == 0 { 0.0 } else { 2.0 },
        );
        let b = Aabb::new(lo, lo + Vec3::splat(2.0));
        let r = svc.query(Query::Region(b)).expect("open");
        let Answer::Region(s) = r.answer else {
            panic!("region query returned non-region answer")
        };
        vol_sum += s.volume;
        cell_sum += s.cells;
        let r = svc.query(Query::BoxCells(b)).expect("open");
        let Answer::BoxCells(cells) = r.answer else {
            panic!()
        };
        assert_eq!(cells.len() as u64, s.cells, "octant {oct}");
        sites_seen.extend(cells.iter().map(|c| c.site_id));
    }
    assert_eq!(cell_sum, snap.total_cells);
    assert!(
        (vol_sum - snap.total_volume).abs() <= 1e-9 * snap.total_volume,
        "octant volumes {vol_sum} vs total {}",
        snap.total_volume
    );
    // Half-open boxes ⇒ every site in exactly one octant.
    sites_seen.sort_unstable();
    let n = sites_seen.len();
    sites_seen.dedup();
    assert_eq!(sites_seen.len(), n, "a site landed in two octants");
    assert_eq!(n as u64, snap.total_cells);
}

/// The definition box and region answers must match: a filter over every
/// cell in canonical block/cell order, rows sorted (stably) by site id and
/// sums accumulated in that same order.
fn scan_box_and_region(snap: &MeshSnapshot, q: Aabb) -> (Vec<CellSummary>, RegionSummary) {
    let mut rows = Vec::new();
    let (mut volume, mut area) = (0.0, 0.0);
    for (&gid, b) in &snap.blocks {
        for c in &b.cells {
            if q.contains(b.site_of(c)) {
                rows.push(CellSummary {
                    site_id: b.site_id_of(c),
                    gid,
                    volume: c.volume,
                    area: c.area,
                    faces: c.faces.len() as u32,
                    complete: c.complete,
                });
                volume += c.volume;
                area += c.area;
            }
        }
    }
    rows.sort_by_key(|c| c.site_id);
    let e = q.extent();
    let box_vol = e.x * e.y * e.z;
    let cells = rows.len() as u64;
    let density = if box_vol > 0.0 {
        cells as f64 / box_vol
    } else {
        0.0
    };
    let sum = RegionSummary {
        cells,
        volume,
        area,
        density,
    };
    (rows, sum)
}

type RowBits = (u64, u64, u64, u64, u32, bool);

fn row_bits(rows: &[CellSummary]) -> Vec<RowBits> {
    rows.iter()
        .map(|c| {
            let (v, a) = (c.volume.to_bits(), c.area.to_bits());
            (c.site_id, c.gid, v, a, c.faces, c.complete)
        })
        .collect()
}

fn region_bits(s: &RegionSummary) -> (u64, u64, u64, u64) {
    let (v, a, d) = (s.volume.to_bits(), s.area.to_bits(), s.density.to_bits());
    (s.cells, v, a, d)
}

/// Query boxes that probe the index's edges: random boxes reaching out of
/// the domain, zero-extent boxes, boxes whose faces sit exactly on site
/// coordinates or on block walls (the half-open edges), and the
/// benchmark's quarter-domain regions (½ × ½ × 1 of the domain).
fn edge_boxes(snap: &MeshSnapshot, count: usize, seed: u64) -> Vec<Aabb> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let len = snap.dec.domain.extent().x;
    let sites: Vec<Vec3> = snap
        .blocks
        .values()
        .flat_map(|b| b.cells.iter().map(|c| b.site_of(c)))
        .collect();
    let walls: Vec<Aabb> = snap.blocks.values().map(|b| b.bounds).collect();
    let site = |rng: &mut rand_chacha::ChaCha8Rng| sites[rng.gen_range(0..sites.len())];
    (0..count)
        .map(|i| match i % 5 {
            0 => {
                let lo = Vec3::new(
                    rng.gen_range(-0.25 * len..len),
                    rng.gen_range(-0.25 * len..len),
                    rng.gen_range(-0.25 * len..len),
                );
                let e = Vec3::new(
                    rng.gen_range(0.0..0.6 * len),
                    rng.gen_range(0.0..0.6 * len),
                    rng.gen_range(0.0..0.6 * len),
                );
                Aabb::new(lo, lo + e)
            }
            1 => {
                let (a, b) = (site(&mut rng), site(&mut rng));
                let mut hi = a.max(b);
                let axis = rng.gen_range(0..4);
                if axis < 3 {
                    hi[axis] = a.min(b)[axis];
                } else {
                    hi = a.min(b);
                }
                Aabb::new(a.min(b), hi)
            }
            2 => {
                let (a, b) = (site(&mut rng), site(&mut rng));
                Aabb::new(a.min(b), a.max(b))
            }
            3 => {
                let w = walls[rng.gen_range(0..walls.len())];
                let v = walls[rng.gen_range(0..walls.len())];
                match rng.gen_range(0..3) {
                    0 => w,
                    1 => Aabb::new(w.min, w.max.max(v.max)),
                    _ => {
                        let s = site(&mut rng);
                        Aabb::new(w.min.min(s), w.min.max(s))
                    }
                }
            }
            _ => {
                let lo = Vec3::new(
                    rng.gen_range(0.0..0.5 * len),
                    rng.gen_range(0.0..0.5 * len),
                    0.0,
                );
                Aabb::new(lo, lo + Vec3::new(0.5 * len, 0.5 * len, len))
            }
        })
        .collect()
}

/// Box and region answers through the service equal the full filter to
/// the bit — rows, counts, and the bits of every sum and density — on
/// periodic and non-periodic domains at 1, 2 and 4 ranks.
#[test]
fn box_and_region_answers_match_full_scan_bits() {
    let particles = jittered(10, 41, 0.45);
    for periodic in [true, false] {
        for nranks in [1usize, 2, 4] {
            let ctx = format!("periodic={periodic} ranks={nranks}");
            let svc = spawn_service(&particles, 10.0, [periodic; 3], nranks, NBLOCKS);
            let snap = svc.snapshot();
            let boxes = edge_boxes(&snap, 1000, 17 + nranks as u64);
            let pending: Vec<_> = boxes
                .iter()
                .flat_map(|&b| [Query::BoxCells(b), Query::Region(b)])
                .map(|q| svc.submit(q).expect("open"))
                .collect();
            let mut matched = 0u64;
            for (i, pend) in pending.into_iter().enumerate() {
                let q = boxes[i / 2];
                let (rows, sum) = scan_box_and_region(&snap, q);
                match pend.wait().answer {
                    Answer::BoxCells(got) => {
                        assert_eq!(row_bits(&got), row_bits(&rows), "{ctx}: box {q:?}");
                        matched += got.len() as u64;
                    }
                    Answer::Region(got) => {
                        assert_eq!(region_bits(&got), region_bits(&sum), "{ctx}: region {q:?}")
                    }
                    Answer::Point(_) => panic!("{ctx}: point answer to a box query"),
                }
            }
            assert!(matched > 0, "{ctx}: no box matched a cell");
        }
    }
}

/// Exact f64 ties resolve to the smallest site id, with the tie distance
/// reproduced exactly: face-plane queries on an unjittered lattice tie
/// two (or four) sites, seam queries tie a primary site against a
/// periodic image, and the corner ties all eight images.
#[test]
fn exact_ties_break_to_smallest_site_id() {
    let n = 4usize;
    // Unjittered lattice: sites at (i+0.5, j+0.5, k+0.5), id = i + 4j + 16k.
    let particles: Vec<(u64, Vec3)> = (0..n * n * n)
        .map(|idx| {
            let (i, j, k) = (idx % n, (idx / n) % n, idx / (n * n));
            (
                idx as u64,
                Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5),
            )
        })
        .collect();
    let svc = spawn_service(&particles, 4.0, [true; 3], 2, NBLOCKS);
    let snap = svc.snapshot();

    // (query, winner site id, exact tie distance²)
    let cases = [
        // face plane x=1.0: ties sites 0 (x=0.5) and 1 (x=1.5)
        (Vec3::new(1.0, 0.5, 0.5), 0u64, 0.25f64),
        // interior face plane: ties sites 1 and 2
        (Vec3::new(2.0, 0.5, 0.5), 1, 0.25),
        // periodic seam x=0.0: site 0 at 0.5 ties image of site 3 at -0.5
        (Vec3::new(0.0, 0.5, 0.5), 0, 0.25),
        // edge at x=y=2.0: four-way tie between sites 5, 6, 9, 10
        (Vec3::new(2.0, 2.0, 0.5), 5, 0.5),
        // domain corner: eight-way periodic tie, site 0 wins
        (Vec3::new(0.0, 0.0, 0.0), 0, 0.75),
        // outside the domain, wraps onto the same corner tie
        (Vec3::new(4.0, 4.0, 8.0), 0, 0.75),
    ];
    for (q, want_site, want_d2) in cases {
        let r = svc.query(Query::Point(q)).expect("open");
        let Answer::Point(Some(hit)) = r.answer else {
            panic!("no hit at {q:?}")
        };
        assert_eq!(hit.site_id, want_site, "tie at {q:?} broke non-canonically");
        assert_eq!(
            hit.dist2.to_bits(),
            want_d2.to_bits(),
            "tie distance at {q:?}: {} vs {want_d2}",
            hit.dist2
        );
        let want = oracle_point(&snap, q).unwrap();
        assert_hit_bits_eq(&hit, &want, &format!("tie {q:?}"));
    }
}

fn partition(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    asn: &Assignment,
    rank: usize,
) -> BTreeMap<u64, Vec<(u64, Vec3)>> {
    let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> =
        asn.blocks_of_rank(rank).map(|g| (g, Vec::new())).collect();
    for &(id, p) in particles {
        let gid = dec.block_of_point(p);
        if let Some(v) = local.get_mut(&gid) {
            v.push((id, p));
        }
    }
    local
}

/// From-scratch oracle snapshot for one particle set, built outside the
/// service on an independent runtime.
fn oracle_snapshot(epoch: u64, particles: &[(u64, Vec3)], box_len: f64) -> MeshSnapshot {
    // Same scheme as the service under test (TESS_DECOMP): the oracle
    // must recompute the exact mesh the service published.
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let dec = DecompScheme::from_env().build(Aabb::cube(box_len), NBLOCKS, [true; 3], &positions);
    let dec_ref = &dec;
    let rows = Runtime::run(2, move |world| {
        let asn = Assignment::new(NBLOCKS, world.nranks());
        let local = partition(particles, dec_ref, &asn, world.rank());
        let r = tess::tessellate(world, dec_ref, &asn, &local, &params());
        (r.blocks, r.stats)
    });
    let mut blocks = BTreeMap::new();
    let mut stats = tess::TessStats::default();
    for (bs, s) in rows {
        blocks.extend(bs);
        stats = stats.merge(s);
    }
    MeshSnapshot::build(epoch, dec, blocks, stats)
}

/// One raced query/update round against a freshly spawned service;
/// `oracles` are the from-scratch epoch-1/epoch-2 meshes.
fn race_one_config(
    before: &[(u64, Vec3)],
    upserts: &[(u64, Vec3)],
    oracles: &[MeshSnapshot; 2],
    nranks: usize,
    ctx: &str,
) {
    let svc = spawn_service(before, 4.0, [true; 3], nranks, NBLOCKS);
    let queries = query_points(4.0, 40, 5);
    let mut observed: Vec<(Query, tess::Response)> = Vec::new();
    std::thread::scope(|scope| {
        let svc = &svc;
        let mut readers = Vec::new();
        for t in 0..3usize {
            let queries = &queries;
            readers.push(scope.spawn(move || {
                let mut out = Vec::new();
                for (i, &p) in queries.iter().enumerate() {
                    let q = match (t + i) % 5 {
                        0 => Query::BoxCells(Aabb::new(p - Vec3::splat(0.7), p)),
                        1 => Query::Region(Aabb::new(
                            Vec3::new(p.x.min(0.0), p.y.min(0.0), p.z.min(0.0)),
                            Vec3::new(p.x.max(0.0), p.y.max(0.0), p.z.max(0.0)),
                        )),
                        _ => Query::Point(p),
                    };
                    let r = svc.query(q.clone()).expect("open");
                    out.push((q, r));
                }
                out
            }));
        }
        let rep = svc.update(Update::Delta {
            upserts: upserts.to_vec(),
            removes: Vec::new(),
        });
        assert_eq!(rep.epoch, 2);
        for h in readers {
            observed.extend(h.join().expect("reader"));
        }
    });

    // The service's own published mesh must equal the post-update oracle.
    assert_eq!(
        mesh_bits(&svc.snapshot().blocks),
        mesh_bits(&oracles[1].blocks),
        "{ctx}: post-update service mesh differs from oracle"
    );

    let mut scratch = StreamScratch::default();
    let mut per_epoch = [0usize; 2];
    for (q, r) in &observed {
        assert!(r.epoch == 1 || r.epoch == 2, "invalid epoch {}", r.epoch);
        let oracle = &oracles[(r.epoch - 1) as usize];
        per_epoch[(r.epoch - 1) as usize] += 1;
        let want = oracle.answer(q, &mut scratch);
        assert_eq!(
            r.answer, want,
            "{ctx}: epoch {} answer diverged for {q:?}",
            r.epoch
        );
    }
    assert_eq!(per_epoch[0] + per_epoch[1], observed.len());
    // Exactly-once accounting over the raced run.
    let stats = svc.shutdown();
    assert_eq!(stats.enqueued, stats.answered);
    assert_eq!(stats.rejected, 0);
}

/// Snapshot consistency: queries raced against an in-flight update must
/// match either the pre-update or the post-update oracle mesh exactly —
/// identified by the response epoch — never a blend of the two, across
/// 1/2/4 ranks × pool widths 1/2/8.
#[test]
fn raced_queries_match_exactly_one_epoch_oracle() {
    let before = jittered(4, 31, 0.3);
    // The delta moves every fourth particle.
    let upserts: Vec<(u64, Vec3)> = before
        .iter()
        .filter(|(id, _)| id % 4 == 0)
        .map(|&(id, p)| {
            let shift = 0.11 * ((id % 7) as f64 - 3.0) / 7.0;
            (
                id,
                Vec3::new(
                    (p.x + shift).rem_euclid(4.0),
                    (p.y - shift).rem_euclid(4.0),
                    (p.z + 2.0 * shift).rem_euclid(4.0),
                ),
            )
        })
        .collect();
    let mut after = before.clone();
    for &(id, p) in &upserts {
        after[id as usize] = (id, p);
    }
    // The oracle meshes depend only on the particle set (mesh bits are
    // rank/pool invariant), so build them once.
    let oracles = [
        oracle_snapshot(1, &before, 4.0),
        oracle_snapshot(2, &after, 4.0),
    ];
    for &nranks in &[1usize, 2, 4] {
        for &width in &[1usize, 2, 8] {
            let ctx = format!("ranks={nranks} pool={width}");
            with_pool_width(width, || {
                race_one_config(&before, &upserts, &oracles, nranks, &ctx)
            });
        }
    }
}
