//! Multi-epoch oracle for the resident service's incremental updates.
//!
//! An update copies every cell the previous epoch proves unchanged and
//! runs the kernel on the rest. This suite drives one scripted sequence of
//! updates — a local jitter, a move across a block wall, an inserted id, a
//! removed one, a fill of the sparsest block (which changes the `Auto`
//! ghost radius), an all-identical upsert, a whole `Update::Snapshot`, and
//! a non-finite position (reuse off for that epoch) — and after every
//! epoch compares each published block's encoded bytes with a from-scratch
//! `tessellate` of the same particle set. It covers 1/2/4 resident ranks ×
//! pool widths 1/8, a jittered set and an exact lattice (every shell a
//! distance tie), both `Auto` and adaptive ghosts, and a domain without
//! periodic images.
//!
//! Pool width is process-global state, so the configurations serialize
//! through one mutex and restore the previous width on exit.

use std::collections::BTreeMap;
use std::sync::Mutex;

use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, Decomposition};
use meshing_universe::diy::Encode;
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::rayon::set_max_parallelism;
use meshing_universe::tess::{
    self, GhostSpec, MeshService, ServiceConfig, TessParams, Update, UpdateReport,
};

const NBLOCKS: usize = 8;
/// Particles per axis of the unit-spaced periodic box.
const N: usize = 6;

static POOL_WIDTH: Mutex<()> = Mutex::new(());

fn with_pool_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _guard = POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    let prev = set_max_parallelism(width);
    let out = f();
    set_max_parallelism(prev);
    out
}

fn domain() -> Aabb {
    Aabb::cube(N as f64)
}

fn wrap(p: Vec3) -> Vec3 {
    let l = N as f64;
    Vec3::new(p.x.rem_euclid(l), p.y.rem_euclid(l), p.z.rem_euclid(l))
}

/// The unit lattice of the box, each point moved by up to `amp` per axis.
fn lattice(seed: u64, amp: f64) -> Vec<(u64, Vec3)> {
    use meshing_universe::rand::{Rng, SeedableRng};
    let mut rng = meshing_universe::rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..N * N * N)
        .map(|idx| {
            let (i, j, k) = (idx % N, (idx / N) % N, idx / (N * N));
            let mut p = Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5);
            if amp > 0.0 {
                p += Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                );
            }
            (idx as u64, wrap(p))
        })
        .collect()
}

/// One scripted update, with the particle set it leaves behind and whether
/// it moves only a neighbourhood (so some cells must be carried).
struct Step {
    name: &'static str,
    update: Update,
    after: BTreeMap<u64, Vec3>,
    local: bool,
}

/// The scripted sequence, applied to `start` on decomposition `dec`.
fn script(start: &[(u64, Vec3)], dec: &Decomposition) -> Vec<Step> {
    let mut set: BTreeMap<u64, Vec3> = start.iter().copied().collect();
    let mut steps = Vec::new();
    let mut push = |name, update: Update, set: &mut BTreeMap<u64, Vec3>, local| {
        match &update {
            Update::Delta { upserts, removes } => {
                set.extend(upserts.iter().copied());
                for id in removes {
                    set.remove(id);
                }
            }
            Update::Snapshot(all) => *set = all.iter().copied().collect(),
        }
        steps.push(Step {
            name,
            update,
            after: set.clone(),
            local,
        });
    };
    let delta = |upserts, removes| Update::Delta { upserts, removes };

    // Jitter every particle within 1.2 of one point.
    let centre = Vec3::new(1.7, 4.2, 2.9);
    let jitter: Vec<(u64, Vec3)> = set
        .iter()
        .filter(|(_, p)| domain().periodic_dist(centre, **p) <= 1.2)
        .map(|(&id, &p)| (id, wrap(p + Vec3::new(0.07, -0.05, 0.03))))
        .collect();
    assert!(!jitter.is_empty());
    push("local jitter", delta(jitter, vec![]), &mut set, true);

    // Mirror the particle nearest an x wall of its block to the far side
    // of that wall.
    let to_wall = |p: Vec3| {
        let b = dec.block_bounds(dec.block_of_point(p));
        let (lo, hi) = (p.x - b.min.x, b.max.x - p.x);
        if lo < hi {
            (lo, b.min.x - lo)
        } else {
            (hi, b.max.x + hi)
        }
    };
    let (id, p) = set
        .iter()
        .map(|(&id, &p)| (id, p))
        .min_by(|a, b| to_wall(a.1).0.total_cmp(&to_wall(b.1).0))
        .unwrap();
    let across = wrap(Vec3::new(to_wall(p).1, p.y, p.z));
    assert_ne!(dec.block_of_point(p), dec.block_of_point(across));
    push(
        "move across a wall",
        delta(vec![(id, across)], vec![]),
        &mut set,
        true,
    );

    push(
        "insert a new id",
        delta(vec![(10_000, Vec3::new(4.61, 1.13, 5.27))], vec![]),
        &mut set,
        true,
    );
    // Remove six ids from one block: it becomes the sparsest, which grows
    // the `Auto` radius.
    let gone: Vec<u64> = set
        .iter()
        .filter(|(_, p)| dec.block_of_point(**p) == dec.block_of_point(set[&17]))
        .map(|(&id, _)| id)
        .take(6)
        .collect();
    push("remove ids", delta(vec![], gone), &mut set, true);

    // Fill the sparsest block (largest volume per particle, which sets the
    // `Auto` radius) with new ids until it is the densest.
    let mut count = [0usize; NBLOCKS];
    for p in set.values() {
        count[dec.block_of_point(*p) as usize] += 1;
    }
    let spacing = |g: usize| dec.block_bounds(g as u64).volume() / count[g] as f64;
    let sparse = (0..NBLOCKS)
        .max_by(|&a, &b| spacing(a).total_cmp(&spacing(b)))
        .unwrap();
    let b = dec.block_bounds(sparse as u64);
    let fill: Vec<(u64, Vec3)> = (0..12u64)
        .map(|k| {
            let f =
                |i: u64, a: f64, b: f64| a + (b - a) * (0.1 + 0.8 * ((k * i) % 13) as f64 / 13.0);
            (
                20_000 + k,
                Vec3::new(
                    f(3, b.min.x, b.max.x),
                    f(5, b.min.y, b.max.y),
                    f(7, b.min.z, b.max.z),
                ),
            )
        })
        .collect();
    push(
        "fill the sparsest block",
        delta(fill, vec![]),
        &mut set,
        false,
    );

    let same: Vec<(u64, Vec3)> = set.iter().map(|(&id, &p)| (id, p)).collect();
    push("all-identical upsert", delta(same, vec![]), &mut set, true);

    // A whole snapshot: two particles jittered, one dropped, one added.
    let mut snap: Vec<(u64, Vec3)> = set
        .iter()
        .filter(|(&id, _)| id != 40)
        .map(|(&id, &p)| match id {
            100 | 101 => (id, wrap(p + Vec3::new(-0.04, 0.06, 0.02))),
            _ => (id, p),
        })
        .collect();
    snap.push((30_000, Vec3::new(0.37, 5.71, 3.33)));
    push("snapshot", Update::Snapshot(snap), &mut set, true);

    push(
        "non-finite position",
        delta(vec![(55, Vec3::new(f64::NAN, 1.0, 1.0))], vec![]),
        &mut set,
        false,
    );
    push(
        "remove the non-finite id",
        delta(vec![], vec![55]),
        &mut set,
        false,
    );
    steps
}

/// Every block of a from-scratch tessellation of `set`, encoded.
fn scratch_bytes(
    set: &BTreeMap<u64, Vec3>,
    dec: &Decomposition,
    params: &TessParams,
) -> BTreeMap<u64, Vec<u8>> {
    let rows = Runtime::run(2, |world| {
        let asn = Assignment::new(NBLOCKS, world.nranks());
        let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
            .blocks_of_rank(world.rank())
            .map(|g| (g, Vec::new()))
            .collect();
        for (&id, &p) in set {
            if let Some(v) = local.get_mut(&dec.block_of_point(p)) {
                v.push((id, p));
            }
        }
        let r = tess::tessellate(world, dec, &asn, &local, params);
        r.blocks
            .into_iter()
            .map(|(g, b)| (g, b.to_bytes()))
            .collect::<Vec<_>>()
    });
    rows.into_iter().flatten().collect()
}

fn published_bytes(svc: &MeshService) -> BTreeMap<u64, Vec<u8>> {
    let snap = svc.snapshot();
    snap.blocks
        .iter()
        .map(|(&g, b)| (g, b.to_bytes()))
        .collect()
}

/// Run the script on a fresh service and compare every epoch with its
/// oracle; returns the update reports.
fn run_config(
    start: &[(u64, Vec3)],
    steps: &[Step],
    oracles: &[BTreeMap<u64, Vec<u8>>],
    params: &TessParams,
    periodic: [bool; 3],
    nranks: usize,
    ctx: &str,
) -> Vec<UpdateReport> {
    let svc = MeshService::spawn(
        domain(),
        periodic,
        start,
        ServiceConfig::new(nranks, NBLOCKS)
            .with_workers(1)
            .with_params(*params),
    );
    assert!(
        published_bytes(&svc) == oracles[0],
        "{ctx}: spawn differs from scratch"
    );
    let mut reports = Vec::new();
    for (step, oracle) in steps.iter().zip(&oracles[1..]) {
        let rep = svc.update(step.update.clone());
        let got = published_bytes(&svc);
        assert_eq!(got.len(), oracle.len(), "{ctx}: {}", step.name);
        for (gid, bytes) in oracle {
            assert!(
                got[gid] == *bytes,
                "{ctx}: after '{}', block {gid} differs from a from-scratch tessellation",
                step.name
            );
        }
        reports.push(rep);
    }
    reports
}

fn check_matrix(name: &str, start: Vec<(u64, Vec3)>, params: TessParams, periodic: bool) {
    // The service builds its decomposition from the spawn set (k-d under
    // TESS_DECOMP=kd); so does the oracle.
    let positions: Vec<Vec3> = start.iter().map(|&(_, p)| p).collect();
    let dec =
        ServiceConfig::new(1, NBLOCKS)
            .decomp
            .build(domain(), NBLOCKS, [periodic; 3], &positions);
    let steps = script(&start, &dec);
    let oracles: Vec<BTreeMap<u64, Vec<u8>>> = std::iter::once(&start.iter().copied().collect())
        .chain(steps.iter().map(|s| &s.after))
        .map(|set| scratch_bytes(set, &dec, &params))
        .collect();
    let auto = matches!(params.ghost, GhostSpec::Auto { .. });
    for nranks in [1usize, 2, 4] {
        for width in [1usize, 8] {
            let ctx = format!("{name}, {nranks} ranks, pool width {width}");
            let reports = with_pool_width(width, || {
                run_config(
                    &start,
                    &steps,
                    &oracles,
                    &params,
                    dec.periodic,
                    nranks,
                    &ctx,
                )
            });
            for (step, rep) in steps.iter().zip(&reports) {
                let s = rep.stats;
                if step.local {
                    assert!(s.cells_reused > 0, "{ctx}: '{}' reused nothing", step.name);
                }
                if step.name == "non-finite position" {
                    assert_eq!(s.cells_reused, 0, "{ctx}: reuse must be off");
                }
                if auto {
                    assert_eq!(
                        s.cells_reused + s.cells_computed,
                        s.sites,
                        "{ctx}: '{}'",
                        step.name
                    );
                }
            }
        }
    }
}

fn auto() -> TessParams {
    TessParams {
        ghost: GhostSpec::Auto { factor: 1.5 },
        ..TessParams::default()
    }
}

fn adaptive() -> TessParams {
    TessParams::default().with_adaptive_ghost()
}

#[test]
fn jittered_epochs_match_scratch_with_auto_ghosts() {
    check_matrix("jittered, auto", lattice(7, 0.35), auto(), true);
}

#[test]
fn jittered_epochs_match_scratch_with_adaptive_ghosts() {
    check_matrix("jittered, adaptive", lattice(7, 0.35), adaptive(), true);
}

#[test]
fn lattice_epochs_match_scratch_with_auto_ghosts() {
    check_matrix("lattice, auto", lattice(0, 0.0), auto(), true);
}

#[test]
fn lattice_epochs_match_scratch_with_adaptive_ghosts() {
    check_matrix("lattice, adaptive", lattice(0, 0.0), adaptive(), true);
}

#[test]
fn nonperiodic_epochs_match_scratch_with_auto_ghosts() {
    // Walls instead of images: moved positions are clamped to the grid's
    // border bins, and the boundary cells stay incomplete.
    check_matrix("jittered, auto, walls", lattice(9, 0.35), auto(), false);
}
