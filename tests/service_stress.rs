//! Concurrency stress for the resident service: N writer epochs racing M
//! reader threads. Every response must carry a valid epoch and match that
//! epoch's from-scratch oracle mesh exactly, and the request-id
//! accounting must prove no query was dropped or answered twice — the ids
//! handed out are consecutive from 1, so the sorted multiset of response
//! ids must be exactly 1..=total.

use std::collections::BTreeMap;

use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, Decomposition};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::grid::StreamScratch;
use meshing_universe::tess::{
    self, GhostSpec, MeshService, MeshSnapshot, Query, ServiceConfig, TessParams, Update,
};

const BOX: f64 = 4.0;
const NBLOCKS: usize = 8;
const EPOCHS: u64 = 4;
const READERS: usize = 4;
const QUERIES_PER_READER: usize = 120;

fn params() -> TessParams {
    TessParams {
        ghost: GhostSpec::Auto { factor: 2.5 },
        ..TessParams::default()
    }
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

/// The delta the writer applies to move from epoch `e` to `e + 1`:
/// deterministically displace every third particle (phase-shifted by the
/// epoch so successive deltas touch different particles).
fn delta_for(epoch: u64, current: &[(u64, Vec3)]) -> Vec<(u64, Vec3)> {
    current
        .iter()
        .filter(|(id, _)| id % 3 == epoch % 3)
        .map(|&(id, p)| {
            let s = 0.07 * ((id + epoch) % 5) as f64 - 0.14;
            (
                id,
                Vec3::new(
                    (p.x + s).rem_euclid(BOX),
                    (p.y - s).rem_euclid(BOX),
                    (p.z + 0.5 * s).rem_euclid(BOX),
                ),
            )
        })
        .collect()
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

fn oracle_snapshot(epoch: u64, particles: &[(u64, Vec3)]) -> MeshSnapshot {
    let dec = Decomposition::regular(Aabb::cube(BOX), NBLOCKS, [true; 3]);
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

/// Deterministic query for reader `t`, iteration `i`.
fn query_for(t: usize, i: usize) -> Query {
    let u = |s: u64| {
        let mut x = s.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((x ^ (x >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let s = (t * QUERIES_PER_READER + i) as u64;
    let p = Vec3::new(u(s) * BOX, u(s ^ 77) * BOX, u(s ^ 991) * BOX);
    match i % 6 {
        0 => Query::BoxCells(Aabb::new(p * 0.5, p * 0.5 + Vec3::splat(1.0 + u(s ^ 5)))),
        1 => Query::Region(Aabb::new(Vec3::splat(0.0), p)),
        2 => Query::Point(Vec3::new(p.x + BOX, p.y - BOX, p.z)), // wraps
        _ => Query::Point(p),
    }
}

#[test]
fn writer_epochs_race_reader_threads_without_mixing_or_loss() {
    // Precompute every epoch's particle set and its from-scratch oracle.
    let mut sets: Vec<Vec<(u64, Vec3)>> = vec![jittered(4, 17, 0.3)];
    let mut deltas: Vec<Vec<(u64, Vec3)>> = Vec::new();
    for e in 1..EPOCHS {
        let prev = sets.last().unwrap();
        let delta = delta_for(e, prev);
        let mut next = prev.clone();
        for &(id, p) in &delta {
            next[id as usize] = (id, p);
        }
        deltas.push(delta);
        sets.push(next);
    }
    let oracles: Vec<MeshSnapshot> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| oracle_snapshot(i as u64 + 1, s))
        .collect();

    let svc = MeshService::spawn(
        Aabb::cube(BOX),
        [true; 3],
        &sets[0],
        ServiceConfig::new(2, NBLOCKS)
            .with_workers(4)
            .with_batch_max(32)
            .with_params(params()),
    );

    let mut observed: Vec<(Query, tess::Response)> = Vec::new();
    std::thread::scope(|scope| {
        let svc = &svc;
        let mut readers = Vec::new();
        for t in 0..READERS {
            readers.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(QUERIES_PER_READER);
                for i in 0..QUERIES_PER_READER {
                    let q = query_for(t, i);
                    let r = svc.query(q.clone()).expect("service open");
                    out.push((q, r));
                }
                out
            }));
        }
        // The writer publishes epochs 2..=EPOCHS while the readers run.
        for (i, delta) in deltas.iter().enumerate() {
            let rep = svc.update(Update::Delta {
                upserts: delta.clone(),
                removes: Vec::new(),
            });
            assert_eq!(rep.epoch, i as u64 + 2);
        }
        for h in readers {
            observed.extend(h.join().expect("reader thread"));
        }
    });

    // Every response: valid epoch, answer equal to that epoch's oracle.
    let mut scratch = StreamScratch::default();
    let mut per_epoch = vec![0usize; EPOCHS as usize];
    for (q, r) in &observed {
        assert!(
            (1..=EPOCHS).contains(&r.epoch),
            "response carries invalid epoch {}",
            r.epoch
        );
        per_epoch[(r.epoch - 1) as usize] += 1;
        let want = oracles[(r.epoch - 1) as usize].answer(q, &mut scratch);
        assert_eq!(
            r.answer, want,
            "epoch {} answer diverged for {q:?}",
            r.epoch
        );
    }
    let total = (READERS * QUERIES_PER_READER) as u64;
    assert_eq!(per_epoch.iter().sum::<usize>() as u64, total);

    // Request-id accounting: ids are handed out consecutively from 1, so
    // the sorted response ids must be exactly 1..=total — any drop leaves
    // a hole, any double-answer a duplicate.
    let mut ids: Vec<u64> = observed.iter().map(|(_, r)| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=total).collect::<Vec<u64>>(), "id accounting");

    // Final snapshot is the last epoch, bit-identical to its oracle.
    let final_snap = svc.snapshot();
    assert_eq!(final_snap.epoch, EPOCHS);
    let bits = |snap: &MeshSnapshot| -> BTreeMap<u64, (u64, u64)> {
        snap.blocks
            .values()
            .flat_map(|b| {
                b.cells
                    .iter()
                    .map(|c| (b.site_id_of(c), (c.volume.to_bits(), c.area.to_bits())))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    assert_eq!(bits(&final_snap), bits(&oracles[EPOCHS as usize - 1]));

    let stats = svc.shutdown();
    assert_eq!(stats.enqueued, total);
    assert_eq!(stats.answered, total);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.epochs_published, EPOCHS);
    // One latency sample per answer, split across the three query kinds.
    let latencies: u64 = ["point", "box", "region"]
        .iter()
        .map(|&kind| {
            let h = svc
                .telemetry()
                .histogram("service.latency_ns", &[("kind", kind)]);
            h.read().total().n()
        })
        .sum();
    assert_eq!(latencies, stats.answered);
}
