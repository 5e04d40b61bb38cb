//! Friends-of-friends (FOF) halo finder.
//!
//! Figure 4 lists halo finders as the first in-situ analysis; HACC's
//! production finder is FOF-based (Woodring et al., the paper's [18]).
//! Two particles are *friends* when closer than the linking length
//! `b × mean spacing` (b ≈ 0.2 classically); halos are the transitive
//! closure with at least `min_size` members.
//!
//! Distribution strategy: ghost particles within the linking length are
//! exchanged (the same machinery as the tessellation's ghost zone), each
//! rank runs a local union-find over own+ghost particles, and group labels
//! (minimum member id) are propagated across ranks to a fixed point.
//! Halo centers use the per-dimension circular mean, which is exact for
//! compact groups in a periodic box and merges trivially across ranks.

use std::collections::{BTreeMap, HashMap};

use diy::comm::World;
use diy::exchange::NeighborExchange;
use geometry::Vec3;
use hacc::Simulation;
use tess::ghost::exchange_ghosts;
use tess::grid::CandidateGrid;

use crate::tool::{AnalysisTool, ToolContext, ToolReport};

/// FOF parameters.
#[derive(Debug, Clone, Copy)]
pub struct FofParams {
    /// Linking length in domain units (absolute, not b).
    pub linking_length: f64,
    /// Minimum members for a group to count as a halo.
    pub min_size: usize,
}

impl Default for FofParams {
    fn default() -> Self {
        // b = 0.2 at unit mean spacing, the classic choice
        FofParams {
            linking_length: 0.2,
            min_size: 10,
        }
    }
}

/// One halo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FofHalo {
    /// Group label: the minimum particle id in the halo.
    pub label: u64,
    pub count: u64,
    /// Center of mass (periodic circular mean), wrapped into the box.
    pub center: Vec3,
}

struct UnionFind(Vec<u32>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n as u32).collect())
    }
    fn find(&mut self, x: u32) -> u32 {
        let mut r = x;
        while self.0[r as usize] != r {
            r = self.0[r as usize];
        }
        let mut c = x;
        while self.0[c as usize] != r {
            let n = self.0[c as usize];
            self.0[c as usize] = r;
            c = n;
        }
        r
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra.max(rb) as usize] = ra.min(rb);
        }
    }
}

/// Distributed FOF over the simulation's current particles (collective).
/// Returns the same halo list on every rank, sorted by decreasing size.
pub fn find_halos(world: &mut World, sim: &Simulation, params: &FofParams) -> Vec<FofHalo> {
    let ell = params.linking_length;
    let ell2 = ell * ell;
    let dec = &sim.dec;
    let asn = &sim.asn;

    // Own particles per block, and ghosts within the linking length.
    let local: BTreeMap<u64, Vec<(u64, Vec3)>> = sim
        .blocks
        .iter()
        .map(|(&gid, ps)| (gid, ps.iter().map(|p| (p.id, p.pos)).collect()))
        .collect();
    let ghosts = exchange_ghosts(world, dec, asn, &local, ell);

    // Flatten: own first, then ghosts.
    let mut ids: Vec<u64> = Vec::new();
    let mut pts: Vec<Vec3> = Vec::new();
    let mut n_own_per_block: Vec<(u64, usize)> = Vec::new();
    for (&gid, ps) in &local {
        n_own_per_block.push((gid, ps.len()));
        for &(id, p) in ps {
            ids.push(id);
            pts.push(p);
        }
    }
    let n_own = pts.len();
    for ps in ghosts.values() {
        for &(id, p) in ps {
            ids.push(id);
            pts.push(p);
        }
    }

    // Local union-find over pairs within the linking length.
    let region = geometry::Aabb::from_points(&pts)
        .unwrap_or(dec.domain)
        .grown(1e-9);
    let grid = CandidateGrid::build(region, &pts, 2.0);
    let mut uf = UnionFind::new(pts.len());
    let mut ring = Vec::new();
    for i in 0..pts.len() {
        let p = pts[i];
        for r in 0..=grid.max_ring() {
            if grid.ring_min_distance_from(p, r) > ell {
                break;
            }
            grid.ring_candidates(p, r, &mut ring);
            for &j in &ring {
                if (j as usize) > i && pts[j as usize].dist2(p) <= ell2 {
                    uf.union(i as u32, j);
                }
            }
        }
    }

    // Group labels: minimum global id over local members, refined by
    // cross-rank propagation through ghost copies.
    #[allow(unused_assignments)]
    let mut group_label: HashMap<u32, u64> = HashMap::new();
    let compute_labels = |uf: &mut UnionFind, extra: &HashMap<u64, u64>| -> HashMap<u32, u64> {
        let mut m: HashMap<u32, u64> = HashMap::new();
        for (i, &id) in ids.iter().enumerate() {
            let r = uf.find(i as u32);
            let candidate = extra.get(&id).copied().unwrap_or(id);
            let e = m.entry(r).or_insert(u64::MAX);
            *e = (*e).min(candidate);
        }
        m
    };
    // best-known label per particle id (from remote ranks)
    let mut known: HashMap<u64, u64> = HashMap::new();
    let ex = NeighborExchange::new(dec, asn);
    let owned_gids: Vec<u64> = local.keys().copied().collect();
    loop {
        group_label = compute_labels(&mut uf, &known);
        // send each ghost's group label toward its owner (via all neighbor
        // blocks; the owner recognizes its own ids)
        let mut outgoing: Vec<(u64, (u64, u64))> = Vec::new();
        for i in n_own..ids.len() {
            let label = group_label[&uf.find(i as u32)];
            for &gid in &owned_gids {
                for link in dec.neighbors(gid) {
                    outgoing.push((link.gid, (ids[i], label)));
                }
            }
        }
        outgoing.sort_unstable();
        outgoing.dedup();
        let incoming = ex.exchange(world, outgoing);
        let mut changed = false;
        let own_set: HashMap<u64, ()> = ids[..n_own].iter().map(|&i| (i, ())).collect();
        for (_, items) in incoming {
            for (id, label) in items {
                if own_set.contains_key(&id) {
                    let e = known.entry(id).or_insert(u64::MAX);
                    if label < *e {
                        *e = label;
                        changed = true;
                    }
                }
            }
        }
        let any = world.all_reduce(changed as u64, |a, b| a.max(b));
        if any == 0 {
            break;
        }
    }

    // Per-label partials from OWN particles only (ghosts counted by their
    // owners): count + circular sums per dimension.
    let box_len = dec.domain.extent();
    let tau = 2.0 * std::f64::consts::PI;
    let mut partial: BTreeMap<u64, (u64, [f64; 6])> = BTreeMap::new();
    for i in 0..n_own {
        let label = group_label[&uf.find(i as u32)];
        let e = partial.entry(label).or_insert((0, [0.0; 6]));
        e.0 += 1;
        for d in 0..3 {
            let theta = tau * (pts[i][d] - dec.domain.min[d]) / box_len[d];
            e.1[2 * d] += theta.cos();
            e.1[2 * d + 1] += theta.sin();
        }
    }
    let rows: Vec<(u64, (u64, [f64; 6]))> = partial.into_iter().collect();
    let merged = diy::reduce::all_reduce_merge(world, rows, |a, b| {
        let mut m: BTreeMap<u64, (u64, [f64; 6])> = a.into_iter().collect();
        for (label, (c, s)) in b {
            let e = m.entry(label).or_insert((0, [0.0; 6]));
            e.0 += c;
            for (acc, v) in e.1.iter_mut().zip(s) {
                *acc += v;
            }
        }
        m.into_iter().collect()
    });

    let mut halos: Vec<FofHalo> = merged
        .into_iter()
        .filter(|(_, (count, _))| *count >= params.min_size as u64)
        .map(|(label, (count, s))| {
            let mut center = Vec3::ZERO;
            for d in 0..3 {
                let theta = s[2 * d + 1].atan2(s[2 * d]);
                let frac = theta.rem_euclid(tau) / tau;
                center[d] = dec.domain.min[d] + frac * box_len[d];
            }
            FofHalo {
                label,
                count,
                center,
            }
        })
        .collect();
    halos.sort_by(|a, b| b.count.cmp(&a.count).then(a.label.cmp(&b.label)));
    halos
}

/// The halo finder as a schedulable framework tool.
pub struct HaloFinderTool {
    pub params: FofParams,
    /// Halo catalogs per step (label → halos).
    pub catalogs: Vec<(usize, Vec<FofHalo>)>,
}

impl HaloFinderTool {
    pub fn new(params: FofParams) -> Self {
        HaloFinderTool {
            params,
            catalogs: Vec::new(),
        }
    }
}

impl AnalysisTool for HaloFinderTool {
    fn name(&self) -> &str {
        "halos"
    }

    fn run(&mut self, world: &mut World, ctx: &ToolContext<'_>) -> ToolReport {
        let halos = find_halos(world, ctx.sim, &self.params);
        let largest = halos.first().map(|h| h.count).unwrap_or(0);
        let summary = format!(
            "step {}: {} halos (≥{} particles), largest {}",
            ctx.step,
            halos.len(),
            self.params.min_size,
            largest
        );
        self.catalogs.push((ctx.step, halos));
        ToolReport {
            tool: self.name().to_string(),
            step: ctx.step,
            summary,
            artifacts: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diy::comm::Runtime;
    use hacc::{SimParams, Simulation};

    /// Brute-force FOF for validation.
    fn brute_fof(pts: &[Vec3], box_len: f64, ell: f64) -> Vec<Vec<usize>> {
        let n = pts.len();
        let mut uf = UnionFind::new(n);
        let b = geometry::Aabb::cube(box_len);
        for i in 0..n {
            for j in i + 1..n {
                if b.periodic_dist(pts[i], pts[j]) <= ell {
                    uf.union(i as u32, j as u32);
                }
            }
        }
        let mut groups: HashMap<u32, Vec<usize>> = HashMap::new();
        for i in 0..n {
            groups.entry(uf.find(i as u32)).or_default().push(i);
        }
        let mut v: Vec<Vec<usize>> = groups.into_values().collect();
        v.sort_by_key(|g| std::cmp::Reverse(g.len()));
        v
    }

    /// Tiny deterministic particle pattern with two obvious clusters.
    fn clustered_sim(world: &mut World, nranks_blocks: usize) -> Simulation {
        // start from a simulation but overwrite particle positions
        let params = SimParams {
            np: 8,
            box_size: 8.0,
            a_init: 0.1,
            a_final: 1.0,
            nsteps: 10,
            seed: 5,
            initial_delta_rms: 0.0,
            spectrum: hacc::power::PowerSpectrum::default(),
            solver: Default::default(),
        };
        let mut sim = Simulation::init(world, params, nranks_blocks);
        // positions: cluster A around (1,1,1), cluster B around (6.5, 6.5, 6.5)
        // spanning the block seams when 8 blocks are used
        for ps in sim.blocks.values_mut() {
            ps.clear();
        }
        let place = |id: u64, p: Vec3, sim: &mut Simulation| {
            let gid = sim.dec.block_of_point(p);
            if let Some(v) = sim.blocks.get_mut(&gid) {
                v.push(hacc::Particle {
                    id,
                    pos: p,
                    mom: Vec3::ZERO,
                });
            }
        };
        let mut id = 0;
        for i in 0..12 {
            let offset = 0.05 * i as f64;
            place(id, Vec3::new(0.9 + offset, 1.0, 1.0), &mut sim);
            id += 1;
        }
        for i in 0..15 {
            let offset = 0.05 * i as f64;
            // straddles the center seam at 4.0 in all dims? place along a line
            place(id, Vec3::new(3.7 + offset, 4.0, 4.0), &mut sim);
            id += 1;
        }
        // isolated particles (no halo)
        place(id, Vec3::new(6.5, 1.0, 6.5), &mut sim);
        sim
    }

    #[test]
    fn finds_two_halos_across_block_seams() {
        for nranks in [1usize, 2, 4] {
            let halos = Runtime::run(nranks, |w| {
                let sim = clustered_sim(w, 8);
                find_halos(
                    w,
                    &sim,
                    &FofParams {
                        linking_length: 0.12,
                        min_size: 5,
                    },
                )
            });
            for h in &halos {
                assert_eq!(h.len(), 2, "nranks={nranks}: {h:?}");
                assert_eq!(h[0].count, 15);
                assert_eq!(h[1].count, 12);
                assert_eq!(h[1].label, 0);
                assert_eq!(h[0].label, 12);
                // centers near cluster centers
                assert!(
                    (h[1].center - Vec3::new(1.175, 1.0, 1.0)).norm() < 0.01,
                    "{:?}",
                    h[1]
                );
                assert!(
                    (h[0].center - Vec3::new(4.05, 4.0, 4.0)).norm() < 0.01,
                    "{:?}",
                    h[0]
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let pts: Vec<Vec3> = (0..150)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(0.0..8.0),
                    rng.gen_range(0.0..8.0),
                    rng.gen_range(0.0..8.0),
                )
            })
            .collect();
        let expected = brute_fof(&pts, 8.0, 0.6);
        let expected_sizes: Vec<usize> = expected
            .iter()
            .map(|g| g.len())
            .filter(|&s| s >= 3)
            .collect();

        let pts2 = pts.clone();
        let halos = Runtime::run(2, move |w| {
            let params = SimParams {
                np: 8,
                box_size: 8.0,
                a_init: 0.1,
                a_final: 1.0,
                nsteps: 1,
                seed: 1,
                initial_delta_rms: 0.0,
                spectrum: hacc::power::PowerSpectrum::default(),
                solver: Default::default(),
            };
            let mut sim = Simulation::init(w, params, 8);
            for ps in sim.blocks.values_mut() {
                ps.clear();
            }
            for (i, &p) in pts2.iter().enumerate() {
                let gid = sim.dec.block_of_point(p);
                if let Some(v) = sim.blocks.get_mut(&gid) {
                    v.push(hacc::Particle {
                        id: i as u64,
                        pos: p,
                        mom: Vec3::ZERO,
                    });
                }
            }
            find_halos(
                w,
                &sim,
                &FofParams {
                    linking_length: 0.6,
                    min_size: 3,
                },
            )
        });
        let got_sizes: Vec<usize> = halos[0].iter().map(|h| h.count as usize).collect();
        assert_eq!(got_sizes, expected_sizes);
    }

    #[test]
    fn halo_across_periodic_seam_has_wrapped_center() {
        let halos = Runtime::run(1, |w| {
            let params = SimParams {
                np: 8,
                box_size: 8.0,
                a_init: 0.1,
                a_final: 1.0,
                nsteps: 1,
                seed: 1,
                initial_delta_rms: 0.0,
                spectrum: hacc::power::PowerSpectrum::default(),
                solver: Default::default(),
            };
            let mut sim = Simulation::init(w, params, 8);
            for ps in sim.blocks.values_mut() {
                ps.clear();
            }
            // cluster straddling x = 0 (periodic seam)
            for (i, dx) in [-0.2f64, -0.1, -0.05, 0.05, 0.1, 0.2].iter().enumerate() {
                let x = (dx + 8.0) % 8.0;
                let p = Vec3::new(x, 4.0, 4.0);
                let gid = sim.dec.block_of_point(p);
                sim.blocks.get_mut(&gid).unwrap().push(hacc::Particle {
                    id: i as u64,
                    pos: p,
                    mom: Vec3::ZERO,
                });
            }
            find_halos(
                w,
                &sim,
                &FofParams {
                    linking_length: 0.2,
                    min_size: 4,
                },
            )
        });
        let h = &halos[0];
        assert_eq!(h.len(), 1, "{h:?}");
        assert_eq!(h[0].count, 6);
        // circular mean lands near x ≈ 0 (mod 8)
        let x = h[0].center.x;
        assert!(!(0.1..=7.9).contains(&x), "center.x = {x}");
    }
}
