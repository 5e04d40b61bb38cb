//! Friends-of-friends (FOF) halo finder.
//!
//! Figure 4 lists halo finders as the first in-situ analysis; HACC's
//! production finder is FOF-based (Woodring et al., the paper's [18]).
//! Two particles are *friends* when closer than the linking length
//! `b × mean spacing` (b ≈ 0.2 classically); halos are the transitive
//! closure with at least `min_size` members.
//!
//! Distribution strategy: ghost particles within the linking length are
//! exchanged (the same machinery as the tessellation's ghost zone), and
//! each rank runs a local union-find over own+ghost particles, labelling
//! every local group with its minimum member id. The local groups are then
//! joined by [`postprocess::components::merge_across_ranks`], the void
//! finder's primitive: one neighbor exchange and one tree merge, whatever
//! the halo's diameter in blocks.
//! Halo centers use the per-dimension circular mean, which is exact for
//! compact groups in a periodic box and merges trivially across ranks.

use std::collections::{BTreeMap, HashMap};

use diy::comm::World;
use geometry::Vec3;
use hacc::Simulation;
use postprocess::components::{merge_across_ranks, UnionFind};
use tess::ghost::exchange_ghosts;
use tess::grid::{CandidateGrid, StreamScratch};

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

/// Particle count and per-dimension circular sums `[cos x, sin x, cos y, ..]`.
type Moments = (u64, [f64; 6]);

fn add_moments(acc: &mut Moments, m: &Moments) {
    acc.0 += m.0;
    for (a, v) in acc.1.iter_mut().zip(&m.1) {
        *a += v;
    }
}

/// Distributed FOF over the simulation's current particles (collective).
/// Returns the same halo list on every rank, sorted by decreasing size.
pub fn find_halos(world: &mut World, sim: &Simulation, params: &FofParams) -> Vec<FofHalo> {
    let ell = params.linking_length;
    let dec = &sim.dec;

    // Own particles per block, and ghosts within the linking length.
    let local: BTreeMap<u64, Vec<(u64, Vec3)>> = sim
        .blocks
        .iter()
        .map(|(&gid, ps)| (gid, ps.iter().map(|p| (p.id, p.pos)).collect()))
        .collect();
    let ghosts = exchange_ghosts(world, dec, &sim.asn, &local, ell);

    // Flatten: own first, then ghosts with the block they reached.
    let (mut ids, mut pts): (Vec<u64>, Vec<Vec3>) = local.values().flatten().copied().unzip();
    let n_own = ids.len();
    let mut ghost_gids = Vec::new();
    for (&gid, ps) in &ghosts {
        for &(id, p) in ps {
            ids.push(id);
            pts.push(p);
            ghost_gids.push(gid);
        }
    }

    // Local union-find over pairs within the linking length...
    let region = geometry::Aabb::from_points(&pts)
        .unwrap_or(dec.domain)
        .grown(1e-9);
    let grid = CandidateGrid::build(region, &pts, 2.0);
    let mut uf = UnionFind::new(pts.len());
    let mut scratch = StreamScratch::default();
    for (i, &p) in pts.iter().enumerate() {
        let mut friends = grid.stream(&pts, &ids, p, i as u32, &mut scratch);
        while let Some((_, j)) = friends.next(ell * ell) {
            uf.union(i, j as usize);
        }
    }
    // ...and over the copies of one particle: a ghost of an own particle (a
    // periodic image, or a neighbor block's on this rank), or a ghost that
    // reached two of this rank's blocks.
    let mut first_copy: HashMap<u64, usize> = HashMap::with_capacity(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        uf.union(*first_copy.entry(id).or_insert(i), i);
    }
    let labels = uf.min_ids(&ids);

    // A ghost owned elsewhere tells its owner about this rank's group only
    // if the group holds another particle.
    let mut members = vec![0u32; ids.len()];
    for &i in first_copy.values() {
        members[uf.find(i)] += 1;
    }
    let mut boundary = Vec::new();
    for (i, &gid) in (n_own..).zip(&ghost_gids) {
        if first_copy[&ids[i]] >= n_own && members[uf.find(i)] > 1 {
            boundary.push((gid, ids[i], labels[i]));
        }
    }

    // Per-label partials from OWN particles only (ghosts are counted by
    // their owners).
    let box_len = dec.domain.extent();
    let tau = 2.0 * std::f64::consts::PI;
    let mut partial: BTreeMap<u64, Moments> = BTreeMap::new();
    for (&label, p) in labels.iter().zip(&pts[..n_own]) {
        let mut m = (1, [0.0; 6]);
        for d in 0..3 {
            let theta = tau * (p[d] - dec.domain.min[d]) / box_len[d];
            m.1[2 * d] = theta.cos();
            m.1[2 * d + 1] = theta.sin();
        }
        add_moments(partial.entry(label).or_default(), &m);
    }
    let merged = merge_across_ranks(
        world,
        dec,
        &sim.asn,
        partial.into_iter().collect(),
        &boundary,
        |id| {
            first_copy
                .get(&id)
                .filter(|&&i| i < n_own)
                .map(|&i| labels[i])
        },
        add_moments,
    );

    let mut halos: Vec<FofHalo> = merged
        .summaries
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
                    uf.union(i, j);
                }
            }
        }
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            groups.entry(uf.find(i)).or_default().push(i);
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
