//! Connected-component labeling of Voronoi cells — the void finder — and
//! the distributed-components primitive it shares with the FOF halo finder.
//!
//! Cells that survive the volume threshold are joined into components along
//! shared faces: every cell face records the global id of the site on its
//! far side, so the adjacency graph needs no extra geometry. Components of
//! large cells are the paper's cosmological voids (§IV-B, Figure 9). A
//! component's label is the minimum site id in it.
//!
//! Both void labelings start with the same local pass: index the kept
//! cells once, then one union-find pass over the faces whose two cells are
//! both indexed.
//! * [`label_components_serial`] — that pass over in-memory blocks.
//! * [`label_components_parallel`] — the paper's future-work item "label
//!   connected components automatically in situ": that pass, then
//!   [`merge_across_ranks`].
//!
//! [`merge_across_ranks`] joins local components into global ones in a
//! fixed number of communication rounds, whatever their diameter. An id
//! that one rank saw across its boundary — a face's far site, or a FOF
//! ghost particle — is a boundary entry. One neighbor exchange sends
//! `(far id, local label)` to the linked blocks on other ranks, and the
//! rank that owns the far id turns it into a label edge, so a link seen
//! from one side only still joins. One tree merge (`diy::reduce`) gathers
//! every rank's label edges and per-local-component summaries, and every
//! rank resolves them with the same small union-find in the same order.
//! `framework::tools::halo_finder` is its other user.

use std::collections::{BTreeMap, HashMap};

use diy::codec::{CodecError, Decode, Encode, Reader};
use diy::comm::World;
use diy::decomposition::{Assignment, Decomposition};
use diy::exchange::NeighborExchange;
use diy::hash::FxHashMap;
use tess::{MeshBlock, NO_NEIGHBOR};

/// Aggregate description of one component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentSummary {
    pub cells: u64,
    pub volume: f64,
    pub area: f64,
}

impl ComponentSummary {
    fn add(&mut self, other: &ComponentSummary) {
        self.cells += other.cells;
        self.volume += other.volume;
        self.area += other.area;
    }
}

impl Encode for ComponentSummary {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.cells.encode(buf);
        self.volume.encode(buf);
        self.area.encode(buf);
    }
}

impl Decode for ComponentSummary {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ComponentSummary {
            cells: u64::decode(r)?,
            volume: f64::decode(r)?,
            area: f64::decode(r)?,
        })
    }
}

/// Labeling result. Labels are the minimum site id in the component.
#[derive(Debug, Clone, Default)]
pub struct Components {
    /// site id → component label (sites known to this rank only).
    pub labels: BTreeMap<u64, u64>,
    /// component label → summary (global).
    pub summaries: BTreeMap<u64, ComponentSummary>,
}

impl Components {
    pub fn num_components(&self) -> usize {
        self.summaries.len()
    }

    /// Components sorted by decreasing volume (ties by label). A NaN volume
    /// sorts by its bits under `f64::total_cmp` rather than panicking.
    pub fn by_volume(&self) -> Vec<(u64, ComponentSummary)> {
        let mut v: Vec<(u64, ComponentSummary)> =
            self.summaries.iter().map(|(&l, &s)| (l, s)).collect();
        v.sort_by(|a, b| b.1.volume.total_cmp(&a.1.volume));
        v
    }
}

/// Disjoint sets over `0..n` with path compression; a union hooks the
/// larger root under the smaller.
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    pub fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            if ra < rb {
                self.parent[rb] = ra;
            } else {
                self.parent[ra] = rb;
            }
        }
    }

    /// For every element, the minimum of `ids` over its set: roots are
    /// indices, not ids, so this is what makes labels canonical.
    pub fn min_ids(&mut self, ids: &[u64]) -> Vec<u64> {
        let mut min = vec![u64::MAX; ids.len()];
        for (i, &id) in ids.iter().enumerate() {
            let r = self.find(i);
            min[r] = min[r].min(id);
        }
        (0..ids.len()).map(|i| min[self.find(i)]).collect()
    }
}

/// What [`merge_across_ranks`] returns, the same on every rank.
#[derive(Debug, Clone)]
pub struct Merged<S> {
    /// Every label named by any rank's partials or label edges → the
    /// minimum label of its global component.
    pub global: HashMap<u64, u64>,
    /// Global label → the partials of its component, summed in rank order.
    pub summaries: BTreeMap<u64, S>,
}

/// Join every rank's local components into global ones (collective): one
/// neighbor exchange and one tree merge, whatever the components' shape.
///
/// * `partials` — this rank's `(local label, summary)` rows. A label is a
///   member id of its component (its minimum); two ranks may hold rows
///   with the same label, which then join.
/// * `boundary` — `(block gid, far id, local label)` for every far id this
///   rank saw from block `gid` but does not own. The far id's owner is a
///   link of `gid` on another rank, and joins `local label` with its own
///   label for the id.
/// * `owned_label` — the local label of an id this rank owns, `None` for
///   every other id.
pub fn merge_across_ranks<S: Encode + Decode + Default>(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    partials: Vec<(u64, S)>,
    boundary: &[(u64, u64, u64)],
    owned_label: impl Fn(u64) -> Option<u64>,
    add: impl Fn(&mut S, &S),
) -> Merged<S> {
    let ex = NeighborExchange::new(dec, asn);
    let mut outgoing: Vec<(u64, (u64, u64))> = Vec::new();
    for &(gid, far, label) in boundary {
        for link in ex.links(gid) {
            if asn.rank_of_block(link.gid) != world.rank() {
                outgoing.push((link.gid, (far, label)));
            }
        }
    }
    outgoing.sort_unstable();
    outgoing.dedup();
    let mut edges: Vec<(u64, u64)> = ex
        .exchange(world, outgoing)
        .into_values()
        .flatten()
        .filter_map(|(far, label)| Some((label, owned_label(far)?)))
        .collect();
    edges.sort_unstable();
    edges.dedup();

    let (edges, partials) = diy::reduce::all_reduce_merge(world, (edges, partials), |mut a, b| {
        a.0.extend(b.0);
        a.1.extend(b.1);
        a
    });

    // Every rank holds the same edges and partials in the same (rank)
    // order, so the forest over labels and the folded sums agree bit for
    // bit. Its nodes are label values: a label may name partials on
    // several ranks, or only edges.
    let mut nodes: Vec<u64> = partials.iter().map(|&(label, _)| label).collect();
    nodes.extend(edges.iter().flat_map(|&(a, b)| [a, b]));
    nodes.sort_unstable();
    nodes.dedup();
    let node = |label: u64| nodes.binary_search(&label).expect("label is a node");
    let mut uf = UnionFind::new(nodes.len());
    for &(a, b) in &edges {
        uf.union(node(a), node(b));
    }
    let global: HashMap<u64, u64> = nodes.iter().copied().zip(uf.min_ids(&nodes)).collect();
    let mut summaries: BTreeMap<u64, S> = BTreeMap::new();
    for (label, s) in &partials {
        add(summaries.entry(global[label]).or_default(), s);
    }
    Merged { global, summaries }
}

/// The cells of some blocks that pass the threshold, joined along every
/// face whose two cells are both among them.
struct KeptCells {
    /// Site id of every cell of the blocks → its index among the kept
    /// cells, `None` when it is below the threshold.
    index: FxHashMap<u64, Option<usize>>,
    sites: Vec<u64>,
    /// Per kept cell: a one-cell summary.
    cells: Vec<ComponentSummary>,
    /// Per kept cell: the minimum site id of its component in these blocks.
    labels: Vec<u64>,
    /// `(block gid, far site, label)` of every kept face whose far site is
    /// not a cell of these blocks.
    boundary: Vec<(u64, u64, u64)>,
}

impl KeptCells {
    fn label<'a>(blocks: impl IntoIterator<Item = &'a MeshBlock> + Clone, min_volume: f64) -> Self {
        let n: usize = blocks.clone().into_iter().map(|b| b.cells.len()).sum();
        let mut index = FxHashMap::with_capacity_and_hasher(n, Default::default());
        let mut sites = Vec::new();
        let mut cells = Vec::new();
        for b in blocks.clone() {
            for c in &b.cells {
                let id = b.site_id_of(c);
                let kept = c.volume >= min_volume;
                index.insert(id, kept.then_some(sites.len()));
                if kept {
                    sites.push(id);
                    cells.push(ComponentSummary {
                        cells: 1,
                        volume: c.volume,
                        area: c.area,
                    });
                }
            }
        }

        let mut uf = UnionFind::new(sites.len());
        let mut boundary = Vec::new();
        let kept_cells = blocks.into_iter().flat_map(|b| {
            b.cells
                .iter()
                .filter(move |c| c.volume >= min_volume)
                .map(move |c| (b.gid, c))
        });
        for (i, (gid, c)) in kept_cells.enumerate() {
            for f in c.faces.iter().filter(|f| f.neighbor != NO_NEIGHBOR) {
                match index.get(&f.neighbor) {
                    Some(&Some(j)) => uf.union(i, j),
                    Some(None) => {}
                    None => boundary.push((gid, i, f.neighbor)),
                }
            }
        }
        let labels = uf.min_ids(&sites);
        let boundary = boundary
            .into_iter()
            .map(|(gid, i, far)| (gid, far, labels[i]))
            .collect();
        KeptCells {
            index,
            sites,
            cells,
            labels,
            boundary,
        }
    }

    /// Summaries per label, each summed in kept-cell order.
    fn summaries(&self) -> BTreeMap<u64, ComponentSummary> {
        let mut out: BTreeMap<u64, ComponentSummary> = BTreeMap::new();
        for (label, cell) in self.labels.iter().zip(&self.cells) {
            out.entry(*label).or_default().add(cell);
        }
        out
    }
}

/// Serial labeling over in-memory blocks, considering only cells whose
/// volume is at least `min_volume`.
pub fn label_components_serial(blocks: &[MeshBlock], min_volume: f64) -> Components {
    let kept = KeptCells::label(blocks, min_volume);
    Components {
        summaries: kept.summaries(),
        labels: kept.sites.into_iter().zip(kept.labels).collect(),
    }
}

/// Distributed labeling (collective). `local` maps owned block gid → block.
/// Returns labels for local sites plus global summaries (identical on every
/// rank). One neighbor exchange and one tree merge, whatever the shape of
/// the components.
pub fn label_components_parallel(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    local: &BTreeMap<u64, MeshBlock>,
    min_volume: f64,
) -> Components {
    // Every cell of this rank's blocks is indexed, so the far site of a
    // boundary face lives on another rank.
    let kept = KeptCells::label(local.values(), min_volume);
    let merged = merge_across_ranks(
        world,
        dec,
        asn,
        kept.summaries().into_iter().collect(),
        &kept.boundary,
        |site| {
            kept.index
                .get(&site)
                .copied()
                .flatten()
                .map(|j| kept.labels[j])
        },
        ComponentSummary::add,
    );
    Components {
        labels: kept
            .sites
            .iter()
            .zip(&kept.labels)
            .map(|(&site, label)| (site, merged.global[label]))
            .collect(),
        summaries: merged.summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diy::comm::Runtime;
    use geometry::{Aabb, Vec3};

    /// A block of cells `(site id, volume, far sites of its faces)`.
    fn block(gid: u64, cells: &[(u64, f64, Vec<u64>)]) -> MeshBlock {
        let mut b = MeshBlock::empty(gid, Aabb::cube(1.0));
        for (i, (site, volume, far)) in cells.iter().enumerate() {
            b.particles.push(Vec3::splat(0.5));
            b.site_ids.push(*site);
            b.cells.push(i as u32, *volume, 1.0, true);
            for &neighbor in far {
                b.cells.push_face(neighbor, []);
            }
        }
        b
    }

    /// Cells `first..` of a chain `0..=last` in which each cell lists its
    /// predecessor and successor, so a chain can continue in another block.
    fn chain(first: u64, vols: &[f64], last: u64) -> Vec<(u64, f64, Vec<u64>)> {
        vols.iter()
            .zip(first..)
            .map(|(&v, id)| {
                let far = [id.checked_sub(1), (id < last).then_some(id + 1)];
                (id, v, far.into_iter().flatten().collect())
            })
            .collect()
    }

    /// A 1D chain of cells in one block: cell i adjacent to i-1 and i+1.
    fn chain_block(vols: &[f64]) -> MeshBlock {
        block(0, &chain(0, vols, vols.len() as u64 - 1))
    }

    #[test]
    fn one_chain_is_one_component() {
        let b = chain_block(&[1.0; 5]);
        let c = label_components_serial(&[b], 0.5);
        assert_eq!(c.num_components(), 1);
        let s = c.summaries[&0];
        assert_eq!(s.cells, 5);
        assert!((s.volume - 5.0).abs() < 1e-12);
        // every site labeled 0 (the min id)
        assert!(c.labels.values().all(|&l| l == 0));
    }

    #[test]
    fn threshold_splits_the_chain() {
        // middle cell too small → two components
        let b = chain_block(&[1.0, 1.0, 0.1, 1.0, 1.0]);
        let c = label_components_serial(&[b], 0.5);
        assert_eq!(c.num_components(), 2);
        assert_eq!(c.summaries[&0].cells, 2);
        assert_eq!(c.summaries[&3].cells, 2);
        assert_eq!(c.labels[&0], 0);
        assert_eq!(c.labels[&1], 0);
        assert_eq!(c.labels[&3], 3);
        assert_eq!(c.labels[&4], 3);
        assert!(!c.labels.contains_key(&2));
    }

    #[test]
    fn by_volume_sorts_descending() {
        let b = chain_block(&[1.0, 1.0, 0.1, 3.0, 3.0]);
        let c = label_components_serial(&[b], 0.5);
        let sorted = c.by_volume();
        assert_eq!(sorted[0].0, 3);
        assert!((sorted[0].1.volume - 6.0).abs() < 1e-12);
        assert_eq!(sorted[1].0, 0);
    }

    #[test]
    fn a_nan_volume_never_panics() {
        // a NaN-volume cell fails every threshold, so it splits the chain
        let b = chain_block(&[1.0, f64::NAN, 3.0]);
        let mut c = label_components_serial(&[b], 0.5);
        assert_eq!(c.num_components(), 2);
        assert!(!c.labels.contains_key(&1));
        // a NaN summary volume sorts by its bits: f64::NAN is positive, so
        // above every number
        c.summaries.insert(
            9,
            ComponentSummary {
                cells: 1,
                volume: f64::NAN,
                area: 0.0,
            },
        );
        let order: Vec<u64> = c.by_volume().into_iter().map(|(l, _)| l).collect();
        assert_eq!(order, vec![9, 2, 0]);
    }

    /// Run `label_components_parallel` at `nranks` ranks, each owning its
    /// blocks of `blocks` (every gid of `dec` has a block, perhaps empty).
    /// Returns per rank the labeling and the messages the labeling sent.
    fn label_on_ranks(
        nranks: usize,
        dec: &Decomposition,
        blocks: &[MeshBlock],
        min_volume: f64,
    ) -> Vec<(Components, u64)> {
        Runtime::run(nranks, |world| {
            let asn = Assignment::new(dec.nblocks(), nranks);
            let local: BTreeMap<u64, MeshBlock> = blocks
                .iter()
                .filter(|b| asn.rank_of_block(b.gid) == world.rank())
                .map(|b| (b.gid, b.clone()))
                .collect();
            let before = diy::metrics::collect_report(world).traffic_totals().0;
            let comps = label_components_parallel(world, dec, &asn, &local, min_volume);
            let after = diy::metrics::collect_report(world).traffic_totals().0;
            (comps, after - before)
        })
    }

    /// Parallel labels match serial site for site, and every rank holds
    /// the same summaries.
    fn assert_matches_serial(runs: &[(Components, u64)], blocks: &[MeshBlock], min_volume: f64) {
        let serial = label_components_serial(blocks, min_volume);
        let mut labels = BTreeMap::new();
        for (comps, _) in runs {
            assert_eq!(comps.summaries, serial.summaries);
            labels.extend(comps.labels.iter().map(|(&s, &l)| (s, l)));
        }
        assert_eq!(labels, serial.labels);
    }

    #[test]
    fn a_face_listed_by_one_cell_still_joins_across_ranks() {
        let dec = Decomposition::with_dims(Aabb::cube(2.0), [2, 1, 1], [false; 3]);
        // 0 lists 1 and 3 lists 2, never the reverse; 4 ↔ 5 list each
        // other, but 5 is below the threshold
        let blocks = [
            block(0, &[(0, 1.0, vec![1]), (2, 1.0, vec![]), (4, 1.0, vec![5])]),
            block(1, &[(1, 1.0, vec![]), (3, 1.0, vec![2]), (5, 0.1, vec![4])]),
        ];
        for nranks in [1, 2] {
            let runs = label_on_ranks(nranks, &dec, &blocks, 0.5);
            assert_matches_serial(&runs, &blocks, 0.5);
            let cells: Vec<(u64, u64)> = runs[0]
                .0
                .summaries
                .iter()
                .map(|(&l, s)| (l, s.cells))
                .collect();
            assert_eq!(cells, vec![(0, 2), (2, 2), (4, 1)], "nranks={nranks}");
        }
    }

    #[test]
    fn labeling_sends_as_many_messages_whatever_the_component_diameter() {
        // 2×2×2 blocks, each adjacent to all seven others; rank r of 4 owns
        // blocks 2r and 2r+1, so the long chain changes rank at every hop
        let dec = Decomposition::regular(Aabb::cube(2.0), 8, [false; 3]);
        let chain_through = |gids: &[u64]| -> Vec<MeshBlock> {
            let per_block = 24 / gids.len() as u64;
            let mut blocks: Vec<MeshBlock> = (0..8).map(|g| block(g, &[])).collect();
            for (k, &gid) in gids.iter().enumerate() {
                let first = k as u64 * per_block;
                blocks[gid as usize] =
                    block(gid, &chain(first, &vec![1.0; per_block as usize], 23));
            }
            blocks
        };
        let long = chain_through(&[0, 2, 4, 6, 1, 3, 5, 7]);
        let short = chain_through(&[0, 2]);
        for nranks in [2, 4, 8] {
            let mut messages = Vec::new();
            for blocks in [&long, &short] {
                let runs = label_on_ranks(nranks, &dec, blocks, 0.5);
                assert_matches_serial(&runs, blocks, 0.5);
                assert_eq!(runs[0].0.summaries[&0].cells, 24);
                messages.push(runs.iter().map(|r| r.1).collect::<Vec<_>>());
            }
            assert!(messages[0][0] > 0);
            assert_eq!(messages[0], messages[1], "nranks={nranks}");
        }
    }

    #[test]
    fn serial_labels_real_tessellation_components() {
        // Two dense clusters separated by a sparse gap: thresholding on
        // volume keeps the big (sparse) cells and yields ≥1 component;
        // keeping everything yields exactly one component spanning the box.
        let mut particles: Vec<(u64, Vec3)> = Vec::new();
        let mut id = 0;
        for i in 0..6 {
            for j in 0..6 {
                for k in 0..6 {
                    particles.push((
                        id,
                        Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5),
                    ));
                    id += 1;
                }
            }
        }
        let (block, _) = tess::tessellate_serial(
            &particles,
            Aabb::cube(6.0),
            [true; 3],
            &tess::TessParams::default().with_ghost(2.0),
        );
        let all = label_components_serial(&[block], 0.0);
        assert_eq!(all.num_components(), 1, "a full tessellation is connected");
        assert_eq!(all.summaries.values().next().unwrap().cells, 216);
    }
}
