//! Parallel tessellation I/O on top of `diy::io`.
//!
//! All blocks are written collectively into one file (the paper's §III-C2
//! data model), indexed by gid, and can be read back serially or in
//! parallel at any rank count.
//!
//! Reads decode as they go: each block's payload is decoded right after
//! its checksum passes and dropped before the next is read, so a reader
//! holds its decoded blocks plus at most one raw payload — never its
//! whole share of the file twice over.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use diy::codec::{Decode, Encode};
use diy::comm::World;

use crate::model::MeshBlock;

/// Collectively write this rank's blocks; returns total file bytes.
/// Recorded under the [`crate::driver::PHASE_OUTPUT`] metrics span.
pub fn write_tessellation(
    world: &mut World,
    path: &Path,
    blocks: &BTreeMap<u64, MeshBlock>,
) -> io::Result<u64> {
    let mut w = TessStreamWriter::create(world, path)?;
    let refs: Vec<(u64, &MeshBlock)> = blocks.iter().map(|(&gid, b)| (gid, b)).collect();
    w.write_wave(world, &refs)?;
    Ok(w.finish(world)?.file_bytes)
}

/// Collective block-streamed mesh writer: serialize and write blocks in
/// waves as they finish instead of accumulating the merged mesh (see
/// [`crate::tessellate_streaming`]). Serialization and file traffic are
/// recorded under the [`crate::driver::PHASE_OUTPUT`] span.
pub struct TessStreamWriter {
    inner: diy::io::BlockFileWriter,
}

/// Totals reported by [`TessStreamWriter::finish`] — global, identical on
/// every rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamWriteSummary {
    /// Blocks in the file.
    pub blocks: u64,
    /// Mesh payload bytes (excluding header/footer/trailer framing).
    pub payload_bytes: u64,
    /// Total file bytes including framing.
    pub file_bytes: u64,
}

impl TessStreamWriter {
    /// Create the file (collective).
    pub fn create(world: &mut World, path: &Path) -> io::Result<TessStreamWriter> {
        let _span = world.metrics().phase(crate::driver::PHASE_OUTPUT);
        Ok(TessStreamWriter {
            inner: diy::io::BlockFileWriter::create(world, path)?,
        })
    }

    /// Serialize and write one wave of finished blocks (collective; ranks
    /// with nothing ready this wave pass an empty slice).
    pub fn write_wave(
        &mut self,
        world: &mut World,
        blocks: &[(u64, &MeshBlock)],
    ) -> io::Result<()> {
        let _span = world.metrics().phase(crate::driver::PHASE_OUTPUT);
        let payloads: Vec<(u64, Vec<u8>)> =
            blocks.iter().map(|&(gid, b)| (gid, b.to_bytes())).collect();
        self.inner.write_wave(world, &payloads)
    }

    /// Write the index and return global totals (collective).
    pub fn finish(self, world: &mut World) -> io::Result<StreamWriteSummary> {
        let _span = world.metrics().phase(crate::driver::PHASE_OUTPUT);
        let local = (self.inner.local_blocks(), self.inner.local_payload_bytes());
        let file_bytes = self.inner.finish(world)?;
        let (blocks, payload_bytes) = world.all_reduce(local, |a, b| (a.0 + b.0, a.1 + b.1));
        Ok(StreamWriteSummary {
            blocks,
            payload_bytes,
            file_bytes,
        })
    }
}

/// Serial read of every block.
pub fn read_tessellation(path: &Path) -> io::Result<Vec<MeshBlock>> {
    decode_records(path, &diy::io::read_index(path)?)
}

/// Parallel read: each rank receives a contiguous partition of the blocks.
pub fn read_tessellation_parallel(world: &mut World, path: &Path) -> io::Result<Vec<MeshBlock>> {
    let index = diy::io::read_index(path)?;
    decode_records(
        path,
        diy::io::rank_share(&index, world.rank(), world.nranks()),
    )
}

/// Decode each block as soon as its payload is read and checked, so only
/// one raw payload is ever held beside the decoded blocks.
fn decode_records(path: &Path, records: &[diy::io::BlockRecord]) -> io::Result<Vec<MeshBlock>> {
    diy::io::decode_blocks(path, records, |_, bytes| {
        MeshBlock::from_bytes(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{tessellate, tessellate_serial};
    use crate::params::TessParams;
    use diy::comm::Runtime;
    use diy::decomposition::{Assignment, Decomposition};
    use geometry::{Aabb, Vec3};

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tess-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn lattice(n: usize) -> Vec<(u64, Vec3)> {
        (0..n * n * n)
            .map(|idx| {
                let i = idx % n;
                let j = (idx / n) % n;
                let k = idx / (n * n);
                (
                    idx as u64,
                    Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5),
                )
            })
            .collect()
    }

    #[test]
    fn serial_write_read_roundtrip() {
        let (block, _) = tessellate_serial(
            &lattice(4),
            Aabb::cube(4.0),
            [true; 3],
            &TessParams::default().with_ghost(2.0),
        );
        let path = tmpfile("serial.tess");
        let block2 = block.clone();
        Runtime::run(1, move |w| {
            let blocks: BTreeMap<u64, MeshBlock> = [(0u64, block2.clone())].into_iter().collect();
            write_tessellation(w, &path, &blocks).unwrap();
        });
        let back = read_tessellation(&tmpfile("serial.tess")).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], block);
    }

    #[test]
    fn a_corrupt_payload_is_a_typed_error_for_the_rank_that_reads_it() {
        let (block, _) = tessellate_serial(
            &lattice(3),
            Aabb::cube(3.0),
            [true; 3],
            &TessParams::default().with_ghost(2.0),
        );
        let path = tmpfile("corrupt.tess");
        let blocks: BTreeMap<u64, MeshBlock> = (0..2u64)
            .map(|gid| {
                (
                    gid,
                    MeshBlock {
                        gid,
                        ..block.clone()
                    },
                )
            })
            .collect();
        Runtime::run(1, |w| {
            write_tessellation(w, &path, &blocks).unwrap();
        });
        // flip a byte inside block 1's payload
        let record = diy::io::read_index(&path).unwrap()[1];
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(record.offset + record.len / 2) as usize] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let err = read_tessellation(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let per_rank = Runtime::run(2, |w| read_tessellation_parallel(w, &path));
        assert_eq!(per_rank[0].as_ref().unwrap(), &[blocks[&0].clone()]);
        let err = per_rank[1].as_ref().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parallel_write_serial_read() {
        let n = 4;
        let particles = lattice(n);
        let domain = Aabb::cube(n as f64);
        let dec = Decomposition::regular(domain, 4, [true; 3]);
        let path = tmpfile("parallel.tess");
        let path2 = path.clone();
        let totals = Runtime::run(2, move |world| {
            let asn = Assignment::new(4, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            let params = TessParams::default().with_ghost(2.0);
            let r = tessellate(world, &dec, &asn, &local, &params);
            let bytes = write_tessellation(world, &path2, &r.blocks).unwrap();
            (
                bytes,
                r.blocks.values().map(|b| b.cells.len()).sum::<usize>(),
            )
        });
        // both ranks report the same file size
        assert_eq!(totals[0].0, totals[1].0);
        let written_cells: usize = totals.iter().map(|t| t.1).sum();

        let back = read_tessellation(&path).unwrap();
        assert_eq!(back.len(), 4);
        let read_cells: usize = back.iter().map(|b| b.cells.len()).sum();
        assert_eq!(read_cells, written_cells);
        assert_eq!(read_cells, n * n * n);
        // gids are sorted and bounds tile the domain
        let gids: Vec<u64> = back.iter().map(|b| b.gid).collect();
        assert_eq!(gids, vec![0, 1, 2, 3]);
        let vol: f64 = back.iter().map(|b| b.bounds.volume()).sum();
        assert!((vol - domain.volume()).abs() < 1e-9);
    }

    #[test]
    fn parallel_read_at_different_rank_count() {
        let path = tmpfile("reread.tess");
        // reuse the file from a fresh write
        let n = 4;
        let particles = lattice(n);
        let domain = Aabb::cube(n as f64);
        let dec = Decomposition::regular(domain, 4, [true; 3]);
        let path2 = path.clone();
        Runtime::run(4, move |world| {
            let asn = Assignment::new(4, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            let params = TessParams::default().with_ghost(2.0);
            let r = tessellate(world, &dec, &asn, &local, &params);
            write_tessellation(world, &path2, &r.blocks).unwrap();
        });
        let path3 = path.clone();
        let counts = Runtime::run(3, move |world| {
            read_tessellation_parallel(world, &path3)
                .unwrap()
                .iter()
                .map(|b| b.cells.len())
                .sum::<usize>()
        });
        assert_eq!(counts.iter().sum::<usize>(), n * n * n);
    }
}
