//! Collective parallel block I/O to a single shared file.
//!
//! Mirrors DIY's I/O layer: every rank writes its blocks' payloads at
//! disjoint offsets computed by an exclusive scan, then rank 0 appends a
//! footer indexing every block. A file written at one rank count can be read
//! back at any other rank count (blocks are addressed by gid, not rank).
//!
//! Layout (version 2):
//!
//! ```text
//! [magic u64][version u32][flags u32]              header (16 bytes)
//! [block payloads ...]                             waves at scan offsets
//! [n u64][(gid, offset, len, checksum)*n]          footer (u64 each)
//! [footer_offset u64][footer_hash u64][n u64][magic u64]   trailer (32 bytes)
//! ```
//!
//! Every byte of the file is covered by some validation: the header fields
//! are checked exactly, each payload carries an FNV-1a checksum in its
//! footer record, the footer is covered by `footer_hash`, and every
//! trailer field is either checked against the magic/count or used to
//! locate the hashed footer. Corrupting or truncating any single byte
//! therefore surfaces as a typed [`io::Error`] from the readers, never a
//! panic or silently wrong data (see `crates/diy/tests/blockfile_fuzz.rs`).
//!
//! Writes go through [`BlockFileWriter`] in collective *waves*: each wave
//! is one exclusive scan that lands every rank's payloads at disjoint
//! offsets after the previous wave's, so a streaming driver can write
//! blocks as they finish instead of accumulating them (the one-shot
//! [`write_blocks`] is a single-wave special case). The footer is ordered
//! canonically by gid regardless of which rank wrote which block in which
//! wave.
//!
//! Reads go through [`decode_blocks`]: one payload at a time is read,
//! checked against its checksum and handed to the caller's decoder before
//! the next is read. A collective read takes the [`rank_share`] of the
//! gid-sorted index, at any rank count.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::codec::{Decode, Encode, Reader};
use crate::comm::World;

const MAGIC: u64 = 0x5445_5353_4449_5931; // "TESSDIY1"
const VERSION: u32 = 2;
const HEADER_LEN: u64 = 16;
const TRAILER_LEN: u64 = 32;

/// FNV-1a over `bytes` — the file format's checksum. Not cryptographic;
/// it exists to turn bit rot and torn writes into typed errors.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One footer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRecord {
    pub gid: u64,
    pub offset: u64,
    pub len: u64,
    /// FNV-1a of the payload bytes.
    pub checksum: u64,
}

impl Encode for BlockRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.gid.encode(buf);
        self.offset.encode(buf);
        self.len.encode(buf);
        self.checksum.encode(buf);
    }
}

impl Decode for BlockRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, crate::codec::CodecError> {
        Ok(BlockRecord {
            gid: u64::decode(r)?,
            offset: u64::decode(r)?,
            len: u64::decode(r)?,
            checksum: u64::decode(r)?,
        })
    }
}

/// Collective block-streamed writer: create the file once, write any
/// number of waves, then finish. Every method is collective over the
/// world — all ranks must call it the same number of times (a rank with
/// nothing to contribute passes an empty wave).
pub struct BlockFileWriter {
    file: File,
    records: Vec<BlockRecord>,
    /// End of the payload region so far — identical on every rank because
    /// each wave advances it by the wave's *global* byte count.
    cursor: u64,
}

impl BlockFileWriter {
    /// Create/truncate `path` and write the header (collective).
    pub fn create(world: &mut World, path: &Path) -> io::Result<BlockFileWriter> {
        // Rank 0 creates/truncates; everyone else opens after the barrier.
        if world.rank() == 0 {
            let file = File::create(path)?;
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            MAGIC.encode(&mut header);
            VERSION.encode(&mut header);
            0u32.encode(&mut header); // flags, must be zero
            file.write_all_at(&header, 0)?;
        }
        world.barrier();
        let file = OpenOptions::new().write(true).open(path)?;
        Ok(BlockFileWriter {
            file,
            records: Vec::new(),
            cursor: HEADER_LEN,
        })
    }

    /// Write one wave of `(gid, payload)` blocks at disjoint offsets after
    /// everything already written (collective: one exclusive scan).
    pub fn write_wave(&mut self, world: &mut World, blocks: &[(u64, Vec<u8>)]) -> io::Result<()> {
        let my_size: u64 = blocks.iter().map(|(_, b)| b.len() as u64).sum();
        let (my_offset, total) = world.exclusive_scan_u64(my_size);
        let mut off = self.cursor + my_offset;
        for (gid, payload) in blocks {
            self.file.write_all_at(payload, off)?;
            self.records.push(BlockRecord {
                gid: *gid,
                offset: off,
                len: payload.len() as u64,
                checksum: fnv1a(payload),
            });
            off += payload.len() as u64;
        }
        self.cursor += total;
        Ok(())
    }

    /// Payload bytes this rank has written so far.
    pub fn local_payload_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.len).sum()
    }

    /// Blocks this rank has written so far.
    pub fn local_blocks(&self) -> u64 {
        self.records.len() as u64
    }

    /// Gather the index, write footer + trailer, and return the total file
    /// bytes (collective; the same value on every rank).
    pub fn finish(self, world: &mut World) -> io::Result<u64> {
        // all_gather (not gather-to-0) so every rank derives the identical
        // canonical footer and total independently.
        let gathered: Vec<Vec<BlockRecord>> = world.all_gather(&self.records);
        let mut all: Vec<BlockRecord> = gathered.into_iter().flatten().collect();
        all.sort_by_key(|r| r.gid);
        if all.windows(2).any(|w| w[0].gid == w[1].gid) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "duplicate gid written to block file",
            ));
        }
        let footer = all.to_bytes();
        if world.rank() == 0 {
            let mut tail = footer.clone();
            self.cursor.encode(&mut tail); // footer_offset
            fnv1a(&footer).encode(&mut tail);
            (all.len() as u64).encode(&mut tail);
            MAGIC.encode(&mut tail);
            self.file.write_all_at(&tail, self.cursor)?;
        }
        // the file is complete on every rank's return
        world.barrier();
        Ok(self.cursor + footer.len() as u64 + TRAILER_LEN)
    }
}

/// Collectively write `blocks` (gid, payload) from every rank into `path`
/// as a single wave.
///
/// Returns the total bytes written (same value on every rank). Must be
/// called by all ranks of `world`.
pub fn write_blocks(world: &mut World, path: &Path, blocks: &[(u64, Vec<u8>)]) -> io::Result<u64> {
    let mut w = BlockFileWriter::create(world, path)?;
    w.write_wave(world, blocks)?;
    w.finish(world)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Read and fully validate the footer index of a block file: magic,
/// version, flags, trailer, footer hash, record count, canonical gid
/// order, and per-record bounds. Payload checksums are verified by
/// [`read_block`].
pub fn read_index(path: &Path) -> io::Result<Vec<BlockRecord>> {
    let mut file = File::open(path)?;
    let flen = file.seek(SeekFrom::End(0))?;
    if flen < HEADER_LEN + TRAILER_LEN {
        return Err(bad("file too short"));
    }

    let mut header = [0u8; HEADER_LEN as usize];
    file.read_exact_at(&mut header, 0)?;
    let mut r = Reader::new(&header);
    if u64::decode(&mut r).map_err(invalid)? != MAGIC {
        return Err(bad("bad header magic"));
    }
    let version = u32::decode(&mut r).map_err(invalid)?;
    if version != VERSION {
        return Err(bad(&format!("unsupported version {version}")));
    }
    if u32::decode(&mut r).map_err(invalid)? != 0 {
        return Err(bad("nonzero header flags"));
    }

    let mut trailer = [0u8; TRAILER_LEN as usize];
    file.read_exact_at(&mut trailer, flen - TRAILER_LEN)?;
    let mut r = Reader::new(&trailer);
    let footer_offset = u64::decode(&mut r).map_err(invalid)?;
    let footer_hash = u64::decode(&mut r).map_err(invalid)?;
    let count = u64::decode(&mut r).map_err(invalid)?;
    if u64::decode(&mut r).map_err(invalid)? != MAGIC {
        return Err(bad("bad trailer magic"));
    }
    if footer_offset < HEADER_LEN || footer_offset > flen - TRAILER_LEN {
        return Err(bad("footer offset out of bounds"));
    }

    let footer_len = flen - TRAILER_LEN - footer_offset;
    let mut footer = vec![0u8; footer_len as usize];
    file.read_exact_at(&mut footer, footer_offset)?;
    if fnv1a(&footer) != footer_hash {
        return Err(bad("footer checksum mismatch"));
    }
    let mut r = Reader::new(&footer);
    let records = Vec::<BlockRecord>::decode(&mut r).map_err(invalid)?;
    if r.remaining() != 0 {
        return Err(bad("trailing bytes after footer"));
    }
    if records.len() as u64 != count {
        return Err(bad("record count mismatch"));
    }
    if records.windows(2).any(|w| w[0].gid >= w[1].gid) {
        return Err(bad("footer gids not strictly increasing"));
    }
    for rec in &records {
        let end = rec.offset.checked_add(rec.len);
        if rec.offset < HEADER_LEN || end.is_none() || end.unwrap() > footer_offset {
            return Err(bad("block record out of bounds"));
        }
    }
    Ok(records)
}

/// Read one block's payload from an open file and verify its checksum.
fn read_payload(file: &File, record: &BlockRecord) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; record.len as usize];
    file.read_exact_at(&mut buf, record.offset)?;
    if fnv1a(&buf) != record.checksum {
        return Err(bad(&format!(
            "payload checksum mismatch (gid {})",
            record.gid
        )));
    }
    Ok(buf)
}

/// Read one block's payload and verify its checksum.
pub fn read_block(path: &Path, record: &BlockRecord) -> io::Result<Vec<u8>> {
    read_payload(&File::open(path)?, record)
}

/// Read the payloads of `records` in order and hand each to `decode` the
/// moment its checksum passes, before the next is read: a decoder that
/// drops the bytes leaves at most one raw payload live at a time, only as
/// large as the block in hand. The first checksum or decode error stops
/// the read.
pub fn decode_blocks<T>(
    path: &Path,
    records: &[BlockRecord],
    mut decode: impl FnMut(&BlockRecord, Vec<u8>) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let file = File::open(path)?;
    records
        .iter()
        .map(|r| decode(r, read_payload(&file, r)?))
        .collect()
}

/// Read all blocks sequentially (serial convenience).
pub fn read_all_blocks(path: &Path) -> io::Result<Vec<(u64, Vec<u8>)>> {
    decode_blocks(path, &read_index(path)?, |r, bytes| Ok((r.gid, bytes)))
}

/// The contiguous share of `index` a collective read gives `rank` of
/// `nranks` — independent of the rank count the file was written at.
pub fn rank_share(index: &[BlockRecord], rank: usize, nranks: usize) -> &[BlockRecord] {
    let n = index.len();
    &index[rank * n / nranks..(rank + 1) * n / nranks]
}

fn invalid(e: crate::codec::CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Runtime;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("diy-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_single_rank() {
        let path = tmpfile("single.diy");
        Runtime::run(1, |w| {
            let blocks = vec![(0u64, vec![1u8, 2, 3]), (1u64, vec![9u8; 100])];
            write_blocks(w, &path, &blocks).unwrap();
        });
        let back = read_all_blocks(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], (0, vec![1, 2, 3]));
        assert_eq!(back[1], (1, vec![9u8; 100]));
    }

    #[test]
    fn roundtrip_multi_rank_disjoint_offsets() {
        let path = tmpfile("multi.diy");
        Runtime::run(4, |w| {
            // each rank writes 2 blocks with rank-dependent sizes
            let blocks: Vec<(u64, Vec<u8>)> = (0..2)
                .map(|i| {
                    let gid = (w.rank() * 2 + i) as u64;
                    (gid, vec![gid as u8; 10 + w.rank() * 7])
                })
                .collect();
            write_blocks(w, &path, &blocks).unwrap();
        });
        let back = read_all_blocks(&path).unwrap();
        assert_eq!(back.len(), 8);
        for (gid, payload) in back {
            let rank = (gid / 2) as usize;
            assert_eq!(payload, vec![gid as u8; 10 + rank * 7]);
        }
    }

    #[test]
    fn index_is_sorted_by_gid() {
        let path = tmpfile("sorted.diy");
        Runtime::run(3, |w| {
            // write gids in reverse order per rank
            let gid = (2 - w.rank()) as u64;
            let blocks = vec![(gid, vec![gid as u8])];
            write_blocks(w, &path, &blocks).unwrap();
        });
        let idx = read_index(&path).unwrap();
        let gids: Vec<u64> = idx.iter().map(|r| r.gid).collect();
        assert_eq!(gids, vec![0, 1, 2]);
    }

    #[test]
    fn parallel_read_covers_all_blocks_any_rank_count() {
        let path = tmpfile("reread.diy");
        Runtime::run(4, |w| {
            let gid = w.rank() as u64;
            write_blocks(w, &path, &[(gid, vec![gid as u8; 5])]).unwrap();
        });
        // read back with a different rank count
        let per_rank = Runtime::run(3, |w| {
            let index = read_index(&path).unwrap();
            let share = rank_share(&index, w.rank(), w.nranks());
            decode_blocks(&path, share, |r, bytes| Ok((r.gid, bytes))).unwrap()
        });
        let mut all: Vec<u64> = per_rank.into_iter().flatten().map(|(g, _)| g).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn corrupt_file_is_rejected() {
        let path = tmpfile("corrupt.diy");
        std::fs::write(
            &path,
            b"not a block file, definitely too weird, and long enough",
        )
        .unwrap();
        assert!(read_index(&path).is_err());
        std::fs::write(&path, b"tiny").unwrap();
        assert!(read_index(&path).is_err());
    }

    #[test]
    fn empty_rank_participates() {
        let path = tmpfile("empty-rank.diy");
        Runtime::run(3, |w| {
            // rank 1 writes nothing
            let blocks: Vec<(u64, Vec<u8>)> = if w.rank() == 1 {
                vec![]
            } else {
                vec![(w.rank() as u64, vec![7u8; 3])]
            };
            write_blocks(w, &path, &blocks).unwrap();
        });
        let back = read_all_blocks(&path).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn waved_writes_match_one_shot_content() {
        let one = tmpfile("oneshot.diy");
        let waved = tmpfile("waved.diy");
        let blocks_of = |rank: usize| -> Vec<(u64, Vec<u8>)> {
            (0..3)
                .map(|i| {
                    let gid = (rank * 3 + i) as u64;
                    (gid, vec![gid as u8; 5 + (gid as usize * 13) % 40])
                })
                .collect()
        };
        Runtime::run(2, |w| {
            write_blocks(w, &one, &blocks_of(w.rank())).unwrap();
        });
        let totals = Runtime::run(2, |w| {
            // three waves with uneven per-rank splits, including an empty one
            let blocks = blocks_of(w.rank());
            let mut writer = BlockFileWriter::create(w, &waved).unwrap();
            writer.write_wave(w, &blocks[..1]).unwrap();
            let rest: &[(u64, Vec<u8>)] = if w.rank() == 0 { &blocks[1..] } else { &[] };
            writer.write_wave(w, rest).unwrap();
            let rest2: &[(u64, Vec<u8>)] = if w.rank() == 0 { &[] } else { &blocks[1..] };
            writer.write_wave(w, rest2).unwrap();
            assert_eq!(writer.local_blocks(), 3);
            writer.finish(w).unwrap()
        });
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[0], std::fs::metadata(&waved).unwrap().len());
        // same logical content, canonical order, regardless of wave layout
        assert_eq!(
            read_all_blocks(&one).unwrap(),
            read_all_blocks(&waved).unwrap()
        );
    }

    #[test]
    fn reported_total_matches_file_length() {
        let path = tmpfile("total.diy");
        let totals = Runtime::run(3, |w| {
            let gid = w.rank() as u64;
            write_blocks(w, &path, &[(gid, vec![gid as u8; 11 + w.rank()])]).unwrap()
        });
        assert_eq!(totals[0], std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn payload_corruption_is_detected() {
        let path = tmpfile("flip.diy");
        Runtime::run(1, |w| {
            write_blocks(w, &path, &[(0u64, vec![5u8; 64]), (1u64, vec![6u8; 64])]).unwrap();
        });
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + 10] ^= 0x40; // inside block 0's payload
        std::fs::write(&path, &bytes).unwrap();
        let idx = read_index(&path).unwrap(); // index itself is intact
        let err = read_block(&path, &idx[0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(read_all_blocks(&path).is_err());
    }

    #[test]
    fn version_and_flags_are_enforced() {
        let path = tmpfile("version.diy");
        Runtime::run(1, |w| {
            write_blocks(w, &path, &[(0u64, vec![1u8; 8])]).unwrap();
        });
        let pristine = std::fs::read(&path).unwrap();
        // version byte
        let mut bytes = pristine.clone();
        bytes[8] = 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index(&path)
            .unwrap_err()
            .to_string()
            .contains("version"));
        // flags byte
        let mut bytes = pristine.clone();
        bytes[12] = 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index(&path).unwrap_err().to_string().contains("flags"));
    }

    #[test]
    fn footer_and_trailer_corruption_is_detected() {
        let path = tmpfile("tail.diy");
        Runtime::run(1, |w| {
            write_blocks(w, &path, &[(0u64, vec![1u8; 32]), (7u64, vec![2u8; 32])]).unwrap();
        });
        let pristine = std::fs::read(&path).unwrap();
        let n = pristine.len();
        // every byte from the footer to the end of the file
        for i in (HEADER_LEN as usize + 64)..n {
            let mut bytes = pristine.clone();
            bytes[i] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert!(read_index(&path).is_err(), "flip at byte {i} undetected");
        }
    }
}
