//! Out-of-core ground truth (`kind = 3`): the pairwise distance matrix
//! computed and stored as upper-triangle *tiles*, so n is bounded by disk,
//! not by the n²·8 bytes a dense [`tmn_traj::DistanceMatrix`] needs.
//!
//! ## Tiling
//!
//! With block size `t` and `nb = ⌈n/t⌉` block rows, only the `nb·(nb+1)/2`
//! upper-triangle tiles `(bi, bj)`, `bi ≤ bj`, are stored, in row-major
//! triangle order. An off-diagonal tile holds the full `rows × cols` f64
//! rectangle; a diagonal tile holds its full square (zero diagonal, lower
//! half mirrored in-tile) so row reads never straddle a fold. Every cell
//! `i < j` comes from the same [`Metric::distances_into`] kernel the in-RAM
//! path uses, which sets each cell to the bits of `metric.distance(i, j)`;
//! that is why the two paths are bitwise-equal (differentially tested, and
//! checked against `distance` itself, in `tests/blocked_differential.rs`).
//!
//! Peak memory while *building* is O(threads · t²) — the tiles in flight —
//! plus the tile directory; never O(n²).
//!
//! ## Layout after the common fields (see [`crate::format`])
//!
//! ```text
//! bytes 12..16  tile u32          — block edge length t ≥ 1
//! bytes 16..24  n u64             — matrix dimension
//! bytes 24..32  dir_off u64       — where the tile directory starts
//! bytes 32..36  dir_crc u32       — CRC32 of the directory section
//! bytes 36..40  header_crc u32    — CRC32 of bytes 0..36
//! bytes 40..64  zeros
//! byte  64..dir_off               tile payloads (f64 LE), canonical order,
//!                                 contiguous — offsets are re-derived and
//!                                 cross-checked at open
//! byte  dir_off..                 directory: per tile
//!                                 { off u64, rows u32, cols u32, crc u32 }
//! ```
//!
//! ## Reads
//!
//! Reads go through the mmap: the OS page cache *is* the block cache for
//! payload bytes, and a per-tile "CRC verified" bitset makes each tile pay
//! its integrity scan exactly once per open. Structural corruption is
//! rejected at [`open`](BlockedDistanceMatrix::open); a payload CRC
//! mismatch discovered on first touch panics with the tile named — the same
//! contract as an in-RAM matrix whose buffer rotted, except it is detected.

use crate::format::{
    cast_f64, check_header, crc32, read_u32, read_u64, StagedFile, StoreError, HEADER_LEN,
    KIND_TILES, MAGIC, VERSION,
};
use crate::mmap::Mmap;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::{GroundTruth, Trajectory};

const CRC_END: usize = 36;
const DIR_ENTRY_BYTES: usize = 20;

/// Default block edge: 256² f64 = 512 KiB per tile in flight.
pub const DEFAULT_TILE: usize = 256;

#[derive(Debug, Clone, Copy)]
struct TileEntry {
    off: usize,
    rows: usize,
    cols: usize,
    crc: u32,
}

/// A tiled on-disk pairwise distance matrix, readable through
/// [`GroundTruth`] exactly like the in-RAM [`tmn_traj::DistanceMatrix`].
pub struct BlockedDistanceMatrix {
    map: Arc<Mmap>,
    n: usize,
    tile: usize,
    nb: usize,
    entries: Vec<TileEntry>,
    /// One bit per tile: payload CRC already verified this open.
    verified: Mutex<Vec<u64>>,
}

impl std::fmt::Debug for BlockedDistanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockedDistanceMatrix")
            .field("n", &self.n)
            .field("tile", &self.tile)
            .field("tiles", &self.entries.len())
            .finish()
    }
}

/// Expected edge lengths of block `b` out of `nb` over dimension `n`.
fn block_extent(b: usize, n: usize, tile: usize) -> (usize, usize) {
    let start = b * tile;
    (start, n.min(start + tile) - start)
}

impl BlockedDistanceMatrix {
    /// Compute the full pairwise matrix for `trajectories` into `path`,
    /// tiled, with `threads` workers computing tiles in parallel, then
    /// reopen it. Each tile row is one [`Metric::distances_into`] call, so
    /// cell values are bitwise-identical to
    /// [`tmn_traj::DistanceMatrix::compute`] on the same inputs.
    ///
    /// The file is written under a temporary name and renamed over `path`
    /// once complete: a matrix already open on `path` keeps reading the old
    /// file, and a failed or crashed build leaves it in place.
    pub fn compute(
        path: &Path,
        trajectories: &[Trajectory],
        metric: Metric,
        params: &MetricParams,
        threads: usize,
        tile: usize,
    ) -> Result<BlockedDistanceMatrix, StoreError> {
        assert!(tile >= 1, "tile edge must be at least 1");
        let n = trajectories.len();
        let nb = n.div_ceil(tile);
        let total_tiles = nb * (nb + 1) / 2;
        let threads = threads.max(1);

        let (staged, file) = StagedFile::create(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&[0u8; HEADER_LEN])?;

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::sync_channel::<(usize, Vec<f64>)>(threads);
        let entries = std::thread::scope(|s| -> Result<Vec<TileEntry>, StoreError> {
            // Move the receiver into the scope: any early return drops it,
            // which unblocks workers stuck on a full channel so the scope
            // can join them instead of deadlocking.
            let rx = rx;
            for _ in 0..threads.min(total_tiles.max(1)) {
                let tx = tx.clone();
                let next = &next;
                s.spawn(move || loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= total_tiles {
                        return;
                    }
                    let (bi, bj) = tile_coords(t, nb);
                    let payload = compute_tile(trajectories, metric, params, bi, bj, n, tile);
                    if tx.send((t, payload)).is_err() {
                        return; // writer bailed
                    }
                });
            }
            drop(tx);

            // Single writer: receive out-of-order, emit in canonical order so
            // payload offsets on disk are deterministic. The reorder buffer
            // holds at most ~`threads` tiles (workers claim indices in order
            // and the sync_channel back-pressures them).
            let mut entries: Vec<TileEntry> = Vec::with_capacity(total_tiles);
            let mut pending: std::collections::BTreeMap<usize, Vec<f64>> =
                std::collections::BTreeMap::new();
            let mut expect = 0usize;
            let mut off = HEADER_LEN;
            let mut scratch: Vec<u8> = Vec::new();
            while expect < total_tiles {
                let Ok((t, payload)) = rx.recv() else {
                    return Err(StoreError::Corrupt("tile worker disappeared"));
                };
                pending.insert(t, payload);
                while let Some(payload) = pending.remove(&expect) {
                    scratch.clear();
                    for v in &payload {
                        scratch.extend_from_slice(&v.to_le_bytes());
                    }
                    let (bi, bj) = tile_coords(expect, nb);
                    let (_, rows) = block_extent(bi, n, tile);
                    let (_, cols) = block_extent(bj, n, tile);
                    let crc = crc32(&scratch);
                    out.write_all(&scratch)?;
                    entries.push(TileEntry { off, rows, cols, crc });
                    off += scratch.len();
                    expect += 1;
                }
            }
            Ok(entries)
        })?;

        // Directory + header.
        let dir_off = entries.last().map(|e| e.off + e.rows * e.cols * 8).unwrap_or(HEADER_LEN);
        let mut dir = Vec::with_capacity(entries.len() * DIR_ENTRY_BYTES);
        for e in &entries {
            dir.extend_from_slice(&(e.off as u64).to_le_bytes());
            dir.extend_from_slice(&(e.rows as u32).to_le_bytes());
            dir.extend_from_slice(&(e.cols as u32).to_le_bytes());
            dir.extend_from_slice(&e.crc.to_le_bytes());
        }
        out.write_all(&dir)?;
        let mut file = out.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&KIND_TILES.to_le_bytes());
        header[12..16].copy_from_slice(&(tile as u32).to_le_bytes());
        header[16..24].copy_from_slice(&(n as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(dir_off as u64).to_le_bytes());
        header[32..36].copy_from_slice(&crc32(&dir).to_le_bytes());
        let hcrc = crc32(&header[..CRC_END]);
        header[36..40].copy_from_slice(&hcrc.to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        staged.commit(file)?;

        Self::open(path)
    }

    /// Map and validate an existing tile file: header CRC, directory CRC,
    /// and the full offset/shape reconstruction (every entry must sit
    /// exactly where the canonical writer would have put it). Payload CRCs
    /// are checked lazily, once per tile; [`verify`] scans them all.
    ///
    /// [`verify`]: BlockedDistanceMatrix::verify
    pub fn open(path: &Path) -> Result<BlockedDistanceMatrix, StoreError> {
        let map = Mmap::open(path)?;
        let (n, tile, nb, entries) = Self::parse(&map)?;
        let words = entries.len().div_ceil(64);
        Ok(BlockedDistanceMatrix {
            map: Arc::new(map),
            n,
            tile,
            nb,
            entries,
            verified: Mutex::new(vec![0; words]),
        })
    }

    fn parse(bytes: &[u8]) -> Result<(usize, usize, usize, Vec<TileEntry>), StoreError> {
        check_header(bytes, KIND_TILES, CRC_END)?;
        let tile = read_u32(bytes, 12) as usize;
        let n = read_u64(bytes, 16);
        let dir_off = read_u64(bytes, 24);
        if tile == 0 {
            return Err(StoreError::Corrupt("zero tile edge"));
        }
        if n > usize::MAX as u64 / 8 {
            return Err(StoreError::Corrupt("matrix dimension overflow"));
        }
        let n = n as usize;
        let nb = n.div_ceil(tile);
        let total_tiles = (nb as u128) * (nb as u128 + 1) / 2;
        let dir_len = total_tiles * DIR_ENTRY_BYTES as u128;
        if dir_off < HEADER_LEN as u64 {
            return Err(StoreError::Corrupt("directory inside header"));
        }
        let end = dir_off as u128 + dir_len;
        if end > usize::MAX as u128 {
            return Err(StoreError::Corrupt("directory extent overflow"));
        }
        match (bytes.len() as u128).checked_sub(end) {
            None => return Err(StoreError::Truncated),
            Some(0) => {}
            Some(_) => return Err(StoreError::Corrupt("trailing bytes after directory")),
        }
        let dir = &bytes[dir_off as usize..];
        if crc32(dir) != read_u32(bytes, 32) {
            return Err(StoreError::CrcMismatch { what: "tile directory" });
        }
        // Reconstruct the canonical layout and demand the directory matches
        // it exactly — offsets, shapes, and total payload extent.
        let mut entries = Vec::with_capacity(total_tiles as usize);
        let mut off = HEADER_LEN;
        for (t, rec) in dir.chunks_exact(DIR_ENTRY_BYTES).enumerate() {
            let e_off = u64::from_le_bytes(rec[0..8].try_into().expect("8-byte field"));
            let rows = u32::from_le_bytes(rec[8..12].try_into().expect("4-byte field")) as usize;
            let cols = u32::from_le_bytes(rec[12..16].try_into().expect("4-byte field")) as usize;
            let crc = u32::from_le_bytes(rec[16..20].try_into().expect("4-byte field"));
            let (bi, bj) = tile_coords(t, nb);
            let (_, want_rows) = block_extent(bi, n, tile);
            let (_, want_cols) = block_extent(bj, n, tile);
            if rows != want_rows || cols != want_cols {
                return Err(StoreError::Corrupt("tile shape mismatch"));
            }
            if e_off as u128 != off as u128 {
                return Err(StoreError::Corrupt("tile offset mismatch"));
            }
            entries.push(TileEntry { off, rows, cols, crc });
            off += rows * cols * 8;
        }
        if off as u64 != dir_off {
            return Err(StoreError::Corrupt("payload extent mismatch"));
        }
        Ok((n, tile, nb, entries))
    }

    /// Validate a tile-file image in memory: full structural parse plus
    /// every payload CRC. This is the whole-file integrity check the fuzz
    /// suite drives; `open` + lazy per-tile verification is the same logic
    /// spread over time.
    pub fn validate_bytes(bytes: &[u8]) -> Result<(), StoreError> {
        let (_, _, _, entries) = Self::parse(bytes)?;
        for e in &entries {
            if crc32(&bytes[e.off..e.off + e.rows * e.cols * 8]) != e.crc {
                return Err(StoreError::CrcMismatch { what: "tile payload" });
            }
        }
        Ok(())
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Block edge length.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Stored tiles (`⌈n/tile⌉·(⌈n/tile⌉+1)/2`).
    pub fn tiles(&self) -> usize {
        self.entries.len()
    }

    /// CRC-scan every tile payload (each at most once per open).
    pub fn verify(&self) -> Result<(), StoreError> {
        for t in 0..self.entries.len() {
            self.tile_slice(t)?;
        }
        Ok(())
    }

    /// Payload of tile `t`, zero-copy, CRC-verified on first touch.
    fn tile_slice(&self, t: usize) -> Result<&[f64], StoreError> {
        let e = self.entries[t];
        let raw = &self.map[e.off..e.off + e.rows * e.cols * 8];
        let (word, bit) = (t / 64, 1u64 << (t % 64));
        let already = {
            let v = self.verified.lock().expect("verified bitset poisoned");
            v[word] & bit != 0
        };
        if !already {
            if crc32(raw) != e.crc {
                return Err(StoreError::CrcMismatch { what: "tile payload" });
            }
            self.verified.lock().expect("verified bitset poisoned")[word] |= bit;
        }
        cast_f64(raw)
    }

    /// Inverse of [`tile_coords`]: block rows before `bi` hold
    /// `nb + (nb-1) + .. + (nb-bi+1) = bi·(2nb − bi + 1)/2` tiles.
    fn tile_of(&self, bi: usize, bj: usize) -> usize {
        debug_assert!(bi <= bj && bj < self.nb);
        bi * (2 * self.nb - bi + 1) / 2 + (bj - bi)
    }

    /// Distance between `i` and `j` (symmetric).
    ///
    /// # Panics
    /// On out-of-range indices, or if the tile's payload CRC fails on first
    /// touch (bit rot after `open`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        let (i, j) = if i / self.tile > j / self.tile { (j, i) } else { (i, j) };
        let (bi, bj) = (i / self.tile, j / self.tile);
        let t = self.tile_of(bi, bj);
        let e = self.entries[t];
        let slice = self.tile_slice(t).expect("corrupt ground-truth tile");
        slice[(i - bi * self.tile) * e.cols + (j - bj * self.tile)]
    }

    /// Overwrite `out` with row `i` (all `n` distances), reading one tile
    /// row at a time — never materializing more than the touched tiles.
    pub fn row_into(&self, i: usize, out: &mut Vec<f64>) {
        assert!(i < self.n, "row out of range");
        out.clear();
        out.reserve(self.n);
        let bi = i / self.tile;
        for bj in 0..self.nb {
            if bj >= bi {
                // Row segment lives in tile (bi, bj) as a contiguous run.
                let t = self.tile_of(bi, bj);
                let e = self.entries[t];
                let slice = self.tile_slice(t).expect("corrupt ground-truth tile");
                let r = i - bi * self.tile;
                out.extend_from_slice(&slice[r * e.cols..(r + 1) * e.cols]);
            } else {
                // Mirrored: tile (bj, bi) holds column (i - bi·tile).
                let t = self.tile_of(bj, bi);
                let e = self.entries[t];
                let slice = self.tile_slice(t).expect("corrupt ground-truth tile");
                let c = i - bi * self.tile;
                out.extend((0..e.rows).map(|r| slice[r * e.cols + c]));
            }
        }
    }

    /// Maximum entry, folding tile-by-tile (identical to the dense
    /// [`tmn_traj::DistanceMatrix::max_value`] — same value multiset, and
    /// `max` is order-independent on non-NaN data).
    pub fn max_value(&self) -> f64 {
        let mut m = 0.0f64;
        for t in 0..self.entries.len() {
            let slice = self.tile_slice(t).expect("corrupt ground-truth tile");
            m = slice.iter().copied().fold(m, f64::max);
        }
        m
    }
}

impl GroundTruth for BlockedDistanceMatrix {
    fn len(&self) -> usize {
        BlockedDistanceMatrix::len(self)
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        BlockedDistanceMatrix::get(self, i, j)
    }

    fn row_into(&self, i: usize, out: &mut Vec<f64>) {
        BlockedDistanceMatrix::row_into(self, i, out)
    }

    fn max_value(&self) -> f64 {
        BlockedDistanceMatrix::max_value(self)
    }
}

/// Canonical (bi, bj) of triangle tile index `t` (row-major over the upper
/// triangle of an `nb × nb` block grid).
fn tile_coords(t: usize, nb: usize) -> (usize, usize) {
    // Walk block rows; row bi owns (nb - bi) tiles. nb is at most a few
    // thousand for realistic corpora, so the linear walk is negligible next
    // to tile computation; correctness over cleverness.
    let mut rem = t;
    for bi in 0..nb {
        let row_tiles = nb - bi;
        if rem < row_tiles {
            return (bi, bi + rem);
        }
        rem -= row_tiles;
    }
    panic!("tile index {t} out of range for nb={nb}");
}

/// One tile's payload, row-major `rows × cols`. Row `i`'s cells `j > i`
/// come from one [`Metric::distances_into`] call over the contiguous column
/// run, as in the dense path; diagonal tiles fill `i > j` by in-tile mirror
/// and `i == j` with 0.
fn compute_tile(
    trajectories: &[Trajectory],
    metric: Metric,
    params: &MetricParams,
    bi: usize,
    bj: usize,
    n: usize,
    tile: usize,
) -> Vec<f64> {
    let (r0, rows) = block_extent(bi, n, tile);
    let (c0, cols) = block_extent(bj, n, tile);
    let mut payload = vec![0.0f64; rows * cols];
    for r in 0..rows {
        let i = r0 + r;
        // Cells j > i: the contiguous run from max(c0, i + 1) to the tile's
        // edge (the whole row off the diagonal).
        let lo = c0.max(i + 1);
        let (a, bs) = (&trajectories[i], &trajectories[lo..c0 + cols]);
        metric.distances_into(a, bs, params, &mut payload[r * cols + (lo - c0)..(r + 1) * cols]);
        // Diagonal tile lower half (r0 == c0): mirror of the upper half of
        // an earlier row (j − r0 < r); the cell j == i stays 0.
        for j in c0..i {
            payload[r * cols + (j - c0)] = payload[(j - r0) * cols + (i - c0)];
        }
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_traj::Point;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tmn-store-blocked-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trajs(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                (0..6)
                    .map(|j| Point::new(j as f64 * 0.1 + (i % 7) as f64 * 0.03, i as f64 * 0.05))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tile_coords_roundtrip() {
        for nb in [1usize, 2, 3, 5, 8] {
            let mut t = 0;
            for bi in 0..nb {
                for bj in bi..nb {
                    assert_eq!(tile_coords(t, nb), (bi, bj), "nb={nb} t={t}");
                    t += 1;
                }
            }
            assert_eq!(t, nb * (nb + 1) / 2);
        }
    }

    #[test]
    fn tile_of_inverts_tile_coords() {
        let p = tmp("tileof.tmns");
        let m = BlockedDistanceMatrix::compute(
            &p,
            &trajs(33),
            Metric::Hausdorff,
            &MetricParams::default(),
            2,
            8,
        )
        .unwrap();
        for t in 0..m.tiles() {
            let (bi, bj) = tile_coords(t, m.nb);
            assert_eq!(m.tile_of(bi, bj), t);
        }
    }

    #[test]
    fn empty_and_single_matrices() {
        let p = tmp("empty.tmns");
        let m = BlockedDistanceMatrix::compute(
            &p,
            &[],
            Metric::Dtw,
            &MetricParams::default(),
            1,
            4,
        )
        .unwrap();
        assert!(m.is_empty());
        assert_eq!(m.tiles(), 0);
        m.verify().unwrap();

        let p1 = tmp("single.tmns");
        let m1 = BlockedDistanceMatrix::compute(
            &p1,
            &trajs(1),
            Metric::Dtw,
            &MetricParams::default(),
            1,
            4,
        )
        .unwrap();
        assert_eq!(m1.len(), 1);
        assert_eq!(m1.get(0, 0), 0.0);
        assert_eq!(m1.max_value(), 0.0);
    }

    #[test]
    fn reopen_matches_computed() {
        let p = tmp("reopen.tmns");
        let m = BlockedDistanceMatrix::compute(
            &p,
            &trajs(21),
            Metric::Dtw,
            &MetricParams::default(),
            3,
            5,
        )
        .unwrap();
        let r = BlockedDistanceMatrix::open(&p).unwrap();
        r.verify().unwrap();
        assert_eq!((r.len(), r.tile(), r.tiles()), (m.len(), m.tile(), m.tiles()));
        for i in 0..21 {
            for j in 0..21 {
                assert_eq!(m.get(i, j).to_bits(), r.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn payload_bit_flip_detected_on_read() {
        let p = tmp("rot.tmns");
        BlockedDistanceMatrix::compute(
            &p,
            &trajs(12),
            Metric::Dtw,
            &MetricParams::default(),
            1,
            4,
        )
        .unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[HEADER_LEN + 9] ^= 0x01; // inside tile 0's payload
        std::fs::write(&p, &bytes).unwrap();
        let m = BlockedDistanceMatrix::open(&p).unwrap(); // structure intact
        assert_eq!(m.verify(), Err(StoreError::CrcMismatch { what: "tile payload" }));
    }
}
