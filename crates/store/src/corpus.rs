//! On-disk trajectory corpora (`kind = 2`): all points of all trajectories
//! as one flat f64 section, plus a prefix index mapping trajectory id to
//! its point range.
//!
//! Layout after the common fields (see [`crate::format`]):
//!
//! ```text
//! bytes 12..16  point_dims u32    — always 2 (lon, lat)
//! bytes 16..24  count u64         — number of trajectories
//! bytes 24..32  total_points u64
//! bytes 32..36  data_crc u32      — CRC32 of the point section
//! bytes 36..40  index_crc u32     — CRC32 of the index section
//! bytes 40..44  header_crc u32    — CRC32 of bytes 0..40
//! bytes 44..64  zeros
//! byte  64..                      points: total_points × (lon f64, lat f64), LE
//! byte  64+16·total_points..      index: (count+1) × u64 point prefix offsets
//! ```
//!
//! The index trails the data so the writer can stream points as they
//! arrive, keep only the (count+1)-word index in memory, and patch the
//! header at the end — building a corpus never holds its points in RAM.

use crate::format::{
    cast_f64, cast_u64, check_header, crc32, read_u32, read_u64, Crc32, StagedFile, StoreError,
    HEADER_LEN, KIND_CORPUS, MAGIC, VERSION,
};
use crate::mmap::Mmap;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use tmn_traj::{Point, Trajectory};

const CRC_END: usize = 40;
const POINT_DIMS: u32 = 2;
const POINT_BYTES: usize = 16; // lon f64 + lat f64

/// A validated, zero-copy view of a corpus file image.
#[derive(Debug, Clone, Copy)]
pub struct CorpusView<'a> {
    count: usize,
    points: &'a [f64],
    index: &'a [u64],
    data_raw: &'a [u8],
    data_crc: u32,
}

impl<'a> CorpusView<'a> {
    /// Validate structure, header CRC, and index CRC (+ index monotonicity).
    /// The point-section CRC is a full scan — see
    /// [`verify`](CorpusView::verify). The buffer must start 64-byte
    /// aligned (mmap bases and [`crate::AlignedBytes`] both qualify).
    pub fn parse(bytes: &'a [u8]) -> Result<CorpusView<'a>, StoreError> {
        check_header(bytes, KIND_CORPUS, CRC_END)?;
        if read_u32(bytes, 12) != POINT_DIMS {
            return Err(StoreError::Corrupt("unsupported point dimensionality"));
        }
        let count = read_u64(bytes, 16);
        let total_points = read_u64(bytes, 24);
        let data_len = (total_points as u128) * POINT_BYTES as u128;
        let index_len = (count as u128 + 1) * 8;
        let total = HEADER_LEN as u128 + data_len + index_len;
        if total > usize::MAX as u128 {
            return Err(StoreError::Corrupt("corpus sizes overflow"));
        }
        match (bytes.len() as u128).checked_sub(total) {
            None => return Err(StoreError::Truncated),
            Some(0) => {}
            Some(_) => return Err(StoreError::Corrupt("trailing bytes after index")),
        }
        let data_end = HEADER_LEN + data_len as usize;
        let data_raw = &bytes[HEADER_LEN..data_end];
        let index_raw = &bytes[data_end..];
        if crc32(index_raw) != read_u32(bytes, 36) {
            return Err(StoreError::CrcMismatch { what: "corpus index" });
        }
        let index = cast_u64(index_raw)?;
        if index.first() != Some(&0) || index.last() != Some(&total_points) {
            return Err(StoreError::Corrupt("index endpoints"));
        }
        if index.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Corrupt("index not monotone"));
        }
        Ok(CorpusView {
            count: count as usize,
            points: cast_f64(data_raw)?,
            index,
            data_raw,
            data_crc: read_u32(bytes, 32),
        })
    }

    /// Number of trajectories.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn total_points(&self) -> usize {
        self.points.len() / 2
    }

    /// Points of trajectory `i` as interleaved `[lon, lat, lon, lat, ..]`,
    /// borrowed straight from the file bytes.
    pub fn points_raw(&self, i: usize) -> &'a [f64] {
        let (a, b) = (self.index[i] as usize, self.index[i + 1] as usize);
        &self.points[a * 2..b * 2]
    }

    /// Number of points in trajectory `i`.
    pub fn points_len(&self, i: usize) -> usize {
        (self.index[i + 1] - self.index[i]) as usize
    }

    /// Point `j` of trajectory `i`.
    pub fn point(&self, i: usize, j: usize) -> Point {
        let raw = self.points_raw(i);
        Point::new(raw[j * 2], raw[j * 2 + 1])
    }

    /// Materialize trajectory `i` (copies; the `points_*` accessors are the
    /// zero-copy path).
    pub fn get(&self, i: usize) -> Trajectory {
        let raw = self.points_raw(i);
        raw.chunks_exact(2).map(|c| Point::new(c[0], c[1])).collect()
    }

    /// Full point-section CRC scan.
    pub fn verify(&self) -> Result<(), StoreError> {
        if crc32(self.data_raw) != self.data_crc {
            return Err(StoreError::CrcMismatch { what: "corpus points" });
        }
        Ok(())
    }
}

/// A corpus file opened through [`Mmap`]. Cloning shares the mapping.
#[derive(Debug, Clone)]
pub struct CorpusFile {
    map: Arc<Mmap>,
    count: usize,
}

impl CorpusFile {
    /// Map and validate (structure, header CRC, index CRC). Point-section
    /// CRC is a full scan — call [`verify`](CorpusFile::verify) for
    /// untrusted files.
    pub fn open(path: &Path) -> Result<CorpusFile, StoreError> {
        let map = Mmap::open(path)?;
        let count = CorpusView::parse(&map)?.count;
        Ok(CorpusFile { map: Arc::new(map), count })
    }

    /// The validated view over the mapping.
    pub fn view(&self) -> CorpusView<'_> {
        CorpusView::parse(&self.map).expect("file was validated at open")
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Materialize trajectory `i`.
    pub fn get(&self, i: usize) -> Trajectory {
        self.view().get(i)
    }

    /// Full point-section CRC scan.
    pub fn verify(&self) -> Result<(), StoreError> {
        self.view().verify()
    }
}

/// Streaming corpus writer: points are written (and CRC'd) as trajectories
/// arrive; only the prefix index (8 bytes per trajectory) stays in memory.
pub struct CorpusWriter {
    out: BufWriter<File>,
    staged: StagedFile,
    index: Vec<u64>,
    crc: Crc32,
    scratch: Vec<u8>,
}

impl CorpusWriter {
    /// Start a corpus file for `path`. It is written under a temporary
    /// sibling name and replaces `path` on [`finish`](CorpusWriter::finish),
    /// which patches the header; a writer dropped before that removes its
    /// temporary file and leaves `path` untouched.
    pub fn create(path: &Path) -> Result<CorpusWriter, StoreError> {
        let (staged, file) = StagedFile::create(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(CorpusWriter { out, staged, index: vec![0], crc: Crc32::new(), scratch: Vec::new() })
    }

    /// Append one trajectory.
    pub fn push(&mut self, traj: &Trajectory) -> Result<(), StoreError> {
        self.scratch.clear();
        for p in traj.points() {
            self.scratch.extend_from_slice(&p.lon.to_le_bytes());
            self.scratch.extend_from_slice(&p.lat.to_le_bytes());
        }
        self.crc.update(&self.scratch);
        self.out.write_all(&self.scratch)?;
        let prev = *self.index.last().expect("index starts with 0");
        self.index.push(prev + traj.len() as u64);
        Ok(())
    }

    /// Trajectories appended so far.
    pub fn len(&self) -> usize {
        self.index.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seal the file: append the index, patch the header, fsync, and
    /// rename it over the destination.
    pub fn finish(self) -> Result<(), StoreError> {
        let CorpusWriter { mut out, staged, index, crc, .. } = self;
        let mut index_bytes = Vec::with_capacity(index.len() * 8);
        for v in &index {
            index_bytes.extend_from_slice(&v.to_le_bytes());
        }
        out.write_all(&index_bytes)?;
        let mut file = out.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        let count = (index.len() - 1) as u64;
        let total_points = *index.last().expect("nonempty index");
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&KIND_CORPUS.to_le_bytes());
        header[12..16].copy_from_slice(&POINT_DIMS.to_le_bytes());
        header[16..24].copy_from_slice(&count.to_le_bytes());
        header[24..32].copy_from_slice(&total_points.to_le_bytes());
        header[32..36].copy_from_slice(&crc.finalize().to_le_bytes());
        header[36..40].copy_from_slice(&crc32(&index_bytes).to_le_bytes());
        let hcrc = crc32(&header[..CRC_END]);
        header[40..44].copy_from_slice(&hcrc.to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        staged.commit(file)
    }
}

/// Convenience: stream a slice of trajectories to `path`.
pub fn write_corpus(path: &Path, trajs: &[Trajectory]) -> Result<(), StoreError> {
    let mut w = CorpusWriter::create(path)?;
    for t in trajs {
        w.push(t)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tmn-store-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trajs() -> Vec<Trajectory> {
        (0..9)
            .map(|i| {
                (0..(3 + i % 4))
                    .map(|j| Point::new(i as f64 + j as f64 * 0.125, -(j as f64) * 0.5))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn roundtrip_bitwise() {
        let p = tmp("roundtrip.tmns");
        let ts = trajs();
        write_corpus(&p, &ts).unwrap();
        let f = CorpusFile::open(&p).unwrap();
        f.verify().unwrap();
        assert_eq!(f.len(), ts.len());
        let v = f.view();
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(v.points_len(i), t.len());
            let got = f.get(i);
            assert_eq!(got.len(), t.len());
            for (a, b) in got.points().iter().zip(t.points()) {
                assert_eq!(a.lon.to_bits(), b.lon.to_bits());
                assert_eq!(a.lat.to_bits(), b.lat.to_bits());
            }
            // Zero-copy accessors agree with the materialized trajectory.
            let raw = v.points_raw(i);
            assert_eq!(raw.len(), 2 * t.len());
            for j in 0..t.len() {
                assert_eq!(v.point(i, j).lon.to_bits(), t.points()[j].lon.to_bits());
            }
        }
    }

    #[test]
    fn empty_corpus_and_empty_trajectories() {
        let p = tmp("empty.tmns");
        write_corpus(&p, &[]).unwrap();
        let f = CorpusFile::open(&p).unwrap();
        assert!(f.is_empty());
        f.verify().unwrap();

        let p2 = tmp("empty-trajs.tmns");
        let ts = vec![Trajectory::new(Vec::new()), Trajectory::from_coords(&[(1.0, 2.0)])];
        write_corpus(&p2, &ts).unwrap();
        let f2 = CorpusFile::open(&p2).unwrap();
        assert_eq!(f2.len(), 2);
        assert_eq!(f2.view().points_len(0), 0);
        assert_eq!(f2.view().points_len(1), 1);
        f2.verify().unwrap();
    }

    #[test]
    fn point_flip_caught_by_verify() {
        let p = tmp("flip.tmns");
        write_corpus(&p, &trajs()).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[HEADER_LEN + 11] ^= 0x40; // inside the point section
        std::fs::write(&p, &bytes).unwrap();
        assert_eq!(n, std::fs::metadata(&p).unwrap().len() as usize);
        let f = CorpusFile::open(&p).unwrap(); // structure still valid
        assert_eq!(f.verify(), Err(StoreError::CrcMismatch { what: "corpus points" }));
    }
}
