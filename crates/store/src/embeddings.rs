//! On-disk embedding matrices (`kind = 1`): a row-major f32 matrix behind
//! the shared `TMNS` header, written streaming and read zero-copy.
//!
//! Layout after the common fields (see [`crate::format`]):
//!
//! ```text
//! bytes 12..16  dim u32           — embedding dimensionality
//! bytes 16..24  count u64         — number of rows
//! bytes 24..32  data_len u64      — must equal dim·count·4
//! bytes 32..36  data_crc u32      — CRC32 of the payload
//! bytes 36..40  header_crc u32    — CRC32 of bytes 0..36
//! bytes 40..64  zeros
//! byte  64..    count·dim f32 (LE), row-major
//! ```

use crate::format::{
    cast_f32, check_header, crc32, read_u32, read_u64, Crc32, StagedFile, StoreError, HEADER_LEN,
    KIND_EMBEDDINGS, MAGIC, VERSION,
};
use crate::mmap::Mmap;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

const CRC_END: usize = 36;

/// A validated, zero-copy view of an embeddings payload inside a byte
/// buffer. Borrow-only; [`EmbeddingsFile`] owns the mapping version.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingsView<'a> {
    dim: usize,
    count: usize,
    data: &'a [f32],
    raw: &'a [u8],
    data_crc: u32,
}

impl<'a> EmbeddingsView<'a> {
    /// Validate `bytes` as an embeddings file image. The buffer must start
    /// at a 64-byte-aligned address (any mmap base qualifies; see
    /// [`crate::AlignedBytes`] for in-memory buffers). Structural checks and
    /// the header CRC run here; the payload CRC is a full scan, so it is a
    /// separate call ([`verify`](EmbeddingsView::verify)).
    pub fn parse(bytes: &'a [u8]) -> Result<EmbeddingsView<'a>, StoreError> {
        check_header(bytes, KIND_EMBEDDINGS, CRC_END)?;
        let dim = read_u32(bytes, 12) as usize;
        let count = read_u64(bytes, 16);
        let data_len = read_u64(bytes, 24);
        let expected = (count as u128) * (dim as u128) * 4;
        if expected != data_len as u128 || expected > (usize::MAX - HEADER_LEN) as u128 {
            return Err(StoreError::Corrupt("embedding sizes disagree"));
        }
        let data_len = data_len as usize;
        if count > 0 && dim == 0 {
            return Err(StoreError::Corrupt("rows with zero dim"));
        }
        match bytes.len().checked_sub(HEADER_LEN + data_len) {
            None => return Err(StoreError::Truncated),
            Some(0) => {}
            Some(_) => return Err(StoreError::Corrupt("trailing bytes after payload")),
        }
        let raw = &bytes[HEADER_LEN..HEADER_LEN + data_len];
        Ok(EmbeddingsView {
            dim,
            count: count as usize,
            data: cast_f32(raw)?,
            raw,
            data_crc: read_u32(bytes, 32),
        })
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Row `i` as a borrowed slice straight over the file bytes.
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole matrix, row-major.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Full payload CRC scan.
    pub fn verify(&self) -> Result<(), StoreError> {
        if crc32(self.raw) != self.data_crc {
            return Err(StoreError::CrcMismatch { what: "embedding data" });
        }
        Ok(())
    }
}

/// An embeddings file opened through [`Mmap`]. Cloning shares the mapping.
#[derive(Debug, Clone)]
pub struct EmbeddingsFile {
    map: Arc<Mmap>,
    dim: usize,
    count: usize,
}

impl EmbeddingsFile {
    /// Map and validate (structure + header CRC). Payload CRC is a full
    /// file scan — call [`verify`](EmbeddingsFile::verify) when opening
    /// untrusted bytes.
    pub fn open(path: &Path) -> Result<EmbeddingsFile, StoreError> {
        let map = Mmap::open(path)?;
        let view = EmbeddingsView::parse(&map)?;
        let (dim, count) = (view.dim, view.count);
        Ok(EmbeddingsFile { map: Arc::new(map), dim, count })
    }

    /// The validated view over the mapping.
    pub fn view(&self) -> EmbeddingsView<'_> {
        EmbeddingsView::parse(&self.map).expect("file was validated at open")
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Row `i`, zero-copy over the mapping.
    pub fn row(&self, i: usize) -> &[f32] {
        let base = HEADER_LEN + i * self.dim * 4;
        cast_f32(&self.map[base..base + self.dim * 4]).expect("validated at open")
    }

    /// The whole matrix, zero-copy.
    pub fn data(&self) -> &[f32] {
        cast_f32(&self.map[HEADER_LEN..HEADER_LEN + self.count * self.dim * 4])
            .expect("validated at open")
    }

    /// Full payload CRC scan.
    pub fn verify(&self) -> Result<(), StoreError> {
        self.view().verify()
    }
}

/// Streaming embeddings writer: rows go straight to a buffered file with an
/// incremental CRC; nothing but the 64-byte header is buffered, so writing
/// an n-row matrix holds O(1) memory.
pub struct EmbeddingsWriter {
    out: BufWriter<File>,
    staged: StagedFile,
    dim: usize,
    count: u64,
    crc: Crc32,
    scratch: Vec<u8>,
}

impl EmbeddingsWriter {
    /// Start an embeddings file for `path`. It is written under a temporary
    /// sibling name, with a placeholder header that
    /// [`finish`](EmbeddingsWriter::finish) patches before renaming the file
    /// over `path`. Until then `path` is untouched: a writer dropped early
    /// removes its temporary file, and a crashed one leaves the previous
    /// file (or none) at `path`.
    pub fn create(path: &Path, dim: usize) -> Result<EmbeddingsWriter, StoreError> {
        let (staged, file) = StagedFile::create(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(EmbeddingsWriter {
            out,
            staged,
            dim,
            count: 0,
            crc: Crc32::new(),
            scratch: Vec::with_capacity(dim * 4),
        })
    }

    /// Append one row.
    pub fn push(&mut self, row: &[f32]) -> Result<(), StoreError> {
        if row.len() != self.dim {
            return Err(StoreError::Corrupt("row dimension mismatch"));
        }
        self.scratch.clear();
        for v in row {
            self.scratch.extend_from_slice(&v.to_le_bytes());
        }
        self.crc.update(&self.scratch);
        self.out.write_all(&self.scratch)?;
        self.count += 1;
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.count as usize
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Seal the file: flush rows, patch the real header, fsync, and rename
    /// it over the destination.
    pub fn finish(self) -> Result<(), StoreError> {
        let EmbeddingsWriter { out, staged, dim, count, crc, .. } = self;
        let mut file = out.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&KIND_EMBEDDINGS.to_le_bytes());
        header[12..16].copy_from_slice(&(dim as u32).to_le_bytes());
        header[16..24].copy_from_slice(&count.to_le_bytes());
        header[24..32].copy_from_slice(&(count * dim as u64 * 4).to_le_bytes());
        header[32..36].copy_from_slice(&crc.finalize().to_le_bytes());
        let hcrc = crc32(&header[..CRC_END]);
        header[36..40].copy_from_slice(&hcrc.to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        staged.commit(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlignedBytes;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tmn-store-emb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_matrix(path: &Path, rows: &[Vec<f32>], dim: usize) {
        let mut w = EmbeddingsWriter::create(path, dim).unwrap();
        for r in rows {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn roundtrip_bitwise() {
        let p = tmp("roundtrip.tmns");
        let rows: Vec<Vec<f32>> =
            (0..17).map(|i| (0..5).map(|j| (i * 5 + j) as f32 * 0.25 - 3.0).collect()).collect();
        write_matrix(&p, &rows, 5);
        let f = EmbeddingsFile::open(&p).unwrap();
        assert_eq!((f.len(), f.dim()), (17, 5));
        f.verify().unwrap();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(f.row(i), r.as_slice(), "row {i}");
        }
        // File size is exactly header + payload.
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 64 + 17 * 5 * 4);
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let p = tmp("empty.tmns");
        write_matrix(&p, &[], 8);
        let f = EmbeddingsFile::open(&p).unwrap();
        assert!(f.is_empty());
        assert_eq!(f.dim(), 8);
        f.verify().unwrap();
    }

    #[test]
    fn dim_mismatch_rejected_by_writer() {
        let p = tmp("dim.tmns");
        let mut w = EmbeddingsWriter::create(&p, 3).unwrap();
        assert!(matches!(w.push(&[1.0, 2.0]), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn unfinished_writer_leaves_invalid_file() {
        let p = tmp("unfinished.tmns");
        let mut w = EmbeddingsWriter::create(&p, 2).unwrap();
        w.push(&[1.0, 2.0]).unwrap();
        drop(w); // no finish(): the temporary file is removed, nothing appears at `p`
        assert!(EmbeddingsFile::open(&p).is_err());
    }

    #[test]
    fn wrong_kind_rejected() {
        let p = tmp("kind.tmns");
        write_matrix(&p, &[vec![1.0]], 1);
        let mut bytes = std::fs::read(&p).unwrap();
        // Claim to be a corpus and re-seal the header so only the kind check
        // can reject it.
        bytes[8..12].copy_from_slice(&crate::format::KIND_CORPUS.to_le_bytes());
        let h = crc32(&bytes[..CRC_END]);
        bytes[36..40].copy_from_slice(&h.to_le_bytes());
        let buf = AlignedBytes::from_slice(&bytes);
        assert!(matches!(
            EmbeddingsView::parse(&buf),
            Err(StoreError::WrongKind { expected: 1, found: 2 })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let p = tmp("trailing.tmns");
        write_matrix(&p, &[vec![1.0, 2.0]], 2);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.push(0);
        let buf = AlignedBytes::from_slice(&bytes);
        assert_eq!(
            EmbeddingsView::parse(&buf).err().map(|e| e.to_string()),
            Some("corrupt store file: trailing bytes after payload".into())
        );
    }
}
