//! Persistent embedding stores: hold the encoded database, serialize it
//! compactly, and search it by exact linear scan. Approximate search
//! (sharded, int8-quantized, exact-reranked HNSW) is `tmn-serve`'s
//! `ShardSet`, which bulk-loads from a store (`ShardSet::warm_load`).
//!
//! Two persistence paths share one search API:
//!
//! - the legacy in-RAM `TMNE` frame (little-endian: magic `TMNE` | version
//!   u32 | dim u32 | count u32 | `count * dim` f32), decoded into an owned
//!   buffer, and
//! - the CRC-framed `tmn-store` embeddings file, opened as an mmap(2) view
//!   and read **zero-copy**: [`EmbeddingStore::get`] hands out `&[f32]`
//!   slices straight into the kernel mapping, so a multi-GB corpus costs
//!   one open, not one materialization.
//!
//! Every search method is backing-agnostic — owned and mapped stores with
//! equal contents answer every query identically.

use std::path::Path;
use tmn_store::{EmbeddingsFile, EmbeddingsWriter};

const MAGIC: &[u8; 4] = b"TMNE";
const VERSION: u32 = 1;

/// Errors from decoding an embedding buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum StoreError {
    BadMagic,
    UnsupportedVersion(u32),
    Truncated,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a TMN embedding store (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            StoreError::Truncated => write!(f, "buffer ends mid-record"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Where the row-major `count * dim` f32 block lives.
#[derive(Debug, Clone)]
enum Backing {
    /// Heap buffer (built in memory or decoded from the `TMNE` frame).
    Owned(Vec<f32>),
    /// CRC-verified mmap(2) view of a `tmn-store` embeddings file; reads
    /// are zero-copy slices into the mapping.
    Mapped(EmbeddingsFile),
}

/// A dense set of `d`-dimensional embeddings with stable indices.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    dim: usize,
    backing: Backing,
}

/// Equality is by contents — an owned store and a mapped store holding the
/// same matrix compare equal, exactly as they search identically.
impl PartialEq for EmbeddingStore {
    fn eq(&self, other: &EmbeddingStore) -> bool {
        self.dim == other.dim && self.data() == other.data()
    }
}

impl EmbeddingStore {
    /// Build from per-trajectory embedding vectors (all `dim`-long).
    pub fn from_vectors(vectors: &[Vec<f32>]) -> EmbeddingStore {
        let dim = vectors.first().map(|v| v.len()).unwrap_or(0);
        assert!(
            vectors.iter().all(|v| v.len() == dim),
            "EmbeddingStore: inconsistent dimensions"
        );
        let mut data = Vec::with_capacity(vectors.len() * dim);
        for v in vectors {
            data.extend_from_slice(v);
        }
        EmbeddingStore { dim, backing: Backing::Owned(data) }
    }

    /// Open a `tmn-store` embeddings file as an mmap-backed store. The data
    /// CRC is verified once here; every later read is a zero-copy slice.
    pub fn open_mmap(path: &Path) -> Result<EmbeddingStore, tmn_store::StoreError> {
        let file = EmbeddingsFile::open(path)?;
        file.verify()?;
        Ok(EmbeddingStore { dim: file.dim(), backing: Backing::Mapped(file) })
    }

    /// Write the store as a CRC-framed `tmn-store` embeddings file that
    /// [`open_mmap`](EmbeddingStore::open_mmap) reads back zero-copy.
    pub fn save(&self, path: &Path) -> Result<(), tmn_store::StoreError> {
        let mut w = EmbeddingsWriter::create(path, self.dim)?;
        for i in 0..self.len() {
            w.push(self.get(i))?;
        }
        w.finish()
    }

    /// True when reads go through an mmap view rather than owned memory.
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// The whole row-major matrix, whichever backing holds it.
    fn data(&self) -> &[f32] {
        match &self.backing {
            Backing::Owned(v) => v,
            Backing::Mapped(f) => f.data(),
        }
    }

    pub fn len(&self) -> usize {
        self.data().len().checked_div(self.dim).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.data().is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn get(&self, i: usize) -> &[f32] {
        &self.data()[i * self.dim..(i + 1) * self.dim]
    }

    /// Exact k-NN by linear scan, `(index, distance)` ascending.
    pub fn knn_exact(&self, query: &[f32], k: usize) -> Vec<(usize, f64)> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut all: Vec<(usize, f64)> = (0..self.len())
            .map(|i| (i, crate::embedding_distance(query, self.get(i))))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Serialize to the framed binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let data = self.data();
        let mut out = Vec::with_capacity(16 + data.len() * 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decode from the framed binary format.
    pub fn from_bytes(buf: &[u8]) -> Result<EmbeddingStore, StoreError> {
        if buf.len() < 16 {
            return Err(StoreError::Truncated);
        }
        if &buf[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let dim = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        let count = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let expected = 16 + 4 * dim * count;
        if buf.len() < expected {
            return Err(StoreError::Truncated);
        }
        let data = buf[16..expected]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(EmbeddingStore { dim, backing: Backing::Owned(data) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> EmbeddingStore {
        EmbeddingStore::from_vectors(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 4.0],
        ])
    }

    #[test]
    fn roundtrip() {
        let s = store();
        let back = EmbeddingStore::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.len(), 4);
        assert_eq!(back.dim(), 2);
    }

    #[test]
    fn knn_exact_orders_by_distance() {
        let s = store();
        let nn = s.knn_exact(&[0.1, 0.0], 3);
        assert_eq!(nn[0].0, 0);
        assert_eq!(nn[1].0, 1);
        assert!(nn[0].1 < nn[1].1 && nn[1].1 < nn[2].1);
    }

    #[test]
    fn corrupt_buffers_rejected() {
        assert_eq!(EmbeddingStore::from_bytes(b"nope"), Err(StoreError::Truncated));
        let mut buf = store().to_bytes();
        buf[0] = b'X';
        assert_eq!(EmbeddingStore::from_bytes(&buf), Err(StoreError::BadMagic));
        let mut buf2 = store().to_bytes();
        buf2.truncate(buf2.len() - 4);
        assert_eq!(EmbeddingStore::from_bytes(&buf2), Err(StoreError::Truncated));
    }

    #[test]
    fn empty_store() {
        let s = EmbeddingStore::from_vectors(&[]);
        assert!(s.is_empty());
        let back = EmbeddingStore::from_bytes(&s.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    #[should_panic(expected = "inconsistent dimensions")]
    fn mixed_dims_panic() {
        let _ = EmbeddingStore::from_vectors(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
