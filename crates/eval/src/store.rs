//! Persistent embedding stores: hold the encoded database, persist it, and
//! search it by exact linear scan. Approximate search (sharded,
//! exact-reranked HNSW) is `tmn-serve`'s `ShardSet`, which bulk-loads from
//! a store (`ShardSet::warm_load`).
//!
//! A store is either built in memory or opened from the CRC-framed
//! `tmn-store` embeddings file that [`EmbeddingStore::save`] writes. The
//! file is opened as an mmap(2) view and read **zero-copy**:
//! [`EmbeddingStore::get`] hands out `&[f32]` slices straight into the
//! kernel mapping, so a multi-GB corpus costs one open, not one
//! materialization.
//!
//! Every search method is backing-agnostic — owned and mapped stores with
//! equal contents answer every query identically.

use std::path::Path;
use tmn_store::{EmbeddingsFile, EmbeddingsWriter};

/// Where the row-major `count * dim` f32 block lives.
#[derive(Debug, Clone)]
enum Backing {
    /// Heap buffer built in memory.
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
    fn knn_exact_orders_by_distance() {
        let s = store();
        let nn = s.knn_exact(&[0.1, 0.0], 3);
        assert_eq!(nn[0].0, 0);
        assert_eq!(nn[1].0, 1);
        assert!(nn[0].1 < nn[1].1 && nn[1].1 < nn[2].1);
    }

    #[test]
    fn empty_store() {
        let s = EmbeddingStore::from_vectors(&[]);
        assert!(s.is_empty());
        let path = std::env::temp_dir().join(format!("tmn-eval-empty-{}.emb", std::process::id()));
        s.save(&path).unwrap();
        let back = EmbeddingStore::open_mmap(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(back.is_mapped() && back.is_empty());
        assert_eq!(back, s);
    }

    #[test]
    #[should_panic(expected = "inconsistent dimensions")]
    fn mixed_dims_panic() {
        let _ = EmbeddingStore::from_vectors(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
