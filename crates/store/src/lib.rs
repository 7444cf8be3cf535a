//! # tmn-store
//!
//! The scale-out data plane: memory-mapped, zero-copy persistence for
//! trajectory corpora, embedding matrices, and out-of-core ground truth.
//! This is the layer that decouples corpus size from RAM — everything above
//! it (trainer, evaluator, serving engine, benches) reads trajectories and
//! distances through views over a file instead of `Vec`s rebuilt per run.
//!
//! Three file kinds share one CRC-framed `TMNS` header discipline (grown
//! from the checkpoint-v2 format; see [`format`](mod@format)):
//!
//! - [`EmbeddingsFile`] / [`EmbeddingsWriter`] — a row-major f32 matrix.
//!   Rows come back as `&[f32]` borrowed straight from the mapping.
//! - [`CorpusFile`] / [`CorpusWriter`] — trajectory point data plus a
//!   prefix index; point slices are `&[f64]` over the file. Writers stream:
//!   building a corpus never holds it in memory.
//! - [`BlockedDistanceMatrix`] — pairwise ground truth computed in
//!   parallel tile blocks and spilled to disk, bitwise-equal to
//!   [`tmn_traj::DistanceMatrix`] but with O(threads·tile²) peak memory
//!   instead of O(n²). Implements [`tmn_traj::GroundTruth`], so the trainer
//!   and evaluator cannot tell the two apart.
//!
//! The mmap itself is a hand-rolled `mmap(2)` wrapper ([`Mmap`]) — the
//! workspace builds offline with no libc, so the syscall is made directly
//! (with an aligned-heap-read fallback on non-Linux targets). See
//! [`mmap`] for the safety argument.

mod blocked;
mod corpus;
pub mod format;
mod embeddings;
pub mod mmap;

pub use blocked::{BlockedDistanceMatrix, DEFAULT_TILE};
pub use corpus::{write_corpus, CorpusFile, CorpusView, CorpusWriter};
pub use embeddings::{EmbeddingsFile, EmbeddingsView, EmbeddingsWriter};
pub use format::{crc32, Crc32, StoreError};
pub use mmap::{AlignedBytes, Mmap, MAP_ALIGN};
