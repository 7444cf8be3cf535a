//! Shared framing for every `TMNS` store file: the 64-byte header, CRC32,
//! error taxonomy, and the alignment-checked zero-copy casts.
//!
//! All store files share one discipline (the checkpoint-v2 framing grown to
//! mmap scale):
//!
//! ```text
//! bytes 0..4    magic  "TMNS"
//! bytes 4..8    version u32 (LE)          — currently 1
//! bytes 8..12   kind u32                   — 1 embeddings, 2 corpus, 3 tiles
//! bytes 12..N   kind-specific fields       — sizes, section offsets, CRCs
//! bytes N..N+4  header_crc u32             — CRC32 over bytes 0..N
//! bytes ..64    zero padding (validated)   — every header byte is covered
//! byte  64..    payload sections           — each guarded by its own CRC32
//! ```
//!
//! The header is exactly [`HEADER_LEN`] bytes and every byte of it is either
//! CRC-covered or validated-zero, so *any* single-bit flip anywhere in a
//! store file is rejected (exhaustively fuzzed in `tests/store_fuzz.rs`).
//! Payload starts at byte 64 ([`DATA_ALIGN`]); with the mapping base
//! page-aligned, every payload section is aligned for its element type and
//! can be reinterpreted in place.
//!
//! Every writer builds its file under a temporary sibling name and renames
//! it over the destination only once the file is sealed and synced, so a
//! file at its path is never rewritten in place.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic for every tmn-store file.
pub const MAGIC: &[u8; 4] = b"TMNS";
/// Current (and only) format version.
pub const VERSION: u32 = 1;
/// Fixed header length; payload starts here.
pub const HEADER_LEN: usize = 64;
/// Alignment of the payload start relative to the file base.
pub const DATA_ALIGN: usize = 64;

/// `kind` field: row-major f32 embedding matrix.
pub const KIND_EMBEDDINGS: u32 = 1;
/// `kind` field: trajectory corpus (points + prefix index).
pub const KIND_CORPUS: u32 = 2;
/// `kind` field: tiled ground-truth distance matrix.
pub const KIND_TILES: u32 = 3;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the same `crc32`
// the checkpoint format uses (tmn-core re-exports this one). Table-driven,
// built at compile time, with an incremental variant for streaming writers.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// Incremental CRC32 — streaming writers checksum sections as they emit
/// them instead of buffering whole payloads.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        for &b in data {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors from opening, validating, or writing a store file. Decoding never
/// panics: arbitrary, truncated, or bit-flipped bytes all land here.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The first four bytes are not `TMNS`.
    BadMagic,
    /// Recognized file, unknown version.
    UnsupportedVersion(u32),
    /// A store file of a different kind (e.g. a corpus opened as embeddings).
    WrongKind { expected: u32, found: u32 },
    /// The file ends before its declared sections do.
    Truncated,
    /// A structural invariant failed (named for diagnostics).
    Corrupt(&'static str),
    /// A CRC32 check failed (`what` names the section).
    CrcMismatch { what: &'static str },
    /// The buffer base is not aligned for zero-copy reads (the mmap path
    /// guarantees page alignment; this arm fires for misaligned in-memory
    /// buffers handed to the parser).
    Misaligned,
}

impl PartialEq for StoreError {
    fn eq(&self, other: &StoreError) -> bool {
        use StoreError::*;
        match (self, other) {
            (Io(a), Io(b)) => a.kind() == b.kind(),
            (BadMagic, BadMagic) | (Truncated, Truncated) | (Misaligned, Misaligned) => true,
            (UnsupportedVersion(a), UnsupportedVersion(b)) => a == b,
            (WrongKind { expected: a, found: b }, WrongKind { expected: c, found: d }) => {
                a == c && b == d
            }
            (Corrupt(a), Corrupt(b)) => a == b,
            (CrcMismatch { what: a }, CrcMismatch { what: b }) => a == b,
            _ => false,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a tmn-store file (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::WrongKind { expected, found } => {
                write!(f, "wrong store kind: expected {expected}, found {found}")
            }
            StoreError::Truncated => write!(f, "store file ends mid-section"),
            StoreError::Corrupt(what) => write!(f, "corrupt store file: {what}"),
            StoreError::CrcMismatch { what } => write!(f, "store CRC mismatch in {what}"),
            StoreError::Misaligned => write!(f, "store buffer is not aligned for zero-copy reads"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Header helpers
// ---------------------------------------------------------------------------

pub(crate) fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte field"))
}

pub(crate) fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte field"))
}

/// Validate the shared header prefix plus the trailing header CRC and zero
/// pad. `crc_end` is where kind-specific fields stop (the header CRC sits at
/// `crc_end..crc_end+4`, the zero pad runs to [`HEADER_LEN`]).
pub(crate) fn check_header(bytes: &[u8], kind: u32, crc_end: usize) -> Result<(), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated);
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(DATA_ALIGN) {
        return Err(StoreError::Misaligned);
    }
    if &bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = read_u32(bytes, 4);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let found = read_u32(bytes, 8);
    if found != kind {
        return Err(StoreError::WrongKind { expected: kind, found });
    }
    if crc32(&bytes[..crc_end]) != read_u32(bytes, crc_end) {
        return Err(StoreError::CrcMismatch { what: "header" });
    }
    if bytes[crc_end + 4..HEADER_LEN].iter().any(|&b| b != 0) {
        return Err(StoreError::Corrupt("nonzero header padding"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A store file being written. The bytes go to a temporary sibling of the
/// destination, named uniquely per writer; [`commit`](StagedFile::commit)
/// fsyncs it, renames it over the destination and syncs the directory. A
/// mapping of the file that was there keeps its old inode, and a crash
/// before the rename leaves that file in place. Dropped without `commit`,
/// it removes the temporary file (ignoring any error).
pub(crate) struct StagedFile {
    tmp: PathBuf,
    dest: PathBuf,
    committed: bool,
}

impl StagedFile {
    /// Create the temporary file for `dest`.
    pub(crate) fn create(dest: &Path) -> Result<(StagedFile, File), StoreError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let Some(name) = dest.file_name() else {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "store path has no file name",
            )));
        };
        let mut tmp_name = name.to_os_string();
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        tmp_name.push(format!(".{}-{seq}.tmp", std::process::id()));
        let tmp = dest.with_file_name(tmp_name);
        let file = File::create(&tmp)?;
        Ok((StagedFile { tmp, dest: dest.to_path_buf(), committed: false }, file))
    }

    /// Sync `file` (the one [`create`](StagedFile::create) returned),
    /// rename it over the destination, and sync the directory.
    pub(crate) fn commit(mut self, file: File) -> Result<(), StoreError> {
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.dest)?;
        self.committed = true;
        if cfg!(unix) {
            let dir = match self.dest.parent() {
                Some(d) if !d.as_os_str().is_empty() => d,
                _ => Path::new("."),
            };
            File::open(dir)?.sync_all()?;
        }
        Ok(())
    }
}

impl Drop for StagedFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-copy casts. Gated on little-endian hosts: the on-disk format is LE,
// and f32/f64/u64 have no invalid bit patterns, so on LE a validated byte
// range reinterprets in place; a big-endian host would need a converting
// reader (none of our targets are BE — fail loudly instead of silently
// mis-reading).
// ---------------------------------------------------------------------------

macro_rules! cast_fn {
    ($name:ident, $t:ty, $label:literal) => {
        pub(crate) fn $name(bytes: &[u8]) -> Result<&[$t], StoreError> {
            #[cfg(not(target_endian = "little"))]
            {
                let _ = bytes;
                Err(StoreError::Corrupt("zero-copy store requires a little-endian host"))
            }
            #[cfg(target_endian = "little")]
            {
                let size = std::mem::size_of::<$t>();
                if bytes.as_ptr() as usize % std::mem::align_of::<$t>() != 0 {
                    return Err(StoreError::Misaligned);
                }
                if bytes.len() % size != 0 {
                    return Err(StoreError::Corrupt(concat!($label, " section length")));
                }
                // SAFETY: alignment and length checked above; the target has
                // no invalid bit patterns; lifetime is tied to `bytes`.
                Ok(unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr() as *const $t, bytes.len() / size)
                })
            }
        }
    };
}

cast_fn!(cast_f32, f32, "f32");
cast_fn!(cast_f64, f64, "f64");
cast_fn!(cast_u64, u64, "u64");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_zlib_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_crc_matches_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(97) {
            inc.update(chunk);
        }
        assert_eq!(inc.finalize(), crc32(&data));
    }

    #[test]
    fn casts_check_alignment_and_length() {
        let aligned = crate::AlignedBytes::from_slice(&[0u8; 16]);
        assert_eq!(cast_f32(&aligned).unwrap().len(), 4);
        assert_eq!(cast_f64(&aligned).unwrap().len(), 2);
        assert_eq!(cast_u64(&aligned).unwrap().len(), 2);
        // Odd length → rejected.
        assert_eq!(cast_f32(&aligned[..15]), Err(StoreError::Corrupt("f32 section length")));
        // Misaligned base → rejected.
        assert_eq!(cast_f64(&aligned[1..9]), Err(StoreError::Misaligned));
    }
}
