//! Binary model checkpoints.
//!
//! The wire format (version 2) is a typed section table with per-section
//! and whole-file CRC32 checksums, so torn writes and bit rot are detected
//! instead of silently corrupting a resumed run:
//! ```text
//! magic "TMNW" | version=2 u32 | n_sections u32 |
//!   repeat n_sections times:
//!     kind u32 | payload_len u32 | payload bytes | crc32(payload) u32
//! file_crc32 u32   (over every preceding byte)
//! ```
//!
//! Section kinds: `1` = params (`n_params u32`, then per parameter
//! `name_len u32 | name bytes | rank u32 | dims u32... | data f32...`), `2` =
//! Adam optimizer state (hyperparameters, step count, both moment buffers),
//! `3` = trainer state (epoch, batch cursor, sampler RNG state, anchor
//! order, pending pair buffer — everything needed to resume bit-identically
//! mid-epoch). Unknown kinds are skipped (their CRC is still verified) so
//! newer writers stay readable. All integers little-endian.
//!
//! Decoding never panics on malformed input: every length/count field is
//! validated against the remaining buffer (with `checked_mul`, so a
//! rank-8 shape cannot overflow `usize`) *before* any allocation.

pub mod store;

use crate::config::LossKind;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use tmn_autograd::nn::{ParamSet, RestoreError};
use tmn_autograd::optim::AdamState;

const MAGIC: &[u8; 4] = b"TMNW";
const VERSION_V2: u32 = 2;

/// Section kinds of the v2 format.
const SECTION_PARAMS: u32 = 1;
const SECTION_ADAM: u32 = 2;
const SECTION_TRAINER: u32 = 3;

/// Errors produced when decoding or applying a checkpoint buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    BadMagic,
    UnsupportedVersion(u32),
    Truncated,
    Corrupt(&'static str),
    /// A CRC32 check failed (`what` names the section, or `"file"`).
    CrcMismatch { what: &'static str },
    /// The checkpoint decoded cleanly but does not fit the target model or
    /// trainer (wrong `ModelKind`, `dim`, or training recipe).
    Mismatch { name: String, expected: String, found: String },
    /// A filesystem error while loading/saving (store layer).
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a TMN checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CheckpointError::Truncated => write!(f, "buffer ends mid-record"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::CrcMismatch { what } => {
                write!(f, "corrupt checkpoint: CRC mismatch in {what}")
            }
            CheckpointError::Mismatch { name, expected, found } => {
                write!(f, "checkpoint mismatch at {name}: expected {expected}, found {found}")
            }
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<RestoreError> for CheckpointError {
    fn from(e: RestoreError) -> CheckpointError {
        match e {
            RestoreError::CountMismatch { expected, found } => CheckpointError::Mismatch {
                name: "parameter count".into(),
                expected: expected.to_string(),
                found: found.to_string(),
            },
            RestoreError::NameMismatch { index, expected, found } => CheckpointError::Mismatch {
                name: format!("parameter #{index}"),
                expected,
                found,
            },
            RestoreError::ShapeMismatch { name, expected, found } => CheckpointError::Mismatch {
                name,
                expected: format!("{expected:?}"),
                found: format!("{found:?}"),
            },
            RestoreError::DataMismatch { name, expected, found } => CheckpointError::Mismatch {
                name,
                expected: format!("{expected} scalars"),
                found: format!("{found} scalars"),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the ubiquitous
// `crc32` of zlib/gzip. One implementation serves the whole workspace: it
// moved to `tmn-store` (whose file formats grew out of this framing) and is
// re-exported here so checkpoint callers keep their import path.
// ---------------------------------------------------------------------------

pub use tmn_store::crc32;

// ---------------------------------------------------------------------------
// Decoded structures
// ---------------------------------------------------------------------------

/// One decoded parameter: `(name, shape, data)`.
pub type ParamRow = (String, Vec<usize>, Vec<f32>);

/// Mid-run trainer state: everything beyond weights and optimizer moments
/// that a bit-identical resume needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// Epoch in progress (0-based).
    pub epoch: u64,
    /// Gradient steps taken since training started (all epochs).
    pub steps: u64,
    /// Gradient steps taken within the current epoch.
    pub batches: u64,
    /// Next position in `order` to sample (anchors before it are consumed).
    pub next_anchor: u64,
    /// Pairs trained so far this epoch (epoch-loss accumulator).
    pub total_pairs: u64,
    /// Summed loss so far this epoch (epoch-loss accumulator).
    pub total_loss: f64,
    /// Sampler RNG state (xoshiro256**), captured after the last sample.
    pub rng: [u64; 4],
    /// Config echo, validated on resume: a resumed run only replays
    /// bit-identically if the sampling recipe is unchanged.
    pub seed: u64,
    pub batch_pairs: u32,
    pub sampling_number: u32,
    pub sub_stride: u32,
    pub use_sub_loss: bool,
    pub loss: LossKind,
    /// This epoch's shuffled anchor order.
    pub order: Vec<u32>,
    /// Sampled pairs not yet trained: `(anchor, sample, weight)`.
    pub buffer: Vec<(u32, u32, f32)>,
}

/// A fully decoded checkpoint. Weights-only files populate `params` only.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    pub params: Vec<ParamRow>,
    pub optimizer: Option<AdamState>,
    pub trainer: Option<TrainerState>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_param_rows(rows: &[(String, Vec<usize>, Vec<f32>)], buf: &mut BytesMut) {
    buf.put_u32_le(rows.len() as u32);
    for (name, shape, data) in rows {
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
        buf.put_u32_le(shape.len() as u32);
        for &d in shape {
            buf.put_u32_le(d as u32);
        }
        for &v in data {
            buf.put_f32_le(v);
        }
    }
}

fn encode_adam(state: &AdamState, buf: &mut BytesMut) {
    buf.put_f32_le(state.lr);
    buf.put_f32_le(state.beta1);
    buf.put_f32_le(state.beta2);
    buf.put_f32_le(state.eps);
    buf.put_u64_le(state.t);
    buf.put_u32_le(state.m.len() as u32);
    for (m, v) in state.m.iter().zip(&state.v) {
        buf.put_u32_le(m.len() as u32);
        for &x in m {
            buf.put_f32_le(x);
        }
        for &x in v {
            buf.put_f32_le(x);
        }
    }
}

fn encode_trainer(state: &TrainerState, buf: &mut BytesMut) {
    buf.put_u64_le(state.epoch);
    buf.put_u64_le(state.steps);
    buf.put_u64_le(state.batches);
    buf.put_u64_le(state.next_anchor);
    buf.put_u64_le(state.total_pairs);
    buf.put_f64_le(state.total_loss);
    for &w in &state.rng {
        buf.put_u64_le(w);
    }
    buf.put_u64_le(state.seed);
    buf.put_u32_le(state.batch_pairs);
    buf.put_u32_le(state.sampling_number);
    buf.put_u32_le(state.sub_stride);
    buf.put_u8(state.use_sub_loss as u8);
    buf.put_u8(match state.loss {
        LossKind::Mse => 0,
        LossKind::QError => 1,
    });
    buf.put_u32_le(state.order.len() as u32);
    for &a in &state.order {
        buf.put_u32_le(a);
    }
    buf.put_u32_le(state.buffer.len() as u32);
    for &(a, s, w) in &state.buffer {
        buf.put_u32_le(a);
        buf.put_u32_le(s);
        buf.put_f32_le(w);
    }
}

fn put_section(buf: &mut BytesMut, kind: u32, payload: &[u8]) {
    buf.put_u32_le(kind);
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    buf.put_u32_le(crc32(payload));
}

/// Serialize a full training checkpoint (v2): parameters plus optional
/// optimizer and trainer sections, CRC-protected per section and whole-file.
pub fn save_checkpoint(
    params: &ParamSet,
    optimizer: Option<&AdamState>,
    trainer: Option<&TrainerState>,
) -> Bytes {
    let rows = params.snapshot();
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_V2);
    let n_sections =
        1 + optimizer.is_some() as u32 + trainer.is_some() as u32;
    buf.put_u32_le(n_sections);

    let mut payload = BytesMut::new();
    encode_param_rows(&rows, &mut payload);
    put_section(&mut buf, SECTION_PARAMS, &payload);
    if let Some(adam) = optimizer {
        payload.clear();
        encode_adam(adam, &mut payload);
        put_section(&mut buf, SECTION_ADAM, &payload);
    }
    if let Some(state) = trainer {
        payload.clear();
        encode_trainer(state, &mut payload);
        put_section(&mut buf, SECTION_TRAINER, &payload);
    }
    let file_crc = crc32(&buf);
    buf.put_u32_le(file_crc);
    buf.freeze()
}

/// Serialize the parameters of a model into a weights-only checkpoint
/// (v2, params section only).
pub fn save_params(params: &ParamSet) -> Bytes {
    save_checkpoint(params, None, None)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Minimum encoded size of one parameter row (empty name, rank 0, no data).
const MIN_ROW_BYTES: usize = 8;

fn decode_param_rows(buf: &mut &[u8]) -> Result<Vec<ParamRow>, CheckpointError> {
    if buf.remaining() < 4 {
        return Err(CheckpointError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    // An untrusted count must not drive the allocation: each row needs at
    // least MIN_ROW_BYTES, so a count beyond that bound is a lie.
    if n > buf.remaining() / MIN_ROW_BYTES {
        return Err(CheckpointError::Truncated);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let name_len = buf.get_u32_le() as usize;
        if buf.remaining() < name_len {
            return Err(CheckpointError::Truncated);
        }
        let name = String::from_utf8(buf.copy_to_bytes(name_len).to_vec())
            .map_err(|_| CheckpointError::Corrupt("non-utf8 parameter name"))?;
        if buf.remaining() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let rank = buf.get_u32_le() as usize;
        if rank > 8 {
            return Err(CheckpointError::Corrupt("implausible tensor rank"));
        }
        if buf.remaining() < 4 * rank {
            return Err(CheckpointError::Truncated);
        }
        let shape: Vec<usize> = (0..rank).map(|_| buf.get_u32_le() as usize).collect();
        // `shape.iter().product()` can wrap at rank 8 (u32 dims multiply up
        // to 2^256); validate with checked_mul against the buffer *before*
        // allocating anything.
        let numel = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(CheckpointError::Corrupt("tensor shape overflows usize"))?;
        if numel > buf.remaining() / 4 {
            return Err(CheckpointError::Truncated);
        }
        let data: Vec<f32> = (0..numel).map(|_| buf.get_f32_le()).collect();
        out.push((name, shape, data));
    }
    Ok(out)
}

fn decode_adam(buf: &mut &[u8]) -> Result<AdamState, CheckpointError> {
    if buf.remaining() < 28 {
        return Err(CheckpointError::Truncated);
    }
    let lr = buf.get_f32_le();
    let beta1 = buf.get_f32_le();
    let beta2 = buf.get_f32_le();
    let eps = buf.get_f32_le();
    let t = buf.get_u64_le();
    let n = buf.get_u32_le() as usize;
    if n > buf.remaining() / 4 {
        return Err(CheckpointError::Truncated);
    }
    let mut m = Vec::with_capacity(n);
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let numel = buf.get_u32_le() as usize;
        if numel > buf.remaining() / 8 {
            return Err(CheckpointError::Truncated);
        }
        m.push((0..numel).map(|_| buf.get_f32_le()).collect::<Vec<f32>>());
        v.push((0..numel).map(|_| buf.get_f32_le()).collect::<Vec<f32>>());
    }
    Ok(AdamState { lr, beta1, beta2, eps, t, m, v })
}

fn decode_trainer(buf: &mut &[u8]) -> Result<TrainerState, CheckpointError> {
    // Fixed-size head: 5×u64 + f64 + 4×u64 + u64 + 3×u32 + 2×u8.
    if buf.remaining() < 102 {
        return Err(CheckpointError::Truncated);
    }
    let epoch = buf.get_u64_le();
    let steps = buf.get_u64_le();
    let batches = buf.get_u64_le();
    let next_anchor = buf.get_u64_le();
    let total_pairs = buf.get_u64_le();
    let total_loss = buf.get_f64_le();
    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = buf.get_u64_le();
    }
    let seed = buf.get_u64_le();
    let batch_pairs = buf.get_u32_le();
    let sampling_number = buf.get_u32_le();
    let sub_stride = buf.get_u32_le();
    let use_sub_loss = match buf.get_u8() {
        0 => false,
        1 => true,
        _ => return Err(CheckpointError::Corrupt("bad bool in trainer state")),
    };
    let loss = match buf.get_u8() {
        0 => LossKind::Mse,
        1 => LossKind::QError,
        _ => return Err(CheckpointError::Corrupt("unknown loss kind")),
    };
    if buf.remaining() < 4 {
        return Err(CheckpointError::Truncated);
    }
    let order_len = buf.get_u32_le() as usize;
    if order_len > buf.remaining() / 4 {
        return Err(CheckpointError::Truncated);
    }
    let order: Vec<u32> = (0..order_len).map(|_| buf.get_u32_le()).collect();
    if buf.remaining() < 4 {
        return Err(CheckpointError::Truncated);
    }
    let buffer_len = buf.get_u32_le() as usize;
    if buffer_len > buf.remaining() / 12 {
        return Err(CheckpointError::Truncated);
    }
    let buffer: Vec<(u32, u32, f32)> = (0..buffer_len)
        .map(|_| {
            let a = buf.get_u32_le();
            let s = buf.get_u32_le();
            let w = buf.get_f32_le();
            (a, s, w)
        })
        .collect();
    Ok(TrainerState {
        epoch,
        steps,
        batches,
        next_anchor,
        total_pairs,
        total_loss,
        rng,
        seed,
        batch_pairs,
        sampling_number,
        sub_stride,
        use_sub_loss,
        loss,
        order,
        buffer,
    })
}

/// Decode a checkpoint buffer into its typed sections. Never panics on
/// malformed input.
pub fn decode_checkpoint(full: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    let mut buf = full;
    if buf.remaining() < 12 {
        return Err(CheckpointError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION_V2 {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    if full.len() < 16 {
        return Err(CheckpointError::Truncated);
    }
    // Whole-file integrity first: the trailer CRC covers every preceding
    // byte, so any single-bit flip anywhere is caught before section
    // parsing begins.
    let trailer = u32::from_le_bytes(full[full.len() - 4..].try_into().expect("4-byte trailer"));
    if crc32(&full[..full.len() - 4]) != trailer {
        return Err(CheckpointError::CrcMismatch { what: "file" });
    }
    let n_sections = buf.get_u32_le() as usize;
    let mut buf = &full[12..full.len() - 4];
    let mut params: Option<Vec<ParamRow>> = None;
    let mut optimizer: Option<AdamState> = None;
    let mut trainer: Option<TrainerState> = None;
    for _ in 0..n_sections {
        if buf.remaining() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let kind = buf.get_u32_le();
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len + 4 {
            return Err(CheckpointError::Truncated);
        }
        let payload = &buf[..len];
        buf.advance(len);
        let stored_crc = buf.get_u32_le();
        let (what, duplicate) = match kind {
            SECTION_PARAMS => ("params section", params.is_some()),
            SECTION_ADAM => ("adam section", optimizer.is_some()),
            SECTION_TRAINER => ("trainer section", trainer.is_some()),
            _ => ("unknown section", false),
        };
        if crc32(payload) != stored_crc {
            return Err(CheckpointError::CrcMismatch { what });
        }
        if duplicate {
            return Err(CheckpointError::Corrupt("duplicate section"));
        }
        let mut p = payload;
        match kind {
            SECTION_PARAMS => {
                let rows = decode_param_rows(&mut p)?;
                if p.remaining() != 0 {
                    return Err(CheckpointError::Corrupt("trailing bytes in params section"));
                }
                params = Some(rows);
            }
            SECTION_ADAM => {
                let state = decode_adam(&mut p)?;
                if p.remaining() != 0 {
                    return Err(CheckpointError::Corrupt("trailing bytes in adam section"));
                }
                optimizer = Some(state);
            }
            SECTION_TRAINER => {
                let state = decode_trainer(&mut p)?;
                if p.remaining() != 0 {
                    return Err(CheckpointError::Corrupt("trailing bytes in trainer section"));
                }
                trainer = Some(state);
            }
            // Unknown kinds: CRC verified above, payload skipped.
            _ => {}
        }
    }
    if buf.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes after section table"));
    }
    let params = params.ok_or(CheckpointError::Corrupt("missing params section"))?;
    Ok(TrainCheckpoint { params, optimizer, trainer })
}

/// Decode a checkpoint buffer into `(name, shape, data)` rows (weights
/// only).
pub fn decode(buf: &[u8]) -> Result<Vec<ParamRow>, CheckpointError> {
    decode_checkpoint(buf).map(|c| c.params)
}

/// Restore a checkpoint buffer into a model's parameters. A checkpoint
/// from the wrong `ModelKind`/`dim` yields
/// [`CheckpointError::Mismatch`] instead of panicking, with the model left
/// untouched.
pub fn load_params(params: &ParamSet, buf: &[u8]) -> Result<(), CheckpointError> {
    let snap = decode(buf)?;
    params.try_restore(&snap)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::models::ModelKind;

    #[test]
    fn roundtrip_all_models() {
        for kind in ModelKind::ALL {
            let model = kind.build(&ModelConfig { dim: 8, seed: 1 });
            let buf = save_params(model.params());
            let clone = kind.build(&ModelConfig { dim: 8, seed: 999 });
            load_params(clone.params(), &buf).unwrap();
            for ((n1, t1), (n2, t2)) in model.params().iter().zip(clone.params().iter()) {
                assert_eq!(n1, n2);
                assert_eq!(t1.to_vec(), t2.to_vec(), "{kind}: weights differ after roundtrip");
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE........"), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn truncated_rejected() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 2 });
        let buf = save_params(model.params());
        let cut = &buf[..buf.len() / 2];
        assert!(matches!(
            decode(cut),
            Err(CheckpointError::Truncated | CheckpointError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn version_checked() {
        let mut raw = save_params(ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 3 }).params()).to_vec();
        raw[4] = 99; // bump version byte
        assert_eq!(decode(&raw), Err(CheckpointError::UnsupportedVersion(99)));
    }

    #[test]
    fn empty_buffer_rejected() {
        assert_eq!(decode(&[]), Err(CheckpointError::Truncated));
    }

    #[test]
    fn wrong_architecture_is_recoverable_error() {
        let srn = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let buf = save_params(srn.params());
        let tmn = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 1 });
        let before = tmn.params().fingerprint();
        let err = load_params(tmn.params(), &buf).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "got {err:?}");
        assert_eq!(tmn.params().fingerprint(), before, "failed load must not write");
    }

    #[test]
    fn wrong_dim_is_recoverable_error() {
        let small = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 1 });
        let big = ModelKind::Tmn.build(&ModelConfig { dim: 16, seed: 1 });
        let err = load_params(big.params(), &save_params(small.params())).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "got {err:?}");
    }

    fn sample_trainer_state() -> TrainerState {
        TrainerState {
            epoch: 3,
            steps: 47,
            batches: 5,
            next_anchor: 9,
            total_pairs: 60,
            total_loss: 1.25,
            rng: [1, 2, 3, 4],
            seed: 11,
            batch_pairs: 12,
            sampling_number: 6,
            sub_stride: 5,
            use_sub_loss: true,
            loss: LossKind::Mse,
            order: vec![4, 1, 0, 3, 2, 5, 9, 7, 8, 6, 11, 10],
            buffer: vec![(4, 7, 0.5), (4, 2, 0.25)],
        }
    }

    #[test]
    fn full_checkpoint_roundtrip() {
        use tmn_autograd::optim::Adam;
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 5 });
        let adam = Adam::new(model.params(), 5e-3).state_snapshot();
        let trainer = sample_trainer_state();
        let buf = save_checkpoint(model.params(), Some(&adam), Some(&trainer));
        let decoded = decode_checkpoint(&buf).unwrap();
        assert_eq!(decoded.params, model.params().snapshot());
        assert_eq!(decoded.optimizer.as_ref(), Some(&adam));
        assert_eq!(decoded.trainer.as_ref(), Some(&trainer));
    }

    #[test]
    fn crc_rejects_every_byte_corruption() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 6 });
        let adam = tmn_autograd::optim::Adam::new(model.params(), 1e-3).state_snapshot();
        let clean = save_checkpoint(model.params(), Some(&adam), Some(&sample_trainer_state()));
        // Flip one bit in a sample of positions across the whole file; every
        // corruption must be rejected (the fuzz suite covers this densely).
        for pos in (0..clean.len()).step_by(7) {
            let mut bad = clean.to_vec();
            bad[pos] ^= 0x10;
            assert!(decode_checkpoint(&bad).is_err(), "bit flip at byte {pos} accepted");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
