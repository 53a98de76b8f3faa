//! Model persistence: a small versioned binary format for trained
//! [`KernelModel`]s, doubling as the checkpoint format for fault-tolerant
//! training.
//!
//! Training on millions of points is exactly what one does *not* want to
//! repeat; a released kernel-machine library must round-trip models — and a
//! production trainer must survive being killed mid-run. Version 2 of the
//! format therefore adds two things to the v1 layout:
//!
//! - an optional **trainer-state record** ([`TrainerState`]: executed η,
//!   epoch counters, early-stopping state, simulated-clock state, and a
//!   plan fingerprint) so a checkpoint carries everything `EigenPro2::fit`
//!   needs to continue the exact trajectory, and
//! - a trailing **CRC32 checksum** over the whole record, so torn or
//!   bit-flipped files are detected instead of silently loaded.
//!
//! ```text
//! v1: "EP2M" | u32 version=1 | u16 name_len | name | f64 bandwidth
//!            | u64 n | u64 d | u64 l | n·d f64 centers | n·l f64 weights
//! v2: "EP2M" | u32 version=2 | u16 name_len | name | f64 bandwidth
//!            | u64 n | u64 d | u64 l | u8 flags (bit0 = trainer state)
//!            | [TrainerState] | n·d f64 centers | n·l f64 weights
//!            | u32 crc32 (over all preceding bytes)
//! ```
//!
//! All integers and floats are little-endian; matrices are stored as f64
//! regardless of the training precision (widening f32/bf16 → f64 is
//! lossless, so storage-precision weights round-trip bit-exactly).
//!
//! Writers go through an **atomic protocol**: serialise to a `.tmp` sibling,
//! `fsync`, rename over the destination, then best-effort `fsync` the
//! directory. A crash (or the `torn_write` failpoint) mid-write leaves the
//! previous file intact and at worst a stray `.tmp` — never a half-written
//! model under the real name.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use ep2_device::Precision;
use ep2_kernels::KernelKind;
use ep2_linalg::Matrix;

use crate::model::KernelModel;
use crate::trainer::EpochStats;
use crate::CoreError;

const MAGIC: &[u8; 4] = b"EP2M";
/// Current (written) format version.
pub const VERSION: u32 = 2;
/// Flag bit: a [`TrainerState`] record follows the header.
const FLAG_TRAINER_STATE: u8 = 1;

fn err(message: impl Into<String>) -> CoreError {
    CoreError::InvalidConfig {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial) — implemented inline; the integrity check
// must not pull in a dependency.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Trainer state
// ---------------------------------------------------------------------------

/// Everything beyond the weights that `EigenPro2::fit` needs to continue an
/// interrupted run on its exact trajectory: where the loop was, the η it was
/// actually executing (after any divergence backoffs), the early-stopping
/// and safeguard state, the operation/clock accounting, and a fingerprint of
/// the plan the run was executing under (so a checkpoint cannot silently
/// resume under a different configuration).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainerState {
    /// Epochs fully completed.
    pub epochs_done: u64,
    /// The step size in effect (after divergence backoffs, if any).
    pub eta: f64,
    /// Times the divergence safeguard halved η.
    pub eta_backoffs: u32,
    /// Times the safeguard rolled weights back to the last checkpoint.
    pub rollbacks: u32,
    /// Best validation error seen (early stopping), `INFINITY` when none.
    pub best_val: f64,
    /// Epochs since `best_val` improved.
    pub since_best: u64,
    /// Best (lowest) training MSE seen, for the divergence safeguard.
    pub prev_mse: f64,
    /// Accumulated SGD operations.
    pub sgd_ops: f64,
    /// Accumulated preconditioner operations.
    pub precond_ops: f64,
    /// Iterations executed.
    pub iterations: u64,
    /// Simulated device seconds elapsed.
    pub simulated_seconds: f64,
    /// Simulated-clock launches recorded.
    pub sim_launches: u64,
    /// Simulated-clock total operations.
    pub sim_total_ops: f64,
    /// FNV-1a fingerprint of the executed plan (precision, dims, m, s, q,
    /// kernel, bandwidth, seed, residency); resume refuses a mismatch.
    pub plan_fingerprint: u64,
    /// Numeric precision policy the run executed under.
    pub precision: Precision,
    /// Per-epoch statistics up to `epochs_done`.
    pub history: Vec<EpochStats>,
}

fn precision_tag(p: Precision) -> u8 {
    match p {
        Precision::F32 => 0,
        Precision::F64 => 1,
        Precision::Mixed => 2,
        Precision::Bf16 => 3,
    }
}

fn precision_from_tag(tag: u8) -> Result<Precision, CoreError> {
    match tag {
        0 => Ok(Precision::F32),
        1 => Ok(Precision::F64),
        2 => Ok(Precision::Mixed),
        3 => Ok(Precision::Bf16),
        other => Err(err(format!("unknown precision tag {other}"))),
    }
}

fn put_state(buf: &mut Vec<u8>, s: &TrainerState) {
    buf.extend_from_slice(&s.epochs_done.to_le_bytes());
    buf.extend_from_slice(&s.eta.to_le_bytes());
    buf.extend_from_slice(&s.eta_backoffs.to_le_bytes());
    buf.extend_from_slice(&s.rollbacks.to_le_bytes());
    buf.extend_from_slice(&s.best_val.to_le_bytes());
    buf.extend_from_slice(&s.since_best.to_le_bytes());
    buf.extend_from_slice(&s.prev_mse.to_le_bytes());
    buf.extend_from_slice(&s.sgd_ops.to_le_bytes());
    buf.extend_from_slice(&s.precond_ops.to_le_bytes());
    buf.extend_from_slice(&s.iterations.to_le_bytes());
    buf.extend_from_slice(&s.simulated_seconds.to_le_bytes());
    buf.extend_from_slice(&s.sim_launches.to_le_bytes());
    buf.extend_from_slice(&s.sim_total_ops.to_le_bytes());
    buf.extend_from_slice(&s.plan_fingerprint.to_le_bytes());
    buf.push(precision_tag(s.precision));
    buf.extend_from_slice(&(s.history.len() as u64).to_le_bytes());
    for e in &s.history {
        buf.extend_from_slice(&(e.epoch as u64).to_le_bytes());
        buf.extend_from_slice(&e.train_mse.to_le_bytes());
        buf.push(u8::from(e.val_error.is_some()));
        buf.extend_from_slice(&e.val_error.unwrap_or(0.0).to_le_bytes());
        buf.extend_from_slice(&e.simulated_seconds.to_le_bytes());
        buf.extend_from_slice(&e.wall_seconds.to_le_bytes());
    }
}

/// Little-endian reads off the front of a byte slice. Every caller checks
/// the remaining length before it reads, so a short read is a bug and
/// panics.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    /// Consumes and returns the next `n` bytes.
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn array<const N: usize>(&mut self) -> [u8; N] {
        self.take(N).try_into().expect("take returns N bytes")
    }

    fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.array())
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.array())
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.array())
    }

    fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.array())
    }
}

/// Fixed-size part of a serialised [`TrainerState`], before the history.
const STATE_FIXED_BYTES: usize = 8 + 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 1 + 8;
/// Bytes per serialised history entry.
const HISTORY_ENTRY_BYTES: usize = 8 + 8 + 1 + 8 + 8 + 8;

fn get_state(data: &mut Cursor<'_>) -> Result<TrainerState, CoreError> {
    if data.remaining() < STATE_FIXED_BYTES {
        return Err(err("truncated trainer state"));
    }
    let epochs_done = data.u64();
    let eta = data.f64();
    let eta_backoffs = data.u32();
    let rollbacks = data.u32();
    let best_val = data.f64();
    let since_best = data.u64();
    let prev_mse = data.f64();
    let sgd_ops = data.f64();
    let precond_ops = data.f64();
    let iterations = data.u64();
    let simulated_seconds = data.f64();
    let sim_launches = data.u64();
    let sim_total_ops = data.f64();
    let plan_fingerprint = data.u64();
    let precision = precision_from_tag(data.u8())?;
    let n_history = data.u64() as usize;
    let need = n_history
        .checked_mul(HISTORY_ENTRY_BYTES)
        .ok_or_else(|| err("trainer-state history length overflows"))?;
    if data.remaining() < need {
        return Err(err(format!(
            "truncated trainer state: need {need} history bytes, have {}",
            data.remaining()
        )));
    }
    let mut history = Vec::with_capacity(n_history);
    for _ in 0..n_history {
        let epoch = data.u64() as usize;
        let train_mse = data.f64();
        let has_val = data.u8() != 0;
        let val = data.f64();
        let simulated_seconds = data.f64();
        let wall_seconds = data.f64();
        history.push(EpochStats {
            epoch,
            train_mse,
            val_error: has_val.then_some(val),
            simulated_seconds,
            wall_seconds,
        });
    }
    Ok(TrainerState {
        epochs_done,
        eta,
        eta_backoffs,
        rollbacks,
        best_val,
        since_best,
        prev_mse,
        sgd_ops,
        precond_ops,
        iterations,
        simulated_seconds,
        sim_launches,
        sim_total_ops,
        plan_fingerprint,
        precision,
        history,
    })
}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

/// Serialises a model (no trainer state) to v2 bytes.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the model's kernel is not one of
/// the named families (a custom `Kernel` impl cannot be round-tripped by
/// name).
pub fn to_bytes(model: &KernelModel) -> Result<Vec<u8>, CoreError> {
    to_bytes_with_state(model, None)
}

/// Serialises a model plus an optional [`TrainerState`] (a checkpoint) to
/// v2 bytes, checksummed.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the model's kernel is not one of
/// the named families.
pub fn to_bytes_with_state(
    model: &KernelModel,
    state: Option<&TrainerState>,
) -> Result<Vec<u8>, CoreError> {
    let kernel = model.kernel();
    let name = kernel.name();
    if KernelKind::parse(name).is_none() {
        return Err(err(format!(
            "kernel {name} is not a named family; cannot persist"
        )));
    }
    let (n, d, l) = (model.n_centers(), model.dim(), model.n_outputs());
    let state_bytes = state
        .map(|s| STATE_FIXED_BYTES + s.history.len() * HISTORY_ENTRY_BYTES)
        .unwrap_or(0);
    let mut buf = Vec::with_capacity(
        4 + 4 + 2 + name.len() + 8 + 8 * 3 + 1 + state_bytes + 8 * (n * d + n * l) + 4,
    );
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    buf.extend_from_slice(&kernel.bandwidth().to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(d as u64).to_le_bytes());
    buf.extend_from_slice(&(l as u64).to_le_bytes());
    buf.push(if state.is_some() {
        FLAG_TRAINER_STATE
    } else {
        0
    });
    if let Some(s) = state {
        put_state(&mut buf, s);
    }
    for &v in model.centers().as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for &v in model.weights().as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// Parses the common header (shared by v1 and v2), returning
/// `(version, name, bandwidth, n, d, l)` with `data` advanced past it.
fn get_header<'a>(
    data: &mut Cursor<'a>,
) -> Result<(u32, &'a str, f64, usize, usize, usize), CoreError> {
    if data.remaining() < 8 || data.take(4) != MAGIC {
        return Err(err("not an EP2M model file (bad magic)"));
    }
    let version = data.u32();
    if version == 0 || version > VERSION {
        return Err(err(format!("unsupported model version {version}")));
    }
    if data.remaining() < 2 {
        return Err(err("truncated model file"));
    }
    let name_len = data.u16() as usize;
    if data.remaining() < name_len + 8 * 4 {
        return Err(err("truncated model file"));
    }
    let name =
        std::str::from_utf8(data.take(name_len)).map_err(|_| err("kernel name is not UTF-8"))?;
    let bandwidth = data.f64();
    let n = data.u64() as usize;
    let d = data.u64() as usize;
    let l = data.u64() as usize;
    Ok((version, name, bandwidth, n, d, l))
}

/// Payload bytes the declared dimensions require — every multiplication
/// checked, so hostile headers cannot overflow the size validation and land
/// in a short-read panic.
fn payload_bytes(n: usize, d: usize, l: usize) -> Result<usize, CoreError> {
    n.checked_mul(d)
        .and_then(|nd| nd.checked_add(n.checked_mul(l)?))
        .and_then(|elems| elems.checked_mul(8))
        .ok_or_else(|| err("model dimensions overflow"))
}

/// Deserialises a model from bytes (v1 or v2; v2 files are checksummed).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for bad magic, unsupported version,
/// truncated input, checksum mismatch, or an unknown kernel name — never
/// panics on corrupt input.
pub fn from_bytes(data: &[u8]) -> Result<KernelModel, CoreError> {
    from_bytes_full(data).map(|(model, _)| model)
}

/// Deserialises a model **and** its embedded [`TrainerState`] (if the file
/// carries one) from bytes.
///
/// # Errors
///
/// Same conditions as [`from_bytes`].
pub fn from_bytes_full(whole: &[u8]) -> Result<(KernelModel, Option<TrainerState>), CoreError> {
    let mut data = Cursor(whole);
    let (version, name, bandwidth, n, d, l) = get_header(&mut data)?;
    let kind = KernelKind::parse(name).ok_or_else(|| err(format!("unknown kernel {name}")))?;
    if !(bandwidth > 0.0 && bandwidth.is_finite()) {
        return Err(err(format!("invalid bandwidth {bandwidth}")));
    }
    let mut state = None;
    if version >= 2 {
        // Verify the checksum over everything before the 4-byte trailer
        // *before* trusting any field beyond the header.
        if data.remaining() < 1 + 4 {
            return Err(err("truncated model file"));
        }
        let body_len = whole.len() - 4;
        let stored = u32::from_le_bytes(whole[body_len..].try_into().expect("4 bytes"));
        let computed = crc32(&whole[..body_len]);
        if stored != computed {
            return Err(err(format!(
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x} \
                 — the file is corrupt or was torn mid-write"
            )));
        }
        let flags = data.u8();
        if flags & !FLAG_TRAINER_STATE != 0 {
            return Err(err(format!("unknown flags {flags:#04x}")));
        }
        if flags & FLAG_TRAINER_STATE != 0 {
            state = Some(get_state(&mut data)?);
        }
    }
    let trailer = if version >= 2 { 4 } else { 0 };
    let need = payload_bytes(n, d, l)?;
    let have = data.remaining().saturating_sub(trailer);
    if have < need || (version >= 2 && have != need) {
        return Err(err(format!(
            "truncated model file: need {need} payload bytes, have {have}"
        )));
    }
    let mut centers = vec![0.0_f64; n * d];
    for v in &mut centers {
        *v = data.f64();
    }
    let mut weights = vec![0.0_f64; n * l];
    for v in &mut weights {
        *v = data.f64();
    }
    let kernel: Arc<dyn ep2_kernels::Kernel> = kind.with_bandwidth(bandwidth).into();
    Ok((
        KernelModel::from_weights(
            kernel,
            Matrix::from_vec(n, d, centers),
            Matrix::from_vec(n, l, weights),
        ),
        state,
    ))
}

// ---------------------------------------------------------------------------
// Precision-erased loading
// ---------------------------------------------------------------------------

use ep2_linalg::{Bf16, Scalar};

/// A loaded model at whatever precision its file says it was trained under —
/// the precision-erased result of [`load_any`].
///
/// The EP2M format stores matrices widened to f64; the embedded
/// [`TrainerState::precision`] tag says which storage precision the run
/// actually executed (widening narrow storage to f64 is lossless, so casting
/// back reproduces the trained weights bit-for-bit). `AnyModel` performs
/// that one `match` so `ep2 inspect`, `ep2 eval`, the trainer's `--resume`,
/// and `ep2 serve` stop each maintaining their own per-precision arms:
///
/// - files without trainer state load as [`AnyModel::F64`] (plain f64 model
///   files);
/// - `Precision::Mixed` runs execute f32 storage and load as
///   [`AnyModel::F32`].
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// Single-precision storage (also `Precision::Mixed` runs).
    F32(KernelModel<f32>),
    /// Double-precision storage.
    F64(KernelModel<f64>),
    /// bfloat16 storage (half an f32 slot per resident element).
    Bf16(KernelModel<Bf16>),
}

impl AnyModel {
    /// Wraps an f64-storage model under the precision `tag` its trainer
    /// state declares (`None` = a plain model file, kept at f64).
    pub fn from_f64_storage(model: KernelModel, tag: Option<Precision>) -> Self {
        match tag {
            None | Some(Precision::F64) => AnyModel::F64(model),
            Some(Precision::F32) | Some(Precision::Mixed) => AnyModel::F32(model.cast()),
            Some(Precision::Bf16) => AnyModel::Bf16(model.cast()),
        }
    }

    /// The storage precision of the wrapped model.
    pub fn precision(&self) -> Precision {
        match self {
            AnyModel::F32(_) => Precision::F32,
            AnyModel::F64(_) => Precision::F64,
            AnyModel::Bf16(_) => Precision::Bf16,
        }
    }

    /// Number of centers `n`.
    pub fn n_centers(&self) -> usize {
        match self {
            AnyModel::F32(m) => m.n_centers(),
            AnyModel::F64(m) => m.n_centers(),
            AnyModel::Bf16(m) => m.n_centers(),
        }
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        match self {
            AnyModel::F32(m) => m.dim(),
            AnyModel::F64(m) => m.dim(),
            AnyModel::Bf16(m) => m.dim(),
        }
    }

    /// Output dimension `l`.
    pub fn n_outputs(&self) -> usize {
        match self {
            AnyModel::F32(m) => m.n_outputs(),
            AnyModel::F64(m) => m.n_outputs(),
            AnyModel::Bf16(m) => m.n_outputs(),
        }
    }

    /// Kernel family name.
    pub fn kernel_name(&self) -> &str {
        match self {
            AnyModel::F32(m) => m.kernel().name(),
            AnyModel::F64(m) => m.kernel().name(),
            AnyModel::Bf16(m) => m.kernel().name(),
        }
    }

    /// Kernel bandwidth σ.
    pub fn bandwidth(&self) -> f64 {
        match self {
            AnyModel::F32(m) => m.kernel().bandwidth(),
            AnyModel::F64(m) => m.kernel().bandwidth(),
            AnyModel::Bf16(m) => m.kernel().bandwidth(),
        }
    }

    /// The model cast to an explicit precision `S` — the one `match` the
    /// typed consumers (serve engines, resumed trainers) go through.
    pub fn cast_into<S: Scalar>(&self) -> KernelModel<S> {
        match self {
            AnyModel::F32(m) => m.cast(),
            AnyModel::F64(m) => m.cast(),
            AnyModel::Bf16(m) => m.cast(),
        }
    }

    /// Just the weights, cast to precision `S` (resume restores weights
    /// into an already-built model without copying the centers twice).
    pub fn weights_in<S: Scalar>(&self) -> Matrix<S> {
        match self {
            AnyModel::F32(m) => m.weights().cast(),
            AnyModel::F64(m) => m.weights().cast(),
            AnyModel::Bf16(m) => m.weights().cast(),
        }
    }

    /// Re-wraps at an explicit precision (the `ep2 serve --precision`
    /// override) — a no-op when the target matches.
    pub fn to_precision(&self, precision: Precision) -> AnyModel {
        match precision {
            Precision::F32 | Precision::Mixed => AnyModel::F32(self.cast_into()),
            Precision::F64 => AnyModel::F64(self.cast_into()),
            Precision::Bf16 => AnyModel::Bf16(self.cast_into()),
        }
    }

    /// Predicts through the wrapped precision with f64 input/output (the
    /// `ep2 eval` convenience): input rows are cast to the storage
    /// precision, evaluated under `opts`, and the result widened back.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the model dimension.
    pub fn predict_f64(&self, x: &Matrix, opts: &crate::model::PredictOptions) -> Matrix {
        match self {
            AnyModel::F32(m) => m.predict_with(&x.cast(), opts).cast(),
            AnyModel::F64(m) => m.predict_with(x, opts).cast(),
            AnyModel::Bf16(m) => m.predict_with(&x.cast(), opts).cast(),
        }
    }
}

/// Deserialises a model from bytes at its trained storage precision (see
/// [`AnyModel`]).
///
/// # Errors
///
/// Same conditions as [`from_bytes`].
pub fn any_from_bytes(data: &[u8]) -> Result<(AnyModel, Option<TrainerState>), CoreError> {
    let (model, state) = from_bytes_full(data)?;
    let tag = state.as_ref().map(|s| s.precision);
    Ok((AnyModel::from_f64_storage(model, tag), state))
}

/// Loads a model from `path` at its trained storage precision — the
/// precision-erased loader behind `ep2 eval`, `ep2 inspect`, trainer
/// resume, and `ep2 serve`.
///
/// # Errors
///
/// Propagates deserialisation and I/O failures.
pub fn load_any(path: impl AsRef<Path>) -> Result<AnyModel, CoreError> {
    load_any_with_state(path).map(|(model, _)| model)
}

/// [`load_any`] returning the embedded [`TrainerState`] too (the resume
/// path needs both).
///
/// # Errors
///
/// Propagates deserialisation and I/O failures.
pub fn load_any_with_state(
    path: impl AsRef<Path>,
) -> Result<(AnyModel, Option<TrainerState>), CoreError> {
    let data = std::fs::read(path.as_ref())
        .map_err(|e| err(format!("reading {}: {e}", path.as_ref().display())))?;
    any_from_bytes(&data)
}

// ---------------------------------------------------------------------------
// Inspection (the `ep2 inspect` backend)
// ---------------------------------------------------------------------------

/// Checksum verdict for an inspected file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumStatus {
    /// v2 file, stored CRC32 matches the contents.
    Valid,
    /// v2 file, stored CRC32 does not match (corrupt / torn).
    Mismatch {
        /// CRC32 stored in the trailer.
        stored: u32,
        /// CRC32 computed over the contents.
        computed: u32,
    },
    /// v1 file — the format carried no checksum.
    Absent,
}

/// What [`inspect`] reports about a model/checkpoint file: header fields,
/// dimensions, checksum verdict, and the embedded trainer state when present
/// and decodable.
#[derive(Debug, Clone)]
pub struct Inspection {
    /// Format version.
    pub version: u32,
    /// Kernel family name.
    pub kernel: String,
    /// Kernel bandwidth σ.
    pub bandwidth: f64,
    /// Centers count.
    pub n: usize,
    /// Feature dimension.
    pub d: usize,
    /// Output dimension.
    pub l: usize,
    /// Total file size in bytes.
    pub total_bytes: usize,
    /// Checksum verdict.
    pub checksum: ChecksumStatus,
    /// Embedded trainer state, when the file carries a decodable one.
    pub state: Option<TrainerState>,
}

/// Inspects a model/checkpoint file without requiring it to be fully valid:
/// the header must parse, but a checksum mismatch is *reported* (in
/// [`Inspection::checksum`]) rather than failing, so `ep2 inspect` can
/// diagnose a torn checkpoint.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when even the header is unreadable.
pub fn inspect(whole: &[u8]) -> Result<Inspection, CoreError> {
    let mut data = Cursor(whole);
    let (version, name, bandwidth, n, d, l) = get_header(&mut data)?;
    let checksum = if version >= 2 {
        if whole.len() < 4 {
            ChecksumStatus::Mismatch {
                stored: 0,
                computed: 0,
            }
        } else {
            let body_len = whole.len() - 4;
            let stored = u32::from_le_bytes(whole[body_len..].try_into().expect("4 bytes"));
            let computed = crc32(&whole[..body_len]);
            if stored == computed {
                ChecksumStatus::Valid
            } else {
                ChecksumStatus::Mismatch { stored, computed }
            }
        }
    } else {
        ChecksumStatus::Absent
    };
    let mut state = None;
    if version >= 2 && data.remaining() >= 1 {
        let flags = data.u8();
        if flags & FLAG_TRAINER_STATE != 0 {
            // Best-effort: a torn file may truncate inside the state; the
            // inspection then reports it as absent rather than failing.
            state = get_state(&mut data).ok();
        }
    }
    Ok(Inspection {
        version,
        kernel: name.to_string(),
        bandwidth,
        n,
        d,
        l,
        total_bytes: whole.len(),
        checksum,
        state,
    })
}

// ---------------------------------------------------------------------------
// File I/O — atomic writes
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: serialise to a `.tmp` sibling,
/// `fsync`, rename over `path`, best-effort directory `fsync`. The
/// `torn_write@byte=k` failpoint simulates a crash after `k` bytes — the
/// temp file is left torn and the rename never happens, so the previous
/// file (if any) survives intact.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    if let Some(k) = ep2_runtime::faults::payload("torn_write") {
        let k = (k as usize).min(bytes.len());
        file.write_all(&bytes[..k])?;
        let _ = file.sync_all();
        return Err(std::io::Error::other(format!(
            "injected fault: torn_write crashed the writer after {k} of {} bytes",
            bytes.len()
        )));
    }
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Saves a model to `path` (atomically: temp file + fsync + rename).
///
/// # Errors
///
/// Propagates serialisation and I/O failures (I/O errors are wrapped in
/// [`CoreError::InvalidConfig`] with the path in the message).
pub fn save(model: &KernelModel, path: impl AsRef<Path>) -> Result<(), CoreError> {
    let bytes = to_bytes(model)?;
    write_atomic(path.as_ref(), &bytes)
        .map_err(|e| err(format!("writing {}: {e}", path.as_ref().display())))
}

/// Saves a checkpoint (model + trainer state) to `path` atomically.
///
/// # Errors
///
/// Propagates serialisation and I/O failures.
pub fn save_checkpoint(
    model: &KernelModel,
    state: &TrainerState,
    path: impl AsRef<Path>,
) -> Result<(), CoreError> {
    let bytes = to_bytes_with_state(model, Some(state))?;
    write_atomic(path.as_ref(), &bytes)
        .map_err(|e| err(format!("writing {}: {e}", path.as_ref().display())))
}

/// Loads a model from `path`.
///
/// # Errors
///
/// Propagates deserialisation and I/O failures.
pub fn load(path: impl AsRef<Path>) -> Result<KernelModel, CoreError> {
    let data = std::fs::read(path.as_ref())
        .map_err(|e| err(format!("reading {}: {e}", path.as_ref().display())))?;
    from_bytes(&data)
}

/// Loads a checkpoint (model + optional trainer state) from `path`.
///
/// # Errors
///
/// Propagates deserialisation and I/O failures.
pub fn load_checkpoint(
    path: impl AsRef<Path>,
) -> Result<(KernelModel, Option<TrainerState>), CoreError> {
    let data = std::fs::read(path.as_ref())
        .map_err(|e| err(format!("reading {}: {e}", path.as_ref().display())))?;
    from_bytes_full(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PredictOptions;
    use ep2_kernels::LaplacianKernel;

    fn model() -> KernelModel {
        let kernel: Arc<dyn ep2_kernels::Kernel> = Arc::new(LaplacianKernel::new(2.5));
        let centers = Matrix::from_fn(7, 3, |i, j| (i * 3 + j) as f64 * 0.1);
        let weights = Matrix::from_fn(7, 2, |i, j| (i + j) as f64 - 3.0);
        KernelModel::from_weights(kernel, centers, weights)
    }

    fn state() -> TrainerState {
        TrainerState {
            epochs_done: 3,
            eta: 0.75,
            eta_backoffs: 1,
            rollbacks: 0,
            best_val: 0.125,
            since_best: 1,
            prev_mse: 0.03,
            sgd_ops: 1.5e9,
            precond_ops: 2.0e7,
            iterations: 42,
            simulated_seconds: 1.25,
            sim_launches: 42,
            sim_total_ops: 1.52e9,
            plan_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            precision: Precision::Bf16,
            history: vec![
                EpochStats {
                    epoch: 1,
                    train_mse: 0.2,
                    val_error: Some(0.3),
                    simulated_seconds: 0.4,
                    wall_seconds: 0.01,
                },
                EpochStats {
                    epoch: 2,
                    train_mse: 0.05,
                    val_error: None,
                    simulated_seconds: 0.8,
                    wall_seconds: 0.02,
                },
            ],
        }
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let m = model();
        let bytes = to_bytes(&m).unwrap();
        let m2 = from_bytes(&bytes).unwrap();
        assert_eq!(m2.n_centers(), 7);
        assert_eq!(m2.kernel().name(), "laplacian");
        assert_eq!(m2.kernel().bandwidth(), 2.5);
        let x = Matrix::from_fn(4, 3, |i, j| (i + j) as f64 * 0.3);
        let (p1, p2) = (
            m.predict_with(&x, &PredictOptions::default()),
            m2.predict_with(&x, &PredictOptions::default()),
        );
        assert_eq!(p1.as_slice(), p2.as_slice());
    }

    #[test]
    fn trainer_state_round_trips_exactly() {
        let m = model();
        let s = state();
        let bytes = to_bytes_with_state(&m, Some(&s)).unwrap();
        let (m2, s2) = from_bytes_full(&bytes).unwrap();
        assert_eq!(m.weights().as_slice(), m2.weights().as_slice());
        let s2 = s2.expect("state embedded");
        assert_eq!(s2, s);
    }

    #[test]
    fn stateless_v2_reports_no_state() {
        let bytes = to_bytes(&model()).unwrap();
        let (_, s) = from_bytes_full(&bytes).unwrap();
        assert!(s.is_none());
    }

    #[test]
    fn v1_files_still_load() {
        // Hand-build a v1 record for the same model.
        let m = model();
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&9u16.to_le_bytes());
        buf.extend_from_slice(b"laplacian");
        buf.extend_from_slice(&2.5f64.to_le_bytes());
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&3u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        for &v in m.centers().as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for &v in m.weights().as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let m2 = from_bytes(&buf).unwrap();
        assert_eq!(m.weights().as_slice(), m2.weights().as_slice());
        let insp = inspect(&buf).unwrap();
        assert_eq!(insp.version, 1);
        assert_eq!(insp.checksum, ChecksumStatus::Absent);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ep2_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ep2m");
        let m = model();
        save(&m, &path).unwrap();
        let m2 = load(&path).unwrap();
        assert_eq!(m.weights().as_slice(), m2.weights().as_slice());
        // The atomic protocol leaves no temp file behind.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(from_bytes(b"NOPE").is_err());
        let bytes = to_bytes(&model()).unwrap();
        assert!(from_bytes(&bytes[..bytes.len() - 9]).is_err());
        assert!(from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = to_bytes(&model()).unwrap().to_vec();
        bytes[4] = 99;
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn bit_flip_caught_by_checksum() {
        let mut bytes = to_bytes_with_state(&model(), Some(&state()))
            .unwrap()
            .to_vec();
        // Flip one bit in the middle of the weights payload.
        let idx = bytes.len() - 20;
        bytes[idx] ^= 0x10;
        let e = from_bytes(&bytes).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");
        // inspect still reads the header and reports the mismatch.
        let insp = inspect(&bytes).unwrap();
        assert!(matches!(insp.checksum, ChecksumStatus::Mismatch { .. }));
    }

    #[test]
    fn trailing_garbage_rejected_in_v2() {
        let mut bytes = to_bytes(&model()).unwrap().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load("/definitely/not/a/real/path.ep2m").is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
