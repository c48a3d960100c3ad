//! Crash-safe checkpoint container: a versioned, checksummed, atomic
//! on-disk envelope for snapshot payloads.
//!
//! Higher layers (search state, fine-tuning state) serialize themselves
//! into named binary *sections*; this module owns everything that makes
//! the result durable and trustworthy:
//!
//! ```text
//! file    := magic(u32="GMCP") format(u32) body_len(u64) crc32(u32) body
//! body    := kind_len(u32) kind(utf8) schema(u32) count(u32) section*
//! section := name_len(u32) name(utf8) data_len(u64) data
//! ```
//!
//! * **Versioning** — `format` is this envelope's layout version; `kind` +
//!   `schema` identify and version the payload so readers can reject
//!   snapshots written by a different subsystem or an incompatible schema
//!   *before* decoding any payload bytes.
//! * **Checksumming** — `crc32` (IEEE) covers the payload; truncation and
//!   bit flips are detected on load and reported as [`is_corruption`]
//!   errors rather than garbage state.
//! * **Atomicity** — [`save_atomic`] writes to a `<file>.tmp` sibling,
//!   fsyncs, then renames over the target; a crash mid-write leaves either
//!   the old snapshot or a `.tmp` leftover that loaders ignore, never a
//!   half-written checkpoint under the real name.
//!
//! The byte-level primitives ([`ByteWriter`]/[`ByteReader`]) encode floats
//! via `to_bits`, so every snapshot round-trips *bit-exactly* — the
//! foundation of the deterministic-replay guarantee tested in
//! `tests/checkpoint_resume.rs`.

use crate::{Result, TensorError};
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::Path;

/// Envelope magic: "GMCP".
const MAGIC: u32 = 0x474D_4350;

/// Envelope layout version (the outer format, not the payload schema).
pub const FORMAT_VERSION: u32 = 1;

/// Marker prefix distinguishing corruption from plain I/O failures.
const CORRUPT: &str = "checkpoint corrupt: ";

fn corrupt(msg: impl std::fmt::Display) -> TensorError {
    TensorError::Io(format!("{CORRUPT}{msg}"))
}

fn io_err(e: std::io::Error) -> TensorError {
    TensorError::Io(format!("checkpoint io: {e}"))
}

/// True when `err` reports a corrupted or incompatible checkpoint (bad
/// magic/checksum/version/truncation) rather than an ordinary I/O failure.
pub fn is_corruption(err: &TensorError) -> bool {
    matches!(err, TensorError::Io(msg) if msg.contains(CORRUPT))
}

/// FNV-1a 64-bit offset basis — seed for [`fnv1a`] chains.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit — a fixed, process-independent hash for config
/// fingerprints (unlike `DefaultHasher`, stable across toolchains).
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Slicing-by-8 lookup tables for [`crc32`], built at compile time.
///
/// `CRC_TABLES[0][b]` is the CRC of the single byte `b`; `CRC_TABLES[k][b]`
/// advances that by `k` zero bytes, so eight table lookups fold eight
/// input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// IEEE CRC-32 (the zlib/PNG polynomial), slicing-by-8 over
/// compile-time tables: the same value as the textbook bitwise loop,
/// eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Byte-level codec
// ---------------------------------------------------------------------

/// Appends little-endian primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f32 bit-exactly (NaN payloads included).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an f64 bit-exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends bytes verbatim, with no length prefix: a record encoded
    /// earlier by another writer.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Reads little-endian primitives with bounds checking; every overrun is a
/// corruption error, never a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "wanted {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a u64 and narrows it to usize, rejecting implausible sizes.
    pub fn get_len(&mut self, cap: usize) -> Result<usize> {
        let v = self.get_u64()?;
        let v = usize::try_from(v).map_err(|_| corrupt(format!("length {v} overflows usize")))?;
        if v > cap {
            return Err(corrupt(format!("implausible length {v} (cap {cap})")));
        }
        Ok(v)
    }

    /// Reads an f32 bit-exactly.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an f64 bit-exactly.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_u32()? as usize;
        if n > 1 << 24 {
            return Err(corrupt(format!("implausible string length {n}")));
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| corrupt(format!("bad utf8: {e}")))
    }

    /// Reads a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_len(1 << 32)?;
        Ok(self.take(n)?.to_vec())
    }
}

// ---------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------

/// A decoded checkpoint: payload identity plus named sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Payload kind (e.g. `"search"`, `"batched"`, `"teacher"`).
    pub kind: String,
    /// Payload schema version, owned by the writer of `kind`.
    pub schema: u32,
    /// Named binary sections, in write order.
    pub sections: Vec<(String, Vec<u8>)>,
}

impl Envelope {
    /// Creates an envelope for a payload kind and schema version.
    pub fn new(kind: &str, schema: u32) -> Self {
        Envelope {
            kind: kind.to_string(),
            schema,
            sections: Vec::new(),
        }
    }

    /// Appends a named section.
    pub fn push(&mut self, name: &str, bytes: Vec<u8>) {
        self.sections.push((name.to_string(), bytes));
    }

    /// Borrows a section's bytes by name.
    pub fn section(&self, name: &str) -> Result<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| corrupt(format!("missing section {name:?}")))
    }

    /// Serializes header + checksummed body into one byte vector.
    ///
    /// The CRC covers *everything* after the checksum field — kind,
    /// schema, and sections alike — so a bit flip anywhere in the file is
    /// detected (flips in magic/format/crc themselves fail their own
    /// checks).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = ByteWriter::new();
        body.put_str(&self.kind);
        body.put_u32(self.schema);
        body.put_u32(self.sections.len() as u32);
        for (name, bytes) in &self.sections {
            body.put_str(name);
            body.put_bytes(bytes);
        }
        let body = body.into_bytes();
        let mut out = ByteWriter::new();
        out.put_u32(MAGIC);
        out.put_u32(FORMAT_VERSION);
        out.put_u64(body.len() as u64);
        out.put_u32(crc32(&body));
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&body);
        bytes
    }

    /// Decodes and verifies an encoded envelope.
    ///
    /// Magic, format version, body length, and CRC are all checked before
    /// any body field is interpreted; any mismatch is an [`is_corruption`]
    /// error.
    pub fn decode(bytes: &[u8]) -> Result<Envelope> {
        let mut r = ByteReader::new(bytes);
        if r.get_u32()? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let format = r.get_u32()?;
        if format != FORMAT_VERSION {
            return Err(corrupt(format!(
                "unsupported envelope format v{format} (expected v{FORMAT_VERSION})"
            )));
        }
        let body_len = r.get_len(1 << 34)?;
        let stored_crc = r.get_u32()?;
        if r.remaining() != body_len {
            return Err(corrupt(format!(
                "body length {body_len} promised, {} present",
                r.remaining()
            )));
        }
        let body = r.take(body_len)?;
        let actual_crc = crc32(body);
        if actual_crc != stored_crc {
            return Err(corrupt(format!(
                "crc mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }
        let mut pr = ByteReader::new(body);
        let kind = pr.get_str()?;
        let schema = pr.get_u32()?;
        let count = pr.get_u32()? as usize;
        if count > 1 << 16 {
            return Err(corrupt(format!("implausible section count {count}")));
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let name = pr.get_str()?;
            let bytes = pr.get_bytes()?;
            sections.push((name, bytes));
        }
        Ok(Envelope {
            kind,
            schema,
            sections,
        })
    }
}

/// The `.tmp` sibling a checkpoint is staged in before the atomic rename.
pub fn staging_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes an envelope to `path` atomically: stage into `<path>.tmp`,
/// flush + fsync, rename over the target. Readers either see the previous
/// snapshot or the complete new one — never a prefix.
pub fn save_atomic(path: &Path, envelope: &Envelope) -> Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
    }
    let tmp = staging_path(path);
    let bytes = envelope.encode();
    let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
    f.write_all(&bytes).map_err(io_err)?;
    f.sync_all().map_err(io_err)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| {
        // Never leave a stale staging file behind a failed publish.
        std::fs::remove_file(&tmp).ok();
        io_err(e)
    })
}

/// Loads and verifies an envelope, requiring the expected payload `kind`.
///
/// Schema compatibility is the caller's concern (the payload owner knows
/// which schema versions it can migrate); a *kind* mismatch is always
/// corruption from this layer's point of view.
pub fn load(path: &Path, kind: &str) -> Result<Envelope> {
    let bytes = std::fs::read(path).map_err(io_err)?;
    let env = Envelope::decode(&bytes)?;
    if env.kind != kind {
        return Err(corrupt(format!(
            "payload kind {:?} where {kind:?} was expected",
            env.kind
        )));
    }
    Ok(env)
}

// ---------------------------------------------------------------------
// Durability schedule, rotation, crash hooks, and fallback loading
// ---------------------------------------------------------------------

/// How a checkpointed run simulates a crash (test/CI hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Panic after checkpointing the target iteration: unwinds, so the
    /// manager's `Drop` flush runs (in-process `catch_unwind` tests).
    Panic,
    /// `process::abort` — SIGKILL-like, no unwinding, no `Drop` (CI
    /// resume-smoke uses this from a child process).
    Abort,
}

/// Checkpointing configuration for a search or fine-tuning run.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory snapshots are written into (created on demand).
    pub dir: std::path::PathBuf,
    /// Write a snapshot every `every` iterations (clamped to ≥ 1).
    pub every: usize,
    /// Resume from the newest valid snapshot in `dir`, when one exists
    /// and its config fingerprint matches.
    pub resume: bool,
    /// Snapshots retained on disk (older ones are rotated out; ≥ 1).
    pub keep: usize,
    /// Simulate a crash after checkpointing iteration `.0`.
    pub crash_after: Option<(usize, CrashKind)>,
}

impl CheckpointOptions {
    /// Checkpointing into `dir` with per-iteration granularity.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            every: 1,
            resume: false,
            keep: 2,
            crash_after: None,
        }
    }

    /// Reads the crash hook from `GMORPH_CRASH_AFTER`.
    ///
    /// Accepts `"12"` (abort after iteration 12) or `"12:panic"`. Returns
    /// `None` when unset or unparseable.
    pub fn crash_after_from_env() -> Option<(usize, CrashKind)> {
        let raw = std::env::var("GMORPH_CRASH_AFTER").ok()?;
        let (iter, kind) = match raw.split_once(':') {
            Some((n, "panic")) => (n, CrashKind::Panic),
            Some((n, _)) => (n, CrashKind::Abort),
            None => (raw.as_str(), CrashKind::Abort),
        };
        iter.trim().parse::<usize>().ok().map(|i| (i, kind))
    }

    /// Executes the crash hook when the configured point lies in `iters`,
    /// the iteration (`n..=n`) or round of iterations just checkpointed.
    pub fn maybe_crash(&self, iters: RangeInclusive<usize>) {
        if let Some((at, kind)) = self.crash_after {
            if iters.contains(&at) {
                match kind {
                    CrashKind::Panic => {
                        panic!("GMORPH_CRASH_AFTER: simulated crash at iteration {at}")
                    }
                    CrashKind::Abort => {
                        eprintln!("GMORPH_CRASH_AFTER: aborting at iteration {at}");
                        std::process::abort();
                    }
                }
            }
        }
    }
}

/// Writes snapshots on a durability schedule with rotation.
///
/// `tick` is called once per completed iteration (or round of iterations)
/// with the fresh snapshot; it writes to disk every `every` iterations and
/// keeps the latest
/// snapshot *pending* in between. `Drop` flushes the pending snapshot —
/// and `Drop` runs during panic unwinding, so a panicking run loses zero
/// completed iterations. (An aborted process skips `Drop`; its loss is
/// bounded by `every`.)
#[derive(Debug)]
pub struct CheckpointManager {
    dir: std::path::PathBuf,
    prefix: &'static str,
    every: usize,
    keep: usize,
    pending: Option<(usize, Envelope)>,
    on_disk: Vec<usize>,
}

impl CheckpointManager {
    /// Creates a manager writing `prefix-NNNNNN.gmck` files under
    /// `opts.dir`.
    ///
    /// Snapshots already in `opts.dir` (a resumed run's) count toward
    /// `keep` as older than anything this manager writes. Rotation deletes
    /// only after a write has succeeded, so the snapshot a run resumed
    /// from stays on disk until a newer one is durable.
    pub fn new(opts: &CheckpointOptions, prefix: &'static str) -> Self {
        let mut on_disk: Vec<usize> = snapshot_files(&opts.dir, prefix)
            .into_iter()
            .map(|(iter, _)| iter)
            .collect();
        on_disk.reverse(); // Oldest first, like the writes appended below.
        CheckpointManager {
            dir: opts.dir.clone(),
            prefix,
            every: opts.every.max(1),
            keep: opts.keep.max(1),
            pending: None,
            on_disk,
        }
    }

    fn path_for(&self, iter: usize) -> std::path::PathBuf {
        self.dir.join(format!("{}-{iter:06}.gmck", self.prefix))
    }

    /// Accepts the snapshot taken after the completed iteration (`n..=n`)
    /// or round of iterations `iters`, filed under the last; writes it out
    /// when any of them hits the durability schedule.
    pub fn tick(&mut self, iters: RangeInclusive<usize>, env: Envelope) -> Result<()> {
        let due = iters.clone().any(|i| i.is_multiple_of(self.every));
        self.pending = Some((*iters.end(), env));
        if due {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes the pending snapshot (if any) to disk atomically and rotates
    /// old snapshots out.
    pub fn flush(&mut self) -> Result<()> {
        let Some((iter, env)) = self.pending.take() else {
            return Ok(());
        };
        let _span = gmorph_telemetry::span!("checkpoint.write_span", iter = iter);
        let path = self.path_for(iter);
        save_atomic(&path, &env)?;
        gmorph_telemetry::counter!("checkpoint.write");
        gmorph_telemetry::point!(
            "checkpoint.written",
            iter = iter,
            path = path.display().to_string().as_str()
        );
        // Rewriting an iteration already on disk replaced that file.
        self.on_disk.retain(|&old| old != iter);
        self.on_disk.push(iter);
        while self.on_disk.len() > self.keep {
            let old = self.on_disk.remove(0);
            std::fs::remove_file(self.path_for(old)).ok();
        }
        Ok(())
    }
}

impl Drop for CheckpointManager {
    fn drop(&mut self) {
        // Flush runs during panic unwinding too; never double-panic.
        let _ = self.flush();
    }
}

/// Scans `dir` for `prefix-NNNNNN.gmck` snapshots, newest first.
///
/// Leftover `.tmp` staging files never match the pattern, so a crash
/// mid-write is invisible here by construction.
pub fn snapshot_files(dir: &Path, prefix: &str) -> Vec<(usize, std::path::PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(usize, std::path::PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let rest = name
                .strip_prefix(prefix)?
                .strip_prefix('-')?
                .strip_suffix(".gmck")?;
            Some((rest.parse::<usize>().ok()?, e.path()))
        })
        .collect();
    found.sort_by_key(|e| std::cmp::Reverse(e.0));
    found
}

/// Loads the newest valid snapshot envelope of `kind` from `dir`.
///
/// Corrupt or unreadable snapshots are skipped (each logging a
/// `checkpoint.corrupt` telemetry event) and the next-newest is tried;
/// `Ok(None)` means no valid snapshot exists — callers start clean.
pub fn load_latest(dir: &Path, prefix: &str, kind: &str) -> Result<Option<Envelope>> {
    for (iter, path) in snapshot_files(dir, prefix) {
        match load(&path, kind) {
            Ok(env) => {
                gmorph_telemetry::counter!("checkpoint.load");
                gmorph_telemetry::point!(
                    "checkpoint.loaded",
                    iter = iter,
                    path = path.display().to_string().as_str()
                );
                return Ok(Some(env));
            }
            Err(err) => {
                gmorph_telemetry::counter!("checkpoint.corrupt");
                gmorph_telemetry::point!(
                    "checkpoint.rejected",
                    iter = iter,
                    path = path.display().to_string().as_str(),
                    corruption = is_corruption(&err),
                    error = err.to_string().as_str()
                );
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        let mut e = Envelope::new("test", 3);
        e.push("alpha", vec![1, 2, 3, 4]);
        e.push("beta", Vec::new());
        e.push("gamma", (0..=255u8).collect());
        e
    }

    /// The textbook bitwise CRC-32: the oracle the table version must
    /// match bit for bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_crc32_matches_bitwise_oracle() {
        let mut rng = crate::rng::Rng::new(0xC3C3_2024);
        let bytes: Vec<u8> = (0..10_007).map(|_| rng.below(256) as u8).collect();
        // Every length 0..=64 covers each chunk/remainder split.
        for len in 0..=64 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "len {len}"
            );
        }
        // Every start offset 0..8 over the long buffer shifts the chunk
        // boundaries through all alignments.
        for start in 0..8 {
            let tail = &bytes[start..];
            assert_eq!(crc32(tail), crc32_bitwise(tail), "offset {start}");
        }
    }

    #[test]
    fn byte_codec_roundtrips_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(f32::NAN);
        w.put_f64(-0.0);
        w.put_str("héllo");
        w.put_bytes(&[9, 9, 9]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_bytes().unwrap(), vec![9, 9, 9]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_rejects_overruns() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(is_corruption(&r.get_u32().unwrap_err()));
    }

    #[test]
    fn envelope_roundtrips() {
        let e = sample();
        let bytes = e.encode();
        let back = Envelope::decode(&bytes).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.section("gamma").unwrap().len(), 256);
        assert!(is_corruption(&back.section("missing").unwrap_err()));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Envelope::decode(&bytes[..cut]).unwrap_err();
            assert!(is_corruption(&err), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            // Either a decode error or (never) silent acceptance of
            // altered content.
            match Envelope::decode(&bad) {
                Err(e) => assert!(is_corruption(&e), "flip at {i}: {e:?}"),
                Ok(env) => panic!("flip at byte {i} went undetected: {env:?}"),
            }
        }
    }

    fn on_disk_iters(dir: &Path, prefix: &str) -> Vec<usize> {
        let mut iters: Vec<usize> = snapshot_files(dir, prefix)
            .iter()
            .map(|(i, _)| *i)
            .collect();
        iters.reverse();
        iters
    }

    #[test]
    fn rotation_counts_snapshots_left_by_an_aborted_run() {
        let dir = std::env::temp_dir().join(format!("gmorph-ckpt-rot-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut opts = CheckpointOptions::new(&dir);
        opts.every = 4;
        opts.keep = 2;
        // The first run aborts after iteration 14: no `Drop` flush, so the
        // pending iterations 13 and 14 never reach the disk.
        let mut first = CheckpointManager::new(&opts, "rot");
        for iter in 1..=14 {
            first.tick(iter..=iter, sample()).unwrap();
        }
        std::mem::forget(first);
        assert_eq!(on_disk_iters(&dir, "rot"), vec![8, 12]);
        // The resumed run continues from iteration 13. Iteration 12 (the
        // one it resumed from) survives until 16 is on disk.
        let mut second = CheckpointManager::new(&opts, "rot");
        for iter in 13..=15 {
            second.tick(iter..=iter, sample()).unwrap();
        }
        assert_eq!(on_disk_iters(&dir, "rot"), vec![8, 12]);
        second.tick(16..=16, sample()).unwrap();
        assert_eq!(on_disk_iters(&dir, "rot"), vec![12, 16]);
        for iter in 17..=40 {
            second.tick(iter..=iter, sample()).unwrap();
        }
        drop(second);
        assert_eq!(on_disk_iters(&dir, "rot"), vec![36, 40]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_a_snapshot_on_disk_counts_once() {
        let dir = std::env::temp_dir().join(format!("gmorph-ckpt-rew-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut opts = CheckpointOptions::new(&dir);
        opts.keep = 2;
        let mut first = CheckpointManager::new(&opts, "rew");
        for iter in 1..=2 {
            first.tick(iter..=iter, sample()).unwrap();
        }
        drop(first);
        // A run resumed from iteration 1 (say 2 was corrupt) rewrites 2.
        let mut second = CheckpointManager::new(&opts, "rew");
        second.tick(2..=2, sample()).unwrap();
        assert_eq!(on_disk_iters(&dir, "rew"), vec![1, 2]);
        second.tick(3..=3, sample()).unwrap();
        assert_eq!(on_disk_iters(&dir, "rew"), vec![2, 3]);
        drop(second);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_round_holding_a_multiple_of_every_is_written() {
        let dir = std::env::temp_dir().join(format!("gmorph-ckpt-round-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut opts = CheckpointOptions::new(&dir);
        opts.every = 5;
        opts.keep = 8;
        let mut mgr = CheckpointManager::new(&opts, "round");
        // Rounds of 4: 1–4 holds no multiple of 5, 5–8 and 9–12 each hold
        // one; each snapshot is filed under its round's last iteration.
        for first in [1, 5, 9] {
            mgr.tick(first..=first + 3, sample()).unwrap();
        }
        assert_eq!(on_disk_iters(&dir, "round"), vec![8, 12]);
        mgr.tick(13..=14, sample()).unwrap();
        assert_eq!(on_disk_iters(&dir, "round"), vec![8, 12]);
        drop(mgr); // Flushes the pending partial round.
        assert_eq!(on_disk_iters(&dir, "round"), vec![8, 12, 14]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_crash_hook_fires_after_the_round_holding_its_iteration() {
        let mut opts = CheckpointOptions::new(std::env::temp_dir());
        opts.crash_after = Some((6, CrashKind::Panic));
        opts.maybe_crash(1..=4);
        opts.maybe_crash(7..=8);
        assert!(std::panic::catch_unwind(|| opts.maybe_crash(5..=8)).is_err());
    }

    #[test]
    fn atomic_save_load_roundtrip_and_tmp_cleanup() {
        let dir = std::env::temp_dir().join(format!("gmorph-ckpt-env-{}", std::process::id()));
        let path = dir.join("snap.gmck");
        let e = sample();
        save_atomic(&path, &e).unwrap();
        assert!(!staging_path(&path).exists(), "staging file left behind");
        let back = load(&path, "test").unwrap();
        assert_eq!(back, e);
        // Kind mismatch is corruption.
        assert!(is_corruption(&load(&path, "other").unwrap_err()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
