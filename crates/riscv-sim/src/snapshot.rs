//! Versioned, checksummed snapshots of complete machine state.
//!
//! A snapshot captures everything a simulator needs to continue a run
//! bit-for-bit: integer registers, pc, scratch CSRs (mtvec/mepc/mcause/
//! mtval live there), every mapped memory page, the console and marker
//! logs, the trap log, the cycle/retirement counters, and — through the
//! [`crate::Coprocessor`] snapshot hooks — the attached accelerator's
//! architectural state (register file, FSM state including the sticky
//! `Error` state, latched status word).
//!
//! The wire format is a little-endian byte stream wrapped in one envelope
//! (magic, format version, a per-timing-model *kind* tag, body length,
//! FNV-1a-64 checksum). [`crate::Machine::snapshot`] writes the body as
//! the encoded [`CpuSnapshot`] followed by the timing model's own state,
//! so version and corruption checks behave identically on every
//! simulator: a snapshot from a different format version fails with a
//! clear [`SnapshotError::Version`], never garbage state.

use crate::cpu::{Marker, TrapRecord};

/// Current snapshot format version. Bump on any wire-format change.
///
/// Version 2 stores the core and the timing model's state in one body;
/// version 1 nested a separately sealed core snapshot inside the Rocket
/// and atomic bodies.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Envelope magic: `"RVSN"` little-endian.
const SNAPSHOT_MAGIC: u32 = 0x4E53_5652;

/// Why a snapshot could not be decoded or restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The bytes do not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The snapshot was written by a different format version.
    Version {
        /// Version recorded in the snapshot.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The snapshot is of a different simulator kind than the target.
    WrongKind {
        /// Kind tag recorded in the snapshot.
        found: u32,
        /// Kind tag the decoder expected.
        expected: u32,
    },
    /// The stored checksum does not match the content.
    Checksum {
        /// Checksum recorded in the snapshot.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// The byte stream ended before the structure was complete.
    Truncated,
    /// A field decoded to an impossible value.
    Malformed(&'static str),
    /// The snapshot carries coprocessor state the attached coprocessor
    /// cannot restore (wrong accelerator, or none attached).
    Coprocessor {
        /// Coprocessor tag recorded in the snapshot.
        found: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::Version { found, supported } => write!(
                f,
                "snapshot version {found} is not supported (this build reads version {supported})"
            ),
            SnapshotError::WrongKind { found, expected } => write!(
                f,
                "snapshot kind {found:#010x} does not match the target simulator \
                 (expected {expected:#010x})"
            ),
            SnapshotError::Checksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Coprocessor { found } => write!(
                f,
                "snapshot carries coprocessor state (tag {found:#010x}) the attached \
                 coprocessor cannot restore"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash — the envelope checksum.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Little-endian byte-stream writer for snapshot bodies.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn u128(&mut self, value: u128) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a boolean as one byte.
    pub fn bool(&mut self, value: bool) {
        self.u8(u8::from(value));
    }

    /// Appends a length-prefixed byte blob.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// The accumulated bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte-stream reader matching [`ByteWriter`]. Every read
/// fails with [`SnapshotError::Truncated`] past the end of the stream.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A reader over `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.data.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a boolean byte (must be 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("boolean byte out of range")),
        }
    }

    /// Reads a length-prefixed byte blob.
    pub fn blob(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated)?;
        self.take(len)
    }

    /// True once the stream is fully consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Fails unless the stream is fully consumed — decoders call this last
    /// so trailing junk is rejected rather than silently ignored.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing bytes after snapshot"))
        }
    }
}

/// Wraps `body` in the common snapshot envelope:
/// `magic | version | kind | body-length | body | fnv1a64-checksum`.
#[must_use]
pub fn seal(kind: u32, body: &[u8]) -> Vec<u8> {
    let mut writer = ByteWriter::new();
    writer.u32(SNAPSHOT_MAGIC);
    writer.u32(SNAPSHOT_VERSION);
    writer.u32(kind);
    writer.u64(body.len() as u64);
    let mut bytes = writer.finish();
    bytes.extend_from_slice(body);
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Opens a sealed envelope, verifying magic, version, kind, length and
/// checksum; returns the body slice.
pub fn unseal(bytes: &[u8], expected_kind: u32) -> Result<&[u8], SnapshotError> {
    let mut reader = ByteReader::new(bytes);
    let magic = reader.u32()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = reader.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Version {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let kind = reader.u32()?;
    if kind != expected_kind {
        return Err(SnapshotError::WrongKind {
            found: kind,
            expected: expected_kind,
        });
    }
    let body_len = usize::try_from(reader.u64()?).map_err(|_| SnapshotError::Truncated)?;
    let header_len = 4 + 4 + 4 + 8;
    let expected_total = header_len + body_len + 8;
    if bytes.len() < expected_total {
        return Err(SnapshotError::Truncated);
    }
    if bytes.len() > expected_total {
        return Err(SnapshotError::Malformed("trailing bytes after snapshot"));
    }
    let stored = u64::from_le_bytes(bytes[expected_total - 8..].try_into().unwrap());
    let computed = fnv1a64(&bytes[..expected_total - 8]);
    if stored != computed {
        return Err(SnapshotError::Checksum { stored, computed });
    }
    Ok(&bytes[header_len..header_len + body_len])
}

/// Opaque serialized coprocessor state. The `tag` identifies the
/// coprocessor implementation that produced it; a restore into a
/// different implementation fails with [`SnapshotError::Coprocessor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoprocSnapshot {
    /// Implementation tag (e.g. `"DECA"` for the decimal accelerator).
    pub tag: u32,
    /// Implementation-defined state bytes.
    pub data: Vec<u8>,
}

/// Envelope kind tag of a functional-machine snapshot.
pub const KIND_CPU: u32 = 0x5543_5046; // "FPCU"

/// Complete architectural state of the functional core — everything
/// [`crate::Cpu::restore`] needs to continue a run bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuSnapshot {
    /// The 32 integer registers.
    pub regs: [u64; 32],
    /// The program counter.
    pub pc: u64,
    /// The cycle counter.
    pub cycle: u64,
    /// Instructions retired.
    pub instret: u64,
    /// The RoCC busy-watchdog threshold.
    pub rocc_watchdog: u32,
    /// Scratch CSR file (mtvec/mepc/mcause/mtval and friends), sorted by
    /// CSR number.
    pub csrs: Vec<(u16, u64)>,
    /// Every mapped memory page as `(base address, page bytes)`.
    pub pages: Vec<(u64, Vec<u8>)>,
    /// Console output so far.
    pub console: Vec<u8>,
    /// Markers recorded so far.
    pub markers: Vec<Marker>,
    /// Traps delivered so far.
    pub trap_log: Vec<TrapRecord>,
    /// Attached coprocessor state, if the coprocessor supports snapshots.
    pub coproc: Option<CoprocSnapshot>,
}

impl CpuSnapshot {
    /// Appends the snapshot to a body under construction.
    pub fn encode(&self, w: &mut ByteWriter) {
        for reg in self.regs {
            w.u64(reg);
        }
        w.u64(self.pc);
        w.u64(self.cycle);
        w.u64(self.instret);
        w.u32(self.rocc_watchdog);
        w.u64(self.csrs.len() as u64);
        for &(csr, value) in &self.csrs {
            w.u16(csr);
            w.u64(value);
        }
        w.u64(self.pages.len() as u64);
        for (base, data) in &self.pages {
            w.u64(*base);
            w.blob(data);
        }
        w.blob(&self.console);
        w.u64(self.markers.len() as u64);
        for marker in &self.markers {
            w.u64(marker.id);
            w.u64(marker.cycle);
            w.u64(marker.instret);
        }
        w.u64(self.trap_log.len() as u64);
        for trap in &self.trap_log {
            w.u64(trap.cause);
            w.u64(trap.epc);
            w.u64(trap.tval);
        }
        match &self.coproc {
            None => w.bool(false),
            Some(coproc) => {
                w.bool(true);
                w.u32(coproc.tag);
                w.blob(&coproc.data);
            }
        }
    }

    /// Reads a snapshot written by [`CpuSnapshot::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`]
    /// if the stream does not hold a complete snapshot.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let mut regs = [0u64; 32];
        for reg in &mut regs {
            *reg = r.u64()?;
        }
        let pc = r.u64()?;
        let cycle = r.u64()?;
        let instret = r.u64()?;
        let rocc_watchdog = r.u32()?;
        let csr_count = r.u64()?;
        let mut csrs = Vec::new();
        for _ in 0..csr_count {
            let csr = r.u16()?;
            let value = r.u64()?;
            csrs.push((csr, value));
        }
        let page_count = r.u64()?;
        let mut pages = Vec::new();
        for _ in 0..page_count {
            let base = r.u64()?;
            let data = r.blob()?.to_vec();
            pages.push((base, data));
        }
        let console = r.blob()?.to_vec();
        let marker_count = r.u64()?;
        let mut markers = Vec::new();
        for _ in 0..marker_count {
            markers.push(Marker {
                id: r.u64()?,
                cycle: r.u64()?,
                instret: r.u64()?,
            });
        }
        let trap_count = r.u64()?;
        let mut trap_log = Vec::new();
        for _ in 0..trap_count {
            trap_log.push(TrapRecord {
                cause: r.u64()?,
                epc: r.u64()?,
                tval: r.u64()?,
            });
        }
        let coproc = if r.bool()? {
            let tag = r.u32()?;
            let data = r.blob()?.to_vec();
            Some(CoprocSnapshot { tag, data })
        } else {
            None
        };
        Ok(CpuSnapshot {
            regs,
            pc,
            cycle,
            instret,
            rocc_watchdog,
            csrs,
            pages,
            console,
            markers,
            trap_log,
            coproc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let body = b"decimal computation".to_vec();
        let sealed = seal(0x1234, &body);
        assert_eq!(unseal(&sealed, 0x1234).unwrap(), &body[..]);
    }

    #[test]
    fn unseal_rejects_wrong_kind_version_checksum_and_truncation() {
        let sealed = seal(0x1234, b"body");
        assert_eq!(
            unseal(&sealed, 0x9999),
            Err(SnapshotError::WrongKind {
                found: 0x1234,
                expected: 0x9999
            })
        );
        let mut versioned = sealed.clone();
        versioned[4] = 0x7F; // low byte of the version field
        assert!(matches!(
            unseal(&versioned, 0x1234),
            Err(SnapshotError::Version { found: 0x7F, .. })
        ));
        let mut corrupted = sealed.clone();
        let body_offset = 4 + 4 + 4 + 8;
        corrupted[body_offset] ^= 0x01;
        assert!(matches!(
            unseal(&corrupted, 0x1234),
            Err(SnapshotError::Checksum { .. })
        ));
        assert_eq!(
            unseal(&sealed[..sealed.len() - 1], 0x1234),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(unseal(b"nonsense????????????????", 0x1234), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn cpu_snapshot_bytes_roundtrip() {
        let snapshot = CpuSnapshot {
            regs: std::array::from_fn(|i| i as u64 * 3),
            pc: 0x8000_0010,
            cycle: 42,
            instret: 40,
            rocc_watchdog: 10_000,
            csrs: vec![(0x305, 0x8000_1000), (0x342, 24)],
            pages: vec![(0x8000_0000, vec![0xAB; 4096])],
            console: b"hello".to_vec(),
            markers: vec![Marker {
                id: 7,
                cycle: 9,
                instret: 8,
            }],
            trap_log: vec![TrapRecord {
                cause: 24,
                epc: 0x8000_0004,
                tval: 4,
            }],
            coproc: Some(CoprocSnapshot {
                tag: 0x4445_4341,
                data: vec![1, 2, 3],
            }),
        };
        let mut w = ByteWriter::new();
        snapshot.encode(&mut w);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(CpuSnapshot::decode(&mut r).unwrap(), snapshot);
        r.expect_end().unwrap();
    }
}
