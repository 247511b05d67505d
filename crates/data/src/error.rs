//! Typed error surface for the binary container format.

use std::fmt;

/// What a container file holds; stored as a `u16` tag in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Raw `(truck_id, Trajectory)` records.
    Trajectories,
    /// Labelled training samples (trajectory + ground-truth intervals).
    LabeledSamples,
}

impl RecordKind {
    /// The on-disk `u16` tag for this kind.
    pub fn tag(self) -> u16 {
        match self {
            RecordKind::Trajectories => 1,
            RecordKind::LabeledSamples => 2,
        }
    }

    /// Decodes an on-disk tag; `None` for unknown tags.
    pub fn from_tag(tag: u16) -> Option<Self> {
        match tag {
            1 => Some(RecordKind::Trajectories),
            2 => Some(RecordKind::LabeledSamples),
            _ => None,
        }
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RecordKind::Trajectories => "trajectories",
            RecordKind::LabeledSamples => "labeled-samples",
        };
        f.write_str(name)
    }
}

/// Why a record payload failed structural validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MalformedKind {
    /// The point-encoding mode byte is not a known mode.
    BadMode(u8),
    /// The payload ended before its declared contents.
    TruncatedPayload,
    /// A varint ran past its maximum width (corrupted continuation bits).
    VarintOverflow,
    /// Decoded timestamps are not strictly increasing.
    NonChronological,
    /// A decoded coordinate is outside valid latitude/longitude ranges.
    CoordinateRange,
    /// Ground-truth interval boundaries are not strictly increasing.
    TruthOrder,
    /// A declared element count is impossibly large for the payload.
    LengthOverflow,
    /// The payload has bytes left over after its declared contents.
    TrailingPayload,
}

impl fmt::Display for MalformedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MalformedKind::BadMode(m) => write!(f, "unknown point-encoding mode {m}"),
            MalformedKind::TruncatedPayload => f.write_str("payload shorter than declared"),
            MalformedKind::VarintOverflow => f.write_str("varint exceeds 64 bits"),
            MalformedKind::NonChronological => {
                f.write_str("timestamps are not strictly increasing")
            }
            MalformedKind::CoordinateRange => f.write_str("coordinate outside valid range"),
            MalformedKind::TruthOrder => {
                f.write_str("truth interval boundaries are not strictly increasing")
            }
            MalformedKind::LengthOverflow => {
                f.write_str("declared element count exceeds payload capacity")
            }
            MalformedKind::TrailingPayload => f.write_str("trailing bytes after payload contents"),
        }
    }
}

/// Errors produced while reading or writing binary containers.
#[derive(Debug)]
#[non_exhaustive]
pub enum DataError {
    /// An underlying I/O failure (not a format violation).
    Io(std::io::Error),
    /// The file does not start with the `LEADDATA` magic.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The header declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// The header declares a record-kind tag this build does not know.
    UnknownKind {
        /// The tag actually found.
        found: u16,
    },
    /// The file holds a different kind of record than the reader expects.
    WrongKind {
        /// The kind the reader was opened for.
        expected: RecordKind,
        /// The kind the header declares.
        found: RecordKind,
    },
    /// The file ended mid-header or mid-record.
    Truncated {
        /// Zero-based index of the record being read (0 covers the header).
        record: u64,
    },
    /// A record frame declares a length above [`crate::MAX_RECORD_LEN`].
    OversizedRecord {
        /// Zero-based index of the offending record.
        record: u64,
        /// The declared payload length.
        len: u64,
    },
    /// A record payload does not match its stored FNV-1a checksum.
    ChecksumMismatch {
        /// Zero-based index of the offending record.
        record: u64,
        /// The checksum stored in the frame.
        stored: u64,
        /// The checksum computed over the payload read.
        computed: u64,
    },
    /// A record payload passed its checksum but fails structural validation.
    Malformed {
        /// Zero-based index of the offending record.
        record: u64,
        /// What was wrong with it.
        kind: MalformedKind,
    },
    /// The declared record count was read but the `LEND` end marker is absent.
    MissingEndMarker,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "i/o error: {e}"),
            DataError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected \"LEADDATA\")")
            }
            DataError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            DataError::UnknownKind { found } => write!(f, "unknown record-kind tag {found}"),
            DataError::WrongKind { expected, found } => {
                write!(f, "wrong record kind: expected {expected}, found {found}")
            }
            DataError::Truncated { record } => {
                write!(f, "file truncated while reading record {record}")
            }
            DataError::OversizedRecord { record, len } => {
                write!(
                    f,
                    "record {record} declares oversized payload ({len} bytes)"
                )
            }
            DataError::ChecksumMismatch {
                record,
                stored,
                computed,
            } => write!(
                f,
                "record {record} checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            DataError::Malformed { record, kind } => write!(f, "record {record} malformed: {kind}"),
            DataError::MissingEndMarker => f.write_str("missing \"LEND\" end marker"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}
