use std::error::Error;
use std::fmt;

use tiresias_hhh::HhhError;
use tiresias_hierarchy::HierarchyError;

/// Errors produced by the Tiresias detector.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The builder configuration was invalid.
    InvalidConfig(String),
    /// A record's timestamp fell before the currently open timeunit.
    OutOfOrder {
        /// The offending timestamp (seconds).
        timestamp: u64,
        /// Start of the currently open timeunit (seconds).
        open_unit_start: u64,
    },
    /// A checkpoint failed to parse, migrate or restore.
    Checkpoint(String),
    /// The live engine is closed (draining for shutdown); no further
    /// records are admitted.
    Closed,
    /// A durability operation (WAL append or segment spill) failed;
    /// the engine refuses further admissions rather than acknowledge
    /// records it can no longer make durable. Carries the rendered
    /// `io::Error` (which is neither `Clone` nor `PartialEq`).
    Durability(String),
    /// The write-ahead log cannot currently append (a failed write or
    /// fsync): the batch was refused **before** anything was enqueued,
    /// and nothing was acknowledged. Unlike [`CoreError::Durability`]
    /// this is recoverable — the engine stays live and admission
    /// resumes as soon as appends succeed again, so a disk hiccup
    /// costs refused batches, not an outage.
    WalUnavailable(String),
    /// A category path is longer than the write-ahead log's record
    /// format can hold ([`crate::MAX_PATH_BYTES`]); the record was
    /// refused before it entered a batch.
    PathTooLong {
        /// Byte length of the refused path.
        len: usize,
    },
    /// An error bubbled up from the heavy hitter tracker.
    Hhh(HhhError),
    /// An error bubbled up from the hierarchy.
    Hierarchy(HierarchyError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            CoreError::OutOfOrder { timestamp, open_unit_start } => write!(
                f,
                "record timestamp {timestamp} precedes the open timeunit starting at {open_unit_start}"
            ),
            CoreError::Checkpoint(why) => write!(f, "checkpoint error: {why}"),
            CoreError::Closed => {
                write!(f, "the live engine is closed; no further records are admitted")
            }
            CoreError::Durability(why) => write!(f, "durability error: {why}"),
            CoreError::WalUnavailable(why) => {
                write!(f, "wal unavailable: {why}; batch refused, admission will resume")
            }
            CoreError::PathTooLong { len } => write!(
                f,
                "category path of {len} bytes exceeds the {}-byte bound",
                crate::MAX_PATH_BYTES
            ),
            CoreError::Hhh(e) => write!(f, "heavy hitter tracker error: {e}"),
            CoreError::Hierarchy(e) => write!(f, "hierarchy error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Hhh(e) => Some(e),
            CoreError::Hierarchy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HhhError> for CoreError {
    fn from(e: HhhError) -> Self {
        CoreError::Hhh(e)
    }
}

impl From<HierarchyError> for CoreError {
    fn from(e: HierarchyError) -> Self {
        CoreError::Hierarchy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<CoreError>();
        let e = CoreError::OutOfOrder { timestamp: 5, open_unit_start: 900 };
        assert!(e.to_string().contains("900"));
        let e = CoreError::from(HierarchyError::EmptyLabel);
        assert!(e.source().is_some());
    }
}
