//! Error type for the storage & serving subsystem.

use std::fmt;
use xjoin_core::CoreError;

/// Errors raised by the store, cache, prepared queries, or query service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An error from the multi-model engine (lowering, planning, execution).
    Core(CoreError),
    /// An error from the relational substrate (trie construction, schemas).
    Relational(relational::RelError),
    /// A query result will never arrive: the worker executing it died (or
    /// the service was shut down before the job ran).
    WorkerLost {
        /// Label of the lost job's query (its atom list), so the caller
        /// knows *which* submission will never resolve.
        label: String,
        /// The worker's panic payload, or a note that the service shut down
        /// before the job ran.
        panic: String,
    },
    /// The query's deadline expired before a result was produced — either
    /// while the job was still queued (checked at dequeue), mid-execution
    /// (checked every 256 steps of the engine's walk or expansion), or while
    /// the caller waited on its [`crate::Ticket`].
    DeadlineExceeded {
        /// Label of the query whose deadline expired (its atom list).
        label: String,
        /// How long the query had been waited on / worked on when the
        /// deadline was declared exceeded.
        waited: std::time::Duration,
    },
}

impl StoreError {
    /// A [`StoreError::WorkerLost`] for the job labelled `label`.
    pub fn worker_lost(label: impl Into<String>, panic: impl Into<String>) -> StoreError {
        StoreError::WorkerLost {
            label: label.into(),
            panic: panic.into(),
        }
    }

    /// A [`StoreError::DeadlineExceeded`] for the job labelled `label`.
    pub fn deadline_exceeded(label: impl Into<String>, waited: std::time::Duration) -> StoreError {
        StoreError::DeadlineExceeded {
            label: label.into(),
            waited,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Core(e) => write!(f, "core: {e}"),
            StoreError::Relational(e) => write!(f, "relational: {e}"),
            StoreError::WorkerLost { label, panic } => {
                write!(f, "query worker died before replying to `{label}`: {panic}")
            }
            StoreError::DeadlineExceeded { label, waited } => {
                write!(f, "deadline exceeded for `{label}` after {waited:?}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CoreError> for StoreError {
    fn from(e: CoreError) -> Self {
        StoreError::Core(e)
    }
}

impl From<relational::RelError> for StoreError {
    fn from(e: relational::RelError) -> Self {
        StoreError::Relational(e)
    }
}

/// Result alias for the storage subsystem.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: StoreError = CoreError::EmptyQuery.into();
        assert!(e.to_string().contains("core"));
        let e: StoreError = relational::RelError::EmptyQuery.into();
        assert!(e.to_string().contains("relational"));
        let lost = StoreError::worker_lost("Q(a,b)", "index out of bounds");
        let text = lost.to_string();
        assert!(text.contains("worker"));
        assert!(text.contains("Q(a,b)"), "{text}");
        assert!(text.contains("index out of bounds"), "{text}");
        let late = StoreError::deadline_exceeded("Q(a,b)", std::time::Duration::from_millis(7));
        let text = late.to_string();
        assert!(text.contains("deadline"), "{text}");
        assert!(text.contains("Q(a,b)"), "{text}");
    }
}
