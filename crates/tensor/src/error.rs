//! Error type shared by fallible tensor operations.

use std::fmt;

/// Error returned by fallible operations in this crate.
///
/// Most hot-path methods on [`crate::Matrix`] panic on dimension mismatch (the
/// same convention `ndarray` and the standard library's slice indexing use),
/// but constructors and conversion helpers that ingest externally produced
/// data return `Result<_, TensorError>` so callers can recover.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// The provided data length does not match `rows * cols`.
    ShapeMismatch {
        /// Number of rows the caller requested.
        rows: usize,
        /// Number of columns the caller requested.
        cols: usize,
        /// Length of the data buffer actually provided.
        len: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { rows, cols, len } => write!(
                f,
                "data length {len} does not match requested shape {rows}x{cols}"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = TensorError::ShapeMismatch {
            rows: 2,
            cols: 3,
            len: 5,
        };
        assert_eq!(
            err.to_string(),
            "data length 5 does not match requested shape 2x3"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
