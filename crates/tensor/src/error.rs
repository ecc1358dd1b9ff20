//! Error types for tensor operations.

use std::error::Error;
use std::fmt;

/// Errors produced by matrix construction and arithmetic.
///
/// Every fallible public function in this crate returns
/// `Result<_, TensorError>`; panicking variants are provided only for
/// indexing (mirroring `Vec`).
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Two operands had incompatible dimensions for the attempted
    /// operation. Holds `(left_rows, left_cols, right_rows, right_cols)`.
    ShapeMismatch {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A constructor was given a data buffer whose length does not
    /// equal `rows * cols`.
    DataLength {
        /// Expected number of elements.
        expected: usize,
        /// Actual buffer length.
        actual: usize,
    },
    /// A matrix dimension was zero where a non-empty matrix is required.
    EmptyDimension,
    /// A shape's element count (the product of its extents) does not
    /// fit in `usize`, so no buffer can hold it.
    ShapeOverflow {
        /// The extents whose product overflowed.
        dims: Vec<usize>,
    },
    /// Division encountered a zero (or near-zero) denominator and the
    /// chosen policy forbids it.
    DivisionByZero {
        /// Flat index of the offending element.
        index: usize,
    },
    /// A quantisation range was degenerate (e.g. max < min).
    InvalidQuantRange {
        /// Lower bound supplied.
        min: f64,
        /// Upper bound supplied.
        max: f64,
    },
    /// A cooperating worker thread panicked while executing a shared
    /// operation (e.g. the leader of a coalesced device batch), so
    /// this request's result never materialised. The shared state
    /// itself recovers; only the in-flight requests are lost.
    WorkerPanicked {
        /// Name of the shared operation that crashed.
        op: &'static str,
    },
    /// A fault-tolerant executor retried a failed operation up to its
    /// configured budget and every attempt faulted, so the work was
    /// abandoned rather than retried unboundedly. Typed (never a
    /// panic) so exactly the owning submitter sees it; the shared
    /// executor itself keeps serving.
    FaultBudgetExhausted {
        /// Name of the operation that kept faulting.
        op: &'static str,
        /// Attempts made (the initial try plus every retry).
        attempts: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { left, right, op } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            TensorError::DataLength { expected, actual } => write!(
                f,
                "data length {actual} does not match rows*cols = {expected}"
            ),
            TensorError::EmptyDimension => write!(f, "matrix dimensions must be non-zero"),
            TensorError::ShapeOverflow { dims } => {
                write!(f, "shape {dims:?} has more elements than usize can count")
            }
            TensorError::DivisionByZero { index } => {
                write!(f, "division by zero at flat index {index}")
            }
            TensorError::InvalidQuantRange { min, max } => {
                write!(f, "invalid quantisation range [{min}, {max}]")
            }
            TensorError::WorkerPanicked { op } => {
                write!(f, "a cooperating worker panicked during {op}")
            }
            TensorError::FaultBudgetExhausted { op, attempts } => {
                write!(
                    f,
                    "fault retry budget exhausted after {attempts} attempts of {op}"
                )
            }
        }
    }
}

impl Error for TensorError {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TensorError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
            op: "matmul",
        };
        let msg = e.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error + Send + Sync + 'static>(_: E) {}
        takes_error(TensorError::EmptyDimension);
    }

    #[test]
    fn data_length_message() {
        let e = TensorError::DataLength {
            expected: 6,
            actual: 5,
        };
        assert_eq!(e.to_string(), "data length 5 does not match rows*cols = 6");
    }

    #[test]
    fn shape_overflow_names_the_extents() {
        let e = TensorError::ShapeOverflow {
            dims: vec![usize::MAX, 2],
        };
        assert!(
            e.to_string().contains(&format!("[{}, 2]", usize::MAX)),
            "{e}"
        );
    }

    #[test]
    fn division_by_zero_carries_index() {
        let e = TensorError::DivisionByZero { index: 42 };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn fault_budget_exhausted_names_op_and_attempts() {
        let e = TensorError::FaultBudgetExhausted {
            op: "device pool shard",
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("device pool shard"));
        assert!(msg.contains("4 attempts"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }
}
