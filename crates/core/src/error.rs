//! Error types of the algorithm crate.

use qcc_congest::CongestError;
use std::error::Error;
use std::fmt;

/// Errors raised by the distributed APSP stack.
#[derive(Clone, Debug, PartialEq)]
pub enum ApspError {
    /// A network-level error (bad addressing); indicates a bug in the
    /// simulated algorithm, never expected on valid inputs.
    Congest(CongestError),
    /// A randomized stage aborted repeatedly (the paper's protocols abort
    /// on unlucky samples with probability `O(1/n)`; we retry a bounded
    /// number of times before giving up).
    StageAborted {
        /// Which stage kept aborting.
        stage: &'static str,
        /// How many attempts were made.
        attempts: u32,
    },
    /// The input graph contains a negative cycle, so APSP is undefined.
    NegativeCycle,
    /// Matrix dimensions (or graph sizes) disagree.
    DimensionMismatch {
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// An internal invariant of the algorithm was violated at runtime —
    /// typically because injected faults corrupted intermediate state that
    /// a reliable run could never produce.
    Internal {
        /// What went wrong, in one line.
        context: String,
    },
    /// The Las-Vegas driver exhausted its attempt budget without producing
    /// a matrix that passes the distributed verification certificate.
    VerificationFailed {
        /// Total attempts made (including any classical fallback).
        attempts: u32,
    },
    /// A distance product's entries are too large for its threshold
    /// search, which spans the `4M + 3` values `−2M − 1 ..= 2M + 2` for the
    /// largest finite magnitude `M`: the span must fit an `i64`, so `M` may
    /// be at most [`crate::MAX_PRODUCT_MAGNITUDE`] `= 2^61 − 1`.
    WeightOverflow {
        /// The largest finite magnitude among the product's entries.
        magnitude: u64,
    },
    /// A distance product's operand holds a `−∞` entry, which its
    /// threshold search cannot express: it would read the search's lower
    /// end as a finite product entry.
    NegInfEntry {
        /// Which operand: `"A"` or `"B"`.
        operand: &'static str,
        /// Row of the entry.
        row: usize,
        /// Column of the entry.
        col: usize,
    },
    /// A quantum-counting phase register outside `1 ..=`
    /// [`crate::MAX_GAMMA_BITS`] bits: one bit estimates nothing, and every
    /// extra bit doubles the run's exchanges and outcome table.
    RegisterBits {
        /// The requested register width.
        bits: u32,
    },
    /// An error that interrupted a run after rounds had already been
    /// charged. Wrapping preserves the cost of the failed work so callers
    /// (the driver, the CLI) can account for it honestly.
    Faulted {
        /// Rounds charged before the failure.
        rounds: u64,
        /// The underlying failure.
        source: Box<ApspError>,
    },
}

impl ApspError {
    /// Wraps `source` with the rounds its failed run already charged.
    /// Flattens nesting: re-wrapping a [`ApspError::Faulted`] accumulates
    /// rounds instead of stacking boxes.
    #[must_use]
    pub fn faulted(rounds: u64, source: ApspError) -> ApspError {
        match source {
            ApspError::Faulted {
                rounds: inner,
                source,
            } => ApspError::Faulted {
                rounds: rounds.max(inner),
                source,
            },
            other => ApspError::Faulted {
                rounds,
                source: Box::new(other),
            },
        }
    }

    /// Rounds charged by the failed run, if tracked.
    #[must_use]
    pub fn rounds_charged(&self) -> u64 {
        match self {
            ApspError::Faulted { rounds, .. } => *rounds,
            _ => 0,
        }
    }

    /// True for failures that a fresh attempt with new randomness can
    /// plausibly avoid: injected faults that broke through the envelope and
    /// unlucky randomized-stage aborts. Addressing bugs, bad inputs, and
    /// verification exhaustion are not retryable.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            ApspError::Congest(
                CongestError::DeliveryFailed { .. }
                | CongestError::NodeCrashed { .. }
                | CongestError::DecodeFailed { .. },
            ) => true,
            ApspError::StageAborted { .. } => true,
            ApspError::Internal { .. } => true,
            ApspError::Faulted { source, .. } => source.is_retryable(),
            _ => false,
        }
    }
}

impl fmt::Display for ApspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApspError::Congest(e) => write!(f, "network error: {e}"),
            ApspError::StageAborted { stage, attempts } => {
                write!(f, "stage '{stage}' aborted {attempts} times")
            }
            ApspError::NegativeCycle => write!(f, "graph contains a negative cycle"),
            ApspError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            ApspError::Internal { context } => {
                write!(f, "internal invariant violated: {context}")
            }
            ApspError::VerificationFailed { attempts } => {
                write!(
                    f,
                    "no APSP attempt passed verification after {attempts} attempts"
                )
            }
            ApspError::WeightOverflow { magnitude } => write!(
                f,
                "distance product weights of magnitude {magnitude} exceed its limit {}",
                crate::MAX_PRODUCT_MAGNITUDE
            ),
            ApspError::NegInfEntry { operand, row, col } => write!(
                f,
                "distance product operand {operand} has a -inf entry at ({row}, {col})"
            ),
            ApspError::RegisterBits { bits } => write!(
                f,
                "a {bits}-bit phase register is outside 1..={}",
                crate::MAX_GAMMA_BITS
            ),
            ApspError::Faulted { rounds, source } => {
                write!(f, "{source} (after charging {rounds} rounds)")
            }
        }
    }
}

impl Error for ApspError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ApspError::Congest(e) => Some(e),
            ApspError::Faulted { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<CongestError> for ApspError {
    fn from(e: CongestError) -> Self {
        ApspError::Congest(e)
    }
}

impl From<qcc_graph::NegativeCycleError> for ApspError {
    fn from(_: qcc_graph::NegativeCycleError) -> Self {
        ApspError::NegativeCycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_congest::NodeId;

    #[test]
    fn displays_are_informative() {
        let e = ApspError::StageAborted {
            stage: "lambda",
            attempts: 3,
        };
        assert!(e.to_string().contains("lambda"));
        let e = ApspError::DimensionMismatch {
            expected: 4,
            actual: 5,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('5'));
    }

    #[test]
    fn congest_errors_convert_and_chain() {
        let inner = CongestError::UnknownNode {
            node: NodeId::new(7),
            n: 4,
        };
        let e: ApspError = inner.clone().into();
        assert_eq!(e, ApspError::Congest(inner));
        assert!(e.source().is_some());
    }

    #[test]
    fn negative_cycle_converts() {
        let e: ApspError = qcc_graph::NegativeCycleError.into();
        assert_eq!(e, ApspError::NegativeCycle);
    }

    #[test]
    fn errors_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ApspError>();
    }

    #[test]
    fn faulted_wrapping_flattens_and_tracks_rounds() {
        let base = ApspError::Congest(CongestError::DeliveryFailed {
            phase: "x".into(),
            undelivered: 1,
            attempts: 9,
        });
        let once = ApspError::faulted(10, base.clone());
        assert_eq!(once.rounds_charged(), 10);
        let twice = ApspError::faulted(25, once);
        assert_eq!(twice.rounds_charged(), 25);
        match &twice {
            ApspError::Faulted { source, .. } => assert_eq!(**source, base),
            other => panic!("expected flat Faulted, got {other:?}"),
        }
        assert!(twice.source().is_some());
    }

    #[test]
    fn retryability_classifies_fault_and_logic_errors() {
        let delivery = ApspError::Congest(CongestError::DeliveryFailed {
            phase: "p".into(),
            undelivered: 2,
            attempts: 3,
        });
        assert!(delivery.is_retryable());
        assert!(ApspError::faulted(5, delivery).is_retryable());
        assert!(ApspError::StageAborted {
            stage: "lambda",
            attempts: 3
        }
        .is_retryable());
        assert!(ApspError::Internal {
            context: "mangled".into()
        }
        .is_retryable());
        assert!(!ApspError::NegativeCycle.is_retryable());
        assert!(!ApspError::RegisterBits { bits: 64 }.is_retryable());
        assert!(!ApspError::VerificationFailed { attempts: 4 }.is_retryable());
        assert!(!ApspError::Congest(CongestError::EmptyNetwork).is_retryable());
        // Coded gossip decode failures are luck-of-the-faults — retryable;
        // a disconnected topology never improves with a reseed.
        assert!(ApspError::Congest(CongestError::DecodeFailed {
            phase: "gossip".into(),
            undecoded: 1,
            rounds: 9,
        })
        .is_retryable());
        assert!(
            !ApspError::Congest(CongestError::Partitioned { reachable: 1, n: 2 }).is_retryable()
        );
    }
}
