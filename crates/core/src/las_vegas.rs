//! The Las-Vegas loop: attempt → certify → retry → fallback.
//!
//! The paper's algorithm succeeds with high probability, and on a
//! fault-injected network a run can also die on a typed error or, without
//! the reliable envelope, lose messages and return a skewed answer.
//! [`las_vegas`] turns such a run into one that never returns an
//! uncertified answer: it runs an attempt, certifies its output, retries
//! with fresh randomness on a rejected certificate or on an error that
//! [`ApspError::is_retryable`] accepts, and ends as the [`FallbackPolicy`]
//! says. Its three callers supply only what differs between them — how
//! one try, its certificate and the fallback run, with their span labels
//! and fault-plan salts:
//!
//! * [`crate::apsp_driver`]: the chosen APSP algorithm, the `D ⊗ D = D`
//!   certificate, the semiring baseline as fallback;
//! * the search stage of [`crate::distance_params`]: the extremum search,
//!   the distributed witness check, the classical scan as fallback;
//! * [`crate::gossip_apsp`]: coded gossip and a local solve, the local
//!   certificate, no fallback.

use crate::ApspError;

/// What to do when every attempt fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Degrade to the classical fallback — the semiring baseline for APSP,
    /// the value scan for a distance parameter — run with the reliable
    /// envelope forced on, and certify it like any other attempt.
    #[default]
    Semiring,
    /// Report the failure instead of degrading.
    Fail,
}

/// One try of the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Try {
    /// Attempt `i`, `0`-based.
    Attempt(u32),
    /// The fallback, numbered after the last attempt.
    Fallback(u32),
}

impl Try {
    /// The try's number: what its record stores and its salts add.
    pub(crate) fn index(self) -> u32 {
        match self {
            Try::Attempt(i) | Try::Fallback(i) => i,
        }
    }

    /// Label of the try's span: `{prefix}attempt-{i}` or `{prefix}fallback`.
    pub(crate) fn run_label(self, prefix: &str) -> String {
        match self {
            Try::Attempt(i) => format!("{prefix}attempt-{i}"),
            Try::Fallback(_) => format!("{prefix}fallback"),
        }
    }

    /// Label of its certificate's span: `{prefix}verify-{i}` or
    /// `{prefix}verify-fallback`.
    pub(crate) fn verify_label(self, prefix: &str) -> String {
        match self {
            Try::Attempt(i) => format!("{prefix}verify-{i}"),
            Try::Fallback(_) => format!("{prefix}verify-fallback"),
        }
    }
}

/// The outcome of one attempt (or the fallback).
#[derive(Clone, Debug)]
pub struct AttemptRecord {
    /// Attempt index (`0`-based; the fallback takes the next index).
    pub attempt: u32,
    /// Rounds this attempt charged, its certificate and any rounds wasted
    /// by a failed run included.
    pub rounds: u64,
    /// Certificate verdict: `None` when nothing was certified.
    pub verified: Option<bool>,
    /// The typed error that ended the attempt, if one did.
    pub error: Option<String>,
    /// `true` for the fallback entry.
    pub fallback: bool,
}

/// An accepted output with its full attempt history.
#[derive(Clone, Debug)]
pub struct LasVegasReport<T> {
    /// The accepted attempt's output.
    pub report: T,
    /// Every attempt in order, the accepted one last.
    pub attempts: Vec<AttemptRecord>,
    /// Rounds across *all* attempts, failed ones and certificates included
    /// — the honest price of the Las-Vegas loop.
    pub total_rounds: u64,
    /// `true` iff the accepted output passed its certificate.
    pub verified: bool,
    /// `true` iff the accepted output came from the fallback.
    pub used_fallback: bool,
}

/// Runs `max_retries + 1` attempts and then the fallback, until one is
/// accepted.
///
/// `run` returns a try's output together with the rounds it charged, a
/// failed run included. When `verify` is on, `certify` returns
/// `Ok(Some((verdict, rounds)))`, or `Ok(None)` when the output has
/// nothing to certify; an output is accepted unless its verdict is
/// `false`. Under [`FallbackPolicy::Semiring`] the fallback is
/// `run(Try::Fallback(max_retries + 1))`.
///
/// # Errors
///
/// * A non-retryable error at once — retrying cannot help.
/// * Under [`FallbackPolicy::Fail`], the last retryable error, or
///   [`ApspError::VerificationFailed`] when every attempt was rejected.
/// * [`ApspError::VerificationFailed`] when the fallback is rejected or
///   fails on a retryable error: nothing was verified.
pub(crate) fn las_vegas<T>(
    max_retries: u32,
    verify: bool,
    fallback: FallbackPolicy,
    mut run: impl FnMut(Try) -> (Result<T, ApspError>, u64),
    mut certify: impl FnMut(Try, &T) -> Result<Option<(bool, u64)>, ApspError>,
) -> Result<LasVegasReport<T>, ApspError> {
    let mut attempts = Vec::new();
    let mut total_rounds = 0u64;
    let mut last_error = None;
    let fallback_try =
        (fallback == FallbackPolicy::Semiring).then_some(Try::Fallback(max_retries + 1));
    for t in (0..=max_retries).map(Try::Attempt).chain(fallback_try) {
        let (result, mut rounds) = run(t);
        let outcome = result.and_then(|output| {
            let verdict = if verify {
                certify(t, &output)
            } else {
                Ok(None)
            };
            match verdict {
                Ok(verdict) => {
                    rounds += verdict.map_or(0, |(_, r)| r);
                    Ok((output, verdict.map(|(ok, _)| ok)))
                }
                Err(e) => {
                    // The certificate itself died: the attempt proves
                    // nothing either way, so it counts as a failed run.
                    rounds += e.rounds_charged();
                    Err(e)
                }
            }
        });
        total_rounds += rounds;
        attempts.push(AttemptRecord {
            attempt: t.index(),
            rounds,
            verified: outcome.as_ref().ok().and_then(|&(_, verdict)| verdict),
            error: outcome.as_ref().err().map(ToString::to_string),
            fallback: fallback_try == Some(t),
        });
        match outcome {
            Ok((report, verdict)) if verdict != Some(false) => {
                return Ok(LasVegasReport {
                    report,
                    attempts,
                    total_rounds,
                    verified: verdict.unwrap_or(verify),
                    used_fallback: fallback_try == Some(t),
                });
            }
            Ok(_) => {}
            Err(e) if e.is_retryable() => last_error = Some(e),
            Err(e) => return Err(e),
        }
    }
    let exhausted = ApspError::VerificationFailed {
        attempts: attempts.len() as u32,
    };
    Err(match fallback {
        FallbackPolicy::Fail => last_error.unwrap_or(exhausted),
        // When the fallback fails too, nothing was verified.
        FallbackPolicy::Semiring => exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted try: its output (or error), the rounds it charged, and
    /// the certificate's verdict.
    type Script = (Result<u32, ApspError>, u64, Option<bool>);

    fn drive(
        max_retries: u32,
        fallback: FallbackPolicy,
        script: &[Script],
    ) -> (Result<LasVegasReport<u32>, ApspError>, usize) {
        let mut tries = 0;
        let result = las_vegas(
            max_retries,
            true,
            fallback,
            |t| {
                assert_eq!(t.index() as usize, tries, "tries run in order");
                tries += 1;
                let (result, rounds, _) = &script[t.index() as usize];
                (result.clone(), *rounds)
            },
            |t, _| Ok(script[t.index() as usize].2.map(|ok| (ok, 10))),
        );
        (result, tries)
    }

    fn lost() -> ApspError {
        ApspError::faulted(
            3,
            ApspError::Internal {
                context: "lost".into(),
            },
        )
    }

    #[test]
    fn first_accepted_attempt_ends_the_loop() {
        let script = [
            (Ok(7), 5, Some(false)),
            (Err(lost()), 3, None),
            (Ok(9), 4, Some(true)),
        ];
        let (result, tries) = drive(3, FallbackPolicy::Semiring, &script);
        let out = result.unwrap();
        assert_eq!(tries, 3);
        assert_eq!(out.report, 9);
        assert!(out.verified && !out.used_fallback);
        assert_eq!(out.total_rounds, (5 + 10) + 3 + (4 + 10));
        let shape: Vec<_> = out
            .attempts
            .iter()
            .map(|a| {
                (
                    a.attempt,
                    a.rounds,
                    a.verified,
                    a.error.is_some(),
                    a.fallback,
                )
            })
            .collect();
        assert_eq!(
            shape,
            [
                (0, 15, Some(false), false, false),
                (1, 3, None, true, false),
                (2, 14, Some(true), false, false),
            ]
        );
    }

    #[test]
    fn a_failed_fallback_means_nothing_was_verified() {
        let rejected = [(Ok(1), 1, Some(false)), (Ok(2), 1, Some(false))];
        let (result, _) = drive(0, FallbackPolicy::Semiring, &rejected);
        assert_eq!(
            result.unwrap_err(),
            ApspError::VerificationFailed { attempts: 2 }
        );
        let died = [(Ok(1), 1, Some(false)), (Err(lost()), 3, None)];
        let (result, _) = drive(0, FallbackPolicy::Semiring, &died);
        assert_eq!(
            result.unwrap_err(),
            ApspError::VerificationFailed { attempts: 2 }
        );
        // The fallback's own certificate dies on a retryable error.
        let result = las_vegas(
            0,
            true,
            FallbackPolicy::Semiring,
            |_| (Ok(1u32), 1),
            |t, _| match t {
                Try::Attempt(_) => Ok(Some((false, 0))),
                Try::Fallback(_) => Err(lost()),
            },
        );
        assert_eq!(
            result.unwrap_err(),
            ApspError::VerificationFailed { attempts: 2 }
        );
    }

    #[test]
    fn skipped_certificates_accept_unverified() {
        let result = las_vegas(
            2,
            false,
            FallbackPolicy::Semiring,
            |_| (Ok(4u32), 6),
            |_, _| panic!("verification is off"),
        )
        .unwrap();
        assert!(!result.verified);
        assert_eq!(result.attempts[0].verified, None);
        assert_eq!(result.total_rounds, 6);
    }
}
