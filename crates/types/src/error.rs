//! The common error type used across the workspace.

use std::fmt;

/// Convenience result alias.
pub type SbftResult<T> = Result<T, SbftError>;

/// Errors surfaced by the ServerlessBFT crates.
///
/// Protocol-level misbehaviour (byzantine messages, stale reads, timeouts)
/// is *not* an error: state machines handle it as part of their transition
/// logic. `SbftError` covers programming and configuration mistakes plus
/// malformed inputs that well-formedness checks reject.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SbftError {
    /// A configuration violated an invariant (e.g. `n_R < 3f_R + 1`).
    InvalidConfig(String),
    /// A signature or MAC failed verification.
    BadSignature(String),
    /// A certificate did not contain enough distinct valid signatures.
    BadCertificate(String),
    /// The serverless cloud rejected a spawn request (e.g. concurrency
    /// limit, as the paper hit with 21 parallel executors).
    SpawnRejected(String),
}

impl fmt::Display for SbftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SbftError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SbftError::BadSignature(msg) => write!(f, "signature verification failed: {msg}"),
            SbftError::BadCertificate(msg) => write!(f, "certificate invalid: {msg}"),
            SbftError::SpawnRejected(msg) => write!(f, "spawn rejected by the cloud: {msg}"),
        }
    }
}

impl std::error::Error for SbftError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_details() {
        let e = SbftError::InvalidConfig("n_R too small".into());
        assert!(e.to_string().contains("n_R too small"));
        let e = SbftError::SpawnRejected("region Oregon is offline".into());
        assert!(e.to_string().contains("Oregon"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&SbftError::BadCertificate("two signers".into()));
    }

    #[test]
    fn errors_compare_by_value() {
        let bad = |what: &str| SbftError::BadSignature(what.into());
        assert_eq!(bad("a"), bad("a"));
        assert_ne!(bad("a"), bad("b"));
    }
}
