//! Error type shared by all cryptographic operations.

use core::fmt;

/// Errors surfaced by the cryptographic substrate.
///
/// Parsing and decryption of attacker-controlled bytes never panics; every
/// failure is reported through this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// Plaintext exceeds what the RSA modulus/padding can carry.
    MessageTooLong,
    /// Ciphertext or padding structure is invalid.
    BadPadding,
    /// An authenticator (CMAC tag) did not verify.
    AuthFailed,
    /// Key material has the wrong size or shape.
    BadKey,
    /// Input buffer has an impossible length for the operation.
    BadLength,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            CryptoError::MessageTooLong => "message too long for RSA modulus",
            CryptoError::BadPadding => "invalid padding or ciphertext structure",
            CryptoError::AuthFailed => "authentication tag mismatch",
            CryptoError::BadKey => "malformed key material",
            CryptoError::BadLength => "invalid input length",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for CryptoError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = core::result::Result<T, CryptoError>;
