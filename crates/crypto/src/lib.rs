//! Cryptographic substrate for `dagbft`.
//!
//! The paper (§2, Definition A.1) assumes a secure cryptographic hash
//! function `#` (used as `ref` over blocks) and a secure signature scheme
//! `sign`/`verify`, both with failure probability treated as zero. This
//! crate supplies concrete stand-ins:
//!
//! * [`sha256`] / [`Sha256`] — a from-scratch FIPS 180-4 SHA-256
//!   implementation, validated against the standard test vectors. Used for
//!   block references ([`Digest`]).
//! * [`Signer`] / [`Verifier`] / [`BatchVerifier`] — signing handles under
//!   a trusted [`KeyRegistry`], whose keys all belong to the one scheme a
//!   [`SchemeKind`] selects: real RFC 8032 [`ed25519`] over the in-tree
//!   [`curve`] arithmetic (with one multi-scalar multiplication per
//!   verified batch), or the original HMAC-SHA256 stand-in (the
//!   pairwise-symmetric-key model; see the signature-scheme section of
//!   `docs/ARCHITECTURE.md`), retained as the cheap deterministic oracle.
//! * [`ServerId`] — the server identity `n` carried in every block
//!   (Definition 3.1); it lives here because identity and key material are
//!   inseparable in the protocols.
//!
//! # Examples
//!
//! ```
//! use dagbft_crypto::{KeyRegistry, ServerId};
//!
//! let registry = KeyRegistry::generate(4, 7);
//! let signer = registry.signer(ServerId::new(0)).unwrap();
//! let verifier = registry.verifier();
//! let signature = signer.sign(b"block bytes");
//! assert!(verifier.verify(ServerId::new(0), b"block bytes", &signature));
//! assert!(!verifier.verify(ServerId::new(1), b"block bytes", &signature));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
mod digest;
pub mod ed25519;
mod hmac;
mod identity;
mod sha256;
mod sha512;
mod sig;

pub use digest::Digest;
pub use hmac::{hmac_sha256, HmacKey};
pub use identity::ServerId;
pub use sha256::{sha256, Sha256};
pub use sha512::{sha512, Sha512};
pub use sig::{
    BatchVerifier, CryptoMetrics, KeyRegistry, SchemeKind, Signature, SignedDigest, Signer,
    Verifier,
};
