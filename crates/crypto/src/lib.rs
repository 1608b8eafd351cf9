//! Cryptographic substrate for the distributed auctioneer.
//!
//! The common-coin building block of the paper (from Abraham, Dolev and
//! Halpern's leader-election protocols) requires every provider to *commit*
//! to a random value before learning the values of others, and the rational
//! consensus block uses the same commit–reveal machinery to produce an
//! unbiasable shared coin. A hash-based commitment needs a cryptographic
//! hash function; since the dependency budget of this workspace does not
//! include one, this crate implements **SHA-256 (FIPS 180-4)** itself —
//! validated against the NIST test vectors — plus the small constructions
//! the protocol needs on top of it:
//!
//! * [`sha256()`] / [`Sha256`] — the hash itself: a scalar compression
//!   function on every host (the reference), and on x86_64 a SHA-NI
//!   kernel selected at run time when the CPU reports `sha`, `ssse3` and
//!   `sse4.1` (see the [`sha256`](mod@sha256) module),
//! * [`Commitment`] / [`CommitmentOpening`] — a binding and (computationally)
//!   hiding commitment to arbitrary bytes,
//! * [`derive_seed`] — domain-separated derivation of deterministic RNG
//!   seeds from agreed-upon randomness (this is how a shared coin value is
//!   stretched into the random stream driving the allocation algorithm).
//!
//! # Example
//!
//! ```
//! use dauctioneer_crypto::{Commitment, CommitmentOpening};
//!
//! // Provider commits to its random contribution...
//! let (commitment, opening) = Commitment::commit(b"my random value", [7u8; 32]);
//! // ...broadcasts `commitment`, later reveals `opening`:
//! assert!(commitment.verify(&opening));
//! assert_eq!(opening.payload(), b"my random value");
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod chain;
pub mod commit;
pub mod seed;
pub mod sha256;

pub use chain::{chain_genesis, chain_link, SettlementChain};
pub use commit::{Commitment, CommitmentOpening};
pub use seed::{derive_seed, SeedDomain};
pub use sha256::{sha256, Digest, Sha256};
