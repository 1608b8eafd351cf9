//! Hash-based commitments for the commit–reveal coin protocols.
//!
//! A provider commits to a payload by publishing
//! `H(domain ‖ len(nonce) ‖ nonce ‖ payload)` where the nonce is 32 random
//! bytes. The commitment is *binding* (finding a second preimage would break
//! SHA-256) and *hiding* (the 256-bit nonce blinds low-entropy payloads such
//! as single coin bits).

use std::fmt;

use crate::sha256::{Digest, Sha256};

/// Domain-separation prefix so commitment hashes can never collide with
/// other hash uses in the system.
const COMMIT_DOMAIN: &[u8] = b"dauctioneer/commitment/v1";

/// A published commitment to a hidden payload.
///
/// # Example
///
/// ```
/// use dauctioneer_crypto::Commitment;
/// let (c, opening) = Commitment::commit(b"coin bits", [1u8; 32]);
/// assert!(c.verify(&opening));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Commitment(Digest);

impl Commitment {
    /// Commit to `payload` using the caller-supplied `nonce`.
    ///
    /// The nonce must be fresh, uniform randomness for the hiding property
    /// to hold; the protocol layer draws it from the provider's local RNG.
    /// Returns the commitment to broadcast and the opening to keep secret
    /// until the reveal round.
    pub fn commit(payload: &[u8], nonce: [u8; 32]) -> (Commitment, CommitmentOpening) {
        (Commitment::of(payload, &nonce), CommitmentOpening { nonce, payload: payload.to_vec() })
    }

    /// The commitment to `payload` under `nonce`, without building an
    /// opening: what [`Commitment::commit`] returns, and what
    /// [`Commitment::verify`] recomputes.
    ///
    /// ```
    /// use dauctioneer_crypto::Commitment;
    /// let (c, _) = Commitment::commit(b"coin bits", [1u8; 32]);
    /// assert_eq!(Commitment::of(b"coin bits", &[1u8; 32]), c);
    /// ```
    pub fn of(payload: &[u8], nonce: &[u8; 32]) -> Commitment {
        let mut h = Sha256::new();
        h.update(COMMIT_DOMAIN);
        h.update(&(nonce.len() as u64).to_le_bytes());
        h.update(nonce);
        h.update(payload);
        Commitment(h.finalize())
    }

    /// Check that `opening` opens this commitment.
    pub fn verify(&self, opening: &CommitmentOpening) -> bool {
        opening.commitment() == *self
    }

    /// The raw digest (for wire encoding).
    pub fn digest(&self) -> &Digest {
        &self.0
    }

    /// Reconstruct from a raw digest (for wire decoding).
    pub fn from_digest(d: Digest) -> Commitment {
        Commitment(d)
    }
}

impl fmt::Display for Commitment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "commit:{}", self.0)
    }
}

/// The secret opening of a [`Commitment`]: the nonce and the payload.
#[derive(Clone, PartialEq, Eq)]
pub struct CommitmentOpening {
    nonce: [u8; 32],
    payload: Vec<u8>,
}

impl CommitmentOpening {
    /// Reassemble an opening from its wire parts.
    pub fn from_parts(nonce: [u8; 32], payload: Vec<u8>) -> CommitmentOpening {
        CommitmentOpening { nonce, payload }
    }

    /// The committed payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The blinding nonce.
    pub fn nonce(&self) -> &[u8; 32] {
        &self.nonce
    }

    /// Recompute the commitment this opening corresponds to.
    pub fn commitment(&self) -> Commitment {
        Commitment::of(&self.payload, &self.nonce)
    }
}

impl fmt::Debug for CommitmentOpening {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the nonce: openings are secrets until revealed.
        write!(f, "CommitmentOpening {{ payload: {} bytes, nonce: <hidden> }}", self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_verify_roundtrip() {
        let (c, o) = Commitment::commit(b"payload", [3u8; 32]);
        assert!(c.verify(&o));
    }

    #[test]
    fn tampered_payload_fails_verification() {
        let (c, _) = Commitment::commit(b"payload", [3u8; 32]);
        let forged = CommitmentOpening::from_parts([3u8; 32], b"payloae".to_vec());
        assert!(!c.verify(&forged));
    }

    #[test]
    fn tampered_nonce_fails_verification() {
        let (c, _) = Commitment::commit(b"payload", [3u8; 32]);
        let forged = CommitmentOpening::from_parts([4u8; 32], b"payload".to_vec());
        assert!(!c.verify(&forged));
    }

    #[test]
    fn different_nonces_hide_equal_payloads() {
        let (c1, _) = Commitment::commit(b"0", [1u8; 32]);
        let (c2, _) = Commitment::commit(b"0", [2u8; 32]);
        assert_ne!(c1, c2, "equal payloads must be hidden by distinct nonces");
    }

    #[test]
    fn opening_exposes_parts() {
        let (_, o) = Commitment::commit(b"xyz", [9u8; 32]);
        assert_eq!(o.payload(), b"xyz");
        assert_eq!(o.nonce(), &[9u8; 32]);
    }

    #[test]
    fn debug_does_not_leak_nonce() {
        let (_, o) = Commitment::commit(b"secret", [7u8; 32]);
        let s = format!("{o:?}");
        assert!(s.contains("<hidden>"));
        assert!(!s.contains("secret"));
    }

    #[test]
    fn digest_roundtrip() {
        let (c, _) = Commitment::commit(b"p", [0u8; 32]);
        assert_eq!(Commitment::from_digest(*c.digest()), c);
    }
}
