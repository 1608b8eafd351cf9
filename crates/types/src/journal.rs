//! Write-ahead journal records for the durable market.
//!
//! The continuous market journals every *accepted* submission before
//! acknowledging it, and seals every cleared epoch into a hash-chained
//! settlement record. The records themselves are plain domain values and
//! live here, in the canonical wire format, so that the journal file is
//! readable by anything that links the types crate — the market daemon,
//! the offline `dauction verify-log` walker, benches, and tests all
//! decode the same bytes. The *file* framing (length prefix + CRC) and
//! the fsync discipline are the market crate's concern, not this one's.
//!
//! Canonical encoding matters doubly here: the settlement chain links
//! digests over the encoded bytes of each [`SealRecord`], so "equal
//! values ⇒ identical bytes" is what makes an independently recomputed
//! seal digest comparable at all.

use crate::bids::{BidVector, ProviderAsk, UserBid};
use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::CodecError;
use crate::ids::{SessionId, UserId};
use crate::outcome::Outcome;

/// One record of the market's write-ahead epoch journal.
///
/// Records appear in the journal in the order the single-threaded epoch
/// scheduler applied them, except that [`JournalRecord::Sealed`] records
/// are appended by the (possibly concurrent) epoch clearers — every
/// record names its epoch, so interleaving across epochs is harmless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A bid was accepted into epoch `epoch`'s collector. Written (and
    /// made durable per the fsync policy) *before* the acceptance is
    /// visible anywhere — counters, epoch-close triggers, outcomes.
    Accepted {
        /// The epoch the bid was folded into.
        epoch: u64,
        /// The accepted bidder.
        user: UserId,
        /// The accepted bid.
        bid: UserBid,
    },
    /// A streamed ask overwrote ask slot `slot` for the open epoch.
    /// Journaled so recovery rebuilds the identical closed bid vector.
    AskSet {
        /// The epoch the ask applies to.
        epoch: u64,
        /// The overwritten ask slot.
        slot: u64,
        /// The ask.
        ask: ProviderAsk,
    },
    /// Epoch `epoch` cleared: the settlement record, chained to every
    /// seal before it. Boxed because a seal dwarfs the other variants
    /// and a journal scan holds every record in one `Vec`, most of them
    /// small accepts.
    Sealed(Box<SealRecord>),
}

/// Record-type tags on the wire.
const TAG_ACCEPTED: u8 = 1;
const TAG_ASK_SET: u8 = 2;
const TAG_SEALED: u8 = 3;

impl JournalRecord {
    /// The first byte of an encoded [`JournalRecord::Sealed`]. The seal's
    /// [content](SealRecord::encode_content), `prev` and `digest` follow,
    /// so a writer can encode the content before it knows `prev`.
    pub const SEALED_TAG: u8 = TAG_SEALED;
}

impl Encode for JournalRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            JournalRecord::Accepted { epoch, user, bid } => {
                w.put_u8(TAG_ACCEPTED);
                w.put_u64(*epoch);
                user.encode(w);
                bid.encode(w);
            }
            JournalRecord::AskSet { epoch, slot, ask } => {
                w.put_u8(TAG_ASK_SET);
                w.put_u64(*epoch);
                w.put_u64(*slot);
                ask.encode(w);
            }
            JournalRecord::Sealed(seal) => {
                w.put_u8(TAG_SEALED);
                seal.encode(w);
            }
        }
    }
}

impl Decode for JournalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_ACCEPTED => Ok(JournalRecord::Accepted {
                epoch: r.get_u64()?,
                user: UserId::decode(r)?,
                bid: UserBid::decode(r)?,
            }),
            TAG_ASK_SET => Ok(JournalRecord::AskSet {
                epoch: r.get_u64()?,
                slot: r.get_u64()?,
                ask: ProviderAsk::decode(r)?,
            }),
            TAG_SEALED => Ok(JournalRecord::Sealed(Box::new(SealRecord::decode(r)?))),
            tag => Err(CodecError::InvalidTag { what: "JournalRecord", tag }),
        }
    }
}

/// The settlement record of one cleared epoch.
///
/// `prev` and `digest` form the hash chain: `digest` is the chain link
/// over this seal's [*content*](SealRecord::content_bytes) (everything
/// except the two digest fields) and `prev` must equal the `digest` of
/// the seal appended before it (the chain genesis for the first seal).
/// The chain functions themselves live in `dauctioneer-crypto`; this
/// type only carries the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealRecord {
    /// Zero-based epoch counter.
    pub epoch: u64,
    /// The session the epoch cleared under (`first_session + epoch`).
    pub session: SessionId,
    /// The session seed (`seed + (epoch+1)·7919`), so any third party
    /// can replay the epoch as a one-shot session and compare outcomes.
    pub seed: u64,
    /// Bids accepted into the epoch.
    pub accepted: u64,
    /// The closed bid vector every provider received.
    pub bids: BidVector,
    /// Name of the mechanism that cleared the epoch (from
    /// `Mechanism::name`, e.g. `"double-auction"`). Part of the signed
    /// content so a journal re-cleared under a different mechanism is
    /// detectable offline and refused by recovery.
    pub mechanism: String,
    /// The unanimous Definition-1 outcome.
    pub outcome: Outcome,
    /// Digest of the previous seal (chain genesis for the first).
    pub prev: [u8; 32],
    /// This seal's chain digest: `chain_link(prev, content_bytes())`.
    pub digest: [u8; 32],
}

impl SealRecord {
    /// The canonical bytes the chain digest commits to: every field
    /// except `prev` and `digest` themselves. (`prev` is bound into the
    /// digest as the chain-link input, not as content, so that the same
    /// epoch content re-sealed at a different chain position yields a
    /// different digest.)
    pub fn content_bytes(&self) -> bytes::Bytes {
        let mut w = Writer::new();
        self.encode_content(&mut w);
        w.finish()
    }

    /// Append [`SealRecord::content_bytes`] to `w`.
    pub fn encode_content(&self, w: &mut Writer) {
        self.epoch.encode(w);
        self.session.encode(w);
        self.seed.encode(w);
        self.accepted.encode(w);
        self.bids.encode(w);
        self.mechanism.encode(w);
        self.outcome.encode(w);
    }
}

impl Encode for SealRecord {
    fn encode(&self, w: &mut Writer) {
        self.encode_content(w);
        w.put_slice(&self.prev);
        w.put_slice(&self.digest);
    }
}

impl Decode for SealRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let epoch = u64::decode(r)?;
        let session = SessionId::decode(r)?;
        let seed = u64::decode(r)?;
        let accepted = u64::decode(r)?;
        let bids = BidVector::decode(r)?;
        let mechanism = String::decode(r)?;
        let outcome = Outcome::decode(r)?;
        let mut prev = [0u8; 32];
        prev.copy_from_slice(r.get_slice(32)?);
        let mut digest = [0u8; 32];
        digest.copy_from_slice(r.get_slice(32)?);
        Ok(SealRecord { epoch, session, seed, accepted, bids, mechanism, outcome, prev, digest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;
    use crate::quantity::{Bw, Money};

    fn bid(v: f64) -> UserBid {
        UserBid::new(Money::from_f64(v), Bw::from_f64(0.5))
    }

    fn seal() -> SealRecord {
        SealRecord {
            epoch: 3,
            session: SessionId(103),
            seed: 42 + 4 * 7919,
            accepted: 2,
            bids: BidVector::builder(2, 1)
                .user_bid(0, bid(1.1))
                .user_bid(1, bid(0.9))
                .provider_ask(0, ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0)))
                .build(),
            mechanism: "double-auction".to_string(),
            outcome: Outcome::Abort,
            prev: [7u8; 32],
            digest: [9u8; 32],
        }
    }

    #[test]
    fn records_roundtrip() {
        let records = [
            JournalRecord::Accepted { epoch: 0, user: UserId(4), bid: bid(1.2) },
            JournalRecord::AskSet {
                epoch: 1,
                slot: 2,
                ask: ProviderAsk::new(Money::from_f64(0.3), Bw::from_f64(1.0)),
            },
            JournalRecord::Sealed(Box::new(seal())),
        ];
        for record in &records {
            assert_eq!(&roundtrip(record).unwrap(), record);
        }
    }

    #[test]
    fn records_reject_bad_tags() {
        assert!(matches!(
            JournalRecord::decode_all(&[0]),
            Err(CodecError::InvalidTag { what: "JournalRecord", .. })
        ));
        assert!(JournalRecord::decode_all(&[9, 1, 2, 3]).is_err());
    }

    #[test]
    fn content_bytes_exclude_the_digest_fields() {
        let a = seal();
        let mut b = a.clone();
        b.prev = [1u8; 32];
        b.digest = [2u8; 32];
        assert_eq!(a.content_bytes(), b.content_bytes(), "digests are not content");
        let mut c = a.clone();
        c.seed += 1;
        assert_ne!(a.content_bytes(), c.content_bytes(), "content fields are content");
        // Mechanism provenance is signed content: re-clearing the same
        // epoch under another mechanism must change the digest input.
        let mut d = a.clone();
        d.mechanism = "standard-auction".to_string();
        assert_ne!(a.content_bytes(), d.content_bytes(), "mechanism is content");
    }

    #[test]
    fn encoding_is_canonical() {
        let record = JournalRecord::Sealed(Box::new(seal()));
        assert_eq!(record.encode_to_bytes(), record.clone().encode_to_bytes());
    }

    #[test]
    fn truncated_seal_fails_cleanly() {
        let bytes = JournalRecord::Sealed(Box::new(seal())).encode_to_bytes();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(JournalRecord::decode_all(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
