//! Bid submission and collection (§3.2 of the paper).
//!
//! Before the simulation starts, bidders submit their bids *to every
//! provider*; each provider `j` assembles the vector `b̄ⱼ` it will input
//! to bid agreement. The paper's rules, implemented here:
//!
//! * bidders must submit by a deadline; a missing submission becomes the
//!   neutral bid ⊥,
//! * an *invalid* bid (non-positive valuation or zero demand) is replaced
//!   by ⊥ at collection time,
//! * a bidder that submits twice to the same provider is misbehaving; the
//!   provider keeps the **first** submission (deterministic, and the
//!   bidder gains nothing since any inconsistency across providers is
//!   resolved by consensus anyway),
//! * providers in a double auction attach their own asks.
//!
//! The collector is per-provider state; the test harnesses and examples
//! use it to build realistic, possibly divergent `b̄ⱼ` inputs.

use dauctioneer_types::{BidEntry, BidVector, ProviderAsk, UserBid, UserId};

/// What happened to one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionOutcome {
    /// Stored as given.
    Accepted,
    /// Bid failed validity rules; the slot stays/becomes ⊥.
    RejectedInvalid,
    /// The bidder already submitted; first submission kept.
    RejectedDuplicate,
    /// Unknown user id for this auction's configuration.
    RejectedUnknownBidder,
    /// Arrived after [`BidCollector::close`].
    RejectedLate,
}

impl SubmissionOutcome {
    /// `true` if the submission made it into the collected vector.
    pub fn is_accepted(&self) -> bool {
        matches!(self, SubmissionOutcome::Accepted)
    }
}

/// Per-provider collection of bids ahead of an auction round.
///
/// # Example
///
/// ```
/// use dauctioneer_core::submission::BidCollector;
/// use dauctioneer_types::{UserBid, UserId, Money, Bw};
///
/// let mut collector = BidCollector::new(2, 0);
/// let bid = UserBid::new(Money::from_f64(1.1), Bw::from_f64(0.4));
/// assert!(collector.submit(UserId(0), bid).is_accepted());
/// let bids = collector.close();
/// assert!(bids.user_bid(UserId(0)).is_valid());
/// assert!(!bids.user_bid(UserId(1)).is_valid()); // never submitted ⇒ ⊥
/// ```
#[derive(Debug, Clone)]
pub struct BidCollector {
    entries: Vec<BidEntry>,
    submitted: Vec<bool>,
    asks: Vec<ProviderAsk>,
    closed: bool,
}

impl BidCollector {
    /// Start collecting for an auction of `n_users` user slots and
    /// `n_asks` provider-ask slots.
    pub fn new(n_users: usize, n_asks: usize) -> BidCollector {
        BidCollector {
            entries: vec![BidEntry::Neutral; n_users],
            submitted: vec![false; n_users],
            asks: vec![
                ProviderAsk::new(dauctioneer_types::Money::ZERO, dauctioneer_types::Bw::ZERO);
                n_asks
            ],
            closed: false,
        }
    }

    /// Record one bidder's submission.
    pub fn submit(&mut self, user: UserId, bid: UserBid) -> SubmissionOutcome {
        if self.closed {
            return SubmissionOutcome::RejectedLate;
        }
        let Some(slot) = self.entries.get_mut(user.index()) else {
            return SubmissionOutcome::RejectedUnknownBidder;
        };
        if self.submitted[user.index()] {
            return SubmissionOutcome::RejectedDuplicate;
        }
        self.submitted[user.index()] = true;
        if !bid.is_valid() {
            // The slot stays ⊥ but the bidder has used its submission.
            return SubmissionOutcome::RejectedInvalid;
        }
        *slot = BidEntry::Valid(bid);
        SubmissionOutcome::Accepted
    }

    /// Attach this provider's own ask (double auctions).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range — the ask slots are fixed by the
    /// auction configuration.
    pub fn set_ask(&mut self, index: usize, ask: ProviderAsk) {
        self.asks[index] = ask;
    }

    /// Number of bids accepted so far.
    pub fn accepted(&self) -> usize {
        self.entries.iter().filter(|e| e.is_valid()).count()
    }

    /// Deadline: stop accepting submissions and produce the vector `b̄ⱼ`
    /// this provider inputs to bid agreement. Further submissions are
    /// rejected as late (the collector can still be inspected).
    pub fn close(&mut self) -> BidVector {
        self.closed = true;
        BidVector::from_parts(self.entries.clone(), self.asks.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dauctioneer_types::{Bw, Money};

    fn bid(v: f64, d: f64) -> UserBid {
        UserBid::new(Money::from_f64(v), Bw::from_f64(d))
    }

    #[test]
    fn collects_valid_bids() {
        let mut c = BidCollector::new(3, 0);
        assert_eq!(c.submit(UserId(0), bid(1.0, 0.5)), SubmissionOutcome::Accepted);
        assert_eq!(c.submit(UserId(2), bid(0.9, 0.4)), SubmissionOutcome::Accepted);
        assert_eq!(c.accepted(), 2);
        let bids = c.close();
        assert!(bids.user_bid(UserId(0)).is_valid());
        assert!(!bids.user_bid(UserId(1)).is_valid());
        assert!(bids.user_bid(UserId(2)).is_valid());
    }

    #[test]
    fn invalid_bid_burns_the_submission() {
        let mut c = BidCollector::new(1, 0);
        assert_eq!(c.submit(UserId(0), bid(0.0, 0.5)), SubmissionOutcome::RejectedInvalid);
        // The bidder cannot retry with a valid bid.
        assert_eq!(c.submit(UserId(0), bid(1.0, 0.5)), SubmissionOutcome::RejectedDuplicate);
        assert!(!c.close().user_bid(UserId(0)).is_valid());
    }

    #[test]
    fn duplicates_keep_first_submission() {
        let mut c = BidCollector::new(1, 0);
        assert!(c.submit(UserId(0), bid(1.0, 0.5)).is_accepted());
        assert_eq!(c.submit(UserId(0), bid(2.0, 0.5)), SubmissionOutcome::RejectedDuplicate);
        let bids = c.close();
        assert_eq!(bids.user_bid(UserId(0)).as_bid().unwrap().valuation(), Money::from_f64(1.0));
    }

    #[test]
    fn unknown_bidders_are_rejected() {
        let mut c = BidCollector::new(1, 0);
        assert_eq!(c.submit(UserId(5), bid(1.0, 0.5)), SubmissionOutcome::RejectedUnknownBidder);
    }

    #[test]
    fn late_submissions_are_rejected() {
        let mut c = BidCollector::new(2, 0);
        assert!(c.submit(UserId(0), bid(1.0, 0.5)).is_accepted());
        let _ = c.close();
        assert_eq!(c.submit(UserId(1), bid(1.0, 0.5)), SubmissionOutcome::RejectedLate);
        assert_eq!(c.submitted, [true, false]);
    }

    #[test]
    fn asks_are_attached() {
        let mut c = BidCollector::new(1, 2);
        c.set_ask(1, ProviderAsk::new(Money::from_f64(0.3), Bw::from_f64(1.0)));
        let bids = c.close();
        assert_eq!(bids.num_asks(), 2);
        assert!(bids.asks()[1].is_valid());
        assert!(!bids.asks()[0].is_valid());
    }
}
