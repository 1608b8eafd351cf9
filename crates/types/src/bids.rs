//! Bids submitted by users and asks submitted by providers.
//!
//! The paper's auction family (§3.1) has `n` users willing to pay for
//! bandwidth and `m` providers selling it. In a *standard* auction only
//! users bid; in a *double* auction providers submit asks too. A bidder
//! that fails to submit a valid bid is replaced by the *neutral* bid ⊥,
//! which excludes it from the auction without aborting it.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::CodecError;
use crate::ids::{ProviderId, UserId};
use crate::quantity::{Bw, Money};

/// A user's bid: the per-unit valuation it declares and the amount of
/// bandwidth it demands.
///
/// Truthful users set `valuation` to their true per-unit value; the
/// mechanisms in `dauctioneer-mechanisms` are truthful in expectation, so
/// lying cannot raise a user's expected utility.
///
/// # Example
///
/// ```
/// use dauctioneer_types::{UserBid, Money, Bw};
/// let bid = UserBid::new(Money::from_f64(1.1), Bw::from_f64(0.4));
/// assert!(bid.is_valid());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserBid {
    valuation: Money,
    demand: Bw,
}

impl UserBid {
    /// Create a bid declaring `valuation` per unit for `demand` units.
    pub const fn new(valuation: Money, demand: Bw) -> UserBid {
        UserBid { valuation, demand }
    }

    /// Declared per-unit valuation.
    pub const fn valuation(&self) -> Money {
        self.valuation
    }

    /// Requested amount of bandwidth.
    pub const fn demand(&self) -> Bw {
        self.demand
    }

    /// A bid is valid when it asks for a positive amount at a positive
    /// price. Invalid bids are replaced by [`BidEntry::Neutral`] during bid
    /// agreement.
    pub fn is_valid(&self) -> bool {
        self.valuation.is_positive() && !self.demand.is_zero()
    }

    /// Replace the declared valuation, keeping the demand (used by the
    /// truthfulness test harness to model lying bidders).
    pub fn with_valuation(self, valuation: Money) -> UserBid {
        UserBid { valuation, ..self }
    }
}

impl Encode for UserBid {
    fn encode(&self, w: &mut Writer) {
        self.valuation.encode(w);
        self.demand.encode(w);
    }
}

impl Decode for UserBid {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(UserBid { valuation: Money::decode(r)?, demand: Bw::decode(r)? })
    }
}

/// A provider's ask in a double auction: the per-unit price it wants to be
/// paid, and the capacity it offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProviderAsk {
    unit_cost: Money,
    capacity: Bw,
}

impl ProviderAsk {
    /// Create an ask of `capacity` units at `unit_cost` each.
    pub const fn new(unit_cost: Money, capacity: Bw) -> ProviderAsk {
        ProviderAsk { unit_cost, capacity }
    }

    /// Declared per-unit cost.
    pub const fn unit_cost(&self) -> Money {
        self.unit_cost
    }

    /// Offered capacity.
    pub const fn capacity(&self) -> Bw {
        self.capacity
    }

    /// An ask is valid when it offers positive capacity at a non-negative
    /// cost.
    pub fn is_valid(&self) -> bool {
        self.unit_cost >= Money::ZERO && !self.capacity.is_zero()
    }
}

impl Encode for ProviderAsk {
    fn encode(&self, w: &mut Writer) {
        self.unit_cost.encode(w);
        self.capacity.encode(w);
    }
}

impl Decode for ProviderAsk {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ProviderAsk { unit_cost: Money::decode(r)?, capacity: Bw::decode(r)? })
    }
}

/// One slot of the agreed bid vector: either a valid bid or the neutral
/// value ⊥ that excludes the bidder from the auction (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BidEntry {
    /// The bidder submitted this valid bid.
    Valid(UserBid),
    /// The bidder submitted no bid, an invalid bid, or different bids to
    /// different providers that consensus resolved to ⊥.
    #[default]
    Neutral,
}

impl BidEntry {
    /// `true` for [`BidEntry::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, BidEntry::Valid(_))
    }

    /// The bid, if valid.
    pub fn as_bid(&self) -> Option<&UserBid> {
        match self {
            BidEntry::Valid(b) => Some(b),
            BidEntry::Neutral => None,
        }
    }

    /// Normalise: a `Valid` entry holding an invalid bid becomes `Neutral`.
    pub fn normalized(self) -> BidEntry {
        match self {
            BidEntry::Valid(b) if b.is_valid() => BidEntry::Valid(b),
            _ => BidEntry::Neutral,
        }
    }
}

impl From<UserBid> for BidEntry {
    fn from(b: UserBid) -> Self {
        BidEntry::Valid(b)
    }
}

impl Encode for BidEntry {
    fn encode(&self, w: &mut Writer) {
        match self {
            BidEntry::Neutral => w.put_u8(0),
            BidEntry::Valid(b) => {
                w.put_u8(1);
                b.encode(w);
            }
        }
    }
}

impl Decode for BidEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(BidEntry::Neutral),
            1 => Ok(BidEntry::Valid(UserBid::decode(r)?)),
            tag => Err(CodecError::InvalidTag { what: "BidEntry", tag }),
        }
    }
}

/// The complete vector of bids `b̄` that an allocation algorithm takes as
/// input: one [`BidEntry`] per user and, for double auctions, one
/// [`ProviderAsk`] per provider.
///
/// `BidVector` is the value the providers must *agree on* before running
/// the allocator; its canonical encoding (via [`Encode`]) is what the bid
/// agreement block feeds to consensus and the input-validation block
/// compares byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BidVector {
    users: Vec<BidEntry>,
    asks: Vec<ProviderAsk>,
}

impl BidVector {
    /// Start building a vector for `n` users and `m` provider asks (use
    /// `m = 0` for standard auctions where providers do not bid).
    pub fn builder(n_users: usize, n_asks: usize) -> BidVectorBuilder {
        BidVectorBuilder {
            users: vec![BidEntry::Neutral; n_users],
            asks: vec![ProviderAsk::new(Money::ZERO, Bw::ZERO); n_asks],
        }
    }

    /// Vector with every user neutral and no asks.
    pub fn all_neutral(n_users: usize) -> BidVector {
        BidVector { users: vec![BidEntry::Neutral; n_users], asks: Vec::new() }
    }

    /// Vector with every user neutral and `n_asks` zero-capacity (i.e.
    /// absent) asks — the "nobody bid anything" vector of a given shape.
    pub fn all_neutral_with_asks(n_users: usize, n_asks: usize) -> BidVector {
        BidVector {
            users: vec![BidEntry::Neutral; n_users],
            asks: vec![ProviderAsk::new(Money::ZERO, Bw::ZERO); n_asks],
        }
    }

    /// Construct directly from parts.
    pub fn from_parts(users: Vec<BidEntry>, asks: Vec<ProviderAsk>) -> BidVector {
        BidVector { users, asks }
    }

    /// Number of user slots.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of provider asks (0 in standard auctions).
    pub fn num_asks(&self) -> usize {
        self.asks.len()
    }

    /// The entry for `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn user_bid(&self, user: UserId) -> &BidEntry {
        &self.users[user.index()]
    }

    /// All user entries in id order.
    pub fn user_entries(&self) -> &[BidEntry] {
        &self.users
    }

    /// The ask of `provider`.
    ///
    /// # Panics
    ///
    /// Panics if `provider` is out of range.
    pub fn provider_ask(&self, provider: ProviderId) -> &ProviderAsk {
        &self.asks[provider.index()]
    }

    /// All provider asks in id order.
    pub fn asks(&self) -> &[ProviderAsk] {
        &self.asks
    }

    /// Iterator over `(UserId, &UserBid)` for users with valid bids.
    pub fn valid_user_bids(&self) -> impl Iterator<Item = (UserId, &UserBid)> {
        self.users.iter().enumerate().filter_map(|(i, e)| e.as_bid().map(|b| (UserId(i as u32), b)))
    }

    /// Number of users with valid bids.
    pub fn num_valid_users(&self) -> usize {
        self.users.iter().filter(|e| e.is_valid()).count()
    }

    /// Copy with one user's entry replaced by ⊥ — the `b̄₋ᵢ` input used when
    /// computing VCG payments.
    pub fn without_user(&self, user: UserId) -> BidVector {
        let mut v = self.clone();
        v.users[user.index()] = BidEntry::Neutral;
        v
    }

    /// Copy with one user's entry replaced (used by deviation tests).
    pub fn with_user_entry(&self, user: UserId, entry: BidEntry) -> BidVector {
        let mut v = self.clone();
        v.users[user.index()] = entry;
        v
    }
}

impl Encode for BidVector {
    fn encode(&self, w: &mut Writer) {
        self.users.encode(w);
        self.asks.encode(w);
    }
}

impl Decode for BidVector {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BidVector { users: Vec::decode(r)?, asks: Vec::decode(r)? })
    }
}

/// Builder for [`BidVector`]; see [`BidVector::builder`].
#[derive(Debug, Clone)]
pub struct BidVectorBuilder {
    users: Vec<BidEntry>,
    asks: Vec<ProviderAsk>,
}

impl BidVectorBuilder {
    /// Set the bid of user `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn user_bid(mut self, index: usize, bid: UserBid) -> BidVectorBuilder {
        self.users[index] = BidEntry::Valid(bid);
        self
    }

    /// Mark user `index` as neutral (excluded).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn neutral(mut self, index: usize) -> BidVectorBuilder {
        self.users[index] = BidEntry::Neutral;
        self
    }

    /// Set the ask of provider `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn provider_ask(mut self, index: usize, ask: ProviderAsk) -> BidVectorBuilder {
        self.asks[index] = ask;
        self
    }

    /// Finish building.
    pub fn build(self) -> BidVector {
        BidVector { users: self.users, asks: self.asks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;

    fn bid(v: f64, d: f64) -> UserBid {
        UserBid::new(Money::from_f64(v), Bw::from_f64(d))
    }

    #[test]
    fn user_bid_validity() {
        assert!(bid(1.0, 0.5).is_valid());
        assert!(!bid(0.0, 0.5).is_valid());
        assert!(!bid(-1.0, 0.5).is_valid());
        assert!(!bid(1.0, 0.0).is_valid());
    }

    #[test]
    fn provider_ask_validity() {
        assert!(ProviderAsk::new(Money::ZERO, Bw::from_f64(1.0)).is_valid());
        assert!(!ProviderAsk::new(Money::from_f64(-0.1), Bw::from_f64(1.0)).is_valid());
        assert!(!ProviderAsk::new(Money::from_f64(0.5), Bw::ZERO).is_valid());
    }

    #[test]
    fn bid_entry_normalization_drops_invalid_bids() {
        let good = BidEntry::Valid(bid(1.0, 0.5));
        assert_eq!(good.normalized(), good);
        let bad = BidEntry::Valid(bid(0.0, 0.5));
        assert_eq!(bad.normalized(), BidEntry::Neutral);
        assert_eq!(BidEntry::Neutral.normalized(), BidEntry::Neutral);
    }

    #[test]
    fn bid_entry_default_is_neutral() {
        assert_eq!(BidEntry::default(), BidEntry::Neutral);
        assert!(!BidEntry::Neutral.is_valid());
    }

    #[test]
    fn builder_populates_slots() {
        let v = BidVector::builder(3, 2)
            .user_bid(0, bid(1.0, 0.5))
            .user_bid(2, bid(0.9, 0.2))
            .neutral(1)
            .provider_ask(1, ProviderAsk::new(Money::from_f64(0.3), Bw::from_f64(2.0)))
            .build();
        assert_eq!(v.num_users(), 3);
        assert_eq!(v.num_asks(), 2);
        assert_eq!(v.num_valid_users(), 2);
        assert!(v.user_bid(UserId(0)).is_valid());
        assert!(!v.user_bid(UserId(1)).is_valid());
        assert_eq!(v.provider_ask(ProviderId(1)).capacity(), Bw::from_f64(2.0));
    }

    #[test]
    fn valid_user_bids_iterates_in_id_order() {
        let v =
            BidVector::builder(3, 0).user_bid(2, bid(0.8, 0.1)).user_bid(0, bid(1.2, 0.9)).build();
        let ids: Vec<UserId> = v.valid_user_bids().map(|(u, _)| u).collect();
        assert_eq!(ids, vec![UserId(0), UserId(2)]);
    }

    #[test]
    fn without_user_neutralizes_one_slot() {
        let v =
            BidVector::builder(2, 0).user_bid(0, bid(1.0, 0.5)).user_bid(1, bid(1.1, 0.4)).build();
        let w = v.without_user(UserId(0));
        assert!(!w.user_bid(UserId(0)).is_valid());
        assert!(w.user_bid(UserId(1)).is_valid());
        // original untouched
        assert!(v.user_bid(UserId(0)).is_valid());
    }

    #[test]
    fn bid_vector_roundtrips_and_is_canonical() {
        let v = BidVector::builder(2, 1)
            .user_bid(0, bid(1.25, 0.75))
            .provider_ask(0, ProviderAsk::new(Money::from_f64(0.4), Bw::from_f64(1.5)))
            .build();
        assert_eq!(roundtrip(&v).unwrap(), v);
        // Canonical: equal values produce identical bytes.
        assert_eq!(v.encode_to_bytes(), v.clone().encode_to_bytes());
    }

    #[test]
    fn all_neutral_has_no_valid_bids() {
        let v = BidVector::all_neutral(5);
        assert_eq!(v.num_valid_users(), 0);
        assert_eq!(v.num_asks(), 0);
    }
}
