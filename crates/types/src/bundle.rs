//! Multi-unit XOR-bundle bids for combinatorial auctions.
//!
//! The combinatorial mechanism (Yen & Sun-style multi-unit winner
//! determination) works over *indivisible units* of resource: every
//! provider holds an integral unit capacity, and a bidder names a set of
//! mutually exclusive (**XOR**) bundle options — "this many units for
//! this total price" — of which at most one can win, placed wholly at
//! one provider. The types here are the canonical wire encoding of that
//! bid language; the solver and the mechanism live in
//! `dauctioneer-mechanisms`.
//!
//! Like every other wire type, encoding is canonical (equal values ⇒
//! identical bytes), because the distributed auctioneer cross-validates
//! allocator outputs byte-for-byte — a combinatorial clearing must
//! replicate exactly like any other mechanism.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::CodecError;
use crate::ids::UserId;
use crate::quantity::Money;

/// One XOR option of a bundle bid: `units` indivisible resource units —
/// all at a single provider — for the all-or-nothing total `price`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BundleOption {
    /// Units requested (placed wholly at one provider).
    pub units: u64,
    /// Total price offered for the full option (not per unit).
    pub price: Money,
}

impl BundleOption {
    /// Create an option of `units` units for total `price`.
    pub const fn new(units: u64, price: Money) -> BundleOption {
        BundleOption { units, price }
    }

    /// An option is valid when it asks for at least one unit at a
    /// positive total price.
    pub fn is_valid(&self) -> bool {
        self.units > 0 && self.price.is_positive()
    }
}

impl Encode for BundleOption {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.units);
        self.price.encode(w);
    }
}

impl Decode for BundleOption {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BundleOption { units: r.get_u64()?, price: Money::decode(r)? })
    }
}

/// A bidder's complete XOR bundle bid: at most one of `options` wins.
///
/// # Example
///
/// ```
/// use dauctioneer_types::{BundleBid, BundleOption, Money, UserId};
/// let bid = BundleBid::new(
///     UserId(3),
///     vec![
///         BundleOption::new(4, Money::from_f64(4.0)), // full bundle…
///         BundleOption::new(2, Money::from_f64(2.4)), // …XOR a fallback half
///     ],
/// );
/// assert!(bid.is_valid());
/// assert_eq!(bid.max_units(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BundleBid {
    /// The bidder.
    pub user: UserId,
    /// The mutually exclusive options, in the bidder's declared order.
    pub options: Vec<BundleOption>,
}

impl BundleBid {
    /// Create a bundle bid.
    pub fn new(user: UserId, options: Vec<BundleOption>) -> BundleBid {
        BundleBid { user, options }
    }

    /// A bundle bid is valid when it has at least one option and every
    /// option is itself valid.
    pub fn is_valid(&self) -> bool {
        !self.options.is_empty() && self.options.iter().all(BundleOption::is_valid)
    }

    /// The largest unit count across options (what the bidder would take
    /// at most).
    pub fn max_units(&self) -> u64 {
        self.options.iter().map(|o| o.units).max().unwrap_or(0)
    }
}

impl Encode for BundleBid {
    fn encode(&self, w: &mut Writer) {
        self.user.encode(w);
        self.options.encode(w);
    }
}

impl Decode for BundleBid {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BundleBid { user: UserId::decode(r)?, options: Vec::decode(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;

    fn opt(units: u64, price: f64) -> BundleOption {
        BundleOption::new(units, Money::from_f64(price))
    }

    #[test]
    fn option_validity() {
        assert!(opt(2, 1.0).is_valid());
        assert!(!opt(0, 1.0).is_valid());
        assert!(!opt(2, 0.0).is_valid());
    }

    #[test]
    fn bundle_validity_and_extremes() {
        let bid = BundleBid::new(UserId(1), vec![opt(4, 4.0), opt(2, 2.4)]);
        assert!(bid.is_valid());
        assert_eq!(bid.max_units(), 4);
        assert!(!BundleBid::new(UserId(1), vec![]).is_valid());
        assert!(!BundleBid::new(UserId(1), vec![opt(0, 1.0)]).is_valid());
    }

    #[test]
    fn bundle_roundtrips_and_is_canonical() {
        let bid = BundleBid::new(UserId(7), vec![opt(3, 2.5), opt(1, 1.0)]);
        assert_eq!(roundtrip(&bid).unwrap(), bid);
        assert_eq!(bid.encode_to_bytes(), bid.clone().encode_to_bytes());
    }
}
