//! Payment vectors produced by the auction mechanisms.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::CodecError;
use crate::ids::{ProviderId, UserId};
use crate::quantity::Money;

/// The payment vector `p̄`: what each user pays and what each provider
/// receives.
///
/// *Budget balance* (required of double auctions, §3.1) means the total
/// paid by users covers the total received by providers, i.e.
/// [`Payments::budget_surplus`] is non-negative.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Payments {
    user_payments: Vec<Money>,
    provider_revenues: Vec<Money>,
}

impl Payments {
    /// All-zero payments for `n` users and `m` providers.
    pub fn zero(n_users: usize, n_providers: usize) -> Payments {
        Payments {
            user_payments: vec![Money::ZERO; n_users],
            provider_revenues: vec![Money::ZERO; n_providers],
        }
    }

    /// Construct from raw vectors.
    pub fn from_parts(user_payments: Vec<Money>, provider_revenues: Vec<Money>) -> Payments {
        Payments { user_payments, provider_revenues }
    }

    /// Number of user slots.
    pub fn num_users(&self) -> usize {
        self.user_payments.len()
    }

    /// Number of provider slots.
    pub fn num_providers(&self) -> usize {
        self.provider_revenues.len()
    }

    /// What `user` pays.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn user_payment(&self, user: UserId) -> Money {
        self.user_payments[user.index()]
    }

    /// Set what `user` pays.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn set_user_payment(&mut self, user: UserId, amount: Money) {
        self.user_payments[user.index()] = amount;
    }

    /// What `provider` receives.
    ///
    /// # Panics
    ///
    /// Panics if `provider` is out of range.
    pub fn provider_revenue(&self, provider: ProviderId) -> Money {
        self.provider_revenues[provider.index()]
    }

    /// Set what `provider` receives.
    ///
    /// # Panics
    ///
    /// Panics if `provider` is out of range.
    pub fn set_provider_revenue(&mut self, provider: ProviderId, amount: Money) {
        self.provider_revenues[provider.index()] = amount;
    }

    /// Add to what `provider` receives.
    ///
    /// # Panics
    ///
    /// Panics if `provider` is out of range.
    pub fn add_provider_revenue(&mut self, provider: ProviderId, amount: Money) {
        self.provider_revenues[provider.index()] += amount;
    }

    /// All user payments in id order.
    pub fn user_payments(&self) -> &[Money] {
        &self.user_payments
    }

    /// Sum of user payments.
    pub fn total_user_payments(&self) -> Money {
        self.user_payments.iter().copied().sum()
    }

    /// Sum of provider revenues.
    pub fn total_provider_revenues(&self) -> Money {
        self.provider_revenues.iter().copied().sum()
    }

    /// `total user payments − total provider revenues`; non-negative iff
    /// the payments are budget balanced.
    pub fn budget_surplus(&self) -> Money {
        self.total_user_payments() - self.total_provider_revenues()
    }

    /// `true` iff budget balanced (surplus ≥ 0).
    pub fn is_budget_balanced(&self) -> bool {
        self.budget_surplus() >= Money::ZERO
    }
}

impl Encode for Payments {
    fn encode(&self, w: &mut Writer) {
        self.user_payments.encode(w);
        self.provider_revenues.encode(w);
    }
}

impl Decode for Payments {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Payments { user_payments: Vec::decode(r)?, provider_revenues: Vec::decode(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;

    #[test]
    fn zero_payments_are_balanced() {
        let p = Payments::zero(3, 2);
        assert_eq!(p.num_users(), 3);
        assert_eq!(p.num_providers(), 2);
        assert_eq!(p.total_user_payments(), Money::ZERO);
        assert!(p.is_budget_balanced());
    }

    #[test]
    fn setters_and_totals() {
        let mut p = Payments::zero(2, 2);
        p.set_user_payment(UserId(0), Money::from_f64(1.0));
        p.set_user_payment(UserId(1), Money::from_f64(0.5));
        p.set_provider_revenue(ProviderId(0), Money::from_f64(0.8));
        p.add_provider_revenue(ProviderId(0), Money::from_f64(0.2));
        assert_eq!(p.user_payment(UserId(0)), Money::from_f64(1.0));
        assert_eq!(p.provider_revenue(ProviderId(0)), Money::from_f64(1.0));
        assert_eq!(p.total_user_payments(), Money::from_f64(1.5));
        assert_eq!(p.total_provider_revenues(), Money::from_f64(1.0));
        assert_eq!(p.budget_surplus(), Money::from_f64(0.5));
        assert!(p.is_budget_balanced());
    }

    #[test]
    fn deficit_is_not_balanced() {
        let mut p = Payments::zero(1, 1);
        p.set_provider_revenue(ProviderId(0), Money::from_f64(1.0));
        assert_eq!(p.budget_surplus(), Money::from_f64(-1.0));
        assert!(!p.is_budget_balanced());
    }

    #[test]
    fn roundtrips_through_codec() {
        let mut p = Payments::zero(2, 1);
        p.set_user_payment(UserId(1), Money::from_f64(0.123456));
        p.set_provider_revenue(ProviderId(0), Money::from_f64(0.1));
        assert_eq!(roundtrip(&p).unwrap(), p);
    }
}
