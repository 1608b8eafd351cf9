//! Exact fixed-point quantities: currency and bandwidth.
//!
//! All replicas of the allocation algorithm must produce *bit-identical*
//! results, so every quantity in the system is an integer number of
//! micro-units ([`MICRO`] = 10⁻⁶ of the abstract unit used by the paper's
//! workloads).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::CodecError;

/// Number of micro-units per abstract unit.
pub const MICRO: i64 = 1_000_000;

/// An exact amount of currency, stored as `i64` micro-units.
///
/// `Money` represents valuations, payments and social welfare. It may be
/// negative (e.g. a provider's utility before receiving payments, or a VCG
/// externality term).
///
/// # Example
///
/// ```
/// use dauctioneer_types::{Money, Bw};
/// let unit_value = Money::from_f64(1.25);
/// let demand = Bw::from_f64(0.5);
/// // Total value of 0.5 units at 1.25 per unit:
/// assert_eq!(unit_value.per_unit(demand), Money::from_f64(0.625));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Money(pub i64);

impl Money {
    /// Zero currency.
    pub const ZERO: Money = Money(0);
    /// Largest representable amount; used as an "infinite" sentinel bound.
    pub const MAX: Money = Money(i64::MAX);

    /// Construct from raw micro-units.
    pub const fn from_micro(micro: i64) -> Money {
        Money(micro)
    }

    /// Construct from whole units.
    pub const fn from_units(units: i64) -> Money {
        Money(units * MICRO)
    }

    /// Construct by rounding a float amount of units to the nearest
    /// micro-unit. Intended for workload generation and tests, not for
    /// protocol-critical paths.
    pub fn from_f64(units: f64) -> Money {
        Money((units * MICRO as f64).round() as i64)
    }

    /// Raw micro-units.
    pub const fn micro(self) -> i64 {
        self.0
    }

    /// Approximate value in units as a float (for reporting only).
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MICRO as f64
    }

    /// `true` if the amount is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Total price of `bw` bandwidth at `self` per unit, rounded toward
    /// zero. Uses 128-bit intermediates, so it cannot overflow for any
    /// realistic workload.
    pub fn per_unit(self, bw: Bw) -> Money {
        let v = self.0 as i128 * bw.0 as i128 / MICRO as i128;
        Money(v as i64)
    }

    /// The smaller of two amounts.
    pub fn min(self, other: Money) -> Money {
        Money(self.0.min(other.0))
    }

    /// The larger of two amounts.
    pub fn max(self, other: Money) -> Money {
        Money(self.0.max(other.0))
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let a = self.0.unsigned_abs();
        write!(f, "{sign}{}.{:06}", a / MICRO as u64, a % MICRO as u64)
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    fn mul(self, rhs: i64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Div<i64> for Money {
    type Output = Money;
    fn div(self, rhs: i64) -> Money {
        Money(self.0 / rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl Encode for Money {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(self.0);
    }
}

impl Decode for Money {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Money(r.get_i64()?))
    }
}

/// An exact amount of bandwidth (the shared resource of the case study),
/// stored as `u64` micro-units.
///
/// # Example
///
/// ```
/// use dauctioneer_types::Bw;
/// let capacity = Bw::from_f64(1.5);
/// let demand = Bw::from_f64(0.9);
/// assert_eq!(capacity - demand, Bw::from_f64(0.6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bw(pub u64);

impl Bw {
    /// Zero bandwidth.
    pub const ZERO: Bw = Bw(0);

    /// Construct from raw micro-units.
    pub const fn from_micro(micro: u64) -> Bw {
        Bw(micro)
    }

    /// Construct from whole units.
    pub const fn from_units(units: u64) -> Bw {
        Bw(units * MICRO as u64)
    }

    /// Construct by rounding a float amount of units to the nearest
    /// micro-unit. Intended for workload generation and tests.
    ///
    /// # Panics
    ///
    /// Panics if `units` is negative.
    pub fn from_f64(units: f64) -> Bw {
        assert!(units >= 0.0, "bandwidth cannot be negative: {units}");
        Bw((units * MICRO as f64).round() as u64)
    }

    /// Raw micro-units.
    pub const fn micro(self) -> u64 {
        self.0
    }

    /// Approximate value in units as a float (for reporting only).
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MICRO as f64
    }

    /// `true` if this is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two amounts.
    pub fn min(self, other: Bw) -> Bw {
        Bw(self.0.min(other.0))
    }

    /// Subtraction clamped at zero.
    pub fn saturating_sub(self, rhs: Bw) -> Bw {
        Bw(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Bw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}", self.0 / MICRO as u64, self.0 % MICRO as u64)
    }
}

impl Add for Bw {
    type Output = Bw;
    fn add(self, rhs: Bw) -> Bw {
        Bw(self.0 + rhs.0)
    }
}

impl AddAssign for Bw {
    fn add_assign(&mut self, rhs: Bw) {
        self.0 += rhs.0;
    }
}

impl Sub for Bw {
    type Output = Bw;
    /// # Panics
    ///
    /// Panics in debug builds on underflow; use [`Bw::saturating_sub`] when
    /// underflow is expected.
    fn sub(self, rhs: Bw) -> Bw {
        Bw(self.0 - rhs.0)
    }
}

impl SubAssign for Bw {
    fn sub_assign(&mut self, rhs: Bw) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bw {
    fn sum<I: Iterator<Item = Bw>>(iter: I) -> Bw {
        iter.fold(Bw::ZERO, Add::add)
    }
}

impl Encode for Bw {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
}

impl Decode for Bw {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Bw(r.get_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;

    #[test]
    fn money_constructors_agree() {
        assert_eq!(Money::from_units(2), Money::from_micro(2_000_000));
        assert_eq!(Money::from_f64(1.25), Money::from_micro(1_250_000));
        assert_eq!(Money::from_f64(-0.5), Money::from_micro(-500_000));
    }

    #[test]
    fn money_arithmetic() {
        let a = Money::from_f64(1.5);
        let b = Money::from_f64(0.25);
        assert_eq!(a + b, Money::from_f64(1.75));
        assert_eq!(a - b, Money::from_f64(1.25));
        assert_eq!(-b, Money::from_f64(-0.25));
        assert_eq!(b * 3, Money::from_f64(0.75));
        assert_eq!(a / 2, Money::from_f64(0.75));
        let total: Money = [a, b, b].into_iter().sum();
        assert_eq!(total, Money::from_f64(2.0));
    }

    #[test]
    fn money_per_unit_scales_by_bandwidth() {
        let price = Money::from_f64(1.25);
        assert_eq!(price.per_unit(Bw::from_f64(1.0)), price);
        assert_eq!(price.per_unit(Bw::from_f64(0.5)), Money::from_f64(0.625));
        assert_eq!(price.per_unit(Bw::ZERO), Money::ZERO);
        // Large values exercise the 128-bit intermediate.
        let big = Money::from_units(1_000_000);
        assert_eq!(
            big.per_unit(Bw::from_units(1_000_000)),
            Money::from_micro(1_000_000_000_000 * MICRO)
        );
    }

    #[test]
    fn money_display_is_fixed_point() {
        assert_eq!(Money::from_f64(1.25).to_string(), "1.250000");
        assert_eq!(Money::from_micro(-1).to_string(), "-0.000001");
        assert_eq!(Money::ZERO.to_string(), "0.000000");
    }

    #[test]
    fn bw_arithmetic() {
        let a = Bw::from_f64(0.8);
        let b = Bw::from_f64(0.3);
        assert_eq!(a + b, Bw::from_f64(1.1));
        assert_eq!(a - b, Bw::from_f64(0.5));
        assert_eq!(a.saturating_sub(b + b + b), Bw::ZERO);
        assert_eq!(a.min(b), b);
        let total: Bw = [a, b].into_iter().sum();
        assert_eq!(total, Bw::from_f64(1.1));
    }

    #[test]
    #[should_panic(expected = "bandwidth cannot be negative")]
    fn bw_rejects_negative_floats() {
        let _ = Bw::from_f64(-0.1);
    }

    #[test]
    fn quantities_roundtrip_through_codec() {
        assert_eq!(roundtrip(&Money::from_f64(-3.5)).unwrap(), Money::from_f64(-3.5));
        assert_eq!(roundtrip(&Bw::from_f64(2.25)).unwrap(), Bw::from_f64(2.25));
    }

    #[test]
    fn as_f64_is_inverse_of_from_f64_at_micro_precision() {
        for v in [0.0, 0.1, 1.0, 123.456789] {
            assert!((Money::from_f64(v).as_f64() - v).abs() < 1e-6);
            assert!((Bw::from_f64(v).as_f64() - v).abs() < 1e-6);
        }
    }
}
