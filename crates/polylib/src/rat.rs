//! Exact rational numbers over `i128`, normalized (gcd-reduced, positive
//! denominator). Panics on overflow in debug builds; the library keeps
//! magnitudes small by normalizing constraints after every operation.
//!
//! An integer's normalized form is `(n, 1)`, so construction, `+`, `−` and
//! `×` of integers return early without a gcd: most of what the folding
//! stage's fitter computes is integral. The `checked_*` operations return
//! `None` instead of overflowing, for arithmetic on values read from
//! outside the program (a recording's coordinates).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Greatest common divisor (non-negative).
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A normalized rational number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Construct `num/den`; panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        if den == 1 {
            return Rat { num, den };
        }
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// [`new`](Self::new), or `None` where normalizing leaves `i128`.
    fn checked_new(num: i128, den: i128) -> Option<Rat> {
        if den == 1 {
            return Some(Rat { num, den });
        }
        assert!(den != 0, "zero denominator");
        let (mut a, mut b) = (num.unsigned_abs(), den.unsigned_abs());
        while b != 0 {
            (a, b) = (b, a % b);
        }
        let g = i128::try_from(a).ok()?;
        let (num, den) = (num / g, den / g);
        if den < 0 {
            Some(Rat {
                num: num.checked_neg()?,
                den: den.checked_neg()?,
            })
        } else {
            Some(Rat { num, den })
        }
    }

    /// `self + o`, or `None` where an intermediate leaves `i128`.
    pub fn checked_add(self, o: Rat) -> Option<Rat> {
        if self.den == 1 && o.den == 1 {
            return self.num.checked_add(o.num).map(Rat::int);
        }
        let num = (self.num.checked_mul(o.den)?).checked_add(o.num.checked_mul(self.den)?)?;
        Rat::checked_new(num, self.den.checked_mul(o.den)?)
    }

    /// `self − o`, or `None` where an intermediate leaves `i128`.
    pub fn checked_sub(self, o: Rat) -> Option<Rat> {
        let neg = Rat {
            num: o.num.checked_neg()?,
            den: o.den,
        };
        self.checked_add(neg)
    }

    /// `self × o`, or `None` where an intermediate leaves `i128`.
    pub fn checked_mul(self, o: Rat) -> Option<Rat> {
        if self.den == 1 && o.den == 1 {
            return self.num.checked_mul(o.num).map(Rat::int);
        }
        Rat::checked_new(self.num.checked_mul(o.num)?, self.den.checked_mul(o.den)?)
    }

    /// `self ÷ o`, or `None` where an intermediate leaves `i128`; panics
    /// if `o` is zero.
    pub fn checked_div(self, o: Rat) -> Option<Rat> {
        assert!(o.num != 0, "division by zero rational");
        Rat::checked_new(self.num.checked_mul(o.den)?, self.den.checked_mul(o.num)?)
    }

    /// From an integer.
    pub fn int(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }

    /// Numerator (normalized).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (normalized, > 0).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// True iff this is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Truncate toward negative infinity.
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Round toward positive infinity.
    pub fn ceil(&self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Sign: -1, 0, or 1.
    pub fn signum(&self) -> i32 {
        self.num.signum() as i32
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, o: Rat) -> Rat {
        if self.den == 1 && o.den == 1 {
            return Rat::int(self.num + o.num);
        }
        Rat::new(self.num * o.den + o.num * self.den, self.den * o.den)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, o: Rat) -> Rat {
        if self.den == 1 && o.den == 1 {
            return Rat::int(self.num - o.num);
        }
        Rat::new(self.num * o.den - o.num * self.den, self.den * o.den)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, o: Rat) -> Rat {
        if self.den == 1 && o.den == 1 {
            return Rat::int(self.num * o.num);
        }
        Rat::new(self.num * o.num, self.den * o.den)
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, o: Rat) -> Rat {
        assert!(o.num != 0, "division by zero rational");
        Rat::new(self.num * o.den, self.den * o.num)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, o: &Rat) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for Rat {
    fn cmp(&self, o: &Rat) -> Ordering {
        (self.num * o.den).cmp(&(o.num * self.den))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::int(v as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    /// The integer early returns give the normalized form the gcd would.
    #[test]
    fn integer_arithmetic_is_normalized() {
        assert_eq!(Rat::int(3) * Rat::int(-2), Rat::new(-12, 2));
        assert_eq!(Rat::int(3) - Rat::int(5), Rat::new(4, -2));
        assert_eq!(Rat::int(3) + Rat::new(1, 2), Rat::new(7, 2));
        assert_eq!(Rat::new(-9, 1).den(), 1);
    }

    /// The checked operations refuse what would leave `i128`: a sum, a
    /// product, a denominator product, a negation.
    #[test]
    fn checked_ops_refuse_overflow() {
        let max = Rat::int(i128::MAX);
        assert_eq!(max.checked_add(Rat::ONE), None);
        assert_eq!(max.checked_mul(Rat::int(2)), None);
        assert_eq!(Rat::ONE.checked_sub(Rat::int(i128::MIN)), None);
        assert_eq!(Rat::new(1, i128::MAX).checked_add(Rat::new(1, 2)), None);
        assert_eq!(Rat::int(i128::MIN).checked_div(Rat::int(-1)), None);
        assert_eq!(max.checked_sub(max), Some(Rat::ZERO));
    }

    #[test]
    fn ordering_and_rounding() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::int(-1) < Rat::ZERO);
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 1).to_string(), "3");
        assert_eq!(Rat::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }
}
