//! Architectural registers.
//!
//! The machine has 32 integer registers (`r0`–`r31`, with `r31` hardwired
//! to zero) and 32 floating-point registers (`f0`–`f31`, with `f31`
//! hardwired to zero), as on Alpha. Internally both files share a single
//! index space `0..64` so that the issue scoreboard and dependency checks
//! can treat all operands uniformly.

use std::fmt;

/// An architectural register: `r0..r31` (integer) or `f0..f31` (floating
/// point). The zero registers `r31`/`f31` always read as zero and writes to
/// them are discarded.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Number of registers in the unified index space.
    pub const COUNT: usize = 64;

    /// The integer zero register `r31`.
    pub const ZERO: Reg = Reg(31);
    /// The floating-point zero register `f31`.
    pub const FZERO: Reg = Reg(63);

    /// Standard Alpha calling-convention aliases for readability in
    /// workload code.
    pub const V0: Reg = Reg(0);
    /// Temporary register `t0` (`r1`).
    pub const T0: Reg = Reg(1);
    /// Temporary register `t1` (`r2`).
    pub const T1: Reg = Reg(2);
    /// Temporary register `t2` (`r3`).
    pub const T2: Reg = Reg(3);
    /// Temporary register `t3` (`r4`).
    pub const T3: Reg = Reg(4);
    /// Temporary register `t4` (`r5`).
    pub const T4: Reg = Reg(5);
    /// Temporary register `t5` (`r6`).
    pub const T5: Reg = Reg(6);
    /// Temporary register `t6` (`r7`).
    pub const T6: Reg = Reg(7);
    /// Temporary register `t7` (`r8`).
    pub const T7: Reg = Reg(8);
    /// Temporary register `t8` (`r22`).
    pub const T8: Reg = Reg(22);
    /// Temporary register `t9` (`r23`).
    pub const T9: Reg = Reg(23);
    /// Temporary register `t10` (`r24`).
    pub const T10: Reg = Reg(24);
    /// Temporary register `t11` (`r25`).
    pub const T11: Reg = Reg(25);
    /// Saved register `s0` (`r9`).
    pub const S0: Reg = Reg(9);
    /// Saved register `s1` (`r10`).
    pub const S1: Reg = Reg(10);
    /// Saved register `s2` (`r11`).
    pub const S2: Reg = Reg(11);
    /// Argument register `a0` (`r16`).
    pub const A0: Reg = Reg(16);
    /// Argument register `a1` (`r17`).
    pub const A1: Reg = Reg(17);
    /// Argument register `a2` (`r18`).
    pub const A2: Reg = Reg(18);
    /// Argument register `a3` (`r19`).
    pub const A3: Reg = Reg(19);
    /// Return-address register `ra` (`r26`).
    pub const RA: Reg = Reg(26);
    /// Procedure-value register `pv`/`t12` (`r27`).
    pub const T12: Reg = Reg(27);
    /// Global pointer `gp` (`r29`).
    pub const GP: Reg = Reg(29);
    /// Stack pointer `sp` (`r30`).
    pub const SP: Reg = Reg(30);

    /// The integer register `rN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub const fn int(n: u8) -> Reg {
        assert!(n < 32, "integer register index out of range");
        Reg(n)
    }

    /// The floating-point register `fN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub const fn fp(n: u8) -> Reg {
        assert!(n < 32, "fp register index out of range");
        Reg(32 + n)
    }

    /// Builds a register from its unified index (`0..64`).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 64`.
    #[must_use]
    pub const fn from_index(idx: u8) -> Reg {
        assert!(idx < Reg::COUNT as u8, "register index out of range");
        Reg(idx)
    }

    /// The unified index in `0..64`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// True for `r31` and `f31`.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 31 || self.0 == 63
    }

    /// True for floating-point registers.
    #[must_use]
    pub const fn is_fp(self) -> bool {
        self.0 >= 32
    }

    /// The number within its file (`0..32`).
    #[must_use]
    pub const fn num(self) -> u8 {
        self.0 % 32
    }

    /// The register's assembler name (`t4`, `sp`, `zero`, `f7`), read
    /// from one table.
    #[must_use]
    pub const fn name(self) -> &'static str {
        NAMES[self.0 as usize]
    }
}

/// Every register's name, by unified index: the conventional Alpha names
/// the paper's listings use for the integer file, `fN` for the FP file.
const NAMES: [&str; Reg::COUNT] = [
    "v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", //
    "t7", "s0", "s1", "s2", "s3", "s4", "s5", "fp", //
    "a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9", //
    "t10", "t11", "ra", "pv", "at", "gp", "sp", "zero", //
    "f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", //
    "f8", "f9", "f10", "f11", "f12", "f13", "f14", "f15", //
    "f16", "f17", "f18", "f19", "f20", "f21", "f22", "f23", //
    "f24", "f25", "f26", "f27", "f28", "f29", "f30", "f31",
];

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_index_spaces_are_disjoint() {
        assert_eq!(Reg::int(0).index(), 0);
        assert_eq!(Reg::int(31).index(), 31);
        assert_eq!(Reg::fp(0).index(), 32);
        assert_eq!(Reg::fp(31).index(), 63);
    }

    #[test]
    fn zero_registers() {
        assert!(Reg::ZERO.is_zero());
        assert!(Reg::FZERO.is_zero());
        assert!(!Reg::int(0).is_zero());
        assert!(!Reg::fp(0).is_zero());
    }

    #[test]
    fn is_fp_discriminates() {
        assert!(!Reg::int(5).is_fp());
        assert!(Reg::fp(5).is_fp());
    }

    #[test]
    fn from_index_roundtrips() {
        for i in 0..Reg::COUNT as u8 {
            assert_eq!(Reg::from_index(i).index(), i as usize);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_rejects_32() {
        let _ = Reg::int(32);
    }

    #[test]
    fn every_name_follows_the_alpha_convention() {
        let rule = |i: u8| match i {
            0 => "v0".to_string(),
            1..=8 => format!("t{}", i - 1),
            9..=14 => format!("s{}", i - 9),
            15 => "fp".to_string(),
            16..=21 => format!("a{}", i - 16),
            22..=25 => format!("t{}", i - 14),
            26 => "ra".to_string(),
            27 => "pv".to_string(),
            28 => "at".to_string(),
            29 => "gp".to_string(),
            30 => "sp".to_string(),
            31 => "zero".to_string(),
            _ => format!("f{}", i - 32),
        };
        for i in 0..Reg::COUNT as u8 {
            let r = Reg::from_index(i);
            assert_eq!(r.name(), rule(i), "register {i}");
            assert_eq!(r.to_string(), rule(i), "register {i}");
            assert_eq!(format!("{r:?}"), rule(i), "register {i}");
        }
    }

    #[test]
    fn num_is_within_file() {
        assert_eq!(Reg::fp(17).num(), 17);
        assert_eq!(Reg::int(17).num(), 17);
    }
}
