//! Image-rewriting primitives: the relocation layer under profile-guided
//! optimization.
//!
//! A rewriter that moves instructions around must (a) remember where every
//! original instruction went, so old profiles can still be attributed to
//! the rewritten image ([`AddressMap`]); (b) re-encode pc-relative branch
//! displacements against the new positions ([`retarget`]); (c) invert
//! conditional-branch senses when a layout pass makes the old taken target
//! the new fall-through ([`invert_cond`]); and (d) recognize and re-encode
//! the `ldah`/`lda` pairs that materialize absolute code addresses for
//! indirect calls ([`li_value_at`], [`li_pair`]). Everything here is purely
//! mechanical — policy (which block goes where) lives in `dcpi-pgo`.

use crate::insn::{BrCond, Instruction};
use crate::reg::Reg;
use dcpi_core::json::{self, Doc};

/// Schema version stamped into serialized address maps.
pub const MAP_SCHEMA: u32 = 1;

/// The opposite sense of a conditional-branch condition: `invert_cond(c)`
/// branches exactly when `c` falls through.
#[must_use]
pub fn invert_cond(cond: BrCond) -> BrCond {
    match cond {
        BrCond::Beq => BrCond::Bne,
        BrCond::Bne => BrCond::Beq,
        BrCond::Blt => BrCond::Bge,
        BrCond::Bge => BrCond::Blt,
        BrCond::Ble => BrCond::Bgt,
        BrCond::Bgt => BrCond::Ble,
        BrCond::Blbc => BrCond::Blbs,
        BrCond::Blbs => BrCond::Blbc,
    }
}

/// The absolute word index a branch at word `at` with displacement `disp`
/// targets (branch displacements are in words relative to the instruction
/// after the branch).
#[must_use]
pub fn branch_target(at: u32, disp: i32) -> i64 {
    i64::from(at) + 1 + i64::from(disp)
}

/// The displacement that makes a branch at word `at` target word `target`.
#[must_use]
pub fn disp_for(at: u32, target: u32) -> i32 {
    (i64::from(target) - (i64::from(at) + 1)) as i32
}

/// Re-encodes the displacement of a branch instruction now at word `at`
/// so it targets word `target`. Returns `None` for non-branch
/// instructions.
#[must_use]
pub fn retarget(insn: Instruction, at: u32, target: u32) -> Option<Instruction> {
    let disp = disp_for(at, target);
    match insn {
        Instruction::CondBr { cond, ra, .. } => Some(Instruction::CondBr { cond, ra, disp }),
        Instruction::Br { ra, .. } => Some(Instruction::Br { ra, disp }),
        _ => None,
    }
}

/// Splits an absolute value into the `(ldah, lda)` displacement pair the
/// assembler's `li` uses: `value == (hi << 16) + lo` with `lo` sign-
/// extended from 16 bits.
#[must_use]
pub fn li_split(value: i64) -> (i16, i16) {
    let lo = value as i16;
    let hi = ((value - i64::from(lo)) >> 16) as i16;
    (hi, lo)
}

/// The canonical two-instruction sequence materializing `value` into `r`:
/// `ldah r, hi(zero); lda r, lo(r)`. Unlike the assembler's `li` (which
/// omits a half when it can), this always emits both words so a rewriter
/// can patch the value in place without changing instruction counts.
#[must_use]
pub fn li_pair(r: Reg, value: i64) -> [Instruction; 2] {
    let (hi, lo) = li_split(value);
    [
        Instruction::Ldah {
            ra: r,
            rb: Reg::ZERO,
            disp: hi,
        },
        Instruction::Lda {
            ra: r,
            rb: r,
            disp: lo,
        },
    ]
}

/// Recognizes a constant-materializing suffix ending at `insns[end]`
/// that leaves an absolute value in register `r`: either the two-word
/// `ldah r, hi(zero); lda r, lo(r)` pair, a bare `ldah r, hi(zero)`, or a
/// bare `lda r, lo(zero)`. Returns `(first_index, value)`.
#[must_use]
pub fn li_value_at(insns: &[Instruction], end: usize, r: Reg) -> Option<(usize, i64)> {
    match insns.get(end)? {
        Instruction::Lda { ra, rb, disp } if *ra == r && *rb == r && end > 0 => {
            match insns.get(end - 1)? {
                Instruction::Ldah {
                    ra: ha,
                    rb: hb,
                    disp: hi,
                } if *ha == r && hb.is_zero() => {
                    Some((end - 1, (i64::from(*hi) << 16) + i64::from(*disp)))
                }
                _ => None,
            }
        }
        Instruction::Lda { ra, rb, disp } if *ra == r && rb.is_zero() => {
            Some((end, i64::from(*disp)))
        }
        Instruction::Ldah { ra, rb, disp } if *ra == r && rb.is_zero() => {
            Some((end, i64::from(*disp) << 16))
        }
        _ => None,
    }
}

/// Where every instruction of an original image went in a rewritten one.
///
/// The map is *total* over the original text (a conservative rewriter
/// never deletes instructions) and *injective* into the new text; the new
/// image may additionally contain inserted words (padding, straightening
/// branches) with no old counterpart. Old profile offsets are carried to
/// the new image with [`AddressMap::remap_byte`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AddressMap {
    /// Original image pathname.
    pub old_name: String,
    /// Rewritten image pathname.
    pub new_name: String,
    /// Number of words in the rewritten text.
    pub new_words: u32,
    /// `entries[old_word] == new_word`.
    entries: Vec<u32>,
}

impl AddressMap {
    /// An identity-initialized map over `old_len` words.
    #[must_use]
    pub fn identity(old_name: &str, new_name: &str, old_len: usize) -> AddressMap {
        AddressMap {
            old_name: old_name.to_string(),
            new_name: new_name.to_string(),
            new_words: old_len as u32,
            entries: (0..old_len as u32).collect(),
        }
    }

    /// Number of mapped (original) words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map covers no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets the new position of an original word.
    ///
    /// # Panics
    ///
    /// Panics if `old_word` is out of range.
    pub fn set(&mut self, old_word: u32, new_word: u32) {
        self.entries[old_word as usize] = new_word;
    }

    /// The new word index of an original word.
    #[must_use]
    pub fn get(&self, old_word: u32) -> Option<u32> {
        self.entries.get(old_word as usize).copied()
    }

    /// Maps an original byte offset to the rewritten image's byte offset.
    #[must_use]
    pub fn remap_byte(&self, old_offset: u64) -> Option<u64> {
        if !old_offset.is_multiple_of(4) {
            return None;
        }
        let w = u32::try_from(old_offset / 4).ok()?;
        self.get(w).map(|n| u64::from(n) * 4)
    }

    /// Checks that the map is total over the old text, in range of the
    /// new text, and injective. Returns the offending old word on
    /// failure.
    ///
    /// # Errors
    ///
    /// Returns `Err(old_word)` for the first word mapped out of range or
    /// onto an already-taken new word.
    pub fn check_bijective(&self) -> Result<(), u32> {
        let mut seen = vec![false; self.new_words as usize];
        for (old, &new) in self.entries.iter().enumerate() {
            let slot = seen.get_mut(new as usize).ok_or(old as u32)?;
            if *slot {
                return Err(old as u32);
            }
            *slot = true;
        }
        Ok(())
    }

    /// Serializes the map as JSON: a header, then one `{"old": …}` row
    /// per line in old-word order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut doc = Doc::new();
        doc.field("schema", MAP_SCHEMA)
            .field("old_image", &self.old_name)
            .field("new_image", &self.new_name)
            .field("old_words", self.entries.len())
            .field("new_words", self.new_words)
            .rows("map", |rows| {
                for (old, &new) in self.entries.iter().enumerate() {
                    rows.row(&[("old", old.into()), ("new", new.into())]);
                }
            });
        doc.finish()
    }

    /// Parses a serialized map.
    ///
    /// # Errors
    ///
    /// Text that is not JSON or not a map of [`MAP_SCHEMA`], a missing
    /// or mistyped member, an `old_words` that is not the number of
    /// `map` rows, or rows that are not `old = 0, 1, 2, …` in order.
    pub fn parse(text: &str) -> Result<AddressMap, String> {
        let doc = json::parse(text)?;
        doc.expect_schema("address map", MAP_SCHEMA)?;
        // Sized by the rows that parsed, never by the count the file claims.
        let mut entries = Vec::with_capacity(doc.array("map")?.len());
        doc.each("map", |row| {
            let old: u64 = row.int("old")?;
            if old != entries.len() as u64 {
                return Err(format!("row for old word {old}"));
            }
            entries.push(row.int("new")?);
            Ok(())
        })?;
        let old_words: u64 = doc.int("old_words")?;
        if old_words != entries.len() as u64 {
            return Err(format!(
                "old_words {old_words} disagrees with the {} map rows",
                entries.len()
            ));
        }
        Ok(AddressMap {
            old_name: doc.string("old_image")?.into(),
            new_name: doc.string("new_image")?.into(),
            new_words: doc.int("new_words")?,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inversion_is_an_involution_and_complements() {
        for c in BrCond::ALL {
            assert_eq!(invert_cond(invert_cond(c)), c);
            for v in [0u64, 1, 2, 3, u64::MAX, 1 << 63] {
                assert_ne!(c.test(v), invert_cond(c).test(v), "{c:?} on {v}");
            }
        }
    }

    #[test]
    fn branch_target_and_disp_roundtrip() {
        for (at, target) in [(0u32, 5u32), (10, 3), (7, 8), (4, 4)] {
            let d = disp_for(at, target);
            assert_eq!(branch_target(at, d), i64::from(target));
        }
    }

    #[test]
    fn retarget_rewrites_branches_only() {
        let b = Instruction::CondBr {
            cond: BrCond::Bne,
            ra: Reg::T0,
            disp: -3,
        };
        let r = retarget(b, 10, 4).unwrap();
        assert_eq!(
            r,
            Instruction::CondBr {
                cond: BrCond::Bne,
                ra: Reg::T0,
                disp: -7
            }
        );
        let nop = Instruction::IntOp {
            op: crate::insn::IntOp::Bis,
            ra: Reg::ZERO,
            rb: crate::insn::RegOrLit::Reg(Reg::ZERO),
            rc: Reg::ZERO,
        };
        assert!(retarget(nop, 0, 1).is_none());
    }

    #[test]
    fn li_split_matches_semantics() {
        for v in [0i64, 1, 0x10000, 0x1_7ff4, 0x1_8000, 0x7000_0040, -12] {
            let (hi, lo) = li_split(v);
            assert_eq!((i64::from(hi) << 16) + i64::from(lo), v, "{v:#x}");
        }
    }

    #[test]
    fn li_pair_evaluates_to_value() {
        // Simulate ldah r,hi(zero) then lda r,lo(r).
        for v in [0x10000i64, 0x1_8000, 0x7000_0000, 4] {
            let [a, b] = li_pair(Reg::T12, v);
            let Instruction::Ldah { disp: hi, .. } = a else {
                panic!()
            };
            let Instruction::Lda { disp: lo, .. } = b else {
                panic!()
            };
            let got = (i64::from(hi) << 16).wrapping_add(i64::from(lo));
            assert_eq!(got, v);
        }
    }

    #[test]
    fn li_value_recognizes_all_three_shapes() {
        let r = Reg::T12;
        let pair = li_pair(r, 0x1_0040).to_vec();
        assert_eq!(li_value_at(&pair, 1, r), Some((0, 0x1_0040)));
        let bare_ldah = vec![Instruction::Ldah {
            ra: r,
            rb: Reg::ZERO,
            disp: 1,
        }];
        assert_eq!(li_value_at(&bare_ldah, 0, r), Some((0, 0x1_0000)));
        let bare_lda = vec![Instruction::Lda {
            ra: r,
            rb: Reg::ZERO,
            disp: 72,
        }];
        assert_eq!(li_value_at(&bare_lda, 0, r), Some((0, 72)));
        // Wrong register: no match.
        assert_eq!(li_value_at(&pair, 1, Reg::T0), None);
    }

    #[test]
    fn address_map_roundtrips_through_json() {
        let mut m = AddressMap::identity("/bin/app", "/bin/app.pgo", 4);
        m.new_words = 6;
        m.set(0, 2);
        m.set(1, 3);
        m.set(2, 0);
        m.set(3, 5);
        assert!(m.check_bijective().is_ok());
        assert_eq!(m.remap_byte(4), Some(12));
        assert_eq!(m.remap_byte(5), None);
        assert_eq!(m.remap_byte(16), None);
        let back = AddressMap::parse(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn bijection_check_catches_collisions() {
        let mut m = AddressMap::identity("a", "b", 3);
        m.set(2, 1);
        assert_eq!(m.check_bijective(), Err(2));
        let mut oob = AddressMap::identity("a", "b", 2);
        oob.set(1, 9);
        assert!(oob.check_bijective().is_err());
    }

    #[test]
    fn hostile_names_roundtrip_exactly() {
        let mut m = AddressMap::identity("a\"b,c{d}e\nf\\", "\\\"}],\u{1}\t", 3);
        m.set(0, 2);
        m.set(2, 0);
        let json = m.to_json();
        assert_eq!(AddressMap::parse(&json).unwrap(), m);
        assert_eq!(AddressMap::parse(&json).unwrap().to_json(), json);
        let empty = AddressMap::identity("a", "b", 0);
        assert_eq!(AddressMap::parse(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn parse_rejects_incomplete_maps() {
        assert!(AddressMap::parse("{}").is_err());
        assert!(AddressMap::parse("not a map").is_err());
        let json = AddressMap::identity("a", "b", 3).to_json();
        let parse = |from: &str, to: &str| {
            assert!(json.contains(from), "{from}");
            AddressMap::parse(&json.replacen(from, to, 1))
        };
        // A missing, duplicated or out-of-order row.
        assert!(parse("    {\"old\": 1, \"new\": 1},\n", "").is_err());
        assert!(parse("{\"old\": 1,", "{\"old\": 0,").is_err());
        let err = parse("{\"old\": 1, \"new\": 1}", "{\"old\": 2, \"new\": 1}").unwrap_err();
        assert_eq!(err, "map[1]: row for old word 2");
        assert!(parse("\"schema\": 1", "\"schema\": 2")
            .unwrap_err()
            .contains("schema 2"));
        assert!(parse("  \"new_words\": 3,\n", "")
            .unwrap_err()
            .contains("new_words"));
        assert!(parse("\"new\": 2", "\"new\": 4294967296")
            .unwrap_err()
            .contains("\"new\""));
    }

    /// `old_words` comes from the file: it is checked against the rows
    /// that parsed and never used to reserve memory.
    #[test]
    fn a_lying_old_words_is_an_error_not_an_allocation() {
        let json = AddressMap::identity("a", "b", 42).to_json();
        for lie in [
            "1152921504606846976",
            "3000000000",
            "41",
            "43",
            "-1",
            "42.0",
        ] {
            let forged = json.replacen("\"old_words\": 42", &format!("\"old_words\": {lie}"), 1);
            assert_ne!(forged, json);
            let err = AddressMap::parse(&forged).unwrap_err();
            assert!(err.contains("old_words"), "{lie}: {err}");
        }
        let err = AddressMap::parse(&json.replacen("42,", "1152921504606846976,", 1)).unwrap_err();
        assert_eq!(
            err,
            "old_words 1152921504606846976 disagrees with the 42 map rows"
        );
    }
}
