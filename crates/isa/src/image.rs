//! Executable images: encoded text plus a symbol table.
//!
//! An image models one executable or shared library file. The loader in the
//! miniature OS maps images into process address spaces; the daemon maps
//! sampled PCs back to `(image, offset)` pairs; the analysis tools decode an
//! image's text and use its symbol table to find procedure boundaries.

use crate::encode::{decode, DecodeError};
use crate::insn::Instruction;
use dcpi_core::codec::Reader;
use std::sync::Arc;

/// Virtual address at which a process's main image text is loaded, so
/// word 0 of the text sits here. The machine maps images at it, and the
/// rewriter and the translation validator read code pointers against it.
pub const TEXT_BASE: u64 = 0x1_0000;

/// A procedure symbol: name and the half-open text range it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// Procedure name.
    pub name: String,
    /// Byte offset of the first instruction from the start of the text.
    pub offset: u64,
    /// Size in bytes of the procedure's text.
    pub size: u64,
}

impl Symbol {
    /// True if `offset` falls within this procedure.
    #[must_use]
    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.offset && offset < self.offset + self.size
    }
}

/// An executable image: a name (pathname by convention), encoded text, and
/// a symbol table sorted by offset.
#[derive(Clone, Debug)]
pub struct Image {
    name: String,
    words: Arc<[u32]>,
    symbols: Arc<[Symbol]>,
}

impl Image {
    /// Builds an image from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if symbols are not sorted by offset or extend past the text.
    #[must_use]
    pub fn new(name: String, words: Vec<u32>, symbols: Vec<Symbol>) -> Image {
        let text_bytes = (words.len() * 4) as u64;
        assert!(
            symbols.windows(2).all(|w| w[0].offset <= w[1].offset),
            "symbols must be sorted by offset"
        );
        assert!(
            symbols.iter().all(|s| s.offset + s.size <= text_bytes),
            "symbol extends past text"
        );
        Image {
            name,
            words: words.into(),
            symbols: symbols.into(),
        }
    }

    /// The image's pathname.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Encoded text words.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Text size in bytes.
    #[must_use]
    pub fn text_bytes(&self) -> u64 {
        (self.words.len() * 4) as u64
    }

    /// The symbol table, sorted by offset.
    #[must_use]
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Decodes the instruction at a byte offset, or `None` if the offset is
    /// unaligned, out of range, or holds an undecodable word.
    #[must_use]
    pub fn insn_at(&self, offset: u64) -> Option<Instruction> {
        if !offset.is_multiple_of(4) {
            return None;
        }
        let idx = usize::try_from(offset / 4).ok()?;
        decode(*self.words.get(idx)?).ok()
    }

    /// Decodes the whole text.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] encountered.
    pub fn decode_all(&self) -> Result<Vec<Instruction>, DecodeError> {
        self.words.iter().map(|&w| decode(w)).collect()
    }

    /// The symbol covering a byte offset, if any.
    #[must_use]
    pub fn symbol_at(&self, offset: u64) -> Option<&Symbol> {
        let idx = self
            .symbols
            .partition_point(|s| s.offset <= offset)
            .checked_sub(1)?;
        let sym = &self.symbols[idx];
        sym.contains(offset).then_some(sym)
    }

    /// Looks up a symbol by name.
    #[must_use]
    pub fn symbol_named(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Serializes the image (name, text, symbols) to a compact binary
    /// form, so the profile database can keep the executables it
    /// profiled next to the profiles and the offline tools can
    /// symbolize without the original build. Lengths and words are
    /// little-endian `u32`s, symbol ranges `u64`s.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.words.len() * 4);
        let put_len =
            |out: &mut Vec<u8>, n: usize| out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(b"DCIM\x01");
        put_len(&mut out, self.name.len());
        out.extend_from_slice(self.name.as_bytes());
        put_len(&mut out, self.words.len());
        for &w in self.words.iter() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        put_len(&mut out, self.symbols.len());
        for s in self.symbols.iter() {
            put_len(&mut out, s.name.len());
            out.extend_from_slice(s.name.as_bytes());
            out.extend_from_slice(&s.offset.to_le_bytes());
            out.extend_from_slice(&s.size.to_le_bytes());
        }
        out
    }

    /// Deserializes an image written by [`Image::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string on any malformation.
    pub fn from_bytes(data: &[u8]) -> Result<Image, String> {
        let mut r = Reader::new(data);
        if r.bytes(5)? != b"DCIM\x01" {
            return Err("bad image magic/version".into());
        }
        let string = |r: &mut Reader| -> Result<String, String> {
            let len = r.count_u32_le(1)?;
            String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| "non-utf8 string".into())
        };
        let name = string(&mut r)?;
        let n = r.count_u32_le(4)?;
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(r.u32_le()?);
        }
        // A symbol is at least its name's length and its two `u64`s.
        let ns = r.count_u32_le(20)?;
        let mut symbols = Vec::with_capacity(ns);
        let text_bytes = (n * 4) as u64;
        let mut prev = 0u64;
        for _ in 0..ns {
            let sname = string(&mut r)?;
            let offset = r.u64_le()?;
            let size = r.u64_le()?;
            if offset < prev || offset.checked_add(size).is_none_or(|e| e > text_bytes) {
                return Err(format!("bad symbol range for {sname}"));
            }
            prev = offset;
            symbols.push(Symbol {
                name: sname,
                offset,
                size,
            });
        }
        r.finish("the image")?;
        Ok(Image::new(name, words, symbols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::insn::Instruction;
    use crate::reg::Reg;

    fn test_image() -> Image {
        let insns = vec![
            Instruction::Lda {
                ra: Reg::T0,
                rb: Reg::ZERO,
                disp: 1,
            },
            Instruction::Br {
                ra: Reg::ZERO,
                disp: -2,
            },
            Instruction::CallPal {
                func: crate::insn::PalFunc::Halt,
            },
        ];
        let words = insns.into_iter().map(encode).collect();
        Image::new(
            "/bin/test".into(),
            words,
            vec![
                Symbol {
                    name: "main".into(),
                    offset: 0,
                    size: 8,
                },
                Symbol {
                    name: "exit".into(),
                    offset: 8,
                    size: 4,
                },
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let img = test_image();
        assert_eq!(img.name(), "/bin/test");
        assert_eq!(img.text_bytes(), 12);
        assert_eq!(img.words().len(), 3);
    }

    #[test]
    fn insn_at_decodes() {
        let img = test_image();
        assert_eq!(
            img.insn_at(0),
            Some(Instruction::Lda {
                ra: Reg::T0,
                rb: Reg::ZERO,
                disp: 1
            })
        );
        assert_eq!(img.insn_at(2), None, "unaligned");
        assert_eq!(img.insn_at(12), None, "past end");
    }

    #[test]
    fn decode_all_roundtrips() {
        let img = test_image();
        let insns = img.decode_all().unwrap();
        assert_eq!(insns.len(), 3);
    }

    #[test]
    fn symbol_lookup_by_offset() {
        let img = test_image();
        assert_eq!(img.symbol_at(0).unwrap().name, "main");
        assert_eq!(img.symbol_at(4).unwrap().name, "main");
        assert_eq!(img.symbol_at(8).unwrap().name, "exit");
        assert!(img.symbol_at(12).is_none());
    }

    #[test]
    fn symbol_lookup_by_name() {
        let img = test_image();
        assert_eq!(img.symbol_named("exit").unwrap().offset, 8);
        assert!(img.symbol_named("nope").is_none());
    }

    #[test]
    fn symbol_gap_yields_none() {
        let img = Image::new(
            "/g".into(),
            vec![0x08000000; 4],
            vec![Symbol {
                name: "p".into(),
                offset: 8,
                size: 4,
            }],
        );
        assert!(img.symbol_at(0).is_none());
        assert!(img.symbol_at(12).is_none());
        assert_eq!(img.symbol_at(8).unwrap().name, "p");
    }

    #[test]
    fn serialization_roundtrip() {
        let img = test_image();
        let bytes = img.to_bytes();
        let back = Image::from_bytes(&bytes).unwrap();
        assert_eq!(back.name(), img.name());
        assert_eq!(back.words(), img.words());
        assert_eq!(back.symbols(), img.symbols());
    }

    #[test]
    fn serialization_rejects_corruption() {
        let img = test_image();
        let bytes = img.to_bytes();
        assert!(Image::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Image::from_bytes(&bad).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Image::from_bytes(&trailing).is_err());
        assert!(Image::from_bytes(&[]).is_err());
        // A header claiming 2^24 words (or symbols) over no bytes is a
        // truncation found before anything is reserved for them.
        for header in [
            &b"DCIM\x01\0\0\0\0\0\0\0\x01"[..],
            b"DCIM\x01\0\0\0\0\0\0\0\0\0\0\0\x01",
        ] {
            let err = Image::from_bytes(header).unwrap_err();
            assert!(err.contains("truncated"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_symbols_panic() {
        let _ = Image::new(
            "/bad".into(),
            vec![0; 4],
            vec![
                Symbol {
                    name: "b".into(),
                    offset: 8,
                    size: 4,
                },
                Symbol {
                    name: "a".into(),
                    offset: 0,
                    size: 4,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "past text")]
    fn oversized_symbol_panics() {
        let _ = Image::new(
            "/bad".into(),
            vec![0; 2],
            vec![Symbol {
                name: "p".into(),
                offset: 0,
                size: 100,
            }],
        );
    }
}
