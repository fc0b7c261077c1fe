//! What the root fuzz tests share: the allocator probe, so "never
//! over-allocates" is an assertion with a number in it, and the
//! characters a hostile name is made of.

#[global_allocator]
static ALLOC: dcpi_testkit::Probe = dcpi_testkit::Probe;

/// Every character class a name could smuggle in: the JSON
/// metacharacters, the text formats' separators, control characters with
/// and without a short escape, multi-byte UTF-8.
pub const HOSTILE: &[char] = &[
    'a', 'Z', '0', '_', '.', '/', '"', '\\', ',', '{', '}', '[', ']', ':', '\n', '\r', '\t',
    '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '\u{2028}', '😀', ' ',
];
