//! Framed FNV-1a structural fingerprints.
//!
//! [`Fnv64`] is a 64-bit FNV-1a accumulator with *explicit input
//! framing*: every variable-length field is length-prefixed and every
//! enum variant writes a discriminant tag, so no two structurally
//! distinct values can feed the hash the same byte stream by ambiguous
//! concatenation (the classic `("ab","c")` vs `("a","bc")` alias).
//! [`Pt::fingerprint`](crate::Pt::fingerprint) walks the tree through
//! this writer, and the serving layer's plan cache reuses it to key
//! queries — a cache key must not alias, so the framing is part of the
//! fingerprint's contract, not an implementation detail.
//!
//! The constants are the reference FNV-1a parameters. An earlier
//! version of `Pt::fingerprint` open-coded the prime as
//! `0x100_0000_01b3` — a digit grouping one keystroke from the
//! truncated `0x10000001b3` that silently weakens the hash — and
//! hashed the unframed `Debug` rendering of the tree, where adjacent
//! fields can alias. `fnv_reference_vectors` in the test suite pins
//! the constants to the published test vectors so a truncated prime
//! cannot ship, and the framed writers close the aliasing hole.

use std::fmt::Debug;

/// The 64-bit FNV offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime, 2^40 + 2^8 + 0xb3.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a accumulator with framed write helpers.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Fresh accumulator at the offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Raw bytes, no framing (callers frame themselves).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// One tag byte (enum discriminants, field separators).
    pub fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// A fixed-width integer (no length prefix needed).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// A string, framed by its byte length.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// An arbitrary value through its `Debug` rendering, framed by the
    /// rendering's byte length. Derived `Debug` output is injective per
    /// type (strings are quoted and escaped), and the length prefix
    /// keeps adjacent fields from bleeding into each other.
    pub(crate) fn write_debug<T: Debug>(&mut self, v: &T) {
        self.write_str(&format!("{v:?}"));
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a test vectors (unframed byte stream): a
    /// mistyped prime or offset fails these immediately. In particular
    /// the truncated `0x10000001b3` prime (a digit short of
    /// `0x100000001b3`) hashes "a" to 0xcf62cc8c8601ec8c instead of
    /// the reference value below.
    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(FNV_PRIME, 0x100000001b3, "the 64-bit FNV prime");
        assert_eq!(FNV_PRIME, (1u64 << 40) + (1 << 8) + 0xb3);
        let hash = |s: &str| {
            let mut h = Fnv64::new();
            h.write_bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf29ce484222325);
        assert_eq!(hash("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(hash("foobar"), 0x85944171f73967e8);
        // The classic typo, reproduced: same algorithm, prime a digit
        // short. Regressing FNV_PRIME to this value fails the vectors
        // above; this pair documents exactly how it diverges.
        let bad = (0xcbf29ce484222325u64 ^ b'a' as u64).wrapping_mul(0x10_0000_01b3);
        assert_eq!(bad, 0xcf62cc8c8601ec8c);
        assert_ne!(bad, hash("a"), "a truncated prime weakens the hash");
    }

    /// Length framing: concatenation ambiguities between adjacent
    /// strings must produce distinct hashes.
    #[test]
    fn framing_disambiguates_adjacent_strings() {
        let pairs = |a: &str, b: &str| {
            let mut h = Fnv64::new();
            h.write_str(a);
            h.write_str(b);
            h.finish()
        };
        assert_ne!(pairs("ab", "c"), pairs("a", "bc"));
        assert_ne!(pairs("", "abc"), pairs("abc", ""));
    }
}
