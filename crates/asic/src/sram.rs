//! SRAM geometry and word packing (§4.1, §6.1).
//!
//! ASIC exact-match SRAM is organised in fixed-width words; the paper (and
//! RMT \[19\]) use **112-bit** words. A table entry of `e` bits packs
//! `floor(112 / e)` entries per word, so the 28-bit SilkRoad ConnTable entry
//! (16-bit digest + 6-bit version + 6-bit overhead) packs exactly 4 per
//! word, while a naive IPv6 entry (37 B key + 18 B action) spans multiple
//! words.

/// SRAM word width in bits, as in RMT and the paper's §6 simulations.
pub const WORD_BITS: u32 = 112;

/// Why an SRAM sizing request cannot be answered exactly.
///
/// The infallible helpers ([`SramSpec::words_for`], [`SramSpec::bytes_for`])
/// paper over these cases (zero-width treated as maximally packed,
/// overflow saturated to `u64::MAX`) so existing report code keeps working;
/// callers that must not silently produce nonsense — the `srcheck` pipeline
/// verifier, the Table 2 model — use the `try_*` variants and surface the
/// error as a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SramError {
    /// The entry layout has zero bits: packing is undefined.
    ZeroWidth,
    /// The word/byte count does not fit in `u64`.
    Overflow {
        /// The entry count that overflowed the computation.
        entries: u64,
    },
}

impl std::fmt::Display for SramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SramError::ZeroWidth => write!(f, "zero-width SRAM entry"),
            SramError::Overflow { entries } => {
                write!(f, "SRAM size overflows u64 for {entries} entries")
            }
        }
    }
}

impl std::error::Error for SramError {}

/// Description of an SRAM allocation request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SramSpec {
    /// Bits per entry (match field + action data + packing overhead).
    pub entry_bits: u32,
}

impl SramSpec {
    /// Entries that fit in one word. Entries wider than a word span
    /// `ceil(entry_bits / WORD_BITS)` words ("0" packing ratio is reported
    /// as a fractional entries-per-word below 1).
    pub fn entries_per_word(&self) -> u32 {
        if self.entry_bits == 0 {
            return WORD_BITS; // degenerate, avoids div-by-zero
        }
        WORD_BITS / self.entry_bits // 0 if entry wider than a word
    }

    /// Words needed to store `n` entries, with typed failure on degenerate
    /// layouts (zero-width entries) and arithmetic overflow.
    pub fn try_words_for(&self, n: u64) -> Result<u64, SramError> {
        if n == 0 {
            return Ok(0);
        }
        if self.entry_bits == 0 {
            return Err(SramError::ZeroWidth);
        }
        let per_word = self.entries_per_word();
        if per_word >= 1 {
            Ok(n.div_ceil(per_word as u64))
        } else {
            // Wide entry: each entry occupies multiple whole words.
            let words_per_entry = (self.entry_bits as u64).div_ceil(WORD_BITS as u64);
            n.checked_mul(words_per_entry)
                .ok_or(SramError::Overflow { entries: n })
        }
    }

    /// Bytes of SRAM needed to store `n` entries (whole words), with typed
    /// failure on zero-width layouts and overflow.
    pub fn try_bytes_for(&self, n: u64) -> Result<u64, SramError> {
        let words = self.try_words_for(n)?;
        words
            .checked_mul(WORD_BITS as u64 / 8)
            .ok_or(SramError::Overflow { entries: n })
    }

    /// Words needed to store `n` entries. Infallible: a zero-width entry is
    /// treated as maximally packed and overflow saturates to `u64::MAX` —
    /// use [`SramSpec::try_words_for`] where nonsense must not pass silently.
    pub fn words_for(&self, n: u64) -> u64 {
        match self.try_words_for(n) {
            Ok(w) => w,
            Err(SramError::ZeroWidth) => n.div_ceil(WORD_BITS as u64),
            Err(SramError::Overflow { .. }) => u64::MAX,
        }
    }

    /// Bytes of SRAM needed to store `n` entries (whole words). Saturating;
    /// see [`SramSpec::words_for`] for the degenerate-input policy.
    pub fn bytes_for(&self, n: u64) -> u64 {
        self.words_for(n).saturating_mul(WORD_BITS as u64 / 8)
    }

    /// Packing efficiency: useful bits / allocated bits.
    pub fn efficiency(&self) -> f64 {
        let per_word = self.entries_per_word();
        if per_word >= 1 {
            (per_word * self.entry_bits) as f64 / WORD_BITS as f64
        } else {
            let words_per_entry = (self.entry_bits).div_ceil(WORD_BITS);
            self.entry_bits as f64 / (words_per_entry * WORD_BITS) as f64
        }
    }
}

/// Convert a byte count to mebibytes for reporting.
pub fn bytes_to_mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silkroad_entry_packs_four_per_word() {
        // §6.1: 16-bit digest + 6-bit version + 6-bit overhead = 28 bits;
        // exactly 4 entries per 112-bit word.
        let spec = SramSpec { entry_bits: 28 };
        assert_eq!(spec.entries_per_word(), 4);
        assert!((spec.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn naive_ipv6_entry_spans_words() {
        // 37B key + 18B action = 440 bits -> 4 words per entry.
        let spec = SramSpec { entry_bits: 440 };
        assert_eq!(spec.entries_per_word(), 0);
        assert_eq!(spec.words_for(1), 4);
        assert_eq!(spec.words_for(10), 40);
    }

    #[test]
    fn words_for_rounds_up() {
        let spec = SramSpec { entry_bits: 28 };
        assert_eq!(spec.words_for(0), 0);
        assert_eq!(spec.words_for(1), 1);
        assert_eq!(spec.words_for(4), 1);
        assert_eq!(spec.words_for(5), 2);
    }

    #[test]
    fn ten_million_connections_fit_modern_sram() {
        // The paper's headline: 10M conns at 28 bits/entry is ~33 MB,
        // within 50-100 MB; the naive IPv6 layout is ~550 MB, not.
        let compact = SramSpec { entry_bits: 28 };
        let naive = SramSpec { entry_bits: 440 };
        let compact_mb = bytes_to_mb(compact.bytes_for(10_000_000));
        let naive_mb = bytes_to_mb(naive.bytes_for(10_000_000));
        assert!(compact_mb < 50.0, "compact {compact_mb} MB");
        assert!(naive_mb > 500.0, "naive {naive_mb} MB");
    }

    #[test]
    fn zero_width_entry_is_degenerate_not_panicking() {
        let spec = SramSpec { entry_bits: 0 };
        assert!(spec.entries_per_word() > 0);
        let _ = spec.words_for(10);
    }

    #[test]
    fn try_variants_reject_zero_width_and_overflow() {
        let zero = SramSpec { entry_bits: 0 };
        assert_eq!(zero.try_words_for(10), Err(SramError::ZeroWidth));
        assert_eq!(zero.try_words_for(0), Ok(0));

        let wide = SramSpec {
            entry_bits: u32::MAX,
        };
        let err = wide.try_words_for(u64::MAX).unwrap_err();
        assert!(matches!(err, SramError::Overflow { .. }));
        // The saturating path caps instead of wrapping.
        assert_eq!(wide.words_for(u64::MAX), u64::MAX);
        assert_eq!(wide.bytes_for(u64::MAX), u64::MAX);

        // Byte conversion can overflow even when the word count fits.
        let spec = SramSpec {
            entry_bits: WORD_BITS,
        };
        assert!(matches!(
            spec.try_bytes_for(u64::MAX / 2),
            Err(SramError::Overflow { .. })
        ));

        // Well-formed requests agree with the infallible helpers.
        let ok = SramSpec { entry_bits: 28 };
        assert_eq!(ok.try_words_for(5), Ok(ok.words_for(5)));
        assert_eq!(ok.try_bytes_for(1_000_000), Ok(ok.bytes_for(1_000_000)));
        assert_eq!(format!("{}", SramError::ZeroWidth), "zero-width SRAM entry");
    }
}
