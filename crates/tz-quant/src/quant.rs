//! Per-block quantization of f16 KV pages for sealed spill.
//!
//! A page is quantized in independent blocks of [`BLOCK_ELEMS`] f16 elements.
//! Each block stores one f16 *scale* (the block's max-magnitude divided by
//! the code range) followed by the signed integer codes — 8-bit codes for
//! [`SpillFormat::Int8`], two 4-bit codes per byte for [`SpillFormat::Int4`].
//! Dequantization is `code × scale`, so the worst-case per-element error is
//! bounded by one scale step ([`SpillFormat::error_bound`]); the property
//! tests in `tests/security.rs` assert that bound across random pages.
//!
//! [`SpillFormat::F16`] is the identity: no transform, no scales, byte-for-
//! byte the PR-4 spill payload — quantization off must be invisible.

use crate::f16::{f32_to_f16, read_f16, write_f16};

/// Elements per quantization block (one f16 scale is stored per block).
///
/// 64 keeps the scale overhead at 1/64th of an element per element: an INT8
/// page compresses to `(1 + 2/64) / 2 ≈ 0.516` of its f16 size, so a fixed
/// normal-world spill budget holds ~1.94× the pages — the "≥ 1.9×" the
/// acceptance benchmarks gate on.
pub const BLOCK_ELEMS: usize = 64;

/// How sealed KV pages are encoded in normal-world spill memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SpillFormat {
    /// Verbatim f16 (the PR-4 behaviour; quantization off).
    #[default]
    F16,
    /// 8-bit block quantization with per-block f16 scales (~1.94× denser).
    Int8,
    /// 4-bit block quantization with per-block f16 scales (~3.77× denser).
    Int4,
}

/// Errors from [`dequantize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// The packed payload's length does not match the format's layout for
    /// the claimed plaintext length.
    BadLength {
        /// What the layout requires.
        expected: usize,
        /// What the caller provided.
        got: usize,
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::BadLength { expected, got } => {
                write!(
                    f,
                    "quantized payload is {got} bytes, layout needs {expected}"
                )
            }
        }
    }
}

impl std::error::Error for QuantError {}

impl SpillFormat {
    /// Every format, densest last.
    pub const ALL: [SpillFormat; 3] = [SpillFormat::F16, SpillFormat::Int8, SpillFormat::Int4];

    /// Stable wire identifier, bound into the seal's MAC so a blob cannot be
    /// relabelled across formats.
    pub fn id(self) -> u8 {
        match self {
            SpillFormat::F16 => 0,
            SpillFormat::Int8 => 1,
            SpillFormat::Int4 => 2,
        }
    }

    /// The format with wire identifier `id`.
    pub fn from_id(id: u8) -> Option<SpillFormat> {
        match id {
            0 => Some(SpillFormat::F16),
            1 => Some(SpillFormat::Int8),
            2 => Some(SpillFormat::Int4),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            SpillFormat::F16 => "f16",
            SpillFormat::Int8 => "int8",
            SpillFormat::Int4 => "int4",
        }
    }

    /// Largest code magnitude, `None` for the identity format.
    pub fn levels(self) -> Option<i32> {
        match self {
            SpillFormat::F16 => None,
            SpillFormat::Int8 => Some(127),
            SpillFormat::Int4 => Some(7),
        }
    }

    /// Whether restoring a page of this format needs a dequantization pass.
    pub fn is_quantized(self) -> bool {
        self != SpillFormat::F16
    }

    /// Sealed payload size for a `plain_len`-byte f16 page.  Exact layout
    /// arithmetic — the seal MAC binds both lengths, and the accounting half
    /// of the KV manager uses the same function so simulated spill budgets
    /// match the byte-exact path.
    pub fn sealed_len(self, plain_len: usize) -> usize {
        let elems = plain_len / 2;
        let odd = plain_len % 2;
        match self {
            SpillFormat::F16 => plain_len,
            SpillFormat::Int8 => elems.div_ceil(BLOCK_ELEMS) * 2 + elems + odd,
            SpillFormat::Int4 => elems.div_ceil(BLOCK_ELEMS) * 2 + elems.div_ceil(2) + odd,
        }
    }

    /// How many plaintext bytes each sealed byte stands for
    /// (`plain / sealed`, ≥ 1): the factor a fixed spill budget stretches by.
    pub fn expansion(self, plain_len: usize) -> f64 {
        if plain_len == 0 {
            return 1.0;
        }
        plain_len as f64 / self.sealed_len(plain_len) as f64
    }

    /// Worst-case per-element absolute reconstruction error for a block whose
    /// max magnitude is `max_abs`: one scale step (rounding contributes half
    /// a step, f16 scale storage and the clamp the rest).
    pub fn error_bound(self, max_abs: f32) -> f32 {
        match self.levels() {
            None => 0.0,
            Some(levels) => {
                let scale = f16_scale(max_abs, levels);
                if scale == 0.0 {
                    max_abs // an all-zero (or denormal-max) block reconstructs to zero
                } else {
                    scale
                }
            }
        }
    }

    /// Modelled quantization noise as a fraction of the block's full scale:
    /// the RMS of a uniform rounding error of one step, `1 / (levels · √12)`.
    pub fn modelled_rms_noise(self) -> f64 {
        match self.levels() {
            None => 0.0,
            Some(levels) => 1.0 / (levels as f64 * 12f64.sqrt()),
        }
    }
}

/// The f16-rounded scale a block with max magnitude `max_abs` quantizes by.
fn f16_scale(max_abs: f32, levels: i32) -> f32 {
    crate::f16::f16_to_f32(f32_to_f16(max_abs / levels as f32))
}

/// Quantizes a little-endian f16 page into the format's packed layout.
///
/// Non-finite elements (NaN/±∞ never appear in healthy KV state, but random
/// test pages can contain their bit patterns) are treated as zero so the
/// output is always well-defined.  A trailing odd byte is carried verbatim.
pub fn quantize(format: SpillFormat, plain: &[u8]) -> Vec<u8> {
    if format == SpillFormat::F16 {
        return plain.to_vec();
    }
    let levels = format.levels().expect("quantized format");
    let elems = plain.len() / 2;
    let mut out = Vec::with_capacity(format.sealed_len(plain.len()));
    let mut block_vals = [0f32; BLOCK_ELEMS];
    let mut idx = 0;
    while idx < elems {
        let n = (elems - idx).min(BLOCK_ELEMS);
        let mut max_abs = 0f32;
        for (i, v) in block_vals[..n].iter_mut().enumerate() {
            let x = read_f16(plain, idx + i);
            *v = if x.is_finite() { x } else { 0.0 };
            max_abs = max_abs.max(v.abs());
        }
        let scale = f16_scale(max_abs, levels);
        out.extend_from_slice(&f32_to_f16(scale).to_le_bytes());
        let code = |x: f32| -> i32 {
            if scale == 0.0 {
                0
            } else {
                (x / scale).round().clamp(-levels as f32, levels as f32) as i32
            }
        };
        match format {
            SpillFormat::Int8 => {
                for &v in &block_vals[..n] {
                    out.push(code(v) as i8 as u8);
                }
            }
            SpillFormat::Int4 => {
                for pair in block_vals[..n].chunks(2) {
                    let lo = (code(pair[0]) & 0xf) as u8;
                    let hi = if pair.len() == 2 {
                        (code(pair[1]) & 0xf) as u8
                    } else {
                        0
                    };
                    out.push(lo | (hi << 4));
                }
            }
            SpillFormat::F16 => unreachable!(),
        }
        idx += n;
    }
    if plain.len() % 2 == 1 {
        out.push(plain[plain.len() - 1]);
    }
    debug_assert_eq!(out.len(), format.sealed_len(plain.len()));
    out
}

fn sign_extend_4(nibble: u8) -> i32 {
    ((nibble as i8) << 4 >> 4) as i32
}

/// Reconstructs the f16 page a packed payload encodes.
///
/// `plain_len` is the authenticated plaintext length from the seal header;
/// a payload whose length disagrees with the format's layout for that length
/// is rejected before any decoding.
pub fn dequantize(
    format: SpillFormat,
    packed: &[u8],
    plain_len: usize,
) -> Result<Vec<u8>, QuantError> {
    let expected = format.sealed_len(plain_len);
    if packed.len() != expected {
        return Err(QuantError::BadLength {
            expected,
            got: packed.len(),
        });
    }
    if format == SpillFormat::F16 {
        return Ok(packed.to_vec());
    }
    let elems = plain_len / 2;
    let mut out = vec![0u8; plain_len];
    let mut pos = 0usize; // read cursor in `packed`
    let mut idx = 0usize; // element cursor in `out`
    while idx < elems {
        let n = (elems - idx).min(BLOCK_ELEMS);
        let scale = crate::f16::f16_to_f32(u16::from_le_bytes([packed[pos], packed[pos + 1]]));
        pos += 2;
        match format {
            SpillFormat::Int8 => {
                for i in 0..n {
                    let q = packed[pos + i] as i8 as i32;
                    write_f16(&mut out, idx + i, q as f32 * scale);
                }
                pos += n;
            }
            SpillFormat::Int4 => {
                for i in 0..n {
                    let byte = packed[pos + i / 2];
                    let nibble = if i % 2 == 0 { byte & 0xf } else { byte >> 4 };
                    let q = sign_extend_4(nibble);
                    write_f16(&mut out, idx + i, q as f32 * scale);
                }
                pos += n.div_ceil(2);
            }
            SpillFormat::F16 => unreachable!(),
        }
        idx += n;
    }
    if plain_len % 2 == 1 {
        out[plain_len - 1] = packed[packed.len() - 1];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic page of finite f16 values in roughly ±8.
    fn f16_page(seed: u64, bytes: usize) -> Vec<u8> {
        let mut out = vec![0u8; bytes];
        let mut state = seed | 1;
        for i in 0..bytes / 2 {
            state = state
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            let unit = (state >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
            write_f16(&mut out, i, (unit - 0.5) * 16.0);
        }
        out
    }

    #[test]
    fn sealed_len_matches_the_hand_computed_layout() {
        // 2 MiB page: 1 Mi elements, 16384 blocks.
        let plain = 2 * 1024 * 1024;
        assert_eq!(SpillFormat::F16.sealed_len(plain), plain);
        assert_eq!(SpillFormat::Int8.sealed_len(plain), 16384 * 2 + 1024 * 1024);
        assert_eq!(SpillFormat::Int4.sealed_len(plain), 16384 * 2 + 512 * 1024);
        assert!(SpillFormat::Int8.expansion(plain) > 1.9);
        assert!(SpillFormat::Int4.expansion(plain) > 3.7);
        // Odd and tiny sizes stay consistent.
        for len in [0usize, 1, 2, 3, 127, 129] {
            for f in SpillFormat::ALL {
                let q = quantize(f, &f16_page(9, len));
                assert_eq!(q.len(), f.sealed_len(len), "{f:?} at {len}");
            }
        }
    }

    #[test]
    fn f16_format_is_the_identity() {
        let page = f16_page(1, 4096);
        let q = quantize(SpillFormat::F16, &page);
        assert_eq!(q, page);
        assert_eq!(dequantize(SpillFormat::F16, &q, 4096).unwrap(), page);
    }

    #[test]
    fn roundtrip_error_stays_within_one_scale_step() {
        for format in [SpillFormat::Int8, SpillFormat::Int4] {
            let page = f16_page(42, 8192);
            let packed = quantize(format, &page);
            let restored = dequantize(format, &packed, page.len()).unwrap();
            let elems = page.len() / 2;
            for block in 0..elems.div_ceil(BLOCK_ELEMS) {
                let lo = block * BLOCK_ELEMS;
                let hi = (lo + BLOCK_ELEMS).min(elems);
                let max_abs = (lo..hi)
                    .map(|i| read_f16(&page, i).abs())
                    .fold(0f32, f32::max);
                let bound = format.error_bound(max_abs);
                for i in lo..hi {
                    let err = (read_f16(&page, i) - read_f16(&restored, i)).abs();
                    assert!(
                        err <= bound,
                        "{format:?} elem {i}: err {err} > bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn int4_is_coarser_than_int8() {
        let page = f16_page(7, 4096);
        let rms = |format: SpillFormat| {
            let restored = dequantize(format, &quantize(format, &page), page.len()).unwrap();
            let elems = page.len() / 2;
            let sum: f64 = (0..elems)
                .map(|i| {
                    let d = (read_f16(&page, i) - read_f16(&restored, i)) as f64;
                    d * d
                })
                .sum();
            (sum / elems as f64).sqrt()
        };
        let (e8, e4) = (rms(SpillFormat::Int8), rms(SpillFormat::Int4));
        assert!(e8 > 0.0, "int8 is lossy");
        assert!(e4 > 4.0 * e8, "int4 must be markedly coarser: {e4} vs {e8}");
    }

    #[test]
    fn non_finite_and_zero_blocks_are_handled() {
        let mut page = f16_page(3, 256);
        page[0..2].copy_from_slice(&0x7c00u16.to_le_bytes()); // +inf
        page[2..4].copy_from_slice(&0x7e00u16.to_le_bytes()); // NaN
        for i in 64..128 {
            write_f16(&mut page, i, 0.0); // an all-zero block
        }
        for format in [SpillFormat::Int8, SpillFormat::Int4] {
            let restored = dequantize(format, &quantize(format, &page), page.len()).unwrap();
            assert_eq!(read_f16(&restored, 0), 0.0, "inf sanitised to zero");
            assert_eq!(read_f16(&restored, 1), 0.0, "nan sanitised to zero");
            assert_eq!(read_f16(&restored, 64), 0.0);
        }
    }

    #[test]
    fn wrong_length_payloads_are_rejected() {
        let page = f16_page(5, 512);
        let packed = quantize(SpillFormat::Int8, &page);
        // Claimed plaintext length disagrees with the payload layout.
        assert!(matches!(
            dequantize(SpillFormat::Int8, &packed, 1024),
            Err(QuantError::BadLength { .. })
        ));
        // An INT4 payload fed to the INT8 decoder has the wrong layout too.
        let packed4 = quantize(SpillFormat::Int4, &page);
        assert!(matches!(
            dequantize(SpillFormat::Int8, &packed4, 512),
            Err(QuantError::BadLength { .. })
        ));
    }

    #[test]
    fn quality_knob_picks_the_densest_admissible_format() {
        assert!(SpillFormat::Int4.modelled_rms_noise() > SpillFormat::Int8.modelled_rms_noise());
        assert_eq!(SpillFormat::F16.modelled_rms_noise(), 0.0);
    }

    #[test]
    fn format_ids_roundtrip_and_stay_stable() {
        for f in SpillFormat::ALL {
            assert_eq!(SpillFormat::from_id(f.id()), Some(f));
        }
        assert_eq!(SpillFormat::from_id(3), None);
        assert_eq!(
            (
                SpillFormat::F16.id(),
                SpillFormat::Int8.id(),
                SpillFormat::Int4.id()
            ),
            (0, 1, 2),
            "wire ids are part of the sealed AAD and must never change"
        );
    }
}
