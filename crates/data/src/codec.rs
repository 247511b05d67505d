//! Byte-level primitives: FNV-1a checksums, zigzag varints, and little-endian
//! scalar encodings shared by every record type.

use crate::error::MalformedKind;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Computes the 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Maps a signed value onto an unsigned one with small magnitudes staying
/// small (`0, -1, 1, -2, ... -> 0, 1, 2, 3, ...`).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as a LEB128-style varint (7 payload bits per byte).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a varint from the front of `input`, advancing it past the bytes
/// consumed.
///
/// # Errors
///
/// [`MalformedKind::TruncatedPayload`] when `input` ends mid-varint;
/// [`MalformedKind::VarintOverflow`] when the encoding runs past 64 bits.
pub fn read_varint(input: &mut &[u8]) -> Result<u64, MalformedKind> {
    let mut v: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let (&b, rest) = input.split_first().ok_or(MalformedKind::TruncatedPayload)?;
        *input = rest;
        let payload = u64::from(b & 0x7f);
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Err(MalformedKind::VarintOverflow);
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends a signed value as a zigzag varint.
pub fn write_varint_i64(out: &mut Vec<u8>, v: i64) {
    write_varint(out, zigzag(v));
}

/// Reads a zigzag varint from the front of `input`.
///
/// # Errors
///
/// Same conditions as [`read_varint`].
pub fn read_varint_i64(input: &mut &[u8]) -> Result<i64, MalformedKind> {
    read_varint(input).map(unzigzag)
}

/// Takes `n` bytes off the front of `input`.
///
/// # Errors
///
/// [`MalformedKind::TruncatedPayload`] when fewer than `n` bytes remain.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], MalformedKind> {
    if input.len() < n {
        return Err(MalformedKind::TruncatedPayload);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Appends a `u32` in little-endian order.
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` from the front of `input`.
///
/// # Errors
///
/// [`MalformedKind::TruncatedPayload`] when fewer than four bytes remain.
pub fn read_u32(input: &mut &[u8]) -> Result<u32, MalformedKind> {
    let bytes = take(input, 4)?;
    let arr: [u8; 4] = bytes
        .try_into()
        .map_err(|_| MalformedKind::TruncatedPayload)?;
    Ok(u32::from_le_bytes(arr))
}

/// Appends an `f64` as its IEEE-754 bits in little-endian order.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads a little-endian IEEE-754 `f64` from the front of `input`.
///
/// # Errors
///
/// [`MalformedKind::TruncatedPayload`] when fewer than eight bytes remain.
pub fn read_f64(input: &mut &[u8]) -> Result<f64, MalformedKind> {
    let bytes = take(input, 8)?;
    let arr: [u8; 8] = bytes
        .try_into()
        .map_err(|_| MalformedKind::TruncatedPayload)?;
    Ok(f64::from_bits(u64::from_le_bytes(arr)))
}

/// The fixed-point grid: degrees are stored as integer multiples of 1e-7°
/// (~1.1 cm of latitude) when that representation is bit-exact.
pub const FIXED_POINT_SCALE: f64 = 1e7;

/// Quantizes a coordinate onto the 1e-7° grid, returning `None` unless the
/// round-trip `(q as f64) / 1e7` reproduces `v`'s exact bit pattern.
pub fn quantize_exact(v: f64) -> Option<i64> {
    let scaled = v * FIXED_POINT_SCALE;
    if !scaled.is_finite() || scaled.abs() > 4.5e15 {
        return None;
    }
    let q = scaled.round() as i64;
    let back = q as f64 / FIXED_POINT_SCALE;
    if back.to_bits() == v.to_bits() {
        Some(q)
    } else {
        None
    }
}

/// Inverse of [`quantize_exact`]: maps a grid index back to degrees.
pub fn dequantize(q: i64) -> f64 {
    q as f64 / FIXED_POINT_SCALE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123_456_789, -987_654_321] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut input = buf.as_slice();
        for &v in &values {
            assert_eq!(read_varint(&mut input).unwrap(), v);
        }
        assert!(input.is_empty());
    }

    #[test]
    fn varint_overflow_is_detected() {
        // Eleven continuation bytes cannot encode a 64-bit value.
        let bad = [0xffu8; 11];
        let mut input = bad.as_slice();
        assert_eq!(read_varint(&mut input), Err(MalformedKind::VarintOverflow));
    }

    #[test]
    fn varint_truncation_is_detected() {
        let bad = [0x80u8];
        let mut input = bad.as_slice();
        assert_eq!(
            read_varint(&mut input),
            Err(MalformedKind::TruncatedPayload)
        );
    }

    #[test]
    fn quantize_exact_accepts_csv_precision_coordinates() {
        // Coordinates written with 7 decimal places parse to values that
        // are exactly representable on the grid... when they are. The
        // contract is only that accepted values round-trip bitwise.
        for &v in &[31.2304, -121.4737, 0.0, 89.9999999, -180.0] {
            if let Some(q) = quantize_exact(v) {
                assert_eq!(dequantize(q).to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn quantize_exact_rejects_non_grid_values() {
        assert_eq!(quantize_exact(f64::NAN), None);
        assert_eq!(quantize_exact(f64::INFINITY), None);
        assert_eq!(quantize_exact(1e300), None);
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("") is the offset basis; "a" is a published test vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
