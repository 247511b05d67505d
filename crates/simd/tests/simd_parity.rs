//! Bit-identity parity suite for `lead_simd`.
//!
//! Every available backend (and whatever `Backend::select` picks) must
//! return results *bit-identical* to the safe scalar reference — not
//! approximately equal — across lengths that exercise empty input, partial
//! chunks, exact chunk multiples, and long tails. A fingerprint over the
//! whole sweep pins the reference itself, so a change to the evaluation
//! order fails loudly even on a scalar-only machine.

use lead_simd::{Backend, Kernel, LANES};

/// Deterministic pseudo-random f32s in roughly [-2, 2), from a fixed seed:
/// xorshift64* so the suite never depends on a RNG crate or the clock.
fn test_vector(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        // Map the top 20 bits to [-2, 2) with an exact power-of-two scale.
        let q = (bits >> 44) as i64 - (1 << 19);
        out.push(q as f32 / (1 << 18) as f32);
    }
    out
}

/// Lengths covering empty, sub-chunk, exact multiples of LANES, and tails.
fn lengths() -> Vec<usize> {
    vec![
        0,
        1,
        7,
        LANES - 1,
        LANES,
        LANES + 1,
        2 * LANES,
        2 * LANES + 3,
        31,
        4 * LANES + 5,
        257,
    ]
}

/// FNV-1a over the to_bits of each result, for a stable sweep fingerprint.
fn fingerprint(bits: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn every_backend_is_bit_identical_to_scalar() {
    let backends = Backend::available();
    assert!(backends.contains(&Backend::Scalar));
    for (case, &n) in lengths().iter().enumerate() {
        let a = test_vector(0x5eed_0001 + case as u64, n);
        let b = test_vector(0xc0ff_ee02 + case as u64, n);
        let reference = Backend::Scalar.dot(&a, &b);
        for backend in &backends {
            let got = backend.dot(&a, &b);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "backend `{}` diverged from scalar at len {n}: {got:?} vs {reference:?}",
                backend.name(),
            );
        }
    }
}

#[test]
fn select_picks_the_widest_available_backend() {
    // `available` lists backends narrowest first, so the widest is last.
    assert_eq!(Backend::available().last(), Some(&Backend::select()));
}

#[test]
fn selected_backend_is_bit_identical_to_scalar() {
    let selected = Backend::select();
    for &n in &lengths() {
        let a = test_vector(0xabcd_ef01 ^ n as u64, n);
        let b = test_vector(0x1234_5678 ^ n as u64, n);
        assert_eq!(
            selected.dot(&a, &b).to_bits(),
            Backend::Scalar.dot(&a, &b).to_bits(),
            "selected backend `{}` diverged at len {n}",
            selected.name(),
        );
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "dot length mismatch")]
fn mismatched_lengths_panic_in_debug_builds() {
    // Regression test: `dot` used to silently truncate mismatched operands
    // to their common prefix. That is now a caller bug caught by
    // `debug_assert!`; release builds keep the deterministic common-prefix
    // fallback documented on `lead_simd`.
    let a = test_vector(0x0a, 3 * LANES + 2);
    let b = test_vector(0x0b, LANES + 5);
    let _ = Backend::Scalar.dot(&a, &b);
}

#[test]
#[cfg(not(debug_assertions))]
fn mismatched_lengths_use_the_common_prefix_in_release_builds() {
    let a = test_vector(0x0a, 3 * LANES + 2);
    let b = test_vector(0x0b, LANES + 5);
    let n = a.len().min(b.len());
    let reference = Backend::Scalar.dot(&a[..n], &b[..n]);
    for backend in Backend::available() {
        assert_eq!(backend.dot(&a, &b).to_bits(), reference.to_bits());
    }
}

#[test]
fn scalar_sweep_fingerprint_is_pinned() {
    // Pins the reference evaluation order itself (blocked LANES-wide
    // accumulation, ascending-lane reduction, sequential tail). If this
    // fails, the determinism contract changed — every stored model score
    // downstream is suspect. Do not just update the constant: audit why.
    let mut bits = Vec::new();
    for (case, &n) in lengths().iter().enumerate() {
        let a = test_vector(0x5eed_0001 + case as u64, n);
        let b = test_vector(0xc0ff_ee02 + case as u64, n);
        bits.push(Backend::Scalar.dot(&a, &b).to_bits());
    }
    assert_eq!(
        fingerprint(&bits),
        0xcb7a_a5a0_51f1_b699,
        "bits: {bits:08x?}"
    );
}
