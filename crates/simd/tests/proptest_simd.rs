//! Property-based bit-identity battery for the full `lead_simd` kernel
//! surface.
//!
//! Three layers of defence, per the determinism contract:
//!
//! 1. **Cross-backend parity** (property tests): every kernel × every
//!    [`Backend::available`] over random lengths 0..=257 (empty, sub-chunk,
//!    exact-chunk, long tails) and inputs drawn from the full IEEE value
//!    zoo — denormals, ±0.0, and normals across the whole magnitude range —
//!    asserting `to_bits` equality against the scalar reference. The
//!    transcendental kernels also see ±∞, quiet NaNs, and a dense draw from
//!    the range where their polynomials and saturation edges live.
//! 2. **Pinned fingerprints**: an FNV-1a hash of each kernel's output bits
//!    over a fixed deterministic sweep, so a rounding change in the *scalar
//!    reference itself* fails loudly even on machines with no second
//!    backend.
//! 3. **Planted divergences**: a fixture kernel with FMA'd `dot`, `axpy`,
//!    `matmul_at_b_acc` and `exp` polynomial must be caught by the same
//!    harness the real backends pass, proving the battery can actually
//!    detect a contraction-rounding bug in a reduction, an update, a
//!    register-blocked product and a transcendental. A second fixture whose
//!    `matmul_acc` drops the exact-zero skip must be caught too: that is
//!    the bug a tile taking its branch-free `k` loop wrongly would have.

#![expect(clippy::panic, reason = "a test helper fails its test by panicking")]

use lead_simd::{AdamCoeffs, Backend, Kernel, LANES};
use proptest::prelude::*;

/// Deterministic pseudo-random f32s in roughly [-2, 2) (xorshift64*, exact
/// power-of-two quantisation) — the same generator `simd_parity` uses.
fn test_vector(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
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

/// FNV-1a over the `to_bits` of each result.
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

fn bits_of(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Inputs from the whole IEEE f32 zoo the kernels must stay bit-identical
/// on: full-magnitude-range normals, subnormals, and both signed zeros.
fn wild_f32() -> impl Strategy<Value = f32> {
    prop::num::f32::NORMAL | prop::num::f32::ZERO | prop::num::f32::SUBNORMAL
}

/// The transcendentals' zoo: every IEEE class including ±∞ and quiet NaNs,
/// half the time replaced by a value in [-110, 110), where `exp` neither
/// saturates trivially nor leaves the polynomial untested.
fn transcendental_f32() -> impl Strategy<Value = f32> {
    let zoo = prop::num::f32::NORMAL
        | prop::num::f32::ZERO
        | prop::num::f32::SUBNORMAL
        | prop::num::f32::INFINITE
        | prop::num::f32::QUIET_NAN;
    (zoo, -110.0..110.0f32, 0u8..2).prop_map(|(w, r, pick)| if pick == 0 { w } else { r })
}

/// `base^n` by sequential multiplication. `powi` is avoided on purpose: its
/// release-mode constant folding and debug-mode runtime lowering can round
/// differently, which would make the pinned fingerprints build-mode
/// dependent. A straight-line IEEE multiply chain folds to the same bits it
/// computes.
fn pow_seq(base: f32, n: u32) -> f32 {
    let mut acc = 1.0f32;
    for _ in 0..n {
        acc *= base;
    }
    acc
}

/// Adam coefficients used by the parity harness (one plain, one AdamW).
fn adam_coeff_sets() -> [AdamCoeffs; 2] {
    [
        AdamCoeffs {
            beta1: 0.9,
            beta2: 0.999,
            bc1: 1.0 - pow_seq(0.9, 3),
            bc2: 1.0 - pow_seq(0.999, 3),
            lr: 1e-4,
            eps: 1e-8,
            weight_decay: 0.0,
        },
        AdamCoeffs {
            beta1: 0.9,
            beta2: 0.999,
            bc1: 1.0 - pow_seq(0.9, 40),
            bc2: 1.0 - pow_seq(0.999, 40),
            lr: 0.01,
            eps: 1e-8,
            weight_decay: 0.02,
        },
    ]
}

/// A two-input elementwise kernel call, `(kernel, a, b, out)`.
type BinaryOp = fn(&dyn Kernel, &[f32], &[f32], &mut [f32]);

/// A one-input elementwise kernel call, `(kernel, a, out)`.
type UnaryOp = fn(&dyn Kernel, &[f32], &mut [f32]);

/// Runs every same-length kernel on inputs derived from `a`/`b` (equal
/// lengths) against the scalar reference and returns the kernels whose
/// output differs bitwise, in the order checked — empty means full parity.
/// This single harness serves both the real backends (must return nothing)
/// and the planted FMA fixture (must name exactly its planted kernels).
fn divergences(k: &dyn Kernel, a: &[f32], b: &[f32], coef: f32) -> Vec<&'static str> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let scalar = Backend::Scalar;
    let mut out = Vec::new();

    if k.dot(a, b).to_bits() != scalar.dot(a, b).to_bits() {
        out.push("dot");
    }
    {
        let mut got = b.to_vec();
        let mut want = b.to_vec();
        k.axpy(coef, a, &mut got);
        scalar.axpy(coef, a, &mut want);
        if bits_of(&got) != bits_of(&want) {
            out.push("axpy");
        }
    }
    // The transpose-free products read `a` and `b` as `side`-wide matrices
    // (`rows × side`, or `side × side` for `a·bᵀ`'s right operand) and
    // accumulate into a destination that starts from `b`'s values.
    let side = square_side(n);
    let rows = n.checked_div(side).unwrap_or(0);
    let (a_rect, b_rect, b_square) = (&a[..rows * side], &b[..rows * side], &b[..side * side]);
    let at_b =
        |k: &dyn Kernel, o: &mut [f32]| k.matmul_at_b_acc(a_rect, b_rect, o, rows, side, side);
    if product_diverges(k, at_b, b_square, same_bits) {
        out.push("matmul_at_b_acc");
    }
    let a_bt =
        |k: &dyn Kernel, o: &mut [f32]| k.matmul_a_bt_acc(a_rect, b_square, o, rows, side, side);
    if product_diverges(k, a_bt, b_rect, same_bits) {
        out.push("matmul_a_bt_acc");
    }
    for (name, run) in BINARY.into_iter().chain(GATES) {
        if binary_diverges(k, run, a, b) {
            out.push(name);
        }
    }
    {
        let mut got = a.to_vec();
        let mut want = a.to_vec();
        k.scale(&mut got, coef);
        scalar.scale(&mut want, coef);
        if bits_of(&got) != bits_of(&want) {
            out.push("scale");
        }
    }
    for (name, run) in UNARY {
        if unary_diverges(k, run, a) {
            out.push(name);
        }
    }
    // adam_update: second moments must be non-negative, so square `b`.
    let mut vsq = vec![0.0f32; n];
    scalar.mul(b, b, &mut vsq);
    for c in &adam_coeff_sets() {
        let (mut p1, mut m1, mut v1) = (a.to_vec(), b.to_vec(), vsq.clone());
        let (mut p2, mut m2, mut v2) = (a.to_vec(), b.to_vec(), vsq.clone());
        k.adam_update(&mut p1, b, &mut m1, &mut v1, c);
        scalar.adam_update(&mut p2, b, &mut m2, &mut v2, c);
        if bits_of(&p1) != bits_of(&p2)
            || bits_of(&m1) != bits_of(&m2)
            || bits_of(&v1) != bits_of(&v2)
        {
            out.push("adam_update");
            break;
        }
    }
    out
}

/// Whether `run` on backend `k` differs bitwise from the scalar reference.
fn binary_diverges(k: &dyn Kernel, run: BinaryOp, a: &[f32], b: &[f32]) -> bool {
    let mut got = vec![0.0f32; a.len()];
    let mut want = vec![0.0f32; a.len()];
    run(k, a, b, &mut got);
    run(&Backend::Scalar, a, b, &mut want);
    bits_of(&got) != bits_of(&want)
}

/// Whether `run` on backend `k` differs bitwise from the scalar reference.
fn unary_diverges(k: &dyn Kernel, run: UnaryOp, a: &[f32]) -> bool {
    let mut got = vec![0.0f32; a.len()];
    let mut want = vec![0.0f32; a.len()];
    run(k, a, &mut got);
    run(&Backend::Scalar, a, &mut want);
    bits_of(&got) != bits_of(&want)
}

/// The largest `side` with `side² ≤ len`.
fn square_side(len: usize) -> usize {
    let mut side = 0;
    while (side + 1) * (side + 1) <= len {
        side += 1;
    }
    side
}

/// Whether a backend's output `got` matches the reference's `want`.
type Same = fn(&[f32], &[f32]) -> bool;

/// The contract: every element's exact bits.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    bits_of(got) == bits_of(want)
}

/// The contract with NaN payloads left out (DESIGN.md §13): where the
/// reference holds a NaN the backend must hold a NaN, of any payload, and
/// every other element must match bit for bit.
fn same_up_to_nan_payload(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            if w.is_nan() {
                g.is_nan()
            } else {
                g.to_bits() == w.to_bits()
            }
        })
}

/// `dense` with the entries `specials` picks (0–2 of 8) made +∞, −∞ or a
/// NaN: x86's default one, or with `payloads`, a quiet NaN of random sign
/// and payload.
fn with_specials(dense: &[f32], specials: &[u8], payloads: Option<&[u32]>) -> Vec<f32> {
    dense
        .iter()
        .zip(specials)
        .enumerate()
        .map(|(i, (&v, &s))| match s {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            2 => match payloads {
                Some(p) => f32::from_bits(p[i] | 0x7fc0_0000),
                None => f32::from_bits(0xffc0_0000),
            },
            _ => v,
        })
        .collect()
}

/// Whether the accumulating product `run` on backend `k` differs from the
/// scalar reference under `same`, both starting from the destination `init`.
fn product_diverges(
    k: &dyn Kernel,
    run: impl Fn(&dyn Kernel, &mut [f32]),
    init: &[f32],
    same: Same,
) -> bool {
    let mut got = init.to_vec();
    let mut want = init.to_vec();
    run(k, &mut got);
    run(&Backend::Scalar, &mut want);
    !same(&got, &want)
}

/// `matmul_acc` parity for one `(m, k, n)` shape, accumulating into a
/// non-zero destination.
fn matmul_diverges(
    k: &dyn Kernel,
    a: &[f32],
    b: &[f32],
    init: &[f32],
    m: usize,
    kk: usize,
    n: usize,
    same: Same,
) -> bool {
    let run = |k: &dyn Kernel, o: &mut [f32]| k.matmul_acc(&a[..m * kk], &b[..kk * n], o, m, kk, n);
    product_diverges(k, run, &init[..m * n], same)
}

/// The two-input elementwise kernels other than the gates.
const BINARY: [(&str, BinaryOp); 5] = [
    ("add", |k, a, b, o| k.add(a, b, o)),
    ("sub", |k, a, b, o| k.sub(a, b, o)),
    ("mul", |k, a, b, o| k.mul(a, b, o)),
    ("sigmoid_bwd", |k, a, b, o| k.sigmoid_bwd(a, b, o)),
    ("tanh_bwd", |k, a, b, o| k.tanh_bwd(a, b, o)),
];

/// The one-input transcendental kernels.
const UNARY: [(&str, UnaryOp); 3] = [
    ("exp", |k, a, o| k.exp(a, o)),
    ("sigmoid", |k, a, o| k.sigmoid(a, o)),
    ("tanh", |k, a, o| k.tanh(a, o)),
];

/// The two fused gates, `activation(pre + bias)`.
const GATES: [(&str, BinaryOp); 2] = [
    ("sigmoid_gate", |k, a, b, o| k.sigmoid_gate(a, b, o)),
    ("tanh_gate", |k, a, b, o| k.tanh_gate(a, b, o)),
];

proptest! {
    #[test]
    fn every_kernel_is_bit_identical_to_scalar_on_every_backend(
        raw_a in prop::collection::vec(wild_f32(), 0..258),
        raw_b in prop::collection::vec(wild_f32(), 0..258),
        coef in -4.0..4.0f32,
    ) {
        let n = raw_a.len().min(raw_b.len());
        let (a, b) = (&raw_a[..n], &raw_b[..n]);
        for backend in Backend::available() {
            let diverged = divergences(&backend, a, b, coef);
            prop_assert!(
                diverged.is_empty(),
                "backend `{}` diverged from scalar in {:?} at len {}",
                backend.name(),
                diverged,
                n
            );
        }
    }

    #[test]
    fn transcendentals_are_bit_identical_on_every_backend(
        raw_a in prop::collection::vec(transcendental_f32(), 0..258),
        raw_b in prop::collection::vec(wild_f32(), 0..258),
    ) {
        // exp, sigmoid and tanh over the whole zoo, ±∞ and NaN included;
        // the gates add a finite bias, so a NaN lane meets at most one NaN.
        let n = raw_a.len().min(raw_b.len());
        let (a, b) = (&raw_a[..n], &raw_b[..n]);
        for backend in Backend::available() {
            for (name, run) in UNARY {
                prop_assert!(!unary_diverges(&backend, run, a),
                    "backend `{}` diverged in `{}` at len {}", backend.name(), name, n);
            }
            for (name, run) in GATES {
                prop_assert!(!binary_diverges(&backend, run, a, b),
                    "backend `{}` diverged in `{}` at len {}", backend.name(), name, n);
            }
        }
    }

    #[test]
    fn matmul_acc_is_bit_identical_to_scalar_on_every_backend(
        // m < 16 draws every step of both row ladders (6/4/3/2/1 on
        // AVX-512, 4/3/2/1 on AVX2; m = 15 is 6 + 6 + 3 and 4 + 4 + 4 + 3);
        // n < 200 draws the one-row 128-column tile, the two-row 64-column
        // tile and 32-column tiles, then the 16-column tile, the 8-wide
        // column step and scalar tails.
        dims in (0..16usize, 0..12usize, 0..200usize),
        a in prop::collection::vec(wild_f32(), 15 * 11),
        // Without zeros every block runs the branch-free `k` loop; the
        // zoo's zeros make most blocks take the per-entry skip.
        dense in prop::collection::vec(prop::num::f32::NORMAL | prop::num::f32::SUBNORMAL, 15 * 11),
        // One signed zero in the dense draw: its block alone must skip, and
        // only that one entry.
        zero in (0..15 * 11usize, 0u8..2),
        // Which dense entries become ±∞ or NaN (0–2), which are never
        // skipped. In the draw compared bit for bit the NaN is the one x86
        // makes of `0 * ∞` and `∞ - ∞`; the draw with `payloads` gives each
        // NaN its own, and where two NaNs meet in an add the operand order
        // the compiler picked decides which survives, so NaNs are compared
        // by class there.
        specials in prop::collection::vec(0u8..8, 15 * 11),
        b in prop::collection::vec(wild_f32(), 11 * 199),
        init in prop::collection::vec(wild_f32(), 15 * 199),
        payloads in prop::collection::vec(any::<u32>(), 15 * 11),
    ) {
        let (m, kk, n) = dims;
        let mut one_zero = dense.clone();
        one_zero[zero.0] = if zero.1 == 0 { 0.0 } else { -0.0 };
        let special = with_specials(&dense, &specials, None);
        let payload_nans = with_specials(&dense, &specials, Some(&payloads));
        let draws: [(&[f32], Same); 5] = [
            (&a, same_bits),
            (&dense, same_bits),
            (&one_zero, same_bits),
            (&special, same_bits),
            (&payload_nans, same_up_to_nan_payload),
        ];
        for backend in Backend::available() {
            for (a, same) in draws {
                prop_assert!(
                    !matmul_diverges(&backend, a, &b, &init, m, kk, n, same),
                    "backend `{}` diverged from scalar at {}x{}x{}",
                    backend.name(), m, kk, n
                );
            }
        }
    }

    #[test]
    fn scalar_matmul_acc_is_the_naive_per_element_loop(
        dims in (0..10usize, 0..6usize, 0..70usize),
        a in prop::collection::vec(wild_f32(), 9 * 5),
        b in prop::collection::vec(wild_f32(), 5 * 69),
        init in prop::collection::vec(wild_f32(), 9 * 69),
    ) {
        // The reference contract spelled out element by element: start from
        // the destination, add each `a[i][k] * b[k][j]` in ascending `k` as
        // a separate multiply then add, and skip every exact-zero `a[i][k]`
        // (so a `-0.0` destination with only zero coefficients stays `-0.0`).
        let (m, kk, n) = dims;
        let mut got = init[..m * n].to_vec();
        Backend::Scalar.matmul_acc(&a[..m * kk], &b[..kk * n], &mut got, m, kk, n);
        let mut want = init[..m * n].to_vec();
        for i in 0..m {
            for j in 0..n {
                let mut acc = want[i * n + j];
                for p in 0..kk {
                    let aip = a[i * kk + p];
                    if aip == 0.0 {
                        continue;
                    }
                    acc += aip * b[p * n + j];
                }
                want[i * n + j] = acc;
            }
        }
        prop_assert!(bits_of(&got) == bits_of(&want), "shape {}x{}x{}", m, kk, n);
    }

    #[test]
    fn at_b_product_is_bit_identical_to_scalar_on_every_backend(
        // m < 140 spans more than two 64-row transposition blocks; k < 10
        // draws two 4-row output tiles plus a remainder; n < 100 draws up
        // to two 32-column tiles followed by the 16-column tile, the 8-wide
        // column step and scalar tails.
        dims in (0..140usize, 0..10usize, 0..100usize),
        a in prop::collection::vec(wild_f32(), 139 * 9),
        dense in prop::collection::vec(prop::num::f32::NORMAL | prop::num::f32::SUBNORMAL, 139 * 9),
        b in prop::collection::vec(wild_f32(), 139 * 99),
        init in prop::collection::vec(wild_f32(), 9 * 99),
        // ±∞ and NaNs in `a`, as in the `matmul_acc` battery.
        specials in prop::collection::vec(0u8..8, 139 * 9),
        payloads in prop::collection::vec(any::<u32>(), 139 * 9),
    ) {
        let (m, kk, n) = dims;
        let special = with_specials(&dense, &specials, None);
        let payload_nans = with_specials(&dense, &specials, Some(&payloads));
        let draws: [(&[f32], Same); 4] = [
            (&a, same_bits),
            (&dense, same_bits),
            (&special, same_bits),
            (&payload_nans, same_up_to_nan_payload),
        ];
        for backend in Backend::available() {
            for (a, same) in draws {
                let run = |k: &dyn Kernel, o: &mut [f32]| {
                    k.matmul_at_b_acc(&a[..m * kk], &b[..m * n], o, m, kk, n)
                };
                prop_assert!(
                    !product_diverges(&backend, run, &init[..kk * n], same),
                    "backend `{}` diverged from scalar at {}x{}x{}",
                    backend.name(), m, kk, n
                );
            }
        }
    }

    #[test]
    fn a_bt_product_is_bit_identical_to_scalar_on_every_backend(
        // k < 40 draws whole lane chunks plus tails; m < 12 draws two
        // four-row tiles, then a two-row tile and an odd row; n < 20 draws
        // two groups of eight dots plus leftovers.
        dims in (0..12usize, 0..40usize, 0..20usize),
        a in prop::collection::vec(wild_f32(), 11 * 39),
        b in prop::collection::vec(wild_f32(), 19 * 39),
        init in prop::collection::vec(wild_f32(), 11 * 19),
    ) {
        let (m, kk, n) = dims;
        for backend in Backend::available() {
            let run = |k: &dyn Kernel, o: &mut [f32]| {
                k.matmul_a_bt_acc(&a[..m * kk], &b[..n * kk], o, m, kk, n)
            };
            prop_assert!(
                !product_diverges(&backend, run, &init[..m * n], same_bits),
                "backend `{}` diverged from scalar at {}x{}x{}",
                backend.name(), m, kk, n
            );
        }
    }

    #[test]
    fn scalar_transpose_free_products_are_the_naive_per_element_loops(
        dims in (0..12usize, 0..20usize, 0..12usize),
        a in prop::collection::vec(wild_f32(), 11 * 19),
        b in prop::collection::vec(wild_f32(), 11 * 19),
        init in prop::collection::vec(wild_f32(), 19 * 11),
    ) {
        // `aᵀ·b`: start from the destination and add each `a[r][p] * b[r][j]`
        // in ascending `r`, skipping exact-zero `a[r][p]`. `a·bᵀ`: add one
        // scalar `dot` of the two rows.
        let (m, kk, n) = dims;
        let scalar = Backend::Scalar;
        let mut got = init[..kk * n].to_vec();
        scalar.matmul_at_b_acc(&a[..m * kk], &b[..m * n], &mut got, m, kk, n);
        let mut want = init[..kk * n].to_vec();
        for p in 0..kk {
            for j in 0..n {
                let mut acc = want[p * n + j];
                for r in 0..m {
                    let arp = a[r * kk + p];
                    if arp == 0.0 {
                        continue;
                    }
                    acc += arp * b[r * n + j];
                }
                want[p * n + j] = acc;
            }
        }
        prop_assert!(bits_of(&got) == bits_of(&want), "aᵀ·b shape {}x{}x{}", m, kk, n);
        let mut got = init[..m * n].to_vec();
        scalar.matmul_a_bt_acc(&a[..m * kk], &b[..n * kk], &mut got, m, kk, n);
        let mut want = init[..m * n].to_vec();
        for i in 0..m {
            for j in 0..n {
                want[i * n + j] += scalar.dot(&a[i * kk..(i + 1) * kk], &b[j * kk..(j + 1) * kk]);
            }
        }
        prop_assert!(bits_of(&got) == bits_of(&want), "a·bᵀ shape {}x{}x{}", m, kk, n);
    }

    #[test]
    fn kernels_preserve_signed_zero_and_denormals(
        zeros in prop::collection::vec(prop::num::f32::ZERO, 1..64),
        denorms in prop::collection::vec(prop::num::f32::SUBNORMAL, 1..64),
    ) {
        // tanh/sigmoid-gate of ±0.0 inputs and elementwise ops over pure
        // denormal input must agree bitwise everywhere — the classic places
        // a vectorised implementation with flush-to-zero or a fused add
        // would slip.
        let n = zeros.len().min(denorms.len());
        for backend in Backend::available() {
            let d = divergences(&backend, &zeros[..n], &denorms[..n], 0.5);
            prop_assert!(d.is_empty(), "backend `{}` diverged in {:?}",
                backend.name(), d);
        }
    }
}

// ---- pinned per-kernel fingerprints ---------------------------------------

/// The scalar reference's output bits for one kernel over the deterministic
/// sweep. Covers every length in [`lengths`], both Adam coefficient sets,
/// and a fixed shape set for `matmul_acc`.
fn kernel_sweep_bits(kernel_name: &str) -> Vec<u32> {
    let k = Backend::Scalar;
    let mut bits = Vec::new();
    for (case, &n) in lengths().iter().enumerate() {
        let a = test_vector(0xa5a5_0001 + case as u64, n);
        let b = test_vector(0x5a5a_0002 + case as u64, n);
        match kernel_name {
            "dot" => bits.push(k.dot(&a, &b).to_bits()),
            "axpy" => {
                let mut y = b.clone();
                k.axpy(0.3, &a, &mut y);
                bits.extend(bits_of(&y));
            }
            "add" | "sub" | "mul" | "sigmoid_gate" | "tanh_gate" | "sigmoid_bwd" | "tanh_bwd" => {
                let mut out = vec![0.0f32; n];
                match kernel_name {
                    "add" => k.add(&a, &b, &mut out),
                    "sub" => k.sub(&a, &b, &mut out),
                    "mul" => k.mul(&a, &b, &mut out),
                    "sigmoid_gate" => k.sigmoid_gate(&a, &b, &mut out),
                    "tanh_gate" => k.tanh_gate(&a, &b, &mut out),
                    "sigmoid_bwd" => k.sigmoid_bwd(&a, &b, &mut out),
                    _ => k.tanh_bwd(&a, &b, &mut out),
                }
                bits.extend(bits_of(&out));
            }
            "scale" => {
                let mut x = a.clone();
                k.scale(&mut x, -0.7);
                bits.extend(bits_of(&x));
            }
            "exp" | "sigmoid" | "tanh" => {
                // Scaled to [-48, 48): the polynomials, the large-|x|
                // branches and sigmoid's both summation orders.
                let a: Vec<f32> = a.iter().map(|v| v * 24.0).collect();
                let mut out = vec![0.0f32; n];
                match kernel_name {
                    "exp" => k.exp(&a, &mut out),
                    "sigmoid" => k.sigmoid(&a, &mut out),
                    _ => k.tanh(&a, &mut out),
                }
                bits.extend(bits_of(&out));
            }
            "adam_update" => {
                let mut vsq = vec![0.0f32; n];
                k.mul(&b, &b, &mut vsq);
                for c in &adam_coeff_sets() {
                    let (mut p, mut m, mut v) = (a.clone(), b.clone(), vsq.clone());
                    k.adam_update(&mut p, &b, &mut m, &mut v, c);
                    bits.extend(bits_of(&p));
                    bits.extend(bits_of(&m));
                    bits.extend(bits_of(&v));
                }
            }
            "matmul_acc" | "matmul_at_b_acc" | "matmul_a_bt_acc" => {} // fixed shapes below
            other => panic!("unknown kernel `{other}` in sweep"),
        }
    }
    if kernel_name == "matmul_acc" {
        for (case, &(m, kk, n)) in [
            (0, 0, 0),
            (1, 1, 1),
            (2, 3, 4),
            (5, 8, 7),
            (8, 8, 8),
            (3, 17, 9),
        ]
        .iter()
        .enumerate()
        {
            let a = test_vector(0x3333_0003 + case as u64, m * kk);
            let b = test_vector(0x4444_0004 + case as u64, kk * n);
            let mut out = test_vector(0x5555_0005 + case as u64, m * n);
            k.matmul_acc(&a, &b, &mut out, m, kk, n);
            bits.extend(bits_of(&out));
        }
    }
    if kernel_name == "matmul_at_b_acc" {
        // Up to three 64-row transposition blocks, 4-row tiles and every
        // column step.
        for (case, &(m, kk, n)) in [
            (0, 0, 0),
            (1, 1, 1),
            (3, 2, 4),
            (7, 5, 9),
            (70, 6, 17),
            (130, 4, 33),
        ]
        .iter()
        .enumerate()
        {
            let a = test_vector(0x6666_0006 + case as u64, m * kk);
            let b = test_vector(0x7777_0007 + case as u64, m * n);
            let mut out = test_vector(0x8888_0008 + case as u64, kk * n);
            k.matmul_at_b_acc(&a, &b, &mut out, m, kk, n);
            bits.extend(bits_of(&out));
        }
    }
    if kernel_name == "matmul_a_bt_acc" {
        // Dot lengths with and without tails; groups of four dots and
        // leftovers.
        for (case, &(m, kk, n)) in [
            (0, 0, 0),
            (1, 1, 1),
            (2, 3, 4),
            (3, 17, 9),
            (5, 64, 7),
            (2, 8, 12),
        ]
        .iter()
        .enumerate()
        {
            let a = test_vector(0x9999_0009 + case as u64, m * kk);
            let b = test_vector(0xaaaa_000a + case as u64, n * kk);
            let mut out = test_vector(0xbbbb_000b + case as u64, m * n);
            k.matmul_a_bt_acc(&a, &b, &mut out, m, kk, n);
            bits.extend(bits_of(&out));
        }
    }
    bits
}

#[test]
fn scalar_kernel_fingerprints_are_pinned() {
    // Pins the reference semantics of every kernel. If one of these fails,
    // the determinism contract changed and every stored model downstream is
    // suspect — audit the change, do not just update the constant.
    let pinned: [(&str, u64); 17] = [
        ("dot", 0xa584_0c6d_458d_3b66),
        ("axpy", 0xb155_7dfd_b33c_0adf),
        ("add", 0xd7d4_bbc7_56b7_e6e0),
        ("sub", 0xd5f8_b59a_0bcd_a958),
        ("mul", 0x76f0_51cb_3613_cad7),
        ("scale", 0x7c45_11d8_693b_6784),
        ("exp", 0x60b3_8120_42c0_83c8),
        ("sigmoid", 0x0554_9006_39af_edc3),
        ("tanh", 0x22b1_960d_8f92_872c),
        ("sigmoid_gate", 0x7b60_1300_d85d_1e3d),
        ("tanh_gate", 0xdd49_7cae_f382_a12f),
        ("sigmoid_bwd", 0xeb27_3653_2968_7e2c),
        ("tanh_bwd", 0x7ef7_65bc_47f1_6e93),
        ("matmul_acc", 0x03ef_3218_63e0_9da2),
        ("adam_update", 0xdaa8_8743_87ef_597a),
        ("matmul_at_b_acc", 0x7349_391d_36c1_e614),
        ("matmul_a_bt_acc", 0xdb65_5f65_1bfe_59bf),
    ];
    let mut failures = Vec::new();
    for (name, want) in pinned {
        let got = fingerprint(&kernel_sweep_bits(name));
        if got != want {
            failures.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "fingerprint drift:\n{}",
        failures.join("\n")
    );
}

// ---- planted divergence ----------------------------------------------------

/// The bug a [`Planted`] kernel carries.
#[derive(Clone, Copy, PartialEq)]
enum Bug {
    /// `dot`, `axpy`, `matmul_at_b_acc` and the `exp` polynomial use fused
    /// multiply-add, the exact class of bug (contraction changing rounding)
    /// the parity battery exists to catch.
    Fma,
    /// `matmul_acc` adds every `0 * b` instead of skipping it.
    NoZeroSkip,
}

/// A deliberately broken backend: the kernels its [`Bug`] names are wrong,
/// everything else delegates to the scalar reference.
struct Planted(Bug);

/// `exp` as the reference defines it (`lead_simd::exp`), with every
/// multiply-then-add of the reduction and the polynomial fused. The
/// constants are the reference's, by bit pattern.
fn fma_exp(x: f32) -> f32 {
    const LOG2E: f32 = f32::from_bits(0x3fb8_aa3b);
    const LN2_HI: f32 = f32::from_bits(0x3f31_8000);
    const LN2_LO: f32 = f32::from_bits(0xb95e_8083);
    const MAGIC: f32 = 12_582_912.0;
    const POLY: [u32; 6] = [
        0x3950_6967,
        0x3ab7_43ce,
        0x3c08_8908,
        0x3d2a_a9c1,
        0x3e2a_aaaa,
        0x3f00_0000,
    ];
    if x.is_nan() {
        return x;
    }
    let x = x.clamp(-104.0, 89.0);
    let t = x.mul_add(LOG2E, MAGIC);
    let kf = t - MAGIC;
    let k = t.to_bits() as i32 - MAGIC.to_bits() as i32;
    let r = (-kf).mul_add(LN2_LO, (-kf).mul_add(LN2_HI, x));
    let mut p = f32::from_bits(POLY[0]);
    for &c in &POLY[1..] {
        p = p.mul_add(r, f32::from_bits(c));
    }
    let y = p.mul_add(r * r, r) + 1.0;
    let pow2 = |e: i32| f32::from_bits(((e + 127) as u32) << 23);
    y * pow2(k >> 1) * pow2(k - (k >> 1))
}

impl Kernel for Planted {
    fn name(&self) -> &'static str {
        match self.0 {
            Bug::Fma => "fma-fixture",
            Bug::NoZeroSkip => "skipless-fixture",
        }
    }
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        if self.0 != Bug::Fma {
            return Backend::Scalar.dot(a, b);
        }
        let n = a.len().min(b.len());
        let mut acc = 0.0f32;
        for (&x, &y) in a[..n].iter().zip(&b[..n]) {
            acc = x.mul_add(y, acc);
        }
        acc
    }
    fn axpy(&self, a: f32, x: &[f32], y: &mut [f32]) {
        if self.0 != Bug::Fma {
            return Backend::Scalar.axpy(a, x, y);
        }
        let n = x.len().min(y.len());
        for (yi, &xi) in y[..n].iter_mut().zip(&x[..n]) {
            *yi = a.mul_add(xi, *yi);
        }
    }
    fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        Backend::Scalar.add(a, b, out);
    }
    fn sub(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        Backend::Scalar.sub(a, b, out);
    }
    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        Backend::Scalar.mul(a, b, out);
    }
    fn scale(&self, x: &mut [f32], s: f32) {
        Backend::Scalar.scale(x, s);
    }
    fn exp(&self, a: &[f32], out: &mut [f32]) {
        if self.0 != Bug::Fma {
            return Backend::Scalar.exp(a, out);
        }
        for (o, &x) in out.iter_mut().zip(a) {
            *o = fma_exp(x);
        }
    }
    fn sigmoid(&self, a: &[f32], out: &mut [f32]) {
        Backend::Scalar.sigmoid(a, out);
    }
    fn tanh(&self, a: &[f32], out: &mut [f32]) {
        Backend::Scalar.tanh(a, out);
    }
    fn sigmoid_gate(&self, pre: &[f32], bias: &[f32], out: &mut [f32]) {
        Backend::Scalar.sigmoid_gate(pre, bias, out);
    }
    fn tanh_gate(&self, pre: &[f32], bias: &[f32], out: &mut [f32]) {
        Backend::Scalar.tanh_gate(pre, bias, out);
    }
    fn sigmoid_bwd(&self, g: &[f32], y: &[f32], out: &mut [f32]) {
        Backend::Scalar.sigmoid_bwd(g, y, out);
    }
    fn tanh_bwd(&self, g: &[f32], y: &[f32], out: &mut [f32]) {
        Backend::Scalar.tanh_bwd(g, y, out);
    }
    fn matmul_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        if self.0 != Bug::NoZeroSkip {
            return Backend::Scalar.matmul_acc(a, b, out, m, k, n);
        }
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
    }
    fn matmul_at_b_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        if self.0 != Bug::Fma {
            return Backend::Scalar.matmul_at_b_acc(a, b, out, m, k, n);
        }
        for r in 0..m {
            for p in 0..k {
                let arp = a[r * k + p];
                if arp == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[p * n + j] = arp.mul_add(b[r * n + j], out[p * n + j]);
                }
            }
        }
    }
    fn matmul_a_bt_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        Backend::Scalar.matmul_a_bt_acc(a, b, out, m, k, n);
    }
    fn adam_update(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], c: &AdamCoeffs) {
        Backend::Scalar.adam_update(p, g, m, v, c);
    }
}

/// Length of the planted-divergence inputs: a multiple of [`LANES`] plus a
/// tail.
const PLANTED_LEN: usize = 512 * LANES + 3;

#[test]
fn planted_fma_kernel_is_caught_by_the_battery() {
    // The same harness the real backends pass must flag the FMA'd fixture —
    // otherwise the battery proves nothing. The quantised test vectors make
    // products inexact, so contraction changes the rounding of `dot`,
    // `axpy` and the 64-row `aᵀ·b` at once. The fused `exp` differs from
    // the reference on about one input in ninety (its reduction and
    // polynomial errors sit far below the final rounding), so the vectors
    // are long enough to hit dozens of those.
    let a = test_vector(0xdead_0001, PLANTED_LEN);
    let b = test_vector(0xbeef_0002, PLANTED_LEN);
    assert_eq!(
        divergences(&Planted(Bug::Fma), &a, &b, 0.3),
        ["dot", "axpy", "matmul_at_b_acc", "exp"],
        "the harness must catch each planted FMA kernel (dot, axpy, matmul_at_b_acc, exp) \
         and nothing else"
    );
    // The fused exp is the reference formula up to rounding: it stays
    // within the reference's own error bound, so only bit comparison can
    // tell the two apart.
    for &x in &a {
        let (fused, reference) = (fma_exp(x), lead_simd::exp(x));
        assert!((fused - reference).abs() <= 4.0 * f32::EPSILON * reference);
    }
}

#[test]
fn real_backends_pass_the_planted_divergence_inputs() {
    // Sanity: on the very inputs that catch the fixture, real backends agree.
    let a = test_vector(0xdead_0001, PLANTED_LEN);
    let b = test_vector(0xbeef_0002, PLANTED_LEN);
    for backend in Backend::available() {
        assert!(divergences(&backend, &a, &b, 0.3).is_empty());
    }
}

/// `(a, b, init, m, k, n)` products on which adding `0 * b` instead of
/// skipping it changes bits.
type ZeroSkipCase = (Vec<f32>, Vec<f32>, Vec<f32>, usize, usize, usize);

/// The two ways a dropped exact-zero skip shows. Each zero sits in the
/// second or later row of a multi-row block, so a block that looked for
/// zeros in too few of its rows would drop the skip too.
fn zero_skip_cases() -> [ZeroSkipCase; 2] {
    // 13 × 11 × 57 (6 + 6 + 1 rows on AVX-512, 4 + 4 + 4 + 1 on AVX2): one
    // -0.0 in a dense `a`, in row 7, against an ∞ in its row of `b`. The
    // skip drops the term; `0 * ∞` would make the sum NaN.
    let (m, k, n) = (13, 11, 57);
    let mut a = test_vector(0x5eed_0001, m * k);
    a[7 * k + 5] = -0.0;
    let mut b = test_vector(0x5eed_0002, k * n);
    b[5 * n + 40] = f32::INFINITY;
    let nan = (a, b, test_vector(0x5eed_0003, m * n), m, k, n);
    // 7 × 3 × 40 (6 + 1 rows; 4 + 3): row 1's coefficients are all zero
    // and its destination is -0.0, which the skip keeps; `-0.0 + 0 * b`
    // would be +0.0 wherever `b` is positive.
    let (m, k, n) = (7, 3, 40);
    let mut a = test_vector(0x5eed_0004, m * k);
    a[k..2 * k].fill(0.0);
    let b = test_vector(0x5eed_0005, k * n);
    let signed = (a, b, vec![-0.0; m * n], m, k, n);
    [nan, signed]
}

#[test]
fn planted_skipless_kernel_is_caught_by_the_battery() {
    for (a, b, init, m, k, n) in zero_skip_cases() {
        assert!(
            matmul_diverges(&Planted(Bug::NoZeroSkip), &a, &b, &init, m, k, n, same_bits),
            "the matmul_acc battery must catch a dropped zero skip at {m}x{k}x{n}"
        );
        for backend in Backend::available() {
            assert!(
                !matmul_diverges(&backend, &a, &b, &init, m, k, n, same_bits),
                "backend `{}` diverged from scalar at {m}x{k}x{n}",
                backend.name()
            );
        }
    }
}

#[test]
fn matmul_acc_zero_skip_keeps_signed_zeros_on_every_backend() {
    // 5 rows (one 4-row tile plus a remainder row) × 2 × 57 columns (a
    // 32-column tile on AVX-512, then 16-column tiles, the 8-wide step and
    // a scalar tail). Row 0 has only zero coefficients, so its `-0.0`
    // destination must survive the skip; row 1 multiplies a non-zero
    // coefficient by `+0.0`, so `-0.0 + 0.0` must round to `+0.0`.
    let (m, k, n) = (5, 2, 57);
    let a = [0.0, -0.0, 2.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.5, 0.0];
    let mut b = vec![0.0f32; k * n];
    for (j, v) in b.iter_mut().enumerate().skip(n) {
        *v = j as f32 - 20.0;
    }
    let init = vec![-0.0f32; m * n];
    for backend in Backend::available() {
        let mut out = init.clone();
        backend.matmul_acc(&a, &b, &mut out, m, k, n);
        assert!(
            out[..n].iter().all(|v| v.to_bits() == (-0.0f32).to_bits()),
            "backend `{}` rewrote a skipped -0.0",
            backend.name()
        );
        assert!(
            out[n..2 * n]
                .iter()
                .all(|v| v.to_bits() == 0.0f32.to_bits()),
            "backend `{}`: -0.0 + 2.0 * +0.0 must be +0.0",
            backend.name()
        );
        let mut want = init.clone();
        Backend::Scalar.matmul_acc(&a, &b, &mut want, m, k, n);
        assert_eq!(
            bits_of(&out),
            bits_of(&want),
            "backend `{}`",
            backend.name()
        );
    }
}
