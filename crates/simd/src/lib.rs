//! Runtime-dispatched SIMD kernels with a bit-identity contract.
//!
//! This is the workspace's only crate with `unsafe` code: its manifest alone
//! allows `unsafe_code`, which every other library crate forbids, and every
//! `unsafe` block carries the `// SAFETY:` justification that clippy's
//! `undocumented_unsafe_blocks` requires. `lead_nn` re-exports it as
//! `lead_nn::simd`.
//!
//! # Determinism contract
//!
//! Every backend must return **bit-identical** results to
//! [`Backend::Scalar`], the safe reference implementation, on every input —
//! not merely close. For
//! reduction kernels the reference fixes the floating-point evaluation
//! order that vector units natively produce: [`LANES`]-wide blocked
//! accumulation over full chunks, a fixed-order sequential reduction of the
//! lane accumulators, then a sequential tail. For elementwise kernels the
//! reference fixes the per-element instruction sequence: separate multiply
//! and add (never FMA, which would change rounding) and exactly-rounded
//! `div`/`sqrt`. The transcendentals ([`exp`], [`sigmoid`], [`tanh`]) call
//! no libm: the reference builds them from those same operations plus bit
//! manipulation, so their bits are the same on every IEEE-754 platform, not
//! only across this machine's backends, and vector backends evaluate them
//! lane for lane. `tests/simd_parity.rs` and `tests/proptest_simd.rs` pin
//! the contract with `f32::to_bits` comparisons across backends and pinned
//! fingerprints; `tests/transcendental_ulp.rs` bounds the transcendentals'
//! error over every `f32` input.
//!
//! # Length contract
//!
//! Mismatched slice lengths are a caller bug: every kernel
//! `debug_assert!`s that its operands agree. In release builds (where
//! `debug_assert!` compiles out) the kernels degrade deterministically by
//! operating over the *common prefix* — the shortest operand's length —
//! never reading or writing past it; a `dot` of empty slices is `0.0`.
//!
//! # Dispatch
//!
//! Three backends, widest first: [`Backend::Avx512`], [`Backend::Avx2`],
//! [`Backend::Scalar`]. The AVX-512 backend is the AVX2 backend with
//! 512-bit registers in the three matrix products and the transcendental
//! kernels: `matmul_acc` and `matmul_at_b_acc` run one register-tile engine
//! at either width, 512-bit tiles first, and `matmul_a_bt_acc` holds two
//! dots per register; [`exp`], [`sigmoid`] and [`tanh`] are each written
//! once over the register width, and their kernels, the two gates and
//! [`Kernel::lstm_cell`] run them 16 lanes at a time, then 8, then scalar.
//! [`Backend::select`] probes the CPU once at runtime and picks the widest
//! backend available; hot paths call [`active`], which layers two override
//! mechanisms over `select` (a programmatic [`force_backend`] and the
//! `LEAD_SIMD_FORCE` environment variable) so parity tests and CI can pin a
//! backend. All dispatch is safe: the unsafe `target_feature` entry points
//! are private to their backend modules, and the only way to obtain
//! [`Backend::Avx2`] or [`Backend::Avx512`] is through feature detection,
//! which alone makes the `Detected` token each carries.

#![deny(unsafe_op_in_unsafe_fn)]

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(target_arch = "x86_64")]
mod avx512;

#[cfg(target_arch = "x86_64")]
mod lanes;

#[cfg(target_arch = "x86_64")]
mod tiles;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The blocked accumulation width shared by every backend (f32 lanes in a
/// 256-bit vector). Part of the bit-identity contract: changing it changes
/// the summation order, hence the results.
pub const LANES: usize = 8;

/// Coefficients for one [`Kernel::adam_update`] call: the optimiser
/// precomputes the step-dependent bias corrections once per step and the
/// kernel applies the same per-element update to every parameter buffer.
#[derive(Debug, Clone, Copy)]
pub struct AdamCoeffs {
    /// First-moment decay rate (`β₁`).
    pub beta1: f32,
    /// Second-moment decay rate (`β₂`).
    pub beta2: f32,
    /// First-moment bias correction for the current step, `1 − β₁ᵗ`.
    pub bc1: f32,
    /// Second-moment bias correction for the current step, `1 − β₂ᵗ`.
    pub bc2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator stabiliser (`ε`).
    pub eps: f32,
    /// Decoupled (AdamW) weight decay; `0.0` disables it.
    pub weight_decay: f32,
}

/// `eˣ` for one value: the scalar reference every backend's
/// [`Kernel::exp`] reproduces lane for lane, within 2 ulp of the exact
/// value. For callers that need one element at a time (softmax, losses).
pub fn exp(x: f32) -> f32 {
    scalar::exp_one(x)
}

/// The logistic sigmoid `1 / (1 + e⁻ˣ)` for one value, bit-identical to
/// [`Kernel::sigmoid`].
pub fn sigmoid(x: f32) -> f32 {
    scalar::sigmoid_one(x)
}

/// `tanh(x)` for one value, bit-identical to [`Kernel::tanh`].
pub fn tanh(x: f32) -> f32 {
    scalar::tanh_one(x)
}

/// The kernel surface the network spends its time in.
///
/// Implementations promise bit-identical output to the scalar reference on
/// every input (see the module docs for the fixed evaluation orders), and
/// share the release-mode common-prefix length contract. All output slices
/// are fully overwritten over the common prefix; accumulating kernels
/// ([`Kernel::axpy`], the three `matmul_*_acc` kernels,
/// [`Kernel::adam_update`]) read and update their destinations instead.
pub trait Kernel {
    /// A stable, human-readable backend name for logs and fingerprints.
    fn name(&self) -> &'static str;

    /// The dot product of `a` and `b` in the blocked evaluation order
    /// (empty input yields `0.0`).
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// `y[i] += a * x[i]` — the accumulation primitive shared by matrix
    /// products, gradient accumulation, and SGD.
    fn axpy(&self, a: f32, x: &[f32], y: &mut [f32]);

    /// Elementwise sum `out[i] = a[i] + b[i]`.
    fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]);

    /// Elementwise difference `out[i] = a[i] - b[i]`.
    fn sub(&self, a: &[f32], b: &[f32], out: &mut [f32]);

    /// Elementwise (Hadamard) product `out[i] = a[i] * b[i]`.
    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]);

    /// In-place scaling `x[i] *= s`.
    fn scale(&self, x: &mut [f32], s: f32);

    /// Elementwise exponential `out[i] = e^{a[i]}`, as the free function
    /// [`exp`] defines it.
    fn exp(&self, a: &[f32], out: &mut [f32]);

    /// Elementwise logistic sigmoid `out[i] = 1/(1+e^{-a[i]})`, as the free
    /// function [`sigmoid`] defines it.
    fn sigmoid(&self, a: &[f32], out: &mut [f32]);

    /// Elementwise hyperbolic tangent, as the free function [`tanh`]
    /// defines it.
    fn tanh(&self, a: &[f32], out: &mut [f32]);

    /// Fused affine-then-activation over a row:
    /// `out[i] = sigmoid(pre[i] + bias[i])`, the add exactly rounded.
    fn sigmoid_gate(&self, pre: &[f32], bias: &[f32], out: &mut [f32]);

    /// Fused affine-then-activation over a row:
    /// `out[i] = tanh(pre[i] + bias[i])`.
    fn tanh_gate(&self, pre: &[f32], bias: &[f32], out: &mut [f32]);

    /// One LSTM cell step for one row, updating `c` and `h` in place. The
    /// gate rows `gx`, `gh` and `bias` are laid out `[i | f | g | o]`, each
    /// `c.len()` wide. Every hidden unit `j` takes
    /// `i, f, o = sigmoid((gx + gh) + bias)` and
    /// `g = tanh((gx + gh) + bias)`, then `c = f·c + i·g` (both products
    /// rounded before the add) and `h = o·tanh(c)`: the per-element
    /// sequence of [`Kernel::add`], the two gates, [`Kernel::mul`],
    /// [`Kernel::add`] and [`Kernel::tanh`].
    fn lstm_cell(&self, gx: &[f32], gh: &[f32], bias: &[f32], c: &mut [f32], h: &mut [f32]);

    /// Sigmoid backward `out[i] = g[i] * y[i] * (1 - y[i])` (where `y` is
    /// the forward output), left-associated.
    fn sigmoid_bwd(&self, g: &[f32], y: &[f32], out: &mut [f32]);

    /// Tanh backward `out[i] = g[i] * (1 - y[i] * y[i])`.
    fn tanh_bwd(&self, g: &[f32], y: &[f32], out: &mut [f32]);

    /// Blocked matrix-multiply accumulate `out[m×n] += a[m×k] × b[k×n]`
    /// (row-major), in the i-k-j loop order with an [`Kernel::axpy`] inner
    /// loop and an exact-zero sparsity skip on `a`'s entries.
    fn matmul_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Transpose-free `out[k×n] += aᵀ × b` for row-major `a[m×k]` and
    /// `b[m×n]`, the weight-gradient shape of a product's backward pass:
    /// for each row `r` of `a` in ascending order and each of its entries
    /// `a[r][p]` that is not an exact zero, an [`Kernel::axpy`] of `b`'s row
    /// `r` into `out`'s row `p`.
    fn matmul_at_b_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Transpose-free `out[m×n] += a × bᵀ` for row-major `a[m×k]` and
    /// `b[n×k]`, the input-gradient shape of a product's backward pass:
    /// every `out[i][j]` becomes `out[i][j] + dot(a_i, b_j)`, the dot in
    /// [`Kernel::dot`]'s blocked order.
    fn matmul_a_bt_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// One Adam/AdamW update over parameter buffer `p` with gradient `g`
    /// and moment buffers `m`/`v`, all updated in place.
    fn adam_update(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], c: &AdamCoeffs);
}

mod token {
    /// Proof that the running CPU passed the feature detection of a SIMD
    /// backend `BITS` wide. Its module is private, so code outside this
    /// crate cannot name the type, and its field is private to this crate:
    /// [`Backend::try_avx2`](crate::Backend::try_avx2) makes `Detected<256>`
    /// and [`Backend::try_avx512`](crate::Backend::try_avx512)
    /// `Detected<512>`. The width keeps a token that AVX2 detection made
    /// from building an AVX-512 backend.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Detected<const BITS: u16>(pub(crate) ());
}
use token::Detected;

/// An available kernel backend, selected at runtime.
///
/// The SIMD variants carry a `Detected` token, so safe code can only get
/// one from feature detection, which every dispatch `// SAFETY:` argument
/// relies on. Code outside this crate can neither name them as values nor
/// name or build their tokens, nor move an AVX2 token into an AVX-512
/// backend:
///
/// ```compile_fail,E0308
/// let forged = lead_simd::Backend::Avx512;
/// # let _: lead_simd::Backend = forged;
/// ```
///
/// ```compile_fail,E0432
/// use lead_simd::{Backend, Detected};
/// let forged = Backend::Avx512(Detected(()));
/// ```
///
/// ```compile_fail,E0308
/// use lead_simd::Backend;
/// if let Some(Backend::Avx2(token)) = Backend::try_avx2() {
///     let forged = Backend::Avx512(token);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The safe scalar reference implementation (always available).
    Scalar,
    /// 256-bit AVX2 (x86-64 only; made only by [`Backend::try_avx2`]).
    #[cfg(target_arch = "x86_64")]
    Avx2(Detected<256>),
    /// AVX2 plus 512-bit registers in the three matrix products, the
    /// transcendentals, the gates and the LSTM cell (x86-64 only; made only
    /// by [`Backend::try_avx512`], after detection of both AVX2 and
    /// AVX-512F).
    #[cfg(target_arch = "x86_64")]
    Avx512(Detected<512>),
}

impl Backend {
    /// Picks the widest backend the running CPU supports: the last entry of
    /// [`Backend::available`]. Deterministic for a given machine; the result
    /// is bit-identical across backends either way, so selection never
    /// changes observable output.
    pub fn select() -> Backend {
        Backend::try_avx512()
            .or_else(Backend::try_avx2)
            .unwrap_or(Backend::Scalar)
    }

    /// The AVX2 backend, when the running CPU supports it. `None` on other
    /// architectures or older x86-64 parts; this constructor is the only
    /// source of [`Backend::Avx2`], which is what makes dispatch safe.
    pub fn try_avx2() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Backend::Avx2(Detected(())));
        }
        None
    }

    /// The AVX-512 backend, when the running CPU supports both AVX2 (which
    /// its elementwise kernels, `dot` and `adam_update` run on) and
    /// AVX-512F. This constructor is the only source of [`Backend::Avx512`].
    pub fn try_avx512() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("avx512f")
        {
            return Some(Backend::Avx512(Detected(())));
        }
        None
    }

    /// Every backend available on the running CPU, narrowest first: scalar,
    /// then AVX2, then AVX-512. Parity tests iterate this to compare all
    /// implementations pairwise.
    pub fn available() -> Vec<Backend> {
        let mut out = vec![Backend::Scalar];
        out.extend(Backend::try_avx2());
        out.extend(Backend::try_avx512());
        out
    }
}

/// Programmatic backend override: `0` = none, `1` = scalar, `2` = AVX2,
/// `3` = AVX-512.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The resolved default backend (`LEAD_SIMD_FORCE` or [`Backend::select`]),
/// computed once: the environment is read a single time per process.
static DEFAULT: OnceLock<Backend> = OnceLock::new();

#[expect(
    clippy::disallowed_methods,
    reason = "`LEAD_SIMD_FORCE` picks between backends whose results are bit-identical"
)]
fn default_backend() -> Backend {
    match std::env::var("LEAD_SIMD_FORCE").as_deref() {
        Ok("scalar") => Backend::Scalar,
        Ok("avx2") => match Backend::try_avx2() {
            Some(b) => b,
            // Requested but unsupported: fall back to the safe reference
            // rather than panicking — results are bit-identical anyway.
            None => Backend::Scalar,
        },
        // Unset or unrecognised: normal runtime selection.
        _ => Backend::select(),
    }
}

/// The backend every dispatched hot path uses, resolved in precedence
/// order: [`force_backend`] override, then the `LEAD_SIMD_FORCE`
/// environment variable (`"scalar"` or `"avx2"`, read once per process;
/// `"avx2"` pins the 256-bit path on an AVX-512 machine too), then
/// [`Backend::select`]. Because all backends are bit-identical, the
/// choice never changes results — only throughput — which is exactly what
/// the cross-backend parity tests verify end to end.
pub fn active() -> Backend {
    match FORCED.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        #[cfg(target_arch = "x86_64")]
        // Re-derive through feature detection rather than constructing the
        // variant directly, keeping `try_avx2` the only `Avx2` source.
        2 => Backend::try_avx2().unwrap_or(Backend::Scalar),
        #[cfg(target_arch = "x86_64")]
        3 => Backend::try_avx512().unwrap_or(Backend::Scalar),
        _ => *DEFAULT.get_or_init(default_backend),
    }
}

/// Forces every subsequent [`active`] call (on every thread) to the given
/// backend, or restores normal selection with `None`. A test/diagnostic
/// hook: cross-backend parity tests run the same fit forced onto each
/// backend of [`Backend::available`] and require byte-identical artifacts.
/// Takes effect immediately; it is process-global, so tests that force
/// different backends at the same time must serialise their forced
/// sections, or one may run under another's backend.
pub fn force_backend(b: Option<Backend>) {
    let code = match b {
        None => 0,
        Some(Backend::Scalar) => 1,
        #[cfg(target_arch = "x86_64")]
        Some(Backend::Avx2(_)) => 2,
        #[cfg(target_arch = "x86_64")]
        Some(Backend::Avx512(_)) => 3,
    };
    FORCED.store(code, Ordering::Relaxed);
}

impl Kernel for Backend {
    fn name(&self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => "avx2",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => "avx512",
        }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
        match self {
            Backend::Scalar => scalar::dot(a, b),
            // SAFETY: both AVX variants exist only after `try_avx2`'s or
            // `try_avx512`'s detection of AVX2 — `avx2::dot`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) | Backend::Avx512(_) => unsafe { avx2::dot(a, b) },
        }
    }

    fn axpy(&self, a: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len(), "axpy length mismatch");
        match self {
            Backend::Scalar => scalar::axpy(a, x, y),
            // SAFETY: both AVX variants exist only after `try_avx2`'s or
            // `try_avx512`'s detection of AVX2 — `avx2::axpy`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) | Backend::Avx512(_) => unsafe { avx2::axpy(a, x, y) },
        }
    }

    fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert!(
            a.len() == b.len() && b.len() == out.len(),
            "add length mismatch"
        );
        match self {
            Backend::Scalar => scalar::add(a, b, out),
            // SAFETY: both AVX variants exist only after `try_avx2`'s or
            // `try_avx512`'s detection of AVX2 — `avx2::add`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) | Backend::Avx512(_) => unsafe { avx2::add(a, b, out) },
        }
    }

    fn sub(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert!(
            a.len() == b.len() && b.len() == out.len(),
            "sub length mismatch"
        );
        match self {
            Backend::Scalar => scalar::sub(a, b, out),
            // SAFETY: both AVX variants exist only after `try_avx2`'s or
            // `try_avx512`'s detection of AVX2 — `avx2::sub`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) | Backend::Avx512(_) => unsafe { avx2::sub(a, b, out) },
        }
    }

    fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert!(
            a.len() == b.len() && b.len() == out.len(),
            "mul length mismatch"
        );
        match self {
            Backend::Scalar => scalar::mul(a, b, out),
            // SAFETY: both AVX variants exist only after `try_avx2`'s or
            // `try_avx512`'s detection of AVX2 — `avx2::mul`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) | Backend::Avx512(_) => unsafe { avx2::mul(a, b, out) },
        }
    }

    fn scale(&self, x: &mut [f32], s: f32) {
        match self {
            Backend::Scalar => scalar::scale(x, s),
            // SAFETY: both AVX variants exist only after `try_avx2`'s or
            // `try_avx512`'s detection of AVX2 — `avx2::scale`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) | Backend::Avx512(_) => unsafe { avx2::scale(x, s) },
        }
    }

    fn exp(&self, a: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), out.len(), "exp length mismatch");
        match self {
            Backend::Scalar => scalar::exp(a, out),
            // SAFETY: `Backend::Avx2` exists only after `try_avx2`'s
            // feature detection — `avx2::map`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => unsafe { avx2::map::<lanes::Exp>(a, out) },
            // SAFETY: `Backend::Avx512` exists only after `try_avx512`'s
            // detection of AVX2 and AVX-512F — `avx512::map`'s sole
            // precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => unsafe { avx512::map::<lanes::Exp>(a, out) },
        }
    }

    fn sigmoid(&self, a: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), out.len(), "sigmoid length mismatch");
        match self {
            Backend::Scalar => scalar::sigmoid(a, out),
            // SAFETY: `Backend::Avx2` exists only after `try_avx2`'s
            // feature detection — `avx2::map`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => unsafe { avx2::map::<lanes::Sigmoid>(a, out) },
            // SAFETY: `Backend::Avx512` exists only after `try_avx512`'s
            // detection of AVX2 and AVX-512F — `avx512::map`'s sole
            // precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => unsafe { avx512::map::<lanes::Sigmoid>(a, out) },
        }
    }

    fn tanh(&self, a: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), out.len(), "tanh length mismatch");
        match self {
            Backend::Scalar => scalar::tanh(a, out),
            // SAFETY: `Backend::Avx2` exists only after `try_avx2`'s
            // feature detection — `avx2::map`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => unsafe { avx2::map::<lanes::Tanh>(a, out) },
            // SAFETY: `Backend::Avx512` exists only after `try_avx512`'s
            // detection of AVX2 and AVX-512F — `avx512::map`'s sole
            // precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => unsafe { avx512::map::<lanes::Tanh>(a, out) },
        }
    }

    fn sigmoid_gate(&self, pre: &[f32], bias: &[f32], out: &mut [f32]) {
        debug_assert!(
            pre.len() == bias.len() && bias.len() == out.len(),
            "sigmoid_gate length mismatch"
        );
        match self {
            Backend::Scalar => scalar::sigmoid_gate(pre, bias, out),
            // SAFETY: `Backend::Avx2` exists only after `try_avx2`'s
            // feature detection — `avx2::gate`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => unsafe { avx2::gate::<lanes::Sigmoid>(pre, bias, out) },
            // SAFETY: `Backend::Avx512` exists only after `try_avx512`'s
            // detection of AVX2 and AVX-512F — `avx512::gate`'s sole
            // precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => unsafe { avx512::gate::<lanes::Sigmoid>(pre, bias, out) },
        }
    }

    fn tanh_gate(&self, pre: &[f32], bias: &[f32], out: &mut [f32]) {
        debug_assert!(
            pre.len() == bias.len() && bias.len() == out.len(),
            "tanh_gate length mismatch"
        );
        match self {
            Backend::Scalar => scalar::tanh_gate(pre, bias, out),
            // SAFETY: `Backend::Avx2` exists only after `try_avx2`'s
            // feature detection — `avx2::gate`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => unsafe { avx2::gate::<lanes::Tanh>(pre, bias, out) },
            // SAFETY: `Backend::Avx512` exists only after `try_avx512`'s
            // detection of AVX2 and AVX-512F — `avx512::gate`'s sole
            // precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => unsafe { avx512::gate::<lanes::Tanh>(pre, bias, out) },
        }
    }

    fn lstm_cell(&self, gx: &[f32], gh: &[f32], bias: &[f32], c: &mut [f32], h: &mut [f32]) {
        debug_assert!(
            h.len() == c.len()
                && gx.len() == 4 * c.len()
                && gh.len() == gx.len()
                && bias.len() == gx.len(),
            "lstm_cell length mismatch"
        );
        match self {
            Backend::Scalar => scalar::lstm_cell(gx, gh, bias, c, h),
            // SAFETY: `Backend::Avx2` exists only after `try_avx2`'s
            // feature detection — `avx2::lstm_cell`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => unsafe { avx2::lstm_cell(gx, gh, bias, c, h) },
            // SAFETY: `Backend::Avx512` exists only after `try_avx512`'s
            // detection of AVX2 and AVX-512F — `avx512::lstm_cell`'s sole
            // precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => unsafe { avx512::lstm_cell(gx, gh, bias, c, h) },
        }
    }

    fn sigmoid_bwd(&self, g: &[f32], y: &[f32], out: &mut [f32]) {
        debug_assert!(
            g.len() == y.len() && y.len() == out.len(),
            "sigmoid_bwd length mismatch"
        );
        match self {
            Backend::Scalar => scalar::sigmoid_bwd(g, y, out),
            // SAFETY: both AVX variants exist only after `try_avx2`'s or
            // `try_avx512`'s detection of AVX2 — `avx2::sigmoid_bwd`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) | Backend::Avx512(_) => unsafe { avx2::sigmoid_bwd(g, y, out) },
        }
    }

    fn tanh_bwd(&self, g: &[f32], y: &[f32], out: &mut [f32]) {
        debug_assert!(
            g.len() == y.len() && y.len() == out.len(),
            "tanh_bwd length mismatch"
        );
        match self {
            Backend::Scalar => scalar::tanh_bwd(g, y, out),
            // SAFETY: both AVX variants exist only after `try_avx2`'s or
            // `try_avx512`'s detection of AVX2 — `avx2::tanh_bwd`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) | Backend::Avx512(_) => unsafe { avx2::tanh_bwd(g, y, out) },
        }
    }

    fn matmul_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert!(
            a.len() == m * k && b.len() == k * n && out.len() == m * n,
            "matmul_acc dimension mismatch"
        );
        match self {
            Backend::Scalar => scalar::matmul_acc(a, b, out, m, k, n),
            // SAFETY: `Backend::Avx2` exists only after `try_avx2`'s
            // feature detection — `avx2::matmul_acc`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => unsafe { avx2::matmul_acc(a, b, out, m, k, n) },
            // SAFETY: `Backend::Avx512` exists only after `try_avx512`'s
            // detection of AVX2 and AVX-512F — `avx512::matmul_acc`'s sole
            // precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => unsafe { avx512::matmul_acc(a, b, out, m, k, n) },
        }
    }

    fn matmul_at_b_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert!(
            a.len() == m * k && b.len() == m * n && out.len() == k * n,
            "matmul_at_b_acc dimension mismatch"
        );
        match self {
            Backend::Scalar => scalar::matmul_at_b_acc(a, b, out, m, k, n),
            // SAFETY: `Backend::Avx2` exists only after `try_avx2`'s
            // feature detection — `avx2::matmul_at_b_acc`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => unsafe { avx2::matmul_at_b_acc(a, b, out, m, k, n) },
            // SAFETY: `Backend::Avx512` exists only after `try_avx512`'s
            // detection of AVX2 and AVX-512F — `avx512::matmul_at_b_acc`'s
            // sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => unsafe { avx512::matmul_at_b_acc(a, b, out, m, k, n) },
        }
    }

    fn matmul_a_bt_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert!(
            a.len() == m * k && b.len() == n * k && out.len() == m * n,
            "matmul_a_bt_acc dimension mismatch"
        );
        match self {
            Backend::Scalar => scalar::matmul_a_bt_acc(a, b, out, m, k, n),
            // SAFETY: `Backend::Avx2` exists only after `try_avx2`'s
            // feature detection — `avx2::matmul_a_bt_acc`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => unsafe { avx2::matmul_a_bt_acc(a, b, out, m, k, n) },
            // SAFETY: `Backend::Avx512` exists only after `try_avx512`'s
            // detection of AVX2 and AVX-512F — `avx512::matmul_a_bt_acc`'s
            // sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => unsafe { avx512::matmul_a_bt_acc(a, b, out, m, k, n) },
        }
    }

    fn adam_update(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], c: &AdamCoeffs) {
        debug_assert!(
            p.len() == g.len() && g.len() == m.len() && m.len() == v.len(),
            "adam_update length mismatch"
        );
        match self {
            Backend::Scalar => scalar::adam_update(p, g, m, v, c),
            // SAFETY: both AVX variants exist only after `try_avx2`'s or
            // `try_avx512`'s detection of AVX2 — `avx2::adam_update`'s sole precondition.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) | Backend::Avx512(_) => unsafe { avx2::adam_update(p, g, m, v, c) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_dot_matches_naive_on_exact_inputs() {
        // Powers of two: every evaluation order is exact, so the blocked
        // reference must equal the naive sum bit-for-bit.
        let a: Vec<f32> = (0..19).map(|i| (i % 8) as f32 * 0.5).collect();
        let b: Vec<f32> = (0..19).map(|i| (i % 4) as f32 * 0.25).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(Backend::Scalar.dot(&a, &b).to_bits(), naive.to_bits());
    }

    #[test]
    fn dot_of_empty_slices_is_zero() {
        assert_eq!(Backend::Scalar.dot(&[], &[]).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dot length mismatch")]
    fn mismatched_dot_lengths_are_a_debug_panic() {
        // Regression test for the silent common-prefix truncation `dot`
        // used to perform: mismatched operands are a caller bug, caught in
        // debug builds. Release builds keep the deterministic common-prefix
        // behaviour documented on the module (not reachable from this
        // workspace's callers, which all pass equal lengths).
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0];
        let _ = Backend::Scalar.dot(&a, &b);
    }

    #[test]
    fn select_returns_an_available_backend() {
        let selected = Backend::select();
        assert!(Backend::available().contains(&selected));
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
    }

    #[test]
    fn force_backend_overrides_active_selection() {
        force_backend(Some(Backend::Scalar));
        assert_eq!(active(), Backend::Scalar);
        force_backend(None);
        assert!(Backend::available().contains(&active()));
    }

    #[test]
    fn elementwise_kernels_match_plain_loops_on_scalar() {
        let a = [1.5f32, -2.0, 0.25, 3.0, -0.5, 8.0, 1.0, -1.0, 0.125];
        let b = [0.5f32, 4.0, -2.0, 1.0, 0.75, -0.25, 2.0, 3.0, -8.0];
        let k = Backend::Scalar;
        let mut out = [0.0f32; 9];
        k.add(&a, &b, &mut out);
        assert_eq!(out, [2.0, 2.0, -1.75, 4.0, 0.25, 7.75, 3.0, 2.0, -7.875]);
        k.sub(&a, &b, &mut out);
        assert_eq!(out, [1.0, -6.0, 2.25, 2.0, -1.25, 8.25, -1.0, -4.0, 8.125]);
        k.mul(&a, &b, &mut out);
        assert_eq!(out, [0.75, -8.0, -0.5, 3.0, -0.375, -2.0, 2.0, -3.0, -1.0]);
        let mut y = b;
        k.axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.5, 0.0, -1.5, 7.0, -0.25, 15.75, 4.0, 1.0, -7.75]);
        let mut x = a;
        k.scale(&mut x, -2.0);
        assert_eq!(x, [-3.0, 4.0, -0.5, -6.0, 1.0, -16.0, -2.0, 2.0, -0.25]);
    }

    #[test]
    fn matmul_acc_matches_naive_product_on_exact_inputs() {
        // 2×3 × 3×2 with integer-valued entries: exact in f32 whatever the
        // evaluation order.
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0f32, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut out = [0.0f32; 4];
        Backend::Scalar.matmul_acc(&a, &b, &mut out, 2, 3, 2);
        assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
        // Accumulates rather than overwrites.
        Backend::Scalar.matmul_acc(&a, &b, &mut out, 2, 3, 2);
        assert_eq!(out, [116.0, 128.0, 278.0, 308.0]);
    }

    #[test]
    fn gates_match_composed_reference() {
        // The gate is the activation of the exactly rounded sum, and the
        // activation's bits are pinned: they follow from the libm-free
        // reference alone, not from the platform's libm.
        let pre = [0.5f32, -1.0, 2.0, 0.0, -0.25, 3.0, -4.0, 1e-3];
        let bias = [0.25f32, 1.0, -2.0, 0.0, 0.25, 1.5, -0.157_294, 0.0];
        let want_sigmoid: [u32; 8] = [
            0x3f2d_dea8,
            0x3f00_0000,
            0x3f00_0000,
            0x3f00_0000,
            0x3f00_0000,
            0x3f7d_2ff6,
            0x3c7c_74ce,
            0x3f00_1062,
        ];
        let want_tanh: [u32; 8] = [
            0x3f22_991f,
            0x0000_0000,
            0x0000_0000,
            0x0000_0000,
            0x0000_0000,
            0x3f7f_efd4,
            0xbf7f_dfe8,
            0x3a83_126c,
        ];
        for k in Backend::available() {
            let mut got = [0.0f32; 8];
            k.sigmoid_gate(&pre, &bias, &mut got);
            for ((&g, &p), &b) in got.iter().zip(&pre).zip(&bias) {
                assert_eq!(g.to_bits(), sigmoid(p + b).to_bits());
            }
            assert_eq!(got.map(f32::to_bits), want_sigmoid, "`{}`", k.name());
            k.tanh_gate(&pre, &bias, &mut got);
            for ((&g, &p), &b) in got.iter().zip(&pre).zip(&bias) {
                assert_eq!(g.to_bits(), tanh(p + b).to_bits());
            }
            assert_eq!(got.map(f32::to_bits), want_tanh, "`{}`", k.name());
        }
    }

    #[test]
    fn adam_update_matches_reference_formula() {
        let c = AdamCoeffs {
            beta1: 0.9,
            beta2: 0.999,
            bc1: 1.0 - 0.9f32.powi(1),
            bc2: 1.0 - 0.999f32.powi(1),
            lr: 0.01,
            eps: 1e-8,
            weight_decay: 0.0,
        };
        let mut p = [0.0f32];
        let g = [123.0f32];
        let (mut m, mut v) = ([0.0f32], [0.0f32]);
        Backend::Scalar.adam_update(&mut p, &g, &mut m, &mut v, &c);
        // First bias-corrected step has magnitude ≈ lr regardless of
        // gradient scale.
        let first = p.first().copied().unwrap_or(f32::NAN);
        assert!((first.abs() - c.lr).abs() < 1e-4, "step {first}");
    }
}
