#!/usr/bin/env bash
# The full local CI gate: tier-1 (release build + tests), formatting, lints.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples"
cargo build --release --examples

# The benchmark drives lead-core only through its public API from its own
# package; building it here makes a breaking API change fail CI, not the
# benchmark run.
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The SIMD determinism contract is only as good as its weakest backend: run
# the NN suite again pinned to the scalar reference, so a bug that only the
# scalar path has (or that AVX2 masks) cannot slip through on AVX2 machines.
# The tape-free inference parity suite rides along: detection must match the
# tape bit for bit on the reference backend too, and so must every
# incrementally streamed hypothesis match batch detection.
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-nn"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-nn
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test infer_parity"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test infer_parity
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test incremental_parity"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test incremental_parity

# Planted-divergence self-test: the parity battery must actually catch a
# kernel whose rounding differs (an FMA'd dot). If this test vanishes or
# stops detecting the fixture, the whole parity gate is decorative.
echo "==> simd parity self-test (planted FMA kernel must be caught)"
cargo test -q -p lead-nn --test proptest_simd planted_fma_kernel_is_caught_by_the_battery

# Lint fixtures are deliberately unformatted test inputs, so they are
# excluded (rustfmt's `ignore` config is nightly-only; exclusion happens in
# the file list instead).
echo "==> rustfmt --check (crates/lint/fixtures excluded)"
git ls-files '*.rs' ':!:crates/lint/fixtures/*' | xargs rustfmt --check --edition 2021

echo "==> cargo run -p lead-lint --release (baseline ratchet, JSON report)"
mkdir -p results
if ! cargo run -q -p lead-lint --release -- --format json --baseline lint.baseline > results/lint.json; then
    cat results/lint.json
    echo "lead-lint gate failed (see results/lint.json)"
    exit 1
fi

echo "==> lead-lint R10 self-test (planted unsafe-contract violations must fail)"
R10_TMP="target/tmp/r10-selftest"
rm -rf "$R10_TMP"
mkdir -p "$R10_TMP/crates/nn/src/simd" "$R10_TMP/crates/geo/src"
printf '[workspace]\nmembers = ["crates/*"]\n' > "$R10_TMP/Cargo.toml"
printf '[package]\nname = "lead-nn"\n\n[package.metadata.lead]\nclass = "result-lib"\n' \
    > "$R10_TMP/crates/nn/Cargo.toml"
printf '//! N.\n#![deny(unsafe_code)]\n#![deny(missing_docs)]\n' > "$R10_TMP/crates/nn/src/lib.rs"
# Planted violation 1: an un-SAFETY'd unsafe site inside the sanctioned module.
printf '//! K.\n\nfn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n' \
    > "$R10_TMP/crates/nn/src/simd/kernel.rs"
# Planted violation 2: a library crate whose root is missing forbid(unsafe_code).
printf '[package]\nname = "lead-geo"\n\n[package.metadata.lead]\nclass = "lib"\n' \
    > "$R10_TMP/crates/geo/Cargo.toml"
printf '//! G.\n#![deny(missing_docs)]\n' > "$R10_TMP/crates/geo/src/lib.rs"
if cargo run -q -p lead-lint --release -- --root "$R10_TMP" > "$R10_TMP/out.txt"; then
    echo "lead-lint R10 self-test failed: planted violations were NOT caught"
    exit 1
fi
if [ "$(grep -c 'unsafe-contract' "$R10_TMP/out.txt")" -lt 2 ]; then
    echo "lead-lint R10 self-test failed: expected both planted unsafe-contract diagnostics"
    cat "$R10_TMP/out.txt"
    exit 1
fi

# Interprocedural self-test 1: a `pub fn` of a result-affecting crate that
# reaches `unwrap()` only through a private helper is invisible to the
# file-local panic rule's public-surface argument; R12 must walk the call
# graph and report the full witness path.
echo "==> lead-lint R12 self-test (pub fn reaching a panic via a private helper must fail)"
R12_TMP="target/tmp/r12-selftest"
rm -rf "$R12_TMP"
mkdir -p "$R12_TMP/crates/eval/src"
printf '[workspace]\nmembers = ["crates/*"]\n' > "$R12_TMP/Cargo.toml"
printf '[package]\nname = "lead-eval"\n\n[package.metadata.lead]\nclass = "result-lib"\n' \
    > "$R12_TMP/crates/eval/Cargo.toml"
printf '//! E.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\n/// Entry.\npub fn entry(o: Option<u32>) -> u32 {\n    helper(o)\n}\n\nfn helper(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n' \
    > "$R12_TMP/crates/eval/src/lib.rs"
if cargo run -q -p lead-lint --release -- --root "$R12_TMP" > "$R12_TMP/out.txt"; then
    echo "lead-lint R12 self-test failed: planted panic path was NOT caught"
    exit 1
fi
if ! grep -q 'panic-path' "$R12_TMP/out.txt"; then
    echo "lead-lint R12 self-test failed: expected a panic-path diagnostic"
    cat "$R12_TMP/out.txt"
    exit 1
fi
if ! grep -q 'entry → helper' "$R12_TMP/out.txt"; then
    echo "lead-lint R12 self-test failed: expected the witness path 'entry → helper'"
    cat "$R12_TMP/out.txt"
    exit 1
fi

# Interprocedural self-test 2: a wall-clock read laundered through a helper
# crate (eval calls synth's now_ms) must be caught by R13 across the crate
# boundary, not just at the site.
echo "==> lead-lint R13 self-test (a clock laundered through a helper crate must fail)"
R13_TMP="target/tmp/r13-selftest"
rm -rf "$R13_TMP"
mkdir -p "$R13_TMP/crates/eval/src" "$R13_TMP/crates/synth/src"
printf '[workspace]\nmembers = ["crates/*"]\n' > "$R13_TMP/Cargo.toml"
printf '[package]\nname = "lead-eval"\n\n[package.metadata.lead]\nclass = "result-lib"\n\n[dependencies]\nlead-synth = { path = "../synth" }\n' \
    > "$R13_TMP/crates/eval/Cargo.toml"
printf '//! E.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\n/// Entry.\npub fn entry() -> u64 {\n    lead_synth::now_ms()\n}\n' \
    > "$R13_TMP/crates/eval/src/lib.rs"
printf '[package]\nname = "lead-synth"\n\n[package.metadata.lead]\nclass = "lib"\n' \
    > "$R13_TMP/crates/synth/Cargo.toml"
printf '//! S.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\n/// Now.\npub fn now_ms() -> u64 {\n    let t = std::time::Instant::now();\n    t.elapsed().as_millis() as u64\n}\n' \
    > "$R13_TMP/crates/synth/src/lib.rs"
if cargo run -q -p lead-lint --release -- --root "$R13_TMP" > "$R13_TMP/out.txt"; then
    echo "lead-lint R13 self-test failed: planted cross-crate taint was NOT caught"
    exit 1
fi
if ! grep -q 'determinism-taint' "$R13_TMP/out.txt"; then
    echo "lead-lint R13 self-test failed: expected a determinism-taint diagnostic"
    cat "$R13_TMP/out.txt"
    exit 1
fi
if ! grep -q 'entry → now_ms' "$R13_TMP/out.txt"; then
    echo "lead-lint R13 self-test failed: expected the witness path 'entry → now_ms'"
    cat "$R13_TMP/out.txt"
    exit 1
fi

# Binary-format gate: a CSV -> binary -> CSV round trip must be byte-exact
# (the sample uses grid-aligned coordinates, so fixed-point encoding is
# provably lossless), and a planted flipped byte inside the first record
# payload must make `verify` fail — otherwise the checksum layer is
# decorative.
echo "==> data-convert round-trip + planted-corruption self-test"
DC_TMP="target/tmp/data-convert-selftest"
rm -rf "$DC_TMP"
mkdir -p "$DC_TMP"
DC="target/release/data-convert"
"$DC" sample-csv "$DC_TMP/sample.csv"
"$DC" csv2bin "$DC_TMP/sample.csv" "$DC_TMP/sample.leadbin"
"$DC" verify "$DC_TMP/sample.leadbin"
"$DC" bin2csv "$DC_TMP/back.csv" "$DC_TMP/sample.leadbin"
if ! cmp -s "$DC_TMP/sample.csv" "$DC_TMP/back.csv"; then
    echo "data-convert self-test failed: csv -> bin -> csv round trip is not byte-exact"
    exit 1
fi
# Offset 40: past the 20-byte header and 12-byte frame preamble, inside the
# first record's payload.
"$DC" corrupt "$DC_TMP/sample.leadbin" 40
if "$DC" verify "$DC_TMP/sample.leadbin"; then
    echo "data-convert self-test failed: planted corruption was NOT detected"
    exit 1
fi

echo "==> bench-ratchet self-test (the gate must catch a planted regression)"
cargo run -q -p lead-bench --release --bin bench_ratchet -- --self-test

echo "==> bench-ratchet gate (results/BENCH_10.json vs bench.baseline)"
cargo run -q -p lead-bench --release --bin bench_ratchet -- \
    --write results/BENCH_10.json --baseline bench.baseline

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# Deterministic artifact listing: uploads of results/ must not depend on
# filesystem enumeration order or locale.
echo "==> results/ artifacts"
find results -type f | LC_ALL=C sort

echo "CI gate passed."
