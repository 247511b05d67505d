#!/usr/bin/env bash
# The full local CI gate: tier-1 (release build + tests), formatting, lints.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples"
cargo build --release --examples

# The library crates on their own, without the `reference` feature that
# their tests and lead-bench turn on: the autodiff tape is not compiled, so
# a `Graph` on a production path fails here.
echo "==> cargo build --release -p lead-core -p lead-baselines -p lead-eval"
cargo build --release -p lead-core -p lead-baselines -p lead-eval

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
# the kernel and NN suites again pinned to the scalar reference, so a bug
# that only the scalar path has (or that AVX2 masks) cannot slip through on
# AVX2 machines.
# The tape-free inference and training parity suites ride along: detection
# and the packed detector, autoencoder, MLP, GRU and SP-RNN gradients must
# match the tape bit for bit on the reference backend too (lead-baselines
# also pins its SP-RNN digest there), every incrementally streamed
# hypothesis must match batch detection, and training must not depend on
# the thread count.
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-simd -p lead-nn -p lead-baselines"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-simd -p lead-nn -p lead-baselines
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test infer_parity"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test infer_parity
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test train_parity"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test train_parity
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test ae_parity"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test ae_parity
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test incremental_parity"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test incremental_parity
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test parallel_parity"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test parallel_parity
# The inference and streaming suites run on the active backend, which is
# AVX-512 where the CPU has it: pin the 256-bit path too, so it stays
# covered end to end on an AVX-512 host.
echo "==> LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-core --test infer_parity"
LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-core --test infer_parity
echo "==> LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-core --test incremental_parity"
LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-core --test incremental_parity
# The GRU's packed passes and the SP-RNN and MLP training against the tape
# (and the SP-RNN digest) on the 256-bit path.
echo "==> LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-nn --lib gru"
LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-nn --lib gru
echo "==> LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-baselines --lib sp_rnn"
LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-baselines --lib sp_rnn
echo "==> LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-core --lib mlp"
LEAD_SIMD_FORCE=avx2 cargo test -q -p lead-core --lib mlp

# Planted-divergence self-test: the parity battery must actually catch a
# kernel whose rounding differs (an FMA'd dot, axpy, aᵀ·b product and exp
# polynomial). If
# this test vanishes or stops detecting the fixture, the whole parity gate
# is decorative.
echo "==> simd parity self-test (planted FMA kernel must be caught)"
cargo test -q -p lead-simd --test proptest_simd planted_fma_kernel_is_caught_by_the_battery
# The same for the exact-zero skip: a matmul_acc that adds 0·b instead of
# skipping it (the bug a block wrongly taking its branch-free k loop has)
# must fail the matmul_acc battery.
echo "==> simd parity self-test (planted skip-less matmul_acc must be caught)"
cargo test -q -p lead-simd --test proptest_simd planted_skipless_kernel_is_caught_by_the_battery
# The same for the LSTM cell: an lstm_cell that fuses f*c into the add with
# one FMA must fail the lstm_cell battery's bit comparison.
echo "==> simd parity self-test (planted FMA'd lstm_cell must be caught)"
cargo test -q -p lead-simd --test proptest_simd planted_fused_cell_is_caught_by_the_battery

# The libm-free exp, sigmoid and tanh over all 2^32 f32 inputs: within 2 ulp
# of an f64 reference, and every backend bit-identical to scalar. Ignored in
# plain `cargo test` because it takes minutes even in release mode.
echo "==> transcendental kernels over every f32 input (release)"
cargo test --release -q -p lead-simd --test transcendental_ulp -- --ignored --exact \
    every_f32_input_is_within_2_ulp_and_identical_across_backends

echo "==> rustfmt --check"
git ls-files '*.rs' | xargs rustfmt --check --edition 2021

# The planted-crate tests of the rustc/clippy configuration (every per-site
# rule fails under it as shipped) run with the lint crate's tests in
# `cargo test --workspace` above. The report goes under target/: CI must not
# rewrite a committed file.
echo "==> cargo run -p lead-lint --release (target/lint.json)"
if ! cargo run -q -p lead-lint --release -- --format json > target/lint.json; then
    cat target/lint.json
    echo "lead-lint gate failed (see target/lint.json)"
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

# Experiment smoke test: `repro all tiny` trains every method once and
# writes every artefact. It runs in a scratch directory under target/, so
# results/ is not rewritten, and each deterministic artefact must match its
# committed tiny-scale golden byte for byte. fig8 and sweep_layers hold
# wall-clock times and are not compared.
echo "==> repro all tiny (deterministic artefacts vs results/*_tiny.*)"
# `cargo build --release` above builds the root package only; `repro`
# lives in lead-bench, and builds without the tape.
cargo build -q --release -p lead-bench --bin repro
REPRO_TMP="target/tmp/repro-smoke"
rm -rf "$REPRO_TMP"
mkdir -p "$REPRO_TMP"
(cd "$REPRO_TMP" && ../../release/repro all tiny > repro.log)
for f in table3_tiny.txt table3_tiny.csv table4_tiny.txt table4_tiny.csv iou_tiny.txt \
    fig9_tiny.csv fig10_tiny.csv scenarios_tiny.txt scenarios_tiny.csv; do
    if ! cmp "results/$f" "$REPRO_TMP/results/$f"; then
        echo "repro smoke test failed: $f differs from the committed golden"
        exit 1
    fi
done

# bench_ratchet times the packed detector against the autodiff tape, so it
# needs lead-bench's `reference` feature (`required-features`): without it
# `cargo test --workspace` skips the binary, and its test of the GATES
# table runs here.
echo "==> cargo test -q -p lead-bench --features reference --bin bench_ratchet"
cargo test -q -p lead-bench --features reference --bin bench_ratchet

# Planted reverts, each of which the ratio rows' bounds must reject:
# GroupDetector::probabilities replaced by the tape's forward_graph,
# Backend::Avx512 running the AVX2 tiles in matmul_acc, matmul_at_b_acc and
# matmul_a_bt_acc, Backend::Avx512 running AVX2's 8-lane transcendentals in
# the sigmoid gate and lstm_cell, and a 1.5x delay in the optimised arm of
# the encoding row (encode_all over per-candidate encode_value), the one row
# whose bound is sized to reject a 1.5x slowdown.
echo "==> bench-ratchet self-test (the gate must reject each planted revert)"
cargo run -q -p lead-bench --release --features reference --bin bench_ratchet -- --self-test

# The record goes under target/: CI must not rewrite a committed file.
# results/BENCH_10.json stays as the history of the run it recorded.
echo "==> bench-ratchet gate (target/bench-ratchet/BENCH.json vs bench.baseline)"
mkdir -p target/bench-ratchet
cargo run -q -p lead-bench --release --features reference --bin bench_ratchet -- \
    --write target/bench-ratchet/BENCH.json --baseline bench.baseline

# With lead-bench's `reference` feature, so bench_ratchet is linted too.
echo "==> cargo clippy --workspace --all-targets --features lead-bench/reference -- -D warnings"
cargo clippy --workspace --all-targets --features lead-bench/reference -- -D warnings

# Rustdoc warnings fail the gate: a doc link to a deleted or private item,
# or an ambiguous one, would otherwise dangle unnoticed.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --features lead-bench/reference"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --features lead-bench/reference

# Deterministic artifact listing: uploads of results/ must not depend on
# filesystem enumeration order or locale.
echo "==> results/ artifacts"
find results -type f | LC_ALL=C sort

echo "CI gate passed."
