//! LSTM continuation: a packed run stopped after any step and resumed from
//! its `LstmState` is `to_bits`-equal to the run in one piece.
//!
//! Incremental streaming extends per-start LSTM runs one stay point at a
//! time from their stored `(h, c)`. That is exact only because the first
//! step of a fresh run already computes `H·Wh` from a zeroed `h`, so a
//! resumed step takes the same code path as an uninterrupted one. This
//! suite splits a ragged packed batch at every step, including the splits
//! that leave the first or the second chunk empty, on every available
//! backend, and checks outputs and final states bit for bit.

use lead_nn::infer::{LstmState, Packing, Scratch};
use lead_nn::layers::Lstm;
use lead_nn::simd::{force_backend, Backend};
use lead_nn::ParamSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Restores runtime backend selection even if the test panics.
struct BackendGuard;

impl Drop for BackendGuard {
    fn drop(&mut self) {
        force_backend(None);
    }
}

fn rows(seed: usize, n: usize, d: usize) -> Vec<f32> {
    (0..n * d)
        .map(|i| (((seed * 7919 + i) as f32) * 0.37).sin() * 0.8)
        .collect()
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Runs steps `from..to` of every back-to-back sequence of `lens` (each
/// clipped to its length) in one packed call, continuing each sequence from
/// its row of `state` and appending its hidden rows to `outs[s]`.
/// Sequences with no step in the range are left out of the call.
fn run_steps(
    lstm: &Lstm,
    ps: &ParamSet,
    xs: &[f32],
    lens: &[usize],
    (from, to): (usize, usize),
    state: &mut LstmState,
    outs: &mut [Vec<f32>],
    scratch: &mut Scratch,
) {
    let h = lstm.hidden();
    let mut start = 0;
    let mut seqs = Vec::new();
    let mut spans = Vec::new();
    for (s, &len) in lens.iter().enumerate() {
        let (a, b) = (from.min(len), to.min(len));
        if b > a {
            seqs.push(s);
            spans.push((start + a, b - a));
        }
        start += len;
    }
    if seqs.is_empty() {
        return;
    }
    let mut sub = LstmState::default();
    for &s in &seqs {
        sub.h.extend_from_slice(&state.h[s * h..(s + 1) * h]);
        sub.c.extend_from_slice(&state.c[s * h..(s + 1) * h]);
    }
    let pack = Packing::windows(&spans);
    let mut out = Vec::new();
    lstm.infer(ps, &pack, xs, false, &mut sub, &mut out, scratch);
    for (i, &s) in seqs.iter().enumerate() {
        let o = pack.output_start(i);
        outs[s].extend_from_slice(&out[o * h..(o + pack.seq_len(i)) * h]);
        state.h[s * h..(s + 1) * h].copy_from_slice(&sub.h[i * h..(i + 1) * h]);
        state.c[s * h..(s + 1) * h].copy_from_slice(&sub.c[i * h..(i + 1) * h]);
    }
}

#[test]
fn a_run_split_at_any_step_continues_bit_identically_on_every_backend() {
    let _guard = BackendGuard;
    let (d, h) = (6, 16);
    let mut ps = ParamSet::new();
    let lstm = Lstm::new(&mut ps, &mut StdRng::seed_from_u64(7), "l", d, h);
    let lens = [7, 3, 7, 1, 5, 2];
    let total: usize = lens.iter().sum();
    let max_len = 7;
    let xs = rows(7, total, d);
    let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
    for backend in Backend::available() {
        force_backend(Some(backend));
        // One run over the whole sequences.
        let mut whole = LstmState::zeros(lens.len(), h);
        let mut outs = vec![Vec::new(); lens.len()];
        let mut scratch = Scratch::new();
        run_steps(
            &lstm,
            &ps,
            &xs,
            &lens,
            (0, max_len),
            &mut whole,
            &mut outs,
            &mut scratch,
        );
        let want_out = bits(&outs.concat());
        let want_state = bits(&[whole.h.clone(), whole.c.clone()].concat());
        match &reference {
            Some((out, state)) => {
                assert_eq!(
                    &want_out, out,
                    "{backend:?}: outputs differ across backends"
                );
                assert_eq!(
                    &want_state, state,
                    "{backend:?}: states differ across backends"
                );
            }
            None => reference = Some((want_out.clone(), want_state.clone())),
        }
        // Two chunks at every split point, through one reused scratch.
        for split in 0..=max_len {
            let mut state = LstmState::zeros(lens.len(), h);
            let mut outs = vec![Vec::new(); lens.len()];
            for range in [(0, split), (split, max_len)] {
                run_steps(
                    &lstm,
                    &ps,
                    &xs,
                    &lens,
                    range,
                    &mut state,
                    &mut outs,
                    &mut scratch,
                );
            }
            assert_eq!(
                bits(&outs.concat()),
                want_out,
                "{backend:?}: split at {split}"
            );
            assert_eq!(
                bits(&[state.h, state.c].concat()),
                want_state,
                "{backend:?}: final state, split at {split}"
            );
        }
    }
}
