//! Fixture: waiver hygiene. Scanned under a pretend `crates/core/src/` path.

fn bad_waivers(v: &[u32]) -> u32 {
    // lint: allow(panic)
    // ^ FIRE: bad-waiver (line 4) — no reason given. The index below is
    //   therefore NOT covered and fires too (the bad waiver is ignored).
    let a = v[0]; // FIRE: panic (line 7)
    let b = 1u32; // lint: allow(made-up-rule): FIRE: bad-waiver (line 8) — unknown rule id
    a + b
}

fn unused_waivers(v: &[u32]) -> usize {
    // lint: allow(panic): FIRE: unused-waiver (line 13) — the next line is clean
    v.len()
}
