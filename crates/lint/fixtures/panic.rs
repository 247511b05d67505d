//! Fixture: R2 literal indexing. Scanned under a pretend `crates/core/src/` path.

fn fires(v: &[u32], o: Option<u32>) -> u32 {
    let a = o.unwrap(); // clippy's `unwrap_used`, not R2
    let b = v.first().expect("non-empty"); // clippy's `expect_used`, not R2
    let c = v[0]; // FIRE: panic (line 6)
    if a > 3 {
        panic!("boom"); // clippy's `panic`, not R2
    }
    a + b + c + v.to_vec()[1] // FIRE: panic (line 10)
}

fn asserts_are_fine(v: &[u32]) -> u32 {
    assert!(!v.is_empty(), "deliberate contract check");
    debug_assert!(v.len() < 100);
    let i = v.len() - 1;
    v[i] // computed index: not flagged
}

fn waived(v: &[u32]) -> u32 {
    // lint: allow(panic): construction invariant — callers always pass two
    v[1]
}

fn strings_and_arrays() -> &'static str {
    let _zeros = [0u8; 4]; // array repeat, not indexing
    "call .unwrap() and v[0] in a string is fine"
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_index() {
        let v: Vec<u32> = vec![1];
        assert_eq!(v.first().copied(), Some(v[0]));
    }
}
