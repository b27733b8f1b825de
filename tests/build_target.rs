//! The root `.cargo/config.toml` builds the whole workspace for x86-64-v3,
//! where a pair's eight distance lanes fit in one register. A build that
//! loses it still passes every other test, only slower: an env `RUSTFLAGS`
//! replaces the file's flags, and cargo run from outside the checkout never
//! reads it. This test makes that build fail instead.

#[cfg(target_arch = "x86_64")]
#[test]
fn the_build_targets_x86_64_v3() {
    let missing: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
    ]
    .into_iter()
    .filter(|&(_, enabled)| !enabled)
    .map(|(feature, _)| feature)
    .collect();
    assert!(
        missing.is_empty(),
        "built without {missing:?}: `.cargo/config.toml` at the repo root sets \
         `-C target-cpu=x86-64-v3`; was it overridden by an env RUSTFLAGS, or \
         cargo run from outside the checkout?"
    );
}
