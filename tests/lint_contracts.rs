//! The workspace contracts (determinism, panic safety, the unsafe
//! audit, print hygiene) are lints; docs/LINTS.md has the map. This
//! suite pins them two ways:
//!
//! * a known-bad item under `#[expect(<lint>, …)]` for each contract
//!   with no waived site in real code: the clippy gate fails if the
//!   lint stops firing;
//! * tests that the lint tables still configure every mapped lint and
//!   `disallowed-methods` path. The fixtures cannot see a deleted
//!   table entry, because an `#[expect]` turns its lint on by itself.

use std::collections::HashMap;

/// Reads the wall clock.
#[expect(clippy::disallowed_methods, reason = "contract fixture: wall-clock")]
pub fn wall_clock() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// Opens a channel outside the pool.
#[expect(clippy::disallowed_methods, reason = "contract fixture: thread-escape")]
pub fn thread_escape() -> std::sync::mpsc::Receiver<u8> {
    std::sync::mpsc::channel().1
}

/// Loops over a hash map in hash order.
#[expect(clippy::iter_over_hash_type, reason = "contract fixture: hash-iter")]
pub fn hash_loop(map: &HashMap<u8, u8>) -> u32 {
    let mut sum = 0;
    for (k, v) in map {
        sum += u32::from(*k) * u32::from(*v);
    }
    sum
}

/// Collects a hash map's keys in hash order.
#[expect(clippy::disallowed_methods, reason = "contract fixture: hash-iter")]
pub fn hash_keys(map: &HashMap<u8, u8>) -> Vec<u8> {
    map.keys().copied().collect()
}

/// An unsafe block with no safety comment.
#[expect(unsafe_code, reason = "contract fixture: unsafe-code")]
#[expect(
    clippy::undocumented_unsafe_blocks,
    reason = "contract fixture: safety-comment"
)]
pub fn undocumented_unsafe(x: &u8) -> u8 {
    unsafe { std::ptr::read(x) }
}

/// An `#[allow]` with no reason.
#[expect(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    reason = "contract fixture: waiver-syntax"
)]
#[allow(clippy::needless_return)]
pub fn reasonless_allow() -> u8 {
    return 1;
}

/// A leftover `dbg!`.
#[expect(clippy::dbg_macro, reason = "contract fixture: print-hygiene")]
pub fn debug_print(x: u8) -> u8 {
    dbg!(x)
}

const CARGO_TOML: &str = include_str!("../Cargo.toml");
const CLIPPY_TOML: &str = include_str!("../clippy.toml");
const SOLVER_LIBS: [(&str, &str); 4] = [
    ("core", include_str!("../crates/core/src/lib.rs")),
    ("exact", include_str!("../crates/exact/src/lib.rs")),
    ("lp", include_str!("../crates/lp/src/lib.rs")),
    ("sim", include_str!("../crates/sim/src/lib.rs")),
];

/// The `key = value` lines of one TOML table, comments dropped.
fn table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn every_contract_lint_is_configured() {
    let rust = table(CARGO_TOML, "[workspace.lints.rust]");
    assert!(rust.contains(&r#"unsafe_code = "deny""#), "{rust:?}");
    let clippy = table(CARGO_TOML, "[workspace.lints.clippy]");
    for lint in "unwrap_used todo unimplemented iter_over_hash_type undocumented_unsafe_blocks \
                 print_stdout print_stderr dbg_macro allow_attributes allow_attributes_without_reason"
        .split_whitespace()
    {
        let line = format!(r#"{lint} = "warn""#);
        assert!(clippy.contains(&line.as_str()), "`{line}` missing");
    }
    for (krate, src) in SOLVER_LIBS {
        assert!(
            src.contains("#![warn(clippy::expect_used, clippy::panic, clippy::unreachable)]"),
            "crates/{krate}/src/lib.rs lost its panic lints"
        );
    }
}

#[test]
fn every_disallowed_method_is_configured() {
    let configured: Vec<&str> = CLIPPY_TOML
        .lines()
        .filter_map(|l| l.trim().strip_prefix(r#"{ path = ""#)?.split('"').next())
        .collect();
    let clock_and_threads = "std::time::Instant::now std::time::SystemTime::now \
        std::thread::spawn std::thread::scope std::thread::Builder::spawn \
        std::thread::Builder::spawn_scoped std::sync::mpsc::channel std::sync::mpsc::sync_channel";
    let hash_map = "iter iter_mut keys values values_mut drain retain into_keys into_values";
    let paths = clock_and_threads.split_whitespace().map(String::from);
    let map_paths = hash_map
        .split(' ')
        .map(|m| format!("std::collections::HashMap::{m}"));
    let set_paths = ["iter", "drain", "retain"].map(|m| format!("std::collections::HashSet::{m}"));
    for path in paths.chain(map_paths).chain(set_paths) {
        assert!(
            configured.contains(&path.as_str()),
            "disallowed-methods lost `{path}`"
        );
    }
}
