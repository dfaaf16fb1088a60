//! A list in `crates/xtask` names what the code used to have.

pub const CONTROL_FLAGS: &[&str] = &["shutdown", "sealed_floor"];
