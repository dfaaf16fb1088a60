//! Seeded fixture for `xtask docs`: the DESIGN.md beside it names a
//! removed type, a name only this comment holds (comment_only_name), a name
//! only `crates/xtask/src/flags.rs` holds, and cites a missing section.

/// Ranked as in DESIGN.md, "Lock hierarchy"; the analyzer is described in
/// DESIGN.md, "Static
/// analysis passes", which is no heading.
pub fn design_theoretic_retrieval() {}

#[cfg(test)]
mod tests {
    #[test]
    fn pinned_by_a_test() {}
}
