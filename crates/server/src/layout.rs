//! Test support for "one writer per cache line" (DESIGN.md): the structs
//! the request path shares between submitters and workers describe their
//! fields as [`Span`]s taken off a live instance, and
//! [`assert_one_side_per_line`] checks that, wherever malloc puts the
//! struct, no 64-byte line holds bytes of two different [`Side`]s.
//!
//! Each struct lists its fields through an exhaustive destructuring
//! pattern, so a new field does not compile until it is given a side.

/// Which threads touch a field on the request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Written at construction or by rare control operations; read by
    /// submitters and workers alike.
    ReadMostly,
    /// Written — or read on every request — by submitting threads only
    /// (the seal runs on them).
    Submitter,
    /// Written by worker threads.
    Worker,
    /// Dead space; shares a line with anything.
    Gap,
}

/// One field (or run of like fields) of a live struct.
#[derive(Debug)]
pub(crate) struct Span {
    name: &'static str,
    start: usize,
    len: usize,
    side: Side,
}

/// The bytes `field` occupies, attributed to `side`.
pub(crate) fn span<T>(name: &'static str, field: &T, side: Side) -> Span {
    Span {
        name,
        start: field as *const T as usize,
        len: std::mem::size_of::<T>(),
        side,
    }
}

/// `spans` must lie inside `whole` without overlapping, and for every
/// base address malloc can return (≡ 0, 16, 32, 48 mod 64) no cache line
/// may hold bytes of two different sides.
pub(crate) fn assert_one_side_per_line<T>(whole: &T, mut spans: Vec<Span>) {
    let base = whole as *const T as usize;
    let size = std::mem::size_of::<T>();
    let ty = std::any::type_name::<T>();
    spans.retain(|s| s.len > 0);
    spans.sort_by_key(|s| s.start);
    for s in &spans {
        assert!(
            s.start >= base && s.start + s.len <= base + size,
            "{ty}: `{}` lies outside the struct",
            s.name
        );
    }
    for pair in spans.windows(2) {
        assert!(
            pair[0].start + pair[0].len <= pair[1].start,
            "{ty}: `{}` and `{}` overlap",
            pair[0].name,
            pair[1].name
        );
    }
    for residue in [0usize, 16, 32, 48] {
        let lines = |s: &Span| {
            let first = residue + s.start - base;
            first / 64..=(first + s.len - 1) / 64
        };
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                if a.side == b.side || a.side == Side::Gap || b.side == Side::Gap {
                    continue;
                }
                assert!(
                    lines(a).end() < lines(b).start(),
                    "{ty} at base ≡ {residue} (mod 64): `{}` ({:?}) and `{}` ({:?}) share a \
                     cache line",
                    a.name,
                    a.side,
                    b.name,
                    b.side
                );
            }
        }
    }
}
