//! The device fault-schedule grammar under arbitrary input: any string
//! parses to a schedule or to a typed error and never panics, and any
//! schedule the builders make, written out as tokens, parses back equal.

use fqos_server::{FaultKind, FaultSchedule, FaultSpecError};
use proptest::prelude::*;

/// Pieces a spec is assembled from: the grammar's keywords and
/// punctuation, numbers around the integer bounds, and near-misses.
const PIECES: &[&str] = &[
    "fail",
    "recover",
    "slow",
    "restore",
    "kill",
    "melt",
    ":",
    "@",
    "x",
    "X",
    ",",
    " ",
    "\n",
    "\t",
    "\r",
    "0",
    "1",
    "2",
    "9",
    "64",
    "-1",
    "+3",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "é",
    "::",
    "@@",
    "xx",
];

/// A spec from `picks`: a piece, or (one past the table) an arbitrary char.
fn spec_of(picks: &[(usize, u32)]) -> String {
    picks
        .iter()
        .map(|&(i, c)| match PIECES.get(i) {
            Some(piece) => (*piece).to_string(),
            None => char::from_u32(c % 0x11_0000).unwrap_or('?').to_string(),
        })
        .collect()
}

/// `s` written out in the grammar, one token per event.
fn tokens_of(s: &FaultSchedule) -> String {
    let token = |e: &fqos_server::FaultEvent| match e.kind {
        FaultKind::Fail => format!("fail:{}@{}", e.device, e.window),
        FaultKind::Recover => format!("recover:{}@{}", e.device, e.window),
        FaultKind::Slow(f) => format!("slow:{}@{}x{f}", e.device, e.window),
        FaultKind::Restore => format!("restore:{}@{}", e.device, e.window),
    };
    s.events().iter().map(token).collect::<Vec<_>>().join(",")
}

/// Any spec parses to a schedule that round-trips through its tokens, or
/// to one of the errors a spec can have on its own.
fn parses_or_refuses_typed(spec: &str) -> TestCaseResult {
    match FaultSchedule::parse(spec) {
        Ok(s) => prop_assert_eq!(FaultSchedule::parse(&tokens_of(&s)).unwrap(), s),
        Err(
            FaultSpecError::BadToken { .. }
            | FaultSpecError::UnknownEvent { .. }
            | FaultSpecError::SlowFactorTooSmall { .. },
        ) => {}
        Err(e) => prop_assert!(false, "a parse error that needs a geometry: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn device_grammar_parses_or_refuses_typed_and_round_trips(
        picks in prop::collection::vec((0..PIECES.len() + 1, any::<u32>()), 0..8),
        cut in any::<usize>(),
        events in prop::collection::vec((0..4u8, any::<usize>(), any::<u64>(), 2..u32::MAX), 0..12),
    ) {
        let built = events.iter().fold(FaultSchedule::new(), |s, &(kind, d, w, f)| match kind {
            0 => s.fail(d, w),
            1 => s.recover(d, w),
            2 => s.slow(d, w, f),
            _ => s.restore(d, w),
        });
        let text = tokens_of(&built);
        prop_assert_eq!(FaultSchedule::parse(&text).unwrap(), built);
        // Noise alone, and noise spliced into a well-formed spec.
        let noise = spec_of(&picks);
        parses_or_refuses_typed(&noise)?;
        let at = cut % (text.len() + 1);
        parses_or_refuses_typed(&format!("{}{noise}{}", &text[..at], &text[at..]))?;
    }
}
