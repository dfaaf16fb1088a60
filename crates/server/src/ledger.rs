//! The conservation law, written once.
//!
//! Every admission settles exactly once. An admission is counted
//! `admitted` (deterministic guarantee) or `overflow` (statistical path);
//! it leaves the system through exactly one [`SettleKind`]. The law is
//!
//! ```text
//! served + hedge_wins + lost + write_settled + write_lost
//!     == admitted + overflow
//! ```
//!
//! and [`Ledger::conserved`] is its only spelling. The engine keeps one
//! [`AtomicLedger`] for the array and one per tenant, the WAL replays the
//! same terms into plain [`Ledger`]s, and the cluster tier, the exporter
//! and the CLI read them through [`crate::MetricsSnapshot::ledger`]. This
//! module holds nothing else: rejections, delays, deadline violations and
//! hedge/GC telemetry are not law terms and live with their owners.

use fqos_sync::atomic::{AtomicU64, Ordering};
use fqos_sync::LineGap;

/// How an admission left the system — the single list of settling terms.
/// The discriminant is the kind's byte in a WAL settle record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SettleKind {
    /// Read served by its primary dispatch.
    Served = 0,
    /// Read completed by a winning hedge, which cancels the primary.
    HedgeWin = 1,
    /// Read unservable: every replica down at seal, or stranded by a crash
    /// between seal and settlement.
    Lost = 2,
    /// Replicated write whose every copy landed (all-must-settle).
    WriteSettled = 3,
    /// Replicated write that lost a copy past the bounded retries, or was
    /// stranded mid-fan-out by a crash.
    WriteLost = 4,
}

impl SettleKind {
    /// Every kind, in WAL-code order.
    pub const ALL: [SettleKind; 5] = [
        SettleKind::Served,
        SettleKind::HedgeWin,
        SettleKind::Lost,
        SettleKind::WriteSettled,
        SettleKind::WriteLost,
    ];

    /// True for the kinds that settle a logical write.
    pub fn is_write(self) -> bool {
        matches!(self, SettleKind::WriteSettled | SettleKind::WriteLost)
    }

    /// Decode a WAL settle byte (`kind as u8` encodes it).
    pub(crate) fn from_code(code: u8) -> Option<SettleKind> {
        SettleKind::ALL.get(usize::from(code)).copied()
    }
}

/// Number of law terms; also the `u64` count of the binary encoding.
const TERMS: usize = 7;

/// How many of them admit (they lead [`Ledger::terms`]); the rest settle.
const ADMIT_TERMS: usize = 2;

/// One account of the law: two admitting terms, five settling terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Admissions under the deterministic guarantee.
    pub admitted: u64,
    /// Admissions on the statistical overflow path.
    pub overflow: u64,
    /// Settled [`SettleKind::Served`].
    pub served: u64,
    /// Settled [`SettleKind::HedgeWin`] (one cancelled primary each).
    pub hedge_wins: u64,
    /// Settled [`SettleKind::Lost`].
    pub lost: u64,
    /// Settled [`SettleKind::WriteSettled`].
    pub write_settled: u64,
    /// Settled [`SettleKind::WriteLost`].
    pub write_lost: u64,
}

impl Ledger {
    /// The terms in their one fixed order (encoding, atomic layout, merge).
    fn terms(&self) -> [u64; TERMS] {
        [
            self.admitted,
            self.overflow,
            self.served,
            self.hedge_wins,
            self.lost,
            self.write_settled,
            self.write_lost,
        ]
    }

    fn from_terms(terms: [u64; TERMS]) -> Ledger {
        let [admitted, overflow, served, hedge_wins, lost, write_settled, write_lost] = terms;
        Ledger {
            admitted,
            overflow,
            served,
            hedge_wins,
            lost,
            write_settled,
            write_lost,
        }
    }

    /// Count one admission.
    pub fn admit(&mut self, guaranteed: bool) {
        if guaranteed {
            self.admitted += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Settle one admission as `kind`.
    pub fn settle(&mut self, kind: SettleKind) {
        match kind {
            SettleKind::Served => self.served += 1,
            SettleKind::HedgeWin => self.hedge_wins += 1,
            SettleKind::Lost => self.lost += 1,
            SettleKind::WriteSettled => self.write_settled += 1,
            SettleKind::WriteLost => self.write_lost += 1,
        }
    }

    /// Admissions in total (guaranteed + overflow).
    pub fn admitted_total(&self) -> u64 {
        self.admitted + self.overflow
    }

    /// Admissions settled, whatever the kind.
    pub fn settled(&self) -> u64 {
        self.served + self.hedge_wins + self.lost + self.write_settled + self.write_lost
    }

    /// Reads that completed service on either dispatch path.
    pub fn completed(&self) -> u64 {
        self.served + self.hedge_wins
    }

    /// Admissions not yet settled (0 rather than negative on a torn
    /// mid-flight read).
    pub fn in_flight(&self) -> u64 {
        self.admitted_total().saturating_sub(self.settled())
    }

    /// The law: every admission settled exactly once.
    pub fn conserved(&self) -> bool {
        self.conserved_with(0)
    }

    /// The law with `elsewhere` admissions accounted outside this ledger
    /// (the cluster tier's stranded and in-transit terms).
    pub fn conserved_with(&self, elsewhere: u64) -> bool {
        self.settled().checked_add(elsewhere) == Some(self.admitted_total())
    }

    /// Fold `other` into this account, term by term.
    pub fn merge(&mut self, other: &Ledger) {
        let mut terms = self.terms();
        for (t, o) in terms.iter_mut().zip(other.terms()) {
            *t += o;
        }
        *self = Ledger::from_terms(terms);
    }

    /// Append the binary encoding: the seven terms, little-endian `u64`s.
    pub fn put(&self, out: &mut Vec<u8>) {
        for t in self.terms() {
            out.extend_from_slice(&t.to_le_bytes());
        }
    }

    /// Decode one ledger off the front of `bytes`, advancing it. `None`
    /// (and `bytes` untouched) when fewer than seven terms remain.
    pub fn take(bytes: &mut &[u8]) -> Option<Ledger> {
        if bytes.len() < TERMS * 8 {
            return None;
        }
        let (head, rest) = bytes.split_at(TERMS * 8);
        let mut terms = [0u64; TERMS];
        for (t, chunk) in terms.iter_mut().zip(head.chunks_exact(8)) {
            *t = u64::from_le_bytes(chunk.try_into().ok()?);
        }
        *bytes = rest;
        Some(Ledger::from_terms(terms))
    }

    /// The law with its terms filled in, as the CLI audit prints it.
    pub fn render(&self) -> String {
        format!(
            "served {} + write_settled {} + lost {} + cancelled primaries {} \
             + write_lost {} = admitted {}",
            self.served,
            self.write_settled,
            self.lost,
            self.hedge_wins,
            self.write_lost,
            self.admitted_total(),
        )
    }
}

/// The concurrent twin of [`Ledger`]: same terms, relaxed atomics. Each
/// term is exact; a [`AtomicLedger::snapshot`] taken mid-flight may be torn
/// *across* terms, which reports tolerate.
///
/// Submitters count admissions and workers count settlements, so the two
/// groups of cells sit a cache line apart (DESIGN.md, "One writer per
/// line"): whatever struct embeds a ledger, no line holds a cell of each.
#[derive(Debug, Default)]
#[repr(C)]
pub struct AtomicLedger {
    /// `admitted`, `overflow`.
    admit: [AtomicU64; ADMIT_TERMS],
    _gap: LineGap,
    /// The settling terms, in [`SettleKind`] order.
    settle: [AtomicU64; TERMS - ADMIT_TERMS],
}

impl AtomicLedger {
    /// Count one admission.
    pub fn admit(&self, guaranteed: bool) {
        self.admit[usize::from(!guaranteed)].fetch_add(1, Ordering::Relaxed);
    }

    /// Settle one admission as `kind`.
    pub fn settle(&self, kind: SettleKind) {
        self.settle[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The cells in [`Ledger::terms`] order.
    fn cells(&self) -> impl Iterator<Item = &AtomicU64> {
        self.admit.iter().chain(&self.settle)
    }

    /// Read every term.
    pub fn snapshot(&self) -> Ledger {
        let mut terms = [0u64; TERMS];
        for (t, cell) in terms.iter_mut().zip(self.cells()) {
            *t = cell.load(Ordering::Relaxed);
        }
        Ledger::from_terms(terms)
    }

    /// Overwrite every term (recovery seeds the books from the WAL).
    pub fn restore(&self, ledger: &Ledger) {
        for (cell, t) in self.cells().zip(ledger.terms()) {
            cell.store(t, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{assert_one_side_per_line, span, Side, Span};
    use proptest::prelude::*;

    impl AtomicLedger {
        /// Who writes which cells (every embedding struct's layout test
        /// includes these).
        pub(crate) fn layout(&self) -> Vec<Span> {
            let AtomicLedger {
                admit,
                _gap,
                settle,
            } = self;
            vec![
                span("ledger.admit", admit, Side::Submitter),
                span("ledger._gap", _gap, Side::Gap),
                span("ledger.settle", settle, Side::Worker),
            ]
        }
    }

    #[test]
    fn layout_keeps_admit_and_settle_cells_on_separate_lines() {
        let ledger = AtomicLedger::default();
        assert_one_side_per_line(&ledger, ledger.layout());
    }

    /// One ledger event: an admission or a settlement.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        Admit(bool),
        Settle(SettleKind),
    }

    /// Decode a byte into an event (proptest feeds byte vectors).
    fn event(b: u8) -> Event {
        match b % 7 {
            0 => Event::Admit(true),
            1 => Event::Admit(false),
            k => Event::Settle(SettleKind::ALL[usize::from(k) - 2]),
        }
    }

    fn replay(events: &[u8]) -> Ledger {
        let mut l = Ledger::default();
        for &b in events {
            match event(b) {
                Event::Admit(g) => l.admit(g),
                Event::Settle(k) => l.settle(k),
            }
        }
        l
    }

    /// A balanced account: `n` admissions, each settled once as
    /// `kinds[i]`.
    fn balanced(kinds: &[u8]) -> Ledger {
        let mut l = Ledger::default();
        for (i, &k) in kinds.iter().enumerate() {
            l.admit(i % 3 != 0);
            l.settle(SettleKind::ALL[usize::from(k) % 5]);
        }
        l
    }

    #[test]
    fn every_kind_moves_exactly_its_own_term() {
        for kind in SettleKind::ALL {
            let mut l = Ledger::default();
            l.settle(kind);
            let mut expect = [0u64; TERMS];
            expect[2 + kind as usize] = 1;
            assert_eq!(l.terms(), expect, "{kind:?}");
            assert_eq!(l.settled(), 1);
            assert_eq!(SettleKind::from_code(kind as u8), Some(kind));
        }
        assert_eq!(SettleKind::from_code(5), None);
        let mut l = Ledger::default();
        l.admit(true);
        assert_eq!(l.terms(), [1, 0, 0, 0, 0, 0, 0]);
        l.admit(false);
        assert_eq!(l.terms(), [1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(l.admitted_total(), 2);
        assert_eq!(l.in_flight(), 2);
    }

    #[test]
    fn a_double_or_a_missing_settle_breaks_the_law() {
        let mut l = Ledger::default();
        assert!(l.conserved(), "the empty account balances");
        l.admit(true);
        assert!(!l.conserved(), "admitted, never settled");
        l.settle(SettleKind::Served);
        assert!(l.conserved());
        l.settle(SettleKind::HedgeWin);
        assert!(!l.conserved(), "settled twice");
        assert_eq!(l.in_flight(), 0, "over-settlement saturates, not wraps");
    }

    #[test]
    fn conserved_with_accounts_admissions_held_elsewhere() {
        let mut l = Ledger::default();
        for _ in 0..3 {
            l.admit(true);
        }
        l.settle(SettleKind::WriteSettled);
        assert!(!l.conserved());
        assert!(l.conserved_with(2));
        assert!(!l.conserved_with(1));
        assert!(!l.conserved_with(u64::MAX), "overflow is a violation");
    }

    #[test]
    fn render_spells_the_cli_audit_line() {
        let l = Ledger {
            admitted: 6,
            overflow: 1,
            served: 2,
            hedge_wins: 1,
            lost: 1,
            write_settled: 2,
            write_lost: 1,
        };
        assert!(l.conserved());
        assert_eq!(
            l.render(),
            "served 2 + write_settled 2 + lost 1 + cancelled primaries 1 \
             + write_lost 1 = admitted 7"
        );
    }

    #[test]
    fn take_refuses_a_short_buffer_without_consuming_it() {
        let mut bytes = Vec::new();
        balanced(&[0, 3, 4]).put(&mut bytes);
        assert_eq!(bytes.len(), TERMS * 8);
        let mut short = &bytes[..bytes.len() - 1];
        assert_eq!(Ledger::take(&mut short), None);
        assert_eq!(short.len(), bytes.len() - 1);
    }

    proptest! {
        #[test]
        fn put_then_take_is_the_identity(events in prop::collection::vec(any::<u8>(), 0..64), tail in any::<u8>()) {
            let l = replay(&events);
            let mut bytes = Vec::new();
            l.put(&mut bytes);
            bytes.push(tail);
            let mut cursor = bytes.as_slice();
            prop_assert_eq!(Ledger::take(&mut cursor), Some(l));
            prop_assert_eq!(cursor, &[tail][..]);
        }

        #[test]
        fn atomic_twin_agrees_and_restore_then_snapshot_is_the_identity(events in prop::collection::vec(any::<u8>(), 0..64)) {
            let twin = AtomicLedger::default();
            for &b in &events {
                match event(b) {
                    Event::Admit(g) => twin.admit(g),
                    Event::Settle(k) => twin.settle(k),
                }
            }
            let l = replay(&events);
            prop_assert_eq!(twin.snapshot(), l);
            let fresh = AtomicLedger::default();
            fresh.restore(&l);
            prop_assert_eq!(fresh.snapshot(), l);
        }

        #[test]
        fn merge_is_commutative_associative_and_keeps_the_law(
            a in prop::collection::vec(any::<u8>(), 0..24),
            b in prop::collection::vec(any::<u8>(), 0..24),
            c in prop::collection::vec(any::<u8>(), 0..24),
        ) {
            let (la, lb, lc) = (replay(&a), replay(&b), replay(&c));
            let mut ab = la;
            ab.merge(&lb);
            let mut ba = lb;
            ba.merge(&la);
            prop_assert_eq!(ab, ba);
            let mut ab_c = ab;
            ab_c.merge(&lc);
            let mut bc = lb;
            bc.merge(&lc);
            let mut a_bc = la;
            a_bc.merge(&bc);
            prop_assert_eq!(ab_c, a_bc);
            // Merging is replaying both histories into one account.
            let mut joined = a.clone();
            joined.extend_from_slice(&b);
            prop_assert_eq!(ab, replay(&joined));
            // Balanced accounts stay balanced; one stray event shows.
            let (xa, xb) = (balanced(&a), balanced(&b));
            let mut sum = xa;
            sum.merge(&xb);
            prop_assert!(sum.conserved());
            let mut stray = xb;
            stray.settle(SettleKind::Lost);
            sum = xa;
            sum.merge(&stray);
            prop_assert!(!sum.conserved());
        }
    }
}
