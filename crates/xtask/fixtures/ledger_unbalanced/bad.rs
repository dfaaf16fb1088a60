//! Seeded ledger-balance violations, in the `admit(`/`settle(` vocabulary
//! of `crates/server/src/ledger.rs`:
//!
//! * `submit`'s `else` arm admits but never settles, so one path leaks an
//!   admission — exactly the branch-blind bug class the textual scanner
//!   missed;
//! * `complete` settles a hedged dispatch as a hedge win *and* lets the
//!   primary settle it as served.
//!
//! The analyzer must exit non-zero on this tree.

enum SettleKind {
    Served,
    HedgeWin,
}

struct Ledger {
    admitted: u64,
    served: u64,
    hedge_wins: u64,
}

impl Ledger {
    fn admit(&mut self, _guaranteed: bool) {}
    fn settle(&mut self, _kind: SettleKind) {}
}

struct Seeded {
    ledger: Ledger,
}

impl Seeded {
    fn submit(&mut self, fast_path: bool) {
        self.ledger.admit(true);
        if fast_path {
            self.ledger.settle(SettleKind::Served);
        } else {
            // forgot to settle: the admission leaks on this arm
            self.observe();
        }
    }

    fn complete(&mut self, hedge_won: bool) {
        if hedge_won {
            self.ledger.settle(SettleKind::HedgeWin);
        }
        // forgot the `else`: the cancelled primary settles too
        self.ledger.settle(SettleKind::Served);
    }

    fn observe(&self) {}
}
