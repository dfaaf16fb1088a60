//! Positive fixture: nested locks and no atomic at all —
//! `analyze --root` on this directory must exit 0.

struct Clean {
    dispatch: Mutex<DispatchState>,
    handles: Mutex<Vec<Handle>>,
    fault: FaultPlane,
}

impl Clean {
    fn nested_in_order(&self) {
        let ds = self.dispatch.lock();
        let hs = self.handles.lock();
        drop(hs);
        let inner = self.fault.inner.lock();
        drop(inner);
        drop(ds);
    }

    fn handled_failure(&self, v: Option<u64>) -> u64 {
        v.unwrap_or(0)
    }
}
