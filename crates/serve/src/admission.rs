//! In-flight admission cap: the serving path's only load response.
//!
//! Every recommend request is answered on its caller's thread, so there is
//! no queue to bound — instead [`Admission::admit`] bounds how many
//! requests may be *inside* the engine at once. Arrivals over the cap are
//! refused immediately with [`ServeError::Overloaded`] rather than piling
//! up behind an unbounded backlog; admitted requests are always answered
//! exactly, never approximated.
//!
//! An admitted request holds a [`Slot`]: an RAII guard that gives its
//! place back on drop, so a request that returns *or unwinds* frees it.
//! [`Admission::close`] refuses new arrivals with [`ServeError::Closed`]
//! and waits for the admitted ones to finish.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::error::ServeError;

struct Gate {
    in_flight: usize,
    closed: bool,
}

pub(crate) struct Admission {
    gate: Mutex<Gate>,
    /// Woken when the last slot is released after [`close`](Self::close).
    drained: Condvar,
    cap: usize,
}

/// One admitted request's place under the cap; released on drop.
pub(crate) struct Slot<'a> {
    admission: &'a Admission,
    /// Requests in flight, this one included, when it was admitted.
    pub(crate) depth: usize,
}

impl Admission {
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue_cap must be at least 1");
        Self {
            gate: Mutex::new(Gate {
                in_flight: 0,
                closed: false,
            }),
            drained: Condvar::new(),
            cap,
        }
    }

    /// The gate survives a poisoned lock: no code panics while holding it,
    /// and its two fields are valid in any state.
    fn gate(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a slot, or refuses: [`ServeError::Closed`] once closed,
    /// [`ServeError::Overloaded`] when `cap` requests are already in
    /// flight (or the `serve.admit.full` fault is armed).
    pub(crate) fn admit(&self) -> Result<Slot<'_>, ServeError> {
        let mut gate = self.gate();
        if gate.closed {
            return Err(ServeError::Closed);
        }
        if gate.in_flight >= self.cap || inbox_obs::failpoint!("serve.admit.full") {
            return Err(ServeError::Overloaded);
        }
        gate.in_flight += 1;
        Ok(Slot {
            admission: self,
            depth: gate.in_flight,
        })
    }

    /// Requests currently holding a slot.
    pub(crate) fn in_flight(&self) -> usize {
        self.gate().in_flight
    }

    /// Refuses every later arrival, then waits until no request holds a
    /// slot. Idempotent.
    pub(crate) fn close(&self) {
        let mut gate = self.gate();
        gate.closed = true;
        while gate.in_flight > 0 {
            gate = self
                .drained
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut gate = self.admission.gate();
        gate.in_flight -= 1;
        if gate.closed && gate.in_flight == 0 {
            self.admission.drained.notify_all();
        }
    }
}
