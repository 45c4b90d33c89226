//! Contention accounting: drop-in wrappers around [`std::sync::Mutex`] and
//! [`std::sync::RwLock`] that record wait-time and hold-time histograms
//! plus a contention counter per lock.
//!
//! The serving stack guards its shared state with a few named locks (the
//! engine's live state and box cache, the audit queue); whether those
//! locks are contended at target load is the measurement that decides the
//! ROADMAP's shard count. An [`ObsMutex`] / [`ObsRwLock`] keeps the std
//! semantics — poisoning included, so existing `.lock().unwrap()` and
//! `unwrap_or_else(PoisonError::into_inner)` call sites survive unchanged
//! — and feeds three series per lock name into the ordinary registry:
//!
//! - `lock.<name>.wait` (span histogram): time from requesting the lock to
//!   holding it, recorded on **every** acquire, so the p99 shows what the
//!   unlucky acquirer pays;
//! - `lock.<name>.hold` (span histogram): time the guard was held —
//!   paused across condvar waits, which release the lock;
//! - `lock.<name>.contended` (rate counter): acquires that found the lock
//!   already taken (`try_lock` said `WouldBlock`).
//!
//! An `ObsRwLock` shares one set of series between readers and writers:
//! the question it answers is "is this lock a bottleneck", not "who is
//! waiting", and splitting the histograms would halve every sample count.
//! When the obs gate ([`crate::set_enabled`]) is off, acquires skip the
//! `try_lock` probe and both clock reads.
//!
//! The metric names are interned (leaked) once per lock construction;
//! locks with the same name share registry cells, so short-lived engines
//! in tests accumulate into one series rather than leaking new ones.

use std::sync::{
    Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError, WaitTimeoutResult,
};
use std::time::{Duration, Instant};

use crate::registry::RateCounter;

/// `"lock.<name>.<suffix>"` as a `&'static str`, interned so constructing
/// the same lock name twice reuses one leak.
fn intern_series(name: &str, suffix: &str) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let full = format!("lock.{name}.{suffix}");
    let mut tab = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = tab.iter().find(|&&s| s == full) {
        return existing;
    }
    let leaked: &'static str = Box::leak(full.into_boxed_str());
    tab.push(leaked);
    leaked
}

struct Series {
    wait: &'static str,
    hold: &'static str,
    contended: RateCounter,
}

impl Series {
    fn new(name: &str) -> Self {
        let contended = crate::rate_counter(intern_series(name, "contended"));
        Series {
            wait: intern_series(name, "wait"),
            hold: intern_series(name, "hold"),
            contended,
        }
    }
}

/// A [`Mutex`] recording wait/hold-time histograms and a contention
/// counter under `lock.<name>.*`.
pub struct ObsMutex<T> {
    series: Series,
    inner: Mutex<T>,
}

impl<T> ObsMutex<T> {
    /// Wraps `value`; metrics appear as `lock.<name>.wait` / `.hold` /
    /// `.contended`.
    pub fn new(name: &str, value: T) -> Self {
        ObsMutex {
            series: Series::new(name),
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recording wait time (and contention if it was
    /// already held). Poisoning passes through exactly as with
    /// [`Mutex::lock`].
    pub fn lock(&self) -> LockResult<ObsMutexGuard<'_, T>> {
        if !crate::enabled() {
            return wrap_mutex(&self.series, self.inner.lock(), false);
        }
        let start = Instant::now();
        let result = match self.inner.try_lock() {
            Ok(g) => Ok(g),
            Err(TryLockError::Poisoned(p)) => Err(p),
            Err(TryLockError::WouldBlock) => {
                self.series.contended.incr();
                self.inner.lock()
            }
        };
        crate::record_duration(self.series.wait, start.elapsed());
        wrap_mutex(&self.series, result, true)
    }

    /// [`Condvar::wait`] through the instrumented guard. Hold time pauses
    /// for the wait (the lock is released) and resumes on wake.
    pub fn wait<'a>(
        &self,
        cv: &Condvar,
        mut guard: ObsMutexGuard<'a, T>,
    ) -> LockResult<ObsMutexGuard<'a, T>> {
        guard.record_hold();
        let inner = guard.inner.take().expect("guard holds until consumed");
        match cv.wait(inner) {
            Ok(g) => wrap_mutex(&self.series, Ok(g), crate::enabled()),
            Err(p) => wrap_mutex(&self.series, Err(p), crate::enabled()),
        }
    }

    /// [`Condvar::wait_timeout`] through the instrumented guard; same
    /// hold-time pause as [`wait`](ObsMutex::wait).
    pub fn wait_timeout<'a>(
        &self,
        cv: &Condvar,
        mut guard: ObsMutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(ObsMutexGuard<'a, T>, WaitTimeoutResult)> {
        guard.record_hold();
        let inner = guard.inner.take().expect("guard holds until consumed");
        let timed = crate::enabled();
        match cv.wait_timeout(inner, dur) {
            Ok((g, timeout)) => match wrap_mutex(&self.series, Ok(g), timed) {
                Ok(g) => Ok((g, timeout)),
                Err(_) => unreachable!("Ok input cannot wrap to Err"),
            },
            Err(p) => {
                let (g, timeout) = p.into_inner();
                match wrap_mutex(&self.series, Ok(g), timed) {
                    Ok(g) => Err(PoisonError::new((g, timeout))),
                    Err(_) => unreachable!("Ok input cannot wrap to Err"),
                }
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ObsMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsMutex")
            .field("inner", &self.inner)
            .finish()
    }
}

fn wrap_mutex<'a, T>(
    series: &Series,
    result: LockResult<MutexGuard<'a, T>>,
    timed: bool,
) -> LockResult<ObsMutexGuard<'a, T>> {
    let make = |inner: MutexGuard<'a, T>| ObsMutexGuard {
        inner: Some(inner),
        hold: series.hold,
        since: timed.then(Instant::now),
    };
    match result {
        Ok(g) => Ok(make(g)),
        Err(p) => Err(PoisonError::new(make(p.into_inner()))),
    }
}

/// Guard of an [`ObsMutex`]; records hold time when dropped.
pub struct ObsMutexGuard<'a, T> {
    inner: Option<MutexGuard<'a, T>>,
    hold: &'static str,
    since: Option<Instant>,
}

impl<T> ObsMutexGuard<'_, T> {
    fn record_hold(&mut self) {
        if let Some(since) = self.since.take() {
            crate::record_duration(self.hold, since.elapsed());
        }
    }
}

impl<T> std::ops::Deref for ObsMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds until dropped")
    }
}

impl<T> std::ops::DerefMut for ObsMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds until dropped")
    }
}

impl<T> Drop for ObsMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.record_hold();
    }
}

/// An [`RwLock`] recording wait/hold-time histograms and a contention
/// counter under `lock.<name>.*`, shared between readers and writers.
pub struct ObsRwLock<T> {
    series: Series,
    inner: RwLock<T>,
}

impl<T> ObsRwLock<T> {
    /// Wraps `value`; metrics appear as `lock.<name>.wait` / `.hold` /
    /// `.contended`.
    pub fn new(name: &str, value: T) -> Self {
        ObsRwLock {
            series: Series::new(name),
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared access, recording wait time (and contention when a
    /// writer holds the lock).
    pub fn read(&self) -> LockResult<ObsReadGuard<'_, T>> {
        if !crate::enabled() {
            return wrap_read(&self.series, self.inner.read(), false);
        }
        let start = Instant::now();
        let result = match self.inner.try_read() {
            Ok(g) => Ok(g),
            Err(TryLockError::Poisoned(p)) => Err(p),
            Err(TryLockError::WouldBlock) => {
                self.series.contended.incr();
                self.inner.read()
            }
        };
        crate::record_duration(self.series.wait, start.elapsed());
        wrap_read(&self.series, result, true)
    }

    /// Acquires exclusive access, recording wait time (and contention when
    /// any other holder exists).
    pub fn write(&self) -> LockResult<ObsWriteGuard<'_, T>> {
        if !crate::enabled() {
            return wrap_write(&self.series, self.inner.write(), false);
        }
        let start = Instant::now();
        let result = match self.inner.try_write() {
            Ok(g) => Ok(g),
            Err(TryLockError::Poisoned(p)) => Err(p),
            Err(TryLockError::WouldBlock) => {
                self.series.contended.incr();
                self.inner.write()
            }
        };
        crate::record_duration(self.series.wait, start.elapsed());
        wrap_write(&self.series, result, true)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ObsRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRwLock")
            .field("inner", &self.inner)
            .finish()
    }
}

fn wrap_read<'a, T>(
    series: &Series,
    result: LockResult<RwLockReadGuard<'a, T>>,
    timed: bool,
) -> LockResult<ObsReadGuard<'a, T>> {
    let make = |inner: RwLockReadGuard<'a, T>| ObsReadGuard {
        inner,
        hold: series.hold,
        since: timed.then(Instant::now),
    };
    match result {
        Ok(g) => Ok(make(g)),
        Err(p) => Err(PoisonError::new(make(p.into_inner()))),
    }
}

fn wrap_write<'a, T>(
    series: &Series,
    result: LockResult<RwLockWriteGuard<'a, T>>,
    timed: bool,
) -> LockResult<ObsWriteGuard<'a, T>> {
    let make = |inner: RwLockWriteGuard<'a, T>| ObsWriteGuard {
        inner,
        hold: series.hold,
        since: timed.then(Instant::now),
    };
    match result {
        Ok(g) => Ok(make(g)),
        Err(p) => Err(PoisonError::new(make(p.into_inner()))),
    }
}

/// Shared guard of an [`ObsRwLock`]; records hold time when dropped.
pub struct ObsReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    hold: &'static str,
    since: Option<Instant>,
}

impl<T> std::ops::Deref for ObsReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for ObsReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(since) = self.since.take() {
            crate::record_duration(self.hold, since.elapsed());
        }
    }
}

/// Exclusive guard of an [`ObsRwLock`]; records hold time when dropped.
pub struct ObsWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    hold: &'static str,
    since: Option<Instant>,
}

impl<T> std::ops::Deref for ObsWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for ObsWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for ObsWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(since) = self.since.take() {
            crate::record_duration(self.hold, since.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_records_wait_hold_and_contention() {
        let m = Arc::new(ObsMutex::new("test.lock.mutex", 0u32));
        // Uncontended acquire: wait + hold recorded, no contention.
        {
            let mut g = m.lock().unwrap();
            *g += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        let wait = crate::span_snapshot("lock.test.lock.mutex.wait").unwrap();
        assert!(wait.count >= 1);
        let hold = crate::span_snapshot("lock.test.lock.mutex.hold").unwrap();
        assert!(hold.count >= 1);
        assert!(hold.p99 >= 1_000_000, "held ≥2ms but p99 {} ns", hold.p99);

        // Forced contention: hold the lock while a second thread acquires.
        let contended_before = crate::counter_value("lock.test.lock.mutex.contended");
        let guard = m.lock().unwrap();
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            let g = m2.lock().unwrap();
            *g
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(guard);
        assert_eq!(waiter.join().unwrap(), 1);
        assert!(
            crate::counter_value("lock.test.lock.mutex.contended") > contended_before,
            "blocked acquire did not count as contended"
        );
        let wait = crate::span_snapshot("lock.test.lock.mutex.wait").unwrap();
        assert!(
            wait.p99 >= 5_000_000,
            "10ms blocked wait missing from histogram: p99 {} ns",
            wait.p99
        );
    }

    #[test]
    fn rwlock_counts_writer_blocking_readers() {
        let l = Arc::new(ObsRwLock::new("test.lock.rw", vec![1, 2, 3]));
        assert_eq!(l.read().unwrap().len(), 3);
        l.write().unwrap().push(4);
        let before = crate::counter_value("lock.test.lock.rw.contended");
        let g = l.write().unwrap();
        let l2 = Arc::clone(&l);
        let reader = std::thread::spawn(move || l2.read().unwrap().len());
        std::thread::sleep(Duration::from_millis(5));
        drop(g);
        assert_eq!(reader.join().unwrap(), 4);
        assert!(crate::counter_value("lock.test.lock.rw.contended") > before);
        assert!(
            crate::span_snapshot("lock.test.lock.rw.wait")
                .unwrap()
                .count
                >= 3
        );
    }

    #[test]
    fn condvar_wait_pauses_hold_time_and_keeps_std_semantics() {
        let m = Arc::new(ObsMutex::new("test.lock.cv", false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock().unwrap();
            while !*g {
                g = m2.wait(&cv2, g).unwrap();
            }
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        *m.lock().unwrap() = true;
        cv.notify_all();
        assert!(waiter.join().unwrap());
        // The waiter slept ~20ms inside wait(); hold time excludes it.
        let hold = crate::span_snapshot("lock.test.lock.cv.hold").unwrap();
        assert!(
            hold.p99 < 15_000_000,
            "condvar wait leaked into hold time: p99 {} ns",
            hold.p99
        );

        // wait_timeout: expires without a notify, guard comes back usable.
        let g = m.lock().unwrap();
        let (g, timeout) = m.wait_timeout(&cv, g, Duration::from_millis(1)).unwrap();
        assert!(timeout.timed_out());
        assert!(*g);
    }

    #[test]
    fn poisoning_passes_through() {
        let m = Arc::new(ObsMutex::new("test.lock.poison", 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        // Both styles used across the workspace must keep working.
        assert!(m.lock().is_err());
        let g = m.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*g, 7);
    }

    #[test]
    fn same_name_shares_series_across_instances() {
        let before = crate::span_snapshot("lock.test.lock.shared.wait")
            .map(|s| s.count)
            .unwrap_or(0);
        drop(ObsMutex::new("test.lock.shared", ()).lock().unwrap());
        drop(ObsMutex::new("test.lock.shared", ()).lock().unwrap());
        let after = crate::span_snapshot("lock.test.lock.shared.wait")
            .unwrap()
            .count;
        assert_eq!(
            after - before,
            2,
            "instances with one name must share one series"
        );
    }
}
