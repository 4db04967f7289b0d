//! The ordered parallel fold behind every whole-store pass.

use std::collections::BTreeMap;
use std::panic;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Folds parts `0..parts` on `workers` scoped threads (`0` counts as 1)
/// and merges their values into `init` in part order, so a merge that is
/// associative but not commutative (an event list concatenated part after
/// part) gives the serial result at any worker count.
///
/// `part(i)` computes part `i`'s value on a worker; `merge` runs on the
/// calling thread, once per part, in ascending `i`, as soon as every
/// earlier part has merged. Parts are handed out in ascending order, and
/// part `i` starts only once part `i - 2 × workers` has merged, so at most
/// `2 × workers` part values are alive at once. No part starts after a
/// part fails, and the lowest failing part's error is returned. A panic in
/// a part or in `merge` stops the other workers and is re-raised here.
pub fn ordered_fold<A, P, E>(
    parts: usize,
    workers: usize,
    init: A,
    part: impl Fn(usize) -> Result<P, E> + Sync,
    mut merge: impl FnMut(&mut A, P),
) -> Result<A, E>
where
    P: Send,
    E: Send,
{
    let workers = workers.clamp(1, parts.max(1));
    let window = 2 * workers;
    let state = Mutex::new(State {
        next: 0,
        merged: 0,
        done: BTreeMap::new(),
        failed: None,
        stop: false,
    });
    // Signalled whenever a part finishes, a merge completes or the fold
    // stops.
    let changed = Condvar::new();
    let work = || {
        let _stop = StopOnUnwind(&state, &changed);
        let mut s = lock(&state);
        loop {
            s = changed
                .wait_while(s, |s| {
                    !s.stop && s.next < parts && s.next >= s.merged + window
                })
                .unwrap_or_else(PoisonError::into_inner);
            if s.stop || s.next >= parts {
                return;
            }
            let i = s.next;
            s.next += 1;
            drop(s);
            let result = part(i);
            s = lock(&state);
            match result {
                Ok(value) => drop(s.done.insert(i, value)),
                Err(e) => {
                    if s.failed.as_ref().is_none_or(|&(j, _)| i < j) {
                        s.failed = Some((i, e));
                    }
                    s.stop = true;
                }
            }
            changed.notify_all();
        }
    };
    let mut acc = init;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        let _stop = StopOnUnwind(&state, &changed);
        for i in 0..parts {
            let mut s = changed
                .wait_while(lock(&state), |s| !s.stop && !s.done.contains_key(&i))
                .unwrap_or_else(PoisonError::into_inner);
            let Some(value) = s.done.remove(&i).filter(|_| !s.stop) else {
                break;
            };
            drop(s);
            merge(&mut acc, value);
            lock(&state).merged = i + 1;
            changed.notify_all();
        }
        for handle in handles {
            handle.join().unwrap_or_else(|p| panic::resume_unwind(p));
        }
    });
    let failed = state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .failed;
    failed.map_or(Ok(acc), |(_, e)| Err(e))
}

/// The fold's shared state: the next part to hand out, parts
/// `0..merged` merged, finished parts waiting for their turn, the lowest
/// failed part and its error, and whether to start nothing more.
struct State<P, E> {
    next: usize,
    merged: usize,
    done: BTreeMap<usize, P>,
    failed: Option<(usize, E)>,
    stop: bool,
}

/// Every update under this lock leaves the state valid, so a guard is
/// recovered from a poisoned lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stops the fold when the thread holding it unwinds, so that no other
/// thread waits for a part or a merge that will never come.
struct StopOnUnwind<'a, P, E>(&'a Mutex<State<P, E>>, &'a Condvar);

impl<P, E> Drop for StopOnUnwind<'_, P, E> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(self.0).stop = true;
            self.1.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn merges_in_part_order_when_parts_finish_out_of_order() {
        const PARTS: usize = 41;
        for workers in [1, 2, 3, 8] {
            // With two or more workers each even part waits until its odd
            // successor has finished, so parts finish out of order.
            let finished = Mutex::new(Vec::new());
            let changed = Condvar::new();
            let merged = ordered_fold(
                PARTS,
                workers,
                Vec::new(),
                |i| {
                    if workers > 1 && i % 2 == 0 && i + 1 < PARTS {
                        let guard = finished.lock().unwrap();
                        drop(
                            changed
                                .wait_while(guard, |f: &mut Vec<usize>| !f.contains(&(i + 1)))
                                .unwrap(),
                        );
                    }
                    finished.lock().unwrap().push(i);
                    changed.notify_all();
                    Ok::<_, ()>(i)
                },
                |order: &mut Vec<usize>, i| order.push(i),
            )
            .unwrap();
            assert_eq!(merged, (0..PARTS).collect::<Vec<_>>(), "workers={workers}");
            if workers > 1 {
                assert_ne!(finished.into_inner().unwrap(), merged, "finished in order");
            }
        }
    }

    /// Counts the partials alive at once.
    #[derive(Default)]
    struct Census {
        alive: AtomicUsize,
        peak: AtomicUsize,
    }

    struct Partial<'a>(&'a Census);

    impl Census {
        fn partial(&self) -> Partial<'_> {
            let now = self.alive.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            Partial(self)
        }
    }

    impl Drop for Partial<'_> {
        fn drop(&mut self) {
            self.0.alive.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn no_more_than_two_partials_per_worker_are_alive() {
        for workers in [2, 3, 4] {
            let window = 2 * workers;
            let census = Census::default();
            let others_done = Mutex::new(0usize);
            let changed = Condvar::new();
            let merged = ordered_fold(
                64,
                workers,
                0usize,
                |i| {
                    if i == 0 {
                        // Hold part 0 back until the rest of its window is
                        // done, then give a part past the window time to
                        // finish, which only an unbounded driver starts.
                        let guard = others_done.lock().unwrap();
                        let guard = changed.wait_while(guard, |n| *n < window - 1).unwrap();
                        drop(
                            changed
                                .wait_timeout_while(guard, Duration::from_millis(100), |n| {
                                    *n < window
                                })
                                .unwrap(),
                        );
                    }
                    let partial = census.partial();
                    if i != 0 {
                        *others_done.lock().unwrap() += 1;
                        changed.notify_all();
                    }
                    Ok::<_, ()>(partial)
                },
                |n, _partial| *n += 1,
            )
            .unwrap();
            assert_eq!(merged, 64);
            let peak = census.peak.load(Ordering::SeqCst);
            assert!(peak <= window, "workers={workers}: {peak} partials alive");
            assert_eq!(census.alive.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn the_first_error_is_returned_and_later_parts_never_start() {
        for workers in [1, 2, 4] {
            let started = Mutex::new(Vec::new());
            let failed = Mutex::new(false);
            let changed = Condvar::new();
            let result = ordered_fold(
                64,
                workers,
                0,
                |i| {
                    started.lock().unwrap().push(i);
                    match i {
                        // With four workers part 9 starts before part 5
                        // fails; make it fail first.
                        5 if workers == 4 => {
                            drop(changed.wait_while(failed.lock().unwrap(), |f| !*f).unwrap());
                            Err(i)
                        }
                        5 => Err(i),
                        9 => {
                            *failed.lock().unwrap() = true;
                            changed.notify_all();
                            Err(i)
                        }
                        _ => Ok(i),
                    }
                },
                |sum, i| *sum += i,
            );
            assert_eq!(result, Err(5), "workers={workers}");
            let started = started.into_inner().unwrap();
            assert!(
                started.iter().all(|&i| i < 5 + 2 * workers),
                "workers={workers}: {started:?}"
            );
            if workers == 1 {
                assert_eq!(started, (0..=5).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn zero_parts_return_init() {
        for workers in [0, 1, 4] {
            let r = ordered_fold(
                0,
                workers,
                7u32,
                |_| -> Result<u32, ()> { panic!("there is no part") },
                |a, b| *a += b,
            );
            assert_eq!(r, Ok(7));
        }
    }

    /// Runs `f` on a thread of its own and returns its panic payload, or
    /// fails if it neither panics nor returns within 30 s. A hung fold
    /// leaves that thread behind; the test fails either way.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(panic::AssertUnwindSafe(f)));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the fold hung instead of panicking");
        handle.join().unwrap();
        let payload = outcome.expect_err("the fold returned instead of panicking");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    #[test]
    fn a_panic_in_a_part_or_a_merge_is_re_raised_instead_of_hanging() {
        for workers in [1, 2, 4] {
            let msg = panic_message(move || {
                let _ = ordered_fold(
                    64,
                    workers,
                    0,
                    |i| match i {
                        3 => panic!("part 3 panicked"),
                        _ => Ok::<_, ()>(i),
                    },
                    |sum, i| *sum += i,
                );
            });
            assert_eq!(msg, "part 3 panicked", "workers={workers}");
            let msg = panic_message(move || {
                let _ = ordered_fold(64, workers, 0, Ok::<_, ()>, |_, i| {
                    assert!(i != 3, "merge 3 panicked");
                });
            });
            assert_eq!(msg, "merge 3 panicked", "workers={workers}");
        }
    }
}
