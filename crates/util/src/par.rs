//! The one scheduler for data-parallel passes.
//!
//! [`for_each`] hands units of work to whichever worker is free next,
//! through one `Mutex` over the unit iterator, inside
//! `std::thread::scope`. Callers cut their units with std's `chunks`,
//! `chunks_mut`, `zip` and `enumerate` — for document passes, blocks of
//! [`DOC_BLOCK`] documents — so a run of long documents cannot strand the
//! other workers, and each worker carries its own scratch (`W`) across the
//! units it runs.
//!
//! The threads live for one pass. A pass with two workers costs tens of
//! microseconds, so a persistent pool would save ~0.1% of a fit and add
//! parking and shutdown code; there is none.
//!
//! Determinism never rests on the schedule: a caller's result may depend
//! only on each unit alone (a unit writes its own output slot) or on
//! per-worker scratch that is folded commutatively afterwards.

use std::sync::Mutex;

/// Documents per unit of a document-parallel pass.
pub const DOC_BLOCK: usize = 32;

/// Run `f(worker, unit)` for every unit, each unit on whichever worker is
/// free next. At most `min(workers.len(), units.len())` workers take part,
/// the calling thread being one of them; with one worker, or at most one
/// unit, everything runs inline on the caller. A panic in `f` reaches the
/// caller once every worker has stopped; a worker that panicked on
/// another thread leaves `W::default()` in its slot.
///
/// # Panics
///
/// If `workers` is empty, or if `f` panics.
pub fn for_each<U, W, I>(units: I, workers: &mut [W], f: impl Fn(&mut W, U) + Sync)
where
    U: Send,
    W: Send + Default,
    I: ExactSizeIterator<Item = U> + Send,
{
    let n = workers.len().min(units.len());
    let (first, rest) = workers
        .split_first_mut()
        .expect("par::for_each needs at least one worker");
    if n <= 1 {
        units.for_each(|unit| f(first, unit));
        return;
    }
    let queue = Mutex::new(units);
    let drain = |slot: &mut W| {
        // Each worker runs on its slot moved onto its own stack: slots side
        // by side in `workers` share cache lines, and a worker's scratch
        // headers change on every push.
        let mut worker = std::mem::take(slot);
        loop {
            let next = queue.lock().expect("a unit iterator panicked").next();
            let Some(unit) = next else { break };
            f(&mut worker, unit);
        }
        *slot = worker;
    };
    std::thread::scope(|scope| {
        let drain = &drain;
        for worker in &mut rest[..n - 1] {
            scope.spawn(move || drain(worker));
        }
        drain(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_unit_runs_exactly_once() {
        for n_workers in [1usize, 2, 3, 7] {
            for n_units in [0usize, 1, 2, 5, 100] {
                let mut out = vec![0u32; n_units];
                let mut workers = vec![0usize; n_workers];
                for_each(
                    out.iter_mut().enumerate(),
                    &mut workers,
                    |ran, (i, slot)| {
                        *slot += i as u32 + 1;
                        *ran += 1;
                    },
                );
                let expect: Vec<u32> = (1..=n_units as u32).collect();
                assert_eq!(out, expect, "workers={n_workers} units={n_units}");
                assert_eq!(workers.iter().sum::<usize>(), n_units);
            }
        }
    }

    #[test]
    fn never_uses_more_workers_than_units() {
        let mut workers = vec![0usize; 7];
        for_each(0..3, &mut workers, |ran, _| *ran += 1);
        assert_eq!(workers.iter().sum::<usize>(), 3);
        // Only the first three workers' scratch is ever handed out.
        assert!(workers[3..].iter().all(|&ran| ran == 0));
    }

    #[test]
    fn one_worker_or_one_unit_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let mut one = [(); 1];
        for_each(0..10, &mut one, |_, _| {
            assert_eq!(std::thread::current().id(), caller)
        });
        let mut many = [(); 4];
        for_each(0..1, &mut many, |_, _| {
            assert_eq!(std::thread::current().id(), caller)
        });
    }

    #[test]
    fn blocks_of_documents_cover_the_slice_in_order() {
        let docs: Vec<u32> = (0..103).collect();
        let mut seen = vec![u32::MAX; docs.len()];
        let mut workers = vec![(); 3];
        let units = docs
            .chunks(DOC_BLOCK)
            .zip(seen.chunks_mut(DOC_BLOCK))
            .enumerate();
        for_each(units, &mut workers, |_, (b, (src, dst))| {
            assert_eq!(src[0] as usize, b * DOC_BLOCK);
            dst.copy_from_slice(src);
        });
        assert_eq!(seen, docs);
    }

    #[test]
    fn a_panicking_unit_reaches_the_caller_and_the_next_pass_runs() {
        for n_workers in [1usize, 3] {
            let mut workers = vec![(); n_workers];
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for_each(0..8, &mut workers, |_, i| assert_ne!(i, 5, "unit 5 fails"))
            }));
            assert!(panicked.is_err(), "workers={n_workers}");
            let ran = AtomicUsize::new(0);
            for_each(0..8, &mut workers, |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ran.load(Ordering::Relaxed), 8, "workers={n_workers}");
        }
    }
}
