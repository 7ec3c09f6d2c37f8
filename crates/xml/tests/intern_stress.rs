//! Concurrency stress for the global QName interner: many threads
//! interning overlapping name sets must converge on one table entry per
//! distinct string, and the table must stay bounded (no duplicate
//! entries, no unbounded growth from contention retries).

use std::sync::Barrier;
use std::thread;
use wsm_xml::{intern, interned_count, Interned};

/// The overlapping working set: every thread interns all of these, in a
/// thread-dependent order, many times over.
fn names(thread: usize, round: usize) -> Vec<String> {
    let mut v: Vec<String> = (0..32)
        .map(|i| format!("stress-name-{}", (i + thread + round) % 32))
        .collect();
    // Mix in names every thread shares verbatim.
    v.push("Envelope".to_string());
    v.push("NotificationMessage".to_string());
    v.push(format!("per-round-{}", round % 8));
    v
}

#[test]
fn concurrent_interning_converges_and_stays_bounded() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 200;

    let before = interned_count();
    let barrier = Barrier::new(THREADS);

    let results: Vec<Vec<Interned>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let mut last = Vec::new();
                    for r in 0..ROUNDS {
                        last = names(t, r).iter().map(|n| intern(n)).collect();
                    }
                    // Threads visit the rotating set in different
                    // orders; sort (by content) so vectors align.
                    last.sort();
                    last
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every thread's final round interned the same name set (round
    // ROUNDS-1), so the handles must be pointer-identical across
    // threads: one entry per distinct string, however racy the inserts.
    let reference = &results[0];
    for other in &results[1..] {
        assert_eq!(reference.len(), other.len());
        for (a, b) in reference.iter().zip(other) {
            assert!(
                Interned::ptr_eq(a, b),
                "two threads hold different entries for {a:?}"
            );
        }
    }

    // Bounded: the workload touches 32 rotating names + 2 shared names
    // + 8 per-round names = at most 42 new entries, no matter how many
    // thread×round combinations raced to insert them.
    let added = interned_count() - before;
    assert!(added <= 42, "interner grew by {added} entries (> 42)");

    // And re-interning is a pure lookup: no growth on a second pass.
    let mid = interned_count();
    for t in 0..THREADS {
        for n in names(t, ROUNDS - 1) {
            intern(&n);
        }
    }
    assert_eq!(interned_count(), mid, "re-interning grew the table");
}

#[test]
fn interned_equality_and_borrowing_work_across_threads() {
    let a = intern("cross-thread-name");
    let b = thread::spawn(|| intern("cross-thread-name"))
        .join()
        .unwrap();
    assert!(Interned::ptr_eq(&a, &b));
    assert_eq!(a, "cross-thread-name");
    assert_eq!(a.as_str(), b.as_str());
}
