//! Properties read off this crate's two process-wide counters: the
//! interner's entry count and the shared-subtree serialization count.
//!
//! Either moves whenever anything else in the process interns a new
//! name or serializes a shared subtree — which the crate's unit tests
//! do all the time — so the tests that compare a count before and
//! after have a process to themselves (this file) and take one guard
//! each, which leaves nothing running beside the section they measure.

use std::sync::{Barrier, Mutex};
use std::thread;
use wsm_xml::{
    intern, interned_count, shared_serialization_count, to_string, Element, Interned, Node,
    SharedElement,
};

static ALONE: Mutex<()> = Mutex::new(());

#[test]
fn shared_subtree_serializes_once_across_documents() {
    let _alone = ALONE.lock().unwrap();
    let shared = SharedElement::new(Element::ns("urn:app", "ev", "app").with_text("payload"));
    let before = shared_serialization_count();
    for i in 0..16 {
        let mut doc = Element::ns("urn:s", "Envelope", "s").with_attr("n", i.to_string());
        doc.children.push(Node::Shared(shared.clone()));
        let _ = to_string(&doc);
    }
    assert_eq!(shared_serialization_count() - before, 1);
}

#[test]
fn reinterning_does_not_grow_the_table() {
    let _alone = ALONE.lock().unwrap();
    let _ = intern("urn:intern-test:growth");
    let before = interned_count();
    for _ in 0..100 {
        let _ = intern("urn:intern-test:growth");
    }
    assert_eq!(interned_count(), before);
}

#[test]
fn well_known_names_are_preseeded() {
    let _alone = ALONE.lock().unwrap();
    // Seeded names must resolve to the seeded entry, not a new one.
    let before = interned_count();
    let _ = intern("http://www.w3.org/2003/05/soap-envelope");
    let _ = intern("Envelope");
    let _ = intern("");
    assert_eq!(interned_count(), before);
}

/// A handle is a plain pointer into the table: cloning and dropping
/// handles, from any number of threads, neither touches the table nor
/// runs any code at drop.
#[test]
fn clone_and_drop_leave_the_table_alone() {
    const THREADS: usize = 4;
    const PAIRS: usize = 10_000;

    let _alone = ALONE.lock().unwrap();
    assert!(
        !std::mem::needs_drop::<Interned>(),
        "a handle owns nothing: no reference count to release"
    );
    let name = intern("urn:intern-test:handles");
    let before = interned_count();
    let barrier = Barrier::new(THREADS);
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..PAIRS {
                    // Goes out of scope each round: the drop half.
                    let copy = std::hint::black_box(name.clone());
                    assert!(Interned::ptr_eq(&copy, &name));
                }
            });
        }
    });
    assert_eq!(interned_count(), before);
    assert!(Interned::ptr_eq(&name, &intern("urn:intern-test:handles")));
}
