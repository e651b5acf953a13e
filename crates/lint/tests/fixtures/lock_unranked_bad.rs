//! Seeded violation: a mutex the rank table does not know (no field
//! name of the lock order: `queue`, `state`, `fairness`/`stripe`,
//! `slot`), locked in the arbiter crate. The rule cannot place it in the
//! order, so it fires unless the site carries an annotated
//! `// lint: allow(lock) <reason>`, as the second fn does. The
//! diagnostic must land on the first `self.cache.lock()`.

struct Fixture {
    cache: Mutex<Vec<u64>>,
}

impl Fixture {
    fn unranked(&self) -> usize {
        self.cache.lock().len() // line 14: unclassified lock
    }

    fn annotated(&self) -> usize {
        // lint: allow(lock) leaf lock held for one read; never nests
        self.cache.lock().len()
    }
}
