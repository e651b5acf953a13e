//! Seeded violation: a helper whose signature returns a `*Guard` type
//! holds every rank it acquires for as long as its result stays bound,
//! the way the arbiter's `LedgerGuard::lock` holds the queue and the
//! shards. The fairness stripe ranks after the shards and is legal under
//! the guard; the queue is not. The diagnostic must land on the second
//! `self.queue.lock()`.

struct Fixture {
    queue: Mutex<QueueState>,
    shards: Vec<Shard>,
    fairness: Vec<Mutex<Counters>>,
}

impl Fixture {
    fn lock_all(&self) -> LedgerGuard<'_> {
        let q = self.queue.lock();
        let state = self.shards[0].state.lock();
        LedgerGuard { q, state }
    }

    fn stripe_under_the_guard(&self) -> u32 {
        let ledger = self.lock_all();
        let c = self.fairness[0].lock();
        ledger.free + c.granted
    }

    fn queue_under_the_guard(&self) -> u32 {
        let ledger = self.lock_all();
        let q = self.queue.lock(); // line 29: queue while the guard holds a shard
        ledger.free + q.pending
    }
}
