//! Known-bad corpus for the `nested-lock` rule: acquiring a second shard
//! lock while a `let`-bound guard is still in scope must be flagged;
//! sequential and loop-scoped acquisitions must not.

impl Pool {
    fn deadlock_prone(&self, a: usize, b: usize) -> u64 {
        let first = self.shard(a);
        let second = self.shard(b); // expect(nested-lock)
        first.used() + second.used()
    }

    fn temporary_while_held(&self, a: usize, b: usize) -> u64 {
        let guard = self.guard_of(a);
        guard.used() + self.shard(b).used() // expect(nested-lock)
    }

    fn raw_mutex_while_held(&self, a: usize) -> u64 {
        let guard = self.guard_of(a);
        guard.used() + self.total.lock().len() as u64 // expect(nested-lock)
    }

    fn sequential_is_fine(&self, a: usize, b: usize) -> u64 {
        let x = {
            let g = self.shard(a);
            g.used()
        };
        x + self.shard(b).used()
    }

    fn loop_scoped_is_fine(&self) -> u64 {
        let mut total = 0;
        for i in 0..self.shard_count() {
            let g = self.shard(i);
            total += g.used();
        }
        total
    }

    fn back_to_back_temporaries_are_fine(&self, a: usize, b: usize) -> u64 {
        self.shard(a).used() + self.shard(b).used()
    }
}
