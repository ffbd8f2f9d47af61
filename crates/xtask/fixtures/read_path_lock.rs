//! Known-bad corpus for the `read-path-lock` rule: the pool read path
//! (`read_entries*` / `entry_state` / `state_window`) must resolve against
//! epoch-published snapshots via `handle_of`; shard guards inside those
//! bodies must be flagged, whatever suffix the name carries. Structural
//! operations may still lock.

impl Pool {
    fn read_entries(&self, id: AllocId, start: u64, out: &mut [Entry]) -> Result<(), Error> {
        self.guard_of(id)?.read_entries(id, start, out) // expect(read-path-lock)
    }

    fn entry_state(&self, id: AllocId, index: u64) -> Result<EntryState, Error> {
        let guard: MutexGuard<'_, Device> = self.inner.lock(); // expect(read-path-lock)
        guard.entry_state(id, index)
    }

    fn state_window(&self, id: AllocId, start: u64, len: u64) -> Result<Window, Error> {
        self.handle_of(id)?.state_window(start, len)
    }

    fn read_entries_via_guard(&self, id: AllocId, start: u64, n: u64) -> Result<Stats, Error> {
        let device = self.shard(id.shard()); // expect(read-path-lock)
        device.read_entries_collect(start, n)
    }

    fn alloc(&self, entries: u64) -> Result<AllocId, Error> {
        self.shard(0).alloc(entries)
    }
}
