//! What a core was charged, as totals: one fixed table of
//! `{events, cycles, bytes, ops}` per [`OpKind`].
//!
//! Totals, not a log. A simulated core lives as long as the server in
//! front of it, and a server's memory must not grow with the number of
//! requests it has served — so a charge adds four integers to its
//! kind's row and nothing is kept per charge. The table is `Copy`
//! (pinned below): no field can ever own heap.

use std::fmt;

/// Category of a charged operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// MXU matrix multiplication.
    MatMul,
    /// Vector-unit elementwise operation (add, multiply, divide…).
    Elementwise,
    /// Weight FIFO load.
    WeightLoad,
    /// Inter-core collective (`cross_replica_sum`).
    Collective,
}

/// Rows of the [`Trace`] table: one per [`OpKind`] (`Collective` is
/// last).
const KINDS: usize = OpKind::Collective as usize + 1;

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::MatMul => "matmul",
            OpKind::Elementwise => "elementwise",
            OpKind::WeightLoad => "weight-load",
            OpKind::Collective => "collective",
        };
        f.write_str(s)
    }
}

/// Per-kind totals of everything a core was charged: each column is
/// indexed by `OpKind as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Trace {
    events: [u64; KINDS],
    cycles: [u64; KINDS],
    bytes: [u64; KINDS],
    ops: [u64; KINDS],
}

// The type-level pin: a field that owns heap is not `Copy`, and stops
// this compiling.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Trace>();
};

impl Trace {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one charge of `kind` to its row.
    pub fn record(&mut self, kind: OpKind, cycles: u64, bytes: u64, ops: u64) {
        let row = kind as usize;
        self.events[row] += 1;
        self.cycles[row] += cycles;
        self.bytes[row] += bytes;
        self.ops[row] += ops;
    }

    /// Number of recorded charges.
    pub fn len(&self) -> usize {
        self.events.iter().sum::<u64>() as usize
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cycles across all kinds.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Total arithmetic operations across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Total bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Cycles attributed to one kind of operation.
    pub fn cycles_of(&self, kind: OpKind) -> u64 {
        self.cycles[kind as usize]
    }

    /// Zeroes every row.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: &mut Trace, kind: OpKind, cycles: u64) {
        t.record(kind, cycles, cycles * 2, cycles * 3);
    }

    #[test]
    fn totals_accumulate() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        record(&mut t, OpKind::MatMul, 10);
        record(&mut t, OpKind::WeightLoad, 5);
        record(&mut t, OpKind::MatMul, 7);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_cycles(), 22);
        assert_eq!(t.total_bytes(), 44);
        assert_eq!(t.total_ops(), 66);
        assert_eq!(t.cycles_of(OpKind::MatMul), 17);
        assert_eq!(t.cycles_of(OpKind::Collective), 0);
    }

    #[test]
    fn clear_empties_log() {
        let mut t = Trace::new();
        record(&mut t, OpKind::Elementwise, 3);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.total_cycles(), 0);
    }
}
