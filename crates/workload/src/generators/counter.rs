//! The counter generator (insert key allocation).

/// Monotonically increasing counter starting at `start` — YCSB uses this to
/// allocate the key of each newly inserted record.
#[derive(Debug, Clone)]
pub struct CounterGenerator {
    next: u64,
}

impl CounterGenerator {
    /// Create a counter whose first value is `start`.
    pub fn new(start: u64) -> Self {
        CounterGenerator { next: start }
    }

    /// The value the next call to [`allocate`](Self::allocate) will return.
    pub fn peek(&self) -> u64 {
        self.next
    }

    /// Allocate the next value.
    pub fn allocate(&mut self) -> u64 {
        let v = self.next;
        self.next += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let mut g = CounterGenerator::new(100);
        assert_eq!(g.peek(), 100);
        assert_eq!(g.allocate(), 100);
        assert_eq!(g.allocate(), 101);
        assert_eq!(g.peek(), 102);
    }
}
