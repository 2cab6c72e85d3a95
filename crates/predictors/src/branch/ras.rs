//! Return Address Stack (Table 1: 32 entries).
//!
//! Circular stack: pushes past capacity overwrite the oldest entry, pops of
//! an empty stack return `None` (the fetch unit then treats the return as a
//! BTB-predicted indirect jump).

/// Circular return-address stack.
#[derive(Clone, Debug)]
pub struct ReturnStack {
    slots: Vec<u32>,
    top: usize,
    depth: usize,
}

impl ReturnStack {
    /// Creates a RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        ReturnStack { slots: vec![0; capacity], top: 0, depth: 0 }
    }

    /// The paper's 32-entry configuration.
    pub fn paper() -> Self {
        Self::new(32)
    }

    /// Pushes a return address (on a call).
    pub fn push(&mut self, ret: u32) {
        self.top = (self.top + 1) % self.slots.len();
        self.slots[self.top] = ret;
        self.depth = (self.depth + 1).min(self.slots.len());
    }

    /// Pops the predicted return address (on a return).
    pub fn pop(&mut self) -> Option<u32> {
        if self.depth == 0 {
            return None;
        }
        let v = self.slots[self.top];
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.depth -= 1;
        Some(v)
    }

    /// Current number of valid entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.slots.len() as u64 * 32
    }
}

impl crate::snapshot::Snapshot for ReturnStack {
    fn snapshot(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.slots.len());
        for &s in &self.slots {
            w.put_u32(s);
        }
        w.put_usize(self.top);
        w.put_usize(self.depth);
    }

    fn restore(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        use crate::snapshot::SnapError;
        if r.get_usize()? != self.slots.len() {
            return Err(SnapError::new("ras size mismatch"));
        }
        for s in &mut self.slots {
            *s = r.get_u32()?;
        }
        let top = r.get_usize()?;
        let depth = r.get_usize()?;
        if top >= self.slots.len() || depth > self.slots.len() {
            return Err(SnapError::new("ras cursor out of range"));
        }
        self.top = top;
        self.depth = depth;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnStack::new(8);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), Some(1));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_overwrites_oldest() {
        let mut ras = ReturnStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // overwrites 1
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        // Depth capped at capacity: the overwritten entry is gone.
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn deep_recursion_wraps_gracefully() {
        let mut ras = ReturnStack::paper();
        for i in 0..100u32 {
            ras.push(i);
        }
        assert_eq!(ras.depth(), 32);
        // The 32 most recent returns predict correctly.
        for i in (68..100).rev() {
            assert_eq!(ras.pop(), Some(i));
        }
        assert_eq!(ras.pop(), None);
    }
}
