//! Output checks. Every failed check makes the run's result
//! `"correct": false` and the process exit non-zero.

use stabilizer_core::SeqNo;

/// Collected check failures (the first few are kept verbatim).
#[derive(Debug, Default)]
pub struct Checks {
    failures: u64,
    first: Vec<String>,
}

impl Checks {
    /// Record a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failure.
    pub fn fail(&mut self, what: String) {
        self.failures += 1;
        if self.first.len() < 20 {
            self.first.push(what);
        }
    }

    /// True when no check failed.
    pub fn ok(&self) -> bool {
        self.failures == 0
    }

    /// The first recorded failures.
    pub fn messages(&self) -> &[String] {
        &self.first
    }
}

/// Gapless, exactly-once FIFO delivery of one origin's stream at one
/// mirror: sequence numbers must arrive as 1, 2, 3, ...
#[derive(Debug, Clone, Default)]
pub struct Fifo {
    delivered: SeqNo,
    violations: u64,
    first_violation: Option<(SeqNo, SeqNo)>,
}

impl Fifo {
    /// Account one delivery of `seq`.
    pub fn on_deliver(&mut self, seq: SeqNo) {
        if seq == self.delivered + 1 {
            self.delivered = seq;
        } else {
            self.violations += 1;
            self.first_violation
                .get_or_insert((self.delivered + 1, seq));
        }
    }

    /// Highest in-order sequence delivered.
    pub fn delivered(&self) -> SeqNo {
        self.delivered
    }

    /// Report into `checks`, requiring the stream to end at `last`.
    pub fn check(&self, checks: &mut Checks, what: &str, last: SeqNo) {
        if let Some((want, got)) = self.first_violation {
            checks.fail(format!(
                "{what}: {} out-of-order deliveries (expected seq {want}, got {got})",
                self.violations
            ));
        }
        checks.expect(self.delivered == last, || {
            format!("{what}: delivered through {} of {last}", self.delivered)
        });
    }
}

/// Monotonicity of one frontier within a generation.
#[derive(Debug, Clone, Default)]
pub struct Monotone {
    last: Option<(u32, SeqNo)>,
    regressions: u64,
}

impl Monotone {
    /// Account one frontier update.
    pub fn on_update(&mut self, generation: u32, seq: SeqNo) {
        if let Some((g, s)) = self.last {
            if g == generation && seq < s {
                self.regressions += 1;
            }
        }
        self.last = Some((generation, seq));
    }

    /// Report regressions into `checks`.
    pub fn check(&self, checks: &mut Checks, what: &str) {
        checks.expect(self.regressions == 0, || {
            format!("{what}: frontier regressed {} times", self.regressions)
        });
    }
}
