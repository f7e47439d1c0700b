//! slimgen — the hospital-scale workload generator.
//!
//! The paper's motivating deployment is clinicians superimposing marks
//! over *thousands* of heterogeneous charts; the hand-written scenarios
//! elsewhere in this repository are tens of marks. This crate closes
//! that gap with three seeded, fully deterministic building blocks:
//!
//! * [`corpus`] — synthesize a hospital-scale corpus: thousands of base
//!   documents across all six base-application kinds, hundreds of
//!   thousands of marks with realistic skew (hot documents, clustered
//!   excerpt targets), and a pad world with deep bundle nesting.
//! * [`trace`] — generate and drive replayable traffic: mixed
//!   read/write/resolve/undo/commit operation streams through
//!   [`PadSession`](superimposed::slimpad::PadSession) against the
//!   WAL-logged store, with a running outcome digest and a count oracle.
//! * [`soak`] — the stress/soak harness: drive a trace against a
//!   generated corpus with invariant checkpoints (metamodel conformance
//!   plus the count oracle) and a mid-run crash/recovery through the
//!   fault-injecting VFS.
//! * [`chaos`] — the supervised-service chaos soak, once for both
//!   services: N interleaved sessions of trace traffic through
//!   `slimserve` with injected panics, I/O faults, clock stalls, and a
//!   mid-run crash, verdict = live view == serialized single-session
//!   replay of the acked ops == post-crash on-disk state. The pad target
//!   ([`chaos_pad`]) adds a base-layer fault storm and a
//!   quarantine-and-repair drill.
//!
//! Everything is a pure function of `(profile, seed)`: the same pair
//! reproduces the same corpus XML byte for byte and the same trace
//! digest, which is what lets the soak suite, the macro-bench reporter,
//! and slimcheck's seed corpora share one replayable workload. Replay a
//! report's seed with `cargo run -p slimgen -- --profile quick --seed
//! 0x…`.

pub mod chaos;
pub mod chaos_pad;
pub mod corpus;
pub mod seed_ops;
pub mod soak;
pub mod trace;

/// Workload size presets. `Quick` is the CI profile the acceptance
/// numbers are stated at (≥ 1,000 documents, ≥ 100,000 marks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Seconds-fast: unit tests and the `cargo test` soak.
    Smoke,
    /// The hospital-scale CI profile: ≥ 1,000 docs, ≥ 100,000 marks.
    Quick,
    /// Several times `Quick`, for manual stress runs.
    Full,
}

impl Profile {
    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Profile> {
        match name {
            "smoke" => Some(Profile::Smoke),
            "quick" => Some(Profile::Quick),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }

    /// Base documents generated per kind (six kinds).
    pub fn docs_per_kind(self) -> usize {
        match self {
            Profile::Smoke => 4,
            Profile::Quick => 170,
            Profile::Full => 500,
        }
    }

    /// Total marks created over the corpus.
    pub fn marks(self) -> usize {
        match self {
            Profile::Smoke => 600,
            Profile::Quick => 100_500,
            Profile::Full => 300_000,
        }
    }

    /// Bundles created in the pad world (beyond the root).
    pub fn bundles(self) -> usize {
        match self {
            Profile::Smoke => 24,
            Profile::Quick => 1_200,
            Profile::Full => 4_000,
        }
    }

    /// Scraps placed in the pad world.
    pub fn scraps(self) -> usize {
        match self {
            Profile::Smoke => 80,
            Profile::Quick => 4_000,
            Profile::Full => 12_000,
        }
    }

    /// Operations in a generated traffic trace.
    pub fn trace_ops(self) -> usize {
        match self {
            Profile::Smoke => 300,
            Profile::Quick => 1_500,
            Profile::Full => 6_000,
        }
    }
}

/// FNV-1a 64-bit — the digest all determinism claims are stated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a u64 (little-endian) into the digest.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.update(b"ab");
        let mut b = Digest::new();
        b.update(b"ba");
        assert_ne!(a, b);
        let mut c = Digest::new();
        c.update(b"a");
        c.update(b"b");
        let mut d = Digest::new();
        d.update(b"ab");
        assert_eq!(c, d, "digest folds a stream, not messages");
    }

    #[test]
    fn quick_profile_meets_the_acceptance_floor() {
        assert!(Profile::Quick.docs_per_kind() * 6 >= 1_000);
        assert!(Profile::Quick.marks() >= 100_000);
    }
}
