//! Seeded protocol mutations for mutation-testing the model checker.
//!
//! `SVC_MUTATE=<site>` activates exactly one deliberately-broken protocol
//! rule behind a test-only hook at a pinpointed site in the SVC, ARB or
//! SMP implementation. The model checker (`svc-check`) must detect every
//! site — that is the proof that its invariant and conformance oracles
//! have teeth. With the variable unset (every production run, every test
//! not explicitly spawning a mutant child process) the hooks are inert
//! and behavior is bit-identical to the unmutated code.
//!
//! The environment is read once per process via [`std::sync::OnceLock`],
//! so a hook costs one relaxed load on the hot paths it guards.

use std::sync::OnceLock;

/// One seeded protocol bug. Each variant names the rule it breaks and the
/// implementation site that hosts the hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// `SvcSystem::commit` (lazy designs): the flash-commit keeps the
    /// per-sub-block L bits instead of clearing them, so committed lines
    /// keep reporting stale use-before-define dependences.
    CommitKeepsLoadBits,
    /// `SvcSystem::squash_at`: a squashed task's speculative lines
    /// survive the squash instead of being invalidated.
    SquashKeepsLine,
    /// `SvcSystem` load paths: an exposed load does not set its L bit,
    /// so a later store by an older task misses the dependence violation.
    LoadSkipsLBit,
    /// `SvcSystem::apply_write_plan`: a store skips the per-sub-block
    /// invalidation of stale copies in other caches.
    StoreSkipsInvalidation,
    /// `SvcSystem::write_vol`: each member's Version Ordering List pointer
    /// names its predecessor instead of its successor, corrupting version
    /// order.
    VolSpliceBackwards,
    /// `ArbSystem::store`: the forward violation walk ignores the
    /// shadowing store of an intervening version, reporting spurious
    /// violations against shielded loads.
    ArbIgnoresShadow,
    /// `SmpSystem::bus_write`: a BusWrite does not invalidate clean
    /// copies in other caches, leaving stale data readable.
    SmpDropInvalidate,
}

impl Mutation {
    /// Every seeded mutation site, in a fixed documented order.
    pub const ALL: [Mutation; 7] = [
        Mutation::CommitKeepsLoadBits,
        Mutation::SquashKeepsLine,
        Mutation::LoadSkipsLBit,
        Mutation::StoreSkipsInvalidation,
        Mutation::VolSpliceBackwards,
        Mutation::ArbIgnoresShadow,
        Mutation::SmpDropInvalidate,
    ];

    /// The `SVC_MUTATE` key naming this site.
    pub fn key(self) -> &'static str {
        match self {
            Mutation::CommitKeepsLoadBits => "commit-keeps-load-bits",
            Mutation::SquashKeepsLine => "squash-keeps-line",
            Mutation::LoadSkipsLBit => "load-skips-l-bit",
            Mutation::StoreSkipsInvalidation => "store-skips-invalidation",
            Mutation::VolSpliceBackwards => "vol-splice-backwards",
            Mutation::ArbIgnoresShadow => "arb-ignores-shadow",
            Mutation::SmpDropInvalidate => "smp-drop-invalidate",
        }
    }

    /// Parses an `SVC_MUTATE` key.
    pub fn from_key(key: &str) -> Option<Mutation> {
        Mutation::ALL.into_iter().find(|m| m.key() == key)
    }

    /// The mutation this process runs with, if any.
    ///
    /// # Panics
    ///
    /// Panics (once, at first query) if `SVC_MUTATE` names an unknown
    /// site — a silent typo would make a mutation-kill run vacuous.
    pub fn active() -> Option<Mutation> {
        static ACTIVE: OnceLock<Option<Mutation>> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let key = std::env::var("SVC_MUTATE").ok()?;
            if key.is_empty() {
                return None;
            }
            match Mutation::from_key(&key) {
                Some(m) => Some(m),
                None => panic!(
                    "SVC_MUTATE={key:?} names no mutation site; known sites: {}",
                    Mutation::ALL.map(|m| m.key()).join(", ")
                ),
            }
        })
    }

    /// Whether this particular site is active in this process.
    #[inline]
    pub fn enabled(self) -> bool {
        Mutation::active() == Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::from_key(m.key()), Some(m));
        }
        assert_eq!(Mutation::from_key("no-such-site"), None);
    }

    #[test]
    fn inert_without_env() {
        // The test harness never sets SVC_MUTATE, so every site is off.
        // (Mutant children are spawned as separate processes.)
        assert_eq!(Mutation::active(), None);
        assert!(!Mutation::VolSpliceBackwards.enabled());
    }
}
