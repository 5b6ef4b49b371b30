//! Deterministic failpoint triggering shared by every chaos harness in
//! the workspace.
//!
//! A *failpoint* decides whether one particular operation fails, as a
//! pure function of `(seed, domain, key, op)` — never of wall clock,
//! thread id, or global operation order. `domain` separates independent
//! fault classes (write errors vs. torn files, disconnects vs. stalls),
//! `key` pins the schedule to one logical stream (a fleet ticket, a
//! bridge connection), and `op` is that stream's own sequential
//! operation counter. Because every input is stream-local, the same
//! seed reproduces the same faults at the same operations regardless of
//! worker count or scheduling — the property all of the workspace's
//! same-seed digest-equality chaos tests stand on.
//!
//! Two consumers share this module so the idiom cannot drift:
//! `iobt-fleet`'s `FailingStore` (checkpoint-IO faults, PR 9) and
//! `iobt-bridge`'s `FaultyTransport` (edge-transport faults). Their
//! profile structs are thin per-domain rate tables over [`fires`].

use iobt_obs::{fnv1a, FNV_OFFSET};

/// FNV-1a over the four schedule words. Deterministic and
/// domain-separated; not cryptographic, which is fine for a failure
/// schedule.
pub fn failpoint_hash(seed: u64, domain: u64, key: u64, op: u64) -> u64 {
    [seed, domain, key, op]
        .iter()
        .fold(FNV_OFFSET, |h, word| fnv1a(h, &word.to_le_bytes()))
}

/// True when the failpoint for `(seed, domain, key, op)` lands on a
/// `1-in-one_in` slot. `one_in == 0` disables the domain entirely;
/// `one_in == 1` fires on every operation.
pub fn fires(seed: u64, domain: u64, one_in: u64, key: u64, op: u64) -> bool {
    one_in != 0 && failpoint_hash(seed, domain, key, op).is_multiple_of(one_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_sensitive_to_every_word() {
        let base = failpoint_hash(1, 2, 3, 4);
        assert_eq!(base, failpoint_hash(1, 2, 3, 4));
        assert_ne!(base, failpoint_hash(9, 2, 3, 4), "seed separates");
        assert_ne!(base, failpoint_hash(1, 9, 3, 4), "domain separates");
        assert_ne!(base, failpoint_hash(1, 2, 9, 4), "key separates");
        assert_ne!(base, failpoint_hash(1, 2, 3, 9), "op separates");
    }

    #[test]
    fn rate_zero_disables_and_rate_one_always_fires() {
        assert!((0..64).all(|op| !fires(7, 1, 0, 5, op)));
        assert!((0..64).all(|op| fires(7, 1, 1, 5, op)));
    }

    #[test]
    fn fractional_rates_fire_sometimes_but_not_always() {
        let hits: Vec<bool> = (0..64).map(|op| fires(7, 1, 3, 5, op)).collect();
        assert!(hits.iter().any(|&f| f), "1-in-3 fires somewhere in 64 ops");
        assert!(!hits.iter().all(|&f| f), "1-in-3 does not fire everywhere");
    }
}
