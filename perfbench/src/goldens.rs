//! Output goldens for the default seed, 42. `field` and `fleet` reuse
//! the `netsim_scale` 100k-node and `fleet_scale` 1,000-mission
//! configurations, so their fingerprints are the values committed in
//! `BENCH_netsim.json` and `BENCH_fleet.json`.

/// The seed the goldens were recorded with.
pub const DEFAULT_SEED: u64 = 42;

pub fn field(seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED).then_some(0x5d51_3bd9_497b_13db)
}

pub fn fleet(seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED).then_some(0xbcc3_5ec4_7ffd_7c0c)
}

/// `(end-state digest, mission metrics, delivered bridge frames)`,
/// recorded when the benchmark was written.
pub fn campaign(seed: u64) -> Option<(u64, u64, u64)> {
    (seed == DEFAULT_SEED).then_some((
        0x4cd8_4b96_c0eb_185a,
        0x5e19_666b_998a_8ce5,
        0xec77_2325_b793_bc7c,
    ))
}
