//! The network model.
//!
//! The shim nodes, clients, verifier and storage sit in the home site
//! (North California, where the paper deploys its OCI machines with 10 GiB
//! NICs); executors run in whichever region they were spawned in. A
//! message's delivery delay is propagation (per the region latency table)
//! plus transmission (size divided by the NIC bandwidth), plus a small
//! fixed per-message overhead for the socket stack.

use sbft_types::{Region, SimDuration};

/// Propagation/transmission parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// One-way latency between two components in the home site.
    pub local_latency: SimDuration,
    /// Fixed per-message software overhead (socket, syscalls).
    pub per_message_overhead: SimDuration,
    /// NIC bandwidth in bytes per second (10 GiB NICs in the paper).
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            local_latency: SimDuration::from_micros(250),
            per_message_overhead: SimDuration::from_micros(15),
            bandwidth_bytes_per_sec: 10.0 * 1024.0 * 1024.0 * 1024.0 / 8.0,
        }
    }
}

impl NetworkModel {
    /// Transmission time of a message of `bytes` bytes.
    #[must_use]
    fn transmission(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Delay for a message exchanged inside the home site (client ↔ shim ↔
    /// verifier ↔ storage).
    #[must_use]
    pub fn local_delay(&self, bytes: usize) -> SimDuration {
        self.local_latency + self.per_message_overhead + self.transmission(bytes)
    }

    /// Delay for a message between the home site and an executor running in
    /// `region`.
    #[must_use]
    pub fn region_delay(&self, region: Region, bytes: usize) -> SimDuration {
        let propagation =
            SimDuration::from_secs_f64(region.one_way_latency_ms_from_home() / 1000.0);
        propagation + self.per_message_overhead + self.transmission(bytes)
    }

    /// One-way propagation between two arbitrary regions. Within a region
    /// it is the local (home-site) latency; across regions the model
    /// routes over the home-site backbone (the triangle through North
    /// California the latency table is anchored to), summing both legs.
    /// Only the relative ordering matters — what the geo experiments need
    /// is that a same-region storage fetch is far cheaper than any
    /// cross-region one.
    #[must_use]
    fn inter_region_one_way(&self, a: Region, b: Region) -> SimDuration {
        if a == b {
            return self.local_latency;
        }
        SimDuration::from_secs_f64(
            (a.one_way_latency_ms_from_home() + b.one_way_latency_ms_from_home()) / 1000.0,
        )
    }

    /// Delay for a message between components in two (possibly equal)
    /// regions — e.g. an executor fetching from a geo-partitioned storage
    /// partition homed elsewhere.
    #[must_use]
    pub fn inter_region_delay(&self, a: Region, b: Region, bytes: usize) -> SimDuration {
        self.inter_region_one_way(a, b) + self.per_message_overhead + self.transmission(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_delay_is_dominated_by_latency_for_small_messages() {
        let net = NetworkModel::default();
        let d = net.local_delay(200);
        assert!(d >= net.local_latency);
        assert!(d < SimDuration::from_millis(1));
    }

    #[test]
    fn transmission_grows_linearly_with_size() {
        // Exact proportionality: 1000× the bytes must take 1000× the
        // time. The earlier form of this assertion had an `|| big > small`
        // escape hatch that made it a tautology. Sizes are large enough
        // that `SimDuration`'s microsecond grid cannot mask a broken
        // bytes→delay mapping (10 MB already transmits for ~7450 µs).
        let net = NetworkModel::default();
        let small = net.transmission(10_000_000);
        let big = net.transmission(10_000_000_000);
        assert!(big > small);
        let ratio = big.as_secs_f64() / small.as_secs_f64();
        assert!(
            (ratio - 1000.0).abs() < 1.0,
            "transmission must scale linearly with size, got ratio {ratio}"
        );
    }

    #[test]
    fn remote_regions_are_slower_than_home() {
        let net = NetworkModel::default();
        let home = net.region_delay(Region::NorthCalifornia, 1_000);
        let singapore = net.region_delay(Region::Singapore, 1_000);
        assert!(singapore > home);
        assert!(singapore >= SimDuration::from_millis(80));
    }

    #[test]
    fn big_batches_cost_more_to_ship() {
        let net = NetworkModel::default();
        assert!(net.local_delay(8_000 * 53) > net.local_delay(100 * 53));
    }

    #[test]
    fn inter_region_latency_is_symmetric_and_local_within_a_region() {
        let net = NetworkModel::default();
        assert_eq!(
            net.inter_region_one_way(Region::Oregon, Region::Oregon),
            net.local_latency,
            "a same-region fetch costs only the local hop"
        );
        assert_eq!(
            net.inter_region_one_way(Region::Oregon, Region::Seoul),
            net.inter_region_one_way(Region::Seoul, Region::Oregon),
        );
        // A cross-region fetch dwarfs a local one — the gap plan-aware
        // placement exists to close.
        assert!(
            net.inter_region_delay(Region::Oregon, Region::Seoul, 1_000)
                > net.inter_region_delay(Region::Oregon, Region::Oregon, 1_000)
                    + SimDuration::from_millis(50)
        );
    }
}
