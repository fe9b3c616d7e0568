//! Edge-server queueing fidelity.
//!
//! The paper treats `v_{i,n}` as a per-sample computation cost summed
//! into the objective; real edge clusters additionally queue requests
//! when the offered load approaches capacity. This module adds an
//! observational queueing model on top of the slot loop: each edge is
//! an M/D/c station (Poisson arrivals — which the workload generator
//! produces — deterministic service time `v_{i,n}`, `c` parallel
//! servers), and the simulator records per-slot utilization and an
//! estimated mean queueing delay.
//!
//! The metric is *observational*: it does not feed back into the
//! paper's objective (keeping the reproduction faithful), but it lets
//! capacity planning questions — "how many servers must an edge
//! provision so the chosen models don't saturate it?" — be asked of
//! the same runs (see the `edge_capacity_planning` example).

use serde::{Deserialize, Serialize};

/// Queueing configuration of the edge clusters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueingConfig {
    /// Parallel servers per edge (`c`).
    pub servers_per_edge: usize,
    /// Wall-clock slot length in milliseconds (paper: 15 minutes).
    pub slot_ms: f64,
}

impl Default for QueueingConfig {
    /// One inference server per edge: at the paper-default workload
    /// (up to ~6000 arrivals per 15-minute slot) the busiest station's
    /// rush hour pushes a single server to ≈ 0.8 utilization with the
    /// slowest model — the regime where the provisioning question is
    /// interesting. Typical off-peak slots idle far below that, as
    /// real edge clusters do.
    fn default() -> Self {
        Self {
            servers_per_edge: 1,
            slot_ms: 15.0 * 60.0 * 1000.0,
        }
    }
}

impl QueueingConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a message on zero servers or a non-positive slot length.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers_per_edge == 0 {
            return Err("need at least one server".into());
        }
        if !(self.slot_ms > 0.0 && self.slot_ms.is_finite()) {
            return Err("slot length must be positive".into());
        }
        Ok(())
    }

    /// Offered utilization `ρ = λ·S / c` of one slot: `requests`
    /// arrivals each needing `service_ms` of work, spread over the slot
    /// across `c` servers. May exceed 1 (overload).
    #[must_use]
    pub fn utilization(&self, requests: f64, service_ms: f64) -> f64 {
        (requests * service_ms) / (self.slot_ms * self.servers_per_edge as f64)
    }

    /// Mean queueing delay (ms) of an M/D/c station at the given
    /// utilization, by the standard M/M/c-scaled approximation
    /// `W_q(M/D/c) ≈ ½ · W_q(M/M/c)` with the Sakasegawa closed form
    /// `W_q(M/M/c) ≈ S · ρ^{√(2(c+1))−1} / (c (1 − ρ))`.
    ///
    /// Saturated slots (`ρ ≥ 1`) report the backlog-drain bound: the
    /// excess work of the slot, `(ρ − 1)·slot/2 + slot/2`, i.e. the
    /// mean wait if the surplus queues through the slot.
    #[must_use]
    pub fn mean_wait_ms(&self, requests: f64, service_ms: f64) -> f64 {
        if requests <= 0.0 || service_ms <= 0.0 {
            return 0.0;
        }
        let c = self.servers_per_edge as f64;
        let rho = self.utilization(requests, service_ms);
        if rho >= 1.0 {
            // Overload: on average half the slot's surplus work queues.
            return 0.5 * self.slot_ms * (rho - 1.0) + 0.5 * self.slot_ms;
        }
        let exponent = (2.0 * (c + 1.0)).sqrt() - 1.0;
        let mmc_wait = service_ms * rho.powf(exponent) / (c * (1.0 - rho));
        0.5 * mmc_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(c: usize) -> QueueingConfig {
        QueueingConfig {
            servers_per_edge: c,
            slot_ms: 1000.0,
        }
    }

    #[test]
    fn utilization_formula() {
        let q = cfg(2);
        // 10 requests × 100 ms = 1000 ms of work over 2000 ms capacity.
        assert!((q.utilization(10.0, 100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wait_is_zero_without_load() {
        let q = cfg(4);
        assert_eq!(q.mean_wait_ms(0.0, 50.0), 0.0);
        assert_eq!(q.mean_wait_ms(10.0, 0.0), 0.0);
    }

    #[test]
    fn wait_increases_with_utilization() {
        let q = cfg(4);
        let mut last = 0.0;
        for requests in [5.0, 10.0, 20.0, 30.0, 38.0] {
            let w = q.mean_wait_ms(requests, 100.0);
            assert!(w >= last, "wait must be monotone in load");
            assert!(w.is_finite());
            last = w;
        }
    }

    #[test]
    fn wait_blows_up_near_saturation() {
        let q = cfg(1);
        let light = q.mean_wait_ms(2.0, 100.0); // ρ = 0.2
        let heavy = q.mean_wait_ms(9.5, 100.0); // ρ = 0.95
        assert!(
            heavy > 20.0 * light,
            "near-saturation wait should dwarf light load: {light} vs {heavy}"
        );
    }

    #[test]
    fn overload_reports_backlog_bound() {
        let q = cfg(1);
        // ρ = 2: half the slot of surplus work + half-slot mean.
        let w = q.mean_wait_ms(20.0, 100.0);
        assert!((w - (0.5 * 1000.0 + 0.5 * 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn md1_is_half_mm1_at_single_server() {
        // For c = 1 the Sakasegawa form reduces to ρS/(1−ρ); the M/D/1
        // wait is exactly half of the M/M/1 wait.
        let q = cfg(1);
        let rho: f64 = 0.5;
        let service = 100.0;
        let requests = rho * q.slot_ms / service;
        let expected_mm1 = service * rho / (1.0 - rho);
        let w = q.mean_wait_ms(requests, service);
        assert!(
            (w - 0.5 * expected_mm1).abs() < 1e-9,
            "M/D/1 wait {w} vs half-M/M/1 {}",
            0.5 * expected_mm1
        );
    }

    #[test]
    #[should_panic(expected = "need at least one server")]
    fn zero_servers_rejected() {
        QueueingConfig {
            servers_per_edge: 0,
            slot_ms: 1.0,
        }
        .validate()
        .expect("invalid config");
    }
}
