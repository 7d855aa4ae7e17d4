//! Recorded workloads: the arrival/change sequence of a simulation,
//! decoupled from its dynamics.
//!
//! A [`FlowTrace`] is everything about a [`crate::Simulator`] run that
//! does *not* depend on how fast flows drain: when flows arrive, which
//! DC pair and size each one drew (or that the capacity clamp thinned
//! the arrival away), and how much traffic each matrix change moved.
//! [`crate::Simulator::trace`] materializes one in O(flows) without
//! running any water-filling; [`FlowTrace::replay`] feeds it back
//! through the exact event loop and reproduces
//! [`crate::Simulator::run`] float-for-float.
//!
//! Generation is one loop, [`crate::Simulator::trace_with`], which hands
//! each arrival to a sink as it is drawn; `trace` is the sink that
//! collects them, and a consumer that folds arrivals on the fly (the
//! decomposed estimator) never holds the list. Draws come from exact
//! tables: one threshold per DC pair, rebuilt at every matrix change,
//! and the flow-size CDF's precomputed anchor logs
//! ([`crate::workloads::SizeSampler`]). For every uniform variate they
//! give the same pair and size, bit for bit, as a sequential scan of the
//! pair weights and a per-draw log interpolation, so a trace does not
//! depend on how it is drawn.
//!
//! The split is what makes decomposed (per-link) flow simulation
//! honest: `iris-flowsim` estimates FCTs from the *same trace* the
//! exact simulator would consume, so a validation run compares two
//! estimators over one workload rather than two workloads.

use crate::engine::{drive, CapacityEvent, EventSource, FabricModel, FlowRecord};
use crate::topology::SimTopology;
use serde::{Deserialize, Serialize};

/// One admitted flow in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceFlow {
    /// Unordered DC pair (i < j).
    pub pair: (usize, usize),
    /// Flow size, bytes.
    pub size_bytes: f64,
}

/// One arrival *tick* of the Poisson process. `flow` is `None` when the
/// capacity clamp thinned the arrival away — the tick still advanced
/// simulated time and consumed RNG draws, so replay must observe it to
/// stay float-identical to the live run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceArrival {
    /// Arrival time, s.
    pub start_s: f64,
    /// The admitted flow, or `None` for a thinned arrival.
    pub flow: Option<TraceFlow>,
}

/// A fully materialized simulation workload: every arrival tick, every
/// matrix-change magnitude, and the scheduling constants needed to
/// replay them. Serializable — this is the unit a distributed
/// flow-simulation job regenerates from a [`crate::SimConfig`] recipe
/// (shipping the recipe, not the trace, keeps jobs under the wire
/// frame cap at 10⁶⁺ flows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowTrace {
    /// Data centers in the topology the trace was generated against.
    pub n_dcs: usize,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Seconds between matrix changes (`None` = static traffic).
    pub change_interval_s: Option<f64>,
    /// Fabric behaviour (reconfiguration outages or EPS).
    pub fabric: FabricModel,
    /// Scheduled capacity disturbances.
    pub capacity_events: Vec<CapacityEvent>,
    /// Every arrival tick, in time order.
    pub arrivals: Vec<TraceArrival>,
    /// Moved-traffic fraction of each matrix change, in time order.
    pub change_fractions: Vec<f64>,
}

impl FlowTrace {
    /// Number of admitted flows (thinned arrivals excluded).
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.arrivals.iter().filter(|a| a.flow.is_some()).count()
    }

    /// Total admitted bytes.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.arrivals
            .iter()
            .filter_map(|a| a.flow)
            .map(|f| f.size_bytes)
            .sum()
    }

    /// Run the exact fluid simulation over this trace. Produces the
    /// same records, in the same order, with bit-identical floats, as
    /// the [`crate::Simulator::run`] call that would have generated the
    /// trace — both feed the engine's single event loop; only the
    /// source of arrivals differs.
    ///
    /// # Panics
    ///
    /// Panics if `topo` does not have the DC count the trace was
    /// generated against.
    #[must_use]
    pub fn replay(&self, topo: &SimTopology) -> Vec<FlowRecord> {
        assert_eq!(
            topo.n_dcs, self.n_dcs,
            "trace was generated for a {}-DC topology",
            self.n_dcs
        );
        let mut src = TraceSource {
            trace: self,
            arrival_idx: 0,
            change_idx: 0,
            next_change: self.change_interval_s.unwrap_or(f64::INFINITY),
        };
        drive(
            topo,
            self.duration_s,
            self.fabric,
            &self.capacity_events,
            &mut src,
        )
    }
}

/// List-backed [`EventSource`]: replays a recorded trace through the
/// shared event loop.
struct TraceSource<'a> {
    trace: &'a FlowTrace,
    arrival_idx: usize,
    change_idx: usize,
    next_change: f64,
}

impl EventSource for TraceSource<'_> {
    fn next_arrival(&self) -> f64 {
        self.trace
            .arrivals
            .get(self.arrival_idx)
            .map_or(f64::INFINITY, |a| a.start_s)
    }

    fn next_change(&self) -> f64 {
        self.next_change
    }

    fn pop_arrival(&mut self, _now: f64) -> Option<((usize, usize), f64)> {
        let arrival = &self.trace.arrivals[self.arrival_idx];
        self.arrival_idx += 1;
        arrival.flow.map(|f| (f.pair, f.size_bytes))
    }

    fn pop_change(&mut self, now: f64) -> f64 {
        let moved = self
            .trace
            .change_fractions
            .get(self.change_idx)
            .copied()
            .unwrap_or(0.0);
        self.change_idx += 1;
        self.next_change = now + self.change_interval_s();
        moved
    }
}

impl TraceSource<'_> {
    fn change_interval_s(&self) -> f64 {
        self.trace.change_interval_s.expect("change scheduled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FabricModel, SimConfig, Simulator};
    use crate::traffic::{ChangeModel, TrafficMatrix};
    use crate::workloads::FlowSizeDist;

    fn config(fabric: FabricModel, seed: u64) -> SimConfig {
        SimConfig {
            duration_s: 4.0,
            utilization: 0.6,
            flow_sizes: FlowSizeDist::facebook_web(),
            change_interval_s: Some(0.8),
            change_model: ChangeModel::Unbounded,
            fabric,
            capacity_events: Vec::new(),
            seed,
        }
    }

    #[test]
    fn replay_is_bit_identical_to_run() {
        for fabric in [FabricModel::Eps, FabricModel::Iris { outage_s: 0.07 }] {
            for seed in [7, 1234] {
                let topo = SimTopology::hub_and_spoke(5, 1.0);
                let matrix = TrafficMatrix::heavy_tailed(5, 11);
                let cfg = config(fabric, seed);
                let live = Simulator::new(topo.clone(), matrix.clone(), cfg.clone()).run();
                let trace = Simulator::new(topo.clone(), matrix, cfg).trace();
                let replayed = trace.replay(&topo);
                assert_eq!(live.len(), replayed.len());
                for (a, b) in live.iter().zip(&replayed) {
                    assert_eq!(a.pair, b.pair);
                    assert!(a.size_bytes == b.size_bytes, "{a:?} vs {b:?}");
                    assert!(a.start_s == b.start_s, "{a:?} vs {b:?}");
                    assert!(a.fct_s == b.fct_s, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn trace_survives_serde_round_trip() {
        let topo = SimTopology::hub_and_spoke(4, 1.0);
        let matrix = TrafficMatrix::heavy_tailed(4, 3);
        let trace = Simulator::new(topo.clone(), matrix, config(FabricModel::Eps, 9)).trace();
        let json = serde_json::to_string(&trace).expect("serialize");
        let back: FlowTrace = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(trace, back);
        assert_eq!(trace.replay(&topo), back.replay(&topo));
    }

    #[test]
    fn trace_counts_changes_and_flows() {
        let topo = SimTopology::hub_and_spoke(4, 1.0);
        let matrix = TrafficMatrix::heavy_tailed(4, 3);
        let trace = Simulator::new(topo, matrix, config(FabricModel::Eps, 9)).trace();
        // duration 4.0, interval 0.8 → changes at 0.8,1.6,2.4,3.2.
        assert_eq!(trace.change_fractions.len(), 4);
        assert!(trace.flow_count() > 100);
        assert!(trace.total_bytes() > 0.0);
        for pair in trace.arrivals.windows(2) {
            assert!(pair[0].start_s <= pair[1].start_s, "arrivals out of order");
        }
    }
}
