//! Greedy link clustering: simulate one representative per cluster.
//!
//! Most links in a region look alike — similar offered load, similar
//! flow-size mix, same outage timeline — and processor sharing is
//! governed by exactly those features. Clustering keys each link on
//! (offered load, flow-size ECDF) and greedily groups links whose
//! feature distance is within a tolerance **and** whose capacity-scale
//! timelines are identical (an outage window changes tail behaviour
//! qualitatively; links that go dark differently are never merged).
//!
//! Only cluster representatives are simulated. A member's flows are
//! estimated by *broadcasting the representative's slowdown
//! distribution*: the rep's per-flow slowdowns (transfer time over
//! ideal transfer time at full capacity) form a size-indexed table, and
//! each member flow pays the slowdown of the nearest-sized rep flow on
//! its own ideal time. Everything is a deterministic function of the
//! decomposition, so clustered runs keep the byte-identical artifact
//! contract.

use crate::coord::par_map;
use crate::decompose::Decomposition;
use crate::link::INCOMPLETE;
use iris_simnet::SimTopology;

/// Feature vector of one link's offered workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFeatures {
    /// Offered load: admitted bits over `capacity * duration`.
    pub load: f64,
    /// log10 flow-size deciles (9 interior quantiles of the ECDF).
    pub size_deciles: [f64; 9],
}

/// Weight of the mean ECDF-decile distance relative to the offered-load
/// distance in [`feature_distance`].
const ECDF_WEIGHT: f64 = 0.25;

/// Extract [`LinkFeatures`] for `link`.
#[must_use]
pub fn link_features(topo: &SimTopology, dec: &Decomposition, link: usize) -> LinkFeatures {
    let ids = &dec.link_flows[link];
    let mut sizes: Vec<f64> = ids
        .iter()
        .map(|&id| dec.flows[id as usize].size_bytes)
        .collect();
    sizes.sort_unstable_by(f64::total_cmp);
    let total_bits: f64 = sizes.iter().map(|s| s * 8.0).sum();
    let cap_bits = topo.links[link].capacity_gbps * 1e9 * dec.duration_s;
    let mut size_deciles = [0.0f64; 9];
    if !sizes.is_empty() {
        for (k, d) in size_deciles.iter_mut().enumerate() {
            let q = (k + 1) as f64 / 10.0;
            let idx = ((sizes.len() - 1) as f64 * q).round() as usize;
            *d = sizes[idx].max(1.0).log10();
        }
    }
    LinkFeatures {
        load: if cap_bits > 0.0 {
            total_bits / cap_bits
        } else {
            0.0
        },
        size_deciles,
    }
}

/// Distance between two links' features: |Δload| plus the mean
/// log10-decile gap, weighted by `ECDF_WEIGHT`.
#[must_use]
pub fn feature_distance(a: &LinkFeatures, b: &LinkFeatures) -> f64 {
    let decile_gap: f64 = a
        .size_deciles
        .iter()
        .zip(&b.size_deciles)
        .map(|(x, y)| (x - y).abs())
        .sum::<f64>()
        / 9.0;
    (a.load - b.load).abs() + ECDF_WEIGHT * decile_gap
}

/// One cluster: the representative link (simulated) and its members
/// (estimated from the rep's slowdown distribution; the rep itself is
/// not listed as a member).
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// The simulated representative.
    pub rep: usize,
    /// Member links estimated from the rep.
    pub members: Vec<usize>,
}

/// Greedily cluster `links` (ascending link ids — the deterministic
/// iteration order). A link joins the first existing cluster whose rep
/// is within `epsilon` feature distance and has an identical
/// capacity-scale timeline; otherwise it founds a new cluster. Features
/// are extracted on the in-process pool; the assignment is sequential.
#[must_use]
pub fn cluster_links(
    topo: &SimTopology,
    dec: &Decomposition,
    links: &[usize],
    epsilon: f64,
) -> Vec<Cluster> {
    let features = par_map(links.len(), |i| link_features(topo, dec, links[i]));
    let mut clusters: Vec<(Cluster, LinkFeatures)> = Vec::new();
    for (&l, feat) in links.iter().zip(features) {
        let found = clusters.iter_mut().find(|(c, rep_feat)| {
            dec.segments[c.rep] == dec.segments[l] && feature_distance(rep_feat, &feat) <= epsilon
        });
        match found {
            Some((c, _)) => c.members.push(l),
            None => clusters.push((
                Cluster {
                    rep: l,
                    members: Vec::new(),
                },
                feat,
            )),
        }
    }
    clusters.into_iter().map(|(c, _)| c).collect()
}

/// The representative's slowdown distribution, indexed by flow size:
/// for each completed rep flow, `slowdown = transfer / ideal` where
/// `ideal = bits / capacity`. Incomplete rep flows mark their size
/// range as unfinishable.
#[derive(Debug)]
pub struct SlowdownTable {
    /// (size_bytes, slowdown), sorted by size. Slowdown < 0 encodes an
    /// incomplete rep flow.
    entries: Vec<(f64, f64)>,
}

impl SlowdownTable {
    /// Build from the rep link's simulation result (`finishes` aligned
    /// with `dec.link_flows[rep]`).
    #[must_use]
    pub fn build(topo: &SimTopology, dec: &Decomposition, rep: usize, finishes: &[f64]) -> Self {
        let cap_bps = topo.links[rep].capacity_gbps * 1e9;
        let mut entries: Vec<(f64, f64)> = dec.link_flows[rep]
            .iter()
            .zip(finishes)
            .map(|(&id, &fin)| {
                let f = &dec.flows[id as usize];
                let slowdown = if fin < 0.0 {
                    -1.0
                } else {
                    let ideal = (f.size_bytes * 8.0) / cap_bps;
                    if ideal > 0.0 {
                        ((fin - f.start_s) / ideal).max(1.0)
                    } else {
                        1.0
                    }
                };
                (f.size_bytes, slowdown)
            })
            .collect();
        // Sizes are positive and slowdowns -1 or >= 1, so `total_cmp`
        // orders exactly as `partial_cmp` would.
        entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        Self { entries }
    }

    /// Slowdown for a flow of `size_bytes`: the entry with the nearest
    /// size (ties to the smaller). Returns `None` if the table is empty
    /// or the nearest rep flow was incomplete.
    #[must_use]
    pub fn slowdown(&self, size_bytes: f64) -> Option<f64> {
        let first_not_below = self.entries.partition_point(|&(s, _)| s < size_bytes);
        self.nearest(first_not_below, size_bytes)
    }

    /// The nearest-size rule behind [`Self::slowdown`], given the index of
    /// the first entry whose size is not below `size_bytes`.
    fn nearest(&self, first_not_below: usize, size_bytes: f64) -> Option<f64> {
        let last = self.entries.len().checked_sub(1)?;
        let idx = first_not_below.min(last);
        let best = if idx > 0
            && (size_bytes - self.entries[idx - 1].0).abs()
                <= (self.entries[idx].0 - size_bytes).abs()
        {
            idx - 1
        } else {
            idx
        };
        let (_, sd) = self.entries[best];
        (sd >= 0.0).then_some(sd)
    }
}

/// Estimate a member link's finishes by broadcasting the rep's slowdown
/// distribution: each member flow pays `slowdown(size) * ideal` on the
/// *member's* capacity. Output aligns with `dec.link_flows[member]`;
/// flows whose nearest rep flow was incomplete — or that would finish
/// past the duration — come back [`INCOMPLETE`].
///
/// The member's flows are sorted by size once and matched against the
/// table in one merge walk, the same lookup as [`SlowdownTable::slowdown`]
/// without a binary search per flow.
#[must_use]
pub fn estimate_member(
    topo: &SimTopology,
    dec: &Decomposition,
    member: usize,
    table: &SlowdownTable,
) -> Vec<f64> {
    let ids = &dec.link_flows[member];
    let cap_bps = topo.links[member].capacity_gbps * 1e9;
    let mut out = vec![INCOMPLETE; ids.len()];
    // Positive f64 sizes order as their bit patterns.
    let mut by_size: Vec<(u64, u32)> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| (dec.flows[id as usize].size_bytes.to_bits(), k as u32))
        .collect();
    by_size.sort_unstable();
    // First pass: each flow's slowdown, parked in its output slot.
    let mut cursor = 0;
    for (bits, k) in by_size {
        let size = f64::from_bits(bits);
        while cursor < table.entries.len() && table.entries[cursor].0 < size {
            cursor += 1;
        }
        out[k as usize] = table.nearest(cursor, size).unwrap_or(INCOMPLETE);
    }
    // Second pass, in flow order: slowdown -> finish time.
    for (slot, &id) in out.iter_mut().zip(ids) {
        if *slot != INCOMPLETE {
            let f = &dec.flows[id as usize];
            let fin = f.start_s + *slot * (f.size_bytes * 8.0) / cap_bps;
            *slot = if cap_bps > 0.0 && fin < dec.duration_s {
                fin
            } else {
                INCOMPLETE
            };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_simnet::engine::{FabricModel, SimConfig, Simulator};
    use iris_simnet::traffic::ChangeModel;
    use iris_simnet::workloads::FlowSizeDist;
    use iris_simnet::TrafficMatrix;

    fn dec_for(topo: &SimTopology, seed: u64) -> Decomposition {
        let trace = Simulator::new(
            topo.clone(),
            TrafficMatrix::heavy_tailed(topo.n_dcs, seed),
            SimConfig {
                duration_s: 4.0,
                utilization: 0.5,
                flow_sizes: FlowSizeDist::facebook_web(),
                change_interval_s: Some(1.0),
                change_model: ChangeModel::Bounded(0.5),
                fabric: FabricModel::Eps,
                capacity_events: Vec::new(),
                seed,
            },
        )
        .trace();
        Decomposition::build(topo, &trace)
    }

    #[test]
    fn identical_links_cluster_together_at_modest_epsilon() {
        // A symmetric matrix seed still loads spokes unevenly, but a
        // huge epsilon must collapse everything into one cluster and a
        // zero epsilon into singletons.
        let topo = SimTopology::hub_and_spoke(6, 1.0);
        let dec = dec_for(&topo, 5);
        let links = dec.occupied_links();
        let one = cluster_links(&topo, &dec, &links, f64::INFINITY);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].members.len() + 1, links.len());
        let singletons = cluster_links(&topo, &dec, &links, 0.0);
        // Distinct workloads -> (almost) all singletons; at minimum the
        // clustering must be a partition.
        let covered: usize = singletons.iter().map(|c| 1 + c.members.len()).sum();
        assert_eq!(covered, links.len());
    }

    #[test]
    fn clustering_is_a_partition() {
        let topo = SimTopology::hub_and_spoke(8, 1.0);
        let dec = dec_for(&topo, 9);
        let links = dec.occupied_links();
        let clusters = cluster_links(&topo, &dec, &links, 0.05);
        let mut seen: Vec<usize> = clusters
            .iter()
            .flat_map(|c| std::iter::once(c.rep).chain(c.members.iter().copied()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, links);
    }

    #[test]
    fn slowdown_table_interpolates_by_nearest_size() {
        let topo = SimTopology::hub_and_spoke(2, 1.0);
        let dec = dec_for(&topo, 2);
        let link = dec.occupied_links()[0];
        let finishes = dec.simulate(&topo, link);
        let table = SlowdownTable::build(&topo, &dec, link, &finishes);
        // Any queried slowdown is >= 1 (PS can never beat the ideal).
        for size in [100.0, 1e4, 1e6, 1e8] {
            if let Some(sd) = table.slowdown(size) {
                assert!(sd >= 1.0, "slowdown {sd} for size {size}");
            }
        }
    }

    /// Per-flow reference for [`estimate_member`]: one
    /// [`SlowdownTable::slowdown`] lookup per flow.
    fn member_reference(
        topo: &SimTopology,
        dec: &Decomposition,
        member: usize,
        table: &SlowdownTable,
    ) -> Vec<f64> {
        let cap_bps = topo.links[member].capacity_gbps * 1e9;
        dec.link_flows[member]
            .iter()
            .map(|&id| {
                let f = &dec.flows[id as usize];
                match table.slowdown(f.size_bytes) {
                    Some(sd) if cap_bps > 0.0 => {
                        let fin = f.start_s + sd * (f.size_bytes * 8.0) / cap_bps;
                        if fin < dec.duration_s {
                            fin
                        } else {
                            INCOMPLETE
                        }
                    }
                    _ => INCOMPLETE,
                }
            })
            .collect()
    }

    #[test]
    fn merge_walk_matches_per_flow_lookup() {
        use crate::decompose::DecFlow;
        use iris_simnet::topology::Link;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Link 0 is the rep, links 1 and 2 carry the member flows (link 2
        // at zero capacity), link 3 is an empty rep.
        let topo = SimTopology {
            n_dcs: 2,
            links: [1.0, 0.5, 0.0, 1.0]
                .map(|capacity_gbps| Link { capacity_gbps })
                .to_vec(),
            routes: vec![vec![0]],
            route_rtt_s: vec![0.0],
        };
        let mut finished = 0;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // A small size pool, so rep sizes repeat with different
            // slowdowns.
            let pool: Vec<f64> = (0..rng.random_range(1usize..12))
                .map(|_| rng.random_range(1u64..200_000) as f64)
                .collect();
            let flow = |size_bytes: f64, start_s: f64| DecFlow {
                pair: (0, 1),
                start_s,
                size_bytes,
            };
            let mut flows: Vec<DecFlow> = Vec::new();
            let mut rep_finishes = Vec::new();
            for _ in 0..rng.random_range(1usize..40) {
                let size = pool[rng.random_range(0..pool.len())];
                let start = rng.random_range(0.0..1.0);
                rep_finishes.push(if rng.random_range(0.0..1.0) < 0.2 {
                    INCOMPLETE
                } else {
                    // Some below the ideal, so the slowdown clamps to 1.
                    start + size * 8.0 / 1e9 * rng.random_range(0.5..5.0)
                });
                flows.push(flow(size, start));
            }
            let reps = flows.len();
            // Member queries: every table size, the midpoint of every two
            // (an exact tie), random sizes between, below and above.
            let (lo, hi) = pool
                .iter()
                .fold((f64::MAX, 0.0f64), |(l, h), &s| (l.min(s), h.max(s)));
            let mut queries: Vec<f64> = pool.clone();
            for a in &pool {
                for b in &pool {
                    queries.push((a + b) / 2.0);
                }
            }
            for _ in 0..20 {
                queries.push(rng.random_range(lo..=hi));
            }
            queries.extend([lo / 2.0, 0.5, hi * 2.0, hi + 1.0]);
            for size in queries {
                flows.push(flow(size, rng.random_range(0.0..1.0)));
            }
            let members: Vec<u32> = (reps as u32..flows.len() as u32).collect();
            let dec = Decomposition {
                flows,
                link_flows: vec![
                    (0..reps as u32).collect(),
                    members.clone(),
                    members,
                    Vec::new(),
                ],
                segments: vec![Vec::new(); 4],
                duration_s: 1.002,
            };
            let table = SlowdownTable::build(&topo, &dec, 0, &rep_finishes);
            let empty = SlowdownTable::build(&topo, &dec, 3, &[]);
            for (member, table) in [(1, &table), (2, &table), (1, &empty)] {
                let got = estimate_member(&topo, &dec, member, table);
                let want = member_reference(&topo, &dec, member, table);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                assert_eq!(bits(&got), bits(&want), "seed {seed}, member {member}");
                finished += got.iter().filter(|&&fin| fin != INCOMPLETE).count();
            }
        }
        assert!(
            finished > 0,
            "no member flow finished: the oracle checked nothing"
        );
    }

    #[test]
    fn member_estimate_scales_with_capacity() {
        // Same workload broadcast to a member with twice the capacity
        // must halve the estimated transfer times.
        let topo = SimTopology::hub_and_spoke(2, 1.0);
        let dec = dec_for(&topo, 2);
        let link = dec.occupied_links()[0];
        let finishes = dec.simulate(&topo, link);
        let table = SlowdownTable::build(&topo, &dec, link, &finishes);
        let mut fat = topo.clone();
        fat.links[link].capacity_gbps *= 2.0;
        let est_same = estimate_member(&topo, &dec, link, &table);
        let est_fat = estimate_member(&fat, &dec, link, &table);
        for (id, (a, b)) in est_same.iter().zip(&est_fat).enumerate() {
            if *a >= 0.0 && *b >= 0.0 {
                let f = &dec.flows[dec.link_flows[link][id] as usize];
                let ta = a - f.start_s;
                let tb = b - f.start_s;
                assert!(
                    (ta - 2.0 * tb).abs() <= 1e-9 * ta.abs().max(1.0),
                    "{ta} vs {tb}"
                );
            }
        }
    }
}
