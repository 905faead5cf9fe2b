//! Replay the smartvlc-net workload mix through the cell battery.
//!
//! The cell simulation's delivery model is saturated full-buffer
//! download: every granted tick moves as many payload bits as the
//! analytic RX path allows. That is the right measure of *link
//! capacity*, but it says nothing about what an application would
//! experience. This bridge rides along as a **pure observer**: each user
//! runs one deterministic [`WorkloadGen`] (web / video / IoT by
//! `user % 3`, the smartvlc-net battery's shapes), arrivals queue per
//! user, and the bits each grant actually delivers drain the queue —
//! yielding per-flow completion times (FCT) without perturbing the
//! delivery math, the RNG streams, or any byte of the existing columns.
//!
//! Determinism: the generators live on keyed forks of the run seed
//! (`root.fork("traffic").fork_idx(user)`), independent of the ambient/
//! luminaire/user streams, and [`WorkloadGen::poll`] is timeline-ordered
//! regardless of poll cadence — so a user whose grants were cancelled
//! during an outage polls a burst of queued arrivals afterwards and the
//! draw sequence is unchanged. FCTs are recorded at tick granularity
//! (completion stamps at the end of the delivering tick), in grant
//! order, which is ascending user id within a tick: byte-identical at
//! any `SMARTVLC_THREADS`.
//!
//! Flows that never finish by the end of the run stay in their queues
//! and count as offered-but-not-completed; an IoT burst whose datagrams
//! straddle a fully-drained queue is counted per contiguous fragment.

use desim::{DetRng, SimTime};
use smartvlc_net::{WorkloadGen, WorkloadSpec};
use std::collections::VecDeque;

/// What the cell's users download — selected through
/// [`CellScenarioBuilder::traffic`](crate::scenario::CellScenarioBuilder::traffic).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum CellTrafficSpec {
    /// Saturated full-buffer download (the historical model; no flow
    /// accounting, [`CellReport::traffic`](super::CellReport::traffic)
    /// is `None`).
    #[default]
    Saturated,
    /// The smartvlc-net workload mix: user `j` runs web (`j % 3 == 0`),
    /// video (`1`) or IoT telemetry (`2`), and the report gains per-flow
    /// completion times.
    NetMix,
}

/// Flow-level outcome of a [`CellTrafficSpec::NetMix`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct CellTrafficReport {
    /// Application flows that arrived during the run.
    pub flows_offered: u64,
    /// Flows whose last byte was delivered before the run ended.
    pub flows_completed: u64,
    /// Payload bits actually consumed by flows (≤ the link's delivered
    /// bits — the saturated columns measure capacity, this measures
    /// demand met).
    pub payload_bits: f64,
    /// Mean flow completion time, s (`None` if nothing completed).
    pub fct_mean_s: Option<f64>,
    /// Median flow completion time, s.
    pub fct_p50_s: Option<f64>,
    /// 95th-percentile flow completion time, s.
    pub fct_p95_s: Option<f64>,
}

/// One queued application flow (merged contiguous datagrams of one
/// `app_flow`).
#[derive(Clone, Debug)]
struct FlowJob {
    app_flow: u32,
    arrival_s: f64,
    remaining_bits: f64,
}

/// Per-run traffic state the event core owns when the config asks for
/// [`CellTrafficSpec::NetMix`].
pub(crate) struct TrafficState {
    gens: Vec<WorkloadGen>,
    queues: Vec<VecDeque<FlowJob>>,
    fcts_s: Vec<f64>,
    flows_offered: u64,
    flows_completed: u64,
    payload_bits: f64,
}

impl TrafficState {
    /// Build the per-user generators from their own keyed fork of the
    /// run seed — adding this stream perturbs no existing one.
    pub(crate) fn new(n_users: usize, seed: u64) -> TrafficState {
        let root = DetRng::seed_from_u64(seed).fork("traffic");
        let gens = (0..n_users)
            .map(|j| {
                let spec = match j % 3 {
                    0 => WorkloadSpec::web(),
                    1 => WorkloadSpec::video(),
                    _ => WorkloadSpec::iot(),
                };
                WorkloadGen::new(spec, root.fork_idx(j as u64))
            })
            .collect();
        TrafficState {
            gens,
            queues: vec![VecDeque::new(); n_users],
            fcts_s: Vec::new(),
            flows_offered: 0,
            flows_completed: 0,
            payload_bits: 0.0,
        }
    }

    /// Observe one fired grant: poll `user`'s arrivals up to `now`, then
    /// drain up to `bits` of queued payload, stamping completions at
    /// `end_s` (the end of the delivering tick).
    pub(crate) fn on_grant(&mut self, user: usize, now: SimTime, end_s: f64, bits: f64) {
        let q = &mut self.queues[user];
        for a in self.gens[user].poll(now) {
            let add = (a.bytes * 8) as f64;
            match q.back_mut() {
                // Datagrams of one burst polled together merge into one
                // flow job; FCT runs from the flow's first arrival.
                Some(j) if j.app_flow == a.app_flow => j.remaining_bits += add,
                _ => {
                    q.push_back(FlowJob {
                        app_flow: a.app_flow,
                        arrival_s: a.at.as_nanos() as f64 * 1e-9,
                        remaining_bits: add,
                    });
                    self.flows_offered += 1;
                }
            }
        }
        let mut budget = bits;
        while budget > 0.0 {
            let Some(front) = q.front_mut() else { break };
            if front.remaining_bits <= budget {
                budget -= front.remaining_bits;
                self.payload_bits += front.remaining_bits;
                self.fcts_s.push((end_s - front.arrival_s).max(0.0));
                self.flows_completed += 1;
                q.pop_front();
            } else {
                front.remaining_bits -= budget;
                self.payload_bits += budget;
                budget = 0.0;
            }
        }
    }

    /// Fold the run into the report.
    pub(crate) fn report(&self) -> CellTrafficReport {
        let p = crate::stats_util::try_percentiles(&self.fcts_s);
        CellTrafficReport {
            flows_offered: self.flows_offered,
            flows_completed: self.flows_completed,
            payload_bits: self.payload_bits,
            fct_mean_s: if self.fcts_s.is_empty() {
                None
            } else {
                Some(self.fcts_s.iter().sum::<f64>() / self.fcts_s.len() as f64)
            },
            fct_p50_s: p.map(|p| p.p50),
            fct_p95_s: p.map(|p| p.p95),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_queue_during_starvation_and_complete_when_served() {
        let mut ts = TrafficState::new(3, 42);
        // Starve user 0 for a simulated second: arrivals queue, nothing
        // completes.
        for tick in 0..10u32 {
            let now = SimTime::from_nanos(tick as u64 * 100_000_000);
            ts.on_grant(0, now, (tick + 1) as f64 * 0.1, 0.0);
        }
        assert!(ts.flows_offered > 0, "a second of web traffic must arrive");
        assert_eq!(ts.flows_completed, 0);
        // One fat grant drains everything queued so far.
        ts.on_grant(0, SimTime::from_nanos(1_000_000_000), 1.1, 1e9);
        assert_eq!(ts.flows_completed, ts.flows_offered);
        let r = ts.report();
        assert_eq!(r.flows_completed, ts.flows_completed);
        assert!(r.fct_mean_s.unwrap() > 0.0);
        assert!(r.payload_bits > 0.0);
    }

    #[test]
    fn partial_drain_preserves_the_remainder() {
        let mut ts = TrafficState::new(1, 7);
        // Accumulate some arrivals.
        ts.on_grant(0, SimTime::from_nanos(2_000_000_000), 2.1, 0.0);
        let offered = ts.flows_offered;
        assert!(offered > 0);
        let total: f64 = ts.queues[0].iter().map(|j| j.remaining_bits).sum();
        // Deliver half of the first flow.
        let half = ts.queues[0][0].remaining_bits / 2.0;
        ts.on_grant(0, SimTime::from_nanos(2_000_000_000), 2.2, half);
        assert_eq!(ts.flows_completed, 0);
        let left: f64 = ts.queues[0].iter().map(|j| j.remaining_bits).sum();
        assert!((total - left - half).abs() < 1e-9);
    }

    #[test]
    fn state_is_deterministic_per_seed_and_varies_across_seeds() {
        let run = |seed| {
            let mut ts = TrafficState::new(4, seed);
            for tick in 0..50u32 {
                let now = SimTime::from_nanos(tick as u64 * 100_000_000);
                for u in 0..4 {
                    ts.on_grant(u, now, (tick + 1) as f64 * 0.1, 20_000.0);
                }
            }
            let r = ts.report();
            (r.flows_offered, r.flows_completed, r.payload_bits.to_bits())
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "seeds must matter");
    }

    #[test]
    fn empty_runs_report_no_completion_times() {
        let ts = TrafficState::new(1, 1);
        let r = ts.report();
        assert_eq!(r.flows_completed, 0);
        assert_eq!((r.fct_mean_s, r.fct_p50_s, r.fct_p95_s), (None, None, None));
    }
}
