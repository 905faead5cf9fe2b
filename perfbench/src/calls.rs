//! Per-call costs of single layer functions, on inputs shaped like the
//! workload's: the "call" kind of per-layer metric.

use combinat::{encode_codeword_into, BigUint, BinomialTable, EncodeScratch};
use desim::{DetRng, Scheduler, SimDuration, SimTime};
use smartvlc_fec::FecProfile;
use smartvlc_sim::cell::{
    ceiling_grid, cell_channel, interference_sigma_a, received_power_w, Association,
    HandoverPolicy, Position,
};
use smartvlc_sim::CellConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vlc_channel::OperatingPointCache;

/// Wall time each call measurement runs for.
const BUDGET: Duration = Duration::from_millis(60);

/// Call `batch` until [`BUDGET`] has passed; returns nanoseconds per unit
/// of work, where each call reports how many units it did.
fn per_unit(mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut units = 0u64;
    while start.elapsed() < BUDGET {
        units += batch();
    }
    start.elapsed().as_nanos() as f64 / units.max(1) as f64
}

/// `DetRng::next_gaussian`, ns per draw.
pub fn gaussian_ns(seed: u64) -> f64 {
    let mut rng = DetRng::seed_from_u64(seed);
    per_unit(|| {
        let mut acc = 0.0;
        for _ in 0..4096 {
            acc += rng.next_gaussian();
        }
        black_box(acc);
        4096
    })
}

/// `encode_codeword_into` over the workload's `(n, k, weight)` symbol mix,
/// ns per symbol. Values are uniform below `C(n, k)`.
pub fn encode_ns_per_symbol(table: &BinomialTable, mix: &[(usize, usize, u64)], seed: u64) -> f64 {
    let total: u64 = mix.iter().map(|m| m.2).sum();
    if total == 0 {
        return 0.0;
    }
    let mut rng = DetRng::seed_from_u64(seed);
    let symbols: Vec<(usize, usize, BigUint)> = (0..1024)
        .map(|_| {
            let mut pick = rng.next_below(total);
            let &(n, k, _) = mix
                .iter()
                .find(|m| {
                    let hit = pick < m.2;
                    pick = pick.saturating_sub(m.2);
                    hit
                })
                .expect("pick is below the total weight");
            let c = table.binomial_u128(n, k).expect("pattern fits in u128");
            let v = ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) % c;
            (n, k, BigUint::from_u128(v))
        })
        .collect();
    let mut scratch = EncodeScratch::new();
    let mut out = Vec::new();
    per_unit(|| {
        for (n, k, v) in &symbols {
            if out.len() > 4096 {
                out.clear();
            }
            encode_codeword_into(table, *n, *k, v, &mut scratch, &mut out)
                .expect("value is below C(n, k)");
        }
        black_box(&out);
        symbols.len() as u64
    })
}

/// `smartvlc_fec::encode` and `decode` on blocks of the workload's sizes,
/// µs per frame: `(encode, decode)`.
pub fn fec_us_per_frame(profile: FecProfile, blocks: &[usize], seed: u64) -> (f64, f64) {
    if blocks.is_empty() {
        return (0.0, 0.0);
    }
    let mut rng = DetRng::seed_from_u64(seed);
    let data: Vec<Vec<u8>> = blocks
        .iter()
        .map(|&len| {
            let mut b = vec![0u8; len];
            rng.fill_bytes(&mut b);
            b
        })
        .collect();
    let coded: Vec<Vec<u8>> = data
        .iter()
        .map(|d| smartvlc_fec::encode(profile, d))
        .collect();
    let enc = per_unit(|| {
        for d in &data {
            black_box(smartvlc_fec::encode(profile, black_box(d)));
        }
        data.len() as u64
    });
    let dec = per_unit(|| {
        for (c, d) in coded.iter().zip(&data) {
            black_box(smartvlc_fec::decode(profile, black_box(c), d.len()));
        }
        coded.len() as u64
    });
    (enc / 1e3, dec / 1e3)
}

/// One `Scheduler::pop` plus one `schedule_keyed` with the queue held at
/// `depth` pending events, ns per event.
pub fn sched_ns_per_event(depth: usize, seed: u64) -> f64 {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut sched: Scheduler<u32> = Scheduler::new();
    let horizon_ns = 100_000_000;
    for i in 0..depth.max(1) {
        let at = SimTime::ZERO + SimDuration::nanos(rng.next_below(horizon_ns));
        sched.schedule_keyed(at, rng.next_below(4), i as u32);
    }
    per_unit(|| {
        for _ in 0..1024 {
            let (t, ev) = sched.pop().expect("the queue never drains");
            let at = t + SimDuration::nanos(1 + rng.next_below(horizon_ns));
            sched.schedule_keyed(at, u64::from(ev & 3), ev);
        }
        1024
    })
}

/// The cell geometry the per-call measurements draw positions from.
pub struct CellProbe {
    cfg: CellConfig,
    lums: Vec<Position>,
    users: Vec<Position>,
    /// Mean luminaires with nonzero received power at a user position —
    /// the event core's per-user window.
    pub window: usize,
}

impl CellProbe {
    /// Positions for `cfg`'s room: every luminaire and 256 random users.
    pub fn new(cfg: &CellConfig, seed: u64) -> CellProbe {
        let room = cfg.room();
        let lums: Vec<Position> = ceiling_grid(&room, cfg.nx, cfg.ny)
            .iter()
            .map(|l| l.pos)
            .collect();
        let mut rng = DetRng::seed_from_u64(seed);
        let users: Vec<Position> = (0..256)
            .map(|_| Position {
                x_m: rng.next_f64() * room.width_m,
                y_m: rng.next_f64() * room.depth_m,
            })
            .collect();
        let visible: usize = users
            .iter()
            .map(|u| {
                lums.iter()
                    .filter(|l| received_power_w(&cfg.optics, &room, l, u, 1.0) > 0.0)
                    .count()
            })
            .sum();
        let window = (visible / users.len()).max(1);
        CellProbe {
            cfg: *cfg,
            lums,
            users,
            window,
        }
    }

    /// The `window` luminaires nearest `user`, ascending by id.
    fn near(&self, user: &Position) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.lums.len()).collect();
        ids.sort_by(|&a, &b| {
            self.lums[a]
                .horizontal_distance(user)
                .total_cmp(&self.lums[b].horizontal_distance(user))
        });
        ids.truncate(self.window);
        ids.sort_unstable();
        ids
    }

    /// `received_power_w`, ns per call.
    pub fn rss_ns(&self) -> f64 {
        let room = self.cfg.room();
        per_unit(|| {
            let mut acc = 0.0;
            for (i, u) in self.users.iter().enumerate() {
                let l = &self.lums[(i * 7) % self.lums.len()];
                acc += received_power_w(&self.cfg.optics, &room, l, u, 0.5);
            }
            black_box(acc);
            self.users.len() as u64
        })
    }

    /// `interference_sigma_a` over a window of interferers, ns per call.
    pub fn interference_ns(&self) -> f64 {
        let room = self.cfg.room();
        let sets: Vec<Vec<(Position, f64)>> = self
            .users
            .iter()
            .map(|u| self.near(u).iter().map(|&i| (self.lums[i], 0.5)).collect())
            .collect();
        per_unit(|| {
            let mut acc = 0.0;
            for (u, set) in self.users.iter().zip(&sets) {
                acc += interference_sigma_a(&self.cfg.optics, &room, set, u);
            }
            black_box(acc);
            self.users.len() as u64
        })
    }

    /// `Association::step_subset` over a window of candidates, ns per call.
    pub fn handover_step_ns(&self) -> f64 {
        let room = self.cfg.room();
        let policy = HandoverPolicy::standard();
        let cases: Vec<(Vec<usize>, Vec<f64>)> = self
            .users
            .iter()
            .map(|u| {
                let cand = self.near(u);
                let mut rss = vec![0.0; self.lums.len()];
                for &i in &cand {
                    rss[i] = received_power_w(&self.cfg.optics, &room, &self.lums[i], u, 0.5);
                }
                (cand, rss)
            })
            .collect();
        let mut assocs: Vec<Association> =
            cases.iter().map(|(c, _)| Association::new(c[0])).collect();
        per_unit(|| {
            for (a, (cand, rss)) in assocs.iter_mut().zip(&cases) {
                if !cand.contains(&a.serving) {
                    *a = Association::new(cand[0]);
                }
                black_box(a.step_subset(rss, cand, &policy));
            }
            cases.len() as u64
        })
    }

    /// `OperatingPointCache::query` on a fresh key every call, ns per call.
    pub fn opcache_miss_ns(&self) -> f64 {
        let room = self.cfg.room();
        let cache = OperatingPointCache::with_enabled(true);
        let mut lux = 1000.0;
        per_unit(|| {
            for (i, u) in self.users.iter().enumerate() {
                lux += 1e-3;
                let ch = cell_channel(
                    &self.cfg.optics,
                    &room,
                    &self.lums[i % self.lums.len()],
                    u,
                    lux,
                );
                black_box(cache.query(&ch, 1.0, false));
            }
            self.users.len() as u64
        })
    }
}
