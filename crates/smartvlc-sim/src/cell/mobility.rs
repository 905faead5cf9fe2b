//! Random-waypoint user mobility.
//!
//! The classic indoor mobility model: each user picks a uniform waypoint
//! in the room, walks toward it at a speed drawn once per leg, pauses,
//! and repeats. Every random draw comes from the user's own keyed
//! [`DetRng`] stream, so a user's entire trajectory is a pure function of
//! `(base seed, user index)` — adding users, reordering updates, or
//! changing `SMARTVLC_THREADS` never perturbs anyone else's walk.

use super::geometry::{Position, RoomGeometry};
use desim::DetRng;

/// Parameters of the random-waypoint walk.
#[derive(Clone, Copy, Debug)]
pub struct WaypointModel {
    /// Slowest leg speed, m/s.
    pub min_speed_mps: f64,
    /// Fastest leg speed, m/s.
    pub max_speed_mps: f64,
    /// Longest pause at a waypoint, ticks (drawn uniformly in `0..=max`).
    pub max_pause_ticks: u32,
}

impl WaypointModel {
    /// Office walking: 0.5–1.5 m/s legs with pauses up to 3 s at a
    /// 100 ms tick.
    pub fn office() -> WaypointModel {
        WaypointModel {
            min_speed_mps: 0.5,
            max_speed_mps: 1.5,
            max_pause_ticks: 30,
        }
    }
}

/// One mobile receiver: current position plus the state of its walk.
#[derive(Clone, Debug)]
pub struct MobileUser {
    /// User index (also the fork index of its RNG stream).
    pub id: usize,
    /// Current position on the receiver plane.
    pub pos: Position,
    target: Position,
    speed_mps: f64,
    pause_left: u32,
    rng: DetRng,
}

impl MobileUser {
    /// Spawn user `id` at a uniform position with a fresh first leg.
    /// `rng` must be this user's own keyed stream.
    pub fn new(
        id: usize,
        room: &RoomGeometry,
        model: &WaypointModel,
        mut rng: DetRng,
    ) -> MobileUser {
        let pos = Position {
            x_m: rng.next_f64() * room.width_m,
            y_m: rng.next_f64() * room.depth_m,
        };
        let mut user = MobileUser {
            id,
            pos,
            target: pos,
            speed_mps: 0.0,
            pause_left: 0,
            rng,
        };
        user.pick_leg(room, model);
        user
    }

    fn pick_leg(&mut self, room: &RoomGeometry, model: &WaypointModel) {
        self.target = Position {
            x_m: self.rng.next_f64() * room.width_m,
            y_m: self.rng.next_f64() * room.depth_m,
        };
        let span = (model.max_speed_mps - model.min_speed_mps).max(0.0);
        self.speed_mps = model.min_speed_mps + self.rng.next_f64() * span;
        self.pause_left = if model.max_pause_ticks > 0 {
            (self.rng.next_u64() % (model.max_pause_ticks as u64 + 1)) as u32
        } else {
            0
        };
    }

    /// Advance the walk by one tick of `dt_s` seconds.
    pub fn step(&mut self, room: &RoomGeometry, model: &WaypointModel, dt_s: f64) {
        if self.pause_left > 0 {
            self.pause_left -= 1;
            return;
        }
        let dx = self.target.x_m - self.pos.x_m;
        let dy = self.target.y_m - self.pos.y_m;
        let dist = dx.hypot(dy);
        let stride = self.speed_mps * dt_s;
        if dist <= stride {
            self.pos = self.target;
            self.pick_leg(room, model);
        } else {
            self.pos = room.clamp(Position {
                x_m: self.pos.x_m + dx / dist * stride,
                y_m: self.pos.y_m + dy / dist * stride,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> RoomGeometry {
        RoomGeometry::for_grid(3, 3, 2.5)
    }

    fn user(seed: u64) -> MobileUser {
        MobileUser::new(
            0,
            &room(),
            &WaypointModel::office(),
            DetRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn walk_stays_inside_the_room() {
        let r = room();
        let model = WaypointModel::office();
        let mut u = user(7);
        for _ in 0..5_000 {
            u.step(&r, &model, 0.1);
            assert!((0.0..=r.width_m).contains(&u.pos.x_m), "{:?}", u.pos);
            assert!((0.0..=r.depth_m).contains(&u.pos.y_m), "{:?}", u.pos);
        }
    }

    #[test]
    fn walk_actually_moves_across_cells() {
        let r = room();
        let model = WaypointModel::office();
        let mut u = user(3);
        let start = u.pos;
        let mut max_d = 0.0f64;
        for _ in 0..600 {
            u.step(&r, &model, 0.1);
            max_d = max_d.max(start.horizontal_distance(&u.pos));
        }
        // A minute of 0.5–1.5 m/s walking must cover more than one
        // 2.5 m cell pitch.
        assert!(max_d > 2.5, "max displacement {max_d}");
    }

    #[test]
    fn per_leg_speed_is_bounded() {
        let r = room();
        let model = WaypointModel::office();
        let mut u = user(11);
        for _ in 0..2_000 {
            let before = u.pos;
            u.step(&r, &model, 0.1);
            let d = before.horizontal_distance(&u.pos);
            assert!(
                d <= model.max_speed_mps * 0.1 + 1e-9,
                "stride {d} exceeds max speed"
            );
        }
    }

    #[test]
    fn trajectory_is_a_pure_function_of_the_stream() {
        let r = room();
        let model = WaypointModel::office();
        let mut a = user(42);
        let mut b = user(42);
        for _ in 0..1_000 {
            a.step(&r, &model, 0.1);
            b.step(&r, &model, 0.1);
            assert_eq!(a.pos, b.pos);
        }
        // A different stream takes a different walk.
        let mut c = user(43);
        let mut diverged = false;
        for _ in 0..1_000 {
            c.step(&r, &model, 0.1);
            a.step(&r, &model, 0.1);
            diverged |= c.pos != a.pos;
        }
        assert!(diverged);
    }
}
