//! Simulated soccer-game dataset (substitute for D×2real, Sec. VI).
//!
//! The paper's real-world dataset comes from the DEBS 2013 grand challenge:
//! two streams of player positions (one per team) recorded by body sensors
//! during a 23-minute training game, ~450 k tuples per stream, with maximum
//! network delays of 22 s (team A) and 26 s (team B).  The raw sensor data
//! cannot be shipped with this repository, so this module *simulates* a
//! workload with the same relevant characteristics:
//!
//! * two streams with schema `(sID, xCoord, yCoord)`;
//! * players move on a 105 m × 68 m pitch following bounded random walks
//!   around team-specific formations, which yields a low, time-varying
//!   selectivity for the `dist() < 5 m` predicate of query Q×2;
//! * tuples are timestamped by the sensor clock and arrive after a
//!   heavy-tailed (Zipf) network delay bounded by the per-team maxima above.
//!
//! The disorder-handling code paths only depend on timestamps, delays and
//! the predicate selectivity, all of which this simulation reproduces.

use crate::zipf::Zipf;
use crate::Dataset;
use mswj_join::JoinQuery;
use mswj_types::{ArrivalEvent, ArrivalLog, Duration, Interleaver, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pitch dimensions in metres (standard soccer field).
const PITCH_X: f64 = 105.0;
const PITCH_Y: f64 = 68.0;

/// Shape of the simulated soccer workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SoccerConfig {
    /// Players per team (the DEBS game has 8 field players per side plus
    /// goalkeepers; the default follows that).
    pub(crate) players_per_team: usize,
    /// Sensor sampling interval per player (ms).  With 9 players and 30 ms,
    /// each team stream carries ~300 tuples/s, in the ballpark of the
    /// original data (450 k tuples over 23 minutes ≈ 325 tuples/s).
    pub(crate) sample_interval_ms: Duration,
    /// Total simulated duration (ms); the original game lasts 23 minutes.
    pub(crate) duration_ms: Duration,
    /// Maximum network delay per team stream (ms); the paper reports 22 s
    /// and 26 s.
    pub(crate) max_delay_ms: [Duration; 2],
    /// Zipf skew of the delay distribution (most tuples arrive in order).
    pub delay_skew: f64,
    /// Delay-domain granularity (ms).
    pub(crate) delay_step_ms: Duration,
    /// Sliding window of query Q×2 (ms); the paper uses 5 s.
    pub(crate) window_ms: Duration,
    /// Distance threshold of query Q×2 (metres); the paper uses 5 m.
    pub(crate) distance_m: f64,
}

impl Default for SoccerConfig {
    fn default() -> Self {
        SoccerConfig {
            players_per_team: 9,
            sample_interval_ms: 30,
            duration_ms: 23 * 60_000,
            max_delay_ms: [22_000, 26_000],
            // Most sensor readings arrive in order; large delays are rare
            // spikes, as in the original DEBS 2013 traces.
            delay_skew: 3.5,
            delay_step_ms: 100,
            window_ms: 5_000,
            distance_m: 5.0,
        }
    }
}

impl SoccerConfig {
    /// Overrides the simulated duration (seconds) — the main scale knob.
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.duration_ms = secs * 1_000;
        self
    }

    /// Overrides the per-player sampling interval (ms), i.e. the data rate.
    pub fn sample_interval(mut self, ms: Duration) -> Self {
        self.sample_interval_ms = ms.max(1);
        self
    }

    /// Overrides both per-team maximum delays (ms).
    pub fn max_delays(mut self, team_a: Duration, team_b: Duration) -> Self {
        self.max_delay_ms = [team_a, team_b];
        self
    }
}

/// A generated soccer workload (query Q×2 + arrival log).
#[derive(Debug, Clone)]
pub struct SoccerDataset {
    /// The distance-join query Q×2.
    pub query: JoinQuery,
    /// The interleaved arrival log of both team streams.
    pub log: ArrivalLog,
}

impl SoccerDataset {
    /// Generates a workload deterministically from `config` and `seed`.
    pub fn generate(config: &SoccerConfig, seed: u64) -> Self {
        let query = crate::queries::q2_query(config.window_ms, config.distance_m);
        let mut interleaver = Interleaver::new();
        for team in 0..2usize {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (team as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
            let delay_ranks =
                (config.max_delay_ms[team] / config.delay_step_ms.max(1)) as usize + 1;
            let delay_zipf = Zipf::new(delay_ranks.max(1), config.delay_skew);

            // Initial formation: players of both teams are spread over the
            // whole pitch (as during open play), so close encounters between
            // opposing players occur from the start — the original data's
            // dist() < 5 m selectivity is low but never zero.
            let mut positions: Vec<(f64, f64)> = (0..config.players_per_team)
                .map(|p| {
                    let frac = (p as f64 + 1.0) / (config.players_per_team as f64 + 1.0);
                    (
                        rng.gen_range(0.1 * PITCH_X..0.9 * PITCH_X),
                        (PITCH_Y * frac + rng.gen_range(-5.0..5.0)).clamp(0.0, PITCH_Y),
                    )
                })
                .collect();

            let mut events = Vec::new();
            let mut clock: u64 = 0;
            let mut seq: u64 = 0;
            let mut player = 0usize;
            while clock < config.duration_ms {
                clock += config.sample_interval_ms;
                // Round-robin over the team's sensors.
                player = (player + 1) % config.players_per_team;
                // Bounded random walk: players drift by up to ±1.5 m per step
                // and are clamped to the pitch; occasionally they sprint
                // towards the middle, which creates close encounters between
                // the teams (and thus join results).
                let (x, y) = &mut positions[player];
                let sprint = rng.gen_bool(0.02);
                let (dx, dy) = if sprint {
                    ((PITCH_X / 2.0 - *x) * 0.2, rng.gen_range(-3.0..3.0))
                } else {
                    (rng.gen_range(-1.5..1.5), rng.gen_range(-1.5..1.5))
                };
                *x = (*x + dx).clamp(0.0, PITCH_X);
                *y = (*y + dy).clamp(0.0, PITCH_Y);

                let delay = (delay_zipf.sample(&mut rng) as u64 - 1) * config.delay_step_ms;
                let ts = clock;
                let arrival = clock + delay;
                let tuple = Tuple::new(
                    team.into(),
                    seq,
                    Timestamp::from_millis(ts),
                    vec![
                        Value::Int((team * config.players_per_team + player) as i64),
                        Value::Float(*x),
                        Value::Float(*y),
                    ],
                );
                events.push(ArrivalEvent::new(Timestamp::from_millis(arrival), tuple));
                seq += 1;
            }
            // Network delays permute the arrival order within the stream.
            events.sort_by_key(|e| e.arrival);
            interleaver.add_stream(events);
        }
        SoccerDataset {
            query,
            log: interleaver.merge(),
        }
    }

    /// Wraps the generated workload as a generic [`Dataset`].
    pub fn into_dataset(self) -> Dataset {
        Dataset::new("Dx2real(sim)", self.query, self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::StreamIndex;

    fn small_config() -> SoccerConfig {
        SoccerConfig::default()
            .duration_secs(20)
            .sample_interval(50)
            .max_delays(2_000, 3_000)
    }

    fn small() -> SoccerDataset {
        SoccerDataset::generate(&small_config(), 11)
    }

    #[test]
    fn two_streams_with_position_schema() {
        let d = small();
        assert_eq!(d.query.arity(), 2);
        assert!(d.log.count_for(StreamIndex(0)) > 0);
        assert!(d.log.count_for(StreamIndex(1)) > 0);
        for e in d.log.iter() {
            assert_eq!(e.tuple.arity(), 3);
            let x = e.tuple.value(1).and_then(Value::as_float).unwrap();
            let y = e.tuple.value(2).and_then(Value::as_float).unwrap();
            assert!((0.0..=PITCH_X).contains(&x));
            assert!((0.0..=PITCH_Y).contains(&y));
        }
    }

    #[test]
    fn arrival_log_is_ordered_and_has_disorder() {
        let d = small();
        let arrivals: Vec<u64> = d.log.iter().map(|e| e.arrival.as_millis()).collect();
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        assert_eq!(arrivals, sorted, "arrival log must be arrival-ordered");
        // Network delays produce intra-stream disorder: at least one tuple
        // arrives after a tuple with a larger timestamp.
        let mut max_ts = [0u64; 2];
        let mut disorder = 0usize;
        for e in d.log.iter() {
            let s = e.stream().as_usize();
            let ts = e.ts().as_millis();
            if ts < max_ts[s] {
                disorder += 1;
            }
            max_ts[s] = max_ts[s].max(ts);
        }
        assert!(disorder > 0);
    }

    #[test]
    fn delays_respect_per_team_bounds() {
        let d = small();
        let max_delay_ms = small_config().max_delay_ms;
        for e in d.log.iter() {
            let delay = e.arrival - e.ts();
            let bound = max_delay_ms[e.stream().as_usize()];
            assert!(delay <= bound, "delay {delay} > bound {bound}");
        }
    }

    #[test]
    fn distance_predicate_has_low_but_nonzero_selectivity() {
        // Evaluate the predicate over a sample of cross pairs: encounters
        // within 5 m must exist but be rare, mirroring the original data.
        let d = small();
        let team_a: Vec<_> = d
            .log
            .iter()
            .filter(|e| e.stream() == StreamIndex(0))
            .take(400)
            .collect();
        let team_b: Vec<_> = d
            .log
            .iter()
            .filter(|e| e.stream() == StreamIndex(1))
            .take(400)
            .collect();
        let mut close = 0usize;
        let mut total = 0usize;
        for a in &team_a {
            for b in &team_b {
                let ax = a.tuple.value(1).and_then(Value::as_float).unwrap();
                let ay = a.tuple.value(2).and_then(Value::as_float).unwrap();
                let bx = b.tuple.value(1).and_then(Value::as_float).unwrap();
                let by = b.tuple.value(2).and_then(Value::as_float).unwrap();
                let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                total += 1;
                if dist < 5.0 {
                    close += 1;
                }
            }
        }
        let sel = close as f64 / total as f64;
        assert!(sel > 0.0, "no close encounters at all");
        assert!(sel < 0.5, "selectivity implausibly high: {sel}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SoccerConfig::default()
            .duration_secs(5)
            .sample_interval(100);
        let a = SoccerDataset::generate(&cfg, 3);
        let b = SoccerDataset::generate(&cfg, 3);
        assert_eq!(a.log, b.log);
        let ds = a.into_dataset();
        assert_eq!(ds.name, "Dx2real(sim)");
    }
}
