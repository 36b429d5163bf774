//! Synthetic dataset generators (D×3syn and D×4syn, Sec. VI).
//!
//! Each stream is generated exactly as the paper describes: for every new
//! tuple the generation clock `iT` advances by a fixed tick (10 ms by
//! default, i.e. 100 tuples/s), a delay is drawn from a Zipf distribution
//! over `[0, max_delay]`, and the tuple timestamp is set to `iT - delay`.
//! The generation order is the arrival order, so a delayed tuple is an
//! out-of-order tuple from the consumer's perspective.  Join attribute
//! values are drawn from Zipf distributions over `[1, 100]` whose skew
//! changes at random intervals of 1–10 minutes (scaled down for short
//! runs) to produce a time-varying join selectivity.

use crate::zipf::Zipf;
use crate::Dataset;
use mswj_join::JoinQuery;
use mswj_types::{ArrivalEvent, ArrivalLog, Duration, Interleaver, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of one synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of input streams (3 for D×3syn, 4 for D×4syn).
    pub(crate) streams: usize,
    /// Total generated duration per stream (ms).
    pub(crate) duration_ms: Duration,
    /// Generation clock tick (ms); the paper uses 10 ms (100 tuples/s).
    pub(crate) tick_ms: Duration,
    /// Maximum tuple delay (ms); the paper uses 20 s.
    pub(crate) max_delay_ms: Duration,
    /// Delay-granularity for the Zipf delay domain (ms): delays are drawn
    /// from `{0, step, 2·step, …, max_delay}`.
    pub delay_step_ms: Duration,
    /// Per-stream Zipf skews for the delay distribution
    /// (paper: `z^d = [2.0, 3.0, 3.0]` for D×3syn and `[3.0, 3.0, 3.0, 4.0]`
    /// for D×4syn).
    pub delay_skews: Vec<f64>,
    /// Domain of the join attribute values (paper: `[1, 100]`).
    pub(crate) value_domain: usize,
    /// Sliding window size applied by the query on every stream (ms).
    pub(crate) window_ms: Duration,
    /// Mean interval between changes of the value skew (ms).  The paper
    /// redraws the skew every 1–10 minutes; short runs scale this down.
    pub value_skew_change_ms: Duration,
}

impl SyntheticConfig {
    /// The D×3syn configuration of the paper (scaled to full length only by
    /// [`SyntheticConfig::duration_secs`]).
    pub fn three_way() -> Self {
        SyntheticConfig {
            streams: 3,
            duration_ms: 30 * 60_000,
            tick_ms: 10,
            max_delay_ms: 20_000,
            delay_step_ms: 100,
            delay_skews: vec![2.0, 3.0, 3.0],
            value_domain: 100,
            window_ms: 5_000,
            value_skew_change_ms: 120_000,
        }
    }

    /// The D×4syn configuration of the paper.
    pub fn four_way() -> Self {
        SyntheticConfig {
            streams: 4,
            duration_ms: 30 * 60_000,
            tick_ms: 10,
            max_delay_ms: 20_000,
            delay_step_ms: 100,
            delay_skews: vec![3.0, 3.0, 3.0, 4.0],
            value_domain: 100,
            window_ms: 3_000,
            value_skew_change_ms: 120_000,
        }
    }

    /// Overrides the duration (seconds) — the main scale knob.
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.duration_ms = secs * 1_000;
        self
    }

    /// Overrides the generation tick (ms), i.e. the per-stream data rate.
    pub fn tick(mut self, tick_ms: Duration) -> Self {
        self.tick_ms = tick_ms.max(1);
        self
    }

    /// Overrides the maximum delay (ms).
    pub fn max_delay(mut self, ms: Duration) -> Self {
        self.max_delay_ms = ms;
        self
    }
}

/// A generated synthetic workload (query + arrival log).
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The join query (Q×3 or Q×4 depending on the stream count).
    pub query: JoinQuery,
    /// The interleaved arrival log.
    pub log: ArrivalLog,
    /// The configuration that produced it.
    pub(crate) config: SyntheticConfig,
}

impl SyntheticDataset {
    /// Generates a workload deterministically from `config` and `seed`.
    pub fn generate(config: &SyntheticConfig, seed: u64) -> Self {
        assert!(
            config.streams == 3 || config.streams == 4,
            "the paper's synthetic workloads have 3 or 4 streams"
        );
        let query = if config.streams == 3 {
            crate::queries::q3_query(config.window_ms)
        } else {
            crate::queries::q4_query(config.window_ms)
        };

        let delay_ranks = (config.max_delay_ms / config.delay_step_ms.max(1)) as usize + 1;
        let mut interleaver = Interleaver::new();
        for stream in 0..config.streams {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64 ^ (stream as u64) << 32));
            let delay_zipf = Zipf::new(delay_ranks, config.delay_skews[stream]);
            let mut value_zipf = Zipf::new(config.value_domain, 1.0);
            let mut next_skew_change: u64 = sample_change_interval(&mut rng, config);
            let mut events = Vec::with_capacity((config.duration_ms / config.tick_ms) as usize);
            let mut gen_clock: u64 = 0;
            let mut seq: u64 = 0;
            while gen_clock < config.duration_ms {
                gen_clock += config.tick_ms;
                if gen_clock >= next_skew_change {
                    // Time-varying selectivity: redraw the value skew in [0, 5].
                    let new_skew = rng.gen_range(0.0..=5.0);
                    value_zipf = Zipf::new(config.value_domain, new_skew);
                    next_skew_change = gen_clock + sample_change_interval(&mut rng, config);
                }
                let delay = (delay_zipf.sample(&mut rng) as u64 - 1) * config.delay_step_ms;
                let ts = gen_clock.saturating_sub(delay);
                let values = attribute_values(config.streams, stream, &value_zipf, &mut rng);
                let tuple = Tuple::new(stream.into(), seq, Timestamp::from_millis(ts), values);
                events.push(ArrivalEvent::new(Timestamp::from_millis(gen_clock), tuple));
                seq += 1;
            }
            interleaver.add_stream(events);
        }
        SyntheticDataset {
            query,
            log: interleaver.merge(),
            config: config.clone(),
        }
    }

    /// Wraps the generated workload as a generic [`Dataset`].
    pub fn into_dataset(self) -> Dataset {
        let name = if self.config.streams == 3 {
            "Dx3syn"
        } else {
            "Dx4syn"
        };
        Dataset::new(name, self.query, self.log)
    }
}

fn sample_change_interval(rng: &mut StdRng, config: &SyntheticConfig) -> u64 {
    // The paper redraws the value skew every 1–10 minutes; we scale the
    // interval with the configured mean so short runs still see changes.
    let mean = config.value_skew_change_ms.max(1);
    rng.gen_range(mean / 2..=mean * 2)
}

fn attribute_values(
    streams: usize,
    stream: usize,
    value_zipf: &Zipf,
    rng: &mut StdRng,
) -> Vec<Value> {
    if streams == 3 {
        // All three streams carry a single attribute a1.
        vec![Value::Int(value_zipf.sample(rng) as i64)]
    } else if stream == 0 {
        // D×4syn anchor stream S1 carries (a1, a2, a3).
        vec![
            Value::Int(value_zipf.sample(rng) as i64),
            Value::Int(value_zipf.sample(rng) as i64),
            Value::Int(value_zipf.sample(rng) as i64),
        ]
    } else {
        // Satellite streams carry exactly one attribute.
        vec![Value::Int(value_zipf.sample(rng) as i64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::StreamIndex;

    #[test]
    fn three_way_generation_matches_configuration() {
        let cfg = SyntheticConfig::three_way().duration_secs(10);
        let d = SyntheticDataset::generate(&cfg, 1);
        // 10 s at 100 tuples/s and 3 streams = 3 000 tuples.
        assert_eq!(d.log.len(), 3_000);
        for s in 0..3 {
            assert_eq!(d.log.count_for(StreamIndex(s)), 1_000);
        }
        assert_eq!(d.query.arity(), 3);
        assert_eq!(d.query.windows(), vec![5_000; 3]);
        // Arrival instants never precede tuple timestamps (delays >= 0).
        assert!(d.log.iter().all(|e| e.arrival >= e.ts()));
        // There is some disorder but the majority of tuples are in order
        // (Zipf skew >= 2 puts most mass on delay 0).
        let late = d.log.iter().filter(|e| e.arrival > e.ts()).count();
        assert!(late > 0);
        assert!((late as f64) < 0.6 * d.log.len() as f64);
    }

    #[test]
    fn four_way_generation_has_star_schema() {
        let cfg = SyntheticConfig::four_way().duration_secs(5);
        let d = SyntheticDataset::generate(&cfg, 2);
        assert_eq!(d.query.arity(), 4);
        assert_eq!(d.query.windows(), vec![3_000; 4]);
        for e in d.log.iter() {
            let expected_arity = if e.stream() == StreamIndex(0) { 3 } else { 1 };
            assert_eq!(e.tuple.arity(), expected_arity);
        }
        let ds = d.into_dataset();
        assert_eq!(ds.name, "Dx4syn");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SyntheticConfig::three_way().duration_secs(3);
        let a = SyntheticDataset::generate(&cfg, 99);
        let b = SyntheticDataset::generate(&cfg, 99);
        let c = SyntheticDataset::generate(&cfg, 100);
        assert_eq!(a.log, b.log);
        assert_ne!(a.log, c.log);
    }

    #[test]
    fn delays_respect_the_configured_bound() {
        let cfg = SyntheticConfig::three_way()
            .duration_secs(5)
            .max_delay(2_000);
        let d = SyntheticDataset::generate(&cfg, 5);
        for e in d.log.iter() {
            let delay = e.arrival - e.ts();
            assert!(delay <= 2_000, "delay {delay} exceeds the bound");
        }
    }

    #[test]
    fn values_stay_in_domain() {
        let cfg = SyntheticConfig::three_way().duration_secs(2);
        let d = SyntheticDataset::generate(&cfg, 3);
        for e in d.log.iter() {
            let v = e.tuple.value(0).and_then(Value::as_int).unwrap();
            assert!((1..=100).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "3 or 4 streams")]
    fn rejects_unsupported_stream_counts() {
        let mut cfg = SyntheticConfig::three_way();
        cfg.streams = 5;
        cfg.delay_skews = vec![1.0; 5];
        let _ = SyntheticDataset::generate(&cfg, 0);
    }
}
