//! Seed-derived inputs: the loaded and held-out key sets and the operation
//! streams. The same seed gives the same inputs; the program under test
//! receives only what is generated here.

use csv_common::key::identity_records;
use csv_common::rng::SplitMix64;
use csv_common::{Key, KeyValue};
use csv_datasets::{Dataset, Zipfian};

/// The loaded and held-out key sets are a fixed property of the benchmark
/// (OSM-like, clustered — the paper's hard case); the run's seed chooses
/// every operation stream and nothing else. LIPP's shape, and with it the
/// smoothing and maintenance work, is chaotic in which keys are present:
/// with a seed-chosen fifth of the population held out, `mean_key_level`
/// read 2.38-2.65, `setup_s` 0.67-1.59 and `maintain_s` 0.94-2.10 across ten
/// seeds of identical code, and swapping a mere one key in a thousand still
/// moved `mean_key_level` between 2.39 and 2.58. A regression gate has to
/// tell a 10 % change from noise, so the data holds still.
const POPULATION_SEED: u64 = 0x0511_2025;
const PARTITION_SEED: u64 = 0x6865_6c64;

/// Zipfian skew of every skewed stream (YCSB's default).
pub const ZIPF_THETA: f64 = 0.99;

/// Sizes of one run. `smoke` divides the full sizes by about twenty.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Keys bulk-loaded into the bare and the served index.
    pub loaded: usize,
    /// Keys held out of the load, inserted by `serve-mixed` and
    /// `ingest-recover`.
    pub held_out: usize,
    pub shards: usize,
    /// Passes per run. Each pass sets up afresh and walks the four
    /// segments, so a metric's units come from separate stretches of the run
    /// and a neighbour's busy spell cannot cover them all.
    pub passes: usize,
    /// Lookups per timed pass of `lookup-bare`, in blocks of
    /// [`Sizes::BLOCK`].
    pub lookup_pass: usize,
    /// Closed-loop iterations (`Get`, `MultiGet/64`, `Range/100`) per batch.
    pub closed_batch: usize,
    /// `Get`s per pipelined round.
    pub pipelined_round: usize,
    /// Open-loop rate of `serve-mixed`, operations per second.
    pub mixed_rate: u64,
    /// Zipfian overwrites per `write_batch/64` round, and rounds per unit.
    pub overwrite_round: usize,
    pub overwrite_rounds: usize,
    /// Maintained insert bursts per unit, and held-out inserts per burst.
    pub bursts: usize,
    pub burst_inserts: usize,
    /// Unmaintained writes before the crash, and recoveries timed after it.
    pub tail_writes: usize,
    pub recoveries: usize,
    /// Requests of each kind whose spans a traced run records.
    pub traced_requests: usize,
    /// Trace-only index cells (ALEX x OSM, LIPP x Genome).
    pub alex_keys: usize,
    pub genome_keys: usize,
}

impl Sizes {
    pub const BLOCK: usize = 1_000;
    pub const MULTI_GET: usize = 64;
    pub const SCAN_LIMIT: usize = 100;
    pub const PIPELINE_DEPTH: usize = 32;
    pub const WRITE_GROUP: usize = 64;

    pub fn full() -> Self {
        Self {
            loaded: 64_000,
            held_out: 16_000,
            shards: 8,
            passes: 3,
            lookup_pass: 50_000,
            closed_batch: 100,
            pipelined_round: 20_000,
            mixed_rate: 2_000,
            overwrite_round: 20_000,
            overwrite_rounds: 10,
            bursts: 1,
            burst_inserts: 2_000,
            tail_writes: 10_000,
            recoveries: 5,
            traced_requests: 300,
            alex_keys: 100_000,
            genome_keys: 200_000,
        }
    }

    pub fn smoke() -> Self {
        Self {
            loaded: 3_200,
            held_out: 800,
            shards: 8,
            passes: 3,
            lookup_pass: 5_000,
            closed_batch: 20,
            pipelined_round: 2_000,
            mixed_rate: 2_000,
            overwrite_round: 2_000,
            overwrite_rounds: 5,
            bursts: 1,
            burst_inserts: 100,
            tail_writes: 500,
            recoveries: 3,
            traced_requests: 20,
            alex_keys: 5_000,
            genome_keys: 10_000,
        }
    }
}

pub struct Inputs {
    pub seed: u64,
    pub sizes: Sizes,
    /// Loaded keys, ascending.
    pub keys: Vec<Key>,
    pub records: Vec<KeyValue>,
    /// Held-out keys in the order they are inserted.
    pub held_out: Vec<Key>,
}

impl Inputs {
    pub fn generate(seed: u64, sizes: Sizes) -> Self {
        let population = Dataset::Osm.generate(sizes.loaded + sizes.held_out, POPULATION_SEED);
        // Partial Fisher-Yates under a fixed seed: the first `held_out`
        // positions of the shuffle are held out, in shuffle order.
        let mut order: Vec<usize> = (0..population.len()).collect();
        let mut rng = SplitMix64::new(PARTITION_SEED);
        for i in 0..sizes.held_out.min(order.len()) {
            let j = i + rng.next_below((order.len() - i) as u64) as usize;
            order.swap(i, j);
        }
        let mut loaded_positions = order.split_off(sizes.held_out);
        let held_out: Vec<Key> = order.iter().map(|&i| population[i]).collect();
        loaded_positions.sort_unstable();
        let keys: Vec<Key> = loaded_positions
            .into_iter()
            .map(|i| population[i])
            .collect();
        let records = identity_records(&keys);
        Self {
            seed,
            sizes,
            keys,
            records,
            held_out,
        }
    }

    /// An independent random stream per purpose, so adding a draw to one
    /// phase never shifts another phase's inputs.
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::new(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }

    /// `count` keys drawn uniformly from `from`.
    pub fn uniform(&self, stream: u64, from: &[Key], count: usize) -> Vec<Key> {
        let mut rng = self.rng(stream);
        (0..count)
            .map(|_| from[rng.next_below(from.len() as u64) as usize])
            .collect()
    }

    /// A Zipfian(0.99) stream over the loaded keys.
    pub fn zipf(&self, stream: u64) -> ZipfKeys<'_> {
        ZipfKeys {
            ranks: Zipfian::new(self.keys.len(), ZIPF_THETA, self.rng(stream).next_u64() | 1),
            keys: &self.keys,
        }
    }
}

pub struct ZipfKeys<'a> {
    ranks: Zipfian,
    keys: &'a [Key],
}

impl ZipfKeys<'_> {
    /// The next key. Ranks are scrambled multiplicatively (as
    /// `Zipfian::sample_keys` does) so the hot set is not one contiguous,
    /// artificially cache-friendly key range.
    pub fn next_key(&mut self) -> Key {
        let rank = self.ranks.next_rank() as u64;
        self.keys[rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize % self.keys.len()]
    }

    pub fn take(&mut self, count: usize) -> Vec<Key> {
        (0..count).map(|_| self.next_key()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let a = Inputs::generate(7, Sizes::smoke());
        let b = Inputs::generate(7, Sizes::smoke());
        let c = Inputs::generate(8, Sizes::smoke());
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.held_out, b.held_out);
        assert_eq!(a.zipf(1).take(50), b.zipf(1).take(50));
        assert_eq!(a.keys, c.keys, "the data does not depend on the seed");
        assert_ne!(
            a.zipf(1).take(50),
            c.zipf(1).take(50),
            "the operation streams do"
        );
        assert_ne!(a.zipf(1).take(50), a.zipf(2).take(50));
    }

    #[test]
    fn loaded_and_held_out_partition_the_population() {
        let sizes = Sizes::smoke();
        let inputs = Inputs::generate(3, sizes);
        assert_eq!(inputs.keys.len(), sizes.loaded);
        assert_eq!(inputs.held_out.len(), sizes.held_out);
        assert!(inputs.keys.windows(2).all(|w| w[0] < w[1]));
        assert!(inputs
            .held_out
            .iter()
            .all(|k| inputs.keys.binary_search(k).is_err()));
    }
}
