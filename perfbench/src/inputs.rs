//! Workload definitions and seeded input generation. Everything the
//! program under test receives is built here, before any timing starts,
//! and is a pure function of the workload, the seed and the run length.

use soteria_corpus::{Corpus, CorpusConfig};
use soteria_gea::TargetSelection;
use std::collections::{HashMap, HashSet};

/// The benchmark's workloads (see `perfbench/README.md` for why each one
/// exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, two submitters, every request a distinct binary: clean
    /// held-out binaries interleaved with GEA adversarial examples.
    ScreenBatch,
    /// Open loop at a fixed rate over clean binaries: an even share of
    /// first-seen binaries, Zipf-skewed repeats of seen ones.
    ScreenStream,
}

/// Offered rate of the open loop, in requests per second.
pub const STREAM_RATE: u64 = 1000;
/// First-seen binaries per 1000 open-loop requests. An assumption, not a
/// measurement: it sets the verdict cache's hit ratio (about 0.97) and with
/// it the share of requests that reach extraction. At this share a 25 s run
/// has 750 distinct binaries, so the default 1024-entry cache never evicts
/// and the whole run stays in one regime.
pub const STREAM_FIRST_SEEN_PER_MILLE: u64 = 30;
/// Zipf exponent of the open loop's repeats: inside the 0.64–0.83 range
/// Breslau et al. measured for requests to web objects ("Web Caching and
/// Zipf-like Distributions: Evidence and Implications", INFOCOM 1999),
/// taking a screening gateway's repeat lookups to be skewed like the
/// downloads it screens.
pub const STREAM_ZIPF_S: f64 = 0.75;
/// Training share of the base corpus: 185 of its 231 samples.
const TRAIN_FRACTION: f64 = 0.8;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ScreenBatch, Workload::ScreenStream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScreenBatch => "screen-batch",
            Workload::ScreenStream => "screen-stream",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Latency limit behind `within_limit_ratio`.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::ScreenStream => 20.0,
            Workload::ScreenBatch => 100.0,
        }
    }

    /// Requests the traced run drives again and replays layer by layer:
    /// the start of the untraced schedule. Enough for each layer's
    /// percentiles (every request of a batch prefix is distinct; ten
    /// seconds of the stream hold 300 distinct binaries), and short enough
    /// that the sequential replay keeps a traced run within its time limit.
    pub fn traced_requests(self) -> usize {
        match self {
            Workload::ScreenBatch => 1000,
            Workload::ScreenStream => 10 * STREAM_RATE as usize,
        }
    }

    /// How many base corpora's worth of samples to generate: the
    /// training split stays at 185 samples, so every copy adds 231
    /// held-out binaries, and the request pool covers a run of `seconds`.
    fn corpus_copies(self, seconds: u64) -> usize {
        match self {
            // About 750 distinct binaries per copy: twice what two
            // submitters screen in the run on the 2-core reference host at
            // its usual speed, and as much as they screen when it runs
            // half again as fast.
            Workload::ScreenBatch => seconds as usize + 1,
            Workload::ScreenStream => {
                // A quarter to spare for byte-identical samples.
                let distinct = first_seen_count(stream_len(seconds));
                (distinct + distinct / 4 + 185).div_ceil(231).max(2)
            }
        }
    }
}

/// One distinct binary of a workload's request pool.
#[derive(Debug, Clone)]
pub struct Request {
    pub bytes: Vec<u8>,
    /// Built by GEA (the detector should flag it).
    pub adversarial: bool,
}

/// Everything a run hands to the program under test.
#[derive(Debug)]
pub struct Inputs {
    pub corpus: Corpus,
    /// Corpus indices of the training split (185 samples).
    pub train: Vec<usize>,
    /// A training binary, screened once per set-up as its first verdict;
    /// never part of the request sequence.
    pub warmup: Vec<u8>,
    /// The distinct binaries, in first-use order.
    pub pool: Vec<Request>,
    /// The request sequence as indices into `pool`.
    pub schedule: Vec<usize>,
}

/// Generates the inputs of `workload` for `seed` and a run of `seconds`.
///
/// The corpus is `CorpusConfig::scaled(0.01, seed)` — the one
/// `soteria-cli train` uses — with every class count multiplied by the
/// workload's copy count. All samples share the base corpus's variant
/// lineages, so held-out binaries resemble the training data as they do
/// in the paper. A split fraction of 0.8 / copies keeps the training split
/// at 185 samples; every other sample is held out.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let copies = workload.corpus_copies(seconds);
    let base = CorpusConfig::scaled(0.01, seed);
    let corpus = Corpus::generate(&CorpusConfig {
        counts: base.counts.map(|c| c * copies),
        ..base
    });
    let split = corpus.split(TRAIN_FRACTION / copies as f64, seed);
    // The median-sized training binary: a first verdict of typical cost
    // whatever the seed.
    let mut by_size: Vec<Vec<u8>> = split
        .train
        .iter()
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    by_size.sort_by_key(Vec::len);
    let warmup = by_size.swap_remove(by_size.len() / 2);
    let mut rng = SplitMix::new(seed ^ 0x5EED_B47C);
    let clean: Vec<Request> = split
        .test
        .iter()
        .map(|&i| Request {
            bytes: corpus.samples()[i].binary().to_bytes(),
            adversarial: false,
        })
        .collect();
    let mut clean = distinct(clean, &warmup);
    rng.shuffle(&mut clean);
    let (pool, schedule) = match workload {
        Workload::ScreenBatch => {
            let gea = gea_requests(&corpus, &base.counts, &split.test);
            let mut gea = distinct(gea, &warmup);
            rng.shuffle(&mut gea);
            let pool = interleave(clean, gea);
            let schedule = (0..pool.len()).collect();
            (pool, schedule)
        }
        Workload::ScreenStream => {
            let mut pool = clean;
            let schedule = stream_schedule(stream_len(seconds), &mut rng);
            let needed = schedule.iter().max().map_or(0, |&m| m + 1);
            assert!(
                needed <= pool.len(),
                "stream needs {needed} distinct binaries, held-out pool has {}",
                pool.len()
            );
            pool.truncate(needed);
            (spread_by_size(pool), schedule)
        }
    };
    Inputs {
        corpus,
        train: split.train,
        warmup,
        pool,
        schedule,
    }
}

/// Drops byte-identical repeats (the generator and GEA can both emit the
/// same binary twice) and the warm-up binary, so a first-seen request is
/// never a cache hit.
fn distinct(pool: Vec<Request>, warmup: &[u8]) -> Vec<Request> {
    let keep: Vec<bool> = {
        let mut seen = HashSet::from([warmup]);
        pool.iter()
            .map(|r| seen.insert(r.bytes.as_slice()))
            .collect()
    };
    pool.into_iter()
        .zip(keep)
        .filter_map(|(r, k)| k.then_some(r))
        .collect()
}

/// Merges all of both lists into one sequence at their own proportion —
/// the clean-to-example mix the Table III protocol yields — spread evenly
/// (a Bresenham pattern), so every window of the run has that mix.
fn interleave(clean: Vec<Request>, gea: Vec<Request>) -> Vec<Request> {
    let total = clean.len() + gea.len();
    let share = clean.len();
    let mut clean = clean.into_iter();
    let mut gea = gea.into_iter();
    (0..total)
        .map(|i| {
            let is_clean = (i * share) / total != ((i + 1) * share) / total;
            if is_clean { clean.next() } else { gea.next() }.expect("both lists are counted")
        })
        .collect()
}

/// The paper's Table III protocol, applied to each base-sized slice of the
/// corpus (the k-th `base_counts[f]` samples of every class f): GEA embeds
/// each of the slice's 12 selected targets (class × size) into every
/// held-out sample of another class in the slice, as
/// `soteria_gea::attack::generate_batch` does. Selecting per slice keeps
/// the largest target, and with it the cost of the biggest examples, the
/// same whatever the copy count, and averages it over many targets. The
/// merged binary is assembled from the two graphs alone, so originals with
/// equal graphs would only yield repeats; each graph is merged once.
/// Slices are split over two threads.
fn gea_requests(corpus: &Corpus, base_counts: &[usize; 4], held_out: &[usize]) -> Vec<Request> {
    let mut is_held_out = vec![false; corpus.len()];
    for &i in held_out {
        is_held_out[i] = true;
    }
    // Slice membership: samples are generated class by class, so the
    // ordinal within the class decides the slice.
    let mut seen = [0usize; 4];
    let mut slices: Vec<Vec<usize>> = Vec::new();
    for (i, sample) in corpus.samples().iter().enumerate() {
        let f = sample.family().index();
        let slice = seen[f] / base_counts[f];
        seen[f] += 1;
        if slices.len() <= slice {
            slices.resize_with(slice + 1, Vec::new);
        }
        slices[slice].push(i);
    }
    let per_slice = |members: &[usize]| -> Vec<Request> {
        let sub = Corpus::from_samples(
            members
                .iter()
                .map(|&i| corpus.samples()[i].clone())
                .collect(),
            corpus.config().seed,
        );
        let mut buckets: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        let originals: Vec<usize> = (0..members.len())
            .filter(|&k| is_held_out[members[k]])
            .filter(|&k| {
                let g = sub.samples()[k].graph();
                let bucket = buckets.entry((g.node_count(), g.edge_count())).or_default();
                let fresh = !bucket.iter().any(|&j| sub.samples()[j].graph() == g);
                if fresh {
                    bucket.push(k);
                }
                fresh
            })
            .collect();
        let selection = TargetSelection::select(&sub);
        selection
            .targets()
            .iter()
            .flat_map(|target| {
                soteria_gea::attack::generate_batch(&sub, &selection, target, &originals)
                    .expect("GEA over a generated corpus cannot fail")
                    .examples
            })
            .map(|ae| Request {
                bytes: ae.merged.sample().binary().to_bytes(),
                adversarial: true,
            })
            .collect()
    };
    let slices = &slices;
    std::thread::scope(|s| {
        let jobs: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    (t..slices.len())
                        .step_by(2)
                        .map(|j| (j, per_slice(&slices[j])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut by_slice: Vec<(usize, Vec<Request>)> = jobs
            .into_iter()
            .flat_map(|j| j.join().expect("GEA generator thread panicked"))
            .collect();
        by_slice.sort_by_key(|(j, _)| *j);
        by_slice.into_iter().flat_map(|(_, reqs)| reqs).collect()
    })
}

/// Number of open-loop requests in a run of `seconds`.
pub fn stream_len(seconds: u64) -> usize {
    (STREAM_RATE * seconds) as usize
}

/// Whether open-loop request `i` is a first-seen binary. The pattern is a
/// Bresenham line: exactly `floor(i · rate)` first-seen requests precede
/// request `i` (plus request 0), so every window of the run carries the
/// same share instead of front-loading the misses.
pub fn is_first_seen(i: usize) -> bool {
    let p = STREAM_FIRST_SEEN_PER_MILLE as usize;
    i == 0 || (i * p) / 1000 != ((i - 1) * p) / 1000
}

fn first_seen_count(len: usize) -> usize {
    (0..len).filter(|&i| is_first_seen(i)).count()
}

/// The open-loop sequence: first-seen binaries in pool order at the
/// positions [`is_first_seen`] picks; every other request repeats an
/// already-seen binary, the k-th seen with probability ∝ k^-s.
pub fn stream_schedule(len: usize, rng: &mut SplitMix) -> Vec<usize> {
    let distinct = first_seen_count(len);
    let mut cumulative = Vec::with_capacity(distinct);
    let mut acc = 0.0;
    for k in 1..=distinct {
        acc += (k as f64).powf(-STREAM_ZIPF_S);
        cumulative.push(acc);
    }
    let mut seen = 0usize;
    (0..len)
        .map(|i| {
            if is_first_seen(i) {
                seen += 1;
                seen - 1
            } else {
                let u = rng.unit() * cumulative[seen - 1];
                cumulative[..seen]
                    .partition_point(|&c| c <= u)
                    .min(seen - 1)
            }
        })
        .collect()
}

/// Reorders the stream's binaries so that every prefix spans their sizes
/// evenly: the k-th binary (from 1) is the one at size quantile
/// `radical_inverse(k)` — ½, ¼, ¾, ⅛, ⅝, … (van der Corput, base 2) —
/// or the next unused one above it. First-seen order is popularity
/// order, so the most requested binary is the median-sized one and the
/// repeats' sizes mirror the pool's whatever the seed. With a random
/// order a few popular binaries set the typical size: a cache hit's cost
/// grows with the bytes hashed, the sizes are bimodal (a few hundred
/// bytes or several KB, by variant lineage), and on some seeds the median
/// hit flipped between the two from one window to the next.
fn spread_by_size(mut pool: Vec<Request>) -> Vec<Request> {
    // Stable, so equal sizes keep their shuffled order.
    pool.sort_by_key(|r| r.bytes.len());
    let n = pool.len();
    let mut taken = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for k in 1u32.. {
        if order.len() == n {
            break;
        }
        let mut i = (radical_inverse(k) * n as f64) as usize;
        while taken[i] {
            i = (i + 1) % n;
        }
        taken[i] = true;
        order.push(i);
    }
    let mut slots: Vec<Option<Request>> = pool.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each index is taken once"))
        .collect()
}

/// The base-2 radical inverse of `k`: its binary digits mirrored about
/// the point, in `[0, 1)`.
fn radical_inverse(k: u32) -> f64 {
    k.reverse_bits() as f64 / (1u64 << 32) as f64
}

/// SplitMix64: a small, fully specified generator, so the request
/// sequence depends on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_bytes(inputs: &Inputs) -> Vec<&[u8]> {
        inputs
            .schedule
            .iter()
            .map(|&i| inputs.pool[i].bytes.as_slice())
            .collect()
    }

    #[test]
    fn same_seed_gives_same_requests_in_same_order() {
        for workload in Workload::ALL {
            let a = generate(workload, 11, 1);
            let b = generate(workload, 11, 1);
            assert_eq!(request_bytes(&a), request_bytes(&b), "{}", workload.name());
            assert_eq!(a.warmup, b.warmup);
            let c = generate(workload, 12, 1);
            assert_ne!(request_bytes(&a), request_bytes(&c), "{}", workload.name());
        }
    }

    #[test]
    fn batch_requests_are_distinct_and_mix_clean_with_gea() {
        let inputs = generate(Workload::ScreenBatch, 3, 1);
        let mut keys: Vec<&[u8]> = inputs.pool.iter().map(|r| r.bytes.as_slice()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), inputs.pool.len());
        assert_eq!(inputs.train.len(), 185);
        let gea = inputs.pool.iter().filter(|r| r.adversarial).count();
        assert!(gea > 0 && gea < inputs.pool.len());
        // The Table III mix, spread evenly: every tenth of the pool holds
        // the pool's clean share, to within one request.
        let clean = inputs.pool.len() - gea;
        let tenth = inputs.pool.len() / 10;
        for (w, chunk) in inputs.pool.chunks(tenth).take(10).enumerate() {
            let n = chunk.iter().filter(|r| !r.adversarial).count() as f64;
            let expected = tenth as f64 * clean as f64 / inputs.pool.len() as f64;
            assert!((n - expected).abs() <= 1.0, "window {w}: {n} vs {expected}");
        }
        let warm = inputs.warmup.as_slice();
        assert!(inputs.pool.iter().all(|r| r.bytes != warm));
    }

    #[test]
    fn stream_binaries_span_their_sizes_in_every_prefix() {
        // Distinct sizes 1..=n, shuffled.
        let n = 300;
        let mut pool: Vec<Request> = (1..=n)
            .map(|len| Request {
                bytes: vec![0; len],
                adversarial: false,
            })
            .collect();
        SplitMix::new(9).shuffle(&mut pool);
        let sizes: Vec<usize> = spread_by_size(pool).iter().map(|r| r.bytes.len()).collect();
        let mut all = sizes.clone();
        all.sort_unstable();
        assert_eq!(all, (1..=n).collect::<Vec<_>>(), "every binary kept once");
        // The most requested binary is the median-sized one, then the
        // quartiles, then the octiles.
        assert_eq!(&sizes[..3], &[n / 2 + 1, n / 4 + 1, 3 * n / 4 + 1]);
        // Every power-of-two prefix holds as many binaries from the lower
        // half of the sizes as from the upper half.
        for m in [2, 4, 16, 64, 256] {
            let lower = sizes[..m].iter().filter(|&&s| s <= n / 2).count();
            assert_eq!(lower, m / 2, "prefix {m}");
        }
        // In generated inputs too, the first binary has the median size.
        let inputs = generate(Workload::ScreenStream, 7, 10);
        let mut lens: Vec<usize> = inputs.pool.iter().map(|r| r.bytes.len()).collect();
        let first = lens[0];
        lens.sort_unstable();
        assert_eq!(first, lens[lens.len() / 2]);
    }

    #[test]
    fn first_seen_share_is_steady_across_windows() {
        let mut rng = SplitMix::new(5);
        let len = stream_len(10);
        let schedule = stream_schedule(len, &mut rng);
        let mut seen = vec![false; len];
        let fresh: Vec<bool> = schedule
            .iter()
            .map(|&b| !std::mem::replace(&mut seen[b], true))
            .collect();
        for (i, &f) in fresh.iter().enumerate() {
            assert_eq!(f, is_first_seen(i), "request {i}");
        }
        let window = len / 10;
        let expected = window as f64 * STREAM_FIRST_SEEN_PER_MILLE as f64 / 1000.0;
        for (w, chunk) in fresh.chunks(window).enumerate() {
            let n = chunk.iter().filter(|&&f| f).count() as f64;
            assert!((n - expected).abs() <= 1.0, "window {w}: {n} vs {expected}");
        }
        // Repeats are skewed toward the earliest binaries.
        let distinct = schedule.iter().max().map_or(0, |&m| m + 1);
        let mut counts = vec![0usize; distinct];
        for &b in &schedule {
            counts[b] += 1;
        }
        let late_max = counts[distinct / 2..].iter().copied().max().unwrap_or(0);
        assert!(
            counts[0] > 10 * late_max.max(1),
            "{} vs {late_max}",
            counts[0]
        );
    }
}
