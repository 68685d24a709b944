//! Seeded inputs: the collections, queries and insert streams of every
//! workload. Everything here is a pure function of the workload, its
//! size and the seed; the program under test only ever sees the records
//! and the request bodies built from them.

use nucdb::{DbConfig, FineMode, SearchParams, Strand};
use nucdb_index::ListCodec;
use nucdb_seq::random::{random_seq, CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::DnaSeq;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The benchmark's workloads. Each one exists to load a different layer
/// of the system; the reason sits beside each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fine search dominates: short family fragments, both strands, 100
    /// candidates per strand, default `paper` codec on disk. Most time
    /// goes to record fetch and banded alignment; no list is long enough
    /// for block skipping, which this workload bypasses.
    Homology,
    /// Coarse search dominates: long whole-parent queries and unrelated
    /// negatives over a `block`-codec index whose shared adapter
    /// segments make lists span many 128-posting blocks, forward strand
    /// only, 5 candidates, and a coarse floor high enough that
    /// hopeless-block skipping engages. The serve share per request is
    /// largest here, since long bodies are parsed for little fine work.
    /// Its traced pass also measures the shard layer, over the same
    /// collection built as two shards.
    Screen,
    /// Writes beside reads: a live database served with default live
    /// options takes `POST /insert` batches at a fixed rate on one
    /// connection while the other searches, so memtable, flush, manifest
    /// swap, compaction and multi-part coarse search all run. No other
    /// workload touches the segment layer.
    LiveMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Homology, Workload::Screen, Workload::LiveMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Homology => "homology",
            Workload::Screen => "screen",
            Workload::LiveMixed => "live_mixed",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the generated inputs are. [`Size::full`] is what the
/// benchmark measures; [`Size::tiny`] keeps the smoke tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Collection bases of the homology collection.
    pub homology_bases: usize,
    /// Collection bases of the live_mixed collection (initial records
    /// plus the insert stream).
    pub live_bases: usize,
    /// Planted families in the homology and live_mixed collections.
    pub homology_families: usize,
    /// Collection bases of the screen collection.
    pub screen_bases: usize,
    /// Planted families in the screen collection.
    pub screen_families: usize,
    /// live_mixed: share of the background records the server starts
    /// with (all family members are always present from the start).
    pub live_initial_frac: f64,
}

impl Size {
    /// The measured size.
    pub fn full() -> Size {
        Size {
            homology_bases: 1_000_000,
            live_bases: 5_000_000,
            homology_families: 64,
            screen_bases: 2_000_000,
            screen_families: 64,
            live_initial_frac: 0.1,
        }
    }

    /// A small size for the benchmark's own tests.
    pub fn tiny() -> Size {
        Size {
            homology_bases: 60_000,
            live_bases: 1_200_000,
            homology_families: 8,
            screen_bases: 120_000,
            screen_families: 8,
            live_initial_frac: 0.25,
        }
    }
}

/// One query: its request id, sequence and the planted family whose
/// members are its true answers (`None` for a negative).
#[derive(Debug, Clone)]
pub struct Query {
    /// Id sent as the FASTA header.
    pub id: String,
    /// The query sequence.
    pub seq: DnaSeq,
    /// Index into [`Inputs::families`], when the query has true answers.
    pub family: Option<usize>,
}

/// Everything one workload run is generated from.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The seed everything is derived from.
    pub seed: u64,
    /// The sizes used.
    pub size: Size,
    /// The whole collection, in record-id order.
    pub records: Vec<(String, DnaSeq)>,
    /// Record ids of each planted family's members.
    pub families: Vec<Vec<u32>>,
    /// Parent sequence of each planted family.
    parents: Vec<DnaSeq>,
    /// Adapter library shared by screen records and queries.
    adapters: Vec<DnaSeq>,
    /// Build configuration of the served database.
    pub config: DbConfig,
    /// Server-side search parameters.
    pub params: SearchParams,
    /// live_mixed: records `..initial` are loaded at set-up, the rest are
    /// streamed through `POST /insert`. Equal to `records.len()`
    /// elsewhere.
    pub initial: usize,
}

/// A collection of about `bases` bases: `families` planted families of
/// five members, filled up with background records.
fn collection_spec(
    seed: u64,
    bases: usize,
    families: usize,
    parent_len: std::ops::Range<usize>,
    mutation: MutationModel,
    background_len: std::ops::Range<usize>,
) -> CollectionSpec {
    let spec = CollectionSpec {
        seed,
        num_families: families,
        family_size: 5,
        parent_len,
        mutation,
        background_len,
        ..CollectionSpec::default()
    };
    let mean = |r: &std::ops::Range<usize>| (r.start + r.end) / 2;
    let member = mean(&spec.parent_len) + mean(&spec.flank_len) * 2;
    let background = bases.saturating_sub(families * spec.family_size * member);
    CollectionSpec {
        num_background: (background / mean(&spec.background_len)).max(1),
        ..spec
    }
}

/// Reorder `records` so the ones a live server starts with come first:
/// every family member plus the first `frac` of the background, in their
/// original relative order. The rest of the background becomes the
/// insert stream. Family member ids are remapped; returns the number of
/// initial records.
fn move_stream_to_tail(
    records: &mut Vec<(String, DnaSeq)>,
    families: &mut [Vec<u32>],
    frac: f64,
) -> usize {
    let mut member = vec![false; records.len()];
    for &id in families.iter().flatten() {
        member[id as usize] = true;
    }
    let background = member.iter().filter(|&&m| !m).count();
    let mut keep = (background as f64 * frac) as usize;
    let initial: Vec<bool> = member
        .iter()
        .map(|&m| {
            if m {
                return true;
            }
            if keep == 0 {
                return false;
            }
            keep -= 1;
            true
        })
        .collect();
    let order: Vec<usize> = (0..records.len())
        .filter(|&i| initial[i])
        .chain((0..records.len()).filter(|&i| !initial[i]))
        .collect();
    let mut new_id = vec![0u32; records.len()];
    for (new, &old) in order.iter().enumerate() {
        new_id[old] = new as u32;
    }
    for id in families.iter_mut().flatten() {
        *id = new_id[*id as usize];
    }
    let mut slots: Vec<Option<(String, DnaSeq)>> = records.drain(..).map(Some).collect();
    records.extend(
        order
            .iter()
            .map(|&old| slots[old].take().expect("each record is placed once")),
    );
    initial.iter().filter(|&&i| i).count()
}

/// Mix a seed with a stream tag and an index into an independent seed
/// (splitmix64 finaliser), so every query and record stream is
/// reproducible on its own.
fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed ^ tag.rotate_left(32) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const TAG_COLLECTION: u64 = 1;
const TAG_QUERY: u64 = 2;
const TAG_ADAPTERS: u64 = 3;
const TAG_WARMUP: u64 = 4;

/// Distinct adapter segments shared by screen background records.
const ADAPTERS: usize = 2;
/// Length of each screen adapter segment.
const ADAPTER_LEN: usize = 60;
/// live_mixed: records per `POST /insert` request.
pub const INSERT_BATCH: usize = 8;
/// live_mixed: records per second the writer offers, about two thirds of
/// what a closed-loop writer gets through on a 2-CPU host. A fixed rate
/// puts the flushes and compactions, and with them the held records,
/// memory and disk figures, at the same points of every run, instead of
/// following the host's speed.
pub const INSERT_RATE: f64 = 400.0;
/// Share of screen background records that carry an adapter.
const ADAPTER_RATE: f64 = 0.8;
/// Coarse floor on screen. A background record that shares
/// one adapter with a query collects about 53 hits from it plus a few
/// dozen chance hits, while a family member matched by a lightly
/// mutated whole parent collects several hundred; between the two, every
/// adapter-only record is provably hopeless late in the query, so whole
/// blocks of the adapter lists are skipped.
const SCREEN_FLOOR: u32 = 160;
/// Length of the unrelated negatives sent on screen.
const NEGATIVE_LEN: usize = 2_000;

impl Inputs {
    /// Generate the inputs of `workload` at `size` from `seed`.
    pub fn generate(workload: Workload, size: Size, seed: u64) -> Inputs {
        match workload {
            Workload::Homology | Workload::LiveMixed => {
                Inputs::homology_shaped(workload, size, seed)
            }
            Workload::Screen => Inputs::screen_shaped(workload, size, seed),
        }
    }

    fn homology_shaped(workload: Workload, size: Size, seed: u64) -> Inputs {
        // Parents of 120-240 bases make ~100-base queries, the length
        // of a short read. live_mixed has many short background records,
        // so its insert stream outlasts the timed phase.
        let (bases, background_len) = match workload {
            Workload::LiveMixed => (size.live_bases, 150..450),
            _ => (size.homology_bases, 400..2000),
        };
        let spec = collection_spec(
            mix(seed, TAG_COLLECTION, 0),
            bases,
            size.homology_families,
            120..240,
            MutationModel::standard(0.10),
            background_len,
        );
        let coll = SyntheticCollection::generate(&spec);
        let parents = coll.families.iter().map(|f| f.parent.clone()).collect();
        let mut families: Vec<Vec<u32>> = coll.families.into_iter().map(|f| f.member_ids).collect();
        let mut records: Vec<(String, DnaSeq)> =
            coll.records.into_iter().map(|r| (r.id, r.seq)).collect();
        let mut initial = records.len();
        let params = if workload == Workload::LiveMixed {
            initial = move_stream_to_tail(&mut records, &mut families, size.live_initial_frac);
            // Homology-shaped searches beside the writes: 30 candidates,
            // forward strand.
            SearchParams {
                max_candidates: 30,
                strand: Strand::Forward,
                ..SearchParams::default()
            }
        } else {
            SearchParams {
                max_candidates: 100,
                strand: Strand::Both,
                ..SearchParams::default()
            }
        };
        Inputs {
            workload,
            seed,
            size,
            records,
            families,
            parents,
            adapters: Vec::new(),
            config: DbConfig::default(),
            params,
            initial,
        }
    }

    fn screen_shaped(workload: Workload, size: Size, seed: u64) -> Inputs {
        // Family members stay close to their parent (3% divergence), so
        // a whole-parent query clears the high coarse floor.
        let spec = collection_spec(
            mix(seed, TAG_COLLECTION, 0),
            size.screen_bases,
            size.screen_families,
            300..600,
            MutationModel::standard(0.03),
            200..1000,
        );
        let coll = SyntheticCollection::generate(&spec);
        let mut rng = StdRng::seed_from_u64(mix(seed, TAG_ADAPTERS, 0));
        let adapters: Vec<DnaSeq> = (0..ADAPTERS)
            .map(|_| random_seq(&mut rng, ADAPTER_LEN, 0.5, 0.0))
            .collect();
        // Vector/adapter contamination: most background records carry
        // one of a few shared segments at a random position, so those
        // segments' interval lists are long.
        let records: Vec<(String, DnaSeq)> = coll
            .records
            .into_iter()
            .map(|r| {
                if !r.id.starts_with("bg") || !rng.random_bool(ADAPTER_RATE) {
                    return (r.id, r.seq);
                }
                let adapter = &adapters[rng.random_range(0..adapters.len())];
                let at = rng.random_range(0..=r.seq.len());
                let mut seq = r.seq.subseq(0..at);
                seq.extend_from(adapter);
                seq.extend_from(&r.seq.subseq(at..r.seq.len()));
                (r.id, seq)
            })
            .collect();
        let initial = records.len();
        Inputs {
            workload,
            seed,
            size,
            families: coll.families.iter().map(|f| f.member_ids.clone()).collect(),
            parents: coll.families.into_iter().map(|f| f.parent).collect(),
            records,
            adapters,
            config: DbConfig {
                codec: ListCodec::Block,
                ..DbConfig::default()
            },
            params: SearchParams {
                max_candidates: 5,
                min_coarse_hits: SCREEN_FLOOR,
                strand: Strand::Forward,
                ..SearchParams::default()
            },
            initial,
        }
    }

    /// Measured query `i`. Queries are distinct within a run (each draws
    /// its own fragment offset and mutations), so a result cache would
    /// see no repeats.
    pub fn query(&self, i: u64) -> Query {
        self.make_query(TAG_QUERY, i)
    }

    /// Warm-up query `i`, disjoint from the measured stream.
    pub fn warmup_query(&self, i: u64) -> Query {
        self.make_query(TAG_WARMUP, i)
    }

    fn make_query(&self, tag: u64, i: u64) -> Query {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, tag, i));
        let id = format!("q{tag}-{i}");
        match self.workload {
            Workload::Homology | Workload::LiveMixed => {
                // A fragment at 60% of a parent's length, 5% divergent.
                // On homology every other one is reverse-complemented, as
                // reads from either strand would be.
                let f = rng.random_range(0..self.parents.len());
                let parent = &self.parents[f];
                let take = (parent.len() * 6 / 10).max(1);
                let start = rng.random_range(0..=parent.len() - take);
                let mut seq = MutationModel::substitutions(0.05)
                    .apply(&parent.subseq(start..start + take), &mut rng);
                if self.workload == Workload::Homology && i % 2 == 1 {
                    seq = seq.reverse_complement();
                }
                Query {
                    id,
                    seq,
                    family: Some(f),
                }
            }
            Workload::Screen => {
                // Every query carries an adapter, as contaminated reads
                // do; three in four are a lightly mutated whole parent,
                // every fourth an unrelated ~2 kb sequence. The fixed mix
                // keeps the median inside the positives' cost and the p99
                // inside the negatives', so neither sits on the boundary
                // between the two.
                let adapter = &self.adapters[rng.random_range(0..self.adapters.len())];
                let (body, family) = if i % 4 != 3 {
                    let f = rng.random_range(0..self.parents.len());
                    let seq = MutationModel::substitutions(0.01).apply(&self.parents[f], &mut rng);
                    (seq, Some(f))
                } else {
                    (random_seq(&mut rng, NEGATIVE_LEN, 0.5, 0.0), None)
                };
                let mut seq = adapter.clone();
                seq.extend_from(&body);
                Query { id, seq, family }
            }
        }
    }

    /// Total bases in records `range`.
    pub fn bases(&self, range: std::ops::Range<usize>) -> u64 {
        self.records[range]
            .iter()
            .map(|(_, s)| s.len() as u64)
            .sum()
    }

    /// Fine mode the server uses.
    pub fn fine_half_width(&self) -> usize {
        match self.params.fine {
            FineMode::Banded { half_width } => half_width,
            _ => 0,
        }
    }
}

/// The FASTA body of one `/search` request.
pub fn fasta(id: &str, seq: &DnaSeq) -> Vec<u8> {
    let mut body = Vec::with_capacity(seq.len() + id.len() + 4);
    body.push(b'>');
    body.extend_from_slice(id.as_bytes());
    body.push(b'\n');
    body.extend_from_slice(&seq.to_ascii_vec());
    body.push(b'\n');
    body
}

/// The FASTA body of one `/insert` request.
pub fn fasta_records(records: &[(String, DnaSeq)]) -> Vec<u8> {
    let mut body = Vec::new();
    for (id, seq) in records {
        body.extend_from_slice(&fasta(id, seq));
    }
    body
}
