//! Fine search: local alignment of the coarse candidates.
//!
//! The paper's second stage. Only the top coarse candidates reach this
//! point, so even full Smith–Waterman here costs a fraction of an
//! exhaustive scan — but the default is cheaper still: a *banded*
//! alignment centred on the diagonal coarse ranking discovered.

use nucdb_align::{banded_sw_score, sw_align, sw_score, sw_score_iupac, Alignment, ScoringScheme};
use nucdb_index::Granularity;
use nucdb_seq::{DnaSeq, SeqError};

use crate::coarse::CoarseHit;
use crate::store::RecordSource;

/// How fine search aligns each candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FineMode {
    /// Banded Smith–Waterman around the candidate's coarse diagonal.
    Banded {
        /// Band half-width in bases.
        half_width: usize,
    },
    /// Full (unbanded) Smith–Waterman, score only.
    Full,
    /// Full Smith–Waterman with traceback: slowest, but results carry
    /// complete alignments.
    FullWithTraceback,
    /// Full Smith–Waterman over the lossless IUPAC sequences: ambiguity
    /// codes score by set overlap instead of collapsing to representative
    /// bases — the accurate mode for wildcard-heavy records.
    FullIupac,
}

impl FineMode {
    /// The mode to run over an index of `granularity`. A
    /// record-granularity index reports no diagonals, so banded
    /// alignment has nothing to centre on and falls back to full local
    /// alignment (score-only).
    pub(crate) fn for_granularity(self, granularity: Granularity) -> FineMode {
        match self {
            FineMode::Banded { .. } if granularity == Granularity::Records => FineMode::Full,
            mode => mode,
        }
    }
}

impl Default for FineMode {
    fn default() -> FineMode {
        FineMode::Banded { half_width: 24 }
    }
}

/// Per-candidate timing captured by [`fine_search_traced`] for forensic
/// span trees. Offsets are relative to the start of the fine stage.
#[derive(Debug, Clone, Copy)]
pub struct CandidateTiming {
    /// Record id aligned.
    pub record: u32,
    /// Nanoseconds from the start of the fine stage to this candidate's
    /// alignment starting.
    pub start_ns: u64,
    /// Nanoseconds spent aligning this candidate.
    pub nanos: u64,
    /// The alignment score (before the `min_score` filter).
    pub score: i32,
}

/// A fine-scored candidate.
#[derive(Debug, Clone)]
pub struct FineResult {
    /// Record id.
    pub record: u32,
    /// Local alignment score.
    pub score: i32,
    /// The coarse evidence that promoted this record.
    pub coarse: CoarseHit,
    /// Full alignment, when [`FineMode::FullWithTraceback`] was used.
    pub alignment: Option<Alignment>,
}

/// Align `candidates` against the query; returns results in descending
/// score order (ties by ascending record id), scores below `min_score`
/// dropped.
///
/// `query` must be in the orientation being searched (the engine passes
/// the reverse complement for the reverse strand).
///
/// Record decodes are fallible: an on-disk store surfaces read failures
/// and checksum mismatches here, and the whole fine pass reports them as
/// an error instead of panicking or aligning against corrupt bytes.
pub fn fine_search<S: RecordSource>(
    store: &S,
    query: &DnaSeq,
    candidates: &[CoarseHit],
    mode: FineMode,
    scheme: &ScoringScheme,
    min_score: i32,
) -> Result<Vec<FineResult>, SeqError> {
    fine_search_traced(store, query, candidates, mode, scheme, min_score, None)
}

/// [`fine_search`] that additionally records per-candidate wall time
/// into `timings` (append-only; pass `None` to skip all timing work).
/// Results are identical to [`fine_search`] — the instrumentation only
/// reads the clock around each candidate.
pub fn fine_search_traced<S: RecordSource>(
    store: &S,
    query: &DnaSeq,
    candidates: &[CoarseHit],
    mode: FineMode,
    scheme: &ScoringScheme,
    min_score: i32,
    mut timings: Option<&mut Vec<CandidateTiming>>,
) -> Result<Vec<FineResult>, SeqError> {
    let stage_start = timings.as_ref().map(|_| std::time::Instant::now());
    let query_bases = query.representative_bases();
    let mut results: Vec<FineResult> = Vec::with_capacity(candidates.len());
    for &coarse in candidates {
        let start_ns = stage_start.map(|s| s.elapsed().as_nanos() as u64);
        let (score, alignment) = match mode {
            FineMode::Banded { half_width } => {
                let target = store.try_bases(coarse.record)?;
                (
                    banded_sw_score(
                        &query_bases,
                        &target,
                        scheme,
                        coarse.best_diagonal,
                        half_width,
                    ),
                    None,
                )
            }
            FineMode::Full => {
                let target = store.try_bases(coarse.record)?;
                (sw_score(&query_bases, &target, scheme), None)
            }
            FineMode::FullWithTraceback => {
                let target = store.try_bases(coarse.record)?;
                let alignment = sw_align(&query_bases, &target, scheme);
                (alignment.as_ref().map_or(0, |a| a.score), alignment)
            }
            FineMode::FullIupac => {
                let target = store.sequence(coarse.record)?;
                (sw_score_iupac(query, &target, scheme), None)
            }
        };
        if let (Some(timings), Some(start_ns)) = (timings.as_deref_mut(), start_ns) {
            let end_ns = stage_start.unwrap().elapsed().as_nanos() as u64;
            timings.push(CandidateTiming {
                record: coarse.record,
                start_ns,
                nanos: end_ns.saturating_sub(start_ns),
                score,
            });
        }
        if score >= min_score {
            results.push(FineResult {
                record: coarse.record,
                score,
                coarse,
                alignment,
            });
        }
    }
    results.sort_by(|a, b| b.score.cmp(&a.score).then(a.record.cmp(&b.record)));
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{SequenceStore, StorageMode};

    fn store_with(records: &[&[u8]]) -> SequenceStore {
        let mut store = SequenceStore::new(StorageMode::DirectCoding);
        for (i, r) in records.iter().enumerate() {
            store.add(format!("r{i}"), &DnaSeq::from_ascii(r).unwrap());
        }
        store
    }

    fn hit(record: u32, diagonal: i64) -> CoarseHit {
        CoarseHit {
            record,
            score: 1.0,
            hits: 1,
            frame_hits: 1,
            best_diagonal: diagonal,
        }
    }

    fn query() -> DnaSeq {
        DnaSeq::from_ascii(b"ACGTAGCTAGCTGGATCC").unwrap()
    }

    #[test]
    fn banded_finds_alignment_on_good_diagonal() {
        let store = store_with(&[b"TTTTTTACGTAGCTAGCTGGATCCTTTT"]);
        let results = fine_search(
            &store,
            &query(),
            &[hit(0, 6)],
            FineMode::Banded { half_width: 8 },
            &ScoringScheme::blastn(),
            1,
        )
        .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].score, 18 * 5);
        assert!(results[0].alignment.is_none());
    }

    #[test]
    fn full_modes_agree_on_score() {
        let store = store_with(&[b"GGGGACGTAGCTAGCTGGATCCGGGG"]);
        let q = query();
        let scheme = ScoringScheme::blastn();
        let full = fine_search(&store, &q, &[hit(0, 0)], FineMode::Full, &scheme, 1).unwrap();
        let traced = fine_search(
            &store,
            &q,
            &[hit(0, 0)],
            FineMode::FullWithTraceback,
            &scheme,
            1,
        )
        .unwrap();
        assert_eq!(full[0].score, traced[0].score);
        let alignment = traced[0].alignment.as_ref().unwrap();
        assert_eq!(alignment.score, traced[0].score);
        assert!(alignment.is_consistent());
    }

    #[test]
    fn iupac_mode_scores_wildcards_fairly() {
        // Target has Ns where the query has real bases. Representative
        // collapsing turns the Ns into As (mismatching the query's Cs);
        // IUPAC-aware alignment scores them as partial matches instead.
        let store = store_with(&[b"ACGTAGNNNNGGATCCAAAA"]);
        let q = DnaSeq::from_ascii(b"ACGTAGCCCCGGATCC").unwrap();
        let scheme = ScoringScheme::blastn();
        let collapsed = fine_search(&store, &q, &[hit(0, 0)], FineMode::Full, &scheme, 1).unwrap();
        let iupac = fine_search(&store, &q, &[hit(0, 0)], FineMode::FullIupac, &scheme, 1).unwrap();
        assert!(
            iupac[0].score > collapsed[0].score,
            "iupac {} <= collapsed {}",
            iupac[0].score,
            collapsed[0].score
        );
    }

    #[test]
    fn min_score_filters() {
        let store = store_with(&[b"TTTTTTTTTTTTTTTTTT"]);
        let results = fine_search(
            &store,
            &query(),
            &[hit(0, 0)],
            FineMode::Full,
            &ScoringScheme::blastn(),
            10,
        )
        .unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn results_sorted_by_score() {
        let store = store_with(&[
            b"ACGTAGCTAG",         // partial match
            b"ACGTAGCTAGCTGGATCC", // exact match
            b"ACGTAGCTAGCTGG",     // longer partial
        ]);
        let results = fine_search(
            &store,
            &query(),
            &[hit(0, 0), hit(1, 0), hit(2, 0)],
            FineMode::Full,
            &ScoringScheme::blastn(),
            1,
        )
        .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].record, 1);
        assert!(results[0].score > results[1].score);
        assert!(results[1].score >= results[2].score);
        assert_eq!(results[1].record, 2);
    }

    #[test]
    fn traced_variant_matches_untraced_and_times_every_candidate() {
        let store = store_with(&[
            b"ACGTAGCTAG",
            b"ACGTAGCTAGCTGGATCC",
            b"TTTTTTTTTTTTTTTTTT", // scores below min_score, still timed
        ]);
        let hits = [hit(0, 0), hit(1, 0), hit(2, 0)];
        let scheme = ScoringScheme::blastn();
        let plain = fine_search(&store, &query(), &hits, FineMode::Full, &scheme, 10).unwrap();
        let mut timings = Vec::new();
        let traced = fine_search_traced(
            &store,
            &query(),
            &hits,
            FineMode::Full,
            &scheme,
            10,
            Some(&mut timings),
        )
        .unwrap();
        let key = |r: &FineResult| (r.record, r.score);
        assert_eq!(
            plain.iter().map(key).collect::<Vec<_>>(),
            traced.iter().map(key).collect::<Vec<_>>()
        );
        // Every candidate is timed, including ones the score filter drops.
        assert_eq!(timings.len(), 3);
        let records: Vec<u32> = timings.iter().map(|t| t.record).collect();
        assert_eq!(records, [0, 1, 2]);
        for pair in timings.windows(2) {
            assert!(pair[1].start_ns >= pair[0].start_ns + pair[0].nanos);
        }
    }

    #[test]
    fn empty_candidates_empty_results() {
        let store = store_with(&[b"ACGT"]);
        let results = fine_search(
            &store,
            &query(),
            &[],
            FineMode::Full,
            &ScoringScheme::blastn(),
            1,
        )
        .unwrap();
        assert!(results.is_empty());
    }
}
