//! The Gibbs count state: `N_dk`, `N_wk`, `N_k` behind one type.
//!
//! [`TopicCounts`] owns the three tables every reader of the sampler state
//! goes through — the sequential sweep, the parallel sweep's
//! workers, φ/θ point estimates, perplexity, and Minka's fixed-point
//! hyperparameter updates. Centralizing them keeps the add/remove
//! bookkeeping in one place and gives the parallel scheduler a single
//! thing to read and merge into.
//!
//! # Parallel sweeps read the live tables
//!
//! The parallel sweep samples every document against the
//! sweep-start `N_wk`/`N_k`. No copy is needed for that: nothing writes
//! `N_wk`, `N_k` or the per-word nonzero index between a sweep's start and
//! its barrier, because the merge
//! ([`apply_delta`](TopicCounts::apply_delta)) runs only after every
//! worker has joined. [`sweep_views`](TopicCounts::sweep_views) therefore
//! hands the workers the live tables, shared read-only, and the merge
//! costs one write per sparse `(idx, Δ)` entry — proportional to how many
//! counts moved, independent of V·K.
//!
//! # Sparse nonzero indexes
//!
//! The bucketed O(active-topics) sampling kernel (`kernel.rs`,
//! `KERNEL_VERSION = 2`) iterates only the topics a word or document
//! actually uses. [`TopicCounts`] therefore maintains, alongside the dense
//! tables, a **sorted** list of nonzero topics per `N_wk` row
//! ([`word_nz`](TopicCounts::word_nz)) and per `N_dk` row
//! ([`doc_nz`](TopicCounts::doc_nz)). Every mutation path keeps them in
//! sync: `add_group`/`remove_group` on the sequential path, and the
//! sparse `(idx, Δ)` barrier merge on the parallel path
//! ([`apply_delta`](TopicCounts::apply_delta) watches the 0 ↔ nonzero
//! transitions it already computes). Sorted order makes the kernel's
//! bucket-sum iteration order canonical, which is what keeps the sampled
//! chain bit-identical across thread counts.

/// Dense count tables of a collapsed Gibbs chain over `D` documents,
/// `V` words, and `K` topics, plus their sorted nonzero-topic indexes.
///
/// Equality compares only the chain state (`N_dk`/`N_wk`/`N_k`); the
/// nonzero indexes are derived from it.
#[derive(Debug, Clone)]
pub struct TopicCounts {
    k: usize,
    v: usize,
    /// `N_{d,k}`: tokens of doc d assigned to topic k (row-major `d*K + k`).
    pub(crate) n_dk: Vec<u32>,
    /// `N_{w,k}`: tokens of word w assigned to topic k (row-major `w*K + k`).
    pub(crate) n_wk: Vec<u32>,
    /// `N_k`: tokens assigned to topic k.
    pub(crate) n_k: Vec<u64>,
    /// Per-word sorted topics with `N_wk > 0` (the topic-word bucket's
    /// iteration set), stored *flat* at fixed capacity K per row: word
    /// `w`'s list is `nz_wk[w*K .. w*K + nz_wk_len[w]]`. A row can never
    /// exceed K entries, so the flat layout costs V·K `u16`s but turns
    /// every access into one direct index — no per-row `Vec` header to
    /// chase through a second cache line on this per-token hot path.
    /// `u16` because `K < 65536` everywhere in this crate (topics are
    /// `u16` assignments).
    nz_wk: Vec<u16>,
    /// Live lengths of the `nz_wk` rows.
    nz_wk_len: Vec<u16>,
    /// Per-document sorted topics with `N_dk > 0` (the document bucket's
    /// iteration set), flat like `nz_wk`: doc `d`'s list is
    /// `nz_dk[d*K .. d*K + nz_dk_len[d]]`.
    nz_dk: Vec<u16>,
    /// Live lengths of the `nz_dk` rows.
    nz_dk_len: Vec<u16>,
}

/// Ask the kernel to back a large table with transparent huge pages
/// (`madvise(MADV_HUGEPAGE)`). The Gibbs sweep strides `N_wk` and its
/// nonzero index at random word offsets, so with 4 KiB pages a V = 100k /
/// K = 32 model walks thousands of TLB entries per sweep — measurably
/// slower than the same tables on a handful of 2 MiB pages. Best-effort:
/// failures are ignored, and the function is a no-op off Linux/x86_64 or
/// for tables under 2 MiB. Issued as a raw syscall because this crate
/// deliberately has no libc dependency.
fn advise_huge<T>(table: &[T]) {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let len = std::mem::size_of_val(table);
        if len < 2 << 20 {
            return;
        }
        // Round inward to page boundaries; madvise rejects unaligned
        // starts, and the partial head/tail pages can't be huge anyway.
        let page = 4096usize;
        let start = (table.as_ptr() as usize).next_multiple_of(page);
        let end = (table.as_ptr() as usize + len) & !(page - 1);
        if end <= start {
            return;
        }
        unsafe {
            let ret: isize;
            std::arch::asm!(
                "syscall",
                inlateout("rax") 28isize => ret, // SYS_madvise
                in("rdi") start,
                in("rsi") end - start,
                in("rdx") 14usize, // MADV_HUGEPAGE
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
            let _ = ret; // best-effort: EINVAL on THP-less kernels is fine
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    let _ = table;
}

/// Insert `t` into a fixed-capacity sorted row (`row[..*len]` live);
/// no-op if present. The caller guarantees capacity: a topic list holds
/// at most K entries and the row is K wide.
#[inline]
pub fn nz_row_insert(row: &mut [u16], len: &mut u16, t: u16) {
    let n = *len as usize;
    if let Err(pos) = row[..n].binary_search(&t) {
        row.copy_within(pos..n, pos + 1);
        row[pos] = t;
        *len += 1;
    }
}

/// Remove `t` from a fixed-capacity sorted row (no-op if absent).
#[inline]
pub fn nz_row_remove(row: &mut [u16], len: &mut u16, t: u16) {
    let n = *len as usize;
    if let Ok(pos) = row[..n].binary_search(&t) {
        row.copy_within(pos + 1..n, pos);
        *len -= 1;
    }
}

/// Split-borrow of [`TopicCounts`] for one parallel sweep: the live
/// `N_wk`/`N_k` and per-word nonzero index, shared read-only by every
/// worker, plus `n_dk`/`nz_dk` chunked mutably per document block. The nz
/// indexes come as flat fixed-capacity-K rows plus their length arrays.
pub struct SweepViews<'a> {
    pub n_wk: &'a [u32],
    pub n_k: &'a [u64],
    pub n_dk: &'a mut [u32],
    pub nz_wk: &'a [u16],
    pub nz_wk_len: &'a [u16],
    pub nz_dk: &'a mut [u16],
    pub nz_dk_len: &'a mut [u16],
}

impl PartialEq for TopicCounts {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.v == other.v
            && self.n_dk == other.n_dk
            && self.n_wk == other.n_wk
            && self.n_k == other.n_k
    }
}

impl Eq for TopicCounts {}

impl TopicCounts {
    pub fn new(n_docs: usize, vocab_size: usize, n_topics: usize) -> Self {
        let counts = Self {
            k: n_topics,
            v: vocab_size,
            n_dk: vec![0; n_docs * n_topics],
            n_wk: vec![0; vocab_size * n_topics],
            n_k: vec![0; n_topics],
            nz_wk: vec![0; vocab_size * n_topics],
            nz_wk_len: vec![0; vocab_size],
            nz_dk: vec![0; n_docs * n_topics],
            nz_dk_len: vec![0; n_docs],
        };
        // The per-word tables are the sweep's random-access working set.
        advise_huge(&counts.n_wk);
        advise_huge(&counts.nz_wk);
        counts
    }

    #[inline]
    pub fn n_topics(&self) -> usize {
        self.k
    }

    #[inline]
    pub fn vocab_size(&self) -> usize {
        self.v
    }

    #[inline]
    pub fn n_dk(&self, d: usize, t: usize) -> u32 {
        self.n_dk[d * self.k + t]
    }

    #[inline]
    pub fn n_wk(&self, w: u32, t: usize) -> u32 {
        self.n_wk[w as usize * self.k + t]
    }

    #[inline]
    pub fn n_k(&self, t: usize) -> u64 {
        self.n_k[t]
    }

    /// This document's `N_dk` row (length K).
    #[inline]
    pub fn doc_row(&self, d: usize) -> &[u32] {
        &self.n_dk[d * self.k..(d + 1) * self.k]
    }

    /// The full `N_wk` table, row-major `w*K + k` (e.g. to build a
    /// [`crate::kernel::TrainView`]).
    #[inline]
    pub fn n_wk_table(&self) -> &[u32] {
        &self.n_wk
    }

    /// The full `N_k` table.
    #[inline]
    pub fn n_k_table(&self) -> &[u64] {
        &self.n_k
    }

    /// This word's `N_wk` row (length K).
    #[inline]
    pub fn word_row(&self, w: u32) -> &[u32] {
        &self.n_wk[w as usize * self.k..(w as usize + 1) * self.k]
    }

    /// Hint the hardware prefetcher at word `w`'s `N_wk` row and nonzero
    /// row. The sweep visits words in corpus order — effectively random
    /// over V — so the next group's rows are almost never resident;
    /// issuing the loads one group ahead hides most of the miss latency
    /// for the sparse and the dense draw alike. A no-op off x86_64.
    #[inline]
    pub fn prefetch_word(&self, w: u32) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let base = w as usize * self.k;
            let row = self.n_wk.as_ptr().add(base) as *const i8;
            _mm_prefetch(row, _MM_HINT_T0);
            if self.k > 16 {
                // A u32 row longer than one cache line: touch its tail too
                // (the dense multi-token draw reads all K entries).
                _mm_prefetch(row.add(self.k * 4 - 1), _MM_HINT_T0);
            }
            _mm_prefetch(self.nz_wk.as_ptr().add(base) as *const i8, _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = w;
    }

    /// Sorted topics with `N_wk > 0` for word `w`.
    #[inline]
    pub fn word_nz(&self, w: u32) -> &[u16] {
        let base = w as usize * self.k;
        &self.nz_wk[base..base + self.nz_wk_len[w as usize] as usize]
    }

    /// Sorted topics with `N_dk > 0` for document `d`.
    #[inline]
    pub fn doc_nz(&self, d: usize) -> &[u16] {
        let base = d * self.k;
        &self.nz_dk[base..base + self.nz_dk_len[d] as usize]
    }

    /// Check the sparse nonzero indexes against the dense tables: every
    /// list sorted, and `t ∈ list ⇔ count > 0`. O(D·K + V·K); test/debug
    /// aid for the mutation paths that maintain the lists incrementally.
    pub fn validate_nz(&self) -> Result<(), String> {
        let check = |label: &str, row: &[u32], nz: &[u16]| -> Result<(), String> {
            if !nz.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("{label}: nz list not strictly sorted: {nz:?}"));
            }
            for (t, &count) in row.iter().enumerate() {
                let listed = nz.binary_search(&(t as u16)).is_ok();
                if listed != (count > 0) {
                    return Err(format!(
                        "{label}: topic {t} count {count} but listed={listed}"
                    ));
                }
            }
            Ok(())
        };
        for w in 0..self.v {
            check(
                &format!("word {w}"),
                &self.n_wk[w * self.k..(w + 1) * self.k],
                self.word_nz(w as u32),
            )?;
        }
        for d in 0..self.nz_dk_len.len() {
            check(
                &format!("doc {d}"),
                &self.n_dk[d * self.k..(d + 1) * self.k],
                self.doc_nz(d),
            )?;
        }
        Ok(())
    }

    /// Split-borrow for one parallel sweep: the live `N_wk`/`N_k` and
    /// per-word nonzero index (shared across worker threads, which only
    /// read them before the barrier merge), the mutable `N_dk` rows
    /// (chunked per document block), and `nz_dk` (chunked like `n_dk`).
    #[inline]
    pub fn sweep_views(&mut self) -> SweepViews<'_> {
        SweepViews {
            n_wk: &self.n_wk,
            n_k: &self.n_k,
            n_dk: &mut self.n_dk,
            nz_wk: &self.nz_wk,
            nz_wk_len: &self.nz_wk_len,
            nz_dk: &mut self.nz_dk,
            nz_dk_len: &mut self.nz_dk_len,
        }
    }

    /// Move a clique's tokens into topic `topic`.
    #[inline]
    pub fn add_group(&mut self, d: usize, tokens: &[u32], topic: u16) {
        let kt = topic as usize;
        for &w in tokens {
            let base = w as usize * self.k;
            let cell = &mut self.n_wk[base + kt];
            if *cell == 0 {
                nz_row_insert(
                    &mut self.nz_wk[base..base + self.k],
                    &mut self.nz_wk_len[w as usize],
                    topic,
                );
            }
            *cell += 1;
        }
        let s = tokens.len() as u32;
        let base = d * self.k;
        let cell = &mut self.n_dk[base + kt];
        if *cell == 0 {
            nz_row_insert(
                &mut self.nz_dk[base..base + self.k],
                &mut self.nz_dk_len[d],
                topic,
            );
        }
        *cell += s;
        self.n_k[kt] += s as u64;
    }

    /// Remove a clique's tokens from topic `topic`.
    #[inline]
    pub fn remove_group(&mut self, d: usize, tokens: &[u32], topic: u16) {
        let kt = topic as usize;
        for &w in tokens {
            let base = w as usize * self.k;
            let cell = &mut self.n_wk[base + kt];
            *cell -= 1;
            if *cell == 0 {
                nz_row_remove(
                    &mut self.nz_wk[base..base + self.k],
                    &mut self.nz_wk_len[w as usize],
                    topic,
                );
            }
        }
        let s = tokens.len() as u32;
        let base = d * self.k;
        let cell = &mut self.n_dk[base + kt];
        *cell -= s;
        if *cell == 0 {
            nz_row_remove(
                &mut self.nz_dk[base..base + self.k],
                &mut self.nz_dk_len[d],
                topic,
            );
        }
        self.n_k[kt] -= s as u64;
    }

    /// Apply one shard's signed count delta from a parallel sweep:
    /// `delta_wk` as sparse `(row-major index, delta)` pairs (the same
    /// index may repeat), `delta_k` dense over the K topics. Integer
    /// addition commutes and the nonzero lists are sorted sets, so the
    /// merged state is independent of shard count, application order, and
    /// the order of entries within a delta.
    pub fn apply_delta(&mut self, delta_wk: &[(u32, i32)], delta_k: &[i64]) {
        debug_assert_eq!(delta_k.len(), self.n_k.len());
        // The same index may repeat across shards and documents, so
        // 0 ↔ nonzero transitions are watched per update.
        for &(i, d) in delta_wk {
            let i = i as usize;
            let prev = self.n_wk[i];
            let next = prev as i64 + d as i64;
            debug_assert!(next >= 0, "n_wk went negative in merge");
            self.n_wk[i] = next as u32;
            if (prev == 0) != (next == 0) {
                let (w, t) = (i / self.k, (i % self.k) as u16);
                let row = &mut self.nz_wk[w * self.k..(w + 1) * self.k];
                if next > 0 {
                    nz_row_insert(row, &mut self.nz_wk_len[w], t);
                } else {
                    nz_row_remove(row, &mut self.nz_wk_len[w], t);
                }
            }
        }
        for (c, &d) in self.n_k.iter_mut().zip(delta_k) {
            let next = *c as i64 + d;
            debug_assert!(next >= 0, "n_k went negative in merge");
            *c = next as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_round_trips() {
        let mut c = TopicCounts::new(2, 5, 3);
        c.add_group(1, &[0, 4, 4], 2);
        assert_eq!(c.n_dk(1, 2), 3);
        assert_eq!(c.n_wk(4, 2), 2);
        assert_eq!(c.n_k(2), 3);
        assert_eq!(c.doc_row(1), &[0, 0, 3]);
        c.remove_group(1, &[0, 4, 4], 2);
        assert_eq!(c, TopicCounts::new(2, 5, 3));
    }

    #[test]
    fn nz_indexes_track_group_mutations() {
        let mut c = TopicCounts::new(2, 5, 4);
        assert!(c.word_nz(4).is_empty());
        c.add_group(1, &[0, 4, 4], 2);
        c.add_group(1, &[4], 0);
        assert_eq!(c.word_nz(4), &[0, 2]);
        assert_eq!(c.doc_nz(1), &[0, 2]);
        assert!(c.doc_nz(0).is_empty());
        c.validate_nz().unwrap();
        c.remove_group(1, &[4], 0);
        assert_eq!(c.word_nz(4), &[2]);
        assert_eq!(c.doc_nz(1), &[2]);
        c.remove_group(1, &[0, 4, 4], 2);
        assert!(c.word_nz(4).is_empty());
        assert!(c.doc_nz(1).is_empty());
        c.validate_nz().unwrap();
    }

    #[test]
    fn nz_index_survives_repeated_delta_indices() {
        let mut c = TopicCounts::new(1, 2, 2);
        c.add_group(0, &[0], 0);
        // Two shards both touched cell (w=0, t=0): 1 → 0 → 1 across the
        // merge. The nz list must see both transitions, not just the net.
        c.apply_delta(&[(0, -1), (0, 1)], &[0, 0]);
        assert_eq!(c.word_nz(0), &[0]);
        c.validate_nz().unwrap();
        // Net removal and net insertion through the merged path.
        c.apply_delta(&[(0, -1), (1, 1)], &[-1, 1]);
        assert_eq!(c.word_nz(0), &[1]);
        c.apply_delta(&[(1, -1), (2, 1)], &[1, -1]);
        assert!(c.word_nz(0).is_empty());
        assert_eq!(c.word_nz(1), &[0]);
        c.validate_nz().unwrap();
    }

    #[test]
    fn apply_delta_merges_signed_changes() {
        let mut c = TopicCounts::new(1, 2, 2);
        c.add_group(0, &[0, 1], 0);
        // Move word 1 from topic 0 to topic 1, expressed as a sparse
        // shard delta over the row-major (w, t) table.
        let delta_wk = vec![(2u32, -1i32), (3, 1)]; // w1:[t0, t1]
        let delta_k = vec![-1, 1];
        c.apply_delta(&delta_wk, &delta_k);
        assert_eq!(c.n_wk(1, 0), 0);
        assert_eq!(c.n_wk(1, 1), 1);
        assert_eq!(c.n_k(0), 1);
        assert_eq!(c.n_k(1), 1);
    }
}
