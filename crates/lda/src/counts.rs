//! The Gibbs count state: `N_dk`, `N_wk`, `N_k` behind one type.
//!
//! [`TopicCounts`] owns the three tables every reader of the sampler state
//! goes through — both sweep schedules, φ/θ point estimates, perplexity,
//! and Minka's fixed-point hyperparameter updates. Centralizing them keeps
//! the add/remove bookkeeping in one place and gives the parallel
//! scheduler a single thing to read and merge into.
//!
//! # One split borrow for both sweeps
//!
//! `TopicCounts::sweep_views` hands out every table at once
//! (`SweepViews`): the word side (`WordTables`: `N_wk`, its nonzero index,
//! `N_k`) and the `N_dk` rows. The sequential sweep updates them in place
//! through it. The snapshot sweep samples every document against the
//! sweep-start `N_wk`/`N_k`, and needs no copy for that: nothing writes
//! the word side between a sweep's start and its barrier, because the
//! merge ([`apply_delta`](TopicCounts::apply_delta)) runs only after every
//! worker has joined. Its workers therefore share the word side read-only
//! and cut the `N_dk` rows into blocks, and the merge costs one write per
//! sparse `(idx, Δ)` entry — proportional to how many counts moved,
//! independent of V·K.
//!
//! # Sparse nonzero indexes
//!
//! The bucketed O(active-topics) sampling kernel (`kernel.rs`,
//! `KERNEL_VERSION = 2`) iterates only the topics a word or document
//! actually uses. [`TopicCounts`] therefore maintains, alongside the dense
//! tables, a **sorted** list of nonzero topics per `N_wk` row
//! ([`word_nz`](TopicCounts::word_nz)) and per `N_dk` row
//! ([`doc_nz`](TopicCounts::doc_nz)). Every mutation path keeps them in
//! sync: a `CountRow`'s `add`/`sub`, which `add_group`,
//! `WordTables::add`/`remove` and the sampler's one per-document update go
//! through, on the live tables and on a document's gathered copy alike;
//! and the sparse `(idx, Δ)` barrier merge
//! ([`apply_delta`](TopicCounts::apply_delta)), which watches the 0 ↔
//! nonzero transitions it already computes. Sorted order makes the
//! kernel's bucket-sum iteration order canonical, which is what keeps the
//! sampled chain bit-identical across thread counts.

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
fn nz_row_insert(row: &mut [u16], len: &mut u16, t: u16) {
    let n = *len as usize;
    if let Err(pos) = row[..n].binary_search(&t) {
        row.copy_within(pos..n, pos + 1);
        row[pos] = t;
        *len += 1;
    }
}

/// Remove `t` from a fixed-capacity sorted row (no-op if absent).
#[inline]
fn nz_row_remove(row: &mut [u16], len: &mut u16, t: u16) {
    let n = *len as usize;
    if let Ok(pos) = row[..n].binary_search(&t) {
        row.copy_within(pos + 1..n, pos);
        *len -= 1;
    }
}

/// One K-wide count row with its sorted nonzero-topic row (flat, K wide)
/// and that row's live length: an `N_dk` row, or an `N_wk` row of the
/// live tables or of a gathered copy. [`add`](Self::add) and
/// [`sub`](Self::sub) keep the nonzero row in step with the counts.
pub(crate) struct CountRow<'a> {
    pub(crate) n: &'a mut [u32],
    nz: &'a mut [u16],
    nz_len: &'a mut u16,
}

impl<'a> CountRow<'a> {
    /// Row `i` of the K-wide tables `n` and `nz`, with live length
    /// `nz_len[i]`.
    #[inline]
    pub(crate) fn at(
        n: &'a mut [u32],
        nz: &'a mut [u16],
        nz_len: &'a mut [u16],
        i: usize,
        k: usize,
    ) -> Self {
        Self {
            n: &mut n[i * k..(i + 1) * k],
            nz: &mut nz[i * k..(i + 1) * k],
            nz_len: &mut nz_len[i],
        }
    }

    /// The topics with a nonzero count, sorted.
    #[inline]
    pub(crate) fn nonzero(&self) -> &[u16] {
        &self.nz[..*self.nz_len as usize]
    }

    /// Put `by` tokens into topic `t`.
    #[inline]
    pub(crate) fn add(&mut self, t: usize, by: u32) {
        if self.n[t] == 0 {
            nz_row_insert(self.nz, self.nz_len, t as u16);
        }
        self.n[t] += by;
    }

    /// Take `by` tokens out of topic `t`.
    #[inline]
    pub(crate) fn sub(&mut self, t: usize, by: u32) {
        self.n[t] -= by;
        if self.n[t] == 0 {
            nz_row_remove(self.nz, self.nz_len, t as u16);
        }
    }
}

/// The word side of a chain: `N_wk` with its nonzero index (K-wide rows,
/// laid out as in [`TopicCounts`]) and `N_k`. Rows are indexed by the word
/// ids of the tokens handed in: vocabulary ids on the live tables,
/// document-local ids on a document's gathered copy.
pub(crate) struct WordTables<'a> {
    pub(crate) n_wk: &'a mut [u32],
    pub(crate) nz_wk: &'a mut [u16],
    pub(crate) nz_wk_len: &'a mut [u16],
    pub(crate) n_k: &'a mut [u64],
}

impl WordTables<'_> {
    /// Word `w`'s `N_wk` row and its sorted nonzero topics.
    #[inline]
    pub(crate) fn word(&self, w: u32) -> (&[u32], &[u16]) {
        let (w, k) = (w as usize, self.n_k.len());
        (
            &self.n_wk[w * k..(w + 1) * k],
            &self.nz_wk[w * k..w * k + self.nz_wk_len[w] as usize],
        )
    }

    /// Put a clique's tokens into topic `t`.
    #[inline]
    pub(crate) fn add(&mut self, tokens: &[u32], t: usize) {
        let k = self.n_k.len();
        for &w in tokens {
            CountRow::at(self.n_wk, self.nz_wk, self.nz_wk_len, w as usize, k).add(t, 1);
        }
        self.n_k[t] += tokens.len() as u64;
    }

    /// Take a clique's tokens out of topic `t`.
    #[inline]
    pub(crate) fn remove(&mut self, tokens: &[u32], t: usize) {
        let k = self.n_k.len();
        for &w in tokens {
            CountRow::at(self.n_wk, self.nz_wk, self.nz_wk_len, w as usize, k).sub(t, 1);
        }
        self.n_k[t] -= tokens.len() as u64;
    }
}

/// Every table of a [`TopicCounts`], split-borrowed for one sweep: the
/// word side, and the `N_dk` rows with their nonzero index (flat, K wide)
/// for the sweep to cut per document or per block of documents.
pub(crate) struct SweepViews<'a> {
    pub(crate) words: WordTables<'a>,
    pub(crate) n_dk: &'a mut [u32],
    pub(crate) nz_dk: &'a mut [u16],
    pub(crate) nz_dk_len: &'a mut [u16],
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

    /// The full `N_wk` table, row-major `w*K + k` (e.g. to build a
    /// [`crate::kernel::FixedPhiView`]).
    #[inline]
    pub fn n_wk_table(&self) -> &[u32] {
        &self.n_wk
    }

    /// The full `N_k` table.
    #[inline]
    pub fn n_k_table(&self) -> &[u64] {
        &self.n_k
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

    /// Split-borrow every table for one sweep (see [`SweepViews`]).
    #[inline]
    pub(crate) fn sweep_views(&mut self) -> SweepViews<'_> {
        SweepViews {
            words: WordTables {
                n_wk: &mut self.n_wk,
                nz_wk: &mut self.nz_wk,
                nz_wk_len: &mut self.nz_wk_len,
                n_k: &mut self.n_k,
            },
            n_dk: &mut self.n_dk,
            nz_dk: &mut self.nz_dk,
            nz_dk_len: &mut self.nz_dk_len,
        }
    }

    /// Put a clique of document `d` into topic `topic` (initialization,
    /// and the rebuild [`PhraseLda::check_counts`](crate::PhraseLda::check_counts)
    /// compares against).
    pub fn add_group(&mut self, d: usize, tokens: &[u32], topic: u16) {
        let k = self.k;
        let mut views = self.sweep_views();
        views.words.add(tokens, topic as usize);
        CountRow::at(views.n_dk, views.nz_dk, views.nz_dk_len, d, k)
            .add(topic as usize, tokens.len() as u32);
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

    /// Take a clique back out through the sweep views, as a Gibbs update
    /// does before it redraws the clique's topic.
    fn remove_group(c: &mut TopicCounts, d: usize, tokens: &[u32], topic: usize) {
        let k = c.n_topics();
        let mut views = c.sweep_views();
        views.words.remove(tokens, topic);
        CountRow::at(views.n_dk, views.nz_dk, views.nz_dk_len, d, k)
            .sub(topic, tokens.len() as u32);
    }

    #[test]
    fn add_remove_round_trips() {
        let mut c = TopicCounts::new(2, 5, 3);
        c.add_group(1, &[0, 4, 4], 2);
        assert_eq!(c.n_dk(1, 2), 3);
        assert_eq!(c.n_wk(4, 2), 2);
        assert_eq!(c.n_k(2), 3);
        assert_eq!([0, 1, 2].map(|t| c.n_dk(1, t)), [0, 0, 3]);
        remove_group(&mut c, 1, &[0, 4, 4], 2);
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
        remove_group(&mut c, 1, &[4], 0);
        assert_eq!(c.word_nz(4), &[2]);
        assert_eq!(c.doc_nz(1), &[2]);
        remove_group(&mut c, 1, &[0, 4, 4], 2);
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
